"""Constructive long cycles and paths: Dirac bound, Fan bound, st-paths.

The Dirac routine layers a rotation-extension heuristic over the exact
cycle search, so the guarantee holds at desk scale while dense instances
stay polynomial in practice. Every (s,t)-path search is the one exact
depth-first search, `cyclesearch._colorful_path`, which also finds long
cycles: st_path_at_least runs it under DET_STATE_BUDGET states, and
fan_path is one st_path_at_least call at Fan's bound. Every exact search
has one contract: it returns its object, or None as a proof of absence, and
past its state budget it raises StateBudgetExceeded.
"""

from __future__ import annotations

import math

from . import cyclesearch
from .errors import ConstructionFailure, PreconditionError, StateBudgetExceeded
from .graph import (
    CycleCertificate,
    Graph,
    PathCertificate,
    avg_degree_of_set,
    certify,
    is_biconnected,
)

DET_STATE_BUDGET = 400_000  # states one exact search may push before it gives up


def dirac_cycle(g: Graph, want: int | None = None) -> CycleCertificate:
    """A cycle of length >= min(want, n, 2*min_degree), never below 3, in a
    2-connected graph; want None asks for min(n, 2*min_degree).

    Rotation-extension with crossing-chord closure; when 2*delta >= n the
    crossing chord always exists for a maximal path, so the loop provably
    reaches a Hamiltonian cycle. The search returns at the first path whose
    closure reaches the length asked, so a caller that needs less than the
    Dirac bound gets a shorter cycle, sooner. Below the bound the exact
    cycle search backs up the heuristic, under DET_STATE_BUDGET states; past
    them it is a ConstructionFailure. A short heuristic cycle has already
    been grown by `cyclesearch.grow_cycle` as far as it goes, so it is not
    grown again.
    """
    if not is_biconnected(g):
        raise PreconditionError("dirac_cycle needs a 2-connected graph")
    bound = min(g.n, 2 * g.min_degree())
    want = max(bound if want is None else min(want, bound), 3)
    cyc = cyclesearch.long_cycle_search_best(g, want)
    if cyc is None or len(cyc) < want:
        try:
            cyc = cyclesearch.find_cycle_at_least(g, want, DET_STATE_BUDGET)
        except StateBudgetExceeded:
            cyc = None
    if cyc is None:
        raise ConstructionFailure(
            f"dirac_cycle could not reach length {want} on n={g.n}"
        )
    return certify(g, CycleCertificate(tuple(cyc), want))


def fan_path(g: Graph, s: int, t: int) -> PathCertificate:
    """An (s,t)-path of length at least the average degree of the other vertices.

    The bound is exact-rational; integer path length must reach its ceiling.
    Fan's theorem says such a path exists, and `st_path_at_least` finds it;
    a search past DET_STATE_BUDGET states is a ConstructionFailure.
    """
    if s == t:
        raise PreconditionError("fan_path needs distinct endpoints")
    if not is_biconnected(g):
        raise PreconditionError("fan_path needs a 2-connected graph")
    others = [v for v in g.vertices() if v not in (s, t)]
    want_vertices = math.ceil(avg_degree_of_set(g, others)) + 1
    try:
        found = st_path_at_least(g, s, t, want_vertices)
    except StateBudgetExceeded:
        found = None
    if found is None:
        raise ConstructionFailure(
            f"fan_path could not reach length {want_vertices - 1} between {s} and {t}"
        )
    return found


def st_path_at_least(
    g: Graph, s: int, t: int, target_vertices: int
) -> PathCertificate | None:
    """A simple (s,t)-path with >= target_vertices vertices, or None when
    none exists. Past DET_STATE_BUDGET states it raises StateBudgetExceeded.
    """
    if s == t:
        raise PreconditionError("st_path_at_least needs distinct endpoints")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise PreconditionError("st_path_at_least endpoint out of range")
    target_vertices = max(target_vertices, 2)
    found = cyclesearch._colorful_path(
        g, s, t, (1 << g.n) - 1, target_vertices, [DET_STATE_BUDGET]
    )
    return None if found is None else certify(g, PathCertificate(tuple(found)))
