"""Constructive long cycles and paths: Dirac bound, Fan bound, st-paths.

The Dirac routine layers a rotation-extension heuristic over an exact
bounded fallback, so the guarantee holds at desk scale while dense instances
stay polynomial in practice. Every (s,t)-path search is one depth-first
search over colourful states, `_colorful_st_path`: st_path_at_least runs it
under the identity coloring, an exact decision while it fits
DET_STATE_BUDGET, and past that under Monte Carlo colorings; fan_path is
one st_path_at_least call at Fan's bound. st_path_at_least returns the path
(or None) with a flag saying whether the search was exact, so a None proves
absence only when the flag is True.
"""

from __future__ import annotations

import math
import random

from . import cyclesearch
from .errors import ConstructionFailure, PreconditionError, StateBudgetExceeded
from .graph import (
    CycleCertificate,
    Graph,
    PathCertificate,
    avg_degree_of_set,
    ceil_frac,
    is_biconnected,
    reach,
    require_verified,
    verify_cycle_certificate,
    verify_path_certificate,
)

RANDOM_Q_CAP = 18
DEFAULT_TRIAL_CAP = 500
EXTRA_TARGETS = 2  # randomized mode also probes slightly longer exact lengths
DET_STATE_BUDGET = 400_000  # states an identity coloring's search may push


def dirac_cycle(g: Graph) -> CycleCertificate:
    """A cycle of length >= min(n, 2*min_degree) in a 2-connected graph.

    Rotation-extension with crossing-chord closure; when 2*delta >= n the
    crossing chord always exists for a maximal path, so the loop provably
    reaches a Hamiltonian cycle. Below that threshold a bounded exact search
    backs up the heuristic. A short heuristic cycle has already been grown
    by `cyclesearch.grow_cycle` as far as it goes, so it is not grown again.
    """
    if not is_biconnected(g):
        raise PreconditionError("dirac_cycle needs a 2-connected graph")
    want = min(g.n, 2 * g.min_degree())
    want = max(want, 3)
    cyc = cyclesearch.long_cycle_search_best(g, want)
    if cyc is None or len(cyc) < want:
        budget = None if g.n <= 20 else 2_000_000
        cyc = cyclesearch.find_cycle_at_least(g, want, budget)
    if cyc is None:
        raise ConstructionFailure(
            f"dirac_cycle could not reach min(n, 2*delta) = {want} on n={g.n}"
        )
    cert = CycleCertificate(tuple(cyc), want)
    require_verified(verify_cycle_certificate(g, cert))
    return cert


def fan_path(g: Graph, s: int, t: int) -> PathCertificate:
    """An (s,t)-path of length at least the average degree of the other vertices.

    The bound is exact-rational; integer path length must reach its ceiling.
    Fan's theorem says such a path exists, and `st_path_at_least` finds it.
    """
    if s == t:
        raise PreconditionError("fan_path needs distinct endpoints")
    if not is_biconnected(g):
        raise PreconditionError("fan_path needs a 2-connected graph")
    others = [v for v in g.vertices() if v not in (s, t)]
    want_vertices = ceil_frac(avg_degree_of_set(g, others)) + 1
    found, _ = st_path_at_least(g, s, t, want_vertices)
    if found is None:
        raise ConstructionFailure(
            f"fan_path could not reach length {want_vertices - 1} between {s} and {t}"
        )
    return found


# ---------------------------------------------------------------------------
# color-coded (s,t)-paths


def _colorful_st_path(
    g: Graph,
    s: int,
    t: int,
    coloring: list[int],
    want_vertices: int,
    state_budget: int | None = None,
) -> list[int] | None:
    """A path s..t whose vertices carry distinct colors and number at least
    want_vertices, or None if there is none.

    Depth-first over states (color set, end), children in ascending order,
    so the first qualifying path in that order is returned. A child w is
    pruned when t is not reachable from w through vertices of unused colors,
    or when the path plus those vertices is still too short; t only ends a
    path. Whether a state completes depends only on its color set and end,
    so a state found without completion is kept dead and never expanded
    again. Every pushed state counts against state_budget.
    """
    classes = [0] * (max(coloring) + 1)
    for v, c in enumerate(coloring):
        classes[c] |= 1 << v
    dead: set[tuple[int, int]] = set()
    states = 0
    path = [s]
    c = coloring[s]
    stack = [(1 << c, ((1 << g.n) - 1) & ~classes[c], iter(g.adj[s]))]
    while stack:
        ckey, alive, children = stack[-1]
        for w in children:
            if not alive >> w & 1:
                continue
            if w == t:
                if len(path) + 1 >= want_vertices:
                    return path + [t]
                continue
            key = ckey | 1 << coloring[w]
            if (key, w) in dead:
                continue
            rest = alive & ~classes[coloring[w]]
            rm = reach(g, g.masks[w], rest)
            if not rm >> t & 1 or len(path) + 1 + rm.bit_count() < want_vertices:
                dead.add((key, w))
                continue
            if state_budget is not None:
                states += 1
                if states > state_budget:
                    raise StateBudgetExceeded()
            path.append(w)
            stack.append((key, rest, iter(g.adj[w])))
            break
        else:
            stack.pop()
            dead.add((ckey, path.pop()))
    return None


def st_path_at_least(
    g: Graph,
    s: int,
    t: int,
    target_vertices: int,
    seed: int = 0,
    trials: int | None = None,
) -> tuple[PathCertificate | None, bool]:
    """A simple (s,t)-path with >= target_vertices vertices, if one is found,
    and whether the search was exact.

    The identity coloring gives an exact decision whenever its search fits
    DET_STATE_BUDGET; otherwise the flag is False and one-sided Monte Carlo
    with target_vertices colors runs, up to RANDOM_Q_CAP colors, so None
    only means none found at the configured confidence.
    """
    if s == t:
        raise PreconditionError("st_path_at_least needs distinct endpoints")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise PreconditionError("st_path_at_least endpoint out of range")
    target_vertices = max(target_vertices, 2)
    try:
        found = _colorful_st_path(
            g, s, t, list(range(g.n)), target_vertices, state_budget=DET_STATE_BUDGET
        )
        if found is None:
            return None, True
        cert = PathCertificate(tuple(found))
        require_verified(verify_path_certificate(g, cert))
        return cert, True
    except StateBudgetExceeded:
        pass
    if target_vertices > RANDOM_Q_CAP:
        return None, False
    if trials is None:
        trials = min(DEFAULT_TRIAL_CAP, math.ceil(5 * math.exp(target_vertices)))
    for extra in range(EXTRA_TARGETS + 1):
        q = target_vertices + extra
        if q > RANDOM_Q_CAP:
            break
        for trial in range(trials):
            rng = random.Random(seed * 2654435761 + q * 1000003 + trial)
            coloring = [rng.randrange(q) for _ in range(g.n)]
            found = _colorful_st_path(g, s, t, coloring, q)
            if found is not None:
                cert = PathCertificate(tuple(found))
                require_verified(verify_path_certificate(g, cert))
                return cert, False
    return None, False
