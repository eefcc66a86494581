"""Constructive long cycles and paths: Dirac bound, Fan bound, st-paths.

The Dirac and Fan routines layer a rotation-extension heuristic over an exact
bounded fallback, so the classical guarantees hold at desk scale while dense
instances stay polynomial in practice. st_path_at_least is color coding; the
identity coloring makes it an exact decision on small hosts. It returns the
path (or None) with a flag saying whether the search was exact, so a None
proves absence only when the flag is True.
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
    bits_off,
    ceil_frac,
    is_biconnected,
    lowest_off,
    require_verified,
    verify_cycle_certificate,
    verify_path_certificate,
)

RANDOM_Q_CAP = 18
DEFAULT_TRIAL_CAP = 500
EXTRA_TARGETS = 2  # randomized mode also probes slightly longer exact lengths
DET_STATE_BUDGET = 400_000  # states an identity coloring may create


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
    """
    if s == t:
        raise PreconditionError("fan_path needs distinct endpoints")
    if not is_biconnected(g):
        raise PreconditionError("fan_path needs a 2-connected graph")
    others = [v for v in g.vertices() if v not in (s, t)]
    bound = avg_degree_of_set(g, others)
    want_vertices = ceil_frac(bound) + 1

    path = _grow_st_path(g, s, t, want_vertices)
    if path is not None and len(path) >= want_vertices:
        cert = PathCertificate(tuple(path))
        require_verified(verify_path_certificate(g, cert))
        return cert

    # dense case: a Hamiltonian cycle through the forced pair yields a
    # Hamiltonian (s,t)-path, which always meets the bound
    from . import routing

    try:
        cyc = routing.hamiltonian_through_pairs(g, {(s, t)})
    except (ConstructionFailure, PreconditionError):
        cyc = None
    if cyc is not None:
        seq = list(cyc.vertices)
        i = seq.index(s)
        rotated = seq[i:] + seq[:i]
        if rotated[1] == t:
            rotated = [rotated[0]] + rotated[:0:-1]
        if rotated[-1] == t:
            cert = PathCertificate(tuple(rotated))
            require_verified(verify_path_certificate(g, cert))
            return cert

    budget = None if g.n <= 18 else 2_000_000
    found = cyclesearch.find_st_path_at_least(g, s, t, want_vertices, budget)
    if found is not None:
        cert = PathCertificate(tuple(found))
        require_verified(verify_path_certificate(g, cert))
        return cert
    raise ConstructionFailure(
        f"fan_path could not reach length {want_vertices - 1} between {s} and {t}"
    )


def _grow_st_path(g: Graph, s: int, t: int, want_vertices: int) -> list[int] | None:
    """Shortest path then insertion moves; cheap heuristic, no guarantee."""
    prev = {s: None}
    queue = [s]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == t:
            break
        for w in g.adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    if t not in prev:
        return None
    path = []
    v = t
    while v is not None:
        path.append(v)
        v = prev[v]
    path.reverse()
    while len(path) < want_vertices:
        on = set(path)
        move = None
        for i in range(len(path) - 1):
            x, y = path[i], path[i + 1]
            common = g.masks[x] & g.masks[y]
            z = lowest_off(common, on)
            if z is not None:
                move = (i, [z])
                break
        if move is None:
            for i in range(len(path) - 1):
                x, y = path[i], path[i + 1]
                us = bits_off(g.masks[x], on)
                vs = bits_off(g.masks[y], on)
                done = None
                for u in us:
                    for v2 in vs:
                        if u != v2 and g.has_edge(u, v2):
                            done = [u, v2]
                            break
                    if done:
                        break
                if done:
                    move = (i, done)
                    break
        if move is None:
            return path
        i, ins = move
        path = path[: i + 1] + ins + path[i + 1 :]
    return path


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
    want_vertices. Subset DP over color sets."""
    states = 0
    start_key = 1 << coloring[s]
    reach: dict[int, int] = {start_key: 1 << s}
    parents: dict[tuple[int, int], tuple[int, int] | None] = {(start_key, s): None}
    queue = [start_key]
    qi = 0
    accept = None
    while qi < len(queue) and accept is None:
        ckey = queue[qi]
        qi += 1
        ends = reach[ckey]
        e = ends
        while e:
            v = (e & -e).bit_length() - 1
            e &= e - 1
            if v == t:
                if ckey.bit_count() >= want_vertices:
                    accept = (ckey, v)
                    break
                continue
            for w in g.adj[v]:
                cw = coloring[w]
                if ckey >> cw & 1:
                    continue
                nkey = ckey | (1 << cw)
                if nkey not in reach:
                    reach[nkey] = 0
                    queue.append(nkey)
                if not reach[nkey] >> w & 1:
                    reach[nkey] |= 1 << w
                    parents[(nkey, w)] = (ckey, v)
                    if state_budget is not None:
                        states += 1
                        if states > state_budget:
                            raise StateBudgetExceeded()
    if accept is None:
        return None
    ckey, v = accept
    out = [v]
    while parents[(ckey, v)] is not None:
        ckey, v = parents[(ckey, v)]
        out.append(v)
    out.reverse()
    return out


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

    The identity coloring gives an exact decision whenever its reachable
    state space fits DET_STATE_BUDGET; otherwise one-sided Monte Carlo with
    target_vertices colors runs, the flag is False, and None only means none
    found at the configured confidence.
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
