"""The pair routing before its two lemmas shared one chain walk, close and
detour move, copied verbatim for the differential tests in test_routing.py.

Only the imports differ: they name the package instead of being relative.
Not collected by pytest (no test_ prefix).
"""

from __future__ import annotations

from fractions import Fraction

from madcycle.cyclesearch import detour_move, insertion_move, short_detour
from madcycle.errors import ConstructionFailure, PreconditionError
from madcycle.graph import (
    CycleCertificate,
    Graph,
    avg_degree,
    bits_off,
    build_graph,
    lowest_off,
    normalize_pair_chain,
    verify_cycle_certificate,
)


def _normalize_pairs(S) -> list[tuple[int, int]]:
    out = []
    for u, v in S:
        if u == v:
            raise PreconditionError("pair with equal endpoints")
        out.append((min(u, v), max(u, v)))
    if len(set(out)) != len(out):
        raise PreconditionError("duplicate pair in S")
    return sorted(out)


def hamiltonian_through_pairs(h: Graph, S) -> CycleCertificate:
    """Hamiltonian cycle of h+S containing every pair of S as a cycle edge.

    An empty S is replaced by the lowest edge of h, so the construction always
    has a seed pair. Raises ConstructionFailure when the search cannot
    complete; never returns an unverified cycle.
    """
    S = _normalize_pairs(S)
    if not S:
        first = next(h.edges(), None)
        if first is None:
            raise PreconditionError("graph has no edge to substitute for empty S")
        S = [first]
    chain = normalize_pair_chain(S)
    d = avg_degree(h)
    gp = h.add_pairs(S)
    low_threshold = Fraction(4, 5) * d
    low = {v for v in h.vertices() if h.degree(v) <= low_threshold}
    endpoints = {v for pair in chain for v in pair}

    path = [chain[0][0], chain[0][1]]
    for i in range(1, len(chain)):
        x, y = chain[i]
        if path[-1] != x:
            banned = set(path) | endpoints
            path += _connect(gp, path[-1], x, banned, banned | low,
                             f"could not join pair {i} of the chain (density too low)")
            path.append(x)
        path.append(y)

    # absorb every low-degree vertex at the tail end
    for z_i in sorted(low):
        if z_i in path:
            continue
        on = set(path)
        path += _connect(gp, path[-1], z_i, on, on | low,
                         f"could not absorb low-degree vertex {z_i}")
        path.append(z_i)

    cycle = _close_path(gp, path)
    cycle = _extend_hamiltonian(gp, cycle, set(S), d)
    cert = CycleCertificate(tuple(cycle), gp.n)
    check = verify_cycle_certificate(gp, cert)
    if not check:
        raise ConstructionFailure(f"internal: cycle failed verification: {check.reason}")
    _check_pairs_on_cycle(cycle, S)
    return cert


def _connect(gp: Graph, a: int, b: int, banned, ends_banned, failure: str) -> list[int]:
    """Inner vertices of a short a..b path: none over an edge, else a detour."""
    if gp.has_edge(a, b):
        return []
    ins = short_detour(gp, a, b, banned, ends_banned)
    if ins is None:
        raise ConstructionFailure(failure)
    return ins


def _close_path(gp: Graph, path: list[int]) -> list[int]:
    head, tail = path[0], path[-1]
    if len(path) >= 3 and gp.has_edge(head, tail):
        return list(path)
    on = set(path)
    ins = short_detour(gp, head, tail, on, on)
    if ins is None:
        raise ConstructionFailure("could not close the pair chain into a cycle")
    return path + ins[::-1]


def _extend_hamiltonian(
    gp: Graph, cycle: list[int], S: set[tuple[int, int]], d: Fraction
) -> list[int]:
    """Grow to all of gp: detours first while the cycle is short, else insertions."""
    while len(cycle) < gp.n:
        on = set(cycle)
        first, second = insertion_move, detour_move
        if Fraction(len(cycle)) <= d / 2:
            first, second = second, first
        move = first(gp, cycle, on, S) or second(gp, cycle, on, S)
        if move is None:
            raise ConstructionFailure(
                f"could not extend cycle past {len(cycle)}/{gp.n} vertices"
            )
        i, ins = move
        cycle = cycle[: i + 1] + ins + cycle[i + 1 :]
    return cycle


def _check_pairs_on_cycle(cycle: list[int], S) -> None:
    pos = {v: i for i, v in enumerate(cycle)}
    n = len(cycle)
    for u, v in S:
        if u not in pos or v not in pos:
            raise ConstructionFailure(f"pair ({u},{v}) missing from cycle")
        if (pos[u] - pos[v]) % n not in (1, n - 1):
            raise ConstructionFailure(f"pair ({u},{v}) not consecutive on cycle")


# ---------------------------------------------------------------------------
# bipartite-dense covering


def cover_side_through_pairs(h: Graph, A, B, S, k: int) -> CycleCertificate:
    """Cycle of h+S through every pair of S covering all of A, length 2p-s+t.

    A and B partition V(h) with B independent; only A-B edges of h are used
    (edges inside A, if any, are ignored), which pins the exact length. An
    empty S is replaced by the lowest A-B edge. k only orders the moves.
    """
    A, B = frozenset(A), frozenset(B)
    if A & B or A | B != frozenset(h.vertices()):
        raise PreconditionError("A and B must partition the vertex set")
    for u in B:
        for w in h.adj[u]:
            if w in B:
                raise PreconditionError("B is not an independent set")
    p = len(A)
    if p == 0:
        raise PreconditionError("A must be nonempty")

    # bipartite reduction: A-B edges only
    edges = [(u, v) for u, v in h.edges() if (u in A) != (v in A)]
    hb = build_graph(edges, h.n)

    S = _normalize_pairs(S)
    if not S:
        first = next(iter(hb.edges()), None)
        if first is None:
            raise PreconditionError("no A-B edge to substitute for empty S")
        S = [first]
    chain = normalize_pair_chain(S)
    s_cnt = sum(1 for u, v in S if u in A and v in A)
    t_cnt = sum(1 for u, v in S if u in B and v in B)

    gp = hb.add_pairs(S)
    endpoints = {v for pair in chain for v in pair}

    path = [chain[0][0], chain[0][1]]
    for i in range(1, len(chain)):
        x, y = chain[i]
        prev = path[-1]
        if prev == x:
            path.append(y)
            continue
        if gp.has_edge(prev, x):
            path += [x, y]
            continue
        banned = set(path) | endpoints
        joint = _bip_connector(hb, A, prev, x, banned)
        if joint is None:
            raise ConstructionFailure(f"could not join pair {i} of the chain")
        path += joint + [x, y]

    cycle = _bip_close(hb, A, gp, path)
    cycle = _bip_cover_a(hb, A, B, cycle, set(S), k)

    expected = 2 * p - s_cnt + t_cnt
    if len(cycle) != expected:
        raise ConstructionFailure(
            f"internal: cycle length {len(cycle)} != 2p-s+t = {expected}"
        )
    cert = CycleCertificate(tuple(cycle), expected)
    check = verify_cycle_certificate(gp, cert)
    if not check:
        raise ConstructionFailure(f"internal: cycle failed verification: {check.reason}")
    if not A <= set(cycle):
        raise ConstructionFailure("internal: cycle does not cover A")
    _check_pairs_on_cycle(cycle, S)
    return cert


def _bip_connector(
    hb: Graph, A: frozenset[int], a: int, b: int, banned: set[int]
) -> list[int] | None:
    """Connector vertices (excluding a and b) of a short a..b path in hb.

    Case analysis on the sides of a and b; connector length 1 or 2, or 3 for
    an A-A pair whose fresh B-neighbors lack a direct common A-neighbor.
    """
    a_in, b_in = a in A, b in A
    if a_in and b_in:
        # hb has no B-B edge, so this detour is [z] or [u, w, v]
        return short_detour(hb, a, b, banned, banned)
    if not a_in and not b_in:
        v = lowest_off(hb.masks[a] & hb.masks[b], banned)
        return None if v is None else [v]
    # one step from the A end into B, then a common neighbour with the other end
    x, y = (a, b) if a_in else (b, a)
    for u in bits_off(hb.masks[x], banned):
        v = lowest_off(hb.masks[u] & hb.masks[y], banned)
        if v is not None:
            return [u, v] if a_in else [v, u]
    return None


def _bip_close(hb: Graph, A: frozenset[int], gp: Graph, path: list[int]) -> list[int]:
    head, tail = path[0], path[-1]
    if len(path) >= 3 and gp.has_edge(head, tail):
        return list(path)
    joint = _bip_connector(hb, A, tail, head, set(path))
    if joint is None:
        raise ConstructionFailure("could not close the pair chain into a cycle")
    return path + joint


def _bip_cover_a(
    hb: Graph,
    A: frozenset[int],
    B: frozenset[int],
    cycle: list[int],
    S: set[tuple[int, int]],
    k: int,
) -> list[int]:
    while not A <= set(cycle):
        on = set(cycle)
        missing = sorted(A - on)
        move = None
        case2_first = len(missing) <= 2 * k
        for attempt in (0, 1):
            do_case2 = case2_first if attempt == 0 else not case2_first
            if do_case2:
                move = _bip_case2(hb, A, B, cycle, S, on, missing)
            else:
                move = _bip_case1(hb, A, B, cycle, S, on)
            if move:
                break
        if move is None:
            raise ConstructionFailure(
                f"could not cover A: {len(missing)} vertices remain outside"
            )
        cycle = move
    return cycle


def _bip_case1(hb, A, B, cycle, S, on):
    """Replace an A-B cycle edge xy by x-u-v-y with u in B, v in A, both fresh."""
    n = len(cycle)
    for i in range(n):
        x, y = cycle[i], cycle[(i + 1) % n]
        if (min(x, y), max(x, y)) in S:
            continue
        if x in A and y in B:
            ax, by = x, y
        elif y in A and x in B:
            ax, by = y, x
        else:
            continue
        for u in bits_off(hb.masks[ax], on):
            v = lowest_off(hb.masks[u] & hb.masks[by], on)
            if v is not None:
                ins = [u, v] if x == ax else [v, u]
                return cycle[: i + 1] + ins + cycle[i + 1 :]
    return None


def _bip_case2(hb, A, B, cycle, S, on, missing):
    """Replace a segment x-z-y (x,y in A, z in B, non-pair edges) by x-v-u-w-y."""
    n = len(cycle)
    for u in missing:
        fresh = bits_off(hb.masks[u], on)
        if len(fresh) < 2:
            continue
        for i in range(n):
            x, z, y = cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]
            if not (x in A and y in A and z in B):
                continue
            if (min(x, z), max(x, z)) in S or (min(z, y), max(z, y)) in S:
                continue
            for v in fresh:
                if not hb.has_edge(x, v):
                    continue
                for w in fresh:
                    if w != v and hb.has_edge(y, w):
                        rot = cycle[i:] + cycle[:i]  # rot: x, z, y, ...
                        return [rot[0], v, u, w] + rot[2:]
    return None
