"""Cycles through prescribed pairs in dense graphs.

Both lemmas run one construction: chain the potentially cyclable pair set
into a path by short connectors (`_chain_path`), close it (`_close`), insert
the missing vertices by detour moves, and certify the cycle (`_certify`).
They differ in the connector, the join. In a graph whose average degree
nearly matches its order it is a `short_detour` whose ends avoid low-degree
vertices; the path absorbs every such vertex, and the cycle extends to a
Hamiltonian cycle of h+S. In a dense bipartite graph it is `_bip_connector`,
which respects the sides, and the cycle covers the small side exactly,
giving length 2p - s + t.

The lemmas' numeric preconditions, which guarantee success, are not checked:
each construction raises ConstructionFailure where it gets stuck, and every
cycle it returns is verified.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .cyclesearch import detour_move, insertion_move, short_detour
from .errors import ConstructionFailure, PreconditionError
from .graph import (
    CycleCertificate,
    Graph,
    avg_degree,
    bits_off,
    certify,
    lowest_off,
    mask_of,
    normalize_pair_chain,
)


def _normalize_pairs(S, g: Graph, no_edge: str) -> list[tuple[int, int]]:
    """S as sorted (min, max) pairs; an empty S becomes the lowest edge of g,
    and PreconditionError(no_edge) is raised when g has none."""
    out = []
    for u, v in S:
        if u == v:
            raise PreconditionError("pair with equal endpoints")
        out.append((min(u, v), max(u, v)))
    if len(set(out)) != len(out):
        raise PreconditionError("duplicate pair in S")
    if not out:
        first = next(g.edges(), None)
        if first is None:
            raise PreconditionError(no_edge)
        out.append(first)
    return sorted(out)


def hamiltonian_through_pairs(h: Graph, S) -> CycleCertificate:
    """Hamiltonian cycle of h+S containing every pair of S as a cycle edge.

    An empty S is replaced by the lowest edge of h, so the construction always
    has a seed pair. Raises ConstructionFailure when the search cannot
    complete; never returns an unverified cycle.
    """
    S = _normalize_pairs(S, h, "graph has no edge to substitute for empty S")
    d = avg_degree(h)
    gp = h.add_pairs(S)
    low_threshold = Fraction(4, 5) * d
    low = {v for v in h.vertices() if h.degree(v) <= low_threshold}

    def join(a, b, banned):
        return short_detour(gp, a, b, banned, banned | low)

    path = _chain_path(gp, S, join, " (density too low)")
    # absorb every low-degree vertex at the tail end
    for z in sorted(low):
        if z not in path:
            path += _link(gp, path[-1], z, join, set(path),
                          f"could not absorb low-degree vertex {z}") + [z]

    def back(a, b, on):  # low is on the path now: join from b to a, reversed
        ins = join(b, a, on)
        return ins and ins[::-1]

    cycle = _extend_hamiltonian(gp, _close(gp, path, back), set(S), d)
    return _certify(gp, cycle, S, gp.n)


def _link(gp: Graph, a: int, b: int, join, banned, failure: str) -> list[int]:
    """Inner vertices of a short a..b path: none over an edge of gp, else join's."""
    if gp.has_edge(a, b):
        return []
    ins = join(a, b, banned)
    if ins is None:
        raise ConstructionFailure(failure)
    return ins


def _chain_path(gp: Graph, S, join, note: str = "") -> list[int]:
    """A path through the pairs of S in `normalize_pair_chain` order.

    A pair that does not start where the previous one ends is reached over
    an edge of gp, else through join(prev, x, banned), whose vertices avoid
    the path and every pair end; note ends the failure message.
    """
    chain = normalize_pair_chain(S)
    endpoints = {v for pair in chain for v in pair}
    path = list(chain[0])
    for i in range(1, len(chain)):
        x, y = chain[i]
        if path[-1] != x:
            path += _link(gp, path[-1], x, join, set(path) | endpoints,
                          f"could not join pair {i} of the chain{note}") + [x]
        path.append(y)
    return path


def _close(gp: Graph, path: list[int], join) -> list[int]:
    """path closed into a cycle: over an edge of gp, else by join(tail, head, on)."""
    head, tail = path[0], path[-1]
    if len(path) >= 3 and gp.has_edge(head, tail):
        return path
    ins = join(tail, head, set(path))
    if ins is None:
        raise ConstructionFailure("could not close the pair chain into a cycle")
    return path + ins


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


def _certify(gp: Graph, cycle: list[int], S, length: int) -> CycleCertificate:
    """The certificate of cycle, verified in gp, with every pair of S on it."""
    cert = certify(gp, CycleCertificate(tuple(cycle), length))
    pos = {v: i for i, v in enumerate(cycle)}
    n = len(cycle)
    for u, v in S:
        if u not in pos or v not in pos:
            raise ConstructionFailure(f"pair ({u},{v}) missing from cycle")
        if (pos[u] - pos[v]) % n not in (1, n - 1):
            raise ConstructionFailure(f"pair ({u},{v}) not consecutive on cycle")
    return cert


# ---------------------------------------------------------------------------
# bipartite-dense covering


def cover_side_through_pairs(h: Graph, A, S, k: int) -> CycleCertificate:
    """Cycle of h+S through every pair of S covering all of A, length 2p-s+t.

    B = V(h) - A must be independent; only A-B edges of h are used (edges
    inside A, if any, are ignored), which pins the exact length. An empty S
    is replaced by the lowest A-B edge. k only orders the moves.
    """
    A, V = frozenset(A), frozenset(h.vertices())
    if not A <= V:
        raise PreconditionError("A must be a subset of the vertex set")
    B = V - A
    b_mask = mask_of(B)
    if any(h.masks[u] & b_mask for u in B):
        raise PreconditionError("B is not an independent set")
    p = len(A)
    if p == 0:
        raise PreconditionError("A must be nonempty")

    # bipartite reduction, A-B edges only: a B row has no other edge, and
    # each A row is masked by B
    hb = h.with_masks([m & b_mask if u in A else m for u, m in enumerate(h.masks)])

    S = _normalize_pairs(S, hb, "no A-B edge to substitute for empty S")
    s_cnt = sum(1 for u, v in S if u in A and v in A)
    t_cnt = sum(1 for u, v in S if u in B and v in B)

    gp = hb.add_pairs(S)
    join = partial(_bip_connector, hb, A)
    cycle = _close(gp, _chain_path(gp, S, join), join)
    cycle = _bip_cover_a(hb, A, cycle, set(S), k)

    expected = 2 * p - s_cnt + t_cnt
    if len(cycle) != expected:
        raise ConstructionFailure(
            f"internal: cycle length {len(cycle)} != 2p-s+t = {expected}"
        )
    return _certify(gp, cycle, S, expected)


def _bip_connector(
    hb: Graph, A: frozenset[int], a: int, b: int, banned: set[int]
) -> list[int] | None:
    """Connector vertices (excluding a and b) of a short a..b path in hb.

    Case analysis on the sides of a and b; connector length 1 or 2, or 3 for
    an A-A pair whose fresh B-neighbors lack a direct common A-neighbor. It
    joins and closes the pair chain and is the detour of `_bip_cover_a`.
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


def _bip_cover_a(
    hb: Graph,
    A: frozenset[int],
    cycle: list[int],
    S: set[tuple[int, int]],
    k: int,
) -> list[int]:
    """Grow the cycle until it covers A; case 2 goes first while at most 2k
    vertices of A are missing. Case 1 is `detour_move` with `_bip_connector`:
    every open cycle edge xy is an A-B edge, which its one-sided case
    replaces by x-u-v-y, u in B and v in A both fresh."""
    join = partial(_bip_connector, hb, A)
    while not A <= set(cycle):
        on = set(cycle)
        missing = sorted(A - on)

        def case1():
            move = detour_move(hb, cycle, on, S, join)
            return move and cycle[: move[0] + 1] + move[1] + cycle[move[0] + 1 :]

        case2 = partial(_bip_case2, hb, A, cycle, S, on, missing)
        first, second = (case2, case1) if len(missing) <= 2 * k else (case1, case2)
        move = first() or second()
        if move is None:
            raise ConstructionFailure(
                f"could not cover A: {len(missing)} vertices remain outside"
            )
        cycle = move
    return cycle


def _bip_case2(hb, A, cycle, S, on, missing):
    """Replace a segment x-z-y (x,y in A, z in B, non-pair edges) by x-v-u-w-y."""
    n = len(cycle)
    for u in missing:
        fresh = bits_off(hb.masks[u], on)
        if len(fresh) < 2:
            continue
        for i in range(n):
            x, z, y = cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]
            if not (x in A and y in A and z not in A):
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
