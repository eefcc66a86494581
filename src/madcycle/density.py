"""Exact maximum average degree via load flows.

The density of a vertex set S is |E(S)|/|S|; mad(G) is twice the largest.
For a density p/q, let every edge split q units between its two ends. Some
split gives every vertex at most p units exactly when no set is denser than
p/q (Hall's theorem, the LP dual of Charikar 2000): a set S receives all the
q|E(S)| units of its own edges, and at most p|S| in all. A max flow looks
for such a split by moving units along edges, from the vertices above p
(their excess) to those below it (their room), at most q per edge. There
is no network object: the source and sink are each vertex's excess and
room, kept in one array of loads. Where the excess cannot all move, the
vertices it still reaches form a denser set. All arithmetic is exact on ints.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConstructionFailure, PreconditionError
from .graph import Graph, require_verified, verify_density_certificate


@dataclass(frozen=True)
class DensityWitness:
    vertices: frozenset[int]
    density: Fraction

    @property
    def mad(self) -> Fraction:
        return 2 * self.density


def _load_flow(
    g: Graph, rank: list[int], p: int, q: int
) -> tuple[frozenset[int] | None, list[tuple[int, int]] | None]:
    """Max flow on the load network at density p/q, p >= 0, q >= 1.

    The i-th edge (u, v) of g.edges() is arcs 2i (u -> v), holding the
    units of its q that sit on u, and 2i + 1 (v -> u), holding those on v;
    moving units along an arc moves them to its head. There is no network
    object and no source or sink: a vertex's load above p is its excess,
    and its load below p its room. One pass over the adjacency lays out the
    arcs with each edge's units on the end that comes first in `rank`, and
    sets every first load; one pass over the overloaded vertices moves
    their units straight to neighbours with room. Dinic phases then move
    excess to room along shortest residual paths, levelled by distance to
    room, so that every levelled vertex has an arc one level down until a
    move empties it.

    Cutting a vertex set S off from the room costs the total excess plus
    p|S| - q|E(S)|, so the cut sides are the maximisers of q|E(S)| - p|S|.
    Returns (T, None) when the excess cannot all move: some set is denser
    than p/q, and T, reachable from the excess left, is the minimal
    maximiser. Otherwise every load is at most p and it returns (W,
    splits): W, the vertices that cannot reach room, is the maximal
    maximiser (the union of all sets of density p/q), and splits[i] =
    (units on u, units on v) for the i-th edge (u, v) of g.edges().
    """
    n, adj = g.n, g.adj
    load = [0] * n
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    on_u, on_v = (q, 0), (0, q)
    e = 0
    for u, a in enumerate(adj):
        ru, first = rank[u], e
        for v in a[bisect_right(a, u) :]:
            if ru < rank[v]:
                load[u] += q
                cap += on_u
            else:
                load[v] += q
                cap += on_v
            to += (v, u)
            head[v].append(e + 1)
            e += 2
        head[u] += range(first, e, 2)
    for v in range(n):
        extra = load[v] - p
        if extra > 0:
            for e in head[v]:
                w = to[e]
                if cap[e] and load[w] < p:
                    f = min(extra, p - load[w], cap[e])
                    cap[e] -= f
                    cap[e ^ 1] += f
                    load[w] += f
                    extra -= f
                    if not extra:
                        break
            load[v] = p + extra
    while True:
        # levels: distance to room, by BFS over reversed arcs (w reaches v
        # when w -> v, the twin of v -> w, holds units) from every vertex
        # with room, up to the level of the first vertex with excess it pops
        order = [v for v in range(n) if load[v] < p]
        level = [-1] * n
        for v in order:
            level[v] = 0
        top = -1
        for v in order:
            if load[v] > p:
                top = level[v]
                break
            nxt = level[v] + 1
            for e in head[v]:
                if cap[e ^ 1] and level[to[e]] < 0:
                    level[to[e]] = nxt
                    order.append(to[e])
        if top < 0:
            break
        # blocking flow: from each vertex x with excess on level `top`, walk
        # arcs one level down, keeping the walk's arcs in `path`; at a vertex
        # with room, move the least of x's excess, the end's room and the
        # arcs' units, then cut the walk back to its first emptied arc; at a
        # dead end retreat one arc
        it = [0] * n
        for x in range(n):
            if load[x] <= p or level[x] != top:
                continue
            path: list[int] = []
            v = x
            while True:
                if level[v]:
                    arcs = head[v]
                    k, end, nxt = it[v], len(arcs), level[v] - 1
                    while k < end and not (cap[arcs[k]] and level[to[arcs[k]]] == nxt):
                        k += 1
                    it[v] = k
                    if k < end:
                        path.append(arcs[k])
                        v = to[arcs[k]]
                        continue
                elif load[v] < p:
                    f = min(load[x] - p, p - load[v], min(map(cap.__getitem__, path)))
                    for e in path:
                        cap[e] -= f
                        cap[e ^ 1] += f
                    load[x] -= f
                    load[v] += f
                    if load[x] == p:
                        break
                    j = 0
                    while j < len(path) and cap[path[j]]:
                        j += 1
                    del path[j:]
                    v = to[path[-1]] if path else x
                    continue
                if not path:
                    break
                v = to[path.pop() ^ 1]
                it[v] += 1
    excess = [v for v in range(n) if load[v] > p]
    if excess:
        # the excess left reaches no room: T is all that it reaches
        seen = set(excess)
        for v in excess:
            for e in head[v]:
                if cap[e] and to[e] not in seen:
                    seen.add(to[e])
                    excess.append(to[e])
        return frozenset(seen), None
    # no excess is left, so the last BFS ran out: unlevelled vertices are
    # those that cannot reach room
    splits = list(zip(cap[::2], cap[1::2]))
    return frozenset(v for v in range(n) if level[v] < 0), splits


def densest_decision(g: Graph, guess: Fraction) -> frozenset[int] | None:
    """Some nonempty S with |E(G[S])|/|S| > guess, or None if no such set exists.

    For guess a/b, one load flow with b units per edge and room a per
    vertex: the returned set is the unique minimal maximiser of
    b|E(S)| - a|S|, which no choice of maximum flow changes. Public API:
    solves call `mad_with_witness`, not this, but `perfbench` traces it by
    name.
    """
    if g.n == 0:
        raise PreconditionError("empty graph")
    guess = Fraction(guess)
    if guess < 0:
        raise PreconditionError("guess must be nonnegative")
    if g.m == 0:
        return None
    found, splits = _load_flow(g, _peel(g)[1], guess.numerator, guess.denominator)
    return None if splits is not None else found


def _density_of(g: Graph, vs) -> Fraction:
    vs = set(vs)
    edges = sum(1 for u, v in g.edges() if u in vs and v in vs)
    return Fraction(edges, len(vs))


def _peel(g: Graph) -> tuple[Fraction, list[int]]:
    """One minimum-degree peeling: the highest density |E(S)|/|S| among the
    vertex sets S left before each removal, V included, and each vertex's
    position in the removal order.

    The first is Charikar's (2000) bound, at least half the maximum
    density. A bucket queue keyed by current degree (Matula-Beck) finds each
    minimum: after a removal at degree d the minimum is at least d - 1, and a
    vertex enters a bucket once per degree it takes, so the loop is O(n + m).
    """
    n, adj = g.n, g.adj
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    rank = [0] * n
    edges, best_edges, best_size = g.m, g.m, max(n, 1)
    d = 0
    for left in range(n - 1, -1, -1):
        while True:
            while not buckets[d]:
                d += 1
            v = buckets[d].pop()
            if deg[v] == d:
                break
        # a removed vertex has degree -1; one left beside v has at least 1
        deg[v] = -1
        rank[v] = n - 1 - left
        edges -= d
        for w in adj[v]:
            if deg[w] > 0:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        if left and edges * best_size > best_edges * left:
            best_edges, best_size = edges, left
        if d:
            d -= 1
    return Fraction(best_edges, best_size), rank


@lru_cache(maxsize=1)
def mad_with_witness(g: Graph) -> DensityWitness:
    """Densest induced subgraph, exactly, by Dinkelbach iteration from a
    peeling bound; usually one load flow.

    The cache holds one entry: the witness of the graph object asked about
    last. Every reuse is within one solve, on the object it solves: `solve`
    asks for g, then `_k0_cycle`, `find_dense` or the exact fallback asks
    for g again; path mode asks for g, then for its universal-vertex graph
    gp, and then only for gp. So one entry keeps every hit, and a process
    that solves many graphs keeps no earlier graph, mask or witness alive.

    `best` starts as the peeling bound (`_peel`), the density of an actual
    vertex set, and each step runs the load flow at exactly best = p/q,
    seeded by the same peeling order. If every load fits under p, no set is
    denser, and the flow's maximal tight set, the union of all densest sets,
    is the witness; `verify_density_certificate` checks it and the split of
    every edge. Otherwise the minimal min-cut side T is strictly denser and
    becomes the next `best`; a T no denser than best, or none, contradicts
    the flow.
    """
    if g.m == 0:
        raise PreconditionError("mad of an edgeless graph")
    best, rank = _peel(g)
    while True:
        found, splits = _load_flow(g, rank, best.numerator, best.denominator)
        if splits is not None:
            require_verified(verify_density_certificate(g, found, best, splits))
            return DensityWitness(found, best)
        d = _density_of(g, found) if found else None
        if d is None or d <= best:
            raise ConstructionFailure(
                f"load flow at density {best} overflowed, yet its cut has density {d}"
            )
        best = d
