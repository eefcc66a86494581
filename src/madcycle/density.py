"""Exact maximum average degree via load flows.

The density of a vertex set S is |E(S)|/|S|; mad(G) is twice the largest.
For a density p/q, let every edge split q units between its two ends. Some
split gives every vertex at most p units exactly when no set is denser than
p/q (Hall's theorem, the LP dual of Charikar 2000): a set S receives all the
q|E(S)| units of its own edges, and at most p|S| in all. A load network
looks for such a split by max flow, with capacities at most q, and where
there is none its min cut is a denser set. All arithmetic is exact on ints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConstructionFailure, PreconditionError
from .graph import Graph, require_verified, verify_density_certificate


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int):
        """Arc u->v and its empty reverse v->u, as arcs e and e ^ 1."""
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        to, cap, head = self.to, self.cap, self.head
        while True:
            # levels by BFS, which may stop once t has one: every vertex
            # before t's level has one by then, and none after is needed
            level = [-1] * self.n
            level[s] = 0
            dq = deque([s])
            while dq and level[t] < 0:
                v = dq.popleft()
                for e in head[v]:
                    if cap[e] > 0 and level[to[e]] < 0:
                        level[to[e]] = level[v] + 1
                        dq.append(to[e])
            if level[t] < 0:
                return flow
            it = [0] * self.n
            # blocking flow: walk admissible arcs from s, keeping the arcs of
            # the current walk in `path`; at t augment by the bottleneck and
            # cut the walk back to its first saturated arc; at a dead end
            # retreat one arc and skip past it
            path: list[int] = []
            v = s
            while True:
                if v == t:
                    f = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= f
                        cap[e ^ 1] += f
                    flow += f
                    # resume the walk at the tail of the first saturated arc
                    j = 0
                    while cap[path[j]]:
                        j += 1
                    del path[j:]
                    v = to[path[-1]] if path else s
                arcs = head[v]
                i, end = it[v], len(arcs)
                nxt = level[v] + 1
                while i < end:
                    e = arcs[i]
                    if cap[e] > 0 and level[to[e]] == nxt:
                        break
                    i += 1
                it[v] = i
                if i < end:
                    path.append(arcs[i])
                    v = to[arcs[i]]
                elif path:
                    v = to[path.pop() ^ 1]
                    it[v] += 1
                else:
                    break

    def min_cut_source_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual network (call after max_flow)."""
        seen = {s}
        dq = deque([s])
        while dq:
            v = dq.popleft()
            for e in self.head[v]:
                if self.cap[e] > 0 and self.to[e] not in seen:
                    seen.add(self.to[e])
                    dq.append(self.to[e])
        return seen

    def reaching(self, t: int) -> set[int]:
        """Vertices that reach t in the residual network (call after max_flow)."""
        seen = {t}
        dq = deque([t])
        while dq:
            v = dq.popleft()
            for e in self.head[v]:
                # e runs v -> w, so e ^ 1 is the arc w -> v
                if self.cap[e ^ 1] > 0 and self.to[e] not in seen:
                    seen.add(self.to[e])
                    dq.append(self.to[e])
        return seen


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

    Edge (u, v) is one arc pair, u->v holding the units of its q that sit on
    u and v->u those on v; moving units along an arc moves them to its head.
    Each edge's units start on the end that comes first in `rank`, and one
    pass over the edges moves an overloaded owner's units straight to the
    other end while it has room. Then the source feeds each vertex its load
    above p and each vertex drains its room below p to the sink.

    A cut with source side S ∪ {s} costs its excess plus p|S| - q|E(S)|, so
    its vertex sides are the maximisers of q|E(S)| - p|S|. Returns (T, None)
    when the excess cannot all drain: some set is denser than p/q, and T,
    reachable from s, is the minimal maximiser. Otherwise every load is at
    most p and it returns (W, splits): W, the vertices that cannot reach t,
    is the maximal maximiser (the union of all sets of density p/q), and
    splits[i] = (units on u, units on v) for the i-th edge (u, v) of
    g.edges().
    """
    n = g.n
    edges = list(g.edges())
    load = [0] * n
    for u, v in edges:
        load[u if rank[u] < rank[v] else v] += q
    net = _Dinic(n + 2)
    head, to, cap = net.head, net.to, net.cap
    for i, (u, v) in enumerate(edges):
        own, other = (u, v) if rank[u] < rank[v] else (v, u)
        moved = max(0, min(q, load[own] - p, p - load[other]))
        load[own] -= moved
        load[other] += moved
        # arcs 2i (u -> v) and 2i + 1 (v -> u), as add_edge would lay them out
        head[u].append(2 * i)
        head[v].append(2 * i + 1)
        to += (v, u)
        cap += (q - moved, moved) if own == u else (moved, q - moved)
    s, t = n, n + 1
    excess = 0
    for v in range(n):
        if load[v] > p:
            net.add_edge(s, v, load[v] - p)
            excess += load[v] - p
        elif load[v] < p:
            net.add_edge(v, t, p - load[v])
    if excess and net.max_flow(s, t) < excess:
        side = net.min_cut_source_side(s)
        side.discard(s)
        return frozenset(side), None
    reaching = net.reaching(t)
    splits = [(cap[2 * i], cap[2 * i + 1]) for i in range(len(edges))]
    return frozenset(v for v in range(n) if v not in reaching), splits


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
    found, splits = _load_flow(g, _peel(g)[2], guess.numerator, guess.denominator)
    return None if splits is not None else found


def _density_of(g: Graph, vs) -> Fraction:
    vs = set(vs)
    edges = sum(1 for u, v in g.edges() if u in vs and v in vs)
    return Fraction(edges, len(vs))


def _peel(g: Graph) -> tuple[int, Fraction, list[int]]:
    """One minimum-degree peeling: the degeneracy, the highest density
    |E(S)|/|S| among the vertex sets S left before each removal, V included,
    and each vertex's position in the removal order.

    The second is Charikar's (2000) bound, at least half the maximum
    density. A bucket queue keyed by current degree (Matula-Beck) finds each
    minimum: after a removal at degree d the minimum is at least d - 1, and a
    vertex enters a bucket once per degree it takes, so the loop is O(n + m).
    """
    n, adj = g.n, g.adj
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    rank = [0] * n
    edges, best_edges, best_size = g.m, g.m, max(n, 1)
    core = d = 0
    for left in range(n - 1, -1, -1):
        while True:
            while not buckets[d]:
                d += 1
            v = buckets[d].pop()
            if not removed[v] and deg[v] == d:
                break
        removed[v] = True
        rank[v] = n - 1 - left
        core = max(core, d)
        edges -= d
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        if left and edges * best_size > best_edges * left:
            best_edges, best_size = edges, left
        d = max(d - 1, 0)
    return core, Fraction(best_edges, best_size), rank


@lru_cache(maxsize=512)
def mad_with_witness(g: Graph) -> DensityWitness:
    """Densest induced subgraph, exactly, by Dinkelbach iteration from a
    peeling bound; usually one load flow.

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
    _, best, rank = _peel(g)
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


def degeneracy(g: Graph) -> int:
    """Degeneracy by minimum-degree peeling."""
    return _peel(g)[0]
