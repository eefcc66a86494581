"""Exact maximum average degree via parametric minimum cuts.

The decision "is there an induced subgraph with density > a/b" becomes a
min-cut question on an integer-capacity network after clearing denominators,
so every comparison stays exact. Capacities are arbitrary-precision ints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConstructionFailure, PreconditionError
from .graph import Graph


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, back_cap: int = 0):
        """Arc u->v and its reverse v->u, as arcs e and e ^ 1."""
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(back_cap)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        to, cap, head = self.to, self.cap, self.head
        while True:
            level = [-1] * self.n
            level[s] = 0
            dq = deque([s])
            while dq:
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
            # restart from s; at a dead end retreat one arc and skip past it
            path: list[int] = []
            v = s
            while True:
                if v == t:
                    f = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= f
                        cap[e ^ 1] += f
                    flow += f
                    path.clear()
                    v = s
                arcs = head[v]
                i = it[v]
                nxt = level[v] + 1
                while i < len(arcs):
                    e = arcs[i]
                    if cap[e] > 0 and level[to[e]] == nxt:
                        break
                    i += 1
                it[v] = i
                if i < len(arcs):
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


@dataclass(frozen=True)
class DensityWitness:
    vertices: frozenset[int]
    density: Fraction

    @property
    def mad(self) -> Fraction:
        return 2 * self.density


def densest_decision(g: Graph, guess: Fraction) -> frozenset[int] | None:
    """Some nonempty S with |E(G[S])|/|S| > guess, or None if no such set exists.

    Goldberg's network: source->v with capacity m*b, v->sink with capacity
    m*b + 2a - b*d(v), and capacity b both ways across every edge, for guess
    a/b. The cut value for source side S is n*m*b + 2(a|S| - b|E(G[S])|), so
    the min cut drops below n*m*b exactly when a denser-than-guess set exists.
    Each edge is one arc pair, and every path source->v->sink is saturated
    before Dinic runs. Neither changes the max-flow value or the minimal min
    cut source side, which every maximum flow shares, so the returned set
    does not depend on them.
    """
    if g.n == 0:
        raise PreconditionError("empty graph")
    guess = Fraction(guess)
    if guess < 0:
        raise PreconditionError("guess must be nonnegative")
    if g.m == 0:
        return None
    a, b = guess.numerator, guess.denominator
    n, m = g.n, g.m
    s, t = n, n + 1
    net = _Dinic(n + 2)
    flow = 0
    for v in range(n):
        # the two arcs' residuals after pushing min(m*b, sink capacity)
        sink_cap = m * b + 2 * a - b * g.degree(v)
        pushed = min(m * b, sink_cap)
        flow += pushed
        net.add_edge(s, v, m * b - pushed, pushed)
        net.add_edge(v, t, sink_cap - pushed, pushed)
    for u, v in g.edges():
        net.add_edge(u, v, b, b)
    flow += net.max_flow(s, t)
    if flow >= n * m * b:
        return None
    side = net.min_cut_source_side(s)
    side.discard(s)
    chosen = frozenset(v for v in side if v < n)
    if not chosen:
        return None
    return chosen


def _density_of(g: Graph, vs) -> Fraction:
    vs = set(vs)
    edges = sum(1 for u, v in g.edges() if u in vs and v in vs)
    return Fraction(edges, len(vs))


def _peel(g: Graph) -> tuple[int, Fraction]:
    """One minimum-degree peeling: the degeneracy, and the highest density
    |E(S)|/|S| among the vertex sets S left before each removal, V included.

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
        core = max(core, d)
        edges -= d
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        if left and edges * best_size > best_edges * left:
            best_edges, best_size = edges, left
        d = max(d - 1, 0)
    return core, Fraction(best_edges, best_size)


@lru_cache(maxsize=512)
def mad_with_witness(g: Graph) -> DensityWitness:
    """Densest induced subgraph, exactly, by Dinkelbach iteration from a
    peeling bound; usually one min cut.

    `best` starts as the peeling bound (`_peel`), the density of an actual
    vertex set. Each step cuts at best - 1/(2n^3) and takes the minimal
    source side T, the set maximising f(S) = |E(S)| - guess*|S|. Candidate
    densities p/q (q <= n) differ by at least 1/n^2, so when density(T) ==
    best no set is denser (f(T) <= 1/(2n^2) would lose to it), and T is the
    union of all densest sets, the witness. A denser T becomes the next
    `best`; a sparser T, or none, contradicts the cut.
    """
    if g.m == 0:
        raise PreconditionError("mad of an edgeless graph")
    n = g.n
    _, best = _peel(g)
    slack = Fraction(1, 2 * n**3)
    while True:
        found = densest_decision(g, best - slack)
        d = None if found is None else _density_of(g, found)
        if d is None or d < best:
            raise ConstructionFailure(
                f"min cut just below density {best} returned a set of density {d}"
            )
        if d == best:
            return DensityWitness(found, best)
        best = d


def degeneracy(g: Graph) -> int:
    """Degeneracy by minimum-degree peeling."""
    return _peel(g)[0]
