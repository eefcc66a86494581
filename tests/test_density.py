import random
import sys
from collections import deque
from fractions import Fraction

import pytest

from madcycle import density
from madcycle.density import densest_decision, mad_with_witness
from madcycle.errors import ConstructionFailure, PreconditionError
from madcycle.graph import (
    Graph,
    avg_degree,
    build_graph,
    induced_subgraph,
    verify_density_certificate,
)
from madcycle.instances import gen_instance
from madcycle.oracles import all_subsets_density, oracle_mad
from madcycle.solver import solve

from conftest import (
    bowtie,
    complete,
    complete_minus_matching,
    cycle_graph,
    path_graph,
    petersen,
    random_graph,
)


def brute_best_density(g):
    return max(d for d, _ in all_subsets_density(g))


def _density(g, vs):
    sub, _ = induced_subgraph(g, vs)
    return Fraction(sub.m, sub.n)


def bisection_mad(g):
    """Reference search: bisect the guess until the open interval above the
    best density found is narrower than 1/n^2, the least gap between two
    candidate densities p/q with q <= n; then take the minimal source side
    at a guess 1/(2n^2) below the optimum as the witness."""
    n = g.n
    best_set = frozenset(range(n))
    best = _density(g, best_set)
    hi = Fraction(n - 1, 2)
    while hi - best >= Fraction(1, n * n):
        mid = (best + hi) / 2
        found = densest_decision(g, mid)
        if found is None:
            hi = mid
        else:
            best, best_set = _density(g, found), found
    found = densest_decision(g, best - Fraction(1, 2 * n * n))
    if found is not None and _density(g, found) == best:
        best_set = found
    return best_set, best


def ladder(rungs):
    """2-connected ladder: rungs (2i, 2i+1), both rails, closed by (0, n-1)."""
    n = 2 * rungs
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i, 2 * i + 2) for i in range(rungs - 1)]
    edges += [(2 * i + 1, 2 * i + 3) for i in range(rungs - 1)]
    return build_graph(edges + [(0, n - 1)], n)


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDensestDecision:
    def test_bowtie_above_one(self):
        g = bowtie()
        assert brute_best_density(g) == Fraction(6, 5)
        found = densest_decision(g, Fraction(1))
        assert found is not None
        sub, _ = induced_subgraph(g, found)
        assert Fraction(sub.m, sub.n) > 1

    def test_bowtie_at_optimum(self):
        assert densest_decision(bowtie(), Fraction(6, 5)) is None

    def test_single_edge(self):
        g = build_graph([(0, 1)], 2)
        assert densest_decision(g, Fraction(0)) == frozenset({0, 1})

    def test_monotone_in_guess(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
            if g.m == 0:
                continue
            guesses = sorted(
                {Fraction(p, q) for q in range(1, g.n + 1) for p in range(0, 2 * g.n)}
            )
            absent_seen = False
            for guess in guesses:
                res = densest_decision(g, guess)
                if res is None:
                    absent_seen = True
                else:
                    assert not absent_seen, "decision not monotone in the guess"


class TestMadWithWitness:
    def test_c5(self):
        w = mad_with_witness(cycle_graph(5))
        assert w.mad == 2 and w.vertices == frozenset(range(5))

    def test_k5_plus_pendant(self):
        g = build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)], 6
        )
        w = mad_with_witness(g)
        assert w.mad == 4
        assert w.vertices == frozenset(range(5))
        assert oracle_mad(g) == 4

    def test_bowtie_whole_graph(self):
        w = mad_with_witness(bowtie())
        assert w.mad == Fraction(12, 5)
        assert w.vertices == frozenset(range(5))

    def test_edgeless_rejected(self):
        with pytest.raises(PreconditionError):
            mad_with_witness(build_graph([], 3))

    def test_witness_density_recounts(self):
        rng = random.Random(17)
        for _ in range(30)            :
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
            if g.m == 0:
                continue
            w = mad_with_witness(g)
            sub, _ = induced_subgraph(g, w.vertices)
            assert Fraction(sub.m, sub.n) == w.density
            assert w.mad == 2 * w.density

    def test_matches_oracle_random(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 11), rng.choice([0.3, 0.5, 0.8]))
            if g.m == 0:
                continue
            assert mad_with_witness(g).mad == oracle_mad(g)

    def test_witness_is_union_of_densest_sets(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 11), rng.choice([0.2, 0.4, 0.7]))
            if g.m == 0:
                continue
            subsets = list(all_subsets_density(g))
            best = max(d for d, _ in subsets)
            union = frozenset().union(*(sub for d, sub in subsets if d == best))
            w = mad_with_witness(g)
            assert w.density == best
            assert w.vertices == union

    def test_witness_matches_bisection_reference(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(20, 60)
            g = random_graph(rng, n, rng.choice([2 / n, 4 / n, 0.2, 0.5]))
            if g.m == 0:
                continue
            w = mad_with_witness(g)
            assert (w.vertices, w.density) == bisection_mad(g)

    def test_regular_graph_needs_few_cuts(self, monkeypatch):
        calls = []
        load_flow = density._load_flow

        def counting(g, rank, p, q):
            calls.append(Fraction(p, q))
            return load_flow(g, rank, p, q)

        monkeypatch.setattr(density, "_load_flow", counting)
        g = complete_minus_matching(40)
        # bypass the cache so that the flows are run here
        w = mad_with_witness.__wrapped__(g)
        assert w.mad == 38 and w.vertices == frozenset(range(40))
        # the peeling bound is already the optimum: one flow proves it
        assert calls == [19]

    def test_cut_count_and_witness_on_random_graphs(self, monkeypatch):
        calls = []
        load_flow = density._load_flow

        def counting(g, rank, p, q):
            calls.append(Fraction(p, q))
            return load_flow(g, rank, p, q)

        monkeypatch.setattr(density, "_load_flow", counting)
        rng = random.Random(43)
        multi = 0
        for _ in range(80):
            n = rng.randint(6, 60)
            g = random_graph(rng, n, rng.choice([2 / n, 3 / n, 5 / n, 0.2, 0.5]))
            if g.m == 0:
                continue
            calls.clear()
            w = mad_with_witness.__wrapped__(g)
            multi += len(calls) >= 2
            assert (w.vertices, w.density) == bisection_mad(g)
            if n <= 11:
                subsets = list(all_subsets_density(g))
                best = max(d for d, _ in subsets)
                union = frozenset().union(*(vs for d, vs in subsets if d == best))
                assert (w.vertices, w.density) == (union, best)
        assert multi >= 1

    @pytest.mark.parametrize("answer", ["sparser", "none"])
    def test_contradicting_cut_raises(self, monkeypatch, answer):
        g = build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (5, 6)], 7
        )

        def wrong(g, rank, p, q):
            # an overflowing flow whose cut is sparser than p/q, or absent
            return (frozenset({5, 6}) if answer == "sparser" else None), None

        monkeypatch.setattr(density, "_load_flow", wrong)
        with pytest.raises(ConstructionFailure):
            mad_with_witness.__wrapped__(g)

    def test_deep_augmenting_paths_need_no_recursion(self):
        g = ladder(400)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 120)
        try:
            w = mad_with_witness.__wrapped__(g)
        finally:
            sys.setrecursionlimit(limit)
        assert w.density == Fraction(3 * 400 - 1, 800)
        assert w.vertices == frozenset(range(800))


class TestMadCache:
    """The mad cache keeps only the graph asked about last, and that serves
    every reuse: a solve asks again only about the graph it is solving."""

    @staticmethod
    def _solve_counting(monkeypatch, g, k, mode="cycle"):
        """(result, mads computed, cache hits) of one solve, from a cold cache."""
        peels = []
        peel = density._peel

        def counting(h):
            peels.append(h)
            return peel(h)

        monkeypatch.setattr(density, "_peel", counting)
        mad_with_witness.cache_clear()
        res = solve(g, k, mode=mode)
        return res, len(peels), mad_with_witness.cache_info().hits

    @pytest.mark.parametrize("g, k, branch", [
        (cycle_graph(7), 0, "k0"),
        (complete(200), 1, "find_dense"),
        (petersen(), 1, "fallback"),
    ])
    def test_a_cycle_solve_computes_mad_once_and_hits_once(self, monkeypatch, g, k, branch):
        res, computed, hits = self._solve_counting(monkeypatch, g, k)
        assert res.branch == branch and res.answer == "yes"
        assert (computed, hits) == (1, 1)

    def test_a_path_solve_computes_mad_for_g_and_its_universal_graph(self, monkeypatch):
        res, computed, hits = self._solve_counting(monkeypatch, path_graph(6), 1, "path")
        assert res.branch == "path_k0" and computed == 2 and hits == 1
        res, computed, hits = self._solve_counting(monkeypatch, petersen(), 2, "path")
        assert res.branch == "path[fallback]" and computed == 2 and hits == 2

    def test_an_equal_graph_built_anew_misses_and_gets_an_equal_witness(self):
        # graphs hash by identity: the cache serves only the object asked about
        g = petersen()
        h = Graph(g.n, g.adj)
        assert h != g and h.adj == g.adj
        mad_with_witness.cache_clear()
        w = mad_with_witness(g)
        assert mad_with_witness(g) is w
        wh = mad_with_witness(h)
        assert wh == w and wh is not w
        info = mad_with_witness.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_solves_of_three_graphs_keep_one_alive(self):
        mad_with_witness.cache_clear()
        for g in (cycle_graph(7), petersen(), complete(8)):
            solve(g, 0)
        info = mad_with_witness.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (3, 1, 1)


def degeneracy_by_min_scan(g):
    """Reference: peel a vertex of least degree, found by a scan, n times."""
    alive = set(g.vertices())
    deg = {v: g.degree(v) for v in alive}
    best = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        best = max(best, deg[v])
        alive.remove(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
    return best


class TestOrderings:
    def test_peeling_bound_is_a_set_density_below_mad(self):
        rng = random.Random(59)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 30), rng.uniform(0.1, 0.7))
            if g.m == 0:
                continue
            bound, rank = density._peel(g)
            assert sorted(rank) == list(range(g.n))
            assert bound.denominator <= g.n
            assert Fraction(g.m, g.n) <= bound <= mad_with_witness(g).density <= 2 * bound

    def test_mad_ad_degeneracy_chain(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 11), rng.uniform(0.2, 0.8))
            if g.m == 0:
                continue
            mad = mad_with_witness(g).mad
            assert mad >= avg_degree(g)
            assert mad >= degeneracy_by_min_scan(g)


def densest_decision_two_arc_pairs(g, guess):
    """The min-cut decision on Goldberg's network as first built: two arc
    pairs per edge, and no flow pushed before Dinic runs."""
    a, b = guess.numerator, guess.denominator
    n, m = g.n, g.m
    s, t = n, n + 1
    net = _GoldbergDinic(n + 2)
    for v in range(n):
        net.add_edge(s, v, m * b)
        net.add_edge(v, t, m * b + 2 * a - b * g.degree(v))
    for u, v in g.edges():
        net.add_edge(u, v, b)
        net.add_edge(v, u, b)
    if net.max_flow(s, t) >= n * m * b:
        return None
    side = net.min_cut_source_side(s)
    return frozenset(v for v in side if v < n) or None


class TestPresaturatedNetwork:
    def test_same_set_as_two_arc_pair_network(self):
        rng = random.Random(47)
        returned = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 14), rng.uniform(0.15, 0.9))
            if g.m == 0:
                continue
            guesses = {Fraction(0), Fraction(g.m, g.n)}
            guesses |= {_density(g, vs) for vs in (range(g.n), range(g.n // 2 + 1))}
            guesses |= {Fraction(rng.randint(0, 4 * g.n), rng.randint(1, 3 * g.n))
                        for _ in range(6)}
            best = mad_with_witness(g).density
            guesses |= {best, best - Fraction(1, 2 * g.n * g.n)}
            for guess in sorted(guesses):
                if guess < 0:
                    continue
                expect = densest_decision_two_arc_pairs(g, guess)
                assert densest_decision(g, guess) == expect, (g.adj, guess)
                returned += expect is not None
        assert returned >= 100


class TestDensityCertificate:
    def certified(self, g):
        w = mad_with_witness(g)
        found, splits = density._load_flow(
            g, density._peel(g)[1], w.density.numerator, w.density.denominator
        )
        assert found == w.vertices and splits is not None
        return w, splits

    def test_load_flow_certificate_verifies(self):
        rng = random.Random(61)
        graphs = [bowtie(), complete_minus_matching(12), ladder(6)]
        graphs += [random_graph(rng, rng.randint(2, 30), rng.uniform(0.1, 0.8))
                   for _ in range(40)]
        for g in graphs:
            if g.m == 0:
                continue
            w, splits = self.certified(g)
            assert verify_density_certificate(g, w.vertices, w.density, splits)

    def test_rejects_an_overloaded_vertex(self):
        # K5 plus a pendant edge: density 2, so each vertex may take 2 units
        g = build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)], 6
        )
        w, splits = self.certified(g)
        assert w.density == 2
        # every edge whole on its lower end: vertex 0 takes all 5 of its edges
        lower = [(1, 0)] * len(splits)
        check = verify_density_certificate(g, w.vertices, w.density, lower)
        assert not check and check.reason == "vertex 0 receives 5 > 2 units"

    def test_rejects_a_split_that_does_not_sum_to_q(self):
        g = bowtie()
        w, splits = self.certified(g)
        q = w.density.denominator
        for broken in ((q, 1), (q - 1, 0), (-1, q + 1)):
            bad = [broken] + splits[1:]
            check = verify_density_certificate(g, w.vertices, w.density, bad)
            assert not check and "splits as" in check.reason
        check = verify_density_certificate(g, w.vertices, w.density, splits[:-1])
        assert not check

    def test_rejects_a_sparser_witness(self):
        g = build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (5, 6)], 7
        )
        w, splits = self.certified(g)
        assert w.vertices == frozenset(range(5))
        for sparser in ({5, 6}, set(range(7)), set(range(4)), set()):
            assert not verify_density_certificate(g, sparser, w.density, splits)
        # the loads still bound every set, but the witness must meet them
        assert not verify_density_certificate(g, w.vertices, w.density + 1, splits)

    def test_failed_certificate_raises(self, monkeypatch):
        load_flow = density._load_flow

        def overloaded(g, rank, p, q):
            found, splits = load_flow(g, rank, p, q)
            return found, splits and [(q, 0)] * len(splits)

        monkeypatch.setattr(density, "_load_flow", overloaded)
        with pytest.raises(ConstructionFailure, match="receives"):
            mad_with_witness.__wrapped__(complete_minus_matching(10))


class _GoldbergDinic:
    """Verbatim copy of the Dinic max flow that Goldberg's network ran on."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, back_cap: int = 0):
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
        seen = {s}
        dq = deque([s])
        while dq:
            v = dq.popleft()
            for e in self.head[v]:
                if self.cap[e] > 0 and self.to[e] not in seen:
                    seen.add(self.to[e])
                    dq.append(self.to[e])
        return seen


def goldberg_densest_decision(g, guess):
    """Verbatim copy of the min-cut decision on Goldberg's network (source->v
    m*b, v->sink m*b + 2a - b*d(v), b both ways across each edge, the
    source-vertex-sink paths saturated first)."""
    if g.m == 0:
        return None
    a, b = guess.numerator, guess.denominator
    n, m = g.n, g.m
    s, t = n, n + 1
    net = _GoldbergDinic(n + 2)
    flow = 0
    for v in range(n):
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


def goldberg_mad_with_witness(g):
    """Verbatim copy of the Dinkelbach loop over Goldberg cuts just below
    the best density found, from the same peeling bound."""
    n = g.n
    best = density._peel(g)[0]
    slack = Fraction(1, 2 * n**3)
    while True:
        found = goldberg_densest_decision(g, best - slack)
        d = None if found is None else _density(g, found)
        if d is None or d < best:
            raise ConstructionFailure("contradicting cut")
        if d == best:
            return found, best
        best = d


class TestAgainstGoldbergNetwork:
    def graphs(self):
        rng = random.Random(67)
        out = []
        for _ in range(36):
            n = rng.randint(2, 60)
            out.append(random_graph(rng, n, rng.choice([2 / n, 4 / n, 8 / n, 0.2, 0.5])))
        out += [random_graph(rng, 150, 8 / 149) for _ in range(4)]
        out.append(complete_minus_matching(40))
        # peeling bounds below the optimum: the flow at the bound overflows
        out += [gen_instance("gnp2c", {"n": 30, "prob": 0.2}, seed)[0] for seed in (1, 2, 27)]
        out += [gen_instance("gnp2c", {"n": 60, "prob": 0.1}, seed)[0] for seed in (1, 4)]
        return [g for g in out if g.m]

    def test_same_witness_as_goldberg_dinkelbach(self, monkeypatch):
        flows = []
        load_flow = density._load_flow

        def counting(g, rank, p, q):
            flows.append(Fraction(p, q))
            return load_flow(g, rank, p, q)

        monkeypatch.setattr(density, "_load_flow", counting)
        multi = 0
        for g in self.graphs():
            flows.clear()
            w = mad_with_witness.__wrapped__(g)
            multi += len(flows) >= 2
            assert (w.vertices, w.density) == goldberg_mad_with_witness(g), g.adj
        assert multi >= 5

    def test_same_decision_as_goldberg_network(self):
        rng = random.Random(71)
        returned = 0
        for g in self.graphs():
            n, best = g.n, mad_with_witness(g).density
            guesses = {best, best - Fraction(1, 2 * n**3), Fraction(0)}
            guesses |= {Fraction(rng.randint(0, 2 * n), rng.randint(1, n)) for _ in range(4)}
            guesses |= {best * Fraction(rng.randint(1, 2 * n), n) for _ in range(2)}
            for guess in sorted(guesses):
                expect = goldberg_densest_decision(g, guess)
                assert densest_decision(g, guess) == expect, (g.adj, guess)
                returned += expect is not None
        assert returned >= 100


class _NetworkDinic:
    """Verbatim copy of the Dinic max flow that the load network ran on
    while its source and sink were vertices with arcs."""

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


def network_load_flow(
    g: Graph, rank: list[int], p: int, q: int
) -> tuple[frozenset[int] | None, list[tuple[int, int]] | None]:
    """Verbatim copy of the load flow on an explicit network: a source arc
    into each vertex with excess and a sink arc out of each with room.

    Max flow on the load network at density p/q, p >= 0, q >= 1.

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
    net = _NetworkDinic(n + 2)
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


class TestAgainstExplicitNetwork:
    """`_load_flow` keeps the source and sink as excess and room; the
    reference runs Dinic on a network where they are vertices with arcs.
    The returned set and branch are unique over all maximum flows, so they
    must agree; the splits may differ, and each must verify."""

    def pairs(self):
        rng = random.Random(83)
        graphs = []
        for _ in range(180):
            n = rng.randint(2, 60)
            graphs.append(random_graph(rng, n, rng.choice([2 / n, 4 / n, 8 / n, 0.2, 0.5, 0.9])))
        graphs += TestAgainstGoldbergNetwork().graphs()
        graphs += [random_graph(rng, 150, 8 / 149) for _ in range(2)]
        graphs += [complete_minus_matching(40)] + [ladder(r) for r in (2, 3, 5, 8, 13, 40)]
        for g in graphs:
            if g.m == 0:
                continue
            n, best = g.n, mad_with_witness(g).density
            guesses = {Fraction(0), best, best - Fraction(1, 2 * n * n)}
            guesses.add(density._peel(g)[0])  # overflows where the bound is below best
            guesses |= {Fraction(rng.randint(0, 2 * n), rng.randint(1, n)) for _ in range(3)}
            guesses |= {best * Fraction(rng.randint(1, 2 * n), n)}
            for guess in sorted(guesses):
                yield g, guess, best

    def test_same_set_and_branch_and_every_split_verifies(self):
        count = overflowed = 0
        for g, guess, best in self.pairs():
            rank = density._peel(g)[1]
            p, q = guess.numerator, guess.denominator
            found, splits = density._load_flow(g, rank, p, q)
            expect, expect_splits = network_load_flow(g, rank, p, q)
            assert found == expect, (g.adj, guess)
            assert (splits is None) == (expect_splits is None), (g.adj, guess)
            count += 1
            if splits is None:
                overflowed += 1
                continue
            witness = mad_with_witness(g).vertices
            check = verify_density_certificate(g, witness, guess, splits)
            if guess == best:
                assert check and found == witness, (g.adj, guess)
            else:
                # the splits hold every load under p; only the witness,
                # densest at `best`, misses the guessed density
                assert check.reason == f"witness density {best}, not {guess}", (g.adj, guess)
        assert count >= 1000 and overflowed >= 200
