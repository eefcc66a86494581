import io
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madcycle import graph
from madcycle.errors import GraphInputError, PreconditionError
from madcycle.graph import (
    CycleCertificate,
    Graph,
    PathCertificate,
    VerifyOutcome,
    avg_degree,
    avg_degree_of_set,
    blocks_and_cut_vertices,
    build_graph,
    eg_bound,
    is_biconnected,
    is_connected,
    is_potentially_cyclable,
    normalize_pair_chain,
    two_separators,
    verify_cycle_certificate,
    verify_path_certificate,
)

from conftest import (
    bowtie,
    complete,
    complete_bipartite,
    complete_minus_matching,
    cycle_graph,
    glued_k5s,
    path_graph,
    petersen,
    random_block_tree,
    random_connected_graph,
    random_graph,
    split_graph,
)


def separates(g, removed):
    """Exhaustive check: is g minus `removed` disconnected?"""
    rest = [v for v in range(g.n) if v not in removed]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) < len(rest)


def brute_two_separators(g):
    return [
        (x, y) for x in range(g.n) for y in range(x + 1, g.n) if separates(g, {x, y})
    ]


def stack_depth():
    """Frames on the caller's stack, the caller's own included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def brute_is_biconnected(g):
    return (
        g.n > 2
        and not separates(g, set())
        and not any(separates(g, {v}) for v in range(g.n))
    )


def random_ear_graph(rng, n):
    """2-connected graph on about n vertices, mean degree about 3: a cycle
    plus ears of 0-3 new vertices between distinct old vertices."""
    size = rng.randint(3, min(n, 8))
    edges = [(i, (i + 1) % size) for i in range(size)]
    while size < n:
        a, b = rng.sample(range(size), 2)
        inner = list(range(size, min(n, size + rng.randint(0, 3))))
        size += len(inner)
        chain = [a, *inner, b]
        edges += zip(chain, chain[1:])
    return build_graph(edges, size)


def theta_graph(lengths):
    """Two poles 0 and 1 joined by internally disjoint paths of these lengths."""
    edges, n = [], 2
    for length in lengths:
        chain = [0, *range(n, n + length - 1), 1]
        n += length - 1
        edges += zip(chain, chain[1:])
    return build_graph(edges, n)


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        assert g.m == 3 and g.n == 3

    def test_duplicate_edges_collapse(self):
        g = build_graph([(0, 1), (0, 1)], 2)
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph([(0, 0)], 1)

    def test_id_out_of_range(self):
        with pytest.raises(GraphInputError):
            build_graph([(0, 3)], 3)

    @pytest.mark.parametrize("pair", [(0, 3), (0, -1), (-1, -2)])
    def test_pair_id_out_of_range(self, pair):
        # -1 would otherwise read the last vertex's mask
        with pytest.raises(GraphInputError, match="out of range in pair"):
            build_graph([(0, 1), (1, 2)], 3).add_pairs([pair])

    def test_pairs_add_edges(self):
        g = build_graph([(0, 1), (1, 2)], 3).add_pairs([(0, 2), (0, 1)])
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]


class TestDensityQuantities:
    def test_eg_complete(self):
        assert eg_bound(complete(4)) == 4

    def test_eg_path3(self):
        assert eg_bound(path_graph(3)) == 2

    def test_eg_petersen(self):
        g = petersen()
        assert g.m == 15
        assert eg_bound(g) == Fraction(10, 3)

    def test_eg_needs_two_vertices(self):
        with pytest.raises(PreconditionError):
            eg_bound(build_graph([], 1))

    def test_ad_petersen_regular(self):
        assert avg_degree_of_set(petersen(), range(10)) == 3

    def test_ad_single_vertex_k4(self):
        assert avg_degree_of_set(complete(4), [0]) == 3

    def test_ad_bowtie(self):
        assert avg_degree_of_set(bowtie(), range(5)) == Fraction(12, 5)

    def test_ad_empty_set(self):
        with pytest.raises(PreconditionError):
            avg_degree_of_set(complete(4), [])


def _parent_blocks_and_cut_vertices(g):
    """The edge-stack decomposition that blocks_and_cut_vertices replaced,
    kept verbatim as the reference for the differential test."""
    if g.n == 0:
        raise PreconditionError("empty graph")
    if not is_connected(g):
        raise PreconditionError("graph is disconnected")
    if g.n == 1:
        return [frozenset([0])], set()

    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    cuts: set[int] = set()
    blocks: list[frozenset[int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    root = 0
    disc[root] = low[root] = timer
    timer += 1
    stack = [(root, iter(g.adj[root]))]
    root_children = 0
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is not None:
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                if v == root:
                    root_children += 1
                edge_stack.append((v, w))
                stack.append((w, iter(g.adj[w])))
            elif w != parent[v] and disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
            continue
        stack.pop()
        if not stack:
            break
        u = stack[-1][0]
        low[u] = min(low[u], low[v])
        if low[v] >= disc[u]:
            members: set[int] = set()
            while True:
                e = edge_stack.pop()
                members.update(e)
                if e == (u, v):
                    break
            blocks.append(frozenset(members))
            if u != root:
                cuts.add(u)
    if root_children > 1:
        cuts.add(root)

    blocks.sort(key=lambda b: tuple(sorted(b)))
    return blocks, cuts


class TestBlocks:
    def test_same_blocks_as_the_edge_stack_dfs(self):
        rng = random.Random(23)
        graphs = [path_graph(1), path_graph(2)]
        graphs += [random_block_tree(rng, rng.randint(1, 9)) for _ in range(500)]
        graphs += [
            random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.15, 0.6))
            for _ in range(100)
        ]
        cut_graphs = 0
        for g in graphs:
            got = blocks_and_cut_vertices(g)
            assert got == _parent_blocks_and_cut_vertices(g)
            assert isinstance(got[1], set)
            cut_graphs += bool(got[1])
        assert cut_graphs > 400

    def test_empty_and_disconnected_rejected(self):
        for g in (Graph(0, ()), build_graph([(0, 1)], 3), build_graph([], 2)):
            with pytest.raises(PreconditionError):
                blocks_and_cut_vertices(g)

    def test_long_path_needs_no_recursion(self):
        g = path_graph(20_000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 100)
        try:
            blocks, cuts = blocks_and_cut_vertices(g)
        finally:
            sys.setrecursionlimit(limit)
        assert len(blocks) == 19_999 and cuts == set(range(1, 19_999))
        assert blocks[0] == frozenset({0, 1})

    def test_bowtie(self):
        blocks, cuts = blocks_and_cut_vertices(bowtie())
        assert set(blocks) == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
        assert cuts == {2}

    def test_k4_single_block(self):
        blocks, cuts = blocks_and_cut_vertices(complete(4))
        assert blocks == [frozenset({0, 1, 2, 3})] and cuts == set()

    def test_path(self):
        blocks, cuts = blocks_and_cut_vertices(path_graph(3))
        assert set(blocks) == {frozenset({0, 1}), frozenset({1, 2})}
        assert cuts == {1}

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            blocks_and_cut_vertices(build_graph([(0, 1), (2, 3)], 4))

    def test_blocks_partition_edges_random(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.7))
            blocks, _ = blocks_and_cut_vertices(g)
            seen = []
            for u, v in g.edges():
                homes = [b for b in blocks if u in b and v in b]
                assert len(homes) == 1
                seen.append((u, v))
            assert len(seen) == g.m


class TestTwoSeparators:
    def test_c4(self):
        assert two_separators(cycle_graph(4)) == [(0, 2), (1, 3)]

    def test_k4_three_connected(self):
        assert two_separators(complete(4)) == []

    def test_glued_k5s_exactly_glue_pair(self):
        g = glued_k5s()
        assert brute_two_separators(g) == [(3, 4)]
        assert two_separators(g) == [(3, 4)]

    def test_not_biconnected_rejected(self):
        with pytest.raises(PreconditionError):
            two_separators(path_graph(4))

    def test_empty_means_three_connected(self):
        rng = random.Random(11)
        graphs = [random_graph(rng, rng.randint(4, 10), 0.6) for _ in range(25)]
        graphs += [random_ear_graph(rng, rng.randint(4, 30)) for _ in range(40)]
        graphs += [cycle_graph(n) for n in range(3, 13)]
        graphs += [
            theta_graph([rng.randint(1, 5), rng.randint(2, 5), rng.randint(2, 5)])
            for _ in range(15)
        ]
        # chains of dense blocks sharing vertex pairs, and dense random graphs
        rng = random.Random(13)
        graphs += [
            block_chain(rng, [rng.randint(5, 8) for _ in range(rng.randint(1, 3))])
            for _ in range(60)
        ]
        graphs += [
            random_graph(rng, rng.randint(5, 16), rng.uniform(0.25, 0.8))
            for _ in range(120)
        ]
        with_separators = 0
        for g in graphs:
            biconnected = brute_is_biconnected(g)
            assert is_biconnected(g) == biconnected
            if not biconnected:
                with pytest.raises(PreconditionError):
                    two_separators(g)
                continue
            seps = two_separators(g)
            assert seps == brute_two_separators(g)
            with_separators += bool(seps)
        assert with_separators >= 120


def wheel(rim):
    """Hub 0 joined to every vertex of the cycle 1..rim."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return build_graph(edges, rim + 1)


def prism(rungs):
    """Circular ladder: rims 0..r-1 and r..2r-1, rungs (i, r+i); prism(4) is
    the cube."""
    r = rungs
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(r + i, r + (i + 1) % r) for i in range(r)]
    edges += [(i, r + i) for i in range(r)]
    return build_graph(edges, 2 * r)


def mobius_ladder(rungs):
    """The cycle 0..2r-1 plus the chords (i, i+r)."""
    r = rungs
    edges = [(i, (i + 1) % (2 * r)) for i in range(2 * r)]
    edges += [(i, i + r) for i in range(r)]
    return build_graph(edges, 2 * r)


def open_ladder(rungs):
    """Rails 0..r-1 and r..2r-1, rungs (i, r+i); its four corners have degree 2."""
    r = rungs
    edges = [(i, i + 1) for i in range(r - 1)]
    edges += [(r + i, r + i + 1) for i in range(r - 1)]
    edges += [(i, r + i) for i in range(r)]
    return build_graph(edges, 2 * r)


def random_cubic(rng, n):
    """A 2-connected simple 3-regular graph on an even n >= 4, from random
    stub pairings."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(p), max(p)) for p in zip(stubs[::2], stubs[1::2]) if p[0] != p[1]}
        if len(pairs) == 3 * n // 2:
            g = build_graph(pairs, n)
            if is_biconnected(g):
                return g


def random_sparse_graph(rng, n, picks):
    """Each vertex joined to `picks` random vertices (itself skipped), so most
    degrees are near 2 * picks."""
    edges = [(v, w) for v in range(n) for w in rng.sample(range(n), picks) if w != v]
    return build_graph(edges, n)


def glue_on_pair(a, b, edge):
    """a and b with b's vertices 0 and 1 identified with a's, and the edge
    (0, 1) kept (edge=True) or dropped from both."""
    shift = a.n - 2
    relabel = [0, 1] + [v + shift for v in range(2, b.n)]
    edges = [e for e in a.edges() if e != (0, 1)]
    edges += [(relabel[u], relabel[v]) for u, v in b.edges() if (u, v) != (0, 1)]
    return build_graph(edges + [(0, 1)] * edge, b.n + shift)


def subdivided(g):
    """g with its first edge (u, v) replaced by the path u-n-v."""
    u, v = next(g.edges())
    edges = [e for e in g.edges() if e != (u, v)]
    return build_graph(edges + [(u, g.n), (g.n, v)], g.n + 1)


def relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph([(perm[u], perm[v]) for u, v in g.edges()], g.n)


def separation_families(rng):
    """Named 3-connected graphs and graphs with a separation pair, n <= 21."""
    pieces = [complete(4), complete(5), wheel(5), prism(3), prism(4), petersen(),
              complete_bipartite(3, 3)]
    graphs = [wheel(r) for r in range(3, 13)]
    graphs += [prism(r) for r in range(3, 11)] + [mobius_ladder(r) for r in range(2, 11)]
    graphs += [open_ladder(r) for r in range(2, 11)]
    graphs += [complete_bipartite(3, b) for b in range(2, 13)]
    graphs += [petersen(), glued_k5s()]
    graphs += [random_cubic(rng, n) for n in range(4, 21, 2) for _ in range(8)]
    graphs += [glue_on_pair(a, b, edge) for a in pieces for b in pieces for edge in (0, 1)]
    graphs += [subdivided(p) for p in pieces]
    return graphs


class TestThreeConnected:
    """graph._three_connected against brute force, under random relabellings,
    since the DFS order decides which test finds a pair."""

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(31)
        tested = three_connected = 0
        while tested < 2000:
            n = rng.randint(4, 14)
            if rng.random() < 0.6:
                g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            else:
                g = random_sparse_graph(rng, n, rng.choice([2, 3, 4]))
            if not is_biconnected(g):
                continue
            expected = brute_two_separators(g) == []
            for _ in range(3):
                assert graph._three_connected(relabelled(rng, g)) == expected
            tested += 1
            three_connected += expected
        assert three_connected >= 1000 and tested - three_connected >= 500

    def test_matches_brute_force_on_families(self):
        rng = random.Random(37)
        three_connected = 0
        graphs = separation_families(rng)
        for g in graphs:
            expected = brute_two_separators(g) == []
            for _ in range(3):
                assert graph._three_connected(relabelled(rng, g)) == expected
            three_connected += expected
        assert three_connected >= 100 and len(graphs) - three_connected >= 100

    def test_scan_alone_gives_the_same_pairs(self, monkeypatch):
        rng = random.Random(41)
        graphs = separation_families(rng)
        graphs += [random_sparse_graph(rng, rng.randint(5, 14), 3) for _ in range(60)]
        monkeypatch.setattr(graph, "_three_connected", lambda h: False)
        tested = 0
        for g in graphs:
            if is_biconnected(g):
                assert two_separators(g) == brute_two_separators(g)
                tested += 1
        assert tested >= 150

    def test_three_connected_graph_costs_one_lowpoint_dfs(self, monkeypatch):
        # min degree 3 < (n + 1) / 2, so Chartrand-Harary does not apply
        g = prism(500)
        calls = []
        cut_vertices = graph._cut_vertices

        def counted(*args, **kwargs):
            calls.append(args)
            return cut_vertices(*args, **kwargs)

        monkeypatch.setattr(graph, "_cut_vertices", counted)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 100)
        try:
            seps = two_separators(g)
        finally:
            sys.setrecursionlimit(limit)
        assert seps == [] and len(calls) == 1


class TestLowpointMemo:
    """Each Graph runs the skip-less lowpoint DFS once and keeps its result."""

    @staticmethod
    def count_dfs(monkeypatch):
        calls = []
        cut_vertices = graph._cut_vertices

        def counted(*args, **kwargs):
            calls.append(args)
            return cut_vertices(*args, **kwargs)

        monkeypatch.setattr(graph, "_cut_vertices", counted)
        return calls

    def test_one_dfs_behind_both_queries(self, monkeypatch):
        calls = self.count_dfs(monkeypatch)
        for g, cuts in ((bowtie(), {2}), (petersen(), set())):
            calls.clear()
            assert is_biconnected(g) == (not cuts)
            assert blocks_and_cut_vertices(g)[1] == cuts
            assert is_biconnected(g) == (not cuts)
            assert len(calls) == 1

    def test_mutating_the_answer_leaves_the_memo(self):
        for g in (bowtie(), path_graph(5), Graph(1, ((),))):
            blocks, cuts = blocks_and_cut_vertices(g)
            want = (list(blocks), set(cuts))
            blocks.append(frozenset({0}))
            blocks.reverse()
            cuts.add(0)
            assert blocks_and_cut_vertices(g) == want
            blocks, cuts = blocks_and_cut_vertices(g)
            blocks.clear()
            cuts.clear()
            assert blocks_and_cut_vertices(g) == want

    def test_two_separators_unchanged_on_random_graphs(self):
        # TestThreeConnected's draws, asked first through the memo, then fresh
        rng = random.Random(31)
        tested = 0
        while tested < 400:
            n = rng.randint(4, 14)
            if rng.random() < 0.6:
                g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            else:
                g = random_sparse_graph(rng, n, rng.choice([2, 3, 4]))
            if not is_biconnected(g):
                continue
            want = brute_two_separators(g)
            assert two_separators(g) == want
            assert two_separators(Graph(g.n, g.adj)) == want
            tested += 1


def block_chain(rng, sizes):
    """Blocks K_s (s in sizes), each edge kept with probability 0.85, where
    consecutive blocks share a vertex pair."""
    edges, start, n = [], 0, 0
    for size in sizes:
        block = range(start, start + size)
        edges += [(u, v) for u in block for v in block if u < v and rng.random() < 0.85]
        n = start + size
        start = n - 2
    return build_graph(edges, n)


def _per_vertex_two_separators(g):
    """The pairs of a 2-connected g from the per-vertex scan alone, with no
    3-connectivity test in front: {x, y} separates g exactly when y is a cut
    vertex of g - x. The reference for the differential test."""
    if not is_biconnected(g):
        raise PreconditionError("two_separators needs a 2-connected graph")
    return [(x, y) for x in range(g.n) for y in graph._cut_vertices(g, x) if y > x]


def random_bipartite(rng, a, b, prob):
    """Sides range(a) and range(a, a + b), each cross edge kept with
    probability prob."""
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < prob]
    return build_graph(edges, a + b)


def k4_seed_exists(g):
    """Whether the first vertex of maximum degree has a triangle in its
    neighbourhood, by brute force: without one, _expands_from_seed can only
    start from a K3,3."""
    v = max(range(g.n), key=g.degree)
    ns = g.adj[v]
    return any(g.has_edge(x, y) and g.has_edge(x, z) and g.has_edge(y, z)
               for i, x in enumerate(ns) for j, y in enumerate(ns[i + 1:], i + 1)
               for z in ns[j + 1:])


class TestSeparatorScan:
    def test_same_pairs_as_the_per_vertex_scan_up_to_300_vertices(self):
        rng = random.Random(19)
        graphs = [
            block_chain(rng, [rng.randint(5, 8) for _ in range(rng.randint(1, 3))])
            for _ in range(40)
        ]
        graphs += [
            block_chain(rng, [rng.randint(5, 12) for _ in range(rng.randint(10, 40))])
            for _ in range(6)
        ]
        graphs += [
            random_graph(rng, rng.randint(20, 300), rng.uniform(0.1, 0.5))
            for _ in range(6)
        ]
        graphs += [
            random_sparse_graph(rng, rng.randint(20, 300), rng.choice([3, 4]))
            for _ in range(30)
        ]
        graphs += [prism(150), mobius_ladder(150), wheel(299)]
        graphs += [glue_on_pair(prism(75), mobius_ladder(75), edge) for edge in (0, 1)]
        graphs += [random_bipartite(rng, a, rng.randint(a, 45), 0.85)
                   for a in rng.choices(range(4, 16), k=10)]
        tested = with_separators = 0
        for g in graphs:
            if not is_biconnected(g):
                continue
            seps = two_separators(g)
            assert seps == _per_vertex_two_separators(g)
            tested += 1
            with_separators += bool(seps)
        assert tested >= 60 and with_separators >= 20 and tested - with_separators >= 20


class TestExpansionCertificate:
    """graph._expands_from_seed answers only "3-connected", so it must never
    answer True on a graph with a separation pair."""

    def test_sound_against_brute_force_on_random_graphs(self):
        rng = random.Random(53)
        tested = decided = through_k33 = separated = 0
        while tested < 2000:
            n = rng.randint(4, 14)
            draw = rng.random()
            if draw < 0.45:
                g = random_graph(rng, n, rng.uniform(0.25, 0.9))
            elif draw < 0.75:
                g = random_sparse_graph(rng, n, rng.choice([2, 3, 4]))
            else:
                a = rng.randint(3, n // 2) if n >= 6 else 3
                g = random_bipartite(rng, a, max(a, n - a), rng.uniform(0.5, 1))
            if not is_biconnected(g):
                continue
            seps = brute_two_separators(g)
            if graph._expands_from_seed(g):
                assert seps == [], g.adj
                decided += 1
                through_k33 += not k4_seed_exists(g)
            tested += 1
            separated += bool(seps)
        assert decided >= 700 and through_k33 >= 150 and separated >= 500

    def test_sound_on_graphs_built_around_a_seed(self):
        # a K4 on 0..3 or a K3,3 on 0..5, plus vertices with 2 or 3 random
        # earlier neighbours: one with 2 is separated by them unless later
        # vertices attach
        rng = random.Random(59)
        tested = decided = 0
        for seed in (complete(4), complete_bipartite(3, 3)):
            for _ in range(400):
                n = rng.randint(seed.n + 1, seed.n + 9)
                edges = list(seed.edges())
                for v in range(seed.n, n):
                    edges += [(u, v) for u in rng.sample(range(v), rng.choice([2, 3, 3, 3]))]
                g = relabelled(rng, build_graph(edges, n))
                if graph._expands_from_seed(g):
                    assert brute_two_separators(g) == []
                    decided += 1
                tested += 1
        assert decided >= 160 and tested - decided >= 160

    def test_planted_separation_pairs(self):
        k4_ear = build_graph(list(complete(4).edges()) + [(0, 4), (4, 1)], 5)
        k5_long_ear = build_graph(
            list(complete(5).edges()) + [(0, 5), (5, 6), (6, 1)], 7
        )
        k33_ear = build_graph(list(complete_bipartite(3, 3).edges()) + [(0, 6), (6, 1)], 7)
        k33_long_ear = build_graph(
            list(complete_bipartite(3, 3).edges()) + [(0, 6), (6, 7), (7, 3)], 8
        )
        k34_pair = glue_on_pair(complete_bipartite(3, 4), complete_bipartite(3, 4), 0)
        for g in (glued_k5s(), k4_ear, k5_long_ear, glue_on_pair(complete(6), complete(5), 1),
                  k33_ear, k33_long_ear, k34_pair):
            assert brute_two_separators(g) and not graph._expands_from_seed(g)
            assert two_separators(g) == brute_two_separators(g)
        assert brute_two_separators(k34_pair) == [(0, 1)]

    def test_graphs_without_a_seed_are_not_decided(self):
        # 3-connected, but the first vertex of maximum degree has no triangle
        # in its neighbourhood and shares at most two neighbours with any
        # vertex: the exact test decides them
        for g in (wheel(6), prism(5), petersen()):
            assert not graph._expands_from_seed(g)
            assert two_separators(g) == brute_two_separators(g) == []
        assert graph._expands_from_seed(complete(4)) and graph._expands_from_seed(wheel(3))

    def test_bipartite_graphs_are_decided_through_the_k33(self, monkeypatch):
        rng = random.Random(61)
        graphs = [complete_bipartite(a, b) for a in range(3, 9) for b in range(a, 13)]
        graphs += [complete_bipartite(a, b) for a, b in ((3, 40), (15, 45), (100, 120))]
        dense = [random_bipartite(rng, a, rng.randint(a, 45), 0.85)
                 for a in rng.choices(range(6, 16), k=60)]
        graphs += [g for g in dense if is_biconnected(g) and graph._three_connected(g)]
        assert len(graphs) >= 90
        # the exact test must not be needed
        monkeypatch.setattr(graph, "_three_connected", lambda g: pytest.fail("ran"))
        for g in graphs:
            assert not k4_seed_exists(g) and graph._expands_from_seed(g)
            assert two_separators(g) == []

    def test_agrees_with_the_exact_test_on_dense_families(self):
        from madcycle.instances import gen_instance

        graphs = [split_graph(a, b) for a in (4, 6, 10) for b in (1, 5, 40, 200)]
        graphs += [complete_minus_matching(n) for n in (6, 8, 12, 30, 100, 300)]
        graphs += [
            gen_instance("gnp2c", {"n": n, "prob": prob}, seed)[0]
            for n, prob in ((20, 0.6), (60, 0.4), (150, 0.3), (300, 0.3))
            for seed in (1, 2)
        ]
        decided = 0
        for g in graphs:
            if graph._expands_from_seed(g):
                assert graph._three_connected(g)
                decided += 1
        assert decided >= len(graphs) - 2


def _parent_add_pairs(self, pairs):
    """Graph.add_pairs before it kept the rows of every vertex outside the
    pairs, kept verbatim as the reference for the differential test."""
    extra = [set() for _ in range(self.n)]
    for u, v in pairs:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphInputError(
                f"vertex id out of range in pair ({u},{v}), n={self.n}"
            )
        if u == v:
            raise GraphInputError(f"pair ({u},{v}) is a self-loop")
        if not self.has_edge(u, v):
            extra[u].add(v)
            extra[v].add(u)
    adj = tuple(
        tuple(sorted(set(self.adj[u]) | extra[u])) for u in range(self.n)
    )
    return Graph(self.n, adj)


def _outcome(f, *args):
    try:
        return f(*args)
    except GraphInputError as exc:
        return ("raise", str(exc))


class TestAddPairs:
    def test_same_graph_and_errors_as_the_parent(self):
        rng = random.Random(61)
        errors = Counter()
        for _ in range(600):
            g = random_graph(rng, rng.randint(1, 20), rng.uniform(0, 0.6))
            pairs = [(rng.randrange(-1, g.n + 1), rng.randrange(g.n))
                     for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.8:  # mostly valid pair lists
                pairs = [(u % g.n, v) for u, v in pairs if u % g.n != v]
            want = _outcome(_parent_add_pairs, g, pairs)
            got = _outcome(g.add_pairs, pairs)
            if isinstance(want, tuple):
                assert got == want
                errors["self-loop" if "self-loop" in want[1] else "out of range"] += 1
                continue
            assert (got.n, got.adj, got.masks, got.m) == (want.n, want.adj, want.masks, want.m)
            assert got is not g
            for u in range(g.n):
                if not any(u in p for p in pairs):
                    assert got.adj[u] is g.adj[u]
        assert errors["self-loop"] >= 20 and errors["out of range"] >= 20, errors


class TestVerifyCycle:
    def test_k4_hamiltonian(self):
        assert verify_cycle_certificate(complete(4), CycleCertificate((0, 1, 2, 3), 4))

    def test_missing_edge_diagnostic(self):
        out = verify_cycle_certificate(path_graph(3), CycleCertificate((0, 1, 2), 3))
        assert not out and "missing edge (2,0)" in out.reason

    def test_repeated_vertex_diagnostic(self):
        out = verify_cycle_certificate(complete(4), CycleCertificate((0, 1, 0, 2), 3))
        assert not out and out.reason == "repeated vertex"

    def test_too_short_claim(self):
        out = verify_cycle_certificate(complete(4), CycleCertificate((0, 1, 2), 4))
        assert not out and "below claimed minimum" in out.reason

    def test_vertex_out_of_range(self):
        out = verify_cycle_certificate(complete(4), CycleCertificate((0, 1, 9), 3))
        assert not out and out.reason == "vertex 9 out of range"

    def test_two_vertices_are_no_cycle(self):
        # the edge 0-1 walked there and back, claiming only its own length
        out = verify_cycle_certificate(complete(4), CycleCertificate((0, 1), 2))
        assert not out and out.reason == "cycle has fewer than 3 vertices"


class TestVerifyPath:
    def test_k4_path(self):
        assert verify_path_certificate(complete(4), PathCertificate((2, 0, 3)))

    def test_vertex_out_of_range(self):
        out = verify_path_certificate(complete(4), PathCertificate((0, 4)))
        assert not out and out.reason == "vertex 4 out of range"

    def test_repeated_vertex(self):
        out = verify_path_certificate(complete(4), PathCertificate((0, 1, 0)))
        assert not out and out.reason == "repeated vertex"

    def test_one_vertex_is_no_path(self):
        out = verify_path_certificate(complete(4), PathCertificate((2,)))
        assert not out and out.reason == "path has fewer than 2 vertices"


def _parent_verify_cycle(g, cert):
    """verify_cycle_certificate before the one certificate walk, verbatim."""
    vs = cert.vertices
    for v in vs:
        if not (0 <= v < g.n):
            return VerifyOutcome(False, f"vertex {v} out of range")
    if len(set(vs)) != len(vs):
        return VerifyOutcome(False, "repeated vertex")
    if len(vs) < 3:
        return VerifyOutcome(False, "cycle has fewer than 3 vertices")
    for i, u in enumerate(vs):
        v = vs[(i + 1) % len(vs)]
        if not g.has_edge(u, v):
            return VerifyOutcome(False, f"missing edge ({u},{v})")
    if len(vs) < cert.claimed_min_length:
        return VerifyOutcome(
            False,
            f"length {len(vs)} below claimed minimum {cert.claimed_min_length}",
        )
    return VerifyOutcome(True)


def _parent_verify_path(g, cert):
    """verify_path_certificate before the one certificate walk, verbatim."""
    vs = cert.vertices
    for v in vs:
        if not (0 <= v < g.n):
            return VerifyOutcome(False, f"vertex {v} out of range")
    if len(set(vs)) != len(vs):
        return VerifyOutcome(False, "repeated vertex")
    if len(vs) < 2:
        return VerifyOutcome(False, "path has fewer than 2 vertices")
    for u, v in zip(vs, vs[1:]):
        if not g.has_edge(u, v):
            return VerifyOutcome(False, f"missing edge ({u},{v})")
    return VerifyOutcome(True)


def _reason_kind(check):
    """The verifier reason with its numbers dropped, "ok" when it passes."""
    return "ok" if check else "".join(c for c in check.reason if c not in "-0123456789")


_WALK_REASONS = {"ok", "vertex  out of range", "repeated vertex", "missing edge (,)"}
_CYCLE_REASONS = _WALK_REASONS | {"cycle has fewer than  vertices",
                                  "length  below claimed minimum "}


class TestOneCertificateWalk:
    """Both verifiers walk the sequence once in `_verify_walk`, with the
    reasons, and their order, of the two separate walks before it."""

    @staticmethod
    def _sequences(rng, g):
        """Vertex sequences drawn to reach every reason: mostly in range,
        short and long, and on complete graphs mostly real walks."""
        for _ in range(12):
            size = rng.randint(0, g.n + 1)
            if rng.random() < 0.5:
                yield tuple(rng.sample(range(g.n), min(size, g.n)))
            else:
                yield tuple(rng.randrange(-1, g.n + 2) for _ in range(size))

    def test_same_outcomes_as_the_two_parent_walks(self):
        rng = random.Random(47)
        kinds = {"cycle": Counter(), "path": Counter()}
        for _ in range(300):
            n = rng.randint(2, 8)
            g = complete(n) if rng.random() < 0.3 else random_graph(rng, n, rng.uniform(0.3, 1))
            for vs in self._sequences(rng, g):
                cert = CycleCertificate(vs, rng.randint(0, g.n + 1))
                want = _parent_verify_cycle(g, cert)
                assert verify_cycle_certificate(g, cert) == want
                kinds["cycle"][_reason_kind(want)] += 1
                want = _parent_verify_path(g, PathCertificate(vs))
                assert verify_path_certificate(g, PathCertificate(vs)) == want
                kinds["path"][_reason_kind(want)] += 1
        assert min(kinds["cycle"][r] for r in _CYCLE_REASONS) >= 10, kinds["cycle"]
        path_reasons = _WALK_REASONS | {"path has fewer than  vertices"}
        assert min(kinds["path"][r] for r in path_reasons) >= 10, kinds["path"]

    def test_cli_prints_the_parent_reason(self, tmp_path):
        from madcycle.cli import run_cli
        from madcycle.instances import emit_graph

        rng = random.Random(53)
        seen = Counter()
        for i in range(60):
            g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.4, 1))
            path = tmp_path / f"g{i}.el"
            path.write_bytes(emit_graph(g))
            for vs in self._sequences(rng, g):
                if not vs:
                    continue  # an empty --cycle is no list to check
                min_len = rng.randint(0, g.n + 1)
                want = _parent_verify_cycle(g, CycleCertificate(vs, min_len))
                out = io.StringIO()
                code = run_cli(["verify", str(path), "--cycle=" + ",".join(map(str, vs)),
                                "--min-len", str(min_len)], out=out)
                assert out.getvalue() == ("ok\n" if want else f"invalid: {want.reason}\n")
                assert code == (0 if want else 1)
                seen[_reason_kind(want)] += 1
        assert set(seen) == _CYCLE_REASONS, seen


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return build_graph(chosen, n)


@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_eg_ad_sandwich(g):
    # l_EG - 1 <= ad < l_EG, exactly as rationals (strict side needs an edge)
    eg = eg_bound(g)
    ad = avg_degree(g)
    assert eg - 1 <= ad
    if g.m > 0:
        assert ad < eg
    else:
        assert ad == eg == 0


class TestPairSets:
    def test_triangle_not_cyclable(self):
        assert not is_potentially_cyclable([(0, 1), (1, 2), (2, 0)])

    def test_chain_ordering(self):
        chain = normalize_pair_chain([(2, 3), (0, 1), (1, 2)])
        assert chain == [(0, 1), (1, 2), (2, 3)]

    def test_degree_three_rejected(self):
        assert not is_potentially_cyclable([(0, 1), (0, 2), (0, 3)])

    def test_duplicate_rejected(self):
        assert not is_potentially_cyclable([(0, 1), (1, 0)])

    def test_one_walk_matches_the_union_find_reference(self):
        # 20,000 shuffled, randomly oriented linear forests, each with one
        # defect or none: both names give the reference's bool and chain, or
        # its error text
        rng = random.Random(38)
        kinds = Counter()
        for _ in range(20000):
            pairs, kind = _random_pair_list(rng)
            ok = _reference_is_potentially_cyclable(pairs)
            kinds[kind, ok] += 1
            assert is_potentially_cyclable(pairs) == ok
            if ok:
                assert normalize_pair_chain(pairs) == _reference_normalize_pair_chain(pairs)
            else:
                with pytest.raises(PreconditionError) as got:
                    normalize_pair_chain(pairs)
                with pytest.raises(PreconditionError) as want:
                    _reference_normalize_pair_chain(pairs)
                assert str(got.value) == str(want.value)
        for kind in ("self-loop", "reversed duplicate", "cycle", "third pair"):
            assert kinds[kind, False] > 1000 and kinds[kind, True] == 0
        assert kinds["none", True] > 1000 and kinds["none", False] == 0
        assert kinds["random pair", True] > 500 and kinds["random pair", False] > 500


def _random_pair_list(rng) -> tuple[list[tuple[int, int]], str]:
    """A shuffled, randomly oriented linear forest on 1-9 vertices (disjoint
    paths), with one defect or none, and the defect's name."""
    n = rng.randint(1, 9)
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    paths = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    pairs = [(a, b) if rng.random() < 0.5 else (b, a)
             for path in paths for a, b in zip(path, path[1:])]
    long_paths = [path for path in paths if len(path) >= 3]
    inner = [v for path in paths for v in path[1:-1]]
    kind = rng.choice(["none", "self-loop", "reversed duplicate", "cycle", "third pair",
                       "random pair"])
    if kind == "self-loop":
        v = rng.randrange(n)
        pairs.append((v, v))
    elif kind == "reversed duplicate" and pairs:
        a, b = rng.choice(pairs)
        pairs.append((b, a))
    elif kind == "cycle" and long_paths:
        path = rng.choice(long_paths)
        pairs.append((path[-1], path[0]))
    elif kind == "third pair" and inner:
        v = rng.choice(inner)
        pairs.append((v, rng.choice([w for w in range(n + 1) if w != v])))
    elif kind == "random pair":
        pairs.append((rng.randrange(n + 2), rng.randrange(n + 2)))
    else:
        kind = "none"
    rng.shuffle(pairs)
    return pairs, kind


# The linear-forest check and chain order that graph._pair_chain replaced,
# verbatim: a union-find, then a second walk over the same pairs.


def _reference_is_potentially_cyclable(pairs) -> bool:
    """True iff the pair graph is a linear forest (no duplicate pairs either)."""
    seen = set()
    deg: dict[int, int] = {}
    parent: dict[int, int] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if key in seen:
            return False
        seen.add(key)
        for x in (u, v):
            parent.setdefault(x, x)
            deg[x] = deg.get(x, 0) + 1
            if deg[x] > 2:
                return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _reference_normalize_pair_chain(pairs) -> list[tuple[int, int]]:
    """Order a potentially cyclable pair set so shared endpoints are consecutive.

    Returns oriented pairs (x_i, y_i) with y_{i-1} == x_i exactly when two
    pairs share a vertex; components are concatenated lowest end first.
    """
    pairs = [tuple(p) for p in pairs]
    if not _reference_is_potentially_cyclable(pairs):
        raise PreconditionError("pair set is not potentially cyclable")
    adjacency: dict[int, list[int]] = {}
    for u, v in pairs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    ends = sorted(v for v, ns in adjacency.items() if len(ns) == 1)
    done = set()
    chain: list[tuple[int, int]] = []
    for start in ends:
        if start in done:
            continue
        prev, cur = None, start
        while True:
            done.add(cur)
            nxts = [w for w in adjacency[cur] if w != prev]
            if not nxts:
                break
            nxt = nxts[0]
            chain.append((cur, nxt))
            prev, cur = cur, nxt
    return chain


class TestBitPrimitives:
    """reach, lowest_off and bits_off against plain set-based versions."""

    def test_reach_matches_bfs(self):
        rng = random.Random(21)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 18), rng.uniform(0.05, 0.5))
            alive = {v for v in range(g.n) if rng.random() < 0.7}
            start = {v for v in range(g.n) if rng.random() < 0.2}
            seen = start & alive
            queue = list(seen)
            while queue:
                v = queue.pop()
                for w in g.adj[v]:
                    if w in alive and w not in seen:
                        seen.add(w)
                        queue.append(w)
            mask = graph.reach(g, sum(1 << v for v in start), sum(1 << v for v in alive))
            assert mask == sum(1 << v for v in seen)

    def test_lowest_off_and_bits_off(self):
        rng = random.Random(22)
        for _ in range(300):
            mask = rng.getrandbits(rng.randint(0, 40))
            off = {v for v in range(40) if rng.random() < 0.3}
            kept = [v for v in range(40) if mask >> v & 1 and v not in off]
            assert graph.bits_off(mask, off) == kept
            assert graph.lowest_off(mask, off) == (kept[0] if kept else None)
            assert graph.bits_off(mask) == [v for v in range(40) if mask >> v & 1]


class TestInducedSubgraph:
    def test_whole_vertex_set_is_the_graph_itself(self):
        g = petersen()
        for vs in (range(g.n), list(reversed(range(g.n))), frozenset(range(g.n))):
            sub, ids = graph.induced_subgraph(g, vs)
            assert sub is g and ids == tuple(range(g.n))

    def test_proper_subset_relabels_in_ascending_order(self):
        rng = random.Random(23)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.7))
            vs = [v for v in range(g.n) if rng.random() < 0.6]
            rng.shuffle(vs)
            sub, ids = graph.induced_subgraph(g, vs)
            assert ids == tuple(sorted(vs))
            if len(vs) < g.n:
                assert sub is not g
            assert sub.n == len(ids)
            for i, u in enumerate(ids):
                assert sub.adj[i] == tuple(j for j, w in enumerate(ids) if g.has_edge(u, w))

    @pytest.mark.parametrize("vertices", [[-1, 0, 1], [6, 0, 1]])
    def test_vertex_out_of_range_rejected(self, vertices):
        # -1 would read the last vertex's neighbours, 6 would raise IndexError
        with pytest.raises(GraphInputError, match="out of range"):
            graph.induced_subgraph(complete(6), vertices)
