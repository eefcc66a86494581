import io
import json
import math
import random
from fractions import Fraction

import pytest

from madcycle.cli import run_cli
from madcycle.density import mad_with_witness
from madcycle.errors import ConstructionFailure, EngineIncomplete, PreconditionError
from madcycle.extract import FoundCycle, VertexCover, find_dense
from madcycle.graph import (
    CycleCertificate,
    Graph,
    PathCertificate,
    build_graph,
    certify,
    induced_subgraph,
    verify_cycle_certificate,
    verify_path_certificate,
)
from madcycle.instances import emit_result
from madcycle.longpaths import st_path_at_least
from madcycle.oracles import oracle_longest_cycle, oracle_longest_st_path
from madcycle.segments import SegmentSystem
from madcycle.solver import (
    _outside_path,
    _splice_segments,
    case_bipartite_dense,
    case_small_dense,
    exact_longest_cycle_fallback,
    k0_constructive_cycle,
    solve,
)

from conftest import (
    complete,
    complete_bipartite,
    complete_minus_matching,
    path_graph,
    petersen,
    random_2connected_graph,
    random_connected_graph,
)

# the reason of an exhausted exact case analysis outside the k range
OUT_OF_RANGE = "search exhausted; no-guarantee outside the range k <= mad/88 - 1"


class TestSolveDispatch:
    def test_k4_k0(self):
        r = solve(complete(4), 0)
        assert r.answer == "yes" and r.branch == "k0"
        assert len(r.certificate) == 4 and r.threshold_len == 4
        assert r.mad == 3

    def test_k4_k2_no(self):
        r = solve(complete(4), 2)
        assert r.answer == "no" and r.branch == "fallback"

    def test_petersen_k1(self):
        r = solve(petersen(), 1)
        assert r.answer == "yes" and r.branch == "fallback"
        assert verify_cycle_certificate(petersen(), r.certificate)
        assert len(r.certificate) >= 4

    def test_negative_k(self):
        with pytest.raises(PreconditionError):
            solve(complete(4), -1)

    def test_not_biconnected(self):
        with pytest.raises(PreconditionError):
            solve(path_graph(4), 0)

    def test_strict_pipeline_k200(self):
        r = solve(complete(200), 1)
        assert r.answer == "yes" and r.branch == "find_dense"
        assert len(r.certificate) == 200 and r.threshold_len == 200

    def test_strict_pipeline_small_dense_no(self):
        # K356 minus a perfect matching, k=3 (inside the k <= mad/88 - 1
        # dispatch range): threshold 357 exceeds the circumference 356
        g = complete_minus_matching(356)
        r = solve(g, 3)
        assert r.branch == "case_ii"
        assert r.answer == "no"

    def test_strict_pipeline_small_dense_yes(self):
        # same core plus one outside 2-vertex bridge between clique vertices
        g0 = complete_minus_matching(356)
        edges = list(g0.edges()) + [(0, 356), (356, 357), (357, 2)]
        g = build_graph(edges, 358)
        r = solve(g, 3)
        assert r.branch == "case_ii"
        assert r.answer == "yes"
        assert len(r.certificate) >= r.threshold_len == 357
        assert verify_cycle_certificate(g, r.certificate)


class TestK0Constructive:
    def test_always_exceeds_mad(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(6, 25), rng.uniform(0.25, 0.7))
            mad = mad_with_witness(g).mad
            if mad < 3:
                continue
            cert = k0_constructive_cycle(g)
            assert verify_cycle_certificate(g, cert)
            assert Fraction(len(cert)) > mad

    def test_exceeds_mad_below_three(self):
        # the proof needs only mad >= 2: cycles with a few chords
        rng = random.Random(29)
        below = 0
        for _ in range(40):
            n = rng.randint(5, 30)
            e = [(i, (i + 1) % n) for i in range(n)]
            e += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n // 4))]
            g = build_graph(e, n)
            mad = mad_with_witness(g).mad
            if mad >= 3:
                continue
            below += 1
            cert = k0_constructive_cycle(g)
            assert verify_cycle_certificate(g, cert)
            assert Fraction(len(cert)) > mad
        assert below >= 20, below

    def test_trace_comes_from_the_one_reduction(self, monkeypatch):
        # K6 plus a vertex on three of its vertices: rule 3 drops that vertex
        from madcycle import solver
        from madcycle.reduction import K0_RULES, reduce_exhaustive

        e = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = build_graph(e + [(6, 0), (6, 1), (6, 2)], 7)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return reduce_exhaustive(*args, **kwargs)

        monkeypatch.setattr(solver, "reduce_exhaustive", counting)
        res = solve(g, 0, with_trace=True)
        assert len(calls) == 1
        assert res.trace == [{
            "rule": 3, "removed": [6],
            "eg_before": {"num": 6, "den": 1}, "eg_after": {"num": 6, "den": 1},
        }]
        again = reduce_exhaustive(g, mad_with_witness(g).vertices, rules=K0_RULES)
        assert res.trace == again[1].to_jsonable()
        assert solve(g, 0).trace is None

    @pytest.mark.parametrize("g", [
        complete(5),  # mad 4: the short cycle is exactly mad long
        complete(8),
        # K6 plus a vertex on three of its vertices: mad 36/7, core K6
        build_graph([(i, j) for i in range(6) for j in range(i + 1, 6)]
                    + [(6, 0), (6, 1), (6, 2)], 7),
    ])
    def test_a_core_cycle_one_vertex_short_is_refused(self, monkeypatch, g):
        # every core here is complete, so any floor(mad) of its vertices, in
        # any order, are a cycle of it that certify accepts
        from madcycle import longpaths

        real = longpaths.dirac_cycle
        shortened = []

        def short(core, want):
            vs = real(core, want).vertices[: want - 1]
            shortened.append(want)
            return certify(core, CycleCertificate(vs, want - 1))

        monkeypatch.setattr(longpaths, "dirac_cycle", short)
        above = math.floor(mad_with_witness(g).mad) + 1
        refused = f"length {above - 1} below claimed minimum {above}"
        with pytest.raises(ConstructionFailure, match=refused):
            solve(g, 0)
        with pytest.raises(ConstructionFailure, match=refused):
            k0_constructive_cycle(g)
        # path mode adds a universal vertex, and its k = 0 cycle is refused too
        with pytest.raises(ConstructionFailure, match="below claimed minimum"):
            solve(g, 0, mode="path")
        assert shortened == [above, above, above + 1]


def _block_chain(rng, sizes):
    """Random 2-connected blocks of the given sizes, consecutive blocks
    sharing a vertex pair."""
    edges, start = [], 0
    for size in sizes:
        block = random_2connected_graph(rng, size, rng.uniform(0.4, 0.9))
        edges += [(start + u, start + v) for u, v in block.edges()]
        start += size - 2
    return build_graph(edges, start + 2)


def _k0_samples(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            yield random_2connected_graph(rng, rng.randint(6, 40), rng.uniform(0.15, 0.5))
        else:
            yield _block_chain(rng, [rng.randint(4, 9) for _ in range(rng.randint(2, 4))])


class TestK0WithoutSeparatorScan:
    """k = 0 reduces with rules 1-3 only, so it never scans for 2-separators."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        from madcycle import extract, graph, reduction

        def scan(g):
            raise AssertionError("the k = 0 path ran the 2-separator scan")

        for mod in (graph, reduction, extract):
            monkeypatch.setattr(mod, "two_separators", scan)

    def test_every_k0_entry_point_exceeds_mad(self):
        path_k0 = 0
        for g in _k0_samples(41, 60):
            mad = mad_with_witness(g).mad
            for with_trace in (False, True):
                r = solve(g, 0, with_trace=with_trace)
                assert r.answer == "yes" and r.branch == "k0"
                assert verify_cycle_certificate(g, r.certificate)
                assert Fraction(len(r.certificate)) > mad
                assert (r.trace is not None) == with_trace
                assert all(step["rule"] in (1, 2, 3) for step in r.trace or [])
            cert = k0_constructive_cycle(g)
            assert verify_cycle_certificate(g, cert) and Fraction(len(cert)) > mad
            r = solve(g, 0, mode="path")
            assert r.answer == "yes"
            assert verify_path_certificate(g, r.path_certificate)
            assert len(r.path_certificate) >= r.threshold_len
            path_k0 += r.branch == "path_k0"
        assert path_k0 >= 50, path_k0

    def test_one_lowpoint_dfs_per_graph(self, monkeypatch):
        from madcycle import graph

        g = random_2connected_graph(random.Random(25), 150, 8 / 149)
        g = Graph(g.n, g.adj)  # sampling already ran the DFS of the first copy
        asked = []
        cut_vertices = graph._cut_vertices

        def counted(h, skip=-1, blocks=None):
            if skip < 0:
                asked.append(h)
            return cut_vertices(h, skip, blocks)

        monkeypatch.setattr(graph, "_cut_vertices", counted)
        assert solve(g, 0).answer == "yes"
        # g, then the witness core, which is also the reduction's last core
        # and the one dirac_cycle is given
        assert asked[0] is g and len(asked) == 2
        assert len({id(h) for h in asked}) == len(asked)

    def test_core_with_a_separator_keeps_its_hamiltonian_cycle(self):
        # rule 4 would cut {0, 5} off at the separator {1, 3} and leave a
        # 4-cycle; rules 1-3 keep all six vertices, which form a 6-cycle
        g = build_graph(
            [(0, 1), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5)], 6
        )
        assert mad_with_witness(g).mad == Fraction(8, 3)
        r = solve(g, 0, with_trace=True)
        assert r.answer == "yes" and r.trace == []
        assert r.certificate.vertices == (3, 5, 0, 1, 2, 4)
        assert verify_cycle_certificate(g, r.certificate)
        assert k0_constructive_cycle(g).vertices == (3, 5, 0, 1, 2, 4)


class TestDenseCoreThroughMasks:
    """The CI's case (iii) instance, K10 + I100 plus 16 one-vertex ears: the
    expansion certificate decides every 2-separator scan of its solve from a
    K4, so the exact 3-connectivity test never runs, and routing builds no
    graph from an edge list."""

    def test_case_iii_solve(self, monkeypatch):
        from madcycle import graph, routing

        edges = [(i, j) for i in range(10) for j in range(i + 1, 110)]
        edges += [p for i in range(16) for p in ((10 + 2 * i, 110 + i), (110 + i, 11 + 2 * i))]
        g = build_graph(edges, 126)
        names = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                names.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("_scan_two_separators", "_expands_from_seed", "_three_connected"):
            monkeypatch.setattr(graph, name, counted(name, getattr(graph, name)))
        # a build_graph that routing imported would be this one
        monkeypatch.setattr(routing, "build_graph", counted("build_graph", build_graph),
                            raising=False)
        monkeypatch.setattr(routing, "cover_side_through_pairs", counted(
            "cover_side_through_pairs", routing.cover_side_through_pairs))
        res = solve(g, 4)
        assert res.answer == "yes" and res.branch == "case_iii"
        assert names.count("cover_side_through_pairs") >= 1
        assert names.count("_scan_two_separators") >= 1
        assert names.count("_expands_from_seed") == names.count("_scan_two_separators")
        assert "_three_connected" not in names
        assert "build_graph" not in names


class TestOneSeparatorScanPerCore:
    """A solve at k >= 1 scans the 2-separators of each graph at most once:
    find_dense reads the pairs that the reduction's last rule-4 round left on
    the core."""

    def _solve_counting(self, monkeypatch, g, **kwargs):
        from madcycle import extract, graph

        scanned, tested, cores = [], [], []
        real_scan, real_test = graph._scan_two_separators, graph._three_connected
        real_reduce = extract.reduce_exhaustive

        def scan(h):
            scanned.append(h)
            return real_scan(h)

        def three_connected(h):
            tested.append(h)
            return real_test(h)

        def reduce(*args, **kw):
            core, trace = real_reduce(*args, **kw)
            cores.append(trace.core)
            return core, trace

        with monkeypatch.context() as m:
            m.setattr(graph, "_scan_two_separators", scan)
            m.setattr(graph, "_three_connected", three_connected)
            m.setattr(extract, "reduce_exhaustive", reduce)
            res = solve(g, **kwargs)
        for seen in (scanned, tested):
            assert all(sum(h is x for h in seen) == 1 for x in seen)
        assert all(any(h is x for x in scanned) for h in tested)
        return res, scanned, tested, cores

    def test_glued_cliques_scan_their_core_once(self, monkeypatch):
        # two K14 sharing {0, 1}: no rule fires, the expansion from a K4
        # stalls at the second clique, and the core's one scan serves both
        # rule 4 and the glue cycle
        side = list(range(14))
        other = [0, 1] + list(range(14, 26))
        g = build_graph([(u, v) for part in (side, other) for u in part
                         for v in part if u < v], 26)
        res, scanned, tested, cores = self._solve_counting(monkeypatch, g, k=1)
        assert res.answer == "yes" and res.branch == "find_dense"
        assert len(res.certificate) == 26 and res.threshold_len == 15
        assert verify_cycle_certificate(g, res.certificate)
        assert len(cores) == 1 and cores[0] is scanned[0] is tested[0]
        assert len(scanned) == len(tested) == 1

    def test_random_cores_are_scanned_once(self, monkeypatch):
        rng = random.Random(43)
        rule_4_cores = 0
        for _ in range(16):
            n = rng.randint(25, 40)
            g = random_2connected_graph(rng, n, rng.uniform(4, 9) / n)
            _, scanned, _, cores = self._solve_counting(monkeypatch, Graph(g.n, g.adj), k=1)
            assert len(cores) == 1
            core = cores[0]
            # every final core of 4 or more vertices is scanned by rule 4
            # and only then; a triangle core is never scanned
            assert sum(h is core for h in scanned) == (core.n >= 4)
            rule_4_cores += core.n >= 4
        assert rule_4_cores >= 12


class TestFallback:
    def test_petersen_threshold4(self):
        r = exact_longest_cycle_fallback(petersen(), 4)
        assert r.answer == "yes" and len(r.certificate) >= 4

    def test_c5(self):
        g = build_graph([(i, (i + 1) % 5) for i in range(5)], 5)
        r = exact_longest_cycle_fallback(g, 3)
        assert r.answer == "yes" and len(r.certificate) == 5

    def test_tree_no(self):
        r = exact_longest_cycle_fallback(path_graph(5), 3)
        assert r.answer == "no"

    def test_cap_exceeded_unknown(self):
        r = exact_longest_cycle_fallback(complete(30), 3)
        assert r.answer == "unknown" and "cap" in r.stats["reason"]

    def test_threshold_above_n_is_an_exact_no_past_the_cap(self):
        # no cycle has more than n vertices, so the cap does not apply
        r = exact_longest_cycle_fallback(complete(30), 31)
        assert (r.answer, r.branch, r.threshold_len, r.stats) == ("no", "fallback", 31, {})

    def test_states_the_k_of_its_threshold(self):
        # Petersen has mad 3, so threshold 4 is k = 1 above ceil(mad)
        r = exact_longest_cycle_fallback(petersen(), 4)
        assert (r.answer, r.k, r.mad, r.threshold_len) == ("yes", 1, 3, 4)
        assert b'"k":1,' in emit_result(r)

    def test_exact_no_and_unknown_past_the_state_budget(self, monkeypatch):
        # K_{6,8} has mad 48/7 and circumference 12, and k = 6 lies outside
        # the k range, so the fallback decides whether a 13-cycle exists
        from madcycle import longpaths

        g = complete_bipartite(6, 8)
        r = solve(g, 6)
        assert (r.answer, r.branch, r.threshold_len) == ("no", "fallback", 13)
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 1000)
        r = solve(g, 6)
        assert (r.answer, r.branch) == ("unknown", "fallback")
        assert r.stats["reason"] == "fallback state budget exceeded: 1000 states"


class TestCaseSmallDense:
    def test_segment_splice(self):
        # K6 plus an outside path 0-6-7-1: segment r=1, p=2 in [k', 2k'-2]
        e = [(i, j) for i in range(6) for j in range(i + 1, 6)] + [
            (0, 6),
            (6, 7),
            (7, 1),
        ]
        g = build_graph(e, 8)
        # mad 5, k 3: threshold 8, so k' = 8 - |H| = 2
        res = case_small_dense(g, frozenset(range(6)), Fraction(5), 3)
        assert res.answer == "yes" and res.stats["k_prime"] == 2
        assert len(res.certificate) == 8  # 6 + 2 spliced internals
        assert verify_cycle_certificate(g, res.certificate)

    def test_long_outside_path_route(self):
        # outside path with 4 internal vertices: clause (a) fires at k'=2
        e = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        e += [(0, 6), (6, 7), (7, 8), (8, 9), (9, 1)]
        g = build_graph(e, 10)
        assert oracle_longest_cycle(g, cap=10)[0] >= 6 + 2
        res = case_small_dense(g, frozenset(range(6)), Fraction(5), 3)
        assert res.answer == "yes"
        assert len(res.certificate) >= 8

    def test_no_outside_vertices(self):
        # at k' = 1 (mad 5, k 2) the exhausted search is out of the k range;
        # with mad 88 and k 0 (k' = 82) it is in range, and the caller vouches
        # for H and mad
        g = complete(6)
        res = case_small_dense(g, frozenset(range(6)), Fraction(5), 2)
        assert res.answer == "unknown" and res.stats["k_prime"] == 1
        assert res.stats["reason"] == OUT_OF_RANGE
        res = case_small_dense(g, frozenset(range(6)), Fraction(88), 0)
        assert res.answer == "no" and res.stats["k_prime"] == 82

    def test_budget_tripped_outside_probe_never_answers_no(self, monkeypatch):
        # K26 minus a perfect matching plus a star 26-{27, 28, 29} joined to
        # 0, 2 and 4: its longest outside path has 5 vertices, one short of
        # k'+2 = 6 (mad 24, k 6), and no segment system carries k' = 4
        # internals; the exact search is exhausted, out of the k range
        from madcycle import longpaths

        edges = [(u, v) for u in range(26) for v in range(u + 1, 26)
                 if not (v == u + 1 and u % 2 == 0)]
        edges += [(26, 27), (26, 28), (26, 29), (27, 0), (28, 2), (29, 4)]
        g, H = build_graph(edges, 30), frozenset(range(26))
        res = case_small_dense(g, H, Fraction(24), 6)
        assert res.answer == "unknown" and res.stats["st_probes"] == 3
        assert res.stats["reason"] == OUT_OF_RANGE
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        why = "search state budget exceeded: 0 states"
        res = case_small_dense(g, H, Fraction(24), 6)
        assert res.answer == "unknown" and res.stats["reason"] == why
        # in range (mad 88, k 0, so k' = 62) the star is too small to probe;
        # the same state budget bounds the segment search, so only the
        # unpatched run stays exact
        res = case_small_dense(g, H, Fraction(88), 0)
        assert res.answer == "unknown" and res.stats["st_probes"] == 0
        assert res.stats["reason"] == why
        monkeypatch.undo()
        res = case_small_dense(g, H, Fraction(88), 0)
        assert res.answer == "no" and res.stats["st_probes"] == 0


class TestCaseBipartiteDense:
    """K8 + I80 hosts, A the clique. Most tests pass mad 16 and k 1: the
    threshold is 17, so k' = 17 - 2|A| = 1, out of the k range, where an
    exhausted search answers unknown."""

    def _host(self, extra_edges, extra_n):
        a, b = 8, 80
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        edges += [(i, 8 + j) for i in range(8) for j in range(80)]
        return build_graph(edges + extra_edges, 88 + extra_n)

    def test_bb_segment_splice(self):
        # one outside B-B segment with one internal vertex; k'=1 admits p=1
        g = self._host([(8, 88), (88, 9)], 1)
        H = frozenset(range(88))
        res = case_bipartite_dense(g, H, frozenset(range(8)), Fraction(16), 1)
        assert res.answer == "yes" and res.stats["k_prime"] == 1
        assert len(res.certificate) >= 2 * 8 + 1
        assert verify_cycle_certificate(g, res.certificate)

    def test_a_segment_needs_two_internals(self):
        # outside A-A path with a single internal vertex is gated off
        g = self._host([(0, 88), (88, 1)], 1)
        H = frozenset(range(88))
        res = case_bipartite_dense(g, H, frozenset(range(8)), Fraction(16), 1)
        assert res.answer == "unknown" and res.stats["reason"] == OUT_OF_RANGE

    def test_no_outside(self):
        g = self._host([], 0)
        H = frozenset(range(88))
        res = case_bipartite_dense(g, H, frozenset(range(8)), Fraction(16), 1)
        assert res.answer == "unknown" and res.stats["reason"] == OUT_OF_RANGE

    def test_k2080_three_internal_bb_segment(self):
        # K_{20,80} core plus an outside B-B path of 3 internals. At k'=1 the
        # segment window [max(k'+s-t, r), 3k'-2] = [1,1] misses p=3 (no
        # 1-internal segment exists), though the path route still decides yes;
        # k'=3 widens the window to [2,7] and the segment splice succeeds.
        # With mad 30 and |A| = 20, k = 13 gives k' = 3 and k = 11 gives k' = 1.
        from madcycle.segments import SegmentSearch, find_segments_partitioned

        a, b = 20, 80
        edges = [(i, a + j) for i in range(a) for j in range(b)]
        extra = [(20, 100), (100, 101), (101, 102), (102, 21)]
        g = build_graph(edges + extra, 103)
        H = frozenset(range(100))
        A = frozenset(range(20))
        search = SegmentSearch(g, H, A, 3)
        assert find_segments_partitioned(search, 1, 1, 0, 1) is None
        assert find_segments_partitioned(search, 1, 3, 0, 1) is not None
        res = case_bipartite_dense(g, H, A, Fraction(30), 13)
        assert res.answer == "yes" and res.stats["k_prime"] == 3
        assert len(res.certificate) >= 2 * 20 + 3
        assert verify_cycle_certificate(g, res.certificate)
        res = case_bipartite_dense(g, H, A, Fraction(30), 11)
        assert res.answer == "yes"  # clause (i): outside path of length >= k'+2
        assert res.stats["k_prime"] == 1


def _engine_gives(outcome):
    return lambda *args, **kwargs: outcome


def _raise_failure(*args, **kwargs):
    raise ConstructionFailure("forced")


def _raise_incomplete(*args, **kwargs):
    raise EngineIncomplete("forced")


def _short_cycle(g, k):
    """find_dense's reduction trace with a FoundCycle of length 3."""
    _, trace = find_dense(g, k)
    return FoundCycle(CycleCertificate((0, 2, 4), 3)), trace


class TestRelaxedMode:
    def test_case_ii_construction_failure_is_unknown(self, monkeypatch):
        # K26 minus a perfect matching plus a one-vertex ear reaches case (ii),
        # whose outside path is found by one st probe; when routing through
        # the core then fails, the unknown keeps the search's stats
        from madcycle import routing

        edges = [(u, v) for u in range(26) for v in range(u + 1, 26)
                 if not (v == u + 1 and u % 2 == 0)]
        g = build_graph(edges + [(0, 26), (26, 1)], 27)
        probes = {"k_prime": 1, "st_probes": 1, "segment_probes": 0}
        res = solve(g, 3)
        assert (res.answer, res.branch, res.stats) == ("yes", "case_ii", probes)
        monkeypatch.setattr(routing, "hamiltonian_through_pairs", _raise_failure)
        res = solve(g, 3)
        assert res.answer == "unknown" and res.branch == "case_ii"
        assert res.stats == {**probes, "reason": "construction failed: forced"}

    @pytest.mark.parametrize("target, fake, reason", [
        ("madcycle.extract.corollary5_engine", _raise_incomplete,
         "engine incomplete: forced"),
        # every vertex of K26 - M as the cover: |X| > (ad + 3k + 3) / 2
        ("madcycle.extract.corollary5_engine",
         _engine_gives(VertexCover(frozenset(range(26)))),
         "engine incomplete: cover refinement failed: cover too large"),
        ("madcycle.solver.find_dense", _raise_failure, "construction failed: forced"),
        ("madcycle.solver.find_dense", _short_cycle, "dense-pipeline cycle below threshold"),
    ], ids=["engine_incomplete", "cover_refinement_failed",
            "find_dense_construction_failure", "cycle_below_threshold"])
    def test_find_dense_failures_are_unknown(self, monkeypatch, tmp_path, target, fake,
                                             reason):
        # K26 minus a perfect matching plus a one-vertex ear: k=3 is out of
        # range, and n = 27 is past the fallback cap, so it reaches
        # find_dense, whose Dirac cycle (26) is below the threshold 27
        g = build_graph(list(complete_minus_matching(26).edges()) + [(0, 26), (26, 1)], 27)
        assert solve(g, 3).answer == "yes"
        monkeypatch.setattr(target, fake)
        res = solve(g, 3)
        assert res.answer == "unknown" and res.branch == "find_dense"
        assert res.stats["reason"].startswith(reason)
        f = tmp_path / "km_ear.el"
        f.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        out = io.StringIO()
        code = run_cli(["solve", str(f), "-k", "3", "--json"],
                       out=out, err=io.StringIO())
        assert code == 2
        assert json.loads(out.getvalue())["stats"]["reason"] == res.stats["reason"]

    def test_relaxed_yes_with_certificate(self):
        from madcycle.instances import gen_instance

        g, _ = gen_instance("lemma7_trace", {"branch": "bip_dense_yes"}, 0)
        res = solve(g, 1)
        assert res.answer == "yes" and res.branch == "case_iii"
        assert verify_cycle_certificate(g, res.certificate)
        assert len(res.certificate) >= res.threshold_len

    def test_relaxed_no_downgrades_to_unknown(self):
        from madcycle.instances import gen_instance

        g, _ = gen_instance("lemma7_trace", {"branch": "bip_dense"}, 0)
        res = solve(g, 1)
        assert res.answer == "unknown"
        assert "no-guarantee" in res.stats["reason"]

    def test_strict_keyword_is_inert_out_of_range_over_cap(self):
        # gnp2c n=30 at k=1: out of range and past the fallback cap, where the
        # two modes once differed; both values of the ignored keyword give the
        # dense pipeline's certified yes, byte for byte
        from madcycle.instances import gen_instance

        g, _ = gen_instance("gnp2c", {"n": 30, "prob": 0.3}, 1)
        res = solve(g, 1, strict=True)
        assert emit_result(solve(g, 1, strict=False)) == emit_result(res)
        assert res.answer == "yes" and res.branch == "find_dense"
        assert len(res.certificate) >= res.threshold_len
        assert verify_cycle_certificate(g, res.certificate)


class TestNoGate:
    @pytest.mark.parametrize("size_a, answer", [(80, "unknown"), (86, "no")])
    def test_case_iii_no_needs_side_a_of_half_mad(self, monkeypatch, size_a, answer):
        # K180 at k=1 is in range (1 <= 179/88 - 1), threshold 180. A
        # bipartite-dense witness with |A| = 80 has k' = 20 and passes
        # |A| >= 3k'/2 but not |A| >= mad/2 - 4k = 85.5, so an exhausted
        # case (iii) proves nothing; with |A| = 86 (k' = 8) it proves no.
        # B = {179} is independent, as case (iii) requires. The outside path
        # and the segment search are faked to find nothing, so the gate
        # inside case_bipartite_dense decides.
        from madcycle import segments, solver
        from madcycle.extract import BipartiteDense
        from madcycle.reduction import ReductionTrace

        g = complete(180)
        A, B = frozenset(range(size_a)), frozenset({179})
        witness = BipartiteDense(A | B, A, B)
        probed = []

        def fake_find_dense(g, k):
            return witness, ReductionTrace()

        def nothing(search, r, p, s, t):
            assert search.T == witness.vertices and 3 * r <= 2 * len(A)
            probed.append((r, search.pmax))

        monkeypatch.setattr(solver, "find_dense", fake_find_dense)
        monkeypatch.setattr(solver, "_outside_path", lambda *args: None)
        monkeypatch.setattr(segments, "find_segments_partitioned", nothing)
        res = solve(g, 1)
        assert res.answer == answer and res.branch == "case_iii"
        k_prime = 180 - 2 * size_a
        assert max(probed)[0] == k_prime == res.stats["k_prime"]
        assert {pmax for _, pmax in probed} == {3 * k_prime - 2}
        if answer == "unknown":
            assert "mad/2 - 4k" in res.stats["reason"]
        else:
            assert "reason" not in res.stats


class TestCaseFunctionsOwnTheirK:
    """Each case function derives its threshold ceil(mad)+k and its k' from
    the witness, routes k' <= 0, and gates its own no: outside the k range
    k <= mad/88 - 1 an exhausted search is unknown."""

    def test_k6_is_its_own_cycle_at_k1(self):
        # mad 5, k 1: threshold 6 = |H|, so k' = 0 and routing alone answers
        g = complete(6)
        res = case_small_dense(g, frozenset(range(6)), Fraction(5), 1)
        assert (res.answer, res.branch, res.threshold_len, res.stats) == (
            "yes", "case_ii", 6, {})
        assert len(res.certificate) == 6 and verify_cycle_certificate(g, res.certificate)

    def test_case_iii_side_checks(self):
        # K8 + I80 with A the clique: mad 16 and k 6 give k' = 22 - 16 = 6,
        # and |A| = 8 < 3k'/2 = 9
        g = build_graph([(i, j) for i in range(8) for j in range(i + 1, 88)], 88)
        H, A = frozenset(range(88)), frozenset(range(8))
        res = case_bipartite_dense(g, H, A, Fraction(16), 6)
        assert (res.answer, res.branch, res.threshold_len) == ("unknown", "case_iii", 22)
        assert res.stats == {"reason": "case (iii) needs |A| >= 3k'/2, has |A|=8, k'=6"}
        with pytest.raises(PreconditionError):
            case_bipartite_dense(g, frozenset(range(80)), frozenset({0, 85}), Fraction(16), 1)

    @pytest.mark.parametrize("A, B", [
        (range(4), range(4, 88)),  # B holds clique vertices 4-7, adjacent to each other
        (range(8, 12), range(12, 14)),  # both sides independent: no A-B edge
    ], ids=["b_not_independent", "no_a_b_edge"])
    def test_case_iii_checks_its_sides_before_any_probe(self, monkeypatch, A, B):
        # K8 + I80; mad 8 and k 1 give threshold 9 and k' = 9 - 2|A| = 1, so
        # without the check the outside-path or segment search would run
        from madcycle import longpaths, segments

        probes = []

        class Recording(segments.SegmentSearch):
            def __init__(self, *args):
                probes.append("segments")
                super().__init__(*args)

        def st_probe(*args):
            probes.append("st path")
            return real_st(*args)

        real_st = longpaths.st_path_at_least
        monkeypatch.setattr(segments, "SegmentSearch", Recording)
        monkeypatch.setattr(longpaths, "st_path_at_least", st_probe)
        g = build_graph([(i, j) for i in range(8) for j in range(i + 1, 88)], 88)
        A, B = frozenset(A), frozenset(B)
        with pytest.raises(PreconditionError):
            case_bipartite_dense(g, A | B, A, Fraction(8), 1)
        assert probes == []

    def test_out_of_range_never_answers_no(self, monkeypatch):
        # random 2-connected graphs with n <= 10 have mad < 9, so every k is
        # out of range. H is random and B = H - A a maximal independent set of
        # it, so many constructions fail in routing; no answer is ever no,
        # every yes is a cycle certified at the call's own threshold, and
        # every unknown names why: the range, the state budget, the 3k'/2
        # bound or the failed construction
        from madcycle import longpaths

        rng = random.Random(36)
        samples = []
        for _ in range(300):
            g = random_2connected_graph(rng, rng.randint(4, 10), rng.uniform(0.3, 0.8))
            H = frozenset(rng.sample(range(g.n), rng.randint(3, g.n - 1)))
            B = set()
            for v in rng.sample(sorted(H), len(H)):
                if B.isdisjoint(g.adj[v]):
                    B.add(v)
            samples.append((g, mad_with_witness(g).mad, H, H - B, rng.randint(0, 3)))
        seen = set()
        for budget in (longpaths.DET_STATE_BUDGET, 10):
            monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", budget)
            reasons = {OUT_OF_RANGE: "range",
                       f"search state budget exceeded: {budget} states": "budget"}
            for g, mad, H, A, k in samples:
                for case, call, args in (("ii", case_small_dense, (g, H, mad, k)),
                                         ("iii", case_bipartite_dense, (g, H, A, mad, k))):
                    try:
                        res = call(*args)
                    except PreconditionError:
                        continue
                    assert res.threshold_len == math.ceil(mad) + k
                    assert res.answer in ("yes", "unknown")
                    if res.answer == "yes":
                        cert = res.certificate
                        assert cert.claimed_min_length == res.threshold_len
                        assert verify_cycle_certificate(g, cert)
                        seen.add((case, "yes"))
                    elif res.stats["reason"].startswith("case (iii) needs |A| >= 3k'/2"):
                        seen.add((case, "3k'/2"))
                    elif res.stats["reason"].startswith("construction failed: "):
                        seen.add((case, "construction"))
                    else:
                        seen.add((case, reasons[res.stats["reason"]]))
        assert seen == {("ii", "yes"), ("ii", "range"), ("ii", "budget"),
                        ("ii", "construction"), ("iii", "yes"), ("iii", "range"),
                        ("iii", "budget"), ("iii", "3k'/2"), ("iii", "construction")}


class TestRouteOnly:
    """k' <= 0: the witness core alone carries the threshold, so the case
    function routes a cycle through it without a search."""

    @staticmethod
    def _fake_find_dense(monkeypatch, witness):
        from madcycle import solver
        from madcycle.reduction import ReductionTrace

        def fake_find_dense(g, k):
            return witness, ReductionTrace()

        monkeypatch.setattr(solver, "find_dense", fake_find_dense)

    def test_small_dense_core_is_routed_hamiltonian(self, monkeypatch):
        # K30 at k=1: mad 29, threshold 30 = |H|, so k' = 0; k is out of
        # range, n > 24 and the threshold is within n, so the dense
        # pipeline reaches the witness
        from madcycle.extract import SmallDense

        g = complete(30)
        self._fake_find_dense(monkeypatch, SmallDense(frozenset(range(30))))
        res = solve(g, 1)
        assert res.answer == "yes" and res.branch == "case_ii"
        assert res.stats == {} and len(res.certificate) == 30
        assert verify_cycle_certificate(g, res.certificate)

    def test_bipartite_core_is_routed_with_the_case_iii_k(self, monkeypatch):
        # K15,15 at k=1: mad 15, threshold 16, |A| = 15, so k' = -14
        from madcycle import routing
        from madcycle.extract import BipartiteDense

        A, B = frozenset(range(15)), frozenset(range(15, 30))
        ks = []
        real = routing.cover_side_through_pairs

        def spy(h, a, pairs, k):
            ks.append(k)
            return real(h, a, pairs, k)

        monkeypatch.setattr(routing, "cover_side_through_pairs", spy)
        g = complete_bipartite(15, 15)
        self._fake_find_dense(monkeypatch, BipartiteDense(A | B, A, B))
        res = solve(g, 1)
        assert res.answer == "yes" and res.branch == "case_iii"
        assert len(res.certificate) == 30
        assert verify_cycle_certificate(g, res.certificate)
        # the same A in a case analysis: an A-A ear 0-30-31-1 splices in
        ear = [(0, 30), (30, 31), (31, 1)]
        host = build_graph(list(g.edges()) + ear, 32)
        # mad 15 and k 16 give threshold 31, so k' = 31 - 2|A| = 1
        spliced = case_bipartite_dense(host, A | B, A, Fraction(15), 16)
        assert spliced.answer == "yes" and len(spliced.certificate) == 31
        assert ks == [1, 1]  # floor(|A| / 10): the lemma needs 10k <= |A|


class TestOracleEquivalence:
    def test_random_small_instances(self):
        rng = random.Random(91)
        for _ in range(40):
            g = random_2connected_graph(rng, rng.randint(4, 12), rng.uniform(0.3, 0.8))
            mad = mad_with_witness(g).mad
            circumference, _ = oracle_longest_cycle(g)
            for k in range(0, 5):
                res = solve(g, k)
                assert res.answer != "unknown"
                expect = Fraction(circumference) >= mad + k
                assert (res.answer == "yes") == expect, (g.adj, k)
                if res.certificate is not None:
                    assert verify_cycle_certificate(g, res.certificate)
                    assert Fraction(len(res.certificate)) >= mad + k


class TestPathMode:
    def test_path_mode_against_oracle(self):
        rng = random.Random(101)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.8))
            if g.m == 0:
                continue
            best_path = 1
            for s in range(g.n):
                for t in range(s + 1, g.n):
                    best_path = max(best_path, oracle_longest_st_path(g, s, t))
            mad = mad_with_witness(g).mad
            for k in range(0, 3):
                res = solve(g, k, mode="path")
                want_vertices = math.ceil(mad) + k
                assert res.answer != "unknown"
                assert (res.answer == "yes") == (best_path >= want_vertices), (
                    g.adj, k, best_path, want_vertices,
                )
                if res.answer == "yes":
                    p = res.path_certificate
                    assert p is not None and len(p) >= want_vertices

    def test_path_mode_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            solve(build_graph([(0, 1)], 3), 0, mode="path")


def _path_branch_cases():
    """(graph, k, path-mode branch, want_vertices, the claimed length of the
    inner cycle's certificate), one per branch path mode reaches."""
    from madcycle.instances import gen_instance

    from test_golden import _with_ears

    bip, _ = gen_instance("lemma7_trace", {"branch": "bip_dense"}, 0)
    return [
        (petersen(), 1, "path_k0", 4, 5),
        (petersen(), 4, "path[fallback]", 7, 8),
        (gen_instance("gnp2c", {"n": 30, "prob": 0.2}, 1)[0], 2, "path[find_dense]", 8, 9),
        (_with_ears(complete_minus_matching(26), [(0, 1, 2), (3, 1, 5)]), 4,
         "path[case_ii]", 28, 29),
        (_with_ears(bip, [(8, 3, 9)]), 4, "path[case_iii]", 20, 21),
    ]


class TestPathModeInnerCertificate:
    """Path mode reads its path off a cycle of G plus a universal vertex
    that the inner solve certified at want_vertices + 1 or more, so the path
    keeps want_vertices; a cycle one vertex short is refused by that check."""

    CASES = pytest.mark.parametrize(
        "g, k, branch, want, claimed", _path_branch_cases(),
        ids=[case[2] for case in _path_branch_cases()],
    )

    @CASES
    def test_inner_cycle_is_certified_one_vertex_above_the_path(
        self, monkeypatch, g, k, branch, want, claimed
    ):
        from madcycle import solver

        claims = []

        def spy(host, cert):
            if isinstance(cert, CycleCertificate):
                claims.append((host.n, cert.claimed_min_length))
            return certify(host, cert)

        monkeypatch.setattr(solver, "certify", spy)
        res = solve(g, k, mode="path")
        assert (res.answer, res.branch, res.threshold_len) == ("yes", branch, want)
        assert claims == [(g.n + 1, claimed)] and claimed >= want + 1
        assert len(res.path_certificate) >= want

    @CASES
    def test_an_inner_cycle_one_vertex_short_is_refused(
        self, monkeypatch, g, k, branch, want, claimed
    ):
        # the planted fault: the inner cycle handed to certify has claimed - 1
        # vertices, a run of the real cycle closed through the universal
        # vertex, so it is a cycle of the host that only its length fails
        from madcycle import solver

        def short(host, cert):
            if not isinstance(cert, CycleCertificate):
                return certify(host, cert)
            hub = next(v for v in host.vertices() if host.degree(v) == host.n - 1)
            cyc = list(cert.vertices)
            i = cyc.index(hub) if hub in cyc else len(cyc)
            run = (cyc[i + 1:] + cyc[:i])[: cert.claimed_min_length - 2]
            planted = CycleCertificate(tuple(run + [hub]), cert.claimed_min_length)
            assert verify_cycle_certificate(host, CycleCertificate(planted.vertices))
            return certify(host, planted)

        monkeypatch.setattr(solver, "certify", short)
        refused = f"length {claimed - 1} below claimed minimum {claimed}"
        try:
            res = solve(g, k, mode="path")
        except ConstructionFailure as exc:
            assert refused in str(exc), branch
        else:
            assert res.answer == "unknown" and refused in res.stats["reason"], branch
            assert res.branch == branch and res.path_certificate is None


def _all_pairs_outside_path(g, H, target):
    """The outside-path probe as it was: every anchor pair s < t, each on all
    of G - H plus {s, t}. Returns the first path found, in original ids."""
    outside = [v for v in g.vertices() if v not in H]
    if not outside:
        return None, 0
    outside_set = set(outside)
    anchors = sorted(v for v in H if any(w in outside_set for w in g.adj[v]))
    restricted, ids_r = induced_subgraph(g, outside_set | H)
    pos_r = {orig: i for i, orig in enumerate(ids_r)}
    allowed_outside = {pos_r[v] for v in outside}
    probes = 0
    for s in anchors:
        for t in anchors:
            if s >= t:
                continue
            rs, rt = pos_r[s], pos_r[t]
            gg, ids_gg = induced_subgraph(restricted, sorted(allowed_outside | {rs, rt}))
            probes += 1
            found = st_path_at_least(gg, ids_gg.index(rs), ids_gg.index(rt), target)
            if found is not None:
                return tuple(ids_r[ids_gg[v]] for v in found.vertices), probes
    return None, probes


def _core_with_outside_components(rng):
    """A dense core H plus disjoint outside components of 1-6 vertices, each
    joined to one to three vertices of H."""
    h = rng.randint(5, 9)
    edges = [(i, j) for i in range(h) for j in range(i + 1, h) if rng.random() < 0.8]
    n = h
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, 6)
        comp = list(range(n, n + size))
        for i in range(1, size):
            edges.append((comp[rng.randrange(i)], comp[i]))  # a random tree
        edges += [(u, v) for u in comp for v in comp if u < v and rng.random() < 0.3]
        for _ in range(rng.randint(1, 3)):
            edges.append((rng.choice(comp), rng.randrange(h)))
        n += size
    return build_graph(edges, n), frozenset(range(h))


class TestOutsidePathProbe:
    def test_matches_all_pairs_probe(self):
        rng = random.Random(4242)
        found = 0
        for _ in range(60):
            g, H = _core_with_outside_components(rng)
            for k_prime in range(1, 5):
                for target in (k_prime + 2, k_prime + 3):
                    expect, old_probes = _all_pairs_outside_path(g, H, target)
                    stats = {"st_probes": 0}
                    path = _outside_path(g, H, target, stats)  # raises past the budget
                    got = None if path is None else path.vertices
                    assert got == expect, (g.adj, sorted(H), target)
                    assert stats["st_probes"] <= old_probes
                    found += got is not None
        assert found >= 40

    def test_one_vertex_components_run_no_probe(self):
        # every outside component has one vertex: no path has 4+ vertices
        g0 = complete(6)
        g = build_graph(list(g0.edges()) + [(0, 6), (6, 1), (2, 7), (7, 3)], 8)
        stats = {"st_probes": 0}
        assert _outside_path(g, frozenset(range(6)), 4, stats) is None
        assert stats["st_probes"] == 0
        path = _outside_path(g, frozenset(range(6)), 3, stats)
        assert path.vertices == (0, 6, 1) and stats["st_probes"] == 1


class TestCertificatesAreChecked:
    """Every yes of solve passes a certificate check that python -O keeps."""

    def _instances(self):
        from madcycle.instances import gen_instance

        glued = [(i, j) for i in range(14) for j in range(i + 1, 14)]
        glued += [(i, j) for i in range(12, 26) for j in range(i + 1, 26)]
        km = [(u, v) for u in range(26) for v in range(u + 1, 26)
              if not (v == u + 1 and u % 2 == 0)]
        bip, _ = gen_instance("lemma7_trace", {"branch": "bip_dense_yes"}, 0)
        return [
            (complete(4), dict(k=0), "k0"),
            (petersen(), dict(k=1), "fallback"),
            (build_graph(glued, 26), dict(k=1), "find_dense"),
            (build_graph(km + [(0, 26), (26, 1)], 27), dict(k=3),
             "case_ii"),
            (build_graph(km + [(0, 26), (26, 27), (27, 28), (28, 1)], 29),
             dict(k=3), "case_ii"),
            (bip, dict(k=1), "case_iii"),
            (petersen(), dict(k=1, mode="path"), "path_k0"),
            (petersen(), dict(k=4, mode="path"), "path[fallback]"),
        ]

    def test_rejecting_verifier_never_yields_yes(self, monkeypatch):
        from madcycle import solver

        cases = self._instances()
        for g, kwargs, branch in cases:
            res = solve(g, **kwargs)
            assert res.answer == "yes" and res.branch == branch

        def reject(g, cert):
            raise ConstructionFailure("certificate failed verification: rejected for the test")

        monkeypatch.setattr(solver, "certify", reject)
        for g, kwargs, branch in cases:
            try:
                res = solve(g, **kwargs)
            except ConstructionFailure as exc:
                assert "rejected for the test" in str(exc)
                continue
            assert res.answer != "yes", branch
            assert "rejected for the test" in res.stats["reason"]


class TestRoutedTakesTheTraceCore:
    """_routed takes the reduced core that find_dense's trace holds instead of
    building g[H] again, with the same output."""

    @staticmethod
    def _graphs():
        from madcycle.instances import gen_instance

        km = complete_minus_matching(26)
        ears = [(0, 26), (26, 2), (3, 27), (27, 5)]
        bip, _ = gen_instance("lemma7_trace", {"branch": "bip_dense_yes"})
        return [
            (build_graph(list(km.edges()) + ears, 28), 4, "case_ii"),
            (bip, 1, "case_iii"),
            (bip, 2, "case_iii"),
        ]

    def test_no_rebuild_of_the_core_and_same_bytes(self, monkeypatch):
        from madcycle import solver

        real_routed, real_induced = solver._routed, solver.induced_subgraph
        taken, built = [], []

        def routed(g, H, A, pairs, core=None):
            taken.append((frozenset(H), core is not None and H == frozenset(core[1])))
            return real_routed(g, H, A, pairs, core)

        def induced(g, vs):
            built.append(frozenset(vs))
            return real_induced(g, vs)

        for g, k, branch in self._graphs():
            monkeypatch.setattr(solver, "_routed", routed)
            monkeypatch.setattr(solver, "induced_subgraph", induced)
            taken.clear(), built.clear()
            res = solve(g, k, with_trace=True)
            assert res.answer == "yes" and res.branch == branch
            [(H, is_core)] = taken
            assert is_core and H not in built
            # the same solve, with g[H] built as before
            monkeypatch.setattr(solver, "_routed",
                                lambda g, H, A, pairs, core=None: real_routed(g, H, A, pairs))
            again = solve(g, k, with_trace=True)
            assert emit_result(res) == emit_result(again)


class TestRoutedPassesEveryPair:
    """_routed hands routing the pairs as a list, so a repeated pair reaches
    routing's duplicate check instead of collapsing in a set."""

    @pytest.mark.parametrize("g, A, pair", [
        (complete(6), frozenset(), (0, 1)),
        (complete_bipartite(3, 3), frozenset(range(3)), (0, 3)),
    ], ids=["hamiltonian", "cover_side"])
    def test_a_repeated_pair_is_refused(self, g, A, pair):
        from madcycle import solver

        H = frozenset(g.vertices())
        with pytest.raises(PreconditionError, match="duplicate pair in S"):
            solver._routed(g, H, A, [pair, pair])
        cycle = solver._routed(g, H, A, [pair])
        assert verify_cycle_certificate(g, cycle)


def _segment_system(T, *paths):
    return SegmentSystem(tuple(PathCertificate(p) for p in paths), frozenset(T))


class TestSpliceSegments:
    """_splice_segments replaces each pair-edge of the routed cycle by its
    segment, in the cycle's direction."""

    # the routed cycle 0-1-2-3 and the outside path 2-4-5-1
    G = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 1)], 6)
    BASE = CycleCertificate((0, 1, 2, 3), 4)

    def test_segment_against_the_cycle_direction_is_reversed(self):
        # the cycle runs 1 -> 2; the segment is listed 2..1
        system = _segment_system({0, 1, 2, 3}, (2, 4, 5, 1))
        out = _splice_segments(self.BASE, system)
        assert out == [0, 1, 5, 4, 2, 3]
        certify(self.G, CycleCertificate(tuple(out), 6))
