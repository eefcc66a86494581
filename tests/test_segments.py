import gc
import random
import types
import weakref
from fractions import Fraction

import pytest

from madcycle import longpaths, segments, solver
from madcycle.errors import ConstructionFailure, PreconditionError, StateBudgetExceeded
from madcycle.graph import PathCertificate, VerifyOutcome, build_graph, mask_of
from madcycle.oracles import SEGMENTS_P_CAP, segment_signatures
from madcycle.segments import (
    SegmentSearch,
    SegmentSystem,
    find_segments,
    find_segments_partitioned,
    validate_segment_system,
)

from conftest import complete, cycle_graph, path_graph, random_graph


class TestFindSegments:
    def test_path3(self):
        sys_ = find_segments(path_graph(3), {0, 2}, 1, 1)
        assert sys_ is not None and sys_.r == 1 and sys_.p == 1

    def test_path3_no_two_internals(self):
        assert find_segments(path_graph(3), {0, 2}, 1, 2) is None

    def test_c6_duplicate_pair_blocked(self):
        assert find_segments(cycle_graph(6), {0, 3}, 2, 4) is None

    def test_c6_single(self):
        sys_ = find_segments(cycle_graph(6), {0, 3}, 1, 2)
        assert sys_ is not None

    def test_r_gt_p_rejected_immediately(self):
        assert find_segments(cycle_graph(6), {0, 3}, 3, 2) is None

    def test_bad_counts(self):
        with pytest.raises(PreconditionError):
            find_segments(cycle_graph(6), {0, 3}, 0, 1)


def _side_counts(system, A, B) -> tuple[int, int]:
    """(s, t): the system's paths with both ends in A, and with both in B."""
    ends = [(path.vertices[0], path.vertices[-1]) for path in system.paths]
    return (sum(u in A and v in A for u, v in ends),
            sum(u in B and v in B for u, v in ends))


def _one_shot(g, T, A, r, p, s, t):
    """The probe (r, p, s, t) asked of a search made for it alone."""
    return find_segments_partitioned(SegmentSearch(g, T, A, p), r, p, s, t)


class TestFindSegmentsPartitioned:
    def test_ab_segment(self):
        sys_ = _one_shot(cycle_graph(6), {0, 3}, {0}, 1, 2, 0, 0)
        assert sys_ is not None and _side_counts(sys_, {0}, {3}) == (0, 0)

    def test_a_segment_two_internals(self):
        sys_ = _one_shot(cycle_graph(6), {0, 3}, {0, 3}, 1, 2, 1, 0)
        assert sys_ is not None and _side_counts(sys_, {0, 3}, set()) == (1, 0)

    def test_a_segment_one_internal_gated(self):
        assert _one_shot(cycle_graph(6), {0, 3}, {0, 3}, 1, 1, 1, 0) is None

    def test_split_exceeds_r(self):
        with pytest.raises(PreconditionError, match="s \\+ t must not exceed r"):
            _one_shot(cycle_graph(6), {0, 3}, {0}, 1, 2, 1, 1)


def _combos(max_p=4):
    for p in range(1, max_p + 1):
        for r in range(1, p + 1):
            yield r, p


class TestOracleEquivalence:
    def test_plain_random(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.25, 0.7))
            T = set(rng.sample(range(g.n), rng.randint(2, min(5, g.n))))
            table = segment_signatures(g, T, (), 4)
            for r, p in _combos():
                got = find_segments(g, T, r, p)
                want = (r, p, 0, r) in table
                assert (got is not None) == want, (g.adj, sorted(T), r, p)
                if got is not None:
                    check = validate_segment_system(g, got, (), r, p, 0, r)
                    assert check, check.reason

    def test_partitioned_random(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.3, 0.7))
            T = set(rng.sample(range(g.n), rng.randint(2, min(5, g.n))))
            A = {v for v in T if rng.random() < 0.5}
            table = segment_signatures(g, T, A, 4)
            for r, p in _combos():
                for s in range(0, r + 1):
                    for t in range(0, r - s + 1):
                        got = _one_shot(g, T, A, r, p, s, t)
                        want = (r, p, s, t) in table
                        assert (got is not None) == want, (
                            g.adj, sorted(T), sorted(A), r, p, s, t,
                        )
                        if got is not None:
                            check = validate_segment_system(g, got, A, r, p, s, t)
                            assert check, check.reason


class TestTrialIndependence:
    def test_color_budget_bound(self):
        # a feasible system spans at most p + 2r vertices
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(rng, 9, 0.5)
            for r, p in _combos(3):
                got = find_segments(g, {0, 1, 2}, r, p)
                if got is not None:
                    span = set()
                    for path in got.paths:
                        span |= set(path.vertices)
                    assert len(span) <= p + 2 * r


def _case_iii_probes(k):
    """(r, p, s, t) in the order case (iii) probes them."""
    for r in range(1, k + 1):
        for s in range(0, min(r, k) + 1):
            for t in range(0, min(r - s, k) + 1):
                for p in range(max(k + s - t, r, 1), 3 * k - 1):
                    yield r, p, s, t


def _case_ii_probes(k):
    """(r, p) in the order case (ii) probes them."""
    for r in range(1, k + 1):
        for p in range(max(k, r), 2 * k - 1):
            yield r, p


def _split_with_ears(a, ears):
    """Clique on a vertices joined to 10a independent vertices, plus
    one-vertex ears between disjoint pairs of independent vertices."""
    n = 11 * a
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(i, a + j) for i in range(a) for j in range(10 * a)]
    for e in range(ears):
        edges += [(a + 2 * e, n), (n, a + 2 * e + 1)]
        n += 1
    return build_graph(edges, n)


class TestSharedSearch:
    def test_shared_engine_matches_fresh_searches(self):
        # one search walked through a case analysis's whole probe order
        # answers every probe exactly as a search made for that probe alone;
        # neither passes the budget, or the probe would raise
        rng = random.Random(17)
        probes, found, found_two_a = 0, 0, 0
        for _ in range(12):
            g = random_graph(rng, rng.randint(6, 10), rng.uniform(0.35, 0.75))
            T = frozenset(rng.sample(range(g.n), rng.randint(3, min(6, g.n - 2))))
            A = frozenset(v for v in T if rng.random() < 0.6)
            table = segment_signatures(g, T, A, SEGMENTS_P_CAP)
            plain = segment_signatures(g, T, (), 4)
            for k in (2, 3):
                search = SegmentSearch(g, T, A, 3 * k - 2)
                for r, p, s, t in _case_iii_probes(k):
                    shared = find_segments_partitioned(search, r, p, s, t)
                    fresh = _one_shot(g, T, A, r, p, s, t)
                    assert (shared is None) == (fresh is None)
                    if shared is not None:
                        assert shared.paths == fresh.paths
                        found += 1
                        found_two_a += s >= 2
                    if p <= SEGMENTS_P_CAP:
                        want = (r, p, s, t) in table
                        assert (shared is not None) == want, (
                            g.adj, sorted(T), sorted(A), r, p, s, t,
                        )
                    probes += 1
                search = SegmentSearch(g, T, (), 2 * k - 2)
                for r, p in _case_ii_probes(k):
                    shared = find_segments_partitioned(search, r, p, 0, r)
                    fresh = find_segments(g, T, r, p)
                    assert (shared is None) == (fresh is None)
                    if shared is not None:
                        assert shared.paths == fresh.paths
                    assert (shared is not None) == ((r, p, 0, r) in plain)
                    probes += 1
        assert probes > 1000 and found > 100 and found_two_a >= 5

    @pytest.mark.parametrize("r, p, s, t, message", [
        (0, 2, 0, 0, "need r >= 1 and p >= 1"),
        (1, 0, 0, 1, "need r >= 1 and p >= 1"),
        (1, 1, 1, 1, "s + t must not exceed r"),
        (2, 2, -1, 1, "s and t must be nonnegative"),
        (2, 2, 1, -1, "s and t must be nonnegative"),
        (1, 3, 0, 1, "probe (r=1, p=3) outside the search's range (r >= 1, p <= 2)"),
        (4, 3, 0, 0, "probe (r=4, p=3) outside the search's range (r >= 1, p <= 2)"),
    ])
    def test_probe_checks_its_range_and_counts(self, r, p, s, t, message):
        # K4 on T = {0, 1, 2, 3} plus the outside path 0-4-5-6-1: the segment
        # 0..1 has 3 internals, past this search's pmax 2, so a None from
        # the probe would read as a proof of absence
        g = build_graph(list(complete(4).edges()) + [(0, 4), (4, 5), (5, 6), (6, 1)], 7)
        T = {0, 1, 2, 3}
        assert find_segments(g, T, 1, 3) is not None
        search = SegmentSearch(g, T, {0}, 2)
        with pytest.raises(PreconditionError) as info:
            find_segments_partitioned(search, r, p, s, t)
        assert str(info.value) == message
        # a rejected probe builds nothing
        assert search._levels is None

    def test_levels_are_built_on_demand_and_r_bounds_none(self):
        g = build_graph(list(complete(4).edges()) + [(0, 4), (4, 5), (5, 6), (6, 1)], 7)
        search = SegmentSearch(g, {0, 1, 2, 3}, (), 2)
        # every level a probe within pmax needs is built on demand
        assert find_segments_partitioned(search, 1, 2, 0, 1) is None
        assert find_segments_partitioned(search, 2, 2, 0, 2) is None
        # r bounds no level: a probe with r > p is None, not an error
        assert find_segments_partitioned(search, 5, 1, 0, 0) is None

    def test_vertices_out_of_range(self):
        with pytest.raises(PreconditionError, match="out-of-range"):
            SegmentSearch(cycle_graph(6), {0, 6}, (), 4)

    def test_side_a_must_lie_in_T(self):
        with pytest.raises(PreconditionError, match="A must be a subset of T"):
            SegmentSearch(cycle_graph(6), {0, 3}, {0, 1}, 4)

    def test_budget_trip_raises_on_every_probe(self, monkeypatch):
        # C8 has the segment 0..4 with 3 internals; past the budget no probe
        # answers, neither the one with the segment nor the one without
        g = cycle_graph(8)
        assert find_segments(g, {0, 4}, 1, 3) is not None
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 3)
        search = SegmentSearch(g, {0, 4}, (), 4)
        for p in (3, 4):
            with pytest.raises(StateBudgetExceeded):
                find_segments_partitioned(search, 1, p, 0, 1)

    def test_a_trip_in_a_half_built_level_raises_again(self, monkeypatch):
        # T = {1, 3} joined by 1-2-3 and 1-2-0-3. At 9 states the probe
        # (1, 1) trips with level 1 half expanded; read as complete, that
        # level would answer None to (1, 2), so a later probe raises too
        g = build_graph([(0, 2), (0, 3), (1, 2), (2, 3)], 4)
        assert find_segments(g, {1, 3}, 1, 2).paths[0].vertices == (1, 2, 0, 3)
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 9)
        search = SegmentSearch(g, {1, 3}, (), 2)
        with pytest.raises(StateBudgetExceeded):
            find_segments_partitioned(search, 1, 1, 0, 1)
        assert search._levels is not None
        for p in (1, 2):
            with pytest.raises(StateBudgetExceeded):
                find_segments_partitioned(search, 1, p, 0, 1)

    def test_one_shot_probe_past_the_budget_raises(self, monkeypatch):
        # C5 with T = {0, 1}: the one segment 0-3-4-1 has 2 internals; made
        # for this probe alone, a search past its budget raises rather than
        # answer a None no caller could tell from absence
        g = build_graph([(0, 2), (2, 1), (1, 4), (4, 3), (3, 0)], 5)
        assert find_segments(g, {0, 1}, 1, 2).paths[0].vertices == (0, 3, 4, 1)
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 2)
        with pytest.raises(StateBudgetExceeded):
            find_segments(g, {0, 1}, 1, 2)
        with pytest.raises(StateBudgetExceeded):
            _one_shot(g, {0, 1}, {0}, 1, 2, 0, 0)

    def test_budget_trip_never_answers_no(self, monkeypatch):
        # an A-A outside path with one internal vertex is gated off, so the
        # exact case (iii) is exhausted (at mad 16, k 1, so k' = 1, out of the
        # k range); past the budget it is not, and says so
        a, b = 8, 80
        edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
        edges += [(i, a + j) for i in range(a) for j in range(b)]
        g = build_graph(edges + [(0, 88), (88, 1)], 89)
        args = (g, frozenset(range(88)), frozenset(range(8)), Fraction(16), 1)
        res = solver.case_bipartite_dense(*args)
        assert res.answer == "unknown" and res.stats["reason"] == solver._OUT_OF_RANGE
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        res = solver.case_bipartite_dense(*args)
        why = "search state budget exceeded: 0 states"
        assert res.answer == "unknown" and res.stats["reason"] == why
        for k in (2, 3, 4):
            res = solver.solve(_split_with_ears(8, 1), k)
            assert res.answer == "unknown"
            assert res.branch == "case_iii" and res.stats["reason"] == why

    def test_a_trip_counts_only_the_probes_that_ran(self, monkeypatch):
        # the first segment probe trips, and no later probe runs or counts
        g = _split_with_ears(8, 1)
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        res = solver.solve(g, 5)
        assert (res.answer, res.branch) == ("unknown", "case_iii")
        assert res.stats["reason"] == "search state budget exceeded: 0 states"
        assert res.stats["segment_probes"] == 1

    def test_one_state_budget_bounds_the_segment_search(self, monkeypatch):
        # the budget is read from longpaths when a probe runs, so one patch
        # bounds the st-path, cycle and segment searches alike
        g = cycle_graph(8)
        search = SegmentSearch(g, {0, 4}, (), 4)
        assert find_segments_partitioned(search, 1, 3, 0, 1) is not None
        # K26 minus a perfect matching plus a star too small for an st probe;
        # mad 88 and k 0 put k' = 62 in the k range
        edges = [(u, v) for u in range(26) for v in range(u + 1, 26)
                 if not (v == u + 1 and u % 2 == 0)]
        edges += [(26, 27), (26, 28), (26, 29), (27, 0), (28, 2), (29, 4)]
        host, H = build_graph(edges, 30), frozenset(range(26))
        res = solver.case_small_dense(host, H, Fraction(88), 0)
        assert res.answer == "no" and res.stats["st_probes"] == 0
        made, tripped = [], []

        class Recorded(SegmentSearch):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def query(self, *args):
                try:
                    return super().query(*args)
                except StateBudgetExceeded:
                    tripped.append(self)
                    raise

        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        search = SegmentSearch(g, {0, 4}, (), 4)
        with pytest.raises(StateBudgetExceeded):
            find_segments_partitioned(search, 1, 3, 0, 1)
        monkeypatch.setattr(segments, "SegmentSearch", Recorded)
        res = solver.case_small_dense(host, H, Fraction(88), 0)
        assert res.answer == "unknown" and res.stats["st_probes"] == 0
        assert made and tripped == made

    def test_solve_leaves_no_engine_alive(self, monkeypatch):
        made = []

        class Recorded(SegmentSearch):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(segments, "SegmentSearch", Recorded)
        res = solver.solve(_split_with_ears(8, 6), 3)
        assert res.answer == "yes" and res.stats["segment_probes"] > 1
        assert made
        gc.collect()
        assert all(ref() is None for ref in made)


class _EagerEngine(SegmentSearch):
    """SegmentSearch before lazy levels: a query builds every level up to r
    in full. _next_level and reconstruct are verbatim, and so is query but
    for the r <= rmax check that went with SegmentSearch's rmax; stage one
    is the search's own, built when the engine is made."""

    def __init__(self, *args):
        super().__init__(*args)
        self._build()
        self._levels: list[dict] = []
        # per level: (p, s, t) -> the first state inserted with those counts
        self._firsts: list[dict[tuple[int, int, int], tuple]] = []

    # stage two: peel segments level by level
    def _next_level(self) -> tuple[dict, dict]:
        pmax = self.pmax
        # level 1 extends the empty system: no endpoint, nothing counted
        prev = self._levels[-1] if self._levels else {None: None}
        cur: dict[tuple, tuple] = {}
        firsts: dict[tuple[int, int, int], tuple] = {}
        for pkey in prev:
            if pkey is None:
                w, p0, s0, t0, x0, w_bit = -1, 0, 0, 0, 0, 0
            else:
                w, p0, s0, t0, x0 = pkey
                w_bit = 1 << w
            for x, x_bit, gated in self._rows:
                if x0 & x_bit:
                    continue
                for y, ykey, dp, da, db in gated:
                    overlap = ykey & x0
                    if y == w:
                        # a shared endpoint: only it may repeat
                        if overlap != w_bit:
                            continue
                    elif overlap or x == w:
                        continue
                    p = p0 + dp
                    if p > pmax:
                        continue
                    key = (x, p, s0 + da, t0 + db, x0 | ykey)
                    if key not in cur:
                        cur[key] = (pkey, x, y, ykey)
                        firsts.setdefault(key[1:4], key)
                        self._tick()
        return cur, firsts

    def query(self, r: int, p: int, s: int, t: int):
        """One accepting state for exact counts (r, p, s, t), or None."""
        if r < 1:
            return None
        while len(self._levels) < r:
            level, firsts = self._next_level()
            self._levels.append(level)
            self._firsts.append(firsts)
        key = self._firsts[r - 1].get((p, s, t))
        return None if key is None else (r, key)

    def reconstruct(self, r: int, key: tuple) -> list[list[int]]:
        paths = []
        level = r
        while key is not None:
            pred, x, y, ykey = self._levels[level - 1][key]
            paths.append(self._walk_segment(x, y, ykey))
            key = pred
            level -= 1
        paths.reverse()
        return paths


def _scan_first(engine, r, p, s, t):
    """SegmentSearch.query's scan of level r before the per-level index,
    verbatim, on levels the eager engine has built."""
    for key in engine._levels[r - 1]:
        if key[1] == p and key[2] == s and key[3] == t:
            return (r, key)
    return None


def _random_instance(rng):
    """A random (g, T, A, pmax, rmax) for the search and its probe grid."""
    g = random_graph(rng, rng.randint(6, 11), rng.uniform(0.3, 0.8))
    T = frozenset(rng.sample(range(g.n), rng.randint(2, min(6, g.n - 2))))
    A = frozenset(v for v in T if rng.random() < 0.5)
    return g, T, A, rng.randint(1, 7), rng.randint(1, 3)


def _probe_grid(pmax, rmax):
    """Every (r, p, s, t) with r <= rmax + 1 and p <= pmax + 1, one past
    pmax, where query answers None."""
    return [(r, p, s, t) for r in range(rmax + 2) for p in range(pmax + 2)
            for s in range(r + 2) for t in range(r + 2)]


def _parent_build_alpha(self):
    """SegmentSearch._build_alpha before stage one was built in one pass,
    verbatim: the BFS first, then a second loop over reach for the entries."""
    g, T, A = self.g, self.T, self.A
    t_mask = mask_of(T)
    out_mask = ((1 << g.n) - 1) & ~t_mask
    max_pop = self.pmax + 1  # x plus at most pmax internals
    for x in sorted(T):
        reach: dict[int, int] = {1 << x: 1 << x}
        queue = [1 << x]
        qi = 0
        while qi < len(queue):
            ckey = queue[qi]
            qi += 1
            if ckey.bit_count() >= max_pop:
                continue
            ends = reach[ckey]
            e = ends
            while e:
                v = (e & -e).bit_length() - 1
                e &= e - 1
                w = g.masks[v] & out_mask & ~ckey
                while w:
                    u = (w & -w).bit_length() - 1
                    w &= w - 1
                    nkey = ckey | (1 << u)
                    if nkey not in reach:
                        reach[nkey] = 0
                        queue.append(nkey)
                        self._tick()
                    reach[nkey] |= 1 << u
        entries: set[tuple[int, int]] = set()
        for ckey, ends in reach.items():
            if ckey.bit_count() < 2:
                continue  # need at least one internal vertex
            e = ends & ~(1 << x)
            while e:
                v = (e & -e).bit_length() - 1
                e &= e - 1
                # y is in T and ckey holds x and vertices outside T
                ys = g.masks[v] & t_mask & ~(1 << x)
                while ys:
                    y = (ys & -ys).bit_length() - 1
                    ys &= ys - 1
                    entries.add((y, ckey | (1 << y)))
                    self._tick()
        self._alpha_walk[x] = reach
        # alpha*: reject one-internal A-segments; every entry holds x, at
        # least one internal vertex and y, and the BFS never grows a set
        # past pmax + 1 vertices, so 1 <= dp <= pmax already
        x_in_a = x in A
        gated = []
        for y, ykey in sorted(entries):
            dp = ykey.bit_count() - 2
            da = 1 if (x_in_a and y in A) else 0
            db = 1 if (not x_in_a and y not in A) else 0
            if dp == 1 and da:
                continue
            gated.append((y, ykey, dp, da, db))
        if gated:
            self._rows.append((x, 1 << x, gated))


class TestStageOneInOnePass:
    """Stage one emits a vertex set's entries when the BFS dequeues it: the
    same entries, walk and tick total as the two-pass build."""

    @staticmethod
    def _stage_one(g, T, A, pmax, build_alpha=None):
        engine = SegmentSearch(g, T, A, pmax)
        if build_alpha is not None:
            engine._build_alpha = types.MethodType(build_alpha, engine)
        engine._build()
        return engine

    def test_same_stage_one_and_budget_trips_as_the_two_pass_build(self, monkeypatch):
        rng = random.Random(67)
        rows = 0
        for i in range(300):
            if i % 3:
                g, T, A, pmax, _ = _random_instance(rng)
            else:  # larger, with longer segments
                g = random_graph(rng, rng.randint(10, 16), rng.uniform(0.2, 0.5))
                T = frozenset(rng.sample(range(g.n), rng.randint(2, 6)))
                A = frozenset(v for v in T if rng.random() < 0.5)
                pmax = rng.randint(1, 9)
            monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 10**7)
            got = self._stage_one(g, T, A, pmax)
            want = self._stage_one(g, T, A, pmax, _parent_build_alpha)
            assert got._rows == want._rows, (g.adj, sorted(T), sorted(A), pmax)
            assert got._span == want._span
            assert got._alpha_walk == want._alpha_walk
            assert got._states == want._states
            rows += len(got._rows)
            # one tick short of the total, both builds trip; at it, neither
            if want._states:
                monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", want._states - 1)
                for build_alpha in (None, _parent_build_alpha):
                    with pytest.raises(StateBudgetExceeded):
                        self._stage_one(g, T, A, pmax, build_alpha)
            monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", want._states)
            assert self._stage_one(g, T, A, pmax)._states == want._states
        assert rows > 300, rows


class TestFirstStateIndex:
    def test_query_is_the_first_match_of_the_level_scan(self, monkeypatch):
        # the lazy search answers each probe with the first matching state of
        # the eager engine's full level
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 10**7)
        rng = random.Random(31)
        probes, found = 0, 0
        for _ in range(30):
            g, T, A, pmax, rmax = _random_instance(rng)
            engine = SegmentSearch(g, T, A, pmax)
            eager = _EagerEngine(g, T, A, pmax)
            for r, p, s, t in _probe_grid(pmax, rmax):
                got = engine.query(r, p, s, t)
                want = eager.query(r, p, s, t)
                assert want == (_scan_first(eager, r, p, s, t) if r >= 1 else None)
                assert got == want
                probes += 1
                found += got is not None
        assert probes > 2000 and found > 100, (probes, found)


class TestLazyLevels:
    def test_same_answers_and_paths_as_the_eager_engine_in_any_order(self, monkeypatch):
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 10**7)
        rng = random.Random(47)
        probes, found = 0, 0
        for _ in range(200):
            g, T, A, pmax, rmax = _random_instance(rng)
            eager = _EagerEngine(g, T, A, pmax)
            grid = _probe_grid(pmax, rmax)
            want = {probe: eager.query(*probe) for probe in grid}
            for _ in range(3):
                rng.shuffle(grid)
                engine = SegmentSearch(g, T, A, pmax)
                for probe in grid:
                    got = engine.query(*probe)
                    assert got == want[probe], (g.adj, sorted(T), sorted(A), probe)
                    if got is not None:
                        assert engine.reconstruct(*got) == eager.reconstruct(*got)
                        found += 1
                    probes += 1
                # lazy levels never tick more states than the full levels
                assert engine._states <= eager._states
        assert probes > 200000 and found > 3000, (probes, found)

    def test_case_iii_ticks_a_fraction_of_the_full_levels(self, monkeypatch):
        # K8 + I80 with 14 one-vertex ears at k = 5: every segment
        # has one internal vertex, so the first hit is the first state of
        # level 3 and the levels after it are never needed
        def states_ticked(engine_class):
            made = []

            class Recorded(engine_class):
                def __init__(self, *args):
                    super().__init__(*args)
                    made.append(self)

            monkeypatch.setattr(segments, "SegmentSearch", Recorded)
            res = solver.solve(_split_with_ears(8, 14), 5)
            assert res.answer == "yes" and res.branch == "case_iii"
            assert res.stats["segment_probes"] == 112
            assert len(made) == 1
            return res, made[0]._states

        lazy_res, lazy = states_ticked(SegmentSearch)
        eager_res, eager = states_ticked(_EagerEngine)
        assert lazy_res.certificate == eager_res.certificate
        assert (lazy, eager) == (134, 2632)

    def test_probe_outside_the_count_span_builds_nothing(self, monkeypatch):
        # C8 with T = {0, 4}: both segments have three internal vertices
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 100)
        g = cycle_graph(8)
        engine = SegmentSearch(g, frozenset({0, 4}), frozenset(), 6)
        assert engine._levels is None
        # the first probe builds stage one, and no level
        assert engine.query(1, 2, 0, 1) is None
        ticked = engine._states
        for r, p, s, t in ((1, 2, 0, 1), (1, 4, 0, 1), (2, 5, 0, 2), (1, 3, 1, 0),
                           (1, 3, 0, 0), (2, 6, 0, 1)):
            assert engine.query(r, p, s, t) is None
            assert len(engine._levels) == 1 and engine._states == ticked
        assert engine.query(1, 3, 0, 1) is not None
        assert len(engine._levels) == 2
        assert engine.query(2, 5, 0, 2) is None and len(engine._levels) == 2

    def test_no_gated_entry_answers_none_without_building(self, monkeypatch):
        # P3 with T = {0, 2} and A = T: the one segment is an A-segment with
        # one internal vertex, which the gate rejects
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 100)
        engine = SegmentSearch(path_graph(3), frozenset({0, 2}), frozenset({0, 2}), 4)
        for r in range(1, 4):
            for p in range(5):
                assert engine.query(r, p, 0, 0) is None
                assert engine.query(r, p, 1, 0) is None
        assert engine._rows == []
        assert len(engine._levels) == 1


def _system(T, *paths):
    return SegmentSystem(tuple(PathCertificate(p) for p in paths), frozenset(T))


class TestValidateSegmentSystem:
    """Each check of validate_segment_system names its reason."""

    @pytest.mark.parametrize("g, system, args, reason", [
        (cycle_graph(6), _system({0, 3}, (0, 1, 2, 3)), ((), 1, 2, 0, 1), None),
        (cycle_graph(6), _system({0, 3}, (0, 2, 3)), ((), 1, 1, 0, 1),
         "not a path of the host graph"),
        (cycle_graph(6), _system({0, 1}, (0, 1)), ((), 1, 0, 0, 1),
         "segment shorter than two edges"),
        (cycle_graph(6), _system({0, 3}, (0, 1, 2)), ((), 1, 1, 0, 1),
         "endpoint outside T"),
        (cycle_graph(6), _system({0, 1, 3}, (0, 1, 2, 3)), ((), 1, 2, 0, 1),
         "internal vertex inside T"),
        (complete(6), _system({0, 1, 2}, (0, 3, 1), (1, 3, 2)), ((), 2, 2, 0, 2),
         "paths are not internally disjoint"),
        (cycle_graph(6), _system({0, 3}, (0, 1, 2, 3), (3, 4, 5, 0)), ((), 2, 4, 0, 2),
         "duplicate endpoint pair"),
        (complete(6), _system({0, 1, 2}, (0, 3, 1), (1, 4, 2), (2, 5, 0)),
         ((), 3, 3, 0, 3), "endpoint pairs do not form a linear forest"),
        (cycle_graph(6), _system({0, 3}, (0, 1, 2, 3)), ((), 2, 2, 0, 1),
         "expected 2 paths, got 1"),
        (cycle_graph(6), _system({0, 3}, (0, 1, 2, 3)), ((), 1, 3, 0, 1),
         "expected 3 internal vertices, got 2"),
        (cycle_graph(6), _system({0, 3}, (0, 1, 2, 3)), ({0}, 1, 2, 0, 1),
         "expected (s,t)=(0, 1), got (0, 0)"),
        (path_graph(3), _system({0, 2}, (0, 1, 2)), ({0, 2}, 1, 1, 1, 0),
         "A-segment with fewer than two internal vertices"),
    ])
    def test_reasons(self, g, system, args, reason):
        assert validate_segment_system(g, system, *args) == VerifyOutcome(
            reason is None, reason
        )


class TestChecksRaise:
    def test_invalid_system_raises_construction_failure(self, monkeypatch):
        # the check must hold under python -O, so it is not an assert
        monkeypatch.setattr(
            segments, "validate_segment_system",
            lambda *a: VerifyOutcome(False, "forced"),
        )
        with pytest.raises(ConstructionFailure):
            _one_shot(cycle_graph(6), {0, 3}, {0}, 1, 2, 0, 0)
        with pytest.raises(ConstructionFailure):
            find_segments(cycle_graph(6), {0, 3}, 1, 2)

    def test_broken_alpha_walk_raises_construction_failure(self, monkeypatch):
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 100)
        g = cycle_graph(6)
        engine = SegmentSearch(g, frozenset({0, 3}), frozenset(), 2)
        assert engine.query(1, 2, 0, 1) is not None  # builds stage one
        with pytest.raises(ConstructionFailure):
            engine._walk_segment(0, 3, 1 << 0 | 1 << 3 | 1 << 4)
