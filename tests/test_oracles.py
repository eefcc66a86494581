import itertools
import random
from fractions import Fraction

import pytest

from madcycle.errors import CapExceeded, PreconditionError
from madcycle.graph import build_graph, eg_bound, verify_cycle_certificate
from madcycle.oracles import (
    oracle_longest_cycle,
    oracle_longest_st_path,
    oracle_mad,
    oracle_segments,
    segment_signatures,
)

from conftest import bowtie, complete, cycle_graph, path_graph, petersen, random_graph


class TestLongestCycle:
    def test_petersen_circumference(self):
        length, cert = oracle_longest_cycle(petersen())
        assert length == 9
        assert verify_cycle_certificate(petersen(), cert)

    def test_k4(self):
        assert oracle_longest_cycle(complete(4))[0] == 4

    def test_star_acyclic(self):
        star = build_graph([(0, i) for i in range(1, 5)], 5)
        assert oracle_longest_cycle(star) == (0, None)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            oracle_longest_cycle(complete(19))


class TestLongestStPath:
    def test_path4(self):
        assert oracle_longest_st_path(path_graph(4), 0, 3) == 4

    def test_c5_adjacent(self):
        assert oracle_longest_st_path(cycle_graph(5), 0, 1) == 5

    def test_petersen_adjacent_pair(self):
        # a 10-vertex path between adjacent vertices would close into a
        # Hamiltonian cycle, which the cycle oracle rules out
        assert oracle_longest_cycle(petersen())[0] < 10
        assert oracle_longest_st_path(petersen(), 0, 1) == 9

    def test_disconnected(self):
        g = build_graph([(0, 1)], 3)
        assert oracle_longest_st_path(g, 0, 2) == 0


class TestMad:
    def test_c5(self):
        assert oracle_mad(cycle_graph(5)) == 2

    def test_k5_plus_pendant(self):
        g = build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)], 6
        )
        assert oracle_mad(g) == 4

    def test_bowtie(self):
        assert oracle_mad(bowtie()) == Fraction(12, 5)


class TestSegmentsOracle:
    def test_path3(self):
        assert oracle_segments(path_graph(3), {0, 2}, 1, 1)

    def test_c6_duplicate_pair_infeasible(self):
        assert not oracle_segments(cycle_graph(6), {0, 3}, 2, 4)

    def test_c6_one_segment(self):
        assert oracle_segments(cycle_graph(6), {0, 3}, 1, 2)

    def test_partitioned_a_segment_rule(self):
        assert not oracle_segments(
            cycle_graph(6), {0, 3}, 1, 1, partition=({0, 3}, set()), s=1, t=0
        )
        assert oracle_segments(
            cycle_graph(6), {0, 3}, 1, 2, partition=({0, 3}, set()), s=1, t=0
        )

    @pytest.mark.parametrize("r, p", [(0, 1), (1, 0), (-1, -1), (0, 0)])
    def test_counts_below_one_rejected(self, r, p):
        with pytest.raises(PreconditionError, match="need r >= 1 and p >= 1"):
            oracle_segments(cycle_graph(6), {0, 3}, r, p)

    @pytest.mark.parametrize("s, t, match", [
        (-1, 1, "nonnegative"), (1, -1, "nonnegative"), (1, 1, "must not exceed r"),
    ])
    def test_partition_counts_checked_as_the_probe_checks_them(self, s, t, match):
        with pytest.raises(PreconditionError, match=match):
            oracle_segments(
                cycle_graph(6), {0, 3}, 1, 2, partition=({0}, {3}), s=s, t=t
            )


class TestSignatureTable:
    def test_one_table_answers_every_probe_of_the_oracle(self):
        # a table built up to max_p answers each p <= max_p as the oracle
        # built for that p alone does
        rng = random.Random(37)
        found = 0
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.6))
            T = frozenset(rng.sample(range(g.n), rng.randint(2, min(5, g.n))))
            A = frozenset(v for v in T if rng.random() < 0.5)
            plain, table = segment_signatures(g, T, (), 3), segment_signatures(g, T, A, 3)
            for p in range(1, 4):
                for r in range(1, p + 1):
                    assert oracle_segments(g, T, r, p) == ((r, p, 0, r) in plain)
                    for s in range(r + 1):
                        for t in range(r - s + 1):
                            want = oracle_segments(g, T, r, p, partition=(A, T - A), s=s, t=t)
                            assert want == ((r, p, s, t) in table)
                            found += want
        assert found >= 20

    def test_oracle_caps_come_before_the_partition_checks(self):
        with pytest.raises(CapExceeded, match="p <= 5, got 6"):
            oracle_segments(cycle_graph(6), {0, 3}, 1, 6)
        with pytest.raises(CapExceeded, match="n <= 10, got 11"):
            oracle_segments(cycle_graph(11), {0, 3}, 1, 2, partition=({0}, {1}))


def _old_forest_ok(pairs):
    seen, deg, parent = set(), {}, {}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v in pairs:
        if (u, v) in seen:
            return False
        seen.add((u, v))
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


def _old_signatures(segs, A, max_p):
    """The signature enumeration both removed oracle copies shared.

    A None reproduces the plain-systems copy (s and t stay 0); a set
    reproduces the partitioned copy.
    """
    sigs = set()

    def rec(idx, chosen, internals, total_p):
        if chosen:
            pairs = [(min(segs[i][0], segs[i][-1]), max(segs[i][0], segs[i][-1]))
                     for i in chosen]
            if _old_forest_ok(pairs):
                s_cnt = t_cnt = 0
                if A is not None:
                    for i in chosen:
                        a, b = segs[i][0], segs[i][-1]
                        if a in A and b in A:
                            s_cnt += 1
                        elif a not in A and b not in A:
                            t_cnt += 1
                sigs.add((len(chosen), total_p, s_cnt, t_cnt))
        for i in range(idx, len(segs)):
            seg = segs[i]
            inner = set(seg[1:-1])
            if total_p + len(inner) > max_p or inner & internals:
                continue
            if any(v in internals for v in (seg[0], seg[-1])):
                continue
            if any(u in inner for c in chosen for u in (segs[c][0], segs[c][-1])):
                continue
            chosen.append(i)
            rec(i + 1, chosen, internals | inner, total_p + len(inner))
            chosen.pop()

    rec(0, [], set(), 0)
    return sigs


class TestMergedSignatures:
    def test_matches_both_old_signature_functions(self):
        from madcycle.oracles import _segment_paths

        rng = random.Random(31)
        nonempty = 0
        for _ in range(120):
            g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.6))
            T = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            A = frozenset(v for v in T if rng.random() < 0.5)
            max_p = rng.randint(1, 3)
            segs = tuple(_segment_paths(g, T, max_p))
            # plain systems: the old copy with A None, compared on (r, p)
            plain = segment_signatures(g, T, (), max_p)
            assert {sig[:2] for sig in plain} == {
                sig[:2] for sig in _old_signatures(segs, None, max_p)
            }
            # partitioned systems: the old copy on the A-filtered segment list
            keep = tuple(seg for seg in segs
                         if not (seg[0] in A and seg[-1] in A and len(seg) < 4))
            assert segment_signatures(g, T, A, max_p) == _old_signatures(
                keep, A, max_p
            )
            nonempty += bool(plain)
        assert nonempty >= 40


def all_labeled_connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = build_graph(edges, n)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            yield g


def test_erdos_gallai_theorem_exhaustive_small():
    # every connected graph with m > n-1 has a cycle of length >= ceil(l_EG)
    checked = 0
    for n in (3, 4, 5):
        for g in all_labeled_connected_graphs(n):
            if g.m <= g.n - 1:
                continue
            eg = eg_bound(g)
            length, _ = oracle_longest_cycle(g)
            assert Fraction(length) >= eg
            checked += 1
    assert checked > 500


def test_erdos_gallai_theorem_random_n8():
    rng = random.Random(23)
    for _ in range(80):
        g = random_graph(rng, 8, rng.uniform(0.3, 0.9))
        if g.m <= g.n - 1:
            continue
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != g.n:
            continue
        assert Fraction(oracle_longest_cycle(g)[0]) >= eg_bound(g)
