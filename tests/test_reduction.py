import random
from fractions import Fraction

import pytest

from madcycle.errors import PreconditionError
from madcycle.graph import (
    build_graph,
    eg_bound,
    induced_subgraph,
    is_biconnected,
    two_separators,
    verify_cycle_certificate,
    CycleCertificate,
)
from madcycle.reduction import apply_rule, reduce_exhaustive

from conftest import (
    bowtie,
    complete,
    random_2connected_graph,
    random_connected_graph,
)


class TestApplyRule:
    def test_rule2_bowtie_keeps_lowest_triangle(self):
        keep, removed = apply_rule(bowtie(), range(5), 2)
        assert keep == frozenset({0, 1, 2}) and removed == frozenset({3, 4})
        sub, _ = induced_subgraph(bowtie(), keep)
        assert eg_bound(sub) == 3 == eg_bound(bowtie())

    def test_rule3_removes_low_degree(self):
        # K4 plus a vertex adjacent to two of its vertices: l_EG = 16/4 = 4
        g = build_graph(
            [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(4, 0), (4, 1)], 5
        )
        assert eg_bound(g) == 4
        keep, removed = apply_rule(g, range(5), 3)
        assert removed == frozenset({4})
        sub, _ = induced_subgraph(g, keep)
        assert eg_bound(sub) == 4

    def test_rule4_removes_sparse_component(self):
        # K6 plus path x-a-y with x,y in the clique: n=7, m=17, l_EG=34/6
        g = build_graph(
            [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(0, 6), (6, 1)], 7
        )
        assert g.m == 17 and eg_bound(g) == Fraction(34, 6)
        keep, removed = apply_rule(g, range(7), 4)
        assert removed == frozenset({6})
        sub, _ = induced_subgraph(g, keep)
        assert eg_bound(sub) == 6 >= Fraction(34, 6)

    def test_rule1_needs_disconnection(self):
        assert apply_rule(complete(4), range(4), 1) is None

    def test_rule2_rejects_disconnected(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        with pytest.raises(PreconditionError):
            apply_rule(g, range(4), 2)


class TestReduceExhaustive:
    def test_k4_fixpoint(self):
        survivors, trace = reduce_exhaustive(complete(4))
        assert survivors == frozenset(range(4)) and trace.steps == []

    def test_bowtie_to_triangle(self):
        survivors, trace = reduce_exhaustive(bowtie())
        assert survivors == frozenset({0, 1, 2})
        assert [s.rule for s in trace.steps] == [2]

    def test_k5_plus_pendant(self):
        g = build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)], 6
        )
        survivors, _ = reduce_exhaustive(g)
        assert survivors == frozenset(range(5))

    def test_monotone_and_fixpoint_random(self):
        rng = random.Random(7)
        for _ in range(120):
            g = random_connected_graph(rng, rng.randint(2, 14), rng.uniform(0.2, 0.8))
            survivors, trace = reduce_exhaustive(g)
            for step in trace.steps:
                assert step.eg_after >= step.eg_before
            sub, _ = induced_subgraph(g, survivors)
            if sub.n >= 3:
                assert is_biconnected(sub)
                assert all(
                    Fraction(2 * sub.degree(v)) > eg_bound(sub) for v in sub.vertices()
                )

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.7))
            survivors, _ = reduce_exhaustive(g)
            again, trace = reduce_exhaustive(g, survivors)
            assert again == survivors and trace.steps == []

    def test_survivor_cycles_are_host_cycles(self):
        rng = random.Random(19)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(4, 12), 0.5)
            survivors, _ = reduce_exhaustive(g)
            sub, ids = induced_subgraph(g, survivors)
            if sub.n >= 3 and is_biconnected(sub):
                from madcycle.longpaths import dirac_cycle

                c = dirac_cycle(sub)
                mapped = CycleCertificate(tuple(ids[v] for v in c.vertices), 3)
                assert verify_cycle_certificate(g, mapped)

    def test_too_small_rejected(self):
        with pytest.raises(PreconditionError):
            reduce_exhaustive(build_graph([], 1))


def _glued(rng):
    """Two random 2-connected graphs glued along the vertex pair {0, 1}."""
    g1 = random_2connected_graph(rng, rng.randint(4, 9), rng.uniform(0.4, 0.9))
    g2 = random_2connected_graph(rng, rng.randint(4, 9), rng.uniform(0.4, 0.9))
    shift = {0: 0, 1: 1, **{v: g1.n + v - 2 for v in range(2, g2.n)}}
    edges = list(g1.edges()) + [(shift[u], shift[v]) for u, v in g2.edges()]
    return build_graph(edges, g1.n + g2.n - 2)


class TestFinalSeparators:
    def test_equal_two_separators_of_core(self, monkeypatch):
        from madcycle import extract, reduction
        from madcycle.density import mad_with_witness

        scans = [0]

        def counted(sub):
            scans[0] += 1
            return two_separators(sub)

        rng = random.Random(29)
        scanned = nonempty = 0
        for i in range(100):
            if i % 2:
                g = random_2connected_graph(rng, rng.randint(5, 16), rng.uniform(0.2, 0.6))
            else:
                g = _glued(rng)
            core, trace = reduce_exhaustive(g, mad_with_witness(g).vertices)
            sub, _ = induced_subgraph(g, core)
            if not (sub.n >= 4 and is_biconnected(sub)):
                assert trace.final_separators == []
                continue
            scanned += 1
            assert trace.final_separators == two_separators(sub)
            nonempty += bool(trace.final_separators)
            # find_dense takes the list from the trace: it scans exactly as
            # often as its reduction alone does (extract gets the name too,
            # so a scan of its own would be counted)
            with monkeypatch.context() as m:
                for mod in (reduction, extract):
                    m.setattr(mod, "two_separators", counted, raising=False)
                scans[0] = 0
                reduce_exhaustive(g, mad_with_witness(g).vertices)
                alone = scans[0]
                scans[0] = 0
                witness, info = extract.find_dense(g, 1)
            assert alone >= 1 and scans[0] == alone
            assert info.trace.final_separators == trace.final_separators
            if trace.final_separators:
                assert isinstance(witness, extract.FoundCycle)
        assert scanned >= 80 and nonempty >= 20
