import random
from fractions import Fraction

import pytest

from madcycle.errors import GraphInputError, PreconditionError
from madcycle.graph import eg_bound, is_biconnected
from madcycle.instances import (
    emit_graph,
    emit_result,
    gen_hardness_gadget,
    gen_instance,
    parse_graph,
    random_cyclable_pairs,
)
from madcycle.graph import is_potentially_cyclable
from madcycle.solver import solve

from conftest import complete, cycle_graph, random_connected_graph, random_graph


class TestParse:
    def test_edgelist_triangle(self):
        g = parse_graph("0 1\n1 2\n2 0\n")
        assert g.n == 3 and g.m == 3

    def test_dimacs_triangle(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n", fmt="dimacs")
        assert g.n == 3 and g.m == 3

    def test_self_loop_line_number(self):
        with pytest.raises(GraphInputError) as exc:
            parse_graph("0 0\n")
        assert "line 1" in str(exc.value)

    def test_comments_and_header(self):
        g = parse_graph("# hello\nn 5\n0 1\n")
        assert g.n == 5 and g.m == 1

    def test_malformed_line_reported(self):
        with pytest.raises(GraphInputError) as exc:
            parse_graph("0 1\n1 2 3\n")
        assert "line 2" in str(exc.value)

    def test_roundtrip_both_formats(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
            for fmt in ("edgelist", "dimacs"):
                text = emit_graph(g, fmt)
                back = parse_graph(text, fmt)
                assert back == g
                assert emit_graph(back, fmt) == text


class TestGadget:
    def test_c4_counts(self):
        gp = gen_hardness_gadget(cycle_graph(4))
        assert gp.n == 12 and gp.m == 16
        assert eg_bound(gp) == Fraction(32, 11)

    def test_k3_rejected(self):
        with pytest.raises(PreconditionError):
            gen_hardness_gadget(complete(3))

    def test_c5_counts(self):
        # m' = n*C(n-1,2) + m = 5*6+5 = 35, so eg = 70/19
        gp = gen_hardness_gadget(cycle_graph(5))
        assert gp.n == 20 and gp.m == 35
        assert eg_bound(gp) == Fraction(70, 19)

    def test_window_inequalities_random(self):
        rng = random.Random(31)
        count = 0
        while count < 20:
            n = rng.randint(4, 7)
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.8))
            if eg_bound(g) > n - 1:
                continue
            gp = gen_hardness_gadget(g)
            eg = eg_bound(gp)
            assert n - 2 < eg <= n - 1
            count += 1

    def test_ids_preserved(self):
        g = cycle_graph(4)
        gp = gen_hardness_gadget(g)
        for u, v in g.edges():
            assert gp.has_edge(u, v)


class TestGenerators:
    def test_gnp2c(self):
        g, meta = gen_instance("gnp2c", {"n": 10, "prob": 0.5}, seed=3)
        assert g.n == 10 and is_biconnected(g)

    def test_near_complete_floors(self):
        g, meta = gen_instance("near_complete", {"n": 64, "min_degree": 36}, seed=1)
        assert g.n == 64 and g.min_degree() >= 36

    def test_bipartite_dense_floors(self):
        g, meta = gen_instance("bipartite_dense", {"p": 20, "k": 2}, seed=5)
        A, B = meta["A"], meta["B"]
        assert all(g.degree(a) >= 40 for a in A)
        assert all(g.degree(b) >= 18 for b in B)
        for b in B:
            assert all(w in set(A) for w in g.adj[b])

    def test_lemma7_trace_branches(self):
        from madcycle.extract import (
            BipartiteDense,
            FoundCycle,
            SmallDense,
            find_dense,
        )

        for branch, expect in (
            ("glue", FoundCycle),
            ("dirac_found", FoundCycle),
            ("small_dense", SmallDense),
            ("bip_dense", BipartiteDense),
        ):
            g, meta = gen_instance("lemma7_trace", {"branch": branch}, seed=0)
            k = meta.get("k", 1)
            w, info = find_dense(g, k)
            assert isinstance(w, expect), branch

    def test_random_cyclable_pairs(self):
        rng = random.Random(12)
        for _ in range(20):
            pairs = random_cyclable_pairs(range(30), rng.randint(1, 6), rng)
            assert is_potentially_cyclable(pairs)


class TestEmitResult:
    def test_golden_k4_k0(self):
        res = solve(complete(4), 0)
        out = emit_result(res)
        assert out == (
            b'{"answer":"yes","k":0,"mad":{"num":3,"den":1},"threshold_len":4,'
            b'"cycle":[2,0,1,3],"branch":"k0","stats":{}}\n'
        )

    def test_no_result_has_null_cycle(self):
        res = solve(complete(4), 2)
        out = emit_result(res)
        assert b'"cycle":null' in out
        assert b'"answer":"no"' in out

    def test_unknown_reason_round_trips(self):
        import json

        from madcycle.solver import exact_longest_cycle_fallback

        res = exact_longest_cycle_fallback(complete(30), 3)
        obj = json.loads(emit_result(res))
        assert obj["answer"] == "unknown"
        assert "reason" in obj["stats"]

    def test_deterministic_bytes(self):
        a = emit_result(solve(complete(6), 1, seed=4))
        b = emit_result(solve(complete(6), 1, seed=4))
        assert a == b
