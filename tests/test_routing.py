import random

import pytest

from madcycle.errors import ConstructionFailure, PreconditionError
from madcycle.graph import (
    build_graph,
    verify_cycle_certificate,
)
from madcycle.instances import gen_instance, random_cyclable_pairs
from madcycle.routing import cover_side_through_pairs, hamiltonian_through_pairs

from conftest import complete, complete_bipartite


def pairs_consecutive(cycle, pairs):
    pos = {v: i for i, v in enumerate(cycle.vertices)}
    n = len(cycle.vertices)
    for u, v in pairs:
        if (pos[u] - pos[v]) % n not in (1, n - 1):
            return False
    return True


class TestHamiltonianThroughPairs:
    def test_k6_single_pair(self):
        g = complete(6)
        c = hamiltonian_through_pairs(g, {(0, 1)})
        assert len(c) == 6
        assert verify_cycle_certificate(g, c)
        assert pairs_consecutive(c, [(0, 1)])

    def test_k6_two_pairs(self):
        g = complete(6)
        c = hamiltonian_through_pairs(g, {(0, 1), (2, 3)})
        assert len(c) == 6
        assert pairs_consecutive(c, [(0, 1), (2, 3)])

    def test_cycle_pair_set_rejected(self):
        with pytest.raises(PreconditionError):
            hamiltonian_through_pairs(complete(6), {(0, 1), (1, 2), (2, 0)})

    def test_nonedge_pairs_allowed(self):
        # pairs may be nonedges of the host; they are edges of h+S
        g = build_graph(
            [(i, j) for i in range(8) for j in range(i + 1, 8) if (i, j) != (0, 1)], 8
        )
        c = hamiltonian_through_pairs(g, {(0, 1)})
        assert pairs_consecutive(c, [(0, 1)])
        assert len(c) == 8

    def test_generated_near_complete_instances(self):
        for seed in range(8):
            g, meta = gen_instance(
                "near_complete", {"n": 61 + 2 * seed, "min_degree": 40}, seed
            )
            rng = random.Random(100 + seed)
            S = random_cyclable_pairs(range(g.n), 1, rng)
            c = hamiltonian_through_pairs(g, S)
            assert len(c) == g.n
            gp = g.add_pairs(S)
            assert verify_cycle_certificate(gp, c)
            assert pairs_consecutive(c, S)

    def test_relaxed_failure_is_honest(self):
        # a sparse cycle cannot host the construction; failure, never a bogus cert
        g = build_graph([(i, (i + 1) % 8) for i in range(8)], 8)
        with pytest.raises(ConstructionFailure):
            hamiltonian_through_pairs(g, {(0, 4)})


class TestCoverSideThroughPairs:
    def test_k24_ab_pair(self):
        g = complete_bipartite(2, 4)
        c = cover_side_through_pairs(g, {0, 1}, {2, 3, 4, 5}, {(0, 2)}, 1)
        assert len(c) == 4  # 2p - s + t = 4
        assert {0, 1} <= set(c.vertices)
        assert pairs_consecutive(c, [(0, 2)])

    def test_k24_b_pair(self):
        g = complete_bipartite(2, 4)
        c = cover_side_through_pairs(g, {0, 1}, {2, 3, 4, 5}, {(2, 3)}, 1)
        assert len(c) == 5  # 2p - 0 + 1

    def test_k24_a_pair(self):
        g = complete_bipartite(2, 4)
        c = cover_side_through_pairs(g, {0, 1}, {2, 3, 4, 5}, {(0, 1)}, 1)
        assert len(c) == 3  # 2p - 1 + 0

    def test_b_not_independent_rejected(self):
        g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        with pytest.raises(PreconditionError):
            cover_side_through_pairs(g, {0, 1}, {2, 3}, {(0, 2)}, 1)

    def test_strict_generated_instances(self):
        for seed in range(6):
            g, meta = gen_instance("bipartite_dense", {"p": 20, "k": 2}, seed)
            A, B = set(meta["A"]), set(meta["B"])
            rng = random.Random(900 + seed)
            S = random_cyclable_pairs(range(g.n), rng.randint(1, 4), rng)
            s_cnt = sum(1 for u, v in S if u in A and v in A)
            t_cnt = sum(1 for u, v in S if u in B and v in B)
            c = cover_side_through_pairs(g, A, B, S, 2)
            assert len(c) == 2 * 20 - s_cnt + t_cnt
            assert A <= set(c.vertices)
            assert pairs_consecutive(c, S)
            gp = g.add_pairs(S)
            assert verify_cycle_certificate(gp, c)

    def test_ignores_edges_inside_a(self):
        # edges inside A must not shorten or lengthen the covering cycle
        edges = [(0, 1)] + [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)]
        g = build_graph(edges, 6)
        c = cover_side_through_pairs(g, {0, 1}, {2, 3, 4, 5}, {(0, 2)}, 1)
        assert len(c) == 4

    def test_maximality_against_oracle_miniatures(self):
        # the covering cycle is a longest cycle through S in the pair-extended
        # bipartite host (checked only at miniature scale)
        from madcycle.oracles import oracle_longest_cycle

        rng = random.Random(77)
        for trial in range(10):
            p = rng.randint(2, 4)
            q = rng.randint(2 * p, 2 * p + 3)
            g = complete_bipartite(p, q)
            A, B = set(range(p)), set(range(p, p + q))
            S = random_cyclable_pairs(range(p + q), 1, rng)
            s_cnt = sum(1 for u, v in S if u in A and v in A)
            t_cnt = sum(1 for u, v in S if u in B and v in B)
            try:
                c = cover_side_through_pairs(g, A, B, S, 1)
            except ConstructionFailure:
                continue
            edges = [(u, v) for u, v in g.edges() if (u in A) != (v in A)]
            gp = build_graph(edges + S, p + q)
            best, _ = oracle_longest_cycle(gp)
            assert len(c) == 2 * p - s_cnt + t_cnt
            # a longer cycle cannot contain all of S and A in this host
            assert len(c) <= best
