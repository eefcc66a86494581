import random
import re
from collections import Counter

import pytest

import old_routing
from madcycle import routing
from madcycle.errors import ConstructionFailure, GraphInputError, PreconditionError
from madcycle.graph import (
    build_graph,
    verify_cycle_certificate,
)
from madcycle.instances import gen_instance, random_cyclable_pairs
from madcycle.routing import cover_side_through_pairs, hamiltonian_through_pairs

from conftest import complete, complete_bipartite, random_graph


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
        c = cover_side_through_pairs(g, {0, 1}, {(0, 2)}, 1)
        assert len(c) == 4  # 2p - s + t = 4
        assert {0, 1} <= set(c.vertices)
        assert pairs_consecutive(c, [(0, 2)])

    def test_k24_b_pair(self):
        g = complete_bipartite(2, 4)
        c = cover_side_through_pairs(g, {0, 1}, {(2, 3)}, 1)
        assert len(c) == 5  # 2p - 0 + 1

    def test_k24_a_pair(self):
        g = complete_bipartite(2, 4)
        c = cover_side_through_pairs(g, {0, 1}, {(0, 1)}, 1)
        assert len(c) == 3  # 2p - 1 + 0

    def test_b_not_independent_rejected(self):
        g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        with pytest.raises(PreconditionError):
            cover_side_through_pairs(g, {0, 1}, {(0, 2)}, 1)

    def test_strict_generated_instances(self):
        for seed in range(6):
            g, meta = gen_instance("bipartite_dense", {"p": 20, "k": 2}, seed)
            A, B = set(meta["A"]), set(meta["B"])
            rng = random.Random(900 + seed)
            S = random_cyclable_pairs(range(g.n), rng.randint(1, 4), rng)
            s_cnt = sum(1 for u, v in S if u in A and v in A)
            t_cnt = sum(1 for u, v in S if u in B and v in B)
            c = cover_side_through_pairs(g, A, S, 2)
            assert len(c) == 2 * 20 - s_cnt + t_cnt
            assert A <= set(c.vertices)
            assert pairs_consecutive(c, S)
            gp = g.add_pairs(S)
            assert verify_cycle_certificate(gp, c)

    def test_ignores_edges_inside_a(self):
        # edges inside A must not shorten or lengthen the covering cycle
        edges = [(0, 1)] + [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)]
        g = build_graph(edges, 6)
        c = cover_side_through_pairs(g, {0, 1}, {(0, 2)}, 1)
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
                c = cover_side_through_pairs(g, A, S, 1)
            except ConstructionFailure:
                continue
            edges = [(u, v) for u, v in g.edges() if (u in A) != (v in A)]
            gp = build_graph(edges + S, p + q)
            best, _ = oracle_longest_cycle(gp)
            assert len(c) == 2 * p - s_cnt + t_cnt
            # a longer cycle cannot contain all of S and A in this host
            assert len(c) <= best


class TestPairIdsInRange:
    # -1 must not be read as the last vertex, nor n as a missing one; the
    # message names the pair as (min, max)
    @pytest.mark.parametrize("u,v", [(0, -1), (0, 6), (-1, -2)])
    def test_hamiltonian_rejects_out_of_range_ids(self, u, v):
        named = f"pair ({min(u, v)},{max(u, v)}), n=6"
        with pytest.raises(GraphInputError, match=re.escape(named)):
            hamiltonian_through_pairs(complete(6), [(u, v)])

    @pytest.mark.parametrize("u,v", [(0, -1), (0, 10), (0, 12)])
    def test_cover_rejects_out_of_range_ids(self, u, v):
        named = f"pair ({min(u, v)},{max(u, v)}), n=10"
        with pytest.raises(GraphInputError, match=re.escape(named)):
            cover_side_through_pairs(complete_bipartite(3, 7), range(3), [(u, v)], 1)


# ---------------------------------------------------------------------------
# differential: both lemmas against the frozen copy in old_routing.py


def _outcome(construct, *args):
    """The cycle, or the exception's type and message: a failure is an output."""
    try:
        return "cycle", construct(*args).vertices
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _template(outcome):
    """A failure message with its numbers blanked, or None for a cycle."""
    kind, value = outcome
    return None if kind == "cycle" else (kind, re.sub(r"\d+", "#", value))


def _ham_inputs(seed, count):
    """G(n, p) hosts, n 6-40, with random potentially cyclable pair sets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 40)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        yield g, random_cyclable_pairs(range(n), rng.randint(0, n // 3), rng)


def _dense_bipartite_inputs(seed, count):
    """bipartite_dense hosts with pairs anywhere: A-A, A-B and B-B."""
    rng = random.Random(seed)
    for i in range(count):
        p, k = rng.randint(2, 10), rng.randint(0, 3)
        params = {"p": p, "k": k, "q": rng.randint(2 * p, 3 * p),
                  "prob": rng.uniform(0.5, 0.95)}
        g, _ = gen_instance("bipartite_dense", params, i)
        S = random_cyclable_pairs(range(g.n), rng.randint(0, 4), rng)
        yield g, range(p), range(p, g.n), S, k


def _sparse_bipartite_inputs(seed, count):
    """Sparse random bipartite hosts with pairs inside A, which reach the
    3-vertex A-A connector that the dense hosts never need."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(3, 10)
        q = rng.randint(p, 3 * p)
        prob = rng.uniform(0.2, 0.6)
        edges = [(a, b) for a in range(p) for b in range(p, p + q) if rng.random() < prob]
        S = random_cyclable_pairs(range(p), rng.randint(1, max(1, p // 2)), rng)
        yield build_graph(edges, p + q), range(p), range(p, p + q), S, rng.randint(0, 3)


class TestSameOutputsAsTwoConstructions:
    def test_hamiltonian_through_pairs(self):
        failures = Counter()
        for g, S in _ham_inputs(31, 1500):
            got = _outcome(hamiltonian_through_pairs, g, S)
            assert got == _outcome(old_routing.hamiltonian_through_pairs, g, S), S
            failures[_template(got)] += 1
        assert {
            ("ConstructionFailure", "could not join pair # of the chain (density too low)"),
            ("ConstructionFailure", "could not absorb low-degree vertex #"),
            ("ConstructionFailure", "could not close the pair chain into a cycle"),
            ("ConstructionFailure", "could not extend cycle past #/# vertices"),
        } <= set(failures), failures
        assert failures[None] >= 300, failures

    def test_cover_side_through_pairs(self, monkeypatch):
        # count, on the frozen copy, the connector shapes and moves the inputs
        # reach; the outputs are equal, so the shared construction reaches them too
        reached = Counter()

        def counting(name, key):
            real = getattr(old_routing, name)

            def wrapper(*args):
                out = real(*args)
                if out is not None:
                    reached[key(args, out)] += 1
                return out
            monkeypatch.setattr(old_routing, name, wrapper)

        def shape(args, ins):
            _, A, a, b, _ = args
            sides = {2: "A-A", 0: "B-B", 1: "one-sided"}[(a in A) + (b in A)]
            return f"{sides} {len(ins)}"

        counting("_bip_connector", shape)
        counting("_bip_case1", lambda args, out: "case 1")
        counting("_bip_case2", lambda args, out: "case 2")
        failures = Counter()
        inputs = [*_dense_bipartite_inputs(32, 800), *_sparse_bipartite_inputs(33, 1000)]
        for g, A, B, S, k in inputs:
            got = _outcome(cover_side_through_pairs, g, A, S, k)
            assert got == _outcome(old_routing.cover_side_through_pairs, g, A, B, S, k), S
            failures[_template(got)] += 1
        for key in ("A-A 1", "A-A 3", "B-B 1", "one-sided 2", "case 1", "case 2"):
            assert reached[key] >= 10, reached
        assert {
            ("ConstructionFailure", "could not join pair # of the chain"),
            ("ConstructionFailure", "could not close the pair chain into a cycle"),
            ("ConstructionFailure", "could not cover A: # vertices remain outside"),
        } <= set(failures), failures
        assert failures[None] >= 300, failures


class TestCoverHostFromMasks:
    """cover_side_through_pairs derives its A-B graph from h's masks: the
    same graph as build_graph of h's A-B edges, on hosts with edges inside A
    and some with an edge inside B, which must still be refused."""

    def test_same_a_b_graph_and_outcome_as_build_graph(self, monkeypatch):
        from madcycle import routing

        hosts = []
        normalize = routing._normalize_pairs

        def spy(S, g, no_edge):
            hosts.append(g)
            return normalize(S, g, no_edge)

        monkeypatch.setattr(routing, "_normalize_pairs", spy)
        rng = random.Random(71)
        outcomes = Counter()
        for _ in range(600):
            n = rng.randint(2, 30)
            A = set(rng.sample(range(n), 0 if rng.random() < 0.05 else rng.randint(1, n - 1)))
            B = set(range(n)) - A
            p_ab, p_aa = rng.uniform(0.2, 0.9), rng.uniform(0, 0.6)
            p_bb = 0.02 if rng.random() < 0.2 else 0
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < (
                p_ab if (u in A) != (v in A) else p_aa if u in A else p_bb)]
            h = build_graph(edges, n)
            S = random_cyclable_pairs(range(n), rng.randint(0, 3), rng)
            hosts.clear()
            got = _outcome(cover_side_through_pairs, h, A, S, 2)
            assert got == _outcome(old_routing.cover_side_through_pairs, h, A, B, S, 2)
            outcomes[_template(got)] += 1
            if hosts:
                want = build_graph([(u, v) for u, v in h.edges() if (u in A) != (v in A)], n)
                host = hosts[0]
                assert (host.n, host.adj, host.masks) == (want.n, want.adj, want.masks)
                assert all(host.adj[u] is h.adj[u] for u in B)
        assert outcomes[("PreconditionError", "B is not an independent set")] >= 20, outcomes
        assert outcomes[("PreconditionError", "A must be nonempty")] >= 10, outcomes
        assert outcomes[None] >= 100, outcomes


class TestGuards:
    """One direct call per guard of the pair normalisation, the final
    certificate check and side A."""

    def test_pair_with_equal_endpoints(self):
        with pytest.raises(PreconditionError, match="pair with equal endpoints"):
            routing._normalize_pairs([(0, 1), (2, 2)], complete(4), "no edge")

    def test_duplicate_pair(self):
        with pytest.raises(PreconditionError, match="duplicate pair in S"):
            routing._normalize_pairs([(0, 1), (1, 0)], complete(4), "no edge")

    def test_pair_missing_from_cycle(self):
        with pytest.raises(ConstructionFailure, match=r"pair \(0,5\) missing from cycle"):
            routing._certify(complete(6), [0, 1, 2, 3, 4], [(0, 1), (0, 5)], 5)

    def test_pair_not_consecutive(self):
        with pytest.raises(ConstructionFailure, match=r"pair \(0,2\) not consecutive"):
            routing._certify(complete(6), [0, 1, 2, 3, 4], [(0, 1), (0, 2)], 5)

    @pytest.mark.parametrize("A", [range(8), [-1, 0, 1]], ids=["past_n", "negative"])
    def test_side_a_must_lie_in_the_vertex_set(self, A):
        with pytest.raises(PreconditionError, match="A must be a subset of the vertex set"):
            cover_side_through_pairs(complete_bipartite(3, 4), A, [], k=1)
