"""Acceptance criteria, one test per criterion, strongest tolerances.

Each test prints one PASS line on success (visible with pytest -s); the final
criterion re-verifies every certificate the earlier ones emitted.
"""

import math
import random
from fractions import Fraction

from madcycle.density import mad_with_witness
from madcycle.graph import (
    eg_bound,
    induced_subgraph,
    is_biconnected,
    verify_cycle_certificate,
)
from madcycle.instances import gen_hardness_gadget, gen_instance, random_cyclable_pairs
from madcycle.longpaths import dirac_cycle
from madcycle.oracles import (
    oracle_longest_cycle,
    oracle_mad,
    segment_signatures,
)
from madcycle.reduction import reduce_exhaustive
from madcycle.routing import cover_side_through_pairs, hamiltonian_through_pairs
from madcycle.segments import SegmentSearch, find_segments, find_segments_partitioned
from madcycle.solver import k0_constructive_cycle, solve

from conftest import random_2connected_graph, random_connected_graph, random_graph


def _pairs_consecutive(cycle, pairs):
    pos = {v: i for i, v in enumerate(cycle.vertices)}
    n = len(cycle.vertices)
    return all((pos[u] - pos[v]) % n in (1, n - 1) for u, v in pairs)


def test_criterion_01_mad_exactness():
    rng = random.Random(1001)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        if g.m == 0:
            continue
        assert mad_with_witness(g).mad == oracle_mad(g)
        checked += 1
    print(f"\nACCEPTANCE 1 PASS: mad matched the subset-enumeration oracle on {checked} graphs")


def test_criterion_02_constructive_eg(certificate_registry):
    rng = random.Random(1002)
    checked = 0
    while checked < 200:
        n = rng.randint(6, 60)
        g = random_connected_graph(rng, n, rng.uniform(0.12, 0.5))
        if g.m == 0:
            continue
        mad = mad_with_witness(g).mad
        if mad < 3:
            continue
        cert = k0_constructive_cycle(g)
        assert verify_cycle_certificate(g, cert)
        assert Fraction(len(cert)) > mad
        certificate_registry.append((g, cert))
        checked += 1
    print(f"\nACCEPTANCE 2 PASS: k=0 branch built a cycle longer than mad on {checked} graphs")


def test_criterion_03_end_to_end_oracle_equivalence(certificate_registry):
    rng = random.Random(1003)
    checked = 0
    while checked < 300:
        n = rng.randint(4, 12)
        g = random_2connected_graph(rng, n, rng.uniform(0.3, 0.85))
        mad = mad_with_witness(g).mad
        circumference, _ = oracle_longest_cycle(g)
        for k in range(0, 5):
            res = solve(g, k)
            assert res.answer != "unknown"
            expect = Fraction(circumference) >= mad + k
            assert (res.answer == "yes") == expect
            if res.answer == "yes":
                assert verify_cycle_certificate(g, res.certificate)
                assert Fraction(len(res.certificate)) >= mad + k
                certificate_registry.append((g, res.certificate))
        checked += 1
    print(f"\nACCEPTANCE 3 PASS: solve matched the cycle oracle on {checked} graphs x k in 0..4, no unknowns")


def test_criterion_04_reduction_monotonicity():
    rng = random.Random(1004)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 24)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        if g.m == 0:
            continue
        survivors, trace = reduce_exhaustive(g)
        for step in trace.steps:
            assert step.eg_after >= step.eg_before
        sub, _ = induced_subgraph(g, survivors)
        if sub.n >= 3:
            assert is_biconnected(sub)
            assert all(
                Fraction(2 * sub.degree(v)) > eg_bound(sub) for v in sub.vertices()
            )
        checked += 1
    print(f"\nACCEPTANCE 4 PASS: density never decreased across {checked} reductions; fixpoints clean")


def test_criterion_05_segment_dp_vs_oracle():
    rng = random.Random(1005)
    for _ in range(100):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.uniform(0.25, 0.7))
        T = set(rng.sample(range(n), rng.randint(2, min(5, n))))
        A = {v for v in T if rng.random() < 0.5}
        plain, table = segment_signatures(g, T, (), 4), segment_signatures(g, T, A, 4)
        search = SegmentSearch(g, T, A, 4)
        for p in range(1, 5):
            for r in range(1, p + 1):
                got = find_segments(g, T, r, p)
                assert (got is not None) == ((r, p, 0, r) in plain)
                for s in range(0, r + 1):
                    for t in range(0, r - s + 1):
                        got = find_segments_partitioned(search, r, p, s, t)
                        assert (got is not None) == ((r, p, s, t) in table)
    print("\nACCEPTANCE 5 PASS: segment searches matched the enumeration oracle on 100 graphs, all (r,p,s,t), p <= 4")


def test_criterion_06_dense_routing_hamiltonian(certificate_registry):
    rng = random.Random(1006)
    for i in range(50):
        n = rng.randint(61, 80)
        floor = -(-11 * n // 20)  # ceil(0.55 n)
        g, _ = gen_instance(
            "near_complete", {"n": n, "min_degree": floor}, seed=2000 + i
        )
        assert g.min_degree() >= floor
        S = random_cyclable_pairs(range(n), 1, rng)
        cert = hamiltonian_through_pairs(g, S)
        host = g.add_pairs(S)
        assert len(cert) == n
        assert verify_cycle_certificate(host, cert)
        assert _pairs_consecutive(cert, S)
        certificate_registry.append((host, cert))
    print("\nACCEPTANCE 6 PASS: 50 near-complete instances routed to Hamiltonian cycles through S")


def test_criterion_07_bipartite_routing_exact_length(certificate_registry):
    rng = random.Random(1007)
    for i in range(50):
        g, meta = gen_instance("bipartite_dense", {"p": 20, "k": 2}, seed=3000 + i)
        A, B = set(meta["A"]), set(meta["B"])
        S = random_cyclable_pairs(range(g.n), rng.randint(1, 5), rng)
        s_cnt = sum(1 for u, v in S if u in A and v in A)
        t_cnt = sum(1 for u, v in S if u in B and v in B)
        cert = cover_side_through_pairs(g, A, S, 2)
        host = g.add_pairs(S)
        assert len(cert) == 2 * 20 - s_cnt + t_cnt
        assert A <= set(cert.vertices)
        assert verify_cycle_certificate(host, cert)
        assert _pairs_consecutive(cert, S)
        certificate_registry.append((host, cert))
    print("\nACCEPTANCE 7 PASS: 50 bipartite-dense instances covered A at length exactly 2p-s+t")


def test_criterion_08_hardness_gadget():
    rng = random.Random(1008)
    window_checked = 0
    equivalence_checked = 0
    while window_checked < 100:
        n = rng.choice([4, 5, 6])
        g = random_connected_graph(rng, n, rng.uniform(0.4, 0.9))
        if eg_bound(g) > n - 1:
            continue
        gp = gen_hardness_gadget(g)
        eg = eg_bound(gp)
        assert n - 2 < eg <= n - 1
        assert gp.n == n * (n - 1)
        window_checked += 1
        if n <= 5:
            # cycle-oracle cap raised to 20 for this suite only
            ham = oracle_longest_cycle(g)[0] == n
            target = math.ceil(eg + 1)
            long_cycle = oracle_longest_cycle(gp, cap=20)[0] >= target
            assert ham == long_cycle
            equivalence_checked += 1
    assert equivalence_checked >= 30
    print(
        f"\nACCEPTANCE 8 PASS: gadget window exact on {window_checked} graphs; "
        f"Hamiltonicity equivalence on {equivalence_checked} (cycle cap 20)"
    )


def test_criterion_09_dirac_bound(certificate_registry):
    rng = random.Random(1009)
    for _ in range(200):
        n = rng.randint(4, 60)
        g = random_2connected_graph(rng, n, rng.uniform(0.15, 0.6))
        cert = dirac_cycle(g)
        assert len(cert) >= min(g.n, 2 * g.min_degree())
        assert verify_cycle_certificate(g, cert)
        certificate_registry.append((g, cert))
    print("\nACCEPTANCE 9 PASS: Dirac constructor met min(n, 2*delta) on 200 graphs")


def test_criterion_10_global_soundness(certificate_registry):
    assert len(certificate_registry) > 700
    for host, cert in certificate_registry:
        assert verify_cycle_certificate(host, cert)
    print(
        f"\nACCEPTANCE 10 PASS: all {len(certificate_registry)} emitted certificates re-verified"
    )
