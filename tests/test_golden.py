"""Golden outputs: answers, branches and the exact emitted bytes of fixed solves.

Each case is a generator instance (or one with a few outside ears attached)
and solve arguments; the fixture `golden_fixture.json` holds its answer, its
branch and the SHA-256 of `emit_result`. The routing cases pin the cycles of
`hamiltonian_through_pairs` and `cover_side_through_pairs` on chained pair
sets, whose joins, absorbs and closes take every short-detour shape. A change that
alters any output re-records the fixture and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from madcycle.density import mad_with_witness
from madcycle.errors import ConstructionFailure
from madcycle.graph import build_graph
from madcycle.instances import emit_result, gen_instance, random_cyclable_pairs
from madcycle.routing import cover_side_through_pairs, hamiltonian_through_pairs
from madcycle.solver import solve

FIXTURE = Path(__file__).with_name("golden_fixture.json")


def _gen(family, seed=0, **params):
    return gen_instance(family, params, seed)[0]


def _l7(branch):
    return _gen("lemma7_trace", branch=branch)


def _k_minus_matching(n):
    return build_graph(
        [(u, v) for u in range(n) for v in range(u + 1, n)
         if not (v == u + 1 and u % 2 == 0)],
        n,
    )


def _with_ears(g, ears):
    """g plus, per (a, length, b), a path a..b through `length` fresh vertices."""
    edges, n = list(g.edges()), g.n
    for a, length, b in ears:
        prev = a
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, b))
    return build_graph(edges, n)


def _cliques_sharing(size, shared):
    """Two cliques of `size` vertices with exactly `shared` vertices in common."""
    first = list(range(size))
    second = first[:shared] + list(range(size, 2 * size - shared))
    return build_graph(
        [(u, v) for side in (first, second) for i, u in enumerate(side)
         for v in side[i + 1:]],
        2 * size - shared,
    )


def _cliques(*parts, extra=()):
    """The union of cliques on the given vertex lists, plus the edges extra."""
    edges = [(u, v) for part in parts for i, u in enumerate(part) for v in part[i + 1:]]
    edges += extra
    return build_graph(edges, 1 + max(max(e) for e in edges))


def _split(a, b):
    """K_a joined to an independent set of b vertices."""
    return build_graph([(i, j) for i in range(a) for j in range(i + 1, a + b)], a + b)


def _split_with_ears(a, ears):
    """K_a joined to an independent set of 10a vertices, plus `ears` one-vertex
    ears: vertex 11a + i joins a + 2i and a + 2i + 1 (the outside_probes shape
    of the benchmark, with fixed labels)."""
    n = 11 * a
    edges = [(i, j) for i in range(a) for j in range(i + 1, n)]
    edges += [p for i in range(ears) for p in ((a + 2 * i, n + i), (n + i, a + 2 * i + 1))]
    return build_graph(edges, n + ears)


def _solve_cases():
    # a name's "strict" or "relaxed" is part of its fixture key only: solve
    # runs one pipeline, so the cases pass no mode
    km = _k_minus_matching(26)
    bip = _l7("bip_dense")
    gnp30 = _gen("gnp2c", seed=1, n=30, prob=0.2)
    # the witness of each is its two dense parts, which a reduction rule
    # splits: rule 2 at the cut vertex 4, rule 1 at the two components, and
    # rule 4 at the pair {0, 1}, which cuts off the triangle
    rule2 = _with_ears(_cliques(range(5), range(4, 9)), [(0, 20, 8)])
    rule1 = _with_ears(_cliques(range(5), range(5, 10)), [(0, 8, 5), (1, 8, 6)])
    rule4 = _with_ears(
        _cliques(range(7), (7, 8, 9), extra=[(t, s) for t in (7, 8, 9) for s in (0, 1)]),
        [(7, 15, 6)],
    )
    # K4 less the edge 01, and vertex 4 on the pair {1, 3}: rule 4 finds 4
    # sparse, but cutting it off lowers 2m/(n-1) from 7/2 to 10/3, so the
    # non-decrease guard skips it and no rule fires
    guard4 = _with_ears(
        build_graph([(0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)], 5),
        [(0, 20, 1)],
    )
    return [
        ("glue k0", _l7("glue"), dict(k=0)),
        ("glue k0 trace", _l7("glue"), dict(k=0, with_trace=True)),
        ("glue k1 strict", _l7("glue"), dict(k=1)),
        ("dirac_found k0", _l7("dirac_found"), dict(k=0)),
        ("dirac_found k2 strict", _l7("dirac_found"), dict(k=2)),
        ("small_dense k3 relaxed", _l7("small_dense"), dict(k=3)),
        ("bip_dense k0 trace", bip, dict(k=0, with_trace=True)),
        ("bip_dense k1 strict", bip, dict(k=1)),
        ("bip_dense k2 relaxed", bip, dict(k=2)),
        ("bip_dense_yes k1 relaxed trace", _l7("bip_dense_yes"),
         dict(k=1, with_trace=True)),
        ("bip_dense_yes k2 relaxed", _l7("bip_dense_yes"), dict(k=2)),
        ("bip_dense_yes k3 relaxed", _l7("bip_dense_yes"), dict(k=3)),
        ("bip+bb3 k3 relaxed", _with_ears(bip, [(8, 3, 9)]), dict(k=3)),
        ("bip+bb3 k4 path", _with_ears(bip, [(8, 3, 9)]),
         dict(k=4, mode="path")),
        ("bip+aa2bb1 k2 relaxed", _with_ears(bip, [(0, 2, 1), (8, 1, 9)]),
         dict(k=2)),
        ("bip+aa2bb1 k3 relaxed", _with_ears(bip, [(0, 2, 1), (8, 1, 9)]),
         dict(k=3)),
        ("gnp8 s0 k0", _gen("gnp2c", seed=0, n=8, prob=0.5), dict(k=0)),
        ("gnp8 s0 k2 path", _gen("gnp2c", seed=0, n=8, prob=0.5), dict(k=2, mode="path")),
        ("gnp12 s2 k1 path", _gen("gnp2c", seed=2, n=12, prob=0.4), dict(k=1, mode="path")),
        ("gnp16 s1 k2 relaxed", _gen("gnp2c", seed=1, n=16, prob=0.3),
         dict(k=2)),
        ("gnp30 s0 k0 path", _gen("gnp2c", seed=0, n=30, prob=0.2), dict(k=0, mode="path")),
        ("gnp30 s0 k1 strict", _gen("gnp2c", seed=0, n=30, prob=0.2), dict(k=1)),
        ("gnp30 s1 k1 relaxed trace", gnp30, dict(k=1, with_trace=True)),
        ("gnp30 s1 k2 relaxed path", gnp30, dict(k=2, mode="path")),
        # out of range past the fallback cap: the dense pipeline's yes, and
        # threshold 213 > n = 30, an exact no from the fallback
        ("gnp30 p0.3 s1 k1", _gen("gnp2c", seed=1, n=30, prob=0.3), dict(k=1)),
        ("gnp30 p0.4 s1 k200", _gen("gnp2c", seed=1, n=30, prob=0.4), dict(k=200)),
        # sparse_k0-sized cores, where the rotation search runs many rounds
        ("gnp150 s1 k0", _gen("gnp2c", seed=1, n=150, prob=0.054), dict(k=0)),
        ("gnp150 s2 k0", _gen("gnp2c", seed=2, n=150, prob=0.054), dict(k=0)),
        ("near_complete30 k0", _gen("near_complete", seed=1, n=30), dict(k=0)),
        ("near_complete30 k2 relaxed", _gen("near_complete", seed=1, n=30),
         dict(k=2)),
        ("near_complete20 k3 relaxed", _gen("near_complete", seed=1, n=20),
         dict(k=3)),
        ("bipartite_dense6 k1 relaxed", _gen("bipartite_dense", seed=1, p=6, k=1),
         dict(k=1)),
        ("km26 k2 relaxed", km, dict(k=2)),
        ("km26+1 k3 relaxed", _with_ears(km, [(0, 1, 1)]), dict(k=3)),
        ("km26+1 k4 relaxed", _with_ears(km, [(0, 1, 1)]), dict(k=4)),
        ("km26+3 k5 relaxed", _with_ears(km, [(0, 3, 1)]), dict(k=5)),
        ("km26+1+1 k4 relaxed", _with_ears(km, [(0, 1, 2), (3, 1, 5)]),
         dict(k=4)),
        ("km26+1+1 k4 path", _with_ears(km, [(0, 1, 2), (3, 1, 5)]),
         dict(k=4, mode="path")),
        ("km26+2+2 k5 relaxed", _with_ears(km, [(0, 2, 2), (3, 2, 6)]),
         dict(k=5)),
        ("km26+1+1+1 k5 relaxed", _with_ears(km, [(0, 1, 2), (3, 1, 5), (7, 1, 9)]),
         dict(k=5)),
        ("km26+1+1+1 k5 relaxed trace", _with_ears(km, [(0, 1, 2), (3, 1, 5), (7, 1, 9)]),
         dict(k=5, with_trace=True)),
        # a 2-separator {0, 1} in the reduced core: the glue cycle of two Fan paths
        ("two K14 on {0,1} k1 relaxed", _cliques_sharing(14, 2), dict(k=1)),
        # case (iii) on the benchmark's outside_probes shape: the partitioned
        # segment DP, the outside probes and cover_side_through_pairs
        ("K8+I80+12 ears k3 relaxed", _split_with_ears(8, 12), dict(k=3)),
        ("K10+I100+16 ears k4 relaxed", _split_with_ears(10, 16), dict(k=4)),
        # three segments: the first segment system is the first state of level 3
        ("K8+I80+14 ears k5 relaxed", _split_with_ears(8, 14), dict(k=5)),
        # the engine lengthens the Dirac cycle by insertion, and find_dense
        # steps its loop on the LongerCycle
        ("gnp25 p0.3 s4 k8", _gen("gnp2c", seed=4, n=25, prob=0.3), dict(k=8)),
        # the Dirac cycle's search and the engine's both score rotation rounds
        ("gnp25 p0.1 s4 k13", _gen("gnp2c", seed=4, n=25, prob=0.1), dict(k=13)),
        # the rotation search's winning closure comes from its reversed round
        ("gnp33 p0.1 s19 k18", _gen("gnp2c", seed=19, n=33, prob=0.1), dict(k=18)),
        # the separator {0, 1} is no edge: the glue adds it to both sides
        ("two K14 on {0,1} less 01 k1", build_graph(
            [e for e in _cliques_sharing(14, 2).edges() if e != (0, 1)], 26), dict(k=1)),
        # mad 6 on K4 + I6, whose longest cycle has 8 vertices: the exact
        # fallback's search finds no 9-cycle from any root
        ("K4+I6 k3", _split(4, 6), dict(k=3)),
        # K3 + I4 cored out of an 18-vertex ear: the engine's cover {0, 1, 2}
        # has no vertex with 2|X| = 6 neighbours outside, so refinement fails
        ("K3+I4 ear18 k2", _with_ears(_split(3, 4), [(3, 18, 4)]), dict(k=2)),
        # each reduction rule removes vertices in a traced solve (rule 3 in
        # the gnp25 case); the rule-4 core, K7 and the triangle, grows from a
        # K4 only up to the triangle and has the separation pair (0, 1)
        ("K5.K5 ear20 k0 trace", rule2, dict(k=0, with_trace=True)),
        ("K5.K5 ear20 k1 trace", rule2, dict(k=1, with_trace=True)),
        ("K5.K5 ear20 k2 trace", rule2, dict(k=2, with_trace=True)),
        ("K5+K5 ears8,8 k0 trace", rule1, dict(k=0, with_trace=True)),
        ("K5+K5 ears8,8 k1 trace", rule1, dict(k=1, with_trace=True)),
        ("K5+K5 ears8,8 k2 trace", rule1, dict(k=2, with_trace=True)),
        ("K7+K3 on {0,1} ear15 k1 trace", rule4, dict(k=1, with_trace=True)),
        ("K7+K3 on {0,1} ear15 k2 trace", rule4, dict(k=2, with_trace=True)),
        ("K7+K3 on {0,1} ear15 k3 trace", rule4, dict(k=3, with_trace=True)),
        ("gnp25 p0.3 s4 k8 trace", _gen("gnp2c", seed=4, n=25, prob=0.3),
         dict(k=8, with_trace=True)),
        ("K4-01+4 on {1,3} ear20 k1 trace", guard4, dict(k=1, with_trace=True)),
        # rule 2 keeps the bowtie's first triangle, which is too small for rule 4
        ("bowtie ear20 k1 trace", _with_ears(_cliques((0, 1, 2), (2, 3, 4)), [(0, 20, 4)]),
         dict(k=1, with_trace=True)),
    ]


def _routing_cases():
    """(name, thunk returning a cycle) for chained pair sets.

    The dense hosts join and close by one-vertex detours; the sparse G(n, p)
    hosts also take the [u, v] and [u, w, v] detours, and some fail. The
    sparse bipartite hosts, with pairs inside A, take the 3-vertex A-A join
    (seed 17) or fail to join (seed 2) or to close (seed 0).
    """
    out = []
    for n, prob, seed in ((20, 0.3, 1), (20, 0.3, 2), (24, 0.35, 0), (24, 0.35, 2),
                          (30, 0.25, 0), (30, 0.25, 1)):
        h = _gen("gnp2c", seed=seed, n=n, prob=prob)
        S = random_cyclable_pairs(range(n), 3, random.Random(seed))
        out.append((f"ham gnp{n} s{seed}",
                    lambda h=h, S=S: hamiltonian_through_pairs(h, S)))
    for seed, n in ((1, 30), (2, 40), (3, 50)):
        h = _gen("near_complete", seed=seed, n=n)
        S = random_cyclable_pairs(range(n), 4, random.Random(seed))
        out.append((f"ham near_complete{n} s{seed}",
                    lambda h=h, S=S: hamiltonian_through_pairs(h, S)))
    for seed in (1, 2):
        h = _gen("bipartite_dense", seed=seed, p=10, k=2)
        S = random_cyclable_pairs(range(h.n), 2, random.Random(seed))
        out.append((f"cover bipartite_dense10 s{seed}",
                    lambda h=h, S=S: cover_side_through_pairs(h, range(10), S, k=2)))
    for seed in (17, 2, 0):
        h, S = _sparse_bipartite(seed, 6, 12, 0.35)
        out.append((f"cover sparse_bipartite6 s{seed}",
                    lambda h=h, S=S: cover_side_through_pairs(h, range(6), S, k=2)))
    return out


def _sparse_bipartite(seed, p, q, prob):
    """A host with sides range(p), range(p, p + q) and G(n, prob) edges between
    them, and a random pair set inside A."""
    rng = random.Random(seed)
    edges = [(a, b) for a in range(p) for b in range(p, p + q) if rng.random() < prob]
    S = random_cyclable_pairs(range(p), rng.randint(1, max(1, p // 2)), rng)
    return build_graph(edges, p + q), S


def _record_solve(g, kwargs):
    res = solve(g, **kwargs)
    return [res.answer, res.branch, hashlib.sha256(emit_result(res)).hexdigest()]


def _record_routing(thunk):
    try:
        cyc = list(thunk().vertices)
    except ConstructionFailure as exc:  # a failure is an output too
        return ["raise", type(exc).__name__, str(exc)]
    return ["cycle", hashlib.sha256(json.dumps(cyc).encode()).hexdigest()]


def _load():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "name,g,kwargs", [pytest.param(*case, id=case[0]) for case in _solve_cases()]
)
def test_solve_matches_golden(name, g, kwargs):
    assert _record_solve(g, kwargs) == _load()["solve"][name]


@pytest.mark.parametrize(
    "name,thunk", [pytest.param(*case, id=case[0]) for case in _routing_cases()]
)
def test_routing_matches_golden(name, thunk):
    assert _record_routing(thunk) == _load()["routing"][name]


def test_a_threshold_above_n_is_recorded_as_a_fallback_no():
    # no cycle has more than n vertices: threshold ceil(181/15) + 200 = 213 > 30
    g = _gen("gnp2c", seed=1, n=30, prob=0.4)
    assert math.ceil(mad_with_witness(g).mad) + 200 == 213 > g.n
    assert _load()["solve"]["gnp30 p0.4 s1 k200"][:2] == ["no", "fallback"]


def test_every_reduction_rule_fires_in_a_traced_golden_solve():
    fired = {step["rule"] for _, g, kw in _solve_cases() if kw.get("with_trace")
             for step in solve(g, **kw).trace}
    assert fired == {1, 2, 3, 4}


def test_fixture_covers_every_branch():
    branches = {row[1] for row in _load()["solve"].values()}
    assert {"k0", "fallback", "find_dense", "case_ii", "case_iii"} <= branches
    assert len(_load()["solve"]) == len(_solve_cases())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        "solve": {name: _record_solve(g, kw) for name, g, kw in _solve_cases()},
        "routing": {name: _record_routing(t) for name, t in _routing_cases()},
    }, indent=1, sort_keys=True) + "\n")
    print(f"recorded {FIXTURE}")
