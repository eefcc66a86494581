import random
from fractions import Fraction

import pytest

from madcycle.errors import PreconditionError
from madcycle.graph import (
    Graph,
    _lowpoint,
    avg_degree_of_set,
    blocks_and_cut_vertices,
    build_graph,
    eg_bound,
    induced_subgraph,
    is_biconnected,
    is_connected,
    subset_components,
    two_separators,
    verify_cycle_certificate,
    CycleCertificate,
)
from madcycle.reduction import (
    ALL_RULES,
    K0_RULES,
    ReductionStep,
    apply_rule,
    reduce_exhaustive,
)

from conftest import (
    bowtie,
    complete,
    random_2connected_graph,
    random_connected_graph,
    random_graph,
)


def _host_sub_eg(g: Graph, vs) -> Fraction:
    sub, _ = induced_subgraph(g, vs)
    return eg_bound(sub)


def _host_keep_densest(sub: Graph, ids, vs: frozenset[int], parts):
    """Rules 1 and 2: keep the part of greatest 2m/(n-1), ties to the part
    with the least host id, and remove the rest of vs."""
    best = min(parts, key=lambda p: (-_host_sub_eg(sub, p), min(ids[v] for v in p)))
    keep = frozenset(ids[v] for v in best)
    return keep, vs - keep


def _apply_rule_on_host(
    g: Graph, vertices, rule: int
) -> tuple[frozenset[int], frozenset[int]] | None:
    """One application of a reduction rule to the induced subgraph g[vertices].

    apply_rule when it took the host and a vertex set, built the subgraph
    and mapped its answer to host ids; its body kept verbatim, with its two
    helpers (_sub_eg and _keep_densest) renamed, as the differential
    reference.
    """
    vs = frozenset(vertices)
    if len(vs) < 2:
        return None
    sub, ids = induced_subgraph(g, vs)

    if rule == 1:
        if _lowpoint(sub)[0] is not None:  # connected; rule 2 reads the same DFS
            return None
        comps = [c for c in subset_components(sub, range(sub.n)) if len(c) >= 2]
        return _host_keep_densest(sub, ids, vs, comps) if comps else None

    if rule == 2:
        blocks, cuts = blocks_and_cut_vertices(sub)
        return _host_keep_densest(sub, ids, vs, blocks) if cuts else None

    if rule == 3:
        if sub.n < 3:
            return None
        # degree <= eg/2 = m/(n-1), in integers
        for v in range(sub.n):
            if sub.degree(v) * (sub.n - 1) <= sub.m:
                keep = vs - {ids[v]}
                return keep, frozenset({ids[v]})
        return None

    if rule == 4:
        if sub.n < 4:
            return None
        seps = two_separators(sub)
        before = eg_bound(sub)
        threshold = Fraction(2, 3) * before
        for x, y in seps:
            for comp in subset_components(sub, set(range(sub.n)) - {x, y}):
                if avg_degree_of_set(sub, comp) <= threshold:
                    # the density-preservation proof for this rule needs
                    # 2m/(n-1) > 6; below that, commit only non-decreasing
                    # applications (above it the check never fails)
                    if _host_sub_eg(sub, set(range(sub.n)) - set(comp)) < before:
                        continue
                    removed = frozenset(ids[v] for v in comp)
                    return vs - removed, removed
        return None

    raise PreconditionError(f"unknown rule {rule}")


def _on_subset(g, vertices, rule):
    """apply_rule on the induced subgraph g[vertices], its answer mapped to
    g's ids."""
    sub, ids = induced_subgraph(g, vertices)
    res = apply_rule(sub, rule)
    return None if res is None else tuple(frozenset(ids[v] for v in part) for part in res)


def _fraction_rule3(g, vertices):
    """Rule 3 of _apply_rule_on_host when it compared each degree with the
    Fraction eg_bound(sub) / 2, kept verbatim as the differential reference."""
    vs = frozenset(vertices)
    if len(vs) < 2:
        return None
    sub, ids = induced_subgraph(g, vs)
    if sub.n < 3:
        return None
    threshold = eg_bound(sub) / 2
    for v in range(sub.n):
        if sub.degree(v) <= threshold:
            keep = vs - {ids[v]}
            return keep, frozenset({ids[v]})
    return None


class TestApplyRule:
    def test_rule2_bowtie_keeps_lowest_triangle(self):
        keep, removed = apply_rule(bowtie(), 2)
        assert keep == frozenset({0, 1, 2}) and removed == frozenset({3, 4})
        sub, _ = induced_subgraph(bowtie(), keep)
        assert eg_bound(sub) == 3 == eg_bound(bowtie())

    def test_rule3_removes_low_degree(self):
        # K4 plus a vertex adjacent to two of its vertices: l_EG = 16/4 = 4
        g = build_graph(
            [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(4, 0), (4, 1)], 5
        )
        assert eg_bound(g) == 4
        keep, removed = apply_rule(g, 3)
        assert removed == frozenset({4})
        sub, _ = induced_subgraph(g, keep)
        assert eg_bound(sub) == 4

    def test_rule3_removes_what_the_fraction_form_removes(self):
        # deg * (n - 1) <= m is deg <= eg/2 = m/(n - 1), as n >= 3 there
        rng = random.Random(31)
        fired = ties = 0
        for _ in range(3000):
            n = rng.randint(1, 20)
            g = random_graph(rng, n, rng.random())
            vs = rng.sample(range(n), rng.randint(0, n))
            got = _on_subset(g, vs, 3)
            assert got == _fraction_rule3(g, vs), (g.adj, vs)
            if got is not None:
                fired += 1
                sub, ids = induced_subgraph(g, vs)
                v = ids.index(min(got[1]))
                ties += sub.degree(v) * (sub.n - 1) == sub.m
        assert fired >= 1000 and ties >= 50, (fired, ties)

    def test_rule4_removes_sparse_component(self):
        # K6 plus path x-a-y with x,y in the clique: n=7, m=17, l_EG=34/6
        g = build_graph(
            [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(0, 6), (6, 1)], 7
        )
        assert g.m == 17 and eg_bound(g) == Fraction(34, 6)
        keep, removed = apply_rule(g, 4)
        assert removed == frozenset({6})
        sub, _ = induced_subgraph(g, keep)
        assert eg_bound(sub) == 6 >= Fraction(34, 6)

    def test_rule1_needs_disconnection(self):
        assert apply_rule(complete(4), 1) is None

    def test_rule2_rejects_disconnected(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        with pytest.raises(PreconditionError):
            apply_rule(g, 2)

    def test_rule4_rejects_a_cut_vertex(self):
        # two K4s sharing vertex 3
        g = build_graph(
            [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(i, j) for i in range(3, 7) for j in range(i + 1, 7)],
            7,
        )
        with pytest.raises(PreconditionError):
            apply_rule(g, 4)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_is_none(self, n):
        assert all(apply_rule(build_graph([], n), rule) is None for rule in ALL_RULES)

    def test_unknown_rule_raises(self):
        with pytest.raises(PreconditionError):
            apply_rule(complete(3), 5)


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

    @pytest.mark.parametrize("rules", [(3, 4), (1, 3, 4), (2, 3, 4), (2,), ()])
    def test_rule_sets_must_start_with_rules_1_and_2(self, rules):
        with pytest.raises(PreconditionError):
            reduce_exhaustive(bowtie(), rules=rules)

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
        from madcycle import extract, graph
        from madcycle.density import mad_with_witness

        real, scans = graph._scan_two_separators, []

        def counted(h):
            scans.append(h)
            return real(h)

        rng = random.Random(29)
        scanned = nonempty = 0
        for i in range(100):
            if i % 2:
                g = random_2connected_graph(rng, rng.randint(5, 16), rng.uniform(0.2, 0.6))
            else:
                g = _glued(rng)
            core, trace = reduce_exhaustive(g, mad_with_witness(g).vertices)
            sub, _ = induced_subgraph(g, core)
            if sub.n < 4:
                assert sub.n == 2 or two_separators(trace.core) == []
                continue
            assert is_biconnected(sub)
            scanned += 1
            fresh = two_separators(Graph(sub.n, sub.adj))
            # the core's pairs were scanned by the reduction's last rule-4
            # round: reading them is no scan of its own, and find_dense scans
            # exactly as often as its reduction alone does
            with monkeypatch.context() as m:
                m.setattr(graph, "_scan_two_separators", counted)
                assert two_separators(trace.core) == fresh and scans == []
                h = Graph(g.n, g.adj)
                reduce_exhaustive(h, mad_with_witness(h).vertices)
                alone = len(scans)
                scans.clear()
                witness, found = extract.find_dense(Graph(g.n, g.adj), 1)
                assert two_separators(found.core) == fresh
            assert alone >= 1 and len(scans) == alone
            scans.clear()
            nonempty += bool(fresh)
            if fresh:
                assert isinstance(witness, extract.FoundCycle)
        assert scanned >= 80 and nonempty >= 20

    def test_a_returned_list_is_the_callers_own(self):
        g = _glued(random.Random(3))
        seps = two_separators(g)
        assert seps
        want = list(seps)
        seps.clear()
        seps.append((-1, -1))
        assert two_separators(g) == want
        assert two_separators(g) is not two_separators(g)


def _chain(rng):
    """Random 2-connected blocks in a row, each glued to the last at one or
    two vertices: cut vertices for rule 2, 2-separators for rule 4."""
    edges = list(random_2connected_graph(rng, rng.randint(3, 8), rng.uniform(0.3, 0.9)).edges())
    n = 1 + max(v for e in edges for v in e)
    for _ in range(rng.randint(1, 4)):
        block = random_2connected_graph(rng, rng.randint(3, 8), rng.uniform(0.3, 0.9))
        glue = rng.sample(range(n), rng.randint(1, 2))
        shift = {i: v for i, v in enumerate(glue)}
        shift.update({v: n + v - len(glue) for v in range(len(glue), block.n)})
        edges += [(shift[u], shift[v]) for u, v in block.edges()]
        n += block.n - len(glue)
    return build_graph(edges, n)


def _reduce_per_rule_on_host(g, vertices=None, rules=ALL_RULES):
    """The reduction loop as it was when every rule ran on the host as
    _apply_rule_on_host(g, vs, ...); returns (core, steps, final separators), the
    2-separators of the last core where rule 4 ran on it, else []."""
    vs = frozenset(g.vertices()) if vertices is None else frozenset(vertices)
    if len(vs) < 2:
        raise PreconditionError("reduction needs at least two vertices")
    sub, _ = induced_subgraph(g, vs)
    if sub.m == 0:
        raise PreconditionError("reduction needs at least one edge")

    steps = []
    while True:
        sub, _ = induced_subgraph(g, vs)
        before = eg_bound(sub)
        fired = None
        connected = is_connected(sub)
        for rule in sorted(rules):
            if rule == 2 and not connected:
                continue
            if rule == 4 and not is_biconnected(sub):
                continue
            res = _apply_rule_on_host(g, vs, rule)
            if res is not None:
                fired = (rule, res)
                break
        if fired is None:
            ran_rule_4 = 4 in rules and sub.n >= 4 and is_biconnected(sub)
            final_separators = two_separators(sub) if ran_rule_4 else []
            break
        rule, (keep, removed) = fired
        after = eg_bound(induced_subgraph(g, keep)[0])
        steps.append(ReductionStep(rule, removed, before, after))
        vs = keep
    return vs, steps, final_separators


def _differential_inputs():
    rng = random.Random(31)
    out = []
    for _ in range(40):
        n = rng.randint(4, 40)
        out.append(random_2connected_graph(rng, n, min(0.9, rng.uniform(5, 12) / n)))
    for _ in range(30):
        out.append(_chain(rng))
    for _ in range(15):  # two chains side by side, for rule 1
        a, b = _chain(rng), _chain(rng)
        edges = list(a.edges()) + [(a.n + u, a.n + v) for u, v in b.edges()]
        out.append(build_graph(edges, a.n + b.n))
    for i in range(40):
        if i % 2:
            out.append(random_2connected_graph(rng, rng.randint(5, 16), rng.uniform(0.2, 0.6)))
        else:
            out.append(_glued(rng))
    return out


def _outcome(rule_call):
    try:
        return rule_call()
    except PreconditionError as exc:
        return PreconditionError, str(exc)


class TestApplyRuleOnTheCore:
    def test_same_answer_as_the_host_rule_on_every_subset(self):
        # each rule on g[S], mapped to g's ids, answers as the three-argument
        # rule on the host, None and PreconditionError included
        rng = random.Random(37)
        seen = {rule: set() for rule in ALL_RULES}
        for g in _differential_inputs():
            subsets = [range(g.n), [], [rng.randrange(g.n)]]
            subsets += [rng.sample(range(g.n), rng.randint(2, g.n)) for _ in range(4)]
            for vs in subsets:
                for rule in ALL_RULES:
                    got = _outcome(lambda: _on_subset(g, vs, rule))
                    want = _outcome(lambda: _apply_rule_on_host(g, vs, rule))
                    assert got == want, (g.adj, vs, rule)
                    seen[rule].add("none" if want is None else
                                   "raises" if want[0] is PreconditionError else "fires")
        assert seen == {1: {"none", "fires"}, 2: {"none", "fires", "raises"},
                        3: {"none", "fires"}, 4: {"none", "fires", "raises"}}


class TestOneCorePerRound:
    """reduce_exhaustive builds each round's core once and runs the rules on
    it; it must reduce exactly as the loop that ran them on the host."""

    @pytest.mark.parametrize("rules", [ALL_RULES, K0_RULES], ids=["all", "k0"])
    def test_same_reduction_as_the_per_rule_host_loop(self, rules):
        from madcycle.density import mad_with_witness

        fired = set()
        for g in _differential_inputs():
            for start in (None, mad_with_witness(g).vertices):
                if start is not None and len(start) < 2:
                    continue
                core, trace = reduce_exhaustive(g, start, rules=rules)
                want_core, want_steps, want_seps = _reduce_per_rule_on_host(g, start, rules)
                assert core == want_core
                assert trace.steps == want_steps
                # the trace's core holds its pairs exactly where the
                # reduction's own rule 4 scanned it
                scanned = trace.core._seps is not None
                assert (two_separators(trace.core) if scanned else []) == want_seps
                sub, ids = induced_subgraph(g, core)
                assert trace.core_ids == ids == tuple(sorted(core))
                assert (trace.core.n, trace.core.adj) == (sub.n, sub.adj)
                fired |= {s.rule for s in trace.steps}
        assert fired == set(rules)

    def test_k0_solve_builds_the_core_once(self, monkeypatch):
        # on a G(150, 8/149) instance no rule fires, so the only proper
        # induced subgraph a k = 0 solve needs is the densest witness
        from madcycle import extract, graph, reduction, solver
        from madcycle.density import mad_with_witness
        from madcycle.instances import gen_instance

        g, _ = gen_instance("gnp2c", {"n": 150, "prob": 8 / 149}, 1)
        witness = mad_with_witness(g).vertices
        assert len(witness) < g.n
        _, trace = reduce_exhaustive(g, witness, rules=K0_RULES)
        assert trace.steps == []

        proper = []

        def counted(h, vertices):
            vs = set(vertices)
            proper.append(len(vs) < h.n)
            return graph.induced_subgraph(h, vs)

        for mod in (reduction, extract, solver):
            monkeypatch.setattr(mod, "induced_subgraph", counted, raising=False)
        res = solver.solve(g, 0)
        assert res.answer == "yes" and sum(proper) == 1
