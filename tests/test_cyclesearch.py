"""The short-detour primitive against the searches it replaced, the
exhaustive cycle search against its earlier reachability bound and its own
depth-first search, and the scored rotation search against the search that
built every closure."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madcycle import cyclesearch
from madcycle.cyclesearch import (
    _Extension,
    _closure,
    _shapes,
    closure_lengths,
    find_cycle_at_least,
    greedy_extend,
    grow_cycle,
    long_cycle_search_best,
    rotated,
    rotation_round,
    short_detour,
)
from madcycle.density import mad_with_witness
from madcycle.errors import StateBudgetExceeded
from madcycle.graph import (
    CycleCertificate,
    Graph,
    build_graph,
    induced_subgraph,
    reach,
    verify_cycle_certificate,
)
from madcycle.instances import gen_instance
from madcycle.longpaths import st_path_at_least
from madcycle.oracles import oracle_longest_st_path
from madcycle.reduction import K0_RULES, reduce_exhaustive
from madcycle.solver import solve

from conftest import (
    complete,
    complete_bipartite,
    complete_minus_matching,
    random_2connected_graph,
    random_connected_graph,
)


def _lowest_off(mask, on):
    while mask:
        v = (mask & -mask).bit_length() - 1
        if v not in on:
            return v
        mask &= mask - 1
    return None


def _bits_off(mask, on):
    return [v for v in range(mask.bit_length()) if mask >> v & 1 and v not in on]


def old_grow_cycle_edge(g: Graph, x, y, on):
    """The edge phase of grow_cycle before short_detour existed."""
    z = _lowest_off(g.masks[x] & g.masks[y], on)
    if z is not None:
        return [z]
    found = None
    us = _bits_off(g.masks[x], on)
    vs = _bits_off(g.masks[y], on)
    for u in us:
        for v in vs:
            if u == v:
                continue
            if g.has_edge(u, v):
                found = [u, v]
                break
            wcand = _lowest_off(g.masks[u] & g.masks[v], on | {u, v})
            if wcand is not None and found is None:
                found = [u, wcand, v]
        if found and len(found) == 2:
            break
    return found


def old_routing_join(gp: Graph, prev, x, banned, wide):
    """The chain join of hamiltonian_through_pairs before short_detour."""
    z = _lowest_off(gp.masks[prev] & gp.masks[x], banned)
    if z is not None:
        return [z]
    us = [w for w in gp.adj[prev] if w not in wide]
    vs = [w for w in gp.adj[x] if w not in wide]
    for u in us:
        for v in vs:
            if u != v and gp.has_edge(u, v):
                return [u, v]
    for u in us:
        for v in vs:
            if u == v:
                continue
            w = _lowest_off(gp.masks[u] & gp.masks[v], banned | {u, v})
            if w is not None:
                return [u, w, v]
    return None


def _samples(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        g = random_connected_graph(rng, rng.randint(5, 16), rng.uniform(0.15, 0.6))
        x, y = rng.sample(range(g.n), 2)
        banned = {v for v in range(g.n) if rng.random() < 0.3} | {x, y}
        yield rng, g, x, y, banned


class TestShortDetour:
    def test_matches_grow_cycle_edge_phase(self):
        shapes = Counter()
        for _, g, x, y, banned in _samples(11, 600):
            got = short_detour(g, x, y, banned, banned)
            assert got == old_grow_cycle_edge(g, x, y, banned)
            shapes[len(got or [])] += 1
        assert min(shapes[s] for s in (0, 1, 2, 3)) >= 10, shapes

    def test_matches_routing_join_with_wider_end_ban(self):
        shapes = Counter()
        for rng, g, x, y, banned in _samples(12, 600):
            wide = banned | {v for v in range(g.n) if rng.random() < 0.25}
            got = short_detour(g, x, y, banned, wide)
            assert got == old_routing_join(g, x, y, banned, wide)
            shapes[len(got or [])] += 1
        assert min(shapes[s] for s in (0, 1, 2, 3)) >= 10, shapes

    def test_detour_is_a_path_avoiding_the_bans(self):
        for rng, g, x, y, banned in _samples(13, 300):
            wide = banned | {v for v in range(g.n) if rng.random() < 0.25}
            got = short_detour(g, x, y, banned, wide)
            if got is None:
                continue
            seq = [x] + got + [y]
            assert all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))
            assert len(set(seq)) == len(seq)
            if len(got) == 1:
                assert got[0] not in banned
            else:
                assert got[0] not in wide and got[-1] not in wide
                assert all(w not in banned for w in got[1:-1])


class TestGrowCycle:
    def test_grown_cycles_are_cycles(self):
        rng = random.Random(14)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(5, 14), rng.uniform(0.3, 0.7))
            tri = [(a, b, c) for a in range(g.n) for b in g.adj[a] for c in g.adj[b]
                   if a < b and c != a and g.has_edge(a, c)]
            if not tri:
                continue
            grown = grow_cycle(g, list(tri[0]))
            assert len(set(grown)) == len(grown) >= 3
            assert all(g.has_edge(u, v) for u, v in zip(grown, grown[1:] + grown[:1]))


def old_find_cycle_at_least(g: Graph, want: int, node_budget=None):
    """find_cycle_at_least with its earlier bound, which let the reachability
    pass run through the root and so counted vertices reachable only that way."""
    want = max(want, 3)
    if g.n < want:
        return None
    full = (1 << g.n) - 1
    for root in range(g.n - want + 1):
        high = full & ~((1 << root) - 1)
        stack = [(root, 1 << root, [root])]
        while stack:
            if node_budget is not None:
                node_budget -= 1
                if node_budget <= 0:
                    return None
            v, mask, path = stack.pop()
            if len(path) >= want and g.has_edge(v, root):
                return path
            rm = reach(g, g.masks[v], high & ~mask | (1 << root))
            if not rm >> root & 1 and len(path) > 1:
                continue
            if len(path) + (rm & ~mask).bit_count() < want:
                continue
            for w in reversed(g.adj[v]):
                if w > root and not mask >> w & 1:
                    stack.append((w, mask | (1 << w), path + [w]))
    return None


# find_cycle_at_least as it was before it ran on the shared colourful-path
# search, copied verbatim: a depth-first search of its own over paths, with
# no dead states, that counts popped paths against node_budget.


def dfs_find_cycle_at_least(
    g: Graph, want: int, node_budget: int | None = None
) -> list[int] | None:
    """DFS search for any cycle with >= want vertices, reachability-pruned.

    Exhaustive (hence an exact 'no' on return None) when node_budget is None;
    with a budget it is a best-effort finder. Roots each cycle at its minimum
    vertex.
    """
    want = max(want, 3)
    if g.n < want:
        return None

    full = (1 << g.n) - 1
    for root in range(g.n - want + 1):
        high = full & ~((1 << root) - 1)  # vertices >= root only
        stack: list[tuple[int, int, list[int]]] = [(root, 1 << root, [root])]
        while stack:
            if node_budget is not None:
                node_budget -= 1
                if node_budget <= 0:
                    return None
            v, mask, path = stack.pop()
            if len(path) >= want and g.has_edge(v, root):
                return path
            # the cycle still needs more vertices: they are unused vertices
            # above root, reached from v without passing root, and the last
            # one is a neighbour of root
            rm = reach(g, g.masks[v], high & ~mask)
            if not g.masks[root] & rm or len(path) + rm.bit_count() < want:
                continue
            for w in reversed(g.adj[v]):
                if w > root and not mask >> w & 1:
                    stack.append((w, mask | (1 << w), path + [w]))
    return None


def _ear_on_k20_minus_matching():
    """K20 minus the matching {(0,1), (2,3), ...}, plus vertex 20 on 0 and 1:
    Hamiltonian, and 20 is reachable from the rest only through 0 or 1."""
    g = complete_minus_matching(20)
    return build_graph(list(g.edges()) + [(0, 20), (1, 20)], 21)


class TestFindCycleAtLeast:
    def test_vertex_behind_the_root_does_not_stall_the_search(self):
        g = _ear_on_k20_minus_matching()
        found = find_cycle_at_least(g, 21, state_budget=1000)
        assert found is not None and sorted(found) == list(range(21))
        assert all(g.has_edge(a, b) for a, b in zip(found, found[1:] + found[:1]))
        assert old_find_cycle_at_least(g, 21, node_budget=1000) is None

    def test_matches_the_earlier_bound(self):
        # the tighter bound prunes only branches that cannot close a long
        # enough cycle, so the depth-first order finds the same cycle
        rng = random.Random(15)
        found = 0
        for _ in range(300):
            g = random_connected_graph(rng, rng.randint(4, 14), rng.uniform(0.2, 0.7))
            want = rng.randint(3, g.n)
            got = find_cycle_at_least(g, want)
            assert got == old_find_cycle_at_least(g, want)
            found += got is not None
            # with a budget, whatever the earlier bound finds is found too
            old = old_find_cycle_at_least(g, want, node_budget=40)
            if old is not None:
                assert find_cycle_at_least(g, want, state_budget=40) == old
        assert 100 <= found <= 280, found

    def test_same_cycle_as_its_own_dfs(self):
        # both are depth-first in the same order and prune only states that
        # cannot close a long enough cycle, and the shared search pushes only
        # states the old search pops, so a budget of B pops is enough states
        rng = random.Random(16)
        found = tripped = 0
        for _ in range(1000):
            g = random_connected_graph(rng, rng.randint(4, 16), rng.uniform(0.15, 0.8))
            want = rng.randint(3, g.n + 1)
            got = find_cycle_at_least(g, want)
            assert got == dfs_find_cycle_at_least(g, want)
            found += got is not None
            budget = rng.choice([2, 10, 40, 200])
            old = dfs_find_cycle_at_least(g, want, node_budget=budget)
            if old is not None:
                assert find_cycle_at_least(g, want, state_budget=budget) == old
            elif got is not None:
                tripped += 1
        assert 300 <= found <= 900, found
        assert tripped >= 100, tripped

    def test_k68_has_no_13_cycle_within_the_budget(self):
        # the circumference of K_{6,8} is 12; the old search popped over
        # 4.6 million paths to show it, the shared one pushes 13,808 states
        g = complete_bipartite(6, 8)
        assert find_cycle_at_least(g, 13, state_budget=20_000) is None
        assert find_cycle_at_least(g, 12, state_budget=20_000) is not None
        with pytest.raises(StateBudgetExceeded):
            find_cycle_at_least(g, 13, state_budget=1000)


class TestFindStPathAtLeast:
    def test_exact_against_the_oracle(self):
        rng = random.Random(19)
        found = 0
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.7))
            s, t = rng.sample(range(g.n), 2)
            want = rng.randint(2, g.n)
            got = st_path_at_least(g, s, t, want)  # raises past the budget
            if oracle_longest_st_path(g, s, t) < want:
                assert got is None
                continue
            found += 1
            got = got.vertices
            assert got[0] == s and got[-1] == t and len(got) >= want
            assert len(set(got)) == len(got)
            assert all(g.has_edge(a, b) for a, b in zip(got, got[1:]))
        assert 40 <= found <= 180, found


# The rotation search as it was when it built every closure of every
# rotation variant, copied verbatim (greedy_extend and grow_cycle are
# unchanged and shared).


def old_rotation_round(g: Graph, path: list[int], step_budget: list[int]):
    on = set(path)
    variants = {path[-1]: path}
    queue = [path[-1]]
    qi = 0
    while qi < len(queue):
        if step_budget[0] <= 0:
            break
        end = queue[qi]
        qi += 1
        p = variants[end]
        for w in g.adj[end]:
            if w not in on:
                return "extend", p + [w]
        pos = {v: i for i, v in enumerate(p)}
        for w in g.adj[end]:
            i = pos[w]
            if i + 1 >= len(p) - 1:
                continue
            new_end = p[i + 1]
            if new_end in variants:
                continue
            step_budget[0] -= 1
            variants[new_end] = p[: i + 1] + p[: i : -1]
            queue.append(new_end)
    return "stuck", variants


def old_closures(g: Graph, path: list[int]) -> list[list[int]]:
    out = []
    u, w = path[0], path[-1]
    l = len(path) - 1
    if l + 1 >= 3 and g.has_edge(u, w):
        out.append(list(path))
    mu, mw = g.masks[u], g.masks[w]
    a_idx = [i for i in range(1, l + 1) if mu >> path[i] & 1]
    b_idx = [i for i in range(0, l) if mw >> path[i] & 1]
    best = None
    j = 0
    for a in a_idx:
        while j < len(b_idx) and b_idx[j] < a:
            j += 1
        if j > 0:
            b = b_idx[j - 1]
            if best is None or a - b < best[0]:
                best = (a - b, a, b)
    if best is not None:
        _, a, b = best
        cyc = path[: b + 1] + path[l : a - 1 : -1]
        if len(cyc) >= 3:
            out.append(cyc)
    if a_idx:
        a = a_idx[-1]
        if a + 1 >= 3:
            out.append(path[: a + 1])
    if b_idx:
        b = b_idx[0]
        if l - b + 1 >= 3:
            out.append(path[b:])
    return out


def mask_closure(g: Graph, root: list[int], cuts, flip: bool, idx: int) -> list[int]:
    """_closure as it read the two end masks, kept verbatim."""
    path = rotated(root, cuts)
    if flip:
        path = path[::-1]
    l = len(path) - 1
    mu, mw = g.masks[path[0]], g.masks[path[-1]]
    a_idx = [i for i, v in enumerate(path) if mu >> v & 1]
    b_idx = [i for i, v in enumerate(path) if mw >> v & 1]
    s, e, t = _shapes(l, g.has_edge(path[0], path[-1]), a_idx, b_idx)[idx]
    return path[s:e] + path[l : t - 1 : -1]


def old_reopen(g: Graph, cycle: list[int]) -> list[int] | None:
    on = set(cycle)
    for idx, c in enumerate(cycle):
        for w in g.adj[c]:
            if w not in on:
                return [w] + cycle[idx:] + cycle[:idx]
    return None


def old_long_cycle_search_best(
    g: Graph, want: int, rotation_budget: int = 0
) -> list[int] | None:
    if g.n < 3:
        return None
    budget = [rotation_budget if rotation_budget > 0 else 50 * g.n]
    best: list[int] | None = None
    path = greedy_extend(g, [0])
    guard = 0
    while guard <= 2 * g.n + 5:
        guard += 1
        while True:
            res, payload = old_rotation_round(g, path, budget)
            if res == "extend":
                path = greedy_extend(g, payload)
                continue
            variants_last = payload
            res, payload = old_rotation_round(g, path[::-1], budget)
            if res == "extend":
                path = greedy_extend(g, payload)
                continue
            variants_first = payload
            break
        candidates: list[list[int]] = []
        full = None
        for var in list(variants_last.values()) + [
            p[::-1] for p in variants_first.values()
        ]:
            for c in old_closures(g, var):
                candidates.append(c)
                if len(c) == len(var) and (full is None or len(c) > len(full)):
                    full = c
        for c in candidates:
            if best is None or len(c) > len(best):
                best = c
        if best is not None and len(best) >= want:
            return best
        if full is not None and len(full) < g.n:
            reopened = old_reopen(g, full)
            if reopened is not None and len(reopened) > len(path):
                path = greedy_extend(g, reopened)
                continue
        if best is not None:
            grown = grow_cycle(g, best, target=want)
            if len(grown) > len(best):
                best = grown
                if len(best) >= want:
                    return best
            if len(grown) >= len(path) and len(grown) < g.n:
                reopened = old_reopen(g, grown)
                if reopened is not None and len(reopened) > len(path):
                    path = greedy_extend(g, reopened)
                    continue
        break
    return best


@st.composite
def _graph_path_cuts(draw):
    """A random graph, a sequence of its vertices and rotation cuts on it."""
    n = draw(st.integers(3, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(draw(st.lists(st.sampled_from(pairs), unique=True)), n)
    path = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    cuts = tuple(draw(st.lists(st.integers(0, len(path) - 1), max_size=4)))
    return g, path, cuts


class TestClosureLengths:
    @settings(max_examples=400, deadline=None)
    @given(_graph_path_cuts(), st.booleans())
    def test_scorer_equals_built_closures(self, case, flip):
        g, path, cuts = case
        var = rotated(path, cuts)
        pos = {v: i for i, v in enumerate(path)}
        got = closure_lengths(g, path, pos, (var[-1], cuts), flip)
        built = old_closures(g, var[::-1] if flip else var)
        assert got == [len(c) for c in built]
        # each shape builds the closure it scores
        for idx, c in enumerate(built):
            assert _closure(g, path, cuts, flip, idx) == c

    @settings(max_examples=400, deadline=None)
    @given(_graph_path_cuts(), st.booleans())
    def test_closure_equals_the_mask_body(self, case, flip):
        g, path, cuts = case
        g = Graph(g.n, g.adj)  # masks not yet built
        shapes = len(closure_lengths(g, path, {v: i for i, v in enumerate(path)},
                                     (rotated(path, cuts)[-1], cuts), flip))
        got = [_closure(g, path, cuts, flip, idx) for idx in range(shapes)]
        assert g._masks is None  # the closures read the adjacency only
        assert got == [mask_closure(g, path, cuts, flip, idx) for idx in range(shapes)]


def _k0_core(seed):
    g, _ = gen_instance("gnp2c", {"n": 150, "prob": 8 / 149}, seed)
    core, _ = reduce_exhaustive(g, mad_with_witness(g).vertices, rules=K0_RULES)
    return induced_subgraph(g, core)[0]


def _wants(rng, g):
    dirac = max(3, min(g.n, 2 * g.min_degree()))
    return {dirac, g.n, rng.randint(3, g.n)}


def _assert_early_return_only(g, got, want, budget):
    """The search against the parent's, which ran its rounds before it
    scored any closure: a result short of want is the parent's, and where
    the parent reached want the search does too, with a cycle of g."""
    old = old_long_cycle_search_best(g, want, budget)
    if got is None or len(got) < want:
        assert got == old
    if old is not None and len(old) >= want:
        assert got is not None and len(got) >= want
        assert verify_cycle_certificate(g, CycleCertificate(tuple(got), want))


class TestRotationSearch:
    def test_variants_equal_the_built_rotations(self):
        rng = random.Random(21)
        for _ in range(150):
            n = rng.randint(5, 40)
            g = random_connected_graph(rng, n, rng.uniform(2.5, 8) / n)
            path = greedy_extend(g, [rng.randrange(n)])
            budget = rng.choice([1, 3, 1000])
            old_res, old = old_rotation_round(g, path, [budget])
            try:
                variants = list(rotation_round(g, path, [budget]))
            except _Extension as ext:
                assert old_res == "extend"
                assert ext.args[0] == old
                continue
            assert old_res == "stuck"
            assert [end for end, _ in variants] == list(old)
            assert [rotated(path, cuts) for _, cuts in variants] == list(old.values())

    def test_same_cycle_as_building_every_closure(self):
        rng = random.Random(33)
        short = 0
        for _ in range(120):
            n = rng.randint(5, 60)
            g = random_2connected_graph(rng, n, min(1.0, rng.uniform(3, 9) / n))
            for want in _wants(rng, g):
                for budget in (1, 5, 0):
                    got = long_cycle_search_best(g, want, rotation_budget=budget)
                    _assert_early_return_only(g, got, want, budget)
                    # a search that falls short ran every round it could
                    short += got is not None and len(got) < want
        assert short >= 20, short

    def test_short_results_are_growth_fixpoints(self):
        # the search grows its best cycle before it gives up, so growing a
        # short result again never lengthens it
        rng = random.Random(33)
        short = 0
        for _ in range(120):
            n = rng.randint(5, 60)
            g = random_2connected_graph(rng, n, min(1.0, rng.uniform(3, 9) / n))
            for want in _wants(rng, g):
                for budget in (1, 5, 0):
                    got = long_cycle_search_best(g, want, rotation_budget=budget)
                    if got is not None and len(got) < want:
                        short += 1
                        assert grow_cycle(g, got, target=want) == got
        assert short >= 20, short

    def test_same_cycle_on_sparse_k0_cores(self):
        rng = random.Random(47)
        for seed in (1, 2, 3):
            core = _k0_core(seed)
            assert core.n >= 100
            for want in _wants(rng, core):
                for budget in (1, 5, 0):
                    got = long_cycle_search_best(core, want, rotation_budget=budget)
                    _assert_early_return_only(core, got, want, budget)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sparse_k0_solves_run_no_rotation_round(self, monkeypatch, seed):
        # the golden gnp150 k = 0 solves need floor(mad)+1 vertices, which the
        # first greedy path closes; a Hamiltonian cycle of the core takes 28
        # rounds
        rounds = [0]
        real = cyclesearch.rotation_round

        def counting(*args):
            rounds[0] += 1
            return real(*args)

        monkeypatch.setattr(cyclesearch, "rotation_round", counting)
        g, _ = gen_instance("gnp2c", {"n": 150, "prob": 0.054}, seed)
        res = solve(g, 0)
        assert res.answer == "yes" and res.branch == "k0"
        assert len(res.certificate) >= res.threshold_len
        assert rounds[0] == 0

    def test_spanning_rounds_expand_only_the_variants_scored(self, monkeypatch):
        # once the path spans g no variant can extend, so each round is
        # read lazily: every variant found (one budget step each) is one
        # `_score` reads, and variant 0 of a round is read for free
        first_spanning, reads = [], [0]
        real_round, real_lengths = cyclesearch.rotation_round, cyclesearch.closure_lengths

        def counting_round(g, path, step_budget):
            if len(path) == g.n and not first_spanning:
                first_spanning.append((step_budget, step_budget[0]))
            return real_round(g, path, step_budget)

        def counting_lengths(g, root, pos, var, flip=False):
            reads[0] += len(root) == g.n
            return real_lengths(g, root, pos, var, flip)

        monkeypatch.setattr(cyclesearch, "rotation_round", counting_round)
        monkeypatch.setattr(cyclesearch, "closure_lengths", counting_lengths)
        rng = random.Random(5)
        graphs = [complete(30), complete_minus_matching(40)] + [
            random_2connected_graph(rng, n, rng.uniform(0.3, 0.9))
            for n in (rng.randint(6, 40) for _ in range(150))
        ]
        past_first = 0
        for g in graphs:
            first_spanning.clear()
            reads[0] = 0
            got = long_cycle_search_best(g, g.n + 1, rotation_budget=1000)
            assert first_spanning, "the search reached a spanning path"
            budget, start = first_spanning[0]
            assert start - budget[0] < reads[0]
            past_first += reads[0] > 1 and len(got) == g.n
        assert past_first >= 5, past_first
