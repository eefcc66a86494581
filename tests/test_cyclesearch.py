"""The short-detour primitive against the searches it replaced, and the
exhaustive cycle search against its earlier reachability bound."""

from __future__ import annotations

import random
from collections import Counter

from madcycle.cyclesearch import find_cycle_at_least, grow_cycle, short_detour
from madcycle.graph import Graph, build_graph, reach

from conftest import complete_minus_matching, random_connected_graph


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
    def test_grown_cycles_are_cycles_avoiding_forbidden_edges(self):
        rng = random.Random(14)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(5, 14), rng.uniform(0.3, 0.7))
            tri = [(a, b, c) for a in range(g.n) for b in g.adj[a] for c in g.adj[b]
                   if a < b and c != a and g.has_edge(a, c)]
            if not tri:
                continue
            a, b, c = tri[0]
            grown = grow_cycle(g, [a, b, c], forbidden_pairs={(a, b)})
            assert len(set(grown)) == len(grown) >= 3
            assert all(g.has_edge(u, v) for u, v in zip(grown, grown[1:] + grown[:1]))
            pos = {v: i for i, v in enumerate(grown)}
            assert (pos[a] - pos[b]) % len(grown) in (1, len(grown) - 1)


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


def _ear_on_k20_minus_matching():
    """K20 minus the matching {(0,1), (2,3), ...}, plus vertex 20 on 0 and 1:
    Hamiltonian, and 20 is reachable from the rest only through 0 or 1."""
    g = complete_minus_matching(20)
    return build_graph(list(g.edges()) + [(0, 20), (1, 20)], 21)


class TestFindCycleAtLeast:
    def test_vertex_behind_the_root_does_not_stall_the_search(self):
        g = _ear_on_k20_minus_matching()
        found = find_cycle_at_least(g, 21, node_budget=1000)
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
                assert find_cycle_at_least(g, want, node_budget=40) == old
        assert 100 <= found <= 280, found
