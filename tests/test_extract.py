import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from madcycle import cyclesearch, extract, longpaths
from madcycle.cyclesearch import find_cycle_at_least, grow_cycle
from madcycle.density import mad_with_witness
from madcycle.errors import (
    ConstructionFailure,
    EngineIncomplete,
    PreconditionError,
    StateBudgetExceeded,
)
from madcycle.extract import (
    BipartiteDense,
    FoundCycle,
    Hamiltonian,
    LongerCycle,
    SmallDense,
    VertexCover,
    corollary5_engine,
    find_dense,
    refine_vertex_cover_to_partition,
)
from madcycle.graph import (
    CycleCertificate,
    avg_degree,
    build_graph,
    certify,
    induced_subgraph,
    is_biconnected,
    two_separators,
    verify_cycle_certificate,
)
from madcycle.longpaths import dirac_cycle

from conftest import (
    complete,
    complete_bipartite,
    complete_minus_matching,
    petersen,
    random_block_tree,
    random_graph,
    split_graph,
)


class TestEngine:
    def test_hamiltonian_outcome(self):
        g = complete(30)
        c = CycleCertificate(tuple(range(30)), 3)
        out = corollary5_engine(g, 1, c)
        assert isinstance(out, Hamiltonian)

    def test_k60_longer_cycle(self):
        g = complete(60)
        c = CycleCertificate(tuple(range(59)), 3)
        out = corollary5_engine(g, 2, c)
        assert isinstance(out, LongerCycle) and len(out.cycle) == 60

    def test_split_graph_cover(self):
        g = split_graph(8, 80)
        c = dirac_cycle(g)
        out = corollary5_engine(g, 1, c)
        assert isinstance(out, VertexCover)
        assert out.vertices == frozenset(range(8))
        assert len(out.vertices) <= g.min_degree() + 2

    def test_outcomes_always_sound(self):
        rng = random.Random(15)
        for _ in range(15):
            n = rng.randint(6, 14)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.75
            ]
            g = build_graph(edges, n)
            try:
                c = dirac_cycle(g)
            except PreconditionError:
                continue
            if len(c) >= g.n:
                continue
            try:
                out = corollary5_engine(g, 1, c)
            except EngineIncomplete:
                continue
            if isinstance(out, LongerCycle):
                assert len(out.cycle) > len(c)
                assert verify_cycle_certificate(g, out.cycle)
            elif isinstance(out, VertexCover):
                assert all(
                    u in out.vertices or v in out.vertices for u, v in g.edges()
                )
                assert len(out.vertices) <= g.min_degree() + 2
            else:
                assert isinstance(out, Hamiltonian) and len(c) == g.n

    def test_growth_longer_cycle(self):
        # C10 plus a vertex on the edge 01: 2*delta < n, and one insertion
        # move lengthens the cycle
        g = build_graph([(i, (i + 1) % 10) for i in range(10)] + [(0, 10), (1, 10)], 11)
        c = CycleCertificate(tuple(range(10)), 3)
        out = corollary5_engine(g, 1, c)
        assert isinstance(out, LongerCycle) and len(out.cycle) == 11
        assert verify_cycle_certificate(g, out.cycle)

    def test_rotation_search_longer_cycle(self):
        # C8 plus an outside path 0-8-9-10-11-12-4: no local move lengthens
        # the C8, but the rotation search finds the cycle through the path
        e = [(i, (i + 1) % 8) for i in range(8)]
        e += [(0, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 4)]
        g = build_graph(e, 13)
        assert grow_cycle(g, list(range(8)), target=9) == list(range(8))
        c = CycleCertificate(tuple(range(8)), 3)
        out = corollary5_engine(g, 1, c)
        assert isinstance(out, LongerCycle) and len(out.cycle) > 8
        assert verify_cycle_certificate(g, out.cycle)

    def test_incomplete_without_longer_cycle_or_small_cover(self):
        # the Petersen graph has 9-cycles but no 10-cycle, and its least
        # vertex cover has 6 > delta + 2k = 5 vertices
        g = petersen()
        c = CycleCertificate(tuple(find_cycle_at_least(g, 9)), 9)
        assert verify_cycle_certificate(g, c) and len(c) == 9
        with pytest.raises(EngineIncomplete, match="no vertex cover of size <= 5"):
            corollary5_engine(g, 1, c)
        assert find_cycle_at_least(g, 10) is None
        assert _min_cover_size(g) == 6

    def test_incomplete_where_the_greedy_cover_is_too_large(self):
        # the greedy cover {0, 1, 2, 3, 5} exceeds delta + 2k = 4, and growth
        # fails from a longest cycle, an 8-cycle: the engine gives up,
        # although {0, 1, 6, 7} is a cover, as it runs no exact cover search
        g = _cover_graph()
        c = CycleCertificate((3, 6, 2, 7, 5, 1, 8, 0), 3)
        assert len(extract._greedy_cover(g)) == 5 > g.min_degree() + 2
        assert _min_cover_size(g) == 4 and 8 < 2 * 5
        with pytest.raises(EngineIncomplete, match="no vertex cover of size <= 4"):
            corollary5_engine(g, 1, c)

    def test_dirac_cycle_of_the_cover_graph_stops_at_its_bound(self):
        # 2*delta = 4: the first greedy path closes into a 5-cycle, from which
        # the engine finds a longer cycle instead of a cover
        g = _cover_graph()
        c = dirac_cycle(g)
        assert c.vertices == (6, 2, 0, 1, 3) and c.claimed_min_length == 4
        assert isinstance(corollary5_engine(g, 1, c), LongerCycle)

    def test_incomplete_where_a_smaller_cover_than_the_greedy_one_exists(self):
        # a small core, found by random search, with a 6-vertex cover and a
        # 7-vertex greedy cover; its longest cycle misses vertex 10, so
        # growth fails, and the 7 > delta + 2k = 6 greedy vertices end the
        # engine: it runs no exact cover search
        g = build_graph(
            [(0, v) for v in (4, 5, 6, 8, 9, 10)] + [(1, v) for v in (2, 3, 6, 7)]
            + [(2, 3), (2, 6), (2, 7)] + [(3, v) for v in (4, 5, 6, 8, 9, 10)]
            + [(4, 5), (4, 7), (4, 8), (5, 7), (5, 8)],
            11,
        )
        c = CycleCertificate((0, 9, 3, 6, 2, 1, 7, 5, 8, 4), 3)
        assert verify_cycle_certificate(g, c) and find_cycle_at_least(g, 11) is None
        assert len(extract._greedy_cover(g)) == 7 and g.min_degree() == 2
        assert all(u < 6 or v < 6 for u, v in g.edges())
        with pytest.raises(EngineIncomplete, match="no vertex cover of size <= 6"):
            corollary5_engine(g, 2, c)
        # no cover has delta + 2 = 4 vertices
        assert _min_cover_size(g) == 6
        with pytest.raises(EngineIncomplete, match="no vertex cover of size <= 4"):
            corollary5_engine(g, 1, c)

    def test_runs_without_corollary_preconditions(self):
        # k = 1 > delta/24 on K10: the engine still answers, and soundly
        g = complete(10)
        c = CycleCertificate(tuple(range(9)), 3)
        out = corollary5_engine(g, 1, c)
        assert isinstance(out, LongerCycle) and len(out.cycle) == 10
        assert verify_cycle_certificate(g, out.cycle)


def _min_cover_size(g) -> int:
    edges = list(g.edges())
    for size in range(g.n + 1):
        for c in combinations(range(g.n), size):
            if all(u in c or v in c for u, v in edges):
                return size


def _parent_greedy_cover(h):
    """extract._greedy_cover before it ran over live degrees, verbatim."""
    deg = {v: h.degree(v) for v in h.vertices()}
    uncovered = {(u, v) for u, v in h.edges()}
    incident: dict[int, set[tuple[int, int]]] = {v: set() for v in h.vertices()}
    for e in uncovered:
        incident[e[0]].add(e)
        incident[e[1]].add(e)
    greedy: set[int] = set()
    live = dict(deg)
    while uncovered:
        v = max(sorted(live), key=lambda x: live[x])
        greedy.add(v)
        for e in list(incident[v]):
            if e in uncovered:
                uncovered.remove(e)
                a = e[0] if e[1] == v else e[1]
                live[a] -= 1
        live[v] = -1
    matched: set[int] = set()
    match_cover: set[int] = set()
    for u, v in h.edges():
        if u not in matched and v not in matched:
            matched |= {u, v}
            match_cover |= {u, v}
    return greedy if len(greedy) <= len(match_cover) else match_cover


def _parent_bounded_min_cover(h, bound):
    """The engine's exact cover search (extract._bounded_min_cover, since
    deleted) before it returned its cover, verbatim."""
    edges = list(h.edges())

    def lower_bound(uncov):
        matched = set()
        size = 0
        for u, v in uncov:
            if u not in matched and v not in matched:
                matched |= {u, v}
                size += 1
        return size

    best: set[int] | None = None

    def rec(chosen: set[int], uncov: list[tuple[int, int]], limit: int):
        nonlocal best
        if best is not None:
            return
        if not uncov:
            best = set(chosen)
            return
        if limit <= 0 or lower_bound(uncov) > limit:
            return
        deg: dict[int, int] = {}
        for u, v in uncov:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        v = max(sorted(deg), key=lambda x: deg[x])
        rec(chosen | {v}, [e for e in uncov if v not in e], limit - 1)
        if best is not None:
            return
        # without v, every neighbour not yet chosen must join the cover
        nbrs = set(h.adj[v]) - chosen
        if len(nbrs) <= limit:
            rec(
                chosen | nbrs,
                [e for e in uncov if e[0] not in nbrs and e[1] not in nbrs],
                limit - len(nbrs),
            )

    rec(set(), edges, bound)
    return best


def _or_reason(f, *args):
    """f(*args), or the reason of the EngineIncomplete it raises."""
    try:
        return f(*args)
    except EngineIncomplete as exc:
        return str(exc)


def _parent_refine(h, X, k):
    """refine_vertex_cover_to_partition before its A-degree re-check was
    dropped, verbatim but for the shape of its outcome: (A, B), or
    EngineIncomplete with the reason."""
    X = frozenset(X)
    for u, v in h.edges():
        if u not in X and v not in X:
            raise PreconditionError(f"X is not a vertex cover: edge ({u},{v}) uncovered")
    ad = avg_degree(h)
    if Fraction(2 * len(X)) > ad + 3 * k + 3:
        raise EngineIncomplete("cover refinement failed: cover too large: |X| > (ad+3k+3)/2")
    B = frozenset(h.vertices()) - X
    p = len(X)
    A = frozenset(
        v for v in X if sum(1 for w in h.adj[v] if w in B) >= 2 * p
    )
    if not A:
        raise EngineIncomplete(
            "cover refinement failed: no cover vertex has 2|X| neighbors outside"
        )
    for v in A:
        if sum(1 for w in h.adj[v] if w in B) < 2 * len(A):
            raise EngineIncomplete("cover refinement failed: A-degree bound failed")
    for v in B:
        if sum(1 for w in h.adj[v] if w in A) < len(A) - 2 * k - 2:
            raise EngineIncomplete(
                f"cover refinement failed: vertex {v} has degree below |A|-2k-2 into A"
            )
    return A, B


def _cover_graph():
    """Ten vertices whose greedy cover is too large for the engine's bound
    and whose longest cycle has 8 vertices."""
    return build_graph(
        [(0, v) for v in (1, 2, 3, 4, 6, 7, 8, 9)]
        + [(1, v) for v in (2, 3, 4, 5, 6, 7, 8, 9)]
        + [(2, 6), (2, 7), (3, 6), (5, 7)],
        10,
    )


def _parent_engine(h, k, C, budget=None):
    """extract.corollary5_engine before the cover bound skipped growth,
    verbatim but for raising EngineIncomplete, checking by certify and
    calling the verbatim _parent_bounded_min_cover."""
    chk = verify_cycle_certificate(h, C)
    if not chk:
        raise PreconditionError(f"C is not a cycle of h: {chk.reason}")
    delta = h.min_degree()
    if budget is None:
        budget = 200 * h.n

    if len(C) == h.n:
        return Hamiltonian()

    if 2 * delta >= h.n:
        ham = longpaths.dirac_cycle(h)
        if len(ham) > len(C):
            return LongerCycle(ham)

    grown = cyclesearch.grow_cycle(h, list(C.vertices), target=len(C) + 1)
    if len(grown) > len(C):
        return LongerCycle(certify(h, CycleCertificate(tuple(grown), len(C) + 1)))

    found = cyclesearch.long_cycle_search_best(h, len(C) + 1, rotation_budget=budget)
    if found is not None and len(found) > len(C):
        return LongerCycle(certify(h, CycleCertificate(tuple(found), len(C) + 1)))

    bound = delta + 2 * k
    cover = extract._greedy_cover(h)
    if len(cover) <= bound:
        return VertexCover(frozenset(cover))
    cover = _parent_bounded_min_cover(h, bound)
    if cover is not None:
        return VertexCover(frozenset(cover))
    raise EngineIncomplete(
        f"no longer cycle within budget and no vertex cover of size <= {bound}"
    )


def _engine_graph(rng):
    """A random graph on at most 30 vertices: G(n, p), or a few hub vertices
    with a random edge set among them and to an independent rest, whose
    small covers let the 2|X| bound settle the engine's search."""
    n = rng.randint(4, 30)
    if rng.random() < 0.5:
        return random_graph(rng, n, rng.uniform(0.15, 0.9))
    a, p = rng.randint(2, max(2, n // 3)), rng.uniform(0.5, 1)
    edges = [(i, j) for i in range(a) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(edges, n)


def _engine_cycle(rng, g):
    """The rotation search's cycle of a 2-connected g, run through all its
    rounds (no cycle reaches n + 1), else some cycle of at least a random
    length, or None."""
    if is_biconnected(g) and rng.random() < 0.5:
        found = cyclesearch.long_cycle_search_best(g, g.n + 1)
        return CycleCertificate(tuple(found), 3)
    try:
        found = find_cycle_at_least(g, rng.randint(3, max(3, g.n)), 500)
    except StateBudgetExceeded:
        return None
    return None if found is None else CycleCertificate(tuple(found), 3)


def _outside_probe_cores():
    """The graphs the engine sees on clique + independent set + one-vertex
    ears, the shapes the outside-path probes and segment DP run on."""
    rng = random.Random(1212)
    cores = []
    for a, ears, k in ((8, 12, 3), (10, 12, 5), (8, 14, 5), (10, 16, 4)):
        b = 10 * a
        n = a + b
        edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
        edges += [(i, a + j) for i in range(a) for j in range(b)]
        ends = rng.sample(range(a, a + b), 2 * ears)
        for u, v in zip(ends[::2], ends[1::2]):
            edges += [(u, n), (n, v)]
            n += 1
        perm = list(range(n))
        rng.shuffle(perm)
        cores.append((build_graph([(perm[u], perm[v]) for u, v in edges], n), k))
    return cores


def _assert_same_cover_side(h, ks):
    greedy = extract._greedy_cover(h)
    assert greedy == _parent_greedy_cover(h)
    for k in ks:
        assert (_or_reason(refine_vertex_cover_to_partition, h, greedy, k)
                == _or_reason(_parent_refine, h, greedy, k))


class TestCoverSideAgainstParent:
    def test_random_graphs(self):
        rng = random.Random(22)
        for _ in range(2000):
            n = rng.randint(2, 30)
            g = random_graph(rng, n, rng.random())
            _assert_same_cover_side(g, (0, rng.randint(1, 4)))

    def test_split_graphs_with_ears(self, monkeypatch):
        real, seen = extract.corollary5_engine, []

        def record(h, k, C):
            seen.append((h, k, C))
            return real(h, k, C)

        monkeypatch.setattr(extract, "corollary5_engine", record)
        plain = [(split_graph(a, b), 2) for a, b in ((6, 50), (8, 80), (10, 95))]
        for g, k in _outside_probe_cores() + plain:
            seen.clear()
            w, _ = find_dense(g, k)
            assert isinstance(w, BipartiteDense) and len(seen) == 1
            h, k_prime, c = seen[0]
            _assert_same_cover_side(h, (k - 1, k, k + 1))
            # the Dirac cycle is already twice the cover, so the engine skips
            # growth, and answers as the parent's did after its searches
            assert len(c) >= 2 * len(extract._greedy_cover(h))
            assert real(h, k_prime, c) == _parent_engine(h, k_prime, c)


def _against_parent(g, k, c):
    """(outcome, dropped): the engine's outcome on (g, k, c), checked against
    the parent's: the same type and the same cycle, cover or reason, except
    in two places. Where the parent re-dispatched to a Dirac cycle (2 delta
    >= n, c not Hamiltonian), the engine grows c itself, to a longer cycle.
    Where the parent's exact search found a cover that the greedy cover
    missed (dropped), the engine raises EngineIncomplete."""
    out = _or_reason(corollary5_engine, g, k, c)
    if len(c) < g.n and 2 * g.min_degree() >= g.n:
        assert isinstance(out, LongerCycle) and len(out.cycle) > len(c), (g.adj, c, k)
        return out, False
    parent = _or_reason(_parent_engine, g, k, c)
    bound = g.min_degree() + 2 * k
    dropped = isinstance(parent, VertexCover) and len(extract._greedy_cover(g)) > bound
    if dropped:
        assert len(c) < 2 * len(extract._greedy_cover(g)), (g.adj, c, k)
        assert out == (
            f"no longer cycle within budget and no vertex cover of size <= {bound}"
        ), (g.adj, c, k)
    else:
        assert out == parent, (g.adj, c, k)
    return out, dropped


class TestEngineAgainstParent:
    """The cover bound changes no outcome, the Dirac re-dispatch is gone, and
    so is the exact cover search: each outcome is the parent engine's, or a
    longer cycle where the parent returned a Dirac cycle, or EngineIncomplete
    where the parent's exact search beat the greedy cover."""

    def test_random_graphs(self):
        rng = random.Random(27)
        runs, settled, longer, dropped = 0, 0, 0, 0
        while runs < 1000:
            g = _engine_graph(rng)
            c = _engine_cycle(rng, g)
            if c is None:
                continue
            k = rng.randint(1, 3)
            out, lost = _against_parent(g, k, c)
            runs += 1
            settled += len(c) < g.n and len(c) >= 2 * len(extract._greedy_cover(g))
            longer += isinstance(out, LongerCycle)
            dropped += lost
        assert settled >= 100 and longer >= 100, (settled, longer)
        # one draw of the thousand had a cover within the bound that the
        # greedy cover missed, with growth run out
        assert dropped == 1, dropped

    def test_the_greedy_cover_is_least_once_the_cycle_is_twice_it(self):
        # no two consecutive cycle vertices lie outside a cover, so a cycle
        # has at most 2 tau vertices: |C| >= 2|X| forces |X| = tau, where the
        # parent's exact search could only fail, and the outcomes agree
        rng = random.Random(43)
        seen = Counter()
        while seen["cycles"] < 150:
            n = rng.randint(4, 12)
            a = rng.randint(2, max(2, n // 3))
            edges = [(i, j) for i in range(a) for j in range(i + 1, n) if rng.random() < 0.8]
            edges += [(u, v) for u, v in combinations(range(a, n), 2) if rng.random() < 0.1]
            g = build_graph(edges, n)
            if not is_biconnected(g):
                continue
            found = find_cycle_at_least(g, rng.randint(3, n))
            cover = extract._greedy_cover(g)
            if found is None or not 2 * len(cover) <= len(found) < n:
                continue
            assert len(cover) == _min_cover_size(g), g.adj
            seen["cycles"] += 1
            c = CycleCertificate(tuple(found), 3)
            for k in (0, 1, 2):
                out = _or_reason(corollary5_engine, g, k, c)
                assert out == _or_reason(_parent_engine, g, k, c), (g.adj, c, k)
                seen[type(out).__name__] += 1
        assert seen["VertexCover"] >= 100 and seen["str"] >= 20, seen

    def test_the_engine_tests_graphs(self):
        c8_path = [(i, (i + 1) % 8) for i in range(8)]
        c8_path += [(0, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 4)]
        c10_ear = [(i, (i + 1) % 10) for i in range(10)] + [(0, 10), (1, 10)]
        p = petersen()
        cases = [
            (complete(30), CycleCertificate(tuple(range(30)), 3)),
            (complete(60), CycleCertificate(tuple(range(59)), 3)),
            (complete(10), CycleCertificate(tuple(range(9)), 3)),
            (split_graph(8, 80), dirac_cycle(split_graph(8, 80))),
            (build_graph(c10_ear, 11), CycleCertificate(tuple(range(10)), 3)),
            (build_graph(c8_path, 13), CycleCertificate(tuple(range(8)), 3)),
            (p, CycleCertificate(tuple(find_cycle_at_least(p, 9)), 9)),
        ]
        for g, c in cases:
            for k in (1, 2):
                _against_parent(g, k, c)

    def test_no_search_once_the_cycle_is_twice_the_cover(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        g = split_graph(8, 80)
        c = dirac_cycle(g)
        assert len(c) == 16
        for module, name in ((cyclesearch, "grow_cycle"),
                             (cyclesearch, "long_cycle_search_best"),
                             (extract, "_greedy_cover")):
            counted(module, name)
        assert corollary5_engine(g, 1, c) == VertexCover(frozenset(range(8)))
        assert calls == Counter({"_greedy_cover": 1})


def _set_refine(h, X, k):
    """refine_vertex_cover_to_partition before it counted with masks, kept
    verbatim as the reference for the differential test."""
    X = frozenset(X)
    for u, v in h.edges():
        if u not in X and v not in X:
            raise PreconditionError(f"X is not a vertex cover: edge ({u},{v}) uncovered")
    ad = avg_degree(h)
    if Fraction(2 * len(X)) > ad + 3 * k + 3:
        raise extract._refinement_failed("cover too large: |X| > (ad+3k+3)/2")
    B = frozenset(h.vertices()) - X
    p = len(X)
    A = frozenset(
        v for v in X if sum(1 for w in h.adj[v] if w in B) >= 2 * p
    )
    if not A:
        raise extract._refinement_failed("no cover vertex has 2|X| neighbors outside")
    for v in B:
        if sum(1 for w in h.adj[v] if w in A) < len(A) - 2 * k - 2:
            raise extract._refinement_failed(f"vertex {v} has degree below |A|-2k-2 into A")
    return A, B


def _refine_outcome(f, *args):
    try:
        return f(*args)
    except (PreconditionError, EngineIncomplete) as exc:
        return type(exc).__name__, str(exc)


class TestRefine:
    def test_same_partition_and_errors_as_set_counts(self):
        # hub graphs (_engine_graph's second kind) with covers (the hubs
        # plus some others) and non-covers (random vertex sets)
        rng = random.Random(45)
        outcomes = Counter()
        for _ in range(3000):
            n = rng.randint(4, 60)
            a = rng.randint(1, max(1, n // 6))
            # a hub-to-rest edge probability per vertex of the rest
            p = [1] * a + [rng.uniform(0.2, 1) for _ in range(a, n)]
            edges = [(i, j) for i in range(a) for j in range(i + 1, n) if rng.random() < p[j]]
            if rng.random() < 0.3:
                edges += [(u, v) for u, v in combinations(range(a, n), 2) if rng.random() < 0.01]
            perm = list(range(n))
            rng.shuffle(perm)
            g = build_graph([(perm[u], perm[v]) for u, v in edges], n)
            if rng.random() < 0.7:
                X = {perm[i] for i in range(a)} | set(rng.sample(range(n), rng.randint(0, 3)))
            else:
                X = set(rng.sample(range(n), rng.randint(0, n)))
            k = rng.randint(0, 3)
            got = _refine_outcome(refine_vertex_cover_to_partition, g, X, k)
            assert got == _refine_outcome(_set_refine, g, X, k), (g.adj, X, k)
            outcomes[re.sub(r"\d+", "#", got[1]) if isinstance(got[0], str) else "A, B"] += 1
        assert {
            "X is not a vertex cover: edge (#,#) uncovered",
            "cover refinement failed: cover too large: |X| > (ad+#k+#)/#",
            "cover refinement failed: no cover vertex has #|X| neighbors outside",
            "cover refinement failed: vertex # has degree below |A|-#k-# into A",
        } <= set(outcomes), outcomes
        assert min(outcomes.values()) >= 20 and outcomes["A, B"] >= 300, outcomes

    def test_k5_60_small_side(self):
        g = complete_bipartite(5, 60)
        A, B = refine_vertex_cover_to_partition(g, set(range(5)), 1)
        assert A == frozenset(range(5))
        assert B == frozenset(range(5, 65))

    def test_low_degree_cover_vertex_excluded(self):
        # vertex 0 covers only an edge inside the cover; no neighbors outside
        edges = [(0, 1)]
        edges += [(a, b) for a in (1, 2) for b in range(3, 63)]
        g = build_graph(edges, 63)
        A, _ = refine_vertex_cover_to_partition(g, {0, 1, 2}, 1)
        assert A == frozenset({1, 2})

    def test_not_a_cover_rejected(self):
        g = complete_bipartite(2, 4)
        with pytest.raises(PreconditionError):
            refine_vertex_cover_to_partition(g, {0}, 1)

    def test_random_split_instances(self):
        rng = random.Random(44)
        for _ in range(10):
            a = rng.randint(3, 6)
            b = 13 * a + rng.randint(0, 10)  # q > 12p as in the proof
            g = split_graph(a, b)
            A, B = refine_vertex_cover_to_partition(g, set(range(a)), 1)
            sub, ids = induced_subgraph(g, A | B)
            back = {orig: i for i, orig in enumerate(ids)}
            for v in B:
                assert not any(w in B for w in g.adj[v])
            for v in A:
                assert sum(1 for w in g.adj[v] if w in B) >= 2 * len(A)
            for v in B:
                assert sum(1 for w in g.adj[v] if w in A) >= len(A) - 2 - 2


class TestCheckSmallDense:
    """The three conditions a small-dense witness H must meet."""

    def test_average_degree_below_mad_minus_one(self):
        # K4 has ad 3 < 5 - 1
        with pytest.raises(ConstructionFailure, match=r"ad\(H\) < mad - 1"):
            extract._check_small_dense(complete(4), Fraction(5), 0)

    def test_min_degree_below_half_the_average(self):
        # K5 plus a pendant vertex: ad 11/3, min degree 1
        g = build_graph([(i, j) for i in range(5) for j in range(i + 1, 5)] + [(4, 5)], 6)
        with pytest.raises(ConstructionFailure, match=r"delta\(H\) < ad\(H\)/2"):
            extract._check_small_dense(g, Fraction(3), 5)

    def test_too_many_vertices(self):
        # K4 at k = 0: |V(H)| = 4 = ad + k + 1
        with pytest.raises(ConstructionFailure, match=r"\|V\(H\)\| >= ad\(H\)\+k\+1"):
            extract._check_small_dense(complete(4), Fraction(3), 0)


class TestFindDense:
    def test_k200_found_cycle(self):
        g = complete(200)
        w, trace = find_dense(g, 1)
        assert isinstance(w, FoundCycle)
        assert len(w.cycle) == 200
        assert verify_cycle_certificate(g, w.cycle)
        # k' = threshold - 2 delta(core) <= 0: the Dirac cycle is long enough
        assert math.ceil(mad_with_witness(g).mad) + 1 - 2 * trace.core.min_degree() <= 0

    def test_k350_minus_matching_small_dense(self):
        g = complete_minus_matching(350)
        w, _ = find_dense(g, 3)
        assert isinstance(w, SmallDense)
        assert w.vertices == frozenset(range(350))
        sub, _ = induced_subgraph(g, w.vertices)
        ad = avg_degree(sub)
        assert ad == 348
        assert Fraction(sub.n) < ad + 3 + 1

    def test_k26_minus_matching_hamiltonian_dirac_cycle_is_small_dense(self):
        # mad 24, threshold 27 > n = 26, so k' = 27 - 2*24 = -21: the Dirac
        # cycle is Hamiltonian and short, and the engine says Hamiltonian
        g = complete_minus_matching(26)
        w, trace = find_dense(g, 3)
        assert isinstance(w, SmallDense) and w.vertices == frozenset(range(26))
        assert math.ceil(mad_with_witness(g).mad) + 3 - 2 * trace.core.min_degree() == -21
        assert trace.core is g and trace.core_ids == tuple(range(26))

    def test_engine_longer_cycle_steps_the_loop(self, monkeypatch):
        # on natural inputs the Dirac cycle reaches the threshold or the engine
        # ends the loop at once; start it one vertex short on K12 instead
        real = longpaths.dirac_cycle
        calls = []

        def short_first(h, want=None):
            calls.append(h.n)
            if len(calls) == 1:
                return CycleCertificate(tuple(range(h.n - 1)), 3)
            return real(h, want)

        monkeypatch.setattr(longpaths, "dirac_cycle", short_first)
        g = complete(12)
        w, _ = find_dense(g, 1)
        assert isinstance(w, FoundCycle) and len(w.cycle) == 12
        assert verify_cycle_certificate(g, w.cycle)
        assert calls == [12]  # the engine grew the cycle without a second Dirac cycle

    def test_k_zero_rejected(self):
        g = build_graph(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)], 6
        )
        with pytest.raises(PreconditionError):
            find_dense(g, 0)

    def test_any_k_runs_the_one_pipeline(self):
        # k far above mad/80 - 1: every witness is still verified, and a glue
        # cycle short of mad + k comes back claiming only length 3
        g = complete(10)
        w, _ = find_dense(g, 1)
        assert isinstance(w, FoundCycle) and len(w.cycle) == 10
        w, _ = find_dense(g, 5)
        assert isinstance(w, SmallDense) and w.vertices == frozenset(range(10))
        e = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        e += [(i, j) for i in range(6, 14) for j in range(i + 1, 14)]
        g = build_graph(e, 14)
        w, trace = find_dense(g, 7)
        assert isinstance(w, FoundCycle) and two_separators(trace.core)
        assert len(w.cycle) == 14 < math.ceil(mad_with_witness(g).mad) + 7
        assert w.cycle.claimed_min_length == 3
        assert verify_cycle_certificate(g, w.cycle)

    def test_glue_branch_relaxed(self):
        e = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        e += [(i, j) for i in range(6, 14) for j in range(i + 1, 14)]
        g = build_graph(e, 14)
        w, _ = find_dense(g, 1)
        assert isinstance(w, FoundCycle)
        assert len(w.cycle) == 14
        assert verify_cycle_certificate(g, w.cycle)

    @pytest.mark.parametrize("branch", ["glue", "dirac"])
    def test_rejecting_verifier_raises(self, monkeypatch, branch):
        def reject(g, cert):
            raise ConstructionFailure("certificate failed verification: rejected for the test")

        if branch == "glue":
            e = [(i, j) for i in range(8) for j in range(i + 1, 8)]
            e += [(i, j) for i in range(6, 14) for j in range(i + 1, 14)]
            g = build_graph(e, 14)
        else:
            g = complete(12)
        monkeypatch.setattr(extract, "certify", reject)
        with pytest.raises(ConstructionFailure, match="rejected for the test"):
            find_dense(g, 1)

    def test_bipartite_dense_branch_relaxed(self):
        g = split_graph(8, 80)
        w, _ = find_dense(g, 1)
        assert isinstance(w, BipartiteDense)
        assert w.A == frozenset(range(8))
        mad = mad_with_witness(g).mad
        assert Fraction(2 * len(w.A)) >= mad - 8 * 1
        for v in w.B:
            assert not any(u in w.B for u in g.adj[v])
            assert sum(1 for u in g.adj[v] if u in w.A) >= len(w.A) - 2 - 2
        for v in w.A:
            assert sum(1 for u in g.adj[v] if u in w.B) >= 2 * len(w.A)
