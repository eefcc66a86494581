import math
import random
import time
from fractions import Fraction

import pytest

from madcycle import cyclesearch, longpaths
from madcycle.errors import ConstructionFailure, PreconditionError, StateBudgetExceeded
from madcycle.graph import (
    PathCertificate,
    avg_degree_of_set,
    bits_off,
    build_graph,
    induced_subgraph,
    is_biconnected,
    lowest_off,
    reach,
    require_verified,
    verify_cycle_certificate,
    verify_path_certificate,
)
from madcycle.longpaths import dirac_cycle, fan_path, st_path_at_least
from madcycle.oracles import oracle_longest_st_path

from conftest import (
    complete,
    complete_bipartite,
    cycle_graph,
    glued_k5s,
    path_graph,
    petersen,
    random_2connected_graph,
    random_connected_graph,
)


class TestDiracCycle:
    def test_k4_hamiltonian(self):
        c = dirac_cycle(complete(4))
        assert len(c) == 4 and verify_cycle_certificate(complete(4), c)

    def test_c5(self):
        c = dirac_cycle(cycle_graph(5))
        assert len(c) == 5

    def test_petersen_bound(self):
        c = dirac_cycle(petersen())
        assert len(c) >= 6
        assert verify_cycle_certificate(petersen(), c)

    def test_not_biconnected(self):
        with pytest.raises(PreconditionError):
            dirac_cycle(path_graph(4))

    def test_complete_bipartite_tight(self):
        # circumference of K_{3,7} is exactly 2*delta = 6
        g = complete_bipartite(3, 7)
        c = dirac_cycle(g)
        assert len(c) >= 6
        assert verify_cycle_certificate(g, c)

    def test_random_bound(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_2connected_graph(rng, rng.randint(4, 20), rng.uniform(0.25, 0.7))
            want = min(g.n, 2 * g.min_degree())
            c = dirac_cycle(g)
            assert len(c) >= want
            assert verify_cycle_certificate(g, c)

    @pytest.mark.parametrize("short", [None, [0, 1, 2, 3, 4]], ids=["none", "c5"])
    def test_exact_search_backs_up_a_short_rotation_search(self, monkeypatch, short):
        # the rotation search reaches the bound on every natural input, so
        # make it fall short; the exhaustive search then finds the cycle
        monkeypatch.setattr(
            cyclesearch, "long_cycle_search_best", lambda g, want: short
        )
        g = petersen()
        c = dirac_cycle(g)
        assert len(c) >= 6 and c.claimed_min_length == 6
        assert verify_cycle_certificate(g, c)

    def test_no_tier_reaching_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(cyclesearch, "long_cycle_search_best", lambda g, want: None)
        monkeypatch.setattr(
            cyclesearch, "find_cycle_at_least", lambda g, want, budget: None
        )
        with pytest.raises(ConstructionFailure, match="could not reach"):
            dirac_cycle(petersen())

    def test_a_tripped_exact_search_raises(self, monkeypatch):
        # a 6-cycle needs 5 pushed states from its root, so 3 trips the
        # budget, and the trip is a construction failure, never a short cycle
        monkeypatch.setattr(cyclesearch, "long_cycle_search_best", lambda g, want: None)
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 3)
        with pytest.raises(ConstructionFailure, match="could not reach"):
            dirac_cycle(petersen())
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 400)
        assert len(dirac_cycle(petersen())) >= 6


class TestFanPath:
    def test_c4_opposite(self):
        p = fan_path(cycle_graph(4), 0, 2)
        assert p.length >= 2

    def test_k4_hamiltonian_path(self):
        p = fan_path(complete(4), 0, 1)
        assert p.length >= 3

    def test_glued_k5_one_side(self):
        g = glued_k5s()
        side, ids = induced_subgraph(g, {0, 1, 2, 3, 4})
        s, t = ids.index(3), ids.index(4)
        p = fan_path(side, s, t)
        assert p.length >= 4  # interior average degree is 4

    def test_same_endpoints_rejected(self):
        with pytest.raises(PreconditionError):
            fan_path(complete(4), 1, 1)

    def test_past_the_budget_is_a_construction_failure(self, monkeypatch):
        # K6 has a Hamiltonian 0..1 path of length 5, Fan's bound; a search
        # past its budget reports the bound it could not reach
        assert fan_path(complete(6), 0, 1).length == 5
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        with pytest.raises(ConstructionFailure) as info:
            fan_path(complete(6), 0, 1)
        assert str(info.value) == "fan_path could not reach length 5 between 0 and 1"

    def test_bound_against_oracle_random(self):
        rng = random.Random(51)
        for _ in range(25):
            g = random_2connected_graph(rng, rng.randint(4, 10), rng.uniform(0.35, 0.8))
            for s in range(g.n):
                for t in range(s + 1, g.n):
                    others = [v for v in g.vertices() if v not in (s, t)]
                    bound = avg_degree_of_set(g, others)
                    p = fan_path(g, s, t)
                    assert verify_path_certificate(g, p)
                    assert p.endpoints in ((s, t), (t, s))
                    assert Fraction(p.length) >= bound
                    # sanity: the oracle confirms such a path exists
                    assert oracle_longest_st_path(g, s, t) - 1 >= math.ceil(bound)


class TestStPathAtLeast:
    def test_path4_target4(self):
        p = st_path_at_least(path_graph(4), 0, 3, 4)
        assert p is not None and p.vertices == (0, 1, 2, 3)

    def test_path4_target5_absent(self):
        assert st_path_at_least(path_graph(4), 0, 3, 5) is None

    @pytest.mark.parametrize("s,t", [(0, 4), (4, 0), (-1, 3)])
    def test_endpoint_out_of_range_rejected(self, s, t):
        with pytest.raises(PreconditionError, match="out of range"):
            st_path_at_least(path_graph(4), s, t, 2)

    def test_petersen_hamiltonian_nonadjacent(self):
        g = petersen()
        assert oracle_longest_st_path(g, 0, 2) == 10
        p = st_path_at_least(g, 0, 2, 10)
        assert p is not None and len(p) == 10
        assert verify_path_certificate(g, p)

    def test_matches_oracle_random(self):
        rng = random.Random(67)
        for _ in range(25):
            g = random_2connected_graph(rng, rng.randint(4, 10), rng.uniform(0.3, 0.7))
            s, t = rng.sample(range(g.n), 2)
            best = oracle_longest_st_path(g, s, t)
            for target in range(2, g.n + 1):
                found = st_path_at_least(g, s, t, target)
                assert (found is not None) == (best >= target)
                if found is not None:
                    assert len(found) >= target
                    assert verify_path_certificate(g, found)

    def test_past_the_budget_nothing_is_found_or_proved(self, monkeypatch):
        # K24 has the path, but a search past its budget raises: it neither
        # finds the path nor answers an absence it has not proved
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        with pytest.raises(StateBudgetExceeded):
            st_path_at_least(complete(24), 0, 5, 6)

    def test_target_past_the_budget_and_the_colour_cap(self, monkeypatch):
        # a target of hundreds of vertices past the budget raises too
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        with pytest.raises(StateBudgetExceeded):
            st_path_at_least(path_graph(800), 0, 799, 720)


# The (s,t)-path searches that the one depth-first search replaced, copied
# verbatim: the breadth-first colour-set DP behind st_path_at_least, the
# reachability-pruned DFS behind fan_path, and fan_path with its heuristic
# tiers (module references renamed to the copies).


def old_colorful_st_path(
    g,
    s: int,
    t: int,
    coloring: list[int],
    want_vertices: int,
    state_budget: int | None = None,
) -> list[int] | None:
    """A path s..t whose vertices carry distinct colors and number at least
    want_vertices. Subset DP over color sets."""
    states = 0
    start_key = 1 << coloring[s]
    reach: dict[int, int] = {start_key: 1 << s}
    parents: dict[tuple[int, int], tuple[int, int] | None] = {(start_key, s): None}
    queue = [start_key]
    qi = 0
    accept = None
    while qi < len(queue) and accept is None:
        ckey = queue[qi]
        qi += 1
        ends = reach[ckey]
        e = ends
        while e:
            v = (e & -e).bit_length() - 1
            e &= e - 1
            if v == t:
                if ckey.bit_count() >= want_vertices:
                    accept = (ckey, v)
                    break
                continue
            for w in g.adj[v]:
                cw = coloring[w]
                if ckey >> cw & 1:
                    continue
                nkey = ckey | (1 << cw)
                if nkey not in reach:
                    reach[nkey] = 0
                    queue.append(nkey)
                if not reach[nkey] >> w & 1:
                    reach[nkey] |= 1 << w
                    parents[(nkey, w)] = (ckey, v)
                    if state_budget is not None:
                        states += 1
                        if states > state_budget:
                            raise StateBudgetExceeded()
    if accept is None:
        return None
    ckey, v = accept
    out = [v]
    while parents[(ckey, v)] is not None:
        ckey, v = parents[(ckey, v)]
        out.append(v)
    out.reverse()
    return out


def old_find_st_path_at_least(
    g, s: int, t: int, want_vertices: int, node_budget: int | None = None
) -> list[int] | None:
    """DFS search for an (s,t)-path with >= want_vertices vertices.

    Exhaustive when node_budget is None.
    """
    if s == t:
        raise PreconditionError("s and t must differ")
    full = (1 << g.n) - 1
    stack: list[tuple[int, int, list[int]]] = [(s, 1 << s, [s])]
    while stack:
        if node_budget is not None:
            node_budget -= 1
            if node_budget <= 0:
                return None
        v, mask, path = stack.pop()
        if v == t:
            if len(path) >= want_vertices:
                return path
            continue
        # t ends every path it is on, so it is outside mask here
        rm = reach(g, g.masks[v], full & ~mask)
        if not rm >> t & 1 or len(path) + rm.bit_count() < want_vertices:
            continue
        for w in reversed(g.adj[v]):
            if not mask >> w & 1:
                stack.append((w, mask | (1 << w), path + [w]))
    return None


def old_fan_path(g, s: int, t: int) -> PathCertificate:
    """An (s,t)-path of length at least the average degree of the other vertices.

    The bound is exact-rational; integer path length must reach its ceiling.
    """
    if s == t:
        raise PreconditionError("fan_path needs distinct endpoints")
    if not is_biconnected(g):
        raise PreconditionError("fan_path needs a 2-connected graph")
    others = [v for v in g.vertices() if v not in (s, t)]
    bound = avg_degree_of_set(g, others)
    want_vertices = math.ceil(bound) + 1

    path = old_grow_st_path(g, s, t, want_vertices)
    if path is not None and len(path) >= want_vertices:
        cert = PathCertificate(tuple(path))
        require_verified(verify_path_certificate(g, cert))
        return cert

    # dense case: a Hamiltonian cycle through the forced pair yields a
    # Hamiltonian (s,t)-path, which always meets the bound
    from madcycle import routing

    try:
        cyc = routing.hamiltonian_through_pairs(g, {(s, t)})
    except (ConstructionFailure, PreconditionError):
        cyc = None
    if cyc is not None:
        seq = list(cyc.vertices)
        i = seq.index(s)
        rotated = seq[i:] + seq[:i]
        if rotated[1] == t:
            rotated = [rotated[0]] + rotated[:0:-1]
        if rotated[-1] == t:
            cert = PathCertificate(tuple(rotated))
            require_verified(verify_path_certificate(g, cert))
            return cert

    budget = None if g.n <= 18 else 2_000_000
    found = old_find_st_path_at_least(g, s, t, want_vertices, budget)
    if found is not None:
        cert = PathCertificate(tuple(found))
        require_verified(verify_path_certificate(g, cert))
        return cert
    raise ConstructionFailure(
        f"fan_path could not reach length {want_vertices - 1} between {s} and {t}"
    )


def old_grow_st_path(g, s: int, t: int, want_vertices: int) -> list[int] | None:
    """Shortest path then insertion moves; cheap heuristic, no guarantee."""
    prev = {s: None}
    queue = [s]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == t:
            break
        for w in g.adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    if t not in prev:
        return None
    path = []
    v = t
    while v is not None:
        path.append(v)
        v = prev[v]
    path.reverse()
    while len(path) < want_vertices:
        on = set(path)
        move = None
        for i in range(len(path) - 1):
            x, y = path[i], path[i + 1]
            common = g.masks[x] & g.masks[y]
            z = lowest_off(common, on)
            if z is not None:
                move = (i, [z])
                break
        if move is None:
            for i in range(len(path) - 1):
                x, y = path[i], path[i + 1]
                us = bits_off(g.masks[x], on)
                vs = bits_off(g.masks[y], on)
                done = None
                for u in us:
                    for v2 in vs:
                        if u != v2 and g.has_edge(u, v2):
                            done = [u, v2]
                            break
                    if done:
                        break
                if done:
                    move = (i, done)
                    break
        if move is None:
            return path
        i, ins = move
        path = path[: i + 1] + ins + path[i + 1 :]
    return path


class _Tally:
    """A state budget that never trips: it keeps the largest state count a
    search compared with it, that is the number of states the search made."""

    def __init__(self):
        self.states = 0

    def __lt__(self, states):  # `states > budget` lands here
        self.states = max(self.states, states)
        return False


def _states(search, *args) -> int:
    tally = _Tally()
    search(*args, tally)
    return tally.states


def _pushed(g, s: int, t: int, want: int) -> int:
    """The states the shared search pushes for an (s,t)-path through any vertex."""
    budget = [1 << 62]
    cyclesearch._colorful_path(g, s, t, (1 << g.n) - 1, want, budget)
    return (1 << 62) - budget[0]


def _k4_with_ends(b: int):
    """K_{4,b} (A = 0..3) plus s ~ {0, 1} and t ~ {1, 2}; its longest
    (s,t)-path has 9 vertices."""
    edges = [(a, 4 + j) for a in range(4) for j in range(b)]
    s, t = 4 + b, 5 + b
    edges += [(s, 0), (s, 1), (t, 1), (t, 2)]
    return build_graph(edges, 6 + b), s, t


def _block_chain(rng):
    """Random 2-connected blocks, each glued to the next on a pair of vertices."""
    edges: list[tuple[int, int]] = []
    n, pair = 0, []
    for _ in range(rng.randint(2, 5)):
        block = random_2connected_graph(rng, rng.randint(4, 7), rng.uniform(0.4, 0.9))
        ids = pair + list(range(n, n + block.n - len(pair)))
        n += block.n - len(pair)
        edges += [(ids[u], ids[v]) for u, v in block.edges()]
        pair = rng.sample(ids, 2)
    return build_graph(edges, n)


def _ear_built(rng):
    """A cycle plus ears: paths of 0-4 new vertices between two old ones."""
    n = rng.randint(3, 6)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    for _ in range(rng.randint(1, 12)):
        u, v = rng.sample(range(n), 2)
        walk = [u, *range(n, n + rng.randint(0, 4)), v]
        n += len(walk) - 2
        edges += list(zip(walk, walk[1:]))
    return build_graph(edges, n)


class TestOneStPathSearch:
    """The depth-first search against the searches it replaced."""

    def test_exact_within_the_old_dps_state_count(self, monkeypatch):
        rng = random.Random(23)
        found = 0
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(5, 11), rng.uniform(0.15, 0.8))
            s, t = rng.sample(range(g.n), 2)
            want = rng.randint(2, g.n)
            ident = list(range(g.n))
            old = old_colorful_st_path(g, s, t, ident, want)
            monkeypatch.setattr(
                longpaths, "DET_STATE_BUDGET",
                _states(old_colorful_st_path, g, s, t, ident, want),
            )
            got = st_path_at_least(g, s, t, want)  # raises past the budget
            assert (got is None) == (old is None)
            found += got is not None
        assert 20 <= found <= 180, found

    def test_same_path_as_the_old_dfs(self):
        # the search order is the old DFS's, and both prune only subtrees
        # without a long enough path, so both return the first such path
        rng = random.Random(29)
        found = 0
        for _ in range(300):
            g = random_connected_graph(rng, rng.randint(3, 14), rng.uniform(0.15, 0.8))
            s, t = rng.sample(range(g.n), 2)
            want = rng.randint(2, g.n)
            got = st_path_at_least(g, s, t, want)
            old = old_find_st_path_at_least(g, s, t, want)
            assert (got.vertices if got is not None else None) == (
                tuple(old) if old is not None else None
            )
            found += got is not None
        assert 80 <= found <= 250, found

    def test_a_yes_ends_the_search(self):
        # the old DP made 3,969,992 states here, far past the budget
        rng = random.Random(3)
        edges = [(i, j) for i in range(30) for j in range(i + 1, 30) if rng.random() < 0.2]
        g = build_graph(edges, 30)
        t0 = time.perf_counter()
        found = st_path_at_least(g, 0, 1, 12)
        assert time.perf_counter() - t0 < 0.1
        assert found is not None and len(found) >= 12
        assert verify_path_certificate(g, found)
        assert _pushed(g, 0, 1, 12) == 10

    def test_a_no_within_a_budget_the_old_dp_passed(self, monkeypatch):
        g, s, t = _k4_with_ends(12)
        ident = list(range(g.n))
        assert _pushed(g, s, t, 12) == 2914
        assert _states(old_colorful_st_path, g, s, t, ident, 12) == 7439
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 5000)
        assert st_path_at_least(g, s, t, 12) is None
        assert st_path_at_least(g, s, t, 9) is not None

    @pytest.mark.parametrize("family", ["block_chain", "ear_built", "k4n"])
    def test_fan_path_wherever_the_old_one_found_a_path(self, family):
        rng = random.Random(31)
        checked = 0
        for i in range(30):
            if family == "block_chain":
                g = _block_chain(rng)
            elif family == "ear_built":
                g = _ear_built(rng)
            else:
                g = complete_bipartite(4, 4 + i % 10)
            assert is_biconnected(g)
            for s, t in {tuple(rng.sample(range(g.n), 2)) for _ in range(4)}:
                try:
                    old_fan_path(g, s, t)
                except ConstructionFailure:
                    continue
                others = [v for v in g.vertices() if v not in (s, t)]
                p = fan_path(g, s, t)
                assert verify_path_certificate(g, p)
                assert p.vertices[0] == s and p.vertices[-1] == t
                assert Fraction(p.length) >= avg_degree_of_set(g, others)
                checked += 1
        assert checked >= 60, checked


class TestExplicitCertificateChecks:
    """Every certificate check raises ConstructionFailure, also under python -O."""

    @pytest.fixture(autouse=True)
    def rejecting_certify(self, monkeypatch):
        def reject(g, cert):
            raise ConstructionFailure("certificate failed verification: rejected for the test")

        monkeypatch.setattr(longpaths, "certify", reject)

    @pytest.mark.parametrize("g", [complete(6), cycle_graph(5), petersen()])
    def test_dirac_cycle(self, g):
        with pytest.raises(ConstructionFailure, match="rejected for the test"):
            dirac_cycle(g)

    @pytest.mark.parametrize("s,t", [(0, 2), (0, 1)])
    def test_fan_path(self, s, t):
        with pytest.raises(ConstructionFailure, match="rejected for the test"):
            fan_path(complete(5), s, t)
        with pytest.raises(ConstructionFailure, match="rejected for the test"):
            fan_path(cycle_graph(6), s, t)

    @pytest.mark.parametrize("past_budget", [False, True], ids=["identity", "past_budget"])
    def test_st_path_at_least(self, monkeypatch, past_budget):
        if past_budget:
            # past the budget no path comes back, so none goes unchecked
            monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
            with pytest.raises(StateBudgetExceeded):
                st_path_at_least(complete(24), 0, 5, 6)
            return
        with pytest.raises(ConstructionFailure, match="rejected for the test"):
            st_path_at_least(complete(24), 0, 5, 6)
