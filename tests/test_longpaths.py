import random
from fractions import Fraction

import pytest

from madcycle import cyclesearch, longpaths
from madcycle.errors import ConstructionFailure, PreconditionError
from madcycle.graph import (
    VerifyOutcome,
    avg_degree_of_set,
    ceil_frac,
    induced_subgraph,
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
                    assert oracle_longest_st_path(g, s, t) - 1 >= ceil_frac(bound)


class TestStPathAtLeast:
    def test_path4_target4(self):
        p, exact = st_path_at_least(path_graph(4), 0, 3, 4)
        assert exact and p is not None and p.vertices == (0, 1, 2, 3)

    def test_path4_target5_absent(self):
        assert st_path_at_least(path_graph(4), 0, 3, 5) == (None, True)

    @pytest.mark.parametrize("s,t", [(0, 4), (4, 0), (-1, 3)])
    def test_endpoint_out_of_range_rejected(self, s, t):
        with pytest.raises(PreconditionError, match="out of range"):
            st_path_at_least(path_graph(4), s, t, 2)

    def test_petersen_hamiltonian_nonadjacent(self):
        g = petersen()
        assert oracle_longest_st_path(g, 0, 2) == 10
        p, exact = st_path_at_least(g, 0, 2, 10)
        assert exact and p is not None and len(p) == 10
        assert verify_path_certificate(g, p)

    def test_matches_oracle_random(self):
        rng = random.Random(67)
        for _ in range(25):
            g = random_2connected_graph(rng, rng.randint(4, 10), rng.uniform(0.3, 0.7))
            s, t = rng.sample(range(g.n), 2)
            best = oracle_longest_st_path(g, s, t)
            for target in range(2, g.n + 1):
                found, exact = st_path_at_least(g, s, t, target)
                assert exact and (found is not None) == (best >= target)
                if found is not None:
                    assert len(found) >= target
                    assert verify_path_certificate(g, found)

    def test_randomized_mode_finds_witness(self, monkeypatch):
        # a zero state budget forces the Monte Carlo path; one-sided soundness
        monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", 0)
        g = complete(24)
        p, exact = st_path_at_least(g, 0, 5, 6, seed=1, trials=40)
        assert exact is False
        assert p is not None and len(p) >= 6
        assert verify_path_certificate(g, p)


class TestExplicitCertificateChecks:
    """Every certificate check raises ConstructionFailure, also under python -O."""

    @pytest.fixture(autouse=True)
    def rejecting_verifiers(self, monkeypatch):
        def reject(*args, **kwargs):
            return VerifyOutcome(False, "rejected for the test")

        monkeypatch.setattr(longpaths, "verify_cycle_certificate", reject)
        monkeypatch.setattr(longpaths, "verify_path_certificate", reject)

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

    @pytest.mark.parametrize("state_budget", [None, 0], ids=["identity", "monte_carlo"])
    def test_st_path_at_least(self, monkeypatch, state_budget):
        if state_budget is not None:
            monkeypatch.setattr(longpaths, "DET_STATE_BUDGET", state_budget)
        with pytest.raises(ConstructionFailure, match="rejected for the test"):
            st_path_at_least(complete(24), 0, 5, 6, seed=1, trials=40)
