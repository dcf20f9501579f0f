import random
from fractions import Fraction as F

import pytest

import fpaeq as fq
from fpaeq import BidGrid, JumpPointStrategy


def grid_of(*bids):
    return BidGrid(tuple(F(b) for b in bids))


class TestExactRegretCdfpa:
    def test_exact_equilibrium_has_zero_regret(self, uniform):
        # full pooling at 0 is exact for uniform, n = 2, bids {0, 1/2}
        g = grid_of("0", "1/2")
        s = JumpPointStrategy((F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 2)))
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, g, s)
        assert report.max_regret == 0
        assert report.method == "exact"

    def test_bad_strategy_regret_by_hand(self, uniform):
        # everyone bids 1/2 regardless of value; v = 1/2 prefers bidding 0
        g = grid_of("0", "1/2")
        s = JumpPointStrategy((F(0), F(0), F(1)), (F(0), F(0), F(1, 4)))
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, g, s)
        # smallest positive grid value is 1/64: own utility there is
        # (1/64 - 1/2) * Delta(0, 1) = -31/128, deviating to 0 gives 0
        assert report.max_regret == F(31, 128)
        assert report.argmax == (F(1, 64), F(0))

    def test_solver_output_has_small_exact_regret(self, square):
        g = grid_of("0", "1/4", "1/2")
        eps = F(1, 64)
        res = fq.solve(square, None, 2, g, eps)
        report = fq.epsilon_bne_check_cdfpa(square, 2, g, res.strategy)
        assert 0 <= report.max_regret <= eps

    def test_argmax_at_a_jump_midpoint(self, uniform):
        # bid 39/64 on (63/64, 1]: regret falls with v there, and no i/64 or bid lies inside,
        # so the largest value-set regret sits at the midpoint 127/128
        g = grid_of("0", "39/64")
        s = JumpPointStrategy((F(0), F(63, 64), F(1)), ())
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, g, s)
        # (127/128) * Delta(0, 63/64) - (127/128 - 39/64) * Delta(63/64, 1)
        assert report.max_regret == F(889, 8192)
        assert report.argmax == (F(127, 128), F(0))

    def test_wrong_length_strategy_rejected(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_cdfpa(uniform, 2, g, JumpPointStrategy((F(0), F(1)), (F(0),) * 2))

    def test_invalid_strategy_rejected(self, uniform):
        g = grid_of("0", "1/2")
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_cdfpa(uniform, 2, g, JumpPointStrategy((F(0), F(1, 2), F(1, 4)), (F(0),) * 3))


def brute_force_exact_regret(dist, n, grid, s):
    """The exact verifier's documented result, one delta_win_prob call per (value, bid): the
    largest regret, floored at 0, over every jump point, every bid, i/64 and the midpoints of
    consecutive distinct jump points; the first maximum in increasing value, then bid, order."""
    m = grid.m
    values = set(s) | set(grid.bids) | {F(i, 64) for i in range(65)}
    values |= {(a + b) / 2 for a, b in zip(s, s[1:]) if a < b}
    best = None
    for v in sorted(values):
        own = 1 if v <= s[0] else next(j for j in range(1, m + 1) if s[j - 1] < v <= s[j])
        u_own = (v - grid.bids[own - 1]) * fq.delta_win_prob(dist, n, s[own - 1], s[own])
        for j in range(1, m + 1):
            regret = (v - grid.bids[j - 1]) * fq.delta_win_prob(dist, n, s[j - 1], s[j]) - u_own
            if best is None or regret > best[0]:
                best = (regret, (v, grid.bids[j - 1]))
    return max(best[0], 0), best[1]


def reference_case(seed):
    """A seeded (cdf, n, grid, jump points) case; jump points None means: solve for them."""
    rng = random.Random(seed)
    name = ("uniform", "square", "two_piece")[seed % 3]
    n = rng.choice((2, 3, 4))
    m = rng.randint(1, 8)
    grid = BidGrid((F(0),) + tuple(F(i, 64) for i in sorted(rng.sample(range(1, 48), m - 1))))
    if seed % 4 == 0:
        return name, n, grid, None
    # points on a coarse grid, so some coincide (pooled bids) and some sit on i/64
    return name, n, grid, tuple(sorted(F(rng.randint(0, 24), 24) for _ in range(m))) + (F(1),)


class TestExactRegretReference:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_brute_force(self, seed, request):
        name, n, grid, s = reference_case(seed)
        dist = request.getfixturevalue(name)
        if s is None:
            s = fq.solve(dist, None, n, grid, F(1, 16)).strategy.s
        report = fq.epsilon_bne_check_cdfpa(dist, n, grid, JumpPointStrategy(s, ()))
        assert (report.max_regret, report.argmax) == brute_force_exact_regret(dist, n, grid, s)


class TestContinuousRegret:
    @pytest.mark.parametrize("name,n", [("uniform", 2), ("uniform", 4), ("square", 3), ("two_piece", 2)])
    def test_canonical_bid_has_tiny_regret(self, name, n, request):
        dist = request.getfixturevalue(name)
        rbf = fq.canonical_bid_function(dist, n)
        report = fq.epsilon_bne_check_ccfpa(dist, n, rbf)
        assert 0 <= report.max_regret < 0.02  # grid resolution, not solver error

    def test_truthful_bidding_has_large_regret(self, uniform):
        report = fq.epsilon_bne_check_ccfpa(uniform, 2, lambda v: v)
        # bidding the value earns 0; shading to ~v/2 recovers ~v^2/4
        assert report.max_regret > 0.2

    def test_overbidding_rejected(self, uniform):
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_ccfpa(uniform, 2, lambda v: v * F(3, 2))

    def test_decreasing_rejected(self, uniform):
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_ccfpa(uniform, 2, lambda v: (1 - v) / 2)

    def test_blackbox_bid_within_epsilon(self, adversarial):
        eps = F(1, 64)
        oracle = fq.oracle_from_piecewise(adversarial)
        plan = fq.precompute(oracle, 2, eps)
        report = fq.epsilon_bne_check_ccfpa(adversarial, 2, lambda x: fq.bid(plan, oracle, x).bid)
        assert report.max_regret < float(eps) + 0.02


class TestMonteCarlo:
    def test_reproducible(self, uniform):
        rbf = fq.canonical_bid_function(uniform, 2)
        a = fq.monte_carlo_utility(uniform, 2, rbf, 0.5, 0.25, 2000, seed=11)
        b = fq.monte_carlo_utility(uniform, 2, rbf, 0.5, 0.25, 2000, seed=11)
        assert a == b
        c = fq.monte_carlo_utility(uniform, 2, rbf, 0.5, 0.25, 2000, seed=12)
        assert a != c

    def test_matches_analytic_utility(self, uniform):
        # uniform n=2, opponents bid v/2: bidding 1/4 at value 1/2 wins iff
        # opponent value < 1/2, so expected utility = 1/2 * 1/4 = 1/8
        rbf = fq.canonical_bid_function(uniform, 2)
        mean, se = fq.monte_carlo_utility(uniform, 2, rbf, 0.5, 0.25, 40_000, seed=5)
        assert abs(mean - 0.125) <= 4 * se + 1e-9

    def test_jump_point_strategy_and_ties(self, uniform):
        # all three opponents pool at 0; deviating to 0 shares the tie 1/4
        g = grid_of("0", "1/2")
        s = JumpPointStrategy((F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 2)))
        mean, se = fq.monte_carlo_utility(uniform, 4, s, 1.0, 0.0, 20_000, seed=3, grid=g)
        assert abs(mean - 0.25) <= 4 * se + 1e-9

    def test_regret_of_equilibrium_near_zero(self, square):
        rbf = fq.canonical_bid_function(square, 2)
        report = fq.monte_carlo_regret(square, 2, rbf, trials=4000, seed=9)
        assert report.method == "monte-carlo"
        assert report.max_regret <= 3 * report.sigma + 0.02

    def test_bad_trials(self, uniform):
        with pytest.raises(fq.DomainError):
            fq.monte_carlo_utility(uniform, 2, lambda v: 0.0, 0.5, 0.0, 0, seed=1)


class TestMonotoneNoOverbid:
    def test_equilibrium_passes(self, two_piece):
        rbf = fq.canonical_bid_function(two_piece, 3)
        check = fq.monotone_no_overbid_check(rbf, samples=2000)
        assert check.passed

    def test_overbidder_caught_with_witness(self):
        check = fq.monotone_no_overbid_check(lambda v: v * 1.1, samples=500)
        assert not check.passed
        assert check.overbid_witnesses

    def test_decreasing_caught(self):
        check = fq.monotone_no_overbid_check(lambda v: max(0.0, 0.4 - v) * 0.5, samples=500)
        assert not check.passed
        assert check.monotonicity_witnesses
