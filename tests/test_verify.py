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

    def test_value_grid_includes_jump_midpoints(self, uniform):
        g = grid_of("0", "1/2")
        s = JumpPointStrategy((F(0), F(1, 3), F(1)), (F(0), F(1, 18), F(5, 12)))
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, g, s, value_grid_size=4)
        values = {F(1, 3), F(2, 3)}  # jump point and the midpoint above it
        assert report.max_regret >= 0
        assert len(report.samples) >= 5 + len(values)

    def test_wrong_length_strategy_rejected(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_cdfpa(uniform, 2, g, JumpPointStrategy((F(0), F(1)), (F(0),) * 2))

    def test_invalid_strategy_rejected(self, uniform):
        g = grid_of("0", "1/2")
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_cdfpa(uniform, 2, g, JumpPointStrategy((F(0), F(1, 2), F(1, 4)), (F(0),) * 3))


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
