import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fpaeq as fq
from fpaeq import BidGrid, DomainError, JumpPointStrategy, discrete
from fpaeq.cdf import float_view


def grid_of(*bids):
    return BidGrid(tuple(F(b) for b in bids))


@pytest.fixture
def exact_searches(monkeypatch):
    """Deltas of the exact (Fraction) outer searches that solve runs during the test."""
    seen = []
    search = discrete._binary_search_top_utility

    def spy(dist, L, n, grid, delta):
        if isinstance(delta, F):
            seen.append(delta)
        return search(dist, L, n, grid, delta)

    monkeypatch.setattr(discrete, "_binary_search_top_utility", spy)
    return seen


class TestBidGrid:
    def test_invariants(self):
        assert grid_of("0", "1/4", "1/2").m == 3
        with pytest.raises(DomainError):
            grid_of("1/4", "1/2")  # lowest bid must be 0
        with pytest.raises(DomainError):
            grid_of("0", "1/2", "1/2")
        with pytest.raises(DomainError):
            grid_of("0", "1")
        with pytest.raises(DomainError):
            BidGrid(())


class TestJumpPointStrategy:
    # the bid index of value v is 1 + the piece of v in the step bid function, b_j on piece j - 1
    def test_bid_index_intervals(self):
        s = JumpPointStrategy((F(0), F(1, 3), F(2, 3), F(1)), (F(0),) * 4)
        piece = s.as_bid_function(grid_of("0", "1/4", "1/2")).piece_index
        assert piece(F(0)) == 0
        assert piece(F(1, 4)) == 0
        assert piece(F(1, 3)) == 0
        assert piece(F(1, 2)) == 1
        assert piece(F(1)) == 2

    def test_merged_interval_skipped(self):
        s = JumpPointStrategy((F(0), F(1, 2), F(1, 2), F(1)), (F(0),) * 4)
        piece = s.as_bid_function(grid_of("0", "1/4", "1/2")).piece_index
        assert piece(F(1, 2)) == 0
        assert piece(F(3, 4)) == 2

    def test_bid_index_matches_interval_rule(self):
        # reference: v in (s_{j-1}, s_j] bids b_j; v <= s_0 bids b_1
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(1, 6)
            s0 = rng.randint(0, 4)
            s = tuple(F(k, 8) for k in [s0] + sorted(rng.randint(s0, 8) for _ in range(m - 1))) + (F(1),)
            bid_fn = JumpPointStrategy(s, ()).as_bid_function(grid_of(*(F(i, 8) for i in range(m))))
            for v in set(s) | {F(i, 16) for i in range(17)}:
                j = bid_fn.piece_index(v) + 1
                if v <= s[0]:
                    assert j == 1
                else:
                    assert s[j - 1] < v <= s[j]

    @pytest.mark.parametrize("s", [
        (),
        (F(1),),
        (F(-1, 4), F(1, 2), F(1)),
        (F(0), F(3, 4), F(1, 4), F(1)),
        (F(0), F(3, 2), F(1)),
        (F(0), F(1, 2), F(3, 4)),
    ])
    def test_invalid_jump_points_rejected(self, s):
        with pytest.raises(DomainError, match="jump point"):
            JumpPointStrategy(s, ())

    def test_win_probs(self, uniform):
        s = JumpPointStrategy((F(0), F(1, 4), F(1, 4), F(1)), ())
        # n = 2: Delta(x, y) = (x + y)/2
        assert s.win_probs(uniform, 2) == (F(1, 8), F(1, 4), F(5, 8))

    def test_as_bid_function(self):
        g = grid_of("0", "1/4")
        s = JumpPointStrategy((F(0), F(1, 2), F(1)), (F(0),) * 3)
        f = s.as_bid_function(g)
        assert f(F(1, 4)) == 0
        assert f(F(3, 4)) == F(1, 4)


class TestDeltaWinProb:
    def test_uniform_pair(self, uniform):
        # n = 2: Delta(x, y) = (x + y)/2
        assert fq.delta_win_prob(uniform(F(1, 4)), uniform(F(3, 4)), 2) == F(1, 2)

    def test_diagonal_is_power(self, square):
        for n in (2, 3, 4):
            for x in (F(0), F(1, 3), F(1)):
                assert fq.delta_win_prob(square(x), square(x), n) == square(x) ** (n - 1)

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.fractions(min_value=0, max_value=1),
        y=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=2, max_value=5),
    )
    def test_tie_split_identity(self, x, y, n):
        # n * Delta is the geometric sum (F(y)^n - F(x)^n)/(F(y) - F(x))
        x, y = min(x, y), max(x, y)
        uniform = fq.uniform_cdf()
        d = fq.delta_win_prob(uniform(x), uniform(y), n)
        assert fq.delta_win_prob(uniform(y), uniform(x), n) == d
        if x == y:
            assert d == x ** (n - 1)
        else:
            assert n * d * (y - x) == y**n - x**n


class TestComputeStrategy:
    def test_top_utility_one_pools_everything(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        s, uvec = fq.compute_strategy(uniform, 1, 2, g, F(1), F(1, 2**20))
        assert s[0] == 1  # utility 1 is unattainable: all jumps collapse at the top

    def test_top_utility_zero_gives_zero_jump(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        s, uvec = fq.compute_strategy(uniform, 1, 2, g, F(0), F(1, 2**20))
        assert s[0] == 0
        assert s[1] == F(1, 4) and s[2] == F(1, 2)

    def test_achieved_utilities_within_delta(self, square):
        delta = F(1, 2**24)
        g = grid_of("0", "1/8", "1/4", "3/8")
        s, uvec = fq.compute_strategy(square, 2, 2, g, F(1, 3), delta)
        for i in range(1, g.m + 1):
            if s[i - 1] > g.bids[i - 1] and s[i - 1] < s[i]:
                achieved = (s[i - 1] - g.bids[i - 1]) * fq.delta_win_prob(square(s[i - 1]), square(s[i]), 2)
                assert abs(achieved - uvec[i - 1]) <= delta

    def test_jump_points_monotone_and_above_bids(self, uniform):
        g = grid_of("0", "1/8", "1/4", "1/2")
        s, _ = fq.compute_strategy(uniform, 1, 3, g, F(1, 4), F(1, 2**24))
        assert all(a <= b for a, b in zip(s, s[1:]))
        assert all(s[i - 1] >= g.bids[i - 1] or s[i - 1] == s[i] for i in range(1, g.m + 1))

    def test_bad_delta(self, uniform):
        with pytest.raises(DomainError):
            fq.compute_strategy(uniform, 1, 2, grid_of("0"), F(1, 2), F(0))

    def test_interpolation_reaching_the_point_above_pools(self, uniform):
        # U sits 3/2**62 below bid 2's utility at s_1 = 1; the float ratio of the interpolation
        # rounds to 1, so s_1 lands on s_2 and pools with it, taking U_2 rather than 3/4
        s, uvec = fq.compute_strategy(uniform, 1, 2, grid_of("0", "1/4"), F(3, 4) * (1 - F(1, 2**60)), F(1, 4))
        assert s[1] == s[2] == 1
        assert uvec[1] == uvec[2]

    def test_float_walk_matches_exact(self, square):
        g = grid_of("0", "1/8", "1/4", "3/8")
        s, uvec = fq.compute_strategy(square, 2, 3, g, F(1, 3), F(1, 2**30))
        fs, fu = fq.compute_strategy(float_view(square), 2, 3, g, 1 / 3, 2.0**-30)
        assert all(isinstance(x, float) for x in fs + fu)
        assert max(abs(a - b) for a, b in zip(s, fs)) < 1e-8
        assert max(abs(a - b) for a, b in zip(uvec, fu)) < 1e-8

    @pytest.mark.parametrize("r,k", [(F(0), 1), (F(2), 1), (F(3), 2), (F(4), 2), (F(5), 3),
                                     (F(2**1100), 1100), (F(2**1100 + 1), 1101), (F(7, 3), 2)])
    def test_step_count_exact_log2(self, r, k):
        assert discrete._ceil_log2(r) == k


class TestCheckConditions:
    def test_hand_equilibrium_passes(self, uniform):
        # uniform, n = 2, bids {0, 1/2}: full pooling at 0 is an exact equilibrium
        g = grid_of("0", "1/2")
        s = JumpPointStrategy((F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 2)))
        cert = fq.check_conditions(uniform, 2, g, s, F(1, 2**10))
        assert cert.passed
        assert cert.max_residual == 0

    def test_perturbed_utilities_fail(self, uniform):
        g = grid_of("0", "1/2")
        s = JumpPointStrategy((F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 4)))
        cert = fq.check_conditions(uniform, 2, g, s, F(1, 2**10))
        assert not cert.passed

    def test_pooled_utilities_must_be_equal(self, uniform):
        # bid 3/4 pools at the top; its two utilities differ by 2**-41, 18 gamma at eps = 2**-40
        g = grid_of("0", "1/4", "3/4")
        res = fq.solve(uniform, 2, g, F(1, 2**40))
        s, u = res.strategy.s, list(res.strategy.utilities)
        assert res.certificate.passed and s[2] == s[3] == 1
        u[3] += F(1, 2**41)
        cert = fq.check_conditions(res.transformed_cdf, 2, g, JumpPointStrategy(s, tuple(u)), res.certificate.gamma)
        assert (2, 3, F(1, 2**41), 0) in [(r.condition, r.index, r.residual, r.bound) for r in cert.residuals]
        assert not cert.passed

    def test_jump_below_bid_fails(self, uniform):
        g = grid_of("0", "1/2")
        s = JumpPointStrategy((F(0), F(1, 4), F(1)), (F(0), F(1, 8), F(7, 16)))
        cert = fq.check_conditions(uniform, 2, g, s, F(1, 2))
        assert any(r.condition == 3 and r.residual > 0 for r in cert.residuals)
        assert not cert.passed


class TestSolve:
    @pytest.mark.parametrize("n,bids", [(2, ("0", "1/2")), (2, ("0", "1/4", "1/2", "3/4")), (3, ("0", "1/3", "2/3"))])
    def test_certified_low_regret_uniform(self, uniform, n, bids):
        eps = F(1, 64)
        g = grid_of(*bids)
        res = fq.solve(uniform, n, g, eps)
        assert res.certificate.passed
        report = fq.epsilon_bne_check_cdfpa(uniform, n, g, res.strategy)
        assert report.max_regret <= eps

    def test_nonuniform_cdf(self, square):
        eps = F(1, 32)
        g = grid_of("0", "1/4", "1/2")
        res = fq.solve(square, 2, g, eps)
        assert res.certificate.passed
        assert fq.epsilon_bne_check_cdfpa(square, 2, g, res.strategy).max_regret <= eps

    def test_strategy_shape(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        res = fq.solve(uniform, 2, g, F(1, 32))
        s = res.strategy.s
        assert s[0] == 0 and s[-1] == 1
        assert all(a <= b for a, b in zip(s, s[1:]))

    def test_expose_transformed(self, uniform):
        res = fq.solve(uniform, 2, grid_of("0", "1/2"), F(1, 16))
        assert res.transformed_cdf is not None
        assert res.transformed_cdf(F(1, 2)) == F(1, 2)  # mixing fixes the identity cdf

    def test_oracle_uses_its_own_lipschitz(self, uniform):
        oracle = fq.oracle_from_piecewise(uniform)
        g = grid_of("0", "1/2")
        res = fq.solve(oracle, 2, g, F(1, 16))
        assert res.certificate.passed
        assert res.strategy == fq.solve(uniform, 2, g, F(1, 16)).strategy  # the same L = 1

    def test_oracle_counts_the_queries_of_a_solve(self, square):
        oracle = fq.oracle_from_piecewise(square)
        res = fq.solve(oracle, 2, grid_of("0", "1/4", "1/2"), F(1, 64))
        assert oracle.query_count == res.transformed_cdf.query_count > 0

    def test_oracle_queries_equal_evaluated_points(self, two_piece):
        class Counted:
            """two_piece, counting the points it evaluates: exact ones and float ones, array elements included."""

            def __init__(self):
                self.exact = self.floats = 0

            def __call__(self, x):
                self.exact += 1
                return two_piece(x)

            def float_evaluator(self):
                inner = two_piece.float_evaluator()

                def ev(x):
                    self.floats += getattr(x, "size", 1)
                    return inner(x)

                return ev

        counted = Counted()
        oracle = fq.CdfOracle(counted, two_piece.lipschitz_bound())
        res = fq.solve(oracle, 3, grid_of("0", "1/8", "3/8", "1/2"), F(1, 2**20))
        assert res.certificate.passed
        assert counted.floats > 0  # the float search ran in floats, not on exact rationals
        assert oracle.query_count == res.transformed_cdf.query_count == counted.exact + counted.floats

    def test_bare_callable_rejected(self):
        with pytest.raises(DomainError):
            fq.solve(lambda x: x, 2, grid_of("0", "1/2"), F(1, 16))

    def test_bad_eps(self, uniform):
        with pytest.raises(DomainError):
            fq.solve(uniform, 2, grid_of("0", "1/2"), F(2))

    def test_tiny_delta(self, uniform):
        # float(delta) underflows to 0.0; the float search stops at the float resolution 2**-52
        g = grid_of("0", "1/4", "1/2")
        strategy = discrete._float_search(uniform, 1, 2, g, F(1, 2**1100))
        assert fq.check_conditions(uniform, 2, g, strategy, F(1, 2**20)).passed

    def test_float_search_below_2_to_minus_40(self, square, monkeypatch):
        # gamma / 4 = 2**-41 / 3 here; a float tolerance floored at 2**-40 left residuals above
        # gamma and one exact search (0.6 s), while 2**-52 certifies the float result
        def no_exact_search(*args):
            raise AssertionError("the float search was not certified")

        monkeypatch.setattr(discrete, "_exact_search", no_exact_search)
        g = grid_of(*(F(i, 8) for i in range(4)))
        assert fq.solve(square, 4, g, F(1, 2**34)).certificate.passed

    def test_lowest_utility_is_zero(self, square, exact_searches):
        # b_1 = 0, so U_0 = 0 and s_0 = 0 make bid 1's bottom residual 0 exactly; the walk's own
        # s_0 * Delta(s_0, s_1) would sit there instead
        g = grid_of("0", "1/6", "1/3")
        for eps in (F(1, 64), F(1, 2**20)):
            res = fq.solve(square, 2, g, eps)
            assert res.strategy.s[0] == 0 and res.strategy.utilities[0] == 0
            bottom = [r for r in res.certificate.residuals if (r.condition, r.index) == (1, 1)][-1]
            assert bottom.residual == 0
            assert res.certificate.passed
        assert exact_searches == []

    def test_power_8_certified_by_the_float_search(self, exact_searches):
        # a bisection that ends at the midpoint makes s_0 a step function of U: searched to a U bracket
        # of delta = gamma/4, both arithmetics left bid 1 with a residual of 312 gamma; the
        # interpolated bracket end makes the walk continuous in U
        dist = fq.power_cdf(8)
        g = grid_of(*(F(k, 256) for k in (0, 10, 63, 71, 122, 137, 144, 201, 240)))
        res = fq.solve(dist, 2, g, F(1, 2**20))
        assert res.certificate.passed
        assert exact_searches == []
        gamma, mixed = res.certificate.gamma, res.transformed_cdf
        strategy = discrete._exact_search(mixed, dist.lipschitz_bound(), 2, g, gamma / 4)
        assert fq.check_conditions(mixed, 2, g, strategy, gamma).passed

    def test_float_result_taken_back_exactly(self, uniform, monkeypatch):
        g = grid_of("0", "1/5", "1/3", "1/2")
        third = float(F(1, 3))  # not 1/3: a float cannot hold it
        uvec = [0.0, 0.01, 0.01, 0.1, 0.3]
        monkeypatch.setattr(discrete, "_binary_search_top_utility",
                            lambda *args: ([0.1, third, third, 0.7, 1.0], uvec))
        strategy = discrete._float_search(uniform, 1, 2, g, F(1, 2**30))
        # s_0 = 0; s_2 snaps onto its bid 1/3 and s_1, pooled with it, follows
        assert strategy.s == (0, F(1, 3), F(1, 3), F(0.7), 1)
        assert strategy.utilities == tuple(F(u) for u in uvec)

    @pytest.mark.parametrize("walk,expected", [
        # s_1 is the largest float below its bid 1/5, which no float holds: it becomes the bid
        ([0.1, math.nextafter(0.2, 0), 0.75, 1.0], (0, F(1, 5), F(3, 4), 1)),
    ], ids=["below-its-bid"])
    def test_float_result_is_a_valid_strategy(self, walk, expected, uniform, monkeypatch):
        g = grid_of("0", "1/5", "1/2")
        monkeypatch.setattr(discrete, "_binary_search_top_utility", lambda *args: (walk, [0.0] * 4))
        strategy = discrete._float_search(uniform, 1, 2, g, F(1, 2**30))
        assert isinstance(strategy, JumpPointStrategy)
        assert strategy.s == expected

    def test_uncertified_float_result_falls_back_to_exact(self, uniform, monkeypatch, exact_searches):
        g = grid_of("0", "1/4", "1/2")
        eps = F(1, 32)
        # s_1 = 1/8 lies below the bid 1/4 it starts, so condition 3 fails whatever the cdf
        bad = JumpPointStrategy((F(0), F(1, 8), F(1, 8), F(1)), (F(0),) * 4)
        assert not fq.check_conditions(uniform, 2, g, bad, eps).passed
        monkeypatch.setattr(discrete, "_float_search", lambda *args: bad)
        res = fq.solve(uniform, 2, g, eps)
        assert exact_searches == [res.certificate.gamma / 4]  # one exact search, at gamma/4
        assert res.strategy != bad
        assert res.certificate.passed
        assert fq.epsilon_bne_check_cdfpa(uniform, 2, g, res.strategy).max_regret <= eps

    def test_no_certified_attempt_raises(self, uniform, monkeypatch, exact_searches):
        failed = fq.Certificate(F(1), False, F(1), ())
        monkeypatch.setattr(discrete, "check_conditions", lambda *args: failed)
        with pytest.raises(fq.PrecisionError, match="neither the float search nor the exact search"):
            fq.solve(uniform, 2, grid_of("0", "1/2"), F(1, 16))
        assert len(exact_searches) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_float_search_certified(self, seed, uniform, square, two_piece, exact_searches):
        rng = random.Random(seed)
        dist = rng.choice([uniform, square, two_piece, fq.power_cdf(8)])
        n = rng.choice([2, 3, 4, 8, 16])
        m = rng.randrange(1, 9)
        den = rng.choice([128, 100, 21])  # dyadic bids and bids a float cannot hold exactly
        raw = rng.sample(range(1, den), m - 1)
        grid = BidGrid((F(0),) + tuple(sorted(F(k, den) for k in raw)))
        eps = F(1, 2 ** rng.choice([6, 20, 34]))
        res = fq.solve(dist, n, grid, eps)
        assert res.certificate.passed
        assert res.strategy.s[0] == 0 and res.strategy.utilities[0] == 0
        assert all(r.residual == 0 for r in res.certificate.residuals if (r.condition, r.bound) == (2, 0))
        assert res.certificate.max_residual <= res.certificate.gamma
        assert exact_searches == []  # the float search alone was certified
        assert fq.epsilon_bne_check_cdfpa(dist, n, grid, res.strategy).max_regret <= eps

    @pytest.mark.parametrize("seed,forced_exact", [(seed, seed % 3 == 0) for seed in range(6)])
    def test_query_count_within_algorithm_bound(self, seed, forced_exact, uniform, square, two_piece,
                                                monkeypatch):
        rng = random.Random(seed)
        dist = rng.choice([uniform, square, two_piece])
        n, m = rng.choice([2, 3, 4]), rng.randrange(1, 7)
        grid = BidGrid((F(0),) + tuple(sorted(F(k, 128) for k in rng.sample(range(1, 128), m - 1))))
        eps = F(1, 2 ** rng.choice([6, 20]))
        if forced_exact:
            # every value pools at the top bid with utility 0: bid 1's top residual is 1/n
            bad = JumpPointStrategy((F(0),) + (F(1),) * m, (F(0),) * (m + 1))
            monkeypatch.setattr(discrete, "_float_search", lambda *args: bad)
        tols = []  # the tolerance of each walk the solve runs
        walk = discrete.compute_strategy
        monkeypatch.setattr(discrete, "compute_strategy", lambda *args: tols.append(args[-1]) or walk(*args))
        oracle = fq.oracle_from_piecewise(dist)
        res = fq.solve(oracle, n, grid, eps)
        assert res.certificate.passed
        delta, L = res.certificate.gamma / 4, max(1, dist.lipschitz_bound())
        exact_walks = sum(isinstance(tol, F) for tol in tols)
        assert len(tols) - exact_walks <= 1 + 52  # U = 1, then halvings down to a bracket of 2**-52
        assert exact_walks <= 1 + 52 + discrete._ceil_log2(1 / delta)  # down to delta * 2**-52
        # per walk: F(1); per bid F(b), one F per bisection step and F at the jump; then F(0) and
        # F(s_1) for bid 1's residual.  Each certificate evaluates m + 1 points, and solve checks two
        points = sum(m * (discrete._ceil_log2(n * L / F(tol)) + 2) + 3 for tol in tols) + 2 * (m + 1)
        assert 0 < oracle.query_count <= points  # one query per evaluated point
