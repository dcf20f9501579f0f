import bisect
import contextlib
import fractions
import functools
import itertools
import os
import pathlib
import random
import subprocess
import sys
import timeit
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpaeq as fq
from fpaeq import BidGrid, JumpPointStrategy
from fpaeq.cdf import float_view

from conftest import seeded_cubic


def grid_of(*bids):
    return BidGrid(tuple(F(b) for b in bids))


class TestExactRegretCdfpa:
    def test_exact_equilibrium_has_zero_regret(self, uniform):
        # full pooling at 0 is exact for uniform, n = 2, bids {0, 1/2}
        g = grid_of("0", "1/2")
        s = JumpPointStrategy(g, (F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 2)))
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, s)
        assert report.max_regret == 0

    def test_bad_strategy_regret_by_hand(self, uniform):
        # everyone bids 1/2 regardless of value; v = 1/2 prefers bidding 0
        g = grid_of("0", "1/2")
        s = JumpPointStrategy(g, (F(0), F(0), F(1)), (F(0), F(0), F(1, 4)))
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, s)
        # smallest positive grid value is 1/64: own utility there is
        # (1/64 - 1/2) * Delta(0, 1) = -31/128, deviating to 0 gives 0
        assert report.max_regret == F(31, 128)
        assert report.argmax == (F(1, 64), F(0))

    def test_solver_output_has_small_exact_regret(self, square):
        g = grid_of("0", "1/4", "1/2")
        eps = F(1, 64)
        res = fq.solve(square, 2, g, eps)
        report = fq.epsilon_bne_check_cdfpa(square, 2, res.strategy)
        assert 0 <= report.max_regret <= eps

    def test_argmax_at_a_jump_midpoint(self, uniform):
        # bid 39/64 on (63/64, 1]: regret falls with v there, and no i/64 or bid lies inside,
        # so the largest value-set regret sits at the midpoint 127/128
        g = grid_of("0", "39/64")
        s = JumpPointStrategy(g, (F(0), F(63, 64), F(1)), ())
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, s)
        # (127/128) * Delta(0, 63/64) - (127/128 - 39/64) * Delta(63/64, 1)
        assert report.max_regret == F(889, 8192)
        assert report.argmax == (F(127, 128), F(0))

    def test_two_fractions_per_call(self, square):
        # F at the jump points comes as integer pairs and every comparison is on ints, so the Fractions built are
        # the regret and its argmax value; F's values as Fractions made m + 1 more
        strategy = fq.solve(square, 3, grid_of(*(F(k, 16) for k in range(8))), F(1, 64)).strategy
        expected, built, new = fq.epsilon_bne_check_cdfpa(square, 3, strategy), [], fractions.Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fractions.Fraction, "__new__", counted)
            report = fq.epsilon_bne_check_cdfpa(square, 3, strategy)
        assert len(built) == 2
        assert report == expected

    def test_wrong_length_strategy_rejected(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_cdfpa(uniform, 2, JumpPointStrategy(g, (F(0), F(1)), (F(0),) * 2))

    def test_invalid_strategy_rejected(self, uniform):
        g = grid_of("0", "1/2")
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_cdfpa(uniform, 2, JumpPointStrategy(g, (F(0), F(1, 2), F(1, 4)), (F(0),) * 3))


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
        u_own = (v - grid.bids[own - 1]) * fq.delta_win_prob(dist(s[own - 1]), dist(s[own]), n)
        for j in range(1, m + 1):
            regret = (v - grid.bids[j - 1]) * fq.delta_win_prob(dist(s[j - 1]), dist(s[j]), n) - u_own
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
            s = fq.solve(dist, n, grid, F(1, 16)).strategy.s
        report = fq.epsilon_bne_check_cdfpa(dist, n, JumpPointStrategy(grid, s, ()))
        assert (report.max_regret, report.argmax) == brute_force_exact_regret(dist, n, grid, s)

    @pytest.mark.parametrize("name,bids,s,regret,argmax,tied", [
        # Delta = 1/8, 1/2, 7/8: 17/64 deviating to 0 and 49/64 deviating to 1/4 both gain 13/512
        ("uniform", ("0", "1/4", "1/2"), ("0", "1/4", "3/4", "1"), F(13, 512), (F(17, 64), F(0)), F(49, 64)),
        # 25/64 deviating to 0 and 1 deviating to 5/8 both gain 23/256
        ("square", ("0", "1/2", "5/8"), ("0", "3/8", "1", "1"), F(23, 256), (F(25, 64), F(0)), F(1)),
    ], ids=["uniform", "square"])
    def test_tie_between_values_keeps_the_smaller(self, name, bids, s, regret, argmax, tied, request):
        dist, grid, s = request.getfixturevalue(name), grid_of(*bids), tuple(F(x) for x in s)
        report = fq.epsilon_bne_check_cdfpa(dist, 2, JumpPointStrategy(grid, s, ()))
        assert (report.max_regret, report.argmax) == (regret, argmax) == brute_force_exact_regret(dist, 2, grid, s)
        # the larger value does tie: its best deviation less its own bid's utility is the same regret
        win = JumpPointStrategy(grid, s, ()).win_probs(dist, 2)
        j = next(j for j in range(grid.m) if s[j] < tied <= s[j + 1])
        assert max((tied - b) * w for b, w in zip(grid.bids, win)) - (tied - grid.bids[j]) * win[j] == regret

    def test_values_from_several_sources(self, square):
        # 5/8 is a jump point, a bid and 40/64, and the argmax; 3/8 is the midpoint of 1/8 and 5/8, a bid and
        # 24/64; each is one value of the set
        grid, s = grid_of("0", "1/8", "3/8", "5/8"), tuple(F(x) for x in ("1/8", "1/8", "5/8", "1", "1"))
        report = fq.epsilon_bne_check_cdfpa(square, 2, JumpPointStrategy(grid, s, ()))
        expected = (F(37, 512), (F(5, 8), F(3, 8)))
        assert (report.max_regret, report.argmax) == expected == brute_force_exact_regret(square, 2, grid, s)

    @pytest.mark.parametrize("name,n,bids,s,regret,tied", [
        # 1/4 (a jump point, a bid and 16/64) and 1/2 (a jump point and 32/64), on bids over 12
        ("uniform", 2, ("0", "1/12", "1/4", "5/12"), ("1/12", "1/4", "1/2", "11/12", "1"), F(1, 48),
         (F(1, 4), F(1, 2))),
        # 11/64 (only i/64) and 3/4 (a pooled jump point and 48/64)
        ("uniform", 3, ("0", "5/12", "1/2", "7/12"), ("1/12", "1/6", "3/4", "3/4", "1"), F(317, 5184),
         (F(11, 64), F(3, 4))),
        # 1/2 (a jump point and 32/64) and 2/3 (only a jump point)
        ("square", 2, ("0", "1/12", "1/4", "5/12"), ("5/12", "1/2", "7/12", "2/3", "1"), F(59, 3456),
         (F(1, 2), F(2, 3))),
    ], ids=["bid-and-jump", "grid-and-pooled", "non-dyadic-jump"])
    def test_tie_across_value_sources(self, name, n, bids, s, regret, tied, request):
        dist, grid, s = request.getfixturevalue(name), grid_of(*bids), tuple(F(x) for x in s)
        strategy = JumpPointStrategy(grid, s, ())
        report = fq.epsilon_bne_check_cdfpa(dist, n, strategy)
        assert report.max_regret == regret and report.argmax[0] == tied[0]
        assert (report.max_regret, report.argmax) == brute_force_exact_regret(dist, n, grid, s)
        # the larger value does tie
        win, v = strategy.win_probs(dist, n), tied[1]
        j = next(j for j in range(grid.m) if s[j] < v <= s[j + 1])
        assert max((v - b) * w for b, w in zip(grid.bids, win)) - (v - grid.bids[j]) * win[j] == regret

    @pytest.mark.parametrize("bids,s", [
        (("0",), ("1/3", "1")),  # one bid: every value's own bid is its only deviation
        (("0", "1/2"), ("0", "1", "1")),  # everyone pools at 0, an exact equilibrium for n = 2
    ])
    def test_no_positive_regret(self, uniform, bids, s):
        # every regret is 0, so the first maximum is value 0 deviating to bid 0
        grid, s = grid_of(*bids), tuple(F(x) for x in s)
        report = fq.epsilon_bne_check_cdfpa(uniform, 2, JumpPointStrategy(grid, s, ()))
        assert (report.max_regret, report.argmax) == (0, (0, 0)) == brute_force_exact_regret(uniform, 2, grid, s)

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_denominators(self, seed, request):
        # bids over 3, 5, 7, 12 and 64 beside each other, up to 32 of them, and jump points over 24
        # and 60 with s_0 > 0
        rng = random.Random(seed)
        dist = request.getfixturevalue(("uniform", "square", "two_piece")[seed % 3])
        pool = sorted({F(k, q) for q in (3, 5, 7, 12, 64) for k in range(1, q) if F(k, q) < F(15, 16)})
        grid = BidGrid((F(0),) + tuple(sorted(rng.sample(pool, rng.randint(8, 31)))))
        s = tuple(sorted(F(rng.randint(1, q), q) for q in rng.choices((24, 60), k=grid.m))) + (F(1),)
        n = rng.choice((2, 3, 4))
        report = fq.epsilon_bne_check_cdfpa(dist, n, JumpPointStrategy(grid, s, ()))
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
        oracle = fq.CdfOracle(adversarial)
        plan = fq.precompute(oracle, 2, eps)
        report = fq.epsilon_bne_check_ccfpa(adversarial, 2, lambda x: fq.bid(plan, x).upper)
        assert report.max_regret < float(eps) + 0.02

    def test_other_cdf_rejected(self, uniform):
        with pytest.raises(fq.DomainError):
            fq.epsilon_bne_check_ccfpa(fq.CdfOracle(uniform), 2, lambda v: v / 2)

    @pytest.mark.parametrize("n", [8, 16])
    def test_ill_conditioned_canonical_bid(self, n):
        # the float rows of this bid cancel so badly that their plain quotient is off by 1.25% at
        # n = 8 and by a factor of hundreds at n = 16, enough for false "decreases" and "overbids"
        # witnesses; the float view's error filter keeps the exact equilibrium at no regret
        dist = seeded_cubic(0, 8)
        report = fq.epsilon_bne_check_ccfpa(dist, n, fq.canonical_bid_function(dist, n))
        assert report.max_regret <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_win_probability_at_most_one(self, n):
        # seeded_cubic(0, 4) reads 1 + 1.3e-15 at the float below 1, up to which this step function bids 0:
        # there the deviation to the grid point 1/512 beats every opponent, and bid 0 ties with all of them.
        # At n = 2 value 1 bids 1/2 and wins for sure, so it gains 1/2 - 1/512 by that deviation; at n = 3
        # value 127/128 wins a third of its value with bid 0 and gains more.  Both reports are the floats of those
        # exact regrets; read unguarded, the cdf put each higher, by about 1.3e-15 at n = 2 and 2.6e-15 at n = 3
        dist, x = seeded_cubic(0, 4), np.nextafter(1.0, 0.0)
        assert float_view(dist)(np.array([x]))[0] > 1
        step = fq.PiecewisePoly((0, F(x), 1), [(F(0),), (F(1, 2),)])
        value, own = {2: (F(1), F(1, 2)), 3: (F(127, 128), F(127, 384))}[n]
        report = fq.epsilon_bne_check_ccfpa(dist, n, step)
        assert report == fq.RegretReport(float(value - F(1, 512) - own), (float(value), 1 / 512))

    def test_pooling_at_zero_reported(self, uniform):
        # everyone bids 0: at value 1 the tie wins 1/2, while bidding 1/8 always wins, a regret
        # of 7/8 - 1/2 = 0.375 (Monte Carlo's, with sigma 0); the grid verifier's own bid splits the
        # tie as well, and its deviations include the grid point 1/512, so it reports 1 - 1/512 - 1/2
        bid_fn = JumpPointStrategy(grid_of("0"), (F(0), F(1)), ())
        assert fq.epsilon_bne_check_ccfpa(uniform, 2, bid_fn) == fq.RegretReport(0.498046875, (1.0, 1 / 512))

    def test_pooling_callable_reported(self, uniform):
        # the same pool as a callable, which has no thresholds of its own: its deviations are its bid 0 and
        # the float above it, which beats every opponent, so value 1 gains 1 - 1/2, at least the 0.375 of
        # Monte Carlo on the jump points; with the tie split alone both deviations would tie and report 0
        report = fq.epsilon_bne_check_ccfpa(uniform, 2, lambda v: 0)
        assert report == fq.RegretReport(0.5, (1.0, 5e-324))
        steps = JumpPointStrategy(grid_of("0"), (F(0), F(1)), ())
        assert report.max_regret >= fq.monte_carlo_regret(uniform, 2, steps, 1000, 0).max_regret == 0.375

    def test_pooling_at_the_top_reported(self, uniform):
        # bid v up to 1/2, then 1/2: value 1 ties with the values above 1/2 and wins 3/4 of 1/2, where the
        # float above 1/2 wins 1/2 for sure, a regret of 1/8
        bid_fn = fq.PiecewisePoly((0, F(1, 2), 1), [(F(0), F(1)), (F(1, 2),)])
        report = fq.epsilon_bne_check_ccfpa(uniform, 2, bid_fn)
        assert report.argmax == (1.0, np.nextafter(0.5, 1.0))
        assert abs(report.max_regret - 1 / 8) <= 1e-15


def step_threshold(strategy, y):
    """sup {x : strategy(x) <= y} over floats x, from the strategy's exact jump points: 0 below every
    bid, else the largest float at or below s_(k+1), where bid k, the last whose float is at most y,
    ends (1 after the top bid).  The bids are compared as the float view reads them."""
    k = sum(1 for b in strategy.bids if float(b) <= y) - 1
    if k < 0:
        return 0.0
    x = float(strategy.s[k + 1])
    return float(np.nextafter(x, -np.inf)) if F(x) > strategy.s[k + 1] else x


def scalar_grid_regret(dist, n, bid_fn):
    """The grid verifier's algorithm one point at a time, in threshold coordinates: one scalar float
    bid per z, z = v_low + (1 - v_low) j/512 over the support, made nondecreasing; the values are every
    fourth z.  The deviations are those bids, then for a jump-point strategy the points z, else the float
    above each bid.  Each deviation b wins Delta(F(z-), F(z+)), ties split evenly: the exact delta_win_prob
    of the two float cdf values where they differ, else F(z+)**(n-1), with z- and z+ the first and last z of
    b's run of equal bids, both the last z bidding below b if b is not one of the bids (for a jump-point
    strategy its exact thresholds below b and at b, step_threshold).  The own bid
    of each value wins by the same rule.  Then a double loop over the values and the deviations keeps the
    first largest regret, floored at 0.  It reads the bids and the cdf in the verifier's arithmetic,
    float_view and numpy's ** on arrays: on an exact equilibrium every regret is rounding noise, so
    another arithmetic picks another argmax."""
    fcdf, fbid = float_view(dist), float_view(bid_fn)
    v_low = float(dist.support_infimum())
    z = [v_low + (1 - v_low) * j / 512 for j in range(513)]
    bids = list(itertools.accumulate((float(fbid(x)) for x in z), max))
    steps = isinstance(bid_fn, JumpPointStrategy)
    deviations = bids + (z if steps else [float(np.nextafter(b, np.inf)) for b in bids])

    def edges(b):
        if steps:
            return step_threshold(bid_fn, np.nextafter(b, -np.inf)), step_threshold(bid_fn, b)
        run, below = [x for x, y in zip(z, bids) if y == b], [x for x, y in zip(z, bids) if y <= b]
        return run[0] if run else below[-1], below[-1]

    def win(b):
        a, c = (fcdf(np.array([x]))[0] for x in edges(b))
        return float(fq.delta_win_prob(F(a), F(c), n)) if a < c else (np.array([c]) ** (n - 1))[0]

    wins = {b: win(b) for b in deviations}
    best = (float("-inf"), None)
    for v, own_bid in zip(z[::4], bids[::4]):
        own = wins[own_bid] * (v - own_bid)
        for b in deviations:
            regret = wins[b] * (v - b) - own
            if regret > best[0]:
                best = (regret, (v, b))
    return max(float(best[0]), 0.0), best[1]


def grid_case(kind, n, request):
    """(cdf, bid function) for the grid verifier's equivalence cases."""
    if kind in ("uniform", "square", "two_piece", "shifted_support"):
        dist = request.getfixturevalue(kind)
        return dist, fq.canonical_bid_function(dist, n)
    if kind == "solved-steps":
        dist, g = request.getfixturevalue("square"), grid_of(*(F(i, 24) for i in range(12)))
        return dist, fq.solve(dist, n, g, F(1, 64)).strategy
    if kind == "pooled-top":
        # bid v up to 1/2, then 1/2: a pool with no thresholds of its own, which the float above 1/2 beats
        return request.getfixturevalue("uniform"), fq.PiecewisePoly((0, F(1, 2), 1), [(F(0), F(1)), (F(1, 2),)])
    if kind == "pooled-steps":
        # jump points off the dyadics, with bid 1/5 pooled away on the empty (1/3, 1/3]; the largest
        # regret deviates from value 92/128 to the grid point 161/512 just above the step value 5/16, which
        # beats every value up to 5/7 where 5/16 itself ties with those above 1/3
        g = grid_of("0", "1/5", "5/16", "1/2")
        return request.getfixturevalue("uniform"), JumpPointStrategy(g, (F(0), F(1, 3), F(1, 3), F(5, 7), F(1)), ())
    dist = request.getfixturevalue("adversarial")
    oracle = fq.CdfOracle(dist)
    plan = fq.precompute(oracle, n, F(1, 64))
    return dist, lambda x: fq.bid(plan, x).upper


class TestGridMatchesScalarReference:
    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in ("uniform", "square", "two_piece") for n in (2, 3, 4)]
                             + [("shifted_support", 2), ("shifted_support", 3), ("solved-steps", 3),
                                ("pooled-steps", 2), ("pooled-top", 2), ("pooled-top", 3), ("blackbox", 2)])
    def test_same_argmax_and_regret(self, kind, n, request):
        dist, bid_fn = grid_case(kind, n, request)
        report = fq.epsilon_bne_check_ccfpa(dist, n, bid_fn)
        max_regret, argmax = scalar_grid_regret(dist, n, bid_fn)
        assert report.argmax == argmax
        assert abs(report.max_regret - max_regret) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_increasing_lines_as_a_callable(self, data):
        # a strictly increasing bid function with no thresholds of its own: each deviation beta(z) wins
        # against exactly the values below z, the one-point run of its bid
        dist = data.draw(st.sampled_from([fq.uniform_cdf(), fq.power_cdf(2)]))
        n = data.draw(st.integers(2, 5))
        bid_fn = data.draw(increasing_lines())
        report = fq.epsilon_bne_check_ccfpa(dist, n, bid_fn)
        assert (report.max_regret, report.argmax) == scalar_grid_regret(dist, n, bid_fn)


@st.composite
def increasing_lines(draw):
    """A strictly increasing piecewise-linear bid function that never overbids, as a plain callable on
    exact rationals: knots 0 = x_0 < ... < x_k = 1 on the 64ths, with y_0 = 0 and each y_i a fraction of
    the way from y_(i-1) up to x_i."""
    xs = [F(0), *sorted(F(j, 64) for j in draw(st.sets(st.integers(1, 63), max_size=4))), F(1)]
    ys = [F(0)]
    for x in xs[1:]:
        ys.append(ys[-1] + (x - ys[-1]) * F(draw(st.integers(1, 16)), 16))

    def bid(v):
        i = min(bisect.bisect_right(xs, v), len(xs) - 1)
        return ys[i - 1] + (ys[i] - ys[i - 1]) * (v - xs[i - 1]) / (xs[i] - xs[i - 1])

    return bid


def endpoint_sup_regret(dist, n, grid, s):
    """The supremum over every value v in [0, 1] of max_k (v - b_k) Delta_k minus the utility of v's
    own bid.  On [0, s_0] and on each step interval (s_(j-1), s_j] the own bid is fixed, so the
    regret is a maximum of lines minus a line: convex, with its supremum at an endpoint (at the
    left end of (s_(j-1), s_j], the limit from the right, under bid j)."""
    win = JumpPointStrategy(grid, s, ()).win_probs(dist, n)
    steps = [(F(0), s[0], 0)] + [(s[j - 1], s[j], j - 1) for j in range(1, grid.m + 1) if s[j - 1] < s[j]]
    best = F(0)
    for lo, hi, own in steps:
        for v in (lo, hi):
            u_own = (v - grid.bids[own]) * win[own]
            best = max(best, max((v - b) * w for b, w in zip(grid.bids, win)) - u_own)
    return best


class TestGuaranteeAgainstSupremum:
    """A certified solve is an eps-approximate equilibrium under F, and a 2 gamma m-approximate one
    under the mixed cdf it was certified on, measured by the supremum over all values."""

    @pytest.mark.parametrize("eps", [F(1, 64), F(1, 2**20)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", ["uniform", "square", "quartic"])
    def test_certified_regret_within_bounds(self, name, n, eps, request):
        dist = fq.power_cdf(4) if name == "quartic" else request.getfixturevalue(name)
        rng = random.Random(f"{name}:{n}:{eps}")
        for _ in range(4):
            m = rng.randint(2, 8)
            grid = BidGrid((F(0),) + tuple(F(k, 256) for k in sorted(rng.sample(range(1, 96), m - 1))))
            res = fq.solve(dist, n, grid, eps)
            s = res.strategy.s
            sup = endpoint_sup_regret(dist, n, grid, s)
            # the exact verifier's value set lies in [0, 1]: its maximum bounds the supremum from below
            assert fq.epsilon_bne_check_cdfpa(dist, n, res.strategy).max_regret <= sup <= eps
            assert endpoint_sup_regret(res.transformed_cdf, n, grid, s) <= 2 * res.certificate.gamma * grid.m


class CountingView:
    """A float view that counts its calls and the points it evaluates."""

    def __init__(self, f):
        self.f, self.calls, self.points = f, 0, 0

    def __call__(self, x):
        self.calls += 1
        self.points += x.size
        return self.f(x)


class CountedBid:
    """A bid function whose float view counts its calls and the points it evaluates; any other
    attribute, such as a step function's float_thresholds, is the bid function's own."""

    def __init__(self, bid_fn):
        self.bid_fn, self.view = bid_fn, CountingView(float_view(bid_fn))

    def float_evaluator(self):
        return self.view

    def __getattr__(self, name):
        return getattr(self.bid_fn, name)


@st.composite
def step_thresholds(draw):
    """(step function, y): a nondecreasing step function of jump points, some pooled and some below
    2**-7, and floats y at its bids, just below them and at random."""
    m = draw(st.integers(1, 8))
    grid = grid_of(0, *(F(k, 256) for k in sorted(draw(st.sets(st.integers(1, 255), min_size=m - 1, max_size=m - 1)))))
    point = st.one_of(st.integers(0, 12).map(lambda k: F(k, 12)),  # pooled: few distinct points
                      st.integers(0, 2**13).map(lambda k: F(k, 2**20)),  # at most 2**-7
                      st.fractions(0, 1, max_denominator=10**12))
    s = sorted(draw(st.lists(point, min_size=m, max_size=m))) + [F(1)]
    bids = np.array([float(b) for b in grid.bids])
    y = np.concatenate([bids, np.nextafter(bids, -np.inf), draw(st.lists(st.floats(-0.25, 1.25), max_size=8))])
    return JumpPointStrategy(grid, s, ()), y


class TestStepThresholds:
    """A step function with nondecreasing constant rows reads its thresholds off its breakpoints."""

    @settings(max_examples=200, deadline=None)
    @given(step_thresholds())
    def test_within_the_inversion_bracket(self, case):
        # each threshold is the largest float at or below the exact jump point where the last bid at most y ends
        strategy, y = case
        assert strategy.float_thresholds()(y).tolist() == [step_threshold(strategy, x) for x in y.tolist()]

    @pytest.mark.parametrize("rows", [[(F(1, 2),), (F(1, 4),)], [(F(0),), (F(0), F(1, 2))]], ids=["falling", "linear"])
    def test_other_rows_have_none(self, rows):
        assert fq.PiecewisePoly((0, F(1, 2), 1), rows).float_thresholds() is None


def reference_win_probs(a: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Delta(a, c) as the grid verifier once formed it on its own: the mean of a**j c**(n - 1 - j) over j < n,
    each power of a updated in place, and c**(n - 1) where a >= c, by products as grid mode takes it now."""
    acc, power, top = np.ones_like(c), np.ones_like(a), np.ones_like(c)
    for _ in range(n - 1):
        power *= a
        acc = acc * c + power
        top = top * c
    return np.where(a < c, acc / n, top)


class TestGridWinProbs:
    """Grid mode's win probabilities, np.where(a < c, delta_win_prob(c, a, n), c**(n - 1)) with the power by
    discrete._powers, are the bits of the verifier's own former recurrence."""

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0])),
                                    st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0])), st.booleans()),
                          min_size=1, max_size=40),
           n=st.integers(2, 64))
    def test_same_bits_as_the_reference(self, pairs, n):
        a = np.array([min(x, y) for x, y, _ in pairs])
        c = np.array([min(x, y) if equal else max(x, y) for x, y, equal in pairs])
        win = np.where(a < c, fq.delta_win_prob(c, a, n), fq.discrete._powers(c, n)[-1])
        assert np.array_equal(win, reference_win_probs(a, c, n))


class TestMonteCarlo:
    def test_matches_analytic_utility(self, uniform):
        # uniform n=2, truthful bidding earns 0; bidding b at value v wins iff the opponent's
        # value is below b, so it earns (v - b) * b, at most 1/4 at v = 1, b = 1/2
        report = fq.monte_carlo_regret(uniform, 2, lambda v: v, 40_000, seed=5)
        assert abs(report.max_regret - 0.25) <= 3 * report.sigma
        assert report.argmax == (1.0, 0.5)

    def test_jump_point_strategy_and_ties(self, uniform):
        # all three opponents pool at 0, so bidding 0 shares the tie 1/4; every trial sees the
        # same opposing bids, so sigma is 0 and the estimate must equal the expectation
        g = grid_of("0", "1/2")
        s = JumpPointStrategy(g, (F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 2)))
        report = fq.monte_carlo_regret(uniform, 4, s, 20_000, seed=3)
        assert abs(report.max_regret - float(mc_grid_regret(uniform, 4, g, s.s))) <= 3 * report.sigma + 1e-12

    def test_regret_of_equilibrium_near_zero(self, square):
        rbf = fq.canonical_bid_function(square, 2)
        report = fq.monte_carlo_regret(square, 2, rbf, trials=4000, seed=9)
        assert report.max_regret <= 3 * report.sigma + 0.02


EIGHTHS = grid_of(*(F(i, 8) for i in range(8)))


def own_bid(s, v) -> int:
    """0-based index of the bid that value v takes under jump points s: v in (s_j, s_(j+1)], or b_1 at and below s_0."""
    return min(max(bisect.bisect_left(s, v) - 1, 0), len(s) - 2)


def mc_grid_regret(dist, n, grid, s):
    """The exact expected regret that monte_carlo_regret estimates, by brute force: the largest,
    floored at 0, over values and deviations i/8.  A deviation to grid bid b_k wins with
    Delta(s_(k-1), s_k), ties split evenly; any other deviation wins when every opponent bids
    below it, with probability F(s_k)**(n-1) for the k grid bids below it."""
    points = [F(i, 8) for i in range(9)]
    win = [fq.delta_win_prob(dist(x), dist(y), n) for x, y in zip(s, s[1:])]
    deviation = []
    for b in points:
        below = sum(1 for x in grid.bids if x < b)
        deviation.append(win[below] if b in grid.bids else dist(s[below]) ** (n - 1))
    best = F(0)
    for v in points:
        own = own_bid(s, v)
        u_own = (v - grid.bids[own]) * win[own]
        best = max(best, max((v - b) * w for b, w in zip(points, deviation)) - u_own)
    return best


class TestCommonRandomNumbers:
    """monte_carlo_regret compares every (value, deviation) pair on one draw of the opponents."""

    def test_own_bid_pair_is_exactly_zero(self, uniform):
        s = fq.solve(uniform, 3, EIGHTHS, F(1, 64)).strategy
        values, deviations, means, std_errs = fq.verify._paired_regrets(uniform, 3, s, 500, 4)
        checked = 0
        for i, v in enumerate(values):
            own = float(EIGHTHS.bids[own_bid(s.s, F(v))])
            j = deviations.index(own)
            assert means[i, j] == 0.0 and std_errs[i, j] == 0.0
            checked += 1
        assert checked == 9 and std_errs.max() > 0

    @pytest.mark.parametrize("kind", ["jump", "rbf"])
    def test_same_seed_same_report(self, square, kind):
        if kind == "jump":
            bid_fn = fq.solve(square, 2, EIGHTHS, F(1, 64)).strategy
        else:
            bid_fn = fq.canonical_bid_function(square, 2)
        a = fq.monte_carlo_regret(square, 2, bid_fn, 300, 17)
        assert a == fq.monte_carlo_regret(square, 2, bid_fn, 300, 17)
        assert a != fq.monte_carlo_regret(square, 2, bid_fn, 300, 18)

    def test_bid_evaluations_do_not_grow_with_trials(self, square):
        # the bid function is read once per run, at the values i/512, whatever the trials; a bid per
        # trial would add as many points as trials
        points = []
        for trials in (2, fq.verify.MAX_MC_TRIALS):
            bid_fn = CountedBid(fq.canonical_bid_function(square, 3))
            fq.monte_carlo_regret(square, 3, bid_fn, trials, 0)
            points.append(bid_fn.view.points)
        assert points[0] == points[1]

    def test_regret_needs_two_trials(self, uniform):
        s = JumpPointStrategy(grid_of("0", "1/4"), (F(0), F(1, 2), F(1)), ())
        with pytest.raises(fq.DomainError):
            fq.monte_carlo_regret(uniform, 2, s, 1, 0)

    @pytest.mark.parametrize("name", ["uniform", "square"])
    @pytest.mark.parametrize("n_solved", [2, 3])
    def test_estimate_within_three_sigma(self, request, name, n_solved):
        # the eps-equilibrium certified for n_solved bidders on the bids i/8, played by 2: at
        # n_solved = 3 its regret is known positive.  The estimate is not below the exact
        # expected regret by more than 3 sigma, nor, when certified, above eps by more
        dist, eps = request.getfixturevalue(name), F(1, 64)
        s = fq.solve(dist, n_solved, EIGHTHS, eps).strategy
        exact = mc_grid_regret(dist, 2, EIGHTHS, s.s)
        assert (exact > eps) == (n_solved == 3)
        for seed in range(20):
            report = fq.monte_carlo_regret(dist, 2, s, 500, seed)
            assert report.max_regret >= float(exact) - 3 * report.sigma, seed
            if n_solved == 2:
                assert report.max_regret <= float(eps) + 3 * report.sigma, seed


def reference_bisection(f, y, steps):
    """steps of bisection from [0, 1] on every element of y at once, one call of f per step."""
    lo, hi = np.zeros_like(y), np.ones_like(y)
    for _ in range(steps):
        mid = (lo + hi) / 2
        below = f(mid) <= y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo, hi


def sampled_top_bids(dist, n, bid_fn, bids, trials, seed):
    """Each trial's top opposing bid and its tie count, sampled trial by trial with no thresholds and no
    class law: the levels u**(1/(n - 1)) of a Philox stream, a 50-step bisection on the cdf's inverse at
    each and the bid at its midpoint, a tie where that bid is one of the bids, and from n = 3 on
    1 + Binomial(n - 2, (level - F(z)) / level) ties, z from a 60-step bisection of the bid at the
    float below the tied bid."""
    fcdf, fbid = float_view(dist), float_view(bid_fn)
    rng = np.random.Generator(np.random.Philox(seed))
    below = fcdf(reference_bisection(fbid, np.nextafter(bids, -np.inf), 60)[0])
    level = rng.random(trials) ** (1 / (n - 1))
    lo, hi = reference_bisection(fcdf, level, 50)
    top = fbid((lo + hi) / 2)
    k = np.minimum(np.searchsorted(bids, top), bids.size - 1)
    ties = (bids[k] == top).astype(np.int64)
    if n > 2:
        on = np.flatnonzero(ties)
        ties[on] += rng.binomial(n - 2, 1 - below[k[on]] / level[on])
    return top, ties


def mc_read(bid_fn):
    """What the Monte Carlo verifier reads of a bid function: its float bids at i/512, made nondecreasing."""
    return np.maximum.accumulate(float_view(bid_fn)(np.arange(513) / 512))


def mc_deviations(bid_fn):
    """The Monte Carlo verifier's deviations: i/8 for a jump-point strategy, else beta(i/8) and the float
    above each."""
    if isinstance(bid_fn, JumpPointStrategy):
        return np.arange(9) / 8
    own_bids = mc_read(bid_fn)[::64]
    return np.append(own_bids, np.nextafter(own_bids, np.inf))


def compared_bids(bid_fn):
    """The sorted distinct bids that _paired_regrets compares: the deviations and the own bids at i/8."""
    return np.array(sorted({*mc_deviations(bid_fn).tolist(), *mc_read(bid_fn)[::64].tolist()}))


def trials_of_counts(counts, bids, n):
    """Trials with the given class counts, in class order: a trial of class (k, t >= 1) has the top
    opposing bid bids[k] and t ties, one of class (k, 0) a top bid strictly between bids[k - 1] and
    bids[k], below the lowest bid for k = 0 and above the highest for k = len(bids)."""
    k, ties = np.divmod(np.repeat(np.arange(counts.size), counts), n)
    ends = np.concatenate([[bids[0] - 1], bids, [bids[-1] + 1]])
    between = (ends[k] + ends[k + 1]) / 2
    assert ((ends[k] < between) & (between < ends[k + 1])).all()
    return np.where(ties > 0, bids[np.minimum(k, bids.size - 1)], between), ties


def per_trial_paired_regrets(bid_fn, top, ties):
    """_paired_regrets on the trials themselves: one share array per distinct bid from each trial's
    top opposing bid and tie count, then each pair's mean and standard error over its per-trial differences."""
    values, own_bids = [i / 8 for i in range(9)], mc_read(bid_fn)[::64].tolist()
    deviations = mc_deviations(bid_fn).tolist()
    shares = {b: np.where(top < b, 1.0, np.where(top == b, 1.0 / (1.0 + ties), 0.0))
              for b in dict.fromkeys(deviations + own_bids)}
    means, std_errs = np.empty((9, len(deviations))), np.empty((9, len(deviations)))
    for i, (v, own_bid) in enumerate(zip(values, own_bids)):
        own = (v - own_bid) * shares[own_bid]
        for j, b in enumerate(deviations):
            diff = (v - b) * shares[b] - own
            means[i, j] = diff.mean()
            std_errs[i, j] = diff.std(ddof=1) / np.sqrt(top.size)
    return values, deviations, means, std_errs


def pooled_at_top():
    """Jump points on the bids i/8 that pool every value above 1/2 at the top bid 7/8."""
    return JumpPointStrategy(EIGHTHS, (F(0), F(1, 8), F(1, 4), F(3, 8)) + (F(1, 2),) * 4 + (F(1),), ())


@contextlib.contextmanager
def expected_draws(monkeypatch):
    """Puts the expectation in place of the draw: the multinomial of every Philox generator made inside
    records its class probabilities p in the list yielded and returns the counts trials * p, so
    _paired_regrets returns the expected means."""
    laws = []

    class Expectation:
        def __init__(self, bit_generator):
            pass

        def multinomial(self, trials, p):
            laws.append(p)
            return trials * p

    with monkeypatch.context() as m:
        m.setattr(np.random, "Generator", Expectation)
        yield laws


def law_of(dist, n, bid_fn, monkeypatch):
    """The compared bids of bid_fn, the edges F(z-), F(z+) that _paired_regrets hands _class_counts, one row
    per bid, and the class probabilities of _class_counts, one row (k, t) per bid."""
    handed, class_counts = [], fq.verify._class_counts
    with expected_draws(monkeypatch) as laws, monkeypatch.context() as m:
        m.setattr(fq.verify, "_class_counts", lambda n, e, *rest: handed.append(e) or class_counts(n, e, *rest))
        fq.verify._paired_regrets(dist, n, bid_fn, 2, 0)
    bids = compared_bids(bid_fn)
    p = laws[0].reshape(-1, n)
    assert handed[0].shape == (2 * bids.size,)
    assert (p >= 0).all() and abs(p.sum() - 1) <= 1e-12
    return bids, handed[0].reshape(-1, 2), p


def law_case(name, n, request):
    """(cdf, bid function) of a law case: a canonical bid function, a solved strategy on the bids i/8,
    or the strategy that pools at the top."""
    if name == "pooled":
        return request.getfixturevalue("uniform"), pooled_at_top()
    dist_name, kind = name.split("-")
    dist = request.getfixturevalue(dist_name)
    if kind == "bid":
        return dist, fq.canonical_bid_function(dist, n)
    return dist, fq.solve(dist, n, EIGHTHS, F(1, 64)).strategy


class TestPairsFromClassCounts:
    """_paired_regrets takes every pair's mean and standard error from the counts of the trials' classes."""

    @staticmethod
    def assert_matches_per_trial(dist, n, bid_fn, trials, seed, monkeypatch):
        drawn, class_counts = [], fq.verify._class_counts
        monkeypatch.setattr(fq.verify, "_class_counts", lambda *args: drawn.append(class_counts(*args)) or drawn[-1])
        values, deviations, means, std_errs = fq.verify._paired_regrets(dist, n, bid_fn, trials, seed)
        assert drawn[0].sum() == trials
        top, ties = trials_of_counts(drawn[0], compared_bids(bid_fn), n)
        ref_values, ref_deviations, ref_means, ref_std_errs = per_trial_paired_regrets(bid_fn, top, ties)
        assert (values, deviations) == (ref_values, ref_deviations)
        assert np.abs(means - ref_means).max() <= 1e-15
        big = ref_std_errs > 1e-15
        assert np.all(np.abs(std_errs[big] - ref_std_errs[big]) <= 1e-12 * ref_std_errs[big])
        assert np.all(std_errs[~big] <= 1e-15)
        i, j = np.unravel_index(np.argmax(ref_means), ref_means.shape)
        assert fq.monte_carlo_regret(dist, n, bid_fn, trials, seed).argmax == (values[i], deviations[j])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("trials", [2, 3, 500, 24_581])
    @pytest.mark.parametrize("name,n", [("uniform", 3), ("square", 2), ("pooled", 4)])
    def test_jump_points_match_per_trial(self, name, n, trials, seed, request, monkeypatch):
        if name == "pooled":
            dist, s = request.getfixturevalue("uniform"), pooled_at_top()
        else:
            dist = request.getfixturevalue(name)
            s = fq.solve(dist, n, EIGHTHS, F(1, 64)).strategy
        self.assert_matches_per_trial(dist, n, s, trials, seed, monkeypatch)

    def test_pooling_gives_ties_above_one(self, uniform, monkeypatch):
        # every value above 1/2 bids 7/8, so a top bid of 7/8 ties with each of the other two
        # opponents with probability (F(v) - 1/2) / F(v); every opposing bid is one of the bids i/8
        bids, _, p = law_of(uniform, 4, pooled_at_top(), monkeypatch)
        assert bids.tolist() == [i / 8 for i in range(9)]
        assert (p[7, 1:] > 0).all()
        assert (p[:, 0] == 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("trials", [2, 3, 500, 24_581])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("name", ["uniform", "square"])
    def test_canonical_bids_match_per_trial(self, name, n, trials, seed, request, monkeypatch):
        dist = request.getfixturevalue(name)
        self.assert_matches_per_trial(dist, n, fq.canonical_bid_function(dist, n), trials, seed, monkeypatch)

    def test_constant_pair_has_zero_sigma(self, uniform):
        # beta(1) = 3/4 beats every opponent, so value 1 earns 1/4 in every trial, the deviation to
        # beta(0) = 0 earns 0 and the one to the float above 3/4 earns 1/4 less that float's excess
        rbf = fq.canonical_bid_function(uniform, 4)
        _, deviations, means, std_errs = fq.verify._paired_regrets(uniform, 4, rbf, 500, 0)
        assert deviations[0] == 0 and deviations[-1] == np.nextafter(0.75, 1)
        assert means[8, 0] == -0.25 and means[8, -1] == (1 - deviations[-1]) - 0.25
        assert std_errs[8, 0] == std_errs[8, -1] == 0.0


@st.composite
def eighths_steps(draw):
    """A jump-point strategy that never overbids, on 0 and some of the other bids i/8: sorted jump points, some
    pooled on the sixteenths, each at least the bid it starts."""
    grid = grid_of(0, *(F(k, 8) for k in sorted(draw(st.sets(st.integers(1, 7))))))
    point = st.one_of(st.integers(0, 16).map(lambda k: F(k, 16)), st.fractions(0, 1, max_denominator=1000))
    s = sorted(draw(st.lists(point, min_size=grid.m, max_size=grid.m)))
    return JumpPointStrategy(grid, [max(x, b) for x, b in zip(s, grid.bids)] + [F(1)], ())


class TestClassLaw:
    """The law of a trial's class: each compared bid's expected share is its tie-split win probability."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
    @pytest.mark.parametrize("name", ["uniform-bid", "square-bid", "square-solved", "pooled"])
    def test_expected_share_is_delta_win_prob(self, name, n, request, monkeypatch):
        # a share of 1 below bids[k] and 1/(1 + t) on it: in expectation Delta(F(z-), F(z+)), exactly.  A canonical
        # bid rises strictly, so its own bid beta(i/8) and the float above it both have z- = z+ = i/8;
        # a jump-point strategy's z- and z+ are its exact thresholds at the float below bids[k] and at bids[k]
        dist, bid_fn = law_case(name, n, request)
        bids, edges, p = law_of(dist, n, bid_fn, monkeypatch)
        if isinstance(bid_fn, JumpPointStrategy):
            z = [[step_threshold(bid_fn, y) for y in (np.nextafter(b, -np.inf), b)] for b in bids]
        else:
            z = [[i / 8, i / 8] for i in range(9) for _ in range(2)]
        assert (edges == float_view(dist)(np.array(z))).all()
        below = np.concatenate(([0.0], np.cumsum(p[:-2].sum(axis=1))))
        share = below + (p[:-1] / (1 + np.arange(n))).sum(axis=1)
        for k, (a, c) in enumerate(edges):
            assert abs(share[k] - float(fq.delta_win_prob(F(a), F(c), n))) <= 1e-15, k

    @pytest.mark.parametrize("name,n", [("uniform-solved", 3), ("square-solved", 2), ("pooled", 4), ("pooled", 8)])
    def test_expected_means_are_the_grid_regret(self, name, n, request, monkeypatch):
        dist, s = law_case(name, n, request)
        with expected_draws(monkeypatch):
            means = fq.verify._paired_regrets(dist, n, s, 2, 0)[2]
        assert abs(max(means.max(), 0.0) - float(mc_grid_regret(dist, n, EIGHTHS, s.s))) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(dist=st.sampled_from([fq.uniform_cdf(), fq.power_cdf(2)]), n=st.integers(2, 6), strategy=eighths_steps())
    def test_grid_regret_is_the_expected_mean(self, dist, n, strategy):
        # on the values and deviations i/8, as the grid verifier takes them from the grid z = i/8, its tie split
        # Delta(F(z-), F(z+)) is each bid's expected share under the class law, so its regret is the largest
        # expected paired difference of the Monte Carlo verifier
        with pytest.MonkeyPatch.context() as m:
            with expected_draws(m):
                means = fq.verify._paired_regrets(dist, n, strategy, 2, 0)[2]
            m.setattr(fq.verify, "BID_GRID", 8)
            m.setattr(fq.verify, "GRID_VALUES", 8)
            report = fq.epsilon_bne_check_ccfpa(dist, n, strategy)
        assert abs(report.max_regret - max(means.max(), 0.0)) <= 1e-12

    @pytest.mark.parametrize("name,n", [("pooled", 4), ("square-bid", 3), ("square-solved", 2), ("uniform-bid", 8)])
    def test_sampled_classes_within_five_sigma(self, name, n, request, monkeypatch):
        # trials sampled one by one, with no thresholds, fall in each class (k, t) about trials * p times
        dist, bid_fn = law_case(name, n, request)
        bids, _, p = law_of(dist, n, bid_fn, monkeypatch)
        trials, p = 200_000, p.ravel()
        top, ties = sampled_top_bids(dist, n, bid_fn, bids, trials, 7)
        counts = np.bincount(np.searchsorted(bids, top) * n + ties, minlength=p.size)
        assert np.all(np.abs(counts - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)))


class TestTopOpposingValue:
    """A trial's class is that of its top opposing value alone, with the tie count of its bid."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [3, 8])
    def test_pooling_at_the_top_within_three_sigma(self, uniform, n, seed):
        # the values above 1/2 pool at 7/8, so the expected regret turns on the tie counts: with a
        # tie count of 1 the estimate sat 7 (n = 3) and over 200 (n = 8) sigma above it
        exact = float(mc_grid_regret(uniform, n, EIGHTHS, pooled_at_top().s))
        report = fq.monte_carlo_regret(uniform, n, pooled_at_top(), 20_000, seed)
        assert abs(report.max_regret - exact) <= 3 * report.sigma

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pool_then_rise_within_three_sigma(self, uniform, seed):
        # bid 0 on [0, 7/8], then 4v - 7/2: value 7/8 bids 0 and wins half the pool, 7/16, where the float
        # above 0 beats the whole pool, 7/8, a regret of 7/8 * 7/16 = 49/128, the supremum.  The deviations
        # i/8 found 3/4 * 29/32 - 49/128, about 0.30, at bid 1/8
        bid_fn = fq.PiecewisePoly((0, F(7, 8), 1), [(F(0),), (F(-7, 2), F(4))])
        report = fq.monte_carlo_regret(uniform, 2, bid_fn, 100_000, seed)
        assert report.argmax == (0.875, 5e-324)
        assert abs(report.max_regret - 49 / 128) <= 3 * report.sigma

    def test_decreasing_bid_refused_at_every_n(self, uniform):
        # the classes of the top opposing bid come from the thresholds of a nondecreasing bid
        # function, so one that decreases is refused even with one opponent; an overbid is allowed
        def falling(v):
            return max(0.0, 0.4 - v) * 0.5
        for n in (2, 3, 8):
            with pytest.raises(fq.DomainError, match="decreases at v="):
                fq.monte_carlo_regret(uniform, n, falling, 100, 0)
            fq.monte_carlo_regret(uniform, n, lambda v: min(2 * v, 1), 100, 0)

    def test_level_zero_raises_no_warning(self):
        # seeded_cubic(0, 4) reads 1 + 1.3e-15 at the float below 1, where this step function rises from
        # bid 0 to 1/2: bid 0's edges are F(0) = 0 and that float, and a class probability built on an
        # edge above 1 would be negative, which the multinomial refuses.  Every opponent bids 0, so
        # every trial ties with all n - 1 of them and sigma is 0
        dist, x = seeded_cubic(0, 4), np.nextafter(1.0, 0.0)
        assert float_view(dist)(np.array([x]))[0] > 1
        step = fq.PiecewisePoly((0, F(x), 1), [(F(0),), (F(1, 2),)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n in (2, 5):
                assert fq.monte_carlo_regret(dist, n, step, 10, 0).sigma == 0.0

    @pytest.mark.parametrize("kind,n", [("step", 2), ("step", 5), ("rbf", 2), ("rbf", 3), ("rbf", 5),
                                        ("spike", 2), ("spike", 3)])
    def test_searches_see_nondecreasing_edges(self, kind, n, monkeypatch):
        # seeded_cubic(0, 4)'s floats fall by an ulp from x1 to x2, two floats apart.  A step function
        # that bids 1/2 on (x1, x2] has the edges F(z-) = F(x1) and F(z+) = F(x2) there, in that
        # order: every search of a run needs a nondecreasing array, and the multinomial nonnegative
        # class probabilities, which differences of decreasing edges would not give.  The spike pools
        # at 1/8 on [1/4, 3/4] but bids 1e-13 more at 1/2: its bids there fall by less than the 1e-12 a
        # decrease needs, so the runs are read off bids made nondecreasing
        dist, x1, x2 = seeded_cubic(0, 4), 0.884782184673133, 0.8847821846731332
        fx1, fx2 = float_view(dist)(np.array([x1, x2]))
        assert fx1 > fx2
        if kind == "step":
            bid_fn = fq.PiecewisePoly((0, F(x1), F(x2), 1), [(F(1, 4),), (F(1, 2),), (F(3, 4),)])
        elif kind == "spike":
            def bid_fn(v):
                if v < F(1, 4) or v > F(3, 4):
                    return v / 2 - F(1, 4) * (v > F(3, 4))
                return F(1, 8) + F(1, 10**13) * (v == F(1, 2))
        else:
            bid_fn = fq.canonical_bid_function(dist, n)
        searched, searchsorted = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda a, v, **kw: searched.append(np.asarray(a)) or searchsorted(a, v, **kw))
        fq.monte_carlo_regret(dist, n, bid_fn, 1000, 0)
        assert searched and all((np.diff(a) >= 0).all() for a in searched)

    def test_shared_edge_gives_no_negative_probability(self, uniform):
        # a step function from 1/4 to 1/2 at x: F(z+) of bid 1/4 and F(z-) of bid 1/2 are both x, so the
        # top bid lies strictly between them with probability x**2 - x**2 = 0.  numpy's power of an array
        # by integer exponents and its square of x differed by an ulp here (numpy 2.4, AVX-512), so the two
        # terms must take their powers alike, or the difference can fall below 0 and the draw refuses it
        x = 0.8132702392002724
        step = fq.PiecewisePoly((0, F(x), 1), [(F(1, 4),), (F(1, 2),)])
        assert fq.monte_carlo_regret(uniform, 3, step, 1000, 0).sigma > 0

    @pytest.mark.parametrize("kind,n", [("rbf", 2), ("rbf", 8), ("jump", 3)])
    def test_memory_does_not_grow_with_trials(self, square, kind, n):
        # one draw counts the trials of each class, so a run at the trial limit holds the arrays of a
        # run of 2 trials, but for the columns of the classes that occur, and takes about its time:
        # 3-24 KB more, where one byte per trial would be 4 MB.  Drawn in blocks of 8192 trials, a run at
        # the limit peaked 0.37-0.64 MB higher than a 2-trial run and took over 70 times as long
        if kind == "rbf":
            bid_fn = fq.canonical_bid_function(square, n)
        else:
            bid_fn = fq.solve(square, n, EIGHTHS, F(1, 64)).strategy
        fq.monte_carlo_regret(square, n, bid_fn, 100, 1)  # first-call allocations, outside the peaks
        peaks, seconds = [], []
        for trials in (2, fq.verify.MAX_MC_TRIALS):
            tracemalloc.start()
            try:
                fq.monte_carlo_regret(square, n, bid_fn, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            run = functools.partial(fq.monte_carlo_regret, square, n, bid_fn, trials, 1)
            seconds.append(min(timeit.repeat(run, number=1, repeat=5)))
        assert peaks[1] <= peaks[0] + 32 * 1024
        assert seconds[1] <= 2 * seconds[0]


class TestStrategyIsItsBidFunction:
    """The grid and Monte Carlo verifiers read a jump-point strategy as the step function of its points and bids."""

    @pytest.mark.parametrize("name", ["uniform", "square"])
    @pytest.mark.parametrize("n,bids", [(2, ("0", "1/4", "1/2")), (3, tuple(F(i, 8) for i in range(8)))])
    def test_same_reports_as_the_step_function(self, name, n, bids, request):
        dist, grid = request.getfixturevalue(name), grid_of(*bids)
        strategy = fq.solve(dist, n, grid, F(1, 64)).strategy
        step = fq.PiecewisePoly(strategy.s, [(b,) for b in grid.bids])
        assert fq.epsilon_bne_check_ccfpa(dist, n, strategy) == fq.epsilon_bne_check_ccfpa(dist, n, step)
        assert fq.monte_carlo_regret(dist, n, strategy, 2000, 11) == fq.monte_carlo_regret(dist, n, step, 2000, 11)


class TestOneRead:
    """Each float verifier reads the bid function once per run, and no further."""

    def test_one_float_view_call_per_run(self, square):
        # at the values i/512, where grid mode's values i/128 lie, whatever the trials; a jump-point
        # strategy takes its thresholds off its jump points, beside the same one read
        for bid_fn in (fq.canonical_bid_function(square, 3), fq.solve(square, 3, EIGHTHS, F(1, 64)).strategy):
            counted = CountedBid(bid_fn)
            assert fq.epsilon_bne_check_ccfpa(square, 3, counted) == fq.epsilon_bne_check_ccfpa(square, 3, bid_fn)
            assert (counted.view.calls, counted.view.points) == (1, 513)
            for trials in (2, fq.verify.MAX_MC_TRIALS):
                counted = CountedBid(bid_fn)
                report = fq.monte_carlo_regret(square, 3, counted, trials, 1)
                assert report == fq.monte_carlo_regret(square, 3, bid_fn, trials, 1)
                assert (counted.view.calls, counted.view.points) == (1, 513)

    def test_thresholds_asked_for_once_per_run(self, square, monkeypatch):
        # a step function's thresholds are one closure per run, read at every bid the run compares
        strategy, calls, method = fq.solve(square, 3, EIGHTHS, F(1, 64)).strategy, [], fq.PiecewisePoly.float_thresholds

        def counted(self, *args):
            calls.append(args)
            return method(self, *args)

        monkeypatch.setattr(fq.PiecewisePoly, "float_thresholds", counted)
        for run in (lambda: fq.epsilon_bne_check_ccfpa(square, 3, strategy),
                    lambda: fq.monte_carlo_regret(square, 3, strategy, 1000, 1)):
            calls.clear()
            run()
            assert calls == [()]

    def test_no_masked_arrays(self):
        # np.unique and np.union1d import numpy.ma (numpy 2.4), which adds about 1 MB to a run's peak RSS;
        # a fresh interpreter that runs both float verifiers on both kinds of bid function must not hold it
        code = """if True:
            import sys
            from fractions import Fraction
            import fpaeq as fq
            dist, grid = fq.power_cdf(2), fq.BidGrid(tuple(Fraction(i, 8) for i in range(8)))
            for bid_fn in (fq.canonical_bid_function(dist, 3), fq.solve(dist, 3, grid, Fraction(1, 64)).strategy):
                fq.epsilon_bne_check_ccfpa(dist, 3, bid_fn)
                fq.monte_carlo_regret(dist, 3, bid_fn, 100, 0)
            print("numpy.ma" in sys.modules)
        """
        src = str(pathlib.Path(fq.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert run.stdout == "False\n"


class TestSameReportOnEveryCpu:
    """The float verifiers take their powers by products, which are correctly rounded on every CPU."""

    TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")  # numpy's AVX512 code, whose float ** moves last bits

    def test_without_the_avx512_targets(self):
        # the grid report of a solve at n = 4 on a seeded cubic with 64 bids, whose power c**(n - 1) by numpy's **
        # moved its last digits (0.023119046616997374 against ...402), and the Monte Carlo reports of that strategy
        # and of the canonical bid at n = 16, through the class law's powers: the same with numpy's AVX512 targets
        # and without them
        try:
            from numpy._core import _multiarray_umath
        except ImportError:
            pytest.skip("numpy before 2.0 names its CPU dispatch elsewhere")
        if not set(self.TARGETS) <= set(getattr(_multiarray_umath, "__cpu_dispatch__", ())):
            pytest.skip("numpy was built without the AVX512 targets")
        features = getattr(_multiarray_umath, "__cpu_features__", {})
        if not (features.get("AVX512F") or features.get("X86_V4")):
            pytest.skip("this CPU lacks AVX512, so disabling the targets changes nothing")
        dist = seeded_cubic(1, 4)
        cdf = {"kind": "piecewise_poly", "breakpoints": [str(b) for b in dist.breakpoints],
               "coeffs": [[str(c) for c in row] for row in dist.rows]}
        code = f"""if True:
            import random
            from fractions import Fraction
            import fpaeq as fq
            dist = fq.cdf_from_json({cdf!r})
            bids = sorted(random.Random(1).sample(range(1, 512), 63))
            grid = fq.BidGrid((Fraction(0), *(Fraction(k, 512) for k in bids)))
            strategy = fq.solve(dist, 4, grid, Fraction(1, 64)).strategy
            print(fq.epsilon_bne_check_ccfpa(dist, 4, strategy))
            print(fq.monte_carlo_regret(dist, 4, strategy, 10_000, 1))
            print(fq.monte_carlo_regret(dist, 16, fq.canonical_bid_function(dist, 16), 10_000, 1))
        """
        src = str(pathlib.Path(fq.__file__).parents[1])
        plain = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        plain.pop("NPY_DISABLE_CPU_FEATURES", None)
        reports = []
        for env in (plain, {**plain, "NPY_DISABLE_CPU_FEATURES": " ".join(self.TARGETS)}):
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
            reports.append(run.stdout)
        assert reports[0].count("RegretReport") == 3
        assert reports[0] == reports[1]


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

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(fq.DomainError):
            fq.monotone_no_overbid_check(lambda v: v / 2, samples=samples)
