import bisect
import fractions
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import fpaeq as fq
from fpaeq import BidGrid, DomainError, JumpPointStrategy, PiecewisePoly, discrete, explicit
from fpaeq.cdf import float_view
from fpaeq.poly import float_bounds

from conftest import ceil_log2, lipschitz_bound, seeded_cubic

WALK_CDFS = ["uniform", "square", "two_piece", "adversarial", "cubic"]


def grid_of(*bids):
    return BidGrid(tuple(F(b) for b in bids))


@pytest.fixture
def walk_cdfs(uniform, square, two_piece, adversarial):
    """The cdfs of WALK_CDFS by name; "cubic" is a seeded 4-piece cubic."""
    return {"uniform": uniform, "square": square, "two_piece": two_piece, "adversarial": adversarial,
            "cubic": seeded_cubic(0, 4)}


@pytest.fixture
def exact_searches(monkeypatch):
    """Deltas of the exact (Fraction) outer searches that solve runs during the test."""
    seen = []
    search = discrete._binary_search_top_utility

    def spy(dist, n, grid, delta):
        if isinstance(delta, F):
            seen.append(delta)
        return search(dist, n, grid, delta)

    monkeypatch.setattr(discrete, "_binary_search_top_utility", spy)
    return seen


def force_exact_attempt(monkeypatch, bad: JumpPointStrategy) -> None:
    """Make solve's float attempt return bad, an uncertified strategy, so that the exact attempt runs."""
    search = discrete._search
    monkeypatch.setattr(discrete, "_search", lambda *args: search(*args) if isinstance(args[-1], F) else bad)


def exact_certificate(dist, n: int, strategy: JumpPointStrategy, gamma) -> tuple[bool, F]:
    """(passed, max_residual) of the certificate's residuals on Fractions throughout, each Delta a sum of powers."""
    s, u, bids = strategy.s, strategy.utilities, strategy.bids
    fs = [dist(x) for x in s]
    residuals = []  # (residual, bound)
    for i, b in enumerate(bids, 1):
        lo, hi = s[i - 1], s[i]
        win = sum(fs[i - 1] ** (n - 1 - k) * fs[i] ** k for k in range(n)) / n
        residuals.append((max(F(0), b - lo), 0))
        if lo < hi:
            residuals += [(abs((hi - b) * win - u[i]), gamma), (abs((lo - b) * win - u[i - 1]), gamma)]
        else:
            residuals += [(abs(u[i] - u[i - 1]), 0), (max(F(0), (hi - b) * win - u[i]), gamma)]
    return all(r <= bound for r, bound in residuals), max(r for r, _ in residuals)


def float_walks(monkeypatch) -> list:
    """The tolerance of each float walk that solve runs from here on."""
    walks, walk = [], discrete.compute_strategy

    def spy(*args):
        if not isinstance(args[-1], F):
            walks.append(args[-1])
        return walk(*args)

    monkeypatch.setattr(discrete, "compute_strategy", spy)
    return walks


def reference_compute_strategy(F_, n: int, grid: BidGrid, U, delta):
    """discrete.compute_strategy as it was before the walk took the powers of F(s_i) once per bid: one
    delta_win_prob call, and its powers, per Delta."""
    m, exact = grid.m, isinstance(U, F)
    bids = grid.bids if exact else tuple(float(b) for b in grid.bids)
    s, uvec = [None] * (m + 1), [None] * (m + 1)
    s[m], uvec[m] = F(1) if exact else 1.0, U
    floor, fs, win = discrete._floor(delta, exact), F_(s[m]), discrete.delta_win_prob
    for i in range(m, 0, -1):
        b, si, ui = bids[i - 1], s[i], uvec[i]
        margin = si - b
        f_hi = margin * win(fs, fs, n)
        if f_hi <= ui:
            s[i - 1], uvec[i - 1] = si, ui
            continue
        fb = F_(b)
        f_lo = margin * win(fb, fs, n)
        if f_lo >= ui:
            s[i - 1], uvec[i - 1], fs = b, 0 * ui, fb
            continue
        lo, hi = b, si
        while f_hi - f_lo > delta and hi - lo > floor:
            mid = (lo + hi) / 2
            f_mid = margin * win(F_(mid), fs, n)
            if f_mid < ui:
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
        t = float((ui - f_lo) / (f_hi - f_lo))
        x = min(lo + (hi - lo) * (F(t) if exact else t), si)
        fx = F_(x)
        s[i - 1] = x
        uvec[i - 1] = (x - b) * win(fx, fs, n) if x < si else ui
        fs = fx
    return s, uvec


def reference_check_conditions(F_, n: int, strategy: JumpPointStrategy, gamma) -> fq.Certificate:
    """discrete.check_conditions as it was before it read F exactly at the jump points and decided on scalar floats
    and integer pairs: F's boxes from one array call of float_bounded on a PiecewisePoly, none on any other cdf,
    exact residuals in Fractions (Delta by delta_win_prob, the value of the integer sum it took), each boxed
    residual below the largest lower end held as its box's upper end, and passed and max_residual over every
    (residual, bound), the boxed ones included."""
    s, u, bids = strategy.s, strategy.utilities, strategy.bids
    boxed = isinstance(F_, PiecewisePoly)
    fs = [None] * len(s) if boxed else [F_(x) for x in s]
    residuals, pending = [], []
    for i, b in enumerate(bids, 1):
        lo, hi = s[i - 1], s[i]
        residuals.append((F(0) if lo >= b else b - lo, 0))
        if lo < hi:
            pending += [(len(residuals), i, i, False), (len(residuals) + 1, i, i - 1, False)]
            residuals += [None, None]
        else:
            residuals.append((abs(u[i] - u[i - 1]), 0))
            pending.append((len(residuals), i, i, True))
            residuals.append(None)
    boxes = [None] * len(pending)
    if boxed:
        sbox, bbox, ubox = ([float_bounds(*x.as_integer_ratio()) for x in xs] for xs in (s, bids, u))
        x, sides = np.array(sbox), np.array([-1.0, 1.0])
        value, bound = F_.float_bounded()(x, F_.float_pieces(x))
        ends = np.nextafter(value + sides * bound, sides * np.inf)
        fbox = list(map(tuple, np.minimum(np.maximum(ends, 0.0), 1.0).tolist()))
        wins = [discrete._delta_box(fx, fy, n) for fx, fy in zip(fbox, fbox[1:])]
        boxes = [discrete._residual_box(sbox[j], bbox[i - 1], ubox[j], wins[i - 1], signed)
                 for _, i, j, signed in pending]
    top = max((box[0] for box in boxes if box), default=0.0)
    exact_wins = {}
    for (slot, i, j, signed), box in zip(pending, boxes):
        if box and box[1] < top:
            value = F(box[1])
        else:
            c = s[j] - bids[i - 1]
            if c and i not in exact_wins:
                for k in (i - 1, i):
                    if fs[k] is None:
                        fs[k] = F_(s[k])
                exact_wins[i] = discrete.delta_win_prob(fs[i - 1], fs[i], n)
            r = c * exact_wins[i] - u[j] if c else -u[j]
            value = max(F(0), r) if signed else abs(r)
        residuals[slot] = value, gamma
    ok = all(r <= bound for r, bound in residuals)
    return fq.Certificate(gamma, ok, max(r for r, _ in residuals))


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
        piece = JumpPointStrategy(grid_of("0", "1/4", "1/2"), (F(0), F(1, 3), F(2, 3), F(1)), (F(0),) * 4).piece_index
        assert piece(F(0)) == 0
        assert piece(F(1, 4)) == 0
        assert piece(F(1, 3)) == 0
        assert piece(F(1, 2)) == 1
        assert piece(F(1)) == 2

    def test_merged_interval_skipped(self):
        piece = JumpPointStrategy(grid_of("0", "1/4", "1/2"), (F(0), F(1, 2), F(1, 2), F(1)), (F(0),) * 4).piece_index
        assert piece(F(1, 2)) == 0
        assert piece(F(3, 4)) == 2

    def test_bid_index_matches_interval_rule(self):
        # reference: v in (s_{j-1}, s_j] bids b_j; v <= s_0 bids b_1
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(1, 6)
            s0 = rng.randint(0, 4)
            s = tuple(F(k, 8) for k in [s0] + sorted(rng.randint(s0, 8) for _ in range(m - 1))) + (F(1),)
            bid_fn = JumpPointStrategy(grid_of(*(F(i, 8) for i in range(m))), s, ())
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
        # one bid per jump point after s_0, and one bid where s has fewer than two points
        with pytest.raises(DomainError, match="jump point"):
            JumpPointStrategy(grid_of(*(F(i, 8) for i in range(max(len(s) - 1, 1)))), s, ())

    @pytest.mark.parametrize("s,m", [((F(0), F(1)), 3), ((F(0), F(1, 5), F(2, 5), F(3, 5), F(1)), 2)])
    def test_jump_point_count_must_match_the_bids(self, s, m):
        with pytest.raises(DomainError, match=f"strategy has {len(s)} jump points; {m} bids need {m + 1}"):
            JumpPointStrategy(grid_of(*(F(i, 8) for i in range(m))), s, ())

    def test_win_probs(self, uniform):
        s = JumpPointStrategy(grid_of("0", "1/8", "1/4"), (F(0), F(1, 4), F(1, 4), F(1)), ())
        # n = 2: Delta(x, y) = (x + y)/2
        assert s.win_probs(uniform, 2) == (F(1, 8), F(1, 4), F(5, 8))

    def test_as_bid_function(self):
        # the strategy is its own step bid function, and it carries its bids
        f = JumpPointStrategy(grid_of("0", "1/4"), (F(0), F(1, 2), F(1)), (F(0),) * 3)
        assert isinstance(f, fq.PiecewisePoly) and f.bids == (0, F(1, 4))
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

    def test_powers_of_an_array_are_distinct(self):
        # each power is a new array: an in-place product would leave n - 1 references to b**(n - 1)
        b = np.array([0.5, 0.25])
        powers = discrete._powers(b, 5)
        assert len({id(p) for p in powers}) == 4
        assert [p.tolist() for p in powers] == [[0.5**k, 0.25**k] for k in range(1, 5)]


class TestComputeStrategy:
    def test_top_utility_one_pools_everything(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        s, uvec = fq.compute_strategy(uniform, 2, g, F(1), F(1, 2**20))
        assert s[0] == 1  # utility 1 is unattainable: all jumps collapse at the top

    def test_top_utility_zero_gives_zero_jump(self, uniform):
        g = grid_of("0", "1/4", "1/2")
        s, uvec = fq.compute_strategy(uniform, 2, g, F(0), F(1, 2**20))
        assert s[0] == 0
        assert s[1] == F(1, 4) and s[2] == F(1, 2)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_achieved_utilities_within_delta(self, data, walk_cdfs):
        # the top utility of bid b_i over (s_{i-1}, s_i], (s_i - b_i) * Delta(F(s_{i-1}), F(s_i)), is within
        # delta of U_i at every jump point the walk bisects for: the bisection stops on that residual
        dist = walk_cdfs[data.draw(st.sampled_from(WALK_CDFS), label="cdf")]
        n = data.draw(st.integers(min_value=2, max_value=8), label="n")
        den = data.draw(st.sampled_from([256, 100, 21]), label="den")
        raw = data.draw(st.lists(st.integers(min_value=1, max_value=den - 1), unique=True, max_size=5), label="bids")
        g = BidGrid((F(0),) + tuple(sorted(F(k, den) for k in raw)))
        U = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=2**20), label="U")
        delta = F(1, 2 ** data.draw(st.sampled_from([10, 24, 40]), label="log2(1/delta)"))
        s, uvec = fq.compute_strategy(dist, n, g, U, delta)
        for i in range(1, g.m + 1):
            b, si, ui = g.bids[i - 1], s[i], uvec[i]

            def top(x):
                return (si - b) * fq.delta_win_prob(dist(x), dist(si), n)

            if top(si) <= ui or top(b) >= ui:
                continue  # pooled with the point above, or down at its bid: no bisection
            assert abs(top(s[i - 1]) - ui) <= delta

    @pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
    @pytest.mark.parametrize("name", WALK_CDFS)
    def test_bisection_steps_within_log2_bound(self, name, exact, walk_cdfs):
        # for an L-Lipschitz cdf the utility bracket is within delta after ceil(log2(n L / delta)) halvings
        dist = walk_cdfs[name]
        L = lipschitz_bound(dist)
        evaluate = dist if exact else float_view(dist)
        rng = random.Random(name)
        bisections = 0
        for _ in range(8):
            n = rng.randint(2, 8)
            g = BidGrid((F(0),) + tuple(sorted(F(k, 256) for k in rng.sample(range(1, 256), rng.randint(0, 5)))))
            U, delta = F(rng.randint(1, 2**16), 2**16), F(1, 2 ** rng.choice([10, 24, 40]))
            points = []
            fq.compute_strategy(lambda x: points.append(x) or evaluate(x), n, g,
                                U if exact else float(U), delta if exact else float(delta))
            # F(1), then per bid that does not pool at once F(b_i), the midpoints and F at the jump point;
            # every point after F(b_i) lies above b_i, so a smaller bid starts the next bid's points
            bids, current, counts = g.bids if exact else [float(b) for b in g.bids], None, []
            for x in points[1:]:
                if x in bids and (current is None or x < current):
                    current = x
                    counts.append(0)
                else:
                    counts[-1] += 1
            steps = [c - 1 for c in counts if c > 0]
            assert all(k <= ceil_log2(n * L / delta) for k in steps)
            bisections += len(steps)
        assert bisections > 0

    def test_jump_points_monotone_and_above_bids(self, uniform):
        g = grid_of("0", "1/8", "1/4", "1/2")
        s, _ = fq.compute_strategy(uniform, 3, g, F(1, 4), F(1, 2**24))
        assert all(a <= b for a, b in zip(s, s[1:]))
        assert all(s[i - 1] >= g.bids[i - 1] or s[i - 1] == s[i] for i in range(1, g.m + 1))

    def test_bad_delta(self, uniform):
        with pytest.raises(DomainError):
            fq.compute_strategy(uniform, 2, grid_of("0"), F(1, 2), F(0))

    def test_interpolation_reaching_the_point_above_pools(self, uniform):
        # U sits 3/2**62 below bid 2's utility at s_1 = 1; the float ratio of the interpolation
        # rounds to 1, so s_1 lands on s_2 and pools with it, taking U_2 rather than 3/4
        s, uvec = fq.compute_strategy(uniform, 2, grid_of("0", "1/4"), F(3, 4) * (1 - F(1, 2**60)), F(1, 4))
        assert s[1] == s[2] == 1
        assert uvec[1] == uvec[2]

    def test_float_walk_matches_exact(self, square):
        g = grid_of("0", "1/8", "1/4", "3/8")
        s, uvec = fq.compute_strategy(square, 3, g, F(1, 3), F(1, 2**30))
        fs, fu = fq.compute_strategy(float_view(square), 3, g, 1 / 3, 2.0**-30)
        assert all(isinstance(x, float) for x in fs + fu)
        assert max(abs(a - b) for a, b in zip(s, fs)) < 1e-8
        assert max(abs(a - b) for a, b in zip(uvec, fu)) < 1e-8

    @pytest.mark.parametrize("r,k", [(F(0), 1), (F(2), 1), (F(3), 2), (F(4), 2), (F(5), 3),
                                     (F(2**1100), 1100), (F(2**1100 + 1), 1101), (F(7, 3), 2)])
    def test_step_count_exact_log2(self, r, k):
        assert ceil_log2(r) == k


class TestCheckConditions:
    def test_hand_equilibrium_passes(self, uniform):
        # uniform, n = 2, bids {0, 1/2}: full pooling at 0 is an exact equilibrium
        g = grid_of("0", "1/2")
        s = JumpPointStrategy(g, (F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 2)))
        cert = fq.check_conditions(uniform, 2, s, F(1, 2**10))
        assert cert.passed
        assert cert.max_residual == 0

    def test_perturbed_utilities_fail(self, uniform):
        g = grid_of("0", "1/2")
        s = JumpPointStrategy(g, (F(0), F(1), F(1)), (F(0), F(1, 2), F(1, 4)))
        cert = fq.check_conditions(uniform, 2, s, F(1, 2**10))
        assert not cert.passed

    def test_pooled_utilities_must_be_equal(self, uniform):
        # bid 3/4 pools at the top; its two utilities differ by 2**-41, 18 gamma at eps = 2**-40
        g = grid_of("0", "1/4", "3/4")
        res = fq.solve(uniform, 2, g, F(1, 2**40))
        s, u = res.strategy.s, list(res.strategy.utilities)
        assert res.certificate.passed and s[2] == s[3] == 1
        u[3] += F(1, 2**41)
        cert = fq.check_conditions(res.transformed_cdf, 2, JumpPointStrategy(g, s, tuple(u)), res.certificate.gamma)
        assert res.certificate.gamma < F(1, 2**45)  # every other residual is within gamma
        assert not cert.passed and cert.max_residual == F(1, 2**41)

    @pytest.mark.parametrize("u", [(), (F(0), F(1, 2))])
    def test_a_utility_per_jump_point(self, uniform, u):
        # a strategy read without its "U", or with one utility short, has no certificate
        s = JumpPointStrategy(grid_of("0", "1/2"), (F(0), F(1), F(1)), u)
        with pytest.raises(DomainError, match=f"strategy has {len(u)} utilities; 2 bids need 3"):
            fq.check_conditions(uniform, 2, s, F(1, 2**10))

    def test_jump_below_bid_fails(self, uniform):
        g = grid_of("0", "1/2")
        s = JumpPointStrategy(g, (F(0), F(1, 4), F(1)), (F(0), F(1, 8), F(7, 16)))
        cert = fq.check_conditions(uniform, 2, s, F(1, 2))
        assert not cert.passed and cert.max_residual >= F(1, 4)  # condition 3: s_1 = 1/4 below the bid 1/2

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_boxes_contain_the_exact_values(self, data, walk_cdfs):
        # every float box of the certificate holds its exact value: F at each jump point, Delta of each bid and
        # each residual, at jump points that are floats and at ones that are not, with utilities near the exact
        # top utilities
        name = data.draw(st.sampled_from(WALK_CDFS), label="cdf")
        dist = fq.strongly_increasing_transform(walk_cdfs[name], F(1, 2 ** data.draw(st.integers(4, 40))))
        n = data.draw(st.integers(2, 64), label="n")
        m = data.draw(st.integers(1, 16), label="m")
        den = data.draw(st.sampled_from([100, 21, 2**60]), label="den")
        bids = sorted(F(k, den) for k in data.draw(st.lists(st.integers(1, den - 1), unique=True, min_size=m - 1,
                                                             max_size=m - 1), label="bids"))
        g = BidGrid((F(0),) + tuple(bids))
        inner = sorted(data.draw(st.one_of(st.just(b), st.fractions(b, 1, max_denominator=den),
                                           st.floats(float(b), 1).map(F).filter(lambda x: x >= b))) for b in g.bids[1:])
        s = [max(x, b) for x, b in zip([F(0)] + inner, g.bids)] + [F(1)]  # nondecreasing, s_(i-1) >= b_i
        win = JumpPointStrategy(g, s, [F(0)] * (m + 1)).win_probs(dist, n)
        noise = st.fractions(-1, 1, max_denominator=2**70).map(lambda x: x * F(1, 2**30))
        u = [(s[j] - g.bids[max(j, 1) - 1]) * win[max(j, 1) - 1] + data.draw(noise) for j in range(m + 1)]
        fbox, boxes = [float_bounds(*f) for f in discrete._cdf_pairs(dist, s)], 0
        for x, (lo, hi) in zip(s, fbox):
            assert 0 <= lo <= dist(x) <= hi <= 1
        for i in range(1, m + 1):
            dl, dh = discrete._delta_box(fbox[i - 1], fbox[i], n)
            assert 0 <= dl <= win[i - 1] <= dh
            for j in (i - 1, i):
                r = (s[j] - g.bids[i - 1]) * win[i - 1] - u[j]
                args = (*(float_bounds(*x.as_integer_ratio()) for x in (s[j], g.bids[i - 1], u[j])), (dl, dh))
                for signed in (False, True):
                    box = discrete._residual_box(*args, signed)  # None where s_j - b_i may be 0 or below
                    assert box is None or box[0] <= (max(F(0), r) if signed else abs(r)) <= box[1]
                    boxes += box is not None
        assert boxes > 0

    @pytest.mark.parametrize("seed", range(60))
    def test_same_verdict_as_the_exact_certificate(self, seed, walk_cdfs):
        # passed and max_residual equal those of the certificate on Fractions throughout, on strategies of the
        # float and the exact search, with utilities perturbed by about gamma and residuals put on gamma exactly
        rng, exact_search = random.Random(seed), seed % 3 == 0  # the exact search's jump points are not floats
        dist = walk_cdfs[rng.choice(WALK_CDFS)]
        n, m = rng.choice([2, 3, 4] if exact_search else [2, 3, 4, 8, 16, 64]), rng.randrange(1, 9)
        den = rng.choice([256, 100, 21])
        g = BidGrid((F(0),) + tuple(sorted(F(k, den) for k in rng.sample(range(1, den), m - 1))))
        eps = F(1, 2 ** rng.choice([6, 10] if exact_search else [6, 10, 20, 34]))
        mixed = fq.strongly_increasing_transform(dist, eps / (3 * n))
        gamma = eps / (3 * n) / (2 * m)
        strategy = discrete._search(mixed if exact_search else float_view(mixed), n, g,
                                    gamma / 4 if exact_search else float(gamma / 4))
        s, u = strategy.s, list(strategy.utilities)
        win = strategy.win_probs(mixed, n)
        candidates = [u]
        for _ in range(4):
            v, j = list(u), rng.randrange(1, m + 1)
            i = j if s[j - 1] < s[j] or rng.random() < 0.5 else j + 1
            if i <= m and s[i - 1] < s[i]:
                exact_top = (s[j] - g.bids[i - 1]) * win[i - 1]
                v[j] = exact_top + rng.choice([gamma, -gamma, gamma + F(1, 2**80), gamma * F(rng.random())])
            else:
                v[j] += gamma * F(rng.randrange(-4, 5), 4)
            candidates.append(v)
        for v in candidates:
            probe = JumpPointStrategy(g, s, v)
            cert = fq.check_conditions(mixed, n, probe, gamma)
            assert (cert.passed, cert.max_residual) == exact_certificate(mixed, n, probe, gamma)

    def test_one_fraction_per_call(self, square):
        # every decision is a cross-multiplication on integer pairs, so on a PiecewisePoly the one Fraction built is
        # max_residual; a record per residual built 17 on this solve
        res = fq.solve(square, 3, grid_of(*(F(k, 16) for k in range(8))), F(1, 64))
        built, new = [], fractions.Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fractions.Fraction, "__new__", counted)
            cert = fq.check_conditions(res.transformed_cdf, 3, res.strategy, res.certificate.gamma)
        assert len(built) == 1
        assert cert == res.certificate and cert.passed

    def test_an_oracle_decides_by_boxes(self, monkeypatch):
        # F's exact values at the jump points give an oracle's residuals float boxes too: at m = 256 one Delta is
        # computed exactly, where an exact residual for each bid took 256, and the oracle still answers once per
        # jump point
        bids = sorted(F(k, 2048) for k in random.Random(1).sample(range(1, 2048), 255))
        res = fq.solve(fq.CdfOracle(fq.power_cdf(2)), 4, BidGrid((F(0), *bids)), F(1, 64))
        oracle, calls, ratio = res.transformed_cdf, [], discrete._delta_ratio
        monkeypatch.setattr(discrete, "_delta_ratio", lambda *args: calls.append(args) or ratio(*args))
        before = oracle.query_count
        cert = fq.check_conditions(oracle, 4, res.strategy, res.certificate.gamma)
        assert cert == res.certificate and cert.passed
        assert len(calls) == 1
        assert oracle.query_count - before == 257

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_an_oracle_gives_the_certificate_of_its_cdf(self, data, walk_cdfs):
        # field for field, on strategies of the float and of the exact search, with one utility moved by about
        # gamma or not at all; the oracle answers once per jump point
        dist = draw_cdf(data, walk_cdfs)
        exact = data.draw(st.booleans(), label="exact")
        n = data.draw(st.integers(2, 4 if exact else 64), label="n")
        m = data.draw(st.integers(1, 6 if exact else 32), label="m")
        g = draw_grid(data, m)
        gamma = F(1, 2 ** data.draw(st.integers(6, 12 if exact else 40), label="eps")) / (3 * n) / (2 * m)
        strategy = discrete._search(dist if exact else float_view(dist), n, g,
                                    gamma / 4 if exact else max(float(gamma / 4), 2.0**-52))
        u, j = list(strategy.utilities), data.draw(st.integers(1, m), label="j")
        u[j] += gamma * data.draw(st.sampled_from([0, F(1, 2), -1, F(3, 2)]), label="by")
        probe, oracle = JumpPointStrategy(g, strategy.s, u), fq.CdfOracle(dist)
        assert fq.check_conditions(oracle, n, probe, gamma) == fq.check_conditions(dist, n, probe, gamma)
        assert oracle.query_count == m + 1


class TestSolve:
    @pytest.mark.parametrize("n,bids", [(2, ("0", "1/2")), (2, ("0", "1/4", "1/2", "3/4")), (3, ("0", "1/3", "2/3"))])
    def test_certified_low_regret_uniform(self, uniform, n, bids):
        eps = F(1, 64)
        g = grid_of(*bids)
        res = fq.solve(uniform, n, g, eps)
        assert res.certificate.passed
        report = fq.epsilon_bne_check_cdfpa(uniform, n, res.strategy)
        assert report.max_regret <= eps

    def test_nonuniform_cdf(self, square):
        eps = F(1, 32)
        g = grid_of("0", "1/4", "1/2")
        res = fq.solve(square, 2, g, eps)
        assert res.certificate.passed
        assert fq.epsilon_bne_check_cdfpa(square, 2, res.strategy).max_regret <= eps

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

    def test_oracle_solves_as_its_cdf(self, uniform):
        oracle = fq.CdfOracle(uniform)
        g = grid_of("0", "1/2")
        res = fq.solve(oracle, 2, g, F(1, 16))
        assert res.certificate.passed
        assert res.strategy == fq.solve(uniform, 2, g, F(1, 16)).strategy  # the same walks on the same values

    def test_oracle_counts_the_queries_of_a_solve(self, square):
        oracle = fq.CdfOracle(square)
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
        oracle = fq.CdfOracle(counted)
        res = fq.solve(oracle, 3, grid_of("0", "1/8", "3/8", "1/2"), F(1, 2**20))
        assert res.certificate.passed
        assert counted.floats > 0  # the float search ran in floats, not on exact rationals
        assert oracle.query_count == res.transformed_cdf.query_count == counted.exact + counted.floats
        assert oracle.query_count <= 1040  # a regression bound: the count this solve takes today

    def test_bare_callable_rejected(self):
        with pytest.raises(DomainError):
            fq.solve(lambda x: x, 2, grid_of("0", "1/2"), F(1, 16))

    def test_bad_eps(self, uniform):
        with pytest.raises(DomainError):
            fq.solve(uniform, 2, grid_of("0", "1/2"), F(2))

    def test_tiny_delta(self, uniform, monkeypatch):
        # float(gamma / 4) underflows to 0.0; the float search stops at the float resolution 2**-52
        g = grid_of("0", "1/4", "1/2")
        deltas, search = [], discrete._search
        monkeypatch.setattr(discrete, "_search", lambda *args: deltas.append(args[-1]) or search(*args))
        passed = fq.Certificate(F(0), True, F(0))
        monkeypatch.setattr(discrete, "check_conditions", lambda *args: passed)  # stop after the float attempt
        res = fq.solve(uniform, 2, g, F(1, 2**1100))
        assert deltas == [2.0**-52]
        assert fq.check_conditions(uniform, 2, res.strategy, F(1, 2**20)).passed

    def test_float_search_below_2_to_minus_40(self, square, monkeypatch):
        # gamma / 4 = 2**-41 / 3 here; a float tolerance floored at 2**-40 left residuals above
        # gamma and one exact search (0.6 s), while 2**-52 certifies the float result
        search = discrete._search

        def no_exact_search(F_search, n, grid, delta):
            if isinstance(delta, F):
                raise AssertionError("the float search was not certified")
            return search(F_search, n, grid, delta)

        monkeypatch.setattr(discrete, "_search", no_exact_search)
        g = grid_of(*(F(i, 8) for i in range(4)))
        assert fq.solve(square, 4, g, F(1, 2**34)).certificate.passed

    def test_lowest_utility_is_zero(self, square, exact_searches):
        # b_1 = 0, so U_0 = 0 and s_0 = 0 make bid 1's bottom residual 0 exactly; the walk's own
        # s_0 * Delta(s_0, s_1) would sit there instead
        g = grid_of("0", "1/6", "1/3")
        for eps in (F(1, 64), F(1, 2**20)):
            res = fq.solve(square, 2, g, eps)
            s, u = res.strategy.s, res.strategy.utilities
            assert s[0] == g.bids[0] == 0 and u[0] == 0
            assert (s[0] - g.bids[0]) * res.strategy.win_probs(res.transformed_cdf, 2)[0] - u[0] == 0
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
        strategy = discrete._search(mixed, 2, g, gamma / 4)
        assert fq.check_conditions(mixed, 2, strategy, gamma).passed

    def test_exact_attempt_takes_the_walk_as_it_is(self, monkeypatch):
        # the conversion that takes a float walk back to rationals changes an exact walk only at s_0 and U_0:
        # each exact point is pooled or at or above its bid
        dist = fq.power_cdf(8)
        g = grid_of(*(F(k, 256) for k in (0, 10, 63, 71, 122, 137, 144, 201, 240)))
        mixed = fq.strongly_increasing_transform(dist, F(1, 3 * 2**21))
        gamma = F(1, 3 * 2**21) / (2 * g.m)
        walks, walk = [], discrete._binary_search_top_utility
        monkeypatch.setattr(discrete, "_binary_search_top_utility",
                            lambda *args: walks.append(walk(*args)) or walks[-1])
        strategy = discrete._search(mixed, 2, g, gamma / 4)
        ((s, uvec),) = walks
        assert all(type(x) is F for x in s + uvec)
        assert strategy == JumpPointStrategy(g, (F(0),) + tuple(s[1:]), (F(0),) + tuple(uvec[1:]))

    def test_float_result_taken_back_exactly(self, uniform, monkeypatch):
        g = grid_of("0", "1/5", "1/3", "1/2")
        third = float(F(1, 3))  # not 1/3: a float cannot hold it
        uvec = [0.0, 0.01, 0.01, 0.1, 0.3]
        monkeypatch.setattr(discrete, "_binary_search_top_utility",
                            lambda *args: ([0.1, third, third, 0.7, 1.0], uvec))
        strategy = discrete._search(float_view(uniform), 2, g, 2.0**-30)
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
        strategy = discrete._search(float_view(uniform), 2, g, 2.0**-30)
        assert isinstance(strategy, JumpPointStrategy)
        assert strategy.s == expected

    def test_uncertified_float_result_falls_back_to_exact(self, uniform, monkeypatch, exact_searches):
        g = grid_of("0", "1/4", "1/2")
        eps = F(1, 32)
        # s_1 = 1/8 lies below the bid 1/4 it starts, so condition 3 fails whatever the cdf
        bad = JumpPointStrategy(g, (F(0), F(1, 8), F(1, 8), F(1)), (F(0),) * 4)
        assert not fq.check_conditions(uniform, 2, bad, eps).passed
        force_exact_attempt(monkeypatch, bad)
        res = fq.solve(uniform, 2, g, eps)
        assert exact_searches == [res.certificate.gamma / 4]  # one exact search, at gamma/4
        assert res.strategy != bad
        assert res.certificate.passed
        assert fq.epsilon_bne_check_cdfpa(uniform, 2, res.strategy).max_regret <= eps

    def test_no_certified_attempt_raises(self, uniform, monkeypatch, exact_searches):
        failed = fq.Certificate(F(1), False, F(1))
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
        s, u = res.strategy.s, res.strategy.utilities
        assert s[0] == 0 and u[0] == 0  # bid 1's bottom residual is 0, as b_1 = 0
        assert all(u[i - 1] == u[i] for i in range(1, m + 1) if s[i - 1] == s[i])  # condition 2's pooled utilities
        assert res.certificate.max_residual <= res.certificate.gamma
        assert exact_searches == []  # the float search alone was certified
        assert fq.epsilon_bne_check_cdfpa(dist, n, res.strategy).max_regret <= eps

    @pytest.mark.parametrize("cdf,n,bids", [
        ("adversarial", 2, (0, 31, 39, 63, 75, 102, 104, 122, 136, 157, 159, 184, 249)),
        ("adversarial", 4, (0, 145, 209)),
        ("uniform", 4, (0, 30, 201)),
    ])
    def test_float_search_stops_early(self, cdf, n, bids, uniform, adversarial, monkeypatch):
        # U* is a dyadic here, and the walk there has s_0 = 0: bisection met bid 1's 2 delta stop only near
        # its 2**-52 floor, after 39, 38 and 38 walks; the secant through the walks above U* lands within it
        walks = float_walks(monkeypatch)
        res = fq.solve({"uniform": uniform, "adversarial": adversarial}[cdf], n, grid_of(*(F(k, 256) for k in bids)),
                       F(1, 2**30))
        assert res.certificate.passed
        assert len(walks) <= 8

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_float_search_within_52_walks(self, data, walk_cdfs):
        # the projection keeps each point within bisection's minmax interval, and the walks stop at 52
        dist = walk_cdfs[data.draw(st.sampled_from(WALK_CDFS), label="cdf")]
        n = data.draw(st.sampled_from([2, 3, 4, 8, 64]), label="n")
        den = data.draw(st.sampled_from([256, 100, 21]), label="den")
        raw = data.draw(st.lists(st.integers(1, den - 1), unique=True, max_size=12), label="bids")
        g = BidGrid((F(0),) + tuple(sorted(F(k, den) for k in raw)))
        eps = F(1, 2 ** data.draw(st.integers(4, 40), label="log2(1/eps)"))
        mixed = fq.strongly_increasing_transform(dist, eps / (3 * n))
        with pytest.MonkeyPatch.context() as mp:
            walks = float_walks(mp)
            discrete._search(float_view(mixed), n, g, max(float(eps / (3 * n) / (2 * g.m) / 4), 2.0**-52))
        assert 0 < len(walks) <= discrete.MAX_FLOAT_WALKS == 52

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
            bad = JumpPointStrategy(grid, (F(0),) + (F(1),) * m, (F(0),) * (m + 1))
            force_exact_attempt(monkeypatch, bad)
        tols = []  # the tolerance of each walk the solve runs
        walk = discrete.compute_strategy
        monkeypatch.setattr(discrete, "compute_strategy", lambda *args: tols.append(args[-1]) or walk(*args))
        oracle = fq.CdfOracle(dist)
        res = fq.solve(oracle, n, grid, eps)
        assert res.certificate.passed
        delta, L = res.certificate.gamma / 4, max(1, lipschitz_bound(dist))  # the mix keeps slopes <= max(1, L)
        exact_walks = sum(isinstance(tol, F) for tol in tols)
        assert len(tols) - exact_walks <= 52  # halvings of U's bracket [0, 1] down to 2**-52
        assert exact_walks <= 52 + ceil_log2(1 / delta)  # down to delta * 2**-52
        # per walk: F(1); per bid F(b), one F per bisection step and F at the jump; then F(s_1) for
        # bid 1's residual.  Each certificate evaluates m + 1 points, and solve checks two
        points = sum(m * (ceil_log2(n * L / F(tol)) + 2) + 2 for tol in tols) + 2 * (m + 1)
        assert 0 < oracle.query_count <= points  # one query per evaluated point


def draw_grid(data, m: int) -> BidGrid:
    den = data.draw(st.sampled_from([d for d in (256, 100, 21, 2**60) if d > m]), label="den")
    inner = data.draw(st.lists(st.integers(1, den - 1), unique=True, min_size=m - 1, max_size=m - 1), label="bids")
    return BidGrid((F(0),) + tuple(sorted(F(k, den) for k in inner)))


def draw_cdf(data, walk_cdfs):
    """One of WALK_CDFS or a power cdf x**k, mixed with the identity as solve mixes it."""
    name = data.draw(st.sampled_from(WALK_CDFS + ["power"]), label="cdf")
    dist = fq.power_cdf(data.draw(st.integers(3, 8), label="k")) if name == "power" else walk_cdfs[name]
    return fq.strongly_increasing_transform(dist, F(1, 2 ** data.draw(st.integers(4, 40), label="mix")))


def certificate_boxes(dist, n: int, strategy: JumpPointStrategy) -> dict:
    """(box, P) of each condition-1 residual (bid i, jump point j) of an unpooled bid that check_conditions boxes:
    the box, and P, the float below (s_j - b_i) Delta_i from which _residual_box takes U_j."""
    s, u, bids = strategy.s, strategy.utilities, strategy.bids
    sbox, bbox, ubox = ([float_bounds(*x.as_integer_ratio()) for x in xs] for xs in (s, bids, u))
    fbox, out = [float_bounds(*f) for f in discrete._cdf_pairs(dist, s)], {}
    for i in range(1, len(bids) + 1):
        win = discrete._delta_box(fbox[i - 1], fbox[i], n)
        for j in (i - 1, i) if s[i - 1] < s[i] else ():
            box = discrete._residual_box(sbox[j], bbox[i - 1], ubox[j], win, False)
            if box:
                margin = math.nextafter(sbox[j][0] - bbox[i - 1][1], -math.inf)
                out[i, j] = box, math.nextafter(margin * win[0], -math.inf)
    return out


def share_the_top(dist, n: int, strategy: JumpPointStrategy) -> JumpPointStrategy | None:
    """The strategy with U_m and one other utility U_j set so that bid m's residual at s_m and a residual at s_j
    are each P - (P - T) = T, a float T above every residual before: their boxes share the largest lower end,
    the float below T.  None where no U_j does so."""
    m, boxes = len(strategy.bids), certificate_boxes(dist, n, strategy)
    if (m, m) not in boxes:
        return None
    top, p_m = max(box[0] for box, _ in boxes.values()), boxes[m, m][1]
    for (_, j), (_, p_j) in boxes.items():
        step = max(math.ulp(p_m), math.ulp(p_j))  # T on this step: each P - T is a float, and P - (P - T) is T
        T = math.ceil(4 * top / step + 1) * step
        if j == m or not T <= min(p_m, p_j) / 2:
            continue
        u = list(strategy.utilities)
        u[m], u[j] = F(p_m - T), F(p_j - T)
        probe = JumpPointStrategy(BidGrid(strategy.bids), strategy.s, u)
        lows = sorted((box[0] for box, _ in certificate_boxes(dist, n, probe).values()), reverse=True)
        if lows[0] == lows[1]:
            return probe
    return None


class TestSameAsTheReference:
    """compute_strategy and check_conditions give exactly what the reference copies above give."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_walk(self, data, walk_cdfs):
        # the same jump points and utilities, bit for bit, in floats and in Fractions
        dist = draw_cdf(data, walk_cdfs)
        exact = data.draw(st.booleans(), label="exact")
        n = data.draw(st.integers(2, 6 if exact else 64), label="n")
        g = draw_grid(data, data.draw(st.integers(1, 6 if exact else 32), label="m"))
        delta = F(1, 2 ** data.draw(st.integers(4, 16 if exact else 50), label="delta"))
        if exact:
            U, ev = data.draw(st.fractions(0, 1, max_denominator=2**20), label="U"), dist
        else:
            U, ev, delta = data.draw(st.floats(0, 1), label="U"), float_view(dist), float(delta)
        got = discrete.compute_strategy(ev, n, g, U, delta)
        assert repr(got) == repr(reference_compute_strategy(ev, n, g, U, delta))

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_certificate(self, data, walk_cdfs):
        # the same Certificate on solved strategies, on failing ones (a jump point below
        # its bid, unequal pooled utilities, a residual above gamma) and through a CdfOracle
        dist = draw_cdf(data, walk_cdfs)
        n, m = data.draw(st.integers(2, 64), label="n"), data.draw(st.integers(1, 32), label="m")
        g = draw_grid(data, m)
        gamma = F(1, 2 ** data.draw(st.integers(6, 40), label="eps")) / (3 * n) / (2 * m)
        strategy = discrete._search(float_view(dist), n, g, max(float(gamma / 4), 2.0**-52))
        s, u = list(strategy.s), list(strategy.utilities)
        kind = data.draw(st.sampled_from(["solved", "below bid", "pooled", "above gamma", "oracle"]), label="kind")
        i = data.draw(st.integers(1, m), label="i")
        if kind == "below bid" and i > 1 and s[i - 2] < g.bids[i - 1]:
            s[i - 1] = (s[i - 2] + g.bids[i - 1]) / 2
        elif kind == "pooled" and i > 1:
            s[i - 1], u[i - 1] = s[i], u[i] + gamma * data.draw(st.sampled_from([F(1, 2**40), -1, 3]), label="by")
        elif kind == "above gamma":  # bid i's residual at s_i, (s_i - b_i) Delta_i - U_i, put above gamma
            by = data.draw(st.sampled_from([1 + F(1, 2**60), 2, 3]), label="by")
            u[i] = (s[i] - g.bids[i - 1]) * strategy.win_probs(dist, n)[i - 1] - gamma * by
        else:
            kind = "solved" if kind != "oracle" else kind
        probe = JumpPointStrategy(g, s, u)
        F_ = fq.CdfOracle(dist) if kind == "oracle" else dist
        cert = fq.check_conditions(F_, n, probe, gamma)
        assert cert == reference_check_conditions(F_, n, probe, gamma)
        assert kind in ("solved", "oracle") or not cert.passed

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_certificate_with_two_boxes_at_the_top(self, data, walk_cdfs):
        # a utility nudged so that two residual boxes share the largest lower end: both are computed exactly
        dist = draw_cdf(data, walk_cdfs)
        n, m = data.draw(st.integers(2, 16), label="n"), data.draw(st.integers(2, 12), label="m")
        g = draw_grid(data, m)
        gamma = F(1, 2 ** data.draw(st.integers(6, 30), label="eps")) / (3 * n) / (2 * m)
        probe = share_the_top(dist, n, discrete._search(float_view(dist), n, g, max(float(gamma / 4), 2.0**-52)))
        assume(probe is not None)
        assert fq.check_conditions(dist, n, probe, gamma) == reference_check_conditions(dist, n, probe, gamma)


class TestAgainstTheClosedForm:
    """The finite-grid equilibrium utility against the continuous one, I(v) = integral_0^v F**(n-1).

    Take a certified solve of F at n bidders and accuracy eps: jump points s_0 = 0 <= ... <= s_m = 1,
    utilities U_0 = 0, U_1, ..., U_m, the mixed cdf G = (1 - w) F + w x with w = eps / (3n), and the
    certificate's bound gamma.  Then at every jump point s_i

        |U_i - I(s_i)| <= sum over unpooled k <= i of [(s_k - s_(k-1)) (G(s_k)**(n-1) - G(s_(k-1))**(n-1)) + 2 gamma]
                          + (n - 1) w s_i.

    Proof.  Let J(v) = integral_0^v G**(n-1).
    * An unpooled bid k (s_(k-1) < s_k) passed both condition-1 residuals, |(s_k - b_k) Delta_k - U_k| <= gamma
      and |(s_(k-1) - b_k) Delta_k - U_(k-1)| <= gamma, so U_k - U_(k-1) = (s_k - s_(k-1)) Delta_k + e_k with
      |e_k| <= 2 gamma.  A pooled bid passed condition 2's U_(k-1) = U_k, and its interval is empty.
    * Delta_k = (1/n) sum_(j<n) G(s_(k-1))**(n-1-j) G(s_k)**j is a mean of terms in
      [G(s_(k-1))**(n-1), G(s_k)**(n-1)], and so is G**(n-1) on [s_(k-1), s_k], as G is nondecreasing.  So
      (s_k - s_(k-1)) Delta_k and the integral of G**(n-1) over [s_(k-1), s_k] differ by at most
      (s_k - s_(k-1)) (G(s_k)**(n-1) - G(s_(k-1))**(n-1)).
    * Summing from U_0 = 0 = J(s_0), |U_i - J(s_i)| is at most the sum over unpooled k <= i above.
    * |G - F| = w |x - F(x)| <= w on [0, 1], and a**(n-1) - b**(n-1) <= (n - 1)(a - b) for 0 <= b <= a <= 1, so
      |J(v) - I(v)| <= (n - 1) w v.

    I(v) is read off the explicit bid beta as (v - beta(v)) F(v)**(n-1), and 0 where F(v) = 0, so a wrong Delta
    in the solver or a wrong integral row in the bid breaks the bound.  At i = m it compares U_m with I(1).
    """

    @staticmethod
    def solved(data, walk_cdfs):
        """A certified solve: its jump points s, utilities u, bids, mixed cdf G, gamma, n and w, F's breakpoints, the
        closed form I and the bound B[i] above at each s_i."""
        name = data.draw(st.sampled_from(WALK_CDFS + ["power8"]), label="cdf")
        dist = fq.power_cdf(8) if name == "power8" else walk_cdfs[name]
        n = data.draw(st.sampled_from([2, 3, 5, 8]), label="n")
        g = draw_grid(data, data.draw(st.integers(1, 32), label="m"))
        eps = F(1, 2 ** data.draw(st.sampled_from([6, 10, 16]), label="log2(1/eps)"))
        res = fq.solve(dist, n, g, eps)
        s, u, G, gamma = res.strategy.s, res.strategy.utilities, res.transformed_cdf, res.certificate.gamma
        assert res.certificate.passed and s[0] == 0 and u[0] == 0
        beta, w = explicit.canonical_bid_function(dist, n), eps / (3 * n)

        def closed_form(x):
            fx = dist(x)
            return (x - beta(x)) * fx ** (n - 1) if fx else F(0)

        powers = [G(x) ** (n - 1) for x in s]
        bounds, pooling = [], 0  # the sum over unpooled k <= i
        for i, x in enumerate(s):
            if i and s[i - 1] < x:
                pooling += (x - s[i - 1]) * (powers[i] - powers[i - 1]) + 2 * gamma
            bounds.append(pooling + (n - 1) * w * x)
        return SimpleNamespace(s=s, u=u, bids=g.bids, G=G, gamma=gamma, n=n, w=w, breakpoints=dist.breakpoints,
                               closed_form=closed_form, bounds=bounds)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_utilities_within_the_bound(self, data, walk_cdfs):
        c = self.solved(data, walk_cdfs)
        for x, ui, bound in zip(c.s, c.u, c.bounds):
            assert abs(ui - c.closed_form(x)) <= bound

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_value_grid_within_the_bound(self, data, walk_cdfs):
        """Between the jump points: for v in (s_(i-1), s_i] and the bound B_(i-1) at s_(i-1) above,

            |(v - b_i) Delta_i - I(v)| <= B_(i-1) + gamma + (v - s_(i-1)) (G(s_i)**(n-1) - G(s_(i-1))**(n-1))
                                          + (n - 1) w (v - s_(i-1)),

        with Delta_i the win probability of bid b_i under G.  It is asserted at the values k/256 and at F's
        breakpoints.

        Proof.  Bid i is unpooled, as s_(i-1) < v <= s_i.
        * (v - b_i) Delta_i = (s_(i-1) - b_i) Delta_i + (v - s_(i-1)) Delta_i, and
          I(v) = I(s_(i-1)) + integral over [s_(i-1), v] of F**(n-1).
        * Condition 1 at s_(i-1) holds within gamma, |(s_(i-1) - b_i) Delta_i - U_(i-1)| <= gamma, and
          |U_(i-1) - I(s_(i-1))| <= B_(i-1).
        * Delta_i and G**(n-1) on [s_(i-1), v], inside [s_(i-1), s_i], both lie in
          [G(s_(i-1))**(n-1), G(s_i)**(n-1)], as G is nondecreasing.  So (v - s_(i-1)) Delta_i and the integral
          of G**(n-1) over [s_(i-1), v] differ by at most (v - s_(i-1)) (G(s_i)**(n-1) - G(s_(i-1))**(n-1)).
        * |G**(n-1) - F**(n-1)| <= (n - 1) |G - F| <= (n - 1) w, as in the bound above, so the integrals of
          G**(n-1) and F**(n-1) over [s_(i-1), v] differ by at most (n - 1) w (v - s_(i-1)).
        The triangle inequality over the four gives the bound.  Delta_i is formed here from its definition, the
        mean of G(s_(i-1))**(n-1-j) G(s_i)**j over j < n, not by the solver's code.
        """
        c = self.solved(data, walk_cdfs)
        n, fs = c.n, [c.G(x) for x in c.s]
        deltas = [sum(a ** (n - 1 - j) * b**j for j in range(n)) / n for a, b in zip(fs, fs[1:])]
        for v in sorted({F(k, 256) for k in range(1, 257)} | {b for b in c.breakpoints if b > 0}):
            i = bisect.bisect_left(c.s, v)  # s_(i-1) < v <= s_i
            width = v - c.s[i - 1]
            bound = c.bounds[i - 1] + c.gamma + width * (fs[i] ** (n - 1) - fs[i - 1] ** (n - 1) + (n - 1) * c.w)
            assert abs((v - c.bids[i - 1]) * deltas[i - 1] - c.closed_form(v)) <= bound
