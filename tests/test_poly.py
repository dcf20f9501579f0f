"""Exact arithmetic on integer rows, checked against independent references.

The references are the Fraction code the integer path replaced (Horner's rule
with a test-local `poly_eval`, the exact `bisect_left` piece rule, a naive
convolution, repeated for powers), the Kronecker-packed power `kronecker_power`
for powers at sizes repeated products cannot reach, and, for the sign decision
behind `validate`, sympy's square-free factorisation and real-root counts.
"""

import bisect
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import fpaeq as fq
from fpaeq import DomainError, PiecewisePoly, PiecewisePolyCdf, RationalBidFunction, discrete
from fpaeq.cdf import ValidationReport
from fpaeq.explicit import eval_canonical, power_coefficients
from fpaeq.poly import float_bounds, horner_int, int_row, nonnegative_on, poly_derivative, power_int

from conftest import kronecker_power, poly_eval, row_fractions
from test_explicit import seeded_cubic

BIG = 2**64
ADVERSARIAL = fq.make_adversarial_cdf(F(3, 4), F(1, 8), F(1, 32))  # conftest's adversarial fixture
FIXTURES = "uniform square two_piece shifted_support adversarial".split()

coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5).map(F),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=BIG),
)
rows = st.lists(coefficients, min_size=0, max_size=8).map(tuple)
unit = st.fractions(min_value=0, max_value=1, max_denominator=BIG)
# rows of ints with zeros, negatives, a single coefficient, trailing (high) zeros and every coefficient 0
int_coefficients = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
int_rows = st.lists(int_coefficients, min_size=1, max_size=8)
factors = st.one_of(st.just(1), st.integers(2, 12), st.integers(1, BIG))  # k >= 1
odd = st.integers(0, 10**6).map(lambda r: 2 * r + 1)
denominators = st.one_of(
    st.just(1),
    st.integers(1, 80).map(lambda e: 1 << e),  # 2**e
    odd,  # r, odd
    st.tuples(odd.filter(lambda r: r > 1), st.integers(1, 80)).map(lambda t: t[0] << t[1]),  # r * 2**e, r > 1
    # those of floats in (0, 1]: 2**e with e from 52 to 1074
    st.floats(min_value=0, max_value=1, exclude_min=True).map(lambda f: f.as_integer_ratio()[1]).filter(lambda q: q >= 2**52),
)


@st.composite
def sorted_breakpoints(draw, pieces):
    """pieces + 1 nondecreasing points in [0, 1]; some differ by less than a float can tell apart."""
    points = draw(st.lists(unit, min_size=pieces + 1, max_size=pieces + 1))
    near = draw(st.lists(st.booleans(), min_size=pieces + 1, max_size=pieces + 1))
    points = [min(p + F(1, 2**80), F(1)) if tie else p for p, tie in zip(points, near)]
    return tuple(sorted(points))


@st.composite
def built(draw, breakpoints, rational_rows):
    """A PiecewisePoly of these rows: from the rationals, or from their integer rows with both parts times k >= 1."""
    if draw(st.booleans()):
        return PiecewisePoly(breakpoints, rational_rows)
    scaled = []
    for nums, scale in map(int_row, rational_rows):
        k = draw(factors)
        scaled.append(([k * c for c in nums], k * scale))
    return PiecewisePoly.from_int_rows(breakpoints, scaled)


@st.composite
def piecewise(draw):
    pieces = draw(st.integers(1, 5))
    return draw(built(draw(sorted_breakpoints(pieces)), [draw(rows) for _ in range(pieces)]))


def dense_cdf() -> PiecewisePolyCdf:
    """CI's dense degree-64 row: 58-bit weights over their sum, a 64-bit denominator."""
    rng = random.Random(1)
    w = [rng.getrandbits(58) for _ in range(64)]
    return PiecewisePolyCdf((F(0), F(1)), [[F(0)] + [F(x, sum(w)) for x in w]])


def reference_piece(pp: PiecewisePoly, x) -> int:
    """The piece rule on exact Fractions: bisect_left - 1, clipped to the pieces."""
    return min(max(bisect.bisect_left(pp.breakpoints, x) - 1, 0), pp.pieces - 1)


def reference_cdf_boxes(pp: PiecewisePoly, points) -> list[tuple[float, float]]:
    """discrete._cdf_boxes by the scalar loop it replaced: point by point, Horner's rule on the float rows and the
    absolute rows with gamma_(2d+2) = k u / (1 - k u), each end one float outward by math.nextafter, clipped."""
    rows = [[0.0] * (pp.degree + 1 - len(nums)) + [c / scale for c in reversed(nums)] for nums, scale in pp.int_rows]
    k = 2 * (pp.degree + 1)
    gamma, tiny = k * 2.0**-53 / (1 - k * 2.0**-53), k * 2.0**-1074

    def end(x: float, side: float) -> float:
        acc = size = 0.0
        for c in rows[reference_piece(pp, F(x))]:
            acc = acc * x + c
            size = size * x + abs(c)
        return math.nextafter(acc + side * (gamma * size + tiny), side * math.inf)

    return [(max(end(a, -1.0), 0.0), min(end(b, 1.0), 1.0)) for a, b in points]


def reference_bid(rbf: RationalBidFunction, x) -> F:
    """eval_canonical in Fraction arithmetic: x - I(x) / F(x)**(n-1) on x's piece, and x where F(x) = 0."""
    j = reference_piece(rbf.cdf, x)
    fx = poly_eval(rbf.cdf.rows[j], x)
    if fx == 0:
        return x
    nums, scale = rbf.integral_rows[j]
    return x - poly_eval([F(c, scale) for c in nums], x) / fx ** (rbf.n - 1)


def bid_rows(cdf, n) -> list[PiecewisePoly]:
    """The long rows of a bid function: its stored integral rows, and the power rows F**(n-1), each a PiecewisePoly."""
    rbf = fq.canonical_bid_function(cdf, n)
    return [PiecewisePoly.from_int_rows(cdf.breakpoints, rows) for rows in (rbf.integral_rows, fq.power_coefficients(cdf, n))]


def naive_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


X = sympy.Symbol("x")


def reference_nonnegative(f, lo, hi) -> bool:
    """f >= 0 on [lo, hi], from sympy's square-free factorisation and real-root counts.

    A nonzero f changes sign exactly at its roots of odd multiplicity, so it
    is >= 0 on [lo, hi] iff no factor of odd multiplicity has a root strictly
    inside and f is positive at a point inside that is not a root; of deg f + 1
    points one is not.
    """
    poly = sympy.Poly([sympy.Rational(F(c).numerator, F(c).denominator) for c in reversed(f)], X)
    if poly.is_zero:
        return True
    lo, hi = (sympy.Rational(v.numerator, v.denominator) for v in (lo, hi))
    for factor, multiplicity in poly.sqf_list()[1]:
        on_ends = (factor.eval(lo) == 0) + (factor.eval(hi) == 0)
        if multiplicity % 2 and factor.count_roots(lo, hi) > on_ends:
            return False
    points = (lo + (hi - lo) * sympy.Rational(k, poly.degree() + 2) for k in range(1, poly.degree() + 2))
    return next(v for v in map(poly.eval, points) if v != 0) > 0


def reference_validate(dist: PiecewisePolyCdf) -> ValidationReport:
    """validate() in Fraction arithmetic, with reference_nonnegative deciding whether each piece is nondecreasing."""
    bad = []
    bps = dist.breakpoints
    if bps[0] != 0:
        bad.append(f"first breakpoint is {bps[0]}, expected 0")
    if bps[-1] != 1:
        bad.append(f"last breakpoint is {bps[-1]}, expected 1")
    for j in range(len(bps) - 1):
        if not bps[j] < bps[j + 1]:
            bad.append(f"breakpoints not strictly increasing at index {j}")
    if poly_eval(dist.rows[0], F(0)) != 0:
        bad.append("F_1(0) != 0")
    if poly_eval(dist.rows[-1], F(1)) != 1:
        bad.append("F_k(1) != 1")
    for j in range(dist.pieces - 1):
        v = bps[j + 1]
        left, right = poly_eval(dist.rows[j], v), poly_eval(dist.rows[j + 1], v)
        if left != right:
            bad.append(f"discontinuity at breakpoint {j + 1}: {left} != {right}")
    for j, row in enumerate(dist.rows):
        lo, hi = bps[j], bps[j + 1]
        if lo < hi and not reference_nonnegative(poly_derivative(row), lo, hi):
            bad.append(f"piece {j}: decreasing somewhere in [{lo}, {hi}]")
    return ValidationReport(tuple(bad))


def times_root(f, r, times=1) -> list:
    """f * (q x - p)**times for r = p/q, on integer coefficients."""
    for _ in range(times):
        f = naive_mul(f, [-r.numerator, r.denominator])
    return f


def shifted_chebyshev(k: int) -> list:
    """Integer coefficients of T_k(2x - 1), from T_(k+1) = 2 (2x - 1) T_k - T_(k-1)."""
    prev, cur = [1], [-1, 2]
    for _ in range(k - 1):
        nxt = naive_mul([-2, 4], cur)
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


@st.composite
def pieces_with_roots(draw):
    """(f, lo, hi): an integer polynomial with repeated roots at, inside and just beside the ends of [lo, hi].

    Half the cases start from a dense factor instead of a constant: up to degree 12 with coefficients of up
    to 64 bits, or the square of one of up to degree 6, which is >= 0 everywhere.  It takes double roots at
    dyadic and other rationals inside, and roots on the ends.
    """
    lo = draw(st.fractions(min_value=0, max_value=F(15, 16), max_denominator=16))
    hi = lo + draw(st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16))
    if draw(st.booleans()):
        def dense(size):
            return st.lists(st.integers(1 - 2**64, 2**64 - 1), min_size=1, max_size=size).filter(any)

        f = draw(dense(13)) if draw(st.booleans()) else naive_mul(g := draw(dense(7)), g)
        inside = st.one_of(st.integers(1, 63).map(lambda k: F(k, 64)), st.sampled_from([F(1, 3), F(2, 5), F(5, 7)]))
        for _ in range(draw(st.integers(0, 2))):
            f = times_root(f, lo + (hi - lo) * draw(inside), 2)
        for end in draw(st.lists(st.sampled_from([lo, hi]), max_size=2)):
            f = times_root(f, end, draw(st.integers(1, 2)))
        return f, lo, hi
    tiny = F(1, 2 ** draw(st.sampled_from([4, 20, 60])))
    places = [lo, hi, lo - tiny, lo + tiny, hi - tiny, hi + tiny, (lo + hi) / 2, (2 * lo + hi) / 3]
    f = [draw(st.sampled_from([-3, -1, 1, 2]))]
    for _ in range(draw(st.integers(0, 4))):
        f = times_root(f, draw(st.sampled_from(places)), draw(st.integers(1, 3)))
    if draw(st.booleans()):  # a quadratic factor with complex roots near the interval
        m = draw(st.sampled_from(places))
        f = naive_mul(f, [m.numerator ** 2 + 1, -2 * m.numerator * m.denominator, m.denominator ** 2])
    if draw(st.booleans()):  # move the roots a little: split, lift or sink them
        f = [c + draw(st.integers(-2, 2)) for c in f]
    if draw(st.integers(0, 3)) == 0:  # every root of even multiplicity, touching 0
        f = naive_mul(f, f)
    return f, lo, hi


def normalised(r) -> bool:
    return type(r) is F and r.denominator > 0 and math.gcd(r.numerator, r.denominator) == 1


def trimmed(row) -> tuple:
    """The row without its zero top coefficients; the zero polynomial as (0,)."""
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return tuple(row) or (0,)


class TestIntRow:
    @given(rows)
    def test_one_denominator(self, row):
        nums, scale = int_row(row)
        assert scale == math.lcm(*(c.denominator for c in row))
        assert tuple(F(c, scale) for c in nums) == trimmed(row)
        assert nums[-1] != 0 or nums == (0,)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(int_rows, st.integers(1, BIG), factors), min_size=1, max_size=4), st.data())
    def test_integer_entry_point(self, parts, data):
        # integer rows times k >= 1 become the rational constructor's rows, in lowest terms, and compare equal
        scaled = [([k * c for c in nums], k * scale) for nums, scale, k in parts]
        bps = data.draw(sorted_breakpoints(len(scaled)))
        pp = PiecewisePoly.from_int_rows(bps, scaled)
        ref = PiecewisePoly(bps, [row_fractions(row) for row in scaled])
        assert pp == ref and hash(pp) == hash(ref)
        assert pp.rows == tuple(trimmed(row_fractions(row)) for row in scaled)
        for nums, scale in pp.int_rows:
            assert scale > 0 and math.gcd(scale, *nums) == 1 and all(type(c) is int for c in nums)
            assert nums[-1] != 0 or nums == (0,)


class TestPieceRule:
    """Exact and float points alike: the piece of x counts the inner breakpoints below x."""

    # breakpoints whose float rounds up (1/10), rounds down (1/3) or is exact (1/4), and 0 and 1
    UP = [F(1, 10), F(1, 5), F(2, 5), F(4, 5), F(9, 10)]
    DOWN = [F(1, 3), F(2, 3), F(3, 10), F(3, 5), F(7, 10), F(1, 7)]
    EXACT = [F(1, 4), F(1, 2), F(3, 4), F(5, 8), F(0), F(1)]

    @pytest.mark.parametrize("seed", range(40))
    def test_float_views_pick_the_exact_piece(self, seed):
        assert all(F(float(b)) > b for b in self.UP) and all(F(float(b)) < b for b in self.DOWN)
        assert all(F(float(b)) == b for b in self.EXACT)
        rng = random.Random(seed)
        pool = self.UP + self.DOWN + self.EXACT
        inner = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        inner += rng.sample(inner, rng.randint(0, len(inner)))  # pooled: equal breakpoints
        inner += [b + F(rng.choice([-1, 1]), 2**80) for b in inner[:2] if 0 < b < 1]  # one float, two rationals
        bps = (F(0), *sorted(inner), F(1))
        pp = PiecewisePoly(bps, [(F(j),) for j in range(len(bps) - 1)])  # row j is the constant j
        ev = pp.float_evaluator()
        xs = sorted({y for b in bps for f in [float(b)]
                     for y in (f, math.nextafter(f, -1.0), math.nextafter(f, 2.0)) if 0 <= y <= 1})
        want = [pp.piece_index(F(x)) for x in xs]
        assert want == [reference_piece(pp, F(x)) for x in xs]
        assert [ev(x) for x in xs] == want
        assert ev(np.array(xs)).tolist() == want
        assert pp.float_pieces(np.array(xs)).tolist() == want
        # the exact path on and beside each breakpoint, and halfway between the floats tested
        near = [x for b in bps for x in (b, b - F(1, 2**81), b + F(1, 2**81))]
        near += [F(x) + F(math.ulp(x)) / 2 for x in xs]
        for x in near:
            if 0 <= x <= 1:
                assert pp.piece_index(x) == reference_piece(pp, x)

    def test_jump_point_that_floats_round_up(self):
        # jump points (0, 1/10, 1) with bids (0, 1/2): float 0.1 lies above 1/10, where the bid is 1/2
        bid_fn = fq.JumpPointStrategy(fq.BidGrid((F(0), F(1, 2))), (F(0), F(1, 10), F(1)), ())
        assert bid_fn(F(0.1)) == F(1, 2) and bid_fn(F(1, 10)) == 0
        ev = bid_fn.float_evaluator()
        assert ev(0.1) == 0.5
        assert ev(np.array([0.05, 0.1])).tolist() == [0.0, 0.5]


class TestPiecewiseEval:
    @settings(max_examples=100, deadline=None)
    @given(piecewise(), st.lists(unit, max_size=6), st.lists(st.floats(0, 1), max_size=4))
    def test_matches_fraction_horner(self, pp, rationals, floats):
        near = [b + d for b in pp.breakpoints for d in (F(-1, 2**80), F(1, 2**80)) if 0 <= b + d <= 1]
        for x in [F(0), F(1), *pp.breakpoints, *near, *rationals, *map(F, floats)]:
            j = reference_piece(pp, x)
            assert pp.piece_index(x) == j
            value = pp(x)
            assert value == poly_eval(pp.rows[j], x)
            assert normalised(value)
        for x in floats:
            assert pp(x) == pp(F(x))  # a float argument is its exact rational value

    @settings(max_examples=100, deadline=None)
    @given(unit, st.floats(0, 1))
    def test_float_bounds(self, x, f):
        lo, hi = float_bounds(x)
        assert F(lo) <= x <= F(hi)
        assert lo == hi if F(lo) == x else hi == math.nextafter(lo, 2.0)
        assert float_bounds(F(f)) == (f, f)

    @settings(max_examples=100, deadline=None)
    @given(piecewise(), st.lists(st.floats(0, 1), min_size=1, max_size=6))
    def test_float_enclosure_holds_the_value_at_floats(self, pp, floats):
        # any rows, monotone or not, near 0 and 1 and at the breakpoints' floats too: the array call of
        # check_conditions, value less and plus its bound, one float outward, holds the exact value
        xs = np.array([0.0, 1.0, *(float(b) for b in pp.breakpoints), *floats])
        value, bound = pp.float_bounded()(xs, pp.float_pieces(xs))
        lo, hi = np.nextafter(value - bound, -np.inf), np.nextafter(value + bound, np.inf)
        for x, a, b in zip(xs.tolist(), lo.tolist(), hi.tolist()):
            assert a <= pp(F(x)) <= b

    @pytest.mark.parametrize("name", FIXTURES + ["cubic", "dense"])
    def test_float_enclosure_holds_a_cdf_between_floats(self, name, request):
        # a nondecreasing row at a rational takes its lower end at the float below and its upper end above,
        # through the boxes of check_conditions, clipped to [0, 1]
        if name == "cubic":
            dist = seeded_cubic(3, 8)
        elif name == "dense":
            dist = dense_cdf()
        else:
            dist = request.getfixturevalue(name)
        xs = [F(k, 100) for k in range(101)] + [F(k, 21) for k in range(22)] + [F(1, 3) + F(1, 2**80)]
        points = [float_bounds(x) for x in xs]
        boxes = discrete._cdf_boxes(dist, points)
        assert boxes == reference_cdf_boxes(dist, points)  # the same bits as the scalar loop
        for x, (lo, hi) in zip(xs, boxes):
            assert 0 <= lo <= dist(x) <= hi <= 1
            assert hi - lo < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_float_bounded_bounds_the_error(self, data):
        # |value - exact| <= bound at random floats and at and beside each breakpoint's float, on cdf rows
        # (seeded 8-piece cubics, CI's dense degree-64 row, the adversarial cdf) and on bid-function rows
        kind = data.draw(st.sampled_from(["cubic", "dense", "adversarial", "bid"]), label="rows")
        cubic = seeded_cubic(data.draw(st.integers(0, 10**6), label="seed"), 8)
        pp = {"cubic": cubic, "dense": dense_cdf(), "adversarial": ADVERSARIAL}.get(kind)
        if pp is None:
            cdf = data.draw(st.sampled_from([cubic, ADVERSARIAL, fq.uniform_cdf()]), label="cdf")
            pp = data.draw(st.sampled_from(bid_rows(cdf, data.draw(st.integers(2, 16), label="n"))), label="row")
        near = [y for b in pp.breakpoints for f in [float(b)]
                for y in (f, math.nextafter(f, -1.0), math.nextafter(f, 2.0)) if 0 <= y <= 1]
        xs = np.array(data.draw(st.lists(st.floats(0, 1), max_size=8), label="floats") + near)
        piece = pp.float_pieces(xs)
        value, bound = pp.float_bounded()(xs, piece)
        for x, j, v, e in zip(xs.tolist(), piece.tolist(), value.tolist(), bound.tolist()):
            assert abs(F(v) - F(*pp.row_ratio(j, *x.as_integer_ratio()))) <= F(e)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_float_bounded_scalar_is_the_array_bits(self, data):
        # a float at a time gives the value and the bound of the array call, bit for bit, at and beside every
        # breakpoint's float and at random floats, on the rows of test_float_bounded_bounds_the_error
        kind = data.draw(st.sampled_from(["cubic", "dense", "adversarial", "bid", "mixed"]), label="rows")
        cubic = seeded_cubic(data.draw(st.integers(0, 10**6), label="seed"), 8)
        pp = {"cubic": cubic, "dense": dense_cdf(), "adversarial": ADVERSARIAL,
              "mixed": fq.strongly_increasing_transform(cubic, F(1, 3 * 64 * 7))}.get(kind)
        if pp is None:
            pp = data.draw(st.sampled_from(bid_rows(cubic, data.draw(st.integers(2, 16), label="n"))), label="row")
        near = [y for b in pp.breakpoints for f in [float(b)]
                for y in (f, math.nextafter(f, -1.0), math.nextafter(f, 2.0)) if 0 <= y <= 1]
        xs = data.draw(st.lists(st.floats(0, 1), max_size=8), label="floats") + near
        bounded, array = pp.float_bounded(), np.array(xs)
        value, bound = bounded(array, pp.float_pieces(array))
        assert [bounded(x) for x in xs] == list(zip(value.tolist(), bound.tolist()))

    @settings(max_examples=30)
    @given(piecewise(), st.sampled_from([F(-1, BIG), F(-1), 1 + F(1, BIG), F(2)]))
    def test_domain_error(self, pp, x):
        with pytest.raises(DomainError):
            pp.piece_index(x)
        with pytest.raises(DomainError):
            pp(x)

    def test_float_tie_with_a_breakpoint(self):
        # 1/3 and 1/3 + 2^-80 are the same float; the exact comparison puts each point in its piece
        b = F(1, 3)
        pp = PiecewisePoly((F(0), b, b + F(1, 2**80), F(1)), ((F(0),), (F(1),), (F(2),)))
        assert [pp(x) for x in (b, b + F(1, 2**81), b + F(1, 2**80), b + F(1, 2**79))] == [0, 1, 1, 2]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(1, 12), st.sampled_from([64, 257, 1024])), st.data())
    def test_grid_values_match_each_point(self, K, data):
        # breakpoints on the grid j/K, off it and repeated: each grid point takes the piece __call__ takes;
        # at the large K a piece spans more grid points than its degree + 1, past the seeds of its differences
        on_grid = st.integers(0, K).map(lambda j: F(j, K))
        points = sorted(data.draw(st.lists(st.one_of(on_grid, unit), min_size=2, max_size=6)))
        grid_rows = st.one_of(
            rows,
            st.tuples(coefficients),  # a constant row
            st.tuples(rows, st.integers(1, 4)).map(lambda r: r[0] + (F(0),) * r[1]),  # zero-padded input
        )
        pp = data.draw(built(tuple(points), [data.draw(grid_rows) for _ in points[1:]]))
        nums, den = pp.grid_values(K)
        assert all(type(v) is int for v in nums) and type(den) is int
        assert [F(v, den) for v in nums] == [pp(F(j, K)) for j in range(K + 1)]

    def test_grid_values_dense_row(self):
        # the largest admitted black-box input: one dense degree-64 row of seeded 58-bit weights over their sum,
        # at K = 2**14 (MAX_K), against Horner's rule at each grid point
        rng = random.Random(1)
        w = [rng.getrandbits(58) for _ in range(64)]
        pp = PiecewisePolyCdf((F(0), F(1)), [[F(0)] + [F(x, sum(w)) for x in w]])
        K = 2**14
        ((row, scale),) = pp.int_rows
        m = K ** (pp.degree + 1 - len(row))
        assert pp.grid_values(K) == ([horner_int(row, j, K) * m for j in range(K + 1)], scale * K**pp.degree)

    def test_grid_values_left_piece_of_a_jump(self):
        pp = PiecewisePoly((F(0), F(1, 2), F(1)), ((F(0),), (F(1),)))
        assert pp.grid_values(4) == ([0, 0, 0, 1, 1], 1)

    def test_repeated_breakpoints(self):
        # a jump-point strategy can repeat a jump point; the value there takes the first piece
        pp = PiecewisePoly((F(0), F(1, 2), F(1, 2), F(1)), ((F(0),), (F(1),), (F(2),)))
        assert [pp(x) for x in (F(1, 2), F(1, 2) + F(1, 2**70))] == [0, 2]


class TestEvalCanonical:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(sorted_breakpoints(k), st.lists(rows, min_size=k, max_size=k))),
           st.integers(2, 5), st.lists(unit, min_size=1, max_size=6), st.data())
    def test_random_rows_match_fraction_division(self, parts, n, xs, data):
        # any cdf rows, and integral rows of the length each cdf row's true degree d fixes, (n - 1) d + 2
        bps, cdf_rows = parts
        cdf = data.draw(built(bps, cdf_rows))
        integral_rows = tuple((data.draw(st.lists(int_coefficients, min_size=size, max_size=size)),
                               data.draw(factors))
                              for size in ((n - 1) * (len(nums) - 1) + 2 for nums, _ in cdf.int_rows))
        rbf = RationalBidFunction(cdf, n, integral_rows)
        for x in [*xs, *bps]:
            bid = eval_canonical(rbf, x)
            assert bid == reference_bid(rbf, x)
            assert normalised(bid)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_canonical_bid_functions(self, request, name, n):
        rbf = fq.canonical_bid_function(request.getfixturevalue(name), n)
        rng = random.Random(n)
        xs = [F(i, 64) for i in range(65)] + [F(rng.randrange(BIG + 1), BIG) for _ in range(20)]
        for x in [*xs, *rbf.cdf.breakpoints, *map(F, (0.1, 0.3, 0.7))]:
            bid = eval_canonical(rbf, x)
            assert bid == reference_bid(rbf, x)
            assert normalised(bid)

    def test_identity_piece_and_below_support(self, shifted_support):
        rbf = fq.canonical_bid_function(shifted_support, 3)
        # the identity piece's zero cdf row gives the identity, up to and at the support infimum 1/4
        for x in (F(0), F(1, 8), F(1, 4)):
            assert eval_canonical(rbf, x) == x
        assert eval_canonical(rbf, F(1, 2)) == reference_bid(rbf, F(1, 2)) != F(1, 2)

    def test_removable_singularity_at_support_infimum(self, square):
        rbf = fq.canonical_bid_function(square, 4)
        # the support infimum 0 lies on a nonzero row, F, which vanishes there: the rule for F(x) = 0 holds
        assert square.support_infimum() == 0 and rbf.cdf.int_rows[0] != ((0,), 1) and rbf.cdf(F(0)) == 0
        assert eval_canonical(rbf, F(0)) == 0
        assert eval_canonical(rbf, F(1, 3)) == F(6, 7) * F(1, 3)


def naive_power(row, k) -> list:
    """row**k by k - 1 schoolbook products."""
    out = list(row)
    for _ in range(k - 1):
        out = naive_mul(out, row)
    return out


class TestHornerInt:
    @settings(max_examples=300, deadline=None)
    @given(int_rows, denominators, st.data())
    def test_matches_fraction_sum(self, nums, q, data):
        p = data.draw(st.one_of(st.just(0), st.just(q), st.integers(0, q)))
        d = len(nums) - 1
        assert horner_int(nums, p, q) == q**d * sum(c * F(p, q) ** l for l, c in enumerate(nums))


class TestProducts:
    @settings(max_examples=150, deadline=None)
    @given(int_rows, st.sampled_from([1, 2, 3, 63]))
    def test_power_matches_repeated_multiplication(self, row, k):
        assert power_int(row, k) == naive_power(row, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 63])
    @pytest.mark.parametrize("row", [
        [-1, -1], [1, 1], [0, 0, 0], [0], [-5], [7, 0, 0], [0, -1, 0, 2],
        # one coefficient, whose power is +-(sum |a_l|)**k; at k = 1, 63 and 2**62 - 1 fill the
        # reference's slots up to the two spare bits
        [-63], [63], [0, -255], [-(2**62 - 1)], [2**62 - 1, 0],
        # a negative coefficient below zeros: in the reference its borrow turns the zero slots above it to all ones
        [-1, 0, 0, 1], [1, 0, -1], [-(2**64 - 1), 2**64 - 1],
    ])
    def test_packed_power_edges(self, row, k):
        # the packed power of the reference, kronecker_power, is checked at its slot edges too
        assert power_int(row, k) == naive_power(row, k) == kronecker_power(row, k)

    @pytest.mark.parametrize("k", [1, 2, 31, 63])
    def test_power_matches_kronecker_at_ci_sizes(self, k):
        """Dense rows of degree 1-64 with coefficients of up to 64 bits, as CI's dense row at n = 64 is."""
        rng = random.Random(29 + k)

        def dense(degree):
            bits = 64 if degree == 64 else rng.randint(1, 64)
            return [rng.choice((-1, 1)) * rng.randint(1, 2**bits) for _ in range(degree + 1)]

        # at k = 63 the reference takes seconds per dense row of degree 64, so only one is that large
        rows = [dense(d) for d in ((1, 2, 5, 9, 17, 64) if k == 63 else (1, 2, 5, 9, 17, 33, 48, 64))]
        small = dense(rng.randint(2, 8))
        rows += [
            [0] * rng.randint(1, 4) + small,  # leading zeros: the row is x**s * g, s > 0
            [-abs(small[0])] + small[1:],  # a negative g_0
            small + [0] * rng.randint(1, 4),  # trailing zeros
            [0] * rng.randint(1, 8),  # the zero row
            [0, 0, -abs(small[0])] + small[1:] + [0, 0],  # all three at once
        ]
        for row in rows:
            assert power_int(row, k) == kronecker_power(row, k)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    @pytest.mark.parametrize("name", ["two_piece", "adversarial", "seeded"])
    def test_power_coefficients_match_repeated_multiplication(self, request, name, n):
        if name == "seeded":
            dist = PiecewisePolyCdf((F(0), F(1)), ((F(0), F(3, 8), F(-7, 2**40), F(5, 8) + F(7, 2**40)),))
        else:
            dist = request.getfixturevalue(name)
        for row, power in zip(dist.rows, power_coefficients(dist, n)):
            assert row_fractions(power) == naive_power(row, n - 1)


class TestValidate:
    def test_fixtures(self, request):
        for name in FIXTURES:
            dist = request.getfixturevalue(name)
            assert dist.validate() == reference_validate(dist) == ValidationReport(())

    @pytest.mark.parametrize("bps,coeffs", [
        ((0, F(1, 2), 1), ((0, 1), (F(1, 4), F(1, 2)))),  # jump at 1/2
        ((0, 1), ((0, 2, -1, F(1, 3)),)),  # decreasing and above 1 near 1
        ((0, 1), ((F(-1, 5), F(6, 5)),)),  # negative near 0
        ((F(1, 3), F(1, 4), 1), ((0, 1), (0, 1))),  # breakpoints out of order
        ((0, F(1, 2), F(1, 2), F(9, 10)), ((0, 1), (0, 1), (0, 1))),  # repeated, last below 1
    ])
    def test_broken_cdfs(self, bps, coeffs):
        dist = PiecewisePolyCdf(bps, coeffs)
        report = dist.validate()
        assert not report.ok
        assert report == reference_validate(dist)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(
        st.lists(unit, min_size=k + 1, max_size=k + 1),
        st.lists(st.lists(coefficients, min_size=1, max_size=4).map(tuple), min_size=k, max_size=k))))
    def test_random_cdfs(self, parts):
        bps, coeffs = parts
        dist = PiecewisePolyCdf(tuple(bps), tuple(coeffs))
        assert dist.validate() == reference_validate(dist)


class TestNonnegativeOn:
    @settings(max_examples=300, deadline=None)
    @given(pieces_with_roots())
    def test_matches_real_roots(self, piece):
        f, lo, hi = piece
        assert nonnegative_on(f, lo, hi) == reference_nonnegative(f, lo, hi)

    def test_double_roots_at_both_ends(self):
        # -x (x - 1/3)^2 (x - 2/3)^2 is 0 at both ends of [1/3, 2/3] and negative between them
        f = times_root(times_root(times_root([-1], F(0)), F(1, 3), 2), F(2, 3), 2)
        assert not nonnegative_on(f, F(1, 3), F(2, 3))
        assert nonnegative_on([-c for c in f], F(1, 3), F(2, 3))

    def test_odd_roots_on_the_ends(self):
        # a root of odd multiplicity on an end does not make f change sign inside
        assert nonnegative_on([2, -2], F(0), F(1))
        assert nonnegative_on(times_root([-1], F(1), 3), F(1, 2), F(1))
        assert nonnegative_on(times_root(times_root([-1], F(1, 3)), F(2, 3)), F(1, 3), F(2, 3))
        assert not nonnegative_on(times_root(times_root([1], F(1, 3)), F(2, 3)), F(1, 3), F(2, 3))
        assert PiecewisePolyCdf((0, 1), ((0, 2, -1),)).validate().ok  # F = 2x - x^2, F'(1) = 0

    def test_constants_and_lines(self):
        assert nonnegative_on([], F(0), F(1))
        assert nonnegative_on([0, 0], F(0), F(1))
        assert not nonnegative_on([-1], F(0), F(1))
        assert nonnegative_on([0, 1], F(0), F(1))
        assert not nonnegative_on([0, 1], F(-1, 2), F(1))
        assert nonnegative_on([0, 0, 1], F(-1), F(1))
        assert not nonnegative_on([1, -2], F(0), F(1))

    def test_one_count_decides_at_scale(self):
        # sum c_l (2x - 1)**l with 256-bit c_l > 0 is positive on [1/2, 1] and has degree 63: Sturm sequences
        # took seconds on it, and one count of sign variations, 0 here, decides it
        rng = random.Random(16)
        f = [0] * 64
        for l in range(64):
            c = rng.getrandbits(256) | 2**255
            for i in range(l + 1):
                f[i] += c * math.comb(l, i) * 2**i * (-1) ** (l - i)
        t0 = time.perf_counter()
        assert nonnegative_on(f, F(1, 2), F(1))
        assert not nonnegative_on([-c for c in f], F(1, 2), F(1))
        assert time.perf_counter() - t0 < 0.5

    def test_dense_cdf_validates_in_milliseconds(self):
        # CI's dense degree-64 cdf: seeded 58-bit weights over their sum
        rng = random.Random(1)
        w = [rng.getrandbits(58) for _ in range(64)]
        dist = PiecewisePolyCdf((F(0), F(1)), [[F(0)] + [F(x, sum(w)) for x in w]])
        t0 = time.perf_counter()
        assert dist.validate().ok
        assert time.perf_counter() - t0 < 0.05

    @pytest.mark.parametrize("k", range(1, 64))
    def test_chebyshev(self, k):
        # min T_k = -1 on [0, 1], so 1 + r T_k(2x - 1) >= 0 there iff r <= 1; at r = 1 it touches 0
        t = shifted_chebyshev(k)
        for r in (F(99, 100), F(1), F(101, 100)):
            f = [r.numerator * c for c in t]
            f[0] += r.denominator
            assert nonnegative_on(f, F(0), F(1)) == reference_nonnegative(f, F(0), F(1)) == (r <= 1)

    @pytest.mark.parametrize("r", [F(1), F(101, 100)])
    def test_chebyshev_cdf(self, r):
        # the degree-64 cdf whose density is proportional to 1 + r T_63(2x - 1)
        density = [r * c for c in shifted_chebyshev(63)]
        density[0] += 1
        row = [F(0)] + [F(c, l + 1) for l, c in enumerate(density)]
        total = sum(row)
        dist = PiecewisePolyCdf((0, 1), (tuple(c / total for c in row),))
        assert dist.degree == 64
        assert dist.validate() == reference_validate(dist)
        assert dist.validate().ok == (r <= 1)
