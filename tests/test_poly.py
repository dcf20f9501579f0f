"""Exact arithmetic on integer rows, checked against plain Fraction arithmetic.

Each reference below is the Fraction code the integer path replaced: Horner's
rule with `poly_eval`, the exact `bisect_left` piece rule, a naive Fraction
convolution, and the sampled `validate` check.
"""

import bisect
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fpaeq as fq
from fpaeq import DomainError, PiecewisePoly, PiecewisePolyCdf, RationalBidFunction
from fpaeq.cdf import GRID_FACTOR, ValidationReport
from fpaeq.explicit import eval_canonical, power_coefficients
from fpaeq.poly import int_row, poly_eval, poly_mul

BIG = 2**64
FIXTURES = "uniform square two_piece shifted_support adversarial".split()

coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5).map(F),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=BIG),
)
rows = st.lists(coefficients, min_size=0, max_size=8).map(tuple)
unit = st.fractions(min_value=0, max_value=1, max_denominator=BIG)


@st.composite
def sorted_breakpoints(draw, pieces):
    """pieces + 1 nondecreasing points in [0, 1]; some differ by less than a float can tell apart."""
    points = draw(st.lists(unit, min_size=pieces + 1, max_size=pieces + 1))
    near = draw(st.lists(st.booleans(), min_size=pieces + 1, max_size=pieces + 1))
    points = [min(p + F(1, 2**80), F(1)) if tie else p for p, tie in zip(points, near)]
    return tuple(sorted(points))


@st.composite
def piecewise(draw):
    pieces = draw(st.integers(1, 5))
    return PiecewisePoly(draw(sorted_breakpoints(pieces)), tuple(draw(rows) for _ in range(pieces)))


def reference_piece(pp: PiecewisePoly, x) -> int:
    """The piece rule on exact Fractions: bisect_left - 1, clipped to the pieces."""
    return min(max(bisect.bisect_left(pp.breakpoints, x) - 1, 0), pp.pieces - 1)


def reference_bid(rbf: RationalBidFunction, x) -> F:
    """eval_canonical in Fraction arithmetic."""
    j = reference_piece(rbf.denominator, x)
    if x <= rbf.support_infimum:
        return x
    den = poly_eval(rbf.denominator.rows[j], x)
    if den == 0:
        return x
    return poly_eval(rbf.numerator.rows[j], x) / den


def naive_mul(a, b) -> list:
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def reference_validate(dist: PiecewisePolyCdf) -> ValidationReport:
    """validate() in Fraction arithmetic: the same checks, messages and sample points."""
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
    npts = GRID_FACTOR * (dist.degree + 1)
    for j, row in enumerate(dist.rows):
        lo, hi = bps[j], bps[j + 1]
        step = (hi - lo) / npts
        prev = None
        range_bad = monotone_bad = False
        for i in range(npts + 1):
            y = poly_eval(row, lo + i * step)
            if not range_bad and not 0 <= y <= 1:
                bad.append(f"piece {j}: value {y} at x={lo + i * step} outside [0, 1]")
                range_bad = True
            if not monotone_bad and prev is not None and y < prev:
                bad.append(f"piece {j}: decreasing near x={lo + i * step}")
                monotone_bad = True
            if range_bad and monotone_bad:
                break
            prev = y
    return ValidationReport(tuple(bad))


def normalised(r) -> bool:
    return type(r) is F and r.denominator > 0 and math.gcd(r.numerator, r.denominator) == 1


class TestIntRow:
    @given(rows)
    def test_one_denominator(self, row):
        nums, scale = int_row(row)
        assert scale == math.lcm(*(c.denominator for c in row))
        assert [F(c, scale) for c in nums] == (list(row) or [0])


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

    def test_repeated_breakpoints(self):
        # a jump-point strategy can repeat a jump point; the value there takes the first piece
        pp = PiecewisePoly((F(0), F(1, 2), F(1, 2), F(1)), ((F(0),), (F(1),), (F(2),)))
        assert [pp(x) for x in (F(1, 2), F(1, 2) + F(1, 2**70))] == [0, 2]


class TestEvalCanonical:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        sorted_breakpoints(k), *[st.lists(rows, min_size=k, max_size=k)] * 2)),
        unit, st.lists(unit, min_size=1, max_size=6))
    def test_random_rows_match_fraction_division(self, parts, v_low, xs):
        bps, numer, denom = parts
        rbf = RationalBidFunction(PiecewisePoly(bps, numer), PiecewisePoly(bps, denom), v_low, 2)
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
        for x in [*xs, *rbf.denominator.breakpoints, *map(F, (0.1, 0.3, 0.7))]:
            bid = eval_canonical(rbf, x)
            assert bid == reference_bid(rbf, x)
            assert normalised(bid)

    def test_identity_piece_and_below_support(self, shifted_support):
        rbf = fq.canonical_bid_function(shifted_support, 3)
        for x in (F(0), F(1, 8), F(1, 4)):
            assert eval_canonical(rbf, x) == x
        # support infimum moved to 0: the identity piece's zero denominator row gives the identity
        moved = RationalBidFunction(rbf.numerator, rbf.denominator, F(0), 3)
        assert eval_canonical(moved, F(1, 8)) == F(1, 8)
        assert eval_canonical(moved, F(1, 2)) == eval_canonical(rbf, F(1, 2)) == reference_bid(rbf, F(1, 2))

    def test_removable_singularity_at_support_infimum(self, square):
        rbf = fq.canonical_bid_function(square, 4)
        assert eval_canonical(rbf, F(0)) == 0
        # below the infimum the denominator row F^3 still vanishes at 0: the zero-denominator rule holds
        lowered = RationalBidFunction(rbf.numerator, rbf.denominator, F(-1), 4)
        assert eval_canonical(lowered, F(0)) == 0
        assert eval_canonical(lowered, F(1, 3)) == F(6, 7) * F(1, 3)


class TestProducts:
    @settings(max_examples=150, deadline=None)
    @given(rows, rows)
    def test_poly_mul_matches_naive_convolution(self, a, b):
        product = poly_mul(a, b)
        assert product == naive_mul(a, b)
        assert all(normalised(c) for c in product)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    @pytest.mark.parametrize("name", ["two_piece", "adversarial", "seeded"])
    def test_power_coefficients_match_repeated_multiplication(self, request, name, n):
        if name == "seeded":
            dist = PiecewisePolyCdf((F(0), F(1)), ((F(0), F(3, 8), F(-7, 2**40), F(5, 8) + F(7, 2**40)),))
        else:
            dist = request.getfixturevalue(name)
        table = power_coefficients(dist, n)
        for row, power in zip(dist.rows, table.final):
            expected = [F(1)]
            for _ in range(n - 1):
                expected = naive_mul(expected, row)
            assert list(power) == expected


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
