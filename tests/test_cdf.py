import math
import random
from decimal import Decimal
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpaeq as fq
from fpaeq import DomainError, PiecewisePoly, PiecewisePolyCdf
from fpaeq.cdf import MAX_DEGREE, float_view
from fpaeq.poly import int_row, nonnegative_on, poly_derivative
from fpaeq.rationals import shown

from conftest import lipschitz_bound, piecewise_json, poly_eval, row_fractions

FIXTURES = "uniform square two_piece shifted_support adversarial".split()


def points(pp: PiecewisePoly) -> list:
    """x = i/128 and every breakpoint."""
    return sorted({F(i, 128) for i in range(129)} | set(pp.breakpoints))


def left_piece(pp: PiecewisePoly, x) -> int:
    """The piece [v_j, v_{j+1}] holding x, the left one on a shared breakpoint."""
    return next(j for j in range(pp.pieces) if x <= pp.breakpoints[j + 1])


def piecewise_inputs(request) -> list:
    """Every fixture cdf, plus rational bid functions, each with its exact evaluation by hand."""
    out = []
    for name in FIXTURES:
        dist = request.getfixturevalue(name)
        out.append((dist, dist, lambda x, d=dist: poly_eval(row_fractions(d.int_rows[left_piece(d, x)]), x)))
    for name, n in (("two_piece", 3), ("shifted_support", 2), ("adversarial", 2)):
        rbf = fq.canonical_bid_function(request.getfixturevalue(name), n)

        def by_hand(x, rbf=rbf):
            j = left_piece(rbf.cdf, x)
            fx = poly_eval(row_fractions(rbf.cdf.int_rows[j]), x)
            if fx == 0:
                return x
            nums, scale = rbf.integral_rows[j]
            return x - poly_eval([F(c, scale) for c in nums], x) / fx ** (rbf.n - 1)

        out.append((rbf.cdf, rbf, by_hand))
    return out


# jump points with pooled points, off the floats (1/10, 5/7) or with s_0 > 0, and the bids of each
JUMP_POINT_CASES = [
    (("0", "1/10", "1/10", "5/7", "1"), ("0", "1/5", "5/16", "1/2")),
    (("1/3", "1/3", "2/3", "1"), ("0", "1/4", "1/2")),
    (("1/5", "1/2", "1", "1"), ("0", "1/8", "3/8")),
]


def step_by_hand(s, bids, x):
    """b_j on (s_{j-1}, s_j], and b_1 at and below s_0."""
    return bids[0] if x <= s[0] else next(b for lo, hi, b in zip(s, s[1:], bids) if lo < x <= hi)


class TestEvalCdf:
    def test_uniform_identity(self, uniform):
        assert uniform(F(1, 3)) == F(1, 3)

    def test_zero_at_origin(self, uniform, square, two_piece, shifted_support, adversarial):
        for dist in (uniform, square, two_piece, shifted_support, adversarial):
            assert dist(F(0)) == 0

    def test_second_piece_by_hand(self):
        # x^2 then x - 1/4: F(3/4) falls in the linear piece
        dist = PiecewisePolyCdf((F(0), F(1, 2), F(1)), ((F(0), F(0), F(1)), (F(-1, 4), F(1))))
        assert dist(F(3, 4)) == F(1, 2)

    def test_shared_breakpoint_agrees(self, two_piece):
        v = two_piece.breakpoints[1]
        assert poly_eval(row_fractions(two_piece.int_rows[0]), v) == poly_eval(row_fractions(two_piece.int_rows[1]), v)
        assert two_piece(v) == F(1, 4)

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError):
            uniform(F(3, 2))
        with pytest.raises(DomainError):
            uniform(F(-1, 2))

    def test_every_point_uses_its_left_piece(self, request):
        for pp, evaluate, by_hand in piecewise_inputs(request):
            for x in points(pp):
                assert pp.piece_of(*x.as_integer_ratio()) == left_piece(pp, x)
                assert evaluate(x) == by_hand(x)
        # a jump-point strategy, exactly and in both float views, at i/128, every jump point and its
        # 2**-80 neighbours; a float takes the bid of its own exact value
        for s, bids in JUMP_POINT_CASES:
            s, bids = tuple(map(F, s)), tuple(map(F, bids))
            strategy, delta = fq.JumpPointStrategy(fq.BidGrid(bids), s, ()), F(1, 2**80)
            xs = points(strategy) + [x for b in s for x in (b - delta, b + delta) if 0 <= x <= 1]
            fv = float_view(strategy)
            vector = fv(np.array([float(x) for x in xs]))
            for x, y in zip(xs, vector):
                assert strategy(x) == step_by_hand(s, bids, x)
                want = float(step_by_hand(s, bids, F(float(x))))
                assert fv(float(x)) == want and y == want, x

    def test_breakpoint_takes_left_piece_of_a_jump(self):
        step = PiecewisePoly((F(0), F(1, 2), F(1)), ((F(0),), (F(1),)))
        assert step(F(1, 2)) == 0
        assert step(F(1, 2) + F(1, 10**9)) == 1
        assert float_view(step)(0.5) == 0.0
        assert float_view(step)(np.array([0.5]))[0] == 0.0


class TestFloatView:
    def test_matches_exact_on_every_piece(self, request):
        for name in FIXTURES:
            pp = request.getfixturevalue(name)
            fv = float_view(pp)
            xs = points(pp)
            vector = fv(np.array([float(x) for x in xs]))
            for x, y in zip(xs, vector):
                scalar = fv(float(x))
                assert isinstance(scalar, float)
                assert np.float64(scalar).tobytes() == y.tobytes()  # bit for bit
                assert abs(scalar - float(pp(x))) <= 1e-15

    def test_array_shape_kept(self, two_piece):
        fv = float_view(two_piece)
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        out = fv(grid)
        assert out.shape == (3, 4)
        assert [fv(float(x)) for x in grid.ravel()] == out.ravel().tolist()

    def test_domain_error(self, square):
        # a cdf and a rational bid function refuse a scalar, an array element and a NaN outside [0, 1]
        for fv in (float_view(square), float_view(fq.canonical_bid_function(square, 2))):
            for x in (1.5, np.array([0.5, -0.25]), float("nan"), np.array([[0.5], [np.nan]])):
                with pytest.raises(DomainError):
                    fv(x)

    def test_oracle_evaluated_at_exact_value(self, square):
        oracle = fq.CdfOracle(lambda x: square(x))  # an evaluator with no float view of its own
        fv = float_view(oracle)
        y = fv(0.5)
        assert y == 0.25 and isinstance(y, float)
        assert oracle.query_count == 1
        assert fv(np.array([[0.5, 1.0]])).tolist() == [[0.25, 1.0]]
        assert oracle.query_count == 3

    def test_oracle_float_path_counts_each_point(self, two_piece):
        oracle = fq.CdfOracle(two_piece)
        fv, direct = float_view(oracle), two_piece.float_evaluator()
        xs = np.array([[0.0, 0.3], [0.5, 0.9]])
        assert fv(0.3) == direct(0.3)
        assert oracle.query_count == 1
        assert np.array_equal(fv(xs), direct(xs))
        assert oracle.query_count == 5  # one query per array element


class TestValidate:
    def test_uniform_ok(self, uniform):
        assert uniform.validate().ok

    def test_fixtures_ok(self, square, two_piece, shifted_support, adversarial):
        for dist in (square, two_piece, shifted_support, adversarial):
            assert dist.validate().ok, dist.validate().violations

    def test_continuity_violation(self):
        # F_1(1/2) = 1/2 but F_2(1/2) = 1/3
        dist = PiecewisePolyCdf((F(0), F(1, 2), F(1)), ((F(0), F(1)), (F(-1, 6), F(1))))
        report = dist.validate()
        assert not report.ok
        assert any("discontinuity at breakpoint 1" in v for v in report.violations)

    def test_decreasing_piece(self):
        dist = PiecewisePolyCdf((F(0), F(1)), ((F(0), F(-1)),))
        report = dist.validate()
        assert any("decreasing" in v for v in report.violations)

    def test_exact_monotone_mode(self, two_piece):
        assert two_piece.validate().ok
        wavy = PiecewisePolyCdf((F(0), F(1)), ((F(0), F(3), F(-3), F(1)),))
        # 3x - 3x^2 + x^3 is monotone (derivative 3(x-1)^2 >= 0)
        assert wavy.validate().ok

    def test_narrow_dip(self):
        # (x - a)^3 + a^3 - eta x, normalised, decreases only on a window about 1e-3 wide around a
        a, eta = F(1, 3) + F(1, 997), F(1, 10**6)
        row = (F(0), 3 * a**2 - eta, -3 * a, F(1))
        dist = PiecewisePolyCdf((F(0), F(1)), (tuple(c / sum(row) for c in row),))
        assert dist.validate().violations == ("piece 0: decreasing somewhere in [0, 1]",)
        # the same cubic is nondecreasing on a piece that stops short of the window
        assert nonnegative_on(poly_derivative(dist.int_rows[0][0]), F(0), F(1, 3))


class TestSupportInfimum:
    def test_uniform(self, uniform):
        assert uniform.support_infimum() == 0

    def test_shifted(self, shifted_support):
        assert shifted_support.support_infimum() == F(1, 4)

    def test_square_touches_zero_only_at_origin(self, square):
        assert square.support_infimum() == 0


class TestStronglyIncreasingTransform:
    def test_fixed_point_of_identity(self, uniform):
        t = fq.strongly_increasing_transform(uniform, F(1, 10))
        assert t(F(1, 2)) == F(1, 2)

    def test_endpoint_preserved(self, square):
        t = fq.strongly_increasing_transform(square, F(1, 2))
        assert t(F(1)) == 1

    def test_formula_by_hand(self, square):
        t = fq.strongly_increasing_transform(square, F(1, 2))
        assert t(F(1, 2)) == F(3, 8)

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError):
            fq.strongly_increasing_transform(uniform, F(3, 2))

    @given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=F(1, 100), max_value=F(99, 100)))
    def test_exact_affine_mix(self, x, delta):
        square = fq.power_cdf(2)
        t = fq.strongly_increasing_transform(square, delta)
        assert t(x) == delta * x + (1 - delta) * square(x)

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("delta", [F(1, 10), F(7, 9), F(1, 2**65 + 1)])
    def test_mix_on_integer_rows(self, request, monkeypatch, name, delta):
        # the mix runs on the integer rows: no row goes through int_row, and the result is the Fraction mix
        dist = request.getfixturevalue(name)
        ref = PiecewisePolyCdf(dist.breakpoints, [
            [(1 - delta) * c + (delta if l == 1 else 0) for l, c in enumerate(row + (F(0),) * (2 - len(row)))]
            for row in (tuple(row_fractions(r)) for r in dist.int_rows)])
        calls = []
        monkeypatch.setattr(fq.poly, "int_row", lambda row: calls.append(row))
        t = fq.strongly_increasing_transform(dist, delta)
        assert not calls
        assert t == ref and hash(t) == hash(ref) and t.int_rows == ref.int_rows
        assert all(math.gcd(scale, *nums) == 1 for nums, scale in t.int_rows)

    def test_oracle_transform_counts_queries(self, square):
        oracle = fq.CdfOracle(square)
        t = fq.strongly_increasing_transform(oracle, F(1, 4))
        t(F(1, 2))
        t(F(3, 4))
        assert t.query_count == 2
        assert oracle.query_count == 2  # the transformed oracle queries the given one

    @given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
           st.booleans())
    def test_oracle_mix_values(self, x, delta, opaque):
        # the mix of an exact oracle's answer is the Fraction formula, at one query on each oracle
        square = fq.power_cdf(2)
        oracle = fq.CdfOracle((lambda y: square(y)) if opaque else square)
        t = fq.strongly_increasing_transform(oracle, delta)
        value = t(x)
        assert value == delta * x + (1 - delta) * square(x)
        assert t.ratio(x.numerator, x.denominator) == (value.numerator, value.denominator)
        assert t.query_count == oracle.query_count == 2

    @given(st.fractions(min_value=0, max_value=1))
    def test_oracle_mix_of_a_float_answer(self, x):
        # a float answer, or a float delta, mixes in the arithmetic of its operands
        t = fq.strongly_increasing_transform(fq.CdfOracle(lambda y: float(y) ** 2), F(1, 3))
        assert t(x) == F(1, 3) * x + F(2, 3) * (float(x) ** 2)
        square = fq.power_cdf(2)
        t = fq.strongly_increasing_transform(fq.CdfOracle(square), 0.25)
        assert t(x) == 0.25 * x + 0.75 * square(x)

    @pytest.mark.parametrize("float_path", [True, False])
    def test_oracle_transform_float_view(self, square, float_path):
        # the mix runs in floats over the given oracle's float view, or over its exact values
        oracle = fq.CdfOracle(square) if float_path else fq.CdfOracle(lambda x: square(x))
        delta = F(1, 3)
        t = fq.strongly_increasing_transform(oracle, delta)
        xs = np.array([0.0, 0.25, 0.7, 1.0])
        got = float_view(t)(xs)
        assert t.query_count == oracle.query_count == 4
        want = [float(delta * F(x) + (1 - delta) * square(F(x))) for x in xs.tolist()]
        assert np.allclose(got, want, rtol=4 * 2.0**-52, atol=0)
        assert float_view(t)(0.7) == got[2]
        assert t.query_count == oracle.query_count == 5


class TestAdversarialCdf:
    def test_matches_identity_outside_gap(self, adversarial):
        assert adversarial(F(1, 2)) == F(1, 2)
        assert adversarial(F(7, 8)) == F(7, 8)

    def test_kink_value(self, adversarial):
        # F(v2 - kink) = v1 + kink
        assert adversarial(F(27, 32)) == F(25, 32)

    def test_valid_and_strictly_increasing(self, adversarial):
        assert adversarial.validate().ok
        xs = [F(i, 400) for i in range(401)]
        ys = [adversarial(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_param_invariants(self):
        with pytest.raises(DomainError):
            fq.make_adversarial_cdf(F(1, 2), F(1, 8), F(1, 32))  # v1 < 2/3
        with pytest.raises(DomainError):
            fq.make_adversarial_cdf(F(3, 4), F(1, 8), F(1, 4))  # kink >= gap
        with pytest.raises(DomainError):
            fq.make_adversarial_cdf(F(15, 16), F(1, 8), F(1, 32))  # v1 + gap > 1


class TestCdfOracle:
    def test_fresh_count_zero(self, uniform):
        oracle = fq.CdfOracle(uniform)
        assert oracle.query_count == 0

    def test_count_increments(self, uniform):
        oracle = fq.CdfOracle(uniform)
        for i in range(5):
            oracle(F(i, 5))
        assert oracle.query_count == 5
        fresh = fq.CdfOracle(uniform)  # counts are per oracle: a new one starts at 0
        fresh(F(1, 2))
        assert (fresh.query_count, oracle.query_count) == (1, 5)

    def test_wrap_callable(self):
        oracle = fq.CdfOracle(lambda x: float(x) ** 2)
        assert oracle(0.5) == 0.25
        assert oracle.query_count == 1

    def test_builtin_endpoints(self, uniform, square, two_piece, adversarial):
        for dist in (uniform, square, two_piece, adversarial):
            oracle = fq.CdfOracle(dist)
            assert oracle(F(0)) >= 0
            assert abs(oracle(F(1)) - 1) <= F(1, 2**40)


class TestSampledProperties:
    DISTS = "uniform square two_piece shifted_support adversarial".split()

    @pytest.mark.parametrize("name", DISTS)
    def test_monotone_on_grid(self, name, request):
        dist = request.getfixturevalue(name)
        rng = random.Random(7)
        xs = sorted(F(rng.randrange(10**4), 10**4) for _ in range(500))
        ys = [dist(x) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert dist(F(0)) == 0 and dist(F(1)) == 1

    @pytest.mark.parametrize("name", DISTS)
    def test_lipschitz_audit(self, name, request):
        dist = request.getfixturevalue(name)
        L = lipschitz_bound(dist)
        rng = random.Random(13)
        for _ in range(500):
            x = F(rng.randrange(10**6), 10**6)
            y = F(rng.randrange(10**6), 10**6)
            assert abs(dist(x) - dist(y)) <= L * abs(x - y)


class TestJson:
    def test_builtins(self):
        assert fq.cdf_from_json({"kind": "uniform"})(F(1, 3)) == F(1, 3)
        assert fq.cdf_from_json({"kind": "power", "exponent": "2"})(F(1, 2)) == F(1, 4)
        adv = fq.cdf_from_json({"kind": "adversarial", "v1": "3/4", "gap": "1/8", "kink": "1/32"})
        assert adv(F(27, 32)) == F(25, 32)

    def test_piecewise_roundtrip(self, two_piece):
        again = fq.cdf_from_json(piecewise_json(two_piece))
        assert again == two_piece

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            fq.cdf_from_json({"kind": "nope"})
        with pytest.raises(DomainError):
            fq.cdf_from_json({"kind": "power"})
        with pytest.raises(DomainError):
            fq.cdf_from_json([1, 2])

    @pytest.mark.parametrize("exponent", ["5/2", "0", "-1", str(MAX_DEGREE + 1), "100000"])
    def test_power_exponent_limits(self, exponent):
        with pytest.raises(DomainError):
            fq.cdf_from_json({"kind": "power", "exponent": exponent})

    def test_coefficient_bits_limit(self):
        limit = fq.cdf.MAX_ROW_BITS

        def row_json(*row):
            return {"kind": "piecewise_poly", "breakpoints": ["0", "1"], "coeffs": [[str(c) for c in row]]}

        at_limit = [(0, 2**limit - 1), (0, F(1, 2**(limit - 1)), F(2**(limit - 1) - 1, 2**(limit - 1)))]
        for row in at_limit:
            assert fq.cdf_from_json(row_json(*row)).int_rows[0] == int_row(row)
        # a numerator, or the common denominator of the row, one bit over
        for row in [(0, 2**limit), (0, F(1, 2**limit), F(2**limit - 1, 2**limit)), (F(1, 3), F(1, 2**(limit - 1)))]:
            with pytest.raises(DomainError, match="bits"):
                fq.cdf_from_json(row_json(*row))
        # cdfs the library builds are not bounded: the mix below has a 66-bit denominator
        mixed = fq.strongly_increasing_transform(fq.power_cdf(2), F(1, 2**65 + 1))
        assert mixed.int_rows[0][1].bit_length() > limit and mixed.validate().ok

    def test_degree_limit(self):
        assert fq.cdf_from_json({"kind": "power", "exponent": str(MAX_DEGREE)}).degree == MAX_DEGREE
        row = ["0"] * (MAX_DEGREE + 1) + ["1"]
        with pytest.raises(DomainError):
            fq.cdf_from_json({"kind": "piecewise_poly", "breakpoints": ["0", "1"], "coeffs": [row]})


class TestConstructors:
    """Both constructors of a cdf, from rational rows and from integer rows, store each row at its true degree."""

    @pytest.mark.parametrize("build", ["rational", "integer"])
    def test_rows_at_true_degree(self, build):
        # x^2 on [0, 1/2], then (3x - 1)/2: rows of lengths 3 and 2, and no padding to one length
        bps, rows = (F(0), F(1, 2), F(1)), ((F(0), F(0), F(1)), (F(-1, 2), F(3, 2)))
        if build == "rational":
            dist = PiecewisePolyCdf(bps, rows)
        else:
            dist = PiecewisePolyCdf.from_int_rows(bps, [((0, 0, 1), 1), ((-1, 3), 2)])
        assert dist.int_rows == (((0, 0, 1), 1), ((-1, 3), 2))
        assert dist == PiecewisePolyCdf(bps, rows) and hash(dist) == hash(PiecewisePolyCdf(bps, rows))
        assert fq.power_coefficients(dist, 3) == (([0, 0, 0, 0, 1], 1), ([1, -6, 9], 4))

    def test_trailing_zeros_dropped(self):
        # the same cdf with zero top coefficients, from rational rows, integer rows and JSON: one stored form
        bps = (F(0), F(1, 2), F(1))
        plain = PiecewisePolyCdf(bps, ((F(0), F(0), F(1)), (F(-1, 2), F(3, 2))))
        padded = [
            PiecewisePolyCdf(bps, ((F(0), F(0), F(1), F(0)), (F(-1, 2), F(3, 2), F(0), F(0)))),
            PiecewisePolyCdf.from_int_rows(bps, [((0, 0, 1, 0), 1), ((-1, 3, 0, 0), 2)]),
            PiecewisePolyCdf.from_int_rows(bps, [((0, 0, 6, 0), 6), ((-3, 9, 0), 6)]),
            fq.cdf_from_json({"kind": "piecewise_poly", "breakpoints": ["0", "1/2", "1"],
                              "coeffs": [["0", "0", "1", "0"], ["-1/2", "3/2", "0/7", "0"]]}),
        ]
        for dist in padded:
            assert dist.int_rows == (((0, 0, 1), 1), ((-1, 3), 2))
            assert dist == plain and hash(dist) == hash(plain)
            assert dist.degree == 2

    @pytest.mark.parametrize("build", ["rational", "integer"])
    def test_degree_limit_checked_first(self, build):
        # the breakpoints are neither rationals nor one more than the rows: the degree is reported first
        bps, nums = ("0", "not a rational", "1"), (0,) * (MAX_DEGREE + 1) + (1,)
        with pytest.raises(DomainError, match=f"degree {MAX_DEGREE + 1} exceeds"):
            if build == "rational":
                PiecewisePolyCdf(bps, (nums,))
            else:
                PiecewisePolyCdf.from_int_rows(bps, ((nums, 1),))
        at_limit = nums[1:]
        assert PiecewisePolyCdf((0, 1), (at_limit,)).degree == MAX_DEGREE
        assert PiecewisePolyCdf.from_int_rows((0, 1), ((at_limit, 1),)).degree == MAX_DEGREE

    @pytest.mark.parametrize("build", ["json", "integer"])
    def test_degree_limit_before_any_conversion(self, monkeypatch, build):
        # an over-long row of coefficients with distinct large denominators: its lcm would have thousands
        # of bits, and the row is refused before int_row, lcm or gcd touches it
        dens = [2**60 + 2 * i + 1 for i in range(MAX_DEGREE + 2)]
        calls = []
        spy = lambda name: lambda *args: calls.append(name)
        monkeypatch.setattr(fq.poly, "int_row", spy("int_row"))
        monkeypatch.setattr(fq.poly, "math", SimpleNamespace(gcd=spy("gcd"), lcm=spy("lcm")))
        with pytest.raises(DomainError, match=f"degree {MAX_DEGREE + 1} exceeds"):
            if build == "json":
                fq.cdf_from_json({"kind": "piecewise_poly", "breakpoints": ["0", "1"],
                                  "coeffs": [[f"1/{d}" for d in dens]]})
            else:
                PiecewisePolyCdf.from_int_rows((0, 1), ((tuple(dens), math.prod(dens)),))
        assert not calls


def reference_parse_rational(value) -> F:
    """parse_rational as it read every coefficient before the integer row reader, kept as the reference: the form
    "-?digits(/digits)?" by int(Decimal(...)) at any length, each error echoing the value as rationals.shown does."""
    if value.__class__ is str and value.isascii():
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return F(int(Decimal(num)))
            if den.isdigit() and int(Decimal(den)):
                return F(int(Decimal(num)), int(Decimal(den)))
    if isinstance(value, F):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {shown(value)} (booleans are not accepted)")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"not a rational: {shown(value)} (exponent notation is not accepted)")
        try:
            return F(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {shown(value)}") from exc
    if isinstance(value, float):
        raise ValueError(f"not a rational: {shown(value)} (floats are not accepted)")
    raise ValueError(f"not a rational: {shown(value)} (expected a \"p/q\" or integer string, or an integer)")


def reference_list(value, what: str, parse=reference_parse_rational) -> tuple:
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a JSON array of rationals, got {shown(value)}")
    return tuple(parse(x) for x in value)


def reference_row_entry(value) -> F:
    """reference_parse_rational of a coefficient, which may have at most 4300 characters, as a command-line
    rational may: a longer string is refused by its length."""
    if isinstance(value, str) and len(value) > 4300:
        raise DomainError(f"not a rational: {shown(value)} (more than 4300 characters in a cdf row)")
    return reference_parse_rational(value)


def reference_piecewise_poly(obj: dict) -> PiecewisePolyCdf:
    """cdf_from_json's piecewise_poly branch as it was, a Fraction per coefficient and int_row per row, with the
    length rule on each coefficient."""
    bps = reference_list(obj["breakpoints"], "breakpoints")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise DomainError(f"coeffs must be a JSON array of coefficient rows, got {coeffs!r}")
    dist = PiecewisePolyCdf(bps, tuple(reference_list(row, "a coefficient row", reference_row_entry) for row in coeffs))
    for j, (nums, scale) in enumerate(dist.int_rows):
        bits = max(scale.bit_length(), *(abs(c).bit_length() for c in nums))
        if bits > fq.cdf.MAX_ROW_BITS:
            raise DomainError(f"coefficient row {j} needs {bits}-bit integers over one denominator, "
                              f"above the limit of {fq.cdf.MAX_ROW_BITS} bits")
    return dist


def outcome(read, obj):
    """The breakpoints and integer rows read, or the type and text of the exception raised."""
    try:
        dist = read(obj)
    except Exception as exc:
        return type(exc), str(exc)
    return type(dist), dist.breakpoints, dist.int_rows


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=2**20)
READABLE = st.one_of(  # every value here is a rational
    SMALL.map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.tuples(SMALL, st.integers(2, 2**40)).map(lambda t: f"{t[0].numerator * t[1]}/{t[0].denominator * t[1]}"),
    st.integers(-2**70, 2**70),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["14/32", "-0/5", "0/5", " 3/4 ", "1_000", "0.25", ".5", "-7", "+1/2", "١/٢", "5" * 640,
                     "-" + "7" * 640, "9" * 700 + "/7", "1/2" + " " * 640, "1/" + "3" * 5000]),
)
UNREADABLE = st.one_of(
    st.sampled_from(["1e-3", "1E3", "1/0", "0/0", "1/-2", "-1/-2", "--1", "nan", "inf", "", "/", "3/", "1" * 641 + "/0",
                     " 1/" + "3" * 5000]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(alphabet="0123456789/-+_. e", max_size=8),
)
ROWS = st.one_of(
    st.lists(READABLE, max_size=5),
    st.lists(READABLE, max_size=5),
    st.lists(st.one_of(READABLE, READABLE, UNREADABLE), max_size=5),
    st.sampled_from(["0", 3, None, {"0": 1}, ["0"] * (MAX_DEGREE + 2), [f"1/{3 ** i}" for i in range(MAX_DEGREE + 2)],
                     [f"1/{2 ** 64}", "1"], [str(2 ** 64), "1"]]),
)


class TestIntegerRowReader:
    """cdf_from_json reads each piecewise_poly row straight into integers, with the rows and errors of the
    Fraction reader it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(ROWS, min_size=1, max_size=4), extra=st.sampled_from([0, 0, 0, 1, -1]))
    def test_same_as_the_fraction_reader(self, rows, extra):
        bps = [str(F(j, len(rows))) for j in range(len(rows) + 1 + extra)]
        obj = {"kind": "piecewise_poly", "breakpoints": bps, "coeffs": rows}
        assert outcome(fq.cdf_from_json, obj) == outcome(reference_piecewise_poly, obj)

    @pytest.mark.parametrize("row", [["14/32", "18/32"], ["-0/5", "1"], [" 3/4 ", "1/4"], ["1_000", "-999"],
                                     ["0.25", "3/4"], ["0", "1e-3"], ["1/0"], [0.5, 0.5], [True], [0, 1],
                                     ["1" * 641], ["0", "1/" + "3" * 700], "0, 1"])
    def test_named_values(self, row):
        obj = {"kind": "piecewise_poly", "breakpoints": ["0", "1"], "coeffs": [row]}
        assert outcome(fq.cdf_from_json, obj) == outcome(reference_piecewise_poly, obj)

    def test_row_too_long_takes_no_lcm(self, monkeypatch):
        # the degree limit is checked on the rows as read, before any row's lcm
        calls = []
        monkeypatch.setattr(fq.cdf, "math", SimpleNamespace(lcm=lambda *args: calls.append(args)))
        row = [f"1/{2**60 + 2 * i + 1}" for i in range(MAX_DEGREE + 2)]
        with pytest.raises(DomainError, match=f"degree {MAX_DEGREE + 1} exceeds"):
            fq.cdf_from_json({"kind": "piecewise_poly", "breakpoints": ["0", "1/2", "1"], "coeffs": [["0", "1"], row]})
        assert not calls
