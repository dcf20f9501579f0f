import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fpaeq as fq
from fpaeq import DomainError, PiecewisePoly, PiecewisePolyCdf
from fpaeq.cdf import MAX_DEGREE, float_view
from fpaeq.poly import nonnegative_on, poly_derivative

from conftest import poly_eval

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
        out.append((dist, dist, lambda x, d=dist: poly_eval(d.rows[left_piece(d, x)], x)))
    for name, n in (("two_piece", 3), ("shifted_support", 2), ("adversarial", 2)):
        rbf = fq.canonical_bid_function(request.getfixturevalue(name), n)

        def by_hand(x, rbf=rbf):
            j = left_piece(rbf.denominator, x)
            den = poly_eval(rbf.denominator.rows[j], x)
            if x <= rbf.support_infimum or den == 0:
                return x
            return poly_eval(rbf.numerator.rows[j], x) / den

        out.append((rbf.denominator, rbf, by_hand))
    return out


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
        assert poly_eval(two_piece.rows[0], v) == poly_eval(two_piece.rows[1], v)
        assert two_piece(v) == F(1, 4)

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError):
            uniform(F(3, 2))
        with pytest.raises(DomainError):
            uniform(F(-1, 2))

    def test_every_point_uses_its_left_piece(self, request):
        for pp, evaluate, by_hand in piecewise_inputs(request):
            for x in points(pp):
                assert pp.piece_index(x) == left_piece(pp, x)
                assert evaluate(x) == by_hand(x)

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
        oracle = fq.CdfOracle(lambda x: square(x), 2)  # an evaluator with no float view of its own
        fv = float_view(oracle)
        y = fv(0.5)
        assert y == 0.25 and isinstance(y, float)
        assert oracle.query_count == 1
        assert fv(np.array([[0.5, 1.0]])).tolist() == [[0.25, 1.0]]
        assert oracle.query_count == 3

    def test_oracle_float_path_counts_each_point(self, two_piece):
        oracle = fq.oracle_from_piecewise(two_piece)
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
            for row in dist.rows])
        calls = []
        monkeypatch.setattr(fq.poly, "int_row", lambda row: calls.append(row))
        t = fq.strongly_increasing_transform(dist, delta)
        assert not calls
        assert t == ref and hash(t) == hash(ref) and t.rows == ref.rows
        assert all(math.gcd(scale, *nums) == 1 for nums, scale in t.int_rows)

    def test_oracle_transform_counts_queries(self, square):
        oracle = fq.oracle_from_piecewise(square)
        t = fq.strongly_increasing_transform(oracle, F(1, 4))
        t(F(1, 2))
        t(F(3, 4))
        assert t.query_count == 2
        assert oracle.query_count == 2  # the transformed oracle queries the given one

    @pytest.mark.parametrize("float_path", [True, False])
    def test_oracle_transform_float_view(self, square, float_path):
        # the mix runs in floats over the given oracle's float view, or over its exact values
        oracle = fq.oracle_from_piecewise(square) if float_path else fq.CdfOracle(lambda x: square(x), 2)
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
        oracle = fq.oracle_from_piecewise(uniform)
        assert oracle.query_count == 0

    def test_count_increments(self, uniform):
        oracle = fq.oracle_from_piecewise(uniform)
        for i in range(5):
            oracle(F(i, 5))
        assert oracle.query_count == 5
        fresh = fq.oracle_from_piecewise(uniform)  # counts are per oracle: a new one starts at 0
        fresh(F(1, 2))
        assert (fresh.query_count, oracle.query_count) == (1, 5)

    def test_wrap_callable(self):
        oracle = fq.CdfOracle(lambda x: float(x) ** 2, 2.0)
        assert oracle(0.5) == 0.25
        assert oracle.query_count == 1

    def test_builtin_endpoints(self, uniform, square, two_piece, adversarial):
        for dist in (uniform, square, two_piece, adversarial):
            oracle = fq.oracle_from_piecewise(dist)
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
        L = dist.lipschitz_bound()
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
        again = fq.cdf_from_json(two_piece.to_json())
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
            assert fq.cdf_from_json(row_json(*row)).rows[0] == row
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
    """Both constructors of a cdf, from rational rows and from integer rows, pass through one padding step."""

    @pytest.mark.parametrize("build", ["rational", "integer"])
    def test_mixed_degrees_padded(self, build):
        # x^2 on [0, 1/2], then (3x - 1)/2: rows of lengths 3 and 2
        bps, rows = (F(0), F(1, 2), F(1)), ((F(0), F(0), F(1)), (F(-1, 2), F(3, 2)))
        if build == "rational":
            dist = PiecewisePolyCdf(bps, rows)
        else:
            dist = PiecewisePolyCdf.from_int_rows(bps, [((0, 0, 1), 1), ((-1, 3), 2)])
        assert dist.int_rows == (((0, 0, 1), 1), ((-1, 3, 0), 2))
        assert dist.rows == ((0, 0, 1), (F(-1, 2), F(3, 2), 0))
        assert dist == PiecewisePolyCdf(bps, rows) and hash(dist) == hash(PiecewisePolyCdf(bps, rows))
        assert fq.power_coefficients(dist, 3) == (([0, 0, 0, 0, 1], 1), ([1, -6, 9, 0, 0], 4))

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
