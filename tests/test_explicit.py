import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

import fpaeq as fq
from fpaeq.cdf import float_view
from fpaeq.cli import main
from fpaeq.explicit import FLOAT_BID_REL_ERROR, bid_ratio_evaluator, canonical_ratio, eval_canonical
from fpaeq.poly import int_row
from fpaeq.rationals import format_rational

from conftest import piecewise_json, poly_eval, row_fractions
from test_blackbox import T, reference_bid


def seeded_cubic(seed: int, pieces: int) -> fq.PiecewisePolyCdf:
    """Continuous piecewise-cubic cdf near the identity, with a seeded shape.

    Piece j spans [a, b] = [j/p, (j+1)/p] and rises from its seeded end value
    F(a) to F(b) as F(a) + (F(b) - F(a)) * sum_k w_k t**k, t = (x - a)/(b - a),
    with seeded weights w_k in eighths that sum to 1.  In the monomial basis
    the rows of its bid function cancel heavily: floats alone misjudge them.
    """
    rng = random.Random(seed)
    bps = [F(j, pieces) for j in range(pieces + 1)]
    ys = [F(0)] + [F(8 * j + rng.randint(-2, 2), 8 * pieces) for j in range(1, pieces)] + [F(1)]
    rows = []
    for a, b, ya, yb in zip(bps, bps[1:], ys, ys[1:]):
        cut = sorted(rng.randint(0, 8) for _ in range(2))
        row = [ya, F(0), F(0), F(0)]
        for k, w in enumerate((cut[0], cut[1] - cut[0], 8 - cut[1]), start=1):
            scale = (yb - ya) * F(w, 8) / (b - a) ** k
            for i in range(k + 1):  # scale * (x - a)**k
                row[i] += scale * math.comb(k, i) * (-a) ** (k - i)
        rows.append(row)
    return fq.PiecewisePolyCdf(bps, rows)


class TestPowerCoefficients:
    def test_uniform_cubed(self, uniform):
        # (x)^3 for n = 4
        assert fq.power_coefficients(uniform, 4) == (([0, 0, 0, 1], 1),)

    def test_linear_piece_squared(self):
        # (1/4 + x/2)^2 = (1 + 2x)^2 / 16 = 1/16 + x/4 + x^2/4
        dist = fq.PiecewisePolyCdf((F(0), F(1)), ((F(1, 4), F(1, 2)),))
        (row,) = fq.power_coefficients(dist, 3)
        assert row == ([1, 4, 4], 16)
        assert row_fractions(row) == [F(1, 16), F(1, 4), F(1, 4)]

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.fractions(min_value=0, max_value=1),
        x=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=2, max_value=6),
    )
    def test_power_matches_pointwise(self, a, x, n):
        dist = fq.PiecewisePolyCdf((F(0), F(1)), ((F(0), a, 1 - a),))
        rows = fq.power_coefficients(dist, n)
        assert poly_eval(row_fractions(rows[0]), x) == dist(x) ** (n - 1)


class TestIntegralCoefficients:
    def test_uniform_square(self, uniform):
        (row,) = fq.integral_coefficients(fq.power_coefficients(uniform, 3), uniform)
        assert row_fractions(row) == [F(0), F(0), F(0), F(1, 3)]

    def test_continuity_across_pieces(self, two_piece):
        rows = [row_fractions(r) for r in fq.integral_coefficients(fq.power_coefficients(two_piece, 2), two_piece)]
        v = two_piece.breakpoints[1]
        assert poly_eval(rows[0], v) == poly_eval(rows[1], v)
        # integral of x^2 on [0, 1/2] is 1/24
        assert poly_eval(rows[0], F(1, 2)) == F(1, 24)

    @settings(max_examples=30, deadline=None)
    @given(x=st.fractions(min_value=0, max_value=1), n=st.integers(min_value=2, max_value=4))
    def test_matches_symbolic_integral(self, x, n):
        dist = fq.power_cdf(2)
        rows = fq.integral_coefficients(fq.power_coefficients(dist, n), dist)
        want = sympy.integrate((T**2) ** (n - 1), (T, 0, sympy.Rational(x)))
        assert poly_eval(row_fractions(rows[0]), x) == F(sympy.Rational(want).p, sympy.Rational(want).q)


def fraction_pipeline(dist, n) -> tuple:
    """canonical_bid_function's rows in Fraction arithmetic: (numerator rows, denominator rows).

    Each power is a repeated product of Fraction rows, each integral a termwise
    antiderivative whose constant matches the previous piece's value at the
    breakpoint, and each numerator x * power - integral; a piece whose power is
    zero is the identity row (0,).
    """
    numer, denom, prev = [], [], None
    for j, row in enumerate(dist.rows):
        power = [F(1)]
        for _ in range(n - 1):
            out = [F(0)] * (len(power) + len(row) - 1)
            for i, a in enumerate(power):
                for l, c in enumerate(row):
                    out[i + l] += a * c
            power = out
        integral = [F(0)] + [c / (l + 1) for l, c in enumerate(power)]
        if j > 0:
            v = dist.breakpoints[j]
            integral[0] = poly_eval(prev, v) - poly_eval(integral, v)
        prev = integral
        if all(c == 0 for c in power):
            numer.append((F(0),))
            denom.append((F(0),))
        else:
            numer.append((-integral[0],) + tuple(power[l - 1] - integral[l] for l in range(1, len(integral))))
            denom.append(tuple(power))
    return tuple(numer), tuple(denom)


class TestCanonicalBid:
    @pytest.mark.parametrize("name,n", [("cubic", 2), ("cubic", 16), ("cubic", 64), ("adversarial", 8),
                                        ("shifted_support", 8), ("two_piece", 3), ("power3", 16)])
    def test_rows_match_fraction_pipeline(self, request, name, n):
        # adversarial has identity pieces F(x) = x; shifted_support has an identity bid piece (zero
        # denominator); two_piece has pieces of degrees 2 and 1, each row at its own length
        dist = {"cubic": lambda: seeded_cubic(0, 8), "power3": lambda: fq.power_cdf(3)}.get(
            name, lambda: request.getfixturevalue(name))()
        rbf = fq.canonical_bid_function(dist, n)
        numer, denom = fraction_pipeline(dist, n)
        assert rbf.numerator.rows == numer
        assert rbf.denominator.rows == denom
        assert all(type(c) is F for rows in (rbf.numerator.rows, rbf.denominator.rows) for row in rows for c in row)

    @pytest.mark.parametrize("n", [2, 64])
    def test_rows_stay_integer(self, monkeypatch, n):
        # the bid function takes the integer rows as they are: no row goes through int_row again
        dist, calls = seeded_cubic(0, 8), []
        monkeypatch.setattr(fq.poly, "int_row", lambda row: calls.append(row) or int_row(row))
        rbf = fq.canonical_bid_function(dist, n)
        assert calls == []
        assert all(type(c) is int for poly in (rbf.numerator, rbf.denominator) for nums, _ in poly.int_rows
                   for c in nums)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_uniform_closed_form(self, uniform, n):
        rbf = fq.canonical_bid_function(uniform, n)
        for x in (F(0), F(1, 3), F(2, 3), F(1)):
            assert rbf(x) == F(n - 1, n) * x

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_power_closed_form(self, d):
        rbf = fq.canonical_bid_function(fq.power_cdf(d), 2)
        for x in (F(1, 5), F(1, 2), F(1)):
            assert rbf(x) == F(d, d + 1) * x

    def test_two_piece_by_hand(self, two_piece):
        rbf = fq.canonical_bid_function(two_piece, 2)
        # on the first piece: bid = (x^3 - x^3/3)/x^2 = 2x/3
        assert rbf(F(1, 4)) == F(1, 6)
        # bid(3/4): integral = 1/24 + int_{1/2}^{3/4} (3t/2 - 1/2) dt = 1/24 + 7/64
        exact = F(3, 4) - (F(1, 24) + F(7, 64)) / (F(3, 2) * F(3, 4) - F(1, 2))
        assert rbf(F(3, 4)) == exact

    def test_identity_below_support(self, shifted_support):
        rbf = fq.canonical_bid_function(shifted_support, 2)
        assert rbf.support_infimum == F(1, 4)
        assert rbf.denominator.rows[0] == (0,)  # the identity piece
        assert rbf(F(1, 8)) == F(1, 8)
        assert rbf(F(1, 4)) == F(1, 4)
        # continuous at the support infimum from the right
        gap = rbf(F(1, 4) + F(1, 10**6)) - F(1, 4)
        assert 0 <= gap < F(1, 10**5)

    def test_zero_piece_rows(self, shifted_support):
        # the zero cdf row is (0,), however long its input row, and x * D - I gives the identity piece's rows
        # with no branch of its own
        padded = fq.PiecewisePolyCdf.from_int_rows(shifted_support.breakpoints, [((0, 0, 0), 5), ((-1, 4), 3)])
        assert padded == shifted_support and shifted_support.int_rows[0] == ((0,), 1)
        rbf = fq.canonical_bid_function(shifted_support, 8)
        assert rbf.numerator.int_rows[0] == rbf.denominator.int_rows[0] == ((0,), 1)
        assert fq.rbf_to_json(rbf)["pieces"][0] == "identity"
        for x in (F(0), F(1, 8), F(1, 5), F(1, 4)):
            assert rbf(x) == x

    def test_rows_at_true_degree(self, two_piece):
        # at n = 64 the linear piece's bid rows have 63 + 1 and 63 + 2 coefficients, the quadratic piece's
        # 126 + 1 and 126 + 2: no row is padded to the widest
        rbf = fq.canonical_bid_function(two_piece, 64)
        assert [len(nums) for nums, _ in rbf.denominator.int_rows] == [127, 64]
        assert [len(nums) for nums, _ in rbf.numerator.int_rows] == [128, 65]
        numer, denom = fraction_pipeline(two_piece, 64)
        assert rbf.numerator.rows == numer and rbf.denominator.rows == denom

    def test_flat_piece_rows(self):
        # 2x on [0, 1/4], 1/2 on [1/4, 1/2], x on [1/2, 1]: on the flat piece x * D - I is a constant,
        # its x term cancelled
        dist = fq.PiecewisePolyCdf((F(0), F(1, 4), F(1, 2), F(1)), ((F(0), F(2)), (F(1, 2),), (F(0), F(1))))
        rbf = fq.canonical_bid_function(dist, 3)
        assert [len(nums) for nums, _ in rbf.numerator.int_rows] == [4, 1, 4]
        assert [len(nums) for nums, _ in rbf.denominator.int_rows] == [3, 1, 3]
        numer, denom = fraction_pipeline(dist, 3)
        for x in (F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(1)):
            j = rbf.denominator.piece_index(x)
            assert rbf(x) == poly_eval(numer[j], x) / poly_eval(denom[j], x)

    def test_domain_error(self, uniform):
        rbf = fq.canonical_bid_function(uniform, 2)
        with pytest.raises(fq.DomainError):
            rbf(F(3, 2))

    @pytest.mark.parametrize("name,expr,n", [
        ("two_piece", None, 2),
        ("two_piece", None, 3),
        ("adversarial", None, 2),
        ("square", T**2, 4),
    ])
    def test_matches_symbolic_reference(self, name, expr, n, request):
        dist = request.getfixturevalue(name)
        if expr is None:
            pieces = [
                (poly_eval([sympy.Rational(c) for c in row], T), T <= sympy.Rational(dist.breakpoints[j + 1]))
                for j, row in enumerate(dist.rows)
            ]
            pieces[-1] = (pieces[-1][0], True)
            expr = sympy.Piecewise(*pieces)
        rbf = fq.canonical_bid_function(dist, n)
        for x in (F(1, 3), F(7, 10), F(13, 16), F(1)):
            assert rbf(x) == reference_bid(expr, n, x)

    @settings(max_examples=40, deadline=None)
    @given(x=st.fractions(min_value=0, max_value=1), n=st.integers(min_value=2, max_value=5))
    def test_no_overbid(self, x, n):
        rbf = fq.canonical_bid_function(fq.power_cdf(3), n)
        assert 0 <= rbf(x) <= x


def ratio_case(kind: str, seed: int) -> fq.PiecewisePolyCdf:
    """A cdf of one of the kinds the bid evaluator must handle, shaped by the seed."""
    if kind == "cubic":
        return seeded_cubic(seed, 1 + seed % 8)
    if kind == "power":
        return fq.power_cdf(1 + seed % 8)
    if kind == "adversarial":  # v1 = odd/64 in [2/3, 31/32], gap 1/32, kink = odd/512 below the gap
        return fq.make_adversarial_cdf(F(43 + 2 * (seed % 10), 64), F(1, 32), F(1 + 2 * (seed % 8), 512))
    if kind == "zero_first":  # zero on [0, 1/4]: the support infimum is a breakpoint above 0
        return fq.PiecewisePolyCdf((F(0), F(1, 4), F(1)), ((F(0),), (F(-1, 3), F(4, 3))))
    # flat at F = 1/2 on [1/4, 1/2]
    return fq.PiecewisePolyCdf((F(0), F(1, 4), F(1, 2), F(1)), ((F(0), F(2)), (F(1, 2),), (F(0), F(1))))


RATIO_KINDS = ["cubic", "power", "adversarial", "zero_first", "flat"]


def reference_csv(dist, n, samples) -> str:
    """The --samples CSV as the stored bid function gives it, through canonical_ratio."""
    rbf, lines = fq.canonical_bid_function(dist, n), ["x,bid"]
    for i in range(samples + 1):
        num, den = canonical_ratio(rbf, F(i, samples))
        lines.append(f"{i / samples},{num / den}")
    return "\n".join(lines) + "\n"


def solve_output(capsys, dist, n, tmp_path, *options) -> str:
    """stdout of ``fpaeq solve --model ccfpa-explicit`` on dist, which must exit 0."""
    path = tmp_path / "cdf.json"
    path.write_text(json.dumps(piecewise_json(dist)))
    assert main(["solve", "--model", "ccfpa-explicit", "--cdf", str(path), "--n", str(n), *options]) == 0
    return capsys.readouterr().out


class TestBidRatioEvaluator:
    """solve's --samples and --at evaluate the bid from F(x) and one integral row, as canonical_ratio does."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(RATIO_KINDS), seed=st.integers(0, 2**16), n=st.integers(2, 64),
           extra=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=2**40), max_size=8))
    def test_equals_canonical_ratio(self, kind, seed, n, extra):
        dist = ratio_case(kind, seed)
        rbf, ratio = fq.canonical_bid_function(dist, n), bid_ratio_evaluator(dist, n)
        points = [F(0), F(1), *dist.breakpoints, *(F(i, 32) for i in range(33)), *(F(i, 33) for i in range(34)), *extra]
        for x in points:
            want_num, want_den = canonical_ratio(rbf, x)
            # the pair in lowest terms, as the CLI passes it, and unreduced: the same rational and the same float
            for g in (1, 2, 3, 2**40 + 1):
                num, den = ratio(g * x.numerator, g * x.denominator)
                assert den > 0
                assert num * want_den == want_num * den
                assert num / den == want_num / want_den
        for x in (F(-1, 3), F(4, 3), F(-1), F(2)):
            with pytest.raises(fq.DomainError) as want:
                canonical_ratio(rbf, x)
            with pytest.raises(fq.DomainError) as got:
                ratio(x.numerator, x.denominator)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kind,seed,n", [("cubic", 7, 16), ("cubic", 3, 64), ("power", 2, 64),
                                             ("adversarial", 5, 8), ("zero_first", 0, 3), ("flat", 0, 5)])
    def test_cli_prints_the_canonical_bid(self, capsys, tmp_path, kind, seed, n):
        dist = ratio_case(kind, seed)
        for samples in (32, 33):
            assert solve_output(capsys, dist, n, tmp_path, "--samples", str(samples)) == reference_csv(dist, n, samples)
        rbf = fq.canonical_bid_function(dist, n)
        for x in (F(0), F(1), *dist.breakpoints, dist.support_infimum(), F(5, 7), F(123456789, 2**40)):
            want = format_rational(F(*canonical_ratio(rbf, x)))
            assert solve_output(capsys, dist, n, tmp_path, "--at", format_rational(x)) == want + "\n"

    def test_csv_builds_no_bid_rows(self, capsys, tmp_path, monkeypatch):
        # 8 pieces at n = 16: one horner_int on the integral row per sample, and two per inner breakpoint
        # to join the integral's pieces; no numerator or denominator row is formed
        dist, samples, built, long_rows = seeded_cubic(0, 8), 32, [], []
        cdf_width = max(len(nums) for nums, _ in dist.int_rows)
        horner_int, from_int_rows = fq.explicit.horner_int, fq.PiecewisePoly.from_int_rows.__func__
        canonical_bid_function, load_cdf = fq.explicit.canonical_bid_function, fq.cli._load_cdf
        monkeypatch.setattr(fq.explicit, "canonical_bid_function",
                            lambda *args: built.append(args) or canonical_bid_function(*args))

        def load_then_spy(path):  # the cdf reader builds its own rows by from_int_rows: the spy starts after it
            loaded = load_cdf(path)
            monkeypatch.setattr(fq.PiecewisePoly, "from_int_rows",
                                classmethod(lambda cls, *args: built.append(args) or from_int_rows(cls, *args)))
            return loaded

        monkeypatch.setattr(fq.cli, "_load_cdf", load_then_spy)
        monkeypatch.setattr(fq.explicit, "horner_int",
                            lambda nums, p, q: (len(nums) > cdf_width and long_rows.append((p, q))) or horner_int(nums, p, q))
        out = solve_output(capsys, dist, 16, tmp_path, "--samples", str(samples))
        monkeypatch.undo()
        assert built == []
        assert len(long_rows) <= samples + 1 + 2 * dist.pieces
        # every point of the integral row, breakpoint j/8 or sample i/32, comes in lowest terms
        assert all(math.gcd(p, q) == 1 and samples % q == 0 for p, q in long_rows)
        assert {F(i, samples) for i in range(1, samples + 1)} <= {F(p, q) for p, q in long_rows}
        assert out == reference_csv(dist, 16, samples)


class TestSupportFromRows:
    """A bid function reads its support infimum from its denominator rows, and bids x at and below it."""

    # the fixtures are immutable cdfs, so sharing them across examples is safe
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 8),
           u=st.fractions(min_value=0, max_value=1, max_denominator=2**20))
    def test_identity_at_and_below_the_support(self, shifted_support, adversarial, seed, n, u):
        for dist in (seeded_cubic(seed, 1 + seed % 8), shifted_support, adversarial):
            rbf = fq.canonical_bid_function(dist, n)
            low = dist.support_infimum()
            assert rbf.support_infimum == low
            for x in (low, low * u):
                assert eval_canonical(rbf, x) == x
            above = low + (1 - low) * max(u, F(1, 2**20))
            assert eval_canonical(rbf, above) < above

    def test_all_identity_rows_have_no_support(self):
        rbf = fq.RationalBidFunction(fq.PiecewisePoly((F(0), F(1)), ((F(0),),)),
                                     fq.PiecewisePoly((F(0), F(1)), ((F(0),),)), 2)
        assert rbf(F(1, 3)) == F(1, 3)
        with pytest.raises(fq.DomainError, match="no support infimum"):
            rbf.support_infimum


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name,n", [("uniform", 2), ("two_piece", 3), ("shifted_support", 2)])
    def test_roundtrip(self, name, n, request):
        dist = request.getfixturevalue(name)
        rbf = fq.canonical_bid_function(dist, n)
        obj = fq.rbf_to_json(rbf)
        again = fq.rbf_from_json(obj)
        assert again.numerator == rbf.numerator
        assert again.denominator == rbf.denominator
        # the support infimum is written from the rows and read back against them, byte for byte
        assert obj["support_infimum"] == format_rational(dist.support_infimum())
        assert json.dumps(fq.rbf_to_json(again)) == json.dumps(obj)
        for x in (F(1, 5), F(1, 2), F(9, 10)):
            assert again(x) == rbf(x)

    def test_identity_piece_serialized_symbolically(self, shifted_support):
        obj = fq.rbf_to_json(fq.canonical_bid_function(shifted_support, 2))
        assert obj["pieces"][0] == "identity"

    def test_wrong_kind_rejected(self):
        with pytest.raises(fq.DomainError):
            fq.rbf_from_json({"kind": "jump_points"})

    @pytest.mark.parametrize("bps", [
        ["0", "3/4", "1/4", "1"],  # out of order
        ["0", "1/2", "1/2", "1"],  # repeated
        ["1/4", "1/2", "1"],  # first above 0
        ["0", "1/2", "3/4"],  # last below 1
        ["-1/4", "1/2", "1"],  # first below 0
    ])
    def test_breakpoints_must_increase_from_0_to_1(self, bps):
        obj = {"kind": "rational_bid_function", "n": 2, "support_infimum": "0", "breakpoints": bps,
               "pieces": [{"numerator": ["0", "0", "1/2"], "denominator": ["0", "1"]}] * (len(bps) - 1)}
        with pytest.raises(fq.DomainError, match="breakpoints must increase strictly from 0 to 1"):
            fq.rbf_from_json(obj)
        obj["breakpoints"] = ["0"] + [f"{k}/{len(bps) - 1}" for k in range(1, len(bps))]
        assert fq.rbf_from_json(obj)(F(1, 2)) == F(1, 4)


def float_case(name, request):
    if name == "power8":
        return fq.power_cdf(8)
    if name == "cubic":
        return seeded_cubic(0, 8)
    return request.getfixturevalue(name)


def exact_floats(rbf, xs):
    return np.array([float(eval_canonical(rbf, F(x))) for x in np.ravel(xs).tolist()]).reshape(np.shape(xs))


class TestFloatEvaluator:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
    @pytest.mark.parametrize("name", ["uniform", "square", "power8", "adversarial", "cubic", "shifted_support"])
    def test_within_bound_of_exact(self, name, n, request):
        dist = float_case(name, request)
        assert dist.validate().ok
        rbf = fq.canonical_bid_function(dist, n)
        v_low = float(dist.support_infimum())
        # i/1024 (0 among them), every breakpoint, and the support infimum and points below it
        points = [i / 1024 for i in range(1025)] + [float(b) for b in dist.breakpoints]
        points += [v_low, v_low / 2, float(np.nextafter(v_low, 0.0))]
        xs = np.array(points)
        ev = float_view(rbf)
        got, want = ev(xs), exact_floats(rbf, xs)
        assert (np.abs(got - want) <= FLOAT_BID_REL_ERROR * np.abs(want)).all()
        # a scalar gives the bits of its array element; an array of any shape keeps it
        for k in list(range(0, 1025, 61)) + list(range(1025, len(points))):
            assert ev(points[k]) == got[k]
            assert type(ev(points[k])) is float
        assert np.array_equal(ev(xs[:1024].reshape(256, 4)), got[:1024].reshape(256, 4))
        assert np.array_equal(ev(xs[:1023].reshape(341, 3)[:, :1]), got[:1023:3, None])

    def test_builds_no_piecewise_poly(self, square, monkeypatch):
        # the float tables come straight from the integer rows, with no second PiecewisePoly for the absolute rows
        rbf, built = fq.canonical_bid_function(square, 3), []
        init, from_int_rows = fq.PiecewisePoly.__init__, fq.PiecewisePoly.from_int_rows.__func__
        monkeypatch.setattr(fq.PiecewisePoly, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        monkeypatch.setattr(fq.PiecewisePoly, "from_int_rows",
                            classmethod(lambda cls, *args: built.append(args) or from_int_rows(cls, *args)))
        ev = float_view(rbf)
        assert ev(0.5) == ev(np.array([0.0, 0.5, 1.0]))[1]
        assert built == []

    def test_exact_points_take_canonical_ratio(self, monkeypatch):
        # the 8-piece cubic at n = 4 sends most points to the exact path; each takes canonical_ratio's
        # int / int, the correctly rounded float that float(eval_canonical(...)) gives, with no Fraction
        rbf = fq.canonical_bid_function(seeded_cubic(0, 8), 4)
        xs, exact_points, evaluated = np.array([i / 1024 for i in range(1025)]), [], []
        canonical_ratio = fq.explicit.canonical_ratio
        monkeypatch.setattr(fq.explicit, "canonical_ratio",
                            lambda bid, x: exact_points.append(x) or canonical_ratio(bid, x))
        monkeypatch.setattr(fq.explicit, "eval_canonical", lambda *args: evaluated.append(args))
        got = dict(zip(xs.tolist(), float_view(rbf)(xs).tolist()))
        monkeypatch.undo()
        assert evaluated == []
        assert len(exact_points) > 100
        for x in exact_points:
            assert got[float(x)] == float(eval_canonical(rbf, x))

    def test_breakpoint_that_floats_round_up(self):
        # float(1/10) > 1/10, so float 0.1 lies on the right piece, where the bid is x/4, not x/2
        rows = ((F(0), F(0), F(1, 2)), (F(0), F(0), F(1, 4)))
        rbf = fq.RationalBidFunction(fq.PiecewisePoly((F(0), F(1, 10), F(1)), rows),
                                     fq.PiecewisePoly((F(0), F(1, 10), F(1)), ((F(0), F(1)),) * 2), 2)
        assert F(0.1) > F(1, 10)
        # the float quotient: within FLOAT_BID_REL_ERROR of 0.1/4, where the left piece would give 0.1/2
        for got in (float_view(rbf)(0.1), float_view(rbf)(np.array([0.05, 0.1]))[1]):
            assert abs(got - 0.1 / 4) <= FLOAT_BID_REL_ERROR * 0.1 / 4

    def test_row_that_overflows_is_exact(self):
        # (c x^2 + c x^3) / (2 c x + 2 c x^2) = x/2 with c = 2**1022: the denominator overflows to
        # inf near x = 1, so those points take the exact bid, with no warning
        c = F(2**1022)
        bps = (F(0), F(1))
        rbf = fq.RationalBidFunction(fq.PiecewisePoly(bps, ((F(0), F(0), c, c),)),
                                     fq.PiecewisePoly(bps, ((F(0), 2 * c, 2 * c),)), 2)
        xs = np.array([0.25, 0.5, 1.0])
        assert float_view(rbf)(xs).tolist() == [0.125, 0.25, 0.5]
        assert float_view(rbf)(1.0) == 0.5

    def test_coefficient_beyond_float_range(self):
        # (c x^2 / 2) / (c x) with c = 10**400: no row has a float, so every point is exact
        c = F(10**400)
        bps = (F(0), F(1))
        rbf = fq.RationalBidFunction(fq.PiecewisePoly(bps, ((F(0), F(0), c / 2),)),
                                     fq.PiecewisePoly(bps, ((F(0), c),)), 2)
        xs = np.array([[0.0, 0.25], [0.5, 1.0]])
        assert float_view(rbf)(xs).tolist() == [[0.0, 0.125], [0.25, 0.5]]
        assert float_view(rbf)(0.75) == 0.375
