"""Value-distribution representations for symmetric first-price auctions.

Two representations are provided:

* :class:`PiecewisePolyCdf` -- an explicit cdf over [0, 1] given by rational
  breakpoints and per-piece polynomial coefficients, with all arithmetic done
  in exact rationals.  :meth:`PiecewisePolyCdf.validate` decides exactly
  whether it is a cdf: no point is sampled.
* :class:`CdfOracle` -- a query-counted wrapper around an arbitrary cdf
  evaluator, for the black-box model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from numbers import Rational
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError
from .poly import PiecewisePoly, nonnegative_on, poly_derivative
from .rationals import parse_rational, parse_rational_list, row_pair

ZERO = Fraction(0)
ONE = Fraction(1)

# Highest polynomial degree an explicit cdf may have.  It bounds the work of
# validate(), whose exact monotonicity decision counts the sign variations of a
# Taylor-shifted row of degree up to 63 and, where the count is 2 or more, runs remainder
# sequences of that degree.  Measured with CPython 3.11 on 2 vCPUs, on dense degree-64
# pieces of positive weights: the count took 0.2 ms whether their coefficients share a
# 19-bit, a 157-bit or a 961-bit denominator, where the remainder sequences took 0.06 s,
# 1.4 s and 44 s (their work grows with the coefficient size, not only the degree); a
# piece with derivative 1 + T_63(2x - 1), whose double roots send it to the remainder
# sequences, took 2 ms.  A bid function's integral rows, of degree (n - 1) times their cdf
# row's plus 1, are not bounded by it.  The largest admitted explicit solve, `solve --model
# ccfpa-explicit --n 64` on one dense degree-64 row with 58-bit weights over their sum (a 64-bit
# denominator), takes 1.0 s and 68 MB peak RSS and prints 11.7 MB, and the grid verify of that
# bid 0.6 s and 52 MB, with CPython 3.11 on 2 vCPUs (.github/worst_cases.py); a rule that admits
# inputs by their estimated bit-work should keep this case in bounds.
MAX_DEGREE = 64
# Most bits of an integer in a piecewise_poly row, or a canonical_bid's cdf row, read from JSON:
# each numerator and the common denominator of the row's integer form (PiecewisePoly.int_rows).  validate()'s
# remainder sequences grow with these sizes; with CPython 3.11 on 2 vCPUs they took 0.29 s
# on a dense degree-64 piece with 63-bit integers and 1.4 s at 157 bits, where the count of
# sign variations that decides such a piece first took 0.2 ms.  A piece the count leaves
# undecided still runs them.  Rows the library builds, such as a bid function's integral rows
# or strongly_increasing_transform's mix, are not bounded by it.
MAX_ROW_BITS = 64


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class PiecewisePolyCdf(PiecewisePoly):
    """Piecewise-polynomial cdf: piece j covers [breakpoints[j], breakpoints[j+1]].

    Both constructors check that no row is longer than MAX_DEGREE + 1 before
    they convert a row; each row is then stored at its true degree, as every
    :class:`PiecewisePoly` row is, with no padding to a common length.
    """

    @classmethod
    def _check_widths(cls, widths) -> None:
        width = max(widths, default=0)
        if width > MAX_DEGREE + 1:
            raise DomainError(f"cdf degree {width - 1} exceeds the limit of {MAX_DEGREE}")

    def validate(self) -> ValidationReport:
        """Check every representation invariant exactly; failures become report entries.

        The breakpoints run from 0 to 1 in increasing order, F_1(0) = 0,
        F_k(1) = 1, the pieces meet at the breakpoints and each piece is
        nondecreasing, which :func:`poly.nonnegative_on` decides for its
        derivative.  Together these imply 0 <= F <= 1.  The values are
        compared as integer ratios, cross-multiplied; a Fraction is made only
        for the text of a violation.
        """
        bad: list[str] = []
        bps = self.breakpoints
        if bps[0] != 0:
            bad.append(f"first breakpoint is {bps[0]}, expected 0")
        if bps[-1] != 1:
            bad.append(f"last breakpoint is {bps[-1]}, expected 1")
        for j in range(len(bps) - 1):
            if not bps[j] < bps[j + 1]:
                bad.append(f"breakpoints not strictly increasing at index {j}")
        rows = self.int_rows
        if rows[0][0][0]:  # F_1(0) is the constant term over the scale
            bad.append("F_1(0) != 0")
        if sum(rows[-1][0]) != rows[-1][1]:
            bad.append("F_k(1) != 1")
        for j in range(self.pieces - 1):
            p, q = bps[j + 1].numerator, bps[j + 1].denominator
            (a, c), (b, d) = self.row_ratio(j, p, q), self.row_ratio(j + 1, p, q)
            if a * d != b * c:
                bad.append(f"discontinuity at breakpoint {j + 1}: {Fraction(a, c)} != {Fraction(b, d)}")
        for j, (nums, _) in enumerate(self.int_rows):
            lo, hi = bps[j], bps[j + 1]
            # a piece with lo >= hi is reported with the breakpoints above
            if lo < hi and not nonnegative_on(poly_derivative(nums), lo, hi):
                bad.append(f"piece {j}: decreasing somewhere in [{lo}, {hi}]")
        return ValidationReport(tuple(bad))


def uniform_cdf() -> PiecewisePolyCdf:
    return PiecewisePolyCdf((ZERO, ONE), ((ZERO, ONE),))


def power_cdf(exponent: int) -> PiecewisePolyCdf:
    """F(x) = x**exponent on [0, 1], for an integer exponent in [1, MAX_DEGREE]."""
    if not 1 <= exponent <= MAX_DEGREE:
        raise DomainError(f"exponent must be an integer in [1, {MAX_DEGREE}], got {exponent}")
    row = (ZERO,) * exponent + (ONE,)
    return PiecewisePolyCdf((ZERO, ONE), (row,))


def make_adversarial_cdf(v1, gap, kink) -> PiecewisePolyCdf:
    """The flattened-then-steepened piecewise-linear stress cdf, from rationals or their strings.

    The cdf equals the identity outside (v1, v1 + gap), runs at slope
    kink/(gap - kink) on [v1, v2 - kink] and at slope (gap - kink)/kink on
    [v2 - kink, v2], with v2 = v1 + gap.
    """
    v1, gap, xi = parse_rational(v1), parse_rational(gap), parse_rational(kink)
    if not Fraction(2, 3) <= v1 < 1:
        raise DomainError("v1 must lie in [2/3, 1)")
    if not (gap > 0 and v1 + gap <= 1):
        raise DomainError("need gap > 0 and v1 + gap <= 1")
    if not ZERO < xi < gap:
        raise DomainError("need 0 < kink < gap")
    v2 = v1 + gap
    slope_flat = xi / (gap - xi)
    slope_steep = (gap - xi) / xi
    bps = [ZERO, v1, v2 - xi, v2]
    rows = [
        (ZERO, ONE),
        (v1 - slope_flat * v1, slope_flat),
        (v1 + xi - slope_steep * (v2 - xi), slope_steep),
    ]
    if v2 < 1:
        bps.append(ONE)
        rows.append((ZERO, ONE))
    return PiecewisePolyCdf(tuple(bps), tuple(rows))


class CdfOracle:
    """Query-counted cdf evaluator for the black-box model.

    Each call is one query, and so is each :meth:`ratio` and each point its
    float view (:meth:`float_evaluator`) evaluates.  The batch query :meth:`grid_values`
    streams the grid j/K and counts as its K - 1 interior points.
    """

    def __init__(self, evaluator: Callable):
        self._evaluator = evaluator
        self.query_count = 0

    def __call__(self, x):
        self.query_count += 1
        return self._evaluator(x)

    def ratio(self, p: int, q: int) -> tuple:
        """F(p/q), q > 0, as one query: (a, c) with F(p/q) = a / c.

        A piecewise-polynomial evaluator answers on ints by Horner's rule on
        its piece (:meth:`PiecewisePoly.row_ratio`), with no Fraction and no
        gcd.  Any other is called on Fraction(p, q): a rational answer gives
        its numerator and denominator, and any other answer a comes back as
        (a, 1.0).
        """
        self.query_count += 1
        ev = self._evaluator
        if isinstance(ev, PiecewisePoly):
            return ev.row_ratio(ev.piece_of(p, q), p, q)
        fx = ev(Fraction(p, q))
        return (fx.numerator, fx.denominator) if isinstance(fx, Rational) else (fx, 1.0)

    def grid_values(self, K: int) -> tuple[Iterator, object]:
        """(values, den), values yielding v_j with F(j/K) == v_j / den for j = 0..K; costs K - 1 queries.

        The K - 1 queries are counted at the call.  values is a stream of the
        K + 1 numerators, each made as it is read, so a caller such as
        :func:`blackbox.precompute` sums them as they arrive and no list of
        them is built.  F(0) = 0 and F(1) = 1 are known for a cdf on [0, 1],
        so v_0 = 0 and v_K = den.  A piecewise-polynomial
        evaluator answers on ints over one denominator
        (:meth:`PiecewisePoly.grid_values`); any other is called at each
        interior point as it is read, over den = 1, and keeps its own
        arithmetic.
        """
        self.query_count += K - 1
        ev = self._evaluator
        if isinstance(ev, PiecewisePoly):
            values, den = ev.grid_values(K)
            return chain((0,), islice(values, 1, K), (den,)), den
        return chain((0,), (ev(Fraction(j, K)) for j in range(1, K)), (1,)), 1

    def float_evaluator(self) -> Callable:
        """Float view of the oracle for a float or a numpy array; each evaluated point, array elements
        included, is one query.

        The view is the evaluator's own (:func:`float_view`): a piecewise
        polynomial or the mix of :func:`strongly_increasing_transform`
        evaluates in floats, and any other evaluator is called on the exact
        rational value of each point.
        """
        inner = float_view(self._evaluator)

        def ev(x):
            self.query_count += x.size if isinstance(x, np.ndarray) else 1
            return inner(x)

        return ev


class _AffineMix:
    """x -> delta*x + (1 - delta)*F(x) for an oracle F: exact on a rational x, in floats through F's float view."""

    def __init__(self, oracle: CdfOracle, delta):
        self.oracle, self.delta = oracle, delta

    def __call__(self, x):
        return self.delta * x + (1 - self.delta) * self.oracle(x)

    def float_evaluator(self) -> Callable:
        inner, delta = self.oracle.float_evaluator(), float(self.delta)
        return lambda x: delta * x + (1 - delta) * inner(x)


def float_view(f) -> Callable:
    """Float evaluator of a cdf or a bid function on [0, 1], taking a float or a numpy array of floats.

    Anything with a ``float_evaluator`` gives its own: a piecewise polynomial,
    such as a cdf or the step bid function of jump points, evaluates its float
    coefficients (:meth:`PiecewisePoly.float_evaluator`), a
    :class:`RationalBidFunction` forms x - I / F**(n-1) in floats where its error
    bound allows and is exact elsewhere (:meth:`RationalBidFunction.float_evaluator`),
    and a :class:`CdfOracle` counts a query per point
    (:meth:`CdfOracle.float_evaluator`).  Any other function is called on the
    exact rational value of x, elementwise for an array, and its result is
    taken as a float.
    """
    if hasattr(f, "float_evaluator"):
        return f.float_evaluator()
    return _exact_view(f)


def _exact_view(f) -> Callable:
    """x -> float(f(Fraction(x))) for a float, elementwise for a numpy array."""

    def ev(x):
        if isinstance(x, np.ndarray):
            return np.array([float(f(Fraction(v))) for v in x.ravel().tolist()]).reshape(x.shape)
        return float(f(Fraction(x)))

    return ev


def strongly_increasing_transform(cdf, delta):
    """Affine mix F'(x) = delta*x + (1 - delta)*F(x); makes F delta-strongly increasing.

    Applied exactly to the integer rows of a :class:`PiecewisePolyCdf`; for a
    :class:`CdfOracle` a fresh oracle is returned that queries the given one,
    so each query counts on both.  Its float view mixes in floats over the
    given oracle's float view.
    """
    delta = Fraction(delta) if not isinstance(cdf, CdfOracle) else delta
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    if isinstance(cdf, PiecewisePolyCdf):
        p, q, rows = delta.numerator, delta.denominator, []
        for nums, scale in cdf.int_rows:  # nums/scale becomes ((q - p)*nums + p*scale*x) / (q*scale)
            new = [(q - p) * c for c in nums] + [0] * (2 - len(nums))
            new[1] += p * scale
            rows.append((new, q * scale))
        return PiecewisePolyCdf.from_int_rows(cdf.breakpoints, rows)
    if isinstance(cdf, CdfOracle):
        return CdfOracle(_AffineMix(cdf, delta))
    raise DomainError(f"unsupported cdf type: {type(cdf).__name__}")


def cdf_from_json(obj: dict) -> PiecewisePolyCdf:
    """Build a cdf from its JSON description (rationals as "p/q" strings)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("cdf JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "uniform":
        return uniform_cdf()
    if kind == "power":
        try:
            exponent = parse_rational(obj["exponent"])
        except KeyError:
            raise DomainError("power cdf needs an 'exponent' field")
        if exponent.denominator != 1:
            raise DomainError(f"exponent must be an integer in [1, {MAX_DEGREE}], got {exponent}")
        return power_cdf(int(exponent))
    if kind == "adversarial":
        try:
            v1, gap, kink = obj["v1"], obj["gap"], obj["kink"]
        except KeyError as exc:
            raise DomainError(f"adversarial cdf is missing field {exc}")
        return make_adversarial_cdf(v1, gap, kink)
    if kind == "piecewise_poly":
        try:
            bps = parse_rational_list(obj["breakpoints"], "breakpoints")
            coeffs = obj["coeffs"]
        except KeyError as exc:
            raise DomainError(f"piecewise_poly cdf is missing field {exc}")
        if not isinstance(coeffs, list):
            raise DomainError(f"coeffs must be a JSON array of coefficient rows, got {coeffs!r}")
        rows = [parse_rational_list(row, "a coefficient row", row_pair) for row in coeffs]
        PiecewisePolyCdf._check_widths(map(len, rows))  # before the lcm of a row that is too long
        int_rows = []
        for row in rows:  # over the lcm of its denominators; from_int_rows puts it in lowest terms by one gcd
            scale = math.lcm(*(den for _, den in row))
            int_rows.append(([num * (scale // den) for num, den in row], scale))
        dist = PiecewisePolyCdf.from_int_rows(bps, int_rows)
        check_row_bits(dist)
        return dist
    raise DomainError(f"unknown cdf kind: {kind!r}")


def check_row_bits(dist: PiecewisePolyCdf) -> None:
    """DomainError unless every integer of each row of dist, in lowest terms, has at most MAX_ROW_BITS bits."""
    for j, (nums, scale) in enumerate(dist.int_rows):
        bits = max(scale.bit_length(), *(abs(c).bit_length() for c in nums))
        if bits > MAX_ROW_BITS:
            raise DomainError(f"coefficient row {j} needs {bits}-bit integers over one denominator, "
                              f"above the limit of {MAX_ROW_BITS} bits")
