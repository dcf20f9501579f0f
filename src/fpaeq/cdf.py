"""Value-distribution representations for symmetric first-price auctions.

Two representations are provided:

* :class:`PiecewisePolyCdf` -- an explicit cdf over [0, 1] given by rational
  breakpoints and per-piece polynomial coefficients, with all arithmetic done
  in exact rationals.
* :class:`CdfOracle` -- a query-counted wrapper around an arbitrary cdf
  evaluator, for the black-box model.  The Lipschitz constant is asserted by
  the caller, not estimated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError
from .poly import is_zero_poly, poly_derivative, poly_eval
from .rationals import format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

# points per piece used by the sampled monotonicity / range check
GRID_FACTOR = 64


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PiecewisePolyCdf:
    """Piecewise-polynomial cdf: piece j covers [breakpoints[j], breakpoints[j+1]]."""

    breakpoints: tuple[Fraction, ...]
    coeffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        bps = tuple(Fraction(b) for b in self.breakpoints)
        degree = max((len(row) - 1 for row in self.coeffs), default=0)
        rows = tuple(
            tuple(Fraction(c) for c in row) + (ZERO,) * (degree + 1 - len(row))
            for row in self.coeffs
        )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coeffs", rows)
        if len(bps) != len(rows) + 1:
            raise DomainError("need exactly one coefficient row per piece")

    @property
    def pieces(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs[0]) - 1

    def piece_index(self, x: Fraction) -> int:
        """Index j of a piece with x in [v_j, v_{j+1}]."""
        if not ZERO <= x <= ONE:
            raise DomainError(f"x={x} outside [0, 1]")
        j = bisect.bisect_left(self.breakpoints, x) - 1
        return min(max(j, 0), self.pieces - 1)

    def __call__(self, x):
        x = Fraction(x) if not isinstance(x, Fraction) else x
        return poly_eval(self.coeffs[self.piece_index(x)], x)

    def validate(self) -> ValidationReport:
        """Check every representation invariant; failures become report entries."""
        bad: list[str] = []
        bps = self.breakpoints
        if bps[0] != 0:
            bad.append(f"first breakpoint is {bps[0]}, expected 0")
        if bps[-1] != 1:
            bad.append(f"last breakpoint is {bps[-1]}, expected 1")
        for j in range(len(bps) - 1):
            if not bps[j] < bps[j + 1]:
                bad.append(f"breakpoints not strictly increasing at index {j}")
        if poly_eval(self.coeffs[0], ZERO) != 0:
            bad.append("F_1(0) != 0")
        if poly_eval(self.coeffs[-1], ONE) != 1:
            bad.append("F_k(1) != 1")
        for j in range(self.pieces - 1):
            v = bps[j + 1]
            left, right = poly_eval(self.coeffs[j], v), poly_eval(self.coeffs[j + 1], v)
            if left != right:
                bad.append(f"discontinuity at breakpoint {j + 1}: {left} != {right}")
        npts = GRID_FACTOR * (self.degree + 1)
        for j, row in enumerate(self.coeffs):
            lo, hi = bps[j], bps[j + 1]
            step = (hi - lo) / npts
            prev = None
            range_bad = monotone_bad = False
            for i in range(npts + 1):
                y = poly_eval(row, lo + i * step)
                if not range_bad and not ZERO <= y <= ONE:
                    bad.append(f"piece {j}: value {y} at x={lo + i * step} outside [0, 1]")
                    range_bad = True
                if not monotone_bad and prev is not None and y < prev:
                    bad.append(f"piece {j}: decreasing near x={lo + i * step}")
                    monotone_bad = True
                if range_bad and monotone_bad:
                    break
                prev = y
        return ValidationReport(tuple(bad))

    def validate_exact_monotone(self) -> ValidationReport:
        """Stronger mode: exact derivative sign check via real-root isolation."""
        import sympy

        report = self.validate()
        bad = list(report.violations)
        x = sympy.Symbol("x")
        for j, row in enumerate(self.coeffs):
            dp = poly_derivative(row)
            if is_zero_poly(dp):
                continue
            expr = sum(sympy.Rational(c) * x**l for l, c in enumerate(dp))
            lo, hi = map(sympy.Rational, (self.breakpoints[j], self.breakpoints[j + 1]))
            roots = [r for r in sympy.real_roots(sympy.Poly(expr, x)) if lo < r < hi]
            # derivative sign is constant between consecutive roots
            probes = [lo, hi] + [(a + b) / 2 for a, b in zip([lo] + roots, roots + [hi])]
            if any(expr.subs(x, p) < 0 for p in probes):
                bad.append(f"piece {j}: derivative negative inside the piece")
        return ValidationReport(tuple(bad))

    def support_infimum(self) -> Fraction:
        """Largest x with F(x) = 0 (0 when F > 0 everywhere right of 0).

        Because each piece polynomial is nondecreasing on its piece, a piece
        that vanishes on more than a point is identically zero; the support
        infimum is therefore always the left breakpoint of the first piece
        whose polynomial is not identically zero.
        """
        for j, row in enumerate(self.coeffs):
            if not is_zero_poly(row):
                return self.breakpoints[j]
        raise DomainError("cdf is identically zero")

    def lipschitz_bound(self) -> Fraction:
        """A valid (not necessarily tight) Lipschitz constant on [0, 1]."""
        return max(sum(l * abs(c) for l, c in enumerate(row)) for row in self.coeffs)

    def to_json(self) -> dict:
        return {
            "kind": "piecewise_poly",
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "coeffs": [[format_rational(c) for c in row] for row in self.coeffs],
        }


def uniform_cdf() -> PiecewisePolyCdf:
    return PiecewisePolyCdf((ZERO, ONE), ((ZERO, ONE),))


def power_cdf(exponent: int) -> PiecewisePolyCdf:
    """F(x) = x**exponent on [0, 1]."""
    if exponent < 1:
        raise DomainError("exponent must be >= 1")
    row = (ZERO,) * exponent + (ONE,)
    return PiecewisePolyCdf((ZERO, ONE), (row,))


def eval_cdf(dist: PiecewisePolyCdf, x) -> Fraction:
    return dist(x)


def support_infimum(dist: PiecewisePolyCdf) -> Fraction:
    return dist.support_infimum()


def validate(dist: PiecewisePolyCdf) -> ValidationReport:
    return dist.validate()


@dataclass
class AdversarialCdfParams:
    """Parameters of the flattened-then-steepened piecewise-linear stress cdf.

    The cdf equals the identity outside (v1, v1 + gap), runs at slope
    kink/(gap - kink) on [v1, v2 - kink] and at slope (gap - kink)/kink on
    [v2 - kink, v2], with v2 = v1 + gap.
    """

    v1: Fraction
    gap: Fraction
    kink: Fraction

    def __post_init__(self):
        self.v1 = parse_rational(self.v1)
        self.gap = parse_rational(self.gap)
        self.kink = parse_rational(self.kink)
        if not Fraction(2, 3) <= self.v1 < 1:
            raise DomainError("v1 must lie in [2/3, 1)")
        if not (self.gap > 0 and self.v1 + self.gap <= 1):
            raise DomainError("need gap > 0 and v1 + gap <= 1")
        if not ZERO < self.kink < self.gap:
            raise DomainError("need 0 < kink < gap")


def make_adversarial_cdf(p: AdversarialCdfParams) -> PiecewisePolyCdf:
    v1, v2, xi = p.v1, p.v1 + p.gap, p.kink
    slope_flat = xi / (p.gap - xi)
    slope_steep = (p.gap - xi) / xi
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
    """Query-counted cdf evaluator with a caller-asserted Lipschitz constant."""

    def __init__(self, evaluator: Callable, lipschitz):
        if lipschitz <= 0:
            raise DomainError("Lipschitz constant must be positive")
        self._evaluator = evaluator
        self.lipschitz = lipschitz
        self.query_count = 0

    def __call__(self, x):
        self.query_count += 1
        return self._evaluator(x)

    def reset(self) -> None:
        self.query_count = 0


def wrap_oracle(evaluator: Callable, lipschitz) -> CdfOracle:
    return CdfOracle(evaluator, lipschitz)


def query_count(oracle: CdfOracle) -> int:
    return oracle.query_count


def oracle_from_piecewise(dist: PiecewisePolyCdf) -> CdfOracle:
    """Exact-rational oracle backed by an explicit cdf."""
    return CdfOracle(dist, dist.lipschitz_bound())


def float_view(cdf) -> Callable[[float], float]:
    """Float evaluator of a cdf, for searches whose result is certified exactly.

    A :class:`PiecewisePolyCdf` becomes a scalar Horner evaluation over float
    coefficients; any other cdf is called on the exact rational value of x.
    """
    if not isinstance(cdf, PiecewisePolyCdf):
        return lambda x: float(cdf(Fraction(x)))
    inner = [float(b) for b in cdf.breakpoints[1:-1]]
    rows = [tuple(float(c) for c in reversed(row)) for row in cdf.coeffs]

    def ev(x: float) -> float:
        acc = 0.0
        for c in rows[bisect.bisect_left(inner, x)]:
            acc = acc * x + c
        return acc

    return ev


def strongly_increasing_transform(cdf, delta):
    """Affine mix F'(x) = delta*x + (1 - delta)*F(x); makes F delta-strongly increasing.

    Applied exactly to coefficients for :class:`PiecewisePolyCdf`; for a
    :class:`CdfOracle` a fresh oracle (with its own counter) is returned.
    """
    delta = Fraction(delta) if not isinstance(cdf, CdfOracle) else delta
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    if isinstance(cdf, PiecewisePolyCdf):
        rows = []
        for row in cdf.coeffs:
            new = [(1 - delta) * c for c in row]
            if len(new) < 2:
                new.append(ZERO)
            new[1] += delta
            rows.append(tuple(new))
        return PiecewisePolyCdf(cdf.breakpoints, tuple(rows))
    if isinstance(cdf, CdfOracle):
        base = cdf._evaluator
        lip = max(1, cdf.lipschitz)  # delta*1 + (1-delta)*L <= max(1, L)
        return CdfOracle(lambda x: delta * x + (1 - delta) * base(x), lip)
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
            exponent = int(parse_rational(obj["exponent"]))
        except KeyError:
            raise DomainError("power cdf needs an 'exponent' field")
        return power_cdf(exponent)
    if kind == "adversarial":
        try:
            params = AdversarialCdfParams(obj["v1"], obj["gap"], obj["kink"])
        except KeyError as exc:
            raise DomainError(f"adversarial cdf is missing field {exc}")
        return make_adversarial_cdf(params)
    if kind == "piecewise_poly":
        try:
            bps = tuple(parse_rational(b) for b in obj["breakpoints"])
            rows = tuple(tuple(parse_rational(c) for c in row) for row in obj["coeffs"])
        except KeyError as exc:
            raise DomainError(f"piecewise_poly cdf is missing field {exc}")
        return PiecewisePolyCdf(bps, rows)
    raise DomainError(f"unknown cdf kind: {kind!r}")
