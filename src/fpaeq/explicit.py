"""Exact equilibrium bids for piecewise-polynomial cdfs.

For a cdf given piecewise by polynomials with rational coefficients, the
equilibrium bid is the closed form x - I(x) / F(x)**(n-1), with I the integral
of F**(n-1) from 0 to x, and x wherever F(x) = 0.  A :class:`RationalBidFunction`
stores what that formula reads: the cdf's integer rows, n, and one integral row
per piece, each an integer row (nums, scale) as :attr:`PiecewisePoly.int_rows`:

* each piece's F_j**(n-1) comes from Miller's recurrence (:func:`poly.power_int`);
* the integral is antidifferentiated on ints over scale * lcm(1, ..., len(row)),
  that lcm and its quotients taken once per row length, and its constant
  matches the previous piece at the breakpoint by Horner's rule and one gcd.

No stage takes a gcd per term, and no bid row is formed.  The one exact
evaluator, :meth:`RationalBidFunction.ratio`, gives the bid as an integer pair;
the float view (:meth:`RationalBidFunction.float_evaluator`) forms it in floats
where a rigorous bound allows and takes the exact bid elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cdf import PiecewisePolyCdf, check_row_bits, float_view
from .errors import DomainError, check_bidders
from .poly import PiecewisePoly, gamma_k, horner_int, power_int
from .rationals import format_rational, parse_rational_list, rational_pair, shown

# A float bid is within this relative error of the exact one.  monotone_no_overbid_check
# flags a gap above 1e-12 between two bids <= 1; two such floats are off by less than
# 2 * 2**-42 ~ 4.5e-13 together, so they make no false witness.
FLOAT_BID_REL_ERROR = 2.0**-42


@dataclass(frozen=True)
class RationalBidFunction:
    """The bid x - I(x) / F(x)**(n-1): the cdf, n, and the integer row (nums, scale) of I on each piece j,
    of degree (n - 1) d_j + 1 for the cdf row's true degree d_j.  Calling it gives the exact bid."""

    cdf: PiecewisePoly
    n: int
    integral_rows: tuple

    def __call__(self, x) -> Fraction:
        return eval_canonical(self, x)

    def ratio(self, p: int, q: int) -> tuple[int, int]:
        """The bid at x = p/q, q > 0, as (num, den) on ints with no gcd taken, den > 0 where F(x) > 0.

        Horner on the cdf row (nums, s) of degree d gives F(x) = A / (s q**d), and on the integral row
        (c, scale) I(x) = C / (scale q**((n-1) d + 1)), so the bid is
        (p scale A**(n-1) - C s**(n-1)) / (scale q A**(n-1)), and (p, q) where A = 0.  ``num / den`` is its
        correctly rounded float.  An unreduced pair gives larger ints, so callers pass p/q in lowest terms.
        """
        j, k = self.cdf.piece_of(p, q), self.n - 1
        (nums, s), (c_row, scale) = self.cdf.int_rows[j], self.integral_rows[j]
        a = horner_int(nums, p, q)
        if a == 0:  # left of the support or at its infimum, where continuity gives bid = x
            return p, q
        a_k = a**k
        return p * scale * a_k - horner_int(c_row, p, q) * s**k, scale * q * a_k

    def float_evaluator(self) -> Callable:
        """Float bid, within a relative FLOAT_BID_REL_ERROR of the exact one, for a float or a numpy array.

        One piece search, the cdf's, gives F^ and I^ with their bounds eF and eI (:meth:`PiecewisePoly.float_bounded`).
        With k = n - 1, r = k eF / F^ < 1 and P^ = F^**k by k - 1 products, I^ / P^ is within E = (eI + |I^| r)
        (1 + gamma_(k-1)) / (P^ (1 - r)) + gamma_k |I^ / P^| + 2**-1074 of I / F**k (Higham, Accuracy and Stability
        of Numerical Algorithms, 3.1): F**k >= F^**k (1 - r) by Bernoulli's inequality, and the products, the division
        and its underflow add the rest.  A point takes x - I^ / P^ where F^ and P^ are normal and E is at most
        (1 - 2**-8) FLOAT_BID_REL_ERROR of it, the 2**-8 covering the subtraction's rounding and those of E; every
        other point (F = 0, an underflow, an overflow, an ill-conditioned row) the float of the exact :meth:`ratio`.
        """
        def exact(v) -> float:
            num, den = self.ratio(*v.as_integer_ratio())
            return num / den

        try:
            cdf = self.cdf.float_bounded()
            integral = PiecewisePoly.from_int_rows(self.cdf.breakpoints, self.integral_rows).float_bounded()
        except OverflowError:  # a coefficient beyond the float range: every point is exact
            return float_view(exact)
        k, tiny, limit = self.n - 1, np.finfo(float).tiny, FLOAT_BID_REL_ERROR * (1 - 2.0**-8)
        products, roundings = 1 + gamma_k(k - 1), gamma_k(k)

        def ev(x):
            if not isinstance(x, np.ndarray):
                return float(ev(np.array([float(x)]))[0])
            x = np.asarray(x, dtype=float)
            piece = self.cdf.float_pieces(x)
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                f, f_err = cdf(x, piece)
                i, i_err = integral(x, piece)
                power = f.copy()
                for _ in range(k - 1):
                    power *= f
                quotient = i / power
                out = x - quotient
                r = k * f_err / f
                err = (i_err + np.abs(i) * r) * products / (power * (1 - r)) + roundings * np.abs(quotient) + 2.0**-1074
                # an overflow or a zero F leaves an infinite or NaN value, which fails these tests
                size = np.abs(out)
                ok = (tiny <= f) & (tiny <= power) & (power < np.inf) & (r < 1) & (size < np.inf)
                ok &= err <= limit * size
            out[~ok] = [exact(v) for v in x[~ok].tolist()]
            return out

        return ev


def power_coefficients(dist: PiecewisePolyCdf, n: int) -> tuple:
    """Integer rows (nums, scale) of F_j**(n-1), one per piece j: coefficient l is nums[l] / scale."""
    check_bidders(n)
    k = n - 1
    return tuple((power_int(nums, k), scale**k) for nums, scale in dist.int_rows)


def integral_coefficients(power_rows: tuple, dist: PiecewisePolyCdf) -> tuple:
    """Integer rows (nums, scale) of x -> integral_0^x F(t)**(n-1) dt from the power rows of dist, continuous across pieces.

    Row j is antidifferentiated over its power row's scale times
    m = lcm(1, ..., len(row)), coefficient l times m // (l + 1); m and its
    quotients are computed once per row length.  The row's constant is the
    previous row's value at breakpoint j less its own there, both by
    :func:`horner_int`, and one gcd puts it over the row's scale, which grows
    where the constant's denominator does not divide it.
    """
    rows, weights, lengths = [], {}, [len(b_row) for b_row, _ in power_rows]
    for j, (b_row, b_scale) in enumerate(power_rows):
        if len(b_row) in weights:
            m, quotients = weights[len(b_row)]
        else:
            m = math.lcm(*range(1, len(b_row) + 1))
            quotients = map(m.__floordiv__, range(1, len(b_row) + 1))
            if lengths.count(len(b_row)) > 1:  # kept only where reused: one dense row's would hold 3 MB
                weights[len(b_row)] = m, (quotients := list(quotients))
        c_row, scale = [0] + [c * w for c, w in zip(b_row, quotients)], b_scale * m
        if j > 0:
            (prev, prev_scale), v = rows[-1], dist.breakpoints[j]
            p, q = v.numerator, v.denominator
            # a row's value at p/q is horner_int / (scale * q**degree); the constant times scale is top / bottom
            a, b = horner_int(prev, p, q), prev_scale * q ** (len(prev) - 1)
            c, d = horner_int(c_row, p, q), scale * q ** (len(c_row) - 1)
            top, bottom = (a * d - c * b) * scale, b * d
            g = math.gcd(top, bottom)
            grow = bottom // g
            if grow > 1:
                c_row, scale = [c * grow for c in c_row], scale * grow
            c_row[0] = top // g
        rows.append((c_row, scale))
    return tuple(rows)


def canonical_bid_function(dist: PiecewisePolyCdf, n: int) -> RationalBidFunction:
    """The equilibrium bid of dist at n bidders."""
    return RationalBidFunction(dist, n, integral_coefficients(power_coefficients(dist, n), dist))


def rbf_to_json(rbf: RationalBidFunction) -> dict:
    """The "canonical_bid" object: n, the breakpoints, and per piece the cdf row and the integral row, each
    integer strings over its own scale."""
    pieces = [{"cdf": [format_rational(c) for c in nums], "cdf_scale": format_rational(s),
               "integral": [format_rational(c) for c in c_row], "integral_scale": format_rational(scale)}
              for (nums, s), (c_row, scale) in zip(rbf.cdf.int_rows, rbf.integral_rows)]
    return {"kind": "canonical_bid", "n": rbf.n, "breakpoints": [format_rational(b) for b in rbf.cdf.breakpoints],
            "pieces": pieces}


def rbf_from_json(obj: dict) -> RationalBidFunction:
    """Read a "canonical_bid" object, with bounded work for bounded input: n within MAX_BIDDERS, each cdf row
    within MAX_DEGREE and MAX_ROW_BITS, as a cdf file's, and each integral row of the length its cdf row's true
    degree d fixes, (n - 1) d + 2."""
    if not isinstance(obj, dict) or obj.get("kind") != "canonical_bid":
        raise DomainError("expected a canonical_bid object")
    if missing := [name for name in ("n", "breakpoints", "pieces") if name not in obj]:
        raise DomainError(f"missing field {missing[0]!r}")
    n = _positive(obj["n"], "n")
    check_bidders(n)
    bps = parse_rational_list(obj["breakpoints"], "breakpoints")
    if not (bps and bps[0] == 0 and bps[-1] == 1 and all(a < b for a, b in zip(bps, bps[1:]))):
        raise DomainError(f"breakpoints must increase strictly from 0 to 1, got {shown(obj['breakpoints'])}")
    pieces = obj["pieces"]
    if not isinstance(pieces, list) or len(pieces) != len(bps) - 1:
        raise DomainError(f"pieces must be a JSON array of {len(bps) - 1} piece objects, one per interval")
    if not all(isinstance(piece, dict) and {"cdf", "cdf_scale", "integral", "integral_scale"} <= piece.keys()
               for piece in pieces):
        raise DomainError("each piece must be an object with the fields cdf, cdf_scale, integral and integral_scale")
    # reading the strings is linear in their size; from_int_rows checks the degree before its gcd
    cdf = PiecewisePolyCdf.from_int_rows(
        bps, [(_integers(piece["cdf"], "cdf"), _positive(piece["cdf_scale"], "a scale")) for piece in pieces])
    check_row_bits(cdf)
    rows = tuple((_integers(p["integral"], "integral"), _positive(p["integral_scale"], "a scale")) for p in pieces)
    for (nums, _), (c_row, _) in zip(cdf.int_rows, rows):
        if len(c_row) != (n - 1) * (len(nums) - 1) + 2:
            raise DomainError(f"an integral row must hold {(n - 1) * (len(nums) - 1) + 2} integers, (n - 1) times "
                              f"its cdf row's degree {len(nums) - 1} plus 2")
    return RationalBidFunction(cdf, n, rows)


def _integers(value, what: str) -> list[int]:
    """A JSON array of integer strings (or JSON integers) as ints."""
    pairs = parse_rational_list(value, what, rational_pair)
    if any(den != 1 for _, den in pairs):
        raise DomainError(f"{what} must be a JSON array of integers, got {shown(value)}")
    return [num for num, _ in pairs]


def _positive(value, what: str) -> int:
    """A positive integer string (or JSON integer) as an int."""
    num, den = rational_pair(value)
    if den != 1 or num < 1:
        raise DomainError(f"{what} must be a positive integer, got {shown(value)}")
    return num


def eval_canonical(rbf: RationalBidFunction, x) -> Fraction:
    """Exact bid at x, and x itself wherever F(x) = 0: :meth:`RationalBidFunction.ratio` as one Fraction."""
    x = x if isinstance(x, Fraction) else Fraction(x)
    return Fraction(*rbf.ratio(x.numerator, x.denominator))
