"""Exact equilibrium bids for piecewise-polynomial cdfs.

For a cdf given piecewise by polynomials with rational coefficients, the
equilibrium bid function

    bid(x) = x - (integral of F**(n-1) from 0 to x) / F(x)**(n-1)

is a piecewise rational function whose numerator/denominator coefficients are
computed exactly on integer rows (nums, scale), coefficient l being
nums[l] / scale, the form of :attr:`PiecewisePoly.int_rows`:

* each piece's F_j**(n-1) comes from Miller's recurrence (:func:`poly.power_int`),
  one coefficient at a time from small-times-big products;
* the integral is antidifferentiated on ints over scale * lcm(1, ..., len(row)),
  that lcm and its quotients taken once per row length, and its constant
  matches the previous piece at the breakpoint, by Horner's rule on ints and
  one gcd;
* the numerator row x * F_j**(n-1) - integral is formed on ints over one scale.

No stage takes a gcd per term: the bid function keeps these integer rows, each
put in lowest terms by one gcd and at its true degree, and a coefficient
becomes a Fraction only when it is printed.  A row is as long as its piece's
degree needs, whatever the other pieces' degrees, and a piece left of the
support gets zero rows, the identity piece, from the same formula.  Rational values therefore map to exact rational bids.

``solve`` builds these rows only to print them as JSON.  Its ``--at`` and
``--samples`` bids come from :func:`bid_ratio_evaluator`, which reads x as an
integer pair (p, q) in lowest terms: one Horner pass on the cdf row gives
F(x), one on the integral row gives the integral, and the bid
x - I(x) / F(x)**(n-1) is one integer pair; no bid row and no Fraction is
formed.

The float view of a bid function (:meth:`RationalBidFunction.float_evaluator`)
makes one pass per call: one domain check, one piece search, and both rows with
their error bounds from :meth:`PiecewisePoly.float_bounded`.
It divides the rows wherever Horner's error bound shows the quotient within a
relative :data:`FLOAT_BID_REL_ERROR` of the exact bid, and takes the float of
the exact bid everywhere else; a scalar runs as an array of one element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cdf import PiecewisePolyCdf, float_view
from .errors import DomainError, check_bidders
from .poly import PiecewisePoly, horner_int, power_int
from .rationals import format_rational, parse_rational, parse_rational_list

# A float bid is within this relative error of the exact one.  monotone_no_overbid_check
# flags a gap above 1e-12 between two bids <= 1; two such floats are off by less than
# 2 * 2**-42 ~ 4.5e-13 together, so they make no false witness.
FLOAT_BID_REL_ERROR = 2.0**-42


@dataclass(frozen=True)
class RationalBidFunction:
    """Per-piece ratio numerator/denominator of the equilibrium bid.

    The bid is x wherever the denominator row is 0 at x: on every piece whose
    rows are zero (pieces entirely left of the support) and at the support
    infimum, which the rows fix.  Calling it gives the exact bid
    (:func:`eval_canonical`); :meth:`float_evaluator` gives floats.
    """

    numerator: PiecewisePoly
    denominator: PiecewisePoly
    n: int

    def __post_init__(self):
        if self.numerator.breakpoints != self.denominator.breakpoints:
            raise DomainError("numerator and denominator need the same breakpoints")

    @property
    def support_infimum(self) -> Fraction:
        """The left end of the first piece whose denominator row is not zero (:meth:`PiecewisePoly.support_infimum`)."""
        return self.denominator.support_infimum()

    def __call__(self, x) -> Fraction:
        return eval_canonical(self, x)

    def float_evaluator(self) -> Callable:
        """Float bid, within a relative FLOAT_BID_REL_ERROR of the exact one, for a float or a numpy array.

        Each call makes one domain check and one piece search, the denominator's
        (:meth:`PiecewisePoly.float_pieces`), and reads the numerator and then the denominator
        with Horner's error bound on each (:meth:`PiecewisePoly.float_bounded`).  A point takes
        the quotient of the rows where each row is a normal float whose bound is at most
        FLOAT_BID_REL_ERROR / 4 of it, so the rounded quotient is within FLOAT_BID_REL_ERROR.
        Every other point (a zero denominator, whose exact bid is x, an underflow, an
        ill-conditioned row) takes the float of the exact bid.  A scalar runs as a one-element
        array and comes back as a float.
        """
        def exact(v) -> float:  # the correctly rounded float of the exact bid, with no Fraction and no gcd
            num, den = canonical_ratio(self, Fraction(v))
            return num / den

        try:
            rows = [poly.float_bounded() for poly in (self.numerator, self.denominator)]
        except OverflowError:  # a coefficient beyond the float range: every point is exact
            return float_view(exact)
        tiny, limit = np.finfo(float).tiny, FLOAT_BID_REL_ERROR / 4

        def ev(x):
            if not isinstance(x, np.ndarray):
                return float(ev(np.array([float(x)]))[0])
            x = np.asarray(x, dtype=float)
            piece, values, ok = self.denominator.float_pieces(x), [], np.ones(x.shape, dtype=bool)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for bounded in rows:
                    value, err = bounded(x, piece)
                    size = abs(value)
                    # an overflow leaves an infinite or NaN value or bound, which fails these tests
                    ok &= (tiny <= size) & (size < np.inf) & (err / limit <= size)
                    values.append(value)
                out = values[0] / values[1]  # kept only where ok holds
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


def bid_ratio_evaluator(dist: PiecewisePolyCdf, n: int) -> Callable[[int, int], tuple[int, int]]:
    """The bid at x = p/q, q > 0, as :func:`canonical_ratio` gives it, (num, den), from F(x) and one integral row.

    In piece j, Horner on the cdf row (nums, s) of degree d gives A with F(x) = A / (s q**d), and on the
    integral row (c, scale), of degree (n-1) d + 1, I(x) = horner_int(c) / (scale q**((n-1) d + 1)), so
    x - I(x) / F(x)**(n-1) = (p scale A**(n-1) - horner_int(c) s**(n-1)) / (scale q A**(n-1)), with no gcd
    taken.  Where A = 0 the bid is x, (p, q).  No numerator or denominator row is formed.  An unreduced
    pair gives the same rational, with num and den g**((n-1) d + 1) times larger, so callers pass p/q in
    lowest terms.
    """
    k = n - 1
    pieces = [(nums, c_row, scale, s**k) for (nums, s), (c_row, scale)
              in zip(dist.int_rows, integral_coefficients(power_coefficients(dist, n), dist))]

    def ratio(p: int, q: int) -> tuple[int, int]:
        nums, c_row, scale, s_k = pieces[dist.piece_of(p, q)]
        a = horner_int(nums, p, q)
        if a == 0:  # left of the support or at its infimum, where continuity gives bid = x
            return p, q
        a_k = a**k
        return p * scale * a_k - horner_int(c_row, p, q) * s_k, scale * q * a_k

    return ratio


def canonical_bid_function(dist: PiecewisePolyCdf, n: int) -> RationalBidFunction:
    """Exact per-piece rational representation of the equilibrium bid."""
    power_rows = power_coefficients(dist, n)
    numer, denom = [], []
    for (b_row, b_scale), (c_row, scale) in zip(power_rows, integral_coefficients(power_rows, dist)):
        # numerator(x) = x * denominator(x) - integral(x), over the integral's scale, a multiple of b_scale;
        # left of the support both rows are zero, ((0,), 1), the identity piece
        up = scale // b_scale
        numer.append(([-c_row[0]] + [b * up - c for b, c in zip(b_row, c_row[1:])], scale))
        denom.append((b_row, b_scale))
    numer, denom = (PiecewisePoly.from_int_rows(dist.breakpoints, rows) for rows in (numer, denom))
    return RationalBidFunction(numer, denom, n)


def rbf_to_json(rbf: RationalBidFunction) -> dict:
    pieces = ["identity" if not any(denom) else
              {"numerator": [format_rational(c) for c in numer], "denominator": [format_rational(c) for c in denom]}
              for numer, denom in zip(rbf.numerator.rows, rbf.denominator.rows)]
    return {
        "kind": "rational_bid_function",
        "n": rbf.n,
        "support_infimum": format_rational(rbf.support_infimum),
        "breakpoints": [format_rational(b) for b in rbf.denominator.breakpoints],
        "pieces": pieces,
    }


def rbf_from_json(obj: dict) -> RationalBidFunction:
    if not isinstance(obj, dict) or obj.get("kind") != "rational_bid_function":
        raise DomainError("expected a rational_bid_function object")
    pieces = obj["pieces"]
    if not isinstance(pieces, list):
        raise DomainError(f"pieces must be a JSON array, got {pieces!r}")
    numer, denom = [], []
    for piece in pieces:
        if piece == "identity":
            numer.append((0,))
            denom.append((0,))
        elif isinstance(piece, dict):
            numer.append(parse_rational_list(piece["numerator"], "numerator"))
            denom.append(parse_rational_list(piece["denominator"], "denominator"))
        else:
            raise DomainError(f'a piece must be "identity" or a numerator/denominator object, got {piece!r}')
    bps = parse_rational_list(obj["breakpoints"], "breakpoints")
    if not (bps and bps[0] == 0 and bps[-1] == 1 and all(a < b for a, b in zip(bps, bps[1:]))):
        raise DomainError(f"breakpoints must increase strictly from 0 to 1, got {obj['breakpoints']!r}")
    n = parse_rational(obj["n"])
    if n.denominator != 1:
        raise DomainError(f"n must be an integer, got {obj['n']!r}")
    rbf = RationalBidFunction(PiecewisePoly(bps, numer), PiecewisePoly(bps, denom), int(n))
    if parse_rational(obj["support_infimum"]) != rbf.support_infimum:
        raise DomainError(f"support_infimum {obj['support_infimum']!r} is not the left end of the first piece "
                          "with a nonzero denominator, the first that is not the identity")
    return rbf


def eval_canonical(rbf: RationalBidFunction, x) -> Fraction:
    """Exact bid at x, and x itself wherever the denominator row is 0 at x: :func:`canonical_ratio` as one Fraction."""
    return Fraction(*canonical_ratio(rbf, x if isinstance(x, Fraction) else Fraction(x)))


def canonical_ratio(rbf: RationalBidFunction, x) -> tuple[int, int]:
    """(num, den) on ints with num / den the exact bid at a rational x, den > 0 where the cdf is valid.

    At x = p/q both rows run Horner on integers (:func:`poly.horner_int`); x
    itself, (p, q), wherever the denominator row is 0 at x.  No gcd is taken,
    so ``num / den`` is the correctly rounded float of the bid.  It serves a
    stored bid function: ``eval`` and ``verify`` of a strategy file and the
    float view's exact points; ``solve`` takes :func:`bid_ratio_evaluator`.
    """
    j = rbf.denominator.piece_index(x)
    (num_row, num_scale), (den_row, den_scale) = rbf.numerator.int_rows[j], rbf.denominator.int_rows[j]
    p, q = x.numerator, x.denominator
    den = horner_int(den_row, p, q)
    if den == 0:
        # an identity piece, or the removable singularity at the support
        # infimum, where continuity gives bid = x
        return p, q
    # numerator(x) / denominator(x) = (N / (num_scale q^a)) / (D / (den_scale q^b))
    num = horner_int(num_row, p, q) * den_scale
    den *= num_scale
    shift = len(den_row) - len(num_row)  # b - a
    if shift >= 0:
        return num * q**shift, den
    return num, den * q**-shift
