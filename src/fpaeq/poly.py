"""Dense univariate polynomials and piecewise polynomials over exact rationals.

Coefficient vectors are low-to-high degree: ``coeffs[l]`` multiplies ``x**l``.
:class:`PiecewisePoly` is the one place that decides which piece a point falls
in and how a piece is evaluated, exactly or in floats; its array float path
(:meth:`PiecewisePoly.float_pieces`, :func:`horner_floats`) also serves
rational bid functions.  The piece search runs on one float table: each inner
breakpoint is held as the largest float at or below it (:func:`float_below`),
so a bisection on any float x counts exactly the breakpoints below x, and a
rational x needs an exact comparison only where a breakpoint's table float is
within one float below x's nearest float.

A row is held once, as integer numerators over one denominator in lowest terms
(Knuth, TAOCP vol. 2, 4.6.1).  Horner's rule at x = p/q (:func:`horner_int`)
and the power of a row (:func:`power_int`, one big-int power by Kronecker
substitution) run on Python ints, and each result is normalised once, where
Fraction arithmetic would take a gcd per operation.  A row's Fractions are made
only to be read (:attr:`PiecewisePoly.rows`), as when they are printed; float
coefficients are the correctly rounded quotients of the integers.

:func:`nonnegative_on` decides on the same integers, exactly and without
sampling, whether a polynomial is >= 0 on an interval; a cdf piece is
nondecreasing iff its derivative is.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError


def int_row(row: Sequence) -> tuple[tuple[int, ...], int]:
    """A row of Fractions or ints as (numerators, L): row[l] == Fraction(numerators[l], L), L the lcm of the
    denominators, so the row is in lowest terms.  An empty row is the zero polynomial, ``((0,), 1)``.
    """
    scale = math.lcm(*(c.denominator for c in row))
    return tuple(c.numerator * (scale // c.denominator) for c in row) or (0,), scale


def float_below(x) -> float:
    """The largest float at or below the rational x: its correctly rounded float, less one ulp if that is above x."""
    p, q = x.numerator, x.denominator
    f = p / q
    a, c = f.as_integer_ratio()
    return math.nextafter(f, -math.inf) if a * q > p * c else f


def horner_int(nums: Sequence[int], p: int, q: int) -> int:
    """sum(nums[l] * p**l * q**(d - l)) with d = len(nums) - 1: q**d times the polynomial at p/q."""
    d = len(nums) - 1
    acc, qk = nums[d], 1
    for l in range(d - 1, -1, -1):
        qk *= q
        c = nums[l]
        acc = acc * p + c * qk if c else acc * p
    return acc


def power_int(nums: Sequence[int], k: int) -> list[int]:
    """The k * (len(nums) - 1) + 1 coefficients of the k-th power (k >= 1) of the integer polynomial nums.

    Kronecker substitution (Schoenhage 1982; Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symb. Comp.
    2009): the row is packed into one int, sum(nums[l] * R**l) with R = 2**(8B),
    and raised to the k-th power in one big-int operation.  No coefficient of
    the power exceeds (sum |nums[l]|)**k in absolute value, and the B-byte slots
    hold that bound with two bits to spare, so slot l of the power holds
    coefficient l less a borrow of 1 where the coefficients below it sum to a
    negative number.  One signed ``to_bytes``, byte slices and a carry recover
    the coefficients.
    """
    size = k * (len(nums) - 1) + 1
    width = ((sum(map(abs, nums)) ** k).bit_length() + 2 + 7) // 8  # B, in bytes
    shift = 8 * width
    packed = 0
    for c in reversed(nums):
        packed = (packed << shift) + c
    raw = (packed**k).to_bytes(size * width, "little", signed=True)
    full, half = 1 << shift, 1 << (shift - 1)
    out, carry = [], 0
    for i in range(0, size * width, width):
        v = int.from_bytes(raw[i : i + width], "little") + carry
        # v is the coefficient modulo R; it lies in [0, R], and |coefficient| < R/4
        carry = v >= half
        out.append(v - full if carry else v)
    return out


def poly_derivative(coeffs: Sequence) -> list:
    return [l * c for l, c in enumerate(coeffs)][1:] or [0]


def _trim(a: list[int]) -> list[int]:
    """Drop zero leading coefficients in place; the zero polynomial becomes []."""
    while a and not a[-1]:
        a.pop()
    return a


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of a by b (b nonzero and trimmed), with coprime coefficients.

    Each step scales a by |lc(b)| / g, which is positive, before it cancels
    the leading term, so the result has the sign of the true remainder at
    every point: a sign-correct pseudo-remainder.
    """
    a, lb = _trim(list(a)), b[-1]
    while len(a) >= len(b):
        la, shift = a[-1], len(a) - len(b)
        g = math.gcd(la, lb)
        ka, kb = abs(lb) // g, (la if lb > 0 else -la) // g  # ka * la == kb * lb
        a = [ka * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= kb * c
        _trim(a)
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _sign_beside(f: Sequence[int], x: Fraction, side: int) -> int:
    """Sign of the nonzero polynomial f just right of x (side 1) or just left of it (side -1).

    That is the sign of the first derivative of f that does not vanish at x,
    times side to the order of that derivative.
    """
    p, q, flip = x.numerator, x.denominator, 1
    while True:
        v = horner_int(f, p, q)
        if v:
            return flip if v > 0 else -flip
        f, flip = poly_derivative(f), flip * side


def nonnegative_on(f: Sequence[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether the polynomial with integer coefficients f is >= 0 on all of [lo, hi], for rationals lo < hi.

    A nonzero f is >= 0 there iff it is positive just right of lo and changes
    sign nowhere in (lo, hi), that is, has no root of odd multiplicity there.
    A root of multiplicity m is a root of g_k for k < m, where g_0 = f and
    g_(k+1) = gcd(g_k, g_k'), so the number of sign changes is the alternating
    sum over k of the number of distinct roots of g_k in (lo, hi): the Tarski
    query TaQ(1, g_k), counted by Sturm's theorem from the signed remainder
    sequence of g_k and g_k', whose last term is g_(k+1) (Basu, Pollack and
    Roy, Algorithms in Real Algebraic Geometry, ch. 2).  Signs are taken just
    inside [lo, hi], so a root on an endpoint counts for nothing.
    """
    f = _trim(list(f))
    if not f:
        return True
    if _sign_beside(f, lo, 1) < 0:
        return False
    changes, weight = 0, 1
    while len(f) > 1:
        seq, r = [f], _trim(poly_derivative(f))
        while r:
            seq.append(r)
            r = [-c for c in _prem(seq[-2], r)]
        for x, side, w in ((lo, 1, weight), (hi, -1, -weight)):
            signs = [_sign_beside(g, x, side) for g in seq]
            changes += w * sum(s != t for s, t in zip(signs, signs[1:]))
        f, weight = seq[-1], -weight
    return changes == 0


@dataclass(frozen=True, init=False)
class PiecewisePoly:
    """Polynomial ``rows[j]`` on piece j = [breakpoints[j], breakpoints[j+1]], inside [0, 1].

    A point on a shared breakpoint belongs to the piece on its left, and the
    outer pieces extend to 0 and 1.  Rows keep their own lengths and are
    stored only as ``int_rows``, in lowest terms as :func:`int_row` gives them;
    equality and hashing compare these and the breakpoints.  The piece lookup
    assumes nondecreasing breakpoints, which every valid cdf, bid function and
    jump-point strategy has.
    """

    breakpoints: tuple[Fraction, ...]
    int_rows: tuple[tuple[tuple[int, ...], int], ...]
    _inner: tuple[float, ...] = field(repr=False, compare=False)  # float_below of each inner breakpoint

    def __init__(self, breakpoints: Sequence, rows: Sequence[Sequence]):
        """From rows of Fractions or ints, low-to-high degree."""
        self._check_widths(map(len, rows))
        self._set(breakpoints, [int_row(row) for row in rows])

    @classmethod
    def from_int_rows(cls, breakpoints: Sequence, int_rows: Sequence[tuple[Sequence[int], int]]):
        """From integer rows (nums, scale) with scale > 0, each put in lowest terms by one gcd."""
        self, rows = cls.__new__(cls), []
        self._check_widths(len(nums) for nums, _ in int_rows)
        for nums, scale in int_rows:
            g = math.gcd(scale, *nums)
            rows.append(((tuple(c // g for c in nums) if g > 1 else tuple(nums)) or (0,), scale // g))
        self._set(breakpoints, rows)
        return self

    def _check_widths(self, widths) -> None:
        """Hook on the row lengths, which both constructors call before they convert anything."""

    def _set(self, breakpoints: Sequence, int_rows: list) -> None:
        """Store the breakpoints and the integer rows, which are in lowest terms; both constructors end here."""
        breakpoints = tuple(b if b.__class__ is Fraction else Fraction(b) for b in breakpoints)
        if not int_rows or len(breakpoints) != len(int_rows) + 1:
            raise DomainError("need one or more pieces, with exactly one coefficient row per piece")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "int_rows", tuple(int_rows))
        object.__setattr__(self, "_inner", tuple(map(float_below, breakpoints[1:-1])))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fractions, made from :attr:`int_rows` at each read."""
        return tuple(tuple(Fraction(c, scale) for c in nums) for nums, scale in self.int_rows)

    @property
    def pieces(self) -> int:
        return len(self.int_rows)

    @property
    def degree(self) -> int:
        return max(len(nums) for nums, _ in self.int_rows) - 1

    def piece_index(self, x) -> int:
        """Index j of the piece that evaluates a rational x: bisect_left - 1, clipped to the pieces.

        That is the number of inner breakpoints below x.  The bisection runs
        on the float table the float paths search, each breakpoint's
        :func:`float_below`.  With fx the float nearest x, a breakpoint whose
        table float is below the float before fx is below x, and one whose
        table float is above fx is above x; only the table floats equal to
        fx or to the float before it are settled by an exact comparison.
        """
        p, q = x.numerator, x.denominator
        if p < 0 or p > q:
            raise DomainError(f"x={x} outside [0, 1]")
        fx, inner = p / q, self._inner
        j = bisect.bisect_left(inner, math.nextafter(fx, -math.inf))
        while j < len(inner) and inner[j] <= fx and x > self.breakpoints[j + 1]:
            j += 1
        return j

    def row_value(self, j: int, x: Fraction) -> Fraction:
        """Exact value of row j at x."""
        nums, scale = self.int_rows[j]
        q = x.denominator
        return Fraction(horner_int(nums, x.numerator, q), scale * q ** (len(nums) - 1))

    def __call__(self, x) -> Fraction:
        """Exact value at x (converted to a Fraction)."""
        x = x if isinstance(x, Fraction) else Fraction(x)
        return self.row_value(self.piece_index(x), x)

    def grid_values(self, K: int) -> tuple[list[int], int]:
        """(nums, den) with self(j/K) == Fraction(nums[j], den) for j = 0..K, on ints.

        den is the lcm of the row scales times K**d, d the highest degree of
        the rows.  One walk through the pieces gives each piece the grid
        points up to its right breakpoint, so a point on a breakpoint goes to
        the left piece, as in :meth:`piece_index`; the last piece takes the rest.
        """
        d = self.degree
        lcm = math.lcm(*(scale for _, scale in self.int_rows))
        ends = [b.numerator * K // b.denominator for b in self.breakpoints[1:-1]] + [K]
        out: list[int] = []
        for (nums, scale), end in zip(self.int_rows, ends):
            m = lcm // scale * K ** (d + 1 - len(nums))
            out.extend(horner_int(nums, j, K) * m for j in range(len(out), end + 1))
        return out, lcm * K**d

    def float_evaluator(self) -> Callable:
        """Float evaluator with the same piece rule, for a float or a numpy array of floats.

        An array runs :func:`horner_floats`.  A scalar runs the same operations,
        in the same order, in pure Python, so both give the same bits: numpy's
        per-call overhead would dominate the scalar searches.
        """
        inner, table = self._inner, float_table(self.int_rows)  # bisect_left over inner is the piece
        rows, bisect_left = table.T.tolist(), bisect.bisect_left

        def ev(x):
            # the exact-class test keeps a Python float off the slower isinstance check
            if x.__class__ is not float and isinstance(x, np.ndarray):
                x = np.asarray(x, dtype=float)
                return horner_floats(table, self.float_pieces(x), x)
            if not 0.0 <= x <= 1.0:
                raise DomainError(f"x={x} outside [0, 1]")
            acc = 0.0
            for c in rows[bisect_left(inner, x)]:
                acc = acc * x + c
            return acc

        return ev

    def float_pieces(self, x: np.ndarray) -> np.ndarray:
        """The piece of each float in x, by the same rule as :meth:`piece_index`; DomainError unless all of x is in [0, 1]."""
        if not ((x >= 0) & (x <= 1)).all():  # a NaN fails too
            raise DomainError("x outside [0, 1]")
        return np.searchsorted(self._inner, x)


def float_table(int_rows: Sequence[tuple[Sequence[int], int]]) -> np.ndarray:
    """Float coefficients of integer rows (nums, scale) for :func:`horner_floats`: column j is row j, highest degree first.

    Each is the correctly rounded quotient of its integers (OverflowError beyond the float range).  Leading
    zeros pad the shorter rows; they leave Horner's accumulator at +0.0, so padding changes no bit.
    """
    width = max(len(nums) for nums, _ in int_rows)
    return np.array([[0.0] * (width - len(nums)) + [c / scale for c in reversed(nums)] for nums, scale in int_rows]).T


def horner_floats(table: np.ndarray, piece: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row piece[i] of a :func:`float_table` at x[i], by Horner's rule elementwise in numpy."""
    acc = np.zeros(x.shape)
    for coeffs in table:  # one coefficient gathered at a time keeps the work memory at a few arrays of x's size
        acc *= x
        acc += coeffs[piece]
    return acc
