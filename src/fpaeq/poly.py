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
and at its true degree, with no zero leading coefficient (Knuth, TAOCP vol. 2,
4.6.1); the zero polynomial is ``(0,)``.  Horner's rule at x = p/q
(:func:`horner_int`, whose powers of q cost shifts at dyadic points) and the
power of a row (:func:`power_int`, by J. C. P. Miller's recurrence) run on
Python ints, and each result is normalised once, where Fraction arithmetic
would take a gcd per operation.  A row's Fractions are made
only to be read (:attr:`PiecewisePoly.rows`), as when they are printed; float
coefficients are the correctly rounded quotients of the integers.  The batch
query on the grid j/K (:meth:`PiecewisePoly.grid_values`) tabulates each piece
by forward differences (TAOCP vol. 2, 4.6.4): Horner's rule at the first
e + 1 points of a row of degree e, then e integer additions per point, exact
on ints where in floats their errors would grow along the piece.

:func:`nonnegative_on` decides on the same integers, exactly and without
sampling, whether a polynomial is >= 0 on an interval; a cdf piece is
nondecreasing iff its derivative is.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError


def _trim(a: list[int]) -> list[int]:
    """Drop zero leading coefficients in place; the zero polynomial becomes []."""
    while a and not a[-1]:
        a.pop()
    return a


def int_row(row: Sequence) -> tuple[tuple[int, ...], int]:
    """A row of Fractions or ints as (numerators, L): row[l] == Fraction(numerators[l], L), L the lcm of the
    denominators, so the row is in lowest terms, and at its true degree: trailing zeros are dropped.  The
    zero polynomial, an empty row among them, is ``((0,), 1)``.
    """
    scale = math.lcm(*(c.denominator for c in row))
    return tuple(_trim([c.numerator * (scale // c.denominator) for c in row])) or (0,), scale


def float_below(x) -> float:
    """The largest float at or below the rational x: its correctly rounded float, less one ulp if that is above x."""
    p, q = x.numerator, x.denominator
    f = p / q
    a, c = f.as_integer_ratio()
    return math.nextafter(f, -math.inf) if a * q > p * c else f


def horner_int(nums: Sequence[int], p: int, q: int) -> int:
    """sum(nums[l] * p**l * q**(d - l)) with d = len(nums) - 1: q**d times the polynomial at p/q.

    With q = r * 2**e, r odd, q**j is r**j shifted by e * j bits: at a dyadic point, a float or i / 2**e, a shift.
    """
    e = (q & -q).bit_length() - 1
    r, d = q >> e, len(nums) - 1
    acc, rk, shift = nums[d], 1, 0
    for l in range(d - 1, -1, -1):
        rk *= r
        shift += e
        c = nums[l]
        acc = acc * p + ((c * rk) << shift) if c else acc * p
    return acc


def power_int(nums: Sequence[int], k: int) -> list[int]:
    """The k * (len(nums) - 1) + 1 coefficients of the k-th power (k >= 1) of the integer polynomial nums.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with the row
    written x**s * g, g_0 != 0, and P = g**k, P_0 = g_0**k and
    m * g_0 * P_m = sum(((k + 1) * i - m) * g_i * P_(m-i) for i = 1..min(m, deg g)),
    whose division is exact on ints.  Each term is a small-times-big product,
    where the power by repeated products multiplies big by big.
    """
    size, g = k * (len(nums) - 1) + 1, _trim(list(nums))
    if not g:
        return [0] * size
    s = next(i for i, c in enumerate(g) if c)
    g = g[s:]
    g0, d, P = g[0], len(g) - 1, [g[0] ** k]
    for m in range(1, k * d + 1):
        acc = sum(((k + 1) * i - m) * g[i] * P[m - i] for i in range(1, min(m, d) + 1))
        P.append(acc // (m * g0))
    return [0] * (s * k) + P + [0] * (size - s * k - len(P))


def poly_derivative(coeffs: Sequence) -> list:
    return [l * c for l, c in enumerate(coeffs)][1:] or [0]


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
    outer pieces extend to 0 and 1.  Rows are stored only as ``int_rows``,
    each in lowest terms and at its true degree, as :func:`int_row` gives
    them; equality and hashing compare these and the breakpoints.  The piece lookup
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
        """From integer rows (nums, scale) with scale > 0: trailing zeros dropped, each in lowest terms by one gcd."""
        self, rows = cls.__new__(cls), []
        self._check_widths(len(nums) for nums, _ in int_rows)
        for nums, scale in int_rows:
            nums = _trim(list(nums))
            g = math.gcd(scale, *nums)
            rows.append(((tuple(c // g for c in nums) if g > 1 else tuple(nums)) or (0,), scale // g))
        self._set(breakpoints, rows)
        return self

    def _check_widths(self, widths) -> None:
        """Hook on the row lengths, which both constructors call before they convert anything."""

    def _set(self, breakpoints: Sequence, int_rows: list) -> None:
        """Store the breakpoints and the integer rows, which are in the row form above; both constructors end here."""
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

    def support_infimum(self) -> Fraction:
        """Left end of the first piece whose row is not zero: for a cdf, whose pieces are nondecreasing, the
        largest x with F(x) = 0, and the same point for the denominator rows F_j**(n-1) of its bid function."""
        for b, (nums, _) in zip(self.breakpoints, self.int_rows):
            if any(nums):
                return b
        raise DomainError("every row is zero: there is no support infimum")

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

        A piece is tabulated by forward differences (Knuth, TAOCP vol. 2,
        4.6.4): a row of true degree e takes :func:`horner_int` at its first
        e + 1 grid points only, and e chained running sums rebuild every
        point from the top edge of their difference table, e integer
        additions per point.  On ints the additions are exact, so no error
        grows along the piece.  A piece of s <= e + 1 points takes s seeds and
        the same s - 1 sums, which give back the seeds.
        """
        d = self.degree
        lcm = math.lcm(*(scale for _, scale in self.int_rows))
        ends = [b.numerator * K // b.denominator for b in self.breakpoints[1:-1]] + [K]
        out: list[int] = []
        for (nums, scale), end in zip(self.int_rows, ends):
            count = end + 1 - len(out)
            if count <= 0:
                continue
            m = lcm // scale * K ** (d + 1 - len(nums))
            row = [horner_int(nums, j, K) * m for j in range(len(out), len(out) + min(len(nums), count))]
            edge = []  # edge[k]: the k-th forward difference of the seeds at the piece's first grid point
            while row:
                edge.append(row[0])
                row = [b - a for a, b in zip(row, row[1:])]
            vals = repeat(edge[-1], count + 1 - len(edge))
            for delta in reversed(edge[:-1]):
                vals = accumulate(vals, initial=delta)
            out.extend(vals)
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

    def float_thresholds(self, y: np.ndarray) -> np.ndarray | None:
        """sup {x : float view at x <= y} over floats x in [0, 1], elementwise, if the rows are nondecreasing constants (a
        jump-point strategy's), else None: 0 below every row, 1 at or above the last, else the end of the last row <= y."""
        if self.degree or (np.diff(levels := float_table(self.int_rows)[0]) < 0).any():
            return None
        return np.array([0.0, *self._inner, 1.0])[np.searchsorted(levels, y, side="right")]


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
