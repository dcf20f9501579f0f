"""Dense univariate polynomials and piecewise polynomials over exact rationals.

Coefficient vectors are low-to-high degree: ``coeffs[l]`` multiplies ``x**l``.
:class:`PiecewisePoly` is the one place that decides which piece a point falls
in and how a piece is evaluated, exactly or in floats.  The piece search runs
on one float table: each inner breakpoint is held as the largest float at or
below it (:func:`float_bounds`), so a bisection on any float x counts exactly
the breakpoints below x, and a rational x needs an exact comparison only where
a breakpoint's table float is within one float below x's nearest float.  The float rows come with Horner's
a-priori error bound in one method, :meth:`PiecewisePoly.float_bounded`, on
arrays: the float view of a rational bid function is its one caller.  The
scalar float view runs on Python lists (:func:`float_rows`) and calls no numpy.
No other module builds or runs float rows.  Each float form is a closure that a
caller asks for once and then reads: the float view
(:meth:`PiecewisePoly.float_evaluator`), :meth:`PiecewisePoly.float_bounded`,
and a step function's thresholds (:meth:`PiecewisePoly.float_thresholds`, None
unless the rows are nondecreasing constants).

A row is held once, as integer numerators over one denominator in lowest terms
and at its true degree, with no zero leading coefficient (Knuth, TAOCP vol. 2,
4.6.1); the zero polynomial is ``(0,)``.  Horner's rule at x = p/q
(:func:`horner_int`) and the power of a row (:func:`power_int`, by J. C. P.
Miller's recurrence) run on Python ints, and each result is normalised once,
where Fraction arithmetic would take a gcd per operation.  At a dyadic point,
q = 2**e, Horner adds each coefficient shifted, with no product by a power of
q; Miller's recurrence runs each coefficient's sum as a plain loop over the
row's nonzero terms, with their weights computed once per power.  A row's Fractions are made
only to be read (:attr:`PiecewisePoly.rows`), as when they are printed; float
coefficients are the correctly rounded quotients of the integers.  The batch
query on the grid j/K (:meth:`PiecewisePoly.grid_values`) tabulates each piece
by forward differences (TAOCP vol. 2, 4.6.4): Horner's rule at the first
e + 1 points of a row of degree e, then e integer additions per point, exact
on ints where in floats their errors would grow along the piece.  It is a
stream of the K + 1 numerators, each made as it is read, with no table.

:func:`nonnegative_on` decides on the same integers, exactly and without
sampling, whether a polynomial is >= 0 on an interval; a cdf piece is
nondecreasing iff its derivative is.  One count of sign variations by
Descartes' rule, after the interval is mapped onto (0, oo), decides a piece
with no root inside or one simple root; any other piece falls back to Sturm
sequences.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Callable, Iterator, Sequence

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


def float_bounds(p: int, q: int) -> tuple[float, float]:
    """The largest float at or below p/q, q > 0, and the smallest at or above it, p/q twice where it is a float:
    its correctly rounded float and the float one ulp beyond it on p/q's side.  The pair need not be in lowest
    terms, and a Fraction, an int or a float x gives it as ``x.as_integer_ratio()``."""
    f = p / q
    a, c = f.as_integer_ratio()
    if a * q > p * c:
        return math.nextafter(f, -math.inf), f
    return f, (f if a * q == p * c else math.nextafter(f, math.inf))


def horner_int(nums: Sequence[int], p: int, q: int) -> int:
    """sum(nums[l] * p**l * q**(d - l)) with d = len(nums) - 1: q**d times the polynomial at p/q.

    With q = r * 2**e, r odd, q**j is r**j shifted by e * j bits: at a dyadic point, a float or i / 2**e, where
    r = 1, each coefficient is shifted and multiplied by nothing.
    """
    e = (q & -q).bit_length() - 1
    r, acc, shift = q >> e, nums[-1], 0
    if r == 1:
        for c in nums[-2::-1]:
            shift += e
            acc = acc * p + (c << shift) if c else acc * p
        return acc
    rk = 1
    for c in nums[-2::-1]:
        rk *= r
        shift += e
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
    terms = [(i, (k + 1) * i, c) for i, c in enumerate(g) if i and c]  # the nonzero g_i, i >= 1, in order
    for m in range(1, k * d + 1):
        acc = 0
        for i, w, c in terms:
            if i > m:
                break
            acc += (w - m) * c * P[m - i]
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


def _taylor_shift(a: list[int], c: int) -> list[int]:
    """The row of f(x + c) from the row a of f, in place: Horner's synthetic division repeated (Knuth, TAOCP
    vol. 2, 4.6.4), d (d + 1) / 2 steps for degree d."""
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _descartes_image(f: list[int], lo: Fraction, hi: Fraction) -> list[int]:
    """A positive multiple of g(t) = (1 + t)**d f((hi + lo t) / (1 + t)), d = deg f, for rationals lo < hi.

    t in (0, oo) maps onto x in (lo, hi), so g's roots there are f's roots in
    (lo, hi), with their multiplicities.  With lo = A/D, hi = C/D and
    y = 1 / (1 + t), x = (A + (C - A) y) / D: the row is scaled to z = D x,
    shifted by A, scaled by C - A, reversed (y to 1 / y) and shifted by 1,
    all on ints, which gives D**d g.
    """
    D = math.lcm(lo.denominator, hi.denominator)
    A, C, d = lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator), len(f) - 1
    a = [c * D ** (d - l) for l, c in enumerate(f)]
    if A:
        _taylor_shift(a, A)
    return _taylor_shift([c * (C - A) ** l for l, c in enumerate(a)][::-1], 1)


def _sturm_changes(f: list[int], lo: Fraction, hi: Fraction) -> int:
    """The number of sign changes of the nonzero trimmed f in (lo, hi), by Sturm sequences of the chain g_k.

    A root of multiplicity m is a root of g_k for k < m, where g_0 = f and
    g_(k+1) = gcd(g_k, g_k'), so the number of sign changes is the alternating
    sum over k of the number of distinct roots of g_k in (lo, hi): the Tarski
    query TaQ(1, g_k), counted by Sturm's theorem from the signed remainder
    sequence of g_k and g_k', whose last term is g_(k+1) (Basu, Pollack and
    Roy, Algorithms in Real Algebraic Geometry, ch. 2).  Signs are taken just
    inside [lo, hi], so a root on an endpoint counts for nothing.
    """
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
    return changes


def nonnegative_on(f: Sequence[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether the polynomial with integer coefficients f is >= 0 on all of [lo, hi], for rationals lo < hi.

    A nonzero f is >= 0 there iff it has no root in (lo, hi) and is positive
    inside, or is positive just right of lo and changes sign nowhere in
    (lo, hi), that is, has no root of odd multiplicity there.

    One count of sign variations decides most pieces.  By Descartes' rule of
    signs the variations V of the coefficients of :func:`_descartes_image`
    exceed the number of roots of f in (lo, hi), counted with multiplicity, by
    an even number (Collins and Akritas, "Polynomial real root isolation using
    Descartes' rule of signs", SYMSAC 1976).  V = 0: there is no root inside,
    and f has the sign of those coefficients there.  V = 1: there is one
    simple root inside, where f changes sign.  From V = 2 on, the Sturm count
    of :func:`_sturm_changes` decides.  A root on an end counts for nothing
    in either.
    """
    f = _trim(list(f))
    if not f:
        return True
    signs = [c > 0 for c in _descartes_image(f, lo, hi) if c]
    variations = sum(s != t for s, t in zip(signs, signs[1:]))
    if variations < 2:
        return variations == 0 and signs[0]
    return _sign_beside(f, lo, 1) > 0 and _sturm_changes(f, lo, hi) == 0


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
    _inner: tuple[float, ...] = field(repr=False, compare=False)  # the float at or below each inner breakpoint

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

    @classmethod
    def _check_widths(cls, widths) -> None:
        """Hook on the row lengths, which both constructors call before they convert anything."""

    def _set(self, breakpoints: Sequence, int_rows: list) -> None:
        """Store the breakpoints and the integer rows, which are in the row form above; both constructors end here."""
        breakpoints = tuple(b if b.__class__ is Fraction else Fraction(b) for b in breakpoints)
        if not int_rows or len(breakpoints) != len(int_rows) + 1:
            raise DomainError("need one or more pieces, with exactly one coefficient row per piece")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "int_rows", tuple(int_rows))
        object.__setattr__(self, "_inner", tuple(float_bounds(*b.as_integer_ratio())[0] for b in breakpoints[1:-1]))

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
        on the float table the float paths search, the largest float at or
        below each breakpoint (:func:`float_bounds`).  With fx the float
        nearest x, a breakpoint whose table float is below the float before
        fx is below x, and one whose table float is above fx is above x; only
        the table floats equal to fx or to the float before it are settled by
        an exact comparison.
        """
        return self.piece_of(x.numerator, x.denominator)

    def piece_of(self, p: int, q: int) -> int:
        """:meth:`piece_index` of x = p/q, q > 0, with the exact comparisons cross-multiplied on ints."""
        if p < 0 or p > q:
            raise DomainError(f"x={Fraction(p, q)} outside [0, 1]")
        fx, inner, bps = p / q, self._inner, self.breakpoints
        j = bisect.bisect_left(inner, math.nextafter(fx, -math.inf))
        while j < len(inner) and inner[j] <= fx and p * bps[j + 1].denominator > bps[j + 1].numerator * q:
            j += 1
        return j

    def support_infimum(self) -> Fraction:
        """Left end of the first piece whose row is not zero: for a cdf, whose pieces are nondecreasing, the
        largest x with F(x) = 0."""
        for b, (nums, _) in zip(self.breakpoints, self.int_rows):
            if any(nums):
                return b
        raise DomainError("every row is zero: there is no support infimum")

    def row_ratio(self, j: int, p: int, q: int) -> tuple[int, int]:
        """Row j at x = p/q, q > 0, as (num, den), den > 0, with no gcd taken: Horner's rule on ints."""
        nums, scale = self.int_rows[j]
        return horner_int(nums, p, q), scale * q ** (len(nums) - 1)

    def __call__(self, x) -> Fraction:
        """Exact value at x (converted to a Fraction)."""
        x = x if isinstance(x, Fraction) else Fraction(x)
        return Fraction(*self.row_ratio(self.piece_index(x), x.numerator, x.denominator))

    def grid_values(self, K: int) -> tuple[Iterator[int], int]:
        """(values, den) with self(j/K) == Fraction(v_j, den), where values yields the ints v_0, ..., v_K.

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

        values is a stream, the pieces' chained sums joined by
        :func:`itertools.chain`: the seeds are computed at the call, and each
        later numerator only when it is read, so no list of the K + 1
        numerators is built and a caller can sum them as they arrive.
        """
        d = self.degree
        lcm = math.lcm(*(scale for _, scale in self.int_rows))
        ends = [b.numerator * K // b.denominator for b in self.breakpoints[1:-1]] + [K]
        pieces, start = [], 0  # start: the first grid point no piece has taken
        for (nums, scale), end in zip(self.int_rows, ends):
            count = end + 1 - start
            if count <= 0:
                continue
            m = lcm // scale * K ** (d + 1 - len(nums))
            row = [horner_int(nums, j, K) * m for j in range(start, start + min(len(nums), count))]
            edge = []  # edge[k]: the k-th forward difference of the seeds at the piece's first grid point
            while row:
                edge.append(row[0])
                row = [b - a for a, b in zip(row, row[1:])]
            vals = repeat(edge[-1], count + 1 - len(edge))
            for delta in reversed(edge[:-1]):
                vals = accumulate(vals, initial=delta)
            pieces.append(vals)
            start = end + 1
        return chain(*pieces), lcm * K**d

    def float_evaluator(self) -> Callable:
        """Float evaluator with the same piece rule, for a float or a numpy array of floats.

        An array runs :func:`horner_floats`.  A scalar runs the same operations,
        in the same order, in pure Python on :func:`float_rows`, so both give the
        same bits: numpy's per-call overhead would dominate the scalar searches.
        """
        inner, rows, bisect_left = self._inner, float_rows(self.int_rows), bisect.bisect_left
        table = None  # float_table(rows), built at the first array

        def ev(x):
            nonlocal table
            # the exact-class test keeps a Python float off the slower isinstance check
            if x.__class__ is not float and isinstance(x, np.ndarray):
                x, table = np.asarray(x, dtype=float), table if table is not None else float_table(rows)
                return horner_floats(table, self.float_pieces(x), x)
            if not 0.0 <= x <= 1.0:
                raise DomainError(f"x={x} outside [0, 1]")
            acc = 0.0
            for c in rows[bisect_left(inner, x)]:
                acc = acc * x + c
            return acc

        return ev

    def float_bounded(self) -> Callable:
        """Horner's rule on the float rows and its one a-priori error bound: (value, bound) at a numpy array x of
        floats in [0, 1] with piece, its :meth:`float_pieces`.  The bound on |value - exact value| is gamma_k times
        the absolute row sum |c_l| x**l (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), k = 2d + 2
        for degree d: Horner's 2d roundings, each coefficient's and the absolute row's own (:func:`gamma_k`), plus
        k * 2**-1074 for underflow.  Both run :func:`horner_floats`.  A coefficient beyond the float range raises
        OverflowError from this call.
        """
        rows = float_rows(self.int_rows)
        # rounding to nearest is symmetric, so |float(c)| is the float of |c|
        values, sizes = float_table(rows), float_table([[abs(c) for c in row] for row in rows])
        k = 2 * max(map(len, rows))
        gamma, tiny = gamma_k(k), k * 2.0**-1074
        return lambda x, piece: (horner_floats(values, piece, x), gamma * horner_floats(sizes, piece, x) + tiny)

    def float_pieces(self, x: np.ndarray) -> np.ndarray:
        """The piece of each float in x, by the same rule as :meth:`piece_index`; DomainError unless all of x is in [0, 1]."""
        if not ((x >= 0) & (x <= 1)).all():  # a NaN fails too
            raise DomainError("x outside [0, 1]")
        return np.searchsorted(self._inner, x)

    def float_thresholds(self) -> Callable | None:
        """None unless the rows are nondecreasing constants (a jump-point strategy's), else the closure y |-> sup {x :
        float view at x <= y} over floats x in [0, 1], elementwise: 0 below every row, 1 at or above the last, else the
        end of the last row <= y.  The levels, each row's float nums[0] / scale, and the ends are built once, here."""
        levels = None if self.degree else np.array([nums[0] / scale for nums, scale in self.int_rows])
        if levels is None or (np.diff(levels) < 0).any():
            return None
        ends = np.array([0.0, *self._inner, 1.0])
        return lambda y: ends[np.searchsorted(levels, y, side="right")]


def float_rows(int_rows: Sequence[tuple[Sequence[int], int]]) -> list[list[float]]:
    """Float coefficients of integer rows (nums, scale), highest degree first, one list per row: each the correctly
    rounded quotient of its integers (OverflowError beyond the float range)."""
    return [[c / scale for c in reversed(nums)] for nums, scale in int_rows]


def float_table(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """:func:`float_rows` for :func:`horner_floats`: column j is row j.  Leading zeros pad the shorter rows; they
    leave Horner's accumulator at +0.0, so padding changes no bit."""
    width = max(map(len, rows))
    return np.array([[0.0] * (width - len(row)) + row for row in rows]).T


def gamma_k(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53: k roundings to nearest, k u < 1, move a float by a
    relative gamma_k at most (Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def horner_floats(table: np.ndarray, piece: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row piece[i] of a :func:`float_table` at x[i], by Horner's rule elementwise in numpy."""
    acc = np.zeros(x.shape)
    for coeffs in table:  # one coefficient gathered at a time keeps the work memory at a few arrays of x's size
        acc *= x
        acc += coeffs[piece]
    return acc
