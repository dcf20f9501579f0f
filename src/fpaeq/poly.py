"""Dense univariate polynomials and piecewise polynomials over exact rationals.

Coefficient vectors are low-to-high degree: ``coeffs[l]`` multiplies ``x**l``.
The helpers work with any field that supports +, * and / (Fraction, float).
:class:`PiecewisePoly` is the one place that decides which piece a point falls
in and how a piece is evaluated, exactly or in floats.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

ZERO = Fraction(0)
ONE = Fraction(1)


def poly_eval(coeffs: Sequence, x):
    """Evaluate a polynomial with Horner's rule."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a: Sequence, b: Sequence) -> list:
    """Coefficient convolution: (a * b)(x) = a(x) * b(x)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_derivative(coeffs: Sequence) -> list:
    return [l * c for l, c in enumerate(coeffs)][1:] or [Fraction(0)]


def poly_antiderivative(coeffs: Sequence) -> list:
    """Antiderivative with zero constant term."""
    return [Fraction(0)] + [Fraction(c, 1) / (l + 1) for l, c in enumerate(coeffs)]


def is_zero_poly(coeffs: Sequence) -> bool:
    return all(c == 0 for c in coeffs)


@dataclass(frozen=True)
class PiecewisePoly:
    """Polynomial ``rows[j]`` on piece j = [breakpoints[j], breakpoints[j+1]], inside [0, 1].

    A point on a shared breakpoint belongs to the piece on its left, and the
    outer pieces extend to 0 and 1.  Rows keep their own lengths.
    """

    breakpoints: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(Fraction(b) for b in self.breakpoints))
        object.__setattr__(self, "rows", tuple(tuple(Fraction(c) for c in row) for row in self.rows))
        if not self.rows or len(self.breakpoints) != len(self.rows) + 1:
            raise DomainError("need one or more pieces, with exactly one coefficient row per piece")

    @property
    def pieces(self) -> int:
        return len(self.rows)

    @property
    def degree(self) -> int:
        return max(len(row) for row in self.rows) - 1

    def piece_index(self, x) -> int:
        """Index j of the piece that evaluates x: bisect_left - 1, clipped to the pieces."""
        if not ZERO <= x <= ONE:
            raise DomainError(f"x={x} outside [0, 1]")
        j = bisect.bisect_left(self.breakpoints, x) - 1
        return min(max(j, 0), self.pieces - 1)

    def __call__(self, x) -> Fraction:
        """Exact value at x (converted to a Fraction)."""
        x = x if isinstance(x, Fraction) else Fraction(x)
        return poly_eval(self.rows[self.piece_index(x)], x)

    def float_evaluator(self) -> Callable:
        """Float evaluator with the same piece rule, for a float or a numpy array of floats.

        A scalar runs Horner in pure Python: numpy's per-call overhead would
        dominate the scalar searches.  An array runs the same operations, in
        the same order, elementwise in numpy, so both give the same bits.
        """
        inner = [float(b) for b in self.breakpoints[1:-1]]  # bisect_left over these is the piece
        rows = [tuple(float(c) for c in reversed(row)) for row in self.rows]  # highest degree first
        width = max(len(row) for row in rows)
        inner_arr = np.array(inner)
        # leading zeros leave Horner's accumulator at +0.0, so padding changes no bit
        table = np.array([(0.0,) * (width - len(row)) + row for row in rows])
        bisect_left = bisect.bisect_left

        def ev(x):
            # the exact-class test keeps a Python float off the slower isinstance check
            if x.__class__ is not float and isinstance(x, np.ndarray):
                x = np.asarray(x, dtype=float)
                if not ((x >= 0) & (x <= 1)).all():
                    raise DomainError("x outside [0, 1]")
                coeffs = table[np.searchsorted(inner_arr, x)]
                acc = np.zeros(x.shape)
                for k in range(width):
                    acc = acc * x + coeffs[..., k]
                return acc
            if not 0.0 <= x <= 1.0:
                raise DomainError(f"x={x} outside [0, 1]")
            acc = 0.0
            for c in rows[bisect_left(inner, x)]:
                acc = acc * x + c
            return acc

        return ev
