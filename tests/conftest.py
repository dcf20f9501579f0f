import math
import random
from fractions import Fraction as F

import pytest

from fpaeq import PiecewisePolyCdf, make_adversarial_cdf, power_cdf, uniform_cdf
from fpaeq.discrete import _delta_ratio
from fpaeq.rationals import format_rational


@pytest.fixture
def uniform():
    return uniform_cdf()


@pytest.fixture
def square():
    return power_cdf(2)


@pytest.fixture
def two_piece():
    # x^2 on [0, 1/2], then the line through (1/2, 1/4) and (1, 1)
    return PiecewisePolyCdf((F(0), F(1, 2), F(1)), ((F(0), F(0), F(1)), (F(-1, 2), F(3, 2))))


@pytest.fixture
def shifted_support():
    # zero on [0, 1/4], then (4x - 1)/3
    return PiecewisePolyCdf((F(0), F(1, 4), F(1)), ((F(0),), (F(-1, 3), F(4, 3))))


@pytest.fixture
def adversarial():
    return make_adversarial_cdf(F(3, 4), F(1, 8), F(1, 32))


def seeded_cubic(seed: int, pieces: int) -> PiecewisePolyCdf:
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
    return PiecewisePolyCdf(bps, rows)


def poly_eval(coeffs, x):
    """A polynomial's value by Horner's rule in the arithmetic of its coefficients and x (Fraction, sympy)."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def row_fractions(row) -> list:
    """The coefficients of an integer row (nums, scale) as Fractions."""
    nums, scale = row
    return [F(c, scale) for c in nums]


def win_probs(strategy, dist, n: int) -> tuple:
    """Delta_1..Delta_m of a jump-point strategy, exactly: bid b_j wins with Delta(s_{j-1}, s_j), dist read once
    at each jump point."""
    fs = [dist(x).as_integer_ratio() for x in strategy.s]
    return tuple(F(*_delta_ratio(a, b, n)) for a, b in zip(fs, fs[1:]))


def piecewise_json(dist) -> dict:
    """The piecewise_poly JSON description of a cdf, as cdf_from_json reads it."""
    return {"kind": "piecewise_poly", "breakpoints": [format_rational(b) for b in dist.breakpoints],
            "coeffs": [[format_rational(c) for c in row_fractions(row)] for row in dist.int_rows]}


def ceil_log2(r: F) -> int:
    """Smallest k >= 1 with 2**k >= r, exact from the bit lengths of r's terms."""
    p, q = r.numerator, r.denominator
    k = max(1, p.bit_length() - q.bit_length())
    return k if q << k >= p else k + 1


def lipschitz_bound(dist) -> F:
    """A Lipschitz constant of a piecewise-polynomial cdf on [0, 1]: the largest sum of l * |a_l| over its rows."""
    return max(F(sum(l * abs(c) for l, c in enumerate(nums)), scale) for nums, scale in dist.int_rows)


def kronecker_power(nums, k) -> list:
    """The k * (len(nums) - 1) + 1 coefficients of the k-th power (k >= 1) of an integer row, by Kronecker substitution.

    The row is packed into one int, sum(nums[l] * R**l) with R = 2**(8B), and
    raised to the k-th power in one big-int operation.  No coefficient of the
    power exceeds (sum |nums[l]|)**k in absolute value, and the B-byte slots
    hold that bound with two bits to spare, so slot l of the power holds
    coefficient l less a borrow of 1 where the coefficients below it sum to a
    negative number.  One signed ``to_bytes``, byte slices and a carry recover
    the coefficients.  A reference for ``power_int`` at sizes where repeated
    multiplication is too slow.
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
