from fractions import Fraction as F

import pytest

from fpaeq import PiecewisePolyCdf, make_adversarial_cdf, power_cdf, uniform_cdf


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
