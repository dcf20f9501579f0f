"""Exact equilibrium bids for distributions with known closed forms.

For the uniform distribution with n bidders the equilibrium bid is
((n-1)/n) * x, and for F(x) = x^d with two bidders it is (d/(d+1)) * x.
This script builds the exact rational bid functions and checks both families,
then prints the stored rows, the cdf's and the integral's, for a cdf without a
textbook closed form.
"""

from fractions import Fraction

import fpaeq as fq
from fpaeq.rationals import format_rational

print("uniform cdf, n = 2..5 (bid at x = 2/3):")
uniform = fq.uniform_cdf()
for n in range(2, 6):
    rbf = fq.canonical_bid_function(uniform, n)
    x = Fraction(2, 3)
    print(f"  n={n}: bid({x}) = {rbf(x)}   expected {(Fraction(n - 1, n) * x)}")

print("\npower cdfs F(x) = x^d, n = 2 (bid at x = 1/2):")
for d in (1, 2, 3):
    rbf = fq.canonical_bid_function(fq.power_cdf(d), 2)
    print(f"  d={d}: bid(1/2) = {rbf(Fraction(1, 2))}   expected {Fraction(d, 2 * (d + 1))}")

# a piecewise cdf with no textbook closed form: x^2 up to 1/2, linear after
two_piece = fq.PiecewisePolyCdf(
    (Fraction(0), Fraction(1, 2), Fraction(1)),
    ((Fraction(0), Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(3, 2))),
)
rbf = fq.canonical_bid_function(two_piece, 2)


def row(nums, scale):
    """An integer row over its scale, constant term first, as rationals p/q."""
    return "(" + ", ".join(format_rational(Fraction(c, scale)) for c in nums) + ")"


print("\ntwo-piece cdf, n = 2: bid(x) = x - I(x) / F(x), I the integral of F (coefficients from the constant term up):")
bps = rbf.cdf.breakpoints
for j, (cdf_row, integral_row) in enumerate(zip(rbf.cdf.int_rows, rbf.integral_rows)):
    print(f"  [{bps[j]}, {bps[j + 1]}]: F = {row(*cdf_row)}, I = {row(*integral_row)}")
print("  e.g. bid(3/4) =", rbf(Fraction(3, 4)))
