"""Certified equilibria on a finite bid grid, cross-checked three ways.

Bidders must choose from a fixed grid of bids; a symmetric strategy is a
nondecreasing step function described by jump points.  solve() returns a
strategy together with a certificate whose residuals bound the equilibrium
error.  The output is then audited by an exact brute-force regret check and a
Monte Carlo simulation that plays the auction ex post.
"""

from fractions import Fraction

import fpaeq as fq

dist = fq.power_cdf(2)  # F(x) = x^2
n = 3
grid = fq.BidGrid(tuple(Fraction(i, 8) for i in range(8)))
eps = Fraction(1, 64)

res = fq.solve(dist, n, grid, eps)
print(f"n = {n}, m = {grid.m} bids, eps = {eps}")
print("jump points:")
for j, (lo, hi) in enumerate(zip(res.strategy.s, res.strategy.s[1:])):
    if lo < hi:
        print(f"  values in ({float(lo):.4f}, {float(hi):.4f}] bid {grid.bids[j]}")
print(f"certificate: pass = {res.certificate.passed}, "
      f"gamma = {float(res.certificate.gamma):.2e}, "
      f"max residual = {float(res.certificate.max_residual):.2e}")

report = fq.epsilon_bne_check_cdfpa(dist, n, grid, res.strategy)
print(f"\nexact brute-force regret: {float(report.max_regret):.2e} (bound {float(eps):.2e})")
v, b = report.argmax
print(f"  worst deviation: value {float(v):.4f} -> bid {b}")

trials, seed = 20_000, 42
mc = fq.monte_carlo_regret(dist, n, res.strategy.as_bid_function(grid), trials, seed)
print(f"monte carlo regret: {mc.max_regret:.4f} +- {3 * mc.sigma:.4f} "
      f"({trials} trials, seed {seed})")

j = res.strategy.as_bid_function(grid).piece_index(Fraction(1))
top = (1 - grid.bids[j]) * res.strategy.win_probs(dist, n)[j]
# with continuous bids the top value's utility is the integral of F^(n-1);
# for F(x) = x^2 and n = 3 that is 1/5 (and 1/n for the uniform cdf)
nums, scale = fq.integral_coefficients(fq.power_coefficients(dist, n), dist)[-1]
theory = Fraction(sum(nums), scale)
print(f"\nutility of the highest value: {float(top):.4f} "
      f"(continuous-bid benchmark: {float(theory):.4f})")
