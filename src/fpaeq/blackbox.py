"""Approximate equilibrium bidding for continuous bids under cdf oracle access.

A plan precomputes the cdf (raised to the n-1 power) on the regular grid
j/K, K = ceil(1/eps).  Each subsequent bid evaluation issues exactly one cdf
query (at the bidder's own value) and combines it with the tabulated powers
into the lower and upper Riemann sums of the win-probability deficit

    g_x(t) = 1 - F(t)**(n-1) / F(x)**(n-1),

whose integral over [0, x] is the exact equilibrium bid.  The two sums
sandwich the exact bid and differ by at most eps; the upper sum is the bid.

Arithmetic follows the oracle: an exact-rational oracle yields exact rational
plans and bids, a float oracle yields float ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cdf import CdfOracle
from .errors import DomainError, check_bidders

# Largest grid a plan may tabulate, K = ceil(1/eps): K - 1 oracle queries and K + 1 powers
# F(j/K)**(n-1) summed exactly.  Measured with CPython 3.11 on one Xeon core at K = MAX_K,
# through the CLI (ccfpa-blackbox): an 8-piece cubic takes 0.5 s at n = 2 and 1.4 s at
# n = 64; a dense degree-64 piece whose coefficients share a 64-bit denominator takes
# 141 s at n = 64, where the exact sums run on numbers of about 60 000 bits.  At K = 2**16 the cubic took 1.2 s
# at n = 2.
MAX_K = 2**14


@dataclass(frozen=True)
class BlackBoxPlan:
    n: int
    K: int
    power_table: tuple  # power_table[j] = F(j/K)**(n-1)
    prefix: tuple  # prefix[j] = sum(power_table[:j])


@dataclass(frozen=True)
class BidEvaluation:
    lower: object
    upper: object  # the bid


def grid_size(epsilon) -> int:
    """K = ceil(1/eps), the number of grid cells of a plan at accuracy eps; at most MAX_K."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    K = math.ceil(1 / Fraction(epsilon))
    if K > MAX_K:
        raise DomainError(f"eps = {epsilon} needs K = {K} grid cells, above the limit of {MAX_K}")
    return K


def precompute(oracle: CdfOracle, n: int, epsilon) -> BlackBoxPlan:
    """Tabulate F(j/K)**(n-1) for j = 0..K, K = ceil(1/eps) (so K = 1 for eps >= 1).

    Issues K-1 queries (grid interior); F(0) = 0 and F(1) = 1 are known for
    continuous cdfs on [0, 1].
    """
    check_bidders(n)
    K = grid_size(epsilon)
    values = [0] + [oracle(Fraction(j, K)) for j in range(1, K)] + [1]
    power_table = tuple(v ** (n - 1) for v in values)
    prefix, acc = [0], 0
    for p in power_table:
        acc = acc + p
        prefix.append(acc)
    return BlackBoxPlan(n, K, power_table, tuple(prefix))


def bid(plan: BlackBoxPlan, oracle: CdfOracle, x) -> BidEvaluation:
    """One-query evaluation of the lower and upper Riemann sums; the upper sum is the bid.

    The two sandwich the exact equilibrium bid.
    """
    if not 0 <= x <= 1:
        raise DomainError(f"x={x} outside [0, 1]")
    fx = oracle(x)
    if fx == 0:
        # x is weakly below the support: bidding the value is exact
        return BidEvaluation(x, x)
    width = Fraction(1, plan.K)
    k_x = min(math.floor(x * plan.K), plan.K)
    fn = fx ** (plan.n - 1)
    partial = x - k_x * width
    inner = width * plan.prefix[k_x] + partial * plan.power_table[k_x]
    upper = x - inner / fn
    # lower Riemann sum: right endpoints (power_table[0] = 0); the [k_x/K, x] term vanishes (g_x(x) = 0)
    lower = width * k_x - width * plan.prefix[k_x + 1] / fn
    return BidEvaluation(lower, upper)

