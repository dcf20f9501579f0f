"""Approximate equilibrium bidding for continuous bids under cdf oracle access.

A plan holds the oracle it was built from and the prefix sums of the cdf
(raised to the n-1 power) on the regular grid j/K, K = ceil(1/eps).  Each
subsequent bid evaluation, ``bid(plan, x)``, issues exactly one query to that
oracle (at the bidder's own value) and combines it with the tabulated sums
into the lower and upper Riemann sums of the win-probability deficit

    g_x(t) = 1 - F(t)**(n-1) / F(x)**(n-1),

whose integral over [0, x] is the exact equilibrium bid.  The two sums
sandwich the exact bid and differ by at most eps; the upper sum is the bid.

The plan takes its grid from one batch query, :meth:`CdfOracle.grid_values`,
which counts as the K-1 interior queries.  The query is a stream of the K+1
numerators, which the plan powers and sums as they arrive, so it holds only
its prefix sums.  It runs on one of two routes:

* an oracle backed by a piecewise-polynomial cdf answers with integers over
  one denominator, tabulated piece by piece by integer additions of forward
  differences (:meth:`PiecewisePoly.grid_values`), so the prefix sums of the
  powers are Python ints over one scale, den**(n-1), and bids are exact
  rationals;
* any other oracle is queried point by point over den = 1 and its arithmetic
  carries through: an exact-rational oracle yields exact rational plans and
  bids, a float oracle yields float ones.

A bid keeps its two sums as numerators over one shared denominator
(:class:`BidEvaluation`), with x read as its exact rational p/q or given as
that integer pair.  Its one query (:meth:`CdfOracle.ratio`) reads F(x) as an
integer pair too: from a piecewise-polynomial oracle by Horner's rule on x's
piece, with no Fraction and no gcd, and from any other oracle at
Fraction(p, q).  On an exact oracle the sums are ints and no gcd is taken; a
Fraction is made only when a sum is read, and the CLI, which passes each
sample i/S as a pair in lowest terms, prints the quotients int / int, which
CPython rounds correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from .cdf import CdfOracle
from .errors import DomainError, check_bidders, check_unit_ratio

# Largest grid a plan may tabulate, K = ceil(1/eps): K - 1 oracle queries and K + 1 powers
# F(j/K)**(n-1) summed exactly.  Measured with CPython 3.11 on 2 vCPUs at K = MAX_K, through
# the CLI (ccfpa-blackbox, 101 bids): a seeded 8-piece cubic takes 0.24 s at n = 2 and 0.28 s
# at n = 64, most of it interpreter start-up; a dense degree-64 piece whose coefficients share
# a 64-bit denominator takes 7.9-8.3 s at n = 64 (.github/worst_cases.py): in process, 7.5-7.9 s
# in the plan, nearly all of it the integer powers of about 60 000 bits, and 0.16 s in the bids.
# At K = 2**16 the cubic's plan and 101 bids take 0.013 s at n = 2, in process.
MAX_K = 2**14


@dataclass(frozen=True)
class BlackBoxPlan:
    oracle: CdfOracle  # the oracle the table was queried from; every bid queries it once
    n: int
    K: int
    prefix: tuple  # prefix[j] / scale = sum of F(i/K)**(n-1) over i < j, for j = 0..K+1
    scale: object  # den**(n-1), den the denominator of the grid query


@dataclass(frozen=True)
class BidEvaluation:
    """The lower and upper Riemann sums, lower_num / den and upper_num / den; the upper sum is the bid.

    On an exact oracle the three are ints (Fractions for an exact oracle queried point by
    point) and :attr:`lower` and :attr:`upper` are Fractions made at each read; on a float
    oracle den is a float and they are the float quotients.
    """

    lower_num: object
    upper_num: object
    den: object

    @property
    def lower(self):
        return _quotient(self.lower_num, self.den)

    @property
    def upper(self):
        return _quotient(self.upper_num, self.den)


def _quotient(num, den):
    return Fraction(num, den) if isinstance(den, int) else num / den


def grid_size(epsilon) -> int:
    """K = ceil(1/eps), the number of grid cells of a plan at accuracy eps; at most MAX_K."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    num, den = epsilon.as_integer_ratio()
    K = -(-den // num)
    if K > MAX_K:
        raise DomainError(f"eps = {epsilon} needs K = {K} grid cells, above the limit of {MAX_K}")
    return K


def precompute(oracle: CdfOracle, n: int, epsilon) -> BlackBoxPlan:
    """Tabulate the prefix sums of F(j/K)**(n-1), j = 0..K, K = ceil(1/eps) (so K = 1 for eps >= 1).

    One batch query costs K-1 queries (grid interior); F(0) = 0 and F(1) = 1
    are known for continuous cdfs on [0, 1].  The query's numerators stream into
    the running sums of their powers, and the plan keeps only those prefix sums,
    over the scale den**(n-1), and the oracle.
    """
    check_bidders(n)
    K = grid_size(epsilon)
    values, den = oracle.grid_values(K)
    powers = values if n == 2 else map(pow, values, repeat(n - 1))  # at n = 2 the numerators as they are
    return BlackBoxPlan(oracle, n, K, tuple(accumulate(powers, initial=0)), den ** (n - 1))


def bid(plan: BlackBoxPlan, x) -> BidEvaluation:
    """Lower and upper Riemann sums at x from one query of the plan's oracle; the upper sum is the bid.

    x is a rational or a float in [0, 1], read as its exact rational p/q, or that pair (p, q)
    of ints itself, q > 0, best in lowest terms: the CLI's samples i/S come so, with no
    Fraction.  The oracle answers F(x) = a/c (:meth:`CdfOracle.ratio`).  The two sums
    sandwich the exact equilibrium bid.  With k = min(floor(pK/q), K), A = a**(n-1) * scale
    and C = c**(n-1), they are

        upper = (pK A - (q P_k + (pK - kq) (P_(k+1) - P_k)) C) / (qKA),
        lower = q (k A - P_(k+1) C) / (qKA),

    P the plan's prefix sums, so on an exact oracle a bid is three ints and no gcd.  A
    float answer F(x) runs the same formula in floats, with (a, c) = (F(x), 1.0) and x's
    float over q = 1.0.
    """
    if x.__class__ is tuple:
        p, q = x
        check_unit_ratio(p, q)
    elif not 0 <= x <= 1:
        raise DomainError(f"x={x} outside [0, 1]")
    else:
        p, q = x.as_integer_ratio()
    a, c = plan.oracle.ratio(p, q)
    K, P = plan.K, plan.prefix
    k = min(p * K // q, K)
    if c.__class__ is float:
        p, q = p / q, 1.0
    if a == 0:
        # x is weakly below the support: bidding the value is exact
        return BidEvaluation(p, p, q)
    A, C = a ** (plan.n - 1) * plan.scale, c ** (plan.n - 1)
    upper = p * K * A - (q * P[k] + (p * K - k * q) * (P[k + 1] - P[k])) * C
    # lower Riemann sum: right endpoints, j = 1..k, which P_(k+1) sums since F(0) = 0;
    # the [k/K, x] term vanishes (g_x(x) = 0)
    lower = q * (k * A - P[k + 1] * C)
    return BidEvaluation(lower, upper, q * K * A)
