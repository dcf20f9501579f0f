"""Black-box bidding with a hard query budget.

The solver only sees the cdf through a counted oracle.  The plan keeps the
oracle it tabulated F^(n-1) from, on a grid of width ~eps (K-1 queries), and
every bid evaluation, bid(plan, x), costs a single extra query of it.  It
returns a lower and an upper Riemann sum, which sandwich the exact
equilibrium bid within eps; the upper sum is the bid.

The stress distribution here is nearly flat on a subinterval and then very
steep, which is the worst case for grid-based tabulation.
"""

from fractions import Fraction

import fpaeq as fq

dist = fq.make_adversarial_cdf(Fraction(3, 4), Fraction(1, 8), Fraction(1, 32))
exact = fq.canonical_bid_function(dist, 2)

for k in (4, 6, 8, 10):
    eps = Fraction(1, 2**k)
    oracle = fq.CdfOracle(dist)
    plan = fq.precompute(oracle, 2, eps)
    pre = plan.oracle.query_count
    worst = Fraction(0)
    for i in range(101):
        x = Fraction(i, 100)
        ev = fq.bid(plan, x)
        err = abs(ev.upper - exact(x))
        worst = max(worst, err)
        assert ev.lower <= exact(x) <= ev.upper
    per_bid = (plan.oracle.query_count - pre) / 101
    print(
        f"eps = 2^-{k}: K = {plan.K}, precompute queries = {pre}, "
        f"queries per bid = {per_bid:g}, worst |bid - beta*| = {float(worst):.2e} "
        f"(bound {float(eps):.2e})"
    )

# a closer look at one evaluation inside the flat region
plan = fq.precompute(fq.CdfOracle(dist), 2, Fraction(1, 64))
x = Fraction(13, 16)
ev = fq.bid(plan, x)
print(f"\nat x = {x}: L = {ev.lower}, U = {ev.upper}, exact = {exact(x)}")
print(f"sandwich width = {float(ev.upper - ev.lower):.4f} <= eps = {1 / 64:.4f}")
