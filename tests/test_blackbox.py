import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import fpaeq as fq


def reference_bid(cdf_expr, n, x):
    """Exact equilibrium bid via symbolic integration (independent of the library)."""
    t = sympy.Symbol("t")
    x = sympy.Rational(x)
    fx = cdf_expr.subs(t, x) ** (n - 1)
    if fx == 0:
        return F(x.p, x.q)
    val = x - sympy.integrate(cdf_expr ** (n - 1), (t, 0, x)) / fx
    val = sympy.nsimplify(val)
    return F(sympy.Rational(val).p, sympy.Rational(val).q)


T = sympy.Symbol("t")


class TestWorkedExamples:
    def test_uniform_quarter_grid(self, uniform):
        oracle = fq.oracle_from_piecewise(uniform)
        plan = fq.precompute(oracle, 2, F(1, 4))
        assert plan.K == 4
        assert oracle.query_count == 3
        ev = fq.bid(plan, oracle, F(1))
        assert (ev.lower, ev.upper) == (F(3, 8), F(5, 8))
        assert oracle.query_count == 4

    def test_uniform_half_value(self, uniform):
        oracle = fq.oracle_from_piecewise(uniform)
        plan = fq.precompute(oracle, 2, F(1, 4))
        assert fq.bid(plan, oracle, F(1, 2)).upper == F(3, 8)

    def test_below_support_is_identity(self, shifted_support):
        oracle = fq.oracle_from_piecewise(shifted_support)
        plan = fq.precompute(oracle, 3, F(1, 8))
        ev = fq.bid(plan, oracle, F(1, 8))
        assert ev.lower == ev.upper == F(1, 8)

    def test_epsilon_above_one_clamps(self, uniform):
        oracle = fq.oracle_from_piecewise(uniform)
        plan = fq.precompute(oracle, 2, 2)
        assert plan.K == 1

    def test_bad_inputs(self, uniform):
        oracle = fq.oracle_from_piecewise(uniform)
        with pytest.raises(fq.DomainError):
            fq.precompute(oracle, 1, F(1, 4))
        with pytest.raises(fq.DomainError):
            fq.precompute(oracle, 2, 0)
        plan = fq.precompute(oracle, 2, F(1, 4))
        with pytest.raises(fq.DomainError):
            fq.bid(plan, oracle, F(3, 2))


class TestAgainstSymbolicReference:
    CASES = [
        ("uniform", T, 2),
        ("uniform", T, 4),
        ("square", T**2, 2),
        ("square", T**2, 3),
        ("two_piece", None, 2),
    ]

    @pytest.mark.parametrize("name,expr,n", CASES)
    def test_sandwich_and_error(self, name, expr, n, request):
        dist = request.getfixturevalue(name)
        if expr is None:
            expr = sympy.Piecewise((T**2, T <= sympy.Rational(1, 2)), (3 * T / 2 - sympy.Rational(1, 2), True))
        eps = F(1, 32)
        oracle = fq.oracle_from_piecewise(dist)
        plan = fq.precompute(oracle, n, eps)
        for x in (F(1, 7), F(1, 3), F(5, 8), F(9, 10), F(1)):
            exact = reference_bid(expr, n, x)
            ev = fq.bid(plan, oracle, x)
            lo, hi = ev.lower, ev.upper
            assert lo <= exact <= hi
            assert hi - lo <= eps
            assert abs(ev.upper - exact) <= eps


class TestQueryAccounting:
    @pytest.mark.parametrize("eps,expected_K", [(F(1, 4), 4), (F(1, 10), 10), (F(3, 10), 4), (F(1, 64), 64)])
    def test_precompute_cost(self, uniform, eps, expected_K):
        oracle = fq.oracle_from_piecewise(uniform)
        plan = fq.precompute(oracle, 2, eps)
        assert plan.K == expected_K
        assert oracle.query_count == expected_K - 1

    def test_one_query_per_bid(self, square):
        oracle = fq.oracle_from_piecewise(square)
        plan = fq.precompute(oracle, 3, F(1, 16))
        base = oracle.query_count
        f = lambda x: fq.bid(plan, oracle, x).upper
        for i in range(10):
            f(F(i, 10))
        assert oracle.query_count == base + 10

    def test_total_budget(self, adversarial):
        eps = F(1, 32)
        oracle = fq.oracle_from_piecewise(adversarial)
        plan = fq.precompute(oracle, 2, eps)
        fq.bid(plan, oracle, F(13, 16))
        assert oracle.query_count <= math.ceil(1 / eps) + 1


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        x=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=2, max_value=5),
    )
    def test_no_overbid_and_bounds_order(self, x, n):
        dist = fq.power_cdf(2)
        oracle = fq.oracle_from_piecewise(dist)
        plan = fq.precompute(oracle, n, F(1, 16))
        ev = fq.bid(plan, oracle, x)
        assert ev.lower <= ev.upper <= x
        assert ev.upper - ev.lower <= F(1, 16)

    def test_bid_monotone_in_value(self, two_piece):
        oracle = fq.oracle_from_piecewise(two_piece)
        plan = fq.precompute(oracle, 2, F(1, 64))
        f = lambda x: fq.bid(plan, oracle, x).upper
        bids = [f(F(i, 200)) for i in range(201)]
        assert all(b >= a for a, b in zip(bids, bids[1:]))

    def test_float_oracle_follows_type(self):
        oracle = fq.CdfOracle(lambda x: float(x), 1.0)
        plan = fq.precompute(oracle, 2, 0.25)
        ev = fq.bid(plan, oracle, 1.0)
        assert isinstance(ev.upper, float)
        assert ev.upper == pytest.approx(0.625)
