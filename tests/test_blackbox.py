import contextlib
import io
import json
import math
import random
import tempfile
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import fpaeq as fq
from fpaeq.cli import main

from conftest import piecewise_json, seeded_cubic


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


def seeded_cdf(seed: int, K: int) -> fq.PiecewisePolyCdf:
    """A continuous piecewise-polynomial cdf with up to 4 pieces, some breakpoints on the grid j/K.

    Piece i is y_i + (y_(i+1) - y_i) * ((x - b_i) / (b_(i+1) - b_i))**k, k in 1..3,
    so it is nondecreasing; a piece that does not rise is a constant row, and
    the first one may be all zero, as in the shifted_support fixture.
    """
    rng = random.Random(seed)
    inner = {F(rng.randint(1, K - 1), K) if K > 1 and rng.random() < 0.5 else F(rng.randint(1, 39), 40)
             for _ in range(rng.randint(0, 3))}
    bps = [F(0), *sorted(inner), F(1)]
    rises = [F(0) if i == 0 and len(bps) > 2 and rng.random() < 0.4 else F(rng.randint(1, 9))
             for i in range(len(bps) - 1)]
    levels = [sum(rises[:i], F(0)) / sum(rises) for i in range(len(bps))]
    rows = []
    for a, b, lo, hi in zip(bps, bps[1:], levels, levels[1:]):
        if hi == lo:
            rows.append((lo,))
            continue
        k = rng.randint(1, 3)
        scale = (hi - lo) / (b - a) ** k
        # lo + scale * (x - a)**k, expanded by the binomial theorem
        row = [scale * math.comb(k, l) * (-a) ** (k - l) for l in range(k + 1)]
        row[0] += lo
        rows.append(tuple(row))
    dist = fq.PiecewisePolyCdf(tuple(bps), tuple(rows))
    assert dist.validate().ok
    return dist


def fraction_plan_bid(dist, n: int, K: int, x: F) -> tuple[F, F]:
    """Reference (lower, upper): the two Riemann sums in Fraction arithmetic, F queried point by point."""
    powers = [F(0)] + [dist(F(j, K)) ** (n - 1) for j in range(1, K)] + [F(1)]
    prefix, acc = [F(0)], F(0)
    for p in powers:
        acc += p
        prefix.append(acc)
    fx = dist(x)
    if fx == 0:
        return x, x
    fn, k = fx ** (n - 1), min(math.floor(x * K), K)
    upper = x - (prefix[k] / K + (x - F(k, K)) * powers[k]) / fn
    lower = F(k, K) - prefix[k + 1] / K / fn
    return lower, upper


class TestWorkedExamples:
    def test_uniform_quarter_grid(self, uniform):
        oracle = fq.CdfOracle(uniform)
        plan = fq.precompute(oracle, 2, F(1, 4))
        assert plan.K == 4
        assert oracle.query_count == 3
        ev = fq.bid(plan, F(1))
        assert (ev.lower, ev.upper) == (F(3, 8), F(5, 8))
        assert oracle.query_count == 4

    def test_uniform_half_value(self, uniform):
        oracle = fq.CdfOracle(uniform)
        plan = fq.precompute(oracle, 2, F(1, 4))
        assert fq.bid(plan, F(1, 2)).upper == F(3, 8)

    def test_below_support_is_identity(self, shifted_support):
        oracle = fq.CdfOracle(shifted_support)
        plan = fq.precompute(oracle, 3, F(1, 8))
        ev = fq.bid(plan, F(1, 8))
        assert ev.lower == ev.upper == F(1, 8)

    def test_epsilon_above_one_clamps(self, uniform):
        oracle = fq.CdfOracle(uniform)
        plan = fq.precompute(oracle, 2, 2)
        assert plan.K == 1

    def test_bad_inputs(self, uniform):
        oracle = fq.CdfOracle(uniform)
        with pytest.raises(fq.DomainError):
            fq.precompute(oracle, 1, F(1, 4))
        with pytest.raises(fq.DomainError):
            fq.precompute(oracle, 2, 0)
        plan = fq.precompute(oracle, 2, F(1, 4))
        with pytest.raises(fq.DomainError):
            fq.bid(plan, F(3, 2))


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
        oracle = fq.CdfOracle(dist)
        plan = fq.precompute(oracle, n, eps)
        for x in (F(1, 7), F(1, 3), F(5, 8), F(9, 10), F(1)):
            exact = reference_bid(expr, n, x)
            ev = fq.bid(plan, x)
            lo, hi = ev.lower, ev.upper
            assert lo <= exact <= hi
            assert hi - lo <= eps
            assert abs(ev.upper - exact) <= eps


class TestQueryAccounting:
    @pytest.mark.parametrize("eps,expected_K", [(F(1, 4), 4), (F(1, 10), 10), (F(3, 10), 4), (F(1, 64), 64)])
    def test_precompute_cost(self, uniform, eps, expected_K):
        oracle = fq.CdfOracle(uniform)
        plan = fq.precompute(oracle, 2, eps)
        assert plan.K == expected_K
        assert oracle.query_count == expected_K - 1

    def test_one_query_per_bid(self, square):
        oracle = fq.CdfOracle(square)
        plan = fq.precompute(oracle, 3, F(1, 16))
        base = oracle.query_count
        f = lambda x: fq.bid(plan, x).upper
        for i in range(10):
            f(F(i, 10))
        assert oracle.query_count == base + 10

    def test_total_budget(self, adversarial):
        eps = F(1, 32)
        oracle = fq.CdfOracle(adversarial)
        plan = fq.precompute(oracle, 2, eps)
        fq.bid(plan, F(13, 16))
        assert oracle.query_count <= math.ceil(1 / eps) + 1


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        x=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=2, max_value=5),
    )
    def test_no_overbid_and_bounds_order(self, x, n):
        dist = fq.power_cdf(2)
        oracle = fq.CdfOracle(dist)
        plan = fq.precompute(oracle, n, F(1, 16))
        ev = fq.bid(plan, x)
        assert ev.lower <= ev.upper <= x
        assert ev.upper - ev.lower <= F(1, 16)

    def test_bid_monotone_in_value(self, two_piece):
        oracle = fq.CdfOracle(two_piece)
        plan = fq.precompute(oracle, 2, F(1, 64))
        f = lambda x: fq.bid(plan, x).upper
        bids = [f(F(i, 200)) for i in range(201)]
        assert all(b >= a for a, b in zip(bids, bids[1:]))

    def test_float_oracle_follows_type(self):
        oracle = fq.CdfOracle(lambda x: float(x))
        plan = fq.precompute(oracle, 2, 0.25)
        ev = fq.bid(plan, 1.0)
        assert isinstance(ev.upper, float)
        assert ev.upper == pytest.approx(0.625)


class TestIntegerPlan:
    """The plan of a piecewise-polynomial oracle runs on ints over one scale, with the same values."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        K=st.one_of(st.integers(1, 12), st.sampled_from([64, 257])),  # large K: pieces span many grid points
        n=st.one_of(st.integers(2, 5), st.sampled_from([16, 63, 64])),
        xs=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=50), max_size=3),
    )
    def test_matches_fraction_sums(self, seed, K, n, xs):
        dist = seeded_cdf(seed, K)
        oracle = fq.CdfOracle(dist)
        plan = fq.precompute(oracle, n, F(1, K))
        assert all(type(v) is int for v in plan.prefix) and type(plan.scale) is int
        for j in range(K + 1):
            assert F(plan.prefix[j + 1] - plan.prefix[j], plan.scale) == dist(F(j, K)) ** (n - 1)
        # the per-point route of an opaque exact callable gives the same bids
        opaque = fq.CdfOracle(lambda x: dist(x))
        opaque_plan = fq.precompute(opaque, n, F(1, K))
        for x in (F(0), F(1), *dist.breakpoints, *xs):
            ev = fq.bid(plan, x)
            assert (ev.lower, ev.upper) == fraction_plan_bid(dist, n, K, x)
            opaque_ev = fq.bid(opaque_plan, x)
            assert (opaque_ev.lower, opaque_ev.upper) == (ev.lower, ev.upper)

    def test_shifted_support_leading_zero_piece(self, shifted_support):
        # the zero piece ends on the grid point 2/8; F(2/8) = 0 belongs to it
        oracle = fq.CdfOracle(shifted_support)
        plan = fq.precompute(oracle, 3, F(1, 8))
        powers = [b - a for a, b in zip(plan.prefix, plan.prefix[1:])]
        assert powers[:3] == [0, 0, 0] and powers[3] > 0
        for x in (F(1, 4), F(1, 3), F(1)):
            ev = fq.bid(plan, x)
            assert (ev.lower, ev.upper) == fraction_plan_bid(shifted_support, 3, 8, x)


class TestBatchQueryCount:
    """precompute costs exactly K - 1 queries on both routes, and bid one."""

    @pytest.mark.parametrize("K", [1, 2, 7, 64])
    @pytest.mark.parametrize("route", ["piecewise", "float", "transformed"])
    def test_precompute_then_bid(self, square, route, K):
        if route == "piecewise":
            counted = oracle = fq.CdfOracle(square)
        elif route == "float":
            counted = oracle = fq.CdfOracle(lambda x: float(x))
        else:
            counted = fq.CdfOracle(square)
            oracle = fq.strongly_increasing_transform(counted, F(1, 4))
        plan = fq.precompute(oracle, 3, F(1, K))
        assert plan.oracle is oracle and oracle.query_count == counted.query_count == K - 1
        # each bid queries the plan's own oracle once
        for i in range(1, 4):
            fq.bid(plan, F(i, 3))
            assert oracle.query_count == counted.query_count == K - 1 + i

    def test_grid_values_endpoints(self, two_piece):
        for oracle in (fq.CdfOracle(two_piece), fq.CdfOracle(lambda x: float(x))):
            values, den = oracle.grid_values(5)
            nums = list(values)
            assert (len(nums), nums[0], nums[5]) == (6, 0, den)
            assert oracle.query_count == 4

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), K=st.one_of(st.integers(1, 12), st.sampled_from([64, 256, 257])),
           opaque=st.booleans())
    def test_grid_values_stream_each_point(self, seed, K, opaque):
        # breakpoints on grid points; the K - 1 queries count at the call, before any value is read
        dist = seeded_cdf(seed, K)
        oracle = fq.CdfOracle((lambda x: dist(x)) if opaque else dist)
        values, den = oracle.grid_values(K)
        assert iter(values) is values and oracle.query_count == K - 1  # a stream, not a list
        nums = list(values)
        assert oracle.query_count == K - 1
        assert nums == [0, *(dist(F(j, K)) * den for j in range(1, K)), den]
        assert den == 1 if opaque else all(type(v) is int for v in nums)


class TestStreamedPlan:
    """A plan keeps its prefix sums and, while it is built, holds little else: the grid query streams into them."""

    @staticmethod
    def traced_plan(oracle, n, K) -> tuple[int, int]:
        """(peak, kept): tracemalloc's peak while precompute runs and the size it leaves behind, above the start."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            plan = fq.precompute(oracle, n, F(1, K))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan.prefix) == K + 2
        return peak - start, kept - start

    @pytest.mark.parametrize("n", [2, 5])
    def test_piecewise_route(self, n):
        # a list of the K + 1 numerators beside the sums took the peak to 1.7-2.0 times the plan
        peak, kept = self.traced_plan(fq.CdfOracle(seeded_cubic(1, 8)), n, 2**14)
        assert peak <= 1.25 * kept

    @pytest.mark.parametrize("n", [2, 5])
    def test_opaque_exact_route(self, n):
        dist = seeded_cubic(1, 8)
        peak, kept = self.traced_plan(fq.CdfOracle(lambda x: dist(x)), n, 2**10)
        assert peak <= 1.25 * kept


def csv_rows(argv) -> list[list[str]]:
    """The data rows of a solve CSV, each as its list of fields."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [line.split(",") for line in out.getvalue().splitlines()[1:]]


class TestIntegerQuotients:
    """A bid is two integer numerators over one denominator; its Fractions and the CSV's floats come from them."""

    @pytest.mark.parametrize("n,eps", [(3, F(1, 64)), (64, F(1, 1024))])
    def test_float_value_on_an_exact_oracle(self, square, n, eps):
        # x is read as its exact rational, so both sums are exact, and equal to those at Fraction(x)
        plan = fq.precompute(fq.CdfOracle(square), n, eps)
        ev, exact = fq.bid(plan, 0.5), fq.bid(plan, F(1, 2))
        assert type(ev.lower) is type(ev.upper) is F
        assert (ev.lower, ev.upper) == (exact.lower, exact.upper)

    @settings(max_examples=30, deadline=None)
    @given(
        cdf=st.one_of(st.integers(0, 2**32), st.sampled_from(["adversarial", "square"])),
        n=st.sampled_from([2, 3, 8, 64]),
        K=st.integers(1, 64),
        N=st.integers(1, 12),
    )
    def test_sums_and_csv_fields_are_exact(self, cdf, n, K, N):
        if cdf == "adversarial":
            dist = fq.make_adversarial_cdf(F(3, 4), F(1, 8), F(1, 32))
        else:
            dist = fq.power_cdf(2) if cdf == "square" else seeded_cdf(cdf, K)
        xs = [F(i, N) for i in range(N + 1)]
        plan = fq.precompute(fq.CdfOracle(dist), n, F(1, K))
        sums = [fraction_plan_bid(dist, n, K, x) for x in xs]
        for x, (lower, upper) in zip(xs, sums):
            ev = fq.bid(plan, x)
            assert (ev.lower, ev.upper) == (lower, upper)
        rbf = fq.canonical_bid_function(dist, n)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cdf.json"
            path.write_text(json.dumps(piecewise_json(dist)))
            solve = ["solve", "--cdf", str(path), "--n", str(n), "--samples", str(N)]
            blackbox = csv_rows([*solve, "--model", "ccfpa-blackbox", "--eps", f"1/{K}"])
            explicit = csv_rows([*solve, "--model", "ccfpa-explicit"])
        for i, (x, (lower, upper)) in enumerate(zip(xs, sums)):
            assert blackbox[i] == [repr(float(v)) for v in (x, upper, lower, upper)] + [str(K + i)]
            assert explicit[i] == [repr(float(v)) for v in (x, rbf(x))]


class TestOneQueryPerBid:
    """A bid reads F(x) in one counted query: as an integer pair from a piecewise-polynomial oracle, through
    CdfOracle.ratio, and at Fraction(p, q) from any other oracle; both give the same sums."""

    @pytest.mark.parametrize("samples", [1, 7, 32, 33, 100])
    @pytest.mark.parametrize("seed,K,n", [(0, 16, 2), (3, 64, 5), (11, 7, 3), (29, 33, 64)])
    def test_both_routes(self, seed, K, n, samples):
        dist = seeded_cdf(seed, K)
        plans = [fq.precompute(fq.CdfOracle(f), n, F(1, K)) for f in (dist, lambda x: dist(x))]
        for i in range(samples + 1):
            x = F(i, samples)
            piecewise, opaque = (fq.bid(plan, x) for plan in plans)
            assert (piecewise.lower, piecewise.upper) == (opaque.lower, opaque.upper) == fraction_plan_bid(dist, n, K, x)
            # the pair form of x, in lowest terms and not, is the same bid
            for pair in ((x.numerator, x.denominator), (3 * x.numerator, 3 * x.denominator)):
                ev = fq.bid(plans[0], pair)
                assert (ev.lower, ev.upper) == (piecewise.lower, piecewise.upper)
            assert plans[0].oracle.query_count == K - 1 + 3 * (i + 1)
            assert plans[1].oracle.query_count == K - 1 + i + 1

    def test_pair_outside_the_unit_interval(self, square):
        plan = fq.precompute(fq.CdfOracle(square), 2, F(1, 4))
        for pair in ((-1, 3), (4, 3)):
            with pytest.raises(fq.DomainError, match=f"x={F(*pair)} outside"):
                fq.bid(plan, pair)
        assert plan.oracle.query_count == 3

    @pytest.mark.parametrize("pair", [(0, 0), (1, 0), (-1, -2), (3, 2)])
    def test_every_pair_read_refuses_a_pair_off_the_unit_interval(self, square, pair):
        # q <= 0, or p/q outside [0, 1]: bid's pair form, both routes of CdfOracle.ratio, PiecewisePoly.piece_of and
        # RationalBidFunction.ratio raise a DomainError that names p and q, and no query is counted
        p, q = pair
        plan = fq.precompute(fq.CdfOracle(square), 2, F(1, 4))
        oracles = [fq.CdfOracle(square), fq.CdfOracle(lambda x: square(x))]
        reads = [lambda: fq.bid(plan, pair), *(lambda o=o: o.ratio(p, q) for o in oracles),
                 lambda: square.piece_of(p, q), lambda: fq.canonical_bid_function(square, 2).ratio(p, q)]
        for read in reads:
            with pytest.raises(fq.DomainError, match=f"^x={p}/{q} "):
                read()
        assert plan.oracle.query_count == 3 and [o.query_count for o in oracles] == [0, 0]

    @pytest.mark.parametrize("samples", [1, 7, 32, 33, 100])
    def test_csv_rows_are_fraction_bids(self, samples):
        dist, n, K = seeded_cdf(3, 64), 5, 64
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cdf.json"
            path.write_text(json.dumps(piecewise_json(dist)))
            rows = csv_rows(["solve", "--model", "ccfpa-blackbox", "--cdf", str(path), "--n", str(n),
                             "--eps", f"1/{K}", "--samples", str(samples)])
        oracle = fq.CdfOracle(dist)
        plan, want = fq.precompute(oracle, n, F(1, K)), []
        for i in range(samples + 1):
            ev = fq.bid(plan, F(i, samples))
            want.append([str(i / samples), str(float(ev.upper)), str(float(ev.lower)), str(float(ev.upper)),
                         str(oracle.query_count)])
        assert rows == want
