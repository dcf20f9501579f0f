"""Independent certification of candidate equilibrium strategies.

Three routes, deliberately independent of the solvers they audit:

* exact deviation regret over a finite bid grid (rational arithmetic),
* grid-based deviation regret for continuous monotone bid functions, with the
  deviation's winning threshold recovered by bisection of the bid function,
* Monte Carlo ex-post play with uniform tie-breaking, on a counter-based
  deterministic generator so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .cdf import PiecewisePolyCdf, float_view
from .discrete import BidGrid, JumpPointStrategy
from .errors import DomainError

INVERSION_STEPS = 60  # bisection steps when inverting a monotone bid function
SAMPLING_STEPS = 50  # bisection steps for inverse-cdf sampling
EXACT_VALUE_GRID = 64  # the exact verifier's uniform values are i/64
GRID_VALUES = 128  # the grid verifier's values split [v_low, 1] into 128 steps
GRID_DEVIATIONS = 256  # the grid verifier's deviations are j/256
MC_GRID = 8  # the Monte Carlo verifier's values and deviations are i/8
# Most opponent values, trials * (n - 1), one Monte Carlo estimate may draw.  Each draw
# holds about 70 bytes of float arrays at once, so the limit caps an estimate near 280 MB;
# it admits the CLI default of 100 000 trials up to n = 41.
MAX_MC_DRAWS = 4_000_000


@dataclass(frozen=True)
class RegretReport:
    max_regret: object
    argmax: Optional[tuple] = None  # (value, deviation bid)
    method: str = "exact"
    trials: Optional[int] = None
    seed: Optional[int] = None
    sigma: Optional[float] = None


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    overbid_witnesses: tuple = ()
    monotonicity_witnesses: tuple = ()


def _check_bidders(n: int) -> None:
    if n < 2:
        raise DomainError(f"need n >= 2 bidders, got {n}")


def _check_monte_carlo(n: int, trials: int) -> None:
    _check_bidders(n)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if trials * (n - 1) > MAX_MC_DRAWS:
        raise DomainError(f"trials * (n - 1) = {trials * (n - 1)} exceeds the limit of {MAX_MC_DRAWS} draws")


def epsilon_bne_check_cdfpa(F, n: int, grid: BidGrid, s: JumpPointStrategy) -> RegretReport:
    """Deviation regret over all grid bids, exact for rational inputs.

    The result is the exact maximum over a finite value set: every jump
    point, every bid, i/64 and the midpoints of consecutive distinct jump
    points.  Bid b_k wins with Delta_k whatever the value, so the regret at v
    is max_k (v - b_k) * Delta_k minus the utility of v's own bid.  The true
    supremum over all values can lie above this maximum.
    """
    _check_bidders(n)
    s.check_length(grid)
    win = s.win_probs(F, n)
    values = set(s.s) | set(grid.bids)
    values |= {Fraction(i, EXACT_VALUE_GRID) for i in range(EXACT_VALUE_GRID + 1)}
    values |= {(a + b) / 2 for a, b in zip(s.s, s.s[1:]) if a < b}
    best = None
    for v in sorted(values):
        k = s.bid_index(v)
        own = (v - grid.bids[k - 1]) * win[k - 1]
        for b, w in zip(grid.bids, win):
            regret = (v - b) * w - own
            if best is None or regret > best[0]:
                best = (regret, (v, b))
    max_regret = max(best[0], 0 * best[0])
    return RegretReport(max_regret, best[1], method="exact")


def _support_infimum_float(F, fcdf) -> float:
    if isinstance(F, PiecewisePolyCdf):
        return float(F.support_infimum())
    if fcdf(0.0) > 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(SAMPLING_STEPS):
        mid = (lo + hi) / 2
        if fcdf(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


def epsilon_bne_check_ccfpa(F, n: int, bid_fn: Callable) -> RegretReport:
    """Deviation regret for a continuous monotone bid function.

    A deviation to bid b wins against all opponent values below
    z = sup {v' : bid_fn(v') <= b}, found by bisection; utility is then
    F(z)**(n-1) * (v - b).  The sup over continuous deviations is approximated
    on a grid, so the reported regret carries the grid resolution.
    """
    _check_bidders(n)
    fcdf = float_view(F)
    probe = [i / 512 for i in range(513)]
    bids = [float(bid_fn(p)) for p in probe]
    for (p, ba), bb in zip(zip(probe, bids), bids[1:]):
        if bb < ba - 1e-12:
            raise DomainError(f"bid function decreases near v={p}")
        if ba > p + 1e-12:
            raise DomainError(f"bid function overbids at v={p}")
    bid_at_0, bid_at_1 = bids[0], bids[-1]  # the probes include 0.0 and 1.0

    def threshold(b: float) -> float:
        if bid_at_1 <= b:
            return 1.0
        if bid_at_0 > b:
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(INVERSION_STEPS):
            mid = (lo + hi) / 2
            if float(bid_fn(mid)) <= b:
                lo = mid
            else:
                hi = mid
        return lo

    v_low = _support_infimum_float(F, fcdf)
    deviations = [i / GRID_DEVIATIONS for i in range(GRID_DEVIATIONS + 1)]
    dev_power = [fcdf(threshold(b)) ** (n - 1) for b in deviations]
    best = (float("-inf"), None)
    for i in range(GRID_VALUES + 1):
        v = v_low + (1 - v_low) * i / GRID_VALUES
        own = fcdf(v) ** (n - 1) * (v - float(bid_fn(v)))
        for b, p in zip(deviations, dev_power):
            regret = p * (v - b) - own
            if regret > best[0]:
                best = (regret, (v, b))
    return RegretReport(max(best[0], 0.0), best[1], method="grid")


def _vectorized_strategy(strategy, grid: Optional[BidGrid]):
    if isinstance(strategy, JumpPointStrategy):
        if grid is None:
            raise DomainError("a bid grid is required for jump-point strategies")
        return strategy.as_bid_function(grid).float_evaluator()
    return np.vectorize(lambda v: float(strategy(v)))


def _sample_values(fcdf, u: np.ndarray) -> np.ndarray:
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(SAMPLING_STEPS):
        mid = (lo + hi) / 2
        below = fcdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2


def monte_carlo_utility(
    F, n: int, strategy, v: float, b: float, trials: int, seed: int, grid: Optional[BidGrid] = None
):
    """Ex-post utility estimate for value v deviating to bid b; returns (mean, std_err)."""
    _check_monte_carlo(n, trials)
    fcdf = float_view(F)
    apply = _vectorized_strategy(strategy, grid)
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random((trials, n - 1))
    opp_values = _sample_values(fcdf, u)
    opp_bids = apply(opp_values)
    top = opp_bids.max(axis=1)
    n_eq = (opp_bids == b).sum(axis=1)
    share = np.where(top < b, 1.0, np.where(top == b, 1.0 / (1.0 + n_eq), 0.0))
    payoff = (v - b) * share
    return float(payoff.mean()), float(payoff.std(ddof=1) / np.sqrt(trials))


def monte_carlo_regret(
    F, n: int, strategy, trials: int, seed: int, grid: Optional[BidGrid] = None
) -> RegretReport:
    """Monte Carlo regret estimate over values and deviations i/8.

    Deterministic given the seed; per-pair seeds derive from the root seed.
    The reported sigma is the largest standard error across estimates, so the
    regret is max_regret +- 3*sigma.
    """
    _check_monte_carlo(n, trials)
    apply = _vectorized_strategy(strategy, grid)
    points = [i / MC_GRID for i in range(MC_GRID + 1)]
    best = (float("-inf"), None)
    worst_sigma = 0.0
    sub = 0
    for v in points:
        own_bid = float(apply(np.array([v]))[0])
        own, s_own = monte_carlo_utility(F, n, strategy, v, own_bid, trials, seed * 1_000_003 + sub, grid)
        sub += 1
        for b in points:
            est, s_dev = monte_carlo_utility(F, n, strategy, v, b, trials, seed * 1_000_003 + sub, grid)
            sub += 1
            regret = est - own
            worst_sigma = max(worst_sigma, s_own + s_dev)
            if regret > best[0]:
                best = (regret, (v, b))
    return RegretReport(
        max(best[0], 0.0), best[1], method="monte-carlo", trials=trials, seed=seed, sigma=worst_sigma
    )


def monotone_no_overbid_check(strategy: Callable, samples: int = 10_000) -> PropertyCheck:
    """Sampled check that a strategy never overbids and is nondecreasing."""
    overbids, decreases = [], []
    prev = None
    for i in range(samples + 1):
        v = i / samples
        b = strategy(v)
        if b > v + 1e-12:
            overbids.append((v, b))
        if prev is not None and b < prev - 1e-12:
            decreases.append((v, b))
        prev = b
        if len(overbids) > 4 and len(decreases) > 4:
            break
    return PropertyCheck(not overbids and not decreases, tuple(overbids[:5]), tuple(decreases[:5]))
