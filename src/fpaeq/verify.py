"""Independent certification of candidate equilibrium strategies.

Three routes, deliberately independent of the solvers they audit:

* exact deviation regret over a finite bid grid (rational arithmetic),
* grid-based deviation regret for continuous monotone bid functions, with the
  deviation's winning threshold recovered by bisection of the bid function,
* Monte Carlo ex-post play with uniform tie-breaking.  A run draws the
  opponents once, from the counter-based Philox stream its seed names, so it
  is bit-reproducible, and compares every (value, deviation) pair on that one
  draw (common random numbers): its sigma comes from paired differences.

The exact route takes the bid grid and the jump points.  The other two take a
bid function: a :class:`PiecewisePoly` (``JumpPointStrategy.as_bid_function(grid)``
for jump points), a :class:`RationalBidFunction` or any callable on [0, 1].
They read it in floats through :func:`cdf.float_view`: the first two by their
own float evaluators (a rational bid function falls back to its exact bid
wherever the float error bound is too wide), any other callable on the exact
rational of each point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cdf import PiecewisePolyCdf, float_view
from .discrete import BidGrid, JumpPointStrategy
from .errors import DomainError, check_bidders

INVERSION_STEPS = 60  # bisection steps when inverting a monotone bid function
SAMPLING_STEPS = 50  # bisection steps for inverse-cdf sampling
EXACT_VALUE_GRID = 64  # the exact verifier's uniform values are i/64
GRID_VALUES = 128  # the grid verifier's values split [v_low, 1] into 128 steps
GRID_DEVIATIONS = 256  # the grid verifier's deviations are j/256
MC_GRID = 8  # the Monte Carlo verifier's values and deviations are i/8
# Most opponent values, trials * (n - 1), one Monte Carlo run may draw.  Measured with
# tracemalloc (numpy 2.4) at 2 * 10**5 and 8 * 10**5 draws, a run holds at most about 57
# bytes of arrays per draw for a jump-point strategy and 88 for a rational bid function
# (x**2 and an 8-piece cubic); at n = 2 comparing the pairs takes more, up to 120 and 176
# bytes per trial.  So the limit caps a run near 700 MB (a bid function at n = 2), and at
# 230-360 MB from n = 3 on.  It admits the CLI default of 100 000 trials up to n = 41.
MAX_MC_DRAWS = 4_000_000


@dataclass(frozen=True)
class RegretReport:
    max_regret: object
    argmax: tuple  # (value, deviation bid)
    sigma: float | None = None  # Monte Carlo only: the largest standard error of a pair's regret


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    overbid_witnesses: tuple = ()
    monotonicity_witnesses: tuple = ()


def epsilon_bne_check_cdfpa(F, n: int, grid: BidGrid, s: JumpPointStrategy) -> RegretReport:
    """Deviation regret over all grid bids, exact for rational inputs.

    The result is the exact maximum over a finite value set: every jump
    point, every bid, i/64 and the midpoints of consecutive distinct jump
    points.  Bid b_k wins with Delta_k whatever the value, so the regret at v
    is max_k (v - b_k) * Delta_k minus the utility of v's own bid.  The true
    supremum over all values can lie above this maximum.
    """
    check_bidders(n)
    bid_fn = s.as_bid_function(grid)
    win = s.win_probs(F, n)
    values = set(s.s) | set(grid.bids)
    values |= {Fraction(i, EXACT_VALUE_GRID) for i in range(EXACT_VALUE_GRID + 1)}
    values |= {(a + b) / 2 for a, b in zip(s.s, s.s[1:]) if a < b}
    best = None
    for v in sorted(values):
        k = bid_fn.piece_index(v)
        own = (v - grid.bids[k]) * win[k]
        for b, w in zip(grid.bids, win):
            regret = (v - b) * w - own
            if best is None or regret > best[0]:
                best = (regret, (v, b))
    max_regret = max(best[0], 0 * best[0])
    return RegretReport(max_regret, best[1])


def epsilon_bne_check_ccfpa(F, n: int, bid_fn: Callable) -> RegretReport:
    """Deviation regret for a continuous monotone bid function.

    A deviation to bid b wins against all opponent values below
    z = sup {v' : bid_fn(v') <= b}, found by bisection; utility is then
    F(z)**(n-1) * (v - b).  The sup over continuous deviations is approximated
    on a grid, so the reported regret carries the grid resolution.  Ties are
    not split: a bid function that pools values on one bid is under-reported.
    F is a PiecewisePolyCdf; the bid function must pass
    monotone_no_overbid_check at the values i/512, else DomainError names a
    witness.
    """
    check_bidders(n)
    if not isinstance(F, PiecewisePolyCdf):
        raise DomainError(f"unsupported cdf type: {type(F).__name__}")
    probe = monotone_no_overbid_check(bid_fn, samples=512)
    for what, witnesses in (("overbids", probe.overbid_witnesses), ("decreases", probe.monotonicity_witnesses)):
        if witnesses:
            raise DomainError(f"bid function {what} at v={witnesses[0][0]}")
    fcdf, fbid = float_view(F), float_view(bid_fn)
    bid_at_0, bid_at_1 = fbid(np.array([0.0, 1.0]))
    deviations = np.arange(GRID_DEVIATIONS + 1) / GRID_DEVIATIONS
    # a deviation at or above bid_fn(1) wins against every value, one below bid_fn(0) against none
    z = np.where(bid_at_1 <= deviations, 1.0, 0.0)
    inside = (bid_at_0 <= deviations) & (deviations < bid_at_1)
    z[inside] = _invert(fbid, deviations[inside], INVERSION_STEPS)[0]
    v_low = float(F.support_infimum())
    values = v_low + (1 - v_low) * np.arange(GRID_VALUES + 1) / GRID_VALUES
    own = fcdf(values) ** (n - 1) * (values - fbid(values))
    regret = fcdf(z) ** (n - 1) * (values[:, None] - deviations) - own[:, None]
    i, j = np.unravel_index(np.argmax(regret), regret.shape)
    return RegretReport(max(float(regret[i, j]), 0.0), (float(values[i]), float(deviations[j])))


def _invert(f: Callable, y: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Brackets [lo, hi] on sup {x in [0, 1] : f(x) <= y}, elementwise over y, for a nondecreasing f.

    f takes an array (:func:`cdf.float_view`).  Each of the steps halves
    every bracket, from [0, 1], with one call of f on all the midpoints.
    """
    lo, hi = np.zeros_like(y), np.ones_like(y)
    for _ in range(steps):
        mid = (lo + hi) / 2
        below = f(mid) <= y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo, hi


def _top_opposing_bids(F, n: int, fbid, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's highest opposing bid and the number of opponents who bid it.

    The n - 1 opponent values of all trials are one (trials, n - 1) draw from
    the Philox stream named by the seed, inverted through the cdf.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    lo, hi = _invert(float_view(F), rng.random((trials, n - 1)), SAMPLING_STEPS)
    opp_bids = fbid((lo + hi) / 2)
    top = opp_bids.max(axis=1)
    return top, (opp_bids == top[:, None]).sum(axis=1)


def _win_share(top: np.ndarray, ties: np.ndarray, b: float) -> np.ndarray:
    """Share of the item that bid b wins in each trial, ties split uniformly."""
    return np.where(top < b, 1.0, np.where(top == b, 1.0 / (1.0 + ties), 0.0))


def _paired_regrets(F, n: int, bid_fn, trials: int, seed: int):
    """The values and deviations i/8, and the mean and standard error of each pair's regret.

    ``means[i, j]`` estimates the utility of value points[i] bidding points[j]
    minus that of its own bid, from the paired differences of the two on the
    same trials.
    """
    check_bidders(n)
    if trials < 2:
        raise DomainError("a standard error needs trials >= 2")
    if trials * (n - 1) > MAX_MC_DRAWS:
        raise DomainError(f"trials * (n - 1) = {trials * (n - 1)} exceeds the limit of {MAX_MC_DRAWS} draws")
    fbid = float_view(bid_fn)
    top, ties = _top_opposing_bids(F, n, fbid, trials, seed)
    points = [i / MC_GRID for i in range(MC_GRID + 1)]
    own_bids = fbid(np.array(points)).tolist()
    shares = {b: _win_share(top, ties, b) for b in dict.fromkeys(points + own_bids)}
    means = np.empty((len(points), len(points)))
    std_errs = np.empty_like(means)
    for i, (v, own_bid) in enumerate(zip(points, own_bids)):
        own = (v - own_bid) * shares[own_bid]
        for j, b in enumerate(points):
            diff = (v - b) * shares[b] - own
            means[i, j] = diff.mean()
            std_errs[i, j] = diff.std(ddof=1) / np.sqrt(trials)
    return points, means, std_errs


def monte_carlo_regret(F, n: int, bid_fn, trials: int, seed: int) -> RegretReport:
    """Monte Carlo regret estimate over values and deviations i/8, on common random numbers.

    The opponents are drawn once, from the Philox stream named by the seed,
    and every (value, deviation) pair is compared on those same trials: a
    pair's regret is the mean of the per-trial difference between the
    deviation's payoff and the own bid's.  The reported sigma is the largest
    standard error of those paired differences, so the regret is
    max_regret +- 3*sigma.
    """
    points, means, std_errs = _paired_regrets(F, n, bid_fn, trials, seed)
    i, j = np.unravel_index(np.argmax(means), means.shape)
    return RegretReport(max(float(means[i, j]), 0.0), (points[i], points[j]), float(std_errs.max()))


def monotone_no_overbid_check(strategy: Callable, samples: int = 10_000) -> PropertyCheck:
    """Sampled check, at the values i/samples, that a strategy never overbids and is nondecreasing.

    The strategy is evaluated at all the values in one call of its float view
    (:func:`cdf.float_view`).  Each kind of witness lists its first five.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    v = np.arange(samples + 1) / samples
    b = float_view(strategy)(v)
    overbids = tuple((float(v[k]), float(b[k])) for k in np.flatnonzero(b > v + 1e-12)[:5])
    decreases = tuple((float(v[k]), float(b[k])) for k in np.flatnonzero(b[1:] < b[:-1] - 1e-12)[:5] + 1)
    return PropertyCheck(not overbids and not decreases, overbids, decreases)
