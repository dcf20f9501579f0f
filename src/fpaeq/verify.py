"""Independent certification of candidate equilibrium strategies.

Three routes, deliberately independent of the solvers they audit:

* exact deviation regret over a finite bid grid (rational arithmetic),
* grid-based deviation regret for continuous monotone bid functions, with the
  deviation's winning threshold read off the bid function (:func:`_thresholds`),
* Monte Carlo ex-post play with uniform tie-breaking.  A trial's shares depend
  only on the class of its top opposing bid, so one multinomial draw of the
  Philox stream the seed names counts the trials of each class
  (:func:`_class_counts`), in time and memory that do not grow with the trials,
  and every (value, deviation) pair is compared on the same trials.

The exact route takes a :class:`JumpPointStrategy`, which carries its bids.
The other two take a bid function: a :class:`PiecewisePoly`, such as a
jump-point strategy, a :class:`RationalBidFunction` or any callable on [0, 1].
They read it in floats through :func:`cdf.float_view`: the first two by their
own float evaluators (a rational bid function falls back to its exact bid
wherever the float error bound is too wide), any other callable on the exact
rational of each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cdf import PiecewisePolyCdf, float_view
from .discrete import JumpPointStrategy
from .errors import DomainError, check_bidders

INVERSION_STEPS = 60  # a threshold's final bracket is at most 2**-60 wide, or two adjacent floats
TABLE_STEPS = 8  # _invert evaluates f once at the dyadics j/2**8 and replays bisection's first steps there
FINAL_STEPS = 4  # _invert ends with bisection's own last 4 steps
TRUNCATION = 0.02  # ITP's kappa_1 in _invert, in units of the lattice points of a table cell
EXACT_VALUE_GRID = 64  # the exact verifier's uniform values are i/64
GRID_VALUES = 128  # the grid verifier's values split [v_low, 1] into 128 steps
GRID_DEVIATIONS = 256  # the grid verifier's deviations are j/256
MC_GRID = 8  # the Monte Carlo verifier's values and deviations are i/8
# Most trials one Monte Carlo run may take: a bound on the count its one draw takes, not on work or memory.
MAX_MC_TRIALS = 4_000_000


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


def epsilon_bne_check_cdfpa(F, n: int, strategy: JumpPointStrategy) -> RegretReport:
    """Deviation regret over all the strategy's bids, exact for rational inputs.

    The result is the exact maximum over a finite value set: every jump
    point, every bid, i/64 and the midpoints of consecutive distinct jump
    points.  Bid b_k wins with Delta_k = N_k / D_k whatever the value, so with
    the bids over their lcm B as integers c_k it pays (p*B - c_k*q) * N_k /
    (q*B*D_k) at v = p/q; the regret at v is the best payoff less the own
    bid's.  All comparisons are cross-multiplications of Python ints, and the
    one Fraction built is the result.  The argmax is the first maximum in
    increasing value, then bid.  The supremum over all values can lie above.
    """
    check_bidders(n)
    s, bids, win = strategy.s, strategy.bids, strategy.win_probs(F, n)
    values = set(s) | set(bids)
    values |= {Fraction(i, EXACT_VALUE_GRID) for i in range(EXACT_VALUE_GRID + 1)}
    values |= {(a + b) / 2 for a, b in zip(s, s[1:]) if a < b}
    B = math.lcm(*(b.denominator for b in bids))
    lines = [(b.numerator * (B // b.denominator), w.numerator, w.denominator, b) for b, w in zip(bids, win)]
    (_, N0, D0, b0), rest = lines[0], lines[1:]  # the lowest bid is 0
    best = (-1, 0, None, None)  # regret X / Y at value v deviating to bid b, as (X, Y, v, b); -1/0 is below all
    for v in values:  # in the set's order: an exact tie keeps the smaller value
        pB, q = v.numerator * B, v.denominator
        c, N, own_den, _ = lines[strategy.piece_index(v)]
        own = (pB - c * q) * N
        top, top_den, top_bid = pB * N0, D0, b0
        for c, N, D, b in rest:
            if c * q >= pB:
                break  # from here on b >= v: the payoff is at most 0, no more than bid 0's
            A = (pB - c * q) * N
            if A * top_den > top * D:
                top, top_den, top_bid = A, D, b
        X, Y = top * own_den - own * top_den, q * B * top_den * own_den
        d = X * best[1] - best[0] * Y
        if d > 0 or d == 0 and v < best[2]:
            best = (X, Y, v, top_bid)
    return RegretReport(Fraction(max(best[0], 0), best[1]), best[2:])


def epsilon_bne_check_ccfpa(F, n: int, bid_fn: Callable) -> RegretReport:
    """Deviation regret for a continuous monotone bid function.

    A deviation to bid b wins against all opponent values below
    z = sup {v' : bid_fn(v') <= b}, from :func:`_thresholds`; utility is then
    F(z)**(n-1) * (v - b).  The sup over continuous deviations is approximated
    on a grid, so the reported regret carries the grid resolution.  Ties are
    not split: a bid function that pools values on one bid is under-reported.
    F is a PiecewisePolyCdf; the bid function must pass monotone_no_overbid_check
    at the values i/512, else DomainError names a witness.
    """
    check_bidders(n)
    if not isinstance(F, PiecewisePolyCdf):
        raise DomainError(f"unsupported cdf type: {type(F).__name__}")
    probe = monotone_no_overbid_check(bid_fn, samples=512)
    for what, witnesses in (("overbids", probe.overbid_witnesses), ("decreases", probe.monotonicity_witnesses)):
        if witnesses:
            raise DomainError(f"bid function {what} at v={witnesses[0][0]}")
    fcdf, fbid = float_view(F), float_view(bid_fn)
    deviations = np.arange(GRID_DEVIATIONS + 1) / GRID_DEVIATIONS
    z = _thresholds(bid_fn, fbid, deviations)  # 0 below bid_fn(0), 1 at or above bid_fn(1)
    v_low = float(F.support_infimum())
    values = v_low + (1 - v_low) * np.arange(GRID_VALUES + 1) / GRID_VALUES
    own = _cdf_at(fcdf, values) ** (n - 1) * (values - fbid(values))
    regret = _cdf_at(fcdf, z) ** (n - 1) * (values[:, None] - deviations) - own[:, None]
    i, j = np.unravel_index(np.argmax(regret), regret.shape)
    return RegretReport(max(float(regret[i, j]), 0.0), (float(values[i]), float(deviations[j])))


def _thresholds(bid_fn, fbid: Callable, y: np.ndarray) -> np.ndarray:
    """sup {x : bid_fn(x) <= y}, bid_fn nondecreasing: :meth:`PiecewisePoly.float_thresholds` or :func:`_invert`'s lo."""
    z = bid_fn.float_thresholds(y) if hasattr(bid_fn, "float_thresholds") else None
    return _invert(fbid, y)[0] if z is None else z


def _invert(f: Callable, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brackets [lo, hi] on sup {x in [0, 1] : f(x) <= y}, elementwise over a 1-d y, for a nondecreasing f.

    f takes an array (:func:`cdf.float_view`).  Whatever f is, each bracket has
    lo = 0 or f(lo) <= y, hi = 1 or f(hi) > y, and hi - lo <= 2**-60 or no
    float strictly between lo and hi.  y below f(0) gives [0, 0], and y at or
    above f(1) gives [1, 1].

    Each cell [j/2**8, (j+1)/2**8] holds a lattice of floats spaced by u,
    2**-60 or the float spacing at j/2**8 where that is wider: the points that
    60 steps of bisection can reach in it.  One call of f on the dyadics
    j/2**8 replays bisection's first 8 steps on their indices.  ITP (Oliveira
    and Takahashi, ACM TOMS 47(1), 2020) then narrows each cell to one of
    width 2**FINAL_STEPS u, on the points that far apart, with one call of f
    per step on the elements still open, and bisection's own last FINAL_STEPS
    steps finish it.  So where f is nondecreasing on those coarser points and
    f(0) <= y < f(1), the bracket is the one that 60 steps of bisection from
    [0, 1] end on, as it is wherever f's floats are nondecreasing.  No end is
    moved without a call of f there.

    ITP keeps bisection's worst case, one step more, and takes a few steps on
    smooth f: f is called once for the table and then at most 53 times, on at
    most 53 points per element of y, in one pass over y.
    """
    top = 1 << TABLE_STEPS
    table = f(np.arange(top + 1) / top)
    j = np.zeros(y.shape, dtype=np.int64)
    for half in (top >> k for k in range(1, TABLE_STEPS + 1)):  # bisection's first steps, on the table's indices
        j += (table[j + half] <= y) * half
    lo = np.where(y < table[0], 0.0, 1.0)  # [0, 0] below f(0), [1, 1] at or above f(1)
    hi = lo.copy()
    inside = np.flatnonzero((table[0] <= y) & (y < table[top]))  # there table[j] <= y < table[j + 1]
    y, j = y[inside], j[inside]
    a0 = j / top
    coarse = np.maximum(np.spacing(a0), 2.0**-INVERSION_STEPS) * 2**FINAL_STEPS  # 2**FINAL_STEPS lattice points apart
    left = _itp(f, y, a0, coarse, table[j] - y, table[j + 1] - y)
    right = left + coarse
    for _ in range(FINAL_STEPS):  # bisection's own last steps
        mid = (left + right) / 2
        below = f(mid) <= y
        left, right = np.where(below, mid, left), np.where(below, right, mid)
    lo[inside], hi[inside] = left, right
    return lo, hi


def _itp(f: Callable, y: np.ndarray, a0: np.ndarray, unit: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """The left end of a cell [a0 + i * unit, a0 + (i + 1) * unit] with f(left) <= y < f(right), by ITP on
    the points a0 + i * unit, i = 0..K, of the table cell [a0, a0 + 2**-TABLE_STEPS]; fa <= 0 < fb are f - y at its ends.

    K = 2**-TABLE_STEPS / unit is a power of 2 below 2**53, so the arithmetic on i
    is exact, and each element takes at most log2(K) + 1 steps.
    """
    left = np.empty_like(a0)
    reach = 2.0**-TABLE_STEPS / unit  # K
    kappa = TRUNCATION / reach
    open_, a, b = np.arange(a0.size), np.zeros_like(a0), reach.copy()
    while True:
        closed = np.flatnonzero(b - a <= 1)
        left[open_[closed]] = a0[closed] + a[closed] * unit[closed]
        if closed.size == a.size:
            return left
        if closed.size:
            keep = np.flatnonzero(b - a > 1)
            open_, y, a0, unit, kappa, reach, a, b, fa, fb = (
                v[keep] for v in (open_, y, a0, unit, kappa, reach, a, b, fa, fb))
        # ITP, kappa_2 = 2, n_0 = 1: the regula falsi point moves toward the midpoint by
        # max(kappa (b - a)**2, 1), so that a bracket closes from both sides, and then to within
        # reach of both ends; reach halves each step, and b - a <= 2 reach holds throughout
        w = b - a
        d = w * (fa / (fa - fb) - 0.5)  # the regula falsi point less the midpoint, NaN if f was
        shift = np.minimum(np.fmax(np.abs(d) - np.maximum(kappa * w * w, 1.0), 0.0), reach - w / 2)  # 0 for a NaN d
        x = np.rint(a + (w / 2 + np.copysign(shift, d)))
        fx = f(a0 + x * unit) - y
        below = fx <= 0
        a, b = a + below * (x - a), x + below * (b - x)  # exact: integers below 2**53
        fa, fb = np.where(below, fx, fa), np.where(below, fb, fx)
        reach /= 2


def _cdf_at(fcdf: Callable, x: np.ndarray) -> np.ndarray:
    """fcdf at nondecreasing x, made nondecreasing and clipped to [0, 1]: a cdf's floats may dip by an ulp or pass 1."""
    return np.clip(np.maximum.accumulate(fcdf(x)), 0.0, 1.0)


def _class_counts(F, n: int, bid_fn, fbid, bids: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Counts of the trials' classes (k, t) of the top opposing bid among the sorted bids, at index k * n + t.

    Class (k, 0) is a top bid strictly between bids[k - 1] and bids[k], and
    (k, t >= 1) one of bids[k] that t opponents bid.  For a nondecreasing bid
    function an opponent bids below bids[k] with probability a_k = F(z-) and
    at most bids[k] with c_k = F(z+), for z- = sup {x : bid(x) < b} and z+ =
    sup {x : bid(x) <= b} (:func:`_thresholds`).  The n - 1 opponents are iid,
    so with c_(-1) = 0, and a = c = 1 for the class k = len(bids) above every bid,

        P(k, 0) = a_k**(n - 1) - c_(k-1)**(n - 1),
        P(k, t) = C(n - 1, t) a_k**(n - 1 - t) (c_k - a_k)**t,

    which is also 1 + Binomial(n - 2, (L - a_k) / L) ties at the top value's
    cdf value L, of density (n - 1) L**(n - 2) (David and Nagaraja, Order
    Statistics, 2003), integrated over L in (a_k, c_k].  One multinomial draw
    of the Philox stream the seed names takes the counts.  numpy takes the
    last probability as the remainder: that of the impossible class
    (len(bids), n - 1), whose shares, 0 at every bid, are those of (len(bids), 0).
    """
    y = np.column_stack([np.nextafter(bids, -np.inf), bids]).ravel()
    edges = np.append(_cdf_at(float_view(F), _thresholds(bid_fn, fbid, y)), (1.0, 1.0))
    a, c = edges[0::2, None], edges[1::2, None]
    t = np.arange(n)
    p = np.array([math.comb(n - 1, i) for i in t], dtype=float) * a ** (n - 1 - t) * (c - a) ** t
    p[:, 0] = np.diff(edges ** (n - 1), prepend=0.0)[0::2]  # a_k**(n - 1) - c_(k-1)**(n - 1), both by one rule: >= 0
    return np.random.Generator(np.random.Philox(seed)).multinomial(trials, p.ravel())


def _paired_regrets(F, n: int, bid_fn, trials: int, seed: int):
    """The values and deviations i/8, and the mean and standard error of each pair's regret.

    ``means[i, j]`` estimates the utility of value points[i] bidding points[j]
    minus that of its own bid, from the paired differences of the two on the
    same trials.

    A trial's share of bid b is 1 if its top opposing bid is below b, 1/(1 + t)
    if t opponents bid exactly b, and 0 otherwise.  So every share depends only
    on the class of the top bid among the sorted distinct bids (the points and
    the own bids): strictly between bids[k - 1] and bids[k], or on bids[k]
    with t ties (:func:`_class_counts`).  Each pair's difference, the same
    float per trial as on the trials themselves, is taken once per class and
    weighted by the counts.  The variance is centred on the first class's
    difference before the mean, so a pair whose difference is the same in
    every trial has a standard error of exactly 0.  The classes hold only
    for a nondecreasing bid function, so one that decreases at the values
    i/512 raises DomainError at every n; an overbid is allowed.
    """
    check_bidders(n)
    if trials < 2:
        raise DomainError("a standard error needs trials >= 2")
    if trials > MAX_MC_TRIALS:
        raise DomainError(f"trials = {trials} exceeds the limit of {MAX_MC_TRIALS}")
    if decreases := monotone_no_overbid_check(bid_fn, samples=512).monotonicity_witnesses:
        raise DomainError(f"bid function decreases at v={decreases[0][0]}")
    fbid = float_view(bid_fn)
    points = np.arange(MC_GRID + 1) / MC_GRID
    own_bids = fbid(points)
    bids = np.array(sorted({*points.tolist(), *own_bids.tolist()}))
    counts = _class_counts(F, n, bid_fn, fbid, bids, trials, seed)
    classes = np.flatnonzero(counts)
    k, t = np.divmod(classes, n)
    rows = np.arange(bids.size)[:, None]
    share = np.where(rows > k, 1.0, (rows == k) / (1.0 + t))  # (bid, class): 1/(1 + 0) for a top below bids[k]
    own = (points - own_bids)[:, None] * share[np.searchsorted(bids, own_bids)]
    diff = (points[:, None] - points)[..., None] * share[np.searchsorted(bids, points)] - own[:, None]
    weights = counts[classes]
    means = (diff * weights).sum(axis=-1) / trials
    diff -= diff[..., :1]  # centred on the first class, then on the mean: 0 where a pair's difference is constant
    diff -= (diff * weights).sum(axis=-1, keepdims=True) / trials
    std_errs = np.sqrt((diff * diff * weights).sum(axis=-1) / (trials - 1)) / np.sqrt(trials)
    return points.tolist(), means, std_errs


def monte_carlo_regret(F, n: int, bid_fn, trials: int, seed: int) -> RegretReport:
    """Monte Carlo regret estimate over values and deviations i/8, on common random numbers.

    Every (value, deviation) pair is compared on the same trials, drawn from
    the Philox stream the seed names: its regret is the mean of the per-trial
    difference between the deviation's payoff and the own bid's.  sigma is the
    largest standard error of those paired differences: max_regret +- 3*sigma.
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
