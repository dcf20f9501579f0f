"""Independent certification of candidate equilibrium strategies.

Three routes.  They share with the solvers only Delta, the win probability of
a bid (:mod:`discrete`): the exact route takes it as an integer pair from
:func:`discrete._delta_ratio`, grid mode in floats from :func:`delta_win_prob`,
both on the one sum of powers :func:`discrete._power_sum`.  The regret each
route forms and the Monte Carlo class law are their own:

* exact deviation regret over a finite bid grid (rational arithmetic),
* grid-based deviation regret for continuous monotone bid functions, in
  threshold coordinates: the deviations are the bids beta(z) of a grid of
  values z, and a deviation ties with the opponent values of its run of equal
  bids and beats those below (:func:`_edges`),
* Monte Carlo ex-post play with uniform tie-breaking.  A trial's shares depend
  only on the class of its top opposing bid, so one multinomial draw of the
  Philox stream the seed names counts the trials of each class
  (:func:`_class_counts`), in time and memory that do not grow with the trials,
  and every (value, deviation) pair is compared on the same trials.

The exact route takes a :class:`JumpPointStrategy`, which carries its bids.
The other two take a bid function: a :class:`PiecewisePoly`, such as a
jump-point strategy, a :class:`RationalBidFunction` or any callable on [0, 1].
Each reads it once, in floats through :func:`cdf.float_view`, at 513 points:
i/512 in Monte Carlo, the same grid over the cdf's support in grid mode.  A
piecewise polynomial or a rational bid function is read by its own float
evaluator (a rational bid function falls back to its exact bid wherever the
float error bound is too wide), any other callable on the exact rational of
each point.  Where a nondecreasing bid function is strictly increasing,
bidding beta(z) wins against exactly the opponent values below z (the change
of variables of first-price analysis; Krishna, Auction Theory, 2nd ed., 2010,
ch. 2), so no threshold needs an inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cdf import PiecewisePolyCdf, float_view
from .discrete import JumpPointStrategy, _cdf_pairs, _delta_ratio, _powers, delta_win_prob
from .errors import DomainError, check_bidders

EXACT_VALUE_GRID = 64  # the exact verifier's uniform values are i/64
GRID_VALUES = 128  # the grid verifier's values split [v_low, 1] into 128 steps: every fourth bid point
BID_GRID = 512  # the float verifiers read the bid function at i/512, grid mode on [v_low, 1]
MC_GRID = 8  # the Monte Carlo verifier's values are i/8, and so are its deviations on a step function
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


def _reduced(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(p, q)
    return p // g, q // g


_GRID_VALUES = frozenset(_reduced(i, EXACT_VALUE_GRID) for i in range(EXACT_VALUE_GRID + 1))  # i/64 as (p, q)


def epsilon_bne_check_cdfpa(F, n: int, strategy: JumpPointStrategy) -> RegretReport:
    """Deviation regret over all the strategy's bids, exact for rational inputs.

    The result is the exact maximum over a finite value set: every jump
    point, every bid, i/64 and the midpoints of consecutive distinct jump
    points.  The verifier works on integer pairs.  Bid b_k wins with
    Delta_k = N_k / D_k whatever the value, an integer sum over the lcm of
    F's denominators at its two jump points (:func:`discrete._delta_ratio`),
    so with the bids over their lcm B as integers c_k it pays
    (p*B - c_k*q) * N_k / (q*B*D_k) at a value v = p/q, held gcd-reduced,
    whose piece is found on ints (:meth:`PiecewisePoly.piece_of`); the
    regret at v is the best payoff less the own bid's.  F at the jump points
    comes as integer pairs (:func:`discrete._cdf_pairs`), and all comparisons
    are cross-multiplications of Python ints, so the only Fractions built are
    the result and its argmax value.  The argmax is the first maximum in
    increasing value, then bid.  The supremum over all values can lie above.
    """
    check_bidders(n)
    s, bids = strategy.s, strategy.bids
    fs = _cdf_pairs(F, s)
    values = {(x.numerator, x.denominator) for x in (*s, *bids)} | _GRID_VALUES
    values |= {_reduced(a.numerator * b.denominator + b.numerator * a.denominator, 2 * a.denominator * b.denominator)
               for a, b in zip(s, s[1:]) if a < b}  # the midpoints
    B = math.lcm(*(b.denominator for b in bids))
    lines = [(b.numerator * (B // b.denominator), *_delta_ratio(x, y, n), b) for b, x, y in zip(bids, fs, fs[1:])]
    (_, N0, D0, b0), rest = lines[0], lines[1:]  # the lowest bid is 0
    best = (-1, 0, 0, 1, None)  # regret X / Y at value p/q deviating to bid b, as (X, Y, p, q, b); -1/0 is below all
    for p, q in values:  # in the set's order: an exact tie keeps the smaller value
        pB = p * B
        c, N, own_den, _ = lines[strategy.piece_of(p, q)]
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
        if d > 0 or d == 0 and p * best[3] < best[2] * q:
            best = (X, Y, p, q, top_bid)
    X, Y, p, q, b = best
    return RegretReport(Fraction(max(X, 0), Y), (Fraction(p, q), b))


def epsilon_bne_check_ccfpa(F, n: int, bid_fn: Callable) -> RegretReport:
    """Deviation regret for a continuous monotone bid function, in threshold coordinates.

    The bid function is read once, on the grid z = v_low + (1 - v_low) j/512
    over the support [v_low, 1], and its bids made nondecreasing; the 129
    values are every fourth point.  The deviations are those bids and those of
    :func:`_deviations`: for a step function with exact thresholds, such as a
    jump-point strategy, the points z, else the float above each bid.  A bid b
    wins Delta(F(z-), F(z+)), ties split evenly (:func:`delta_win_prob`, and
    F(z+)**(n - 1) where F(z-) = F(z+)), for z- = sup {x : beta(x) < b} and
    z+ = sup {x : beta(x) <= b} as :func:`_edges` gives them: a step function's
    exact thresholds (:meth:`PiecewisePoly.float_thresholds`, asked for once),
    or the first and last z of b's run of equal bids from one read of F at z.
    The own bid wins by the same rule, as in the exact and the Monte Carlo
    verifiers.  The sup over continuous deviations is approximated on the
    grid, so the reported regret carries the grid resolution, and the argmax
    bid is one of the deviations.  F is a PiecewisePolyCdf; the bid function
    must not overbid or decrease at the points z (as
    :func:`monotone_no_overbid_check` finds them), else DomainError names a
    witness.
    """
    check_bidders(n)
    if not isinstance(F, PiecewisePolyCdf):
        raise DomainError(f"unsupported cdf type: {type(F).__name__}")
    v_low = float(F.support_infimum())
    z = v_low + (1 - v_low) * np.arange(BID_GRID + 1) / BID_GRID
    values = z[:: BID_GRID // GRID_VALUES]
    bids = _bids_at(bid_fn, z, refuse=("overbids", "decreases"))
    fcdf, exact = float_view(F), getattr(bid_fn, "float_thresholds", lambda: None)()
    deviations = _deviations(exact, bids, z)
    if exact:  # the own bids lead, as in the other case, so each value's own win is in the same array
        deviations = np.append(bids, deviations)
        a, c = np.concatenate([[_cdf_at(fcdf, x) for x in _edges(exact, z, bids, y)] for y in (bids, z)], axis=1)
    else:  # F at the first and last z of each deviation's run, from one read of F at z
        a, c = _edges(None, _cdf_at(fcdf, z), bids, deviations)
        # the float above a bid whose edges read one F wins no more than the bid and pays more: drop its column
        keep = np.append(np.full(z.size, True), a[: z.size] < c[: z.size])
        deviations, a, c = deviations[keep], a[keep], c[keep]
    win = np.where(a < c, delta_win_prob(c, a, n), _powers(c, n)[-1])
    own = win[: z.size : BID_GRID // GRID_VALUES] * (values - bids[:: BID_GRID // GRID_VALUES])
    regret = values[:, None] - deviations  # then in place: one array of values x deviations at a time
    regret *= win
    regret -= own[:, None]
    i, j = np.unravel_index(np.argmax(regret), regret.shape)
    return RegretReport(max(float(regret[i, j]), 0.0), (float(values[i]), float(deviations[j])))


def _bids_at(bid_fn, z: np.ndarray, refuse: tuple) -> np.ndarray:
    """The bid function at sorted z, in one call of its float view, made nondecreasing.

    DomainError names the first witness of each kind refused, "overbids" and
    "decreases", as :func:`monotone_no_overbid_check` finds them.
    """
    bids = float_view(bid_fn)(z)
    check = _witnesses(z, bids)
    for what, witnesses in (("overbids", check.overbid_witnesses), ("decreases", check.monotonicity_witnesses)):
        if what in refuse and witnesses:
            raise DomainError(f"bid function {what} at v={witnesses[0][0]}")
    return np.maximum.accumulate(bids)


def _deviations(exact, own_bids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The deviations of both float verifiers: the points for a step function with exact thresholds
    (:meth:`PiecewisePoly.float_thresholds`), whose edges are exact at any bid; for any other bid function, whose
    exact is None, its own bids and the float above each, which beats a run of equal bids without paying more."""
    return points if exact else np.append(own_bids, np.nextafter(own_bids, np.inf))


def _edges(exact, z: np.ndarray, bids: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z- = sup {x : bid(x) < y} and z+ = sup {x : bid(x) <= y} for each y >= bids[0].

    A step function's exact thresholds, the closure of
    :meth:`PiecewisePoly.float_thresholds` in exact, give both, at the float
    below y and at y.  With exact None they come from bids = bid(z), nondecreasing:
    z+ is the last z whose bid is at most y, and z- the first z of y's run of
    equal bids, or z+ if y is not one of the bids.  That is exact wherever
    the bid function is strictly increasing, or pools only where F is flat.
    Any array aligned with z, such as F read at z, in its place gives its
    entries at those edges.
    """
    if exact:
        return exact(np.nextafter(y, -np.inf)), exact(y)
    last = np.searchsorted(bids, y, side="right") - 1
    return z[np.minimum(np.searchsorted(bids, y), last)], z[last]


def _cdf_at(fcdf: Callable, x: np.ndarray) -> np.ndarray:
    """fcdf at nondecreasing x, made nondecreasing and clipped to [0, 1]: a cdf's floats may dip by an ulp or pass 1."""
    return np.clip(np.maximum.accumulate(fcdf(x)), 0.0, 1.0)


def _class_counts(n: int, edges: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Counts of the trials' classes (k, t) of the top opposing bid among the sorted bids, at index k * n + t.

    Class (k, 0) is a top bid strictly between bids[k - 1] and bids[k], and
    (k, t >= 1) one of bids[k] that t opponents bid.  For a nondecreasing bid
    function an opponent bids below bids[k] with probability a_k = F(z-) and
    at most bids[k] with c_k = F(z+), for z- = sup {x : bid(x) < b} and z+ =
    sup {x : bid(x) <= b} (:func:`_edges`); edges holds a_0, c_0, a_1, c_1, ...,
    nondecreasing.  The n - 1 opponents are iid, so with c_(-1) = 0, and
    a = c = 1 for the class k = len(bids) above every bid,

        P(k, 0) = a_k**(n - 1) - c_(k-1)**(n - 1),
        P(k, t) = C(n - 1, t) a_k**(n - 1 - t) (c_k - a_k)**t,

    which is also 1 + Binomial(n - 2, (L - a_k) / L) ties at the top value's
    cdf value L, of density (n - 1) L**(n - 2) (David and Nagaraja, Order
    Statistics, 2003), integrated over L in (a_k, c_k].  Each power is a
    product (:func:`_power_table`).  One multinomial draw of the Philox
    stream the seed names takes the counts.  numpy takes the last probability
    as the remainder: that of the impossible class (len(bids), n - 1), whose
    shares, 0 at every bid, are those of (len(bids), 0).
    """
    edges = np.append(edges, (1.0, 1.0))
    powers = _power_table(edges, n)
    p = np.array([math.comb(n - 1, t) for t in range(n)], dtype=float) * powers[0::2, ::-1]
    p *= _power_table(edges[1::2] - edges[0::2], n)
    p[:, 0] = np.diff(powers[:, -1], prepend=0.0)[0::2]  # a_k**(n - 1) - c_(k-1)**(n - 1), both by one rule: >= 0
    return np.random.Generator(np.random.Philox(seed)).multinomial(trials, p.ravel())


def _power_table(x: np.ndarray, n: int) -> np.ndarray:
    """x**0 .. x**(n - 1) along a new last axis, each the one before times x (:func:`discrete._powers`): correctly
    rounded products, whose bits depend on x alone, where numpy's float ** may run code that the CPU selects."""
    return np.stack([np.ones_like(x), *_powers(x, n)], axis=-1)


def _paired_regrets(F, n: int, bid_fn, trials: int, seed: int):
    """The values i/8, the deviations, and the mean and standard error of each pair's regret.

    The deviations are those of :func:`_deviations` at the values i/8: the
    values themselves for a step function such as a jump-point strategy, else
    the own bids beta(i/8) and the float above each.
    ``means[i, j]`` estimates the utility of value i/8 bidding deviations[j]
    minus that of its own bid, from the paired differences of the two on the
    same trials.

    A trial's share of bid b is 1 if its top opposing bid is below b, 1/(1 + t)
    if t opponents bid exactly b, and 0 otherwise.  So every share depends only
    on the class of the top bid among the sorted distinct bids (the deviations
    and the own bids): strictly between bids[k - 1] and bids[k], or on bids[k]
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
    z = np.arange(BID_GRID + 1) / BID_GRID
    read = _bids_at(bid_fn, z, refuse=("decreases",))
    values, own_bids = z[:: BID_GRID // MC_GRID], read[:: BID_GRID // MC_GRID]
    exact = getattr(bid_fn, "float_thresholds", lambda: None)()
    deviations = _deviations(exact, own_bids, values)
    bids = np.array(sorted({*deviations.tolist(), *own_bids.tolist()}))
    edges = _cdf_at(float_view(F), np.column_stack(_edges(exact, z, read, bids)).ravel())  # a_0, c_0, a_1, ...
    counts = _class_counts(n, edges, trials, seed)
    classes = np.flatnonzero(counts)
    k, t = np.divmod(classes, n)
    rows = np.arange(bids.size)[:, None]
    share = np.where(rows > k, 1.0, (rows == k) / (1.0 + t))  # (bid, class): 1/(1 + 0) for a top below bids[k]
    own = (values - own_bids)[:, None] * share[np.searchsorted(bids, own_bids)]
    diff = (values[:, None] - deviations)[..., None] * share[np.searchsorted(bids, deviations)] - own[:, None]
    weights = counts[classes]
    means = (diff * weights).sum(axis=-1) / trials
    diff -= diff[..., :1]  # centred on the first class, then on the mean: 0 where a pair's difference is constant
    diff -= (diff * weights).sum(axis=-1, keepdims=True) / trials
    std_errs = np.sqrt((diff * diff * weights).sum(axis=-1) / (trials - 1)) / np.sqrt(trials)
    return values.tolist(), deviations.tolist(), means, std_errs


def monte_carlo_regret(F, n: int, bid_fn, trials: int, seed: int) -> RegretReport:
    """Monte Carlo regret estimate over the values i/8 and the deviations of :func:`_paired_regrets`.

    Every (value, deviation) pair is compared on the same trials (common random
    numbers), drawn from the Philox stream the seed names: its regret is the
    mean of the per-trial difference between the deviation's payoff and the own
    bid's.  sigma is the largest standard error of those paired differences:
    max_regret +- 3*sigma.
    """
    values, deviations, means, std_errs = _paired_regrets(F, n, bid_fn, trials, seed)
    i, j = np.unravel_index(np.argmax(means), means.shape)
    return RegretReport(max(float(means[i, j]), 0.0), (values[i], deviations[j]), float(std_errs.max()))


def monotone_no_overbid_check(strategy: Callable, samples: int = 10_000) -> PropertyCheck:
    """Sampled check, at the values i/samples, that a strategy never overbids and is nondecreasing.

    The strategy is evaluated at all the values in one call of its float view
    (:func:`cdf.float_view`).  Each kind of witness lists its first five.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    v = np.arange(samples + 1) / samples
    return _witnesses(v, float_view(strategy)(v))


def _witnesses(v: np.ndarray, b: np.ndarray) -> PropertyCheck:
    """The first five overbids b > v and decreases of b along the sorted v, each beyond 1e-12."""
    overbids = tuple((float(v[k]), float(b[k])) for k in np.flatnonzero(b > v + 1e-12)[:5])
    decreases = tuple((float(v[k]), float(b[k])) for k in np.flatnonzero(b[1:] < b[:-1] - 1e-12)[:5] + 1)
    return PropertyCheck(not overbids and not decreases, overbids, decreases)
