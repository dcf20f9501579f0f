"""Equilibrium computation for finite bid grids.

A monotone strategy over bids b_1 < ... < b_m is encoded by jump points
0 <= s_0 <= ... <= s_m = 1: a bidder with value v in (s_{j-1}, s_j] bids b_j.
:class:`JumpPointStrategy` is that step function, a :class:`PiecewisePoly` with
breakpoints s and constant rows b_j; the certificate and the verifiers take it as it is.
The win probability of bid b_j against n-1 opponents playing the same strategy
is Delta(s_{j-1}, s_j) with

    Delta(x, y) = (1/n) * sum_{i<n} F(x)**(n-1-i) * F(y)**i.

Delta is symmetric in x and y.  `delta_win_prob` takes the two cdf values, and
the code that owns the jump points evaluates F once per point.

The solver searches the equilibrium utility at the top value v = 1 and
reconstructs the jump points from it (descending over bids, inverting Delta by
bisection where needed, and ending each bisection with one linear
interpolation inside its final bracket, so the jump points move continuously
with U).  A jump point that reaches the one above pools with it and takes its
utility, so the certificate `check_conditions` demands condition 2's
U_{i-1} = U_i exactly.  The certificate is the only gate, so the search may
use any arithmetic.  `solve` makes at most two attempts, the search in
floats on a float view of the cdf and then the same search in exact
Fractions, and returns the first whose strategy passes the certificate.

Both attempts' results pass through one conversion to exact rationals: s_0
and U_0 become 0, each jump point is taken back at or above its bid, so
condition 3 holds exactly, and at or below the one above, as the walk keeps
them, and each utility is taken as the exact value of its float.  On an exact
walk the conversion changes nothing.  Both attempts search at delta = gamma/4,
for the certificate's residual bound gamma: each bisection stops once the
utilities at the ends of its bracket differ by at most delta, and the outer
search on U once bid 1's condition-1 residual under s_0 = 0 is at most
2 delta = gamma/2.  Either search also stops at its floor, a bracket
2**-52 wide in floats and delta * 2**-52 wide in Fractions.  The exact search
bisects U.  The float search takes ITP's projection of a secant through its
last two walks above the root (:func:`_itp_point`), so it never leaves a
wider bracket than bisection's after one walk more; it searches to
max(delta, 2**-52), the resolution of floats on [0, 1], and stops after
MAX_FLOAT_WALKS = 52 walks, bisection's count to 2**-52, with a bracket of
2**-51 at worst.

The certificate decides in floats what floats can decide and is exact
everywhere else: F at each jump point is enclosed between two floats by
Horner's a-priori error bound, and Delta and each residual by boxes rounded
outward, so only the residuals whose boxes reach the largest lower end are
computed in exact rationals.  A pass remains a proof, and max_residual is
the exact maximum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cdf import float_view, strongly_increasing_transform
from .errors import DomainError, PrecisionError, check_bidders
from .poly import PiecewisePoly, float_bounds, gamma_k
from .rationals import parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_FLOAT_WALKS = 52  # the float search's walks at most: bisection's count from [0, 1] down to 2**-52
SIDES = np.array([-1.0, 1.0])  # the lower and the upper end of a float box


@dataclass(frozen=True)
class BidGrid:
    bids: tuple[Fraction, ...]

    def __post_init__(self):
        bids = tuple(parse_rational(b) for b in self.bids)
        object.__setattr__(self, "bids", bids)
        if not bids:
            raise DomainError("bid grid must be nonempty")
        if bids[0] != 0:
            raise DomainError("lowest bid must be 0")
        if any(a >= b for a, b in zip(bids, bids[1:])):
            raise DomainError("bids must be strictly increasing")
        if bids[-1] >= 1:
            raise DomainError("highest bid must be < 1")

    @property
    def m(self) -> int:
        return len(self.bids)


@dataclass(frozen=True, init=False)
class JumpPointStrategy(PiecewisePoly):
    """The step bid function of jump points 0 <= s_0 <= ... <= s_m = 1 on a grid's bids b_1 < ... < b_m, and the
    utilities U_0..U_m solved with them: b_j on (s_{j-1}, s_j], and b_1 at and below s_0, held as constant rows."""

    utilities: tuple
    bids: tuple[Fraction, ...] = field(repr=False, compare=False)  # b_1..b_m, the grid's: the constant rows

    def __init__(self, grid: BidGrid, s: Sequence, utilities: Sequence):
        if len(s) != grid.m + 1:
            raise DomainError(f"strategy has {len(s)} jump points; {grid.m} bids need {grid.m + 1}")
        if s[0] < 0:
            raise DomainError("first jump point must be >= 0")
        if any(a > b for a, b in zip(s, s[1:])):
            raise DomainError("jump points must be nondecreasing")
        if s[-1] != 1:
            raise DomainError("last jump point must be 1")
        super().__init__(s, [(b,) for b in grid.bids])
        object.__setattr__(self, "utilities", tuple(utilities))
        object.__setattr__(self, "bids", grid.bids)

    @property
    def s(self) -> tuple[Fraction, ...]:
        """The jump points s_0..s_m: the breakpoints."""
        return self.breakpoints

    def win_probs(self, F, n: int) -> tuple:
        """Delta_1..Delta_m: bid b_j wins with Delta(s_{j-1}, s_j), whatever the value."""
        fs = [F(x) for x in self.s]
        return tuple(delta_win_prob(fx, fy, n) for fx, fy in zip(fs, fs[1:]))


@dataclass(frozen=True)
class ConditionResidual:
    condition: int  # 1, 2, or 3
    index: int  # bid index i in [m]
    residual: object  # exact, or a rational at or above it where a float box shows it is not the largest
    bound: object


@dataclass(frozen=True)
class Certificate:
    gamma: object
    passed: bool
    max_residual: object
    residuals: tuple[ConditionResidual, ...]


@dataclass(frozen=True)
class SolveResult:
    strategy: JumpPointStrategy
    certificate: Certificate
    transformed_cdf: object  # the mixed cdf the certificate was checked under


def _power_sum(a, b, n: int):
    """sum(a**(n-1-i) * b**i for i < n), by s_k = a * s_(k-1) + b**k from s_0 = 1.

    Exact on ints and Fractions.  On floats in [0, 1] every term is nonnegative, so the float is within
    a relative gamma_(2n-2) of the exact sum of the same floats (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1), plus at most (n - 1) * 2**-1074 where products underflow.
    """
    acc = power = 1
    for _ in range(n - 1):
        power *= b
        acc = acc * a + power
    return acc


def delta_win_prob(fx, fy, n: int):
    """Win probability of a bid whose opponents' jump interval around it has cdf values fx and fy (n >= 2)."""
    return _power_sum(fx, fy, n) / n


def _floor(delta, exact: bool):
    """The narrowest bracket a search bisects: 2**-52 in floats, as halving [0, 1] stays exact down to it
    and a wider bracket of floats in [0, 1] holds a float strictly inside, and delta * 2**-52 in
    Fractions, which resolve past a float where bid 1's residual needs it."""
    return delta / 2**52 if exact else sys.float_info.epsilon


def compute_strategy(F, n: int, grid: BidGrid, U, delta):
    """Reconstruct jump points from a candidate top-value utility U.

    Walks bids from the highest down.  At each bid either the whole remaining
    interval pools (utility already below U), the bid is skipped down to its
    own level (utility exceeds U even at the bottom), or the jump point is
    located by bisection so that bidding here at the jump yields about utility
    U.  The bisection keeps f_lo < U_i <= f_hi, the utilities
    (s_i - b_i) Delta(F(x), F(s_i)) at its bracket's ends x, and stops once
    f_hi - f_lo <= delta, or at the bracket floor of :func:`_floor`.  They are
    nondecreasing in x, so every point of such a bracket is within delta of U_i.  It ends with one
    linear-interpolation step inside its final bracket, its ratio taken as a
    float in either arithmetic, so the jump point moves continuously with U; a
    point it puts at the one above pools with it, utility and all.  A Fraction
    U runs the walk exactly; any other U runs it in floats, for which F must
    take and return floats.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    m = grid.m
    exact = isinstance(U, Fraction)
    bids = grid.bids if exact else tuple(float(b) for b in grid.bids)
    s = [None] * (m + 1)
    uvec = [None] * (m + 1)
    s[m] = ONE if exact else 1.0
    uvec[m] = U
    floor = _floor(delta, exact)
    fs = F(s[m])  # F at the jump point above the current bid
    for i in range(m, 0, -1):
        b = bids[i - 1]
        si, ui = s[i], uvec[i]
        margin = si - b
        f_hi = margin * delta_win_prob(fs, fs, n)
        if f_hi <= ui:
            s[i - 1] = si
            uvec[i - 1] = ui
            continue
        fb = F(b)
        f_lo = margin * delta_win_prob(fb, fs, n)
        if f_lo >= ui:
            s[i - 1] = b
            uvec[i - 1] = 0 * ui
            fs = fb
            continue
        lo, hi = b, si
        while f_hi - f_lo > delta and hi - lo > floor:
            mid = (lo + hi) / 2
            f_mid = margin * delta_win_prob(F(mid), fs, n)
            if f_mid < ui:
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
        t = float((ui - f_lo) / (f_hi - f_lo))  # in (0, 1]: f_lo < ui <= f_hi
        x = min(lo + (hi - lo) * (Fraction(t) if exact else t), si)
        fx = F(x)
        s[i - 1] = x
        uvec[i - 1] = (x - b) * delta_win_prob(fx, fs, n) if x < si else ui
        fs = fx
    return s, uvec


def _delta_ratio(fx, fy, n: int) -> tuple[int, int]:
    """Delta on exact cdf values fx = p/q and fy = r/t as (num, den), with no gcd taken: over l = lcm(q, t),
    the integer sum of (p l/q)**(n-1-i) (r l/t)**i over n l**(n-1), where a sum of Fractions takes a gcd
    per term."""
    p, q = fx.as_integer_ratio()
    r, t = fy.as_integer_ratio()
    g = math.gcd(q, t)
    return _power_sum(p * (t // g), r * (q // g), n), n * (q // g * t) ** (n - 1)


def _cdf_boxes(F: PiecewisePoly, points) -> list[tuple[float, float]]:
    """Floats around a nondecreasing F at each rational x whose :func:`float_bounds` are in points: F's float less
    Horner's error bound (:meth:`PiecewisePoly.float_bounded`) at the float at or below x, and F's float plus the
    bound at the float at or above x.  Each end is one float further out, past the rounding of its own sum, and
    clipped to [0, 1], where a cdf lies.  Both ends of every point go through one array call."""
    x = np.array(points)  # row j: the floats at or below and at or above point j
    value, bound = F.float_bounded()(x, F.float_pieces(x))
    ends = np.nextafter(value + SIDES * bound, SIDES * np.inf)  # value - bound below, value + bound above
    return list(map(tuple, np.minimum(np.maximum(ends, 0.0), 1.0).tolist()))


def _delta_box(fx, fy, n: int) -> tuple[float, float]:
    """Floats around Delta(x, y) for F(x) in the float box fx and F(y) in fy, both inside [0, 1].

    Delta is nondecreasing in both arguments, so the ends are Delta at the boxes' ends, each computed by
    :func:`delta_win_prob`, :func:`_power_sum` and a division by n: a relative gamma_(2n), so the exact
    end is within gamma_(2n) / (1 - gamma_(2n)) <= gamma_(4n) of its float, plus 2n * 2**-1074 for
    underflow.  The slack between the two gammas covers the rounding of the bound itself, and each
    end is taken one float further out, past the rounding of its own sum.
    """
    lo, hi = delta_win_prob(fx[0], fy[0], n), delta_win_prob(fx[1], fy[1], n)
    rel, tiny = gamma_k(4 * n), 2 * n * 2.0**-1074
    return max(math.nextafter(lo - (lo * rel + tiny), -math.inf), 0.0), math.nextafter(hi + hi * rel + tiny, math.inf)


def _residual_box(s, b, u, win, signed: bool):
    """Floats around |(s - b) Delta - u|, or max(0, (s - b) Delta - u) where signed, for s, b and u in their float
    boxes and Delta in the box win; None unless the box of s - b is positive.  Each difference and product is
    taken one float further out, past its rounding."""
    down, up = -math.inf, math.inf
    cl, ch = math.nextafter(s[0] - b[1], down), math.nextafter(s[1] - b[0], up)
    if cl < 0:
        return None
    lo = math.nextafter(math.nextafter(cl * win[0], down) - u[1], down)
    hi = math.nextafter(math.nextafter(ch * win[1], up) - u[0], up)
    if signed:
        return max(lo, 0.0), max(hi, 0.0)
    if lo >= 0:
        return lo, hi
    return (-hi, -lo) if hi <= 0 else (0.0, max(-lo, hi))


def check_conditions(F, n: int, strategy: JumpPointStrategy, gamma) -> Certificate:
    """Approximate-equilibrium certificate; passing implies a 2*gamma*m equilibrium.

    It passes when every residual is within its bound: gamma, or 0 for condition 3's
    s_{i-1} >= b_i and condition 2's U_{i-1} = U_i, so a pass has max_residual <= gamma.
    DomainError unless the strategy has a utility per jump point.

    Conditions 3 and 2's U_{i-1} = U_i are exact comparisons.  The residuals of Delta_i, condition 1's
    |(s - b_i) Delta_i - U| at both ends of bid i's interval and condition 2's
    max(0, (s_i - b_i) Delta_i - U_i), are decided in floats where F is a piecewise polynomial.  F is
    then a cdf, nondecreasing, so F at a jump point lies in a float box (:func:`_cdf_boxes`), and
    Delta_i and each residual lie in the float boxes built from those (:func:`_delta_box`,
    :func:`_residual_box`).  A residual is computed exactly, on F's exact values and
    :func:`_delta_ratio`, only where its box reaches the largest lower end of all boxes.  Every
    other one lies below the residual of that lower end, so it can decide neither the verdict nor
    the maximum: it holds its box's upper end, a rational at or above it, and max_residual is the
    exact maximum.  Any other F, such as a CdfOracle, gives no error bound: it answers at every
    jump point, m + 1 queries, and every residual is exact.
    """
    s, u, bids = strategy.s, strategy.utilities, strategy.bids
    if len(u) != len(s):
        raise DomainError(f"strategy has {len(u)} utilities; {len(bids)} bids need {len(s)}")
    boxed = isinstance(F, PiecewisePoly)
    fs = [None] * len(s) if boxed else [F(x) for x in s]  # F's exact values, read where needed
    residuals, pending = [], []  # pending: (slot in residuals, bid i, jump point j, signed) of each Delta residual
    for i, b in enumerate(bids, 1):
        lo, hi = s[i - 1], s[i]
        residuals.append(ConditionResidual(3, i, ZERO if lo >= b else b - lo, 0))
        if lo < hi:
            pending += [(len(residuals), i, i, False), (len(residuals) + 1, i, i - 1, False)]
            residuals += [None, None]
        else:
            residuals.append(ConditionResidual(2, i, abs(u[i] - u[i - 1]), 0))
            pending.append((len(residuals), i, i, True))
            residuals.append(None)
    boxes = [None] * len(pending)  # None: no box, the residual is computed exactly
    if boxed:
        sbox, bbox, ubox = ([float_bounds(x) for x in xs] for xs in (s, bids, u))
        fbox = _cdf_boxes(F, sbox)
        wins = [_delta_box(fx, fy, n) for fx, fy in zip(fbox, fbox[1:])]
        boxes = [_residual_box(sbox[j], bbox[i - 1], ubox[j], wins[i - 1], signed) for _, i, j, signed in pending]
    top = max((box[0] for box in boxes if box), default=0.0)  # the largest lower end
    exact_wins = {}
    for (slot, i, j, signed), box in zip(pending, boxes):
        if box and box[1] < top:  # below the residual of that lower end: it moves neither verdict nor maximum
            value = Fraction(box[1])
        else:
            c = s[j] - bids[i - 1]
            if c and i not in exact_wins:
                for k in (i - 1, i):
                    if fs[k] is None:
                        fs[k] = F(s[k])
                exact_wins[i] = Fraction(*_delta_ratio(fs[i - 1], fs[i], n))
            r = c * exact_wins[i] - u[j] if c else -u[j]
            value = max(ZERO, r) if signed else abs(r)
        residuals[slot] = ConditionResidual(2 if signed else 1, i, value, gamma)
    ok = all(r.residual <= r.bound for r in residuals)
    max_res = max(r.residual for r in residuals)
    return Certificate(gamma, ok, max_res, tuple(residuals))


def _itp_point(u_lo, u_hi, above, walks: int, target: float) -> float:
    """The float search's next U in (u_lo, u_hi): ITP's projection of a secant estimate (Oliveira and
    Takahashi, "An Enhancement of the Bisection Method Average Performance Preserving Minmax
    Optimality", ACM TOMS 47(1), 2020).

    The estimate is the secant through the last two walks of above, (U, r) with s_0 > 0, aimed at
    bid 1's residual r = target.  Below the root r is a small positive constant that says nothing of
    the distance to it, so no estimate uses the lower end; a secant through two walks above the root
    needs no truncation against a stalled end, so ITP's is left out (kappa_1 = 0).  An estimate at or
    below u_lo, as the secant gives once it has overshot the root, becomes the point a quarter of the
    way up the bracket, and one at or above u_hi the midpoint.  The projection keeps the point within
    2**-walks - (u_hi - u_lo) / 2 of the midpoint, ITP's radius for the tolerance 2**-52 on [0, 1]
    and n_0 = 1: walk j then leaves a bracket at most 2**-j wide, and 52 walks one of 2**-51.
    Fewer than two walks above the root, or two with equal residuals, give the midpoint.
    """
    half = (u_lo + u_hi) / 2
    if len(above) < 2 or above[-1][1] == above[-2][1]:
        return half
    (u0, r0), (u1, r1) = above[-2:]
    estimate = u1 + (target - r1) * (u1 - u0) / (r1 - r0)
    if not u_lo < estimate < u_hi:
        estimate = u_lo + (u_hi - u_lo) / 4 if estimate <= u_lo else half
    radius = max(2.0**-walks - (u_hi - u_lo) / 2, 0.0)
    point = min(max(estimate, half - radius), half + radius)
    return point if u_lo < point < u_hi else half


def _binary_search_top_utility(F, n, grid, delta):
    """Outer search on the top-value utility U (the solver's core loop).

    Runs in the arithmetic of delta: exact for a Fraction, float for a float.  The exact search
    bisects; the float search takes the points of :func:`_itp_point`, aimed at bid 1's residual
    -delta, and stops after MAX_FLOAT_WALKS walks at the latest.  Returns the walk at the lowest U
    tried whose s_0 is positive, once bid 1's condition-1 residual there,
    |s_1 Delta(0, s_1) - U_1| with s_0 set to 0, is at most 2 delta, or once the bracket on U is at
    the floor of :func:`_floor`.
    """
    zero = 0 * delta
    exact = isinstance(delta, Fraction)
    u_lo, u_hi = zero, zero + 1
    floor = _floor(delta, exact)
    s_r = uvec_r = [u_hi] * (grid.m + 1)  # the walk at U = 1: every bid pools at the top value
    above, walks = [], 0  # (U, bid 1's residual) of each float walk with s_0 > 0, and the walks so far
    while u_hi - u_lo > floor and (exact or walks < MAX_FLOAT_WALKS):
        u_mid = (u_lo + u_hi) / 2 if exact else _itp_point(u_lo, u_hi, above, walks, -delta)
        s, uvec = compute_strategy(F, n, grid, u_mid, delta)
        walks += 1
        if s[0] == 0:
            u_lo = u_mid
            continue
        u_hi = u_mid
        s_r, uvec_r = s, uvec
        r = s[1] * delta_win_prob(zero, F(s[1]), n) - uvec[1]  # every cdf has F(0) = 0
        if abs(r) <= 2 * delta:
            break
        above.append((u_mid, r))
    return s_r, uvec_r


def _search(F, n: int, grid: BidGrid, delta) -> JumpPointStrategy:
    """Run the outer search in the arithmetic of delta and return its result in exact rationals.

    s_0 and U_0 become 0 (b_1 = 0).  A jump point pooled with the one above
    it takes that one's value; every other is the exact value of its float,
    clamped up to its bid b_i.  The float walk puts each unpooled float below
    the one above it, and every point taken back is at least its own float
    and its own bid, so the points stay ordered and the result is a valid
    strategy.  Utilities are the exact values of their floats.  An exact walk
    passes unchanged: each of its points is pooled or at or above its bid.
    """
    s, uvec = _binary_search_top_utility(F, n, grid, delta)
    exact = [ONE] * (grid.m + 1)
    for i in range(grid.m, 1, -1):
        x = s[i - 1]
        exact[i - 1] = exact[i] if x == s[i] else max(Fraction(x), grid.bids[i - 1])
    return JumpPointStrategy(grid, (ZERO,) + tuple(exact[1:]), (ZERO,) + tuple(Fraction(u) for u in uvec[1:]))


def solve(F, n: int, grid: BidGrid, eps) -> SolveResult:
    """Compute a certified eps-approximate symmetric equilibrium for a finite bid grid.

    The cdf is first mixed with the identity (weight eps/3n) so that it is
    strongly increasing; a certificate under the mixed cdf at accuracy eps/3n
    transfers back to an eps-approximate equilibrium of the original cdf.
    F is a PiecewisePolyCdf or a CdfOracle; any other cdf raises DomainError.
    Both attempts, the float search and then the exact one, search at
    delta = gamma/4, where gamma is the certificate's residual bound, and
    their results pass through the one conversion of :func:`_search`.  The
    float search resolves U to max(delta, 2**-52) in at most 52 walks
    (:func:`_binary_search_top_utility`); the exact search to delta * 2**-52.
    Raises PrecisionError when neither passes the certificate.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    check_bidders(n)
    mix = eps / (3 * n)
    F_mixed = strongly_increasing_transform(F, mix)  # DomainError for any other kind of cdf
    gamma = mix / (2 * grid.m)  # mix is the accuracy target under the mixed cdf
    tol = max(float(gamma / 4), sys.float_info.epsilon)  # 2**-52: halving [0, 1] stays exact down to it
    for F_search, delta in ((float_view(F_mixed), tol), (F_mixed, gamma / 4)):
        strategy = _search(F_search, n, grid, delta)
        cert = check_conditions(F_mixed, n, strategy, gamma)
        if cert.passed:
            return SolveResult(strategy, cert, F_mixed)
    raise PrecisionError(
        f"neither the float search nor the exact search at delta={gamma / 4} passed the certificate "
        f"(max residual {cert.max_residual} > gamma={gamma})"
    )
