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

The solver binary-searches the equilibrium utility at the top value v = 1 and
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
2**-52 wide in floats and delta * 2**-52 wide in Fractions.  The float search
bisects to max(delta, 2**-52), the resolution of floats on [0, 1].
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cdf import float_view, strongly_increasing_transform
from .errors import DomainError, PrecisionError, check_bidders
from .poly import PiecewisePoly
from .rationals import parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)


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

    @property
    def s(self) -> tuple[Fraction, ...]:
        """The jump points s_0..s_m: the breakpoints."""
        return self.breakpoints

    @property
    def bids(self) -> tuple[Fraction, ...]:
        """The bids b_1..b_m: the constant rows."""
        return tuple(row[0] for row in self.rows)

    def win_probs(self, F, n: int) -> tuple:
        """Delta_1..Delta_m: bid b_j wins with Delta(s_{j-1}, s_j), whatever the value."""
        fs = [F(x) for x in self.s]
        return tuple(delta_win_prob(fx, fy, n) for fx, fy in zip(fs, fs[1:]))


@dataclass(frozen=True)
class ConditionResidual:
    condition: int  # 1, 2, or 3
    index: int  # bid index i in [m]
    residual: object
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


def delta_win_prob(fx, fy, n: int):
    """Win probability of a bid whose opponents' jump interval around it has cdf values fx and fy."""
    total = 0 * fy
    for i in range(n):
        total += fx ** (n - 1 - i) * fy**i
    return total / n


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


def check_conditions(F, n: int, strategy: JumpPointStrategy, gamma) -> Certificate:
    """Approximate-equilibrium certificate; passing implies a 2*gamma*m equilibrium.

    It passes when every residual is within its bound: gamma, or 0 for condition 3's
    s_{i-1} >= b_i and condition 2's U_{i-1} = U_i, so a pass has max_residual <= gamma.
    DomainError unless the strategy has a utility per jump point.
    """
    s, u, bids = strategy.s, strategy.utilities, strategy.bids
    if len(u) != len(s):
        raise DomainError(f"strategy has {len(u)} utilities; {len(bids)} bids need {len(s)}")
    win = strategy.win_probs(F, n)
    residuals = []
    for i, b in enumerate(bids, 1):
        lo, hi, u_lo, u_hi = s[i - 1], s[i], u[i - 1], u[i]
        gap = b - lo  # condition (3): s_{i-1} >= b_i
        residuals.append(ConditionResidual(3, i, max(0 * gap, gap), 0))
        if lo < hi:
            residuals.append(ConditionResidual(1, i, abs((hi - b) * win[i - 1] - u_hi), gamma))
            residuals.append(ConditionResidual(1, i, abs((lo - b) * win[i - 1] - u_lo), gamma))
        else:
            r_dev = (hi - b) * win[i - 1] - u_hi
            residuals.append(ConditionResidual(2, i, abs(u_hi - u_lo), 0))
            residuals.append(ConditionResidual(2, i, max(0 * r_dev, r_dev), gamma))
    ok = all(r.residual <= r.bound for r in residuals)
    max_res = max(r.residual for r in residuals)
    return Certificate(gamma, ok, max_res, tuple(residuals))


def _binary_search_top_utility(F, n, grid, delta):
    """Outer binary search on the top-value utility U (the solver's core loop).

    Runs in the arithmetic of delta: exact for a Fraction, float for a float.
    Returns the walk at the lowest U tried whose s_0 is positive, once bid 1's
    condition-1 residual there, |s_1 Delta(0, s_1) - U_1| with s_0 set to 0,
    is at most 2 delta, or once the bracket on U is at the floor of :func:`_floor`.
    """
    zero = 0 * delta
    u_lo, u_hi = zero, zero + 1
    floor = _floor(delta, isinstance(delta, Fraction))
    s_r = uvec_r = [u_hi] * (grid.m + 1)  # the walk at U = 1: every bid pools at the top value
    while u_hi - u_lo > floor:
        u_mid = (u_lo + u_hi) / 2
        s, uvec = compute_strategy(F, n, grid, u_mid, delta)
        if s[0] == 0:
            u_lo = u_mid
            continue
        u_hi = u_mid
        s_r, uvec_r = s, uvec
        if abs(s[1] * delta_win_prob(zero, F(s[1]), n) - uvec[1]) <= 2 * delta:  # every cdf has F(0) = 0
            break
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
    their results pass through the one conversion of :func:`_search`.  Raises
    PrecisionError when neither passes the certificate.
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
