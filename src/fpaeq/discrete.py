"""Equilibrium computation for finite bid grids.

A monotone strategy over bids b_1 < ... < b_m is encoded by jump points
0 <= s_0 <= ... <= s_m = 1: a bidder with value v in (s_{j-1}, s_j] bids b_j.
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
use any arithmetic.  `solve` makes at most two attempts and returns the first
whose strategy passes the certificate:

1. The search in floats, on a float view of the cdf.  Its jump points are
   taken back as exact rationals, each clamped up to its bid, so condition 3
   holds exactly, and each at or below the one above, as the walk keeps them;
   its utilities are taken as the exact values of their floats.
2. The same search in exact Fractions.

Every attempt's strategy has s_0 = 0 and U_0 = 0.  Both attempts search at
delta = gamma/4, for the certificate's residual bound gamma: each bisection
brackets its jump point within delta / (n L), with L the cdf's Lipschitz
constant, and the outer search on U stops once bid 1's condition-1 residual
under s_0 = 0 is at most 2 delta = gamma/2, or once its bracket on U is 2**-52
wide (delta * 2**-52 in Fractions).  The float search bisects to
max(delta, 2**-52), the resolution of floats on [0, 1].
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .cdf import PiecewisePolyCdf, float_view, strongly_increasing_transform
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


@dataclass(frozen=True)
class JumpPointStrategy:
    """Jump points 0 <= s_0 <= ... <= s_m = 1 and the utilities U_0..U_m solved with them."""

    s: tuple
    utilities: tuple

    def __post_init__(self):
        s = self.s
        if len(s) < 2:
            raise DomainError(f"a strategy needs at least 2 jump points, got {len(s)}")
        if s[0] < 0:
            raise DomainError("first jump point must be >= 0")
        if any(a > b for a, b in zip(s, s[1:])):
            raise DomainError("jump points must be nondecreasing")
        if s[-1] != 1:
            raise DomainError("last jump point must be 1")

    def win_probs(self, F, n: int) -> tuple:
        """Delta_1..Delta_m: bid b_j wins with Delta(s_{j-1}, s_j), whatever the value."""
        fs = [F(x) for x in self.s]
        return tuple(delta_win_prob(fx, fy, n) for fx, fy in zip(fs, fs[1:]))

    def check_length(self, grid: BidGrid) -> None:
        """Raise DomainError unless there is one jump point per bid, plus s_0."""
        if len(self.s) != grid.m + 1:
            raise DomainError(f"strategy has {len(self.s)} jump points; {grid.m} bids need {grid.m + 1}")

    def as_bid_function(self, grid: BidGrid) -> PiecewisePoly:
        """The step bid function on [0, 1]: b_j on (s_{j-1}, s_j], and b_1 at and below s_0."""
        self.check_length(grid)
        return PiecewisePoly(self.s, tuple((b,) for b in grid.bids))


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


def _ceil_log2(r: Fraction) -> int:
    """Smallest k >= 1 with 2**k >= r, exact from the bit lengths of r's terms."""
    p, q = r.numerator, r.denominator
    k = max(1, p.bit_length() - q.bit_length())
    return k if q << k >= p else k + 1


def compute_strategy(F, L, n: int, grid: BidGrid, U, delta):
    """Reconstruct jump points from a candidate top-value utility U.

    Walks bids from the highest down.  At each bid either the whole remaining
    interval pools (utility already below U), the bid is skipped down to its
    own level (utility exceeds U even at the bottom), or the jump point is
    located by bisection so that bidding here at the jump yields about utility
    U.  The bisection ends with one linear-interpolation step inside its final
    bracket, its ratio taken as a float in either arithmetic, so the jump
    point moves continuously with U; a point it puts at the one above pools
    with it, utility and all.  How close it comes is left to the
    certificate's condition-1 residual.  A Fraction U runs the walk exactly;
    any other U runs it in floats, for which F must take and return floats.
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
    steps = _ceil_log2(Fraction(n * L) / Fraction(delta))
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
        for _ in range(steps):
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


def check_conditions(F, n: int, grid: BidGrid, strategy: JumpPointStrategy, gamma) -> Certificate:
    """Approximate-equilibrium certificate; passing implies a 2*gamma*m equilibrium.

    It passes when every residual is within its bound: gamma, or 0 for condition 3's
    s_{i-1} >= b_i and condition 2's U_{i-1} = U_i, so a pass has max_residual <= gamma.
    """
    strategy.check_length(grid)
    s, u = strategy.s, strategy.utilities
    win = strategy.win_probs(F, n)
    residuals = []
    for i in range(1, grid.m + 1):
        b = grid.bids[i - 1]
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


def _binary_search_top_utility(F, L, n, grid, delta):
    """Outer binary search on the top-value utility U (the solver's core loop).

    Runs in the arithmetic of delta: exact for a Fraction, float for a float.
    Returns the walk at the lowest U tried whose s_0 is positive, once bid 1's
    condition-1 residual there, |s_1 Delta(0, s_1) - U_1| with s_0 set to 0,
    is at most 2 delta, or once the bracket on U is at its floor: 2**-52 in
    floats, which halve [0, 1] exactly down to it, and delta * 2**-52 in
    Fractions, which resolve U past a float where bid 1's residual needs it.
    """
    zero = 0 * delta
    u_lo, u_hi = zero, zero + 1
    floor = delta / 2**52 if isinstance(delta, Fraction) else sys.float_info.epsilon
    s_r, uvec_r = compute_strategy(F, L, n, grid, u_hi, delta)
    if s_r[0] == 0:
        raise RuntimeError("internal invariant breach: s_0 = 0 at U = 1")
    while u_hi - u_lo > floor:
        u_mid = (u_lo + u_hi) / 2
        s, uvec = compute_strategy(F, L, n, grid, u_mid, delta)
        if s[0] == 0:
            u_lo = u_mid
            continue
        u_hi = u_mid
        s_r, uvec_r = s, uvec
        if abs(s[1] * delta_win_prob(F(zero), F(s[1]), n) - uvec[1]) <= 2 * delta:
            break
    return s_r, uvec_r


def _strategy(s, uvec) -> JumpPointStrategy:
    """A search's jump points and utilities as exact rationals, with s_0 = 0 and U_0 = 0 (b_1 = 0)."""
    return JumpPointStrategy((ZERO,) + tuple(Fraction(x) for x in s[1:]),
                             (ZERO,) + tuple(Fraction(u) for u in uvec[1:]))


def _float_search(F, L, n: int, grid: BidGrid, delta) -> JumpPointStrategy:
    """Run the outer search in floats and return its result in exact rationals.

    A jump point pooled with the one above it takes that one's value; every
    other is the exact value of its float, clamped up to its bid b_i.  The
    walk puts each unpooled float below the one above it, and every point
    taken back is at least its own float and its own bid, so the points stay
    ordered and the result is a valid strategy.  Utilities are the exact
    values of their floats.
    """
    tol = max(float(delta), sys.float_info.epsilon)  # 2**-52: halving [0, 1] stays exact down to it
    s, uvec = _binary_search_top_utility(float_view(F), L, n, grid, tol)
    exact = [ONE] * (grid.m + 1)
    for i in range(grid.m, 1, -1):
        x = s[i - 1]
        exact[i - 1] = exact[i] if x == s[i] else max(Fraction(x), grid.bids[i - 1])
    return _strategy(exact, uvec)


def _exact_search(F, L, n: int, grid: BidGrid, delta) -> JumpPointStrategy:
    """Run the outer search in exact Fractions at tolerance delta."""
    return _strategy(*_binary_search_top_utility(F, L, n, grid, delta))


def solve(F, n: int, grid: BidGrid, eps) -> SolveResult:
    """Compute a certified eps-approximate symmetric equilibrium for a finite bid grid.

    The cdf is first mixed with the identity (weight eps/3n) so that it is
    strongly increasing; a certificate under the mixed cdf at accuracy eps/3n
    transfers back to an eps-approximate equilibrium of the original cdf.
    F is a PiecewisePolyCdf, whose Lipschitz bound the search uses, or a
    CdfOracle, whose caller asserted one; any other cdf raises DomainError.
    Both attempts, the float search and then the exact one, search at
    delta = gamma/4, where gamma is the certificate's residual bound.  Raises
    PrecisionError when neither passes the certificate.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    check_bidders(n)
    mix = eps / (3 * n)
    F_mixed = strongly_increasing_transform(F, mix)  # DomainError for any other kind of cdf
    L = F.lipschitz_bound() if isinstance(F, PiecewisePolyCdf) else F.lipschitz
    L_mixed = max(ONE, Fraction(L))
    gamma = mix / (2 * grid.m)  # mix is the accuracy target under the mixed cdf
    for search in (_float_search, _exact_search):
        strategy = search(F_mixed, L_mixed, n, grid, gamma / 4)
        cert = check_conditions(F_mixed, n, grid, strategy, gamma)
        if cert.passed:
            return SolveResult(strategy, cert, F_mixed)
    raise PrecisionError(
        f"neither the float search nor the exact search at delta={gamma / 4} passed the certificate "
        f"(max residual {cert.max_residual} > gamma={gamma})"
    )
