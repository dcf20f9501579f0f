"""Equilibrium computation for finite bid grids.

A monotone strategy over bids b_1 < ... < b_m is encoded by jump points
0 <= s_0 <= ... <= s_m = 1: a bidder with value v in (s_{j-1}, s_j] bids b_j.
:class:`JumpPointStrategy` is that step function, a :class:`PiecewisePoly` with
breakpoints s and constant rows b_j; the certificate and the verifiers take it as it is.
The win probability of bid b_j against n-1 opponents playing the same strategy
is Delta(s_{j-1}, s_j) with

    Delta(x, y) = (1/n) * sum_{i<n} F(x)**(n-1-i) * F(y)**i.

Delta is symmetric in x and y.  `delta_win_prob` takes the two cdf values, and
the code that owns the jump points evaluates F once per point.  The walk
computes the powers of F(s_i) once per bid and runs the recurrence of
`delta_win_prob` on them for every Delta of that bid, to the same bits.

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

The certificate reads F at the jump points once, exactly, as integer pairs
(:func:`_cdf_pairs`: :meth:`PiecewisePoly.ratio` of a piecewise cdf, one query
of any other), as does the exact verifier.  It decides in
floats what floats can decide and is exact everywhere else: each residual,
computed in floats from the correctly rounded floats of those pairs, lies
within one a-priori bound of the gamma_k kind of the exact residual, so only
the residuals whose intervals reach the largest lower end are computed
exactly, on integer pairs, and every other one is skipped.  The one
Fraction it builds is max_residual.  A pass remains a proof, and max_residual
is the exact maximum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .cdf import float_view, strongly_increasing_transform
from .errors import DomainError, PrecisionError, check_bidders
from .poly import PiecewisePoly, gamma_k
from .rationals import parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_FLOAT_WALKS = 52  # the float search's walks at most: bisection's count from [0, 1] down to 2**-52


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

    @cached_property
    def float_bids(self) -> tuple[float, ...]:
        """The bids' floats, which every float walk reads: converted once per grid."""
        return tuple(float(b) for b in self.bids)


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


@dataclass(frozen=True)
class Certificate:
    gamma: object
    passed: bool
    max_residual: object


@dataclass(frozen=True)
class SolveResult:
    strategy: JumpPointStrategy
    certificate: Certificate
    transformed_cdf: object  # the mixed cdf the certificate was checked under


def _powers(b, n: int) -> list:
    """b**1 .. b**(n-1), each the one before times b."""
    out, power = [], 1
    for _ in range(n - 1):
        power = power * b  # a new object each time: *= would update one ndarray in place
        out.append(power)
    return out


def _power_sum(a, b, n: int):
    """sum(a**(n-1-i) * b**i for i < n), by s_k = a * s_(k-1) + b**k from s_0 = 1 on the :func:`_powers` of b.

    Exact on ints and Fractions.  On floats in [0, 1] every term is nonnegative, so the float is within
    a relative gamma_(2n-2) of the exact sum of the same floats (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1), plus at most (n - 1) * 2**-1074 where products underflow.
    """
    acc = 1
    for power in _powers(b, n):
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
    take and return floats.  Every Delta(F(x), F(s_i)) runs :func:`_power_sum`'s
    recurrence inline on the :func:`_powers` of F(s_i), taken once per bid.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    m = grid.m
    exact = isinstance(U, Fraction)
    bids = grid.bids if exact else grid.float_bids
    s = [None] * (m + 1)
    uvec = [None] * (m + 1)
    s[m] = ONE if exact else 1.0
    uvec[m] = U
    floor = _floor(delta, exact)
    fs, pows = F(s[m]), None  # F at the jump point above the current bid, and its powers once it is read
    for i in range(m, 0, -1):
        b = bids[i - 1]
        si, ui = s[i], uvec[i]
        margin = si - b
        if pows is None:
            pows = _powers(fs, n)
        acc = 1  # n * Delta(a, fs) by _power_sum's recurrence on the powers of fs, as for every a below
        for p in pows:
            acc = acc * fs + p
        f_hi = margin * (acc / n)
        if f_hi <= ui:
            s[i - 1] = si
            uvec[i - 1] = ui
            continue
        fb, acc = F(b), 1
        for p in pows:
            acc = acc * fb + p
        f_lo = margin * (acc / n)
        if f_lo >= ui:
            s[i - 1] = b
            uvec[i - 1] = 0 * ui
            fs, pows = fb, None
            continue
        lo, hi = b, si
        while f_hi - f_lo > delta and hi - lo > floor:
            mid = (lo + hi) / 2
            fm, acc = F(mid), 1
            for p in pows:
                acc = acc * fm + p
            f_mid = margin * (acc / n)
            if f_mid < ui:
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
        t = float((ui - f_lo) / (f_hi - f_lo))  # in (0, 1]: f_lo < ui <= f_hi
        x = min(lo + (hi - lo) * (Fraction(t) if exact else t), si)
        fx, acc = F(x), 1
        for p in pows:
            acc = acc * fx + p
        s[i - 1] = x
        uvec[i - 1] = (x - b) * (acc / n) if x < si else ui
        fs, pows = fx, None
    return s, uvec


def _delta_ratio(fx: tuple[int, int], fy: tuple[int, int], n: int) -> tuple[int, int]:
    """Delta on exact cdf values fx = p/q and fy = r/t, given as integer pairs (p, q) and (r, t) with q, t > 0, as
    (num, den), with no gcd taken: over l = lcm(q, t), the integer sum of (p l/q)**(n-1-i) (r l/t)**i over
    n l**(n-1), where a sum of Fractions takes a gcd per term."""
    (p, q), (r, t) = fx, fy
    g = math.gcd(q, t)
    return _power_sum(p * (t // g), r * (q // g), n), n * (q // g * t) ** (n - 1)


def _cdf_pairs(F, xs) -> list[tuple[int, int]]:
    """F at each rational x of xs, exactly, as an integer pair (num, den), den > 0, with one read of F per point.

    A :class:`PiecewisePoly` answers on ints, by its piece and Horner's rule (:meth:`PiecewisePoly.ratio`), with no
    Fraction and no gcd.  Any other cdf, such as a CdfOracle, answers F(x), one query, and gives its ratio.
    """
    if isinstance(F, PiecewisePoly):
        return [F.ratio(*x.as_integer_ratio()) for x in xs]
    return [F(x).as_integer_ratio() for x in xs]


def _residual_interval(s: float, b: float, u: float, win: float, n: int, signed: bool) -> tuple[float, float]:
    """Floats around |r|, or max(0, r) where signed, for an r within E = gamma_k ((s + b) Delta + |U|) + k 2**-1074,
    k = 4n + 16, of r^ = (s - b) Delta - U on the floats s, b, U and Delta (:func:`check_conditions`)."""
    k = 4 * n + 16
    r = (s - b) * win - u
    e = gamma_k(k) * ((s + b) * win + abs(u)) + k * 2.0**-1074
    lo, hi = r - e, r + e
    return (max(lo, 0.0), max(hi, 0.0)) if signed else (max(lo, -hi, 0.0), max(-lo, hi))


def _larger(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The larger of two nonnegative rationals given as (num, den), den > 0: a where they are equal."""
    return a if a[0] * b[1] >= b[0] * a[1] else b


def check_conditions(F, n: int, strategy: JumpPointStrategy, gamma) -> Certificate:
    """Approximate-equilibrium certificate; passing implies a 2*gamma*m equilibrium.

    It passes when every residual is within its bound: gamma, or 0 for condition 3's
    s_{i-1} >= b_i and condition 2's U_{i-1} = U_i, so a pass has max_residual <= gamma.
    DomainError unless the strategy has a utility per jump point.

    The jump points, bids, utilities and gamma are read as integer pairs (num, den), and so is F at each
    jump point, once and exactly (:func:`_cdf_pairs`; m + 1 queries of a CdfOracle).  Every decision is a
    cross-multiplication on them: conditions 3 and 2's U_{i-1} = U_i, each residual against gamma, and the
    running maximum.  The residuals of Delta_i, r = (s_j - b_i) Delta_i - U_j, taken as condition 1's |r|
    at both ends j of bid i's interval and as condition 2's max(0, r) at j = i, are filtered in floats
    first.  Each pair is taken once as its correctly rounded float, p / q on ints: s^_j, b^_i, U^_j and F^
    at each jump point, F's values inside [0, 1] as a cdf's do, and Delta^_i = delta_win_prob(F^_(i-1),
    F^_i, n).  Then r lies within E = gamma_k X^ + k 2**-1074 of r^ = (s^_j - b^_i) Delta^_i - U^_j, X^ the
    float of (s^_j + b^_i) Delta^_i + |U^_j| and k = 4n + 16 (:func:`_residual_interval`).  A residual is
    computed exactly, on integer pairs (Delta_i by :func:`_delta_ratio`), only where the upper end of its
    interval reaches the largest lower end of all of them.  Every other one lies below the residual of that
    lower end, so it can decide neither the verdict nor the maximum, and it is skipped.  The one Fraction
    built is max_residual.

    Proof of k, u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2.1 and 3.1): a rounding
    moves its result by a relative u, or below the normal range by an absolute 2**-1075.  The relative
    parts, with X = (s + b) Delta + |U|: the rounded cdf values move Delta, 1/n times a sum of nonnegative
    products of n - 1 of them, by gamma_(n-1), and :func:`_power_sum` with the division by gamma_(2n-1);
    s^ - b^ is within gamma_2 (s + b) of s - b, as s, b >= 0; then the product, U^ and the subtraction give
    |r^ - r| <= gamma_(3n+2) X (Higham's lemma 3.3).  X^ takes the same 3n + 2 roundings, and the float of
    gamma_k, E's two operations and r^ -+ E five more, each end by at most u (|r^| + E).  While n < 2**20
    each product of two gammas here is below u, so the n + 14 roundings k keeps beyond 3n + 2 cover these.
    The absolute parts, carried by factors below 1 + gamma_(3n+2): (n - 1) / 2 from F^, as Delta's slope
    in each argument is at most (n - 1) / 2 on [0, 1], n - 1 from :func:`_power_sum`, one half each from
    the division, s^, b^, U^ and the product, and none from a subtraction, exact in that range.  k 2**-1074
    covers their (3n/2 + 2) 2**-1074 and E's own underflow.
    """
    s, u, bids = strategy.s, strategy.utilities, strategy.bids
    if len(u) != len(s):
        raise DomainError(f"strategy has {len(u)} utilities; {len(bids)} bids need {len(s)}")
    sr, br, ur = ([x.as_integer_ratio() for x in xs] for xs in (s, bids, u))
    gp, gq = gamma.as_integer_ratio()
    fs = _cdf_pairs(F, s)
    passed, worst, pending = True, (0, 1), []  # pending: (bid i, jump point j, signed) of each Delta residual
    for i, ((bp, bq), (lp, lq), (hp, hq)) in enumerate(zip(br, sr, sr[1:]), 1):
        below = bp * lq - lp * bq  # (b_i - s_{i-1}) bq lq: condition 3's residual where positive
        if below > 0:
            passed, worst = False, _larger(worst, (below, bq * lq))
        if lp * hq < hp * lq:
            pending += [(i, i, False), (i, i - 1, False)]
            continue
        (ap, aq), (cp, cq) = ur[i - 1], ur[i]
        apart = abs(cp * aq - ap * cq)  # |U_i - U_{i-1}| aq cq
        if apart:
            passed, worst = False, _larger(worst, (apart, aq * cq))
        pending.append((i, i, True))
    sf, bf, uf, ff = ([p / q for p, q in xs] for xs in (sr, br, ur, fs))
    wins = [delta_win_prob(fx, fy, n) for fx, fy in zip(ff, ff[1:])]
    intervals = [_residual_interval(sf[j], bf[i - 1], uf[j], wins[i - 1], n, signed) for i, j, signed in pending]
    top = max((lo for lo, _ in intervals), default=0.0)  # the largest lower end
    exact_wins = {}
    for (i, j, signed), (_, hi) in zip(pending, intervals):
        if hi < top:  # below the residual of that lower end: it moves neither verdict nor maximum
            continue
        (sp, sq), (bp, bq), (up, uq) = sr[j], br[i - 1], ur[j]
        c = sp * bq - bp * sq  # (s_j - b_i) sq bq
        if c and i not in exact_wins:
            exact_wins[i] = _delta_ratio(fs[i - 1], fs[i], n)
        N, D = exact_wins[i] if c else (0, 1)
        r = c * N * uq - up * sq * bq * D  # (s_j - b_i) Delta_i - U_j over sq bq D uq
        r, den = max(r, 0) if signed else abs(r), sq * bq * D * uq
        passed = passed and r * gq <= gp * den
        worst = _larger(worst, (r, den))
    return Certificate(gamma, passed, Fraction(*worst))


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
