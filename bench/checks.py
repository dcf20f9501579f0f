"""Output checks for every benchmark op, against references independent of the code under test.

The cdf references below are built from the JSON specs directly (their own
exact and float evaluators), so a fault in `fpaeq.cdf` cannot hide itself.
Each check returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# The `grid` verifier works in float64: the cdf power, the bid evaluation and its
# 60-step inversion each round by at most a few ulps of quantities in [0, 1]. On
# an exact equilibrium the true regret is 0, and restricting deviations to a
# grid can only lower the reported value; on a bid function with a closed-form
# grid regret, the reported value must match it within the same tolerance.
GRID_TOL = 1e-9
FLOAT_TOL = 1e-12  # slack for float64 CSV output compared with an exact reference
SANDWICH_K = 2**14  # Riemann cells per value for the explicit-bid reference


class RefCdf:
    """Piecewise-polynomial cdf read from its JSON spec: exact scalar and float vector evaluation."""

    def __init__(self, spec: dict):
        kind = spec["kind"]
        one, zero = Fraction(1), Fraction(0)
        if kind == "uniform":
            bps, rows = [zero, one], [[zero, one]]
        elif kind == "power":
            k = int(Fraction(spec["exponent"]))
            bps, rows = [zero, one], [[zero] * k + [one]]
        elif kind == "adversarial":
            # identity outside (v1, v2); slope kink/(gap-kink) up to v2-kink, then steep to v2
            v1, gap, kink = (Fraction(spec[key]) for key in ("v1", "gap", "kink"))
            v2 = v1 + gap
            flat, steep = kink / (gap - kink), (gap - kink) / kink
            bps = [zero, v1, v2 - kink, v2]
            rows = [[zero, one], [v1 - flat * v1, flat], [v2 - steep * v2, steep]]
            if v2 < 1:
                bps.append(one)
                rows.append([zero, one])
        elif kind == "piecewise_poly":
            bps = [Fraction(b) for b in spec["breakpoints"]]
            rows = [[Fraction(c) for c in row] for row in spec["coeffs"]]
        else:
            raise ValueError(f"unknown cdf kind {kind!r}")
        width = max(len(r) for r in rows)
        self.bps = bps
        self.rows = [r + [zero] * (width - len(r)) for r in rows]
        self._fbps = np.array([float(b) for b in bps])
        self._frows = np.array([[float(c) for c in r] for r in self.rows])

    def exact(self, x: Fraction) -> Fraction:
        j = 0
        while j + 1 < len(self.rows) and x > self.bps[j + 1]:
            j += 1
        acc = Fraction(0)
        for c in reversed(self.rows[j]):
            acc = acc * x + c
        return acc

    def floats(self, x: np.ndarray) -> np.ndarray:
        j = np.clip(np.searchsorted(self._fbps, x, side="left") - 1, 0, len(self._frows) - 1)
        rows = self._frows[j]
        acc = np.zeros_like(x)
        for k in range(rows.shape[-1] - 1, -1, -1):
            acc = acc * x + rows[..., k]
        return np.clip(acc, 0.0, 1.0)


def win_probs(F: RefCdf, n: int, s: list[Fraction]) -> list[Fraction]:
    """D_k = Delta(s_{k-1}, s_k): the win probability of grid bid b_k, uniform tie-breaking included."""
    powers = [F.exact(x) for x in s]
    return [sum(fx ** (n - 1 - i) * fy**i for i in range(n)) / n for fx, fy in zip(powers, powers[1:])]


def own_bid_index(s: list[Fraction], v: Fraction) -> int:
    """0-based index of the bid a jump-point strategy takes at value v: v in (s_{j-1}, s_j] bids b_j."""
    return next((j - 1 for j in range(1, len(s)) if s[j - 1] < v <= s[j]), 0 if v <= s[0] else len(s) - 2)


def exact_sup_regret(F: RefCdf, n: int, bids: list[Fraction], s: list[Fraction]) -> Fraction:
    """Exact supremum over values of the best-deviation regret of a jump-point strategy.

    Bid b_k wins with probability D_k = Delta(s_{k-1}, s_k) whatever the value,
    so on each step interval the regret max_k (v-b_k) D_k - (v-b_j) D_j is convex
    in v and its supremum sits at an endpoint (the left one taken from the right,
    under the interval's own bid j). Values in [0, s_0] bid b_1.
    """
    win = win_probs(F, n, s)
    intervals = [(Fraction(0), s[0], 0)] + [(s[j - 1], s[j], j - 1) for j in range(1, len(s)) if s[j - 1] < s[j]]
    best = Fraction(0)
    for lo, hi, own in intervals:
        for v in (lo, hi):
            deviation = max((v - b) * w for b, w in zip(bids, win))
            best = max(best, deviation - (v - bids[own]) * win[own])
    return best


def value_set_regret(F: RefCdf, n: int, bids: list[Fraction], s: list[Fraction], value_grid_size: int = 64) -> Fraction:
    """The exact verifier's documented result: the largest regret, floored at 0, over the values
    made of every jump point, every bid, i/value_grid_size and the midpoints of consecutive
    distinct jump points, each value playing the bid the strategy assigns it."""
    win = win_probs(F, n, s)
    values = set(s) | set(bids) | {Fraction(i, value_grid_size) for i in range(value_grid_size + 1)}
    values |= {(a + b) / 2 for a, b in zip(s, s[1:]) if a < b}
    best = Fraction(0)
    for v in values:
        own = own_bid_index(s, v)
        best = max(best, max((v - b) * w for b, w in zip(bids, win)) - (v - bids[own]) * win[own])
    return best


def mc_grid_regret(F: RefCdf, n: int, bids: list[Fraction], s: list[Fraction], grid_size: int = 8) -> Fraction:
    """Exact expected regret that the mc verifier estimates for a jump-point strategy: the largest,
    floored at 0, over values and deviations i/grid_size. A deviation equal to grid bid b_k wins
    with D_k (ties split evenly); any other deviation b wins when every opponent bids below it,
    with probability F(s_k)**(n-1) for the k grid bids below b."""
    win = win_probs(F, n, s)
    points = [Fraction(i, grid_size) for i in range(grid_size + 1)]
    deviation = []
    for b in points:
        below = sum(1 for x in bids if x < b)
        w = win[bids.index(b)] if b in bids else (F.exact(s[below]) ** (n - 1) if below else Fraction(0))
        deviation.append((b, w))
    best = Fraction(0)
    for v in points:
        own = own_bid_index(s, v)
        best = max(best, max((v - b) * w for b, w in deviation) - (v - bids[own]) * win[own])
    return best


def power_grid_regret(k: int, n_solved: int, n: int, value_grid_size: int = 128, deviation_grid_size: int = 256) -> float:
    """The grid verifier's documented result for the equilibrium bid function of F = x**k with
    n_solved bidders, beta(x) = c x, played by n bidders: the largest regret, floored at 0, over
    values i/value_grid_size and deviations j/deviation_grid_size, where a deviation b wins
    against every opponent value below min(1, b/c)."""
    c = (n_solved - 1) * k / ((n_solved - 1) * k + 1)
    v = np.arange(value_grid_size + 1)[:, None] / value_grid_size
    b = np.arange(deviation_grid_size + 1)[None, :] / deviation_grid_size
    deviation = np.minimum(1.0, b / c) ** (k * (n - 1)) * (v - b)
    own = v ** (k * (n - 1)) * (v - c * v)
    return max(float((deviation - own).max()), 0.0)


def move_one_jump_point(F: RefCdf, n: int, bids: list[Fraction], s: list[Fraction], above: Fraction) -> list[Fraction]:
    """A copy of s with one interior jump point moved so that the exact regret exceeds `above`."""
    for j in range(1, len(s) - 1):
        for target in (s[j - 1], s[j + 1], (s[j] + s[j + 1]) / 2, (s[j - 1] + s[j]) / 2):
            moved = s[:j] + [target] + s[j + 1:]
            if exact_sup_regret(F, n, bids, moved) > above:
                return moved
    raise RuntimeError("no single jump-point move raises the regret enough")


def explicit_bid_bounds(F: RefCdf, n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on bid(x) = x - int_0^x (F(t)/F(x))**(n-1) dt from lower/upper Riemann sums.

    The integrand is nondecreasing in t, so left and right sums on SANDWICH_K
    cells bracket the integral; the bracket is x/SANDWICH_K wide.
    """
    lows, highs = np.array(xs, dtype=float), np.array(xs, dtype=float)
    for i, x in enumerate(xs):
        fx = F.floats(np.array([x]))[0]
        if fx <= 0.0:
            continue  # the bid is the value itself at or below the support
        t = np.linspace(0.0, x, SANDWICH_K + 1)
        ft = F.floats(t)
        with np.errstate(divide="ignore"):
            ratio = np.where(ft > 0, np.exp((n - 1) * (np.log(ft) - math.log(fx))), 0.0)
        h = x / SANDWICH_K
        lows[i] = x - h * ratio[1:].sum()
        highs[i] = x - h * ratio[:-1].sum()
    return lows, highs


def _csv_rows(stdout: str, header: str, samples: int) -> list[list[float]]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != samples + 1:
        raise ValueError(f"expected {samples + 1} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if row[0] != i / samples:
            raise ValueError(f"row {i} has x={row[0]}, expected {i}/{samples}")
    return rows


class Checker:
    """Checks op outputs; caches references per instance directory."""

    def __init__(self, inst_dir: Path):
        self.dir = inst_dir
        self._cdfs: dict[str, RefCdf] = {}
        self.outputs: dict[str, str] = {}  # op name -> stdout of its first run

    def cdf(self, name: str) -> RefCdf:
        if name not in self._cdfs:
            self._cdfs[name] = RefCdf(json.loads((self.dir / name).read_text()))
        return self._cdfs[name]

    def check(self, op: dict, rc, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        c = op["check"]
        try:
            return getattr(self, "_" + c["kind"].replace("-", "_"))(c, stdout)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _cdfpa_solve(self, c: dict, stdout: str) -> list[str]:
        out = json.loads(stdout)
        problems = []
        if out["certificate"]["pass"] is not True:
            problems.append("certificate did not pass")
        s = [Fraction(x) for x in out["s"]]
        bids = [Fraction(b) for b in c["bids"]]
        if len(s) != len(bids) + 1:
            return problems + [f"{len(s)} jump points for {len(bids)} bids"]
        if any(a > b for a, b in zip(s, s[1:])) or s[-1] != 1 or s[0] < 0:
            return problems + ["jump points are not nondecreasing in [0, 1] ending at 1"]
        regret = exact_sup_regret(self.cdf(c["cdf"]), c["n"], bids, s)
        if regret > Fraction(c["eps"]):
            problems.append(f"exact regret {float(regret):.6g} > eps {c['eps']}")
        return problems

    def _explicit(self, c: dict, stdout: str) -> list[str]:
        rows = _csv_rows(stdout, "x,bid", c["samples"])
        xs = np.array([r[0] for r in rows])
        bids = np.array([r[1] for r in rows])
        n = c["n"]
        if c["power"] is not None:
            k = int(Fraction(c["power"]))
            expect = (n - 1) * k * xs / ((n - 1) * k + 1)
            bad = np.flatnonzero(np.abs(bids - expect) > FLOAT_TOL)
            return [f"x={xs[i]}: bid {bids[i]} != closed form {expect[i]}" for i in bad[:3]]
        lows, highs = explicit_bid_bounds(self.cdf(c["cdf"]), n, xs)
        bad = np.flatnonzero((bids < lows - FLOAT_TOL) | (bids > highs + FLOAT_TOL))
        return [f"x={xs[i]}: bid {bids[i]} outside [{lows[i]}, {highs[i]}]" for i in bad[:3]]

    def _blackbox(self, c: dict, stdout: str) -> list[str]:
        from fpaeq.cdf import cdf_from_json
        from fpaeq.explicit import canonical_bid_function, eval_canonical

        rows = _csv_rows(stdout, "x,bid,L,U,queries", c["samples"])
        eps = Fraction(c["eps"])
        K = math.ceil(1 / eps)
        rbf = canonical_bid_function(cdf_from_json(json.loads((self.dir / c["cdf"]).read_text())), c["n"])
        problems = []
        for i, (x, bid, lower, upper, queries) in enumerate(rows):
            exact = float(eval_canonical(rbf, Fraction(i, c["samples"])))
            if not lower <= bid <= upper:
                problems.append(f"x={x}: bid {bid} outside [L, U] = [{lower}, {upper}]")
            if upper - lower > float(eps) + FLOAT_TOL:
                problems.append(f"x={x}: U - L = {upper - lower} > eps")
            if not lower - FLOAT_TOL <= exact <= upper + FLOAT_TOL:
                problems.append(f"x={x}: exact bid {exact} outside [{lower}, {upper}]")
            if queries != K - 1 + i + 1:
                problems.append(f"x={x}: {queries} queries, expected K-1+{i + 1} = {K + i}")
        return problems[:3]

    def _jump_strategy(self, c: dict) -> list[Fraction]:
        return [Fraction(x) for x in json.loads((self.dir / c["strategy"]).read_text())["s"]]

    def _audit_exact(self, c: dict, stdout: str) -> list[str]:
        out = json.loads(stdout)
        reported = Fraction(out["max_regret"])
        F, bids, s = self.cdf(c["cdf"]), [Fraction(b) for b in c["bids"]], self._jump_strategy(c)
        expected = value_set_regret(F, c["n"], bids, s)
        problems = []
        if reported != expected:
            problems.append(f"regret {float(reported):.6g} != {float(expected):.6g}, the exact maximum "
                            "over the documented value set")
        if c.get("eps") is not None and reported > Fraction(c["eps"]):
            problems.append(f"regret {float(reported):.6g} > eps {c['eps']}")
        if reported > exact_sup_regret(F, c["n"], bids, s):
            problems.append(f"regret {float(reported):.6g} above the exact supremum")
        if Fraction(out["argmax"]["bid"]) not in bids:
            problems.append("argmax bid is not a grid bid")
        return problems

    def _audit_grid(self, c: dict, stdout: str) -> list[str]:
        out = json.loads(stdout)
        if "power" in c:  # a bid function with a known positive regret
            expected = power_grid_regret(int(Fraction(c["power"])), c["n_solved"], c["n"])
            if not abs(out["max_regret"] - expected) <= GRID_TOL:
                return [f"grid regret {out['max_regret']} != {expected} computed in closed form"]
            return []
        if not 0 <= out["max_regret"] <= GRID_TOL:
            return [f"grid regret {out['max_regret']} of an exact equilibrium exceeds {GRID_TOL}"]
        return []

    def _audit_mc(self, c: dict, stdout: str) -> list[str]:
        if "same_as" in c:
            if stdout != self.outputs.get(c["same_as"]):
                return [f"output differs from {c['same_as']} run with the same seed"]
            return []
        out = json.loads(stdout)
        problems = []
        if c["eps_known"] is not None and out["max_regret"] > float(Fraction(c["eps_known"])) + 3 * out["sigma"]:
            problems.append(f"mc regret {out['max_regret']} > eps + 3 sigma = "
                            f"{float(Fraction(c['eps_known'])) + 3 * out['sigma']}")
        if c["bids"]:
            truth = float(mc_grid_regret(self.cdf(c["cdf"]), c["n"], [Fraction(b) for b in c["bids"]],
                                         self._jump_strategy(c)))
            if out["max_regret"] < truth - 3 * out["sigma"]:
                problems.append(f"mc regret {out['max_regret']} < exact {truth} - 3 sigma")
        return problems
