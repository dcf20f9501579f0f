"""Seeded instances and op lists for the benchmark workloads.

Every input the program sees is a file written here (cdf and strategy JSON)
or a literal argument (bid grids, n, eps); the program never sees the seed.
One `random.Random(seed)` stream per workload drives all choices, so the same
seed always yields byte-identical files and op lists.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from checks import RefCdf, move_one_jump_point

EPS = "1/64"  # accuracy of every cdfpa solve
EXPLICIT_SAMPLES = 32  # CSV rows (+1) per ccfpa-explicit op
BLACKBOX_SAMPLES = 32  # bid evaluations (+1) per ccfpa-blackbox op
MC_TRIALS_JUMP = 500  # trials per (value, deviation) pair, jump-point strategies
MC_TRIALS_RBF = 100  # rational bid functions are evaluated exactly per sample: keep small
EIGHTHS = [str(Fraction(k, 8)) for k in range(8)]  # the mc verifier deviates to i/8

WHY = {
    "grid-solve": (
        "cdfpa solves over a (cdf, n, m) sweep: nearly all time is in discrete (outer search on U, "
        "compute_strategy bisection, exact delta_win_prob); explicit, blackbox and verify are never called"
    ),
    "continuous-solve": (
        "ccfpa-explicit up to n=64 (power_coefficients, eval_canonical) and ccfpa-blackbox over an "
        "eps sweep (precompute vs bid): building vs evaluating a bid function; discrete and verify absent"
    ),
    "audit": (
        "verify in exact, grid and mc modes on strategies prepared in setup: all time is in verify, which "
        "reuses eval_canonical and discrete.utility/delta_win_prob to evaluate a fixed strategy"
    ),
}


def seeded_cubic_cdf(rng: random.Random, pieces: int) -> dict:
    """Continuous piecewise-cubic cdf close to the identity, with seeded shape.

    Piece j spans [j/p, (j+1)/p]; its end values are j/p plus a seeded offset
    of at most 1/(4p), so they increase. On each piece F = F(a) + (F(b) - F(a))
    * sum_k w_k t**k with t = (x - a)/(b - a) and seeded weights w_k = c_k/8,
    c_k >= 0, sum c_k = 8: every piece is nondecreasing and the pieces join
    continuously, so validate() accepts it. Staying near the identity keeps
    every bid of the seeded grids in use, and the fixed denominators keep the
    cost of exact arithmetic alike across seeds.
    """
    bps = [Fraction(j, pieces) for j in range(pieces + 1)]
    ys = [Fraction(0)] + [Fraction(8 * j + rng.randint(-2, 2), 8 * pieces) for j in range(1, pieces)]
    ys.append(Fraction(1))
    rows = []
    for j in range(pieces):
        a, h, ya, rise = bps[j], bps[j + 1] - bps[j], ys[j], ys[j + 1] - ys[j]
        cut = sorted(rng.randint(0, 8) for _ in range(2))
        weights = (cut[0], cut[1] - cut[0], 8 - cut[1])
        row = [ya, Fraction(0), Fraction(0), Fraction(0)]
        for k, w in enumerate(weights, start=1):
            scale = rise * Fraction(w, 8) / h**k
            for i in range(k + 1):  # expand scale * (x - a)**k
                row[i] += scale * math.comb(k, i) * (-a) ** (k - i)
        rows.append(row)
    return {
        "kind": "piecewise_poly",
        "breakpoints": [str(b) for b in bps],
        "coeffs": [[str(c) for c in row] for row in rows],
    }


def seeded_adversarial_cdf(rng: random.Random) -> dict:
    """Adversarial cdf with a seeded position and kink; every parameter has a fixed denominator."""
    return {
        "kind": "adversarial",
        "v1": str(Fraction(2 * rng.randint(22, 27) + 1, 64)),  # in [2/3, 1 - gap]
        "gap": "1/32",
        "kink": str(Fraction(2 * rng.randint(0, 2) + 1, 512)),
    }


def seeded_grid(rng: random.Random, m: int) -> list[str]:
    """Bids 0 and (2 j_k + 1)/256 with j_k = round(48k/m) + r_k, seeded r_k in {0, 1}, for 1 <= k < m <= 16.

    All bids lie below 0.37, under the top equilibrium bid of every workload
    cdf, so each one is in use. The odd numerators fix every denominator at
    256: seeds then differ in the bids, not in the size of the exact arithmetic.
    """
    return ["0"] + [str(Fraction(2 * (round(48 * k / m) + rng.randint(0, 1)) + 1, 256)) for k in range(1, m)]


def _op(name: str, argv: list[str], check: dict) -> dict:
    return {"name": name, "argv": argv, "check": check}


def _write_cdfs(out: Path, cdfs: dict) -> None:
    from fpaeq.cdf import cdf_from_json

    for name, spec in cdfs.items():
        report = cdf_from_json(spec).validate()
        if not report.ok:
            raise RuntimeError(f"generated cdf {name} is invalid: {report.violations}")
        (out / f"{name}.json").write_text(json.dumps(spec))


def _cli_stdout(argv: list[str]) -> str:
    from fpaeq import cli

    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"setup command failed with exit code {rc}: {argv}")
    return buf.getvalue()


def _cdfpa_argv(cdf: str, n: int, bids: list[str]) -> list[str]:
    return ["solve", "--model", "cdfpa", "--cdf", f"{cdf}.json", "--n", str(n),
            "--bids", json.dumps(bids), "--eps", EPS]


def grid_solve(rng: random.Random, out: Path, tiny: bool) -> list[dict]:
    cdfs = {"uniform": {"kind": "uniform"}, "power2": {"kind": "power", "exponent": "2"},
            "poly": seeded_cubic_cdf(rng, 4)}
    _write_cdfs(out, cdfs)
    # A solve's cost moves by about 10% with its seeded grid, whatever m is. So the ops fall into
    # three groups of similar cost, about 0.15, 0.23 and 0.4 s: the median op is the middle one of
    # the seven in the second group, and with 5 passes op_s.tail is the middle one of the five in
    # the third. Uniform at m = 3 with n = 2 or 4 is left out: there the seeded grid flips a solve's
    # cost by up to 1.7x.
    sweep = [(c, n, 3) for c in cdfs for n in (2, 3, 4) if (c, n) not in (("uniform", 2), ("uniform", 4))]
    sweep += [("uniform", 3, 4), ("power2", 4, 4), ("uniform", 2, 5), ("uniform", 3, 5), ("power2", 2, 5)]
    sweep += [(c, n, 8) for c in ("uniform", "power2") for n in (2, 3)] + [("power2", 4, 6)]
    if tiny:
        sweep = [("uniform", 2, 2), ("poly", 3, 3)]
    ops = []
    for c, n, m in sweep:
        bids = seeded_grid(rng, m)
        check = {"kind": "cdfpa-solve", "cdf": f"{c}.json", "n": n, "bids": bids, "eps": EPS}
        ops.append(_op(f"solve-cdfpa-{c}-n{n}-m{m}", _cdfpa_argv(c, n, bids), check))
    return ops


def continuous_solve(rng: random.Random, out: Path, tiny: bool) -> list[dict]:
    cdfs = {"polyA": seeded_cubic_cdf(rng, 8), "polyB": seeded_cubic_cdf(rng, 8),
            "power2": {"kind": "power", "exponent": "2"}, "power3": {"kind": "power", "exponent": "3"},
            "adv": seeded_adversarial_cdf(rng)}
    _write_cdfs(out, cdfs)
    explicit = [("polyA", n) for n in (2, 8, 16, 32, 64)] + [("polyB", n) for n in (4, 16)]
    explicit += [(c, n) for c in ("power2", "power3") for n in (2, 16, 64)]
    explicit += [("adv", n) for n in (2, 8, 32)]
    blackbox = [(c, 2, e) for c in ("polyA", "adv") for e in (64, 256, 1024, 4096, 16384)]
    blackbox += [(c, 5, e) for c in ("polyA", "adv") for e in (64, 256, 1024, 4096)]
    samples_x, samples_b = EXPLICIT_SAMPLES, BLACKBOX_SAMPLES
    if tiny:
        explicit, blackbox = [("polyA", 3), ("power2", 2)], [("adv", 2, 64)]
        samples_x = samples_b = 8
    ops = []
    for c, n in explicit:
        power = cdfs[c].get("exponent") if cdfs[c]["kind"] == "power" else None
        argv = ["solve", "--model", "ccfpa-explicit", "--cdf", f"{c}.json", "--n", str(n),
                "--samples", str(samples_x)]
        check = {"kind": "explicit", "cdf": f"{c}.json", "n": n, "samples": samples_x, "power": power}
        ops.append(_op(f"solve-explicit-{c}-n{n}", argv, check))
    for c, n, e in blackbox:
        argv = ["solve", "--model", "ccfpa-blackbox", "--cdf", f"{c}.json", "--n", str(n),
                "--eps", f"1/{e}", "--samples", str(samples_b)]
        check = {"kind": "blackbox", "cdf": f"{c}.json", "n": n, "eps": f"1/{e}", "samples": samples_b}
        ops.append(_op(f"solve-blackbox-{c}-n{n}-eps1/{e}", argv, check))
    return ops


def audit(rng: random.Random, out: Path, tiny: bool) -> list[dict]:
    """Prepare certified jump-point strategies and exact bid functions, then the verify ops.

    The mc verifier deviates to the bids i/8, so the certified strategies it
    audits are solved on exactly that grid: then every deviation is a grid bid
    (or the never-profitable bid 1) and the solve's eps bounds the true regret.
    Three strategies have a known positive regret, so that a verifier which
    under-reports fails its check: one jump point moved (exact mode), every
    value above 0 bidding the top bid (mc mode), and the n = 3 bid function
    played at n = 2 (grid mode).
    """
    cdfs = {"uniform": {"kind": "uniform"}, "power2": {"kind": "power", "exponent": "2"},
            "poly": seeded_cubic_cdf(rng, 4)}
    _write_cdfs(out, cdfs)
    jump = [(c, 2, EIGHTHS) for c in ("uniform", "power2")]
    jump += [(c, n, seeded_grid(rng, 3)) for c, n in (("uniform", 4), ("power2", 3), ("poly", 2), ("poly", 4))]
    rbfs = [("uniform", 2), ("power2", 2), ("poly", 2)]
    mc_rbf = [("power2", 2)]
    if tiny:
        jump, rbfs, mc_rbf = [("uniform", 2, EIGHTHS)], [("power2", 2)], [("power2", 2)]
    ops = []

    def exact_op(strategy: str, c: str, n: int, bids: list[str], eps: str | None) -> None:
        argv = ["verify", "--strategy", strategy, "--cdf", f"{c}.json", "--n", str(n),
                "--bids", json.dumps(bids), "--mode", "exact"]
        check = {"kind": "audit-exact", "cdf": f"{c}.json", "n": n, "bids": bids, "strategy": strategy,
                 "eps": eps}
        ops.append(_op(f"verify-exact-{strategy[:-5]}-m{len(bids)}", argv, check))

    def mc_op(strategy: str, c: str, n: int, bids: list[str] | None, eps_known: str | None) -> None:
        argv = ["verify", "--strategy", strategy, "--cdf", f"{c}.json", "--n", str(n)]
        argv += ["--bids", json.dumps(bids)] if bids else []
        argv += ["--mode", "mc", "--trials", str(MC_TRIALS_JUMP if bids else MC_TRIALS_RBF),
                 "--seed", str(rng.randrange(10**6))]
        check = {"kind": "audit-mc", "cdf": f"{c}.json", "n": n, "bids": bids, "strategy": strategy,
                 "eps_known": eps_known}
        ops.append(_op(f"verify-mc-{strategy[:-5]}", argv, check))

    for i, (c, n, bids) in enumerate(jump):
        strategy = f"jump-{i}-{c}-n{n}.json"
        (out / strategy).write_text(_cli_stdout(_cdfpa_argv(c, n, bids)))
        exact_op(strategy, c, n, bids, EPS)
        if bids is EIGHTHS:
            mc_op(strategy, c, n, bids, EPS)
    # known positive regret, derived from the first certified strategy (uniform, n = 2, bids i/8)
    first = json.loads((out / "jump-0-uniform-n2.json").read_text())
    moved = move_one_jump_point(RefCdf(cdfs["uniform"]), 2, [Fraction(b) for b in EIGHTHS],
                                [Fraction(x) for x in first["s"]], 2 * Fraction(EPS))
    (out / "moved-uniform-n2.json").write_text(json.dumps(dict(first, s=[str(x) for x in moved])))
    exact_op("moved-uniform-n2.json", "uniform", 2, EIGHTHS, None)
    top = ["0"] * len(EIGHTHS) + ["1"]
    (out / "overbid-uniform-n2.json").write_text(json.dumps(dict(first, s=top)))
    mc_op("overbid-uniform-n2.json", "uniform", 2, EIGHTHS, None)
    for c, n in rbfs + [("uniform", 3)]:
        strategy = f"rbf-{c}-n{n}.json"
        (out / strategy).write_text(_cli_stdout(
            ["solve", "--model", "ccfpa-explicit", "--cdf", f"{c}.json", "--n", str(n)]))
        if (c, n) in rbfs:
            argv = ["verify", "--strategy", strategy, "--cdf", f"{c}.json", "--n", str(n), "--mode", "grid"]
            ops.append(_op(f"verify-grid-{strategy[:-5]}", argv, {"kind": "audit-grid"}))
        if (c, n) in mc_rbf:
            mc_op(strategy, c, n, None, "0")
    # the n = 3 equilibrium played by 2 bidders overbids: beta(x) = 2x/3 where x/2 is optimal
    argv = ["verify", "--strategy", "rbf-uniform-n3.json", "--cdf", "uniform.json", "--n", "2", "--mode", "grid"]
    ops.append(_op("verify-grid-rbf-uniform-n3-at-n2", argv,
                   {"kind": "audit-grid", "power": "1", "n_solved": 3, "n": 2}))
    first_mc = next(op for op in ops if op["check"]["kind"] == "audit-mc")
    ops.append(_op(first_mc["name"] + "-repeat", list(first_mc["argv"]),
                   dict(first_mc["check"], same_as=first_mc["name"])))
    return ops


WORKLOADS = {"grid-solve": grid_solve, "continuous-solve": continuous_solve, "audit": audit}


def setup(workload: str, seed: int, out: Path, tiny: bool = False) -> list[dict]:
    """Write the workload's input files into `out` and return its op list (also in manifest.json)."""
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # ops, including the solves run here, name their files relative to `out`
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, out, tiny)
    manifest = {"workload": workload, "seed": seed, "tiny": tiny, "ops": ops}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return ops
