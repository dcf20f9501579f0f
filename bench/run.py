"""fpaeq benchmark: run one workload of `fpaeq` CLI commands in-process and report metrics.

    python3 bench/run.py --workload grid-solve --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. Setup
(importing fpaeq, writing the seeded inputs, and for `audit` solving the
strategies under audit) runs in this process before the first op. Each op is
one `fpaeq.cli.main(argv)` call with stdout captured. The workload's fixed op
list runs a fixed number of passes, one per PASS_SECONDS of --seconds, and
each op is timed by its median over the passes, at a reference speed of the
machine (see run_pass). Every op output is then checked (see checks.py),
outside the timed region.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and the per-layer
metrics of tracer.py are reported instead. A human-readable report goes to
stderr and, with the environment record, to .bench_out/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # setup_s counts from here: the first statement of the process's script

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one process, no extra threads

import argparse
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import instances

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # setup_s counts the median of this many instance setups
PASS_SECONDS = 6  # one pass of the op list per this many seconds of --seconds: 5 passes in a 30 s run
REFERENCE_S = 0.010  # time of reference_work() at the reference speed (a 2-vCPU x86-64 VM, Python 3.11)
TAIL_BEYOND = 10  # op_s.tail has exactly this many slower op runs beyond it

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_s.p50": "s", "op_s.tail": "s", "peak_rss_mb": "MB"}


def import_cli():
    src = ROOT / "src"
    if not (src / "fpaeq" / "__init__.py").is_file():
        raise SystemExit(f"error: no fpaeq sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    from fpaeq import cli

    return cli


def reference_work() -> float:
    """A fixed piece of interpreted work, mostly dict updates plus small numpy arrays. Returns its
    wall time, which tracks the current speed of the machine.

    The mix was chosen by how well its time follows the ops' own times while the machine's speed
    changes: on the machine described in README.md, op time grows with this work's time to a
    power of 0.86 to 1.02 across ops of the three workloads, where exact Fraction arithmetic gave
    1.3 to 1.5 and so left much of a slowdown in the scaled times.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(60000):
        table[i & 127] = table.get(i & 127, 0) + i % 7
    grid = np.linspace(0.0, 1.0, 2048)
    for _ in range(90):
        np.clip((grid * grid + 0.5 * grid) ** 3, 0.0, 1.0).sum()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Wall time scaled by REFERENCE_S over the mean time of the reference work around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def run_pass(cli, ops: list[dict]) -> tuple[list[float], list[tuple]]:
    """Run every op once; returns the times of the reference work and, per op, (exit code,
    seconds, stdout, seconds at the reference speed).

    reference_work() runs before every op and after the last one. An op's time at the reference
    speed is its wall time scaled by the reference work just before and just after it: a stretch
    in which the whole machine runs slower stretches both alike.
    """
    gc.collect()
    runs, marks = [], [reference_work()]
    for op in ops:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error is a failed op, not a crashed benchmark
                rc = f"uncaught {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        runs.append((rc, seconds, out.getvalue()))
        marks.append(reference_work())
    results = [(rc, t, out, at_reference_speed(t, before, after))
               for (rc, t, out), before, after in zip(runs, marks, marks[1:])]
    return marks, results


def check_passes(checker, ops: list[dict], passes: list[list[tuple]]) -> tuple[int, list[str]]:
    """Check every op of every pass; identical outputs share one verdict. Returns (failed, problems)."""
    checker.outputs = {op["name"]: result[2] for op, result in zip(ops, passes[0])}
    verdicts: dict[tuple, list[str]] = {}
    failed, problems = 0, []
    for results in passes:
        for op, (rc, _t, out, _scaled) in zip(ops, results):
            key = (op["name"], rc, out)
            if key not in verdicts:
                verdicts[key] = checker.check(op, rc, out)
                problems += [f"{op['name']}: {p}" for p in verdicts[key]]
            failed += bool(verdicts[key])
    return failed, problems


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def passes(args) -> int:
    """Untraced passes per run: fixed by --seconds alone, so every commit runs the same number."""
    return max(1, round(args.seconds / PASS_SECONDS))


def setup(args) -> tuple[object, float, list[float], Path]:
    """Import fpaeq and write the instances SETUP_REPEATS times; returns the time from T_START to
    the end of the imports and each setup's time, both at the reference speed (see run_pass), and
    the directory of the first setup."""
    cli = import_cli()
    imported = time.perf_counter() - T_START
    marks = [statistics.median(reference_work() for _ in range(3))]  # the first call also warms it up
    run_dir = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances.setup(args.workload, args.seed, run_dir / f"setup{i}", args.tiny)
        times.append(time.perf_counter() - t0)
        marks.append(reference_work())
    scaled = [at_reference_speed(t, before, after) for t, before, after in zip(times, marks, marks[1:])]
    return cli, at_reference_speed(imported, marks[0], marks[0]), scaled, run_dir


def environment(args, n_ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": n_ops,
        "passes": passes(args),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, cli, ops: list[dict]) -> dict:
    """Run the fixed number of untraced passes, each followed by a traced one with --trace 1."""
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    plain, traced, layer_passes = [], [], []
    for _ in range(passes(args)):
        plain.append(run_pass(cli, ops))
        if tracer is None:
            continue
        tracer.install()
        try:
            traced.append(run_pass(cli, ops))
        finally:
            tracer.uninstall()
        layer_passes.append(tracer.pass_metrics([r[3] / r[1] for r in traced[-1][1]]))
        if len(traced) == 1:
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.reset()
    return {"plain": plain, "traced": traced, "layers": layer_passes, "missing": tracer.missing if tracer else [],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def op_times(pass_results: list[tuple]) -> list[float]:
    """Each op's median time at the reference speed over the given passes, in op-list order."""
    return [statistics.median(results[i][3] for _marks, results in pass_results)
            for i in range(len(pass_results[0][1]))]


def end_to_end(imported: float, setup_times: list[float], measured: dict) -> tuple[dict, dict]:
    plain = measured["plain"]
    totals = [sum(r[3] for r in results) for _marks, results in plain]
    per_op = op_times(plain)
    # every op run takes its op's median time: the tail then moves with an op's cost, not with
    # the one slowest of its passes
    every_op = sorted(t for t in per_op for _ in plain)
    n_ops = len(every_op)
    tail_at = n_ops - 1 - TAIL_BEYOND if n_ops > TAIL_BEYOND else n_ops - 1  # tiny runs: the slowest
    values = {
        "setup_s": imported + statistics.median(setup_times),
        "run_s": statistics.median(totals),
        "op_s.p50": statistics.median(every_op),
        "op_s.tail": every_op[tail_at],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {
        "run_s": f"median of {len(plain)} passes at the reference speed: " + ", ".join(f"{t:.3f}" for t in totals)
                 + "; their wall times: " + ", ".join(f"{sum(r[1] for r in results):.3f}" for _marks, results in plain),
        "op_s": f"each of {len(per_op)} ops timed by its median over the passes; over their {n_ops} op runs, "
                f"op_s.tail is p{100 * tail_at / n_ops:.1f}, with {n_ops - 1 - tail_at} slower op runs beyond it",
        "setup_s": f"{imported:.3f} s from the start of run.py to the end of the imports, plus the median of "
                   f"{len(setup_times)} instance setups: " + ", ".join(f"{t:.3f}" for t in setup_times)
                   + " (at the reference speed)",
    }
    return values, notes


def layer_metrics(measured: dict) -> dict:
    from tracer import LAYER_METRICS

    layers = measured["layers"]  # counts are equal in every pass; times take the median
    values = {name: statistics.median_low(p[name] for p in layers) for name in layers[0]}
    totals = {kind: statistics.median(sum(r[3] for r in results) for _marks, results in measured[kind])
              for kind in ("plain", "traced")}
    values["trace.overhead"] = totals["traced"] / totals["plain"] - 1
    return {name: {"value": values[name], "unit": unit} for name, (unit, _spec) in LAYER_METRICS.items()}


def report(env: dict, metrics: dict, notes: dict, attempted: int, failed: int, problems: list[str],
           ops: list[dict], measured: dict) -> None:
    lines = [f"fpaeq benchmark: {env['workload']}  seed {env['seed']}  trace {env['trace']}",
             f"why: {instances.WHY[env['workload']]}",
             "env: " + ", ".join(f"{k}={env[k]}" for k in ("python", "numpy", "nproc", "git_commit", "ops_per_pass")),
             f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f} ratio"]
    lines += [f"note {k}: {v}" for k, v in notes.items()]
    lines += [f"  {name:<42} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"FAIL {p}" for p in problems[:20]]
    print("\n".join(lines), file=sys.stderr)
    record = {"environment": env, "metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
              "fail_frac": {"value": failed / attempted, "unit": "ratio"}, "problems": problems,
              "why": instances.WHY[env["workload"]],
              "op_s": dict(zip((op["name"] for op in ops), op_times(measured["plain"]))),
              "untraced_passes": [{"op_wall_s": [r[1] for r in results], "reference_work_s": marks}
                                  for marks, results in measured["plain"]]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{env['workload']}-seed{env['seed']}-trace{env['trace']}.json").write_text(
        json.dumps(record, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny instances (self-test)")
    args = parser.parse_args(argv)

    from checks import Checker

    cli, imported, setup_times, run_dir = setup(args)
    try:
        inst = run_dir / "setup0"
        ops = json.loads((inst / "manifest.json").read_text())["ops"]
        os.chdir(inst)  # ops name their input files relative to the instance directory
        try:
            measured = measure(args, cli, ops)
            passes_run = [r for _, r in measured["plain"] + measured["traced"]]
            failed, problems = check_passes(Checker(inst), ops, passes_run)
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(ops) * len(passes_run)
    env = environment(args, len(ops))
    if args.trace:
        metrics = layer_metrics(measured)
        notes = {"passes": f"{len(measured['plain'])} untraced, {len(measured['traced'])} traced",
                 "missing_trace_targets": ", ".join(measured["missing"]) or "none"}
    else:
        values, notes = end_to_end(imported, setup_times, measured)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    report(env, metrics, notes, attempted, failed, problems, ops, measured)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
