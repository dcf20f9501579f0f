"""Self-test of the benchmark: deterministic setup, tiny runs of every workload, and broken outputs that must
count as failures.

    python3 bench/selftest.py

Run from the repository root. Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import instances
import run
from checks import Checker, move_one_jump_point


def tiny_runs() -> list[str]:
    """Every workload's ops and checks at tiny size, untraced and traced; all must pass."""
    errors = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in sorted(instances.WORKLOADS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in declared[section]}
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            tag = f"tiny {workload} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            found = []
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                found.append(f"{tag}: {result['failed']} of {result['attempted']} ops failed")
            if {name: m["unit"] for name, m in result["metrics"].items()} != expected:
                found.append(f"{tag}: metric names or units differ from those in BENCHMARK.json")
            print(f"{'FAIL' if found else 'ok'} {tag}: {result['attempted']} ops checked")
            errors += found
    return errors


def moved_jump_point(checker: Checker, check: dict, strategy: dict) -> dict:
    """A copy of a certified strategy with one jump point moved so its exact regret exceeds 2 eps."""
    moved = move_one_jump_point(checker.cdf(check["cdf"]), check["n"], [Fraction(b) for b in check["bids"]],
                                [Fraction(x) for x in strategy["s"]], 2 * Fraction(instances.EPS))
    return dict(strategy, s=[str(x) for x in moved])


def tamper(checker: Checker, op: dict, out: str) -> str:
    """A plausible but wrong version of an op's correct output."""
    check = op["check"]
    kind = check["kind"]
    if kind == "cdfpa-solve":
        return json.dumps(moved_jump_point(checker, check, json.loads(out)))
    if kind in ("explicit", "blackbox"):
        lines = out.splitlines()
        cells = lines[-2].split(",")
        if kind == "explicit":
            cells[1] = str(float(cells[1]) + 1e-3)  # a bid off by 1e-3
        else:
            cells[-1] = str(int(cells[-1]) + 1)  # one query more than the budget
        lines[-2] = ",".join(cells)
        return "\n".join(lines) + "\n"
    value = json.loads(out)
    if kind == "audit-exact":
        return json.dumps(dict(value, max_regret="1/8"))
    if kind == "audit-grid":
        return json.dumps(dict(value, max_regret=0.01))
    if "same_as" in check:
        return out.replace('"seed"', '"seed" ', 1)
    if check["eps_known"] is None:  # a known positive regret, reported as none
        return json.dumps(dict(value, max_regret=0.0))
    return json.dumps(dict(value, max_regret=value["max_regret"] + 4 * value["sigma"] + 0.01))


def deterministic_setup() -> list[str]:
    """Two setups of every workload with the same seed must write byte-identical files."""
    errors = []
    for workload in sorted(instances.WORKLOADS):
        dirs = [run.OUT / f"selftest-setup-{workload}-{i}-{os.getpid()}" for i in range(2)]
        try:
            for d in dirs:
                instances.setup(workload, 7, d)
            files = [{p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in dirs]
        finally:
            os.chdir(run.ROOT)
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
        same = files[0] == files[1]
        print(f"{'ok' if same else 'FAIL'} {workload}: two setups with one seed wrote "
              + ("identical files" if same else "different files"))
        if not same:
            errors.append(f"{workload}: setup is not deterministic")
    return errors


def broken_outputs() -> list[str]:
    """A broken input must raise fail_frac, and a tampered output of every op must be rejected."""
    errors = []
    cli = run.import_cli()
    for workload in sorted(instances.WORKLOADS):
        inst = run.OUT / f"selftest-{workload}-{os.getpid()}"
        try:
            ops = instances.setup(workload, 7, inst, tiny=True)  # leaves the cwd in `inst`
            checker = Checker(inst)
            expected = 0
            if workload == "audit":
                # the strategy under one extra exact audit has a jump point moved
                exact = next(op for op in ops if op["check"]["kind"] == "audit-exact")
                original = json.loads((inst / exact["check"]["strategy"]).read_text())
                (inst / "broken.json").write_text(json.dumps(moved_jump_point(checker, exact["check"], original)))
                argv = ["broken.json" if a == exact["check"]["strategy"] else a for a in exact["argv"]]
                ops.append({"name": "verify-exact-broken", "argv": argv,
                            "check": dict(exact["check"], strategy="broken.json")})
                expected = 1
            _marks, results = run.run_pass(cli, ops)
            failed, problems = run.check_passes(checker, ops, [results])
            ok = failed == expected
            print(f"{'ok' if ok else 'FAIL'} {workload}: fail_frac {failed}/{len(ops)}, expected {expected}/{len(ops)}"
                  + "".join(f"\n       {p}" for p in problems))
            if not ok:
                errors.append(f"{workload}: {failed} failed ops, expected {expected}")
            for op, (rc, _t, out, _scaled) in zip(ops[:len(ops) - expected], results):
                found = checker.check(op, rc, tamper(checker, op, out))
                print(f"{'ok' if found else 'FAIL'} {op['name']}: tampered output "
                      + (f"rejected ({found[0]})" if found else "accepted"))
                if not found:
                    errors.append(f"{op['name']}: tampered output was accepted")
        finally:
            os.chdir(run.ROOT)
            shutil.rmtree(inst, ignore_errors=True)
    return errors


def main() -> int:
    run.import_cli()
    errors = deterministic_setup() + tiny_runs() + broken_outputs()
    for e in errors:
        print("FAIL", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
