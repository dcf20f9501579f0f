"""CI's worst cases: the largest admitted inputs of each model, each run within its bound.

Usage: python .github/worst_cases.py

Each case runs ``python -m fpaeq.cli`` on this checkout's source, with its stdout to a
file in a temporary directory, kills it at its bound in seconds and reaps it with
os.wait4, so the peak RSS it reads is that run's own.  That peak also counts this
script's RSS at the start of the run, so the script hashes each output in chunks and
stays near 18 MB, below every run's own peak.  It prints one line per case and
exits non-zero if any case failed: a non-zero exit, a bound passed, a sha256 that
differs, or a certificate that does not pass.  Times quoted below are on 2 vCPUs.
"""

import hashlib, json, os, random, signal, subprocess, sys, tempfile, time
from pathlib import Path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

rng = random.Random(1)
weights = [rng.getrandbits(58) for _ in range(64)]  # one dense degree-64 row over a 64-bit denominator
INPUTS = {
    "dense.json": {"kind": "piecewise_poly", "breakpoints": ["0", "1"],
                   "coeffs": [["0"] + [f"{w}/{sum(weights)}" for w in weights]]},
    "power2.json": {"kind": "power", "exponent": "2"},
    "power8.json": {"kind": "power", "exponent": "8"},
    "square.json": {"kind": "piecewise_poly", "breakpoints": ["0", "1"], "coeffs": [["0", "0", "1"]]},
}
BIDS_1024 = json.dumps(["0"] + [f"{k}/8192" for k in sorted(random.Random(1).sample(range(1, 8192), 1023))])
BIDS_X8 = json.dumps(["0"] + [f"{k}/256" for k in (5, 20, 59, 86, 108, 121, 139, 142, 172, 187, 198, 222)])
DENSE = ["--cdf", "dense.json", "--n", "64"]
DENSE_GRID = [*DENSE, "--bids", '["0", "1/8", "1/4"]']
GRID_1024 = ["--cdf", "power2.json", "--n", "4", "--bids", BIDS_1024]

CASES = [  # argv, stdout file, bound in s; optionally a peak RSS bound in MB, a sha256, certificate.pass
    # K = 2**14, 9.5-9.9 s and 158 MB: a plan that keeps more than its prefix sums fails at 200 MB,
    # and a change to the tabulation or to bid that moves one printed bit fails the digest
    (["solve", "--model", "ccfpa-blackbox", *DENSE, "--eps", "1/16384"], "blackbox.csv", 60,
     dict(mb=200, sha256="26e7157c1962ca3b92d839cf8baf2369b0fd1cc23ae891ebb6eaed88a8eb0150")),
    # Miller's recurrence and Horner by shifts at i/32: 2.6-3.1 s and 92 MB, and 1.7-2.4 s and 47 MB
    # for the CSV; with the packed power or the q**k products back the CSV took 5.6-7.3 s
    (["solve", "--model", "ccfpa-explicit", *DENSE], "explicit.json", 8,
     dict(mb=200, sha256="0259fb2cdba82fff718f9b5245633ea7366344fa52635c43813efe4043b1cf6a")),
    (["solve", "--model", "ccfpa-explicit", *DENSE, "--samples", "32"], "explicit.csv", 4,
     dict(mb=200, sha256="e2536c179617116cddbbc98bab051275a415471ac079ab63868441305377a149")),
    # at n = 8 every float bid of the dense rows falls back to the exact one, so the verify's time is
    # the number of bids its inversion takes: 5.2-6.3 s alone and 9.2 s in a full run of this script,
    # where 60 bisection steps per deviation took 14-16 s
    (["solve", "--model", "ccfpa-explicit", "--cdf", "dense.json", "--n", "8"], "dense-n8.json", 8, {}),
    (["verify", "--mode", "grid", "--strategy", "dense-n8.json", "--cdf", "dense.json", "--n", "8"],
     "dense-n8-grid.json", 15, {}),
    # rationals of about 134 000 characters, past Python's int-to-str limit: 10-13 s and 10-12 s, 31 MB
    (["solve", "--model", "cdfpa", *DENSE_GRID, "--eps", "1/64"], "dense-grid.json", 60, dict(mb=200)),
    (["verify", "--mode", "exact", "--strategy", "dense-grid.json", *DENSE_GRID], "dense-grid-verify.json", 60,
     dict(mb=200)),
    # m = 1024: the verify compares payoffs on ints, 1.0-1.3 s against 24-30 s with a Fraction per payoff
    (["solve", "--model", "cdfpa", *GRID_1024, "--eps", "1/64"], "grid-1024.json", 120, {}),
    (["verify", "--mode", "exact", "--strategy", "grid-1024.json", *GRID_1024], "grid-1024-verify.json", 15, {}),
    # U_1 moves about 3e4 times faster than U, so only the exact search reaches gamma: 7-9 s
    (["solve", "--model", "cdfpa", "--cdf", "power8.json", "--n", "3", "--bids", BIDS_X8, "--eps", "1/17179869184"],
     "power8-grid.json", 60, dict(certified=True)),
    # 4 000 000 trials, the MAX_MC_TRIALS limit, 8192 at a time, each placed by its level among the cdf at the
    # bids' thresholds: 0.5-0.6 s and 36 MB, where a cdf inversion and a bid per trial took 3.3-4.4 s and 40 MB;
    # at n = 2 a trial draws the same Philox number as then, and its class is that of the old draw, so the same bytes
    (["solve", "--model", "ccfpa-explicit", "--cdf", "square.json", "--n", "2"], "square-bid.json", 120, {}),
    (["verify", "--strategy", "square-bid.json", "--cdf", "square.json", "--n", "2", "--mode", "mc",
      "--trials", "4000000"], "square-mc.json", 3,
     dict(mb=100, sha256="cc16e5c75405de206fc19903ae0ff794e117d7f2a9eb4bad69976f5eda9fc389")),
    # one draw per trial at any n: 0.5-0.6 s and 36 MB, where a cdf inversion and a bid per trial took 7.5-10 s
    (["solve", "--model", "ccfpa-explicit", "--cdf", "square.json", "--n", "64"], "square-bid-n64.json", 120, {}),
    (["verify", "--strategy", "square-bid-n64.json", "--cdf", "square.json", "--n", "64", "--mode", "mc",
      "--trials", "4000000"], "square-mc-n64.json", 3,
     dict(mb=100, sha256="90a987a2e69684a24455534b6672ec50f2fbab2f6a9b14f1be263b4564096176")),
]


def run(tmp, argv, out, bound, mb=None, sha256=None, certified=False) -> bool:
    """Run one case in tmp, print its line, and return whether it passed."""
    path = Path(tmp, out)
    start = time.monotonic()
    with path.open("wb") as stdout:
        proc = subprocess.Popen([sys.executable, "-m", "fpaeq.cli", *argv], stdout=stdout, cwd=tmp, env=ENV)
    # only this loop reaps the child, so its pid is the child's until wait4 returns it
    while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
        if time.monotonic() - start > bound:
            os.kill(proc.pid, signal.SIGKILL)
        time.sleep(0.01)
    seconds = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(reaped[1])  # reaped: Popen must not wait for it again
    peak_mb = reaped[2].ru_maxrss / 1024  # the child's own peak; ru_maxrss is in KiB on Linux
    with path.open("rb") as f:
        digest = hashlib.file_digest(f, "sha256").hexdigest()
    certificate_ok = not certified or code == 0 and json.loads(path.read_text())["certificate"]["pass"] is True
    failed = [what for what, bad in {
        "exit code": code != 0, "time": seconds > bound, "peak RSS": mb is not None and peak_mb > mb,
        "sha256": sha256 is not None and digest != sha256, "certificate": not certificate_ok}.items() if bad]
    print(f"{out}: exit code {code}, {seconds:.1f} s of {bound}, peak RSS {peak_mb:.1f} MB, sha256 {digest}"
          f" {'FAILED: ' + ', '.join(failed) if failed else 'ok'}", flush=True)
    return not failed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in INPUTS.items():
            Path(tmp, name).write_text(json.dumps(obj))
        results = [run(tmp, argv, out, bound, **checks) for argv, out, bound, checks in CASES]
    sys.exit(not all(results))
