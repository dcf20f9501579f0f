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
    # Each time bound is a stated multiple of the row's time on 2 vCPUs, which includes about 0.2 s of
    # interpreter and numpy start-up, and each comment says what it catches.
    # K = 2**14, 9.5-14 s and 158 MB: a plan that keeps more than its prefix sums fails at 200 MB,
    # and a change to the tabulation or to bid that moves one printed bit fails the digest.  The 60 s
    # stays until the plan's exact sums give way to bounded precision, which will set this row's time anew
    (["solve", "--model", "ccfpa-blackbox", *DENSE, "--eps", "1/16384"], "blackbox.csv", 60,
     dict(mb=200, sha256="26e7157c1962ca3b92d839cf8baf2369b0fd1cc23ae891ebb6eaed88a8eb0150")),
    # Miller's recurrence and Horner by shifts at i/32.  The JSON holds the cdf row and the integral row, with
    # no gcd per coefficient: 1.0-1.2 s, 68 MB and 11.7 MB of output.  3 s is about 3 times its time, and 80 MB,
    # 1.2 times its peak, fails the numerator and denominator rows it printed before (2.1-2.4 s, 85 MB).  The CSV
    # reads F(x) and the integral row at each i/32 in lowest terms, 0.6-0.9 s and 36 MB: 3 s and 42 MB fail it
    # where it builds the bid rows again (1.4-1.5 s and 51 MB) or brings back the packed power or the q**k products
    (["solve", "--model", "ccfpa-explicit", *DENSE], "explicit.json", 3,
     dict(mb=80, sha256="128c63426b00a3ca0292a1eeca7b82bbbd959107cd0d1d71008ddd878cee00a5")),
    (["solve", "--model", "ccfpa-explicit", *DENSE, "--samples", "32"], "explicit.csv", 3,
     dict(mb=42, sha256="e2536c179617116cddbbc98bab051275a415471ac079ab63868441305377a149")),
    # the float view bounds x - I / F**(n-1), whose error shrinks by I / F**(n-1) over the bid: it takes 512 of
    # the 513 values i/512 in floats at n = 64, and only x = 0, where F = 0, exact.  The read of the 11.7 MB
    # bid and the verify take 0.6 s and 52 MB; 2 s, about 3 times that, fails the division of the two long
    # rows, which took every bid exact (9.9-11.4 s)
    (["verify", "--mode", "grid", "--strategy", "explicit.json", "--cdf", "dense.json", "--n", "64"],
     "explicit-grid-verify.json", 2, dict(mb=80)),
    # the same at n = 8: 0.2 s for the solve and 0.2 s for the verify, each mostly start-up, where dividing
    # the two long rows took every float bid exact (0.4 s) and an inversion per deviation j/256 6.4-8.7 s
    (["solve", "--model", "ccfpa-explicit", "--cdf", "dense.json", "--n", "8"], "dense-n8.json", 8, {}),
    (["verify", "--mode", "grid", "--strategy", "dense-n8.json", "--cdf", "dense.json", "--n", "8"],
     "dense-n8-grid.json", 4, {}),
    # rationals of about 134 000 characters, past Python's int-to-str limit, 31 MB.  The solve takes 0.5-0.6 s,
    # its certificate decided in floats and one residual exact; 2.5 s, about 4 times that, fails an exact sum
    # of Fractions for each Delta (10-13 s).  The exact verify takes 1.6-2.4 s with each Delta_k an integer
    # pair; 5 s, about 3 times its usual 1.6-1.9 s, fails a tenfold slowdown and Delta's sum of powers (13 s)
    (["solve", "--model", "cdfpa", *DENSE_GRID, "--eps", "1/64"], "dense-grid.json", 2.5, dict(mb=200)),
    (["verify", "--mode", "exact", "--strategy", "dense-grid.json", *DENSE_GRID], "dense-grid-verify.json", 5,
     dict(mb=200)),
    # m = 1024: the solve takes 0.3-0.5 s, and 2 s, 4 to 6 times that, fails a fourfold slowdown of the
    # finite-grid search.  The verify compares payoffs on ints, 1.0-1.5 s; 4 s, about 3 times that, fails a
    # tenfold slowdown and a Fraction per payoff (24-30 s)
    (["solve", "--model", "cdfpa", *GRID_1024, "--eps", "1/64"], "grid-1024.json", 2, {}),
    (["verify", "--mode", "exact", "--strategy", "grid-1024.json", *GRID_1024], "grid-1024-verify.json", 4, {}),
    # U_1 moves about 3e4 times faster than U, so whether a float walk reaches gamma is luck in U's last bits:
    # the float search's 48th walk does, 0.3 s, where bisection on U did not and the exact search took 7-9 s.
    # The 60 s stays while a solve may still fall back to that exact search, until the exact walk runs on ints
    (["solve", "--model", "cdfpa", "--cdf", "power8.json", "--n", "3", "--bids", BIDS_X8, "--eps", "1/17179869184"],
     "power8-grid.json", 60, dict(certified=True)),
    # 4 000 000 trials, the MAX_MC_TRIALS limit, counted per class of the top opposing bid by one multinomial
    # draw: 0.15-0.25 s and 36 MB, as a run of 2 trials takes, where drawing a level per trial, 8192 at a time,
    # took 0.3-0.6 s, and a cdf inversion and a bid per trial 3.3-4.4 s.  The digest pins the seed's draw
    # and the deviations, the bids beta(i/8) and the float above each, as the float view x - I / F**(n-1)
    # rounds them (sigma's last bits moved from the quotient of two rows).  The solve of the strategy takes
    # 0.2-0.4 s, mostly start-up; 1.5 s, as for the verify, fails a bid function that takes a second to build
    (["solve", "--model", "ccfpa-explicit", "--cdf", "square.json", "--n", "2"], "square-bid.json", 1.5, {}),
    (["verify", "--strategy", "square-bid.json", "--cdf", "square.json", "--n", "2", "--mode", "mc",
      "--trials", "4000000"], "square-mc.json", 1.5,
     dict(mb=100, sha256="3ad1dddfcf768ad3979c57974564dea78a43e59e299f391bad03a5cb2eb9d527")),
    # the same at n = 64, n classes per compared bid: 0.15-0.25 s and 36 MB, where a level per trial took
    # 0.3-0.6 s, and a cdf inversion and a bid per trial 7.5-10 s.  The solve, 0.2-0.4 s, is bounded as above
    (["solve", "--model", "ccfpa-explicit", "--cdf", "square.json", "--n", "64"], "square-bid-n64.json", 1.5, {}),
    (["verify", "--strategy", "square-bid-n64.json", "--cdf", "square.json", "--n", "64", "--mode", "mc",
      "--trials", "4000000"], "square-mc-n64.json", 1.5,
     dict(mb=100, sha256="1bcfcc3e553e77bdd97961a866facd139b6d2f7d6683f52ddac8bbf7a6157de0")),
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
