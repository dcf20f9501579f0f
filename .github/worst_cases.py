"""CI's worst cases: the largest admitted inputs of each model, each run within its bound.

Usage: python .github/worst_cases.py

Each case runs ``python -m fpaeq.cli`` on this checkout's source, with its stdout to a
file in a temporary directory, kills it at its bound in seconds and reaps it with
os.wait4, so the peak RSS it reads is that run's own.  That peak also counts this
script's RSS at the start of the run, so the script hashes each output in chunks and
stays near 18 MB, below every run's own peak.  It prints one line per case and
exits non-zero if any case failed: a non-zero exit, a bound passed, a sha256 that
differs, or a certificate that does not pass.  The float verify rows then run again
with numpy's AVX512 targets disabled and must give the same digests, since their
float powers are taken by products; where numpy was built without those targets, or
the CPU lacks AVX512 so that disabling them changes nothing, the script prints that
the rerun was skipped.  Times quoted below are on 2 vCPUs.
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

# numpy's AVX512 targets, whose float ** differs from glibc's pow in last bits, and the float verify rows, whose
# digests must not move without them
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
FLOAT_VERIFY_ROWS = ("explicit-grid-verify.json", "dense-n8-grid.json", "grid-1024-grid.json", "grid-1024-mc.json",
                     "square-mc.json", "square-mc-n64.json")

CASES = [  # argv, stdout file, bound in s; optionally a peak RSS bound in MB, a sha256, certificate.pass
    # Each time bound is a stated multiple of the row's time on 2 vCPUs, which includes about 0.2 s of
    # interpreter and numpy start-up, and each comment says what it catches.
    # K = 2**14, 9.5-14 s and 155 MB, nearly all of it the prefix sums, as the grid query streams into them:
    # a plan that keeps more than its prefix sums fails at 200 MB, and a change to the tabulation or to bid
    # that moves one printed bit fails the digest.  The 60 s
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
    # rows, which took every bid exact (9.9-11.4 s).  The digest pins the exact equilibrium's report, 0.0 at
    # (0.0, 0.0), so a float view or a tie rule that stops reporting 0 for the exact bid fails it
    (["verify", "--mode", "grid", "--strategy", "explicit.json", "--cdf", "dense.json", "--n", "64"],
     "explicit-grid-verify.json", 2,
     dict(mb=80, sha256="ca88bf88443377473f561810ea65ef33983208be5d8b7da862111dd7c4c8630e")),
    # the same at n = 8: 0.2 s for the solve and 0.2 s for the verify, each mostly start-up, where dividing
    # the two long rows took every float bid exact (0.4 s) and an inversion per deviation j/256 6.4-8.7 s.
    # The solve's digest pins the printed cdf row and integral row at n = 8, so a change to the power, the
    # integral or the way either is printed fails it here, before the verify reads it
    (["solve", "--model", "ccfpa-explicit", "--cdf", "dense.json", "--n", "8"], "dense-n8.json", 8,
     dict(sha256="4b2f7eeb423b09f278fcf5d97de1e263a0abeba0cf09c3413e4a990f731d3fde")),
    # The digest pins the same report of 0.0 at (0.0, 0.0) at n = 8, as above
    (["verify", "--mode", "grid", "--strategy", "dense-n8.json", "--cdf", "dense.json", "--n", "8"],
     "dense-n8-grid.json", 4, dict(sha256="ca88bf88443377473f561810ea65ef33983208be5d8b7da862111dd7c4c8630e")),
    # rationals of about 134 000 characters, past Python's int-to-str limit, 31 MB.  The solve takes 0.5-0.6 s,
    # its certificate decided in floats and one residual exact; 2.5 s, about 4 times that, fails an exact sum
    # of Fractions for each Delta (10-13 s).  The exact verify takes 1.6-2.4 s with each Delta_k an integer
    # pair; 5 s, about 3 times its usual 1.6-1.9 s, fails a tenfold slowdown and Delta's sum of powers (13 s).
    # These rows and the cdfpa rows below print exact rationals, so the digests pin every byte of the jump
    # points, the utilities, the certificate's max_residual and the exact regret
    (["solve", "--model", "cdfpa", *DENSE_GRID, "--eps", "1/64"], "dense-grid.json", 2.5,
     dict(mb=200, sha256="6398c41ea089a3ecbcaebee1f5657f0f16c4e7a37caa54cc11731d43a03cba32")),
    (["verify", "--mode", "exact", "--strategy", "dense-grid.json", *DENSE_GRID], "dense-grid-verify.json", 5,
     dict(mb=200, sha256="3c4aa61bd65b124422903fbd049c5ce8ef9ba28a922bcef5080ee35215c636ee")),
    # m = 1024: the solve takes 0.3-0.5 s, and 2 s, 4 to 6 times that, fails a fourfold slowdown of the
    # finite-grid search.  The verify compares payoffs on ints, 1.0-1.5 s; 4 s, about 3 times that, fails a
    # tenfold slowdown and a Fraction per payoff (24-30 s)
    (["solve", "--model", "cdfpa", *GRID_1024, "--eps", "1/64"], "grid-1024.json", 2,
     dict(sha256="b1f03bf76098cc44c5814a7a99f10aeca30c6ab8a5a76c9b8562309f9dcd8df9")),
    (["verify", "--mode", "exact", "--strategy", "grid-1024.json", *GRID_1024], "grid-1024-verify.json", 4,
     dict(sha256="131acf7bfd782d126391e03ceda89511610fb62a4f07053ef242ef0cc94ff53e")),
    # the grid verify of the same 1,024 jump points: its exact thresholds make the 513 grid points deviations
    # beside the bids, and each bid splits its ties between both edges.  0.08-0.1 s, mostly start-up, which
    # takes about 0.2 s on 2 vCPUs; 1 s, 5 times that, fails a Fraction per (value, deviation) pair (0.9 s in
    # process), and the digest moves with the tie rule or the step function's deviations
    (["verify", "--mode", "grid", "--strategy", "grid-1024.json", *GRID_1024], "grid-1024-grid.json", 1,
     dict(sha256="ed3d769ffd15c4f2a9dad51cf8b798c3518c95e9e499ec384cddd05bb5be53fb")),
    # the Monte Carlo verify of the same strategy, default trials and seed: the one row on a step function in
    # that mode, which takes the grid points i/8 as deviations and reads the exact thresholds at every
    # compared bid.  It takes as long as the grid row, mostly start-up, and has its 1 s bound; the digest
    # moves with the thresholds, the class law or the seed's draw
    (["verify", "--mode", "mc", "--strategy", "grid-1024.json", *GRID_1024], "grid-1024-mc.json", 1,
     dict(sha256="edbc887d083bd1eeebfe6369eeaa32c0ebd23a94124e5cc6a0578211752945e5")),
    # U_1 moves about 3e4 times faster than U, so whether a float walk reaches gamma is luck in U's last bits:
    # the float search's 48th walk does, 0.3 s, where bisection on U did not and the exact search took 7-9 s.
    # The 60 s stays while a solve may still fall back to that exact search, until the exact walk runs on ints
    (["solve", "--model", "cdfpa", "--cdf", "power8.json", "--n", "3", "--bids", BIDS_X8, "--eps", "1/17179869184"],
     "power8-grid.json", 60,
     dict(certified=True, sha256="768d54a436ce940f1adb602742127c578edc68e686318b76402d22cc165e4f49")),
    # 4 000 000 trials, the MAX_MC_TRIALS limit, counted per class of the top opposing bid by one multinomial
    # draw: 0.15-0.25 s and 36 MB, as a run of 2 trials takes, where drawing a level per trial, 8192 at a time,
    # took 0.3-0.6 s, and a cdf inversion and a bid per trial 3.3-4.4 s.  The digest pins the seed's draw
    # and the deviations, the bids beta(i/8) and the float above each, as the float view x - I / F**(n-1)
    # rounds them (sigma's last bits moved from the quotient of two rows).  The solve of the strategy takes
    # 0.2-0.4 s, mostly start-up; 1.5 s, as for the verify, fails a bid function that takes a second to build.
    # Its digest pins the bid the verify reads, so a changed bid fails at the solve, not as a moved draw
    (["solve", "--model", "ccfpa-explicit", "--cdf", "square.json", "--n", "2"], "square-bid.json", 1.5,
     dict(sha256="f366b8cf6045b01d9ad47fbf109559aabff029926f13c4b5eb395a167855bc92")),
    (["verify", "--strategy", "square-bid.json", "--cdf", "square.json", "--n", "2", "--mode", "mc",
      "--trials", "4000000"], "square-mc.json", 1.5,
     dict(mb=100, sha256="3ad1dddfcf768ad3979c57974564dea78a43e59e299f391bad03a5cb2eb9d527")),
    # the same at n = 64, n classes per compared bid: 0.15-0.25 s and 36 MB, where a level per trial took
    # 0.3-0.6 s, and a cdf inversion and a bid per trial 7.5-10 s.  The solve, 0.2-0.4 s, is bounded and
    # pinned as above: its digest holds the integral row of x**126, 128 coefficients where n = 2 has 4
    (["solve", "--model", "ccfpa-explicit", "--cdf", "square.json", "--n", "64"], "square-bid-n64.json", 1.5,
     dict(sha256="7cd47dcb8950138e981ac6f622030a3b4a22ba1918ebf2ec24fc19d18db14e7f")),
    (["verify", "--strategy", "square-bid-n64.json", "--cdf", "square.json", "--n", "64", "--mode", "mc",
      "--trials", "4000000"], "square-mc-n64.json", 1.5,
     dict(mb=100, sha256="1bcfcc3e553e77bdd97961a866facd139b6d2f7d6683f52ddac8bbf7a6157de0")),
]


def run(tmp, argv, out, bound, mb=None, sha256=None, certified=False, env=ENV) -> bool:
    """Run one case in tmp, print its line, and return whether it passed."""
    path = Path(tmp, out)
    start = time.monotonic()
    with path.open("wb") as stdout:
        proc = subprocess.Popen([sys.executable, "-m", "fpaeq.cli", *argv], stdout=stdout, cwd=tmp, env=env)
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


def avx512_skip_reason() -> str | None:
    """Why the float verify rows cannot run again without NO_AVX512, or None where they can: numpy must be built
    with those targets and this CPU must run them.  A child asks, so this script does not load numpy."""
    code = ("from numpy._core import _multiarray_umath as m; f = getattr(m, '__cpu_features__', {}); "
            "print(int(bool(f.get('AVX512F') or f.get('X86_V4'))), *getattr(m, '__cpu_dispatch__', ()))")
    env = {k: v for k, v in ENV.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    if child.returncode != 0:
        return "numpy does not say which CPU targets it runs"
    cpu, *dispatch = child.stdout.split()
    if not set(NO_AVX512.split()) <= set(dispatch):
        return "numpy was built without them"
    return None if cpu == "1" else "this CPU lacks AVX512"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in INPUTS.items():
            Path(tmp, name).write_text(json.dumps(obj))
        results = [run(tmp, argv, out, bound, **checks) for argv, out, bound, checks in CASES]
        if (skipped := avx512_skip_reason()) is None:
            env = {**ENV, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}
            results += [run(tmp, argv, f"no-avx512-{out}", bound, env=env, **checks)
                        for argv, out, bound, checks in CASES if out in FLOAT_VERIFY_ROWS]
        else:
            print(f"float verify rows without {NO_AVX512}: skipped, {skipped}", flush=True)
    sys.exit(not all(results))
