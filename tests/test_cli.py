import argparse
import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fpaeq as fq
from fpaeq import cli
from fpaeq.cli import main
from fpaeq.rationals import format_rational, parse_rational, rational_pair, shown

from conftest import piecewise_json

# ints of about SHORT_BITS = 2126 bits, the longest format_rational prints by str, on either side of it
NEAR_SHORT_BITS = st.builds(lambda k, d, sign: sign * (2**k + d), st.integers(2120, 2135), st.integers(-2, 2),
                            st.sampled_from([1, -1]))


def reference_parse_rational(value) -> F:
    """parse_rational as it was before its int fast path: every string read by Fraction, except the form
    "-?digits(/digits)?" past the int-to-str limit, which format_rational writes, read by int(Decimal(...)); each
    error echoes the value as rationals.shown does."""
    if isinstance(value, F):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {shown(value)} (booleans are not accepted)")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"not a rational: {shown(value)} (exponent notation is not accepted)")
        num, slash, den = value.partition("/")
        if len(value) > 4300 and value.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() and (
                not slash or den.isdigit() and int(Decimal(den))):
            return F(int(Decimal(num)), int(Decimal(den)) if slash else 1)
        try:
            return F(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {shown(value)}") from exc
    if isinstance(value, float):
        raise ValueError(f"not a rational: {shown(value)} (floats are not accepted)")
    raise ValueError(f"not a rational: {shown(value)} (expected a \"p/q\" or integer string, or an integer)")


@st.composite
def rational_texts(draw):
    """Short strings near "-?digits(/digits)?": signs, ASCII and Unicode decimal digits with leading zeros, at
    most one "/", spaces, "_", "." and "e"."""
    pieces = st.sampled_from(["-", "+", "0", "00", "1", "7", "10", "٣", "５", "߁", " ", "_", ".", "e", "E"])
    head = "".join(draw(st.lists(pieces, max_size=6)))
    if draw(st.booleans()):
        head += "/" + "".join(draw(st.lists(pieces, max_size=6)))
    return head


# F = x and I = x**2 / 2, of n = 2: the bid x / 2
HALF_PIECE = {"cdf": ["0", "1"], "cdf_scale": "1", "integral": ["0", "0", "1"], "integral_scale": "2"}


@pytest.fixture
def capout(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def uniform_json(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"kind": "uniform"}))
    return str(path)


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"kind": "power", "exponent": "2"}))
    return str(path)


@pytest.fixture
def shifted_json(tmp_path, shifted_support):
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(piecewise_json(shifted_support)))
    return str(path)


class TestSolveExplicit:
    def test_point_evaluation(self, capout, uniform_json):
        code, out, _ = capout("solve", "--model", "ccfpa-explicit", "--cdf", uniform_json,
                              "--n", "2", "--at", "2/3")
        assert code == 0
        assert out.strip() == "1/3"

    def test_json_output_roundtrips(self, capout, square_json):
        code, out, _ = capout("solve", "--model", "ccfpa-explicit", "--cdf", square_json, "--n", "2")
        assert code == 0
        rbf = fq.rbf_from_json(json.loads(out))
        assert rbf(F(1, 2)) == F(1, 3)

    def test_csv_sampling(self, capout, uniform_json):
        code, out, _ = capout("solve", "--model", "ccfpa-explicit", "--cdf", uniform_json,
                              "--n", "2", "--samples", "4")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "x,bid"
        assert len(lines) == 6
        assert lines[-1] == "1.0,0.5"

    def test_extension_is_default(self, capout, shifted_json):
        code, out, _ = capout("solve", "--model", "ccfpa-explicit", "--cdf", shifted_json,
                              "--n", "2", "--at", "1/8")
        assert code == 0
        assert out.strip() == "1/8"


class TestSolveBlackbox:
    def test_csv_with_query_counts(self, capout, uniform_json):
        code, out, _ = capout("solve", "--model", "ccfpa-blackbox", "--cdf", uniform_json,
                              "--n", "2", "--eps", "1/4", "--samples", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "x,bid,L,U,queries"
        # 3 precompute queries, then one per row
        assert lines[1].endswith(",4")
        assert lines[3].split(",") == ["1.0", "0.625", "0.375", "0.625", "6"]

    def test_budget_accounting(self, capout, square_json):
        # K = 16: the grid costs K - 1 = 15 queries, and each bid one more
        code, out, _ = capout("solve", "--model", "ccfpa-blackbox", "--cdf", square_json, "--n", "3",
                              "--eps", "1/16", "--samples", "5")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [int(row.split(",")[-1]) for row in rows] == [16 + i for i in range(6)]

    def test_eps_required(self, capout, uniform_json):
        code, _, err = capout("solve", "--model", "ccfpa-blackbox", "--cdf", uniform_json, "--n", "2")
        assert code == 2
        assert "--eps" in err


class TestSampleQuotients:
    def test_csv_paths_build_no_fraction(self, capout, square_json, monkeypatch):
        # each CSV bid is printed as int / int, with no Fraction and no gcd per sample
        solve = ["solve", "--cdf", square_json, "--n", "5", "--samples", "16"]
        argvs = [[*solve, "--model", "ccfpa-blackbox", "--eps", "1/32"], [*solve, "--model", "ccfpa-explicit"]]
        before = [capout(*argv) for argv in argvs]

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(fq.blackbox, "Fraction", refuse)
        monkeypatch.setattr(fq.explicit, "Fraction", refuse)
        assert [capout(*argv) for argv in argvs] == before
        assert all(code == 0 and len(out.splitlines()) == 18 for code, out, _ in before)


class TestSolveCdfpa:
    def test_solve_and_verify_roundtrip(self, capout, tmp_path, uniform_json):
        code, out, _ = capout("solve", "--model", "cdfpa", "--cdf", uniform_json, "--n", "2",
                              "--bids", "[\"0\", \"1/4\", \"1/2\"]", "--eps", "1/32")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "jump_points"
        assert obj["certificate"]["pass"] is True
        assert obj["s"][0] == "0" and obj["s"][-1] == "1"

        strat = tmp_path / "strategy.json"
        strat.write_text(out)
        code, out, _ = capout("verify", "--strategy", str(strat), "--cdf", uniform_json,
                              "--n", "2", "--bids", "[\"0\", \"1/4\", \"1/2\"]", "--mode", "exact")
        assert code == 0
        report = json.loads(out)
        assert F(report["max_regret"]) <= F(1, 32)
        assert report["method"] == "exact"

    def test_certify_flag_reports_regret(self, capout, uniform_json):
        code, out, _ = capout("solve", "--model", "cdfpa", "--cdf", uniform_json, "--n", "2",
                              "--bids", "[\"0\", \"1/2\"]", "--eps", "1/16", "--certify")
        assert code == 0
        assert F(json.loads(out)["measured_regret"]) <= F(1, 16)

    def test_malformed_bids(self, capout, uniform_json):
        code, _, err = capout("solve", "--model", "cdfpa", "--cdf", uniform_json, "--n", "2",
                              "--bids", "[\"1/4\", \"1/2\"]", "--eps", "1/16")
        assert code == 2
        assert "bids" in err

    @pytest.mark.parametrize("argv,message", [
        (["--eps", "1/16"], "error: --bids is required for the cdfpa model"),
        (["--bids", "[\"0\", \"1/2\"]"], "error: --eps is required for the cdfpa model"),
        (["--bids", "[0, 1/2]", "--eps", "1/16"], "error: bids: malformed JSON array"),
        (["--bids", "[\"0\", \"1/2\"]", "--eps", "1/0"], "error: not a rational: '1/0'"),
        (["--bids", "[false, \"1/2\"]", "--eps", "1/16"],
         "error: bids: not a rational: False (booleans are not accepted)"),
    ])
    def test_bad_arguments(self, capout, uniform_json, argv, message):
        code, out, err = capout("solve", "--model", "cdfpa", "--cdf", uniform_json, "--n", "2", *argv)
        assert code == 2 and out == ""
        assert err.startswith(message)

    def test_uncertified_solve_exits_1(self, capout, uniform_json, monkeypatch):
        monkeypatch.setattr(fq.discrete, "check_conditions", lambda *args: fq.Certificate(F(1), False, F(1)))
        code, out, err = capout("solve", "--model", "cdfpa", "--cdf", uniform_json, "--n", "2",
                                "--bids", "[\"0\", \"1/2\"]", "--eps", "1/16")
        assert code == 1 and out == ""
        assert err.startswith("error: neither the float search nor the exact search")


class TestInputContract:
    def test_explicit_at_checks_the_domain(self, capout, shifted_json):
        # below the support infimum the bid is x, but only inside [0, 1]
        code, out, err = capout("solve", "--model", "ccfpa-explicit", "--cdf", shifted_json, "--n", "2",
                                "--at", "-1")
        assert code == 2 and out == ""
        assert "outside [0, 1]" in err

    def test_exact_verify_rejects_wrong_length_strategy(self, capout, tmp_path, uniform_json):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1"], "U": ["0", "1/2"]}))
        code, _, err = capout("verify", "--strategy", str(strat), "--cdf", uniform_json, "--n", "2",
                              "--bids", "[\"0\", \"1/4\", \"1/2\"]", "--mode", "exact")
        assert code == 2
        assert "jump points" in err

    def test_eval_rejects_wrong_length_strategy(self, capout, tmp_path):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/5", "2/5", "3/5", "1"]}))
        code, out, err = capout("eval", "--strategy", str(strat), "--bids", "[\"0\", \"1/3\"]",
                                "--at", "9/10")
        assert code == 2 and out == ""
        assert "jump points" in err

    @pytest.mark.parametrize("mode", ["grid", "mc"])
    @pytest.mark.parametrize("s,bids", [
        (["0", "1/5", "2/5", "3/5", "1"], ["0", "1/3"]),
        (["0", "1"], ["0", "1/4", "1/2"]),
    ])
    def test_verify_rejects_wrong_length_strategy(self, capout, tmp_path, uniform_json, mode, s, bids):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": s}))
        code, out, err = capout("verify", "--strategy", str(strat), "--cdf", uniform_json, "--n", "2",
                                "--bids", json.dumps(bids), "--mode", mode, "--trials", "100")
        assert code == 2 and out == ""
        assert "jump points" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--bids", "[\"0\", \"1/4\", \"1/2\"]", "--at", "1/2"],
        ["verify", "--bids", "[\"0\", \"1/4\", \"1/2\"]", "--mode", "mc", "--trials", "100"],
        ["verify", "--bids", "[\"0\", \"1/4\", \"1/2\"]", "--mode", "grid"],
        ["verify", "--bids", "[\"0\", \"1/4\", \"1/2\"]", "--mode", "exact"],
    ])
    @pytest.mark.parametrize("s", [
        ["0", "3/4", "1/4", "1"],  # decreasing
        ["-1/4", "1/4", "1/2", "1"],  # s_0 < 0
        ["0", "1/4", "1/2", "3/4"],  # s_m != 1
        [],
        "0 1/4 1/2 1",
    ])
    def test_invalid_jump_points(self, capout, tmp_path, uniform_json, argv, s):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": s}))
        if argv[0] == "verify":
            argv = argv + ["--cdf", uniform_json, "--n", "2"]
        code, out, err = capout(*argv, "--strategy", str(strat))
        assert code == 2 and out == ""
        assert "strategy: bad jump_points object" in err

    @pytest.mark.parametrize("mode", ["grid", "mc"])
    def test_jump_point_above_one(self, capout, tmp_path, uniform_json, mode):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "3/2", "1"]}))
        code, out, err = capout("verify", "--strategy", str(strat), "--cdf", uniform_json, "--n", "2",
                                "--bids", "[\"0\", \"1/2\"]", "--mode", mode, "--trials", "100")
        assert code == 2 and out == ""
        assert "nondecreasing" in err

    @pytest.mark.parametrize("strategy", [
        {"pieces": ["foo"]},
        {"pieces": "identity"},
        {"pieces": [{**HALF_PIECE, "cdf": "0 1"}]},
        {"pieces": [{**HALF_PIECE, "integral_scale": 1.5}]},
        {"breakpoints": "0 1"},
        {"n": [2]},
        {"n": "5/2"},
    ])
    def test_malformed_rational_bid_function(self, capout, tmp_path, strategy):
        obj = {"kind": "canonical_bid", "n": 2, "breakpoints": ["0", "1"], "pieces": [HALF_PIECE], **strategy}
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(obj))
        code, out, err = capout("eval", "--strategy", str(strat), "--at", "1/2")
        assert code == 2 and out == ""
        assert err.startswith("error: strategy: bad canonical_bid object (") and err.count("\n") == 1

    @pytest.mark.parametrize("change,message", [
        ({"n": None}, "missing field 'n'"),
        ({"pieces": None}, "missing field 'pieces'"),
        ({"pieces": [{"cdf": ["0", "1"], "cdf_scale": "1", "integral": ["0", "0", "1"]}]},
         "each piece must be an object with the fields cdf, cdf_scale, integral and integral_scale"),
        ({"pieces": [{**HALF_PIECE, "integral": ["0", "1"]}]},
         "an integral row must hold 3 integers, (n - 1) times its cdf row's degree 1 plus 2"),
        ({"pieces": [{**HALF_PIECE, "integral": ["0", "0", "1", "0"]}]}, "an integral row must hold 3 integers"),
        ({"n": 3}, "an integral row must hold 4 integers"),
        ({"pieces": [{**HALF_PIECE, "cdf": ["0", "1/2"]}]}, "cdf must be a JSON array of integers, got ['0', '1/2']"),
        ({"pieces": [{**HALF_PIECE, "integral": ["0", "0", "x"]}]}, "not a rational: 'x'"),
        ({"pieces": [{**HALF_PIECE, "cdf_scale": "0"}]}, "a scale must be a positive integer, got '0'"),
        ({"pieces": [{**HALF_PIECE, "integral_scale": "-2"}]}, "a scale must be a positive integer, got '-2'"),
        ({"n": 1}, "need n >= 2 bidders, got 1"),
        ({"n": 65}, "n = 65 exceeds the limit of 64 bidders"),
        ({"breakpoints": ["0", "1/2"]}, "breakpoints must increase strictly from 0 to 1, got ['0', '1/2']"),
        ({"breakpoints": ["0", "1/2", "1"]}, "pieces must be a JSON array of 2 piece objects, one per interval"),
        ({"pieces": [{**HALF_PIECE, "cdf": ["0"] * 66}]}, "cdf degree 65 exceeds the limit of 64"),
        ({"pieces": [{**HALF_PIECE, "cdf": ["0", str(2**64)]}]}, "needs 65-bit integers over one denominator"),
    ])
    @pytest.mark.parametrize("argv", [["eval", "--at", "1/2"], ["verify", "--mode", "grid", "--n", "2"]])
    def test_malformed_canonical_bid(self, capout, tmp_path, uniform_json, argv, change, message):
        # each field is checked, with one line and exit 2: a missing field, a wrong row length, a non-integer
        # string, n out of range, bad breakpoints, and the cdf file's limits on a cdf row
        obj = {"kind": "canonical_bid", "n": 2, "breakpoints": ["0", "1"], "pieces": [HALF_PIECE]}
        obj = {key: value for key, value in {**obj, **change}.items() if value is not None}
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(obj))
        cdf = ["--cdf", uniform_json] if argv[0] == "verify" else []  # eval reads no cdf beside a strategy
        code, out, err = capout(*argv, "--strategy", str(strat), *cdf)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: strategy: bad canonical_bid object (") and message in err

    def test_solver_bid_function_loads(self, capout, tmp_path, shifted_json):
        # zero on [0, 1/4], then (4x - 1)/3: the zero piece's rows bid the identity up to the support infimum 1/4
        code, out, _ = capout("solve", "--model", "ccfpa-explicit", "--cdf", shifted_json, "--n", "2")
        assert code == 0 and json.loads(out)["pieces"][0]["cdf"] == ["0"]
        strat = tmp_path / "s.json"
        strat.write_text(out)
        assert capout("eval", "--strategy", str(strat), "--at", "3/8")[:2] == (0, "5/16\n")
        assert capout("eval", "--strategy", str(strat), "--at", "1/5")[:2] == (0, "1/5\n")

    @pytest.mark.parametrize("argv", [["eval", "--at", "3/8"], ["verify", "--mode", "grid", "--n", "2"]])
    def test_integral_row_off_the_cdf_row(self, capout, tmp_path, shifted_json, argv):
        # the zero piece's integral row, of degree 1, given the length of the next piece's: refused, as the bid
        # would read its rows at the wrong degree
        code, out, _ = capout("solve", "--model", "ccfpa-explicit", "--cdf", shifted_json, "--n", "2")
        obj = json.loads(out)
        obj["pieces"][0]["integral"] = obj["pieces"][1]["integral"]
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(obj))
        cdf = ["--cdf", shifted_json] if argv[0] == "verify" else []  # eval reads no cdf beside a strategy
        code, out, err = capout(*argv, "--strategy", str(strat), *cdf)
        assert code == 2 and out == ""
        assert "an integral row must hold 2 integers, (n - 1) times its cdf row's degree 0 plus 2" in err

    @pytest.mark.parametrize("argv", [["eval", "--at", "1/2"], ["verify", "--mode", "grid", "--n", "2"]])
    def test_rational_bid_function_breakpoints_out_of_order(self, capout, tmp_path, uniform_json, argv):
        obj = {"kind": "canonical_bid", "n": 2, "breakpoints": ["0", "3/4", "1/4", "1"], "pieces": [HALF_PIECE] * 3}
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(obj))
        cdf = ["--cdf", uniform_json] if argv[0] == "verify" else []  # eval reads no cdf beside a strategy
        code, out, err = capout(*argv, "--strategy", str(strat), *cdf)
        assert code == 2 and out == ""
        assert "strategy: bad canonical_bid object (breakpoints must increase strictly from 0 to 1" in err

    def test_rational_bid_function_files_are_not_read(self, capout, tmp_path):
        # the two-row form is no longer a strategy kind: its files exit 2, and solve writes them anew
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "rational_bid_function", "n": 2, "breakpoints": ["0", "1"],
                                     "pieces": [{"numerator": ["0", "0", "1/2"], "denominator": ["0", "1"]}]}))
        code, out, err = capout("eval", "--strategy", str(strat), "--at", "1/2")
        assert (code, out, err) == (2, "", "error: strategy: unknown kind field 'rational_bid_function'\n")

    def test_strategy_not_an_object(self, capout, tmp_path):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(["jump_points"]))
        code, out, err = capout("eval", "--strategy", str(strat), "--bids", "[\"0\"]", "--at", "1/2")
        assert code == 2 and out == ""
        assert "strategy" in err

    @pytest.mark.parametrize("fields", [
        {"breakpoints": 5, "coeffs": [["0", "1"]]},
        {"breakpoints": ["0", "1"], "coeffs": "0 1"},
        {"breakpoints": ["0", "1"], "coeffs": [1]},
    ])
    def test_malformed_piecewise_cdf(self, capout, tmp_path, fields):
        path = tmp_path / "cdf.json"
        path.write_text(json.dumps({"kind": "piecewise_poly", **fields}))
        code, out, err = capout("eval", "--cdf", str(path), "--at", "1/2")
        assert code == 2 and out == ""
        assert "JSON array" in err

    @pytest.mark.parametrize("exponent", ["5/2", "0", "65", "100000"])
    def test_power_exponent_out_of_range(self, capout, tmp_path, exponent):
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"kind": "power", "exponent": exponent}))
        code, out, err = capout("validate-cdf", "--cdf", str(path))
        assert code == 2 and out == ""
        assert "exponent must be an integer in [1, 64]" in err

    @pytest.mark.parametrize("mode", ["exact", "grid", "mc"])
    @pytest.mark.parametrize("n", ["-1", "0", "1"])
    def test_verify_needs_two_bidders(self, capout, tmp_path, uniform_json, mode, n):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/2", "1"], "U": ["0", "1/4"]}))
        code, out, err = capout("verify", "--strategy", str(strat), "--cdf", uniform_json, f"--n={n}",
                                "--bids", "[\"0\", \"1/4\"]", "--mode", mode, "--trials", "100")
        assert code == 2 and out == ""
        assert "n >= 2" in err

    def test_monte_carlo_draws_bounded(self, capout, tmp_path, uniform_json, monkeypatch):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/2", "1"], "U": ["0", "1/4"]}))
        verify = ["verify", "--strategy", str(strat), "--cdf", uniform_json, "--bids", "[\"0\", \"1/4\"]",
                  "--mode", "mc"]
        code, out, err = capout(*verify, "--n", "2", "--trials", "10000000000000")
        assert code == 2 and out == ""
        assert "exceeds the limit" in err and "Traceback" not in err
        # a trial is one draw at any n, so the limit is on the trials alone
        monkeypatch.setattr(fq.verify, "MAX_MC_TRIALS", 200)
        for n in ("3", str(fq.errors.MAX_BIDDERS)):
            assert capout(*verify, "--n", n, "--trials", "200")[0] == 0
            code, _, err = capout(*verify, "--n", n, "--trials", "201")
            assert code == 2 and "201 exceeds the limit of 200" in err

    def test_monte_carlo_default_trials_at_every_n(self, capout, tmp_path, uniform_json):
        # with no --trials a run takes 100 000 trials, within the limit, at every admitted n
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/2", "1"], "U": ["0", "1/4"]}))
        verify = ["verify", "--strategy", str(strat), "--cdf", uniform_json, "--bids", "[\"0\", \"1/4\"]",
                  "--mode", "mc"]
        assert 100_000 <= fq.verify.MAX_MC_TRIALS
        for n in (2, fq.errors.MAX_BIDDERS):
            code, out, _ = capout(*verify, "--n", str(n))
            assert code == 0 and json.loads(out)["trials"] == 100_000

    @pytest.mark.parametrize("model", ["ccfpa-explicit", "ccfpa-blackbox"])
    def test_samples_bounded(self, capout, uniform_json, monkeypatch, model):
        solve = ["solve", "--model", model, "--cdf", uniform_json, "--n", "2", "--eps", "1/4"]
        code, out, err = capout(*solve, "--samples", "100000000")
        assert code == 2 and out == ""
        assert f"--samples 100000000 exceeds the limit of {fq.blackbox.MAX_K}" in err
        # the limit is blackbox.MAX_K, read at each call
        monkeypatch.setattr(fq.blackbox, "MAX_K", 4)
        code, out, _ = capout(*solve, "--samples", "4")
        assert code == 0 and len(out.splitlines()) == 6  # the header and x = i/4, i = 0..4
        assert capout(*solve, "--samples", "5")[0] == 2

    # one argv per command that takes --n; the cdf is invalid (exit 1 once loaded), so exit 2
    # shows that the limits are checked before the cdf is loaded
    SIZED = [
        ["solve", "--model", "ccfpa-explicit", "--at", "1/2"],
        ["solve", "--model", "ccfpa-blackbox", "--eps", "1/64"],
        ["solve", "--model", "cdfpa", "--eps", "1/64", "--bids", "[\"0\", \"1/4\"]"],
        ["verify", "--bids", "[\"0\", \"1/4\"]", "--mode", "exact"],
        ["verify", "--bids", "[\"0\", \"1/4\"]", "--mode", "grid"],
        ["verify", "--bids", "[\"0\", \"1/4\"]", "--mode", "mc", "--trials", "100"],
    ]

    @pytest.fixture
    def sized_argv(self, tmp_path):
        cdf, strat = tmp_path / "unordered.json", tmp_path / "s.json"
        cdf.write_text(json.dumps(UNORDERED_CDF))
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/2", "1"]}))

        def argv(base, n):
            extra = ["--strategy", str(strat)] if base[0] == "verify" else []
            return [*base, *extra, "--cdf", str(cdf), "--n", str(n)]

        return argv

    @pytest.mark.parametrize("base", SIZED)
    def test_bidders_limit(self, capout, sized_argv, base):
        assert capout(*sized_argv(base, fq.errors.MAX_BIDDERS))[0] == 1  # admitted: the cdf is loaded
        code, out, err = capout(*sized_argv(base, fq.errors.MAX_BIDDERS + 1))
        assert code == 2 and out == ""
        assert f"n = {fq.errors.MAX_BIDDERS + 1} exceeds the limit of {fq.errors.MAX_BIDDERS} bidders" in err

    @pytest.mark.parametrize("eps", [f"1/{fq.blackbox.MAX_K + 1}", "1/1000000000", f"1/{2**4000}"])
    @pytest.mark.parametrize("base", [SIZED[1]])
    def test_grid_limit(self, capout, sized_argv, base, eps):
        base = [eps if arg == "1/64" else arg for arg in base]
        code, out, err = capout(*sized_argv(base, 2))
        assert code == 2 and out == ""
        assert f"above the limit of {fq.blackbox.MAX_K}" in err

    # an option that the model does not read exits 2, naming it, before the (invalid) cdf is loaded
    @pytest.mark.parametrize("argv,option", [
        (["--model", "ccfpa-blackbox", "--eps", "1/4", "--at", "1/2"], "--at"),
        (["--model", "ccfpa-explicit", "--at", "1/2", "--samples", "2"], "--samples"),
        (["--model", "ccfpa-explicit", "--certify"], "--certify"),
        (["--model", "ccfpa-blackbox", "--eps", "1/4", "--certify"], "--certify"),
        (["--model", "cdfpa", "--eps", "1/4", "--bids", "[\"0\"]", "--samples", "2"], "--samples"),
        (["--model", "cdfpa", "--eps", "1/4", "--bids", "[\"0\"]", "--at", "1/2"], "--at"),
        (["--model", "ccfpa-blackbox", "--eps", "1/4", "--bids", "[\"0\"]"], "--bids"),
    ])
    def test_unread_solve_option(self, capout, sized_argv, argv, option):
        code, out, err = capout(*sized_argv(["solve", *argv], 2))
        assert code == 2 and out == "" and option in err
        # without the option the cdf is loaded, and it is invalid
        i = argv.index(option)
        assert capout(*sized_argv(["solve", *argv[:i], *argv[i + 1 + (option != "--certify"):]], 2))[0] == 1

    def test_exponent_notation_rejected(self, capout, uniform_json):
        # Fraction would build 10**10000000 first
        with pytest.raises(ValueError):
            parse_rational("1e-3")
        code, out, err = capout("solve", "--model", "ccfpa-blackbox", "--cdf", uniform_json, "--n", "2",
                                "--eps", "1e-10000000")
        assert code == 2 and out == ""
        assert "exponent notation is not accepted" in err

    @pytest.mark.parametrize("text,value", [
        ("0.25", F(1, 4)), (".5", F(1, 2)), ("+1/2", F(1, 2)), ("1_000", F(1000)), (" 3/4 ", F(3, 4)),
    ])
    def test_rational_grammar_accepts(self, text, value):
        # Fraction's grammar, each read exactly
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1e-3", "1/0", "nan", "inf", "1/-2"])
    def test_rational_grammar_rejects(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(rational_texts(), st.builds(
        lambda head, k, tail: head + "7" * k + tail, rational_texts(),
        st.sampled_from([600, 639, 640, 641, 4290, 4299, 4300, 4301, 4310]), rational_texts())))
    def test_fast_path_keeps_the_grammar(self, text):
        # the same Fraction, or the same error, as the parse that read every string with Fraction
        try:
            expected = reference_parse_rational(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_rational(text)
            assert str(raised.value) == str(exc)
        else:
            got = parse_rational(text)
            assert type(got) is F and got == expected

    def test_outputs_past_the_int_to_str_limit(self, capout, tmp_path):
        # F = (x + x**2)/2 at n = 64: the bid at 1/(10**100 + 1) has about 12,800 digits
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"kind": "piecewise_poly", "breakpoints": ["0", "1"],
                                    "coeffs": [["0", "1/2", "1/2"]]}))
        code, out, err = capout("solve", "--model", "ccfpa-explicit", "--cdf", str(path), "--n", "64",
                                "--at", f"1/{10**100 + 1}")
        assert code == 0 and err == ""
        p, q = out.strip().split("/")
        assert p.isdigit() and q.isdigit() and len(p) + len(q) > 4300

    @pytest.mark.parametrize("argv", [
        ["--model", "ccfpa-explicit", "--at"],
        ["--model", "cdfpa", "--bids", "[\"0\", \"1/2\"]", "--eps"],
    ])
    def test_inputs_past_the_int_to_str_limit_refused(self, capout, uniform_json, argv):
        code, out, err = capout("solve", "--cdf", uniform_json, "--n", "2", *argv, "1/" + "7" * 5000)
        assert code == 2 and out == ""
        assert err.startswith("error: not a rational")

    @pytest.mark.parametrize("where", ["piecewise_poly", "canonical_bid cdf", "canonical_bid cdf_scale"])
    def test_long_cdf_row_string_refused_before_its_digits(self, capout, tmp_path, monkeypatch, where):
        # a cdf row's entry is refused by its length, before any of its 10**6 digits is read: reading them took
        # 0.4 s before the row's bit limit refused the row.  Integral rows and breakpoints keep no such bound
        text = "1/" + "3" * 10**6
        if where == "piecewise_poly":
            obj = {"kind": "piecewise_poly", "breakpoints": ["0", "1"], "coeffs": [["0", text]]}
            argv = ["validate-cdf", "--cdf"]
        else:
            piece = dict(HALF_PIECE, **({"cdf": ["0", text]} if where.endswith(" cdf") else {"cdf_scale": text}))
            obj = {"kind": "canonical_bid", "n": 2, "breakpoints": ["0", "1"], "pieces": [piece]}
            argv = ["eval", "--at", "1/2", "--strategy"]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        read, digits = [], fq.rationals._digits
        monkeypatch.setattr(fq.rationals, "_digits", lambda part: read.append(part) or digits(part))
        code, out, err = capout(*argv, str(path))
        assert code == 2 and out == "" and err.count("\n") == 1 and len(err) < 250
        assert f"(more than {fq.rationals.MAX_CHARS} characters in a cdf row)" in err
        assert max(map(len, read), default=0) < 10

    @pytest.mark.parametrize("sign", [1, -1])
    def test_format_rational_prints_every_digit(self, sign):
        q = sign * F(3**35631, 2**56471)  # 17,001 and 17,000 digits
        p_text, q_text = format_rational(q).split("/")
        assert F(int(Decimal(p_text)), int(Decimal(q_text))) == q
        assert format_rational(F(-(10**5000))) == "-1" + "0" * 5000

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(-(2**2200), 2**2200), NEAR_SHORT_BITS),
           st.one_of(st.integers(1, 2**2200), NEAR_SHORT_BITS.map(abs)))
    def test_format_rational_same_as_decimal(self, p, q):
        # str up to SHORT_BITS and Decimal beyond give the same text, parts drawn at and across the bound
        x = F(p, q)
        want = str(Decimal(x.numerator)) + ("" if x.denominator == 1 else "/" + str(Decimal(x.denominator)))
        assert format_rational(x) == want

    def test_format_rational_at_the_smallest_int_to_str_limit(self):
        # 2**2126 - 1 has 640 digits, which str may print under the smallest limit, 640; 2**2127 - 1, of 2127 bits,
        # has 641
        src = str(Path(fq.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = ("import sys; sys.set_int_max_str_digits(640); from fractions import Fraction as F; "
                  "from fpaeq.rationals import format_rational as f; "
                  "print(f(F(10**10000 + 1, 3))); print(f(F(2**2126 - 1, 2**2127))); print(f(F(1 - 2**2127)))")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        big, edge, past = run.stdout.splitlines()
        assert big == "1" + "0" * 9999 + "1/3"
        assert edge == f"{2**2126 - 1}/{2**2127}" and past == f"{1 - 2**2127}"
        assert len(edge.split("/")[0]) == 640 and len(past) == 642

    def test_limits_admit_the_largest_sizes(self, capout, uniform_json):
        # the benchmark's largest sizes: n = 64 and eps = 1/16384
        assert fq.errors.MAX_BIDDERS >= 64 and fq.blackbox.MAX_K >= 16384
        # uniform: the equilibrium bid is x (n - 1) / n
        assert capout("solve", "--model", "ccfpa-explicit", "--cdf", uniform_json, "--n", "64",
                      "--at", "1/2") == (0, "63/128\n", "")
        code, out, _ = capout("solve", "--model", "ccfpa-blackbox", "--cdf", uniform_json, "--n", "2",
                              "--eps", "1/16384", "--samples", "1")
        assert code == 0 and out.splitlines()[1].endswith(",16384")  # K - 1 grid queries and one bid

    def test_coefficient_bits_limit(self, capout, tmp_path):
        path = tmp_path / "big.json"
        big = 2**fq.cdf.MAX_ROW_BITS
        path.write_text(json.dumps({"kind": "piecewise_poly", "breakpoints": ["0", "1"],
                                    "coeffs": [["0", f"{big - 1}/{big}", f"1/{big}"]]}))
        code, out, err = capout("validate-cdf", "--cdf", str(path))
        assert code == 2 and out == ""
        assert f"above the limit of {fq.cdf.MAX_ROW_BITS} bits" in err

    @pytest.mark.parametrize("model", ["ccfpa-explicit", "ccfpa-blackbox"])
    def test_negative_samples(self, capsys, uniform_json, model):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", model, "--cdf", uniform_json, "--n", "2", "--eps", "1/4",
                  "--samples", "-1"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_negative_seed_names_the_option(self, capsys, tmp_path, uniform_json):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/2", "1"]}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--strategy", str(strat), "--cdf", uniform_json, "--n", "2",
                  "--bids", "[\"0\", \"1/4\"]", "--mode", "mc", "--trials", "100", "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["ccfpa-explicit", "ccfpa-blackbox"])
    def test_zero_samples(self, capsys, uniform_json, model):
        # a CSV sample of the bid function needs at least one interval
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", model, "--cdf", uniform_json, "--n", "2", "--eps", "1/4",
                  "--samples", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--at", "1/2", "--cdf"],
        ["validate-cdf", "--cdf"],
        ["solve", "--model", "ccfpa-explicit", "--n", "2", "--cdf"],
        ["verify", "--cdf", "{uniform}", "--n", "2", "--bids", "[\"0\"]", "--mode", "exact", "--strategy"],
        ["eval", "--at", "1/2", "--bids", "[\"0\"]", "--strategy"],
    ])
    def test_path_that_is_a_directory(self, capout, tmp_path, uniform_json, argv):
        argv = [uniform_json if a == "{uniform}" else a for a in argv]
        code, out, err = capout(*argv, str(tmp_path))
        assert code == 2 and out == ""
        assert f"cannot read {tmp_path}" in err and "Traceback" not in err

    @pytest.mark.parametrize("what,argv,doc", [
        # without the check, the first two load as the uniform cdf and print 1/3, and the third passes validate-cdf
        ("cdf", ["eval", "--at", "1/3"],
         {"kind": "piecewise_poly", "breakpoints": [False, True], "coeffs": [["0", "1"]]}),
        ("cdf", ["eval", "--at", "1/3"],
         {"kind": "piecewise_poly", "breakpoints": ["0", "1"], "coeffs": [[False, True]]}),
        ("cdf", ["validate-cdf"], {"kind": "power", "exponent": True}),
        ("strategy", ["eval", "--at", "1/3", "--bids", "[\"0\", \"1/4\"]"],
         {"kind": "jump_points", "s": [False, "1/2", True]}),
        ("strategy", ["eval", "--at", "1/3"],
         {**fq.rbf_to_json(fq.canonical_bid_function(fq.uniform_cdf(), 2)), "n": True}),
    ], ids=["breakpoints", "coefficients", "exponent", "jump-points", "bid-function-n"])
    def test_booleans_are_not_rationals(self, capout, tmp_path, what, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = capout(*argv, f"--{what}", str(path))
        assert code == 2 and out == ""
        assert "booleans are not accepted" in err

    @pytest.mark.parametrize("value,reason", [
        (["2"], "expected a \"p/q\" or integer string, or an integer"),
        (None, "expected a \"p/q\" or integer string, or an integer"),
        ({"p": "2"}, "expected a \"p/q\" or integer string, or an integer"),
        (2.0, "floats are not accepted"),
    ], ids=["list", "null", "object", "float"])
    def test_other_json_types_are_not_rationals(self, capout, tmp_path, value, reason):
        # only a float is told that floats are not accepted; any other type is told what is
        path = tmp_path / "cdf.json"
        path.write_text(json.dumps({"kind": "power", "exponent": value}))
        code, out, err = capout("validate-cdf", "--cdf", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cdf: not a rational: {value!r} ({reason})\n"

    @pytest.mark.parametrize("doc", [
        {"kind": "power", "exponent": 1.5},
        {"kind": "power", "exponent": "x"},
        {"kind": "adversarial", "v1": ["1"], "gap": "1/8", "kink": "1/32"},
        {"kind": "piecewise_poly", "breakpoints": ["0", "1"], "coeffs": [["0", "1/0"]]},
    ], ids=["float-exponent", "text-exponent", "list-v1", "zero-denominator"])
    def test_malformed_cdf_rational_names_the_cdf(self, capout, tmp_path, doc):
        path = tmp_path / "cdf.json"
        path.write_text(json.dumps(doc))
        code, out, err = capout("validate-cdf", "--cdf", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cdf: not a rational: ")

    @pytest.mark.parametrize("what", ["cdf", "strategy", "bids"])
    def test_deeply_nested_json(self, capout, tmp_path, uniform_json, what):
        # the JSON decoder recurses once per "[": 100 000 of them pass the recursion limit
        deep = "[" * 100_000
        path = tmp_path / "deep.json"
        path.write_text(deep)
        argv = {"cdf": ["validate-cdf", "--cdf", str(path)],
                "strategy": ["eval", "--strategy", str(path), "--at", "1/2"],
                "bids": ["solve", "--model", "cdfpa", "--cdf", uniform_json, "--n", "2", "--eps", "1/8", "--bids", deep]}
        code, out, err = capout(*argv[what])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {what}: malformed JSON") and "Traceback" not in err
        assert err.endswith(": nested too deeply\n")


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A small cdf, a jump-point strategy on two bids and a rational bid function."""
    d = tmp_path_factory.mktemp("contract")
    files = {
        "cdf": {"kind": "power", "exponent": "2"},
        "jump": {"kind": "jump_points", "s": ["0", "1/2", "1"], "U": ["0", "1/8"]},
        "rbf": fq.rbf_to_json(fq.canonical_bid_function(fq.power_cdf(2), 2)),
    }
    for name, obj in files.items():
        (d / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(d / f"{name}.json") for name in files}


SMALL_INTS = st.integers(-2, 5).map(str)
NUMBERS = st.one_of(SMALL_INTS, SMALL_INTS, st.sampled_from(["", "x", "1.5", "1e3", "+2", " 3 ", "0x10"]))
AT_VALUES = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=2**64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "abc", "1/0", "0/0", "1e400", "-0", "1/2/3", "1_000/3000", "\u0661/2"]),
)


@st.composite
def cli_argv(draw, files):
    n, trials, samples, at = (f"--n={draw(NUMBERS)}", f"--trials={draw(NUMBERS)}",
                              f"--samples={draw(NUMBERS)}", f"--at={draw(AT_VALUES)}")
    cdf, bids = ["--cdf", files["cdf"]], ["--bids", '["0", "1/4"]']
    solve = ["solve", *cdf, n]
    verify = ["verify", *cdf, n, trials, "--seed", "1", "--strategy"]
    return draw(st.sampled_from([
        [*solve, "--model", "ccfpa-explicit", at],
        [*solve, "--model", "ccfpa-explicit", samples],
        [*solve, "--model", "ccfpa-blackbox", "--eps", "1/8", samples],
        [*solve, "--model", "cdfpa", "--eps", "1/8", *bids],
        [*verify, files["jump"], *bids, "--mode", "exact"],
        [*verify, files["jump"], *bids, "--mode", "grid"],
        [*verify, files["jump"], *bids, "--mode", "mc"],
        [*verify, files["rbf"], "--mode", "grid"],
        [*verify, files["rbf"], "--mode", "mc"],
        ["eval", *cdf, at],
        ["eval", "--strategy", files["rbf"], at],
        ["eval", "--strategy", files["jump"], *bids, at],
    ]))


class TestContractProperty:
    """Generated --n, --trials, --samples and --at values get a documented exit code and no traceback."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract(self, contract_files, data):
        argv = data.draw(cli_argv(contract_files))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


VALID_CDFS = [
    {"kind": "uniform"},
    {"kind": "power", "exponent": "2"},
    {"kind": "adversarial", "v1": "3/4", "gap": "1/8", "kink": "1/32"},
    {"kind": "piecewise_poly", "breakpoints": ["0", "1/2", "1"], "coeffs": [["0", "0", "2"], ["-1", "4", "-2"]]},
]
VALID_STRATEGIES = [
    {"kind": "jump_points", "s": ["0", "1/2", "1"], "U": ["0", "1/8", "1/4"]},
    {"kind": "canonical_bid", "n": 3, "breakpoints": ["0", "1"],
     "pieces": [{"cdf": ["0", "1"], "cdf_scale": "1", "integral": ["0", "0", "0", "1"], "integral_scale": "3"}]},
]
FIELDS = ["kind", "exponent", "v1", "gap", "kink", "breakpoints", "coeffs", "s", "U", "n",
          "pieces", "cdf", "cdf_scale", "integral", "integral_scale"]
RATIONAL_TEXTS = st.fractions(min_value=-2, max_value=2, max_denominator=64).map(str)
JSON_LEAVES = st.one_of(
    RATIONAL_TEXTS, RATIONAL_TEXTS, st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0", "1", "1/2", "-1/3", "3/2", "65", "1/0", "abc", "1e400", "identity", "uniform",
                     "power", "adversarial", "piecewise_poly", "jump_points", "canonical_bid"]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3),
                                                                  inner, max_size=3),
    max_leaves=8,
)


def _locations(doc, path=()):
    """Every path into a JSON document, the root () included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def malformed_document(draw, valid):
    """A valid document with one to three values replaced by generated JSON or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(valid))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


class TestMalformedFileProperty:
    """Generated malformed cdf and strategy files get a documented exit code and no traceback."""

    BIDS = ["--bids", '["0", "1/4"]']

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract(self, contract_files, tmp_path, data):
        bad = tmp_path / "bad.json"
        if data.draw(st.booleans(), label="malformed cdf"):
            bad.write_text(json.dumps(data.draw(malformed_document(VALID_CDFS))))
            cdf, strategy = str(bad), contract_files["jump"]
            commands = [["validate-cdf", "--cdf", cdf], ["eval", "--cdf", cdf, "--at", "1/2"],
                        ["solve", "--model", "ccfpa-explicit", "--cdf", cdf, "--n", "2", "--at", "1/2"]]
        else:
            bad.write_text(json.dumps(data.draw(malformed_document(VALID_STRATEGIES))))
            cdf, strategy = contract_files["cdf"], str(bad)
            commands = [["eval", "--strategy", strategy, *self.BIDS, "--at", "1/2"]]
        commands += [["verify", "--cdf", cdf, "--strategy", strategy, "--n", "2", *self.BIDS, "--mode", mode,
                      "--trials", "100"] for mode in ("exact", "grid", "mc")]
        argv = data.draw(st.sampled_from(commands))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


class TestVerifyModes:
    def test_grid_mode_on_rational_bid_function(self, capout, tmp_path, square_json):
        rbf = fq.canonical_bid_function(fq.power_cdf(2), 2)
        strat = tmp_path / "rbf.json"
        strat.write_text(json.dumps(fq.rbf_to_json(rbf)))
        code, out, _ = capout("verify", "--strategy", str(strat), "--cdf", square_json,
                              "--n", "2", "--mode", "grid")
        assert code == 0
        report = json.loads(out)
        assert report["max_regret"] < 0.02
        assert (report["method"], report["precision"]) == ("grid", "float64")

    def test_mc_mode_deterministic(self, capout, tmp_path, uniform_json):
        rbf = fq.canonical_bid_function(fq.uniform_cdf(), 2)
        strat = tmp_path / "rbf.json"
        strat.write_text(json.dumps(fq.rbf_to_json(rbf)))
        args = ("verify", "--strategy", str(strat), "--cdf", uniform_json,
                "--n", "2", "--mode", "mc", "--trials", "2000", "--seed", "7")
        code1, out1, _ = capout(*args)
        code2, out2, _ = capout(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["max_regret"] <= 3 * report["sigma"] + 0.05
        assert (report["method"], report["trials"], report["seed"]) == ("monte-carlo", 2000, 7)

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_mc_mode_refuses_a_decreasing_bid(self, capout, tmp_path, uniform_json, n):
        # F = 1 and I = (3v - 1) / 2 give the bid (1 - v) / 2: mc mode takes its classes from the thresholds of
        # a nondecreasing bid function, so it refuses a decreasing one at every n, as grid mode does
        strat = tmp_path / "falling.json"
        strat.write_text(json.dumps({"kind": "canonical_bid", "n": 2, "breakpoints": ["0", "1"],
                                     "pieces": [{"cdf": ["1"], "cdf_scale": "1", "integral": ["-1", "3"],
                                                 "integral_scale": "2"}]}))
        code, out, err = capout("verify", "--strategy", str(strat), "--cdf", uniform_json, "--n", n,
                                "--mode", "mc", "--trials", "100")
        assert code == 2 and out == ""
        assert "bid function decreases at v=" in err

    @pytest.mark.parametrize("mode", ["grid", "mc"])
    def test_bids_ignored_for_bid_functions(self, capout, tmp_path, uniform_json, mode):
        strat = tmp_path / "rbf.json"
        strat.write_text(json.dumps(fq.rbf_to_json(fq.canonical_bid_function(fq.uniform_cdf(), 2))))
        args = ("verify", "--strategy", str(strat), "--cdf", uniform_json, "--n", "2", "--mode", mode,
                "--trials", "100")
        assert capout(*args, "--bids", "not json") == capout(*args)

    def test_exact_mode_needs_jump_points(self, capout, tmp_path, uniform_json):
        strat = tmp_path / "rbf.json"
        strat.write_text(json.dumps(fq.rbf_to_json(fq.canonical_bid_function(fq.uniform_cdf(), 2))))
        code, out, err = capout("verify", "--strategy", str(strat), "--cdf", uniform_json, "--n", "2",
                                "--bids", "[\"0\"]", "--mode", "exact")
        assert code == 2 and out == ""
        assert err.startswith("error: exact mode needs a jump_points strategy")

    @pytest.mark.parametrize("argv", [["eval", "--at", "1/2"], ["verify", "--mode", "grid"],
                                      ["verify", "--mode", "mc", "--trials", "100"]])
    def test_jump_points_need_bids(self, capout, tmp_path, uniform_json, argv):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/2", "1"], "U": ["0", "1/4"]}))
        if argv[0] == "verify":
            argv = argv + ["--cdf", uniform_json, "--n", "2"]
        code, out, err = capout(*argv, "--strategy", str(strat))
        assert code == 2 and out == ""
        assert err.startswith("error: --bids is required for jump_points strategies")

    @pytest.mark.parametrize("what", ["cdf", "strategy"])
    def test_malformed_json_file(self, capout, tmp_path, what):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": ')
        code, out, err = capout("eval", f"--{what}", str(path), "--at", "1/2")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {what}: malformed JSON in {path}")

    def test_exact_mode_needs_bids(self, capout, tmp_path, uniform_json):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1"], "U": ["0", "1/2"]}))
        code, _, err = capout("verify", "--strategy", str(strat), "--cdf", uniform_json,
                              "--n", "2", "--mode", "exact")
        assert code == 2
        assert "--bids" in err


class TestEval:
    def test_cdf_point(self, capout, square_json):
        code, out, _ = capout("eval", "--cdf", square_json, "--at", "1/2")
        assert code == 0 and out.strip() == "1/4"

    def test_strategy_point(self, capout, tmp_path):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "2/3", "1"], "U": ["0", "0", "0"]}))
        code, out, _ = capout("eval", "--strategy", str(strat), "--bids", "[\"0\", \"1/3\"]", "--at", "3/4")
        assert code == 0 and out.strip() == "1/3"

    def test_rational_bid_function_point(self, capout, tmp_path):
        strat = tmp_path / "rbf.json"
        strat.write_text(json.dumps(fq.rbf_to_json(fq.canonical_bid_function(fq.uniform_cdf(), 2))))
        assert capout("eval", "--strategy", str(strat), "--at", "2/3") == (0, "1/3\n", "")

    def test_needs_input(self, capout):
        code, _, err = capout("eval", "--at", "1/2")
        assert code == 2

    @pytest.mark.parametrize("cdf", [{"kind": "bogus"}, {"kind": "uniform"}])
    def test_cdf_with_a_strategy_is_not_read(self, capout, tmp_path, cdf):
        # a strategy reads no cdf: --cdf beside it exits 2 with one line, whether the cdf is valid or not
        strat, path = tmp_path / "rbf.json", tmp_path / "cdf.json"
        strat.write_text(json.dumps(fq.rbf_to_json(fq.canonical_bid_function(fq.uniform_cdf(), 2))))
        path.write_text(json.dumps(cdf))
        code, out, err = capout("eval", "--cdf", str(path), "--strategy", str(strat), "--at", "1/2")
        assert (code, out, err) == (2, "", "error: --cdf is not read with --strategy\n")
        assert capout("eval", "--strategy", str(strat), "--at", "1/2")[0] == 0

    def test_bids_without_a_strategy_are_not_read(self, capout, square_json):
        code, out, err = capout("eval", "--cdf", square_json, "--bids", "[\"0\", \"1/3\"]", "--at", "1/2")
        assert (code, out, err) == (2, "", "error: --bids is read only with --strategy\n")
        code, out, err = capout("eval", "--bids", "[\"0\", \"1/3\"]", "--at", "1/2")
        assert (code, out, err) == (2, "", "error: --bids is read only with --strategy\n")
        assert capout("eval", "--cdf", square_json, "--at", "1/2") == (0, "1/4\n", "")


class TestValidateCdf:
    def test_valid(self, capout, uniform_json):
        code, out, _ = capout("validate-cdf", "--cdf", uniform_json)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_invalid_exit_code(self, capout, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "piecewise_poly",
            "breakpoints": ["0", "1"],
            "coeffs": [["0", "1/2"]],  # F(1) = 1/2
        }))
        code, out, _ = capout("validate-cdf", "--cdf", str(bad))
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_missing_file(self, capout):
        code, _, err = capout("validate-cdf", "--cdf", "/nonexistent.json")
        assert code == 2
        assert "not found" in err


# F proportional to (x - a)^3 + a^3 - eta x, a = 1/3 + 1/997, eta = 10^-6: F' < 0 only on a window about 10^-3 wide
A, ETA = F(1, 3) + F(1, 997), F(1, 10**6)
DIP_ROW = [F(0), 3 * A**2 - ETA, -3 * A, F(1)]
DIP_CDF = {"kind": "piecewise_poly", "breakpoints": ["0", "1"],
           "coeffs": [[str(c / sum(DIP_ROW)) for c in DIP_ROW]]}
UNORDERED_CDF = {"kind": "piecewise_poly", "breakpoints": ["0", "3/4", "1/4", "1"],
                 "coeffs": [["0", "1"], ["0", "1"], ["0", "1"]]}


class TestValidationGate:
    """Every command validates the cdf it loads; an invalid cdf exits 1."""

    @pytest.fixture
    def dip_json(self, tmp_path):
        path = tmp_path / "dip.json"
        path.write_text(json.dumps(DIP_CDF))
        return str(path)

    @pytest.fixture
    def unordered_json(self, tmp_path):
        path = tmp_path / "unordered.json"
        path.write_text(json.dumps(UNORDERED_CDF))
        return str(path)

    def test_narrow_dip_is_invalid(self, capout, dip_json):
        code, out, _ = capout("validate-cdf", "--cdf", dip_json)
        assert code == 1
        assert json.loads(out) == {"ok": False, "violations": ["piece 0: decreasing somewhere in [0, 1]"]}

    @pytest.mark.parametrize("argv", [
        ["solve", "--model", "cdfpa", "--n", "2", "--bids", "[\"0\", \"1/4\"]", "--eps", "1/64"],
        ["solve", "--model", "ccfpa-explicit", "--n", "2", "--at", "1/3"],
    ])
    def test_solve_rejects_narrow_dip(self, capout, dip_json, argv):
        code, out, err = capout(*argv, "--cdf", dip_json)
        assert code == 1 and out == ""
        assert err == "invalid cdf: piece 0: decreasing somewhere in [0, 1]\n"

    def test_rejected_without_sympy(self, dip_json):
        src = str(Path(fq.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = ("import sys; sys.modules['sympy'] = None; from fpaeq.cli import main; "
                  f"sys.exit(main(['solve', '--model', 'ccfpa-explicit', '--n', '2', '--at', '1/3', "
                  f"'--cdf', {dip_json!r}]))")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.startswith("invalid cdf: piece 0: decreasing")

    @pytest.mark.parametrize("argv,message", [
        (["--model", "cdfpa", "--eps", "1/64"], "error: --bids is required for the cdfpa model"),
        (["--model", "cdfpa", "--bids", "[\"0\", \"1/4\"]"], "error: --eps is required for the cdfpa model"),
        (["--model", "ccfpa-blackbox"], "error: --eps is required for the ccfpa-blackbox model"),
        (["--model", "cdfpa", "--bids", "[0, 1/4]", "--eps", "1/64"], "error: bids: malformed JSON array"),
        (["--model", "cdfpa", "--bids", "[\"1/4\"]", "--eps", "1/64"], "error: bids: lowest bid must be 0"),
        (["--model", "cdfpa", "--bids", "[\"0\", \"1/4\"]", "--eps", "1/0"], "error: not a rational: '1/0'"),
    ], ids=["no-bids", "no-eps", "blackbox-no-eps", "bids-not-json", "bids-not-a-grid", "eps-not-a-rational"])
    def test_solve_checks_its_arguments_before_the_cdf(self, capout, dip_json, argv, message):
        code, out, err = capout("solve", "--cdf", dip_json, "--n", "2", *argv)
        assert code == 2 and out == ""
        assert err.startswith(message)

    def test_report_still_printed(self, capout, unordered_json):
        code, out, _ = capout("validate-cdf", "--cdf", unordered_json)
        assert code == 1
        assert "breakpoints not strictly increasing at index 1" in json.loads(out)["violations"]

    @pytest.mark.parametrize("argv", [
        ["eval", "--at", "1/2"],
        ["solve", "--model", "ccfpa-blackbox", "--n", "2", "--eps", "1/8"],
        ["verify", "--n", "2", "--bids", "[\"0\", \"1/4\"]", "--mode", "exact"],
        ["verify", "--n", "2", "--bids", "[\"0\", \"1/4\"]", "--mode", "grid"],
        ["verify", "--n", "2", "--bids", "[\"0\", \"1/4\"]", "--mode", "mc", "--trials", "100"],
    ])
    def test_every_command_rejects(self, capout, tmp_path, unordered_json, argv):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/2", "1"], "U": ["0", "1/4"]}))
        if argv[0] == "verify":
            argv = [*argv, "--strategy", str(strat)]
        code, out, err = capout(*argv, "--cdf", unordered_json)
        assert code == 1 and out == ""
        assert err.startswith("invalid cdf: breakpoints not strictly increasing at index 1")


CDF, STRATEGY = "<cdf>", "<strategy>"
SOLVE = ["solve", "--model", "cdfpa", "--cdf", CDF, "--n", "2", "--bids", '["0", "1/4", "1/2"]', "--eps", "1/64"]
VERIFY = ["verify", "--strategy", STRATEGY, "--cdf", CDF, "--n", "2", "--bids", '["0", "1/4", "1/2"]']


@st.composite
def command_lines(draw):
    """argv of one command: its options with good or bad values, abbreviations, --n=2, -h, --, repeats and stray
    values, in any order, and in half the draws every required option with a good value."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = cli.COMMANDS[name][1]
    flags = [flag for flag, _ in options]
    values = st.sampled_from(["", "-1", "-1/2", "two", "0", "1/64", "2", "cdfpa-x",
                              *(choice for _, keywords in options for choice in keywords.get("choices", ()))])
    loose = st.sampled_from([*flags, *(flag[:-1] for flag in flags), "--n=2", "-h", "--"]) | values

    def good(flag):
        keywords = dict(options)[flag]
        return st.sampled_from(keywords.get("choices") or (["2"] if "type" in keywords else ["1/64", "2"]))

    chunks = draw(st.lists(st.sampled_from(flags).flatmap(lambda flag: st.tuples(st.just(flag), good(flag) | values)),
                           max_size=3))
    chunks += draw(st.lists(loose.map(lambda token: (token,)), max_size=2))
    if draw(st.booleans()):
        chunks += [(flag, draw(good(flag))) for flag, keywords in options if keywords.get("required")]
    return [name, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


class TestDispatch:
    """The option tables: build_parser()'s values, texts and exit codes, and no parser for a well-formed argv."""

    @pytest.fixture
    def files(self, tmp_path, uniform_json):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"kind": "jump_points", "s": ["0", "1/4", "1/2", "1"]}))
        return {CDF: uniform_json, STRATEGY: str(strategy)}

    @staticmethod
    def run(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], [], ["bogus"], ["--version"],
        ["solve", "--help"], ["verify", "--help"], ["eval", "--help"], ["validate-cdf", "--help"],
        ["solve"],
        ["solve", "--model", "cdfpa-x", "--cdf", CDF, "--n", "2"],
        ["solve", "--model", "cdfpa", "--cdf", CDF, "--n", "two"],
        ["solve", "--model", "ccfpa-explicit", "--cdf", CDF, "--n", "2", "--samples", "0"],
        [*VERIFY, "--mode", "mc", "--seed", "-1"],
        ["verify", "--cdf", CDF, "--n", "2", "--mode", "exact"],
        ["solve", "--model", "cdfpa", "--cdf", CDF, "--n"],
        [*SOLVE, "--bogus", "1"],
        [*SOLVE, "extra"],
        SOLVE,
        ["verify", "--model", "cdfpa"],
        ["solve", "--mod", "cdfpa", *SOLVE[3:]],
        ["--n", "2", *SOLVE],
        [*VERIFY, "--mode", "exact"],
        ["eval", "--cdf", CDF, "--at", "1/3"],
        ["validate-cdf", "--cdf", CDF],
        ["solve", "--n=2", *SOLVE[1:5], *SOLVE[7:]],
        ["solve", "--model", "ccfpa-explicit", "--cdf", CDF, "--n", "2", "--at", "-1/2"],
        [*SOLVE[:7], "--bids", "", "--eps", "1/64"],
        [*SOLVE, "--n", "3"],
    ], ids=[
        "-h", "--help", "no-arguments", "unknown-command", "--version",
        "solve-help", "verify-help", "eval-help", "validate-cdf-help",
        "solve-no-options", "bad-choice", "bad-int", "samples-0", "seed-negative", "missing-required",
        "option-without-value", "unknown-option", "stray-positional", "solve", "option-of-another-command",
        "abbreviation", "option-before-command", "verify", "eval", "validate-cdf",
        "flag=value", "negative-value", "empty-value", "repeated-option",
    ])
    def test_same_as_the_full_parser(self, capsys, monkeypatch, files, argv):
        argv = [files.get(a, a) for a in argv]
        got = self.run(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert got == self.run(capsys, argv)

    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    def test_table_read_same_as_the_full_parser(self, argv):
        def outcome(parse):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = vars(parse(argv))
                    result.pop("command", None)
                except SystemExit as exc:
                    result = exc.code
            return result, out.getvalue(), err.getvalue()

        assert outcome(cli._parse_args) == outcome(lambda argv: cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        SOLVE, [*VERIFY, "--mode", "grid"], ["eval", "--cdf", CDF, "--at", "1/3"], ["validate-cdf", "--cdf", CDF],
    ], ids=lambda argv: argv[0])
    def test_well_formed_argv_builds_no_parser(self, capout, monkeypatch, files, argv):
        def unbuilt(parser, *args, **kwargs):
            raise AssertionError("a well-formed command line built an ArgumentParser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", unbuilt)
        code, out, err = capout(*[files.get(a, a) for a in argv])
        assert code == 0 and out and err == ""

    def test_other_argv_builds_the_full_parser(self, capout, monkeypatch, files):
        built, init = [], argparse.ArgumentParser.__init__

        def record(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
        code, out, err = capout(*[files.get(a, a) for a in ["solve", "--n=2", *SOLVE[1:5], *SOLVE[7:]]])
        assert code == 0 and out and err == ""
        assert built == ["fpaeq", *(f"fpaeq {name}" for name in cli.COMMANDS)]


def long_integer_cdf() -> dict:
    """x on [0, b], then x + (x - b)(1 - x) x**2 / 4, with b = 1/(2**61 - 1): a valid cdf whose bid at n = 64 has
    integral rows of integers longer than the int-to-str limit of 4300 digits."""
    b = F(1, 2**61 - 1)
    row = [F(0), F(1), -b / 4, (1 + b) / 4, F(-1, 4)]
    return {"kind": "piecewise_poly", "breakpoints": ["0", str(b), "1"],
            "coeffs": [["0", "1"], [format_rational(c) for c in row]]}


class TestLongIntegers:
    """parse_rational and rational_pair read every string format_rational writes, past the int-to-str limit too."""

    def test_bid_file_reads_back(self, capout, tmp_path):
        path, strat = tmp_path / "cdf.json", tmp_path / "bid.json"
        path.write_text(json.dumps(long_integer_cdf()))
        code, out, err = capout("solve", "--model", "ccfpa-explicit", "--cdf", str(path), "--n", "64")
        assert (code, err) == (0, "")
        assert max(len(c) for piece in json.loads(out)["pieces"] for c in piece["integral"]) > 4300
        strat.write_text(out)
        for at in ("1/3", "1/2305843009213693951", "7/8"):
            want = capout("solve", "--model", "ccfpa-explicit", "--cdf", str(path), "--n", "64", "--at", at)
            assert capout("eval", "--strategy", str(strat), "--at", at) == want
        for mode in ("grid", "mc"):
            code, out, err = capout("verify", "--strategy", str(strat), "--cdf", str(path), "--n", "64",
                                    "--mode", mode, "--trials", "1000")
            assert (code, err) == (0, "") and json.loads(out)["max_regret"] <= 1e-3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20_000), st.integers(1, 20_000), st.integers(0, 2**32), st.sampled_from([1, -1]))
    def test_parse_reads_what_format_writes(self, p_digits, q_digits, seed, sign):
        # rationals of up to 20,000 digits a part, read under the default int-to-str limit
        assert sys.get_int_max_str_digits() == 4300
        rng = random.Random(seed)
        q = sign * F(*(rng.randrange(10 ** (digits - 1), 10**digits) for digits in (p_digits, q_digits)))
        text = format_rational(q)
        assert parse_rational(text) == q
        assert F(*rational_pair(text)) == q

    def test_error_echoes_a_long_value_short(self, capout, tmp_path):
        path = tmp_path / "cdf.json"
        path.write_text(json.dumps({"kind": "power", "exponent": "1/" + "7" * 8000 + "x"}))
        code, out, err = capout("validate-cdf", "--cdf", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cdf: not a rational: '1/{'7' * 57}...{'7' * 18}x' (8005 characters)\n"


def cli_process(*argv, **kwargs) -> subprocess.Popen:
    """`python -m fpaeq.cli` on this source tree, in a new process, with its stderr as text on a pipe."""
    src = str(Path(fq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "fpaeq.cli", *argv], stderr=subprocess.PIPE, text=True, env=env,
                            **kwargs)


class TestOutputContract:
    """A closed pipe, an output that cannot be written and Ctrl-C each end with the exit code README states and
    no traceback."""

    @pytest.mark.parametrize("argv,lines", [
        (["solve", "--model", "ccfpa-explicit", "--n", "2", "--samples", "16384"], 1),  # 16,386 lines, past a pipe's buffer
        (["validate-cdf"], 0),  # closed before the command writes
    ], ids=["csv", "validate-cdf"])
    def test_closed_pipe_exits_quietly(self, uniform_json, argv, lines):
        proc = cli_process(*argv, "--cdf", uniform_json, stdout=subprocess.PIPE)
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
        assert read == ["x,bid\n"] * lines
        assert (proc.returncode, err) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_output_that_cannot_be_written(self, uniform_json):
        with open("/dev/full", "w") as full:
            proc = cli_process("validate-cdf", "--cdf", uniform_json, stdout=full)
            err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, err) == (1, "error: cannot write output: No space left on device\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_interrupt(self, tmp_path):
        # the cdf is a named pipe: opening it for writing returns once the command has opened it, inside main
        fifo = tmp_path / "cdf.json"
        os.mkfifo(fifo)
        proc = cli_process("validate-cdf", "--cdf", str(fifo), stdout=subprocess.PIPE)
        with open(fifo, "w"):
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (130, "", "interrupted\n")

    @pytest.mark.parametrize("what", ["cdf", "strategy"])
    def test_file_that_is_not_utf8(self, capout, tmp_path, what):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff{"kind": "uniform"}')
        argv = {"cdf": ["validate-cdf", "--cdf", str(path)],
                "strategy": ["eval", "--strategy", str(path), "--at", "1/2"]}[what]
        assert capout(*argv) == (2, "", f"error: {what}: cannot read {path}: not UTF-8 text "
                                        "(invalid start byte at byte 0)\n")
