"""Command-line front-end: parse auction specs, dispatch solvers, emit results.

Exit codes: 0 success, 1 validation/solve failure or unwritable output (quietly for a
closed pipe), 2 usage or input error, 130 interrupted.  Every command validates the cdf
it loads, and an invalid one exits 1.  The limits on n, the black-box grid size and
--samples, and solve's --eps and --bids, are checked first.
A well-formed command line is read against its command's option table, and anything
else goes to argparse, which keeps every help, usage and error text; `fpaeq --help`
lists the commands.
Exact rationals are serialized as "p/q" strings; float output is tagged with
an explicit precision field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import blackbox, discrete, explicit, verify
from .cdf import CdfOracle, cdf_from_json
from .discrete import BidGrid, JumpPointStrategy
from .errors import DomainError, PrecisionError, check_bidders
from .rationals import check_length, format_rational, parse_rational, parse_rational_list

USAGE_ERROR = 2
FAILURE = 1
INTERRUPTED = 130  # 128 + SIGINT: the code a shell gives a command that Ctrl-C ends


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"{what}: file not found: {path}")
    except OSError as exc:  # a directory, or a file without read permission
        raise DomainError(f"{what}: cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what}: cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what}: malformed JSON in {path}: {exc}")
    except RecursionError:
        raise DomainError(f"{what}: malformed JSON in {path}: nested too deeply")


def _arg_rational(text) -> Fraction:
    """parse_rational of a command-line value, which may have at most MAX_CHARS characters."""
    return parse_rational(check_length(text, "on the command line"))


class InvalidCdf(Exception):
    pass


def _read_cdf(path: str):
    obj = _load_json(path, "cdf")
    try:
        return cdf_from_json(obj)
    except ValueError as exc:  # a DomainError, or parse_rational's ValueError
        raise DomainError(f"cdf: {exc}")


def _load_cdf(path: str):
    """A cdf that passes validate(): every command but validate-cdf loads its cdf here."""
    dist = _read_cdf(path)
    report = dist.validate()
    if not report.ok:
        raise InvalidCdf("; ".join(report.violations))
    return dist


def _parse_bids(text: str) -> BidGrid:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bids: malformed JSON array: {exc}")
    except RecursionError:
        raise DomainError("bids: malformed JSON array: nested too deeply")
    try:
        return BidGrid(parse_rational_list(raw, "bids", _arg_rational))
    except ValueError as exc:
        raise DomainError(f"bids: {exc}")


def _int_at_least(low: int):
    """An argparse type for integers >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _strategy_to_json(strategy: JumpPointStrategy, cert) -> dict:
    return {
        "kind": "jump_points",
        "s": [format_rational(x) for x in strategy.s],
        "U": [format_rational(u) for u in strategy.utilities],
        "certificate": {
            "gamma": format_rational(cert.gamma),
            "pass": cert.passed,
            "max_residual": format_rational(cert.max_residual),
        },
    }


def _load_strategy(path: str, bids):
    """A strategy file: a canonical bid function, or jump points on the grid of the --bids text."""
    obj = _load_json(path, "strategy")
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "canonical_bid":
        try:
            return explicit.rbf_from_json(obj)
        except ValueError as exc:
            raise DomainError(f"strategy: bad canonical_bid object ({exc})")
    if kind != "jump_points":
        raise DomainError(f"strategy: unknown kind field {kind!r}")
    if bids is None:
        raise DomainError("--bids is required for jump_points strategies")
    grid = _parse_bids(bids)
    try:
        return JumpPointStrategy(grid, parse_rational_list(obj["s"], "s"), parse_rational_list(obj.get("U", []), "U"))
    except (KeyError, ValueError) as exc:
        raise DomainError(f"strategy: bad jump_points object ({exc})")


def _cmd_solve(args) -> int:
    # each model's own options besides --eps; one that its model does not read exits 2
    reads = {"cdfpa": ("--bids", "--certify"), "ccfpa-blackbox": ("--samples",),
             "ccfpa-explicit": ("--at", "--samples")}[args.model]
    given = {"--at": args.at is not None, "--samples": args.samples is not None, "--bids": args.bids is not None,
             "--certify": args.certify}
    for option in given:
        if given[option] and option not in reads:
            raise DomainError(f"{option} is not read by the {args.model} model")
    if given["--at"] and given["--samples"]:
        raise DomainError("--at and --samples exclude each other")
    check_bidders(args.n)
    # a sample is one bid; an exact one on a dense degree-64 cdf at n = 64 takes, on 2 vCPUs, 0.007-0.023 s at
    # i / 2**e (2-6 min at MAX_K) and 0.57-0.8 s where the sample count is odd (2.6-3.6 h at MAX_K - 1)
    if args.samples is not None and args.samples > blackbox.MAX_K:
        raise DomainError(f"--samples {args.samples} exceeds the limit of {blackbox.MAX_K}")
    if args.model == "cdfpa":
        if args.bids is None:
            raise DomainError("--bids is required for the cdfpa model")
        grid = _parse_bids(args.bids)
    if args.model != "ccfpa-explicit":
        if args.eps is None:
            raise DomainError(f"--eps is required for the {args.model} model")
        eps = _arg_rational(args.eps)
        if args.model == "ccfpa-blackbox":
            blackbox.grid_size(eps)
    dist = _load_cdf(args.cdf)
    if args.model == "ccfpa-explicit":
        rbf = explicit.canonical_bid_function(dist, args.n)
        if args.at is None and args.samples is None:
            print(json.dumps(explicit.rbf_to_json(rbf), indent=2))
            return 0
        bid = rbf.ratio
        if args.at is not None:
            x = _arg_rational(args.at)
            print(format_rational(Fraction(*bid(x.numerator, x.denominator))))
            return 0
        print("x,bid")
        for i in range(args.samples + 1):
            g = math.gcd(i, args.samples)  # i / samples in lowest terms, with no Fraction
            num, den = bid(i // g, args.samples // g)
            print(f"{i / args.samples},{num / den}")
        return 0
    if args.model == "ccfpa-blackbox":
        oracle = CdfOracle(dist)
        plan = blackbox.precompute(oracle, args.n, eps)
        samples = args.samples or 100
        print("x,bid,L,U,queries")
        for i in range(samples + 1):
            g = math.gcd(i, samples)
            ev = blackbox.bid(plan, (i // g, samples // g))
            upper = ev.upper_num / ev.den
            print(f"{i / samples},{upper},{ev.lower_num / ev.den},{upper},{oracle.query_count}")
        return 0
    result = discrete.solve(dist, args.n, grid, eps)  # cdfpa
    out = _strategy_to_json(result.strategy, result.certificate)
    if args.certify:
        report = verify.epsilon_bne_check_cdfpa(dist, args.n, result.strategy)
        out["measured_regret"] = format_rational(report.max_regret)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_verify(args) -> int:
    check_bidders(args.n)
    dist = _load_cdf(args.cdf)
    strategy = _load_strategy(args.strategy, args.bids)
    if args.mode == "exact":
        if not isinstance(strategy, JumpPointStrategy):
            raise DomainError("exact mode needs a jump_points strategy")
        report = verify.epsilon_bne_check_cdfpa(dist, args.n, strategy)
        out = {
            "max_regret": format_rational(report.max_regret),
            "argmax": {
                "value": format_rational(report.argmax[0]),
                "bid": format_rational(report.argmax[1]),
            },
            "method": "exact",
        }
    else:
        if args.mode == "grid":
            report, fields = verify.epsilon_bne_check_ccfpa(dist, args.n, strategy), {"method": "grid"}
        else:
            report = verify.monte_carlo_regret(dist, args.n, strategy, args.trials, args.seed)
            fields = {"method": "monte-carlo", "trials": args.trials, "seed": args.seed, "sigma": report.sigma}
        out = {
            "max_regret": report.max_regret,
            "argmax": {"value": report.argmax[0], "bid": report.argmax[1]},
            **fields,
            "precision": "float64",
        }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_eval(args) -> int:
    # a strategy reads --bids and no cdf; a cdf reads no --bids.  An option that is not read exits 2
    if args.strategy and args.cdf is not None:
        raise DomainError("--cdf is not read with --strategy")
    if not args.strategy and args.bids is not None:
        raise DomainError("--bids is read only with --strategy")
    x = _arg_rational(args.at)
    if args.strategy:
        print(format_rational(_load_strategy(args.strategy, args.bids)(x)))
        return 0
    if args.cdf is None:
        raise DomainError("need --cdf or --strategy")
    dist = _load_cdf(args.cdf)
    print(format_rational(dist(x)))
    return 0


def _cmd_validate_cdf(args) -> int:
    report = _read_cdf(args.cdf).validate()
    print(json.dumps({"ok": report.ok, "violations": list(report.violations)}, indent=2))
    return 0 if report.ok else FAILURE


# command name -> (help text, its options as (flag, add_argument keywords) pairs, handler)
COMMANDS = {
    "solve": ("compute an equilibrium strategy", (
        ("--model", {"required": True, "choices": ["ccfpa-blackbox", "ccfpa-explicit", "cdfpa"]}),
        ("--cdf", {"required": True, "help": "path to a cdf JSON file"}),
        ("--n", {"required": True, "type": int, "help": "number of bidders (>= 2)"}),
        ("--eps", {"help": "approximation accuracy (rational)"}),
        ("--at", {"help": "evaluate the bid at one rational value (ccfpa-explicit)"}),
        ("--samples", {"type": _int_at_least(1), "help": "emit a CSV sample of the bid function"}),
        ("--bids", {"help": "JSON array of rational bids (cdfpa)"}),
        ("--certify", {"action": "store_true", "default": False, "help": "also measure regret (cdfpa)"}),
    ), _cmd_solve),
    "verify": ("certify a strategy's regret", (
        ("--strategy", {"required": True, "help": "path to a strategy JSON file"}),
        ("--cdf", {"required": True}),
        ("--n", {"required": True, "type": int}),
        ("--bids", {"help": "JSON array of rational bids"}),
        ("--mode", {"required": True, "choices": ["exact", "grid", "mc"]}),
        ("--trials", {"type": int, "default": 100_000,
                      "help": f"Monte Carlo trials, at most {verify.MAX_MC_TRIALS} at any n (default: 100 000)"}),
        ("--seed", {"type": _int_at_least(0), "default": 0}),
    ), _cmd_verify),
    "eval": ("evaluate a cdf or strategy at a point", (
        ("--cdf", {}), ("--strategy", {}), ("--bids", {}), ("--at", {"required": True}),
    ), _cmd_eval),
    "validate-cdf": ("check a cdf JSON file's invariants", (("--cdf", {"required": True}),), _cmd_validate_cdf),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, as `fpaeq --help` shows it."""
    parser = argparse.ArgumentParser(
        prog="fpaeq",
        description="First-price auction equilibrium solvers and verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def _read_options(options, tokens) -> dict | None:
    """The values of tokens read against an option table, or None where only argparse can read them.

    Each token must be exactly a flag of the table; a store_true flag takes no value, any other the next
    token, which must exist, must not start with "-" and must pass the option's type and choices; every
    required flag must be given.  A repeated flag keeps its last value, as argparse's does.
    """
    table = dict(options)
    given = {}
    i = 0
    while i < len(tokens):
        keywords = table.get(tokens[i])
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[tokens[i]] = True
            i += 1
            continue
        if i + 1 == len(tokens) or tokens[i + 1].startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(tokens[i + 1])
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[tokens[i]] = value
        i += 2
    values = {}
    for flag, keywords in options:
        if flag not in given and keywords.get("required"):
            return None
        values[flag[2:]] = given.get(flag, keywords.get("default"))
    return values


def _parse_args(argv) -> argparse.Namespace:
    """argv read against its command's option table, with build_parser()'s values, texts and exit codes.

    A well-formed command line builds no parser.  Anything else (no command, -h, an abbreviation,
    --flag=value, a value starting with "-", an unknown or missing option, a bad type or choice) goes to
    build_parser(), which reads it or prints its help, usage or error text.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        _, options, handler = COMMANDS[argv[0]]
        values = _read_options(options, argv[1:])
        if values is not None:
            return argparse.Namespace(**values, func=handler)
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command and return its exit code, with one line on stderr for each failure and no traceback.

    stdout is flushed here, so that a write that fails does so inside this call; it then goes to os.devnull, so
    the flush at exit cannot fail again, and a closed pipe ends quietly (the Python documentation's note on SIGPIPE).
    """
    try:
        args = _parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvalidCdf as exc:
        print(f"invalid cdf: {exc}", file=sys.stderr)
        return FAILURE
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except OSError as exc:  # every file is read in _load_json, so this is a write to stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # such as a full disk
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return FAILURE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
