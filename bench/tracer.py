"""In-memory span tracing of fpaeq's public functions, for the benchmark's traced run.

`Tracer.install()` replaces each traced function at every module attribute
of the loaded `fpaeq` modules that refers to it (methods on their class), so
calls made through those attributes record a span: name, parent, start, end.
Spans go into flat arrays; `uninstall()` puts the originals back. Nothing in
the program is edited, and a target the program no longer has is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, module, attribute path) for every traced function
TARGETS = [
    ("cli.main", "fpaeq.cli", "main"),
    ("cdf.eval", "fpaeq.cdf", "PiecewisePolyCdf.__call__"),
    ("cdf.validate", "fpaeq.cdf", "PiecewisePolyCdf.validate"),
    ("cdf.oracle", "fpaeq.cdf", "CdfOracle.__call__"),
    ("discrete.solve", "fpaeq.discrete", "solve"),
    ("discrete.compute_strategy", "fpaeq.discrete", "compute_strategy"),
    ("discrete.delta_win_prob", "fpaeq.discrete", "delta_win_prob"),
    ("discrete.check_conditions", "fpaeq.discrete", "check_conditions"),
    ("discrete.utility", "fpaeq.discrete", "utility"),
    ("explicit.power_coefficients", "fpaeq.explicit", "power_coefficients"),
    ("explicit.integral_coefficients", "fpaeq.explicit", "integral_coefficients"),
    ("explicit.canonical_bid_function", "fpaeq.explicit", "canonical_bid_function"),
    ("explicit.eval_canonical", "fpaeq.explicit", "eval_canonical"),
    ("blackbox.precompute", "fpaeq.blackbox", "precompute"),
    ("blackbox.bid", "fpaeq.blackbox", "bid"),
    ("verify.epsilon_bne_check_cdfpa", "fpaeq.verify", "epsilon_bne_check_cdfpa"),
    ("verify.epsilon_bne_check_ccfpa", "fpaeq.verify", "epsilon_bne_check_ccfpa"),
    ("verify.monte_carlo_regret", "fpaeq.verify", "monte_carlo_regret"),
    ("verify.monte_carlo_utility", "fpaeq.verify", "monte_carlo_utility"),
]

# per-layer metrics: name -> (unit, how it is computed from one traced pass)
CALLS, TOTAL, SELF = "calls", "total", "self"
LAYER_METRICS = {
    "cdf.eval.calls": ("count", (CALLS, "cdf.eval")),
    "cdf.eval.self_s": ("s", (SELF, "cdf.eval")),
    "cdf.validate.s": ("s", (TOTAL, "cdf.validate")),
    "cdf.oracle.queries": ("count", (CALLS, "cdf.oracle")),
    "discrete.solve.calls": ("count", (CALLS, "discrete.solve")),
    "discrete.solve.s": ("s", (TOTAL, "discrete.solve")),
    "discrete.solve.retries": ("count", None),
    "discrete.solve.den_bits.max": ("bits", None),
    "discrete.compute_strategy.calls": ("count", (CALLS, "discrete.compute_strategy")),
    "discrete.compute_strategy.s": ("s", (TOTAL, "discrete.compute_strategy")),
    "discrete.delta_win_prob.calls": ("count", (CALLS, "discrete.delta_win_prob")),
    "discrete.delta_win_prob.self_s": ("s", (SELF, "discrete.delta_win_prob")),
    "discrete.check_conditions.calls": ("count", (CALLS, "discrete.check_conditions")),
    "discrete.check_conditions.s": ("s", (TOTAL, "discrete.check_conditions")),
    "discrete.check_conditions.pass_ratio": ("ratio", None),
    "discrete.utility.calls": ("count", (CALLS, "discrete.utility")),
    "explicit.power_coefficients.s": ("s", (TOTAL, "explicit.power_coefficients")),
    "explicit.integral_coefficients.s": ("s", (TOTAL, "explicit.integral_coefficients")),
    "explicit.canonical_bid_function.s": ("s", (TOTAL, "explicit.canonical_bid_function")),
    "explicit.eval_canonical.calls": ("count", (CALLS, "explicit.eval_canonical")),
    "explicit.eval_canonical.self_s": ("s", (SELF, "explicit.eval_canonical")),
    "blackbox.precompute.calls": ("count", (CALLS, "blackbox.precompute")),
    "blackbox.precompute.s": ("s", (TOTAL, "blackbox.precompute")),
    "blackbox.precompute.queries": ("count", None),
    "blackbox.bid.calls": ("count", (CALLS, "blackbox.bid")),
    "blackbox.bid.s": ("s", (TOTAL, "blackbox.bid")),
    **{
        f"verify.{fn}.{kind}": (unit, (how, f"verify.{fn}"))
        for fn in ("epsilon_bne_check_cdfpa", "epsilon_bne_check_ccfpa", "monte_carlo_regret", "monte_carlo_utility")
        for kind, unit, how in (("calls", "count", CALLS), ("s", "s", TOTAL))
    },
    "cli.main.self_s": ("s", (SELF, "cli.main")),
    "trace.overhead": ("ratio", None),
}


def _den_bits(values) -> int:
    from fractions import Fraction

    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = [t[0] for t in TARGETS]
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans (in place: installed wrappers keep their references)."""
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]
        del self._stack[1:]
        self.solve_deltas = []
        self.notes = {"retries": 0, "den_bits": 0, "cert_pass": 0}

    # -- hooks that read arguments or results the spans alone do not carry
    def _before_solve(self, bound) -> None:
        self.solve_deltas = []

    def _after_solve(self, bound, result) -> None:
        # each retry reruns the search with a smaller delta; count the deltas above the one that stuck
        used = getattr(result, "delta_used", None)
        if used is not None:
            self.notes["retries"] += len({d for d in self.solve_deltas if d is not None and d > used})
        strategy = result.strategy
        bits = max(_den_bits(strategy.s), _den_bits(strategy.utilities))
        self.notes["den_bits"] = max(self.notes["den_bits"], bits)

    def _before_compute_strategy(self, bound) -> None:
        self.solve_deltas.append(bound.arguments.get("delta"))

    def _after_check_conditions(self, bound, result) -> None:
        self.notes["cert_pass"] += bool(result.passed)

    def _wrap(self, nid: int, fn, before=None, after=None):
        sig = inspect.signature(fn) if before or after else None
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if sig else None
            if before:
                before(bound)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after:
                after(bound, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "discrete.solve": (self._before_solve, self._after_solve),
            "discrete.compute_strategy": (self._before_compute_strategy, None),
            "discrete.check_conditions": (None, self._after_check_conditions),
        }
        self.missing = []
        modules = {}
        for name in sorted({t[1] for t in TARGETS}):
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                pass
        for nid, (label, module, path) in enumerate(TARGETS):
            owner = modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(label)
                continue
            wrapper = self._wrap(nid, original, *hooks.get(label, (None, None)))
            if outer:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules.values():  # a function: every module attribute bound to it
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis of one traced pass
    def pass_metrics(self, scale: list[float]) -> dict[str, float]:
        """Per-layer metrics of one traced pass; scale[i] converts op i's wall time to the reference speed."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        ids = {label: i for i, label in enumerate(self.names)}
        # spans are recorded in start order, and each op is one cli.main call
        op = np.clip(np.cumsum(name == ids["cli.main"]) - 1, 0, len(scale) - 1)
        dur = (np.array(self.end, dtype=float) - np.array(self.start, dtype=float)) * np.asarray(scale)[op]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for metric, (_unit, spec) in LAYER_METRICS.items():
            if spec is None:
                continue
            how, label = spec
            mask = name == ids[label]
            if how == CALLS:
                out[metric] = int(mask.sum())
            elif how == TOTAL:
                out[metric] = float(dur[mask].sum())
            else:
                out[metric] = float(self_time[mask].sum())
        oracle = np.flatnonzero(name == ids["cdf.oracle"])
        in_precompute = parent[oracle] >= 0
        out["blackbox.precompute.queries"] = int(
            (name[parent[oracle][in_precompute]] == ids["blackbox.precompute"]).sum()
        )
        checks = out["discrete.check_conditions.calls"]
        out["discrete.check_conditions.pass_ratio"] = self.notes["cert_pass"] / checks if checks else 0.0
        out["discrete.solve.retries"] = self.notes["retries"]
        out["discrete.solve.den_bits.max"] = self.notes["den_bits"]
        return out

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as .npz arrays (times in seconds from the first span)."""
        start = np.asarray(self.start)
        origin = start.min() if len(start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=start - origin,
            end=np.asarray(self.end) - origin,
        )
        path.with_suffix(".json").write_text(json.dumps({
            "format": "spans i: names[name[i]], parent span index parent[i] (-1 at an op's root), "
                      "start[i]..end[i] seconds",
            "spans": len(self.name),
            "missing_targets": self.missing,
        }, indent=1))
