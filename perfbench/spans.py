"""Span tracing of the package's public functions from outside the package.

The library carries no instrumentation. ``Tracer.install`` replaces each
traced function in every namespace that calls it: ``cli`` binds
``simulate_single``, ``optimal_threshold`` and others by name at import,
while ``verify`` and ``sim`` call through module globals and ``run_checks``
through the ``verify.CHECKS`` registry. A span records name, start, end,
parent span and run id; spans stay in memory until ``write``.

A target that no longer exists is recorded as missing, and ``layer_metrics``
reports a metric whose spans never occurred as missing rather than zero, so
a refactor that renames a function shows up instead of zeroing its layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import FLEET_SIZES, WORKLOADS

# The 22 checks of ``verify.CHECKS`` at the time the benchmark was defined.
VERIFY_CHECKS = (
    "eaoii_identities",
    "eaoii_monotone_bounded",
    "kernel_stochastic",
    "stationary_vs_power_iteration",
    "stationary_normalization",
    "stationary_balance",
    "avg_eaoii_closed_vs_numeric",
    "avg_aat_closed_vs_numeric",
    "lambda_seq_vs_ratio",
    "lambda_monotone_below_limit",
    "lambda_limit_is_sup",
    "optimal_threshold_vs_brute",
    "steady_reward_tie",
    "exchange_sign_flip",
    "whittle_closed_equals_lambda",
    "whittle_iterative_vs_closed",
    "whittle_monotone_bounded",
    "indexability",
    "pairwise_tie_floor",
    "intersection_vs_naive_ratio",
    "rvi_consistency",
    "select_jam_set_vs_sort",
)

CLI_COMMANDS = ("sweep-lambda", "multi-sim", "verify", "threshold-curve")
FLEET_POLICIES = {"WhittleJam": "whittle", "RandomMultiJam": "random"}


def _single_trace_attrs(bound, result):
    policy = bound["policy"]
    kind = "random" if type(policy).__name__ == "RandomJam" else "threshold"
    return {"policy": kind, "slots": int(bound["horizon"])}


def _multi_batch_attrs(bound, result):
    return {
        "policy": FLEET_POLICIES.get(type(bound["policy"]).__name__, "other"),
        "N": bound["fleet"].size,
        "lane_slots": int(bound["horizon"]) * len(bound["seeds"]),
    }


def _rvi_attrs(bound, result):
    return {"iterations": int(result.iterations)}


# (module, attribute, span name, modules to install in (None: every module
# of the package holding the function), attributes taken from the call).
TARGETS = [
    *[("cli", "cmd_" + c.replace("-", "_"), "cli." + c, ("cli",), None) for c in CLI_COMMANDS],
    ("sim", "simulate_single", "sim.simulate_single", None, None),
    ("sim", "single_trace", "sim.single_trace", None, _single_trace_attrs),
    ("sim", "simulate_multi_batch", "sim.simulate_multi_batch", None, _multi_batch_attrs),
    ("core", "eaoii_ladder", "sim.tables", ("sim",), None),
    ("whittle", "whittle_table_closed", "sim.tables", ("sim",), None),
    ("core", "optimal_threshold", "core.optimal_threshold", None, None),
    ("core", "steady_reward", "core.steady_reward", None, None),
    ("oracle", "stationary_pmf_numeric", "oracle.stationary_pmf_numeric", None, None),
    ("oracle", "relative_value_iteration", "oracle.relative_value_iteration", None, _rvi_attrs),
    ("oracle", "avg_numeric", "oracle.avg_numeric", None, None),
    ("oracle", "brute_force_threshold", "oracle.brute_force_threshold", None, None),
    ("whittle", "whittle_index_iterative", "whittle.whittle_index_iterative", None, None),
    ("verify", "run_checks", "verify.run_checks", None, None),
]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    FIELDS = ("name", "start_ns", "end_ns", "parent", "run", "attrs")

    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs:
                span[5] = attrs(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every target in the namespaces that call it; record the absent ones."""
        self.missing = []
        modules = {}
        for name in ("cli", "core", "oracle", "sim", "verify", "whittle"):
            try:
                modules[name] = importlib.import_module(f"aoii_jam.{name}")
            except ModuleNotFoundError:
                modules[name] = None
        every = [m for key, m in sys.modules.items()
                 if key == "aoii_jam" or key.startswith("aoii_jam.")]
        for module_name, attr, span, scope, attrs in TARGETS:
            original = getattr(modules[module_name], attr, None)
            homes = every if scope is None else [modules[s] for s in scope if modules[s]]
            names = [(m, key) for m in homes for key, value in vars(m).items()
                     if original is not None and value is original]
            if not names:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(original, span, attrs)
            for module, key in names:
                self._undo.append((module, key, original))
                setattr(module, key, wrapped)
        registry = getattr(modules["verify"], "CHECKS", {})
        for check in VERIFY_CHECKS:
            if check not in registry:
                self.missing.append(f"verify.CHECKS[{check}]")
                continue
            func, tol = registry[check]
            self._undo.append((registry, check, (func, tol)))
            registry[check] = (self.wrap(func, f"verify.{check}"), tol)

    def uninstall(self):
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: Path):
        with open(path, "w") as handle:
            json.dump({"fields": self.FIELDS, "missing": self.missing, "spans": self.spans},
                      handle, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, overhead: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans, and the names that had no spans.

    ``overhead`` maps each workload to traced command time over untraced
    command time, minus one.
    """
    own = self_times(spans)
    total = defaultdict(int)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    sums = defaultdict(int)
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_ns[name] += own[i]
        if name == "sim.single_trace":
            key = f"{name}.{attrs['policy']}"
            total[key] += end - start
            sums[key] += attrs["slots"]
        elif name == "sim.simulate_multi_batch":
            key = f"{name}.{attrs['policy']}.N{attrs['N']}"
            total[key] += end - start
            sums[key] += attrs["lane_slots"]
            sums[name + ".lane_slots"] += attrs["lane_slots"]
        elif name == "oracle.relative_value_iteration":
            sums[name + ".iterations"] += attrs["iterations"]

    metrics: dict[str, tuple[float, str]] = {}
    missing: list[str] = []

    def put(metric, value, unit, present):
        if present:
            metrics[metric] = (value, unit)
        else:
            missing.append(metric)

    def per_call(name, scale, unit_suffix):
        n = calls[name]
        put(f"{name}.calls", n, "count", n > 0)
        put(f"{name}.{unit_suffix}", total[name] / scale / max(n, 1),
            unit_suffix.replace("_per_", "/"), n > 0)

    put("sim.single_trace.calls", calls["sim.single_trace"], "count", calls["sim.single_trace"] > 0)
    for kind in ("threshold", "random"):
        key = f"sim.single_trace.{kind}"
        put(f"{key}.ns_per_slot", total[key] / max(sums[key], 1), "ns/slot", sums[key] > 0)
    put("sim.simulate_single.self_s", self_ns["sim.simulate_single"] / 1e9, "s",
        calls["sim.simulate_single"] > 0)
    for policy in ("whittle", "random"):
        for n in FLEET_SIZES:
            key = f"sim.simulate_multi_batch.{policy}.N{n}"
            put(f"{key}.us_per_lane_slot", total[key] / 1e3 / max(sums[key], 1),
                "us/lane-slot", sums[key] > 0)
    key = "sim.simulate_multi_batch.lane_slots"
    put(key, sums[key], "count", sums[key] > 0)
    put("sim.tables.s", total["sim.tables"] / 1e9, "s", calls["sim.tables"] > 0)
    per_call("core.optimal_threshold", 1e3, "us_per_call")
    per_call("core.steady_reward", 1e3, "us_per_call")
    per_call("oracle.stationary_pmf_numeric", 1e6, "ms_per_solve")
    per_call("oracle.relative_value_iteration", 1e6, "ms_per_solve")
    key = "oracle.relative_value_iteration"
    put(f"{key}.iterations", sums[f"{key}.iterations"], "count", calls[key] > 0)
    per_call("oracle.avg_numeric", 1e6, "ms_per_call")
    per_call("oracle.brute_force_threshold", 1e3, "us_per_call")
    per_call("whittle.whittle_index_iterative", 1e6, "ms_per_call")
    for check in VERIFY_CHECKS:
        key = f"verify.{check}"
        put(f"{key}.s", total[key] / 1e9, "s", calls[key] > 0)
    put("verify.run_checks.self_s", self_ns["verify.run_checks"] / 1e9, "s",
        calls["verify.run_checks"] > 0)
    for command in CLI_COMMANDS:
        key = f"cli.{command}"
        put(f"{key}.self_s", self_ns[key] / 1e9, "s", calls[key] > 0)
    for workload in WORKLOADS:
        put(f"trace.overhead_frac.{workload}", overhead.get(workload, 0.0), "ratio",
            workload in overhead)
    return metrics, missing

