"""Command-line harness: verification suite, experiment sweeps, ad-hoc runs.

Subcommands: verify | sweep-lambda | threshold-curve | multi-sim |
whittle-table | sim. Output is CSV (default) or JSON, only JSON for
``verify``; leading ``#`` lines echo the resolved configuration so every
file documents how it was produced. All commands are deterministic for a
fixed configuration and seed: no timestamps, floats to 17 significant digits.

Every option of every subcommand is declared once in ``OPTIONS``. A value
comes from its flag, else from the same key of the ``--config`` JSON
object, else from its default, and goes through the option's parser in
all three cases.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from .core import (
    INFINITE,
    SubsystemParams,
    ThresholdPolicy,
    _check_cost,
    avg_aat_closed,
    avg_eaoii_closed,
    eaoii_ladder,
    lambda_limit,
    optimal_thresholds,
)
from .sim import (
    RandomJam,
    RandomMultiJam,
    WhittleJam,
    _check_run,
    simulate_multi_batch,
    simulate_single,
    single_trace,
    standard_error,
    summarize_trace,
)
from .whittle import FleetConfig, whittle_index_iterative, whittle_table_closed


class ConfigError(ValueError):
    pass


_BLOCK_ROWS = 8192  # rows formatted per write: a table's text is in memory a block at a time


def _cells(column) -> list[str]:
    """A column's cells as text: floats to 17 significant digits, bools as 1/0, the rest by str."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return [f"{value:.17g}" for value in column.tolist()]
    return list(map(str, (column.astype(np.uint8) if column.dtype == bool else column).tolist()))


def _json_cells(column) -> list[str]:
    """A column's cells as ``json.dumps`` writes them; ints and finite floats without calling it."""
    values = column.tolist()
    if column.dtype.kind in "iu":
        return list(map(str, values))
    if column.dtype.kind != "f":
        return list(map(json.dumps, values))
    cells = list(map(float.__repr__, values))
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[i] = json.dumps(values[i])  # NaN, Infinity, -Infinity
    return cells


def _write_table(stream, config: dict, table: dict, fmt: str):
    """Write ``config`` and ``table``'s equal-length named columns, _BLOCK_ROWS rows at a time."""
    names = sorted(table) if fmt == "json" else list(table)  # json sorts the keys of a row
    blocks = ([np.asarray(table[name][start:start + _BLOCK_ROWS]) for name in names]
              for start in range(0, len(table[names[0]]), _BLOCK_ROWS))
    if fmt == "json":
        # The text of json.dump({"config": config, "rows": [dict per row]}, indent=2, ...);
        # "rows" sorts after "config", so the placeholder row is the last null.
        text = json.dumps({"config": config, "rows": [None]}, indent=2, sort_keys=True, default=str)
        head, _, tail = text.rpartition("\n    null")
        stream.write(head)
        # One row's text, a %s for each cell.
        keys = [json.dumps(name).replace("%", "%%") for name in names]
        row = "\n    {" + ",".join(f"\n      {key}: %s" for key in keys) + "\n    }"
        for i, block in enumerate(blocks):
            rows = zip(*map(_json_cells, block))
            stream.write(("," if i else "") + ",".join(row % cells for cells in rows))
        stream.write(tail + "\n")
        return
    for key in sorted(config):
        stream.write(f"# {key}={_cells([config[key]])[0]}\n")
    stream.write(",".join(names) + "\n")
    for block in blocks:
        stream.write("\n".join(map(",".join, zip(*map(_cells, block)))) + "\n")


@contextlib.contextmanager
def _output(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as handle:
            yield handle


def _emit(path, config, table, fmt):
    with _output(path) as stream:
        _write_table(stream, config, table, fmt)


# --- option parsers ----------------------------------------------------------
# Each takes a flag value (after argparse's ``type``) or a JSON config value,
# so a config value must have the JSON type of the converted flag: a number
# for --horizon, a string for --params.


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _exactly(kind):
    """Parser passing through values of ``kind`` only; a bool is not an int."""

    def parse(value):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    return parse


_int, _switch, _text = _exactly(int), _exactly(bool), _exactly(str)


def _params(value) -> SubsystemParams:
    parts = _text(value).split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'p,q,r', got {value!r}")
    p, q, r = (float(x) for x in parts)
    return SubsystemParams(p=p, q=q, r=r)


def _params_list(value) -> list[SubsystemParams]:
    if not isinstance(value, list) or not value:
        raise TypeError(f"expected a non-empty list of 'p,q,r' strings, got {value!r}")
    return [_params(text) for text in value]


def _classes(value) -> list[tuple[SubsystemParams, float]]:
    classes = []
    for chunk in _text(value).split(";"):
        parts = chunk.split(",")
        if len(parts) != 4:
            raise ValueError(f"class spec needs 'p,q,r,fraction', got {chunk!r}")
        p, q, r, frac = (float(x) for x in parts)
        classes.append((SubsystemParams(p=p, q=q, r=r), frac))
    total = sum(frac for _, frac in classes)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"class fractions must sum to 1, got {total}")
    return classes


def _distinct(values: list, what: str) -> list:
    """``values``, refused if any repeats: a repeated entry repeats a run and its output row."""
    repeated = sorted(value for value, count in Counter(values).items() if count > 1)
    if repeated:
        raise ValueError(f"expected distinct {what}, got {repeated} more than once")
    return values


def _int_list(value) -> list[int]:
    numbers = [int(x) for x in _text(value).split(",") if x != ""]
    if not numbers:
        raise ValueError(f"expected comma-separated integers, got {value!r}")
    return numbers


def _seed(value) -> int:
    if _int(value) < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


def _seeds(value) -> list[int]:
    return _distinct([_seed(seed) for seed in _int_list(value)], "seeds")


def _m_rule(value) -> str:
    if _text(value) != "half" and int(value) < 0:
        raise ValueError(f"expected 'half' or a non-negative integer budget, got {value}")
    return value


METHODS = ("closed", "iterative")


def _method(value) -> str:
    if _text(value) not in METHODS:
        raise ValueError(f"method must be closed or iterative, got {value!r}")
    return value


def _checks(value) -> list[str]:
    return _distinct([x for x in _text(value).split(",") if x], "checks")


# option -> (parser, default, argparse keywords); a REQUIRED option has no default.
REQUIRED = object()
_REAL = {"type": float}
_INT = {"type": int}
_PARAMS = {"params": (_params, REQUIRED, {"help": "p,q,r"})}
_LAMBDA_RANGE = {
    "lambda-min": (_real, 0.0, _REAL),
    "lambda-max": (_real, 10.0, _REAL),
    "lambda-step": (_real, 0.001, _REAL),
    "full": (_switch, False, {"action": "store_const", "const": True,
                              "help": "emit every grid point instead of every 10th"}),
}
OPTIONS = {
    "verify": {
        "checks": (_checks, None, {"help": "comma-separated check names (default all)"}),
    },
    "sweep-lambda": {
        **_PARAMS,
        **_LAMBDA_RANGE,
        "horizon": (_int, 1_000_000, _INT),
        "seed": (_seed, 12345, _INT),
    },
    "threshold-curve": {**_PARAMS, **_LAMBDA_RANGE},
    "multi-sim": {
        "classes": (_classes, REQUIRED, {"help": "p,q,r,fraction;p,q,r,fraction;..."}),
        "n-list": (lambda value: _distinct(_int_list(value), "fleet sizes"), "4,8,16,24,32,40",
                   {"help": "distinct fleet sizes, e.g. 4,8,16"}),
        "m-rule": (_m_rule, "half", {"help": "'half' or a fixed integer budget"}),
        "horizon": (_int, 100_000, _INT),
        "seeds": (_seeds, "0,1,2,3,4,5,6,7,8,9", {"help": "comma-separated distinct seeds"}),
    },
    "whittle-table": {
        "params": (_params_list, REQUIRED, {"action": "append", "help": "p,q,r (repeatable)"}),
        "k-max": (_int, 200, _INT),
        "method": (_method, "closed", {"choices": METHODS}),
    },
    "sim": {
        **_PARAMS,
        "policy": (_text, "never", {"help": "never|always|threshold:N|threshold:inf|random:P"}),
        "lambda": (_real, 0.0, _REAL),
        "horizon": (_int, 100_000, _INT),
        "seed": (_seed, 12345, _INT),
    },
}


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _resolve(args) -> dict:
    """Every option of the subcommand: flag, else config key, else default, parsed."""
    options = OPTIONS[args.command]
    cfg = _load_config(args.config)
    unknown = sorted(set(cfg) - set(options))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; the keys are the long flag names")
    resolved = {}
    for name, (parse, default, _) in options.items():
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            value = cfg.get(name)
        if value is None:
            value = default
        if value is REQUIRED:
            raise ConfigError(f"--{name} (or a config file) is required")
        try:
            resolved[name] = None if value is None else parse(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"--{name}: {exc}") from exc
    return resolved


def _parse_policy(text: str):
    kind, _, arg = text.partition(":")
    try:
        if kind == "never":
            return ThresholdPolicy(INFINITE)
        if kind == "always":
            return ThresholdPolicy(0)
        if kind == "threshold":
            if arg.lower() in ("inf", "infinite"):
                return ThresholdPolicy(INFINITE)
            return ThresholdPolicy(int(arg))
        if kind == "random":
            return RandomJam(float(arg))
    except ValueError as exc:
        raise ConfigError(f"bad policy {text!r}: {exc}") from exc
    raise ConfigError(f"unknown policy kind {text!r}")


# Largest lambda grid, before decimation (80 MB of float64), and largest
# whittle-table.
MAX_GRID_POINTS = 10_000_000
# whittle-table --method iterative builds at most one row more than this over
# all its --params: its infimum scan is quadratic in the ages (about 1 s at
# this limit for slow-mixing params).
_ITERATIVE_K_MAX = 10_000


def _lambda_grid(opts) -> np.ndarray:
    """Every whole step from the minimum up to the maximum, every 10th point unless ``full``.

    A range within 1e-9 of a whole number of steps counts as whole (float noise).
    """
    lo, hi, step = opts["lambda-min"], opts["lambda-max"], opts["lambda-step"]
    if lo < 0:
        raise ConfigError(f"--lambda-min must be >= 0, got {lo}")
    if step <= 0:
        raise ConfigError("lambda step must be positive")
    if hi < lo:
        raise ConfigError("lambda range is empty")
    steps = (hi - lo) / step  # inf when the quotient overflows
    count = math.floor(steps * (1.0 + 1e-9)) + 1 if steps < MAX_GRID_POINTS else math.inf
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"--lambda-step: the grid from --lambda-min to --lambda-max would have "
                          f"{steps + 1:.10g} points, more than {MAX_GRID_POINTS}")
    return (lo + step * np.arange(count))[:: 1 if opts["full"] else 10]


def _header(opts) -> dict:
    """``#`` header fields: the resolved options with the p,q,r triple split out."""
    header = {**opts, **asdict(opts["params"])}
    del header["params"]
    if "full" in opts:
        header["decimation"] = 1 if opts["full"] else 10
    return header


def _runs(params, grid) -> tuple[list, list, np.ndarray]:
    """Each run's optimal policy, the run lengths and the threshold column of ``grid``."""
    policies, lengths = optimal_thresholds(params, grid)
    cells = np.array(["INF" if not p.is_finite else str(p.threshold) for p in policies],
                     dtype=object)
    return policies, lengths, np.repeat(cells, lengths)


# --- subcommands -----------------------------------------------------------
# Each takes the parsed arguments and the resolved options; its docstring is
# its help line.


def cmd_verify(args, opts) -> int:
    """run the oracle-equivalence suite"""
    from . import verify  # here, so the other commands load neither it nor the oracles

    report = verify.run_checks(names=opts["checks"])
    with _output(args.out) as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return 0 if report["passed"] else 1


def cmd_sweep_lambda(args, opts) -> int:
    """reward vs jamming cost sweep"""
    params, horizon, seed = opts["params"], opts["horizon"], opts["seed"]
    grid = _lambda_grid(opts)
    policies, lengths, thresholds = _runs(params, grid)
    baseline = simulate_single(params, RandomJam(0.5), 0.0, horizon, seed)
    runs = [simulate_single(params, policy, 0.0, horizon, seed) for policy in policies]
    # Each point's (average EAoII, jammed fraction): closed form and simulated.
    closed = np.repeat([(avg_eaoii_closed(params, p), avg_aat_closed(params, p)) for p in policies],
                       lengths, axis=0)
    sim = np.repeat([(stats.avg_eaoii, stats.avg_aat) for stats in runs], lengths, axis=0)
    table = {
        "lambda": grid,
        "optimal_reward_closed": closed[:, 0] - grid * closed[:, 1],
        "optimal_reward_sim": sim[:, 0] - grid * sim[:, 1],
        "random_reward_sim": baseline.avg_eaoii - grid * baseline.avg_aat,
        "threshold_n": thresholds,
    }
    _emit(args.out, {"command": "sweep-lambda", **_header(opts)}, table, args.format)
    return 0


def cmd_threshold_curve(args, opts) -> int:
    """optimal threshold vs jamming cost"""
    params, grid = opts["params"], _lambda_grid(opts)
    config = {"command": "threshold-curve", **_header(opts), "lambda-limit": lambda_limit(params)}
    _emit(args.out, config, {"lambda": grid, "threshold_n": _runs(params, grid)[2]}, args.format)
    return 0


def cmd_multi_sim(args, opts) -> int:
    """fleet comparison: index policy vs random"""
    classes, horizon, seeds = opts["classes"], opts["horizon"], opts["seeds"]
    m_rule = opts["m-rule"]
    fleets = [FleetConfig.from_classes(classes, n, n // 2 if m_rule == "half" else int(m_rule))
              for n in opts["n-list"]]
    _check_run(horizon, max(fleet.size for fleet in fleets))  # before any fleet is simulated
    table = {"N": [fleet.size for fleet in fleets], "whittle_avg_aoii": [], "whittle_stderr": [],
             "random_avg_aoii": [], "random_stderr": []}
    for fleet in fleets:  # fleet by fleet: one policy over every fleet first peaks 1.5 MB higher
        for name, policy in (("whittle", WhittleJam()), ("random", RandomMultiJam())):
            runs = simulate_multi_batch(fleet, policy, horizon, seeds)
            values = np.array([stats.avg_true_aoii for stats in runs])
            table[name + "_avg_aoii"].append(float(values.mean()))
            table[name + "_stderr"].append(standard_error(values))
    config = {
        "command": "multi-sim",
        "classes": ";".join(f"{c.p},{c.q},{c.r},{frac}" for c, frac in classes),
        "n-list": ",".join(str(n) for n in opts["n-list"]),
        "m-rule": m_rule,
        "horizon": horizon,
        "seeds": ",".join(str(s) for s in seeds),
        "normalization": "per-slot fleet totals divided by N",
    }
    _emit(args.out, config, table, args.format)
    return 0


def cmd_whittle_table(args, opts) -> int:
    """per-state priority index table"""
    k_max, subsystems = opts["k-max"], opts["params"]
    ages = k_max + 1
    if not 0 < ages <= MAX_GRID_POINTS // len(subsystems):  # at most MAX_GRID_POINTS rows
        raise ConfigError(f"--k-max must be from 0 to {MAX_GRID_POINTS // len(subsystems) - 1} "
                          f"for {len(subsystems)} --params, got {k_max}")
    if opts["method"] == "iterative" and len(subsystems) * ages > _ITERATIVE_K_MAX + 1:
        raise ConfigError(f"--method iterative builds at most {_ITERATIVE_K_MAX + 1} rows in all, "
                          f"got {len(subsystems) * ages} ({len(subsystems)} --params at "
                          f"--k-max {k_max})")
    build = whittle_table_closed if opts["method"] == "closed" else whittle_index_iterative
    table = {
        "subsystem_id": np.repeat(np.arange(len(subsystems)), ages),
        "k": np.tile(np.arange(ages), len(subsystems)),
        "s_k": np.concatenate([eaoii_ladder(params, ages) for params in subsystems]),
        "W": np.concatenate([build(params, k_max) for params in subsystems]),
    }
    config = {
        "command": "whittle-table",
        "params": ";".join(f"{p.p},{p.q},{p.r}" for p in subsystems),
        "k-max": k_max,
        "method": opts["method"],
    }
    _emit(args.out, config, table, args.format)
    return 0


def cmd_sim(args, opts) -> int:
    """ad-hoc single-source simulation"""
    params, lam, horizon, seed = opts["params"], opts["lambda"], opts["horizon"], opts["seed"]
    policy = _parse_policy(opts["policy"])
    _check_cost(lam)  # before the slot loop, not after it
    trace = single_trace(params, policy, horizon, seed)
    stats = summarize_trace(params, trace, lam, seed)
    config = {"command": "sim", **_header(opts)}
    fields = ["slots", "seed", "lam", "avg_reward", "avg_eaoii", "avg_true_aoii", "avg_aat",
              "se_reward", "se_eaoii", "se_true_aoii", "se_aat"]
    table = {"lambda" if name == "lam" else name: [getattr(stats, name)] for name in fields}
    _emit(args.out, config, table, args.format)
    if args.trace is not None:
        trace = {"slot": np.arange(horizon), "subsystem_id": np.broadcast_to(0, horizon), **trace}
        _emit(args.trace, config, trace, "csv")
    return 0


# --- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoii-jam",
        description="Jamming-policy analysis against AoII-based monitoring",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        handler = globals()["cmd_" + command.replace("-", "_")]
        sub = subs.add_parser(command, help=handler.__doc__)
        sub.add_argument("--config", help="JSON config file; flags override its values")
        sub.add_argument("--out", help="output file (default stdout)")
        if command != "verify":  # verify writes its JSON report whatever the format
            sub.add_argument("--format", choices=("csv", "json"), default="csv")
        for name, (_, _, keywords) in options.items():
            sub.add_argument("--" + name, **keywords)
        if command == "sim":
            sub.add_argument("--trace", help="also write a per-slot trace CSV to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args, _resolve(args))
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
