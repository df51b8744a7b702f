#!/usr/bin/env python3
"""Compare result files written by ``run.py``: medians, quartile spreads and output digests.

    python3 perfbench/compare.py --base .perfbench/a/*.json --new .perfbench/b/*.json

Each side is one or more result files (one per run and seed). For every
workload and metric present on both sides it prints each side's median, the
base side's quartile spread as a share of its median, and the change of the
median. For end-to-end metrics it applies the bound from ``BENCHMARK.json``:
``worse`` when the new median is worse by more than the bound, ``unresolved``
when the base spread is wider than the bound. It then lists the outputs
whose sha256 differs between the sides at equal seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(paths: list[Path]) -> list[dict]:
    results = []
    for path in paths:
        data = json.loads(path.read_text())
        results.extend(data if isinstance(data, list) else [data])
    return results


def by_metric(results: list[dict]) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for result in results:
        for name, metric in result["metrics"].items():
            values[(result["workload"], name)].append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(name: str, base: list[float], change: float) -> str:
    if name not in BOUNDS:
        return ""
    bound = BOUNDS[name]["bound"]
    worse = change if BETTER[name] == "lower" else -change
    if spread(base) > bound:
        return "unresolved"
    return "worse" if worse > bound else "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args()
    base_results, new_results = load(args.base), load(args.new)
    base, new = by_metric(base_results), by_metric(new_results)

    print(f"{'workload':22s} {'metric':58s} {'base':>11s} {'spread':>7s} {'new':>11s} "
          f"{'change':>8s}")
    regressions = 0
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else float("nan")
        mark = verdict(key[1], base[key], change)
        regressions += mark == "worse"
        print(f"{key[0]:22s} {key[1]:58s} {b:11.5g} {spread(base[key]):7.1%} {n:11.5g} "
              f"{change:+8.1%} {mark}")

    digests = defaultdict(dict)
    for side, results in (("base", base_results), ("new", new_results)):
        for result in results:
            for command, digest in result["outputs_sha256"].items():
                digests[(result["seed"], command)][side] = digest
    for (seed, command), sides in sorted(digests.items()):
        if len(sides) == 2 and sides["base"] != sides["new"]:
            print(f"output changed: {command} at seed {seed}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
