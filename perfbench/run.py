#!/usr/bin/env python3
"""Benchmark of the aoii-jam CLI: end-to-end runs and a separate traced run.

    python3 perfbench/run.py --workload single --seed 0 --seconds 50 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m aoii_jam`` process, repeated until the next repetition would
overrun ``--seconds``; the result gives the median wall time and peak
resident set per repetition, and the median of 20 fresh-interpreter set-up
times. With ``--trace 1`` every command of both workloads runs in this
process four times, untraced, traced (``spans.py``), traced and untraced,
whatever ``--workload`` names: every per-layer metric is reported on every
traced run, and most layers are reached by one workload only.
``--workload all`` runs both workloads untraced and prints one table.

Every output is checked after it is produced (``workloads.py``). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with provenance and output
digests, goes to ``.perfbench/result-<workload>-seed<seed>-trace<0|1>.json``.
The exit code is 1 if any check failed and 2 if the package source is not
there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Fresh interpreters timed for setup_s in one run. They are taken between
# command invocations, in step with the measured time, so that they spread
# over the run like the repetitions do. One untimed warm-up first compiles
# bytecode and fills the file cache.
SETUP_SAMPLES = 20
SETUP_CODE = (
    "import time; t = time.perf_counter(); import aoii_jam.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t)"
)


# One BLAS thread per process: the package's largest matrix product is a
# few hundred long, and starting a second OpenBLAS thread adds about 60 ms
# and most of the run-to-run noise to every numpy import.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_VARS)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_process(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Wall seconds from launch to exit, peak RSS in MB, and exit code."""
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def sample_setup(samples: list[float], due: int):
    """Add set-up samples until there are ``due`` of them (at most SETUP_SAMPLES)."""
    while len(samples) < min(due, SETUP_SAMPLES):
        samples.append(measure_setup())


class Checked:
    """Sums check results over repetitions; equal output bytes are checked once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._verdicts: dict[tuple[str, str], workloads.Tally] = {}

    def add(self, tally: workloads.Tally):
        self.attempted += tally.attempted
        self.failed += tally.failed
        for message in tally.messages:
            if len(self.messages) < 20 and message not in self.messages:
                self.messages.append(message)

    def output(self, command: str, path: Path, digest: str | None):
        if digest is None:
            tally = workloads.Tally()
            tally.op(False, f"{command}: no output")
        else:
            key = (command, digest)
            if key not in self._verdicts:
                self._verdicts[key] = workloads.check_output(command, path)
            tally = self._verdicts[key]
        self.add(tally)

    def op(self, ok: bool, message: str):
        tally = workloads.Tally()
        tally.op(ok, message)
        self.add(tally)


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    work = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = workloads.commands(workload, seed, work)
    measure_setup()

    checked = Checked()
    reps = []
    setup = []
    measured = 0.0
    while True:
        rep = {"wall_s": 0.0, "peak_rss_mb": 0.0, "command_wall_s": {}, "outputs": {}}
        for command, argv, out in cmds:
            out.unlink(missing_ok=True)
            wall, rss, code = run_process([sys.executable, "-m", "aoii_jam", *argv],
                                          work / f"{command}.stderr")
            rep["wall_s"] += wall
            rep["command_wall_s"][command] = wall
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
            digest = sha256(out) if code == 0 and out.exists() else None
            rep["outputs"][command] = digest
            checked.output(command, out, digest)
            sample_setup(setup, math.ceil(SETUP_SAMPLES * (measured + rep["wall_s"]) / seconds))
        reps.append(rep)
        measured += rep["wall_s"]
        if measured + rep["wall_s"] > seconds:
            break
    sample_setup(setup, SETUP_SAMPLES)
    for command, _, _ in cmds:
        digests = {rep["outputs"][command] for rep in reps}
        checked.op(len(digests) == 1, f"{command}: output differs between repetitions")

    walls = [rep["wall_s"] for rep in reps]
    rss = [rep["peak_rss_mb"] for rep in reps]
    return {
        "mode": "untraced",
        "workload": workload,
        **workloads.seed_record(workload, seed),
        "commands": [["aoii-jam", *argv] for _, argv, _ in cmds],
        "repetitions": len(reps),
        "metrics": {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        },
        "samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss},
        "command_wall_s": {command: statistics.median(rep["command_wall_s"][command] for rep in reps)
                           for command, _, _ in cmds},
        "outputs_sha256": reps[0]["outputs"],
        **outcome(checked),
    }


def outcome(checked: Checked) -> dict:
    return {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "error_rate": checked.failed / max(checked.attempted, 1),
        "failures": checked.messages,
    }


def run_inprocess(cli, argv: list[str], out: Path) -> tuple[float, str | None]:
    """Seconds spent in ``cli.main`` on one command, and its output digest."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, sha256(out) if code == 0 and out.exists() else None


def run_traced(seed: int) -> dict:
    import aoii_jam.cli as cli
    import spans

    tracer = spans.Tracer()
    checked = Checked()
    overhead = {}
    outputs = {}
    for workload in workloads.WORKLOADS:
        work = OUT / f"trace-seed{seed}" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        tracer.run_id = workload
        plain_s = traced_s = 0.0
        for command, argv, out in workloads.commands(workload, seed, work):
            # Untraced, traced, traced, untraced: first-call costs and a
            # steady drift of the host fall on both sides alike. Only the
            # first traced pass keeps its spans.
            digests = set()
            for recorder in (None, tracer, spans.Tracer(), None):
                if recorder is None:
                    elapsed, digest = run_inprocess(cli, argv, out)
                    plain_s += elapsed
                else:
                    with recorder:
                        elapsed, digest = run_inprocess(cli, argv, out)
                    traced_s += elapsed
                if recorder is tracer:
                    checked.output(command, out, digest)
                    outputs[command] = digest
                digests.add(digest)
            checked.op(len(digests) == 1 and None not in digests,
                       f"{command}: traced and untraced passes wrote different outputs")
        overhead[workload] = traced_s / plain_s - 1.0

    span_file = OUT / f"spans-seed{seed}.json"
    tracer.write(span_file)
    layer, missing = spans.layer_metrics(tracer.spans, overhead)
    return {
        "mode": "traced",
        "workload": "+".join(workloads.WORKLOADS),
        "seed": seed,
        "seeds": {w: workloads.seed_record(w, seed) for w in workloads.WORKLOADS},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()},
        "missing": tracer.missing + missing,
        "spans_file": str(span_file.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "outputs_sha256": outputs,
        **outcome(checked),
    }


def provenance() -> dict:
    import numpy
    import aoii_jam

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "aoii_jam": getattr(aoii_jam, "__version__", None),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


def summary_lines(result: dict) -> list[str]:
    lines = [f"{result['workload']}  seed={result['seed']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:58s} {metric['value']:.6g} {metric['unit']}")
    for command, wall in result.get("command_wall_s", {}).items():
        lines.append(f"    {command:56s} {wall:.6g} s (median, not gated)")
    lines.append(f"  {'error_rate':58s} {result['error_rate']:.6g} "
                 f"({result['failed']} failed / {result['attempted']} attempted)")
    for message in result["failures"]:
        lines.append(f"  FAILED: {message}")
    for name in result.get("missing", []):
        lines.append(f"  MISSING: {name}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "aoii_jam" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(THREAD_VARS)  # before numpy is imported in this process
    OUT.mkdir(exist_ok=True)

    if args.trace:
        results = [run_traced(args.seed)]
    elif args.workload == "all":
        results = [run_untraced(w, args.seed, args.seconds) for w in workloads.WORKLOADS]
    else:
        results = [run_untraced(args.workload, args.seed, args.seconds)]
    info = provenance()
    for result in results:
        result["provenance"] = info
        result["run_seconds"] = args.seconds
        print("\n".join(summary_lines(result)))

    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as handle:
        json.dump(results if len(results) > 1 else results[0], handle, indent=1, sort_keys=True)
    correct = all(r["correct"] for r in results)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
