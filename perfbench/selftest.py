"""Self-test of the benchmark at tiny sizes: the checks fail on bad output, tracing covers its layers.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from aoii_jam import cli, core, sim  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"
PARAMS = core.SubsystemParams(0.9, 0.9, 0.1)


def write_csv(path: Path, header: str, rows: list[tuple]) -> Path:
    lines = ["# made by selftest", header]
    lines += [",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def sweep_rows() -> list[list]:
    """A sweep output with the closed form standing in for every simulated column."""
    rows = []
    for i in range(0, 10_001, 10):
        lam = 0.0 + 0.001 * i
        policy = core.optimal_threshold(PARAMS, lam)
        if policy.is_finite:
            closed, cell = core.steady_reward(PARAMS, policy.threshold, lam), str(policy.threshold)
        else:
            closed, cell = core.avg_eaoii_no_jam(PARAMS), "INF"
        rows.append([lam, closed, closed, closed - 1.0, cell])
    return rows


def curve_rows() -> list[list]:
    rows = []
    for i in range(10_001):
        lam = 0.0 + 0.001 * i
        policy = core.optimal_threshold(PARAMS, lam)
        rows.append([lam, str(policy.threshold) if policy.is_finite else "INF"])
    return rows


SWEEP_HEADER = "lambda,optimal_reward_closed,optimal_reward_sim,random_reward_sim,threshold_n"
FLEET_HEADER = "N,whittle_avg_aoii,whittle_stderr,random_avg_aoii,random_stderr"


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        cls.sweep = sweep_rows()
        cls.curve = curve_rows()

    def failures(self, command, name, header, rows):
        tally = workloads.check_output(command, write_csv(SCRATCH / name, header, rows))
        return tally.failed, tally.messages

    def test_sweep_good_output_passes(self):
        self.assertEqual(self.failures("sweep-lambda", "s.csv", SWEEP_HEADER, self.sweep), (0, []))

    def test_sweep_corruptions_each_fail_one_row(self):
        finite = next(i for i, row in enumerate(self.sweep) if row[4] not in ("0", "INF"))
        inf = next(i for i, row in enumerate(self.sweep) if row[4] == "INF")
        corruptions = {
            "threshold off by one": (finite, 4, str(int(self.sweep[finite][4]) + 1)),
            "finite threshold past the limit": (inf, 4, "3"),
            "INF reward off the no-jam average": (inf, 1, self.sweep[inf][1] + 1e-12),
            "simulation beyond tolerance": (finite, 2, self.sweep[finite][1] + 0.2),
            "random above optimal": (finite, 3, self.sweep[finite][1] + 0.01),
        }
        for label, (row, col, value) in corruptions.items():
            with self.subTest(label):
                rows = [list(r) for r in self.sweep]
                rows[row][col] = value
                failed, _ = self.failures("sweep-lambda", "s.csv", SWEEP_HEADER, rows)
                self.assertEqual(failed, 1)

    def test_fleet_whittle_below_random_fails(self):
        rows = [[n, 0.88, 0.002, 0.52, 0.001] for n in workloads.FLEET_SIZES]
        self.assertEqual(self.failures("multi-sim", "f.csv", FLEET_HEADER, rows)[0], 0)
        rows[2] = [rows[2][0], 0.50, 0.002, 0.52, 0.001]
        self.assertEqual(self.failures("multi-sim", "f.csv", FLEET_HEADER, rows)[0], 1)
        rows[2] = [rows[2][0], float("nan"), 0.002, 0.52, 0.001]
        self.assertEqual(self.failures("multi-sim", "f.csv", FLEET_HEADER, rows)[0], 1)

    def test_curve_corruptions_fail(self):
        self.assertEqual(self.failures("threshold-curve", "c.csv", "lambda,threshold_n",
                                       self.curve), (0, []))
        limit = core.lambda_limit(PARAMS)
        first_inf = next(i for i, row in enumerate(self.curve) if row[1] == "INF")
        self.assertGreaterEqual(self.curve[first_inf][0], limit)
        rows = [list(r) for r in self.curve]
        rows[first_inf - 1][1] = "INF"  # INF one grid step before lambda_limit
        rows[100][1] = "7"  # threshold 0 region
        failed, _ = self.failures("threshold-curve", "c.csv", "lambda,threshold_n", rows)
        self.assertEqual(failed, 2)

    def test_verify_report_with_failed_check_fails(self):
        out = SCRATCH / "v.json"
        self.assertEqual(cli.main(["verify", "--checks", "eaoii_identities,kernel_stochastic",
                                   "--out", str(out)]), 0)
        self.assertEqual(workloads.check_output("verify", out).failed, 0)
        report = json.loads(out.read_text())
        report["checks"][1]["passed"] = False
        out.write_text(json.dumps(report))
        self.assertEqual(workloads.check_output("verify", out).failed, 1)

    def test_unreadable_output_is_one_failure(self):
        tally = workloads.check_output("multi-sim", SCRATCH / "absent.csv")
        self.assertEqual((tally.attempted, tally.failed), (1, 1))


class TracerTest(unittest.TestCase):
    def test_spans_cover_a_tiny_sweep_and_uninstall_restores(self):
        original = (cli.simulate_single, sim.single_trace, core.optimal_threshold)
        tracer = spans.Tracer()
        tracer.run_id = "tiny"
        out = SCRATCH / "tiny.csv"
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tracer:
            self.assertIsNot(cli.simulate_single, original[0])
            code = cli.main(["sweep-lambda", "--params", "0.9,0.9,0.1", "--lambda-step", "1",
                             "--horizon", "500", "--seed", "1", "--full", "--out", str(out)])
        self.assertEqual(code, 0)
        self.assertEqual((cli.simulate_single, sim.single_trace, core.optimal_threshold), original)
        self.assertEqual(tracer.missing, [])
        names = {span[0] for span in tracer.spans}
        self.assertLessEqual({"cli.sweep-lambda", "sim.simulate_single", "sim.single_trace",
                              "sim.tables", "core.optimal_threshold"}, names)
        own = spans.self_times(tracer.spans)
        for span, self_ns in zip(tracer.spans, own):
            self.assertTrue(0 <= self_ns <= span[2] - span[1])
        metrics, missing = spans.layer_metrics(tracer.spans, {})
        policies = {core.optimal_threshold(PARAMS, float(lam)) for lam in range(11)}
        self.assertEqual(metrics["sim.single_trace.calls"][0], len(policies) + 1)  # + random
        self.assertIn("verify.run_checks.self_s", missing)
        self.assertNotIn("verify.run_checks.self_s", metrics)

    def test_absent_target_is_reported_missing(self):
        saved = list(spans.TARGETS)
        spans.TARGETS.append(("sim", "no_such_function", "sim.gone", None, None))
        try:
            tracer = spans.Tracer()
            with tracer:
                pass
        finally:
            spans.TARGETS[:] = saved
        self.assertEqual(tracer.missing, ["sim.no_such_function"])

    def test_no_spans_means_every_metric_missing(self):
        metrics, missing = spans.layer_metrics([], {})
        self.assertEqual(metrics, {})
        self.assertEqual(len(missing), len(set(missing)))


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], spans.layer_metrics([], {})[1])
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["wall_s", "setup_s", "peak_rss_mb"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_exits_nonzero_without_the_package(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 2)
        self.assertIn("package source not found", done.stderr)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
