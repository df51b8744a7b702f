import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoii_jam.cli as cli_mod
import aoii_jam.core as core_mod
import aoii_jam.oracle as oracle_mod
import aoii_jam.whittle as whittle_mod
from aoii_jam.cli import main
from aoii_jam.core import INFINITE, SubsystemParams, avg_eaoii_no_jam, lambda_limit, steady_reward
import aoii_jam.verify as verify_mod
from aoii_jam.verify import CHECKS, default_grid, run_checks
from reference import render_table


class TestVerifySuite:
    def test_report_follows_registry(self, monkeypatch):
        # Every check runs once, in registry order, under its registry name
        # and tolerance; a check only reports its worst error and witness.
        for name, (_, tol) in list(CHECKS.items()):
            worst = tol / 2 if name != "indexability" else tol + 1.0
            state = (worst, {"check": name})
            monkeypatch.setitem(CHECKS, name, (lambda grid, state=state: state, tol))
        report = run_checks(grid=[])
        assert len(CHECKS) == 22
        assert [(c["name"], c["tolerance"]) for c in report["checks"]] == [
            (name, tol) for name, (_, tol) in CHECKS.items()
        ]
        assert all(c["witness"] == {"check": c["name"]} for c in report["checks"])
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["indexability"]
        assert not report["passed"]

    def test_grid_is_large_enough(self):
        grid = default_grid()
        assert len(grid) >= 50
        assert any(p.q == 0.0 for p in grid)
        assert any(p.r == 0.5 for p in grid)
        assert any(p.p == 1.0 for p in grid)

    def test_selected_checks_run(self):
        report = run_checks(names=["eaoii_identities", "kernel_stochastic"])
        assert [c["name"] for c in report["checks"]] == [
            "eaoii_identities",
            "kernel_stochastic",
        ]
        assert report["passed"]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_checks(names=["no_such_check"])

    def test_empty_selection_rejected(self, capsys):
        with pytest.raises(ValueError, match="no checks selected"):
            run_checks(names=[])
        assert run_cli("verify", "--checks", ",") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: no checks selected"]

    def test_every_check_is_a_generator_behind_the_one_reducer(self):
        checks = {name: func for name, func in vars(verify_mod).items()
                  if name.startswith("check_") and inspect.isfunction(func)}
        assert len(checks) == len(CHECKS)
        assert all(inspect.isgeneratorfunction(func) for func in checks.values())
        registered = [func.__wrapped__ for func, _ in CHECKS.values()]
        assert sorted(func.__name__ for func in registered) == sorted(checks)
        assert all(checks[func.__name__] is func for func in registered)

    def test_nan_error_fails_its_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core_mod, "avg_eaoii_closed", lambda p, n: math.nan)
        report = run_checks(names=["avg_eaoii_closed_vs_numeric"])
        check = report["checks"][0]
        assert not check["passed"] and not report["passed"]
        assert math.isnan(check["worst_error"])
        assert {"p", "q", "r", "n"} <= set(check["witness"])
        out = tmp_path / "report.json"
        assert run_cli("verify", "--checks", "avg_eaoii_closed_vs_numeric", "--out", str(out)) == 1
        written = json.loads(out.read_text())["checks"][0]
        assert not written["passed"] and math.isnan(written["worst_error"])

    def test_corrupted_formula_fails_with_witness(self, monkeypatch):
        real = core_mod.avg_eaoii_closed
        monkeypatch.setattr(core_mod, "avg_eaoii_closed", lambda p, n: real(p, n) * 1.001)
        report = run_checks(names=["avg_eaoii_closed_vs_numeric"])
        assert not report["passed"]
        witness = report["checks"][0]["witness"]
        assert {"p", "q", "r", "n"} <= set(witness)

    def test_index_table_one_ulp_off_fails(self, monkeypatch):
        # The index table and lambda_seq of an age array agree to the bit, so
        # the check's tolerance is 0 and one ulp at any age fails it.
        assert run_checks(names=["whittle_closed_equals_lambda"])["passed"]
        real = whittle_mod.whittle_table_closed

        def nudged(params, n_max):
            table = real(params, n_max)
            table[5] = np.nextafter(table[5], np.inf)
            return table

        monkeypatch.setattr(whittle_mod, "whittle_table_closed", nudged)
        check = run_checks(names=["whittle_closed_equals_lambda"])["checks"][0]
        assert not check["passed"]
        assert 0.0 < check["worst_error"] < 1e-15
        assert check["witness"]["n"] == 5

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_brute_check_builds_one_curve_per_triple(self, monkeypatch):
        curves = self.counted(monkeypatch, oracle_mod, "steady_reward")
        brutes = self.counted(monkeypatch, oracle_mod, "brute_force_threshold")
        report = run_checks(names=["optimal_threshold_vs_brute"])
        assert report["passed"]
        # 60 triples with p < 1, each with all its probe costs in one call.
        assert len(curves) == len(brutes) == 60

    def test_power_iteration_solves_each_p_q_n_once(self, monkeypatch):
        solves = self.counted(monkeypatch, oracle_mod, "stationary_pmf_numeric")
        report = run_checks(names=["stationary_vs_power_iteration"])
        assert report["passed"]
        keys = [(params.p, params.q, n) for params, n, _ in solves]
        assert len(keys) == len(set(keys)) == 24 * 5

    def test_every_check_passes_on_the_default_grid(self):
        report = run_checks()
        assert [c["name"] for c in report["checks"]] == list(CHECKS)
        failed = [(c["name"], c["worst_error"], c["witness"])
                  for c in report["checks"] if not c["passed"]]
        assert failed == []
        assert report["passed"]

    def test_selection_tie_to_the_higher_channel_fails_with_witness(self, monkeypatch):
        real = whittle_mod.jam_mask

        def tie_to_higher(keys, budget):
            n = keys.shape[-1]
            return real(keys // n * n + (n - 1 - keys % n), budget)

        monkeypatch.setattr(whittle_mod, "jam_mask", tie_to_higher)
        check = run_checks(names=["select_jam_set_vs_sort"])["checks"][0]
        assert not check["passed"]
        assert {"fleet_size", "budget", "ages"} == set(check["witness"])

    def test_broken_property_reports_infinity_and_the_first_witness(self, monkeypatch):
        real_mask, real_select = whittle_mod.jam_mask, whittle_mod.select_jam_set
        masks, cases = [], []

        def tie_to_higher(keys, budget):
            n = keys.shape[-1]
            out = real_mask(keys // n * n + (n - 1 - keys % n), budget)
            masks.extend(out)
            return out

        def recorded(fleet, ages):
            chosen = real_select(fleet, ages)
            expected = set(np.flatnonzero(masks[len(cases)]).tolist())
            cases.append(({"fleet_size": fleet.size, "budget": fleet.budget,
                           "ages": np.asarray(ages).tolist()}, chosen != expected))
            return chosen

        monkeypatch.setattr(whittle_mod, "jam_mask", tie_to_higher)
        monkeypatch.setattr(whittle_mod, "select_jam_set", recorded)
        report = run_checks(names=["select_jam_set_vs_sort"])
        check = report["checks"][0]
        failing = [witness for witness, failed in cases if failed]
        assert len(failing) > 1 and failing[0] != failing[-1]
        assert check["worst_error"] == math.inf
        assert not check["passed"] and not report["passed"]
        assert check["witness"] == failing[0]

    def test_kernel_stochastic_reports_a_row_outside_0_1(self, monkeypatch, tmp_path):
        # One age of one case resets with probability above 1, so its row
        # moves up with a negative probability: the check must say Infinity there.
        real = oracle_mod._threshold_kernel_sigma
        broken = default_grid()[7]

        def sigma(params, n, cap):
            out = real(params, n, cap)
            if params == broken and n == 2:
                out[5] = 1.0 + 2.0**-52
            return out

        monkeypatch.setattr(verify_mod, "_threshold_kernel_sigma", sigma)
        out = tmp_path / "report.json"
        assert run_cli("verify", "--checks", "kernel_stochastic", "--out", str(out)) == 1
        assert '"worst_error": Infinity' in out.read_text()
        check = json.loads(out.read_text())["checks"][0]
        assert check["worst_error"] == math.inf and not check["passed"]
        assert check["witness"] == {"p": broken.p, "q": broken.q, "r": broken.r, "n": 2, "k": 5}


def run_cli(*argv):
    return main(list(argv))


class TestCliCommands:
    def test_verify_subcommand_exit_codes(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        code = run_cli("verify", "--checks", "eaoii_identities,kernel_stochastic",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"]
        # Negative control: a corrupted closed form must flip the exit code.
        real = core_mod.avg_eaoii_closed
        monkeypatch.setattr(core_mod, "avg_eaoii_closed", lambda p, n: real(p, n) + 1e-3)
        code = run_cli("verify", "--checks", "avg_eaoii_closed_vs_numeric",
                       "--out", str(out))
        assert code == 1
        report = json.loads(out.read_text())
        assert not report["passed"]

    def test_verify_takes_no_format(self, tmp_path, capsys):
        # verify always writes its JSON report, so it has no --format to ignore.
        out = tmp_path / "report.json"
        for fmt in ("csv", "json"):
            with pytest.raises(SystemExit) as exc:
                run_cli("verify", "--checks", "kernel_stochastic", "--format", fmt, "--out", str(out))
            assert exc.value.code == 2
            assert f"unrecognized arguments: --format {fmt}" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("whittle-table", "--params", "0.9,0.9,0.1", "--k-max", "2",
                       "--format", "json", "--out", str(out)) == 0

    def test_sweep_lambda_schema_and_decimation(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep-lambda", "--params", "0.9,0.9,0.1",
            "--lambda-min", "0", "--lambda-max", "2", "--lambda-step", "0.1",
            "--horizon", "4000", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "lambda",
            "optimal_reward_closed",
            "optimal_reward_sim",
            "random_reward_sim",
            "threshold_n",
        ]
        # 21 grid points decimated to every 10th -> 3 rows.
        assert len(lines) - 1 == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[4] == "0"

    def test_sweep_lambda_full_flag(self, tmp_path):
        out = tmp_path / "sweep_full.csv"
        run_cli(
            "sweep-lambda", "--params", "0.9,0.9,0.1",
            "--lambda-min", "0", "--lambda-max", "2", "--lambda-step", "0.1",
            "--horizon", "4000", "--seed", "3", "--full", "--out", str(out),
        )
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) - 1 == 21

    def test_threshold_curve_monotone_and_inf_onset(self, tmp_path):
        out = tmp_path / "curve.csv"
        params = SubsystemParams(0.9, 0.9, 0.1)
        code = run_cli(
            "threshold-curve", "--params", "0.9,0.9,0.1",
            "--lambda-min", "0", "--lambda-max", "6", "--lambda-step", "0.01",
            "--full", "--out", str(out),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("lambda")
        ]
        limit = lambda_limit(params)
        previous = -1
        for lam_text, cell in rows:
            lam = float(lam_text)
            if cell == "INF":
                assert lam >= limit
                previous = np.inf
            else:
                assert lam < limit
                assert int(cell) >= previous
                previous = int(cell)

    def test_threshold_curve_useless_jammer_is_all_inf(self, tmp_path):
        out = tmp_path / "curve_q0.csv"
        run_cli(
            "threshold-curve", "--params", "0.9,0.0,0.1",
            "--lambda-min", "0", "--lambda-max", "1", "--lambda-step", "0.5",
            "--full", "--out", str(out),
        )
        cells = [
            line.split(",")[1]
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("lambda")
        ]
        assert cells == ["INF", "INF", "INF"]

    def test_whittle_table_zero_without_jamming_power(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_cli(
            "whittle-table", "--params", "0.5,0.0,0.25", "--k-max", "10",
            "--out", str(out),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("subsystem_id")
        ]
        assert len(rows) == 11
        assert all(float(row[3]) == 0.0 for row in rows)

    def test_whittle_table_methods_agree(self, tmp_path):
        closed_out = tmp_path / "closed.csv"
        iterative_out = tmp_path / "iterative.csv"
        for method, path in (("closed", closed_out), ("iterative", iterative_out)):
            run_cli(
                "whittle-table", "--params", "0.8,0.8,0.2", "--k-max", "40",
                "--method", method, "--out", str(path),
            )

        def values(path):
            return [
                float(line.split(",")[3])
                for line in path.read_text().splitlines()
                if line and not line.startswith("#") and not line.startswith("subsystem_id")
            ]

        closed = np.array(values(closed_out))
        iterative = np.array(values(iterative_out))
        assert np.max(np.abs(closed - iterative)) < 1e-8

    def test_multi_sim_schema_and_class_split_error(self, tmp_path):
        out = tmp_path / "multi.csv"
        code = run_cli(
            "multi-sim",
            "--classes", "0.2,0.2,0.4,0.5;0.8,0.8,0.2,0.5",
            "--n-list", "4", "--horizon", "2000", "--seeds", "0,1",
            "--out", str(out),
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",") == [
            "N", "whittle_avg_aoii", "whittle_stderr", "random_avg_aoii", "random_stderr",
        ]
        # Odd fleet size cannot be split 50/50.
        code = run_cli(
            "multi-sim",
            "--classes", "0.2,0.2,0.4,0.5;0.8,0.8,0.2,0.5",
            "--n-list", "5", "--horizon", "1000", "--seeds", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("classes, bad", [
        ("0.2,0.2,0.4,1.5;0.8,0.8,0.2,-0.5", "1.5"), ("0.2,0.2,0.4,0.5;0.8,0.8,0.2,nan", "nan")])
    def test_multi_sim_refuses_a_class_fraction_outside_0_1(self, classes, bad, monkeypatch, capsys):
        # 1.5 and -0.5 sum to 1, and NaN passes the sum check; each is refused
        # before any fleet is simulated.
        def simulate(*args):
            pytest.fail("simulated a fleet with a refused class fraction")

        monkeypatch.setattr(cli_mod, "simulate_multi_batch", simulate)
        assert run_cli("multi-sim", "--classes", classes, "--n-list", "4,8", "--m-rule", "1") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: class fraction {bad} is not in [0, 1]"]

    def test_sim_stats_and_trace(self, tmp_path):
        out = tmp_path / "stats.json"
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "sim", "--params", "0.9,0.9,0.1", "--policy", "threshold:2",
            "--lambda", "1.0", "--horizon", "500", "--seed", "11",
            "--format", "json", "--out", str(out), "--trace", str(trace),
        )
        assert code == 0
        stats = json.loads(out.read_text())
        row = stats["rows"][0]
        assert row["slots"] == 500
        assert 0.0 <= row["avg_aat"] <= 1.0
        lines = trace.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx].split(",") == [
            "slot", "subsystem_id", "age_index", "true_aoii", "jammed", "delivered",
        ]
        assert len(lines) - header_idx - 1 == 500

    def test_invalid_params_exit_code(self, tmp_path, capsys):
        assert run_cli("sim", "--params", "2.0,0.9,0.1", "--horizon", "10") == 2
        assert run_cli("sweep-lambda") == 2
        assert run_cli("threshold-curve", "--params", "0.9,0.9,0.1", "--lambda-max", "inf") == 2
        assert run_cli("sim", "--params", "0.9,0.9,0.1", "--lambda", "nan", "--horizon", "10") == 2
        configs = {
            "threshold-curve": '{"params": "0.9,0.9,0.1", "lambda-min": "0.5"}',
            "sim": '{"params": "0.9,0.9,0.1", "horizon": Infinity}',
        }
        for command, text in configs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(text)
            assert run_cli(command, "--config", str(cfg)) == 2
        # Config keys are the long flag names; anything else is rejected.
        cfg = tmp_path / "lam.json"
        cfg.write_text('{"params": "0.9,0.9,0.1", "lam": 1.0}')
        assert run_cli("sim", "--config", str(cfg), "--horizon", "10") == 2
        # A grid of 10^12 points is refused before anything is allocated.
        assert run_cli("threshold-curve", "--params", "0.9,0.9,0.1",
                       "--lambda-max", "1e9", "--lambda-step", "1e-3") == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 8
        assert all(line.startswith("error: ") for line in errors)
        assert errors[-1].startswith("error: --lambda-step: ")

    def test_params_too_small_for_the_closed_forms(self, capsys):
        # lambda_limit divides by r (1 - (1-r)(1-p)): 0.5 * 5e-324 rounds to
        # 0, and at p = r = 1e-200 the bracket does. Each triple is refused
        # when it is parsed, the fleet class too, with one error line.
        for triple in ("0.5,0.5,5e-324", "1e-200,0.5,1e-200"):
            assert run_cli("whittle-table", "--params", triple, "--k-max", "2") == 2
        assert run_cli("multi-sim", "--classes", "1e-200,0.5,1e-200,1", "--n-list", "2",
                       "--horizon", "10") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --params: p=0.5, q=0.5, r=5e-324: the closed forms are not finite",
            "error: --params: p=1e-200, q=0.5, r=1e-200: the closed forms are not finite",
            "error: --classes: p=1e-200, q=0.5, r=1e-200: the closed forms are not finite",
        ]

    def test_params_whose_one_minus_p_rounds_to_one(self, capsys):
        # 1 - 1e-17 is 1.0 in floats, so the pairwise tie ratios divide by 0:
        # the triple is refused when it is parsed, in every command.
        assert run_cli("whittle-table", "--params", "1e-17,0.5,0.1", "--k-max", "3",
                       "--method", "iterative") == 2
        assert run_cli("multi-sim", "--classes", "1e-17,0.5,0.1,1", "--n-list", "2",
                       "--m-rule", "1", "--horizon", "100", "--seeds", "0") == 2
        assert run_cli("sim", "--params", "1e-17,0.5,0.1", "--horizon", "100") == 2
        message = "p=1e-17, q=0.5, r=0.1: the closed forms are not finite"
        assert capsys.readouterr().err.splitlines() == [
            f"error: --params: {message}", f"error: --classes: {message}", f"error: --params: {message}"]

    def test_params_whose_one_minus_r_rounds_to_one(self, capsys):
        # 1 - 1e-17 is 1.0 in floats, so lambda_seq is 0 at every threshold and
        # the threshold search would gallop until a power overflows: the triple
        # is refused when it is parsed, by name.
        assert run_cli("threshold-curve", "--params", "0.5,0.5,1e-17", "--lambda-max", "1",
                       "--lambda-step", "0.5", "--full") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --params: p=0.5, q=0.5, r=1e-17: the closed forms are not finite"]

    def test_horizon_over_cap_exits_before_drawing(self, tmp_path, capsys):
        # 10^12 slots of uniforms would not fit in memory, so exit 2 with one
        # error line shows the horizon was refused before anything was drawn.
        huge = "1000000000000"
        assert run_cli("sim", "--params", "0.9,0.9,0.1", "--horizon", huge) == 2
        assert run_cli("sim", "--params", "0.9,0.9,0.1", "--horizon", huge,
                       "--trace", str(tmp_path / "trace.csv")) == 2
        assert run_cli("sweep-lambda", "--params", "0.9,0.9,0.1", "--horizon", huge) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: horizon must be at most 10000000, got {huge}"] * 3
        assert not (tmp_path / "trace.csv").exists()

    def test_seeds_must_be_distinct_and_non_negative(self, tmp_path, monkeypatch, capsys):
        # A repeated seed repeats its run, so --seeds 1,1 would print a
        # standard error of exactly 0; each refusal comes before any run.
        def simulate(*args):
            pytest.fail("simulated with a refused seed")

        monkeypatch.setattr(cli_mod, "simulate_multi_batch", simulate)
        monkeypatch.setattr(cli_mod, "simulate_single", simulate)
        monkeypatch.setattr(cli_mod, "single_trace", simulate)
        fleet = ("multi-sim", "--classes", "0.2,0.2,0.4,1", "--n-list", "2", "--horizon", "10")
        assert run_cli(*fleet, "--seeds", "1,1") == 2
        assert run_cli(*fleet, "--seeds", "3,2,3,0,2") == 2
        assert run_cli(*fleet, "--seeds", "4,-1") == 2
        assert run_cli("sim", "--params", "0.9,0.9,0.1", "--horizon", "10", "--seed", "-1") == 2
        assert run_cli("sweep-lambda", "--params", "0.9,0.9,0.1", "--horizon", "10",
                       "--seed", "-1") == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": "0.9,0.9,0.1", "horizon": 10, "seed": -2}))
        assert run_cli("sim", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --seeds: expected distinct seeds, got [1] more than once",
            "error: --seeds: expected distinct seeds, got [2, 3] more than once",
            "error: --seeds: expected a non-negative integer, got -1",
            "error: --seed: expected a non-negative integer, got -1",
            "error: --seed: expected a non-negative integer, got -1",
            "error: --seed: expected a non-negative integer, got -2",
        ]

    def test_fleet_sizes_and_checks_must_be_distinct(self, monkeypatch, capsys):
        # As with --seeds, a repeated entry would repeat a run and its output row.
        def run(*args, **kwargs):
            pytest.fail("ran with a repeated entry")

        monkeypatch.setattr(cli_mod, "simulate_multi_batch", run)
        monkeypatch.setattr(verify_mod, "run_checks", run)
        assert run_cli("multi-sim", "--classes", "0.2,0.2,0.4,1", "--n-list", "4,8,4",
                       "--horizon", "10", "--seeds", "0") == 2
        assert run_cli("verify", "--checks", "eaoii_identities,eaoii_identities") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --n-list: expected distinct fleet sizes, got [4] more than once",
            "error: --checks: expected distinct checks, got ['eaoii_identities'] more than once",
        ]

    def test_lambda_min_below_zero_names_its_flag(self, capsys):
        assert run_cli("threshold-curve", "--params", "0.9,0.9,0.1", "--lambda-min", "-1",
                       "--lambda-max", "1", "--lambda-step", "0.5") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --lambda-min must be >= 0, got -1.0"]

    def test_negative_m_rule_names_its_flag(self, capsys):
        assert run_cli("multi-sim", "--classes", "0.9,0.9,0.1,1", "--n-list", "4",
                       "--horizon", "100", "--seeds", "0", "--m-rule", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --m-rule: expected 'half' or a non-negative integer budget, got -1"]

    def test_iterative_table_refuses_p_one(self, capsys):
        # At p = 1 every ratio from boundary 0 ties to the scan edge, so the
        # construction would give every age the age-0 value.
        assert run_cli("whittle-table", "--method", "iterative", "--params", "1,0.5,0.1",
                       "--k-max", "5") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the iterative index is undefined past age 0 at p = 1"]

    def test_lambda_grid_is_one_array(self):
        # 10^6 Python floats in a list cost 32 B each with their pointers;
        # the grid and its one temporary cost 16.
        opts = {"lambda-min": 0.0, "lambda-max": 1.0, "lambda-step": 1e-6, "full": True}
        tracemalloc.start()
        try:
            grid = cli_mod._lambda_grid(opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 1_000_001
        assert peak <= 24 * len(grid)

    @pytest.mark.parametrize("lo,hi,step,count", [
        (0.0, 10.0, 0.001, 10_001), (0.1, 0.3, 0.1, 3), (0.0, 9.99999, 1e-5, 1_000_000),
        (0.0, 14.0, 1e-4, 140_001), (0.0, 1.0, 0.6, 2), (0.0, 1.0, 0.3, 4), (0.5, 0.5, 0.1, 1)])
    def test_lambda_grid_takes_every_whole_step_within_the_maximum(self, lo, hi, step, count):
        # A range of a whole number of steps keeps its last point, float noise
        # in the quotient (0.2 / 0.1 = 1.9999999999999998) included; any other
        # range stops at its last whole step.
        grid = cli_mod._lambda_grid({"lambda-min": lo, "lambda-max": hi, "lambda-step": step,
                                     "full": True})
        assert len(grid) == count
        assert grid[0] == lo and grid[-1] <= hi + 1e-9 * (hi - lo) + 4 * np.spacing(hi)
        assert lo + step * count > hi

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(0.0, 10.0), span=st.floats(0.0, 10.0), step=st.floats(1e-3, 5.0))
    def test_lambda_grid_never_passes_the_maximum(self, lo, span, step):
        hi = lo + span
        grid = cli_mod._lambda_grid({"lambda-min": lo, "lambda-max": hi, "lambda-step": step,
                                     "full": True})
        assert grid[-1] <= hi + 1e-9 * (hi - lo) + 4 * np.spacing(hi)
        assert lo + step * len(grid) > hi - 1e-9 * (hi - lo)

    def test_threshold_curve_stops_at_the_maximum(self, capsys):
        assert run_cli("threshold-curve", "--params", "0.9,0.9,0.1", "--lambda-max", "1",
                       "--lambda-step", "0.6", "--full") == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert rows == ["lambda,threshold_n", "0,0", "0.59999999999999998,0"]

    def test_threshold_column_is_one_array(self):
        # The column is one object array, 8 B a point; the cost checks hold
        # 1 B a point more. A per-point policy list beside it would cost 8 more.
        grid = cli_mod._lambda_grid({"lambda-min": 0.0, "lambda-max": 9.99999,
                                     "lambda-step": 1e-5, "full": True})
        tracemalloc.start()
        try:
            column = cli_mod._runs(SubsystemParams(0.9, 0.9, 0.1), grid)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(column) == len(grid) == 1_000_000
        assert peak <= 12 * len(grid)

    def test_sweep_lambda_checks_lambda_before_simulating(self, monkeypatch):
        def simulate(*args):
            pytest.fail("simulated before every lambda was checked")

        monkeypatch.setattr(cli_mod, "simulate_single", simulate)
        assert run_cli("sweep-lambda", "--params", "0.9,0.9,0.1", "--lambda-min", "-1",
                       "--horizon", "2000000") == 2

    def test_multi_sim_checks_every_fleet_before_simulating(self, monkeypatch, capsys):
        def simulate(*args):
            pytest.fail("simulated before every fleet was checked")

        monkeypatch.setattr(cli_mod, "simulate_multi_batch", simulate)
        classes = ("multi-sim", "--classes", "0.2,0.2,0.4,0.5;0.8,0.8,0.2,0.5")
        # N = 5 cannot be split 50/50; N = 2048 is past the fleet cap; the
        # horizon is past the 10^7-slot cap.
        assert run_cli(*classes, "--n-list", "40,5", "--horizon", "100000") == 2
        assert run_cli(*classes, "--n-list", "4,2048", "--horizon", "1000") == 2
        assert run_cli(*classes, "--n-list", "4", "--horizon", "10000001") == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 3
        assert errors[0].startswith("error: class fractions") and "[2, 2]" in errors[0]
        assert errors[1:] == ["error: a fleet has at most 1024 subsystems, got 2048",
                              "error: horizon must be at most 10000000, got 10000001"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": "0.9,0.9,0.1", "horizon": 300, "seed": 5}))
        out = tmp_path / "s.csv"
        code = run_cli("sim", "--config", str(cfg), "--policy", "never",
                       "--horizon", "200", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "# horizon=200" in text  # flag wins over the file value
        assert "# seed=5" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ("sim", "--params", "0.9,0.9,0.1", "--policy", "random:0.5",
             "--horizon", "300", "--seed", "4"),
            ("threshold-curve", "--params", "0.8,0.5,0.2",
             "--lambda-min", "0", "--lambda-max", "1", "--lambda-step", "0.05"),
            ("whittle-table", "--params", "0.8,0.8,0.2", "--k-max", "25"),
            ("sweep-lambda", "--params", "0.9,0.9,0.1", "--lambda-min", "0",
             "--lambda-max", "1", "--lambda-step", "0.1", "--horizon", "2000",
             "--seed", "2"),
            ("multi-sim", "--classes", "0.2,0.2,0.4,0.5;0.8,0.8,0.2,0.5",
             "--n-list", "4", "--horizon", "1500", "--seeds", "0,1"),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        assert run_cli(*argv, "--out", str(first)) == 0
        assert run_cli(*argv, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_import_leaves_out_verify_and_oracles(self):
        # Only ``verify`` needs the verification suite and the numeric oracles.
        code = ("import sys, aoii_jam.cli; "
                "print(sorted({'aoii_jam.verify', 'aoii_jam.oracle'} & set(sys.modules)))")
        src = str(pathlib.Path(cli_mod.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# name -> (argv, rows of the longest table written, text the output holds).
# The threshold curve (140,001 rows) and the sim trace (140,000) span 18
# blocks; the curve and the sweep reach INF cells, and a one-slot run has
# NaN standard errors.
WRITER_CASES = {
    "sweep-lambda": (("sweep-lambda", "--params", "0.9,0.9,0.1", "--lambda-max", "5",
                      "--lambda-step", "0.05", "--horizon", "3000", "--full"), 101, "INF"),
    "threshold-curve": (("threshold-curve", "--params", "0.9,0.9,0.1", "--lambda-max", "14",
                         "--lambda-step", "1e-4", "--full"), 140_001, "INF"),
    "multi-sim": (("multi-sim", "--classes", "0.2,0.2,0.4,0.5;0.8,0.8,0.2,0.5",
                   "--n-list", "4,8", "--horizon", "1000", "--seeds", "0,1"), 2, ""),
    "whittle-table": (("whittle-table", "--params", "0.8,0.8,0.2", "--params", "0.5,0.0,0.25",
                       "--k-max", "30", "--method", "iterative"), 62, ""),
    "sim-one-slot": (("sim", "--params", "0.9,0.9,0.1", "--policy", "random:0.5",
                      "--horizon", "1"), 1, "nan"),
    "sim-trace": (("sim", "--params", "0.9,0.9,0.1", "--policy", "threshold:2",
                   "--lambda", "0.5", "--horizon", "140000"), 140_000, ""),
}


class TestTableWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(WRITER_CASES))
    def test_output_matches_the_per_cell_writer(self, tmp_path, monkeypatch, case, fmt):
        argv, rows, text = WRITER_CASES[case]
        written = []
        real = cli_mod._write_table

        def capture(stream, config, table, fmt):
            written.append((config, table, fmt))
            real(stream, config, table, fmt)

        monkeypatch.setattr(cli_mod, "_write_table", capture)
        paths = [tmp_path / "table.out", tmp_path / "trace.csv"]
        trace = ("--trace", str(paths[1])) if argv[0] == "sim" else ()
        assert run_cli(*argv, "--format", fmt, "--out", str(paths[0]), *trace) == 0
        assert [table_fmt for _, _, table_fmt in written] == ([fmt, "csv"] if trace else [fmt])
        lengths = []
        for path, (config, table, table_fmt) in zip(paths, written):
            assert len({len(column) for column in table.values()}) == 1
            lengths.append(len(next(iter(table.values()))))
            assert path.read_text() == render_table(config, table, table_fmt)
        assert max(lengths) == rows
        assert text.lower() in paths[0].read_text().lower()

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 100])
    def test_any_block_size_writes_the_same_bytes(self, monkeypatch, block):
        rows = 10
        table = {
            "lambda": np.array([0.0, 0.1, 1 / 3, np.nan, np.inf, 1e300, -0.0, 5e-324, 7.0, 0.25]),
            "k": np.arange(rows),
            "N": list(range(100, 100 + rows)),
            "mean": [x / 7 for x in range(rows)],
            "jammed": np.arange(rows) % 3 == 0,
            "threshold_n": np.array(["0", "1", "1", "2", "INF"] * 2, dtype=object),
            "subsystem_id": np.broadcast_to(0, rows),
        }
        config = {"command": "test", "full": True, "lambda-step": 0.1, "horizon": 10,
                  "seeds": "0,1", "lambda-limit": np.float64(4.5)}
        monkeypatch.setattr(cli_mod, "_BLOCK_ROWS", block)
        for fmt in ("csv", "json"):
            stream = io.StringIO()
            cli_mod._write_table(stream, config, table, fmt)
            assert stream.getvalue() == render_table(config, table, fmt)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 9), block=st.integers(1, 4))
    def test_json_rows_are_the_json_encoders_text(self, data, rows, block):
        # Cells of every kind, the float edge values among them, under names
        # that need escaping, in an order the sort must fix.
        kinds = {
            "float": st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, 5e-324, 1e300, -math.inf, math.inf]),
            "int": st.integers(-2**63, 2**63 - 1),
            "bool": st.booleans(),
            "text": st.text(max_size=6),
        }
        names = data.draw(st.lists(st.sampled_from(["z", "a", "%s", "q\"\u00e9", "%%d", "lambda"]),
                                   min_size=1, max_size=4, unique=True))
        table = {}
        for name in names:
            kind = data.draw(st.sampled_from(sorted(kinds)))
            values = data.draw(st.lists(kinds[kind], min_size=rows, max_size=rows))
            table[name] = np.array(values, dtype=object if kind == "text" else None)
        config = {"command": "test", "lambda-limit": 4.5}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli_mod, "_BLOCK_ROWS", block)
            stream = io.StringIO()
            cli_mod._write_table(stream, config, table, "json")
        assert stream.getvalue() == render_table(config, table, "json")

    def test_writer_memory_is_a_few_blocks(self, monkeypatch):
        # 2 * 10^5 rows are 25 blocks. The writer holds one block's cells,
        # rows and text at a time, so its peak is a fixed number of blocks of
        # its own text, whatever the table's length. Measured peaks, in blocks
        # of text: this writer 5.4 (CSV) and 3.8 (JSON; 12.6 when json encoded
        # each block's rows); every column formatted at once 132 (CSV);
        # json.dump of every row at once 109.
        rows = 200_000
        table = {"lambda": np.random.default_rng(0).random(rows)}

        def text(fmt, table):
            stream = io.StringIO()
            cli_mod._write_table(stream, {}, table, fmt)
            return stream.getvalue()

        block = {fmt: len(text(fmt, {"lambda": table["lambda"][:cli_mod._BLOCK_ROWS]}))
                 for fmt in ("csv", "json")}

        def peak(fmt) -> float:
            with open(os.devnull, "w") as stream:
                tracemalloc.start()
                try:
                    cli_mod._write_table(stream, {"command": "test"}, table, fmt)
                    return tracemalloc.get_traced_memory()[1] / block[fmt]
                finally:
                    tracemalloc.stop()

        assert peak("csv") <= 20
        assert peak("json") <= 20
        monkeypatch.setattr(cli_mod, "_BLOCK_ROWS", rows)  # every column formatted at once
        assert peak("csv") > 20

    def test_sweep_rewards_are_the_per_point_formulas(self, tmp_path):
        # Each closed-form reward is steady_reward at the point's threshold,
        # INFINITE in INF cells, where it is the no-jam EAoII at every cost.
        params = SubsystemParams(0.9, 0.9, 0.1)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-lambda", "--params", "0.9,0.9,0.1", "--lambda-max", "6",
                       "--lambda-step", "0.01", "--horizon", "2000", "--full",
                       "--out", str(out)) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 601
        cells = {row[4] for row in rows}
        assert "INF" in cells and len(cells) > 10
        for lam, closed, _, _, cell in rows:
            threshold = INFINITE if cell == "INF" else int(cell)
            assert float(closed) == steady_reward(params, threshold, float(lam))
            if cell == "INF":
                assert float(closed) == avg_eaoii_no_jam(params)

    def test_whittle_table_over_the_row_cap_exits_before_building(self, tmp_path, monkeypatch,
                                                                  capsys):
        def build(*args):
            pytest.fail("built an index table past the row cap")

        two = ("whittle-table", "--params", "0.8,0.8,0.2", "--params", "0.5,0.5,0.2")
        monkeypatch.setattr(cli_mod, "whittle_table_closed", build)
        assert run_cli("whittle-table", "--params", "0.8,0.8,0.2", "--k-max", "1000000000000") == 2
        # Two subsystems of 5 * 10^6 + 1 ages are two rows past the 10^7 cap.
        assert run_cli(*two, "--k-max", "5000000") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --k-max must be from 0 to 9999999 for 1 --params, got 1000000000000",
            "error: --k-max must be from 0 to 4999999 for 2 --params, got 5000000",
        ]
        # A table of exactly the cap is written.
        monkeypatch.setattr(cli_mod, "whittle_table_closed", whittle_mod.whittle_table_closed)
        monkeypatch.setattr(cli_mod, "MAX_GRID_POINTS", 20)
        out = tmp_path / "table.csv"
        assert run_cli(*two, "--k-max", "9", "--out", str(out)) == 0
        assert len([line for line in out.read_text().splitlines() if line[0].isdigit()]) == 20
        assert run_cli(*two, "--k-max", "10") == 2

    def test_whittle_table_iterative_k_max_limit(self, tmp_path, monkeypatch, capsys):
        def build(*args):
            pytest.fail("built an iterative index table past its limit")

        iterative = ("whittle-table", "--params", "0.8,0.8,0.2", "--method", "iterative")
        monkeypatch.setattr(cli_mod, "whittle_index_iterative", build)
        assert run_cli(*iterative, "--k-max", "10001") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --method iterative builds at most 10001 rows in all, "
            "got 10002 (1 --params at --k-max 10001)"
        ]
        # The closed method keeps the row cap alone.
        out = tmp_path / "table.csv"
        assert run_cli("whittle-table", "--params", "0.8,0.8,0.2", "--k-max", "10001",
                       "--out", str(out)) == 0
        # A table at the limit is built and written; one age more is refused.
        monkeypatch.setattr(cli_mod, "whittle_index_iterative",
                            whittle_mod.whittle_index_iterative)
        monkeypatch.setattr(cli_mod, "_ITERATIVE_K_MAX", 30)
        assert run_cli(*iterative, "--k-max", "30", "--out", str(out)) == 0
        assert len([line for line in out.read_text().splitlines() if line[0].isdigit()]) == 31
        assert run_cli(*iterative, "--k-max", "31") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --method iterative builds at most 31 rows in all, got 32 (1 --params at --k-max 31)"
        ]

    def test_whittle_table_iterative_row_limit(self, tmp_path, monkeypatch, capsys):
        # The iterative limit bounds the rows of all --params together, not
        # one table: two tables of 15 ages fit in 31 rows, two of 16 do not.
        built = []

        def build(params, k_max):
            built.append(k_max)
            return whittle_mod.whittle_index_iterative(params, k_max)

        monkeypatch.setattr(cli_mod, "whittle_index_iterative", build)
        monkeypatch.setattr(cli_mod, "_ITERATIVE_K_MAX", 30)
        two = ("whittle-table", "--params", "0.8,0.8,0.2", "--params", "0.2,0.3,0.4",
               "--method", "iterative")
        out = tmp_path / "table.csv"
        assert run_cli(*two, "--k-max", "14", "--out", str(out)) == 0
        assert len([line for line in out.read_text().splitlines() if line[0].isdigit()]) == 30
        assert built == [14, 14]
        assert run_cli(*two, "--k-max", "15") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --method iterative builds at most 31 rows in all, "
            "got 32 (2 --params at --k-max 15)"
        ]
        assert built == [14, 14]
