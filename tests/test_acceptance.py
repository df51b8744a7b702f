"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line with its headline numbers and elapsed
time (visible with ``pytest -s``; the -v test status doubles as the
pass/fail line otherwise). Stochastic checks run at fixed seeds, so the
whole suite is deterministic.
"""

import time

import numpy as np
import pytest

from aoii_jam.core import (
    INFINITE,
    SubsystemParams,
    ThresholdPolicy,
    avg_aat_closed,
    avg_eaoii_closed,
    avg_eaoii_no_jam,
    eaoii_ladder,
    eaoii_value,
    lambda_limit,
    lambda_seq,
    optimal_threshold,
    stationary_pmf,
    steady_reward,
)
from aoii_jam.oracle import (
    OracleConfig,
    _tail_cap,
    brute_force_threshold,
    extract_threshold,
    relative_value_iteration,
)
from aoii_jam.sim import (
    RandomJam,
    RandomMultiJam,
    WhittleJam,
    simulate_multi_batch,
    simulate_single,
    single_trace,
)
from aoii_jam.verify import default_grid, run_checks
from aoii_jam.whittle import FleetConfig, whittle_index_iterative, whittle_table_closed
from cli_runner import run_cli
from exact import ExactRewardCurve, exact_lambda_sequence

REF = SubsystemParams(p=0.9, q=0.9, r=0.1)
CLASS_SLOW = SubsystemParams(p=0.2, q=0.2, r=0.4)
CLASS_FAST = SubsystemParams(p=0.8, q=0.8, r=0.2)


def _report(number, message, started):
    print(f"[criterion {number:02d}] PASS: {message} ({time.perf_counter() - started:.1f}s)")


def test_criterion_01_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for r in rng.uniform(1e-9, 0.5, size=100):
        params = SubsystemParams(p=0.5, q=0.5, r=float(r))
        worst = max(worst, abs(eaoii_value(params, 0)))
        worst = max(worst, abs(eaoii_value(params, 1) - r))
    assert worst <= 1e-14
    _report(1, f"age-0/age-1 identities exact, worst error {worst:.1e}", started)


def test_criterion_02_stationary_equivalence():
    started = time.perf_counter()
    grid = default_grid()
    assert len(grid) >= 50
    tv, norm = run_checks(
        grid, names=["stationary_vs_power_iteration", "stationary_normalization"]
    )["checks"]
    assert tv["passed"] and tv["worst_error"] < 1e-8
    assert norm["passed"] and norm["worst_error"] < 1e-12
    _report(
        2,
        f"{len(grid)} triples x 5 thresholds: TV {tv['worst_error']:.1e}, "
        f"normalization {norm['worst_error']:.1e}",
        started,
    )


def test_criterion_03_average_equivalence():
    started = time.perf_counter()
    grid = default_grid()
    eaoii, aat = run_checks(
        grid, names=["avg_eaoii_closed_vs_numeric", "avg_aat_closed_vs_numeric"]
    )["checks"]
    assert eaoii["passed"] and eaoii["worst_error"] < 1e-8
    assert aat["passed"] and aat["worst_error"] < 1e-8
    _report(
        3,
        f"closed averages vs truncated sums: EAoII {eaoii['worst_error']:.1e}, "
        f"AAT {aat['worst_error']:.1e}",
        started,
    )


def test_criterion_04_threshold_structure():
    started = time.perf_counter()
    worst_gain_gap = 0.0
    for lam in np.linspace(0.0, 5.0, 20):
        lam = float(lam)
        expected = optimal_threshold(REF, lam)
        hint = int(min(expected.threshold, 120))  # never jamming is sized as threshold 120
        cfg = OracleConfig(state_cap=_tail_cap(REF, hint, 1e-12, 10), tolerance=1e-10)
        result = relative_value_iteration(REF, lam, cfg)
        extracted = extract_threshold(result)  # raises if non-monotone
        assert extracted == expected, (lam, extracted, expected)
        worst_gain_gap = max(worst_gain_gap, abs(result.theta - steady_reward(REF, expected, lam)))
    assert worst_gain_gap < 1e-6
    _report(
        4,
        f"20 jam costs: monotone policies, exact threshold match, "
        f"|gain - steady reward| <= {worst_gain_gap:.1e}",
        started,
    )


def test_criterion_05_lambda_regimes():
    started = time.perf_counter()
    limit = lambda_limit(REF)
    assert limit == pytest.approx(4.4892, abs=5e-4)
    assert abs(limit - 4.5) < 0.05  # the reported "approximately 4.5"

    first_tie = lambda_seq(REF, 0)
    always = np.linspace(0.0, first_tie * 0.999, 60)            # regime one
    # Float-brute points sit at band quarters: the float argmax resolves the
    # maximizer only while the distance to the nearest tie subsidy times the
    # attack-time step stays well above the reward's ULP.
    ties = [lambda_seq(REF, n) for n in range(13)]
    shallow = np.array(
        [lo + frac * (hi - lo) for lo, hi in zip(ties, ties[1:]) for frac in (0.25, 0.5, 0.75)]
    )
    deep = np.linspace(first_tie * 1.001, limit - 1e-4, 74)
    never = np.concatenate(([limit], np.linspace(limit + 1e-6, 6.0, 29)))
    assert len(always) + len(shallow) + len(deep) + len(never) == 200

    for lam in np.concatenate((always, shallow)):
        assert brute_force_threshold(REF, float(lam), 3000) == optimal_threshold(REF, float(lam))
    # Across the whole finite regime (and close to the never-jam limit, where
    # true reward increments drop below the float ULP) the exhaustive argmax
    # runs in exact rational arithmetic.
    curve = ExactRewardCurve(REF, 150)
    for lam in deep:
        expected = optimal_threshold(REF, float(lam))
        assert expected.is_finite
        assert expected.threshold == curve.argmax(float(lam))
    for lam in never:
        assert brute_force_threshold(REF, float(lam), 3000) == ThresholdPolicy(INFINITE)
        assert optimal_threshold(REF, float(lam)) == ThresholdPolicy(INFINITE)
    assert optimal_threshold(REF, float(np.nextafter(limit, 0.0))).is_finite
    _report(
        5,
        f"200 jam costs across all regimes, limit {limit:.6f} "
        f"(reported ~4.5), INFINITE exactly at the limit",
        started,
    )


def test_criterion_06_whittle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for params in (CLASS_SLOW, CLASS_FAST):
        closed = whittle_table_closed(params, 200)
        iterative = whittle_index_iterative(params, 200)
        scale = np.maximum(np.abs(closed), 1e-12)
        worst = max(worst, float(np.max(np.abs(closed - iterative) / scale)))
        assert np.all(np.diff(closed) >= 0)
        # Strict increase certified in exact rational arithmetic: the float
        # table saturates at the limit once increments drop below its ULP.
        seq = exact_lambda_sequence(params, 200)
        assert all(b > a for a, b in zip(seq, seq[1:]))
    assert worst < 1e-8
    zero_table = whittle_table_closed(SubsystemParams(0.9, 0.0, 0.1), 200)
    assert np.all(zero_table == 0.0)
    assert np.all(whittle_index_iterative(SubsystemParams(0.9, 0.0, 0.1), 200) == 0.0)
    _report(
        6,
        f"both source classes, k <= 200: closed vs iterative {worst:.1e}, "
        f"strictly increasing (exact), zero without jamming power",
        started,
    )


def test_criterion_07_reward_sweep_plateau():
    started = time.perf_counter()
    horizon, seed = 1_000_000, 20260808
    lams = np.round(np.arange(0, 1001) * 0.01, 10)
    limit = lambda_limit(REF)
    plateau = avg_eaoii_no_jam(REF)

    closed = np.empty(len(lams))
    thresholds = []
    for i, lam in enumerate(lams):
        policy = optimal_threshold(REF, float(lam))
        thresholds.append(policy)
        closed[i] = (
            steady_reward(REF, policy.threshold, float(lam))
            if policy.is_finite
            else plateau
        )
    assert np.all(np.diff(closed) <= 1e-12)

    # One simulated trace serves every jam cost: the random policy does not
    # depend on the cost, which only enters the reward accounting.
    trace = single_trace(REF, RandomJam(0.5), horizon, seed)
    s_series = eaoii_ladder(REF, int(trace["age_index"].max()) + 1)[trace["age_index"]]
    d_series = trace["jammed"].astype(np.float64)
    batches = 100
    s_batches = s_series.reshape(batches, -1).mean(axis=1)
    d_batches = d_series.reshape(batches, -1).mean(axis=1)
    random_reward = s_series.mean() - lams * d_series.mean()
    reward_batches = s_batches[None, :] - lams[:, None] * d_batches[None, :]
    random_se = reward_batches.std(axis=1, ddof=1) / np.sqrt(batches)
    assert np.all(closed >= random_reward - 3.0 * random_se)

    # Plateau: beyond the limit the closed curve sits exactly at the no-jam
    # average, corroborated by a never-jam simulation.
    beyond = lams > limit
    assert beyond.sum() > 500
    assert np.all(closed[beyond] == plateau)
    nojam = simulate_single(REF, ThresholdPolicy(INFINITE), 0.0, horizon, seed)
    assert abs(nojam.avg_eaoii - plateau) <= 3.0 * nojam.se_eaoii

    # Spot corroboration of the optimal curve at a few distinct thresholds
    # (higher ones attack too rarely to observe in a million slots).
    for n in (0, 2, 5):
        stats = simulate_single(REF, ThresholdPolicy(n), 0.0, horizon, seed)
        assert abs(stats.avg_eaoii - avg_eaoii_closed(REF, n)) <= 4 * stats.se_eaoii
        assert abs(stats.avg_aat - avg_aat_closed(REF, n)) <= 4 * stats.se_aat
    _report(
        7,
        f"1001-point sweep: non-increasing, above the random baseline "
        f"everywhere, plateau at {plateau:.6f} past {limit:.4f}",
        started,
    )


def test_criterion_08_ergodic_consistency():
    started = time.perf_counter()
    horizon, seed = 1_000_000, 424242
    for n in (0, 2, 5):
        trace = single_trace(REF, ThresholdPolicy(n), horizon, seed)
        ages = trace["age_index"]
        top = int(ages.max())
        counts = np.bincount(ages, minlength=top + 1) / horizon
        law = stationary_pmf(REF, n, np.arange(top + 1))
        tv = 0.5 * (np.abs(counts - law).sum() + max(1.0 - law.sum(), 0.0))
        assert tv < 0.01, (n, tv)

        stats = simulate_single(REF, ThresholdPolicy(n), 0.0, horizon, seed)
        assert abs(stats.avg_eaoii - avg_eaoii_closed(REF, n)) <= 3 * stats.se_eaoii
        assert abs(stats.avg_aat - avg_aat_closed(REF, n)) <= 3 * stats.se_aat
        assert abs(stats.avg_true_aoii - avg_eaoii_closed(REF, n)) <= 3 * stats.se_true_aoii
    _report(
        8,
        "thresholds 0/2/5 at a million slots: occupancy TV < 0.01, all "
        "averages within 3 batch-means errors of the closed forms",
        started,
    )


def test_criterion_09_fleet_comparison():
    started = time.perf_counter()
    horizon = 100_000
    seeds = list(range(10))
    classes = [(CLASS_SLOW, 0.5), (CLASS_FAST, 0.5)]
    whittle_totals = []
    for n_total in (4, 8, 16, 24, 32, 40):
        fleet = FleetConfig.from_classes(classes, n_total, n_total // 2)
        w_runs = simulate_multi_batch(fleet, WhittleJam(), horizon, seeds)
        r_runs = simulate_multi_batch(fleet, RandomMultiJam(), horizon, seeds)
        w = np.array([s.avg_true_aoii for s in w_runs])
        r = np.array([s.avg_true_aoii for s in r_runs])
        se_diff = np.hypot(w.std(ddof=1), r.std(ddof=1)) / np.sqrt(len(seeds))
        assert w.mean() >= r.mean() - 3.0 * se_diff, (n_total, w.mean(), r.mean())
        assert w.mean() > r.mean(), (n_total, w.mean(), r.mean())
        whittle_totals.append(w.mean() * n_total)
    assert np.all(np.diff(whittle_totals) > 0)  # total damage grows with N
    _report(
        9,
        "index policy beats the random baseline at every fleet size "
        "(10 seeds, one-sided 3 s.e.), total AoII growing with N",
        started,
    )


def test_criterion_09_fleet_matches_its_exact_value():
    # Every index of the fast class lies above every index of the slow one,
    # so with M = N/2 the index policy jams the fast half in every slot: each
    # fast channel is a threshold-0 source and each slow one is never jammed.
    started = time.perf_counter()
    assert lambda_seq(CLASS_FAST, 0) > lambda_limit(CLASS_SLOW)
    exact = 0.5 * avg_eaoii_closed(CLASS_FAST, 0) + 0.5 * avg_eaoii_no_jam(CLASS_SLOW)
    assert abs(exact - 0.8826260940737726) < 1e-15
    seeds = list(range(10))
    worst = 0.0
    for n_total in (4, 40):
        fleet = FleetConfig.from_classes([(CLASS_SLOW, 0.5), (CLASS_FAST, 0.5)], n_total,
                                         n_total // 2)
        runs = simulate_multi_batch(fleet, WhittleJam(), 100_000, seeds)
        for column in ("avg_eaoii", "avg_true_aoii"):
            values = np.array([getattr(stats, column) for stats in runs])
            z = (values.mean() - exact) / (values.std(ddof=1) / np.sqrt(len(seeds)))
            assert abs(z) < 3.0, (n_total, column, z)
            worst = max(worst, abs(z))
        jammed = np.array([[channel.avg_aat for channel in stats.per_subsystem] for stats in runs])
        fast = np.array([params == CLASS_FAST for params in fleet.subsystems])
        assert np.all(jammed[:, fast] == 1.0) and np.all(jammed[:, ~fast] == 0.0)
    _report(
        9,
        f"index policy's EAoII and true AoII within {worst:.2f} s.e. of the exact "
        f"{exact:.6f} at N = 4 and 40 (10 seeds, two-sided 3 s.e.), fast half always jammed",
        started,
    )


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    commands = [
        ("verify", "--checks", "eaoii_identities,kernel_stochastic,steady_reward_tie"),
        ("sweep-lambda", "--params", "0.9,0.9,0.1", "--lambda-min", "0",
         "--lambda-max", "1", "--lambda-step", "0.1", "--horizon", "3000",
         "--seed", "7", "--full"),
        ("threshold-curve", "--params", "0.9,0.9,0.1", "--lambda-min", "0",
         "--lambda-max", "5", "--lambda-step", "0.05"),
        ("multi-sim", "--classes", "0.2,0.2,0.4,0.5;0.8,0.8,0.2,0.5",
         "--n-list", "4,8", "--horizon", "2000", "--seeds", "0,1,2"),
        ("whittle-table", "--params", "0.2,0.2,0.4", "--params", "0.8,0.8,0.2",
         "--k-max", "60"),
        ("sim", "--params", "0.9,0.9,0.1", "--policy", "random:0.5",
         "--lambda", "1.0", "--horizon", "4000", "--seed", "3", "--format", "json"),
    ]
    for i, argv in enumerate(commands):
        first = tmp_path / f"{i}_first.out"
        second = tmp_path / f"{i}_second.out"
        code_first = run_cli(*argv, "--out", str(first))
        code_second = run_cli(*argv, "--out", str(second))
        assert code_first == code_second == 0
        assert first.read_bytes() == second.read_bytes(), argv[0]
    _report(10, f"{len(commands)} commands rerun byte-identically", started)
