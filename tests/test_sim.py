import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoii_jam.sim as sim_mod
from aoii_jam.core import (
    INFINITE,
    SubsystemParams,
    ThresholdPolicy,
    avg_aat_closed,
    avg_eaoii_closed,
    stationary_pmf,
)
from aoii_jam.sim import (
    RandomJam,
    RandomMultiJam,
    WhittleJam,
    batch_standard_error,
    simulate_multi_batch,
    simulate_single,
    single_trace,
)
from aoii_jam.whittle import FleetConfig
from reference import GroundTruthState, initial_state, step_subsystem

REF = SubsystemParams(p=0.9, q=0.9, r=0.1)
TWO_CLASS = FleetConfig(
    subsystems=(SubsystemParams(0.2, 0.2, 0.4),) * 2 + (SubsystemParams(0.8, 0.8, 0.2),) * 2,
    budget=2,
)


class TestStepSubsystem:
    def test_delivery_resets_and_agrees(self):
        state = GroundTruthState(1, 0, 10, 7, 5)  # slot 15, mismatch since 7
        nxt = step_subsystem(state, REF, False, (0.99, 0.0))  # no flip, delivered
        assert nxt.age_index == 0
        assert nxt.monitor_estimate == nxt.source_state == 1
        assert nxt.last_delivery_slot == 16
        assert nxt.true_aoii == 0

    def test_persistent_mismatch_grows(self):
        state = GroundTruthState(1, 0, 10, 7, 5)
        nxt = step_subsystem(state, REF, False, (0.99, 0.99))  # no flip, no delivery
        assert nxt.age_index == 6
        assert nxt.true_aoii == state.true_aoii + 1

    def test_flip_back_zeroes_aoii_but_not_age(self):
        # The source can drift back to the stale estimate: the estimate is
        # correct again even though no packet arrived.
        state = GroundTruthState(1, 0, 10, 7, 5)
        nxt = step_subsystem(state, REF, False, (0.0, 0.99))  # flip, no delivery
        assert nxt.source_state == 0 == nxt.monitor_estimate
        assert nxt.age_index == 6
        assert nxt.true_aoii == 0

    def test_jamming_lowers_delivery_odds(self):
        state = initial_state()
        draw = 0.5  # delivered unjammed (p=0.9), lost jammed (p(1-q)=0.09)
        assert step_subsystem(state, REF, False, (0.99, draw)).age_index == 0
        assert step_subsystem(state, REF, True, (0.99, draw)).age_index == 1

    def test_initial_state_consistency(self):
        state = initial_state()
        assert state.slot == 0
        assert state.true_aoii == 0
        assert state.monitor_estimate == state.source_state


class TestSingleSource:
    def test_reproducible(self):
        a = simulate_single(REF, ThresholdPolicy(2), 1.0, 20_000, seed=42)
        b = simulate_single(REF, ThresholdPolicy(2), 1.0, 20_000, seed=42)
        assert a == b
        c = simulate_single(REF, ThresholdPolicy(2), 1.0, 20_000, seed=43)
        assert c != a

    def test_never_jams(self):
        stats = simulate_single(REF, ThresholdPolicy(INFINITE), 0.0, 5_000, seed=1)
        assert stats.avg_aat == 0.0

    def test_never_jam_true_aoii_matches_no_jam_average(self):
        from aoii_jam.core import avg_eaoii_no_jam

        stats = simulate_single(REF, ThresholdPolicy(INFINITE), 0.0, 300_000, seed=6)
        target = avg_eaoii_no_jam(REF)
        assert abs(stats.avg_true_aoii - target) < 4 * stats.se_true_aoii
        assert abs(stats.avg_eaoii - target) < 4 * stats.se_eaoii

    def test_always_jams(self):
        stats = simulate_single(REF, ThresholdPolicy(0), 0.0, 5_000, seed=1)
        assert stats.avg_aat == 1.0

    def test_random_policy_rate(self):
        stats = simulate_single(REF, RandomJam(0.5), 0.0, 100_000, seed=5)
        assert stats.avg_aat == pytest.approx(0.5, abs=0.01)

    def test_reward_is_eaoii_minus_cost(self):
        stats = simulate_single(REF, ThresholdPolicy(1), 2.0, 10_000, seed=9)
        assert stats.avg_reward == pytest.approx(stats.avg_eaoii - 2.0 * stats.avg_aat, abs=1e-12)

    def test_multi_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_single(REF, WhittleJam(), 0.0, 100, seed=0)
        with pytest.raises(ValueError):
            simulate_single(REF, RandomMultiJam(), 0.0, 100, seed=0)

    def test_trace_matches_step_primitive(self):
        # Replay the exact uniforms through the pure one-slot primitive and
        # require the fast loop to agree slot for slot.
        horizon, seed = 1_500, 77
        policy = ThresholdPolicy(2)
        trace = single_trace(REF, policy, horizon, seed)
        sub_seq, _ = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(sub_seq)
        u_flip = rng.random(horizon)
        u_deliver = rng.random(horizon)
        state = initial_state()
        for t in range(horizon):
            assert trace["age_index"][t] == state.age_index
            assert trace["true_aoii"][t] == state.true_aoii
            jam = state.age_index >= policy.threshold
            assert trace["jammed"][t] == jam
            state = step_subsystem(state, REF, jam, (u_flip[t], u_deliver[t]))
            assert trace["delivered"][t] == (state.age_index == 0)

    def test_ergodic_means_near_closed_forms(self):
        stats = simulate_single(REF, ThresholdPolicy(2), 0.0, 200_000, seed=11)
        assert abs(stats.avg_eaoii - avg_eaoii_closed(REF, 2)) < 4 * stats.se_eaoii
        assert abs(stats.avg_aat - avg_aat_closed(REF, 2)) < 4 * stats.se_aat
        assert abs(stats.avg_true_aoii - avg_eaoii_closed(REF, 2)) < 4 * stats.se_true_aoii

    def test_age_occupancy_near_stationary_law(self):
        trace = single_trace(REF, ThresholdPolicy(2), 200_000, seed=13)
        ages = trace["age_index"]
        top = int(ages.max())
        counts = np.bincount(ages, minlength=top + 1) / len(ages)
        closed = np.array([stationary_pmf(REF, 2, k) for k in range(top + 1)])
        tv = 0.5 * (np.abs(counts - closed).sum() + max(1.0 - closed.sum(), 0.0))
        assert tv < 0.02


class TestBatchStandardError:
    def test_iid_scaling(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=100_000)
        se = batch_standard_error(series)
        assert se == pytest.approx(1.0 / np.sqrt(len(series)), rel=0.2)

    def test_short_series_is_nan(self):
        assert np.isnan(batch_standard_error(np.array([1.0, 2.0, 3.0])))


class TestMultiSource:
    def test_budget_enforced_exactly(self):
        stats = simulate_multi_batch(TWO_CLASS, WhittleJam(), 4_000, [3])[0]
        assert stats.avg_aat == pytest.approx(2 / 4, abs=1e-12)
        stats = simulate_multi_batch(TWO_CLASS, RandomMultiJam(), 4_000, [3])[0]
        assert stats.avg_aat == pytest.approx(2 / 4, abs=1e-12)

    def test_budget_violation_raises(self, monkeypatch):
        monkeypatch.setattr(sim_mod, "jam_mask", lambda scores, budget: scores < -1.0)
        with pytest.raises(RuntimeError, match="budget 2"):
            simulate_multi_batch(TWO_CLASS, WhittleJam(), 10, [0])

    def test_single_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_multi_batch(TWO_CLASS, ThresholdPolicy(2), 100, [0])

    def test_batching_invariance(self):
        alone = simulate_multi_batch(TWO_CLASS, WhittleJam(), 3_000, [21])[0]
        batched = simulate_multi_batch(TWO_CLASS, WhittleJam(), 3_000, [21, 22, 23])
        assert alone == batched[0]

    def test_fleet_average_consistent_with_breakdown(self):
        stats = simulate_multi_batch(TWO_CLASS, RandomMultiJam(), 5_000, [2])[0]
        per = stats.per_subsystem
        assert stats.avg_true_aoii == pytest.approx(
            np.mean([s.avg_true_aoii for s in per]), abs=1e-12
        )
        assert stats.avg_aat == pytest.approx(np.mean([s.avg_aat for s in per]), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        params=st.builds(SubsystemParams, p=st.floats(0.05, 1.0), q=st.floats(0.0, 0.95),
                         r=st.floats(0.02, 0.5)),
        horizon=st.integers(1, 4096),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fleet_of_one_is_a_single_source(self, params, horizon, seed):
        # Up to one draw chunk (4096 slots) a lone channel sees the same
        # uniforms as a single-source run, so both must report the same
        # averages and, with one batch layout, the same standard errors.
        fleet = simulate_multi_batch(FleetConfig((params,), 0), WhittleJam(), horizon, [seed])[0]
        single = simulate_single(params, ThresholdPolicy(INFINITE), 0.0, horizon, seed)
        for name in ("avg_reward", "avg_eaoii", "avg_true_aoii", "avg_aat",
                     "se_reward", "se_eaoii", "se_true_aoii", "se_aat"):
            a, b = getattr(fleet, name), getattr(single, name)
            assert (math.isnan(a) and math.isnan(b)) or math.isclose(
                a, b, rel_tol=1e-12, abs_tol=1e-12), (name, a, b)

    def test_unjammed_fleet_matches_single_never(self):
        fleet = FleetConfig(subsystems=(REF, REF), budget=0)
        multi = simulate_multi_batch(fleet, WhittleJam(), 150_000, [8])[0]
        single = simulate_single(REF, ThresholdPolicy(INFINITE), 0.0, 150_000, seed=8)
        assert multi.avg_aat == 0.0
        tol = 4 * np.hypot(multi.se_true_aoii, single.se_true_aoii)
        assert abs(multi.avg_true_aoii - single.avg_true_aoii) < tol

    def test_identical_fleet_tie_break_favors_low_ids(self):
        # Jam the three highest ages each slot; with identical parameters the
        # deterministic low-id tie-break makes attack time non-increasing in
        # the subsystem id, while the fleet total stays pinned at M/N.
        fleet = FleetConfig(subsystems=(REF,) * 4, budget=3)
        stats = simulate_multi_batch(fleet, WhittleJam(), 40_000, [5])[0]
        assert stats.avg_aat == pytest.approx(0.75, abs=1e-12)
        aats = [sub.avg_aat for sub in stats.per_subsystem]
        assert aats == sorted(aats, reverse=True)
        assert aats[0] > aats[-1]

    def test_index_policy_beats_random_baseline(self):
        whittle_runs = simulate_multi_batch(TWO_CLASS, WhittleJam(), 30_000, [0, 1, 2])
        random_runs = simulate_multi_batch(TWO_CLASS, RandomMultiJam(), 30_000, [0, 1, 2])
        w = np.mean([s.avg_true_aoii for s in whittle_runs])
        r = np.mean([s.avg_true_aoii for s in random_runs])
        assert w > r
