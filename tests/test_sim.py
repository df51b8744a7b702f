import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
Q_MAX = float(np.nextafter(1.0, 0.0))  # q = 1 itself is not a valid parameter
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

    @settings(max_examples=150, deadline=None)
    @given(
        params=st.builds(SubsystemParams,
                         p=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
                         q=st.one_of(st.sampled_from([0.0, Q_MAX]), st.floats(0.0, 0.99)),
                         r=st.floats(0.02, 0.5)),
        policy=st.one_of(
            st.builds(ThresholdPolicy, st.sampled_from([0, INFINITE])),
            st.builds(ThresholdPolicy, st.integers(1, 6)),
            st.builds(ThresholdPolicy, st.integers(7, 500)),
            st.builds(RandomJam, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        ),
        horizon=st.integers(1, 400),
        chunk=st.one_of(st.none(), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(params=REF, policy=ThresholdPolicy(2), horizon=9_000, chunk=None, seed=77)
    @example(params=REF, policy=RandomJam(0.5), horizon=9_000, chunk=None, seed=78)
    def test_trace_matches_step_primitive(self, params, policy, horizon, chunk, seed):
        # Replay the run's uniforms through the pure one-slot primitive and
        # require every array of the chunked run to agree slot for slot,
        # also when chunks of a few slots make every carry visible.
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(sim_mod, "_CHUNK", chunk)
            trace = single_trace(params, policy, horizon, seed)
        sub_seq, pol_seq = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(sub_seq)
        u_flip = rng.random(horizon)
        u_deliver = rng.random(horizon)
        if isinstance(policy, RandomJam):
            jams = np.random.default_rng(pol_seq).random(horizon) < policy.jam_prob
        state = initial_state()
        ages, aoiis, jammed, delivered = [], [], [], []
        for t in range(horizon):
            if isinstance(policy, RandomJam):
                jam = bool(jams[t])
            else:
                jam = policy.is_finite and state.age_index >= policy.threshold
            ages.append(state.age_index)
            aoiis.append(state.true_aoii)
            jammed.append(jam)
            state = step_subsystem(state, params, jam, (u_flip[t], u_deliver[t]))
            delivered.append(state.age_index == 0)
        expected = {
            "slot": np.arange(horizon, dtype=np.int64),
            "age_index": np.array(ages, dtype=np.int64),
            "true_aoii": np.array(aoiis, dtype=np.int64),
            "jammed": np.array(jammed, dtype=bool),
            "delivered": np.array(delivered, dtype=bool),
        }
        assert trace.keys() == expected.keys()
        for name, values in expected.items():
            assert trace[name].dtype == values.dtype, name
            mismatch = np.flatnonzero(trace[name] != values)
            assert mismatch.size == 0, (name, mismatch[:5])

    @pytest.mark.parametrize("policy, draws", [
        (ThresholdPolicy(2), 2), (ThresholdPolicy(INFINITE), 2), (RandomJam(0.5), 3)],
        ids=["threshold", "never", "random"])
    def test_trace_memory_bounded_by_its_arrays(self, policy, draws):
        # Beyond the returned arrays and the uniforms drawn up front, a run
        # may hold only per-chunk temporaries: no horizon-length scratch.
        horizon = 200_000
        tracemalloc.start()
        try:
            trace = single_trace(REF, policy, horizon, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(values.nbytes for values in trace.values())
        assert peak <= returned + draws * 8 * horizon + 2_000_000

    def test_horizon_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="horizon must be at most 10000000"):
            single_trace(REF, ThresholdPolicy(2), sim_mod.MAX_HORIZON + 1, seed=0)
        monkeypatch.setattr(sim_mod, "MAX_HORIZON", 50)
        assert len(single_trace(REF, ThresholdPolicy(2), 50, seed=0)["slot"]) == 50
        with pytest.raises(ValueError, match="horizon must be at most 50, got 51"):
            simulate_single(REF, RandomJam(0.5), 0.0, 51, seed=0)

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
