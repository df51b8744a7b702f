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
    avg_eaoii_no_jam,
    delivery_probability,
    eaoii_ladder,
    lambda_seq,
    stationary_pmf,
)
from aoii_jam.sim import (
    RandomJam,
    RandomMultiJam,
    WhittleJam,
    simulate_multi_batch,
    simulate_single,
    single_trace,
    summarize_trace,
)
from aoii_jam.whittle import FleetConfig, select_jam_set, whittle_table_closed
from reference import (
    GroundTruthState,
    index_masks_per_slot,
    initial_state,
    lane_uniforms,
    resolve_where,
    step_subsystem,
    threshold_deliveries_where,
)

REF = SubsystemParams(p=0.9, q=0.9, r=0.1)
Q_MAX = float(np.nextafter(1.0, 0.0))  # q = 1 itself is not a valid parameter
TWO_CLASS = FleetConfig(
    subsystems=(SubsystemParams(0.2, 0.2, 0.4),) * 2 + (SubsystemParams(0.8, 0.8, 0.2),) * 2,
    budget=2,
)


# Seeded fleet runs of the two classes of TWO_CLASS at budget N/2, seeds 0-2,
# over 4,133 slots: more than one draw chunk, and not a multiple of the 100
# batches. Recorded from the slot-by-slot fleet simulator, before the chunked
# one replaced it. Per run: se_true_aoii, se_aat, avg_eaoii, se_eaoii, then
# per channel the true-AoII sum and the jam count.
GOLDEN_HORIZON = 4_133
FLEET_GOLDEN = {
    ("whittle", 4): [
        (0.031583938396194625, 0.0, 0.8648793207175457, 0.012030621548953098,
         [2971, 2897, 4726, 4429], [0, 0, 4133, 4133]),
        (0.02676723760913155, 0.0, 0.8976457292551105, 0.011181058742636755,
         [3005, 3336, 3895, 3973], [0, 0, 4133, 4133]),
        (0.029668458049938295, 0.0, 0.8552854098393612, 0.010199559975409656,
         [3098, 2843, 3864, 4199], [0, 0, 4133, 4133]),
    ],
    ("whittle", 8): [
        (0.019107728137143898, 0.0, 0.8767365175283175, 0.00878568297583067,
         [2971, 2897, 2889, 3060, 3770, 3787, 4517, 4845], [0, 0, 0, 0, 4133, 4133, 4133, 4133]),
        (0.02092928169481073, 0.0, 0.8843940837155507, 0.0077256551942464936,
         [3005, 3336, 3189, 2951, 4363, 4263, 4403, 4246], [0, 0, 0, 0, 4133, 4133, 4133, 4133]),
        (0.02105235915612531, 0.0, 0.8776913998097462, 0.008678916127471226,
         [3098, 2843, 2725, 3102, 4387, 4391, 4707, 4496], [0, 0, 0, 0, 4133, 4133, 4133, 4133]),
    ],
    ("random", 4): [
        (0.013175150728197083, 0.0, 0.505044977535773, 0.004991804739274866,
         [3233, 3050, 1043, 988], [2110, 2059, 2046, 2051]),
        (0.014589506523494559, 0.0, 0.5137443234891541, 0.005710306800142851,
         [3104, 3375, 1215, 1120], [1999, 2119, 2055, 2093]),
        (0.015794353419418827, 0.0, 0.5075900458595358, 0.0054203966618411896,
         [3244, 3001, 1070, 1018], [2050, 2033, 2069, 2114]),
    ],
    ("random", 8): [
        (0.009675996155630863, 0.0, 0.5073796601846632, 0.004008772807808611,
         [3194, 3046, 3025, 3336, 1049, 1170, 1085, 1054],
         [2071, 2117, 2007, 2064, 2060, 2118, 2050, 2045]),
        (0.011332941707856878, 0.0, 0.5178634581070461, 0.004092802865063744,
         [3140, 3571, 3388, 3102, 1211, 910, 1048, 983],
         [2041, 2049, 2023, 2055, 2123, 2041, 2137, 2063]),
        (0.009772088148050296, 0.0, 0.5104501568624372, 0.003642168340824036,
         [3116, 3016, 2837, 3348, 959, 1030, 1160, 961],
         [2014, 2087, 2138, 2093, 2040, 2056, 2033, 2071]),
    ],
}


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
    @example(params=REF, policy=ThresholdPolicy(2), horizon=sim_mod._BLOCK * sim_mod._CHUNK - 1,
             chunk=None, seed=79)
    @example(params=REF, policy=RandomJam(0.3), horizon=sim_mod._BLOCK * sim_mod._CHUNK,
             chunk=None, seed=80)
    @example(params=SubsystemParams(0.3, 0.6, 0.2), policy=ThresholdPolicy(4),
             horizon=sim_mod._BLOCK * sim_mod._CHUNK + 1, chunk=None, seed=81)
    def test_trace_matches_step_primitive(self, params, policy, horizon, chunk, seed):
        # Replay the run's uniforms, drawn chunk by chunk as a one-channel
        # lane, through the pure one-slot primitive and require every array of
        # the chunked run to agree slot for slot, also when chunks of a few
        # slots make every carry visible.
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(sim_mod, "_CHUNK", chunk)
            trace = single_trace(params, policy, horizon, seed)
        flip, deliver, policy_rng = lane_uniforms(seed, 1, horizon, chunk or sim_mod._CHUNK)
        u_flip, u_deliver = flip[:, 0], deliver[:, 0]
        if isinstance(policy, RandomJam):
            jams = policy_rng.random(horizon) < policy.jam_prob
        state = initial_state()
        ages, aoiis, jammed, delivered = [], [], [], []
        for t in range(horizon):
            if isinstance(policy, RandomJam):
                jam = bool(jams[t])
            else:
                jam = state.age_index >= policy.threshold
            ages.append(state.age_index)
            aoiis.append(state.true_aoii)
            jammed.append(jam)
            state = step_subsystem(state, params, jam, (u_flip[t], u_deliver[t]))
            delivered.append(state.age_index == 0)
        expected = {
            "age_index": np.array(ages, dtype=np.int32),  # the fleet's width
            "true_aoii": np.array(aoiis, dtype=np.int32),
            "jammed": np.array(jammed, dtype=bool),
            "delivered": np.array(delivered, dtype=bool),
        }
        assert trace.keys() == expected.keys()
        for name, values in expected.items():
            assert trace[name].dtype == values.dtype, name
            mismatch = np.flatnonzero(trace[name] != values)
            assert mismatch.size == 0, (name, mismatch[:5])

    @pytest.mark.parametrize("policy", [ThresholdPolicy(2), ThresholdPolicy(INFINITE), RandomJam(0.5)],
                             ids=["threshold", "never", "random"])
    def test_trace_memory_bounded_by_its_arrays(self, policy):
        # Beyond the returned arrays a run may hold only per-chunk draws and
        # temporaries: no horizon-length uniforms or scratch.
        horizon = 200_000
        tracemalloc.start()
        try:
            trace = single_trace(REF, policy, horizon, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(values.nbytes for values in trace.values())
        assert peak <= returned + 2_000_000

    def test_horizon_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="horizon must be at most 10000000"):
            single_trace(REF, ThresholdPolicy(2), sim_mod.MAX_HORIZON + 1, seed=0)
        monkeypatch.setattr(sim_mod, "MAX_HORIZON", 50)
        assert len(single_trace(REF, ThresholdPolicy(2), 50, seed=0)["age_index"]) == 50
        with pytest.raises(ValueError, match="horizon must be at most 50, got 51"):
            simulate_single(REF, RandomJam(0.5), 0.0, 51, seed=0)

    def test_summary_memory_bounded(self):
        # The summary holds one horizon-length float array (the EAoII read off
        # the ladder) and one counting temporary at a time, nothing more.
        horizon = 200_000
        trace = single_trace(REF, RandomJam(0.5), horizon, seed=3)
        tracemalloc.start()
        try:
            summarize_trace(REF, trace, 1.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * horizon + 500_000

    def test_summary_counts_jams_in_four_bytes_a_slot(self):
        # A trace a tenth of the horizon cap: the EAoII read off the ladder
        # takes 8 bytes a slot and the int32 copy that counts the jams 4 more.
        # Counting in numpy's default int64 made it 16.
        horizon = sim_mod.MAX_HORIZON // 10
        age = np.arange(horizon, dtype=np.int64) % 50
        trace = {"age_index": age, "true_aoii": age.copy(), "jammed": age == 0}
        tracemalloc.start()
        try:
            stats = summarize_trace(REF, trace, 1.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.avg_aat == 1 / 50
        assert 11 * horizon <= peak <= 13 * horizon

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
        closed = stationary_pmf(REF, 2, np.arange(top + 1))
        tv = 0.5 * (np.abs(counts - closed).sum() + max(1.0 - closed.sum(), 0.0))
        assert tv < 0.02


def summary_of_series(series: np.ndarray, chunk: int):
    """SimStats of a one-channel run whose EAoII is ``series``, added ``chunk`` slots at a time."""
    slots = len(series)
    totals = sim_mod._new_totals(1, slots)
    zeros = np.zeros((slots, 1), dtype=np.int64)
    for start in range(0, slots, chunk):
        stop = start + chunk
        sim_mod._add_chunk(totals, start, slots, series[start:stop, None],
                           zeros[start:stop], zeros[start:stop].astype(bool))
    return sim_mod._sim_stats(totals, slots, seed=0, lam=0.0)


class TestBatchStandardError:
    def test_iid_scaling(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=100_000)
        se = summary_of_series(series, len(series)).se_eaoii
        assert se == pytest.approx(1.0 / np.sqrt(len(series)), rel=0.2)

    @pytest.mark.parametrize("chunk", [100_000, 4096, 777])
    def test_chunks_sum_to_the_batch_means(self, chunk):
        series = np.random.default_rng(1).normal(size=100_000)
        stats = summary_of_series(series, chunk)
        means = series.reshape(100, 1000).mean(axis=1)
        assert stats.se_eaoii == pytest.approx(means.std(ddof=1) / 10, rel=1e-12)
        assert stats.avg_eaoii == pytest.approx(series.mean(), rel=1e-9, abs=1e-15)

    def test_short_series_is_nan(self):
        assert np.isnan(summary_of_series(np.array([1.0, 2.0, 3.0]), 1).se_eaoii)

    def test_tail_counts_in_the_averages_only(self):
        # 1,005 slots make 100 batches of 10; the last 5 slots are in no batch.
        series = np.r_[np.zeros(1_000), np.full(5, 1e6)]
        stats = summary_of_series(series, 7)
        assert stats.avg_eaoii == 5e6 / 1_005
        assert stats.se_eaoii == 0.0


class TestChunkKernels:
    """The int32 kernels against their int64 ``np.where`` forms in ``reference``."""

    def test_codes_fit_int32(self):
        # _resolve codes a delivery 2 * slot + 2 + bit and counts the budget in
        # uint16: both caps must keep those inside their types.
        assert 2 * sim_mod.MAX_HORIZON + 3 <= np.iinfo(np.int32).max
        assert sim_mod.MAX_FLEET <= np.iinfo(np.uint16).max

    probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 64), min_size=2, max_size=4),
        channels=st.integers(1, 6),
        p_deliver=probability,
        p_flip=probability,
        start=st.one_of(st.just(0), st.integers(0, 10**6)),
        width=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[64, 1, 64], channels=3, p_deliver=0.3, p_flip=0.5,
             start=sim_mod.MAX_HORIZON - 4096, width=np.int32, seed=5)
    @example(lengths=[64, 64], channels=2, p_deliver=0.0, p_flip=1.0,
             start=sim_mod.MAX_HORIZON - 4096, width=np.int32, seed=6)
    def test_resolve_matches_where_form(self, lengths, channels, p_deliver, p_flip, start,
                                        width, seed):
        # Both kernels thread their own carries from a run's start through
        # the chunks and must agree on every age, true AoII and carry.
        rng = np.random.default_rng(seed)
        carry = expected_carry = sim_mod._start_carry(channels)
        for length in lengths:
            delivered = rng.random((length, channels)) < p_deliver
            flips = rng.random((length, channels)) < p_flip
            age, aoii = np.empty((2, length, channels), dtype=width)
            expected_age, expected_aoii = np.empty((2, length, channels), dtype=np.int64)
            carry = sim_mod._resolve(delivered, flips, start, carry, age, aoii)
            expected_carry = resolve_where(delivered, flips, start, expected_carry,
                                           expected_age, expected_aoii)
            assert np.array_equal(age, expected_age)
            assert np.array_equal(aoii, expected_aoii)
            for value, expected in zip(carry, expected_carry):
                assert np.array_equal(value, expected)
            start += length

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(1, 200),
        p=probability,
        jam_factor=probability,
        n=st.integers(0, 70),
        last=st.integers(-100, -1),
        seed=st.integers(0, 2**32 - 1),
    )
    # A full chunk with no gap above n; n = 0, where every candidate starts a
    # run; no candidate at all; and a first candidate beyond n of ``last``.
    @example(length=sim_mod._CHUNK, p=1.0, jam_factor=0.5, n=1, last=-1, seed=0)
    @example(length=200, p=0.7, jam_factor=0.3, n=0, last=-5, seed=1)
    @example(length=60, p=0.0, jam_factor=0.5, n=3, last=-1, seed=2)
    @example(length=150, p=0.4, jam_factor=0.2, n=10, last=-100, seed=3)
    def test_threshold_deliveries_match_where_form(self, length, p, jam_factor, n, last, seed):
        u = np.random.default_rng(seed).random(length)
        maybe, sure = u < p, u < p * jam_factor
        assert np.array_equal(sim_mod._threshold_deliveries(maybe, sure, n, last),
                              threshold_deliveries_where(maybe, sure, n, last))


class TestMultiSource:
    def test_budget_enforced_exactly(self):
        stats = simulate_multi_batch(TWO_CLASS, WhittleJam(), 4_000, [3])[0]
        assert stats.avg_aat == pytest.approx(2 / 4, abs=1e-12)
        stats = simulate_multi_batch(TWO_CLASS, RandomMultiJam(), 4_000, [3])[0]
        assert stats.avg_aat == pytest.approx(2 / 4, abs=1e-12)

    @pytest.mark.parametrize("policy", [WhittleJam(), RandomMultiJam()], ids=["whittle", "random"])
    def test_budget_violation_raises(self, monkeypatch, policy):
        # Selection keys are never negative, so this selection jams nothing.
        monkeypatch.setattr(sim_mod, "jam_mask", lambda keys, budget: keys < 0)
        with pytest.raises(RuntimeError, match="slot 0: jammed 0 channels, budget 2"):
            simulate_multi_batch(TWO_CLASS, policy, 10, [0])

    @pytest.mark.parametrize("policy", [WhittleJam(), RandomMultiJam()], ids=["whittle", "random"])
    def test_budget_checked_lane_by_lane_in_seed_order(self, monkeypatch, policy):
        # Drops a jam from the second lane at slot 5 and from the third at
        # slot 3: the error names the first lane's first bad slot. The index
        # policy fills the chunk's whole (slot, lane, channel) mask block in
        # one call, the baseline one lane's chunk per ``jam_mask`` call.
        drops = {(5, 1), (3, 2)}
        if isinstance(policy, WhittleJam):
            real = sim_mod._index_masks

            def fill(masks, *args):
                work = real(masks, *args)
                for slot, lane in drops:
                    masks[slot, lane, np.flatnonzero(masks[slot, lane])[0]] = False
                return work

            monkeypatch.setattr(sim_mod, "_index_masks", fill)
        else:
            real, lanes = sim_mod.jam_mask, []

            def select(keys, budget):
                mask = real(keys, budget)
                for slot, lane in drops:
                    if lane == len(lanes):
                        mask[slot, np.flatnonzero(mask[slot])[0]] = False
                lanes.append(keys.shape)
                return mask

            monkeypatch.setattr(sim_mod, "jam_mask", select)
        with pytest.raises(RuntimeError, match="^slot 5: jammed 1 channels, budget 2$"):
            simulate_multi_batch(TWO_CLASS, policy, 10, [0, 1, 2])

    def test_budget_counted_past_a_byte(self, monkeypatch):
        # 300 jams in a 300-channel fleet with budget 44 would read 44 if the
        # check counted in uint8.
        fleet = FleetConfig((REF,) * 300, 44)
        monkeypatch.setattr(sim_mod, "jam_mask", lambda keys, budget: keys >= 0)
        with pytest.raises(RuntimeError, match="^slot 0: jammed 300 channels, budget 44$"):
            simulate_multi_batch(fleet, RandomMultiJam(), 10, [0])

    def test_single_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_multi_batch(TWO_CLASS, ThresholdPolicy(2), 100, [0])

    def test_horizon_cap(self, monkeypatch):
        monkeypatch.setattr(sim_mod, "MAX_HORIZON", 50)
        assert simulate_multi_batch(TWO_CLASS, RandomMultiJam(), 50, [0])[0].slots == 50
        for policy in (WhittleJam(), RandomMultiJam()):
            with pytest.raises(ValueError, match="horizon must be at most 50, got 51"):
                simulate_multi_batch(TWO_CLASS, policy, 51, [0])

    def test_fleet_size_cap(self, monkeypatch):
        too_big = FleetConfig((REF,) * (sim_mod.MAX_FLEET + 1), 1)
        with pytest.raises(ValueError, match="at most 1024 subsystems, got 1025"):
            simulate_multi_batch(too_big, RandomMultiJam(), 1, [0])
        monkeypatch.setattr(sim_mod, "MAX_FLEET", 3)
        with pytest.raises(ValueError, match="at most 3 subsystems, got 4"):
            simulate_multi_batch(TWO_CLASS, WhittleJam(), 1, [0])

    @pytest.mark.parametrize("budget", [0, 2])
    @pytest.mark.parametrize("policy", [WhittleJam(), RandomMultiJam()], ids=["whittle", "random"])
    def test_batching_invariance(self, policy, budget):
        fleet = FleetConfig(TWO_CLASS.subsystems, budget)
        alone = simulate_multi_batch(fleet, policy, 3_000, [22])[0]
        batched = simulate_multi_batch(fleet, policy, 3_000, [21, 22, 23])
        assert alone == batched[1]

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
        # (_CHUNK, horizon): the default chunk and up to three chunks and a
        # slot, or chunks of a few slots.
        run=st.one_of(st.tuples(st.none(), st.integers(1, 3 * 4096 + 1)),
                      st.tuples(st.integers(1, 9), st.integers(1, 300))),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(params=REF, run=(None, 10_007), seed=3)
    def test_fleet_of_one_is_a_single_source(self, params, run, seed):
        # A lone unjammed channel is a single-source never-jam run at every
        # horizon: both draw it as one lane, chunk by chunk, so its ages and
        # true AoII agree slot for slot, and so do the averages and errors
        # built from integer sums. The single-source summary adds its EAoII
        # as one chunk and the fleet one per _CHUNK slots, so the EAoII
        # fields agree up to summation order.
        chunk, horizon = run
        ages, aoiis = [], []
        real_resolve = sim_mod._resolve

        def resolve(delivered, flips, start, carry, age, aoii):
            carry = real_resolve(delivered, flips, start, carry, age, aoii)
            ages.append(age[:, 0].copy())
            aoiis.append(aoii[:, 0].copy())
            return carry

        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(sim_mod, "_CHUNK", chunk)
            trace = single_trace(params, ThresholdPolicy(INFINITE), horizon, seed)
            patch.setattr(sim_mod, "_resolve", resolve)
            fleet = simulate_multi_batch(FleetConfig((params,), 0), WhittleJam(), horizon, [seed])[0]
        assert np.array_equal(np.concatenate(ages), trace["age_index"])
        assert np.array_equal(np.concatenate(aoiis), trace["true_aoii"])
        single = summarize_trace(params, trace, 0.0, seed)
        for name in ("avg_true_aoii", "avg_aat", "se_true_aoii", "se_aat"):
            a, b = getattr(fleet, name), getattr(single, name)
            assert (math.isnan(a) and math.isnan(b)) or a == b, (name, a, b)
        for name in ("avg_reward", "avg_eaoii", "se_reward", "se_eaoii"):
            a, b = getattr(fleet, name), getattr(single, name)
            assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, rel=1e-12, abs=0.0), (
                name, a, b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_jam_sets_follow_the_index(self, data):
        # Small fleets in chunks of a few slots: every chunk carries ages
        # across, and the tables grow many times. At every slot of every lane
        # the jammed channels are the ones select_jam_set picks at its ages.
        params = st.builds(SubsystemParams, p=st.floats(0.05, 1.0),
                           q=st.one_of(st.just(0.0), st.floats(0.0, 0.95)), r=st.floats(0.02, 0.5))
        classes = data.draw(st.lists(params, min_size=2, max_size=3, unique=True))
        extra = data.draw(st.lists(st.sampled_from(classes), max_size=6 - len(classes)))
        subsystems = data.draw(st.permutations(classes + extra))
        budget = data.draw(st.integers(0, len(subsystems) - 1))
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3, unique=True))
        horizon = data.draw(st.integers(1, 300))
        chunk = data.draw(st.integers(1, 9))
        ages, masks = [], []
        real_resolve, real_add = sim_mod._resolve, sim_mod._add_chunk

        def resolve(delivered, flips, start, carry, age, aoii):
            carry = real_resolve(delivered, flips, start, carry, age, aoii)
            ages.append(age.copy())
            return carry

        def add_chunk(totals, start, slots, eaoii, aoii, jammed):
            masks.append(jammed.copy())
            real_add(totals, start, slots, eaoii, aoii, jammed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_mod, "_CHUNK", chunk)
            patch.setattr(sim_mod, "_resolve", resolve)
            patch.setattr(sim_mod, "_add_chunk", add_chunk)
            fleet = FleetConfig(tuple(subsystems), budget)
            simulate_multi_batch(fleet, WhittleJam(), horizon, seeds)
        # Captured chunk by chunk, and within a chunk lane by lane.
        for lane in range(len(seeds)):
            lane_ages = np.concatenate(ages[lane::len(seeds)])
            lane_masks = np.concatenate(masks[lane::len(seeds)])
            assert len(lane_ages) == len(lane_masks) == horizon
            for slot, (age, mask) in enumerate(zip(lane_ages.tolist(), lane_masks)):
                assert set(np.flatnonzero(mask).tolist()) == select_jam_set(fleet, age), (
                    lane, slot, age)

    def test_ranks_the_fleets_classes(self, monkeypatch):
        # Interleaved classes: the run reads FleetConfig.classes once, and its
        # index table rows are those classes, in first-appearance order.
        slow, fast = TWO_CLASS.subsystems[0], TWO_CLASS.subsystems[-1]
        fleet = FleetConfig((fast, REF, fast, slow, REF), 2)
        real_classes, reads, tables = FleetConfig.classes, [], []

        def classes(self):
            reads.append(self)
            return real_classes.fget(self)

        def rank_keys(table, channels):
            tables.append(table)
            return real_rank_keys(table, channels)

        real_rank_keys = sim_mod.rank_keys
        monkeypatch.setattr(FleetConfig, "classes", property(classes))
        monkeypatch.setattr(sim_mod, "rank_keys", rank_keys)
        simulate_multi_batch(fleet, WhittleJam(), 100, [0, 1])
        assert reads == [fleet] and fleet.classes[0] == (fast, REF, slow)
        width = tables[0].shape[1]
        assert np.array_equal(tables[0], [whittle_table_closed(c, width - 1) for c in (fast, REF, slow)])

    def test_eaoii_read_at_the_true_age(self):
        # A channel that delivers with probability 1e-9 does not deliver in
        # 10^4 slots at this seed, so its age in slot t is t, past the 8,192
        # ages the tables are first built for.
        params = SubsystemParams(1e-9, 0.5, 1e-4)
        ages = single_trace(params, ThresholdPolicy(INFINITE), 10_000, seed=4)["age_index"]
        assert (ages == np.arange(10_000)).all()
        stats = simulate_multi_batch(FleetConfig((params,), 0), WhittleJam(), 10_000, [4])[0]
        assert stats.avg_eaoii == pytest.approx(eaoii_ladder(params, 10_000).mean(), rel=1e-12)

    @pytest.mark.parametrize("policy", [WhittleJam(), RandomMultiJam()])
    def test_second_class_ladder_read_after_growth(self, policy):
        # Channel 1 never delivers in 20,000 slots at this seed, so the ladder
        # is rebuilt from 8,192 to 20,000 ages and its second row is read past
        # the first width. Stream 0 of a lane is the single-source stream.
        fast, slow = SubsystemParams(0.8, 0.8, 0.2), SubsystemParams(1e-9, 0.5, 1e-4)
        stats = simulate_multi_batch(FleetConfig((fast, slow), 0), policy, 20_000, [4])[0]
        ages = single_trace(fast, ThresholdPolicy(INFINITE), 20_000, 4)["age_index"]
        fast_mean = eaoii_ladder(fast, int(ages.max()) + 1)[ages].mean()
        slow_mean = eaoii_ladder(slow, 20_000).mean()
        assert stats.per_subsystem[0].avg_eaoii == pytest.approx(fast_mean, rel=1e-12)
        assert stats.per_subsystem[1].avg_eaoii == pytest.approx(slow_mean, rel=1e-12)

    def test_eaoii_ladder_grows_by_doubling(self, monkeypatch):
        # A channel that never delivers ages by 4,096 in each of 25 chunks;
        # sized to twice the oldest age, the ladder is built 4 times, not 25.
        params = SubsystemParams(1e-9, 0.5, 1e-4)
        sizes = []

        def ladder(p, size):
            sizes.append(size)
            return eaoii_ladder(p, size)

        monkeypatch.setattr(sim_mod, "eaoii_ladder", ladder)
        stats = simulate_multi_batch(FleetConfig((params,), 0), RandomMultiJam(), 100_000, [4])[0]
        assert sizes == [8_192, 24_576, 57_344, 100_000]
        assert stats.avg_eaoii == pytest.approx(eaoii_ladder(params, 100_000).mean(), rel=1e-12)

    def test_index_ranked_at_the_true_age(self, monkeypatch):
        # Two slow channels outgrow the first tables; with one jam a slot,
        # channel 1 is jammed exactly when its index is the higher one, ties
        # to channel 0, at every age, however old.
        params = SubsystemParams(0.0005, 0.9, 1e-4)
        ages, masks = [], []
        real_resolve, real_add = sim_mod._resolve, sim_mod._add_chunk

        def resolve(delivered, flips, start, carry, age, aoii):
            carry = real_resolve(delivered, flips, start, carry, age, aoii)
            ages.append(age.copy())
            return carry

        def add_chunk(totals, start, slots, eaoii, aoii, jammed):
            masks.append(jammed.copy())
            real_add(totals, start, slots, eaoii, aoii, jammed)

        monkeypatch.setattr(sim_mod, "_resolve", resolve)
        monkeypatch.setattr(sim_mod, "_add_chunk", add_chunk)
        simulate_multi_batch(FleetConfig((params,) * 2, 1), WhittleJam(), 20_000, [2])
        age, mask = np.concatenate(ages), np.concatenate(masks)
        assert age.max() > 4_095
        index = lambda_seq(params, np.arange(int(age.max()) + 1))[age]
        assert (mask[:, 1] == (index[:, 1] > index[:, 0])).all()

    def test_both_tables_grow_on_one_schedule(self, monkeypatch):
        # Two channels that never deliver, one jammed each slot: the index
        # table and the EAoII ladder are rebuilt together, sized to twice
        # the oldest age a chunk could reach.
        params = SubsystemParams(1e-9, 0.5, 1e-4)
        index_ages, sizes = [], []

        def table(p, n_max):
            index_ages.append(n_max)
            return whittle_table_closed(p, n_max)

        def ladder(p, size):
            sizes.append(size)
            return eaoii_ladder(p, size)

        monkeypatch.setattr(sim_mod, "whittle_table_closed", table)
        monkeypatch.setattr(sim_mod, "eaoii_ladder", ladder)
        simulate_multi_batch(FleetConfig((params,) * 2, 1), WhittleJam(), 100_000, [4])
        assert index_ages == [8_191, 24_575, 57_343, 99_999]
        assert sizes == [8_192, 24_576, 57_344, 100_000]

    def test_table_memory_grows_with_classes_not_channels(self):
        # 20 channels that never deliver reach age 19,999, so both tables grow
        # to the horizon; they are per class, so 40 channels cost two rows each.
        fleet = FleetConfig.from_classes(
            [(SubsystemParams(1e-9, 0.5, 1e-4), 0.5), (SubsystemParams(0.8, 0.8, 0.2), 0.5)],
            40, 20)
        tracemalloc.start()
        try:
            simulate_multi_batch(fleet, WhittleJam(), 20_000, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24_000_000

    def test_budget_zero_skips_the_slot_loop(self, monkeypatch):
        # With no jams to choose, the index policy runs like the baseline:
        # same streams, same deliveries, never a selection.
        fleet = FleetConfig(subsystems=TWO_CLASS.subsystems, budget=0)
        expected = simulate_multi_batch(fleet, RandomMultiJam(), 5_000, [1, 2])

        def select(keys, budget):
            pytest.fail("a budget-0 fleet selected jams")

        monkeypatch.setattr(sim_mod, "jam_mask", select)
        assert simulate_multi_batch(fleet, WhittleJam(), 5_000, [1, 2]) == expected
        assert simulate_multi_batch(fleet, RandomMultiJam(), 5_000, [1, 2]) == expected

    def test_unjammed_fleet_matches_single_never(self):
        fleet = FleetConfig(subsystems=(REF, REF), budget=0)
        multi = simulate_multi_batch(fleet, WhittleJam(), 150_000, [8])[0]
        single = simulate_single(REF, ThresholdPolicy(INFINITE), 0.0, 150_000, seed=8)
        assert multi.avg_aat == 0.0
        tol = 4 * np.hypot(multi.se_true_aoii, single.se_true_aoii)
        assert abs(multi.avg_true_aoii - single.avg_true_aoii) < tol

    def test_identical_fleet_tie_break_favors_low_ids(self):
        # Jam the three highest ages each slot; with identical parameters the
        # deterministic tie to the lower channel makes attack time
        # non-increasing in the channel, while the fleet total stays pinned at M/N.
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

    @pytest.mark.parametrize("policy", [WhittleJam(), RandomMultiJam()], ids=["whittle", "random"])
    @pytest.mark.parametrize("n_total", [4, 8])
    def test_seeded_values_are_pinned(self, policy, n_total):
        # Everything built from integer sums must match exactly; EAoII and the
        # reward are float sums, pinned only up to their summation order.
        classes = [(TWO_CLASS.subsystems[0], 0.5), (TWO_CLASS.subsystems[-1], 0.5)]
        fleet = FleetConfig.from_classes(classes, n_total, n_total // 2)
        runs = simulate_multi_batch(fleet, policy, GOLDEN_HORIZON, [0, 1, 2])
        name = "whittle" if isinstance(policy, WhittleJam) else "random"
        for stats, expected in zip(runs, FLEET_GOLDEN[(name, n_total)], strict=True):
            se_true, se_aat, eaoii, se_eaoii, true_sums, jam_counts = expected
            channel_slots = GOLDEN_HORIZON * n_total
            assert (stats.avg_true_aoii, stats.avg_aat, stats.se_true_aoii, stats.se_aat) == (
                sum(true_sums) / channel_slots, sum(jam_counts) / channel_slots, se_true, se_aat)
            per = stats.per_subsystem
            assert [sub.avg_true_aoii for sub in per] == [x / GOLDEN_HORIZON for x in true_sums]
            assert [sub.avg_aat for sub in per] == [x / GOLDEN_HORIZON for x in jam_counts]
            for value in (stats.avg_eaoii, stats.avg_reward):
                assert value == pytest.approx(eaoii, rel=1e-12, abs=0.0)
            for value in (stats.se_eaoii, stats.se_reward):
                assert value == pytest.approx(se_eaoii, rel=1e-12, abs=0.0)
            assert np.mean([sub.avg_eaoii for sub in per]) == pytest.approx(eaoii, rel=1e-12)


# Fleets whose per-slot index ranking the key bounds must reproduce: criterion
# 9's two classes, where the jam set never changes, and two where it changes
# almost every slot.
INDEX_FLEETS = {
    "criterion9": [(SubsystemParams(0.2, 0.2, 0.4), 0.5), (SubsystemParams(0.8, 0.8, 0.2), 0.5)],
    "one_class": [(SubsystemParams(0.8, 0.8, 0.2), 1.0)],
    "mixed": [(SubsystemParams(0.84, 0.88, 0.35), 0.5), (SubsystemParams(0.46, 0.80, 0.15), 0.5)],
}

# Two classes whose index ranges overlap only at old ages: the slow class's
# index passes the fast class's lowest (at age 0) from age 29 on, and never
# reaches the fast class's index at age 1.
OLD_OVERLAP = [(SubsystemParams(0.2, 0.2, 0.1), 0.5), (SubsystemParams(0.8, 0.8, 0.2), 0.5)]


def per_slot_runs(fleet, horizon, seeds):
    """The index policy's runs with one ranked step per slot (the reference loop)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_mod, "_index_masks", index_masks_per_slot)
        return simulate_multi_batch(fleet, WhittleJam(), horizon, seeds)


class TestIndexSpeculation:
    """The index policy's masks against one ranked step per slot, and its ranked steps."""

    @pytest.mark.parametrize("horizon", [4_133, 10_007])
    @pytest.mark.parametrize("n_total", [4, 40])
    @pytest.mark.parametrize("name", list(INDEX_FLEETS))
    def test_equals_one_ranked_step_per_slot(self, name, n_total, horizon):
        fleet = FleetConfig.from_classes(INDEX_FLEETS[name], n_total, n_total // 2)
        seeds = [0, 1, 2]
        expected = per_slot_runs(fleet, horizon, seeds)
        assert simulate_multi_batch(fleet, WhittleJam(), horizon, seeds) == expected

    @pytest.mark.parametrize("n_total", [4, 40])
    @pytest.mark.parametrize("name", list(INDEX_FLEETS))
    def test_equals_per_slot_at_extreme_budgets(self, name, n_total):
        for budget in (1, n_total - 1):
            fleet = FleetConfig.from_classes(INDEX_FLEETS[name], n_total, budget)
            expected = per_slot_runs(fleet, 4_133, [3, 4])
            assert simulate_multi_batch(fleet, WhittleJam(), 4_133, [3, 4]) == expected

    @pytest.mark.parametrize("fleet, horizon, seeds", [
        (FleetConfig((REF,) * 4, 3), 10_007, [5, 6]),
        # The slow channels of test_index_ranked_at_the_true_age outgrow the first tables.
        (FleetConfig((SubsystemParams(0.0005, 0.9, 1e-4),) * 2, 1), 20_000, [2]),
    ], ids=["identical_budget3", "slow_table_growth"])
    def test_equals_per_slot_on_ties_and_growth(self, fleet, horizon, seeds):
        expected = per_slot_runs(fleet, horizon, seeds)
        assert simulate_multi_batch(fleet, WhittleJam(), horizon, seeds) == expected

    @pytest.mark.parametrize("chunk", [40, 4_096])
    @pytest.mark.parametrize("n_total", [4, 40])
    def test_equals_per_slot_where_ranges_overlap_at_old_ages(self, monkeypatch, n_total, chunk):
        # Every chunk starts with a reach past age 29, so the key bounds
        # decline it; in 40-slot chunks they settle many chunk ends, where
        # the reach has shrunk below it.
        monkeypatch.setattr(sim_mod, "_CHUNK", chunk)
        fleet = FleetConfig.from_classes(OLD_OVERLAP, n_total, n_total // 2)
        expected = per_slot_runs(fleet, 10_007, [0, 1, 2])
        assert simulate_multi_batch(fleet, WhittleJam(), 10_007, [0, 1, 2]) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        triples=st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 0.95), st.floats(0.01, 0.5)),
                         min_size=2, max_size=7),
        budget_share=st.floats(0.0, 1.0),
        horizon=st.integers(4, 600),  # two batches at least, so no error is NaN
        seed=st.integers(0, 2**32 - 1),
        chunk=st.integers(5, 64),  # chunk ends, partial last chunks and table growth
    )
    def test_equals_per_slot_on_random_fleets(self, triples, budget_share, horizon, seed, chunk):
        subsystems = tuple(SubsystemParams(*t) for t in triples)
        budget = min(int(budget_share * len(subsystems)), len(subsystems) - 1)
        fleet = FleetConfig(subsystems, budget)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_mod, "_CHUNK", chunk)
            expected = per_slot_runs(fleet, horizon, [seed, seed + 1])
            assert simulate_multi_batch(fleet, WhittleJam(), horizon, [seed, seed + 1]) == expected

    @pytest.mark.parametrize("name, steps, settled", [
        ("criterion9", 3, 3), ("one_class", 10_000, 0)])
    def test_work_counts(self, monkeypatch, name, steps, settled):
        # On criterion 9's classes the key bounds settle each of the three
        # chunks after one ranked step; on one class a channel's own key range
        # overlaps itself, so they never settle one and every slot is ranked.
        real, work = sim_mod._index_masks, []

        def fill(masks, *args):
            work.append((real(masks, *args), len(masks)))
            return work[-1][0]

        monkeypatch.setattr(sim_mod, "_index_masks", fill)
        fleet = FleetConfig.from_classes(INDEX_FLEETS[name], 40, 20)
        simulate_multi_batch(fleet, WhittleJam(), 10_000, list(range(10)))
        assert len(work) == 3
        assert sum(ranked for ranked, _ in work) == steps
        assert sum(ranked < chunk for ranked, chunk in work) == settled


def random_baseline_value(classes, theta) -> float:
    """Per-channel long-run EAoII of jamming each channel with probability theta in every slot.

    Its deliveries are then i.i.d. Bernoulli(rho), rho = theta * p(1-q) +
    (1 - theta) * p, so it is the no-jam average at p = rho, averaged over
    the classes; by the tower property it is also the long-run true AoII.
    """
    return sum(share * avg_eaoii_no_jam(SubsystemParams(
        theta * delivery_probability(c, True) + (1 - theta) * c.p, c.q, c.r)) for c, share in classes)


class TestRandomBaselines:
    # Criterion 9's classes (equal shares) at jam rate 1/2, seeds 0-9 and
    # 2*10^4 slots. Each tolerance is 4 standard deviations of a 10-seed mean,
    # from the per-seed deviations of EAoII and true AoII measured over 200
    # seeds: 0.00451 and 0.01011 for the two single-source runs' mean,
    # 0.00250 and 0.00676 for the fleet at N = 4, 0.00082 and 0.00214 at N = 40.
    CLASSES = INDEX_FLEETS["criterion9"]
    SEEDS, HORIZON = range(10), 20_000

    def test_value_of_criterion9_classes(self):
        assert random_baseline_value(self.CLASSES, 0.5) == pytest.approx(0.51559, abs=5e-6)

    def test_random_jam_matches_exact_value_and_rate(self):
        runs = [simulate_single(c, RandomJam(0.5), 0.0, self.HORIZON, seed)
                for seed in self.SEEDS for c, _ in self.CLASSES]
        exact = random_baseline_value(self.CLASSES, 0.5)
        assert np.mean([r.avg_eaoii for r in runs]) == pytest.approx(exact, abs=4 * 0.00451 / math.sqrt(10))
        assert np.mean([r.avg_true_aoii for r in runs]) == pytest.approx(exact, abs=4 * 0.01011 / math.sqrt(10))
        # Jams are i.i.d. Bernoulli(1/2): 4 binomial deviations of the rate.
        rate_sd = math.sqrt(0.25 / (self.HORIZON * len(runs)))
        assert np.mean([r.avg_aat for r in runs]) == pytest.approx(0.5, abs=4 * rate_sd)

    @pytest.mark.parametrize("n_total, sd_eaoii, sd_true", [(4, 0.00250, 0.00676), (40, 0.00082, 0.00214)])
    def test_random_multi_jam_matches_exact_value(self, n_total, sd_eaoii, sd_true):
        fleet = FleetConfig.from_classes(self.CLASSES, n_total, n_total // 2)
        runs = simulate_multi_batch(fleet, RandomMultiJam(), self.HORIZON, list(self.SEEDS))
        exact = random_baseline_value(self.CLASSES, 0.5)
        assert np.mean([r.avg_eaoii for r in runs]) == pytest.approx(exact, abs=4 * sd_eaoii / math.sqrt(10))
        assert np.mean([r.avg_true_aoii for r in runs]) == pytest.approx(exact, abs=4 * sd_true / math.sqrt(10))
