import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoii_jam.oracle as oracle_mod
from aoii_jam.core import (
    INFINITE,
    SubsystemParams,
    ThresholdPolicy,
    avg_aat_closed,
    avg_eaoii_closed,
    avg_eaoii_no_jam,
    delivery_probability,
    lambda_limit,
    lambda_seq,
    optimal_threshold,
    stationary_pmf,
    steady_reward,
)
from aoii_jam.oracle import (
    ConvergenceError,
    OracleConfig,
    ThresholdStructureError,
    ValueIterationResult,
    _tail_cap,
    avg_numeric,
    brute_force_threshold,
    extract_threshold,
    relative_value_iteration,
    stationary_pmf_numeric,
)
from aoii_jam.verify import RVI_LAMBDA_COUNT, RVI_PARAMS, default_grid
from reference import stationary_pmf_power_iteration

REF = SubsystemParams(p=0.9, q=0.9, r=0.1)
CFG = OracleConfig(state_cap=800, tolerance=1e-10)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(state_cap=5)
        with pytest.raises(ValueError, match="state_cap must be an integer"):
            OracleConfig(state_cap=10.5)  # above the floor, but not a number of ages
        with pytest.raises(ValueError):
            OracleConfig(tolerance=0.0)


class TestValueIteration:
    def test_free_jamming_is_all_jam(self):
        result = relative_value_iteration(REF, 0.0, OracleConfig(state_cap=200))
        assert result.policy.all()
        assert extract_threshold(result) == ThresholdPolicy(0)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 4.2])
    def test_threshold_matches_regime_map(self, lam):
        result = relative_value_iteration(REF, lam, CFG)
        assert extract_threshold(result) == optimal_threshold(REF, lam)

    def test_gain_matches_steady_reward(self):
        result = relative_value_iteration(REF, 1.0, CFG)
        n_star = extract_threshold(result).threshold
        assert result.theta == pytest.approx(steady_reward(REF, n_star, 1.0), abs=1e-6)

    def test_gain_beyond_limit_is_no_jam_average(self):
        result = relative_value_iteration(REF, 5.0, CFG)
        assert extract_threshold(result) == ThresholdPolicy(INFINITE)
        assert result.theta == pytest.approx(avg_eaoii_no_jam(REF), abs=1e-6)

    def test_values_non_decreasing(self):
        result = relative_value_iteration(REF, 2.0, CFG)
        assert np.all(np.diff(result.values) >= -1e-8)

    def test_action_gap_non_decreasing(self):
        # The jam-versus-idle value gap is -lam + pq (V(k+1) - V(0)), which
        # inherits monotonicity from the value function.
        lam = 2.0
        result = relative_value_iteration(REF, lam, CFG)
        v = result.values
        nxt = np.append(v[1:], v[-1])
        gap = -lam + REF.p * REF.q * (nxt - v[0])
        assert np.all(np.diff(gap) >= -1e-8)

    def test_non_convergence_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "MAX_ITERATIONS", 3)
        with pytest.raises(ConvergenceError, match="did not converge in 3 sweeps") as excinfo:
            relative_value_iteration(REF, 1.0, OracleConfig(state_cap=100))
        assert excinfo.value.residual > 0
        with pytest.raises(ConvergenceError, match="power iteration did not converge"):
            stationary_pmf_numeric(REF, 2, OracleConfig(state_cap=100))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            relative_value_iteration(REF, -1.0, CFG)


class TestExtractThreshold:
    def _result(self, policy):
        policy = np.asarray(policy, dtype=bool)
        return ValueIterationResult(
            theta=0.0,
            values=np.zeros(len(policy)),
            policy=policy,
            iterations=1,
        )

    def test_first_active_index(self):
        assert extract_threshold(self._result([0, 0, 0, 1, 1])) == ThresholdPolicy(3)

    def test_all_passive_is_infinite(self):
        assert extract_threshold(self._result([0, 0, 0])) == ThresholdPolicy(INFINITE)

    def test_non_monotone_raises(self):
        with pytest.raises(ThresholdStructureError):
            extract_threshold(self._result([0, 1, 0, 1]))


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(params=st.builds(SubsystemParams, p=st.floats(0.05, 1.0), q=st.floats(0.0, 0.95),
                            r=st.floats(0.02, 0.5)),
           n=st.integers(0, 50), extra=st.integers(0, 50))
    def test_rows_sum_to_one_exactly(self, params, n, extra):
        # Row k of the kernel the power iteration runs: reset with sigma_k, move up with 1 - sigma_k.
        sigma = oracle_mod._threshold_kernel_sigma(params, n, n + extra)
        assert np.all(sigma + (1.0 - sigma) == 1.0)
        assert np.all((sigma >= 0.0) & (sigma <= 1.0))


class TestStationaryNumeric:
    def test_geometric_when_jamming_useless(self):
        params = SubsystemParams(p=0.5, q=0.0, r=0.1)
        cfg = OracleConfig(state_cap=120, tolerance=1e-14)
        pmf = stationary_pmf_numeric(params, 5, cfg)
        expected = 0.5 * 0.5 ** np.arange(121)
        assert np.abs(pmf - expected).sum() < 1e-10

    def test_matches_closed_form(self):
        cfg = OracleConfig(state_cap=300, tolerance=1e-14)
        pmf = stationary_pmf_numeric(REF, 2, cfg)
        closed = stationary_pmf(REF, 2, np.arange(301))
        assert 0.5 * np.abs(pmf - closed).sum() < 1e-8

    def test_above_threshold_recurrence(self):
        # Above the threshold, consecutive stationary masses shrink by the
        # jammed no-delivery probability 1 - p(1-q), not by p(1-q).
        cfg = OracleConfig(state_cap=300, tolerance=1e-14)
        pmf = stationary_pmf_numeric(REF, 2, cfg)
        ratio = pmf[4] / pmf[3]
        assert ratio == pytest.approx(1.0 - 0.9 * 0.1, rel=1e-6)

    @pytest.mark.parametrize("p, q, r, n, cap", [
        (0.9, 0.9, 0.1, 2, 300), (0.5, 0.0, 0.1, 5, 120), (0.2, 0.2, 0.4, 0, 400), (0.05, 0.5, 0.01, 10, 800)])
    def test_iterates_equal_a_fresh_array_per_step(self, p, q, r, n, cap):
        params = SubsystemParams(p, q, r)
        sigma = oracle_mod._threshold_kernel_sigma(params, n, cap)
        pmf = stationary_pmf_numeric(params, n, OracleConfig(state_cap=cap, tolerance=1e-14))
        assert np.array_equal(pmf, stationary_pmf_power_iteration(sigma, 1e-14))

    def test_threshold_beyond_cap_rejected(self):
        with pytest.raises(ValueError):
            stationary_pmf_numeric(REF, 50, OracleConfig(state_cap=20))


class TestAvgNumeric:
    def test_matches_closed_forms(self):
        for n in (0, 2, 5, 10):
            num_s, num_d = avg_numeric(REF, n)
            assert num_s == pytest.approx(avg_eaoii_closed(REF, n), rel=1e-10)
            assert num_d == pytest.approx(avg_aat_closed(REF, n), rel=1e-10)

    def test_always_jam_has_full_attack_time(self):
        _, num_d = avg_numeric(REF, 0)
        assert num_d == pytest.approx(1.0, abs=1e-12)

    def test_geometric_channel(self):
        params = SubsystemParams(p=0.9, q=0.0, r=0.1)
        for n in (0, 4):
            num_s, num_d = avg_numeric(params, n)
            assert num_s == pytest.approx(0.011944577161968, rel=1e-9)
            assert num_d == pytest.approx(0.1**n, rel=1e-12)


class TestBruteForce:
    def test_free_jamming(self):
        assert brute_force_threshold(REF, 0.0, 500) == ThresholdPolicy(0)

    def test_beyond_limit_is_infinite(self):
        assert brute_force_threshold(REF, 5.0, 500) == ThresholdPolicy(INFINITE)
        assert brute_force_threshold(REF, lambda_limit(REF), 500) == ThresholdPolicy(INFINITE)

    def test_first_band_gives_threshold_one(self):
        lam = 0.5 * (lambda_seq(REF, 0) + lambda_seq(REF, 1))
        assert brute_force_threshold(REF, lam, 500) == ThresholdPolicy(1)

    def test_scan_edge_raises(self):
        lam = 0.5 * (lambda_seq(REF, 5) + lambda_seq(REF, 6))
        with pytest.raises(ValueError, match="n_max"):
            brute_force_threshold(REF, lam, 4)


def brute_reference(params, lam, n_max):
    """One cost, one curve: INFINITE at or above the limit, else the argmax, or the edge message."""
    if lam >= lambda_limit(params):
        return ThresholdPolicy(INFINITE)
    ages = np.arange(n_max + 1)
    sbar, dbar = avg_eaoii_closed(params, ages), avg_aat_closed(params, ages)
    best = int(np.argmax(sbar - lam * dbar))
    return "edge" if best == n_max else ThresholdPolicy(best)


class TestBruteForceArray:
    """A cost array gives, from one curve, the policy of each cost's own call."""

    @settings(max_examples=80, deadline=None)
    @given(
        params=st.builds(SubsystemParams, p=st.floats(0.05, 0.99), q=st.floats(0.0, 0.95),
                         r=st.floats(0.02, 0.5)),
        picks=st.lists(st.one_of(
            st.tuples(st.integers(0, 8), st.sampled_from([-1.0, 0.0, 1.0])),
            st.sampled_from([0.0, 1.0, 1.5]) | st.floats(0.0, 1.5),
        ), min_size=1, max_size=12),
        n_max=st.integers(1, 40),
    )
    def test_array_equals_scalar_calls(self, params, picks, n_max):
        # Costs on a tie level or 1e-9 either side of it, and fractions of
        # the limit from 0 to 1.5, the limit itself included.
        limit = lambda_limit(params)
        lams = []
        for pick in picks:
            if isinstance(pick, tuple):
                tie = lambda_seq(params, pick[0])
                lams.append(max(tie + pick[1] * 1e-9 * max(1.0, tie), 0.0))
            else:
                lams.append(pick * limit)
        expected = [brute_reference(params, lam, n_max) for lam in lams]
        if "edge" in expected:
            first = re.escape(f"lam={lams[expected.index('edge')]} is below")
            with pytest.raises(ValueError, match=f"n_max={n_max}; .*{first}"):
                brute_force_threshold(params, np.array(lams), n_max)
            with pytest.raises(ValueError, match=first):
                brute_force_threshold(params, lams[expected.index("edge")], n_max)
            return
        assert brute_force_threshold(params, np.array(lams), n_max) == expected
        assert [brute_force_threshold(params, lam, n_max) for lam in lams] == expected

    def test_float_gives_a_policy_and_array_a_list(self):
        lam = 0.5 * (lambda_seq(REF, 0) + lambda_seq(REF, 1))
        assert brute_force_threshold(REF, lam, 500) == ThresholdPolicy(1)
        assert brute_force_threshold(REF, np.array([lam]), 500) == [ThresholdPolicy(1)]
        assert brute_force_threshold(REF, np.array([0.0, lam, 5.0]), 500) == [
            ThresholdPolicy(0), ThresholdPolicy(1), ThresholdPolicy(INFINITE)]

    def test_every_cost_is_checked(self):
        for bad in (float("nan"), -0.1, float("inf")):
            with pytest.raises(ValueError, match="lam must be finite and >= 0"):
                brute_force_threshold(REF, np.array([0.0, bad]), 500)


class TestTailCap:
    """The one tail-cap rule gives the caps both oracles computed on their own."""

    @staticmethod
    def avg_numeric_cap(params, n):
        b = 1.0 - delivery_probability(params, True)
        if b == 0.0:
            return n + 10
        target = 1e-13 * (1.0 - b) * 2.0 * params.r
        return n + max(math.ceil(math.log(target) / math.log(b)), 10)

    @staticmethod
    def verify_cap(params, n, target):
        b = 1.0 - delivery_probability(params, True)
        if b == 0.0:
            return n + 10
        return n + max(math.ceil(math.log(target * (1.0 - b)) / math.log(b)), 20)

    def test_both_old_caps_on_the_default_grid(self):
        caps = set()
        for params in default_grid():
            for n in (0, 1, 2, 5, 10, 20):
                new = _tail_cap(params, n, 1e-13 * 2.0 * params.r, 10)
                assert new == self.avg_numeric_cap(params, n)
                for target in (1e-10, 1e-16):
                    assert _tail_cap(params, n, target, 20) == self.verify_cap(params, n, target)
                caps.add(new - n)
        assert {10} < caps  # the floor binds somewhere, the log rule elsewhere

    def test_truncated_law_mass_above_the_cap_is_exact(self):
        # At a coarse cut the mass above the cap is up to 2e-3, far above the
        # checks' tolerances: only the exact geometric tail makes the law sum to 1.
        for params in default_grid():
            for n in (0, 2, 10):
                u, mass = oracle_mod._truncated_law(params, n, 1e-2, 1)
                assert len(u) - 1 == _tail_cap(params, n, 1e-2, 1)
                assert abs(u.sum() + mass - 1.0) < 1e-14, (params, n)

    def test_value_iteration_cut_is_large_enough(self):
        # The cap value iteration is run at (target 1e-12, 10 steps past the
        # hint) gives, to a few ulps, the gain and policy of twice that cap:
        # rvi_consistency's 12 costs and criterion 4's 20.
        cases = [(SubsystemParams(*triple), float(lam)) for triple in RVI_PARAMS
                 for lam in np.linspace(0.0, 1.1 * lambda_limit(SubsystemParams(*triple)),
                                        RVI_LAMBDA_COUNT)]
        cases += [(REF, float(lam)) for lam in np.linspace(0.0, 5.0, 20)]
        assert len(cases) == 32
        for params, lam in cases:
            expected = optimal_threshold(params, lam)
            cap = _tail_cap(params, int(min(expected.threshold, 120)), 1e-12, 10)
            cut, doubled = (relative_value_iteration(params, lam, OracleConfig(size, 1e-10))
                            for size in (cap, 2 * cap))
            assert extract_threshold(cut) == extract_threshold(doubled) == expected
            assert abs(cut.theta - doubled.theta) <= 1e-14, (params, lam)
