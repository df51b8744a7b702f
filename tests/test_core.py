import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoii_jam import core
from aoii_jam.core import (
    INFINITE,
    SubsystemParams,
    ThresholdPolicy,
    avg_aat_closed,
    avg_eaoii_closed,
    avg_eaoii_no_jam,
    delivery_probability,
    eaoii_ladder,
    eaoii_value,
    intersection_lambda,
    lambda_limit,
    lambda_seq,
    optimal_threshold,
    optimal_thresholds,
    stationary_pmf,
    steady_reward,
)
from aoii_jam.sim import single_trace

from exact import ExactRewardCurve, exact_avg_eaoii_no_jam, exact_intersection, exact_lambda

REF = SubsystemParams(p=0.9, q=0.9, r=0.1)
EDGE = float(np.nextafter(2**-54, 1))  # the smallest p or r whose 1 - p or 1 - r is below 1

params_st = st.builds(
    SubsystemParams,
    p=st.floats(0.05, 1.0),
    q=st.floats(0.0, 0.95),
    r=st.floats(0.02, 0.5),
)


def brute_avg(params, n, cap=60000):
    """Plain truncated sums over the stationary law, no closed forms."""
    u = stationary_pmf(params, n, np.arange(cap + 1))
    s = eaoii_ladder(params, cap + 1)
    return float((s * u).sum()), float(u[n:].sum())


class TestParams:
    @pytest.mark.parametrize(
        "p,q,r",
        [(0.0, 0.5, 0.1), (1.1, 0.5, 0.1), (0.5, 1.0, 0.1), (0.5, -0.1, 0.1),
         (0.5, 0.5, 0.0), (0.5, 0.5, 0.6)],
    )
    def test_invalid_rejected(self, p, q, r):
        with pytest.raises(ValueError):
            SubsystemParams(p=p, q=q, r=r)

    def test_edges_accepted(self):
        SubsystemParams(p=1.0, q=0.0, r=0.5)
        SubsystemParams(p=0.01, q=0.99, r=0.01)
        SubsystemParams(p=0.5, q=0.5, r=1e-16)  # 1 - r is below 1

    @pytest.mark.parametrize("p,q,r", [(0.5, 0.5, 5e-324), (1e-200, 0.5, 1e-200)])
    def test_underflowing_closed_forms_rejected(self, p, q, r):
        with pytest.raises(ValueError, match="the closed forms are not finite"):
            SubsystemParams(p=p, q=q, r=r)

    @pytest.mark.parametrize("r", [1e-17, 5.5e-17, 1e-300, 5e-324])
    def test_r_whose_one_minus_r_rounds_to_one_rejected(self, r):
        # Every power of 1 - r is 1.0: lambda_seq would be 0 at every threshold.
        with pytest.raises(ValueError, match=f"^p=0.5, q=0.5, r={r}: the closed forms are not finite$"):
            SubsystemParams(p=0.5, q=0.5, r=r)

    def test_construction_evaluates_no_closed_form(self, monkeypatch):
        # A triple is valid by its bounds alone.
        def evaluated(*args):
            pytest.fail("a closed form was evaluated to validate a triple")

        monkeypatch.setattr(core, "lambda_limit", evaluated)
        monkeypatch.setattr(core, "lambda_seq", evaluated)
        for p, q, r in ((0.9, 0.9, 0.1), (1.0, 0.0, 0.5), (EDGE, 1 - 2**-53, EDGE)):
            SubsystemParams(p=p, q=q, r=r)

    tiny = st.one_of(st.floats(5e-324, 1e-290), st.floats(1e-290, 1e-12), st.floats(1e-12, 0.5))

    @settings(max_examples=400, deadline=None)
    @given(p=st.one_of(tiny, st.floats(0.5, 1.0)), q=st.floats(0.0, 0.99), r=tiny)
    @example(p=0.5, q=0.5, r=5e-324)
    @example(p=1e-200, q=0.5, r=1e-200)
    @example(p=5e-324, q=0.0, r=5e-324)
    @example(p=1e-17, q=0.5, r=0.1)  # 1 - p rounds to 1
    # The rounding boundary: 1 - 2**-54 rounds to 1, 1 - EDGE does not.
    @example(p=EDGE, q=1 - 2**-53, r=EDGE)
    @example(p=EDGE, q=0.0, r=EDGE)
    @example(p=2**-54, q=0.5, r=EDGE)
    @example(p=EDGE, q=0.5, r=2**-54)
    @example(p=1.0, q=1 - 2**-53, r=EDGE)
    def test_accepted_triples_have_finite_closed_forms(self, p, q, r):
        try:
            params = SubsystemParams(p=p, q=q, r=r)
        except ValueError as exc:
            assert "the closed forms are not finite" in str(exc)
            return
        for value in (lambda_limit(params), lambda_seq(params, 0), 1 / (2 * r),
                      intersection_lambda(params, 0, 1), avg_eaoii_closed(params, 0),
                      avg_eaoii_no_jam(params)):
            assert math.isfinite(value), (params, value)


class TestThresholdPolicy:
    def test_jam_rule(self):
        trace = single_trace(SubsystemParams(0.3, 0.5, 0.1), ThresholdPolicy(3), 2_000, seed=1)
        ages = trace["age_index"]
        assert set(range(5)) <= set(ages.tolist())
        assert np.array_equal(trace["jammed"], ages >= 3)

    def test_infinite_never_jams(self):
        policy = ThresholdPolicy(INFINITE)
        assert not policy.is_finite
        trace = single_trace(SubsystemParams(0.3, 0.5, 0.1), policy, 2_000, seed=1)
        assert trace["age_index"].max() >= 5
        assert not trace["jammed"].any()
        assert INFINITE == math.inf
        assert ThresholdPolicy(math.inf) == policy

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(-1)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bools_rejected(self, flag):
        with pytest.raises(ValueError, match="natural number or INFINITE"):
            ThresholdPolicy(flag)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, 1.5, 2.0, np.float64(3.0)])
    def test_floats_other_than_infinity_rejected(self, value):
        with pytest.raises(ValueError, match="natural number or INFINITE"):
            ThresholdPolicy(value)


class TestEaoiiValue:
    def test_age_zero_is_zero(self):
        assert eaoii_value(SubsystemParams(0.5, 0.5, 0.1), 0) == 0.0

    def test_age_one_is_flip_probability(self):
        assert eaoii_value(SubsystemParams(0.5, 0.5, 0.1), 1) == pytest.approx(0.1, abs=1e-14)

    def test_half_flip_rate_closed_form(self):
        # At r = 1/2 the ladder collapses to 1 - 2^-k.
        assert eaoii_value(SubsystemParams(0.9, 0.0, 0.5), 2) == pytest.approx(0.75, abs=1e-15)

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            eaoii_value(REF, -1)

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.001, 0.5), k=st.integers(0, 300))
    def test_monotone_step_and_bounds(self, r, k):
        params = SubsystemParams(p=0.5, q=0.5, r=r)
        step = eaoii_value(params, k + 1) - eaoii_value(params, k)
        exact_step = (1 - r) ** (k + 1) - (1 - 2 * r) ** (k + 1)
        assert step == pytest.approx(exact_step, abs=1e-12)
        value = eaoii_value(params, k)
        ceiling = 1.0 / (2.0 * r)
        assert 0.0 <= value <= ceiling
        # The strict bound saturates to the ceiling in float64 once the gap
        # (1-r)^(k+1)/r falls below resolution; assert it where resolvable.
        if (1 - r) ** (k + 1) / r > 1e-12:
            assert value < ceiling

    def test_ladder_matches_scalar(self):
        ladder = eaoii_ladder(REF, 50)
        assert ladder == pytest.approx([eaoii_value(REF, k) for k in range(50)], abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(params=params_st)
    def test_array_matches_scalars(self, params):
        # numpy's vector pow may differ from the scalar pow by 1 ULP, and the
        # ladder's numerator 1 + (1-2r)^(k+1) - 2(1-r)^(k+1) cancels: each
        # power's ULP is at most eps, so the two routes differ by a few eps
        # of the numerator, divided by 2r (measured: at most 2.02 eps / 2r).
        ages = np.arange(2000)
        values = eaoii_value(params, ages)
        scalars = np.array([eaoii_value(params, int(k)) for k in ages])
        eps = np.finfo(np.float64).eps
        assert np.abs(values - scalars).max() <= 4 * eps / (2 * params.r)
        assert values[0] == 0.0 and values[1] == params.r

    def test_scalar_is_a_float_and_arrays_keep_the_exact_ages(self):
        assert type(eaoii_value(REF, 5)) is float
        assert type(eaoii_value(REF, np.int64(5))) is float
        assert eaoii_value(REF, np.int64(5)) == eaoii_value(REF, 5)
        for r in (1e-6, 0.1, 0.37, 0.5):
            params = SubsystemParams(0.5, 0.5, r)
            assert eaoii_value(params, np.array([1, 0, 1])).tolist() == [r, 0.0, r]
            assert eaoii_ladder(params, 2).tolist() == [0.0, r]

    def test_negative_age_in_array_rejected(self):
        with pytest.raises(ValueError, match="age index must be >= 0"):
            eaoii_value(REF, np.array([3, -1, 2]))


def underflow_age(base):
    """The first age whose power of ``base`` lies below 2**-1080: ``core._pow`` fills it with 0."""
    return math.ceil(-1080 / math.log2(base))


@st.composite
def bases_and_ages(draw):
    """A base log-uniform in [1e-300, 1 - 2**-52] and ages from 0 to twice its underflow age."""
    base = min(math.exp(draw(st.floats(math.log(1e-300), 0.0))), 1.0 - 2.0**-52)
    return base, draw(st.lists(st.integers(0, 2 * underflow_age(base)), max_size=64))


class TestPow:
    @settings(max_examples=300, deadline=None)
    @given(case=bases_and_ages())
    @example(case=(0.9, [underflow_age(0.9) + d for d in (-1, 0, 1)]))
    @example(case=(0.08, [underflow_age(0.08) + d for d in (1, -1, 0, 0)]))
    @example(case=(1e-300, [0, 1, 2, 3, 4]))
    @example(case=(0.8, [2]))  # a masked numpy power of one element took another pow
    @example(case=(1.0 - 2.0**-52, [underflow_age(1.0 - 2.0**-52) + d for d in (-1, 0, 1)]))
    def test_equals_numpy_power(self, case):
        # Integer ages and the float exponents of the iterative index tables alike.
        base, ages = case
        for k in (np.array(ages, dtype=np.int64), np.array(ages, dtype=np.float64)):
            assert np.array_equal(core._pow(base, k), base**k)

    @pytest.mark.parametrize("base", [0.0, 1.0])
    def test_zero_and_one_pass_through(self, base):
        k = np.array([0, 1, 5, 10**6])
        assert np.array_equal(core._pow(base, k), base**k)
        assert core._pow(base, 0) == 1.0

    def test_scalar_ages_keep_python_power(self):
        for k in (0, 3, 10**5, math.inf):
            value = core._pow(0.9, k)
            assert type(value) is float and value == 0.9**k
        for k in (2, 10**5):  # a 0-d array as well
            assert core._pow(0.8, np.array(k)) == 0.8 ** np.array(k)


class TestKernel:
    def test_delivery_probability(self):
        assert delivery_probability(REF, False) == 0.9
        assert delivery_probability(REF, True) == pytest.approx(0.09, abs=1e-15)
        assert delivery_probability(SubsystemParams(0.5, 0.0, 0.1), True) == 0.5


class TestStationaryPmf:
    def test_atom_at_zero(self):
        assert stationary_pmf(REF, 2, 0) == pytest.approx(0.09 / 0.109, rel=1e-12)

    def test_no_jamming_effect_reduces_to_geometric(self):
        params = SubsystemParams(0.5, 0.0, 0.1)
        assert stationary_pmf(params, 5, 3) == pytest.approx(0.5 * 0.5**3, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(params=params_st)
    def test_infinite_is_the_never_jam_law(self, params):
        # No jammed mass is left at n = infinity, whatever q: p (1-p)^i
        # (abs covers subnormals, where the two routes round differently).
        ages = np.arange(300)
        geometric = params.p * (1.0 - params.p) ** ages.astype(float)
        for n in (INFINITE, ThresholdPolicy(INFINITE)):
            assert stationary_pmf(params, n, ages) == pytest.approx(geometric, rel=1e-12, abs=1e-300)
            assert stationary_pmf(params, n, 7) == pytest.approx(geometric[7], rel=1e-12, abs=1e-300)

    def test_accepts_policy_object(self):
        assert stationary_pmf(REF, ThresholdPolicy(2), 0) == stationary_pmf(REF, 2, 0)

    def test_no_jam_law(self):
        # Without jamming power every threshold gives the geometric law p(1-p)^i.
        params = SubsystemParams(0.9, 0.0, 0.1)
        for n in (0, 3, INFINITE):
            law = stationary_pmf(params, n, np.arange(300))
            assert law == pytest.approx([0.9 * 0.1**i for i in range(300)], rel=1e-12, abs=0.0)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(params=params_st, n=st.one_of(st.integers(0, 50), st.just(INFINITE)))
    def test_array_matches_scalars(self, params, n):
        # Each of the two powers may differ from the scalar route by 1 ULP
        # (numpy's vector pow), so their product by a few (measured: 3).
        law = stationary_pmf(params, n, np.arange(2000))
        scalars = np.array([stationary_pmf(params, n, k) for k in range(2000)])
        np.testing.assert_array_max_ulp(law, scalars, maxulp=4)

    def test_scalar_is_a_float(self):
        assert type(stationary_pmf(REF, 2, 3)) is float
        assert type(stationary_pmf(REF, np.int64(2), np.int64(3))) is float
        assert stationary_pmf(REF, np.int64(2), np.int64(3)) == stationary_pmf(REF, 2, 3)

    def test_negative_age_in_array_rejected(self):
        with pytest.raises(ValueError, match="age index must be >= 0"):
            stationary_pmf(REF, 2, np.array([0, 1, -2]))

    @settings(max_examples=40, deadline=None)
    @given(params=params_st, n=st.integers(0, 10))
    def test_normalizes_with_analytic_tail(self, params, n):
        cap = n + 2500
        partial = stationary_pmf(params, n, np.arange(cap + 1)).sum()
        b = 1.0 - delivery_probability(params, True)
        tail = stationary_pmf(params, n, cap) * b / (1.0 - b) if b else 0.0
        assert partial + tail == pytest.approx(1.0, abs=1e-11)


class TestAverages:
    def test_no_jam_value(self):
        # Independent geometric-sum evaluation of the never-jam average.
        params = SubsystemParams(0.9, 0.0, 0.1)
        brute_s, _ = brute_avg(params, 0)
        assert brute_s == pytest.approx(0.011944577161968, rel=1e-10)
        for n in (0, 3, 17, INFINITE):
            assert avg_eaoii_closed(params, n) == pytest.approx(brute_s, rel=1e-10)
        assert avg_eaoii_no_jam(params) == pytest.approx(brute_s, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(params=params_st)
    @example(params=SubsystemParams(1.0, 0.5, 0.3))  # exactly 0: the age never passes 0
    @example(params=SubsystemParams(1.0 - 2**-40, 0.5, 0.02))
    def test_no_jam_average_matches_exact_rationals(self, params):
        # The threshold-infinity limit of the closed form is the no-jam
        # average. Measured over 12,000 triples (p up to 1 - 1e-16, r from
        # 0.02 to 0.5): relative error at most 1.7e-11 where the value is not
        # small, and at most 1.1e-14 absolute beyond 1e-10 relative where the
        # value vanishes as p -> 1.
        exact = float(exact_avg_eaoii_no_jam(params))
        assert avg_eaoii_closed(params, INFINITE) == pytest.approx(exact, rel=1e-10, abs=5e-14)
        assert avg_eaoii_no_jam(params) == avg_eaoii_closed(params, INFINITE)

    def test_perfect_channel_pins_age(self):
        params = SubsystemParams(1.0, 0.0, 0.1)
        assert avg_eaoii_closed(params, 1) == 0.0
        assert avg_eaoii_closed(params, 5) == 0.0

    def test_closed_forms_match_brute_sums(self):
        for n in (0, 2, 5):
            brute_s, brute_d = brute_avg(REF, n)
            assert avg_eaoii_closed(REF, n) == pytest.approx(brute_s, rel=1e-10)
            assert avg_aat_closed(REF, n) == pytest.approx(brute_d, rel=1e-10)

    def test_aat_examples(self):
        assert avg_aat_closed(REF, 0) == 1.0
        assert avg_aat_closed(REF, INFINITE) == 0.0
        assert avg_aat_closed(SubsystemParams(0.5, 0.0, 0.1), INFINITE) == 0.0
        assert avg_aat_closed(SubsystemParams(0.5, 0.0, 0.1), 3) == pytest.approx(0.125, rel=1e-14)
        assert avg_aat_closed(REF, 2) == pytest.approx(0.01 / 0.109, rel=1e-12)

    def test_aat_strictly_decreasing(self):
        dbar = avg_aat_closed(REF, np.arange(101))
        assert np.all(np.diff(dbar) < 0)

    def test_avg_eaoii_decreasing_when_jamming_bites(self):
        # Raising the threshold means less jamming, hence lower average
        # EAoII; strictness is float-checkable until the curve saturates at
        # the no-jam value (increments shrink like (1-p)^n).
        sbar = avg_eaoii_closed(REF, np.arange(61))
        assert np.all(np.diff(sbar[:13]) < 0)
        assert np.all(np.diff(sbar) <= 0)

    def test_curves_match_scalars(self):
        ages = np.arange(31)
        sbar, dbar = avg_eaoii_closed(REF, ages), avg_aat_closed(REF, ages)
        for n in range(31):
            assert sbar[n] == pytest.approx(avg_eaoii_closed(REF, n), rel=1e-13)
            assert dbar[n] == pytest.approx(avg_aat_closed(REF, n), rel=1e-13)


class TestLambdaSequence:
    def test_zero_without_jamming_power(self):
        params = SubsystemParams(0.7, 0.0, 0.2)
        assert lambda_seq(params, 0) == 0.0
        assert lambda_limit(params) == 0.0
        assert np.all(lambda_seq(params, np.arange(51)) == 0.0)

    def test_matches_difference_ratio(self):
        # Raw differences keep enough digits up to n ~ 5 for these params;
        # deeper comparisons go through the exact-rational route below.
        for n in (0, 1, 2, 3, 5):
            ds = avg_eaoii_closed(REF, n + 1) - avg_eaoii_closed(REF, n)
            dd = avg_aat_closed(REF, n + 1) - avg_aat_closed(REF, n)
            assert lambda_seq(REF, n) == pytest.approx(ds / dd, rel=1e-9)

    def test_matches_exact_rational_ratio(self):
        for params in (REF, SubsystemParams(0.2, 0.2, 0.4), SubsystemParams(0.8, 0.8, 0.2)):
            for n in (0, 1, 7, 25):
                assert lambda_seq(params, n) == pytest.approx(
                    float(exact_lambda(params, n)), rel=1e-12
                )

    def test_strictly_increasing_then_saturates_at_limit(self):
        seq = lambda_seq(REF, np.arange(2001))
        limit = lambda_limit(REF)
        assert np.all(np.diff(seq) >= 0)
        assert np.all(seq <= limit)
        assert np.all(np.diff(seq[:200]) > 0)
        assert seq[-1] == limit

    @settings(max_examples=60, deadline=None)
    @given(params=params_st)
    def test_limit_is_the_value_at_infinity(self, params):
        assert lambda_seq(params, INFINITE) == lambda_limit(params)
        assert lambda_seq(params, ThresholdPolicy(INFINITE)) == lambda_limit(params)

    def test_limit_value(self):
        assert lambda_limit(REF) == pytest.approx(4.489249880554228, rel=1e-12)
        assert float(lambda_seq(REF, np.arange(10_001)).max()) == pytest.approx(
            lambda_limit(REF), abs=1e-6
        )


class TestIntersectionLambda:
    def test_consecutive_equals_lambda_seq(self):
        for n in (0, 1, 5, 40, 150):
            assert intersection_lambda(REF, n, n + 1) == pytest.approx(
                lambda_seq(REF, n), rel=1e-12
            )

    def test_matches_naive_ratio_in_well_conditioned_zone(self):
        for params in (REF, SubsystemParams(0.4, 0.6, 0.3)):
            for m, n in ((0, 1), (0, 9), (2, 5), (7, 30)):
                ds = avg_eaoii_closed(params, n) - avg_eaoii_closed(params, m)
                dd = avg_aat_closed(params, n) - avg_aat_closed(params, m)
                assert intersection_lambda(params, m, n) == pytest.approx(ds / dd, rel=1e-9)

    def test_matches_exact_rational_in_cancellation_zone(self):
        # Deep pairs where the raw float differences have no digits left.
        params = SubsystemParams(0.2, 0.2, 0.4)
        for m, n in ((150, 151), (150, 400), (190, 200)):
            assert intersection_lambda(params, m, n) == pytest.approx(
                float(exact_intersection(params, m, n)), rel=1e-11
            )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            intersection_lambda(REF, 3, 3)
        # Every array entry at or below m is refused, with the scalar's message.
        for n, low in ((np.array([1, 3, 5]), 1), (np.array([4, 3]), 3), (1, 1)):
            with pytest.raises(ValueError, match=f"^need n > m, got m=3, n={low}$"):
                intersection_lambda(REF, 3, n)
        for n in (5, np.array([5, 6])):  # no threshold lies above INFINITE
            with pytest.raises(ValueError, match="must be an integer"):
                intersection_lambda(REF, INFINITE, n)


class TestOptimalThreshold:
    def test_free_jamming(self):
        assert optimal_threshold(REF, 0.0) == ThresholdPolicy(0)

    def test_prohibitive_cost(self):
        assert optimal_threshold(REF, 5.0) == ThresholdPolicy(INFINITE)

    def test_infinite_exactly_at_limit(self):
        limit = lambda_limit(REF)
        assert optimal_threshold(REF, limit) == ThresholdPolicy(INFINITE)
        assert optimal_threshold(REF, np.nextafter(limit, 0.0)).is_finite

    def test_boundary_maps_to_lower_threshold(self):
        for n in (0, 1, 4):
            tie = lambda_seq(REF, n)
            assert optimal_threshold(REF, tie) == ThresholdPolicy(n)
            assert optimal_threshold(REF, np.nextafter(tie, 10.0)) == ThresholdPolicy(n + 1)

    def test_matches_float_reward_argmax(self):
        # Float argmax is trustworthy while the reward increments around the
        # maximizer stay well above the reward's ULP (n* up to ~12 here).
        ages = np.arange(3001)
        for lam in (0.5, 1.0, 1.7, 2.5, 3.0, 3.3):
            policy = optimal_threshold(REF, lam)
            assert policy.threshold == int(np.argmax(steady_reward(REF, ages, lam)))

    def test_matches_exact_reward_argmax_deep(self):
        curve = ExactRewardCurve(REF, 120)
        for lam in (3.8, 4.0, 4.2, 4.4):
            policy = optimal_threshold(REF, lam)
            assert policy.threshold == curve.argmax(lam)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            optimal_threshold(REF, -0.1)


class TestOptimalThresholdsGrid:
    """The sorted-grid walk against ``optimal_threshold`` point by point."""

    @staticmethod
    def assert_pointwise(params, lams):
        # Non-empty runs covering the grid, each policy once, expanding to the pointwise map.
        policies, lengths = optimal_thresholds(params, lams)
        assert all(length > 0 for length in lengths)
        assert sum(lengths) == len(lams)
        assert all(left != right for left, right in zip(policies, policies[1:]))
        assert [policy for policy, length in zip(policies, lengths) for _ in range(length)] == [
            optimal_threshold(params, float(lam)) for lam in lams]

    def test_benchmark_grid(self):
        grid = 0.0 + 0.001 * np.arange(10_001)
        self.assert_pointwise(REF, grid)

    @settings(max_examples=60, deadline=None)
    @given(params=params_st,
           fractions=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=60))
    def test_random_sorted_grids(self, params, fractions):
        self.assert_pointwise(params, sorted(f * lambda_limit(params) for f in fractions))

    @settings(max_examples=40, deadline=None)
    @given(params=params_st, top=st.integers(0, 300))
    def test_points_on_tie_levels(self, params, top):
        # Each tie level, its neighbours one ULP away, and the limit itself.
        levels = [lambda_seq(params, n) for n in range(top + 1)] + [lambda_limit(params)]
        grid = sorted({max(x, 0.0) for level in levels
                       for x in (np.nextafter(level, 0.0), level, np.nextafter(level, 10.0))})
        self.assert_pointwise(params, grid)

    def test_zero_and_at_or_above_limit(self):
        limit = lambda_limit(REF)
        grid = [0.0, 0.0, np.nextafter(limit, 0.0), limit, limit, 2 * limit]
        self.assert_pointwise(REF, grid)
        policies, lengths = optimal_thresholds(REF, grid)
        assert (policies[-1], lengths[-1]) == (ThresholdPolicy(INFINITE), 3)
        no_power = SubsystemParams(0.9, 0.0, 0.1)  # lambda_limit is 0
        self.assert_pointwise(no_power, [0.0, 1.0])
        assert optimal_thresholds(REF, []) == ([], [])

    def test_unsorted_or_bad_costs_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            optimal_thresholds(REF, [1.0, 0.5])
        for bad in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ValueError, match="lam must be finite and >= 0"):
                optimal_thresholds(REF, [0.0, bad])


class TestIntegerArguments:
    """Ages and thresholds are integers: a fraction raises instead of truncating."""

    CALLS = {
        "eaoii_value": lambda k: eaoii_value(REF, k),
        "stationary_pmf age": lambda i: stationary_pmf(REF, 2, i),
        "stationary_pmf threshold": lambda n: stationary_pmf(REF, n, 3),
        "avg_eaoii_closed": lambda n: avg_eaoii_closed(REF, n),
        "steady_reward": lambda n: steady_reward(REF, n, 0.5),
        "lambda_seq": lambda n: lambda_seq(REF, n),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_fractions_rejected_integers_accepted(self, name):
        call = self.CALLS[name]
        for bad in (2.5, 1.9, 2.0, np.float64(3.0), np.array([1.0, 2.0]), "2"):
            with pytest.raises(ValueError, match="must be an integer"):
                call(bad)
        assert call(np.int64(2)) == call(2)
        assert call(np.array([2, 3])) == pytest.approx([call(2), call(3)], rel=1e-13)

    @pytest.mark.parametrize("name", CALLS)
    def test_bools_rejected(self, name):
        # A bool is not an age or a threshold, as a Python or a numpy scalar.
        for flag in (True, False, np.True_, np.False_):
            with pytest.raises(ValueError, match="must be an integer"):
                self.CALLS[name](flag)


class TestSteadyReward:
    def test_free_jamming_reward_is_average_eaoii(self):
        assert steady_reward(REF, 0, 0.0) == avg_eaoii_closed(REF, 0)

    def test_equal_reward_at_tie_subsidy(self):
        for n in (0, 1, 2, 5, 10):
            tie = lambda_seq(REF, n)
            assert steady_reward(REF, n, tie) == pytest.approx(
                steady_reward(REF, n + 1, tie), abs=1e-10
            )

    def test_reward_sign_flips_at_tie(self):
        for n in (0, 2, 5):
            tie = lambda_seq(REF, n)
            eps = 1e-6 * tie
            assert steady_reward(REF, n, tie - eps) >= steady_reward(REF, n + 1, tie - eps)
            assert steady_reward(REF, n, tie + eps) < steady_reward(REF, n + 1, tie + eps)

    @settings(max_examples=60, deadline=None)
    @given(params=params_st, lam=st.floats(0.0, 1e6))
    def test_never_jamming_earns_the_no_jam_average_at_every_cost(self, params, lam):
        assert steady_reward(params, INFINITE, lam) == avg_eaoii_no_jam(params)

    def test_large_threshold_approaches_no_jam_average(self):
        assert steady_reward(REF, 400, 5.0) == pytest.approx(
            avg_eaoii_no_jam(REF), rel=1e-10
        )
