import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoii_jam.whittle as whittle_mod
from aoii_jam.core import (
    SubsystemParams,
    avg_aat_closed,
    intersection_lambda,
    lambda_limit,
    lambda_seq,
)
from aoii_jam.verify import default_grid
from aoii_jam.whittle import (
    FleetConfig,
    IndexStructureError,
    indexability_check,
    jam_mask,
    rank_keys,
    select_jam_set,
    whittle_index_iterative,
    whittle_table_closed,
)

from exact import exact_lambda_sequence

REF = SubsystemParams(p=0.9, q=0.9, r=0.1)
CLASS_SLOW = SubsystemParams(p=0.2, q=0.2, r=0.4)
CLASS_FAST = SubsystemParams(p=0.8, q=0.8, r=0.2)


class TestClosedIndex:
    def test_is_the_tie_subsidy(self):
        ages = np.array([0, 1, 5, 30])
        assert np.array_equal(whittle_table_closed(REF, 30)[ages], lambda_seq(REF, ages))
        with pytest.raises(ValueError, match="n_max"):
            whittle_table_closed(REF, -1)

    def test_zero_without_jamming_power(self):
        params = SubsystemParams(p=0.5, q=0.0, r=0.25)
        assert np.all(whittle_table_closed(params, 80) == 0.0)

    def test_table_monotone_and_bounded(self):
        for params in (REF, CLASS_SLOW, CLASS_FAST):
            table = whittle_table_closed(params, 200)
            assert np.all(np.diff(table) >= 0)
            assert np.all(table <= lambda_limit(params))

    def test_strictly_increasing_in_exact_arithmetic(self):
        # Float tables saturate at the limit once increments drop below the
        # ULP; exact rationals certify strictness over the whole range.
        seq = exact_lambda_sequence(CLASS_FAST, 60)
        assert all(b > a for a, b in zip(seq, seq[1:]))


class TestIterativeIndex:
    @pytest.mark.parametrize("params", [REF, CLASS_SLOW, CLASS_FAST])
    def test_matches_closed_table(self, params):
        closed = whittle_table_closed(params, 60)
        iterative = whittle_index_iterative(params, 60)
        scale = np.maximum(np.abs(closed), 1e-12)
        assert np.max(np.abs(closed - iterative) / scale) < 1e-10

    def test_zero_table_without_jamming_power(self):
        params = SubsystemParams(p=0.7, q=0.0, r=0.3)
        assert np.all(whittle_index_iterative(params, 40) == 0.0)

    @pytest.mark.parametrize("params", [SubsystemParams(1.0, 0.5, 0.1), SubsystemParams(1.0, 0.9, 0.3)])
    def test_refuses_p_one(self, params):
        # Every ratio from boundary 0 ties to the scan edge at p = 1, where the
        # closed table still rises (0.1515, 0.2530, ... for the first triple).
        assert np.all(np.diff(whittle_table_closed(params, 5)) > 0)
        with pytest.raises(ValueError, match="^the iterative index is undefined past age 0 at p = 1$"):
            whittle_index_iterative(params, 5)

    def test_structure_violation_surfaces(self, monkeypatch):
        # Corrupt the pairwise ratio so a far state undercuts the boundary
        # successor; the construction must refuse rather than pick silently.
        real = whittle_mod._pairwise_ratio

        def corrupted(params, m, ad, an, pow_r, pow_2r):
            d = np.arange(1, len(ad) + 1)
            return real(params, m, ad, an, pow_r, pow_2r) - 0.5 * (d > 20)

        monkeypatch.setattr(whittle_mod, "_pairwise_ratio", corrupted)
        with pytest.raises(IndexStructureError):
            whittle_index_iterative(REF, 30)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            whittle_index_iterative(REF, -1)


def iterative_by_intersection(params, n_max):
    """The infimum scan with one ``intersection_lambda`` call per boundary (no power tables)."""
    bound = n_max + whittle_mod.SCAN_MARGIN
    table = np.empty(n_max + 1)
    boundary = 0
    while boundary <= n_max:
        ratios = intersection_lambda(params, boundary, np.arange(boundary + 1, bound + 1))
        low = float(ratios.min())
        tol = whittle_mod._TIE_RTOL * max(1.0, abs(low))
        assert low >= ratios[0] - tol
        largest = boundary + 1 + int(np.nonzero(ratios <= low + tol)[0].max())
        if largest >= bound:
            table[boundary:] = ratios[0]
            return table
        table[boundary : min(largest, n_max + 1)] = ratios[0]
        boundary = largest
    return table


class TestIterativePowerTables:
    """The scan over tabulated powers gives the very floats of the per-boundary route."""

    @pytest.mark.parametrize("params", [p for p in default_grid() if p.p != 1.0],
                             ids=lambda p: f"{p.p},{p.q},{p.r}")
    def test_verify_triples_bit_equal(self, params):
        assert np.array_equal(whittle_index_iterative(params, 60),
                              iterative_by_intersection(params, 60))

    @pytest.mark.parametrize("params", [REF, CLASS_SLOW, SubsystemParams(0.5, 0.6, 0.3)])
    def test_long_tables_bit_equal(self, params):
        assert np.array_equal(whittle_index_iterative(params, 500),
                              iterative_by_intersection(params, 500))


class TestIndexability:
    @pytest.mark.parametrize("params", [REF, CLASS_SLOW, CLASS_FAST])
    def test_holds_for_valid_params(self, params):
        assert indexability_check(params, 200)

    @pytest.mark.parametrize(
        "params", [CLASS_SLOW, SubsystemParams(p=0.5, q=0.0, r=0.1)]
    )
    def test_attack_time_difference_formula(self, params):
        # The step between consecutive attack times has the explicit form
        # -p(1-q)(1-p)^n / (D_{n+1} D_n) with D_n = 1-q+q(1-p)^n, which at
        # q = 0 collapses to -p(1-p)^n exactly.
        p, q = params.p, params.q
        for n in range(0, 30, 3):
            d_n = 1 - q + q * (1 - p) ** n
            d_n1 = 1 - q + q * (1 - p) ** (n + 1)
            expected = -(1 - p) ** n * p * (1 - q) / (d_n1 * d_n)
            step = avg_aat_closed(params, n + 1) - avg_aat_closed(params, n)
            assert step == pytest.approx(expected, rel=1e-12)
            if q == 0.0:
                assert step == pytest.approx(-p * (1 - p) ** n, rel=1e-12)

    def test_perfect_channel_edge(self):
        # p = 1: attack time is 1 at threshold 0 and exactly 0 afterwards;
        # the zero steps are vacuous, not a violation.
        assert indexability_check(SubsystemParams(p=1.0, q=0.5, r=0.2), 50)

    @staticmethod
    def scalar_verdict(params, n_max):
        """The per-threshold rule: strict decrease, a zero step only after a zero."""
        prev = avg_aat_closed(params, 0)
        for n in range(1, n_max + 1):
            cur = avg_aat_closed(params, n)
            if cur > prev or (cur == prev and prev > 0.0):
                return False
            prev = cur
        return True

    def test_verify_grid_matches_scalar_rule(self):
        for params in default_grid():
            for n_max in (0, 1, 200):
                assert indexability_check(params, n_max) == self.scalar_verdict(params, n_max)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(1e-3, 1.0), q=st.floats(0.0, 0.999), r=st.floats(1e-3, 0.5),
           n_max=st.integers(0, 400))
    def test_random_triples_match_scalar_rule(self, p, q, r, n_max):
        params = SubsystemParams(p=p, q=q, r=r)
        assert indexability_check(params, n_max) == self.scalar_verdict(params, n_max)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            indexability_check(REF, -1)


class TestPairwiseTieFloor:
    def test_pairwise_never_undercuts_consecutive(self):
        from aoii_jam.core import intersection_lambda

        for params in (REF, CLASS_SLOW, CLASS_FAST):
            for k in (0, 3, 10, 25):
                base = lambda_seq(params, k)
                ns = np.arange(k + 1, k + 201)
                ratios = intersection_lambda(params, k, ns)
                assert np.all(ratios >= base - 1e-12 * max(1.0, base))


class TestSelectJamSet:
    @pytest.mark.parametrize("age", [2.5, True, np.True_, -1, "3"])
    def test_bad_ages_rejected(self, age):
        with pytest.raises(ValueError, match="age index"):
            select_jam_set(FleetConfig((REF, REF), 1), [2, age])

    def test_integer_ages_accepted(self):
        assert select_jam_set(FleetConfig((REF, REF), 1), [np.int64(3), 2]) == {0}
        assert select_jam_set(FleetConfig((REF, REF), 1), np.array([2, 3])) == {1}

    @pytest.mark.parametrize("ages", [[1], [1, 2, 3]])
    def test_one_age_per_channel(self, ages):
        with pytest.raises(ValueError, match="^need 2 ages, one per channel, got "):
            select_jam_set(FleetConfig((REF, REF), 1), ages)

    def test_empty_budget(self):
        assert select_jam_set(FleetConfig((REF, REF), 0), [4, 9]) == set()

    def test_higher_age_wins(self):
        assert select_jam_set(FleetConfig((REF, REF), 1), [3, 7]) == {1}

    def test_ties_go_to_the_lower_channel(self):
        assert select_jam_set(FleetConfig((REF,) * 4, 2), [3, 5, 5, 5]) == {1, 2}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_sorted_prefix(self, data):
        size = data.draw(st.integers(1, 12))
        pool = [REF, CLASS_SLOW, CLASS_FAST]
        subsystems = [pool[data.draw(st.integers(0, 2))] for _ in range(size)]
        ages = [data.draw(st.integers(0, 40)) for _ in range(size)]
        budget = data.draw(st.integers(0, size - 1))
        ranked = sorted(range(size),
                        key=lambda i: (-whittle_table_closed(subsystems[i], 40)[ages[i]], i))
        assert select_jam_set(FleetConfig(tuple(subsystems), budget), ages) == set(ranked[:budget])

    def test_ranks_by_the_array_index(self):
        # At age 0 of (0.2, 0.3, 0.1) the scalar index lies one ulp above the
        # array value, and (0.2, q, 0.1) at age 1 has exactly that array value.
        # Read as arrays the two tie and the lower channel wins, as in the fleet
        # simulator's rank_keys/jam_mask route; read as scalars channel 1 wins.
        low = SubsystemParams(0.2, 0.17105951007381248, 0.1)
        high = SubsystemParams(0.2, 0.3, 0.1)
        assert lambda_seq(high, 0) > whittle_table_closed(high, 0)[0] == whittle_table_closed(low, 1)[1]
        assert select_jam_set(FleetConfig((low, high), 1), [1, 0]) == {0}
        keys = rank_keys(np.array([whittle_table_closed(p, 1) for p in (low, high)]), 2)
        assert jam_mask(keys[[0, 1], [1, 0]] + np.arange(2), 1).tolist() == [True, False]


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(subsystems=(), budget=0)
        with pytest.raises(ValueError):
            FleetConfig(subsystems=(REF, REF), budget=2)
        fleet = FleetConfig(subsystems=(REF, REF, CLASS_FAST, CLASS_SLOW), budget=2)
        assert (fleet.size, fleet.budget) == (4, 2)

    def test_classes_in_first_appearance_order(self):
        # Interleaved classes: each is named where it first appears.
        fleet = FleetConfig((CLASS_FAST, REF, CLASS_FAST, CLASS_SLOW, REF), 2)
        classes, of_class = fleet.classes
        assert classes == (CLASS_FAST, REF, CLASS_SLOW)
        assert of_class.tolist() == [0, 1, 0, 2, 1]
        assert [classes[c] for c in of_class] == list(fleet.subsystems)

    def test_from_classes(self):
        fleet = FleetConfig.from_classes(
            [(CLASS_SLOW, 0.5), (CLASS_FAST, 0.5)], n_total=8, budget=4
        )
        assert fleet.subsystems.count(CLASS_SLOW) == 4
        assert fleet.subsystems.count(CLASS_FAST) == 4

    @pytest.mark.parametrize("fractions, bad", [
        ((1.5, -0.5), 1.5), ((0.5, -0.0001), -0.0001), ((0.5, float("nan")), float("nan"))])
    def test_from_classes_rejects_a_fraction_outside_0_1(self, fractions, bad):
        # 1.5 and -0.5 give counts 6 and -2 at N = 4, which sum to N.
        with pytest.raises(ValueError, match=re.escape(f"class fraction {bad} is not in [0, 1]")):
            FleetConfig.from_classes(list(zip((CLASS_SLOW, CLASS_FAST), fractions)), 4, 1)

    def test_from_classes_rejects_non_integral_split(self):
        with pytest.raises(ValueError, match="sum to N"):
            FleetConfig.from_classes(
                [(CLASS_SLOW, 0.5), (CLASS_FAST, 0.5)], n_total=5, budget=2
            )
