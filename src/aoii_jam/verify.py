"""Oracle-equivalence check suite.

Every closed form in ``core`` and ``whittle`` is paired here with an
independent numeric route (power iteration, truncated sums, exhaustive
search, value iteration, or a second construction of the same object) and a
tolerance. Each ``check_*`` yields an ``(error, witness)`` pair per case, and
``math.inf`` for a broken property. ``CHECKS`` at the bottom names each check,
gives its tolerance and wraps it in the one reducer, ``_worst``: it keeps the
first largest error and its witness, and a NaN error ends its check as the
worst. So a broken property reports ``Infinity`` and a NaN fails. ``run_checks``
runs a non-empty selection over a parameter grid and returns a JSON-ready
report; the CLI ``verify`` wraps it and exits 2 on an empty selection. The
iterative index, which no other command builds, is checked at 60 ages.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from . import core, oracle, whittle
from .oracle import _tail_cap, _threshold_kernel_sigma, _truncated_law

# Grid knobs kept module-level so the acceptance suite and the CLI agree.
RVI_PARAMS = [(0.9, 0.9, 0.1), (0.5, 0.6, 0.3)]
RVI_LAMBDA_COUNT = 6
N_GRID = [0, 1, 2, 5, 10]


def default_grid() -> list[core.SubsystemParams]:
    """72 parameter triples covering the valid ranges and their edges."""
    return [core.SubsystemParams(p=p, q=q, r=r) for p in (0.2, 0.4, 0.6, 0.8, 0.9, 1.0)
            for q in (0.0, 0.3, 0.6, 0.9) for r in (0.1, 0.3, 0.5)]


def _witness(params, **extra):
    return {"p": params.p, "q": params.q, "r": params.r, **extra}


def _worst(check):
    """``check`` reduced to ``(worst error, its witness)``; the earliest case wins a tie.

    A NaN compares false with everything, so it ends the check as its worst error.
    """

    @functools.wraps(check)
    def reduced(grid) -> tuple[float, dict]:
        worst, witness = 0.0, {}
        for err, case in check(grid):
            if math.isnan(err):
                return err, case
            if err > worst:
                worst, witness = err, case
        return worst, witness

    return reduced


def check_eaoii_identities(grid) -> Iterator[tuple[float, dict]]:
    """s_0 is identically 0 and s_1 is identically r."""
    rng = np.random.default_rng(2024)
    for r in rng.uniform(1e-6, 0.5, size=100):
        params = core.SubsystemParams(p=0.5, q=0.5, r=float(r))
        yield abs(core.eaoii_value(params, 0)), _witness(params, k=0)
        yield abs(core.eaoii_value(params, 1) - r), _witness(params, k=1)


def check_eaoii_monotone_bounded(grid) -> Iterator[tuple[float, dict]]:
    """Strict increase with the exact step size, below the 1/(2r) ceiling."""
    for params in grid:
        r = params.r
        ladder = core.eaoii_ladder(params, 301)
        ceil = 1.0 / (2.0 * r)
        ks = np.arange(300, dtype=np.float64)
        exact_step = (1.0 - r) ** (ks + 1) - (1.0 - 2.0 * r) ** (ks + 1)
        yield float(np.max(np.abs(np.diff(ladder) - exact_step))), _witness(params)
        # The strict ceiling saturates in float64 once (1-r)^(k+1)/r drops
        # below resolution; require strictness only where the gap resolves.
        resolvable = (1.0 - r) ** (np.arange(301) + 1.0) / r > 1e-12
        if ladder.min() < 0 or ladder.max() > ceil or np.any(ladder[resolvable] >= ceil):
            yield math.inf, _witness(params)


def check_kernel_stochastic(grid) -> Iterator[tuple[float, dict]]:
    """Every row of the threshold kernel the oracles run is a probability distribution.

    Age k resets with probability sigma_k and moves up (the cap self-loops)
    with 1 - sigma_k; a sigma_k outside [0, 1], or NaN, is a broken row (infinity).
    """
    for params in grid:
        for n in N_GRID:
            sigma = _threshold_kernel_sigma(params, n, _tail_cap(params, n, 1e-16, 20))
            err = np.where((sigma >= 0.0) & (sigma <= 1.0), 0.0, math.inf)  # NaN is outside too
            k = int(err.argmax())  # the first broken row, if any
            yield float(err[k]), _witness(params, n=n, k=k)


def check_stationary_vs_power_iteration(grid) -> Iterator[tuple[float, dict]]:
    """Closed-form age law vs the power-iteration fixed point (TV distance up to the cap).

    This check and the two below leave out the mass above the cap: it is far
    below their tolerances, so it could not change a pass or a fail.
    """
    solved = {}  # the numeric law and its cap read p, q and n only: one solve serves every r
    for params in grid:
        for n in N_GRID:
            closed = _truncated_law(params, n, 1e-10, 20)[0]
            key = (params.p, params.q, n)
            if key not in solved:
                cfg = oracle.OracleConfig(state_cap=len(closed) - 1, tolerance=1e-14)
                solved[key] = oracle.stationary_pmf_numeric(params, n, cfg)
            yield 0.5 * float(np.abs(solved[key] - closed).sum()), _witness(params, n=n)


def check_stationary_normalization(grid) -> Iterator[tuple[float, dict]]:
    """Closed-form age law sums to one over a chain cut below 1e-16 of mass."""
    for params in grid:
        for n in N_GRID:
            yield abs(_truncated_law(params, n, 1e-16, 20)[0].sum() - 1.0), _witness(params, n=n)


def check_stationary_balance(grid) -> Iterator[tuple[float, dict]]:
    """The closed-form law satisfies the full balance equation pointwise."""
    for params in grid:
        for n in N_GRID:
            u = _truncated_law(params, n, 1e-16, 20)[0]
            cap = len(u) - 1
            sigma = _threshold_kernel_sigma(params, n, cap)
            # Inflow to age 0 comes from every age up to the cap.
            yield abs(u[0] - float(sigma @ u)), _witness(params, n=n, k=0)
            upto = min(40, cap)
            resid = np.abs(u[1 : upto + 1] - (1.0 - sigma[:upto]) * u[:upto])
            yield float(resid.max()), _witness(params, n=n, k=int(resid.argmax()) + 1)


# Relative errors are floored at this scale: the pinned chain at p = 1 makes
# some averages exactly zero up to float dust, where a pure ratio of dust to
# dust would report noise instead of agreement.
_REL_FLOOR = 1e-6


def check_avg_eaoii_closed(grid) -> Iterator[tuple[float, dict]]:
    """Closed-form average EAoII vs the truncated-sum-plus-tail oracle."""
    for params in grid:
        for n in N_GRID:
            num_s, _ = oracle.avg_numeric(params, n)
            closed = core.avg_eaoii_closed(params, n)
            yield abs(closed - num_s) / max(abs(num_s), _REL_FLOOR), _witness(params, n=n)


def check_avg_aat_closed(grid) -> Iterator[tuple[float, dict]]:
    """Closed-form average attack time vs the truncated-sum oracle."""
    for params in grid:
        for n in N_GRID:
            _, num_d = oracle.avg_numeric(params, n)
            closed = core.avg_aat_closed(params, n)
            err = abs(closed - num_d) / max(abs(num_d), _REL_FLOOR)
            yield err if 0.0 <= closed <= 1.0 else math.inf, _witness(params, n=n)


def _usable_ratio(params, n) -> bool:
    """Keep the finite-difference comparison where it has float headroom."""
    gap = core.avg_aat_closed(params, n + 1) - core.avg_aat_closed(params, n)
    return params.q > 0.0 and abs(gap) >= 1e-6


def check_lambda_seq_vs_ratio(grid) -> Iterator[tuple[float, dict]]:
    """Tie-subsidy closed form vs the finite-difference ratio of averages."""
    for params in grid:
        for n in (0, 1, 2, 5, 10, 20):
            if not _usable_ratio(params, n):
                continue
            ds = core.avg_eaoii_closed(params, n + 1) - core.avg_eaoii_closed(params, n)
            dd = core.avg_aat_closed(params, n + 1) - core.avg_aat_closed(params, n)
            ratio = ds / dd
            closed = core.lambda_seq(params, n)
            yield abs(closed - ratio) / max(abs(ratio), 1e-12), _witness(params, n=n)


def check_lambda_monotone_below_limit(grid) -> Iterator[tuple[float, dict]]:
    """The tie sequence never decreases and never exceeds its limit."""
    for params in grid:
        seq = core.lambda_seq(params, np.arange(201))
        limit = core.lambda_limit(params)
        yield max(float(np.max(seq - limit)), 0.0), _witness(params)
        diffs = np.diff(seq)
        yield max(float(-diffs.min()), 0.0), _witness(params)
        if params.q > 0.0:
            # Strict increase is checked where the increments are resolvable
            # in float64; exact-arithmetic strictness lives in the tests.
            resolvable = (limit - seq[:-1]) > 1e-12 * max(limit, 1.0)
            if np.any(diffs[resolvable] <= 0.0):
                yield math.inf, _witness(params)


def check_lambda_limit_is_sup(grid) -> Iterator[tuple[float, dict]]:
    """The limit matches the supremum of the sequence out to n = 10^4."""
    for params in grid:
        sup = float(core.lambda_seq(params, np.arange(10_001)).max())
        yield abs(core.lambda_limit(params) - sup), _witness(params)


def _lambda_probe_points(params):
    """Jam costs hitting all three regimes, including exact tie boundaries.

    Regime-two probes stay at small optimal thresholds, where the float
    reward curve resolves its argmax; the deep end (maximizer far out, with
    reward increments below the reward's ULP) belongs to exact-arithmetic
    tests, not to this float oracle.
    """
    limit = core.lambda_limit(params)
    probes = [0.0]
    if params.q > 0.0:
        first = core.lambda_seq(params, 0)
        probes.extend([0.3 * first, 0.6 * first, 0.999 * first])
        for n in (0, 1, 2, 3):
            tie = core.lambda_seq(params, n)
            # Probe just off the tie on both sides: exactly at it the two
            # candidate rewards are equal and a float argmax is a coin flip.
            eps = 1e-9 * max(1.0, tie)
            probes.extend([tie - eps, tie + eps, 0.5 * (tie + core.lambda_seq(params, n + 1))])
        probes.extend([limit, 1.1 * limit, 2.0 * limit + 0.1, 10.0 * limit + 1.0])
    else:
        probes.extend([0.1, 0.5, 1.0, 2.0])
    return probes


def check_optimal_threshold_vs_brute(grid) -> Iterator[tuple[float, dict]]:
    """Regime map vs exhaustive argmax of the steady reward curve.

    p = 1 is excluded: there every threshold >= 1 has zero attack time and
    identical reward, so the argmax is a tie and index-exact agreement is
    vacuous.
    """
    for params in grid:
        if params.p == 1.0:
            continue
        lams = _lambda_probe_points(params)
        brutes = oracle.brute_force_threshold(params, np.array(lams), n_max=4000)
        for lam, brute in zip(lams, brutes):
            if core.optimal_threshold(params, lam) != brute:
                yield math.inf, _witness(params, lam=lam)


def check_steady_reward_tie(grid) -> Iterator[tuple[float, dict]]:
    """At the tie subsidy, consecutive thresholds earn equal reward."""
    for params in grid:
        for n in N_GRID:
            lam = core.lambda_seq(params, n)
            gap = abs(core.steady_reward(params, n, lam) - core.steady_reward(params, n + 1, lam))
            yield gap, _witness(params, n=n, lam=lam)


def check_exchange_sign_flip(grid) -> Iterator[tuple[float, dict]]:
    """reward(n) - reward(n+1) changes sign exactly at the tie subsidy."""
    for params in grid:
        if params.q == 0.0:
            continue
        for n in (0, 2, 5):
            if core.avg_aat_closed(params, n) == core.avg_aat_closed(params, n + 1):
                continue  # p = 1 beyond the first step: both sides tie exactly
            tie = core.lambda_seq(params, n)
            eps = 1e-6 * max(1.0, tie)
            below, above = (core.steady_reward(params, n, lam) - core.steady_reward(params, n + 1, lam)
                            for lam in (tie - eps, tie + eps))
            if below < 0.0 or above >= 0.0:
                yield math.inf, _witness(params, n=n, lam=tie)


def check_whittle_closed_equals_lambda(grid) -> Iterator[tuple[float, dict]]:
    """The index table is the tie subsidy, state for state."""
    ages = np.array(N_GRID)
    for params in grid:
        table = whittle.whittle_table_closed(params, max(N_GRID))
        gaps = np.abs(table[ages] - core.lambda_seq(params, ages))
        for n, gap in zip(N_GRID, gaps.tolist()):
            yield gap, _witness(params, n=n)


def check_whittle_iterative_vs_closed(grid) -> Iterator[tuple[float, dict]]:
    """Iterative infimum construction reproduces the closed-form table.

    p = 1 is excluded: there the ratios driving the construction are 0/0
    limits that no longer depend on the scan state, so the two routes only
    agree on the reachable age 0 (the others are vacuous by unreachability).
    """
    for params in grid:
        if params.p == 1.0:
            continue
        closed = whittle.whittle_table_closed(params, 60)
        iterative = whittle.whittle_index_iterative(params, 60)
        scale = np.maximum(np.abs(closed), 1e-12)
        yield float(np.max(np.abs(closed - iterative) / scale)), _witness(params)


def check_whittle_monotone_bounded(grid) -> Iterator[tuple[float, dict]]:
    """Index tables never decrease and stay at or below the limit."""
    for params in grid:
        table = whittle.whittle_table_closed(params, 200)
        limit = core.lambda_limit(params)
        yield max(float(np.max(table - limit)), 0.0), _witness(params)
        yield max(float(-np.min(np.diff(table))), 0.0), _witness(params)


def check_indexability(grid) -> Iterator[tuple[float, dict]]:
    """Average attack time decreases in the threshold for every triple."""
    for params in grid:
        if not whittle.indexability_check(params, 200):
            yield math.inf, _witness(params)


def check_pairwise_tie_floor(grid) -> Iterator[tuple[float, dict]]:
    """Pairwise tie subsidies never undercut the consecutive one."""
    for params in grid:
        if params.q == 0.0:
            continue
        for k in (0, 3, 10):
            base = core.lambda_seq(params, k)
            ns = np.arange(k + 1, k + 61)
            ratios = core.intersection_lambda(params, k, ns)
            yield max(float(np.max(base - ratios)), 0.0), _witness(params, n=k)


def check_intersection_vs_naive(grid) -> Iterator[tuple[float, dict]]:
    """Cancelled pairwise ratio vs the raw closed-form difference quotient."""
    for params in grid:
        if params.q == 0.0:
            continue
        for m, n in ((0, 1), (0, 7), (2, 3), (2, 20), (10, 11), (10, 40)):
            dd = core.avg_aat_closed(params, n) - core.avg_aat_closed(params, m)
            if abs(dd) < 1e-6:
                continue
            ds = core.avg_eaoii_closed(params, n) - core.avg_eaoii_closed(params, m)
            naive = ds / dd
            stable = core.intersection_lambda(params, m, n)
            yield abs(stable - naive) / max(abs(naive), 1e-12), _witness(params, m=m, n=n)


def check_rvi_consistency(grid) -> Iterator[tuple[float, dict]]:
    """Value iteration reproduces the threshold map and its average reward."""
    for p, q, r in RVI_PARAMS:
        params = core.SubsystemParams(p=p, q=q, r=r)
        limit = core.lambda_limit(params)
        lams = np.linspace(0.0, 1.1 * limit, RVI_LAMBDA_COUNT)
        for lam in lams:
            lam = float(lam)
            expected = core.optimal_threshold(params, lam)
            hint = int(min(expected.threshold, 120))  # never jamming is sized as threshold 120
            cfg = oracle.OracleConfig(state_cap=_tail_cap(params, hint, 1e-12, 10), tolerance=1e-10)
            result = oracle.relative_value_iteration(params, lam, cfg)
            extracted = oracle.extract_threshold(result)
            if extracted != expected:
                yield math.inf, _witness(params, lam=lam)
                continue
            yield abs(result.theta - core.steady_reward(params, expected, lam)), _witness(params, lam=lam)


def check_select_jam_set(grid) -> Iterator[tuple[float, dict]]:
    """The fleet simulator's selection, per-kind ranks plus the channel, equals ``select_jam_set``.

    Channels draw (params, age) from small pools, so equal index values,
    and with them the tie to the lower channel, occur in most fleets.
    """
    rng = np.random.default_rng(7)
    pool = [params for params in grid if params.q > 0.0]
    for _ in range(40):
        size = int(rng.integers(1, 13))
        kinds = [pool[int(i)] for i in rng.integers(0, len(pool), size=3)]
        of_kind = rng.integers(0, 3, size=size)
        ages = rng.integers(0, 6, size=(4, size))
        fleet = whittle.FleetConfig(tuple(kinds[int(i)] for i in of_kind), int(rng.integers(0, size)))
        ranks = whittle.rank_keys(np.array([whittle.whittle_table_closed(params, 5)
                                            for params in kinds]), size)
        masks = whittle.jam_mask(ranks[of_kind, ages] + np.arange(size), fleet.budget)
        for lane, mask in zip(ages, masks):
            if whittle.select_jam_set(fleet, lane) != set(np.flatnonzero(mask).tolist()):
                yield math.inf, {"fleet_size": size, "budget": fleet.budget, "ages": lane.tolist()}


# name -> (reduced check, tolerance). This is the coverage inventory: the
# report always contains exactly these checks, in this order, and takes each
# check's name and tolerance from here.
CHECKS = {
    "eaoii_identities": (_worst(check_eaoii_identities), 1e-14),
    "eaoii_monotone_bounded": (_worst(check_eaoii_monotone_bounded), 1e-12),
    "kernel_stochastic": (_worst(check_kernel_stochastic), 0.0),
    "stationary_vs_power_iteration": (_worst(check_stationary_vs_power_iteration), 1e-8),
    "stationary_normalization": (_worst(check_stationary_normalization), 1e-12),
    "stationary_balance": (_worst(check_stationary_balance), 1e-10),
    "avg_eaoii_closed_vs_numeric": (_worst(check_avg_eaoii_closed), 1e-8),
    "avg_aat_closed_vs_numeric": (_worst(check_avg_aat_closed), 1e-8),
    "lambda_seq_vs_ratio": (_worst(check_lambda_seq_vs_ratio), 1e-8),
    "lambda_monotone_below_limit": (_worst(check_lambda_monotone_below_limit), 0.0),
    "lambda_limit_is_sup": (_worst(check_lambda_limit_is_sup), 1e-6),
    "optimal_threshold_vs_brute": (_worst(check_optimal_threshold_vs_brute), 0.0),
    "steady_reward_tie": (_worst(check_steady_reward_tie), 1e-10),
    "exchange_sign_flip": (_worst(check_exchange_sign_flip), 0.0),
    "whittle_closed_equals_lambda": (_worst(check_whittle_closed_equals_lambda), 0.0),
    "whittle_iterative_vs_closed": (_worst(check_whittle_iterative_vs_closed), 1e-8),
    "whittle_monotone_bounded": (_worst(check_whittle_monotone_bounded), 0.0),
    "indexability": (_worst(check_indexability), 0.0),
    "pairwise_tie_floor": (_worst(check_pairwise_tie_floor), 1e-12),
    "intersection_vs_naive_ratio": (_worst(check_intersection_vs_naive), 1e-8),
    "rvi_consistency": (_worst(check_rvi_consistency), 1e-6),
    "select_jam_set_vs_sort": (_worst(check_select_jam_set), 0.0),
}


def run_checks(grid=None, names=None) -> dict:
    """Run the (selected) suite and return the JSON-ready report."""
    grid = default_grid() if grid is None else grid
    selected = list(CHECKS) if names is None else list(names)
    if not selected:
        raise ValueError("no checks selected")
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    results = []
    for name in selected:
        func, tolerance = CHECKS[name]
        worst, witness = func(grid)
        results.append({
            "name": name,
            "tolerance": tolerance,
            "worst_error": worst,
            "passed": bool(worst <= tolerance),  # False for NaN; a numpy bool is not JSON
            "witness": witness,
        })
    return {
        "grid_size": len(grid),
        "checks": results,
        "passed": all(res["passed"] for res in results),
    }
