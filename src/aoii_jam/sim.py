"""Seeded slot-by-slot simulation of the true monitoring system.

Unlike the closed forms, the simulator tracks the ground truth: the binary
source itself, the monitor's estimate, and the true age of incorrect
information (slots since the source last matched the current estimate),
alongside the delivery-age process the adversary observes. Slot order is
fixed: the adversary commits its jam decision on the current age, the
source flips, the packet is transmitted, then estimate/age/agreement are
updated. Every run is a pure function of (configuration, seed): each
subsystem draws from its own stream derived from the master seed, and
randomized policies draw from a separate policy stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SubsystemParams,
    ThresholdPolicy,
    _check_cost,
    delivery_probability,
    eaoii_ladder,
)
from .whittle import FleetConfig, jam_mask, whittle_table_closed

__all__ = [
    "RandomJam",
    "WhittleJam",
    "RandomMultiJam",
    "PolicySpec",
    "SubsystemStats",
    "SimStats",
    "simulate_single",
    "single_trace",
    "simulate_multi",
    "simulate_multi_batch",
    "batch_standard_error",
]

# Lookup tables saturate at their analytic ceilings well before this many ages.
_TABLE_SIZE = 4096

_CHUNK = 4096


@dataclass(frozen=True)
class RandomJam:
    """Jam each slot independently with probability ``jam_prob``."""

    jam_prob: float

    def __post_init__(self):
        if not 0.0 <= self.jam_prob <= 1.0:
            raise ValueError(f"jam_prob must be in [0, 1], got {self.jam_prob}")


@dataclass(frozen=True)
class WhittleJam:
    """Jam the ``budget`` channels with the highest current index values."""

    budget: int


@dataclass(frozen=True)
class RandomMultiJam:
    """Jam ``budget`` channels chosen uniformly at random each slot."""

    budget: int


PolicySpec = ThresholdPolicy | RandomJam | WhittleJam | RandomMultiJam


@dataclass(frozen=True)
class SubsystemStats:
    subsystem_id: int
    avg_eaoii: float
    avg_true_aoii: float
    avg_aat: float


@dataclass(frozen=True)
class SimStats:
    """Per-run averages over exactly ``slots`` slots, plus batch-means errors.

    For multi-source runs the fleet-level averages are per-slot totals over
    the fleet divided by the fleet size, and ``per_subsystem`` holds the
    per-channel breakdown. Standard errors come from 100 batch means (fewer
    for short runs); they are NaN when the horizon cannot support two
    batches.
    """

    slots: int
    seed: int
    lam: float
    avg_reward: float
    avg_eaoii: float
    avg_true_aoii: float
    avg_aat: float
    se_reward: float
    se_eaoii: float
    se_true_aoii: float
    se_aat: float
    per_subsystem: tuple[SubsystemStats, ...] | None = None


def batch_standard_error(series: np.ndarray, n_batches: int = 100) -> float:
    """Standard error of the series mean by non-overlapping batch means."""
    length = len(series)
    batches = min(n_batches, length // 2)
    if batches < 2:
        return float("nan")
    batch_len = length // batches
    trimmed = np.asarray(series[: batches * batch_len], dtype=np.float64)
    means = trimmed.reshape(batches, batch_len).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(batches))


def single_trace(
    params: SubsystemParams, policy: PolicySpec, horizon: int, seed: int
) -> dict[str, np.ndarray]:
    """Raw per-slot record of a single-source run.

    Returns arrays over slots 0..horizon-1: the age and true AoII at
    decision time, the committed jam decision, and whether that slot's
    packet was delivered.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if isinstance(policy, (WhittleJam, RandomMultiJam)):
        raise ValueError("multi-source policy kind rejected for a single-source run")
    if not isinstance(policy, (ThresholdPolicy, RandomJam)):
        raise TypeError(f"unsupported policy {policy!r}")

    sub_seq, pol_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(sub_seq)
    u_flip = rng.random(horizon)
    u_deliver = rng.random(horizon)

    random_mode = isinstance(policy, RandomJam)
    if random_mode:
        u_policy = np.random.default_rng(pol_seq).random(horizon)
        jam_prob = policy.jam_prob
        n = None
    else:
        n = int(policy.threshold) if policy.is_finite else None

    p = params.p
    r = params.r
    p_jam = delivery_probability(params, True)
    x = 0
    xh = 0
    age = 0
    last_agree = 0
    ages: list[int] = []
    jams: list[bool] = []
    aoiis: list[int] = []
    delivereds: list[bool] = []
    for t in range(horizon):
        if random_mode:
            jam = bool(u_policy[t] < jam_prob)
        else:
            jam = n is not None and age >= n
        ages.append(age)
        jams.append(jam)
        aoiis.append(t - last_agree)
        if u_flip[t] < r:
            x ^= 1
        delivered = u_deliver[t] < (p_jam if jam else p)
        delivereds.append(delivered)
        if delivered:
            xh = x
            age = 0
        else:
            age += 1
        if x == xh:
            last_agree = t + 1
    return {
        "slot": np.arange(horizon, dtype=np.int64),
        "age_index": np.asarray(ages, dtype=np.int64),
        "true_aoii": np.asarray(aoiis, dtype=np.int64),
        "jammed": np.asarray(jams, dtype=bool),
        "delivered": np.asarray(delivereds, dtype=bool),
    }


def _stats_from_series(
    slots, seed, lam, eaoii, true_aoii, jam, per_subsystem=None
) -> SimStats:
    reward = eaoii - lam * jam
    return SimStats(
        slots=slots,
        seed=seed,
        lam=lam,
        avg_reward=float(reward.mean()),
        avg_eaoii=float(eaoii.mean()),
        avg_true_aoii=float(true_aoii.mean()),
        avg_aat=float(jam.mean()),
        se_reward=batch_standard_error(reward),
        se_eaoii=batch_standard_error(eaoii),
        se_true_aoii=batch_standard_error(true_aoii),
        se_aat=batch_standard_error(jam),
        per_subsystem=per_subsystem,
    )


def simulate_single(
    params: SubsystemParams,
    policy: PolicySpec,
    lam: float,
    horizon: int,
    seed: int,
) -> SimStats:
    """Simulate one source for ``horizon`` slots under a single-source policy.

    Deterministic given the seed. Per-slot reward is the EAoII of the
    current age minus lam when jamming; the true AoII is tracked from the
    simulated source for the tower-property checks.
    """
    _check_cost(lam)
    trace = single_trace(params, policy, horizon, seed)
    ladder = eaoii_ladder(params, int(trace["age_index"].max()) + 1)
    eaoii = ladder[trace["age_index"]]
    return _stats_from_series(
        horizon,
        seed,
        lam,
        eaoii,
        trace["true_aoii"].astype(np.float64),
        trace["jammed"].astype(np.float64),
    )


def _build_tables(fleet: FleetConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-subsystem EAoII ladders and index tables, shared across classes."""
    ladders = np.empty((fleet.size, _TABLE_SIZE))
    indices = np.empty((fleet.size, _TABLE_SIZE))
    cache: dict[SubsystemParams, tuple[np.ndarray, np.ndarray]] = {}
    for i, params in enumerate(fleet.subsystems):
        if params not in cache:
            cache[params] = (
                eaoii_ladder(params, _TABLE_SIZE),
                whittle_table_closed(params, _TABLE_SIZE - 1),
            )
        ladders[i], indices[i] = cache[params]
    return ladders, indices


def simulate_multi_batch(
    fleet: FleetConfig,
    policy: PolicySpec,
    horizon: int,
    seeds: list[int],
) -> list[SimStats]:
    """Simulate the fleet once per seed, sharing the vectorized slot loop.

    Results are identical to running each seed alone: every seed derives its
    own per-subsystem and policy streams, so the batch grouping only changes
    speed. Exactly ``budget`` channels are jammed each slot (an index-ranked
    set for the Whittle policy, a uniform random set for the baseline); a
    slot that jams any other number raises ``RuntimeError``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not seeds:
        raise ValueError("at least one seed required")
    if not isinstance(policy, (WhittleJam, RandomMultiJam)):
        raise ValueError("single-source policy kind rejected for a fleet run")
    if policy.budget != fleet.budget:
        raise ValueError("policy budget must match the fleet budget")
    n_sub = fleet.size
    budget = fleet.budget
    n_seeds = len(seeds)
    whittle_mode = isinstance(policy, WhittleJam)

    ladders, index_tables = _build_tables(fleet)
    col = np.arange(n_sub)
    p_vec = np.array([s.p for s in fleet.subsystems])
    r_vec = np.array([s.r for s in fleet.subsystems])
    pj_vec = np.array([delivery_probability(s, True) for s in fleet.subsystems])

    sub_rngs = []
    pol_rngs = []
    for seed in seeds:
        children = np.random.SeedSequence(seed).spawn(n_sub + 1)
        sub_rngs.append([np.random.default_rng(c) for c in children[:n_sub]])
        pol_rngs.append(np.random.default_rng(children[n_sub]))

    x = np.zeros((n_seeds, n_sub), dtype=np.int8)
    xhat = np.zeros((n_seeds, n_sub), dtype=np.int8)
    age = np.zeros((n_seeds, n_sub), dtype=np.int64)
    last_agree = np.zeros((n_seeds, n_sub), dtype=np.int64)

    sum_eaoii = np.zeros((n_seeds, n_sub))
    sum_true = np.zeros((n_seeds, n_sub), dtype=np.int64)
    sum_jam = np.zeros((n_seeds, n_sub), dtype=np.int64)
    n_batches = min(100, horizon // 2) or 1
    batch_eaoii = np.zeros((n_seeds, n_batches))
    batch_true = np.zeros((n_seeds, n_batches))
    batch_jam = np.zeros((n_seeds, n_batches))
    batch_len = np.zeros(n_batches, dtype=np.int64)

    t = 0
    while t < horizon:
        chunk = min(_CHUNK, horizon - t)
        u_flip = np.empty((n_seeds, chunk, n_sub))
        u_deliver = np.empty((n_seeds, chunk, n_sub))
        for s in range(n_seeds):
            for i in range(n_sub):
                u_flip[s, :, i] = sub_rngs[s][i].random(chunk)
                u_deliver[s, :, i] = sub_rngs[s][i].random(chunk)
        if not whittle_mode:
            # The baseline jams the channels with the lowest uniform keys.
            neg_keys = np.empty((n_seeds, chunk, n_sub))
            for s in range(n_seeds):
                neg_keys[s] = -pol_rngs[s].random((chunk, n_sub))
        for j in range(chunk):
            if whittle_mode:
                mask = jam_mask(index_tables[col, np.minimum(age, _TABLE_SIZE - 1)], budget)
            else:
                mask = jam_mask(neg_keys[:, j, :], budget)
            jammed = mask.sum(axis=1)
            if (jammed != budget).any():
                raise RuntimeError(f"jammed {jammed.tolist()} channels, budget {budget}")

            b_idx = (t * n_batches) // horizon
            s_now = ladders[col, np.minimum(age, _TABLE_SIZE - 1)]
            true_now = (t - last_agree).astype(np.float64)
            sum_eaoii += s_now
            sum_true += t - last_agree
            sum_jam += mask
            batch_eaoii[:, b_idx] += s_now.sum(axis=1)
            batch_true[:, b_idx] += true_now.sum(axis=1)
            batch_jam[:, b_idx] += jammed
            batch_len[b_idx] += 1

            x ^= u_flip[:, j, :] < r_vec
            delivered = u_deliver[:, j, :] < np.where(mask, pj_vec, p_vec)
            xhat = np.where(delivered, x, xhat)
            age = np.where(delivered, 0, age + 1)
            last_agree = np.where(x == xhat, t + 1, last_agree)
            t += 1

    results = []
    scale = 1.0 / (horizon * n_sub)
    for s, seed in enumerate(seeds):
        per_sub = tuple(
            SubsystemStats(
                subsystem_id=i,
                avg_eaoii=float(sum_eaoii[s, i]) / horizon,
                avg_true_aoii=float(sum_true[s, i]) / horizon,
                avg_aat=float(sum_jam[s, i]) / horizon,
            )
            for i in range(n_sub)
        )
        eaoii_means = batch_eaoii[s] / (batch_len * n_sub)
        true_means = batch_true[s] / (batch_len * n_sub)
        jam_means = batch_jam[s] / (batch_len * n_sub)

        def se(means):
            if n_batches < 2:
                return float("nan")
            return float(means.std(ddof=1) / np.sqrt(n_batches))

        avg_eaoii = float(sum_eaoii[s].sum()) * scale
        results.append(
            SimStats(
                slots=horizon,
                seed=seed,
                lam=0.0,
                avg_reward=avg_eaoii,
                avg_eaoii=avg_eaoii,
                avg_true_aoii=float(sum_true[s].sum()) * scale,
                avg_aat=float(sum_jam[s].sum()) * scale,
                se_reward=se(eaoii_means),
                se_eaoii=se(eaoii_means),
                se_true_aoii=se(true_means),
                se_aat=se(jam_means),
                per_subsystem=per_sub,
            )
        )
    return results


def simulate_multi(
    fleet: FleetConfig, policy: PolicySpec, horizon: int, seed: int
) -> SimStats:
    """Simulate the fleet for one seed; see ``simulate_multi_batch``."""
    return simulate_multi_batch(fleet, policy, horizon, [seed])[0]
