"""Seeded simulation of the true monitoring system.

Unlike the closed forms, the simulator tracks the ground truth: the binary
source itself, the monitor's estimate, and the true age of incorrect
information (slots since the source last matched the current estimate),
alongside the delivery-age process the adversary observes. Slot order is
fixed: the adversary commits its jam decision on the current age, the
source flips, the packet is transmitted, then estimate/age/agreement are
updated. Every run is a pure function of (configuration, seed): each
subsystem draws from its own stream derived from the master seed, and
randomized policies draw from a separate policy stream.

A single-source run has no slot loop: under a threshold or random policy
the deliveries of a whole chunk of slots follow from its uniforms and the
last delivery before it, and every other record follows from the
deliveries. The fleet simulator steps all channels one slot at a time.
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
    "summarize_trace",
    "simulate_multi_batch",
    "standard_error",
    "batch_standard_error",
]

# Lookup tables saturate at their analytic ceilings well before this many ages.
_TABLE_SIZE = 4096

# Slots per draw chunk of the fleet loop and per array pass of single_trace.
_CHUNK = 4096

# Longest single-source run: ten times the longest default horizon.
MAX_HORIZON = 10_000_000


@dataclass(frozen=True)
class RandomJam:
    """Jam each slot independently with probability ``jam_prob``."""

    jam_prob: float

    def __post_init__(self):
        if not 0.0 <= self.jam_prob <= 1.0:
            raise ValueError(f"jam_prob must be in [0, 1], got {self.jam_prob}")


@dataclass(frozen=True)
class WhittleJam:
    """Jam the fleet-budget channels with the highest current index values."""


@dataclass(frozen=True)
class RandomMultiJam:
    """Jam fleet-budget channels chosen uniformly at random each slot."""


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
    per-channel breakdown. Standard errors come from batch means: the run is
    cut into ``B = min(100, slots // 2)`` batches of ``slots // B``
    consecutive slots, and the last ``slots % B`` slots count in the averages
    but in no batch. They are NaN when the horizon cannot support two
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


def _batch_layout(slots: int) -> tuple[int, int]:
    """(number of batches, slots per batch) of a run; see ``SimStats``."""
    batches = min(100, slots // 2)
    return batches, slots // max(batches, 1)


def standard_error(values) -> float:
    """Standard error of the mean of independent values; NaN below two."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def _batch_means(series: np.ndarray) -> np.ndarray:
    batches, length = _batch_layout(len(series))
    trimmed = np.asarray(series[: batches * length], dtype=np.float64)
    return trimmed.reshape(batches, length).mean(axis=1)


def batch_standard_error(series: np.ndarray) -> float:
    """Standard error of the series mean by non-overlapping batch means."""
    return standard_error(_batch_means(series))


def _threshold_deliveries(u: np.ndarray, p: float, p_jam: float, n: int, last: int) -> np.ndarray:
    """Deliveries of one chunk under a finite threshold ``n``.

    ``u`` holds the chunk's delivery uniforms and ``last`` (negative) the last
    delivery before the chunk, in chunk-local slots. A slot is jammed exactly
    when nothing was delivered in the ``n`` slots before it, so a slot with
    ``u < p(1-q)`` is always delivered, one with ``u >= p`` never, and one in
    between iff a delivery lies at most ``n`` slots before it. Split the
    ``u < p`` slots, preceded by ``last``, into runs wherever two consecutive
    ones lie more than ``n`` apart: within a run every slot from the first
    sure delivery onward is delivered, and in the run that contains ``last``
    every slot is.
    """
    candidates = np.flatnonzero(u < p)
    index = np.arange(1, len(candidates) + 1)  # ``last`` is index 0
    run_start = np.maximum.accumulate(np.where(np.diff(candidates, prepend=last) > n, index, 0))
    last_sure = np.maximum.accumulate(np.where(u[candidates] < p_jam, index, 0))
    delivered = np.zeros(len(u), dtype=bool)
    delivered[candidates] = last_sure >= run_start
    return delivered


def single_trace(
    params: SubsystemParams, policy: PolicySpec, horizon: int, seed: int
) -> dict[str, np.ndarray]:
    """Raw per-slot record of a single-source run.

    Returns arrays over slots 0..horizon-1: the age and true AoII at
    decision time, the committed jam decision, and whether that slot's
    packet was delivered. The run is resolved ``_CHUNK`` slots at a
    time with array operations; only the last delivery slot, the source bit,
    the estimate and the last agreement slot carry from one chunk to the next.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon must be at most {MAX_HORIZON}, got {horizon}")
    if not isinstance(policy, (ThresholdPolicy, RandomJam)):
        raise ValueError(f"a single-source run takes ThresholdPolicy or RandomJam, not {policy!r}")

    sub_seq, pol_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(sub_seq)
    u_flip = rng.random(horizon)
    u_deliver = rng.random(horizon)
    random_mode = isinstance(policy, RandomJam)
    if random_mode:
        u_policy = np.random.default_rng(pol_seq).random(horizon)
    # No age reaches the horizon, so a threshold there never binds.
    n = min(int(policy.threshold), horizon) if not random_mode and policy.is_finite else horizon

    p = params.p
    p_jam = delivery_probability(params, True)
    trace = {
        "slot": np.arange(horizon, dtype=np.int64),
        "age_index": np.empty(horizon, dtype=np.int64),
        "true_aoii": np.empty(horizon, dtype=np.int64),
        "jammed": np.empty(horizon, dtype=bool),
        "delivered": np.empty(horizon, dtype=bool),
    }
    # Slot -1 counts as a delivery: the run starts at age 0, in agreement.
    last_delivery, x, xh, last_agree = -1, False, False, 0
    for start in range(0, horizon, _CHUNK):
        stop = min(start + _CHUNK, horizon)
        slots = trace["slot"][start:stop]
        u = u_deliver[start:stop]
        if random_mode:
            jammed = u_policy[start:stop] < policy.jam_prob
            delivered = u < np.where(jammed, p_jam, p)
        elif n == horizon:
            delivered = u < p
        else:
            delivered = _threshold_deliveries(u, p, p_jam, n, last_delivery - start)
        delivery = np.maximum.accumulate(np.where(delivered, slots, last_delivery))
        age = trace["age_index"][start:stop]
        age[0] = start - 1 - last_delivery
        np.subtract(slots[:-1], delivery[:-1], out=age[1:])
        if not random_mode:
            jammed = age >= n
        source = np.logical_xor.accumulate(u_flip[start:stop] < params.r) ^ x
        estimate = np.where(delivery >= start, source[np.maximum(delivery - start, 0)], xh)
        agreement = np.maximum.accumulate(np.where(source == estimate, slots + 1, last_agree))
        aoii = trace["true_aoii"][start:stop]
        aoii[0] = start - last_agree
        np.subtract(slots[1:], agreement[:-1], out=aoii[1:])
        trace["jammed"][start:stop] = jammed
        trace["delivered"][start:stop] = delivered
        last_delivery, x, xh, last_agree = (
            int(delivery[-1]), bool(source[-1]), bool(estimate[-1]), int(agreement[-1]))
    return trace


def _sim_stats(slots, seed, lam, averages, batch_means, per_subsystem=None) -> SimStats:
    """SimStats from the averages and batch means of reward, EAoII, true AoII, jams."""
    errors = [standard_error(means) for means in batch_means]
    return SimStats(slots, seed, lam, *map(float, averages), *errors, per_subsystem)


def summarize_trace(
    params: SubsystemParams, trace: dict[str, np.ndarray], lam: float, seed: int
) -> SimStats:
    """Statistics of a ``single_trace`` record at jamming cost ``lam``.

    Per-slot reward is the EAoII of the current age minus lam when jamming;
    the true AoII is tracked from the simulated source for the
    tower-property checks.
    """
    _check_cost(lam)
    ladder = eaoii_ladder(params, int(trace["age_index"].max()) + 1)
    eaoii = ladder[trace["age_index"]]
    jam = trace["jammed"].astype(np.float64)
    series = (eaoii - lam * jam, eaoii, trace["true_aoii"].astype(np.float64), jam)
    return _sim_stats(
        len(eaoii), seed, lam, [x.mean() for x in series], [_batch_means(x) for x in series]
    )


def simulate_single(
    params: SubsystemParams,
    policy: PolicySpec,
    lam: float,
    horizon: int,
    seed: int,
) -> SimStats:
    """Simulate one source for ``horizon`` slots under a single-source policy.

    Deterministic given the seed; see ``summarize_trace`` for the reward.
    """
    _check_cost(lam)
    return summarize_trace(params, single_trace(params, policy, horizon, seed), lam, seed)


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
    speed. Exactly ``fleet.budget`` channels are jammed each slot (an
    index-ranked set for the Whittle policy, a uniform random set for the
    baseline); a slot that jams any other number raises ``RuntimeError``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not seeds:
        raise ValueError("at least one seed required")
    if not isinstance(policy, (WhittleJam, RandomMultiJam)):
        raise ValueError("single-source policy kind rejected for a fleet run")
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

    # Channel and batch sums of EAoII, true AoII and jams (float64: exact below 2**53).
    sums = np.zeros((3, n_seeds, n_sub))
    n_batches, batch_len = _batch_layout(horizon)
    batch_sums = np.zeros((3, n_seeds, n_batches))
    sum_eaoii, sum_true, sum_jam = sums
    batch_eaoii, batch_true, batch_jam = batch_sums

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

            s_now = ladders[col, np.minimum(age, _TABLE_SIZE - 1)]
            aoii = t - last_agree
            sum_eaoii += s_now
            sum_true += aoii
            sum_jam += mask
            b = t // batch_len
            if b < n_batches:
                batch_eaoii[:, b] += s_now.sum(axis=1)
                batch_true[:, b] += aoii.sum(axis=1)
                batch_jam[:, b] += jammed

            x ^= u_flip[:, j, :] < r_vec
            delivered = u_deliver[:, j, :] < np.where(mask, pj_vec, p_vec)
            xhat = np.where(delivered, x, xhat)
            age = np.where(delivered, 0, age + 1)
            last_agree = np.where(x == xhat, t + 1, last_agree)
            t += 1

    averages = sums.sum(axis=2) * (1.0 / (horizon * n_sub))
    batch_means = batch_sums / (batch_len * n_sub)
    per_channel = sums.transpose(1, 2, 0) / horizon
    rows = [0, 0, 1, 2]  # reward, EAoII, true AoII, jams: the reward is the EAoII at lam = 0
    return [
        _sim_stats(horizon, seed, 0.0, averages[rows, s], batch_means[rows, s],
                   tuple(SubsystemStats(i, *v) for i, v in enumerate(per_channel[s].tolist())))
        for s, seed in enumerate(seeds)
    ]
