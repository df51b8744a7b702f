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

Both simulators resolve chunks of slots: first the deliveries, then, in one
kernel, everything else. Only the fleet's index policy steps one slot at a
time, to decide its jams; a single-source run and the fleet's random baseline
draw a whole chunk's jams and deliveries with array operations.
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
from .whittle import FleetConfig, jam_mask, rank_keys, whittle_table_closed

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
]

# Lookup tables saturate at their analytic ceilings well before this many ages.
_TABLE_SIZE = 4096

# Slots per draw chunk and per array pass of both simulators.
_CHUNK = 4096

# Longest single-source run: ten times the longest default horizon.
MAX_HORIZON = 10_000_000

# Largest fleet: the random baseline's keys int64(u * 2**53) * N + channel fit up to here.
MAX_FLEET = 1024


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


def _threshold_deliveries(u: np.ndarray, p: float, p_jam: float, n: int, last: int) -> np.ndarray:
    """Deliveries of one chunk under threshold ``n``; at the horizon or above it never binds.

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


def _resolve(delivered, flips, start, carry, age, aoii):
    """Ages and true AoII of a chunk of slots from ``start`` on, for both simulators.

    Takes (slots, channels) deliveries and source flips and, per channel, the
    carry: the last delivery before the chunk, the source bit and the last
    agreement slot. A delivery is coded 2 * slot + the source bit it delivers,
    so one running maximum gives the last delivery slot (``code >> 1``) and the
    estimate (``code & 1``). Writes the age and true AoII at decision time into
    ``age`` and ``aoii``; returns the next chunk's carry.
    """
    last, x, last_agree = carry
    slots = np.arange(start, start + len(delivered))[:, None]
    source = np.logical_xor.accumulate(flips, axis=0) ^ x
    code = np.maximum.accumulate(np.where(delivered, 2 * slots + source, last), axis=0)
    age[0] = start - 1 - (last >> 1)
    np.subtract(slots[:-1], code[:-1] >> 1, out=age[1:])
    agreement = np.maximum.accumulate(np.where(source == (code & 1), slots + 1, last_agree), axis=0)
    aoii[0] = start - last_agree
    np.subtract(slots[1:], agreement[:-1], out=aoii[1:])
    return code[-1].copy(), source[-1].copy(), agreement[-1].copy()


def _start_carry(channels: int) -> tuple[np.ndarray, ...]:
    """The ``_resolve`` carry of a run's start: slot -1 counts as a delivery, in agreement."""
    return np.full(channels, -2), np.zeros(channels, dtype=bool), np.zeros(channels, dtype=int)


def single_trace(
    params: SubsystemParams, policy: PolicySpec, horizon: int, seed: int
) -> dict[str, np.ndarray]:
    """Raw per-slot record of a single-source run.

    Returns arrays over slots 0..horizon-1: the age and true AoII at
    decision time, the committed jam decision, and whether that slot's
    packet was delivered, resolved ``_CHUNK`` slots at a time by ``_resolve``.
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

    p_jam = delivery_probability(params, True)
    trace = {
        "slot": np.arange(horizon, dtype=np.int64),
        "age_index": np.empty(horizon, dtype=np.int64),
        "true_aoii": np.empty(horizon, dtype=np.int64),
        "jammed": np.empty(horizon, dtype=bool),
        "delivered": np.empty(horizon, dtype=bool),
    }
    carry = _start_carry(1)
    for start in range(0, horizon, _CHUNK):
        stop = min(start + _CHUNK, horizon)
        u = u_deliver[start:stop]
        jammed, delivered = trace["jammed"][start:stop], trace["delivered"][start:stop]
        if random_mode:
            np.less(u_policy[start:stop], policy.jam_prob, out=jammed)
            np.less(u, np.where(jammed, p_jam, params.p), out=delivered)
        else:
            last = (int(carry[0][0]) >> 1) - start
            delivered[:] = _threshold_deliveries(u, params.p, p_jam, n, last)
        age = trace["age_index"][start:stop]
        flips = u_flip[start:stop, None] < params.r
        carry = _resolve(delivered[:, None], flips, start, carry,
                         age[:, None], trace["true_aoii"][start:stop, None])
        if not random_mode:
            np.greater_equal(age, n, out=jammed)
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

    Per chunk, the index policy steps through the slots for all seeds at
    once, as its jams depend on the ages; the baseline picks a seed's jam
    sets for the whole chunk in one call. ``_resolve`` does the rest.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not seeds:
        raise ValueError("at least one seed required")
    if not isinstance(policy, (WhittleJam, RandomMultiJam)):
        raise ValueError("single-source policy kind rejected for a fleet run")
    if fleet.size > MAX_FLEET:
        raise ValueError(f"a fleet has at most {MAX_FLEET} subsystems, got {fleet.size}")
    n_sub, budget, lanes = fleet.size, fleet.budget, len(seeds)
    whittle_mode = isinstance(policy, WhittleJam)

    tables = {params: (eaoii_ladder(params, _TABLE_SIZE),
                       whittle_table_closed(params, _TABLE_SIZE - 1))
              for params in dict.fromkeys(fleet.subsystems)}
    ladders, index_tables = (np.array([tables[params][k] for params in fleet.subsystems])
                             for k in (0, 1))
    col = np.arange(n_sub)
    p_vec, r_vec, pj_vec = np.array(
        [(s.p, s.r, delivery_probability(s, True)) for s in fleet.subsystems]).T[:, :, None]
    if whittle_mode:
        # Keys of ages 0 .. _TABLE_SIZE - 1 + _CHUNK, flat: an age clamped to the
        # table at the start of a chunk stays inside it for the whole chunk.
        keys = np.pad(rank_keys(index_tables), ((0, 0), (0, _CHUNK)), mode="edge")
        flat_keys, base = keys.ravel(), col * keys.shape[1]

    children = [np.random.SeedSequence(seed).spawn(n_sub + 1) for seed in seeds]
    sub_rngs = [[np.random.default_rng(c) for c in lane[:n_sub]] for lane in children]
    pol_rngs = [np.random.default_rng(lane[n_sub]) for lane in children]
    carries = [_start_carry(n_sub) for _ in seeds]
    # Channel and batch sums of EAoII, true AoII and jams (float64: exact below 2**53).
    sums = np.zeros((lanes, 3, n_sub))
    n_batches, batch_len = _batch_layout(horizon)
    batch_sums = np.zeros((lanes, 3, n_batches))

    for start in range(0, horizon, _CHUNK):
        chunk = min(_CHUNK, horizon - start)
        u = np.empty((n_sub, chunk))
        # Per (slot, seed, channel): the source flips, and whether the packet
        # gets through if jammed (sure) and if not (maybe).
        flips, sure, maybe = np.empty((3, chunk, lanes, n_sub), dtype=bool)
        for s, lane_rngs in enumerate(sub_rngs):
            for out, prob in ((flips, r_vec), (sure, pj_vec)):
                for rng, row in zip(lane_rngs, u):
                    rng.random(out=row)
                np.less(u, prob, out=out[:, s].T)
            np.less(u, p_vec, out=maybe[:, s].T)
        if whittle_mode:
            start_ages = start - 1 - (np.array([carry[0] for carry in carries]) >> 1)
            lookup = base + np.minimum(start_ages, _TABLE_SIZE - 1)
            masks, deliveries = np.empty((2, chunk, lanes, n_sub), dtype=bool)
            for j in range(chunk):
                mask = masks[j] = jam_mask(flat_keys[lookup], budget)
                delivered = deliveries[j] = np.where(mask, sure[j], maybe[j])
                lookup = np.where(delivered, base, lookup + 1)
        batch = np.arange(start, start + chunk) // batch_len
        for s in range(lanes):
            if whittle_mode:
                mask, delivered = masks[:, s], deliveries[:, s]
            else:
                # The lowest uniform of each slot wins, ties to the lower channel;
                # random() returns multiples of 2**-53, so the keys are exact.
                u_policy = pol_rngs[s].random((chunk, n_sub))
                mask = jam_mask((u_policy * 2.0**53).astype(np.int64) * n_sub + col, budget)
                delivered = np.where(mask, sure[:, s], maybe[:, s])
            jams = mask.sum(axis=1)
            if (jams != budget).any():
                bad = np.flatnonzero(jams != budget)[0]
                raise RuntimeError(
                    f"slot {start + bad}: jammed {jams[bad]} channels, budget {budget}")
            age, aoii = np.empty((2, chunk, n_sub), dtype=np.int64)
            carries[s] = _resolve(delivered, flips[:, s], start, carries[s], age, aoii)
            per_slot = (ladders[col, np.minimum(age, _TABLE_SIZE - 1)], aoii, mask)
            for k, values in enumerate(per_slot):
                sums[s, k] += values.sum(axis=0)
                batch_sums[s, k] += np.bincount(
                    batch, weights=values.sum(axis=1), minlength=n_batches)[:n_batches]

    averages = sums.sum(axis=2) * (1.0 / (horizon * n_sub))
    batch_means = batch_sums / (batch_len * n_sub)
    per_channel = sums.transpose(0, 2, 1) / horizon
    rows = [0, 0, 1, 2]  # reward, EAoII, true AoII, jams: the reward is the EAoII at lam = 0
    return [
        _sim_stats(horizon, seed, 0.0, averages[s, rows], batch_means[s, rows],
                   tuple(SubsystemStats(i, *v) for i, v in enumerate(per_channel[s].tolist())))
        for s, seed in enumerate(seeds)
    ]
