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

A single-source run is a one-channel fleet lane: both simulators draw
chunks of slots alike and resolve them in two steps, first the deliveries,
then, in one kernel, everything else; a single-source run resolves eight
draw chunks at a time, and under a threshold touches only the deliveries
where it binds. A single-source run and the fleet's random baseline decide
a whole block's or chunk's jams and deliveries with array operations. The
fleet's index policy decides its jams from the ages, so it ranks the
channels one slot at a time, until the classes' key ranges show that no
later slot of the chunk can change its jam set; then it keeps that set for
the rest of the chunk at once. Both simulators reduce their chunks into
the same channel and batch sums, from which one function builds every run summary.

The fleet stores each chunk channel by channel: its (slot, seed, channel)
draws and jams and its (slot, channel) ages are transposed views of
(seed, channel, slot) memory. Every kernel indexes them by slot first, as a
single-source run's own buffers, but drawing, resolving and summing a
channel's slots then runs along contiguous memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SubsystemParams, ThresholdPolicy, _check_cost, _natural, delivery_probability, eaoii_ladder
from .whittle import FleetConfig, jam_mask, rank_keys, whittle_table_closed

__all__ = [
    "RandomJam", "WhittleJam", "RandomMultiJam", "SubsystemStats", "SimStats",
    "simulate_single", "single_trace", "summarize_trace", "simulate_multi_batch", "standard_error",
]

# Slots per draw chunk and per array pass of both simulators.
_CHUNK = 4096

# Draw chunks per block that a single-source run resolves at once: eight ran
# as fast as sixteen in the ``single`` sweep, and sixteen raised its peak RSS by 0.85 MB.
_BLOCK = 8

# Longest run of either simulator: ten times the longest default horizon.
MAX_HORIZON = 10_000_000

# Largest fleet: the random baseline's keys int64(u * 2**53) * N + channel fit up to here.
MAX_FLEET = 1024

# The longest run of ranked steps between two key-bound tries (``_index_masks``):
# it bounds the run's slot-major copies to 3 * _MAX_RUN * seeds * channels bytes.
_MAX_RUN = 256


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


@dataclass(frozen=True)
class SubsystemStats:
    avg_eaoii: float
    avg_true_aoii: float
    avg_aat: float


@dataclass(frozen=True)
class SimStats:
    """Per-run averages over exactly ``slots`` slots, plus batch-means errors.

    Every average is a sum over the run divided by ``slots`` times the
    channels (one for a single source), so a fleet's is per channel and slot;
    ``per_subsystem[i]`` holds channel i's averages, in every run. The reward
    is derived from the EAoII and jam sums: EAoII minus ``lam`` (0 for a
    fleet) per jam. Standard errors come from batch means: the run is cut
    into ``B = min(100, slots // 2)`` batches of ``slots // B`` consecutive
    slots, and the last ``slots % B`` slots count in the averages but in no
    batch. They are NaN below two batches.
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
    per_subsystem: tuple[SubsystemStats, ...]


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


def _check_run(horizon: int, channels: int = 1) -> None:
    """Refuse a run past the horizon or fleet-size cap, before anything is drawn."""
    if _natural(horizon, "horizon") == 0:
        raise ValueError("horizon must be positive")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon must be at most {MAX_HORIZON}, got {horizon}")
    if channels > MAX_FLEET:
        raise ValueError(f"a fleet has at most {MAX_FLEET} subsystems, got {channels}")


def _new_totals(channels: int, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero ``_add_chunk`` totals of a run: per channel, then per batch."""
    return np.zeros((3, channels)), np.zeros((3, _batch_layout(slots)[0]))


def _add_chunk(totals, start, slots, eaoii, aoii, jammed) -> None:
    """Add the (chunk, channels) EAoII, true AoII and jams from slot ``start`` on to ``totals``.

    ``totals`` holds their sums per channel and per batch of a ``slots``-slot
    run (float64: the integer sums are exact below 2**53). One ``reduceat``
    per array cuts the chunk at the batch boundaries; each piece adds to its
    channels and, unless it lies past the last batch, to its batch. The bool
    jams are counted in int32, exact as a piece holds at most ``MAX_HORIZON``
    slots, so numpy copies them at 4 bytes a slot rather than its default 8.
    """
    channel_sums, batch_sums = totals
    batches, length = _batch_layout(slots)
    bounds = np.arange(start // length + 1, batches + 1) * length
    cuts = np.concatenate(([0], bounds[bounds < start + len(eaoii)] - start))
    batch = (start + cuts) // length
    inside = batch < batches
    for k, values in enumerate((eaoii, aoii, jammed)):
        pieces = np.add.reduceat(values, cuts, axis=0, dtype=np.int32 if k == 2 else None)
        channel_sums[k] += pieces.sum(axis=0)
        batch_sums[k, batch[inside]] += pieces[inside].sum(axis=1)


def _threshold_deliveries(maybe: np.ndarray, sure: np.ndarray, n: int, last: int) -> np.ndarray:
    """Deliveries of a block under threshold ``n``; at the horizon or above it never binds.

    ``maybe`` and ``sure`` hold the block's deliveries if not jammed and if
    jammed (``_draw_lane``), and ``last`` (negative) the last delivery before
    the block, in block-local slots. A slot is jammed exactly when nothing
    was delivered in the ``n`` slots before it, so a ``sure`` slot is always
    delivered, one that is not ``maybe`` never, and one in between iff a
    delivery lies at most ``n`` slots before it. So start from ``maybe`` and
    split its slots, preceded by ``last``, into runs wherever two consecutive
    ones lie more than ``n`` apart: only a run after such a gap loses its
    slots before its first sure one.
    """
    delivered = maybe.copy()
    candidates = np.flatnonzero(maybe)
    starts = candidates[np.diff(candidates, prepend=last) > n]
    if starts.size:
        sure_slots = np.append(np.flatnonzero(sure), len(maybe))
        ends = np.append(starts[1:], len(maybe))
        lengths = np.minimum(sure_slots[np.searchsorted(sure_slots, starts)], ends) - starts
        # The k-th cleared slot lies k - (the lengths of the spans before its own) past that span's start.
        cleared = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        delivered[cleared] = False
    return delivered


def _resolve(delivered, flips, start, carry, age, aoii):
    """Ages and true AoII of a chunk of slots from ``start`` on, for both simulators.

    Takes (slots, channels) deliveries and source flips and, per channel, the
    carry: the last delivery before the chunk, the source bit and the last
    agreement slot. A delivery is coded 2 * slot + the source bit it delivers,
    so one running maximum gives the last delivery slot (``code >> 1``) and the
    estimate (``code & 1``); a slot without one is coded -2, the smallest
    carry. An agreement is coded slot + 1 and a disagreement 0. Each running
    maximum starts from its carry, folded into the first row, and runs in
    place, all in int32: ``MAX_HORIZON`` keeps every code at most
    2 * MAX_HORIZON + 3. Writes the age and true AoII at decision time into
    ``age`` and ``aoii``; returns the next chunk's carry.
    """
    last, x, last_agree = carry
    slots = np.arange(start, start + len(delivered), dtype=np.int32)[:, None]
    source = np.logical_xor.accumulate(flips, axis=0) ^ x
    code = (2 * slots + 2 + source) * delivered - 2
    np.maximum(code[0], last, out=code[0])
    np.maximum.accumulate(code, axis=0, out=code)
    age[0] = start - 1 - (last >> 1)
    np.subtract(slots[:-1], code[:-1] >> 1, out=age[1:])
    agreement = (slots + 1) * (source == (code & 1))
    np.maximum(agreement[0], last_agree, out=agreement[0])
    np.maximum.accumulate(agreement, axis=0, out=agreement)
    aoii[0] = start - last_agree
    np.subtract(slots[1:], agreement[:-1], out=aoii[1:])
    return code[-1].copy(), source[-1].copy(), agreement[-1].copy()


def _start_carry(channels: int) -> tuple[np.ndarray, ...]:
    """The ``_resolve`` carry of a run's start: slot -1 counts as a delivery, in agreement."""
    return (np.full(channels, -2, dtype=np.int32), np.zeros(channels, dtype=bool),
            np.zeros(channels, dtype=np.int32))


def _lane(seed: int, subsystems) -> tuple[list, np.random.Generator, np.ndarray]:
    """A lane's channel streams and policy stream, the children of ``SeedSequence(seed)`` in
    that order, and per channel (r, p(1-q), p) as (channels, 1) columns."""
    *streams, policy = map(np.random.default_rng,
                           np.random.SeedSequence(_natural(seed, "seed")).spawn(len(subsystems) + 1))
    probs = np.array([(s.r, delivery_probability(s, True), s.p) for s in subsystems]).T
    return streams, policy, probs[:, :, None]


def _draw_lane(lane, out) -> None:
    """Draw one chunk of a ``_lane`` into ``out``: its (slots, channels) flips, ``sure`` and ``maybe``.

    Each channel's stream yields the chunk's flip uniforms, then its delivery
    uniforms, into one row of a (channels, slots) block. The source flips
    below r; a slot delivers below p(1-q) if jammed (``sure``) and below p
    if not (``maybe``). So a jam decision delivers
    ``maybe ^ (jammed & (maybe ^ sure))``: ``np.where(jammed, sure, maybe)``
    in bool ops, which run 5x faster. The compares write the block's
    transpose into ``out``, indexed slot first: where ``out`` views
    channel-major memory, as the fleet's chunks do, they write contiguous
    rows.
    """
    streams, _, (r, p_jam, p) = lane
    flips, sure, maybe = out
    u = np.empty((len(streams), len(flips)))
    for bits, prob in ((flips, r), (sure, p_jam)):
        for rng, row in zip(streams, u):
            rng.random(out=row)
        np.less(u, prob, out=bits.T)
    np.less(u, p, out=maybe.T)


def single_trace(
    params: SubsystemParams, policy: ThresholdPolicy | RandomJam, horizon: int, seed: int
) -> dict[str, np.ndarray]:
    """Raw per-slot record of a single-source run.

    Returns arrays over slots 0..horizon-1: the age and true AoII at decision
    time (int32, as the fleet keeps them), the committed jam decision, and
    whether that slot's packet was delivered. It draws ``_CHUNK`` slots at a
    time as a one-channel fleet lane, so its streams are read in the fleet's
    order, and resolves blocks of ``_BLOCK`` chunks, holding only per-block scratch.
    """
    _check_run(horizon)
    if not isinstance(policy, (ThresholdPolicy, RandomJam)):
        raise ValueError(f"a single-source run takes ThresholdPolicy or RandomJam, not {policy!r}")

    lane = _lane(seed, (params,))
    random_mode = isinstance(policy, RandomJam)
    # No age reaches the horizon, so a threshold there never binds.
    n = horizon if random_mode else int(min(policy.threshold, horizon))

    trace = {name: np.empty(horizon, dtype=dtype) for name, dtype in (
        ("age_index", np.int32), ("true_aoii", np.int32), ("jammed", bool), ("delivered", bool))}
    carry = _start_carry(1)
    block = _BLOCK * _CHUNK
    scratch = np.empty((3, min(block, horizon), 1), dtype=bool)
    for start in range(0, horizon, block):
        stop = min(start + block, horizon)
        flips, sure, maybe = draws = scratch[:, :stop - start]
        for lo in range(0, stop - start, _CHUNK):
            _draw_lane(lane, draws[:, lo:lo + _CHUNK])
        jammed, delivered = trace["jammed"][start:stop], trace["delivered"][start:stop]
        if random_mode:
            np.less(lane[1].random(stop - start), policy.jam_prob, out=jammed)
            delivered[:] = maybe[:, 0] ^ (jammed & (maybe ^ sure)[:, 0])
        else:
            last = (int(carry[0][0]) >> 1) - start
            delivered[:] = _threshold_deliveries(maybe[:, 0], sure[:, 0], n, last)
        age = trace["age_index"][start:stop]
        carry = _resolve(delivered[:, None], flips, start, carry,
                         age[:, None], trace["true_aoii"][start:stop, None])
        if not random_mode:
            np.greater_equal(age, n, out=jammed)
    return trace


def _sim_stats(totals, slots, seed, lam) -> SimStats:
    """SimStats of a run's ``_add_chunk`` totals."""
    channel_sums, batch_sums = totals
    channels = channel_sums.shape[1]
    run_sums, batch_sums = (np.vstack([x[0] - lam * x[2], x])  # reward, EAoII, true AoII, jams
                            for x in (channel_sums.sum(axis=1, keepdims=True), batch_sums))
    averages = run_sums / (slots * channels)
    errors = [standard_error(x) for x in batch_sums / (_batch_layout(slots)[1] * channels)]
    per_subsystem = tuple(SubsystemStats(*v) for v in (channel_sums.T / slots).tolist())
    return SimStats(slots, seed, lam, *averages.ravel().tolist(), *errors, per_subsystem)


def summarize_trace(
    params: SubsystemParams, trace: dict[str, np.ndarray], lam: float, seed: int
) -> SimStats:
    """Statistics of a ``single_trace`` record at jamming cost ``lam``.

    The record is one ``_add_chunk`` chunk, its EAoII read from a ladder sized
    to the run's oldest age; the true AoII is tracked from the simulated
    source for the tower-property checks.
    """
    _check_cost(lam)
    age = trace["age_index"][:, None]
    totals = _new_totals(1, len(age))
    _add_chunk(totals, 0, len(age), eaoii_ladder(params, int(age.max()) + 1)[age],
               trace["true_aoii"][:, None], trace["jammed"][:, None])
    return _sim_stats(totals, len(age), seed, lam)


def simulate_single(
    params: SubsystemParams, policy: ThresholdPolicy | RandomJam, lam: float, horizon: int, seed: int
) -> SimStats:
    """Simulate one source for ``horizon`` slots under a single-source policy.

    Deterministic given the seed; see ``summarize_trace`` for the reward.
    """
    _check_cost(lam)
    return summarize_trace(params, single_trace(params, policy, horizon, seed), lam, seed)


def _index_masks(masks, maybe, toggle, lookup, flat_keys, extremes, base, budget) -> int:
    """Fill a chunk's (slot, seed, channel) jam masks under the index policy; return its ranked steps.

    A ranked step jams, in every seed, the ``budget`` channels with the
    smallest keys at their current ages. The loop ranks runs of 1, 2, 4, ...
    slots, at most ``_MAX_RUN``, each on slot-major copies of its rows of the
    channel-major draws, and after each run tries to settle the rest of the
    chunk from key bounds. ``extremes`` holds each class's running maximum
    and minimum key over ages 0..a, placed as in ``flat_keys``. A channel of
    age a at slot j is at most a + chunk - 1 - j slots old before the chunk
    ends, whatever is delivered. If in every seed the largest running
    maximum inside the last ranked set at that reach is below the smallest
    running minimum outside it (channel added to both), no later slot can
    rank another set, so the set fills the rest of the chunk. This is exact
    for any table, monotone or not, so every mask is the one a ranked step
    per slot would give. No reach leaves its class's row: it is below the
    chunk's oldest start age plus its length, which the tables cover
    (``simulate_multi_batch``).
    """
    col, chunk = np.arange(masks.shape[-1]), len(masks)
    highest, lowest = extremes
    slot, run = 0, 1
    while True:
        rows = slice(slot, min(slot + run, chunk))
        step_maybe, step_toggle = np.ascontiguousarray(maybe[rows]), np.ascontiguousarray(toggle[rows])
        step_masks = np.empty_like(step_maybe)
        for j in range(len(step_masks)):
            step_masks[j] = jam_mask(flat_keys[lookup] + col, budget)
            lookup += 1
            np.copyto(lookup, base, where=step_maybe[j] ^ (step_masks[j] & step_toggle[j]))
        masks[rows] = step_masks
        slot, run = rows.stop, min(2 * run, _MAX_RUN)
        if slot == chunk:
            return slot
        held = masks[slot - 1]
        reach = lookup + (chunk - 1 - slot)
        inside = (highest[reach] + col).max(axis=1, where=held, initial=-1)
        outside = (lowest[reach] + col).min(axis=1, where=~held, initial=np.iinfo(lowest.dtype).max)
        if (inside < outside).all():
            masks[slot:] = held
            return slot


def simulate_multi_batch(
    fleet: FleetConfig, policy: WhittleJam | RandomMultiJam, horizon: int, seeds: list[int]
) -> list[SimStats]:
    """Simulate the fleet once per seed, sharing the vectorized slot loop.

    Results are identical to running each seed alone: every seed derives its
    own per-subsystem and policy streams, so the batch grouping only changes
    speed. Exactly ``fleet.budget`` channels are jammed each slot (an
    index-ranked set for the Whittle policy, a uniform random set for the
    baseline); a slot that jams any other number raises ``RuntimeError``.

    Each chunk fills one (slot, seed, channel) jam mask: the index policy
    works through the slots for all seeds at once, as its jams depend on the
    ages, ranking the channels slot by slot until per-class key bounds
    settle the rest of the chunk (``_index_masks``, whose masks equal one
    ranked step per slot bit for bit); the baseline picks a seed's
    jam sets for the whole chunk in one call; at budget 0 the mask stays
    empty. One check covers every seed; then, per seed, the mask gives the
    deliveries, and ``_resolve`` and ``_add_chunk`` do the rest. The chunk's
    draws, jams, ages and true AoII are indexed slot first but stored
    channel by channel, so each of those steps runs along a channel's
    contiguous slots. Both per-class tables, the index ranks (with their
    running extremes) and the EAoII ladder, are flat rows, one per class,
    read at ``base + age``; they grow before any chunk that could outrun
    them, to at least the oldest start age plus the chunk, which no age of
    the chunk reaches. So each channel is ranked and read at its true age.
    """
    if not seeds:
        raise ValueError("at least one seed required")
    if not isinstance(policy, (WhittleJam, RandomMultiJam)):
        raise ValueError("single-source policy kind rejected for a fleet run")
    _check_run(horizon, fleet.size)
    n_sub, budget = fleet.size, fleet.budget
    looped = isinstance(policy, WhittleJam) and budget > 0

    classes, of_class = fleet.classes
    col = np.arange(n_sub)
    lanes = [_lane(seed, fleet.subsystems) for seed in seeds]
    carries = [_start_carry(n_sub) for _ in seeds]
    totals = [_new_totals(n_sub, horizon) for _ in seeds]
    width = 0  # ages covered by the per-class tables
    # Per (slot, seed, channel) of every chunk, stored channel-major: the source
    # flips, the deliveries if jammed (sure) and if not (maybe), and the jams,
    # which stay False at budget 0.
    draws = np.zeros((4, len(seeds), n_sub, min(_CHUNK, horizon)), dtype=bool).transpose(0, 3, 1, 2)

    for start in range(0, horizon, _CHUNK):
        chunk = min(_CHUNK, horizon - start)
        start_ages = start - 1 - (np.array([carry[0] for carry in carries]) >> 1)
        # Every age of the chunk is below its oldest start age plus the chunk.
        bound = int(start_ages.max()) + chunk
        if bound > width:
            width = min(2 * bound, horizon)
            ladder, base = np.concatenate([eaoii_ladder(c, width) for c in classes]), of_class * width
            if looped:
                tables = np.array([whittle_table_closed(c, width - 1) for c in classes])
                keys = rank_keys(tables, n_sub)
                flat_keys = keys.ravel()
                extremes = tuple(f.accumulate(keys, axis=1).ravel() for f in (np.maximum, np.minimum))
        flips, sure, maybe, masks = draws[:, :chunk]
        for s, lane in enumerate(lanes):
            _draw_lane(lane, draws[:3, :chunk, s])
        toggle = maybe ^ sure  # a slot delivers maybe ^ (jammed & toggle)
        if looped:
            _index_masks(masks, maybe, toggle, base + start_ages, flat_keys, extremes, base, budget)
        elif budget:
            # The lowest uniform of each slot wins, ties to the lower channel;
            # random() returns multiples of 2**-53, so the keys are exact.
            for s, (_, rng, _) in enumerate(lanes):
                masks[:, s] = jam_mask(
                    (rng.random((chunk, n_sub)) * 2.0**53).astype(np.int64) * n_sub + col, budget)
        # Jams per slot and seed in uint16, exact up to MAX_FLEET channels and
        # faster than numpy's int64 default.
        bad = masks.sum(axis=2, dtype=np.uint16) != budget
        if bad.any():
            lane, slot = np.argwhere(bad.T)[0]
            raise RuntimeError(
                f"slot {start + slot}: jammed {masks[slot, lane].sum()} channels, budget {budget}")
        age, aoii = np.empty((2, n_sub, chunk), dtype=np.int32).transpose(0, 2, 1)
        for s in range(len(seeds)):
            delivered = maybe[:, s] ^ (masks[:, s] & toggle[:, s])
            carries[s] = _resolve(delivered, flips[:, s], start, carries[s], age, aoii)
            _add_chunk(totals[s], start, horizon, ladder[base + age], aoii, masks[:, s])

    return [_sim_stats(t, horizon, seed, 0.0) for t, seed in zip(totals, seeds)]
