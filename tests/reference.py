"""Reference implementations the fast code is checked against.

A pure one-slot model that the simulator's fast loop is replayed against,
with a lane's uniforms in the simulators' draw order, the ``np.where`` forms
of the simulator's two chunk kernels on int64, the fleet index policy's one
ranked step per slot, the power iteration with a fresh array per step, and
the per-cell table writer that the CLI's block writer must match byte for
byte.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from aoii_jam.core import SubsystemParams, delivery_probability
from aoii_jam.whittle import jam_mask


@dataclass(frozen=True)
class GroundTruthState:
    """Full state of one subsystem, including what the adversary cannot see.

    The current slot is implicit: slot = last_delivery_slot + age_index.
    """

    source_state: int
    monitor_estimate: int
    last_delivery_slot: int
    last_agreement_slot: int
    age_index: int

    @property
    def slot(self) -> int:
        return self.last_delivery_slot + self.age_index

    @property
    def true_aoii(self) -> int:
        return self.slot - self.last_agreement_slot


def initial_state() -> GroundTruthState:
    """Start in agreement with a fresh delivery: age 0, true AoII 0."""
    return GroundTruthState(0, 0, 0, 0, 0)


def step_subsystem(
    state: GroundTruthState,
    params: SubsystemParams,
    jammed: bool,
    draws: tuple[float, float],
) -> GroundTruthState:
    """Advance one slot given the committed jam decision and two uniforms.

    The first draw resolves the source flip (probability r), the second the
    delivery (probability p, or p(1-q) when jammed). On delivery the
    estimate becomes the new source state and the age resets; otherwise the
    age grows. The agreement clock moves to the new slot whenever source and
    estimate coincide after the update.
    """
    u_flip, u_deliver = draws
    now = state.slot + 1
    source = state.source_state ^ int(u_flip < params.r)
    if u_deliver < delivery_probability(params, jammed):
        estimate = source
        age = 0
        last_delivery = now
    else:
        estimate = state.monitor_estimate
        age = state.age_index + 1
        last_delivery = state.last_delivery_slot
    last_agreement = now if source == estimate else state.last_agreement_slot
    return GroundTruthState(source, estimate, last_delivery, last_agreement, age)


def lane_uniforms(seed, channels, horizon, chunk):
    """A lane's uniforms in the order the simulators draw them, and its policy generator.

    ``SeedSequence(seed)`` spawns one stream per channel and a last one for
    the policy. Chunk by chunk of ``chunk`` slots, each channel's stream
    yields the chunk's flip uniforms, then its delivery uniforms. Returns the
    flip and the delivery uniforms, each (horizon, channels), and the policy
    generator, untouched.
    """
    *streams, policy = map(np.random.default_rng,
                           np.random.SeedSequence(seed).spawn(channels + 1))
    flip, deliver = np.empty((2, horizon, channels))
    for start in range(0, horizon, chunk):
        stop = min(start + chunk, horizon)
        for channel, rng in enumerate(streams):
            flip[start:stop, channel] = rng.random(stop - start)
            deliver[start:stop, channel] = rng.random(stop - start)
    return flip, deliver, policy


def threshold_deliveries_where(maybe, sure, n, last):
    """``sim._threshold_deliveries`` by run indices: a candidate is delivered iff its run's last
    sure candidate so far comes at or after the run's start (int64, picked by ``np.where``)."""
    candidates = np.flatnonzero(maybe)
    index = np.arange(1, len(candidates) + 1)
    run_start = np.maximum.accumulate(np.where(np.diff(candidates, prepend=last) > n, index, 0))
    last_sure = np.maximum.accumulate(np.where(sure[candidates], index, 0))
    delivered = np.zeros(len(maybe), dtype=bool)
    delivered[candidates] = last_sure >= run_start
    return delivered


def resolve_where(delivered, flips, start, carry, age, aoii):
    """``sim._resolve`` on int64, each running maximum seeded by ``np.where`` with the carry."""
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


def index_masks_per_slot(masks, maybe, toggle, lookup, flat_keys, extremes, base, budget):
    """``sim._index_masks`` as one ranked step per slot: rank, jam, then step every lookup.

    ``extremes``, the per-class key bounds that let ``_index_masks`` settle a
    chunk at once, go unused: every slot is ranked, and the count returned.
    """
    col = np.arange(masks.shape[-1])
    for j in range(len(masks)):
        masks[j] = jam_mask(flat_keys[lookup] + col, budget)
        lookup = np.where(maybe[j] ^ (masks[j] & toggle[j]), base, lookup + 1)
    return len(masks)


def stationary_pmf_power_iteration(sigma, tolerance):
    """``oracle.stationary_pmf_numeric``'s power iteration with a fresh array per step.

    ``sigma`` is the per-age delivery probability on ages 0..cap; iterates
    from uniform until the L1 change drops below ``tolerance``.
    """
    fail = 1.0 - sigma
    x = np.full(len(sigma), 1.0 / len(sigma))
    while True:
        nxt = np.empty_like(x)
        nxt[0] = float(sigma @ x)
        nxt[1:] = fail[:-1] * x[:-1]
        nxt[-1] += fail[-1] * x[-1]
        change = float(np.abs(nxt - x).sum())
        x = nxt
        if change < tolerance:
            return x / x.sum()


def fmt_cell(value) -> str:
    """One CSV cell: floats to 17 significant digits, bools as 1/0, the rest by str."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


def render_table(config: dict, table: dict, fmt: str) -> str:
    """The text of a CLI table, built one row and one cell at a time.

    Rows hold Python scalars, as the commands built them before they handed
    the writer named columns: numpy scalars are converted with ``item``.
    """
    columns = list(table)
    rows = [tuple(v.item() if isinstance(v, np.generic) else v for v in row)
            for row in zip(*table.values())]
    stream = io.StringIO()
    if fmt == "json":
        payload = {"config": config, "rows": [dict(zip(columns, row)) for row in rows]}
        json.dump(payload, stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")
        return stream.getvalue()
    for key in sorted(config):
        stream.write(f"# {key}={fmt_cell(config[key])}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(fmt_cell(v) for v in row) + "\n")
    return stream.getvalue()
