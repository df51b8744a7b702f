"""Pure one-slot reference model that the simulator's fast loop is replayed against."""

from __future__ import annotations

from dataclasses import dataclass

from aoii_jam.core import SubsystemParams, delivery_probability


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
