"""Multi-channel jamming layer: per-state priority indices and the budgeted policy.

Each of N independent subsystems carries its own (p, q, r) triple and age.
With a budget of M < N simultaneous jams, the heuristic of choice jams the
M channels whose current age has the highest index value, where the index
of age k is exactly the tie subsidy ``lambda_seq(params, k)`` of the
single-channel problem. This module provides the closed-form index table, an
iterative construction used purely as a cross-check, the indexability
verification that justifies the index, and the budgeted selection rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SubsystemParams, _natural, _pairwise_ratio, _pow, avg_aat_closed, lambda_seq

__all__ = [
    "FleetConfig",
    "IndexStructureError",
    "whittle_table_closed",
    "whittle_index_iterative",
    "indexability_check",
    "select_jam_set",
    "rank_keys",
    "jam_mask",
]

# Extra states scanned past the requested table when hunting each infimum.
SCAN_MARGIN = 1000

# Ratios within this relative tolerance of an infimum count as co-minimizers.
# The pairwise ratio is evaluated with cancellations removed analytically, so
# its float error is a few ULP; anything tighter than ~1e-13 risks splitting
# genuine ties, anything looser merges states whose indices still differ.
_TIE_RTOL = 1e-12


class IndexStructureError(RuntimeError):
    """An infimum scan contradicted the proven index structure."""


@dataclass(frozen=True)
class FleetConfig:
    """Immutable fleet description: each channel's parameters, by position, and the jam budget."""

    subsystems: tuple[SubsystemParams, ...]
    budget: int

    def __post_init__(self):
        if len(self.subsystems) == 0:
            raise ValueError("fleet must contain at least one subsystem")
        if not _natural(self.budget, "budget") < len(self.subsystems):
            raise ValueError(
                f"budget must satisfy 0 <= M < N, got M={self.budget}, N={len(self.subsystems)}"
            )

    @property
    def size(self) -> int:
        return len(self.subsystems)

    @property
    def classes(self) -> tuple[tuple[SubsystemParams, ...], np.ndarray]:
        """The distinct triples in first-appearance order, and each channel's index among them."""
        classes = tuple(dict.fromkeys(self.subsystems))
        return classes, np.array([classes.index(params) for params in self.subsystems])

    @classmethod
    def from_classes(
        cls, classes: list[tuple[SubsystemParams, float]], n_total: int, budget: int
    ) -> "FleetConfig":
        """Build a fleet from (params, fraction) classes.

        Class sizes are round(fraction * n_total); a hard error if a fraction
        is outside [0, 1], NaN included, or the counts do not add up to n_total.
        """
        n_total = _natural(n_total, "n_total")
        bad = [frac for _, frac in classes if not 0.0 <= frac <= 1.0]
        if bad:
            raise ValueError(f"class fraction {bad[0]} is not in [0, 1]")
        counts = [round(frac * n_total) for _, frac in classes]
        if sum(counts) != n_total:
            raise ValueError(
                f"class fractions {[f for _, f in classes]} with N={n_total} give counts "
                f"{counts}, which do not sum to N"
            )
        subsystems = []
        for (params, _), count in zip(classes, counts):
            subsystems.extend([params] * count)
        return cls(subsystems=tuple(subsystems), budget=budget)


def whittle_table_closed(params: SubsystemParams, n_max: int) -> np.ndarray:
    """Closed-form index table over ages 0 .. n_max: ``lambda_seq`` of the age array."""
    return lambda_seq(params, np.arange(_natural(n_max, "n_max") + 1))


def whittle_index_iterative(params: SubsystemParams, n_max: int) -> np.ndarray:
    """Index table built by the iterative infimum construction.

    Starting from an empty assigned set with boundary age 0, each step finds
    the infimum over unassigned ages of the pairwise tie subsidy against the
    current boundary, assigns that value to every age up to the largest
    co-minimizer, and advances the boundary. For this chain the minimizer is
    provably the state right after the boundary, so each step assigns one
    age; a scan finding a strictly smaller ratio further out contradicts
    that structure and raises rather than being silently accepted. Ages
    whose ratios tie all the way to the scan edge (q = 0, or increments
    below float resolution) share the current infimum; at p = 1 all ages do,
    so p = 1 raises ``ValueError``. Each power the ratios need is tabulated
    once over exponents 1..bound; every step reads slices.

    Retained as a verification oracle for ``whittle_table_closed``; the
    closed form is what production callers use.
    """
    bound = _natural(n_max, "n_max") + SCAN_MARGIN
    if params.p == 1.0:
        raise ValueError("the iterative index is undefined past age 0 at p = 1")
    exponents = np.arange(1, bound + 1, dtype=np.float64)
    a = 1.0 - params.p
    powers = _pow(a, exponents)
    pairs = [(_pow(a * beta, exponents), _pow(beta, exponents))
             for beta in (1.0 - params.r, 1.0 - 2.0 * params.r)]
    table = np.empty(n_max + 1)
    boundary = 0
    while boundary <= n_max:
        size = bound - boundary
        ratios = _pairwise_ratio(params, boundary, powers[:size], powers[boundary:],
                                 *[(cd[:size], bd[:size]) for cd, bd in pairs])
        low = float(ratios.min())
        tol = _TIE_RTOL * max(1.0, abs(low))
        if low < ratios[0] - tol:
            where = boundary + 1 + int(np.argmin(ratios))
            if where == bound:
                raise IndexStructureError(
                    f"infimum at the scan edge {bound} from boundary {boundary}; "
                    "the scan window cannot certify the infimum"
                )
            raise IndexStructureError(
                f"infimum from boundary {boundary} attained at {where}, not at "
                f"{boundary + 1}: ratio {low:.12g} < {float(ratios[0]):.12g}"
            )
        value = float(ratios[0])
        ties = np.nonzero(ratios <= low + tol)[0]
        largest = boundary + 1 + int(ties.max())
        table[boundary : min(largest, n_max + 1)] = value
        boundary = largest
    return table


def indexability_check(params: SubsystemParams, n_max: int) -> bool:
    """True when the average attack time strictly decreases in the threshold.

    That monotonicity is what makes the passive set grow with the subsidy,
    i.e. makes the index well defined. It holds for every valid parameter
    triple; the one degenerate corner is p = 1, where the attack time is
    already 0 from threshold 1 on and further strictness is vacuous (ages
    above 0 are unreachable without jamming), so a zero step is accepted
    after a zero. Read off ``avg_aat_closed`` of the thresholds 0 .. n_max.
    """
    aat = avg_aat_closed(params, np.arange(_natural(n_max, "n_max") + 1))
    step = np.diff(aat)
    return not np.any((step > 0.0) | ((step == 0.0) & (aat[:-1] > 0.0)))


def select_jam_set(fleet: FleetConfig, ages) -> set[int]:
    """Positions of the ``fleet.budget`` channels with the highest indices at ``ages``.

    ``ages`` holds one natural number per channel. As in the fleet simulator,
    ties go to the lower channel and the indices are read from one ``lambda_seq``
    age array per class of ``fleet.classes``: a scalar age may differ in the last place.
    """
    if len(ages) != fleet.size:
        raise ValueError(f"need {fleet.size} ages, one per channel, got {len(ages)}")
    ages = np.array([_natural(age, "age index") for age in ages])
    classes, of_class = fleet.classes
    index = np.empty(fleet.size)
    for c, params in enumerate(classes):
        index[of_class == c] = lambda_seq(params, ages[of_class == c])
    return set(sorted(range(fleet.size), key=lambda i: (-index[i], i))[:fleet.budget])


def rank_keys(tables: np.ndarray, channels: int) -> np.ndarray:
    """Each index value's dense descending rank in ``tables``, times ``channels``.

    Equal values, +0 and -0 too, share one rank. A rank plus a channel below
    ``channels`` is a ``jam_mask`` key: the smallest keys are the highest
    values, ties to the lower channel.
    """
    _, rank = np.unique(-tables, return_inverse=True)
    return rank.reshape(tables.shape) * channels


def jam_mask(keys: np.ndarray, budget: int) -> np.ndarray:
    """Mask of the ``budget`` smallest keys along the last axis, where keys are unique."""
    if budget == 0:
        return np.zeros(keys.shape, dtype=bool)
    return keys <= np.partition(keys, budget - 1, axis=-1)[..., budget - 1, None]
