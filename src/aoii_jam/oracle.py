"""Independent numeric ground truth for the closed forms in ``core``.

Nothing here reuses a steady-state closed form it is meant to check: the
average-reward problem is solved by relative value iteration on a truncated
age chain, the stationary law by power iteration on the same kernel, the
long-run averages by truncated summation with an analytic tail bound, and
the optimal threshold by exhaustive search over the reward curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INFINITE,
    SubsystemParams,
    ThresholdPolicy,
    _check_cost,
    _natural,
    delivery_probability,
    eaoii_ladder,
    lambda_limit,
    stationary_pmf,
    steady_reward,
)

__all__ = [
    "OracleConfig",
    "ValueIterationResult",
    "ConvergenceError",
    "ThresholdStructureError",
    "relative_value_iteration",
    "extract_threshold",
    "stationary_pmf_numeric",
    "avg_numeric",
    "brute_force_threshold",
]

MAX_ITERATIONS = 200_000  # sweeps of either solver before it raises ``ConvergenceError``


class ConvergenceError(RuntimeError):
    """Iteration did not reach its tolerance; carries the last residual."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class ThresholdStructureError(RuntimeError):
    """A policy or index table violated its proven monotone structure."""


@dataclass(frozen=True)
class OracleConfig:
    """Truncation and stopping control for the numeric solvers.

    state_cap: largest age kept in the truncated chain (ages 0..state_cap).
    tolerance: span-seminorm stopping threshold for value iteration, also
        the L1 stopping threshold for power iteration.
    """

    state_cap: int = 400
    tolerance: float = 1e-9

    def __post_init__(self):
        if _natural(self.state_cap, "state_cap") < 10:
            raise ValueError("state_cap must be >= 10")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class ValueIterationResult:
    """Converged relative-value-iteration output on the truncated chain.

    theta is the optimal long-run average reward, values the differential
    value function over ages 0..cap (pinned to 0 at age 0), policy the
    per-age jam decision. The value function is non-decreasing and the
    policy monotone (passive then active); violations indicate a truncation
    that is too small and are surfaced by ``extract_threshold``.
    """

    theta: float
    values: np.ndarray
    policy: np.ndarray
    iterations: int


def relative_value_iteration(
    params: SubsystemParams, lam: float, cfg: OracleConfig
) -> ValueIterationResult:
    """Solve the average-reward jamming problem on the truncated age chain.

    Each sweep takes the max of the passive update
        s_k + (1-p) V(k+1) + p V(0)
    and the active update
        s_k - lam + (1 - p(1-q)) V(k+1) + p(1-q) V(0),
    with the top age self-looping on non-delivery (truncation closure), then
    re-pins V(0) = 0. Stops when the span of successive differences falls
    below the tolerance; the average reward is read off the midpoint of the
    final difference bounds.
    """
    _check_cost(lam)
    cap = cfg.state_cap
    p = params.p
    pj = delivery_probability(params, True)
    fail_passive = 1.0 - p
    fail_active = 1.0 - pj
    s = eaoii_ladder(params, cap + 1)
    values = np.zeros(cap + 1)
    shifted = np.empty(cap + 1)

    def actions(values):
        """(passive, active) updates of ``values``; the top age self-loops."""
        shifted[:-1] = values[1:]
        shifted[-1] = values[-1]
        passive = s + fail_passive * shifted + p * values[0]
        return passive, s - lam + fail_active * shifted + pj * values[0]

    span = math.inf
    for iteration in range(1, MAX_ITERATIONS + 1):
        updated = np.maximum(*actions(values))
        diff = updated - values
        hi = float(diff.max())
        lo = float(diff.min())
        span = hi - lo
        values = updated - updated[0]
        if span < cfg.tolerance:
            passive, active = actions(values)  # both action values at the fixed point
            return ValueIterationResult(
                theta=0.5 * (hi + lo),
                values=values,
                policy=active >= passive,
                iterations=iteration,
            )
    raise ConvergenceError(
        f"value iteration did not converge in {MAX_ITERATIONS} sweeps", span
    )


def extract_threshold(result: ValueIterationResult) -> ThresholdPolicy:
    """First active age of a policy; INFINITE if all passive.

    An all-passive policy is only trustworthy when the jamming cost is known
    to be at or above lambda_limit, since a finite threshold beyond the
    truncation looks identical. A non-monotone policy (active then passive)
    contradicts the threshold structure and raises.
    """
    policy = np.asarray(result.policy, dtype=bool)
    if not policy.any():
        return ThresholdPolicy(INFINITE)
    first = int(np.argmax(policy))
    if not policy[first:].all():
        raise ThresholdStructureError(
            f"policy is not monotone: active at {first} but passive again later"
        )
    return ThresholdPolicy(first)


def _threshold_kernel_sigma(params: SubsystemParams, n: int, cap: int) -> np.ndarray:
    """Per-age delivery probability under threshold n on ages 0..cap."""
    sigma = np.full(cap + 1, params.p)
    sigma[n:] = delivery_probability(params, True)
    return sigma


def stationary_pmf_numeric(
    params: SubsystemParams, n: int, cfg: OracleConfig
) -> np.ndarray:
    """Stationary age law by power iteration on the truncated kernel.

    The kernel resets to age 0 on delivery and shifts up by one otherwise
    (self-loop at the cap). Iterates from uniform until the L1 change drops
    below the tolerance, then renormalizes.
    """
    cap = cfg.state_cap
    if n > cap:
        raise ValueError(f"threshold {n} exceeds the state cap {cap}")
    sigma = _threshold_kernel_sigma(params, n, cap)
    fail = 1.0 - sigma
    # Two buffers, swapped each step: the old iterate's takes the change.
    x, nxt = np.full(cap + 1, 1.0 / (cap + 1)), np.empty(cap + 1)
    for _ in range(MAX_ITERATIONS):
        nxt[0] = float(sigma @ x)
        np.multiply(fail[:-1], x[:-1], out=nxt[1:])
        nxt[-1] += fail[-1] * x[-1]
        change = float(np.abs(np.subtract(nxt, x, out=x), out=x).sum())
        x, nxt = nxt, x
        if change < cfg.tolerance:
            return x / x.sum()
    raise ConvergenceError("power iteration did not converge", change)


def _tail_cap(params: SubsystemParams, n: int, target: float, min_steps: int) -> int:
    """n plus the steps, at least ``min_steps``, that bring b^steps down to target (1-b).

    The one rule that cuts every truncated age chain here. Above threshold n
    the age law decays like b^(k-n), b = 1 - p(1-q); at b = 0 it has no tail.
    """
    b = 1.0 - delivery_probability(params, True)
    if b == 0.0:
        return n + 10
    return n + max(math.ceil(math.log(target * (1.0 - b)) / math.log(b)), min_steps)


def _truncated_law(
    params: SubsystemParams, n: int, target: float, min_steps: int
) -> tuple[np.ndarray, float]:
    """Closed-form age law on ages 0.._tail_cap and the exact mass above that cap.

    Past the cap (at or above n) the law shrinks by b = 1 - p(1-q) per age,
    so the mass above it is u_cap b / (1 - b).
    """
    u = stationary_pmf(params, n, np.arange(_tail_cap(params, n, target, min_steps) + 1))
    b = 1.0 - delivery_probability(params, True)
    return u, (0.0 if b == 0.0 else u[-1] * b / (1.0 - b))


def avg_numeric(params: SubsystemParams, n: int) -> tuple[float, float]:
    """(avg EAoII, avg attack time) by truncated summation of the age law.

    Sums s_k and the jam indicator against the stationary probabilities up
    to a cap chosen so the neglected mass contributes less than 1e-13, then
    adds the exact geometric remainders of both tails, keeping the residual
    under 1e-12 in all cases.
    """
    r = params.r
    b = 1.0 - delivery_probability(params, True)
    u, mass = _truncated_law(params, n, 1e-13 * 2.0 * r, 10)  # s_k is below 1/(2r)
    avg_s = float(np.sum(eaoii_ladder(params, len(u)) * u))
    avg_d = float(np.sum(u[n:]))
    # Exact geometric remainders beyond the cap.
    if mass > 0.0:
        beta1 = 1.0 - 2.0 * r
        beta2 = 1.0 - r
        tail1 = beta1 ** len(u) * (b * beta1) / (1.0 - b * beta1)
        tail2 = beta2 ** len(u) * (b * beta2) / (1.0 - b * beta2)
        avg_s += (mass + u[-1] * (tail1 - 2.0 * tail2)) / (2.0 * r)
        avg_d += mass
    return avg_s, avg_d


def brute_force_threshold(
    params: SubsystemParams, lam: float | np.ndarray, n_max: int
) -> ThresholdPolicy | list[ThresholdPolicy]:
    """Optimal threshold by exhaustive search of the steady-reward curve.

    Declares INFINITE when the cost reaches lambda_limit; otherwise the
    argmax over 0..n_max. An argmax sitting exactly at n_max means the scan
    window was too small to contain the maximizer, which is an error rather
    than an answer. A float cost gives one policy; a 1-D cost array gives a
    list of policies, one per cost, all read off one reward curve.
    """
    lams = np.asarray(lam, dtype=np.float64).reshape(-1)
    for cost in lams:
        _check_cost(float(cost))
    limit, n_max = lambda_limit(params), _natural(n_max, "n_max")
    best = np.argmax(steady_reward(params, np.arange(n_max + 1), lams[:, None]), axis=1)
    edge = lams[(best == n_max) & (lams < limit)]
    if edge.size:
        raise ValueError(
            f"argmax at the scan edge n_max={n_max}; enlarge n_max (lam={float(edge[0])} is "
            f"below lambda_limit={limit:.6g})"
        )
    policies = [ThresholdPolicy(int(n) if cost < limit else INFINITE) for cost, n in zip(lams, best)]
    return policies if np.ndim(lam) else policies[0]
