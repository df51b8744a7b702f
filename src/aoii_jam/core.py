"""Exact steady-state analysis of a single monitored source under threshold jamming.

Model: a binary Markov source (state flips with probability r each slot)
streams status updates to a remote monitor over an unreliable channel
(delivery probability p per slot). An adversary may jam any slot; a jamming
attempt suppresses an otherwise-successful delivery with probability q. The
adversary only sees the delivery feedback stream, so its observable state is
the age k, the number of slots since the last delivery. The expected age of
incorrect information (EAoII) given age k is

    s_k = (1 / 2r) * (1 + (1 - 2r)^(k+1) - 2 (1 - r)^(k+1)),

a strictly increasing ladder with ceiling 1/(2r). Under a threshold policy
(jam exactly when k >= n) the age evolves as a reset chain: back to 0 on
delivery, else k -> k+1, with per-slot delivery probability p below the
threshold and p(1-q) at or above it. Everything in this module is a closed
form on that chain: the stationary law, the long-run EAoII and attack-time
averages, the subsidy levels at which consecutive thresholds tie, and the
map from a per-slot jamming cost to the optimal threshold.

All functions are pure and deterministic; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SubsystemParams",
    "INFINITE",
    "ThresholdPolicy",
    "eaoii_value",
    "eaoii_ladder",
    "delivery_probability",
    "stationary_pmf",
    "avg_eaoii_closed",
    "avg_aat_closed",
    "avg_eaoii_no_jam",
    "steady_reward",
    "lambda_seq",
    "lambda_limit",
    "intersection_lambda",
    "optimal_threshold",
    "optimal_thresholds",
]


@dataclass(frozen=True)
class SubsystemParams:
    """One source/channel/adversary triple.

    p: probability a transmitted update is decoded, in (0, 1].
    q: probability a jamming attempt suppresses a delivery, in [0, 1).
    r: source state-flip probability per slot, in (0, 1/2].

    q = 1 is rejected: with certain jamming the age above a finite threshold
    can only grow, so no stationary regime exists. p = 0 is rejected for the
    same reason (the age never resets). So is a triple whose 1 - p or 1 - r
    rounds to 1: the pairwise tie ratios would divide by 1 - (1-p)^d = 0, or
    ``lambda_seq`` be 0 at every threshold. Past these bounds, p and r above
    2**-54, no closed-form denominator is below about 6e-33: all are finite.
    """

    p: float
    q: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must be in [0, 1), got {self.q}")
        if not 0.0 < self.r <= 0.5:
            raise ValueError(f"r must be in (0, 1/2], got {self.r}")
        if max(1.0 - self.p, 1.0 - self.r) == 1.0:
            raise ValueError(f"p={self.p}, q={self.q}, r={self.r}: the closed forms are not finite")


# The never-jam threshold. Every closed form evaluates at it as its limit
# n -> infinity: a^inf = 0 for 0 <= a < 1, so the law keeps no jammed mass.
INFINITE = math.inf


@dataclass(frozen=True)
class ThresholdPolicy:
    """Jam exactly when the age index is at least ``threshold``.

    ``INFINITE`` means never jam.
    """

    threshold: int | float

    def __post_init__(self):
        if not (isinstance(self.threshold, float) and self.threshold == INFINITE):
            _natural(self.threshold, "threshold", "a natural number or INFINITE")

    @property
    def is_finite(self) -> bool:
        return self.threshold != INFINITE


def _check_cost(lam: float) -> None:
    """Reject a jamming cost that is negative, NaN or infinite."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def _natural(value, what: str, kind: str = "an integer") -> int:
    """A non-negative int (numpy integers too) as a Python int; anything else, bools and arrays too, raises.

    Checked without numpy, whose per-call cost would dominate a scalar
    closed form. ``kind`` names what ``what`` may be in the message.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return int(value)


def _naturals(value, what: str):
    """``_natural``, or a non-negative integer array, which comes back as it is."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iu"):
        return _natural(value, what, "an integer or an integer array")
    if np.any(value < 0):
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def _threshold(n):
    """Normalize a threshold argument to a natural int, an int array or INFINITE."""
    if isinstance(n, ThresholdPolicy):
        n = n.threshold
    return n if isinstance(n, float) and n == INFINITE else _naturals(n, "threshold")


def _pow(base: float, k):
    """``base ** k`` bit for bit, but an age array's powers below 2**-1080 are set to 0, not computed.

    numpy's power takes ten times longer where its result underflows. The
    rest is one unmasked numpy power: a ``where=`` mask, like a scalar or 0-d
    age (Python's ``**``), may round differently in the last place.
    """
    if not (isinstance(k, np.ndarray) and k.ndim and 0.0 < base < 1.0):
        return base**k
    live = k < -1080.0 / math.log2(base)
    out = np.zeros(k.shape)
    out[live] = base ** k[live]
    return out


def _scalar(value):
    """A 0-d result as a Python float; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


def eaoii_value(params: SubsystemParams, k):
    """EAoII after k slots without a delivery; k an integer or an integer array.

    s_0 = 0, s_1 = r, and s_k increases strictly toward 1/(2r): the longer
    the monitor's estimate is stale, the closer the mismatch probability gets
    to its stationary ceiling. Ages 0 and 1 reduce symbolically to 0 and r
    and are returned exactly (the general expression would leave division
    noise scaled by 1/r).
    """
    k = _naturals(k, "age index")
    r = params.r
    s = (1.0 + _pow(1.0 - 2.0 * r, k + 1) - 2.0 * _pow(1.0 - r, k + 1)) / (2.0 * r)
    return _scalar(np.where(k == 0, 0.0, np.where(k == 1, r, s)))


def eaoii_ladder(params: SubsystemParams, size: int) -> np.ndarray:
    """Vector of s_k for k = 0 .. size-1."""
    if _natural(size, "size") == 0:
        raise ValueError("size must be positive")
    return eaoii_value(params, np.arange(size))


def delivery_probability(params: SubsystemParams, jammed: bool) -> float:
    """Per-slot delivery probability: p unjammed, p(1-q) under jamming."""
    return params.p * (1.0 - params.q) if jammed else params.p


def stationary_pmf(params: SubsystemParams, n, i):
    """Stationary probability of age i under the threshold n; i may be an array.

    Below the threshold the chain loses mass geometrically at rate 1-p per
    step; at and above it, at rate 1 - p(1-q). The atom at 0 is
    p(1-q) / (1 - q + q (1-p)^n). At INFINITE, and with q = 0 for every n,
    the law is the never-jam geometric p (1-p)^i.
    """
    n = _threshold(n)
    i = _naturals(i, "age index")
    p, q = params.p, params.q
    a = 1.0 - p
    b = 1.0 - p * (1.0 - q)
    u0 = p * (1.0 - q) / (1.0 - q + q * _pow(a, n))
    return _scalar(_pow(a, np.minimum(i, n)) * _pow(b, np.maximum(i - n, 0)) * u0)


def _tail_transform(a: float, b: float, n, beta):
    """Sum over the stationary shape of beta^(k+1), divided by the atom.

    With shape a^k up to n and a^n b^(k-n) after, the sum splits into a
    finite geometric block and an infinite geometric tail; both are exact.
    Accepts scalars or numpy arrays for ``n``.
    """
    c = a * beta
    e = b * beta
    return beta * (1.0 - _pow(c, n + 1)) / (1.0 - c) + _pow(c, n) * beta * e / (1.0 - e)


def _steady_averages(params: SubsystemParams, n):
    """(average EAoII, jammed fraction) of threshold n; scalar or numpy array ``n``.

    The EAoII sums the s_k ladder against the stationary law: the constant
    1/(2r) term contributes the full mass, and each geometric component of
    s_k telescopes through ``_tail_transform``. The jammed fraction is the
    stationary mass at or above the threshold.
    """
    p, q, r = params.p, params.q, params.r
    a = 1.0 - p
    b = 1.0 - p * (1.0 - q)
    an = _pow(a, n)
    u0 = p * (1.0 - q) / (1.0 - q + q * an)
    body = _tail_transform(a, b, n, 1.0 - 2.0 * r) - 2.0 * _tail_transform(a, b, n, 1.0 - r)
    return (1.0 + u0 * body) / (2.0 * r), an / (1.0 - q + q * an)


def avg_eaoii_closed(params: SubsystemParams, n):
    """Long-run average EAoII under the threshold n: an integer, an integer array or INFINITE.

    Validated against the truncated-sum oracle in the test suite.
    """
    return _steady_averages(params, _threshold(n))[0]


def avg_aat_closed(params: SubsystemParams, n):
    """Long-run fraction of jammed slots under the threshold n; n as for avg_eaoii_closed.

    Equals (1-p)^n / (1 - q + q (1-p)^n): the stationary mass at or above
    the threshold. Strictly decreasing in n; 1 at n = 0 and 0 at INFINITE.
    """
    return _steady_averages(params, _threshold(n))[1]


def avg_eaoii_no_jam(params: SubsystemParams) -> float:
    """Long-run average EAoII when the adversary never jams."""
    return avg_eaoii_closed(params, INFINITE)


def steady_reward(params: SubsystemParams, n, lam):
    """Steady-state adversary reward of threshold n at jamming cost lam; both broadcast."""
    sbar, dbar = _steady_averages(params, _threshold(n))
    return sbar - lam * dbar


def lambda_limit(params: SubsystemParams) -> float:
    """Supremum of the tie-subsidy sequence; jamming never pays above it.

    Every lambda_seq value lies strictly below this limit, and the optimal
    threshold is INFINITE exactly when the jamming cost reaches it.
    """
    p, q, r = params.p, params.q, params.r
    z = (1.0 - r) * (1.0 - p)
    y = (1.0 - 2.0 * r) * (1.0 - p)
    return p * q * (1.0 - r) / (r * (1.0 - z)) - p * q * (1.0 - 2.0 * r) / (2.0 * r * (1.0 - y))


def _lambda_decay(params: SubsystemParams, n):
    """Gap lambda_limit - lambda_seq(n); decays geometrically in n.

    The exact gap is a positive combination of (1-r)^(n+2) and
    (1-2r)^(n+2) terms. In floats the combination can round to a tiny
    negative once it falls below machine resolution, so it is clamped at 0:
    the sequence then saturates exactly at lambda_limit instead of
    overshooting it. Accepts scalars or numpy arrays for ``n``.
    """
    p, q, r = params.p, params.q, params.r
    a = 1.0 - p
    b = 1.0 - p * (1.0 - q)
    w = (1.0 - r) * b
    x = (1.0 - 2.0 * r) * b
    z = (1.0 - r) * a
    y = (1.0 - 2.0 * r) * a
    pow_r = _pow(1.0 - r, n + 2)
    pow_2r = _pow(1.0 - 2.0 * r, n + 2)
    an1 = _pow(a, n + 1)
    decay = (
        p * q * (1.0 - q) * pow_r / (r * (1.0 - w))
        + p * q * q * an1 * pow_r / ((1.0 - z) * (1.0 - w))
        - p * q * (1.0 - q) * pow_2r / (2.0 * r * (1.0 - x))
        - p * q * q * an1 * pow_2r / ((1.0 - y) * (1.0 - x))
    )
    return np.maximum(decay, 0.0) if isinstance(n, np.ndarray) else max(decay, 0.0)


def lambda_seq(params: SubsystemParams, n):
    """Jamming cost at which thresholds n and n+1 earn the same reward; n may be an integer array.

    The reward lines avg_eaoii(n) - lam * avg_aat(n) of consecutive
    thresholds intersect at exactly one subsidy level; this closed form is
    that intersection. It is strictly increasing in n toward ``lambda_limit``,
    its value at INFINITE; it is zero everywhere when q = 0, and doubles as
    the per-state priority index of the multi-channel jammer. A scalar age is
    evaluated with Python's float power and an age array with numpy's, which
    may differ in the last place.
    """
    n = _threshold(n)
    return lambda_limit(params) - _lambda_decay(params, n)


def intersection_lambda(params: SubsystemParams, m: int, n) -> float:
    """Subsidy at which threshold policies m and n (m < n) tie in reward.

    Algebraically this is (avg_eaoii(n) - avg_eaoii(m)) / (avg_aat(n) -
    avg_aat(m)), but evaluated with the stationary normalizations cancelled
    analytically, so it stays accurate where the raw differences would lose
    every significant digit (both averages converge geometrically in the
    threshold). ``intersection_lambda(params, n, n+1) == lambda_seq(params, n)``.
    ``n`` is a threshold, an integer array of them or INFINITE; every entry must exceed m.
    """
    m, n = _natural(m, "threshold"), _threshold(n)  # m is finite, as m < n
    low = n[n <= m] if isinstance(n, np.ndarray) else [n] if n <= m else []
    if len(low):
        raise ValueError(f"need n > m, got m={m}, n={low[0]}")
    a = 1.0 - params.p
    d = n - m
    powers = [((a * beta) ** d, beta**d) for beta in (1.0 - params.r, 1.0 - 2.0 * params.r)]
    return _scalar(_pairwise_ratio(params, m, a**d, a**n, *powers))


def _pairwise_ratio(params: SubsystemParams, m: int, ad, an, pow_r, pow_2r):
    """``intersection_lambda`` from a^d, a^n and ((a beta)^d, beta^d) at beta = 1-r, 1-2r."""
    p, q, r = params.p, params.q, params.r
    a = 1.0 - p
    b = 1.0 - p * (1.0 - q)
    one_minus_ad = 1.0 - ad

    def g(beta, cd, bd):
        c = a * beta
        e = b * beta
        block = (1.0 - q) * (1.0 - cd) + q * an * (1.0 - bd)
        return q * one_minus_ad / (1.0 - c) - p * q * beta ** (m + 1) * block / ((1.0 - c) * (1.0 - e))

    return p * (2.0 * (1.0 - r) * g(1.0 - r, *pow_r) - (1.0 - 2.0 * r) * g(1.0 - 2.0 * r, *pow_2r)) / (
        2.0 * r * one_minus_ad
    )


def optimal_threshold(params: SubsystemParams, lam: float) -> ThresholdPolicy:
    """Optimal jamming threshold for a per-slot jamming cost lam >= 0.

    Three regimes: jam always (threshold 0) when lam is at most the first
    tie level; threshold n when lam falls in the half-open band
    (lambda_seq(n-1), lambda_seq(n)]; never jam once lam reaches
    ``lambda_limit``. A cost exactly at a tie level maps to the lower
    threshold (both tie in reward; the convention keeps the map
    deterministic).
    """
    _check_cost(lam)
    if lam >= lambda_limit(params):
        return ThresholdPolicy(INFINITE)
    if lam <= lambda_seq(params, 0):
        return ThresholdPolicy(0)
    # Gallop to bracket the smallest n with lambda_seq(n) >= lam, then bisect.
    hi = 1
    while lambda_seq(params, hi) < lam:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lambda_seq(params, mid) < lam:
            lo = mid
        else:
            hi = mid
    return ThresholdPolicy(hi)


def optimal_thresholds(params: SubsystemParams, lams) -> tuple[list[ThresholdPolicy], list[int]]:
    """``optimal_threshold`` over a non-decreasing grid, as runs: (policies, run lengths).

    Threshold n is optimal on the band (lambda_seq(n-1), lambda_seq(n)], so
    the first cost of each band is mapped with ``optimal_threshold`` and every
    later cost up to lambda_seq(n) joins its run without a search; costs at
    or above ``lambda_limit`` form the INFINITE run. Each policy appears once,
    the runs are non-empty and their lengths sum to the grid size.
    """
    lams = np.asarray(lams, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(lams) & (lams >= 0)))
    if bad.size:
        _check_cost(float(lams[bad[0]]))
    if (np.diff(lams) < 0).any():
        raise ValueError("costs must be sorted in non-decreasing order")
    limit = lambda_limit(params)
    policies, lengths, start = [], [], 0
    while start < len(lams):
        policy = optimal_threshold(params, float(lams[start]))
        if policy.is_finite:
            top = lambda_seq(params, policy.threshold)
            end = int(np.searchsorted(lams, top, side="right" if top < limit else "left"))
        else:
            end = len(lams)
        policies.append(policy)
        lengths.append(end - start)
        start = end
    return policies, lengths
