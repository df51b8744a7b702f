"""Exact-rational reference implementations for the steady-state quantities.

All closed forms are rational functions of (p, q, r) for integer thresholds,
so evaluating them with ``fractions.Fraction`` is exact. This gives a second,
independent route for checks that float64 cannot express, in particular
strict monotonicity of the index sequence once its increments fall below
machine resolution.

Inputs are converted with ``Fraction(float)``, i.e. the exact binary values
the float implementation actually works on.
"""

from __future__ import annotations

from fractions import Fraction

from aoii_jam.core import SubsystemParams

ONE = Fraction(1)


def _pqr(params: SubsystemParams) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(params.p), Fraction(params.q), Fraction(params.r)


def exact_avg_aat(params: SubsystemParams, n: int) -> Fraction:
    n = int(n)  # numpy integers overflow inside Fraction.__pow__
    p, q, _ = _pqr(params)
    a = ONE - p
    return a**n / (ONE - q + q * a**n)


def exact_avg_eaoii(params: SubsystemParams, n: int) -> Fraction:
    n = int(n)
    p, q, r = _pqr(params)
    a = ONE - p
    b = ONE - p * (ONE - q)
    u0 = p * (ONE - q) / (ONE - q + q * a**n)

    def tail(beta: Fraction) -> Fraction:
        c = a * beta
        e = b * beta
        return beta * (ONE - c ** (n + 1)) / (ONE - c) + c**n * beta * e / (ONE - e)

    body = tail(ONE - 2 * r) - 2 * tail(ONE - r)
    return (ONE + u0 * body) / (2 * r)


def exact_avg_eaoii_no_jam(params: SubsystemParams) -> Fraction:
    """The never-jam average: the geometric law p (1-p)^k summed against the s_k ladder."""
    p, _, r = _pqr(params)
    a = ONE - p

    def tail(beta: Fraction) -> Fraction:
        return beta / (ONE - a * beta)

    return (ONE + p * (tail(ONE - 2 * r) - 2 * tail(ONE - r))) / (2 * r)


def exact_intersection(params: SubsystemParams, m: int, n: int) -> Fraction:
    """Exact (avg_eaoii(n) - avg_eaoii(m)) / (avg_aat(n) - avg_aat(m))."""
    ds = exact_avg_eaoii(params, n) - exact_avg_eaoii(params, m)
    dd = exact_avg_aat(params, n) - exact_avg_aat(params, m)
    return ds / dd


def exact_lambda(params: SubsystemParams, n: int) -> Fraction:
    return exact_intersection(params, n, n + 1)


def exact_lambda_limit(params: SubsystemParams) -> Fraction:
    p, q, r = _pqr(params)
    a = ONE - p
    z = (ONE - r) * a
    y = (ONE - 2 * r) * a
    return p * q * (ONE - r) / (r * (ONE - z)) - p * q * (ONE - 2 * r) / (2 * r * (ONE - y))


def exact_lambda_sequence(params: SubsystemParams, n_max: int) -> list[Fraction]:
    """Exact tie subsidies for n = 0 .. n_max, sharing the average values."""
    sbar = [exact_avg_eaoii(params, n) for n in range(n_max + 2)]
    dbar = [exact_avg_aat(params, n) for n in range(n_max + 2)]
    return [
        (sbar[n + 1] - sbar[n]) / (dbar[n + 1] - dbar[n]) for n in range(n_max + 1)
    ]


class ExactRewardCurve:
    """Exact steady rewards over 0..n_max, for argmax checks float64 cannot do.

    Near the never-jam regime the true reward increments fall below the ULP
    of the reward itself, so a float argmax is noise; exact rationals keep
    every digit.
    """

    def __init__(self, params: SubsystemParams, n_max: int):
        self.sbar = [exact_avg_eaoii(params, n) for n in range(n_max + 1)]
        self.dbar = [exact_avg_aat(params, n) for n in range(n_max + 1)]
        self.n_max = n_max

    def argmax(self, lam: float) -> int:
        lam_exact = Fraction(lam)
        rewards = [s - lam_exact * d for s, d in zip(self.sbar, self.dbar)]
        best = max(range(self.n_max + 1), key=rewards.__getitem__)
        if best == self.n_max:
            raise ValueError(f"argmax at the scan edge for lam={lam}; enlarge n_max")
        return best
