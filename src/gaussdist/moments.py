"""Closed-form moments of the distance law.

Raw moments are 2^n Gamma((k+n)/2) / Gamma(k/2); central moments come
from the binomial expansion over raw moments.  The central moments stay
O(1) as k grows while the raw moments grow like powers of k, so for
large k the expansion cancels catastrophically; past k = 64 the variance
switches to an asymptotic series whose leading term is exactly 1, and
mu3 and mu4 follow from that series by the chi-law identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import gamma_shift_ratio

__all__ = [
    "MomentSet",
    "raw_moment",
    "central_moment",
    "skewness",
    "kurtosis",
    "moment_set",
]

_LARGE_K_VARIANCE = 64.0

# Coefficients of (Gamma(x+1/2)/Gamma(x))^2 / x = 1 + sum_{i>=1} d_i x^-i,
# from squaring the half-integer Stirling ratio series.  The variance is
# 2k - 4x(1 + sum d_i x^-i) with x = k/2, i.e. 1 - 4 sum_{i>=2} d_i x^(1-i)
# since d_1 = -1/4.  Listed are d_2..d_10 as exact rationals: 1/32, 1/128,
# -5/2048, -23/8192, 53/65536, 593/262144, -5165/8388608, -110123/33554432,
# 231743/268435456.  Truncation error < 1e-17 absolute for x > 32.
_VARIANCE_TAIL_COEF = (
    0.03125,
    0.0078125,
    -0.00244140625,
    -0.0028076171875,
    0.00080871582031250,
    0.0022621154785156250,
    -0.000615715980529785156,
    -0.0032819211483001709,
    0.000863309949636459351,
)


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


def _central_moment_large_k(k: float, n: int) -> float:
    """mu2, mu3 or mu4 from the variance series, with no raw moment of size k.

    With x = k/2 and s the series sum, 1 - mu2 = 4s/x.  The chi
    identities m3 = (2k + 2) m1 and m4 = 4k(k + 2) reduce the binomial
    expansions to mu3 = 2 m1 (1 - mu2) and mu4 = -3 mu2^2 + 8 mu2 - 64s.
    """
    x = k / 2.0
    s = 0.0
    for d in reversed(_VARIANCE_TAIL_COEF):
        s = s / x + d
    deficit = 4.0 * s / x
    mu2 = 1.0 - deficit
    if n == 2:
        return mu2
    if n == 3:
        return 2.0 * raw_moment(k, 1) * deficit
    return -3.0 * mu2 * mu2 + 8.0 * mu2 - 64.0 * s


def central_moment(k: float, n: int) -> float:
    """E[(R - mean)^n] for n in {2, 3, 4}."""
    k = _validate_k(k)
    if n not in (2, 3, 4):
        raise ValueError(f"central moments are available for n in 2..4, got {n}")
    if k > _LARGE_K_VARIANCE:
        return _central_moment_large_k(k, n)
    m1 = raw_moment(k, 1)
    m2 = raw_moment(k, 2)
    if n == 2:
        return m2 - m1**2
    m3 = raw_moment(k, 3)
    if n == 3:
        return m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    m4 = raw_moment(k, 4)
    return m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4


def skewness(k: float) -> float:
    """mu3 / mu2^(3/2); positive, decreasing toward 0 as k grows."""
    return central_moment(k, 3) / central_moment(k, 2) ** 1.5


def kurtosis(k: float) -> float:
    """mu4 / mu2^2, the dimensionless ratio; tends to 3 as k grows."""
    return central_moment(k, 4) / central_moment(k, 2) ** 2


def moment_set(k: float) -> MomentSet:
    """All moments of the law at dimension k, mutually consistent."""
    k = _validate_k(k)
    raw = tuple(raw_moment(k, n) for n in range(1, 5))
    central = tuple(central_moment(k, n) for n in (2, 3, 4))
    mu2, mu3, mu4 = central
    return MomentSet(
        k=k,
        raw=raw,
        central=central,
        skewness=mu3 / mu2**1.5,
        kurtosis=mu4 / mu2**2,
    )
