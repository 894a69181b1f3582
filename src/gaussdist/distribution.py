"""The analytic law of Euclidean distance between two standard-normal points.

For points with k i.i.d. standard Gaussian coordinates each, the distance
R has CDF P(k/2, R^2/4) (regularized lower incomplete gamma) and density
2^(1-k) e^(-R^2/4) R^(k-1) / Gamma(k/2).  Equivalently R^2/4 is
gamma-distributed with shape k/2, which is what the exact sampler uses.

All density/CDF evaluation happens in log space, so the law stays usable
far beyond the k where 2^(1-k) or R^(k-1) would over/underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import _validate_k
from .montecarlo import EmpiricalSample, _blocked_draw, _check_seed
from .specfun import ConvergenceError, _log_gamma_density, reg_gamma_p, reg_gamma_q

__all__ = ["DistanceDistribution"]

_SQRT_PI = math.sqrt(math.pi)
_LN_2 = math.log(2.0)

_EPS = float(np.finfo(float).eps)
_QUANTILE_RTOL = 1e-14
_QUANTILE_NOISE_GATE = 1e-8
_QUANTILE_MAX_ITER = 200
_SAMPLE_BLOCK = 1 << 20


def _gamma_variate(r):
    """r, checked, and the gamma variate r^2/4: two floats or two arrays.

    A scalar r comes back as a float, anything else as a float array.
    r^2/4 is formed as (r/2)^2: +inf only past r ~ 2.68e154, and the bits
    of r * r / 4 where that is a normal double; one rounding, not two, below.
    """
    if isinstance(r, float) or np.ndim(r) == 0:
        r = float(r)
        if not 0.0 <= r < math.inf:
            raise ValueError("distance must be finite and non-negative")
        return r, (0.5 * r) * (0.5 * r)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("distance must be finite and non-negative")
    with np.errstate(over="ignore"):
        return r, (0.5 * r) * (0.5 * r)


def _normal_tail_quantile(t: float) -> float:
    """The z >= 0 with standard-normal upper tail t, for 0 < t <= 1/2.

    Abramowitz & Stegun 26.2.23, absolute error under 4.5e-4: enough
    for a starting point.
    """
    w = math.sqrt(-2.0 * math.log(t))
    return w - (2.515517 + w * (0.802853 + w * 0.010328)) / (
        1.0 + w * (1.432788 + w * (0.189269 + w * 0.001308))
    )


@dataclass(frozen=True)
class DistanceDistribution:
    """Distance law for a given dimension k (real, >= 1)."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _validate_k(self.k))

    # -- closed forms ---------------------------------------------------

    def pdf(self, r):
        """Density at r; the r = 0 limit is 1/sqrt(pi) for k = 1, else 0."""
        r, x = _gamma_variate(r)
        if self.k == 1.0:
            out = np.exp(-x) / _SQRT_PI
            return float(out) if isinstance(r, float) else out
        a = 0.5 * self.k

        def density(r, x):
            # pdf(r) = (2/r) g(r^2/4) for the Gamma(k/2) density g.  Its
            # log x comes from log r, so an r^2/4 that underflows keeps
            # its density.
            log_half_r = np.log(r) - _LN_2
            return np.exp(_log_gamma_density(a, x, 2.0 * log_half_r) - log_half_r)

        # Where x overflows, the density has long underflowed to 0.
        if isinstance(r, float):
            return float(density(r, x)) if r > 0.0 and x < math.inf else 0.0
        out = np.zeros_like(r)
        pos = (r > 0.0) & (x < np.inf)
        if np.any(pos):
            out[pos] = density(r[pos], x[pos])
        return out

    def cdf(self, r):
        """Probability that the distance is at most r."""
        return reg_gamma_p(self.k / 2.0, _gamma_variate(r)[1])

    def survival(self, r):
        """Upper-tail probability, computed directly (not as 1 - cdf)."""
        return reg_gamma_q(self.k / 2.0, _gamma_variate(r)[1])

    # -- inversion and sampling -----------------------------------------

    def quantile(self, p: float) -> float:
        """The r with cdf(r) = p, for 0 <= p < 1.

        Newton iteration on the logarithm of the smaller tail (cdf for
        p <= 1/2, survival above), so the tolerance is relative to the
        tail probability and tail quantiles keep full precision.  The
        density is log-concave, hence so are both tails, and Newton on
        their logarithms converges monotonically after at most one
        overshoot; a bisection safeguard on a bracket of the root takes
        over where a tail or the density underflows.  The start is the
        Wilson-Hilferty approximation R^2/4 ~ a (1 - h + z sqrt h)^3,
        h = 1/(9a), a = k/2, raised in the lower tail to the root of
        the bound cdf <= (r^2/4)^a / Gamma(a + 1), which is the quantile
        itself once its relative error, under r^2/4, is below rounding.

        Where the spacing of doubles at the mean sqrt(2k) is at least 1/16
        (k above about 4e28), the law's sd, under 1, spans at most 16 of
        them, and Newton's rounding exits can land on either side of the
        root, out of order in p.  There the answer is the smallest double
        r with cdf(r) >= p, found by bisection on cdf from one bracket for
        every p, so it is monotone in p by construction.
        """
        p = float(p)
        if not (0.0 <= p < 1.0) or math.isnan(p):
            raise ValueError(f"quantile requires 0 <= p < 1, got {p}")
        if p == 0.0:
            return 0.0
        mean = 2.0 * math.sqrt(0.5 * self.k)
        if math.ulp(mean) >= 0.0625:
            # 40 from the mean, more than 56 sd, cdf is 0 below and
            # survival 0 above, so the bracket holds every 0 < p < 1.
            width = 40.0 + 2.0 * math.ulp(mean)
            lo, hi = mean - width, mean + width
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    return hi
                if self.cdf(mid) < p:
                    lo = mid
                else:
                    hi = mid
        upper = p > 0.5
        target = 1.0 - p if upper else p
        tail = self.survival if upper else self.cdf
        shape = 0.5 * self.k
        h = 1.0 / (9.0 * shape)
        z = _normal_tail_quantile(target)
        cube_root = 1.0 - h + (z if upper else -z) * math.sqrt(h)
        r = 2.0 * math.sqrt(shape) * cube_root**1.5 if cube_root > 0.0 else 0.0
        if not upper:
            floor = 2.0 * p ** (1.0 / self.k) * math.exp(math.lgamma(shape + 1.0) / self.k)
            if floor * floor / 4.0 <= _EPS:
                return floor
            r = max(r, floor)
        lo, hi = 0.0, math.inf
        err = step = math.inf
        for _ in range(_QUANTILE_MAX_ITER):
            t = tail(r)
            if (t < target) != upper:
                lo = r
            else:
                hi = r
            err = math.log(t / target) if t > 0.0 else -math.inf
            if abs(err) <= _QUANTILE_RTOL:
                return r
            density = self.pdf(r)
            candidate = math.nan
            if math.isfinite(err) and density > 0.0:
                # d log(cdf)/dr = pdf/cdf and d log(survival)/dr = -pdf/survival.
                last, step = step, err * t / density
                # Converged to rounding, or to the noise floor of the tail:
                # near the root Newton steps shrink until rounding stops them.
                if abs(step) <= 2.0 * _EPS * r or (
                    abs(err) < _QUANTILE_NOISE_GATE and abs(step) > 0.5 * abs(last)
                ):
                    return r
                candidate = r + step if upper else r - step
            if not lo < candidate < hi:
                candidate = 0.5 * (lo + hi) if hi < math.inf else 2.0 * r
                if hi < math.inf and not lo < candidate < hi:
                    # No double inside the bracket: hi is the answer.
                    return hi
            r = candidate
        if abs(err) <= 1e-10:
            return r
        raise ConvergenceError(f"quantile iteration stalled at k={self.k}, p={p}")

    def sample(self, n: int, seed: int, threads: int = 1) -> EmpiricalSample:
        """n i.i.d. draws from the law, as R = 2 sqrt(G), G ~ Gamma(k/2).

        Deterministic for fixed (k, n, seed) and independent of the
        thread count.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        seed = _check_seed(seed)
        shape = self.k / 2.0

        def draw(rng: np.random.Generator, size: int) -> np.ndarray:
            return 2.0 * np.sqrt(rng.gamma(shape, size=size))

        values = _blocked_draw(n, seed, _SAMPLE_BLOCK, draw, threads)
        return EmpiricalSample(values)
