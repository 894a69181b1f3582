"""Brute-force simulation oracle and the one-sample Kolmogorov-Smirnov statistic.

Distances are simulated literally: draw two points with i.i.d. standard
normal coordinates and take the Euclidean norm of their difference.
This is the independent check against the analytic law and its sampler.

Randomness comes from numpy's PCG64 generator (ziggurat normal variates,
Marsaglia-Tsang gamma variates).  Work is split into fixed-size blocks
and every block gets its own substream seeded by ``SeedSequence((seed,
block_index))``, so output is byte-identical no matter how many worker
threads process the blocks.

A sample is only its sorted values: it records neither the dimension
nor the seed it came from.  The `sample` command writes those into its
file's header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .distribution import DistanceDistribution

__all__ = [
    "EmpiricalSample",
    "simulate_pairs",
    "ks_one_sample",
]

# From this sample size on, ks_one_sample brackets its maximum (see there).
_BRACKET_MIN = 4096
_BRACKET_MARGIN = 1e-9

# Largest single array of doubles a simulation, or the pairwise distances
# of a dataset, may ask for.  The ziggurat draws consume the stream
# unevenly, so splitting the columns of a draw would change its values;
# a draw above this is refused instead.
_MAX_ARRAY_BYTES = 1 << 30


@dataclass(frozen=True)
class EmpiricalSample:
    """Non-negative distances, sorted into a read-only copy."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("sample needs at least one value")
        values = np.sort(values)
        # NaN sorts last and -inf first, so the two ends decide.
        if not (values[0] >= 0.0 and math.isfinite(values[-1])):
            raise ValueError("distances must be finite and non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return int(seed)


def _integer_dimension(k) -> int:
    """k as an int; simulating points has no meaning in fractional dimensions."""
    kf = float(k)
    if not (math.isfinite(kf) and kf >= 1 and kf == int(kf)):
        raise ValueError(f"simulating points needs an integer dimension k >= 1, got {k}")
    return int(kf)


def _check_nbytes(nbytes: int, what: str) -> None:
    """Refuse nbytes above _MAX_ARRAY_BYTES, as what (a subject and its verb) needs.

    Both sizes print as exact byte counts, so no refused size reads as
    the limit.
    """
    if nbytes > _MAX_ARRAY_BYTES:
        raise ValueError(f"{what} {nbytes} bytes, above the limit of {_MAX_ARRAY_BYTES} bytes")


def _check_array_size(rows: int, cols: int) -> None:
    """Refuse a rows x cols array of doubles larger than _MAX_ARRAY_BYTES."""
    _check_nbytes(8 * rows * cols, f"a {rows} x {cols} array of doubles needs")


def _blocked_draw(
    n: int,
    seed: int,
    block: int,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    threads: int = 1,
) -> np.ndarray:
    """Concatenate per-block draws; block boundaries fix the streams."""
    _check_array_size(n, 1)
    starts = range(0, n, block)

    def one(start: int) -> np.ndarray:
        return draw(_substream(seed, start // block), min(block, n - start))

    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, starts))
    else:
        parts = [one(start) for start in starts]
    return np.concatenate(parts)


def simulate_pairs(k: int, n: int, seed: int, threads: int = 1) -> EmpiricalSample:
    """Distances between n pairs of k-dimensional standard normal points.

    k must be a whole number: the direct simulation has no meaning for
    fractional dimensions.  Deterministic for fixed (k, n, seed),
    regardless of thread count.
    """
    ki = _integer_dimension(k)
    if n < 1:
        raise ValueError("n must be at least 1")
    seed = _check_seed(seed)

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        psi = rng.standard_normal((size, ki))
        gam = rng.standard_normal((size, ki))
        return np.linalg.norm(psi - gam, axis=1)

    block = max(256, (1 << 21) // ki)
    _check_array_size(min(block, n), ki)
    values = _blocked_draw(n, seed, block, draw, threads)
    return EmpiricalSample(values)


def ks_one_sample(sample: EmpiricalSample, dist: "DistanceDistribution") -> float:
    """Exact sup-distance D between the sample ECDF and the analytic CDF.

    diagnostics.sample_fit_report forms the 1% verdict from D.

    With steps = (i + 1)/n and below = steps - 1/n, the statistic is the
    largest of steps[i] - F_i and F_i - below[i].  From n = _BRACKET_MIN
    on, F is first evaluated at every s-th sorted value (s ~ 0.15 sqrt n,
    the last value included).  Because the values are sorted and F is
    monotone, an index i strictly between two such knots j < l has
    steps[i] - F_i <= steps[l-1] - F_j and F_i - below[i] <= F_l -
    below[j+1], so only blocks whose bound comes within _BRACKET_MARGIN
    of the best deviation at the knots can hold the maximum; their
    interiors are evaluated in one more call.  Every F_i has the same
    bits in any array, so the result is the all-values statistic to the
    bit.  The cdf is within 5e-13 relative near the bulk, so computed
    values can be out of order by about 1e-12 at most; the margin covers
    that a thousandfold and can only widen the kept set.
    """
    n = sample.n

    def deviation(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # steps[i] = (i + 1)/n has the bits of np.arange(1, n + 1)/n at i.
        cdf = dist.cdf(sample.values[i])
        steps = (i + 1) / n
        return np.maximum(steps - cdf, cdf - (steps - 1.0 / n)), cdf

    stride = 1 if n < _BRACKET_MIN else int(0.15 * math.sqrt(n))
    knots = np.append(np.arange(0, n - 1, stride), n - 1)
    dev, cdf = deviation(knots)
    statistic = np.max(dev)
    if stride > 1:
        j, l = knots[:-1], knots[1:]
        # steps[l - 1] - F_j and F_l - below[j + 1]
        bound = np.maximum(l / n - cdf[:-1], cdf[1:] - ((j + 2) / n - 1.0 / n))
        # Every block but the last spans a whole stride; the last ends at n - 1.
        inner = (j[bound + _BRACKET_MARGIN >= statistic, None] + np.arange(1, stride)).ravel()
        inner = inner[inner < n - 1]
        if inner.size:
            statistic = max(statistic, np.max(deviation(inner)[0]))
    return float(statistic)

