"""Applying the distance law to data: significance, fit, effective dimension.

A dataset is a float matrix: rows are observations, columns are
features.  The null model throughout is a dataset whose standardized
features are independent standard normals, in which case all pairwise
distances follow the law for k = number of features: an observed
distance r has lower-tail p-value law.cdf(r) (how unusually close) and
upper-tail p-value law.survival(r) (how unusually far).  Pairwise
distances from one dataset are statistically dependent (they share
points), so fit reports carry a dependence caveat rather than
pretending the KS test is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import DistanceDistribution
from .moments import _variance_deficit, moment_set, raw_moment
from .montecarlo import (
    EmpiricalSample,
    _check_array_size,
    _check_nbytes,
    _check_seed,
    _integer_dimension,
    _substream,
    ks_one_sample,
)

__all__ = [
    "FitReport",
    "ContrastRow",
    "standardize",
    "pairwise_distances",
    "effective_dimension",
    "fit_report",
    "sample_fit_report",
    "relative_contrast_curve",
]

# Rows per block of pairwise_distances: two blocks of 128 x rows doubles
# sit beside the result, and up to 128 rows one x @ x.T covers the dataset.
_PAIR_BLOCK = 128
# Its leading m x m is the strict upper triangle of any m <= _PAIR_BLOCK.
_UPPER = np.triu(np.ones((_PAIR_BLOCK, _PAIR_BLOCK), dtype=bool), 1)
_UPPER.flags.writeable = False

# sample_fit_report's verdict: D < KS_COEFF_01 / sqrt(n), KS at alpha = 0.01.
KS_COEFF_01 = 1.63

_K1_MEAN = raw_moment(1.0, 1)


def _checked_matrix(data) -> np.ndarray:
    """data as a float array, refused unless 2-D, finite, >= 2 rows and >= 1 column."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("dataset must be a 2-D matrix")
    rows, cols = data.shape
    if rows < 2 or cols < 1:
        raise ValueError(f"dataset needs >= 2 rows and >= 1 column, got {rows}x{cols}")
    if not np.all(np.isfinite(data)):
        raise ValueError("dataset contains non-finite values; missing data is rejected")
    return data


def standardize(data) -> np.ndarray:
    """A new matrix whose columns have zero mean and unit sample sd (divisor n-1)."""
    data = _checked_matrix(data)
    # A column of identical values has zero range exactly, even when mean
    # subtraction would leave rounding residue in the sd.
    top, bottom = data.max(axis=0), data.min(axis=0)
    constant = np.flatnonzero(top == bottom)
    if constant.size:
        raise ValueError(
            f"column {int(constant[0])} is constant; standardization is undefined "
            "for zero-variance features"
        )
    # Each column is scaled by a power of two to a largest magnitude in
    # [1/2, 1), so its squared deviations neither overflow nor underflow at
    # any magnitude, and its sd is positive.  The scaling is exact for every
    # entry it leaves at or above 2^-1022; one pushed below loses only bits
    # under 2^-1074 of the column's largest magnitude.
    out = np.ldexp(data, -np.frexp(np.maximum(top, -bottom))[1])
    means = out.mean(axis=0)
    sds = out.std(axis=0, ddof=1)
    out -= means
    out /= sds
    return out


def pairwise_distances(data) -> EmpiricalSample:
    """All rows*(rows-1)/2 Euclidean distances between rows, sorted.

    Any finite data is scaled by a power of two to a largest magnitude in
    [1/2, 1) before squaring, so only a distance past the double range is
    refused.  Squared distances (sq_i + sq_j) - 2 g_ij come from the Gram
    matrix of _PAIR_BLOCK rows at a time against themselves and later rows,
    never rows x rows; distances above _MAX_ARRAY_BYTES are refused first.
    """
    x = _checked_matrix(data)
    rows = len(x)
    count = rows * (rows - 1) // 2
    _check_nbytes(8 * count, f"the {count} distances between {rows} rows need")
    exp = np.frexp(max(x.max(), -x.min()))[1]
    x = np.ldexp(x, -exp)
    sq = np.sum(x**2, axis=1)
    block = min(rows, _PAIR_BLOCK)
    values = np.empty(count)
    end = 0
    for a in range(0, rows, block):
        b = min(a + block, rows)
        m = b - a
        gram = x[a:b] @ x[a:].T
        gram *= 2.0
        d2 = sq[a:b, None] + sq[None, a:]
        d2 -= gram
        # The block's pairs among themselves, then with every later row.
        for part in (d2[:, :m][_UPPER[:m, :m]], d2[:, m:]):
            start, end = end, end + part.size
            values[start:end].reshape(part.shape)[...] = part
    del x  # the scaled copy, freed before the sorted copy is made
    np.maximum(values, 0.0, out=values)
    np.sqrt(values, out=values)
    with np.errstate(over="ignore"):
        np.ldexp(values, exp, out=values)
    return EmpiricalSample(values)


def effective_dimension(mean_distance: float) -> float:
    """The real dimension whose theoretical mean distance matches the input.

    Solves m1^2 = 2k - 1 + delta(k/2), delta = 1 - mu2, by the fixed point
    k <- 2 (m/2)^2 + 1/2 - delta(k/2)/2, whose slope is at most 0.118 (at
    k = 1): from delta = 0, k falls to the root, and the first step that
    does not lower k (rounding can cycle two doubles) ends it within 18.
    Clamped at 1 below the k = 1 mean; past about 1.9e154, the mean of
    the largest finite k, 2 (m/2)^2 overflows and the mean is a ValueError.
    """
    if not (math.isfinite(mean_distance) and mean_distance >= 0.0):
        raise ValueError("mean distance must be finite and non-negative")
    if mean_distance <= _K1_MEAN:
        return 1.0
    half = 0.5 * mean_distance
    half_top = 2.0 * (half * half) + 0.5
    if half_top == math.inf:
        raise ValueError(f"mean distance {mean_distance} is too large: no finite k has that mean")
    k = half_top
    for _ in range(40):
        step = half_top - 0.5 * _variance_deficit(0.5 * k)
        if step >= k:
            break
        k = step
    return k


@dataclass(frozen=True)
class FitReport:
    """Goodness of fit of observed pairwise distances to the null law.

    The fields, in order, are the keys of the JSON report.
    """

    k: float
    n_pairs: int
    ks_statistic: float
    ks_critical_01: float
    ks_passed: bool
    mean_observed: float
    mean_expected: float
    variance_observed: float
    variance_expected: float
    effective_dimension: float
    dependence_caveat: bool = True

    def to_dict(self) -> dict:
        return dict(vars(self))


def _mean_and_variance(values: np.ndarray) -> tuple[float, float]:
    """np.mean(values) and np.var(values, ddof=1) of sorted non-negative values.

    Scaled by a power of two to a largest in [1/2, 1) and back, so no square
    or sum overflows; a variance past the double range is inf.
    """
    exp = math.frexp(float(values[-1]))[1]
    scaled = np.ldexp(values, -exp)
    mean = math.ldexp(float(np.mean(scaled)), exp)
    try:
        var = math.ldexp(float(np.var(scaled, ddof=1)), 2 * exp)
    except OverflowError:
        var = math.inf
    return mean, var


def sample_fit_report(
    sample: EmpiricalSample, law: DistanceDistribution, dependence_caveat: bool
) -> FitReport:
    """Compare a sample of distances to the law.

    dependence_caveat records that the distances share points, so the KS
    test is indicative rather than exact.
    """
    if sample.n < 2:
        raise ValueError(f"fit report needs at least 2 distances, got {sample.n}")
    statistic = ks_one_sample(sample, law)
    critical = KS_COEFF_01 / math.sqrt(sample.n)
    moments = moment_set(law.k)
    mean_obs, var_obs = _mean_and_variance(sample.values)
    # First, so a mean too large for any dimension fails before the variance.
    k_eff = effective_dimension(mean_obs)
    if math.isinf(var_obs):
        raise ValueError("the observed variance exceeds the double range")
    return FitReport(
        k=law.k,
        n_pairs=sample.n,
        ks_statistic=statistic,
        ks_critical_01=critical,
        ks_passed=statistic < critical,
        mean_observed=mean_obs,
        mean_expected=moments.raw[0],
        variance_observed=var_obs,
        variance_expected=moments.central[0],
        effective_dimension=k_eff,
        dependence_caveat=dependence_caveat,
    )


def fit_report(data) -> FitReport:
    """Compare a dataset's pairwise distances to the independent-feature null.

    The data is taken as it is, at any finite magnitude: standardize() it
    first unless its columns already have zero mean and unit sd.  A mean
    distance above about 1.9e154, which no finite k has, is a ValueError.
    """
    data = _checked_matrix(data)
    rows, cols = data.shape
    if rows < 10:
        raise ValueError(f"fit report needs at least 10 rows, got {rows}")
    sample = pairwise_distances(data)
    law = DistanceDistribution(float(cols))
    return sample_fit_report(sample, law, dependence_caveat=True)


@dataclass(frozen=True)
class ContrastRow:
    """Farthest/nearest neighbor distances of one query point."""

    k: int
    d_max: float
    d_min: float
    contrast: float


def relative_contrast_curve(
    k_values, n_points: int, seed: int
) -> list[ContrastRow]:
    """Nearest/farthest neighbor contrast of a random query, per dimension.

    For each whole k >= 1, simulates n_points standard normal points plus
    one query point and reports (Dmax - Dmin) / Dmin.  Rows are
    deterministic per (seed, k), so repeating a k with the same seed
    repeats its row.
    """
    ks = [_integer_dimension(k) for k in k_values]
    if not ks:
        raise ValueError("need at least one dimension")
    if n_points < 3:
        raise ValueError(f"need at least 3 points, got {n_points}")
    _check_array_size(n_points, max(ks))
    seed = _check_seed(seed)
    rows = []
    for k in ks:
        rng = _substream(seed, k)
        points = rng.standard_normal((n_points, k))
        query = rng.standard_normal(k)
        d = np.linalg.norm(points - query, axis=1)
        d_min = float(d.min())
        d_max = float(d.max())
        if d_min <= 0.0:
            raise RuntimeError("query point coincides with a data point")
        rows.append(ContrastRow(k, d_max, d_min, (d_max - d_min) / d_min))
    return rows
