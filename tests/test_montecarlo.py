import math

import numpy as np
import pytest

from gaussdist.distribution import DistanceDistribution
from gaussdist.montecarlo import (
    EmpiricalSample,
    SampleSource,
    ecdf,
    ks_one_sample,
    ks_two_sample,
    sample_moments,
    simulate_pairs,
)
from gaussdist.moments import central_moment, kurtosis, raw_moment, skewness

from _oracles import TWO_OVER_SQRT_PI, TWO_SQRT_LN2


def external_sample(values, k):
    return EmpiricalSample(np.asarray(values, dtype=float), k=k, source=SampleSource.EXTERNAL)


class TestEmpiricalSample:
    def test_sorts_input(self):
        s = external_sample([3.0, 1.0, 2.0], k=1)
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            external_sample([], k=1)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            external_sample([0.5, -0.1], k=1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            external_sample([0.5, math.inf], k=1)

    def test_values_frozen(self):
        s = external_sample([1.0, 2.0], k=1)
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestSimulatePairs:
    def test_deterministic(self):
        a = simulate_pairs(3, 2000, 11)
        b = simulate_pairs(3, 2000, 11)
        assert np.array_equal(a.values, b.values)
        assert a.source is SampleSource.DIRECT_SIMULATION
        assert a.seed == 11 and a.k == 3.0

    def test_thread_count_does_not_change_output(self):
        n = 3_000_000  # several blocks at k=2
        a = simulate_pairs(2, n, 5, threads=1)
        b = simulate_pairs(2, n, 5, threads=4)
        assert np.array_equal(a.values, b.values)

    def test_one_dimensional_mean(self):
        n = 10**6
        sample = simulate_pairs(1, n, 0)
        se = math.sqrt(central_moment(1, 2) / n)
        assert np.mean(sample.values) == pytest.approx(
            TWO_OVER_SQRT_PI, abs=4.0 * se
        )

    def test_squared_distance_mean(self):
        # E[R^2] = 2k, with spread Var(R^2) = m4 - m2^2.
        n, k = 10**6, 3
        sample = simulate_pairs(k, n, 1)
        se = math.sqrt((raw_moment(k, 4) - raw_moment(k, 2) ** 2) / n)
        assert np.mean(sample.values**2) == pytest.approx(6.0, abs=4.0 * se)

    @pytest.mark.parametrize("k", [2.5, 0, -1, math.nan])
    def test_rejects_non_integer_dimension(self, k):
        with pytest.raises(ValueError):
            simulate_pairs(k, 10, 0)

    def test_accepts_integral_float(self):
        assert simulate_pairs(2.0, 10, 0).k == 2.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            simulate_pairs(2, 0, 0)
        with pytest.raises(ValueError):
            simulate_pairs(2, 10, -3)


class TestEcdf:
    def test_below_minimum(self):
        assert ecdf(external_sample([1.0, 2.0, 3.0], k=1), 0.5) == 0.0

    def test_at_maximum(self):
        assert ecdf(external_sample([1.0, 2.0, 3.0], k=1), 3.0) == 1.0

    def test_at_median_of_odd_sample(self):
        n = 5
        s = external_sample([1.0, 2.0, 3.0, 4.0, 5.0], k=1)
        assert ecdf(s, 3.0) == (n + 1) / (2 * n)

    def test_right_continuous(self):
        s = external_sample([1.0, 2.0], k=1)
        assert ecdf(s, 1.0) == 0.5
        assert ecdf(s, 1.0 - 1e-12) == 0.0

    def test_vectorized(self):
        s = external_sample([1.0, 2.0], k=1)
        out = ecdf(s, np.array([0.0, 1.5, 5.0]))
        assert np.array_equal(out, [0.0, 0.5, 1.0])


class TestKsOneSample:
    def test_true_law_passes(self):
        sample = simulate_pairs(5, 10**5, 2)
        result = ks_one_sample(sample, DistanceDistribution(5))
        assert result.passed
        assert 0.0 <= result.statistic <= 1.0
        assert result.critical_value_01 == pytest.approx(1.63 / math.sqrt(10**5))
        assert result.passed == (result.statistic < result.critical_value_01)

    def test_gross_mismatch_fails(self):
        sample = DistanceDistribution(2).sample(10**4, 0)
        result = ks_one_sample(sample, DistanceDistribution(20))
        assert not result.passed
        assert result.statistic > 0.5

    def test_single_point_at_median(self):
        sample = external_sample([TWO_SQRT_LN2], k=2)
        result = ks_one_sample(sample, DistanceDistribution(2))
        assert result.statistic == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch_rejected_for_direct_simulation(self):
        sample = simulate_pairs(2, 100, 0)
        with pytest.raises(ValueError):
            ks_one_sample(sample, DistanceDistribution(3))

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 50])
    def test_pass_rate_across_seeds(self, k):
        # At alpha = 0.01, at most one failure among five seeds is tolerated.
        n = 10**5
        law = DistanceDistribution(k)
        passes = sum(
            ks_one_sample(simulate_pairs(k, n, seed), law).passed
            for seed in range(5)
        )
        assert passes >= 4


class TestKsTwoSample:
    def test_identical_samples(self):
        a = simulate_pairs(2, 500, 0)
        result = ks_two_sample(a, a)
        assert result.statistic == 0.0
        assert result.passed

    def test_disjoint_supports(self):
        a = external_sample([1.0, 2.0], k=1)
        b = external_sample([5.0, 6.0], k=1)
        assert ks_two_sample(a, b).statistic == 1.0

    def test_critical_value_formula(self):
        a = external_sample([1.0] * 100, k=1)
        b = external_sample([1.0] * 400, k=1)
        result = ks_two_sample(a, b)
        assert result.n_effective == pytest.approx(80.0)
        assert result.critical_value_01 == pytest.approx(
            1.63 * math.sqrt(500 / (100 * 400))
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 50])
    def test_samplers_agree_across_seeds(self, k):
        n = 10**5
        law = DistanceDistribution(k)
        passes = sum(
            ks_two_sample(simulate_pairs(k, n, seed), law.sample(n, seed + 1000)).passed
            for seed in range(5)
        )
        assert passes >= 4


class TestSampleMoments:
    def test_constant_sample(self):
        stats = sample_moments(external_sample([2.0, 2.0, 2.0, 2.0], k=1))
        assert stats.raw[0] == 2.0
        assert stats.central[0] == 0.0
        assert math.isnan(stats.skewness) and math.isnan(stats.kurtosis)

    def test_requires_four_values(self):
        with pytest.raises(ValueError):
            sample_moments(external_sample([1.0, 2.0, 3.0], k=1))

    def test_matches_closed_forms_at_scale(self):
        n, k = 10**7, 4
        stats = sample_moments(simulate_pairs(k, n, 11))
        assert stats.skewness == pytest.approx(
            skewness(k), abs=3.0 * math.sqrt(6.0 / n)
        )
        assert stats.kurtosis == pytest.approx(
            kurtosis(k), abs=3.0 * math.sqrt(24.0 / n)
        )
        assert stats.central[0] == pytest.approx(central_moment(k, 2), rel=0.01, abs=0)
