import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfinv
from scipy.stats import chi

from gaussdist.distribution import DistanceDistribution, pdf_1d
from gaussdist.montecarlo import SampleSource, ecdf, ks_one_sample, ks_two_sample, simulate_pairs
from gaussdist.moments import central_moment, raw_moment

from _oracles import (
    INV_SQRT_PI,
    TWO_SQRT_LN2,
    golden_section_max,
    ks_statistic_against,
    normal_cdf,
    reference_gamma_pq,
    reference_pdf,
)

FIG4_SET = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 100)


class TestConstruction:
    @pytest.mark.parametrize("k", [1, 1.0, 2.5, 400, 1e6])
    def test_accepts_real_k(self, k):
        assert DistanceDistribution(k).k == float(k)

    @pytest.mark.parametrize("k", [0.0, 0.99, -3, math.inf, math.nan])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError):
            DistanceDistribution(k)


class TestPdf:
    def test_one_dimension_at_origin(self):
        assert DistanceDistribution(1).pdf(0.0) == pytest.approx(
            INV_SQRT_PI, rel=1e-15
        )

    def test_vanishes_at_origin_above_one_dimension(self):
        assert DistanceDistribution(3).pdf(0.0) == 0.0
        assert DistanceDistribution(1.5).pdf(0.0) == 0.0

    def test_two_dimensions_closed_form(self):
        # 2^-1 e^-1 * 2 / Gamma(1) = 1/e
        assert DistanceDistribution(2).pdf(2.0) == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            DistanceDistribution(2).pdf(-0.5)

    def test_large_k_stays_finite(self):
        law = DistanceDistribution(1e6)
        r = math.sqrt(2e6)
        value = law.pdf(r)
        assert 0.0 < value < 1.0 and math.isfinite(value)

    @pytest.mark.parametrize("k,r", [(2.0, 1e-300), (1.5, 1e-200), (3.0, 1e-160)])
    def test_tiny_distance_keeps_its_density(self, k, r):
        # r^2/4 underflows here.
        assert DistanceDistribution(k).pdf(r) == pytest.approx(
            float(reference_pdf(k, r)), rel=1e-12
        )

    @pytest.mark.parametrize("k", FIG4_SET)
    def test_normalizes(self, k):
        law = DistanceDistribution(k)
        upper = law.quantile(1.0 - 1e-12)
        total, _ = quad(law.pdf, 0.0, upper, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k", [2, 3, 10, 50, 100])
    def test_mode_at_sqrt_2_k_minus_1(self, k):
        law = DistanceDistribution(k)
        found = golden_section_max(law.pdf, law.quantile(0.001), law.quantile(0.999))
        assert found == pytest.approx(math.sqrt(2.0 * (k - 1.0)), abs=1e-6)


class TestPdf1d:
    def test_matches_direct_formula(self):
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            assert pdf_1d(x) == math.exp(-x * x / 4.0) / math.sqrt(math.pi)

    def test_value_at_two(self):
        assert pdf_1d(2.0) == pytest.approx(0.20755374871029736, rel=1e-14)

    def test_bitwise_identical_to_k1_pdf(self):
        xs = np.linspace(0.0, 8.0, 1000)
        assert np.array_equal(pdf_1d(xs), DistanceDistribution(1).pdf(xs))

    def test_normalizes(self):
        total, _ = quad(pdf_1d, 0.0, 50.0, epsabs=1e-12, epsrel=1e-12)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pdf_1d(-1.0)


class TestCdf:
    def test_zero_at_origin(self):
        assert DistanceDistribution(5).cdf(0.0) == 0.0

    def test_two_dimensional_median(self):
        assert DistanceDistribution(2).cdf(TWO_SQRT_LN2) == pytest.approx(
            0.5, rel=1e-13
        )

    def test_monotone_and_bounded(self):
        law = DistanceDistribution(7)
        rs = np.linspace(0.0, 20.0, 400)
        values = law.cdf(rs)
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] == 0.0 and values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_simulation_fraction(self):
        # Empirical fraction of 1e7 ten-dimensional pairs at distance <= 4.
        sample = simulate_pairs(10, 10**7, 7)
        p_hat = ecdf(sample, 4.0)
        band = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / 10**7)
        assert DistanceDistribution(10).cdf(4.0) == pytest.approx(p_hat, abs=band)

    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    def test_consistent_with_pdf_by_finite_difference(self, k):
        law = DistanceDistribution(k)
        h = 1e-5 * math.sqrt(k)
        median = law.quantile(0.5)
        for mult in (0.5, 1.0, 2.0, 4.0):
            r = mult * math.sqrt(k)
            if r <= median:
                derivative = (law.cdf(r + h) - law.cdf(r - h)) / (2.0 * h)
            else:
                derivative = (law.survival(r - h) - law.survival(r + h)) / (2.0 * h)
            assert derivative == pytest.approx(law.pdf(r), rel=1e-6)


class TestSurvival:
    def test_one_at_origin(self):
        assert DistanceDistribution(3).survival(0.0) == 1.0

    def test_two_dimensional_tail(self):
        assert DistanceDistribution(2).survival(4.0) == pytest.approx(
            math.exp(-4.0), rel=1e-13
        )

    @pytest.mark.parametrize("k", [1, 2, 5.5, 40, 400])
    def test_complements_cdf(self, k):
        law = DistanceDistribution(k)
        rs = np.linspace(0.0, 4.0 * math.sqrt(k), 200)
        assert np.all(np.abs(law.cdf(rs) + law.survival(rs) - 1.0) <= 1e-14)

    def test_far_tail_not_computed_by_complement(self):
        # 1 - cdf would collapse to 0 here; the direct tail must not.
        assert DistanceDistribution(100).survival(40.0) > 0.0

    @pytest.mark.parametrize("k", [1, 3, 1e4])
    def test_distances_past_the_fraction_overflow(self, k):
        # r^2/4 up to 2.5e299: an unnormalized continued-fraction
        # recurrence overflows there within one step.
        law = DistanceDistribution(k)
        rs = np.array([1e55, 1e100, 1e150])
        assert law.cdf(rs).tolist() == [1.0, 1.0, 1.0]
        assert law.survival(rs).tolist() == [0.0, 0.0, 0.0]


class TestQuantile:
    def test_zero_probability(self):
        assert DistanceDistribution(7).quantile(0.0) == 0.0

    def test_two_dimensional_median(self):
        assert DistanceDistribution(2).quantile(0.5) == pytest.approx(
            TWO_SQRT_LN2, abs=1e-10
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 100])
    def test_round_trip(self, k):
        law = DistanceDistribution(k)
        for p in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-9):
            assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_strictly_increasing(self):
        law = DistanceDistribution(9)
        qs = [law.quantile(p) for p in np.linspace(0.01, 0.99, 25)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("k", [1, 2, 10, 100, 1e4])
    @pytest.mark.parametrize("p", [1e-300, 1e-20, 1e-12, 1e-9, 1.0 - 1e-15])
    def test_tail_quantiles_against_scipy(self, k, p):
        # R = sqrt(2) chi_k; at k = 1 that is 2 |N(0, 1/2)|, whose quantile
        # 2 erfinv(p) stays representable at p = 1e-300 where chi.ppf
        # rounds to 0.
        expected = 2.0 * erfinv(p) if k == 1 else chi.ppf(p, k, scale=math.sqrt(2.0))
        assert DistanceDistribution(k).quantile(p) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            DistanceDistribution(3).quantile(p)


class TestLargeDimension:
    """pdf, cdf, survival and quantile near the bulk at large k."""

    @pytest.mark.parametrize("k", [2.0, 10.0, 1e3, 1e6, 1e8, 1e12, 1e20])
    def test_pdf_against_60_digit_closed_form(self, k):
        # Forming r^2/4 rounds it by an ulp, which moves the density by
        # about sqrt(k) ulps at a distance O(1) from the mean.
        with mpmath.workdps(60):
            half_k = mpmath.mpf(k) / 2
            m1 = float(2 * mpmath.exp(mpmath.loggamma(half_k + 0.5) - mpmath.loggamma(half_k)))
        rel = 1e-14 + 4.0 * math.sqrt(k) * np.finfo(float).eps
        for r in (m1 - 2.0, m1, m1 + 2.0):
            if r > 0.0:
                assert DistanceDistribution(k).pdf(r) == pytest.approx(
                    float(reference_pdf(k, r)), rel=rel
                )

    @pytest.mark.parametrize("k", [1e8, 1e12, 1e20, 1e30])
    def test_quantile_monotone_in_p(self, k):
        law = DistanceDistribution(k)
        ps = [1e-300, 1e-10, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-12]
        values = [law.quantile(p) for p in ps]
        assert values == sorted(values)
        assert values[0] < values[-1]

    @pytest.mark.parametrize("k", [1e4, 1e5, 1e6])
    def test_cdf_and_survival_against_mpmath(self, k):
        law = DistanceDistribution(k)
        center = math.sqrt(2.0 * k)
        rs = center + np.array([-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0])
        cdf, sf = law.cdf(rs), law.survival(rs)
        for r, c, s in zip(rs, cdf, sf):
            p_ref, q_ref = reference_gamma_pq(k / 2.0, r**2 / 4.0)
            assert c == pytest.approx(float(p_ref), rel=1e-12)
            assert s == pytest.approx(float(q_ref), rel=1e-12)

    @pytest.mark.parametrize("k", [1e4, 1e5, 1e6, 1e8])
    def test_quantile_inverts_the_reference_cdf(self, k):
        law = DistanceDistribution(k)
        for p in (0.001, 0.5, 0.999):
            r = law.quantile(p)
            p_ref, _ = reference_gamma_pq(k / 2.0, r**2 / 4.0)
            assert float(p_ref) == pytest.approx(p, rel=1e-10)


class TestSampler:
    def test_values_non_negative_and_sorted(self):
        sample = DistanceDistribution(3).sample(1000, 5)
        assert np.all(sample.values >= 0.0)
        assert np.all(np.diff(sample.values) >= 0.0)
        assert sample.source is SampleSource.ANALYTIC_SAMPLER

    def test_deterministic(self):
        a = DistanceDistribution(2.5).sample(5000, 99)
        b = DistanceDistribution(2.5).sample(5000, 99)
        assert np.array_equal(a.values, b.values)

    def test_thread_count_does_not_change_output(self):
        n = 3 * (1 << 20) + 17
        a = DistanceDistribution(4).sample(n, 7, threads=1)
        b = DistanceDistribution(4).sample(n, 7, threads=4)
        assert np.array_equal(a.values, b.values)

    def test_mean_matches_first_raw_moment(self):
        n = 10**6
        sample = DistanceDistribution(4).sample(n, 42)
        se = math.sqrt(central_moment(4, 2) / n)
        assert np.mean(sample.values) == pytest.approx(
            1.5 * math.sqrt(math.pi), abs=4.0 * se
        )

    def test_ks_against_analytic_cdf(self):
        n = 10**6
        law = DistanceDistribution(2)
        sample = law.sample(n, 3)
        stat = ks_statistic_against(sample.values, law.cdf(sample.values))
        assert stat < 1.63 / math.sqrt(n)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            DistanceDistribution(2).sample(0, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            DistanceDistribution(2).sample(10, -1)


class TestStochasticEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_direct_simulation_matches_law(self, k):
        n = 10**5
        sample = simulate_pairs(k, n, 0)
        assert ks_one_sample(sample, DistanceDistribution(k)).passed

    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_direct_simulation_matches_analytic_sampler(self, k):
        n = 10**5
        direct = simulate_pairs(k, n, 0)
        analytic = DistanceDistribution(k).sample(n, 1000)
        assert ks_two_sample(direct, analytic).passed

    def test_large_k_standardized_sample_is_nearly_normal(self):
        k, n = 400, 10**5
        sample = DistanceDistribution(k).sample(n, 0)
        z = (sample.values - raw_moment(k, 1)) / math.sqrt(central_moment(k, 2))
        stat = ks_statistic_against(z, normal_cdf(z))
        assert stat < 1.63 / math.sqrt(n)
