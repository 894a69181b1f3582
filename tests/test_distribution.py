import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfinv
from scipy.stats import chi

from gaussdist.distribution import DistanceDistribution, _gamma_variate
from gaussdist.montecarlo import ks_one_sample, simulate_pairs
from gaussdist.moments import moment_set, raw_moment

from _oracles import (
    INV_SQRT_PI,
    TWO_SQRT_LN2,
    golden_section_max,
    ks_statistic_against,
    normal_cdf,
    reference_gamma_pq,
    reference_pdf,
    reference_tails_by_quad,
    two_samples_agree,
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
            INV_SQRT_PI, rel=1e-15, abs=0
        )

    def test_vanishes_at_origin_above_one_dimension(self):
        assert DistanceDistribution(3).pdf(0.0) == 0.0
        assert DistanceDistribution(1.5).pdf(0.0) == 0.0

    def test_two_dimensions_closed_form(self):
        # 2^-1 e^-1 * 2 / Gamma(1) = 1/e
        assert DistanceDistribution(2).pdf(2.0) == pytest.approx(
            math.exp(-1.0), rel=1e-13, abs=0
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
            float(reference_pdf(k, r)), rel=1e-12, abs=0
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
    """The k = 1 law: the absolute difference of two standard Gaussians."""

    def test_matches_direct_formula(self):
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            assert DistanceDistribution(1).pdf(x) == math.exp(-x * x / 4.0) / math.sqrt(math.pi)

    def test_value_at_two(self):
        assert DistanceDistribution(1).pdf(2.0) == pytest.approx(
            0.20755374871029736, rel=1e-14, abs=0
        )

    def test_normalizes(self):
        total, _ = quad(DistanceDistribution(1).pdf, 0.0, 50.0, epsabs=1e-12, epsrel=1e-12)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceDistribution(1).pdf(-1.0)


class TestCdf:
    def test_zero_at_origin(self):
        assert DistanceDistribution(5).cdf(0.0) == 0.0

    def test_two_dimensional_median(self):
        assert DistanceDistribution(2).cdf(TWO_SQRT_LN2) == pytest.approx(
            0.5, rel=1e-13, abs=0
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
        p_hat = np.searchsorted(sample.values, 4.0, side="right") / sample.n
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
            assert derivative == pytest.approx(law.pdf(r), rel=1e-6, abs=0)


class TestSurvival:
    def test_one_at_origin(self):
        assert DistanceDistribution(3).survival(0.0) == 1.0

    def test_two_dimensional_tail(self):
        assert DistanceDistribution(2).survival(4.0) == pytest.approx(
            math.exp(-4.0), rel=1e-13, abs=0
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


class TestDistanceDomain:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("which", ["pdf", "cdf", "survival"])
    def test_array_with_a_bad_distance_is_refused(self, which, bad):
        evaluate = getattr(DistanceDistribution(3), which)
        with pytest.raises(ValueError, match="^distance must be finite and non-negative$"):
            evaluate(np.array([1.0, bad]))


class TestPastTheSquareOverflow:
    # Past r ~ 2.68e154 (r/2)^2 overflows; the law there, and from
    # 1.35e154 on, is 0 density and all of its mass, with no numpy
    # warning (warnings fail the suite).
    RS = [1.35e154, 1e200, 1.7e308]

    @pytest.mark.parametrize("k", [1, 3, 1e4, 1e300])
    def test_limits(self, k):
        law = DistanceDistribution(k)
        rs = np.array(self.RS)
        assert law.pdf(rs).tolist() == [0.0] * 3
        assert law.cdf(rs).tolist() == [1.0] * 3
        assert law.survival(rs).tolist() == [0.0] * 3
        assert (law.pdf(1e200), law.cdf(1e200), law.survival(1e200)) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("k", [1, 3, 1e4, 1e300])
    def test_leaves_the_other_lanes_alone(self, k):
        law = DistanceDistribution(k)
        near = [0.0, 1.0, math.sqrt(2.0 * k), 1e150]
        for which in (law.pdf, law.cdf, law.survival):
            mixed = which(np.array(near + self.RS))
            assert mixed[:4].tolist() == which(np.array(near)).tolist()


class TestQuarterSquare:
    def test_bits_of_r_squared_over_four_where_normal(self):
        # r^2/4 is a normal double on this range, where halving is exact.
        rng = np.random.default_rng(21)
        r = np.exp(rng.uniform(math.log(2.99e-154), math.log(1.34e154), 2_000_000))
        assert np.array_equal(_gamma_variate(r)[1], r * r / 4.0)
        assert all(_gamma_variate(v)[1] == v * v / 4.0 for v in r[:2000].tolist())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_subnormal_quarter_square_cdf_against_mpmath(self, k):
        # Below r ~ 2.98e-154, r^2/4 is subnormal, and its one rounding,
        # half a step of 2^-1074, moves cdf ~ x^(k/2) by up to
        # (k/2) 2^-1075/x relative.  Worst over this sweep, at r ~ 1.4e-160
        # (x ~ 5e-321): 2.3e-4 at k = 1 and 4.6e-4 at k = 2, against
        # 2.7e-4 and 5.4e-4 for r * r / 4, which rounds twice.  At k = 3
        # the cdf, below 1e-460, is 0, the double nearest it.
        rng = np.random.default_rng(22)
        law = DistanceDistribution(k)
        for r in np.exp(rng.uniform(math.log(1e-160), math.log(2.98e-154), 200)).tolist():
            with mpmath.workdps(50):
                exact_x = (mpmath.mpf(r) / 2) ** 2
            ref = float(reference_gamma_pq(k / 2.0, exact_x)[0])
            x = float(exact_x)
            # 2^-1075 itself rounds to 0, so a half step is 0.5 * 2^-1074.
            tol = ref * (0.25 * k * (2.0**-1074 / x) * 1.001 + 1e-12) + 2.0**-1074
            assert abs(law.cdf(r) - ref) <= tol, r


class TestTopOfTheDomain:
    """Every finite k >= 1: the law at k where log Gamma(k/2) overflows."""

    @pytest.mark.parametrize("k", [1e306, 1e307, 1.7e308, 1.79e308])
    def test_law_at_the_mean(self, k):
        # The law is far narrower than the spacing of doubles at its mean,
        # so cdf steps from 0 to 1 there; at 0.5 where (r/2)^2 is k/2.
        law = DistanceDistribution(k)
        mean = 2.0 * math.sqrt(0.5 * k)
        rs = np.array([math.nextafter(mean, 0.0), mean, math.nextafter(mean, math.inf)])
        cdf, sf = law.cdf(rs), law.survival(rs)
        assert np.all(cdf + sf == 1.0)
        assert (cdf[0], cdf[2]) == (0.0, 1.0) and 0.0 <= cdf[1] <= 1.0
        if (0.5 * mean) ** 2 == 0.5 * k:
            assert cdf[1] == sf[1] == 0.5
        assert law.pdf(mean) > 0.0

    @pytest.mark.parametrize("k", [1e306, 1e307, 1.7e308, 1.79e308])
    def test_quantile_monotone_in_p(self, k):
        law = DistanceDistribution(k)
        ps = [5e-324, 1e-300, 1e-10, 0.001, 0.1, 0.5, 0.6, 0.9, 0.999, 1.0 - 2.0**-53]
        values = [law.quantile(p) for p in ps]
        assert values == sorted(values)
        assert abs(values[5] - 2.0 * math.sqrt(0.5 * k)) <= 2.0 * math.ulp(values[5])


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
    @pytest.mark.parametrize(
        "p", [1e-300, 1e-20, 1e-12, 1e-9, 0.002, 0.3, 0.5, 0.7, 0.998, 1.0 - 1e-15]
    )
    def test_tail_quantiles_against_scipy(self, k, p):
        # R = sqrt(2) chi_k; at k = 1 that is 2 |N(0, 1/2)|, whose quantile
        # 2 erfinv(p) stays representable at p = 1e-300 where chi.ppf
        # rounds to 0.
        expected = 2.0 * erfinv(p) if k == 1 else chi.ppf(p, k, scale=math.sqrt(2.0))
        assert DistanceDistribution(k).quantile(p) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_lower_tail_floor_against_mpmath(self):
        # Here r^2/4 ~ 3e-403, so P(k/2, r^2/4) = (r/2)^k / Gamma(k/2 + 1)
        # to 400 digits and the root is 2 (p Gamma(k/2 + 1))^(1/k).  The
        # floor formed in floating point alone misses it by 221.6 ulps.
        k, p = 1.421062857144212, 1.0951543873132003e-286
        with mpmath.workdps(60):
            half_k = mpmath.mpf(k) / 2
            root = 2 * (mpmath.mpf(p) * mpmath.gamma(half_k + 1)) ** (0.5 / half_k)
            miss = float(abs(DistanceDistribution(k).quantile(p) - root))
        assert miss <= 4 * math.ulp(float(root))

    def test_large_k_quantiles_take_few_tail_evaluations(self, monkeypatch):
        # At large k the Wilson-Hilferty start from an exact normal
        # quantile is within Newton's tolerance of the root, or one step
        # from it, for most p.
        calls = []

        def counted(tail):
            def wrapper(law, r):
                calls.append(r)
                return tail(law, r)

            return wrapper

        for name in ("cdf", "survival"):
            monkeypatch.setattr(DistanceDistribution, name, counted(getattr(DistanceDistribution, name)))
        rng = np.random.default_rng(2012)
        ks = np.exp(rng.uniform(math.log(1e4), math.log(1e6), 200))
        for k, p in zip(ks, rng.uniform(0.002, 0.998, 200)):
            DistanceDistribution(k).quantile(p)
        assert len(calls) / 200 <= 2.5

    @pytest.mark.parametrize("k", [400, 600, 800])
    def test_subnormal_lower_tail_takes_the_bisection_safeguard(self, k):
        # Newton's step leaves the bracket here, so the safeguard bisects
        # (the branch under `if not lo < candidate < hi`).
        law = DistanceDistribution(k)
        ps = [5e-324, 1e-322, 1e-320]
        qs = [law.quantile(p) for p in ps]
        assert [law.cdf(q) for q in qs] == ps
        assert qs[0] < qs[1] < qs[2]

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
                    float(reference_pdf(k, r)), rel=rel, abs=0
                )

    @pytest.mark.parametrize("k", [1e8, 1e12, 1e20, 1e30, 2.8e31, 3.45e32, 1e100, 5e305])
    def test_quantile_monotone_in_p(self, k):
        law = DistanceDistribution(k)
        ps = [5e-324, 1e-300, 1e-10, 0.001, 0.1, 0.5, 0.6, 0.9, 0.999, 1.0 - 1e-12,
              1.0 - 2.0**-53]
        values = [law.quantile(p) for p in ps]
        assert values == sorted(values)
        assert values[0] < values[-1]

    @pytest.mark.parametrize("k", [6.4e28, 2.8e31, 3.45e32, 1e100, 5e305])
    def test_narrow_law_quantile_is_least_double_reaching_p(self, k):
        # Where the law's sd spans at most 16 doubles near its mean.
        law = DistanceDistribution(k)
        for p in (5e-324, 1e-300, 0.001, 0.5, 0.6, 0.9, 1.0 - 2.0**-53):
            r = law.quantile(p)
            assert law.cdf(r) >= p > law.cdf(math.nextafter(r, 0.0)), p

    @pytest.mark.parametrize("k", [1e4, 1e5, 1e6])
    def test_cdf_and_survival_against_mpmath(self, k):
        law = DistanceDistribution(k)
        center = math.sqrt(2.0 * k)
        rs = center + np.array([-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0])
        cdf, sf = law.cdf(rs), law.survival(rs)
        for r, c, s in zip(rs, cdf, sf):
            p_ref, q_ref = reference_gamma_pq(k / 2.0, r**2 / 4.0)
            assert c == pytest.approx(float(p_ref), rel=1e-12, abs=0)
            assert s == pytest.approx(float(q_ref), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "k", [1e4, 1e5, 1e6, 1e8, 1e10, 1e12, 1e15, 1e20, 1e25, 1e30]
    )
    def test_cdf_and_survival_within_the_rounding_of_r2_over_4(self, k):
        # README: within max(5e-13, (x g(x)/tail) eps/2) relative, x = r^2/4
        # and g the Gamma(k/2) density: the change of the tail under half
        # an ulp of x, the rounding of forming it (worst measured 0.78 of
        # the bound, at k = 1e10).  Points -6 to +6 sd of R, sd ~ 0.7071.
        law = DistanceDistribution(k)
        eps = np.finfo(float).eps
        for z in (-6.0, -3.0, -1.0, -0.3, 0.3, 1.0, 3.0, 6.0):
            r = math.sqrt(2.0 * k) + z * 0.7071
            p_ref, q_ref, xg = reference_tails_by_quad(k, r)
            for got, tail in ((law.cdf(r), p_ref), (law.survival(r), q_ref)):
                bound = max(5e-13, float(xg / tail) * eps / 2.0)
                assert float(abs(got - tail) / tail) <= bound, (z, got)

    @pytest.mark.parametrize("k", [1e4, 1e5, 1e6, 1e8])
    def test_quantile_inverts_the_reference_cdf(self, k):
        law = DistanceDistribution(k)
        for p in (0.001, 0.5, 0.999):
            r = law.quantile(p)
            p_ref, _ = reference_gamma_pq(k / 2.0, r**2 / 4.0)
            assert float(p_ref) == pytest.approx(p, rel=1e-10, abs=0)


class TestSampler:
    def test_values_non_negative_and_sorted(self):
        sample = DistanceDistribution(3).sample(1000, 5)
        assert np.all(sample.values >= 0.0)
        assert np.all(np.diff(sample.values) >= 0.0)

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
        se = math.sqrt(moment_set(4).central[0] / n)
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

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            DistanceDistribution(2).sample(10, seed)


class TestStochasticEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_direct_simulation_matches_law(self, k):
        n = 10**5
        sample = simulate_pairs(k, n, 0)
        assert ks_one_sample(sample, DistanceDistribution(k)) < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_direct_simulation_matches_analytic_sampler(self, k):
        n = 10**5
        direct = simulate_pairs(k, n, 0)
        analytic = DistanceDistribution(k).sample(n, 1000)
        assert two_samples_agree(direct.values, analytic.values)

    def test_large_k_standardized_sample_is_nearly_normal(self):
        k, n = 400, 10**5
        sample = DistanceDistribution(k).sample(n, 0)
        z = (sample.values - raw_moment(k, 1)) / math.sqrt(moment_set(k).central[0])
        stat = ks_statistic_against(z, normal_cdf(z))
        assert stat < 1.63 / math.sqrt(n)
