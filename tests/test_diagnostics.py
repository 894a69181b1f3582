import contextlib
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import pdist

from gaussdist.diagnostics import (
    _mean_and_variance,
    effective_dimension,
    fit_report,
    pairwise_distances,
    relative_contrast_curve,
    sample_fit_report,
    standardize,
)
from gaussdist.distribution import DistanceDistribution
from gaussdist.montecarlo import EmpiricalSample
from gaussdist.moments import raw_moment

from _oracles import TWO_SQRT_LN2


def normal_dataset(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))


class TestDatasetMatrix:
    """The checks that every function taking a dataset makes on it."""

    TAKE_A_DATASET = (standardize, pairwise_distances, fit_report)

    def test_rejects_too_few_rows(self):
        for take in self.TAKE_A_DATASET:
            with pytest.raises(ValueError, match="needs >= 2 rows and >= 1 column, got 1x3"):
                take(np.zeros((1, 3)))

    def test_rejects_one_dimensional_input(self):
        for take in self.TAKE_A_DATASET:
            with pytest.raises(ValueError, match="dataset must be a 2-D matrix"):
                take(np.zeros(5))

    def test_rejects_missing_values(self):
        data = np.ones((4, 2))
        data[2, 1] = np.nan
        for take in self.TAKE_A_DATASET:
            with pytest.raises(ValueError, match="non-finite values"):
                take(data)


class TestStandardize:
    def test_two_point_column(self):
        out = standardize(np.array([[0.0], [2.0]]))
        expected = 1.0 / math.sqrt(2.0)
        assert out[:, 0] == pytest.approx([-expected, expected], abs=1e-15)

    def test_columns_have_zero_mean_unit_sd(self):
        out = standardize(normal_dataset(50, 4, 1))
        assert np.all(np.abs(out.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(out.std(axis=0, ddof=1) - 1.0) < 1e-12)

    def test_idempotent(self):
        once = standardize(normal_dataset(30, 3, 2))
        twice = standardize(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_constant_column_error_names_index(self):
        data = np.random.default_rng(0).standard_normal((10, 3))
        data[:, 2] = 4.2
        with pytest.raises(ValueError, match="column 2"):
            standardize(data)

    def test_original_unmodified(self):
        raw = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 6.0]])
        d = raw.copy()
        standardize(d)
        assert np.array_equal(d, raw)

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_a_power_of_two_scale_keeps_the_bits(self, e):
        # At 2^600 and up the squared deviations overflow, at 2^-600 and
        # below they underflow; neither may reach the result.
        data = normal_dataset(50, 6, 7)
        assert standardize(np.ldexp(data, e)).tobytes() == standardize(data).tobytes()

    def test_each_column_keeps_its_bits_whatever_the_others_scale(self):
        data = normal_dataset(40, 4, 8)
        scaled = np.ldexp(data, [0, 700, -900, 0])
        assert standardize(scaled).tobytes() == standardize(data).tobytes()

    @pytest.mark.parametrize("value", [5e-324, 1e-300, 1e300, 1.7e308])
    def test_constant_column_at_any_magnitude_is_refused(self, value):
        data = normal_dataset(10, 3, 9)
        data[:, 1] = value
        with pytest.raises(ValueError, match="column 1 is constant"):
            standardize(data)

    def test_overflowing_sd_gives_a_standardized_column(self):
        # 1e160 is no power of two, so only the moments are checked.
        out = standardize(normal_dataset(12, 3, 0) * 1e160)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(out.std(axis=0, ddof=1) - 1.0) < 1e-12)

    @pytest.mark.parametrize(
        "column",
        [
            [2.0**1000, 1.0, 2.0, 3.0],
            [2.0**1020, -(2.0**1020), 3.0, 1e-7, 2e-7, 5e-300],
            [1e308, 1e-300, 5e-324, -1e308, 7.0],
            [2.0**-1000, 2.0**-1070, 5e-324, 0.0],
        ],
    )
    def test_entries_the_scaling_makes_subnormal_stay_within_an_ulp(self, column):
        # The power-of-two scale of a column spanning 2^1000 or more pushes
        # its small entries below 2^-1022, where they lose bits.
        with mpmath.workdps(60):
            exact = [mpmath.mpf(v) for v in column]
            mean = mpmath.fsum(exact) / len(exact)
            sd = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in exact) / (len(exact) - 1))
            reference = np.array([float((v - mean) / sd) for v in exact])
        out = standardize(np.array(column)[:, None])[:, 0]
        assert np.all(np.abs(out - reference) <= np.spacing(np.abs(reference)))


class TestPairwiseDistances:
    def test_two_points_one_dimension(self):
        sample = pairwise_distances(np.array([[-1.0], [1.0]]))
        assert sample.n == 1
        assert sample.values[0] == pytest.approx(2.0, abs=1e-12)

    def test_collinear_points_scale_as_geometry(self):
        # Three collinear points with unit spacing along the diagonal;
        # distance ratios {1, 1, 2} survive standardization.
        raw = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        sample = pairwise_distances(standardize(raw))
        d = sample.values
        assert d[0] == pytest.approx(d[1], rel=1e-12, abs=0)
        assert d[2] == pytest.approx(2.0 * d[0], rel=1e-12, abs=0)

    def test_pair_count_and_sorting(self):
        sample = pairwise_distances(standardize(normal_dataset(20, 4, 3)))
        assert sample.n == 20 * 19 // 2
        assert np.all(np.diff(sample.values) >= 0.0)

    @pytest.mark.parametrize("cols", [1, 800])
    @pytest.mark.parametrize("rows", [2, 127, 128, 129, 257])
    def test_blocks_cover_every_pair_once(self, rows, cols):
        # Small integer coordinates make every square, Gram entry and
        # squared distance exact, so the sorted distances equal scipy's
        # bit for bit whatever the blocks; a pair missed, repeated or
        # taken from the wrong rows shows.
        rng = np.random.default_rng(rows * cols)
        data = rng.integers(-8, 9, size=(rows, cols)).astype(float)
        sample = pairwise_distances(data)
        assert sample.n == rows * (rows - 1) // 2
        assert np.array_equal(sample.values, np.sort(pdist(data)))

    @pytest.mark.parametrize("rows", [127, 128, 129, 257])
    def test_normal_rows_match_scipy(self, rows):
        data = normal_dataset(rows, 800, rows)
        want = np.sort(pdist(data))
        assert pairwise_distances(data).values == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("e", [-1000, -600, 600, 900])
    def test_a_power_of_two_scale_keeps_the_bits(self, e):
        # At 2^600 and up the squares overflow, at 2^-600 and below they
        # underflow; the distances scale with the data all the same.
        data = normal_dataset(50, 6, 7)
        want = np.ldexp(pairwise_distances(data).values, e)
        assert pairwise_distances(np.ldexp(data, e)).values.tobytes() == want.tobytes()

    def test_a_distance_past_the_double_range_is_refused(self):
        with pytest.raises(ValueError, match="distances must be finite and non-negative"):
            pairwise_distances(np.array([[-1.7e308], [1.7e308]]))

    def test_work_memory_is_the_vector_its_sorted_copy_and_one_block(self):
        # 1000 x 40: the vector and its sorted copy are 3.8 MiB each and a
        # block two 128 x 1000 arrays; an n x n array is 7.6 MiB.  The
        # README gives 7.8 MiB.
        data = standardize(normal_dataset(1000, 40, 5))
        tracemalloc.start()
        try:
            pairwise_distances(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_fit_report_peak_is_the_vector_and_its_sorted_copy(self):
        # 2000 x 10: a 15.3 MiB vector dwarfs a block and the KS knots, so
        # a third copy of the distances (a variance temporary) shows.
        data = standardize(normal_dataset(2000, 10, 5))
        tracemalloc.start()
        try:
            fit_report(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * 8 * (2000 * 1999 // 2)

    def test_sample_fit_report_adds_one_copy_of_the_sample(self):
        law = DistanceDistribution(10.0)
        sample = law.sample(2_000_000, seed=3)
        tracemalloc.start()
        try:
            sample_fit_report(sample, law, dependence_caveat=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * sample.values.nbytes

    def test_refuses_a_distance_vector_above_the_limit(self, monkeypatch):
        # At 1 GiB, 16384 rows have 2^30 - 65536 bytes of distances and
        # 16385 rows 65536 bytes more; the refusal allocates nothing.
        with pytest.raises(
            ValueError,
            match=r"^the 134225920 distances between 16385 rows need 1073807360 bytes, "
            r"above the limit of 1073741824 bytes$",
        ):
            pairwise_distances(np.zeros((16385, 1)))
        # 100 rows have 4950 pairs; the limit is set to their bytes.
        from gaussdist import montecarlo

        monkeypatch.setattr(montecarlo, "_MAX_ARRAY_BYTES", 8 * 4950)
        assert pairwise_distances(normal_dataset(100, 3, 0)).n == 4950
        with pytest.raises(
            ValueError,
            match=r"^the 5050 distances between 101 rows need 40400 bytes, "
            r"above the limit of 39600 bytes$",
        ):
            pairwise_distances(normal_dataset(101, 3, 0))

    def test_simulated_null_data_passes_ks(self):
        # Pairwise distances share points, so the nominal iid critical
        # value is only indicative (roughly half of random seeds pass);
        # this fixed seed passes with a 2x margin.
        from gaussdist.montecarlo import ks_one_sample

        data = standardize(normal_dataset(500, 10, 2))
        sample = pairwise_distances(data)
        assert ks_one_sample(sample, DistanceDistribution(10)) < 1.63 / math.sqrt(sample.n)


class TestDistancePvalue:
    """The p-values of an observed distance are the law's two tails:
    law.cdf(r) how unusually close, law.survival(r) how unusually far."""

    def test_zero_observation(self):
        law = DistanceDistribution(4)
        assert (law.cdf(0.0), law.survival(0.0)) == (0.0, 1.0)

    def test_median_two_dimensions(self):
        law = DistanceDistribution(2)
        assert law.cdf(TWO_SQRT_LN2) == pytest.approx(0.5, rel=1e-13, abs=0)
        assert law.survival(TWO_SQRT_LN2) == pytest.approx(0.5, rel=1e-13, abs=0)

    def test_quantile_round_trip(self):
        law = DistanceDistribution(10)
        assert law.cdf(law.quantile(0.001)) == pytest.approx(0.001, abs=1e-9)
        assert law.survival(law.quantile(0.999)) == pytest.approx(0.001, abs=1e-9)

    @pytest.mark.parametrize("observed", [0.1, 1.0, 3.0, 9.0])
    def test_tails_complement(self, observed):
        law = DistanceDistribution(6)
        assert abs(law.cdf(observed) + law.survival(observed) - 1.0) <= 1e-14

    def test_rejects_negative_observation(self):
        law = DistanceDistribution(2)
        for tail in (law.cdf, law.survival):
            with pytest.raises(ValueError):
                tail(-1.0)


class TestEffectiveDimension:
    @pytest.mark.parametrize(
        "k", [1.0, 1.0000001, 1.01, 2.5, 7.0, 50.0, 400.0, 1e6, 1e12, 1e300, 1.79e308]
    )
    def test_inverts_the_mean(self, k):
        mean = raw_moment(k, 1)
        found = effective_dimension(mean)
        with mpmath.workdps(40 + int(math.log10(k))):
            half = mpmath.mpf(found) / 2
            mean_at_found = 2 * mpmath.exp(mpmath.loggamma(half + 0.5) - mpmath.loggamma(half))
        assert float(mean_at_found) == pytest.approx(mean, rel=1e-15, abs=0.0)

    def test_stops_within_18_steps(self, monkeypatch):
        # Rounding can make the fixed point alternate between two adjacent
        # doubles, as from the mean at k = 1.0560280140070035; the first
        # step that does not lower k must end it.
        from gaussdist import diagnostics

        calls = []
        deficit = diagnostics._variance_deficit
        monkeypatch.setattr(diagnostics, "_variance_deficit",
                            lambda x: calls.append(x) or deficit(x))
        rng = np.random.default_rng(24)
        ks = [1.0560280140070035] + np.linspace(1.0, 40.0, 20_000).tolist()
        ks += np.exp(rng.uniform(math.log(40.0), math.log(1e300), 5_000)).tolist()
        worst = 0
        for k in ks:
            mean = raw_moment(k, 1)
            calls.clear()
            effective_dimension(mean)
            worst = max(worst, len(calls))
        assert worst <= 18

    def test_clamps_at_one(self):
        assert effective_dimension(0.3) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            effective_dimension(-1.0)

    @pytest.mark.parametrize("mean", [1.9e154, 1e200, 1.7e308])
    def test_rejects_a_mean_whose_square_overflows(self, mean):
        # Past about 1.9e154, the mean at the largest finite k.
        with pytest.raises(ValueError, match="too large: no finite k has that mean"):
            effective_dimension(mean)


class TestFitReport:
    def test_requires_ten_rows(self):
        with pytest.raises(ValueError):
            fit_report(standardize(normal_dataset(5, 3, 0)))

    def test_null_data_fields(self):
        data = standardize(normal_dataset(200, 20, 0))
        report = fit_report(data)
        assert report.k == 20.0
        assert report.n_pairs == 200 * 199 // 2
        assert report.dependence_caveat is True
        assert report.mean_expected == pytest.approx(raw_moment(20, 1), rel=1e-14, abs=0)
        assert 18.0 <= report.effective_dimension <= 22.0

    @pytest.mark.parametrize("seed", range(5))
    def test_effective_dimension_on_null_data(self, seed):
        report = fit_report(standardize(normal_dataset(200, 20, seed)))
        assert 18.0 <= report.effective_dimension <= 22.0

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_features_shrink_effective_dimension(self, seed):
        # Ten duplicated column pairs (rank 10 in 20 columns).  Exact
        # duplication scales every distance by sqrt(2) while halving the
        # independent dimension count, which almost cancels in the mean;
        # the estimate drops below the ambient 20 but only mildly
        # (simulation places it near 19.5).
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((200, 10))
        dup = standardize(np.hstack([base, base]))
        iid = standardize(rng.standard_normal((200, 20)))
        eff_dup = fit_report(dup).effective_dimension
        assert eff_dup < fit_report(iid).effective_dimension
        assert 18.5 < eff_dup < 19.9

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_data_shrinks_effective_dimension_dramatically(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((200, 1))
        data = standardize(np.repeat(base, 20, axis=1))
        assert fit_report(data).effective_dimension < 16.0

    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((80, 6))
        scales = rng.uniform(0.5, 20.0, size=6)
        shifts = rng.uniform(-30.0, 30.0, size=6)
        a = fit_report(standardize(raw))
        b = fit_report(standardize(raw * scales + shifts))
        for field in (
            "mean_observed",
            "variance_observed",
            "effective_dimension",
        ):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12, abs=0)
        assert a.ks_statistic == pytest.approx(b.ks_statistic, rel=1e-9, abs=0)

    @pytest.mark.parametrize("values", [
        [0.0, 1e154, 2e154] + [1.0] * 26,
        [0.0] * 99 + [1e155],
        [0.0, 1.8e154, 1.9e154],
    ])
    def test_variance_past_square_overflow(self, values):
        # The squared deviations overflow, the variance does not.
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
        report = sample_fit_report(
            EmpiricalSample(np.array(values)),
            DistanceDistribution(3.0),
            dependence_caveat=False,
        )
        assert abs(Fraction(report.variance_observed) - var) <= var * Fraction(1e-15)

    def test_variance_beyond_double_range_is_value_error(self):
        sample = EmpiricalSample(np.array([0.0, 2.6e154]))
        with pytest.raises(ValueError, match="variance exceeds the double range"):
            sample_fit_report(sample, DistanceDistribution(3.0), dependence_caveat=False)

    def test_mean_past_sum_overflow_is_value_error(self):
        # The sum overflows, the mean does not; no finite dimension has a
        # mean above about 1.9e154.
        sample = EmpiricalSample(np.array([1.7e308, 1e308]))
        with pytest.raises(ValueError, match=r"1\.35e\+308 is too large: no finite k has that mean"):
            sample_fit_report(sample, DistanceDistribution(3.0), dependence_caveat=False)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
    def test_variance_below_overflow_is_numpys(self, scale):
        values = scale * np.random.default_rng(4).uniform(0.0, 3.0, 500)
        sample = EmpiricalSample(values)
        report = sample_fit_report(sample, DistanceDistribution(3.0), dependence_caveat=False)
        assert report.mean_observed == float(np.mean(sample.values))
        assert report.variance_observed == float(np.var(sample.values, ddof=1))

    @pytest.mark.parametrize("seed", range(12))
    def test_mean_and_variance_keep_the_bits_of_the_unscaled_formula(self, seed):
        # The reference: numpy's mean and variance of the raw values, formed
        # again from the values scaled by a power of two where the variance
        # overflows.  Scales 1e153-1.9e154 take that second path.
        def unscaled_first(values):
            with np.errstate(over="ignore"):
                mean = float(np.mean(values))
                var = float(np.var(values, ddof=1))
            if math.isinf(var):
                exp = math.frexp(float(np.max(values)))[1]
                scaled = np.ldexp(values, -exp)
                if math.isinf(mean):
                    mean = math.ldexp(float(np.mean(scaled)), exp)
                with contextlib.suppress(OverflowError):
                    var = math.ldexp(float(np.var(scaled, ddof=1)), 2 * exp)
            return mean, var

        rng = np.random.default_rng(seed)
        for scale in (10.0 ** rng.uniform(-100, 150), rng.uniform(1e153, 1.9e154)):
            values = EmpiricalSample(scale * rng.uniform(0.0, 3.0, rng.integers(2, 2000))).values
            got, want = _mean_and_variance(values), unscaled_first(values)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_json_round_trip(self):
        # to_dict holds only strict-JSON values (no NaN or inf), so the
        # report serialises without loss.
        import json

        payload = fit_report(standardize(normal_dataset(50, 5, 1))).to_dict()
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload


class TestRelativeContrast:
    def test_deterministic_per_dimension_and_seed(self):
        first = relative_contrast_curve([4, 9], 50, 123)
        again = relative_contrast_curve([9], 50, 123)
        assert first[1] == again[0]

    def test_contrast_positive(self):
        for row in relative_contrast_curve([1, 10, 100], 100, 0):
            assert row.contrast > 0.0
            assert row.d_max >= row.d_min > 0.0

    def test_mean_contrast_decays_with_dimension(self):
        ks = [1, 10, 100]
        totals = {k: 0.0 for k in ks}
        for seed in range(5):
            for row in relative_contrast_curve(ks, 100, seed):
                totals[row.k] += row.contrast
        assert totals[1] > totals[10] > totals[100]

    def test_contrast_collapses_by_dimension_one_thousand(self):
        totals = {1: 0.0, 1000: 0.0}
        for seed in range(20):
            for row in relative_contrast_curve([1, 1000], 100, seed):
                totals[row.k] += row.contrast
        assert totals[1000] < totals[1] / 5.0

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            relative_contrast_curve([2], 2, 0)

    def test_rejects_empty_dimension_list(self):
        with pytest.raises(ValueError):
            relative_contrast_curve([], 10, 0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            relative_contrast_curve([0], 10, 0)

    def test_refuses_an_array_above_one_gibibyte(self):
        # 100 x 10^7 doubles is 7.45 GiB; refused before the k = 2 row is drawn.
        with pytest.raises(ValueError, match="100 x 10000000 array"):
            relative_contrast_curve([2, 10**7], 100, 0)

    def test_array_limit_is_inclusive(self, monkeypatch):
        from gaussdist import montecarlo

        monkeypatch.setattr(montecarlo, "_MAX_ARRAY_BYTES", 8 * 20 * 5)
        assert len(relative_contrast_curve([5], 20, 0)) == 1
        with pytest.raises(
            ValueError,
            match=r"^a 21 x 5 array of doubles needs 840 bytes, above the limit of 800 bytes$",
        ):
            relative_contrast_curve([5], 21, 0)
