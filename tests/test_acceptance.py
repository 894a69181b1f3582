"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Stated runtime budgets are asserted as part of the
criterion.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gaussdist.cli import main
from gaussdist.distribution import DistanceDistribution
from gaussdist.moments import moment_set, raw_moment
from gaussdist.montecarlo import ks_one_sample, simulate_pairs
from gaussdist.diagnostics import fit_report, relative_contrast_curve, standardize

from _oracles import (
    INV_SQRT_PI,
    TWO_SQRT_LN2,
    closed_form_mu4,
    ks_statistic_against,
    normal_cdf,
    two_samples_agree,
    quad_moment,
)

FIG4_SET = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 100)


@contextlib.contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {label}")
        raise
    elapsed = time.perf_counter() - start
    note = f" ({elapsed:.2f}s of {budget:.0f}s budget)" if budget else f" ({elapsed:.2f}s)"
    print(f"PASS  criterion {number:2d}: {label}{note}")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"


def test_criterion_01_normalization():
    with criterion(1, "density integrates to 1 for the overlay dimension set", budget=5.0):
        for k in FIG4_SET:
            law = DistanceDistribution(k)
            upper = law.quantile(1.0 - 1e-12)
            total, _ = quad(law.pdf, 0.0, upper, epsabs=1e-12, epsrel=1e-12, limit=200)
            assert abs(total - 1.0) <= 1e-8, (k, total)


def test_criterion_02_one_dimensional_golden_case():
    with criterion(2, "k=1 density equals exp(-x^2/4)/sqrt(pi) to 1e-15"):
        law = DistanceDistribution(1)
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            exact = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
            assert abs(law.pdf(x) - exact) <= 1e-15 * exact, x


def test_criterion_03_two_dimensional_closed_forms():
    with criterion(3, "k=2 CDF matches 1 - exp(-r^2/4) and median equals 2 sqrt(ln 2)"):
        law = DistanceDistribution(2)
        for r in np.arange(0.01, 10.0001, 0.01):
            exact = -math.expm1(-r * r / 4.0)
            assert abs(law.cdf(float(r)) - exact) <= 1e-13 * exact, r
        assert abs(law.quantile(0.5) - TWO_SQRT_LN2) <= 1e-10


def test_criterion_04_moment_suite():
    with criterion(4, "closed-form moments match quadrature; m2 = 2k up to k = 1e6", budget=10.0):
        for k in (1, 2, 3, 5, 10, 50):
            law = DistanceDistribution(k)
            upper = law.quantile(1.0 - 1e-13) * 1.5
            mean = raw_moment(k, 1)
            for n in (1, 2, 3, 4):
                numeric = quad_moment(law.pdf, n, 0.0, upper)
                closed = raw_moment(k, n)
                assert abs(closed - numeric) <= 1e-8 * abs(numeric), (k, n)
            for n, closed in zip((2, 3, 4), moment_set(k).central):
                numeric = quad_moment(law.pdf, n, mean, upper)
                assert abs(closed - numeric) <= 1e-8 * abs(numeric), (k, n)
        for k in (1.0, 2.0, 17.5, 1e2, 1e3, 1e4, 1e5, 1e6):
            assert abs(raw_moment(k, 2) - 2.0 * k) <= 1e-12 * 2.0 * k, k


def test_criterion_05_monte_carlo_validation():
    with criterion(5, "direct simulation and analytic sampler agree with the law (KS)", budget=60.0):
        n = 10**5
        for k in (1, 2, 8, 64):
            law = DistanceDistribution(k)
            one_sample_passes = 0
            two_sample_passes = 0
            for seed in range(5):
                direct = simulate_pairs(k, n, seed)
                one_sample_passes += ks_one_sample(direct, law) < 1.63 / math.sqrt(n)
                analytic = law.sample(n, seed + 1000)
                two_sample_passes += two_samples_agree(direct.values, analytic.values)
            assert one_sample_passes >= 4, (k, one_sample_passes)
            assert two_sample_passes >= 4, (k, two_sample_passes)


def test_criterion_06_large_k_asymptotics():
    with criterion(6, "variance tends to 1 without cancellation; k=400 sample is near normal"):
        assert abs(moment_set(1e4).central[0] - 1.0) < 1e-3
        for k in (1e2, 1e3, 1e4, 1e5, 1e6):
            v = moment_set(k).central[0]
            assert math.isfinite(v) and v > 0.0, k
        k, n = 400, 10**5
        sample = DistanceDistribution(k).sample(n, 0)
        z = (sample.values - raw_moment(k, 1)) / math.sqrt(moment_set(k).central[0])
        stat = ks_statistic_against(z, normal_cdf(z))
        assert stat < 1.63 / math.sqrt(n), stat


def test_criterion_07_kurtosis_adjudication():
    with criterion(7, "kurtosis is mu4/mu2^2; the bare mu4 expression is not a kurtosis"):
        for k in range(1, 21):
            law = DistanceDistribution(k)
            upper = law.quantile(1.0 - 1e-13) * 1.5
            mean = raw_moment(k, 1)
            mu2_numeric = quad_moment(law.pdf, 2, mean, upper)
            mu4_numeric = quad_moment(law.pdf, 4, mean, upper)
            oracle = mu4_numeric / mu2_numeric**2
            assert abs(moment_set(k).kurtosis - oracle) <= 1e-8 * oracle, k
        assert 2.95 < moment_set(400).kurtosis < 3.05
        # The direct gamma-function display reproduces the fourth central
        # moment itself (quadrature-verified), which differs from the
        # dimensionless ratio mu4/mu2^2 by the mu2^2 factor; at k = 3 the
        # two values are far apart, so the distinction is observable.
        k = 3
        law = DistanceDistribution(k)
        upper = law.quantile(1.0 - 1e-13) * 1.5
        mu4_numeric = quad_moment(law.pdf, 4, raw_moment(k, 1), upper)
        assert abs(closed_form_mu4(k) - mu4_numeric) <= 1e-8 * mu4_numeric
        assert abs(closed_form_mu4(k) - moment_set(k).kurtosis) > 0.5


def test_criterion_08_effective_dimension():
    with criterion(8, "effective dimension recovers the true k within 10%", budget=30.0):
        for k in (5, 20, 100):
            estimates = []
            for seed in range(5):
                rng = np.random.default_rng(seed)
                data = standardize(rng.standard_normal((200, k)))
                estimates.append(fit_report(data).effective_dimension)
            average = float(np.mean(estimates))
            assert 0.9 * k <= average <= 1.1 * k, (k, average)


def test_criterion_09_relative_contrast_decay():
    with criterion(9, "mean relative contrast strictly decreases along k", budget=30.0):
        ks = (1, 10, 100, 1000)
        totals = {k: 0.0 for k in ks}
        for seed in range(20):
            for row in relative_contrast_curve(ks, 100, seed):
                totals[row.k] += row.contrast
        means = [totals[k] / 20.0 for k in ks]
        assert means[0] > means[1] > means[2] > means[3], means


def test_criterion_10_figure_reproduction(tmp_path):
    with criterion(10, "plot-data emission: 11 normalized series; 1-d peak at 1/sqrt(pi)"):
        fig4 = tmp_path / "fig4.csv"
        assert main(["plotdata", "--figure", "fig4", "--output", str(fig4)]) == 0
        rows = [line.split(",") for line in fig4.read_text().splitlines()]
        header, data = rows[0], np.asarray(rows[1:], dtype=float)
        assert len(header) - 1 == 11
        for col in range(1, 12):
            mass = np.trapezoid(data[:, col], data[:, 0])
            assert abs(mass - 1.0) <= 2e-3, header[col]
        fig2 = tmp_path / "fig2.csv"
        assert main(["plotdata", "--figure", "fig2", "--output", str(fig2)]) == 0
        peak = float(fig2.read_text().splitlines()[1].split(",")[1])
        assert abs(peak - INV_SQRT_PI) <= 1e-12


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "sample outputs are byte-identical across runs and threads, contrast "
                       "outputs across runs"):
        sample_outputs = []
        for i, threads in enumerate(("1", "1", "4")):
            path = tmp_path / f"s{i}.txt"
            assert main(
                ["sample", "--k", "3", "--n", "300000", "--seed", "11",
                 "--method", "direct", "--threads", threads, "--output", str(path)]
            ) == 0
            sample_outputs.append(path.read_bytes())
        assert sample_outputs[0] == sample_outputs[1] == sample_outputs[2]
        contrast_outputs = []
        for i in range(2):
            path = tmp_path / f"c{i}.txt"
            assert main(
                ["contrast", "--k", "1,10,100", "--n", "100", "--seeds", "5",
                 "--output", str(path)]
            ) == 0
            contrast_outputs.append(path.read_bytes())
        assert contrast_outputs[0] == contrast_outputs[1]
