import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdist import __version__, cli, specfun
from gaussdist.cli import _parse_dataset, _read_sample_file, main
from gaussdist.diagnostics import FitReport, fit_report, standardize

from _oracles import INV_SQRT_PI, TWO_SQRT_LN2

# The keys of the JSON fit report, in the order the README lists them.
REPORT_KEYS = [
    "k", "n_pairs", "ks_statistic", "ks_critical_01", "ks_passed", "mean_observed",
    "mean_expected", "variance_observed", "variance_expected", "effective_dimension",
    "dependence_caveat",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_pdf_k1_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "1", "--which", "pdf", "--at", "0")
        assert code == 0
        assert out.splitlines() == ["0.0 0.5641895835477563"]

    def test_negative_distance_in_a_list_is_usage_error(self, capsys):
        assert run(capsys, "eval", "--k", "3", "--which", "cdf", "--at", "1,-1") == (
            2, "", "usage error: distance must be finite and non-negative\n"
        )

    def test_cdf_k2_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "2", "--which", "cdf", "--at", "0")
        assert code == 0
        assert float(out.split()[1]) == 0.0

    def test_quantile_median_k2(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--k", "2", "--which", "quantile", "--at", "0.5"
        )
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(TWO_SQRT_LN2, abs=1e-10)

    def test_grid_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--k", "3", "--which", "cdf", "--grid", "0:2:0.5"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        values = [float(line.split()[1]) for line in lines]
        assert values == sorted(values)

    @pytest.mark.parametrize("which,value", [("pdf", 0.0), ("cdf", 1.0), ("survival", 0.0)])
    def test_distance_whose_square_overflows(self, capsys, which, value):
        code, out, err = run(capsys, "eval", "--k", "3", "--which", which, "--at", "1e200")
        assert (code, out, err) == (0, f"1e+200 {value}\n", "")

    def test_rows_round_trip_through_repr(self, capsys):
        _, out, _ = run(capsys, "eval", "--k", "7", "--which", "pdf", "--grid", "0:8:0.25")
        from gaussdist.distribution import DistanceDistribution

        law = DistanceDistribution(7)
        for line in out.splitlines():
            x, value = (float(cell) for cell in line.split())
            assert value == law.pdf(x)

    @pytest.mark.parametrize(
        "grid",
        ["bad", "1:0:0.5", "0:1:0", "0:1:-2", "0:1",
         "0:nan:1", "0:inf:1", "nan:1:0.5", "0:1:inf", "0:1e12:1e-3", "0:1e308:1e-308"],
    )
    def test_malformed_grid_is_usage_error(self, capsys, grid):
        code, _, err = run(capsys, "eval", "--k", "2", "--which", "pdf", "--grid", grid)
        assert code == 2
        assert "grid" in err

    def test_quantile_probability_out_of_range(self, capsys):
        code, _, _ = run(capsys, "eval", "--k", "2", "--which", "quantile", "--at", "1.0")
        assert code == 2

    def test_missing_grid_and_points(self, capsys):
        code, _, _ = run(capsys, "eval", "--k", "2", "--which", "pdf")
        assert code == 2

    def test_grid_and_points_together_is_usage_error(self, capsys):
        argv = ("eval", "--k", "3", "--which", "pdf", "--grid", "0:1:0.5", "--at", "7")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --at: not allowed with argument --grid\n")

    @pytest.mark.parametrize("k", ["nan", "0.5"])
    def test_bad_dimension_is_usage_error(self, capsys, k):
        code, _, err = run(capsys, "eval", "--k", k, "--which", "cdf", "--at", "1")
        assert code == 2
        assert "dimension" in err

    def test_non_convergence_is_exit_three(self, capsys, monkeypatch):
        # Five series terms are too few for P(1.5, 0.25) to reach its
        # tolerance, so the kernel raises ConvergenceError.
        monkeypatch.setattr(specfun, "_MAX_ITERATIONS", 5)
        # One point takes the per-point path, 40 points the array lanes.
        for at in ("1", ",".join(["1"] * 40)):
            code, out, err = run(capsys, "eval", "--k", "3", "--which", "cdf", "--at", at)
            assert code == 3
            assert out == "" and err.startswith("error: ") and "Traceback" not in err

    def test_huge_dimension_quantiles_settle(self, capsys):
        # Past k ~ 1e32 the law is narrower than the spacing of doubles
        # near its median; the quantile is then the double at which the
        # tail test turns.
        code, out, err = run(capsys, "eval", "--k", "1e45", "--which", "quantile",
                             "--at", "1e-10,0.001,0.5,0.999")
        assert (code, err) == (0, "")
        values = [float(line.split()[1]) for line in out.splitlines()]
        assert values == pytest.approx([math.sqrt(2e45)] * 4, rel=1e-15, abs=0)

    def test_large_dimension_quantiles_increase(self, capsys):
        code, out, err = run(capsys, "eval", "--k", "1e20", "--which", "quantile",
                             "--at", "0.001,0.5,0.9")
        assert (code, err) == (0, "")
        values = [float(line.split()[1]) for line in out.splitlines()]
        assert len(values) == 3 and values[0] < values[1] < values[2]

    def test_dimension_past_log_gamma_overflow_is_accepted(self, capsys):
        # log Gamma(k/2) overflows past k ~ 5.1e305, but the law never
        # forms it: every finite k >= 1 is a dimension.
        code, out, err = run(capsys, "eval", "--k", "1.7e308", "--which", "pdf", "--at", "1")
        assert (code, out, err) == (0, "1.0 0.0\n", "")

    @settings(max_examples=200, deadline=None)
    @given(
        which=st.sampled_from(["pdf", "cdf", "survival", "quantile"]),
        data=st.data(),
    )
    def test_any_dimension_and_point_prints_finite_rows(self, which, data):
        # k log-uniform over every finite k >= 1; distances log-uniform
        # in [1e-300, 1e150], probabilities uniform in [0, 1).
        log_k = data.draw(st.floats(0.0, math.log(sys.float_info.max)))
        if which == "quantile":
            point = st.floats(0.0, 1.0, exclude_max=True)
        else:
            point = st.floats(-300.0, 150.0).map(lambda e: 10.0**e)
        points = data.draw(st.lists(point, min_size=1, max_size=4))
        argv = ["eval", "--k", repr(math.exp(log_k)), "--which", which,
                "--at", ",".join(map(repr, points))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, "")
        rows = [[float(cell) for cell in line.split()] for line in out.getvalue().splitlines()]
        assert len(rows) == len(points)
        assert all(len(row) == 2 and all(map(math.isfinite, row)) for row in rows)
        if which == "quantile":
            values = [value for _, value in sorted(rows)]
            assert values == sorted(values)

    def test_values_do_not_depend_on_the_blas_kernel(self):
        # OpenBLAS picks its kernels by CPU type at load time.  A build that
        # ignores OPENBLAS_CORETYPE passes trivially.
        outputs = set()
        for core in ("Nehalem", "Sandybridge"):
            proc = subprocess.run(
                [sys.executable, "-m", "gaussdist", "eval", "--k", "100", "--which", "cdf",
                 "--grid", "11:17:0.003"],
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.dirname(__file__)),
                env=dict(os.environ, PYTHONPATH="src", OPENBLAS_CORETYPE=core),
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_grid_rows_match_scalar_calls(self, capsys):
        # One array call per grid; each iterative lane stops at its own
        # convergence point, so a row equals the scalar call bit for bit.
        from gaussdist.distribution import DistanceDistribution

        law = DistanceDistribution(2000)
        for which in ("cdf", "survival"):
            _, out, _ = run(capsys, "eval", "--k", "2000", "--which", which,
                            "--grid", "55:75:0.5")
            for line in out.splitlines():
                x, value = (float(cell) for cell in line.split())
                assert value == getattr(law, which)(x)


class TestMoments:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "moments", "--k", "1,2")
        assert code == 0
        header, row1, row2 = out.splitlines()
        assert header.split() == [
            "k", "m1", "m2", "m3", "m4", "mu2", "mu3", "mu4", "skewness", "kurtosis",
        ]
        cells1 = [float(c) for c in row1.split()]
        cells2 = [float(c) for c in row2.split()]
        assert cells1[1] == pytest.approx(1.1283791671, abs=1e-9)
        assert cells2[2] == 4.0

    def test_empty_list_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "moments", "--k", "")
        assert code == 2

    def test_bad_dimension_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "moments", "--k", "0.5")
        assert code == 2

    def test_huge_dimension_has_finite_central_moments(self, capsys):
        # At k = 1.7e308, 8k overflows: mu4 must form k (1 - mu2) first.
        # m1 ~ sqrt(2k) stays finite; m3 ~ (2k)^1.5 and m4 ~ 4k^2 do not.
        code, out, _ = run(capsys, "moments", "--k", "1e200,1e306,1.7e308")
        assert code == 0
        header, *rows = (line.split() for line in out.splitlines())
        assert len(rows) == 3
        for row in rows:
            cells = dict(zip(header, map(float, row)))
            assert all(math.isfinite(cells[key])
                       for key in ("m1", "mu2", "mu3", "mu4", "skewness", "kurtosis"))
        cells = dict(zip(header, map(float, rows[1])))
        assert cells["m3"] == cells["m4"] == math.inf

    def test_rows_at_the_top_of_the_domain(self, capsys):
        # Raw moments past the double range are inf; the rest are finite.
        code, out, err = run(capsys, "moments", "--k", "1e306,1e307,1.7e308,1.79e308")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "1e+306 1.414213562373095e+153 2e+306 inf inf 1.0 7.071067811865475e-154 3.0 "
            "7.071067811865475e-154 3.0",
            "1e+307 4.4721359549995795e+153 2e+307 inf inf 1.0 2.23606797749979e-154 3.0 "
            "2.23606797749979e-154 3.0",
            "1.7e+308 1.8439088914585775e+154 inf inf inf 1.0 5.423261445466406e-155 "
            "2.9999999999999996 5.423261445466406e-155 2.9999999999999996",
            "1.79e+308 1.89208879284245e+154 inf inf inf 1.0 5.285164225816908e-155 "
            "2.9999999999999964 5.285164225816908e-155 2.9999999999999964",
        ]


class TestSample:
    def test_header_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for path in (out1, out2):
            code = main(
                ["sample", "--k", "3", "--n", "50", "--seed", "9",
                 "--method", "analytic", "--output", str(path)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "# k: 3.0"
        assert lines[1] == "# n: 50"
        assert lines[2] == "# seed: 9"
        assert lines[3] == "# method: analytic"
        assert lines[4].startswith("# version:")
        assert len(lines) == 5 + 50

    def test_thread_count_invariance(self, tmp_path):
        paths = []
        for threads in ("1", "4"):
            path = tmp_path / f"t{threads}.txt"
            assert main(
                ["sample", "--k", "2", "--n", "40000", "--seed", "3",
                 "--method", "direct", "--threads", threads, "--output", str(path)]
            ) == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_zero_draws_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sample", "--k", "2", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("command", ["sample"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, capsys, command, threads):
        argv = ["--k", "2", "--n", "10", "--threads", threads]
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert "--threads" in err and out == ""

    def test_direct_method_needs_integer_dimension(self, capsys):
        code, _, _ = run(
            capsys, "sample", "--k", "2.5", "--n", "10", "--method", "direct"
        )
        assert code == 2


class TestTest:
    def make_sample(self, tmp_path, k, n, seed, method="direct"):
        path = tmp_path / f"sample_k{k}_{seed}.txt"
        assert main(
            ["sample", "--k", str(k), "--n", str(n), "--seed", str(seed),
             "--method", method, "--output", str(path)]
        ) == 0
        return path

    def test_matching_law_passes(self, capsys, tmp_path):
        path = self.make_sample(tmp_path, 3, 20000, 0)
        code, out, _ = run(capsys, "test", str(path), "--k", "3")
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["ks_passed"] is True
        assert payload["dependence_caveat"] is False
        assert payload["n_pairs"] == 20000

    def test_k_defaults_to_file_header(self, capsys, tmp_path):
        path = self.make_sample(tmp_path, 3, 5000, 1)
        code, out, _ = run(capsys, "test", str(path))
        assert code == 0
        assert json.loads(out.splitlines()[-1])["k"] == 3.0

    @pytest.mark.parametrize("k", ["nan", "0.5", "1e400"])
    def test_header_dimension_the_law_refuses_is_data_error(self, capsys, tmp_path, k):
        path = tmp_path / "sample.txt"
        path.write_text(f"# k: {k}\n1.0\n2.0\n1.5\n")
        code, out, err = run(capsys, "test", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {path}: bad k in header: ") and err.count("\n") == 1

    @pytest.mark.parametrize("k", ["1e306", "1e307", "1.7e308", "1.79e308"])
    def test_sample_then_test_at_the_top_of_the_domain(self, capsys, tmp_path, k):
        # The law is narrower than the spacing of doubles here, so the KS
        # verdict may fail, but the run is no usage or data error, and the
        # sample's mean has an effective dimension.
        path = tmp_path / "sample.txt"
        assert run(capsys, "sample", "--k", k, "--n", "200", "--seed", "3",
                   "--output", str(path))[0] == 0
        code, out, err = run(capsys, "test", str(path))
        assert code in (0, 1) and err == ""
        assert math.isfinite(json.loads(out.splitlines()[-1])["effective_dimension"])

    def test_no_k_header_and_no_k_argument_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n2.0\n1.5\n")
        assert run(capsys, "test", str(path)) == (
            2, "", "usage error: test needs --k (sample file has no k header)\n"
        )

    def test_argument_dimension_the_law_refuses_stays_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("# k: 3\n1.0\n2.0\n1.5\n")
        code, out, err = run(capsys, "test", str(path), "--k", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_gross_mismatch_fails_with_status_one(self, capsys, tmp_path):
        path = self.make_sample(tmp_path, 2, 5000, 0, method="analytic")
        code, out, _ = run(capsys, "test", str(path), "--k", "20")
        assert code == 1
        assert json.loads(out.splitlines()[-1])["ks_passed"] is False

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "test", str(tmp_path / "absent.txt"), "--k", "2")
        assert code == 3

    def test_corrupt_value_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\nnot-a-number\n")
        code, _, err = run(capsys, "test", str(path), "--k", "2")
        assert code == 3
        assert "line 2" in err

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_value_is_io_error(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"1.5\n{bad}\n2.0\n")
        code, _, err = run(capsys, "test", str(path), "--k", "2")
        assert code == 3
        assert "finite" in err

    def test_mean_too_large_for_any_dimension_is_one_error_line(self, capsys, tmp_path):
        # The law takes these distances (cdf 1), but no dimension has
        # their mean: its square overflows.
        path = tmp_path / "huge.txt"
        path.write_text("1e200\n2e200\n3e200\n")
        code, out, err = run(capsys, "test", str(path), "--k", "3")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {path}: mean distance") and err.count("\n") == 1

    def test_mean_past_sum_overflow_is_one_error_line(self, capsys, tmp_path):
        # The sum overflows, the mean 1.35e308 does not, but no finite k
        # has a mean above about 1.9e154.
        path = tmp_path / "huge.txt"
        path.write_text("1.7e308\n1e308\n")
        code, out, err = run(capsys, "test", str(path), "--k", "3")
        assert (code, out) == (3, "")
        assert err == (f"error: {path}: mean distance 1.35e+308 is too large: "
                       "no finite k has that mean\n")

    def test_variance_past_square_overflow_is_reported(self, capsys, tmp_path):
        # Squared deviations of 1e154 overflow; the variance 1.67e307 does not.
        path = tmp_path / "wide.txt"
        path.write_text("0\n1e154\n2e154\n" + "1\n" * 26)
        code, out, err = run(capsys, "test", str(path), "--k", "3")
        assert (code, err) == (1, "")

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(out.splitlines()[-1], parse_constant=refuse)
        assert payload["variance_observed"] == pytest.approx(
            1.6748768472906404e307, rel=1e-15, abs=0
        )

    def test_variance_beyond_double_range_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "wider.txt"
        path.write_text("0\n2.6e154\n")
        code, out, err = run(capsys, "test", str(path), "--k", "3")
        assert (code, out) == (3, "")
        assert err == f"error: {path}: the observed variance exceeds the double range\n"

    def test_two_numbers_on_a_line_name_the_line(self, capsys, tmp_path):
        # Every line holds two numbers, so numpy's reader parses a clean
        # two-column table; it is still not a sample file.
        path = tmp_path / "pairs.txt"
        path.write_text("# k: 2\n1.5 2.5\n3.0 4.0\n")
        code, _, err = run(capsys, "test", str(path))
        assert code == 3
        assert "line 2" in err and "'1.5 2.5'" in err

    @pytest.mark.parametrize("spelling", ["1_0", "\u0661"])
    def test_spellings_outside_the_grammar_name_the_line(self, capsys, tmp_path, spelling):
        path = tmp_path / "odd.txt"
        path.write_text(f"# k: 2\n1.5\n\n{spelling}\n", encoding="utf-8")
        code, _, err = run(capsys, "test", str(path))
        assert code == 3
        assert "line 4" in err

    def test_comments_only_file_is_io_error_without_warning(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# k: 2\n\n# nothing else\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "test", str(path))
        assert code == 3
        assert "no sample values" in err

    @pytest.mark.parametrize("header,argv", [(False, ["--k", "3"]), (True, [])])
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, header, argv):
        from gaussdist.distribution import DistanceDistribution

        plain = tmp_path / "plain.txt"
        values = DistanceDistribution(3.0).sample(500, seed=4).values.tolist()
        plain.write_text(("# k: 3\n" if header else "") + "".join(f"{v!r}\n" for v in values))
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "test", str(plain), *argv)
        assert expected[0] == 0
        assert run(capsys, "test", str(marked), *argv) == expected

    def test_undecodable_file_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# k: 2\n1.5\n\xff\n")
        code, _, err = run(capsys, "test", str(path))
        assert code == 3
        assert "cannot read" in err

    def test_single_value_is_io_error(self, capsys, tmp_path):
        # One distance has no sample variance; it is refused, not printed as NaN.
        path = tmp_path / "one.txt"
        path.write_text("# k: 2\n1.5\n")
        code, out, err = run(capsys, "test", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {path}: fit report needs at least 2 distances, got 1\n"

    def test_json_written_to_output(self, capsys, tmp_path):
        sample = self.make_sample(tmp_path, 4, 2000, 5)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "test", str(sample), "--output", str(out_path))
        payload = json.loads(out_path.read_text())
        assert payload == json.loads(out.splitlines()[-1])
        assert list(payload) == REPORT_KEYS

    def test_stdout_is_the_report_written_to_output(self, capsys, tmp_path):
        # One JSON line, as diagnose prints it, and nothing else.
        sample = self.make_sample(tmp_path, 4, 2000, 5)
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "test", str(sample), "--output", str(out_path))
        assert (code, err) == (0, "")
        assert out == out_path.read_text()

    def test_unwritable_output_leaves_stdout_empty(self, capsys, tmp_path):
        sample = self.make_sample(tmp_path, 4, 2000, 5)
        code, out, err = run(capsys, "test", str(sample), "--output", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("k", ["0", "nan", "1e400"])
    @pytest.mark.parametrize(
        "content",
        [None, b"# k: 2\n1.5\n\xff\n", b"# k: 2\n1.0\nabc\n", b"# k: 2\n1.0\n2.0\n1.5\n"],
        ids=["missing", "undecodable", "corrupt", "valid"],
    )
    def test_bad_dimension_argument_is_usage_error_whatever_the_file_holds(
        self, capsys, tmp_path, k, content
    ):
        # --k is checked before the file is read.
        path = tmp_path / "sample.txt"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "test", str(path), "--k", k)
        assert (code, out) == (2, "")
        assert err == f"usage error: dimension k must be a finite real >= 1, got {float(k)}\n"


class TestDiagnose:
    def write_csv(self, tmp_path, matrix, delimiter=",", header=None):
        path = tmp_path / "data.csv"
        lines = [] if header is None else [delimiter.join(header)]
        lines += [delimiter.join(repr(float(v)) for v in row) for row in matrix]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_simulated_null_dataset(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = self.write_csv(tmp_path, rng.standard_normal((200, 20)))
        code, out, _ = run(capsys, "diagnose", str(path))
        assert code == 0
        payload = json.loads(out.strip())
        assert 18.0 <= payload["effective_dimension"] <= 22.0
        assert payload["dependence_caveat"] is True
        assert payload["n_pairs"] == 200 * 199 // 2

    def test_header_row_is_skipped(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        path = self.write_csv(
            tmp_path, rng.standard_normal((30, 3)), header=["a", "b", "c"]
        )
        code, out, _ = run(capsys, "diagnose", str(path))
        assert code == 0
        assert json.loads(out.strip())["k"] == 3.0

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, np.random.default_rng(5).standard_normal((40, 4)))
        expected = run(capsys, "diagnose", str(path))
        assert expected[0] == 0
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, "diagnose", str(path)) == expected

    def test_ragged_rows_name_the_line(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n4.0,5.0\n")
        code, _, err = run(capsys, "diagnose", str(path))
        assert code == 3
        assert "line 2" in err

    def test_non_numeric_cell_names_row_and_column(self, capsys, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n")
        code, _, err = run(capsys, "diagnose", str(path))
        assert code == 3
        assert "row 1" in err and "column 1" in err

    def test_alternate_delimiter(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        path = self.write_csv(tmp_path, rng.standard_normal((30, 4)), delimiter=";")
        code, out, _ = run(capsys, "diagnose", str(path), "--delimiter", ";")
        assert code == 0
        assert json.loads(out.strip())["k"] == 4.0

    @pytest.mark.parametrize("delimiter", [";;", "", "\n"])
    def test_delimiter_must_be_one_character(self, capsys, tmp_path, delimiter):
        path = self.write_csv(tmp_path, np.ones((5, 2)))
        code, _, err = run(capsys, "diagnose", str(path), "--delimiter", delimiter)
        assert code == 2
        assert "delimiter" in err

    def test_bad_delimiter_is_usage_error_before_the_file_is_read(self, capsys, tmp_path):
        code, out, err = run(capsys, "diagnose", str(tmp_path / "absent.csv"),
                             "--delimiter", "ab")
        assert (code, out) == (2, "")
        assert err == ("usage error: --delimiter must be one character other than a "
                       "line break, got 'ab'\n")

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "", "2 3"])
    def test_cells_outside_the_grammar_name_row_and_column(self, capsys, tmp_path, cell):
        path = tmp_path / "cell.csv"
        path.write_text(f"x,y\n# note\n1.0,2.0\n\n3.0,{cell}\n", encoding="utf-8")
        code, _, err = run(capsys, "diagnose", str(path))
        assert code == 3
        assert "line 5: row 1, column 1" in err

    def test_no_standardize_trusts_the_data(self, capsys, tmp_path):
        # Shifted and scaled data: standardizing it changes the report.
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((100, 5)) * [1.0, 2.0, 0.5, 3.0, 1.5] + 4.0
        path = self.write_csv(tmp_path, matrix)
        code, out, err = run(capsys, "diagnose", str(path), "--no-standardize")
        assert (code, err) == (0, "")
        trusted = json.loads(out)
        assert trusted == fit_report(matrix).to_dict()
        code, out, err = run(capsys, "diagnose", str(path))
        assert (code, err) == (0, "")
        standardized = json.loads(out)
        assert standardized == fit_report(standardize(matrix)).to_dict()
        assert trusted != standardized

    def test_more_columns_than_iterative_kernel_allows(self, capsys, tmp_path):
        # 5000 columns put every pair near the bulk of the law at a = 2500,
        # where the series and continued fraction exceed their budget.
        rng = np.random.default_rng(5)
        path = self.write_csv(tmp_path, rng.standard_normal((20, 5000)))
        code, out, _ = run(capsys, "diagnose", str(path))
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["n_pairs"] == 190
        assert payload["ks_passed"] is True

    def run_recording_warnings(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        return code, out, err, [str(w.message) for w in caught]

    @pytest.mark.parametrize("rows,scale,code,mean", [
        (40, 4e153, 0, 8.55288176476211e+153),
        (12, 1e160, 3, 1.7775988759514278e+160),
        (12, 1e-170, 0, 1.7775988759514276e-170),
    ])
    def test_unstandardized_data_at_any_magnitude(self, capsys, tmp_path, rows, scale, code,
                                                  mean):
        # Scaled by a power of two before squaring, no square overflows or
        # underflows; a mean above about 1.9e154 has no effective dimension.
        matrix = np.random.default_rng(0).standard_normal((rows, 3)) * scale
        path = self.write_csv(tmp_path, matrix)
        got = self.run_recording_warnings(capsys, "diagnose", str(path), "--no-standardize")
        if code == 0:
            assert got[0] == 0 and got[2:] == ("", [])
            assert json.loads(got[1])["mean_observed"] == mean
        else:
            assert got == (3, "", f"error: {path}: mean distance {mean!r} is too large: no "
                           "finite k has that mean\n", [])

    @pytest.mark.parametrize("flags", [[], ["--no-standardize"]])
    def test_no_magnitude_leaks_a_warning(self, capsys, tmp_path, flags):
        matrix = np.random.default_rng(1).standard_normal((15, 4))
        for e in range(-300, 301, 20):
            path = self.write_csv(tmp_path, matrix * 10.0**e)
            code, _, err, caught = self.run_recording_warnings(
                capsys, "diagnose", str(path), *flags)
            assert code in (0, 3) and caught == [], (e, caught)
            assert "Warning" not in err and "Traceback" not in err, e

    def test_data_at_two_to_the_600_gives_the_report_of_the_data(self, capsys, tmp_path):
        # Its squared deviations overflow; standardizing rescales them exactly.
        matrix = np.random.default_rng(6).standard_normal((12, 3))
        code, out, err = run(capsys, "diagnose", str(self.write_csv(tmp_path, matrix)))
        assert (code, err) == (0, "")
        scaled = self.write_csv(tmp_path, np.ldexp(matrix, 600))
        assert run(capsys, "diagnose", str(scaled)) == (0, out, "")

    def test_json_round_trips_to_report(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((50, 6))
        path = self.write_csv(tmp_path, matrix)
        _, out, _ = run(capsys, "diagnose", str(path))
        payload = json.loads(out.strip())
        assert payload == fit_report(standardize(matrix)).to_dict()
        assert list(payload) == REPORT_KEYS


def _padded(draw, text):
    pad = st.sampled_from(["", " ", "  ", "\t", " \t "])
    return draw(pad) + text + draw(pad)


@st.composite
def text_tables(draw, columns):
    """Cells of a table of finite doubles written by repr or %.10g, and the
    values per-cell float() decodes from them: the readers' reference."""
    width = draw(columns)
    rows = draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width,
                 max_size=width),
        min_size=1, max_size=12,
    ))
    spell = draw(st.sampled_from([repr, "%.10g".__mod__]))
    cells = [[spell(v) for v in row] for row in rows]
    return cells, [[float(c) for c in row] for row in cells]


def _reference_header(text):
    """`# key: value` lines read one at a time; a later key wins."""
    header = {}
    for line in text.splitlines():
        body = line.strip()
        if body.startswith("#"):
            key, colon, val = body.lstrip("#").partition(":")
            if colon:
                header[key.strip()] = val.strip()
    return header


def _layout(draw, data_lines, head):
    """Interleave comment and blank lines and pick a line ending."""
    lines = list(head)
    for line in data_lines:
        lines.extend(draw(st.lists(
            st.sampled_from(["", "   ", "# note", "  # k: 1.5", "#", "\t#x: y"]), max_size=2)))
        lines.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


class TestTextReaders:
    """Both readers decode exactly what per-cell float() decodes."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dataset_matches_per_cell_float(self, tmp_path_factory, data):
        draw = data.draw
        delimiter = draw(st.sampled_from([",", ";", "\t"]))
        cells, expected = draw(text_tables(st.integers(1, 6)))
        pad = (lambda c: c) if delimiter == "\t" else (lambda c: _padded(draw, c))
        header = [delimiter.join(f"col{j}" for j in range(len(cells[0])))]
        head = header if draw(st.booleans()) else []
        text = _layout(draw, [delimiter.join(pad(c) for c in row) for row in cells], head)
        path = tmp_path_factory.getbasetemp() / "table.csv"
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        got, want = _parse_dataset(path, delimiter), np.asarray(expected)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sample_file_matches_per_line_float(self, tmp_path_factory, data):
        draw = data.draw
        cells, expected = draw(text_tables(st.just(1)))
        head = ["# k: 3.0", "#n:7", "## method : direct "]
        # A comment after a value sets no header key.
        trailing = st.sampled_from(["", " # k: 9", "#seed: 1"])
        text = _layout(draw, [_padded(draw, row[0]) + draw(trailing) for row in cells], head)
        path = tmp_path_factory.getbasetemp() / "sample.txt"
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        values, header = _read_sample_file(path)
        assert values.tobytes() == np.asarray(expected).ravel().tobytes()
        assert header == _reference_header(text)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([
        "0", "1", "9", "+", "-", ".", "e", "E", "_", "x", "X", "i", "n", "f", "a", "t", "y",
        "I", "N", "F", "A", "inf", "nan", "Infinity", "NaN", " ", "\t", "\u0663",
    ]), max_size=6).map("".join))
    def test_is_number_matches_float(self, cell):
        text = cell.strip()
        try:
            float(text)
            parses = text.isascii() and "_" not in text
        except ValueError:
            parses = False
        assert cli._is_number(cell) == parses, cell


class TestPlotData:
    def test_fig2_peak_at_origin(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["plotdata", "--figure", "fig2", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,k=1"
        assert len(lines) == 1 + 601
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(INV_SQRT_PI, abs=1e-12)
        meta = json.loads((tmp_path / "fig2.csv.meta.json").read_text())
        assert meta["series"] == ["k=1"]

    def test_fig4_eleven_series_each_normalized(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["plotdata", "--figure", "fig4", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        header, data = rows[0], np.asarray(rows[1:], dtype=float)
        assert header == [
            "r", "k=1", "k=2", "k=3", "k=4", "k=5",
            "k=10", "k=20", "k=30", "k=40", "k=50", "k=100",
        ]
        assert len(header) - 1 == 11
        r = data[:, 0]
        for col in range(1, 12):
            mass = np.trapezoid(data[:, col], r)
            assert mass == pytest.approx(1.0, abs=2e-3)
        meta = json.loads((tmp_path / "fig4.csv.meta.json").read_text())
        assert meta["points_per_series"] == 1801

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, _ = run(
            capsys, "plotdata", "--figure", "fig2", "--output", "/nonexistent/dir/out.csv"
        )
        assert code == 3


class TestOutputFile:
    """--output overwrites a file in place and cuts it to the new length."""

    ARGV = ("eval", "--k", "3", "--which", "cdf", "--grid", "0:2:0.25")

    def written(self, capsys, path):
        assert run(capsys, *self.ARGV, "--output", str(path)) == (0, "", "")
        return path.read_bytes()

    @pytest.mark.parametrize("old_size", [0, 5, 100_000])
    def test_old_content_of_any_length_is_replaced(self, capsys, tmp_path, old_size):
        expected = self.written(capsys, tmp_path / "fresh.txt")
        out = tmp_path / "out.txt"
        out.write_bytes(b"x" * old_size)
        assert self.written(capsys, out) == expected

    def test_second_run_matches_a_fresh_file(self, capsys, tmp_path):
        first = self.written(capsys, tmp_path / "out.txt")
        assert self.written(capsys, tmp_path / "out.txt") == first
        assert self.written(capsys, tmp_path / "fresh.txt") == first

    def test_device_is_written(self, capsys):
        assert run(capsys, *self.ARGV, "--output", os.devnull) == (0, "", "")

    def test_directory_is_io_error(self, capsys, tmp_path):
        code, out, err = run(capsys, *self.ARGV, "--output", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {tmp_path}: ")

    def test_new_file_mode_follows_umask(self, capsys, tmp_path):
        old_mask = os.umask(0o027)
        try:
            self.written(capsys, tmp_path / "out.txt")
        finally:
            os.umask(old_mask)
        assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o640

    def test_hard_link_sees_the_new_content(self, capsys, tmp_path):
        out, link = tmp_path / "out.txt", tmp_path / "link.txt"
        out.write_bytes(b"old\n" * 1000)
        os.link(out, link)
        new = self.written(capsys, out)
        assert link.read_bytes() == new

    def test_failed_write_leaves_no_old_bytes(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "out.txt"
        out.write_bytes(b"old\n" * 1000)
        real_write, calls = os.write, []

        def write_half_then_fail(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(cli.os, "write", write_half_then_fail)
        code, out_text, err = run(capsys, *self.ARGV, "--output", str(out))
        assert (code, out_text, err) == (3, "", "error: [Errno 28] No space left on device\n")
        assert len(calls) == 2 and out.read_bytes() == b""


class TestContrast:
    def test_single_seed_single_dimension(self, capsys):
        code, out, _ = run(capsys, "contrast", "--k", "5", "--n", "30", "--seeds", "1")
        assert code == 0
        lines = out.splitlines()
        data_rows = [l for l in lines if not l.startswith("#") and not l.startswith("mean")]
        assert len(data_rows) == 1
        k, seed, d_max, d_min, contrast = data_rows[0].split()
        assert (k, seed) == ("5", "0")
        assert float(contrast) == pytest.approx(
            (float(d_max) - float(d_min)) / float(d_min)
        )

    def test_mean_contrast_decreases_with_dimension(self, capsys):
        code, out, _ = run(
            capsys, "contrast", "--k", "1,10,100", "--n", "100", "--seeds", "5"
        )
        assert code == 0
        means = [
            float(line.split()[2])
            for line in out.splitlines()
            if line.startswith("mean")
        ]
        assert means[0] > means[1] > means[2]

    def test_repeated_dimension_mean_is_its_own(self, capsys):
        code, out, _ = run(capsys, "contrast", "--k", "2,2,5", "--n", "5", "--seeds", "3")
        assert code == 0
        contrasts = [float(line.split()[4]) for line in out.splitlines()
                     if not line.startswith(("#", "mean"))]
        means = [line.split()[1:] for line in out.splitlines() if line.startswith("mean")]
        assert [k for k, _ in means] == ["2", "2", "5"]
        for i, (_, mean) in enumerate(means):
            assert float(mean) == sum(contrasts[i::3]) / 3

    def test_explicit_seed_list(self, capsys):
        code, out, _ = run(capsys, "contrast", "--k", "4", "--n", "10", "--seeds", "7,9")
        assert code == 0
        seeds = [line.split()[1] for line in out.splitlines()
                 if not line.startswith(("#", "mean"))]
        assert seeds == ["7", "9"]

    def test_seed_count_above_the_limit_is_usage_error(self, capsys, monkeypatch):
        # Refused before a seed runs or a list of the count is built.
        message = "usage error: --seeds counts at most 1000000 seeds, got 1000000000\n"
        assert run(capsys, "contrast", "--seeds", "1000000000") == (2, "", message)
        monkeypatch.setattr(cli, "MAX_COUNT", 3)
        code, out, err = run(capsys, "contrast", "--k", "2", "--n", "5", "--seeds", "3")
        assert (code, err) == (0, "")
        seeds = [line.split()[1] for line in out.splitlines()
                 if not line.startswith(("#", "mean"))]
        assert seeds == ["0", "1", "2"]
        code, out, err = run(capsys, "contrast", "--k", "2", "--n", "5", "--seeds", "4")
        assert (code, out, err) == (2, "", "usage error: --seeds counts at most 3 seeds, got 4\n")

    def test_too_few_points_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "contrast", "--k", "2", "--n", "2", "--seeds", "1")
        assert code == 2

    def test_negative_seed_is_the_sample_usage_error(self, capsys):
        expected = (2, "", "usage error: seed must be non-negative\n")
        assert run(capsys, "sample", "--k", "2", "--n", "5", "--seed=-3") == expected
        assert run(capsys, "contrast", "--k", "2", "--n", "5", "--seeds=-3,4") == expected

    @pytest.mark.parametrize("k", ["nan", "inf", "1e400", "1,inf"])
    def test_non_finite_dimension_is_usage_error(self, capsys, k):
        code, out, err = run(capsys, "contrast", "--k", k, "--n", "5", "--seeds", "1")
        assert code == 2
        assert out == "" and err.startswith("usage error: ") and "Traceback" not in err

    @pytest.mark.parametrize("k", ["2.5", "1,2.5", "0.5"])
    def test_fractional_dimension_is_usage_error(self, capsys, k):
        code, out, err = run(capsys, "contrast", "--k", k, "--n", "5", "--seeds", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and "integer dimension" in err

    def test_deterministic_and_thread_invariant(self, tmp_path):
        outputs = []
        for i in range(2):
            path = tmp_path / f"c{i}.txt"
            assert main(
                ["contrast", "--k", "1,10", "--n", "50", "--seeds", "3", "--output", str(path)]
            ) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_has_no_threads_option(self, capsys):
        # The experiment runs in one thread, so it takes no thread count.
        code, out, err = run(capsys, "contrast", "--k", "2", "--n", "10", "--threads", "1")
        assert (code, out) == (2, "")
        assert "--threads" in err


BAD_NUMBERS = ("nan", "inf", "-inf", "1e400", "-1", "0", "", "x")


@pytest.fixture(scope="module")
def command_pools(tmp_path_factory):
    """Per command: positional tokens, and the value tokens of each flag.

    Sizes stay small: sample draws at most 500 x 1000 doubles, contrast
    at most 100 x 1000 per seed.
    """
    base = tmp_path_factory.mktemp("cli_inputs")
    rng = np.random.default_rng(5)
    texts = {
        "header.txt": "# k: 3\n" + "\n".join(map(repr, 2.0 * np.sqrt(rng.gamma(1.5, size=200)))),
        "bare.txt": "\n".join(map(repr, 2.0 * np.sqrt(rng.gamma(1.0, size=50)))),
        "corrupt.txt": "# k: 2\n1.0\nabc\n",
        "two.txt": "1.0 2.0\n",
        "badk.txt": "# k: x\n1.0\n",
        "comments.txt": "# only\n",
        "table.csv": "\n".join(",".join(map(repr, row)) for row in rng.standard_normal((30, 4))),
        "header.csv": "a,b\n1,2\n3,5\n4,4\n",
        "semi.csv": "1;2;3\n4;5;7\n2;2;9\n",
        "one_row.csv": "1,2,3\n",
        "constant.csv": "1,1\n1,1\n1,1\n",
        "ragged.csv": "1,2\n3\n",
        "empty.csv": "",
    }
    for name, text in texts.items():
        (base / name).write_text(text, encoding="utf-8")
    (base / "binary.txt").write_bytes(b"\xff\xfe\x00")
    missing = str(base / "absent")
    samples = [str(base / n) for n in texts if n.endswith(".txt")]
    samples += [str(base / "binary.txt"), missing]
    datasets = [str(base / n) for n in texts if n.endswith(".csv")] + [missing]

    outputs = (str(base / "out.txt"), "/nonexistent/dir/out.txt")
    threads = ("1", "2", "0", "x")
    return {
        "eval": ((), {
            "--k": ("1", "2.5", "7", "1e20", "1.7e308", *BAD_NUMBERS),
            "--which": ("pdf", "cdf", "survival", "quantile", "bogus"),
            "--grid": ("0:8:0.25", "0:1:0.5", "1:0:1", "0:1:0", "0:nan:1", "a:b", ""),
            "--at": ("0.5", "0,0.25,1", ",", "2", *BAD_NUMBERS),
            "--output": outputs,
        }),
        "moments": ((), {
            "--k": ("1", "1,2,3", "1e200", "0.5", ",", "1,nan", *BAD_NUMBERS),
            "--output": outputs,
        }),
        "sample": ((), {
            "--k": ("1", "2", "3.5", "1000", *BAD_NUMBERS),
            "--n": ("1", "10", "500", "0", "-3", "", "x"),
            "--seed": ("0", "7", "-1", "x"),
            "--method": ("analytic", "direct", "bogus"),
            "--threads": threads,
            "--output": outputs,
        }),
        "test": (samples, {
            "--k": ("1", "3", "20", *BAD_NUMBERS),
            "--output": outputs,
        }),
        "diagnose": (datasets, {
            "--delimiter": (",", ";", "", "ab", "\n"),
            "--no-standardize": None,
            "--output": outputs,
        }),
        "plotdata": ((), {
            "--figure": ("fig2", "fig4", "fig3"),
            "--output": outputs,
        }),
        "contrast": ((), {
            "--k": ("1", "1,10", "1000", "2.5", ",", "1,inf", *BAD_NUMBERS),
            "--n": ("3", "30", "100", "2", "-1", "x"),
            "--seeds": ("1", "3", "7,9", "0", "", ",", "-1", "1,-2", "x",
                        "1000000000", "99999999999999999999999999"),
            "--output": outputs,
        }),
    }


@st.composite
def command_lines(draw, pools):
    """argv for one command: known flags in any order and spelling, some
    required ones left out, a stray unknown flag now and then."""
    if draw(st.integers(0, 30)) == 0:
        return draw(st.sampled_from([[], ["frob"], ["--version"], ["-h"], ["--bogus"]]))
    command = draw(st.sampled_from(sorted(pools)))
    positional, flags = pools[command]
    argv = [command]
    if positional:
        argv.append(draw(st.sampled_from(positional)))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        if flags[flag] is None:
            argv.append(flag)
            continue
        value = draw(st.sampled_from(flags[flag]))
        argv.extend([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    if draw(st.integers(0, 9)) == 0:
        stray = draw(st.sampled_from(["--bogus", "-x", "--k", "--=1"]))
        argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


def k_values(argv):
    """Every value argv gives --k, in either spelling."""
    return [value if arg == "--k" else arg[len("--k="):]
            for arg, value in zip(argv, argv[1:] + [None])
            if arg == "--k" or arg.startswith("--k=")]


def outcome(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestAnyCommand:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_every_failure_maps_to_its_exit_code(self, command_pools, data):
        # All draws share one process and so one parser.
        argv = data.draw(command_lines(command_pools))
        code, _, err = outcome(argv)
        allowed = {0, 1, 2, 3} if argv[:1] == ["test"] else {0, 2, 3}
        assert code in allowed, (argv, code, err)
        if code == 0:
            assert err == "", argv
        if argv[:1] == ["test"] and any(k in BAD_NUMBERS for k in k_values(argv)):
            # --k is checked before the sample file is read.
            assert code == 2, (argv, code, err)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_command_parser_answers_as_the_top_level_parser(self, command_pools, data):
        # With no command parsers to dispatch to, main hands every argv to
        # the top-level parser, as it did before commands were dispatched.
        argv = data.draw(command_lines(command_pools))
        parser = cli._parser()[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_parser", lambda: (parser, {}))
            expected = outcome(argv)
        assert outcome(argv) == expected, argv


class TestParserReuse:
    def test_failed_calls_leave_no_state(self, capsys, monkeypatch, tmp_path):
        build, builds = cli.build_parser, []

        def counting_build():
            builds.append(build())
            return builds[-1]

        old_eval = cli._parser()[1]["eval"]
        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        table = ("eval", "--k", "7", "--which", "pdf", "--grid", "0:8:0.25")
        code, first, err = run(capsys, *table)
        assert (code, err) == (0, "") and first

        bogus = ["eval", "--k", "2", "--which", "bogus", "--at", "1"]
        with pytest.raises(SystemExit):
            build().parse_args(bogus)
        fresh_rejection = capsys.readouterr().err
        code, out, err = run(capsys, *bogus)
        assert (code, out, err) == (2, "", fresh_rejection)
        assert err.startswith("usage: gaussdist eval") and "'bogus'" in err

        code, out, err = run(capsys, "eval", "--k", "2", "--which", "pdf")
        assert (code, out) == (2, "")
        assert err == "usage error: eval needs --grid start:stop:step or --at v1,v2,...\n"

        missing = tmp_path / "absent.txt"
        code, out, err = run(capsys, "test", str(missing), "--k", "2")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read {missing}") and err.count("\n") == 1

        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_MAX_ITERATIONS", 5)
            code, out, err = run(capsys, "eval", "--k", "3", "--which", "cdf", "--at", "1")
        assert (code, out) == (3, "")
        assert err.startswith("error: incomplete gamma") and err.count("\n") == 1

        assert run(capsys, "--version") == (0, __version__ + "\n", "")

        assert run(capsys, *table) == (0, first, "")
        assert len(builds) == 1
        # The command parsers come from that one build, none from the old.
        parser, commands = cli._parser()
        assert parser is builds[0] and commands["eval"] is not old_eval

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


def test_benchmark_hook_names_stay_public():
    # benchmark/child.py times cli.build_parser(), benchmark/trace_layers.py
    # wraps what each module's __all__ lists, and benchmark/run.py reads
    # these spans by name: a name that left __all__ would read as zero.
    import gaussdist
    from gaussdist import diagnostics, distribution, moments, montecarlo

    assert callable(cli.build_parser)
    assert {"reg_gamma_p", "reg_gamma_q"} <= set(specfun.__all__)
    assert "DistanceDistribution" in distribution.__all__
    assert callable(distribution.DistanceDistribution.quantile)
    assert callable(distribution.DistanceDistribution.sample)
    assert {"simulate_pairs", "ks_one_sample"} <= set(montecarlo.__all__)
    assert "pairwise_distances" in diagnostics.__all__

    # The package re-exports exactly the layers' public names.
    layers = (specfun, distribution, moments, montecarlo, diagnostics)
    assert set(gaussdist.__all__) == {"__version__"}.union(*(m.__all__ for m in layers))
    # Names only tests ever called were deleted; numpy, scipy and
    # moment_set give the same numbers, and FitReport holds the KS verdict
    # that KsResult restated.
    deleted = {
        montecarlo: (
            "ecdf", "sample_moments", "SampleMoments", "ks_two_sample", "KsResult",
        ),
        moments: ("central_moment", "skewness", "kurtosis"),
        diagnostics: ("DatasetMatrix", "distance_pvalue"),
    }
    for module, names in deleted.items():
        for name in names:
            assert not hasattr(gaussdist, name) and not hasattr(module, name), name
    assert not hasattr(FitReport, "from_dict")


def test_benchmark_tracer_counts_the_pairs_of_an_array(capsys, tmp_path):
    # benchmark/trace_layers.py counts pairs from the `.data` of the first
    # argument of pairwise_distances, which for a float matrix is a
    # memoryview of the matrix's shape.
    spec = importlib.util.spec_from_file_location(
        "trace_layers", Path(__file__).parents[1] / "benchmark" / "trace_layers.py"
    )
    trace_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_layers)
    rows = 23
    path = tmp_path / "data.csv"
    np.savetxt(path, np.random.default_rng(6).standard_normal((rows, 4)), delimiter=",")
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        code = main(["diagnose", str(path)])
    finally:
        tracer.uninstall()
    assert code == 0
    capsys.readouterr()
    assert tracer.counters["diagnostics.pairs"] == rows * (rows - 1) // 2


class TestAllocationFailure:
    """An array above 1 GiB is a usage error; a MemoryError below it exits 3."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("simulate_pairs", ["sample", "--k", "500000", "--n", "1000", "--method", "direct"]),
            ("relative_contrast_curve", ["contrast", "--k", "1000000", "--n", "100", "--seeds", "1"]),
        ],
    )
    def test_numpy_refusal_is_one_error_line(self, capsys, monkeypatch, name, argv):
        # Stands in for numpy refusing a large --k; nothing is allocated.
        message = "Unable to allocate 763. MiB for an array with shape (100, 1000000)"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, name, refuse)
        assert run(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_bare_memory_error_is_named(self, capsys, monkeypatch):
        # Python's own MemoryError, unlike numpy's, has no message.
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "relative_contrast_curve", refuse)
        assert run(capsys, "contrast", "--seeds", "1") == (3, "", "error: MemoryError\n")

    @pytest.mark.parametrize(
        "argv,shape",
        [
            (["sample", "--k", "600000", "--n", "1000", "--method", "direct"], "256 x 600000"),
            (["contrast", "--k", "3,10000000", "--n", "100", "--seeds", "1"], "100 x 10000000"),
            (["sample", "--k", "3", "--n", str(2**27 + 1)], "134217729 x 1"),
            (["sample", "--k", "524289", "--n", "256", "--method", "direct"], "256 x 524289"),
        ],
    )
    def test_array_above_the_limit_is_a_usage_error(self, capsys, argv, shape):
        # Refused by size before anything is allocated; 2^27 + 1 doubles
        # are 8 bytes above the limit, and the message says so.
        rows, cols = map(int, shape.split(" x "))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: a {shape} array of doubles needs {8 * rows * cols} bytes, "
            f"above the limit of {2**30} bytes\n"
        )

    def test_contrast_takes_k_up_to_1342177(self, capsys):
        # 100 rows by 1342177 columns are 1,073,741,600 bytes, under the
        # limit; one column more is refused.  Nothing is allocated.
        from gaussdist import montecarlo

        montecarlo._check_array_size(100, 1342177)
        assert run(capsys, "contrast", "--n", "100", "--k", "1342178", "--seeds", "1") == (
            2, "", "usage error: a 100 x 1342178 array of doubles needs 1073742400 bytes, "
            "above the limit of 1073741824 bytes\n",
        )

    def test_direct_sample_takes_k_up_to_524288(self, capsys, monkeypatch, tmp_path):
        # 256 rows by 524288 columns are exactly the limit; one column more
        # is refused above.  The draw is stubbed, so nothing is allocated.
        from gaussdist import montecarlo

        drawn = []
        monkeypatch.setattr(montecarlo, "_blocked_draw",
                            lambda n, *args: drawn.append(n) or np.ones(n))
        argv = ["sample", "--k", "524288", "--n", "256", "--method", "direct"]
        assert run(capsys, *argv, "--output", str(tmp_path / "s")) == (0, "", "")
        assert drawn == [256]

    def test_distances_above_the_limit_are_a_data_error(self, capsys, monkeypatch, tmp_path):
        # 30 rows have 435 pairs, 8 bytes above a limit of 434 doubles.
        from gaussdist import montecarlo

        monkeypatch.setattr(montecarlo, "_MAX_ARRAY_BYTES", 8 * 434)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((30, 4)), delimiter=",")
        code, out, err = run(capsys, "diagnose", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {path}: the 435 distances between 30 rows need ")
        assert err.count("\n") == 1


class TestEntryPoint:
    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "gaussdist", "eval", "--k", "1",
             "--which", "pdf", "--at", "0"],
            capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.0 0.5641895835477563"

    def test_usage_error_status(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "gaussdist", "eval", "--k", "1"],
            capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv,code,stdout,last_line",
        [
            (["--version"], 0, __version__ + "\n", None),
            (["frob"], 2, "", "gaussdist: error: argument command: invalid choice: 'frob' "
             "(choose from 'eval', 'moments', 'sample', 'test', 'diagnose', 'plotdata', "
             "'contrast')"),
            (["eval", "--k", "1", "--which", "pdf", "--at", "0", "--bogus"], 2, "",
             "gaussdist: error: unrecognized arguments: --bogus"),
        ],
    )
    def test_top_level_answers(self, argv, code, stdout, last_line):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "gaussdist", *argv],
            capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert (proc.returncode, proc.stdout) == (code, stdout)
        if last_line is None:
            assert proc.stderr == ""
        else:
            # The top-level parser's usage, then its error.
            assert proc.stderr.startswith("usage: gaussdist [-h] [--version]")
            assert proc.stderr.splitlines()[-1] == last_line

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["gaussdist", "eval", "--k", "1", "--which", "pdf", "--at", "0"]
        monkeypatch.setattr(sys, "argv", argv)
        assert main() == 0
        assert capsys.readouterr() == ("0.0 0.5641895835477563\n", "")
        monkeypatch.setattr(sys, "argv", ["gaussdist", "--version"])
        assert main() == 0
        assert capsys.readouterr() == (__version__ + "\n", "")
