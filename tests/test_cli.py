import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdist.cli import _parse_dataset, _read_sample_file, main
from gaussdist.diagnostics import FitReport

from _oracles import INV_SQRT_PI, TWO_SQRT_LN2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_pdf_k1_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "1", "--which", "pdf", "--at", "0")
        assert code == 0
        assert out.splitlines() == ["0.0 0.5641895835477563"]

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

    @pytest.mark.parametrize("k", ["nan", "0.5"])
    def test_bad_dimension_is_usage_error(self, capsys, k):
        code, _, err = run(capsys, "eval", "--k", k, "--which", "cdf", "--at", "1")
        assert code == 2
        assert "dimension" in err

    def test_non_convergence_is_exit_three(self, capsys):
        # Past k ~ 1e32 the law is narrower than the spacing of doubles near
        # its median, and at k = 1e45 the quantile iteration cannot settle.
        code, out, err = run(capsys, "eval", "--k", "1e45", "--which", "quantile",
                             "--at", "0.001")
        assert code == 3
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    def test_large_dimension_quantiles_increase(self, capsys):
        code, out, err = run(capsys, "eval", "--k", "1e20", "--which", "quantile",
                             "--at", "0.001,0.5,0.9")
        assert (code, err) == (0, "")
        values = [float(line.split()[1]) for line in out.splitlines()]
        assert len(values) == 3 and values[0] < values[1] < values[2]

    def test_dimension_past_log_gamma_overflow_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--k", "1.7e308", "--which", "pdf", "--at", "1")
        assert code == 2
        assert out == "" and "dimension" in err

    @settings(max_examples=200, deadline=None)
    @given(
        which=st.sampled_from(["pdf", "cdf", "survival", "quantile"]),
        data=st.data(),
    )
    def test_any_dimension_and_point_prints_finite_rows(self, which, data):
        # k log-uniform over the README's ranges, [1, 5e305] and [1, 1e30]
        # for the quantile; distances log-uniform in [1e-300, 1e150],
        # probabilities uniform in [0, 1).
        if which == "quantile":
            log_k = data.draw(st.floats(0.0, math.log(1e30)))
            point = st.floats(0.0, 1.0, exclude_max=True)
        else:
            log_k = data.draw(st.floats(0.0, math.log(5e305)))
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
        code, out, _ = run(capsys, "moments", "--k", "1e200")
        assert code == 0
        header, row = (line.split() for line in out.splitlines())
        cells = dict(zip(header, map(float, row)))
        assert all(math.isfinite(cells[key])
                   for key in ("mu2", "mu3", "mu4", "skewness", "kurtosis"))


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

    @pytest.mark.parametrize("command", ["sample", "contrast"])
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

    def test_undecodable_file_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# k: 2\n1.5\n\xff\n")
        code, _, err = run(capsys, "test", str(path))
        assert code == 3
        assert "cannot read" in err

    def test_json_written_to_output(self, capsys, tmp_path):
        sample = self.make_sample(tmp_path, 4, 2000, 5)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "test", str(sample), "--output", str(out_path))
        payload = json.loads(out_path.read_text())
        assert payload == json.loads(out.splitlines()[-1])


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

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "", "2 3"])
    def test_cells_outside_the_grammar_name_row_and_column(self, capsys, tmp_path, cell):
        path = tmp_path / "cell.csv"
        path.write_text(f"x,y\n# note\n1.0,2.0\n\n3.0,{cell}\n", encoding="utf-8")
        code, _, err = run(capsys, "diagnose", str(path))
        assert code == 3
        assert "line 5: row 1, column 1" in err

    def test_no_standardize_trusts_the_data(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((100, 5))
        std = (raw - raw.mean(0)) / raw.std(0, ddof=1)
        path = self.write_csv(tmp_path, std)
        code, out, _ = run(capsys, "diagnose", str(path), "--no-standardize")
        assert code == 0

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

    def test_json_round_trips_to_report(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        path = self.write_csv(tmp_path, rng.standard_normal((50, 6)))
        _, out, _ = run(capsys, "diagnose", str(path))
        payload = json.loads(out.strip())
        report = FitReport.from_dict(payload)
        assert report.to_dict() == payload


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
    ending = draw(st.sampled_from(["\n", "\r\n"]))
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

    def test_explicit_seed_list(self, capsys):
        code, out, _ = run(capsys, "contrast", "--k", "4", "--n", "10", "--seeds", "7,9")
        assert code == 0
        seeds = [line.split()[1] for line in out.splitlines()
                 if not line.startswith(("#", "mean"))]
        assert seeds == ["7", "9"]

    def test_too_few_points_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "contrast", "--k", "2", "--n", "2", "--seeds", "1")
        assert code == 2

    def test_deterministic_and_thread_invariant(self, tmp_path):
        outputs = []
        for i, threads in enumerate(("1", "1", "4")):
            path = tmp_path / f"c{i}.txt"
            assert main(
                ["contrast", "--k", "1,10", "--n", "50", "--seeds", "3",
                 "--threads", threads, "--output", str(path)]
            ) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


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
