"""Command-line surface for the distance-distribution toolkit.

Exit codes: 0 success (and KS pass for `test`), 1 statistical failure,
2 usage error, 3 I/O or parse error.  Every command is deterministic
given its full argument list; there are no hidden entropy sources and
results never depend on --threads.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .diagnostics import (
    DatasetMatrix,
    FitReport,
    effective_dimension,
    fit_report,
    relative_contrast_curve,
    standardize,
)
from .distribution import DistanceDistribution
from .moments import central_moment, moment_set, raw_moment
from .montecarlo import EmpiricalSample, SampleSource, ks_one_sample, simulate_pairs

__all__ = ["main", "PlotSeries", "density_series"]

FIG4_DIMENSIONS = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 100)
FIG2_GRID = (0.0, 6.0, 0.01)
FIG4_GRID = (0.0, 18.0, 0.01)


@dataclass(frozen=True)
class PlotSeries:
    """One labelled density curve: (r, density) points sorted by r."""

    label: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        rs = [r for r, _ in self.points]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("plot points must be sorted by increasing r")
        if any(density < 0.0 for _, density in self.points):
            raise ValueError("densities cannot be negative")


def density_series(k: float, grid: np.ndarray) -> PlotSeries:
    """Density curve of the distance law at dimension k over a grid."""
    densities = DistanceDistribution(float(k)).pdf(grid)
    return PlotSeries(
        label=f"k={k:g}",
        points=tuple(zip((float(r) for r in grid), (float(d) for d in densities))),
    )


class UsageError(Exception):
    """Malformed arguments detected after argparse; exits with status 2."""


class DataError(Exception):
    """Unreadable or unparsable input data; exits with status 3."""


def _fmt(x: float) -> str:
    """Shortest decimal text that round-trips to the same float."""
    return repr(float(x))


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise UsageError(f"grid must be start:stop:step, got {spec!r}") from None
    if step <= 0.0 or stop < start:
        raise UsageError(f"grid needs start <= stop and step > 0, got {spec!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _parse_float_list(spec: str, what: str) -> list[float]:
    items = [s for s in spec.split(",") if s.strip()]
    if not items:
        raise UsageError(f"empty {what} list")
    try:
        return [float(s) for s in items]
    except ValueError:
        raise UsageError(f"bad {what} list: {spec!r}") from None


def _open_output(path):
    if path is None:
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8", newline="\n"), True
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _write_lines(path, lines) -> None:
    stream, close = _open_output(path)
    try:
        for line in lines:
            stream.write(line + "\n")
    finally:
        if close:
            stream.close()


# -- eval ----------------------------------------------------------------


def _cmd_eval(args) -> int:
    if args.grid is not None:
        points = _parse_grid(args.grid)
    elif args.at is not None:
        points = np.asarray(_parse_float_list(args.at, "point"))
    else:
        raise UsageError("eval needs --grid start:stop:step or --at v1,v2,...")
    if args.which == "quantile" and np.any((points < 0.0) | (points >= 1.0)):
        raise UsageError("quantile probabilities must lie in [0, 1)")
    try:
        dist = DistanceDistribution(args.k)
        if args.which == "quantile":
            values = [dist.quantile(float(p)) for p in points]
        else:
            values = getattr(dist, args.which)(points)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_lines(args.output, [f"{_fmt(x)} {_fmt(v)}" for x, v in zip(points, values)])
    return 0


# -- moments --------------------------------------------------------------


def _cmd_moments(args) -> int:
    ks = _parse_float_list(args.k, "k")
    lines = ["k m1 m2 m3 m4 mu2 mu3 mu4 skewness kurtosis"]
    for k in ks:
        try:
            ms = moment_set(k)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        cells = (k, *ms.raw, *ms.central, ms.skewness, ms.kurtosis)
        lines.append(" ".join(_fmt(c) for c in cells))
    _write_lines(args.output, lines)
    return 0


# -- sample ---------------------------------------------------------------


def _draw_sample(k: float, n: int, seed: int, method: str, threads: int) -> EmpiricalSample:
    if method == "direct":
        return simulate_pairs(k, n, seed, threads=threads)
    return DistanceDistribution(k).sample(n, seed, threads=threads)


def _cmd_sample(args) -> int:
    try:
        sample = _draw_sample(args.k, args.n, args.seed, args.method, args.threads)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [
        f"# k: {_fmt(args.k)}",
        f"# n: {args.n}",
        f"# seed: {args.seed}",
        f"# method: {args.method}",
        f"# version: {__version__}",
    ]
    lines.extend(_fmt(v) for v in sample.values)
    _write_lines(args.output, lines)
    return 0


def _read_sample_file(path) -> tuple[np.ndarray, dict]:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            raw = stream.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header: dict = {}
    values = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if ":" in body:
                key, _, val = body.partition(":")
                header[key.strip()] = val.strip()
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: not a number: {text!r}") from None
    if not values:
        raise DataError(f"{path}: no sample values found")
    return np.asarray(values), header


# -- test -----------------------------------------------------------------


def _cmd_test(args) -> int:
    values, header = _read_sample_file(args.sample_file)
    k = args.k
    if k is None and "k" in header:
        try:
            k = float(header["k"])
        except ValueError:
            raise DataError(f"{args.sample_file}: bad k in header: {header['k']!r}") from None
    if k is None:
        raise UsageError("test needs --k (sample file has no k header)")
    try:
        sample = EmpiricalSample(np.sort(values), k=k, source=SampleSource.EXTERNAL)
    except ValueError as exc:
        raise DataError(f"{args.sample_file}: {exc}") from exc
    try:
        law = DistanceDistribution(k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ks = ks_one_sample(sample, law)
    mean_obs = float(np.mean(sample.values))
    report = FitReport(
        k=float(k),
        n_pairs=sample.n,
        ks=ks,
        mean_observed=mean_obs,
        mean_expected=raw_moment(k, 1),
        variance_observed=float(np.var(sample.values, ddof=1)),
        variance_expected=central_moment(k, 2),
        effective_dimension=effective_dimension(mean_obs),
        dependence_caveat=False,
    )
    payload = report.to_dict()
    for key in (
        "ks_statistic",
        "ks_critical_01",
        "ks_passed",
        "mean_observed",
        "mean_expected",
        "variance_observed",
        "variance_expected",
        "effective_dimension",
    ):
        print(f"{key} = {payload[key]}")
    text = json.dumps(payload)
    print(text)
    if args.output is not None:
        _write_lines(args.output, [text])
    return 0 if ks.passed else 1


# -- diagnose -------------------------------------------------------------


def _parse_dataset(path, delimiter: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            raw = stream.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [
        (lineno, line) for lineno, line in enumerate(raw, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise DataError(f"{path}: no data rows")

    def cells_of(line: str) -> list[str]:
        return [c.strip() for c in line.split(delimiter)]

    start = 0
    first = cells_of(lines[0][1])
    header_row = True
    for cell in first:
        try:
            float(cell)
            header_row = False
            break
        except ValueError:
            continue
    if header_row:
        start = 1
    if start >= len(lines):
        raise DataError(f"{path}: no data rows after header")
    width = len(cells_of(lines[start][1]))
    matrix = []
    for row_index, (lineno, line) in enumerate(lines[start:]):
        cells = cells_of(line)
        if len(cells) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, got {len(cells)}"
            )
        row = []
        for col, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: row {row_index}, column {col}: "
                    f"not a number: {cell!r}"
                ) from None
        matrix.append(row)
    return np.asarray(matrix)


def _cmd_diagnose(args) -> int:
    matrix = _parse_dataset(args.dataset_file, args.delimiter)
    try:
        data = DatasetMatrix(matrix, standardized=args.no_standardize)
        if not args.no_standardize:
            data = standardize(data)
        report = fit_report(data)
    except ValueError as exc:
        raise DataError(f"{args.dataset_file}: {exc}") from exc
    text = json.dumps(report.to_dict())
    if args.output is not None:
        _write_lines(args.output, [text])
    print(text)
    return 0


# -- plotdata -------------------------------------------------------------


def _cmd_plotdata(args) -> int:
    if args.figure == "fig2":
        dims = [1]
        start, stop, step = FIG2_GRID
    else:
        dims = list(FIG4_DIMENSIONS)
        start, stop, step = FIG4_GRID
    grid = _parse_grid(f"{start}:{stop}:{step}")
    series = [density_series(k, grid) for k in dims]
    lines = ["r," + ",".join(s.label for s in series)]
    for i, r in enumerate(grid):
        lines.append(
            _fmt(r) + "," + ",".join(_fmt(s.points[i][1]) for s in series)
        )
    _write_lines(args.output, lines)
    meta = {
        "figure": args.figure,
        "series": [s.label for s in series],
        "r_start": start,
        "r_stop": stop,
        "r_step": step,
        "points_per_series": int(grid.size),
        "version": __version__,
    }
    _write_lines(args.output + ".meta.json", [json.dumps(meta)])
    return 0


# -- contrast -------------------------------------------------------------


def _parse_seeds(spec: str) -> list[int]:
    try:
        if "," in spec:
            return [int(s) for s in spec.split(",") if s.strip()]
        count = int(spec)
        return list(range(count))
    except ValueError:
        raise UsageError(f"--seeds takes a count or a comma list, got {spec!r}") from None


def _cmd_contrast(args) -> int:
    ks = [int(k) for k in _parse_float_list(args.k, "k")]
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise UsageError("need at least one seed")
    lines = ["# columns: k seed d_max d_min contrast"]
    totals = {k: 0.0 for k in ks}
    try:
        for seed in seeds:
            for row in relative_contrast_curve(ks, args.n, seed):
                totals[row.k] += row.contrast
                lines.append(
                    f"{row.k} {seed} {_fmt(row.d_max)} {_fmt(row.d_min)} {_fmt(row.contrast)}"
                )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines.append("# mean contrast per k")
    for k in ks:
        lines.append(f"mean {k} {_fmt(totals[k] / len(seeds))}")
    _write_lines(args.output, lines)
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdist",
        description=(
            "Distances between random points with standard-normal coordinates: "
            "closed-form evaluation, sampling, significance and dataset diagnostics."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate pdf/cdf/survival/quantile values")
    p.add_argument("--k", type=float, required=True, help="dimension (real >= 1)")
    p.add_argument("--which", choices=("pdf", "cdf", "survival", "quantile"), required=True)
    p.add_argument("--grid", help="evaluation grid start:stop:step")
    p.add_argument("--at", help="explicit comma-separated evaluation points")
    p.add_argument("--output", help="write rows here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("moments", help="closed-form moment table per dimension")
    p.add_argument("--k", required=True, help="comma-separated dimensions")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("sample", help="draw distances and write one per line")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method",
        choices=("analytic", "direct"),
        default="analytic",
        help="analytic gamma-variate sampler, or direct point-pair simulation",
    )
    p.add_argument("--threads", type=int, default=1, help="worker cap; never changes output")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("test", help="KS-test a sample file against the law")
    p.add_argument("sample_file")
    p.add_argument("--k", type=float, help="dimension (default: sample file header)")
    p.add_argument("--output", help="also write the JSON report here")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("diagnose", help="fit report for a delimited numeric dataset")
    p.add_argument("dataset_file")
    p.add_argument("--delimiter", default=",")
    p.add_argument(
        "--no-standardize",
        action="store_true",
        help="treat the data as already standardized instead of standardizing it",
    )
    p.add_argument("--output", help="also write the JSON report here")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("plotdata", help="emit density curves as delimited text")
    p.add_argument("--figure", choices=("fig2", "fig4"), required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_plotdata)

    p = sub.add_parser("contrast", help="relative-contrast experiment across dimensions")
    p.add_argument("--k", default="1,10,100,1000", help="comma-separated dimensions")
    p.add_argument("--n", type=int, default=100, help="points per experiment")
    p.add_argument("--seeds", default="20", help="seed count, or comma-separated seeds")
    p.add_argument("--threads", type=int, default=1, help="worker cap; never changes output")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_contrast)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
