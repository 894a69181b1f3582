"""Command-line surface for the distance-distribution toolkit.

Exit codes: 0 success (and KS pass for `test`), 1 statistical failure,
2 usage error (including a dimension k below 1 or not finite, and a
fractional `contrast` dimension), 3 I/O or parse error (a bad k in a
`test` sample file's header included), a computation that did not
converge, or an allocation that failed (numpy's MemoryError).
Arguments are checked before any file is read, so a bad one is exit 2
whatever the file holds; exit 3 leaves stdout empty.  `test` prints the
JSON line `diagnose` prints (`dependence_caveat` false), after it is
written to `--output`, if given.  Every command is deterministic given
its full argument list; there are no hidden entropy sources and results
never depend on --threads.  `diagnose` is deterministic only for a fixed
numpy/BLAS build and BLAS thread count: its Gram blocks are the library's
only BLAS call, as Temme's coefficients are folded by Horner's rule
(ROADMAP: "`diagnose` bits that do not depend on BLAS").

`main(argv)` returns the exit code and may be called again and again in
one process.  It builds its argument parser on the first call and reuses
it; no output depends on an earlier call.  When the first argument names
a command, the rest go straight to that command's own parser, the one
the top-level parser would hand them to; every message and exit code is
the same as through the top-level parser.

`--output` overwrites an existing file in place and cuts it to the new
length; this is not an atomic replace, and a write that fails part-way
leaves the file empty.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import stat
import sys
import warnings
import numpy as np

from . import __version__
from .diagnostics import fit_report, relative_contrast_curve, sample_fit_report, standardize
from .distribution import DistanceDistribution
from .moments import moment_set
from .montecarlo import EmpiricalSample, simulate_pairs
from .specfun import ConvergenceError

__all__ = ["main"]

FIG4_DIMENSIONS = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 100)
FIG2_GRID = (0.0, 6.0, 0.01)
FIG4_GRID = (0.0, 18.0, 0.01)
# Most points an `eval --grid` may hold, and most seeds `contrast --seeds`
# may count.
MAX_COUNT = 1_000_000


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
        raise ValueError(f"grid must be start:stop:step, got {spec!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid bounds and step must be finite, got {spec!r}")
    if step <= 0.0 or stop < start:
        raise ValueError(f"grid needs start <= stop and step > 0, got {spec!r}")
    span = np.floor((stop - start) / step + 1e-9)
    if not span < MAX_COUNT:
        raise ValueError(f"grid has more than {MAX_COUNT} points: {spec!r}")
    return start + step * np.arange(int(span) + 1)


def _parse_float_list(spec: str, what: str) -> list[float]:
    items = [s for s in spec.split(",") if s.strip()]
    if not items:
        raise ValueError(f"empty {what} list")
    try:
        return [float(s) for s in items]
    except ValueError:
        raise ValueError(f"bad {what} list: {spec!r}") from None


def _write_lines(path, lines) -> None:
    """Write lines, each ended by a newline, to path, or to stdout if path is None.

    An existing file is overwritten in place and then cut to the new
    length, not truncated to zero before the write: closing a file that
    was truncated to zero can start writeback at once (ext4's
    replace-via-truncate heuristic), which costs more than the write.
    A write that fails leaves a regular file empty, never with old bytes.
    """
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        # Devices, pipes and FIFOs report size 0 and are left alone.
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    except OSError:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


@contextlib.contextmanager
def _data_errors(prefix: str):
    """Raise a ValueError from input data as a DataError whose message starts with prefix."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{prefix}{exc}") from exc


def _print_report(report, path) -> None:
    """Write the report's JSON line to path, if given, then print it."""
    text = json.dumps(report.to_dict())
    if path is not None:
        _write_lines(path, [text])
    print(text)


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as stream:
            return stream.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


# The first characters of every spelling float() takes, once stripped:
# a sign, a digit, a point, or inf/infinity/nan in any case.
_NUMBER_STARTS = frozenset("0123456789+-.iInN")


def _is_number(cell: str) -> bool:
    """Whether numpy's text reader takes cell as a float.

    numpy strips the whitespace around a cell and parses the rest as
    float() does, less float()'s underscores and non-ASCII digits.
    A cell that cannot start a number is refused without a raised error.
    """
    text = cell.strip()
    if not text or text[0] not in _NUMBER_STARTS or not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


# -- eval ----------------------------------------------------------------


def _cmd_eval(args) -> int:
    if args.grid is not None:
        points = _parse_grid(args.grid)
    else:
        points = np.asarray(_parse_float_list(args.at, "point"))
    dist = DistanceDistribution(args.k)
    if args.which == "quantile":
        values = [dist.quantile(p) for p in points.tolist()]
    else:
        values = getattr(dist, args.which)(points).tolist()
    # Python floats, whose repr is the text _fmt gives.
    _write_lines(args.output, [f"{x!r} {v!r}" for x, v in zip(points.tolist(), values)])
    return 0


# -- moments --------------------------------------------------------------


def _cmd_moments(args) -> int:
    ks = _parse_float_list(args.k, "k")
    lines = ["k m1 m2 m3 m4 mu2 mu3 mu4 skewness kurtosis"]
    for k in ks:
        ms = moment_set(k)
        cells = (k, *ms.raw, *ms.central, ms.skewness, ms.kurtosis)
        lines.append(" ".join(_fmt(c) for c in cells))
    _write_lines(args.output, lines)
    return 0


# -- sample ---------------------------------------------------------------


def _cmd_sample(args) -> int:
    if args.method == "direct":
        sample = simulate_pairs(args.k, args.n, args.seed, threads=args.threads)
    else:
        sample = DistanceDistribution(args.k).sample(args.n, args.seed, threads=args.threads)
    lines = [
        f"# k: {_fmt(args.k)}",
        f"# n: {args.n}",
        f"# seed: {args.seed}",
        f"# method: {args.method}",
        f"# version: {__version__}",
    ]
    lines.extend(map(repr, sample.values.tolist()))
    _write_lines(args.output, lines)
    return 0


def _sample_header(text: str) -> dict:
    """Keys of `# key: value` comment lines; a later key wins.

    Only the `#` positions are visited, so the numbers between them cost
    one C-level search rather than a Python step per line.
    """
    header: dict = {}
    hash_at = text.find("#")
    while hash_at >= 0:
        line_end = text.find("\n", hash_at)
        if line_end < 0:
            line_end = len(text)
        if not text[text.rfind("\n", 0, hash_at) + 1 : hash_at].strip():
            key, colon, val = text[hash_at:line_end].lstrip("#").partition(":")
            if colon:
                header[key.strip()] = val.strip()
        hash_at = text.find("#", line_end)
    return header


def _read_sample_file(path) -> tuple[np.ndarray, dict]:
    text = _read_text(path)
    try:
        with warnings.catch_warnings():
            # An empty file is reported below, not as numpy's warning.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(io.StringIO(text), comments="#", ndmin=2)
    except ValueError:
        raise _bad_sample_line(path, text) from None
    if values.shape[1] != 1:
        raise _bad_sample_line(path, text)
    if not values.size:
        raise DataError(f"{path}: no sample values found")
    return values.ravel(), _sample_header(text)


def _bad_sample_line(path, text: str) -> DataError:
    """The error naming the first line that holds other than one number."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        cell = line.partition("#")[0].strip()
        if cell and not _is_number(cell):
            return DataError(f"{path}: line {lineno}: not a number: {cell!r}")
    return DataError(f"{path}: not one number per line")


# -- test -----------------------------------------------------------------


def _cmd_test(args) -> int:
    # A bad --k is a usage error whatever the file holds.
    law = None if args.k is None else DistanceDistribution(args.k)
    values, header = _read_sample_file(args.sample_file)
    if law is None:
        if "k" not in header:
            raise ValueError("test needs --k (sample file has no k header)")
        with _data_errors(f"{args.sample_file}: bad k in header: "):
            law = DistanceDistribution(float(header["k"]))
    with _data_errors(f"{args.sample_file}: "):
        report = sample_fit_report(EmpiricalSample(values), law, dependence_caveat=False)
    _print_report(report, args.output)
    return 0 if report.ks_passed else 1


# -- diagnose -------------------------------------------------------------


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(line number, line) of every line that is neither blank nor a comment."""
    return [
        (lineno, line) for lineno, line in enumerate(text.split("\n"), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def _parse_dataset(path, delimiter: str) -> np.ndarray:
    numbered = _data_lines(_read_text(path))
    lines = [line for _, line in numbered]
    if not lines:
        raise DataError(f"{path}: no data rows")
    header_rows = 0 if any(map(_is_number, lines[0].split(delimiter))) else 1
    if header_rows >= len(lines):
        raise DataError(f"{path}: no data rows after header")
    try:
        return np.loadtxt(
            lines[header_rows:], delimiter=delimiter, comments=None, ndmin=2
        )
    except ValueError as exc:
        raise _bad_dataset_row(path, numbered[header_rows:], delimiter, exc) from None


def _bad_dataset_row(path, numbered, delimiter: str, exc: ValueError) -> DataError:
    """The error naming the first line numpy's reader rejected.

    numpy's own message numbers rows from 0 for a bad cell and from 1
    for a ragged row, so lines are checked again here.
    """
    width = len(numbered[0][1].split(delimiter))
    for row_index, (lineno, line) in enumerate(numbered):
        cells = line.split(delimiter)
        if len(cells) != width:
            return DataError(
                f"{path}: line {lineno}: expected {width} fields, got {len(cells)}"
            )
        for col, cell in enumerate(cells):
            if not _is_number(cell):
                return DataError(
                    f"{path}: line {lineno}: row {row_index}, column {col}: "
                    f"not a number: {cell.strip()!r}"
                )
    return DataError(f"{path}: {exc}")


def _cmd_diagnose(args) -> int:
    if len(args.delimiter) != 1 or args.delimiter in "\r\n":
        raise ValueError(
            f"--delimiter must be one character other than a line break, "
            f"got {args.delimiter!r}"
        )
    matrix = _parse_dataset(args.dataset_file, args.delimiter)
    with _data_errors(f"{args.dataset_file}: "):
        report = fit_report(matrix if args.no_standardize else standardize(matrix))
    _print_report(report, args.output)
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
    labels = [f"k={k:g}" for k in dims]
    table = np.column_stack([grid] + [DistanceDistribution(k).pdf(grid) for k in dims])
    lines = ["r," + ",".join(labels)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    _write_lines(args.output, lines)
    meta = {
        "figure": args.figure,
        "series": labels,
        "r_start": start,
        "r_stop": stop,
        "r_step": step,
        "points_per_series": int(grid.size),
        "version": __version__,
    }
    _write_lines(args.output + ".meta.json", [json.dumps(meta)])
    return 0


# -- contrast -------------------------------------------------------------


def _parse_seeds(spec: str) -> list[int] | range:
    try:
        if "," in spec:
            return [int(s) for s in spec.split(",") if s.strip()]
        count = int(spec)
    except ValueError:
        raise ValueError(f"--seeds takes a count or a comma list, got {spec!r}") from None
    if count > MAX_COUNT:
        raise ValueError(f"--seeds counts at most {MAX_COUNT} seeds, got {count}")
    return range(count)


def _cmd_contrast(args) -> int:
    ks = _parse_float_list(args.k, "k")
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    lines = ["# columns: k seed d_max d_min contrast"]
    # Summed per position in --k, so a repeated k is not counted twice.
    totals = [0.0] * len(ks)
    for seed in seeds:
        rows = relative_contrast_curve(ks, args.n, seed)
        for i, row in enumerate(rows):
            totals[i] += row.contrast
            lines.append(
                f"{row.k} {seed} {_fmt(row.d_max)} {_fmt(row.d_min)} {_fmt(row.contrast)}"
            )
    lines.append("# mean contrast per k")
    for row, total in zip(rows, totals):
        lines.append(f"mean {row.k} {_fmt(total / len(seeds))}")
    _write_lines(args.output, lines)
    return 0


# -- parser ---------------------------------------------------------------


def _thread_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


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
    points = p.add_mutually_exclusive_group(required=True)
    points.add_argument("--grid", help="evaluation grid start:stop:step")
    points.add_argument("--at", help="explicit comma-separated evaluation points")
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
    p.add_argument(
        "--threads", type=_thread_count, default=1, help="worker cap (>= 1); never changes output"
    )
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
    p.add_argument("--output")
    p.set_defaults(func=_cmd_contrast)

    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser `main` uses and its parser per command: built on the first call, then reused.

    Reuse is safe because parse_args makes a fresh Namespace per call and
    argparse looks up sys.stdout and sys.stderr only when it writes.
    """
    parser = build_parser()
    (commands,) = (
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser parses it, exiting as it exits.

    The top-level parser hands everything after a command name to that
    command's parser, and refuses what is left over.  Doing both here
    skips its own pass over argv, which costs as much as the command's.
    That pass can fail only on an argument that starts with "--=", which
    abbreviates both --help and --version, so such an argv, like one not
    led by a command name, goes through the top-level parser.
    """
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        # A ValueError that reaches here rejected an argument: the commands
        # that read files turn theirs into DataError.
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ConvergenceError, OSError, MemoryError) as exc:
        # Python's own MemoryError carries no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
