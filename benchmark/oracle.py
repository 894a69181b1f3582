"""Independent checks of every op's output, run after the pass has ended.

The law is checked against ``scipy.stats.chi(k, scale=sqrt(2))``, moments
against mpmath at 40 digits, ``test`` and ``diagnose`` reports against a
scipy recompute (``pdist``, ``ks_1samp``) from the input files, and
``contrast`` rows against a recompute of the documented seeding with
scipy's ``cdist``.  Each check returns (ok, items, reason); an op whose
output does not match counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy import stats
from scipy.spatial.distance import cdist, pdist

SQRT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps
KS_COEFF_01 = 1.63

# Log-space evaluation at dimension k adds terms of size ~k ln r, so both
# the program and scipy carry a relative error of a few k*eps (2.4e-9
# between them at k = 1e6, 5e-12 at k = 3000).
def law_rtol(k: float) -> float:
    return 1e-10 + 20.0 * EPS * k


# Central moments 3 and 4 (and skewness, kurtosis) are formed from raw
# moments by binomial expansion, which cancels ~k^1.5 in double precision:
# measured 1.8e-8 relative error at k = 3000 against mpmath.  Larger errors
# are reported: at k = 2046.76, (k+2)/2 - k/2 rounds below 1, gamma_ratio
# leaves its exact integer-offset path, m2 is off by 9e-13 and mu3 by 3.4e-5.
RAW_RTOL = 1e-11
SHAPE_RTOL = 1e-6


class Mismatch(Exception):
    pass


def _close(got, want, rtol: float, atol: float = 1e-300, what: str = "value") -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= rtol * np.abs(want) + atol)
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise Mismatch(f"{what}[{i}]: {got.ravel()[i]!r} != {want.ravel()[i]!r}")


def law(k: float):
    return stats.chi(k, scale=SQRT2)


def law_values(which: str, k: float, x: np.ndarray) -> np.ndarray:
    dist = law(k)
    return {"pdf": dist.pdf, "cdf": dist.cdf, "survival": dist.sf,
            "quantile": dist.ppf}[which](x)


def _read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# -- law-eval ----------------------------------------------------------------


def check_eval(op: dict, d: Path, ctx: dict) -> int:
    rows = np.array(_read_text(d / op["outputs"][0]).split(), dtype=float).reshape(-1, 2)
    if len(rows) != op["count"]:
        raise Mismatch(f"{len(rows)} rows, expected {op['count']}")
    grid = op["start"] + op["step"] * np.arange(op["count"])
    _close(rows[:, 0], grid, 1e-12, 1e-12, "grid point")
    _close(rows[:, 1], law_values(op["which"], op["k"], rows[:, 0]),
           law_rtol(op["k"]), what=op["which"])
    return len(rows)


def moments_mp(k: float) -> list[float]:
    with mpmath.workdps(40):
        k = mpmath.mpf(k)
        m1, m2, m3, m4 = (2**n * mpmath.gamma((k + n) / 2) / mpmath.gamma(k / 2)
                          for n in range(1, 5))
        c2 = m2 - m1**2
        c3 = m3 - 3 * m1 * m2 + 2 * m1**3
        c4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
        return [float(v) for v in (m1, m2, m3, m4, c2, c3, c4, c3 / c2**1.5, c4 / c2**2)]


def check_moments(op: dict, d: Path, ctx: dict) -> int:
    lines = _read_text(d / op["outputs"][0]).splitlines()
    if lines[0].split() != ["k", "m1", "m2", "m3", "m4", "mu2", "mu3", "mu4",
                            "skewness", "kurtosis"]:
        raise Mismatch(f"bad header {lines[0]!r}")
    table = np.array([line.split() for line in lines[1:]], dtype=float)
    if table.shape != (len(op["ks"]), 10):
        raise Mismatch(f"table shape {table.shape}")
    for row, k in zip(table, op["ks"]):
        want = moments_mp(k)
        _close(row[0], k, 0.0, 0.0, "k")
        _close(row[1:6], want[:5], RAW_RTOL, what=f"raw/mu2 at k={k}")
        _close(row[6:], want[5:], SHAPE_RTOL, what=f"mu3/mu4/shape at k={k}")
    return len(op["ks"])


FIGURES = {"fig2": ((1,), 6.0), "fig4": ((1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 100), 18.0)}


def check_plotdata(op: dict, d: Path, ctx: dict) -> int:
    dims, stop = FIGURES[op["figure"]]
    lines = _read_text(d / op["outputs"][0]).splitlines()
    if lines[0] != "r," + ",".join(f"k={k}" for k in dims):
        raise Mismatch(f"bad header {lines[0]!r}")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    count = int(round(stop / 0.01)) + 1
    if table.shape != (count, len(dims) + 1):
        raise Mismatch(f"table shape {table.shape}")
    _close(table[:, 0], 0.01 * np.arange(count), 1e-12, 1e-12, "r")
    for j, k in enumerate(dims, start=1):
        _close(table[:, j], law(k).pdf(table[:, 0]), law_rtol(k), what=f"pdf k={k}")
    meta = json.loads(_read_text(d / op["outputs"][1]))
    if meta.get("points_per_series") != count or meta.get("figure") != op["figure"]:
        raise Mismatch(f"bad meta {meta}")
    return count * len(dims)


# -- sample-test ---------------------------------------------------------------


def read_sample(path: Path, ctx: dict):
    """(header dict, values) of a sample file, parsed once per check run."""
    cache = ctx.setdefault("samples", {})
    if path not in cache:
        header, body = {}, []
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("#"):
                    key, _, val = line[1:].partition(":")
                    header[key.strip()] = val.strip()
                else:
                    body.append(line)
        cache[path] = (header, np.array("".join(body).split(), dtype=float))
    return cache[path]


def check_sample(op: dict, d: Path, ctx: dict) -> int:
    path = d / op["outputs"][0]
    if "same_as" in op:
        if path.read_bytes() != (d / op["same_as"]).read_bytes():
            raise Mismatch("output differs between --threads 1 and --threads 2")
        return op["n"]
    header, values = read_sample(path, ctx)
    want = {"k": repr(float(op["k"])), "n": str(op["n"]), "seed": str(op["seed"]),
            "method": op["method"]}
    for key, val in want.items():
        if header.get(key) != val:
            raise Mismatch(f"header {key}: {header.get(key)!r} != {val!r}")
    if "version" not in header:
        raise Mismatch("header has no version")
    if values.size != op["n"]:
        raise Mismatch(f"{values.size} values, expected {op['n']}")
    if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
        raise Mismatch("values must be finite and non-negative")
    return op["n"]


def _fit_expected(values: np.ndarray, k: float, caveat: bool) -> dict:
    n = values.size
    stat = stats.ks_1samp(values, law(k).cdf, method="asymp").statistic
    crit = KS_COEFF_01 / math.sqrt(n)
    moments = moments_mp(k)
    return {"k": k, "n_pairs": n, "ks_statistic": stat, "ks_critical_01": crit,
            "mean_observed": float(np.mean(values)),
            "variance_observed": float(np.var(values, ddof=1)),
            "mean_expected": moments[0], "variance_expected": moments[4],
            "dependence_caveat": caveat}


def _check_report(report: dict, want: dict) -> bool | None:
    """Compare a fit report with the recompute; return the KS verdict (None
    when the statistic is within 1e-9 of the critical value)."""
    for key in ("k", "n_pairs", "dependence_caveat"):
        if report[key] != want[key]:
            raise Mismatch(f"{key}: {report[key]!r} != {want[key]!r}")
    _close(report["ks_statistic"], want["ks_statistic"], 0.0, 1e-9, "ks_statistic")
    _close(report["ks_critical_01"], want["ks_critical_01"], 1e-12, what="ks_critical_01")
    _close(report["mean_observed"], want["mean_observed"], 1e-10, what="mean_observed")
    _close(report["variance_observed"], want["variance_observed"], 1e-8,
           what="variance_observed")
    _close(report["mean_expected"], want["mean_expected"], RAW_RTOL, what="mean_expected")
    _close(report["variance_expected"], want["variance_expected"], RAW_RTOL,
           what="variance_expected")
    k_eff = report["effective_dimension"]
    if want["mean_observed"] <= moments_mp(1.0)[0]:
        _close(k_eff, 1.0, 0.0, 0.0, "effective_dimension")
    else:
        _close(moments_mp(k_eff)[0], want["mean_observed"], 1e-9,
               what="mean at effective k")
    if report["ks_passed"] != (report["ks_statistic"] < report["ks_critical_01"]):
        raise Mismatch("ks_passed disagrees with statistic < critical")
    margin = want["ks_statistic"] - want["ks_critical_01"]
    return None if abs(margin) < 1e-9 else margin < 0.0


def check_test(op: dict, d: Path, ctx: dict) -> int:
    _, values = read_sample(d / op["inputs"][0], ctx)
    report = json.loads(_read_text(d / op["outputs"][0]))
    passed = _check_report(report, _fit_expected(np.sort(values), float(op["k"]), False))
    if passed is not None and ctx["rc"] != (0 if passed else 1):
        raise Mismatch(f"exit code {ctx['rc']} for KS verdict passed={passed}")
    return op["n"]


# -- diagnose ------------------------------------------------------------------


def dataset_expected(path: str, ctx: dict) -> dict:
    cache = ctx.setdefault("datasets", {})
    if path not in cache:
        with open(path, encoding="utf-8") as stream:
            first = stream.readline()
        skip = 0 if first[:1] in "-+.0123456789" else 1
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        z = (data - data.mean(axis=0)) / data.std(axis=0, ddof=1)
        cache[path] = _fit_expected(np.sort(pdist(z)), float(data.shape[1]), True)
    return cache[path]


def check_diagnose(op: dict, d: Path, ctx: dict) -> int:
    want = dataset_expected(op["dataset"], ctx)
    _check_report(json.loads(_read_text(d / op["outputs"][0])), want)
    return want["n_pairs"]


def check_contrast(op: dict, d: Path, ctx: dict) -> int:
    lines = _read_text(d / op["outputs"][0]).splitlines()
    rows = [line.split() for line in lines if not line.startswith(("#", "mean"))]
    means = [line.split() for line in lines if line.startswith("mean")]
    expected = [(k, seed) for seed in op["seeds"] for k in op["ks"]]
    if [(int(r[0]), int(r[1])) for r in rows] != expected:
        raise Mismatch("rows are not one per (seed, k)")
    totals = dict.fromkeys(op["ks"], 0.0)
    for row, (k, seed) in zip(rows, expected):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, k))))
        points = rng.standard_normal((op["n"], k))
        query = rng.standard_normal((1, k))
        dist = cdist(points, query).ravel()
        want = [dist.max(), dist.min(), (dist.max() - dist.min()) / dist.min()]
        _close(np.array(row[2:], dtype=float), want, 1e-10, what=f"k={k} seed={seed}")
        totals[k] += want[2]
    if [int(m[1]) for m in means] != op["ks"]:
        raise Mismatch("mean rows do not list every k")
    _close(np.array([m[2] for m in means], dtype=float),
           [totals[k] / len(op["seeds"]) for k in op["ks"]], 1e-10, what="mean contrast")
    return len(op["seeds"]) * len(op["ks"]) * op["n"]


CHECKS = {"eval": check_eval, "moments": check_moments, "plotdata": check_plotdata,
          "sample": check_sample, "test": check_test, "diagnose": check_diagnose,
          "contrast": check_contrast}


def check_op(op: dict, rc, err, pass_dir: Path, ctx: dict) -> tuple[bool, int, str]:
    """Verdict on one op: (ok, items, reason)."""
    if err is not None:
        return False, 0, f"raised {err}"
    expected = (0, 1) if op["cmd"] == "test" else (0,)
    if rc not in expected:
        return False, 0, f"exit code {rc}"
    ctx["rc"] = rc  # check_test compares it with the KS verdict
    try:
        return True, CHECKS[op["cmd"]](op, pass_dir, ctx), ""
    except (Mismatch, OSError, ValueError, KeyError, IndexError) as exc:
        return False, 0, f"{type(exc).__name__}: {exc}"
