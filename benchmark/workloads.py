"""Seeded op lists and input files for the three benchmark workloads.

An op is one ``gaussdist.cli.main(argv)`` call.  A workload's op list is
built in rounds, and every round holds the workload's whole mix of
commands.  The parameters that set an op's cost (k, n) are stratified
(``Strata``), so the list covers their ranges evenly and its cost hardly
depends on the seed.  Paths in an op's argv are relative to the pass
directory the child runs in, except input datasets, which live in the
shared ``data`` directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("law-eval", "sample-test", "diagnose")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY the harness self-test."""

    eval_points: int  # grid points of a pdf/cdf/survival op
    law_k_max: float  # k of the regular law-eval ops is log-uniform in [1, this]
    large_k: tuple[float, float]  # k range of the known-failing slice
    sample_n: tuple[int, int]  # n of a sample op, log-uniform
    big_sample_n: int  # n of the large analytic sample run once per pass
    rerun_n: int  # n of the analytic sample each round runs at both thread counts
    sample_k_max: int
    direct_normals: tuple[float, float]  # n*k of a --method direct op, log-uniform
    big_direct_normals: float  # n*k of the large direct sample run once per pass
    tall: tuple[tuple[int, int], tuple[int, int]]  # (rows range, cols range)
    wide: tuple[tuple[int, int], tuple[int, int]]
    too_wide: tuple[tuple[int, int], tuple[int, int]]
    big: tuple[tuple[int, int], tuple[int, int]]  # one dataset, run once per op list
    pool: int  # datasets per shape
    contrast_n: int
    rounds: dict  # rounds in the op list, per workload


FULL = Sizes(
    eval_points=11,
    law_k_max=3000.0,
    large_k=(1e4, 1e6),
    sample_n=(2_000, 20_000),
    big_sample_n=50_000,
    rerun_n=3_000,
    sample_k_max=1000,
    direct_normals=(1e4, 3e5),
    big_direct_normals=2.2e6,
    tall=((100, 220), (20, 60)),
    wide=((40, 70), (400, 800)),
    too_wide=((10, 20), (3300, 5000)),
    big=((1000, 1000), (40, 40)),
    pool=6,
    contrast_n=100,
    rounds={"law-eval": 5, "sample-test": 12, "diagnose": 5},
)

TINY = Sizes(
    eval_points=9,
    law_k_max=50.0,
    large_k=(1e4, 2e4),
    sample_n=(200, 400),
    big_sample_n=1000,
    rerun_n=300,
    sample_k_max=20,
    direct_normals=(1e3, 1e4),
    big_direct_normals=2e4,
    tall=((12, 16), (3, 5)),
    wide=((12, 14), (20, 30)),
    too_wide=((10, 11), (3300, 3400)),
    big=((20, 20), (5, 5)),
    pool=1,
    contrast_n=5,
    rounds={"law-eval": 1, "sample-test": 1, "diagnose": 1},
)


def _fmt(x: float) -> str:
    return repr(float(x))


class Strata:
    """n points in [0, 1)^2, one in each of n equal strata of each axis.

    Which stratum of the second axis goes with which of the first is
    fixed; the seed only moves each point within its strata (by at most a
    tenth of a stratum) and orders the points.  So every seed draws nearly
    the same parameter values and the op list's cost hardly varies.
    """

    def __init__(self, rng: np.random.Generator, n: int) -> None:
        strata = np.stack([np.arange(n), np.random.default_rng(0).permutation(n)], axis=1)
        jitter = 0.5 + 0.2 * (rng.random((n, 2)) - 0.5)
        self.points = ((strata + jitter) / n)[rng.permutation(n)]
        self.count = 0

    def take(self, n: int) -> np.ndarray:
        """The next n points, shape (n, 2)."""
        self.count += n
        return self.points[self.count - n:self.count]


# Points each round draws from each parameter stream.
DRAWS_PER_ROUND = {
    "law-eval": {"pdf": 3, "cdf": 6, "survival": 6, "quantile": 13, "moments": 5, "large": 2},
    "sample-test": {"analytic": 1, "rerun": 1, "direct": 2},
    "diagnose": {"contrast": 8},
}


def _log_uniform(u, lo: float, hi: float):
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


# -- law-eval ------------------------------------------------------------

_LARGE_K_CYCLE = ("cdf", "survival", "quantile", "pdf")


def _eval_op(tag: str, k: float, which: str, sizes: Sizes, u: float) -> dict:
    """An eval op; a quantile op evaluates the one probability 0.002 + 0.996*u."""
    if which == "quantile":
        count, start, step = 1, round(0.002 + 0.996 * u, 4), 1.0
    else:
        count = sizes.eval_points
        step = 12.0 / (count - 1)
        start = max(0.0, round(math.sqrt(2.0 * k) - 6.0, 2))
    stop = start + step * (count - 1)
    out = f"{tag}.txt"
    argv = ["eval", "--k", _fmt(k), "--which", which,
            "--grid", f"{_fmt(start)}:{_fmt(stop)}:{_fmt(step)}", "--output", out]
    return {"cmd": "eval", "argv": argv, "k": k, "which": which,
            "start": start, "step": step, "count": count, "outputs": [out]}


def _law_eval_round(rng: np.random.Generator, r: int, sizes: Sizes, seqs: dict) -> list[dict]:
    ops = []
    # Few fast ops (pdf, moments, plotdata), so the median op lies inside the
    # broad spread of cdf/survival/quantile times rather than at the gap
    # between the fast and slow groups, where it would jump.
    for which in ("pdf", "cdf", "survival", "quantile"):
        count = DRAWS_PER_ROUND["law-eval"][which]
        for j, u in enumerate(seqs[which].take(count)):
            k = round(float(_log_uniform(u[0], 1.0, sizes.law_k_max)), 2)
            ops.append(_eval_op(f"r{r}_{which}{j}", max(k, 1.0), which, sizes, u[1]))
    ks = _log_uniform(seqs["moments"].take(5)[:, 0], 1.0, sizes.law_k_max)
    ks = [max(round(float(k), 2), 1.0) for k in ks]
    out = f"r{r}_moments.txt"
    ops.append({"cmd": "moments", "argv": ["moments", "--k", ",".join(map(_fmt, ks)),
                                            "--output", out],
                "ks": ks, "outputs": [out]})
    # Figure 2 only: figure 4's eleven vectorized series would put numpy
    # work, which the host's load slows unlike the scalar path, among the
    # slowest tenth of ops, where op_p90_s is read.
    figure = "fig2"
    out = f"r{r}_{figure}.csv"
    ops.append({"cmd": "plotdata", "argv": ["plotdata", "--figure", figure, "--output", out],
                "figure": figure, "outputs": [out, out + ".meta.json"]})
    # The known-failing slice (about 5% of ops): k beyond ~3256 makes
    # cdf, survival and quantile raise ConvergenceError in the seed code.
    count = DRAWS_PER_ROUND["law-eval"]["large"]
    for j, u in enumerate(seqs["large"].take(count)):
        k = round(float(_log_uniform(u[0], *sizes.large_k)), 1)
        ops.append(_eval_op(f"r{r}_large{j}", k, _LARGE_K_CYCLE[(count * r + j) % 4], sizes,
                            u[1]))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- sample-test -----------------------------------------------------------


def _sample_op(tag: str, k: int, n: int, seed: int, method: str, threads: int) -> dict:
    path = f"{tag}.txt"
    argv = ["sample", "--k", str(k), "--n", str(n), "--seed", str(seed), "--method", method,
            "--threads", str(threads), "--output", path]
    return {"cmd": "sample", "argv": argv, "k": k, "n": n, "seed": seed, "method": method,
            "outputs": [path]}


def _test_op(sample: dict) -> dict:
    path = sample["outputs"][0]
    report = path.replace(".txt", "_test.json")
    return {"cmd": "test", "argv": ["test", path, "--output", report], "k": sample["k"],
            "n": sample["n"], "inputs": [path], "outputs": [report]}


def _rerun(sample: dict, tag: str) -> dict:
    """The same sample op at the other thread count; its file must be identical."""
    argv = list(sample["argv"])
    argv[argv.index("--threads") + 1] = str(3 - int(argv[argv.index("--threads") + 1]))
    argv[-1] = f"{tag}.txt"
    return dict(sample, argv=argv, outputs=[argv[-1]], same_as=sample["outputs"][0])


def _sample_test_round(rng: np.random.Generator, r: int, sizes: Sizes, seqs: dict) -> list[dict]:
    """One analytic sample of stratified (k, n); one of stratified k and fixed
    n, run again at the other thread count; two direct samples of
    stratified (k, n*k); each sample then tested."""
    threads = 1 + r % 2
    ops = []

    def k_of(u: float) -> int:
        return max(1, int(np.rint(_log_uniform(u, 1.0, sizes.sample_k_max))))

    u = seqs["analytic"].take(1)[0]
    n = int(round(float(_log_uniform(u[1], *sizes.sample_n))))
    samples = [_sample_op(f"r{r}_a", k_of(u[0]), n, int(rng.integers(0, 2**31)), "analytic",
                          threads)]
    fixed = _sample_op(f"r{r}_f", k_of(seqs["rerun"].take(1)[0, 0]), sizes.rerun_n,
                       int(rng.integers(0, 2**31)), "analytic", threads)
    samples.append(fixed)
    for j, u in enumerate(seqs["direct"].take(2)):
        # The cost of a direct op is its n*k normals, drawn directly so
        # that op times spread evenly instead of piling up at a cap.
        k = k_of(u[0])
        n = max(100, round(float(_log_uniform(u[1], *sizes.direct_normals)) / k))
        samples.append(_sample_op(f"r{r}_d{j}", k, n, int(rng.integers(0, 2**31)), "direct",
                                  3 - threads))
    for sample in samples:
        ops.append(sample)
        if sample is fixed:
            ops.append(_rerun(sample, f"r{r}_f_rerun"))
        ops.append(_test_op(sample))
    return ops


def _sample_test_once(rng: np.random.Generator, sizes: Sizes) -> list[dict]:
    """Ops run once per pass, not timed: the largest analytic sample, and the
    largest direct one, drawn in two blocks by two threads and again by one
    for the determinism check; its blocks set the pass's peak memory."""
    big = _sample_op("big_a", sizes.sample_k_max, sizes.big_sample_n,
                     int(rng.integers(0, 2**31)), "analytic", 2)
    k = sizes.sample_k_max
    direct = _sample_op("big_d", k, round(sizes.big_direct_normals / k),
                        int(rng.integers(0, 2**31)), "direct", 2)
    return [big, _test_op(big), direct, _rerun(direct, "big_d_rerun"), _test_op(direct)]


# -- diagnose --------------------------------------------------------------


def _write_dataset(path: Path, rng: np.random.Generator, rows: int, cols: int,
                   structured: bool, header: bool) -> None:
    if structured:
        # Features driven by a few shared factors: the effective dimension
        # drops below the column count and the KS verdict may fail.
        rank = max(1, cols // 8)
        data = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        data += 0.5 * rng.standard_normal((rows, cols))
    else:
        data = rng.standard_normal((rows, cols))
    data = data * rng.uniform(0.5, 3.0, cols) + rng.uniform(-5.0, 5.0, cols)
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        if header:
            stream.write(",".join(f"f{i}" for i in range(cols)) + "\n")
        np.savetxt(stream, data, fmt="%.10g", delimiter=",")


def _dataset_pool(rng: np.random.Generator, data_dir: Path, sizes: Sizes) -> dict:
    """Datasets per shape, their values drawn from the seed.

    Rows and columns are evenly spaced over the shape's ranges, the most
    rows paired with the fewest columns, so every seed gets the same costs
    and the same big dataset, whose pairwise distances set peak memory.
    """
    pool = {}
    for shape, count in (("tall", sizes.pool), ("wide", sizes.pool),
                         ("too_wide", max(1, sizes.pool // 3)), ("big", 1)):
        (r_lo, r_hi), (c_lo, c_hi) = getattr(sizes, shape)
        rows = np.linspace(r_hi, r_lo, count).round().astype(int)
        cols = np.linspace(c_lo, c_hi, count).round().astype(int)
        entries = []
        for i in range(count):
            path = data_dir / f"{shape}{i}.csv"
            header = i % 2 == 1
            _write_dataset(path, rng, int(rows[i]), int(cols[i]), structured=i % 3 == 2,
                           header=header)
            entries.append({"path": str(path), "rows": int(rows[i]), "cols": int(cols[i]),
                            "header": header})
        pool[shape] = entries
    return pool


def _diagnose_round(rng: np.random.Generator, r: int, sizes: Sizes, pool: dict,
                    seqs: dict) -> list[dict]:
    ops = []

    def diagnose(shape: str, i: int) -> None:
        entry = pool[shape][i % len(pool[shape])]
        out = f"r{r}_d{len(ops)}.json"
        ops.append({"cmd": "diagnose", "argv": ["diagnose", entry["path"], "--output", out],
                    "dataset": entry["path"], "shape": shape,
                    "inputs": [entry["path"]], "outputs": [out]})

    if r == 0:
        diagnose("big", 0)
    # More tall datasets than wide ones, so the median op lies inside the
    # spread of tall-op times, not at the gap between tall and wide ones.
    for j in range(11):
        diagnose("tall", r * 11 + j)
    for j in range(6):
        diagnose("wide", r * 6 + j)
    # Known-failing slice (5% of ops): more than ~3256 columns.
    diagnose("too_wide", r)
    for j in range(2):
        ks = sorted({int(k) for k in np.rint(_log_uniform(seqs["contrast"].take(4)[:, 0],
                                                          1.0, 1000.0))})
        seeds = sorted(int(s) for s in rng.choice(1000, size=5, replace=False))
        out = f"r{r}_c{j}.txt"
        ops.append({"cmd": "contrast",
                    "argv": ["contrast", "--k", ",".join(map(str, ks)),
                             "--n", str(sizes.contrast_n),
                             "--seeds", ",".join(map(str, seeds)), "--output", out],
                    "ks": ks, "n": sizes.contrast_n, "seeds": seeds, "outputs": [out]})
    return [ops[i] for i in rng.permutation(len(ops))]


# -- warm-up and plan ------------------------------------------------------


def _warmup_ops(data_dir: Path) -> list[dict]:
    """One tiny call of every command, run untimed before a pass."""
    tiny = data_dir / "warmup.csv"
    _write_dataset(tiny, np.random.default_rng(0), 12, 3, structured=False, header=False)
    return [{"argv": argv} for argv in (
        ["eval", "--k", "3", "--which", "pdf", "--grid", "0:2:1", "--output", "w_pdf.txt"],
        ["eval", "--k", "3", "--which", "cdf", "--grid", "0:2:1", "--output", "w_cdf.txt"],
        ["eval", "--k", "3", "--which", "quantile", "--at", "0.5", "--output", "w_q.txt"],
        ["moments", "--k", "3", "--output", "w_m.txt"],
        ["plotdata", "--figure", "fig2", "--output", "w_fig.csv"],
        ["sample", "--k", "3", "--n", "20", "--method", "direct", "--output", "w_s.txt"],
        ["sample", "--k", "3", "--n", "20", "--output", "w_s.txt"],
        ["test", "w_s.txt", "--output", "w_t.json"],
        ["diagnose", str(tiny), "--output", "w_d.json"],
        ["contrast", "--k", "2", "--n", "5", "--seeds", "1", "--output", "w_c.txt"],
    )]


def build_plan(workload: str, seed: int, data_dir: Path, sizes: Sizes = FULL) -> dict:
    """Generate a workload's op list (and input files) from its seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    data_dir.mkdir(parents=True, exist_ok=True)
    pool = _dataset_pool(rng, data_dir, sizes) if workload == "diagnose" else None
    rounds = sizes.rounds[workload]
    seqs = {name: Strata(rng, count * rounds)
            for name, count in DRAWS_PER_ROUND[workload].items()}
    ops = []
    for r in range(rounds):
        if workload == "law-eval":
            ops += _law_eval_round(rng, r, sizes, seqs)
        elif workload == "sample-test":
            ops += _sample_test_round(rng, r, sizes, seqs)
            if r == 0:
                ops += [dict(op, once=True) for op in _sample_test_once(rng, sizes)]
        else:
            ops += _diagnose_round(rng, r, sizes, pool, seqs)
    assert all(seq.count == len(seq.points) for seq in seqs.values())
    return {"workload": workload, "seed": seed, "ops": ops, "warmup": _warmup_ops(data_dir)}
