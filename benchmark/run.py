"""gaussdist benchmark: batch CLI commands, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload law-eval|sample-test|diagnose \
        --seed N --seconds S --trace 0|1

The op list and input files are generated from ``--seed`` before timing
starts (``workloads.py``).  One pass runs in a fresh child interpreter
(``child.py``) that imports ``gaussdist.cli`` from the checkout's ``src``
and calls ``main(argv)`` once per op, closed loop, one client.  After the
child has exited, every op's output is checked against an independent
oracle (``oracle.py``); an op fails if it raises, returns an unexpected
exit code, or its output does not match.

With ``--trace 0`` the op list repeats for ``--seconds`` (at least three
times) and an op's time is its fastest repetition: other tenants of a
shared machine slow single repetitions by up to 1.9x, which the fastest
of many mostly escapes.  What it does not escape is the host's clock
speed, which moves by 20% between runs for every program alike; so every
time metric is scaled to a reference clock speed measured by a fixed
kernel timed next to each op (``calib.py``).  The last
line of output holds the end-to-end metrics.  With ``--trace 1`` the op
list runs once untraced and once traced (``trace_layers.py``), and the
last line holds the per-layer metrics.  Work files go to
``.bench_work/`` under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import calib
import oracle
import workloads
from trace_layers import LAYERS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "items_per_s": "1/s",
    "ok_frac": "ratio", "peak_rss_mb": "MB",
    "specfun.calls": "count", "specfun.self_s": "s", "specfun.elements": "count",
    "specfun.ns_per_element": "ns", "specfun.series_elements": "count",
    "specfun.cf_elements": "count", "specfun.errors": "count",
    "distribution.calls": "count", "distribution.self_s": "s",
    "distribution.quantile_points": "count",
    "distribution.specfun_calls_per_quantile": "calls/point",
    "distribution.sample_draws": "count", "distribution.ns_per_draw": "ns",
    "moments.calls": "count", "moments.self_s": "s",
    "montecarlo.simulated_normals": "count", "montecarlo.ns_per_normal": "ns",
    "montecarlo.self_s": "s", "montecarlo.ks_self_s": "s",
    "diagnostics.pairs": "count", "diagnostics.pairwise_s": "s",
    "diagnostics.ns_per_pair": "ns", "diagnostics.self_s": "s",
    "diagnostics.pairwise_peak_mb": "MB",
    "cli.self_s": "s", "cli.bytes_in": "B", "cli.bytes_out": "B",
    "cli.ns_per_byte_in": "ns/B", "cli.ns_per_byte_out": "ns/B",
    "trace.overhead_frac": "ratio",
}
END_TO_END = ("setup_s", "op_p50_s", "op_p90_s", "items_per_s", "ok_frac", "peak_rss_mb")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


def _child_env() -> dict:
    env = dict(os.environ)
    # At most 2 threads: the op's own --threads, and BLAS inside numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    # A fixed glibc mmap threshold returns every freed array of 4 MiB or
    # more to the system, so ru_maxrss follows live memory rather than the
    # heap's history, which varied by 30% between seeds.
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    return env


def run_child(root: Path, work: Path, plan_path: Path, seconds: float, trace: bool) -> dict:
    job = {"src": str(root / "src"), "plan": str(plan_path), "work": str(work),
           "seconds": seconds, "mode": "trace" if trace else "e2e"}
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path),
                           str(result_path)], env=_child_env(), cwd=work,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark pass exited with status {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_pass(plan: dict, phase: dict, traced: dict | None) -> tuple[list, list, int]:
    """Check every op of a pass against the oracle.

    Returns (seconds, ok, items, timed) per op, where seconds is the op's
    fastest repetition and timed is false for ops that run once per pass;
    (raised, message) per failed op; and the number of failed calls.  An
    op fails if a repetition raised, exited with an unexpected code or
    ended differently from another, if its output does not match the
    oracle, or, in a traced run, if its traced output differs.
    """
    ctx: dict = {}
    runs: dict = {}
    for _, i, seconds, rc, err in phase["records"]:
        runs.setdefault(i, []).append((seconds, rc, err))
    samples, failures, failed_calls = [], [], 0
    pass_dir = Path(phase["dir"])
    for i, op in enumerate(plan["ops"]):
        outcomes = {(rc, err) for _, rc, err in runs[i]}
        rc, err = min(outcomes, key=repr)
        if len(outcomes) > 1:
            ok, items, reason = False, 0, f"repetitions ended differently: {outcomes}"
        else:
            ok, items, reason = oracle.check_op(op, rc, err, pass_dir, ctx)
        if ok and traced is not None:
            traced_dir = Path(traced["dir"])
            if traced["records"][i][3:] != [rc, err] or any(
                    (pass_dir / p).read_bytes() != (traced_dir / p).read_bytes()
                    for p in op["outputs"]):
                ok, reason = False, "traced output differs"
        if not ok:
            failures.append((err is not None, f"op {i} ({op['argv'][0]}): {reason}"))
            failed_calls += len(runs[i])
        samples.append((min(s for s, _, _ in runs[i]), ok, items if ok else 0,
                        not op.get("once")))
    return samples, failures, failed_calls


def _rank_time(timed: list[tuple], q: float) -> float:
    """Nearest-rank q-quantile of op time, a failed op ranking above every success.

    If the rank falls on a failed op, the time of the whole op list stands in.
    """
    ranked = sorted(s if ok else math.inf for s, ok, _ in timed)
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return sum(s for s, _, _ in timed) if math.isinf(value) else value


def end_to_end_metrics(samples: list[tuple], setup_s: float, peak_rss_mb: float,
                       speed: float) -> dict:
    """The end-to-end metrics; times are scaled by ``speed`` to the
    reference clock speed.  Ops that run once per pass count in ``ok_frac``
    only."""
    timed = [(s * speed, ok, items) for s, ok, items, is_timed in samples if is_timed]
    return {
        "setup_s": setup_s * speed,
        "op_p50_s": _rank_time(timed, 0.5),
        "op_p90_s": _rank_time(timed, 0.9),
        "items_per_s": sum(items for _, _, items in timed) / sum(s for s, _, _ in timed),
        "ok_frac": sum(ok for _, ok, _, _ in samples) / len(samples),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(spans_path: Path, traced_s: float, untraced_s: float) -> dict:
    """Per-layer counts and self times from the saved spans."""
    z = np.load(spans_path)
    counters = dict(zip(z["counter_keys"].tolist(), z["counter_values"].tolist()))
    layer, name, parent, op = z["layer"], z["name"], z["parent"], z["op"]
    names = [s.split(":", 1)[1] for s in z["names"].tolist()]
    dur = z["end"] - z["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_s = dur - child_time

    def by_name(*wanted) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n in wanted]
        return np.isin(name, ids)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m = {}
    for i, lay in enumerate(LAYERS):
        m[f"{lay}.calls"] = int(np.count_nonzero(layer == i))
        m[f"{lay}.self_s"] = float(self_s[layer == i].sum())
    c = lambda key: counters.get(key, 0.0)  # noqa: E731
    cli = layer == LAYERS.index("cli")
    reads = z["op_bytes_in"] > 0  # test and diagnose read an input file
    cli_reads = reads[op[cli]]
    pairwise = by_name("pairwise_distances")
    m.update({
        "specfun.elements": c("specfun.elements"),
        "specfun.ns_per_element": ratio(m["specfun.self_s"], c("specfun.elements"), 1e9),
        "specfun.series_elements": c("specfun.series_elements"),
        "specfun.cf_elements": c("specfun.cf_elements"),
        "specfun.errors": c("specfun.errors"),
        "distribution.quantile_points": c("distribution.quantile_points"),
        "distribution.specfun_calls_per_quantile": ratio(
            c("distribution.specfun_calls_in_quantile"), c("distribution.quantile_points")),
        "distribution.sample_draws": c("distribution.sample_draws"),
        "distribution.ns_per_draw": ratio(
            float(self_s[by_name("DistanceDistribution.sample")].sum()),
            c("distribution.sample_draws"), 1e9),
        "montecarlo.simulated_normals": c("montecarlo.simulated_normals"),
        "montecarlo.ns_per_normal": ratio(float(self_s[by_name("simulate_pairs")].sum()),
                                          c("montecarlo.simulated_normals"), 1e9),
        "montecarlo.ks_self_s": float(self_s[by_name("ks_one_sample", "ks_two_sample")].sum()),
        "diagnostics.pairs": c("diagnostics.pairs"),
        "diagnostics.pairwise_s": float(dur[pairwise].sum()),
        "diagnostics.ns_per_pair": ratio(float(dur[pairwise].sum()),
                                         c("diagnostics.pairs"), 1e9),
        "diagnostics.pairwise_peak_mb": c("diagnostics.pairwise_peak_bytes") / 2**20,
        "cli.bytes_in": float(z["op_bytes_in"].sum()),
        "cli.bytes_out": float(z["op_bytes_out"].sum()),
        # cli self time of the commands that read an input file, per byte
        # read; of the other commands, per byte written.
        "cli.ns_per_byte_in": ratio(float(self_s[cli][cli_reads].sum()),
                                    float(z["op_bytes_in"].sum()), 1e9),
        "cli.ns_per_byte_out": ratio(float(self_s[cli][~cli_reads].sum()),
                                     float(z["op_bytes_out"][~reads].sum()), 1e9),
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
    })
    return {key: m[key] for key in PER_LAYER}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            sizes: workloads.Sizes = workloads.FULL) -> dict:
    """Generate, run and check one pass; return the result object."""
    work = root / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.build_plan(workload, seed, work / "data", sizes)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        result = run_child(root, work, plan_path, seconds, trace)
        phase, traced = result["phases"]["a"], result["phases"].get("b")
        samples, failures, failed_calls = check_pass(plan, phase, traced)
        if trace:
            metrics = layer_metrics(work / "spans.npz",
                                    sum(rec[2] for rec in traced["records"]),
                                    sum(rec[2] for rec in phase["records"]))
        else:
            metrics = end_to_end_metrics(samples, statistics.median(phase["setup_s"]),
                                         result["peak_rss_mb"], calib.scale(phase["kernel_s"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    for _, line in failures[:20]:
        print(f"failed op: {line}", file=sys.stderr)
    # An op that raised (the known large-k slice) failed; an op that
    # returned a wrong output makes the whole result incorrect.
    return {
        "correct": all(raised for raised, _ in failures),
        "attempted": len(phase["records"]),
        "failed": failed_calls,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gaussdist" / "cli.py").is_file():
        print(f"no gaussdist source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
