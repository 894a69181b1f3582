"""Alternating parent/change runs of the benchmark, summarized into BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --label NAME [--seed 1]

The parent is the HEAD commit, extracted with `git archive` into a
temporary directory, so a run that is cut short leaves nothing registered
in the repository; the change is the working tree as it stands.  Both run
their own unchanged `benchmark/run.py` on every workload of BENCHMARK.json,
for its `run_seconds`, untraced.  There are 10 pairs; pair i uses seed
`--seed` + i - 1; odd pairs run the parent first, even pairs the change,
and within a pair every workload runs on both sides before the next
workload starts.

The output holds every result line under `runs`, each tagged with the
commit it ran, or, for a change with edited or new files under src/, with
the sha256 of its src/ tree.  Under `summary`, per workload: each side's
count of failed runs (`failed_runs`; a pair that holds one is left out of
the metrics, so their `n` falls below 10), and per metric:
each side's quartiles (linear interpolation, as numpy's default
percentile), the pairs the change won (ties count for neither side), the
change of the median and the parent's interquartile range, both relative
to the parent's median, `gain`: true when the change won at least nine
tenths of the pairs run (ties count for neither side) and its median is
better than the parent's by more than the parent's interquartile range,
the rule a claimed gain must meet; and, for a metric with a bound in
BENCHMARK.json, a verdict: "within bound", "worse than bound", or
"unresolved" when the parent's own spread is wider than the bound and the
runs do not all order one way.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def extract(root: Path, rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", rev)), mode="r:") as tar:
        tar.extractall(dest, filter="data")


def tree_digest(root: Path) -> str:
    """sha256 over the paths and bytes of every file under root/src."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine(root: Path) -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy, "cpus": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark/run.py pass; its last output line, or the failure."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], workload: str, specs: dict) -> dict:
    """Per side, its failed runs; per metric: quartiles per side, pairs won,
    median change, gain, verdict.  A pair that holds a failed run is left
    out of the metrics but counts among the pairs run."""
    by_pair: dict = {}
    pairs_run = set()
    summary = {"failed_runs": dict.fromkeys(SIDES, 0)}
    for run in runs:
        if run["workload"] != workload:
            continue
        pairs_run.add(run["pair"])
        if "metrics" in run["output"]:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["output"]["metrics"]
        else:
            summary["failed_runs"][run["side"]] += 1
    pairs = [p for p in by_pair.values() if len(p) == 2]
    if not pairs:
        return summary
    for name in pairs[0]["parent"]:
        values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        spec = specs.get(name, {})
        sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        wins, ties = sum(d < 0 for d in diffs), sum(d == 0 for d in diffs)
        stats = {side: quartiles(values[side]) for side in SIDES}
        base = stats["parent"]["median"]
        entry = {
            **stats,
            "change_wins": f"{wins}/{len(pairs)}" + (f" ({ties} ties)" if ties else ""),
            "median_change_frac": (stats["change"]["median"] - base) / base if base else 0.0,
            "parent_iqr_frac": (stats["parent"]["q3"] - stats["parent"]["q1"]) / base
            if base else 0.0,
            "gain": 10 * wins >= 9 * len(pairs_run) and sign * (
                base - stats["change"]["median"]) > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
        if "bound" in spec:
            worse_frac = sign * entry["median_change_frac"]
            all_better = max(sign * v for v in values["change"]) < min(
                sign * v for v in values["parent"])
            if worse_frac > spec["bound"]:
                verdict = "worse than bound"
            elif entry["parent_iqr_frac"] > spec["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            entry.update(bound=spec["bound"], verdict=verdict)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 1")
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent = git(root, "rev-parse", "HEAD").decode().strip()
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=all", "--", "src"))
    change = f"{parent}+src sha256 {tree_digest(root)}" if dirty else parent

    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    runs = []
    try:
        extract(root, parent, tmp)
        checkouts = {"parent": tmp, "change": root}
        for pair in range(1, PAIRS + 1):
            seed = args.seed + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in names:
                for position, side in enumerate(order, 1):
                    output = run_once(checkouts[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seconds": seconds, "pair": pair,
                                 "side": side, "order": position, "seed": seed,
                                 "commit": parent if side == "parent" else change,
                                 "output": output})
                    print(f"pair {pair} {workload} {side}: "
                          f"{'error' if 'error' in output else 'ok'}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "what": (f"benchmark/run.py --trace 0 --seconds {seconds:g} on the parent commit and "
                 f"on the change, in {PAIRS} alternating pairs at seeds "
                 f"{args.seed}-{args.seed + PAIRS - 1} (order 1 runs first; odd pairs run "
                 f"the parent first); within a pair each workload ran on both sides before the "
                 f"next ({', '.join(names)}). Written by tools/bench_pairs.py on "
                 f"{datetime.date.today().isoformat()}."),
        "machine": machine(root),
        "parent": parent,
        "change": change,
        "summary": {w: summarize(runs, w, specs) for w in names},
        "runs": runs,
    }
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
