"""Replay the benchmark's op lists on the parent commit and on the change, and count differences.

Usage, from the root of a checkout:

    python3 tools/replay_ops.py [--seed 1] [--change REV] [--records PATH]

For every workload of `benchmark/workloads.py` the op list of `--seed` is
built once (`build_plan`), with its input files, and then replayed on two
sides: the parent, the HEAD commit extracted with `git archive` into a
temporary directory, and the change, the working tree as it stands (or
`--change REV`, extracted the same way; `--change HEAD` replays the parent
against itself).  Each side runs in its own child process with
`OPENBLAS_NUM_THREADS=1`, imports `gaussdist.cli` from its own `src`, and
calls `main(argv)` once per warm-up and op, in the same directories as the
other side, so paths in messages match.  Per op it records the exit code
(or the name of the exception `main` raised), stdout, stderr and the
sha256 of every file the op writes.

The output gives, per command, the number of ops and the number whose exit
code, stdout, stderr or output files differ between the sides, and under
it the workload, kind, index and argv of up to 10 of those ops.
`--records` also writes both sides' records as JSON.  The benchmark's files
are only imported, never changed.  Standard library plus numpy, which
`benchmark/workloads.py` needs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import extract, git  # noqa: E402

SIDES = ("parent", "change")
FIELDS = ("exit", "stdout", "stderr", "outputs")
LISTED = 10  # differing ops named per command


def output_paths(op: dict) -> list[str]:
    """The files an op writes: its listed outputs, or, for a warm-up, its --output."""
    if "outputs" in op:
        return op["outputs"]
    argv = op["argv"]
    if "--output" not in argv:
        return []
    path = argv[argv.index("--output") + 1]
    return [path, path + ".meta.json"] if argv[0] == "plotdata" else [path]


def sha256(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def replay(src: Path, plans: dict, work: Path) -> list[dict]:
    """Run every plan's warm-ups and ops through the `gaussdist.cli` under src."""
    sys.path.insert(0, str(src))
    import gaussdist.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"gaussdist imported from {cli.__file__}, not {src}")
    records = []
    for workload, plan in plans.items():
        pass_dir = work / workload
        pass_dir.mkdir(parents=True)
        os.chdir(pass_dir)
        for kind in ("warmup", "ops"):
            for index, op in enumerate(plan[kind]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(op["argv"])
                    except Exception as exc:  # recorded, and the replay goes on
                        code = type(exc).__name__
                records.append({
                    "workload": workload, "kind": kind, "index": index,
                    "cmd": op["argv"][0], "argv": op["argv"], "exit": code,
                    "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "outputs": {p: sha256(p) for p in output_paths(op)},
                })
    return records


def differing_fields(old: dict, new: dict) -> list[str]:
    return [field for field in FIELDS if old[field] != new[field]]


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per command: its op count, the ops that differ in any field, and per field."""
    if [(r["workload"], r["kind"], r["index"]) for r in parent] != [
            (r["workload"], r["kind"], r["index"]) for r in change]:
        raise ValueError("the two sides did not replay the same ops")
    counts: dict = {}
    for old, new in zip(parent, change):
        entry = counts.setdefault(old["cmd"], {"ops": 0, "differ": 0, **dict.fromkeys(FIELDS, 0)})
        entry["ops"] += 1
        differing = differing_fields(old, new)
        entry["differ"] += bool(differing)
        for field in differing:
            entry[field] += 1
    return counts


def summary(parent: list[dict], change: list[dict]) -> list[str]:
    """Per command, its counts, then workload, kind, index and argv of its first differing ops."""
    lines = []
    for cmd, c in compare(parent, change).items():
        fields = ", ".join(f"{field} {c[field]}" for field in FIELDS)
        lines.append(f"{cmd:9} {c['ops']:4} ops, {c['differ']:4} differ ({fields})")
        differ = [old for old, new in zip(parent, change)
                  if old["cmd"] == cmd and differing_fields(old, new)]
        lines += [f"  {r['workload']} {r['kind']} {r['index']}: {shlex.join(r['argv'])}"
                  for r in differ[:LISTED]]
    return lines


def run_side(root: Path, src: Path, plans_path: Path, work: Path, out: Path) -> list[dict]:
    """One side's replay in a child process, in an emptied work directory."""
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, __file__, "--child", str(src), str(plans_path), str(work),
                    str(out)], cwd=root, env=env, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of every workload's op list")
    parser.add_argument("--change", help="replay this commit instead of the working tree")
    parser.add_argument("--records", help="also write both sides' records here as JSON")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        src, plans_path, work, out = map(Path, args.child)
        plans = json.loads(plans_path.read_text(encoding="utf-8"))
        Path(out).write_text(json.dumps(replay(src, plans, work)), encoding="utf-8")
        return 0

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    sys.path.insert(0, str(root / "benchmark"))
    import workloads

    tmp = Path(tempfile.mkdtemp(prefix="replay-ops-"))
    try:
        checkouts = {"parent": tmp / "parent", "change": root}
        extract(root, "HEAD", checkouts["parent"])
        if args.change:
            checkouts["change"] = tmp / "change"
            extract(root, args.change, checkouts["change"])
        plans = {w: workloads.build_plan(w, args.seed, tmp / "data" / w)
                 for w in workloads.WORKLOADS}
        plans_path = tmp / "plans.json"
        plans_path.write_text(json.dumps(plans), encoding="utf-8")
        records = {side: run_side(root, checkouts[side] / "src", plans_path, tmp / "work",
                                  tmp / f"{side}.json") for side in SIDES}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.records:
        Path(args.records).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"seed {args.seed}: {len(records['parent'])} ops "
          f"(warm-ups included), HEAD against {args.change or 'the working tree'}")
    print("\n".join(summary(records["parent"], records["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
