"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py JOB_JSON RESULT_JSON

Imports ``gaussdist.cli`` from the ``src`` directory named in the job and
calls ``main(argv)`` once per op, timing only that call.  Ops marked
``once`` run in the first repetition only.  Standard output and error of
the program go to files in the pass directory.  In ``e2e`` mode the op
list runs again and again until the job's seconds have elapsed, at least
MIN_REPS times; the calibration kernel (``calib.py``) is timed right
before every op, and after every repetition a fresh interpreter is timed
importing the CLI and building its parser.  In ``trace`` mode the op list
runs once untraced (phase ``a``) and once traced (phase ``b``), each
phase in its own directory, and the spans are written next to the
result.  Nothing here checks outputs: the parent does that after this
process has exited.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import calib

MIN_REPS = 3

SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import gaussdist.cli\n"
    "gaussdist.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def _setup_seconds(src: str) -> float:
    """Time for a fresh interpreter to import the CLI and build its parser."""
    out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, src], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _run_op(cli, op: dict, stdout, tracer) -> list:
    """Run one op; return [seconds, exit code or None, error name or None]."""
    if tracer is not None:
        before = stdout.tell()
        tracer.begin_op(sum(_size(p) for p in op.get("inputs", ())))
    rc = err = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(op["argv"])
    except Exception as exc:  # the op failed; the pass keeps running
        err = type(exc).__name__
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        stdout.flush()
        written = stdout.tell() - before + sum(_size(p) for p in op.get("outputs", ()))
        tracer.end_op(written)
    return [elapsed, rc, err]


def _phase(cli, plan: dict, pass_dir: Path, seconds: float | None, tracer=None,
           src: str = "") -> dict:
    """Run the op list; repeat it for ``seconds`` if given, else run it once.

    A repeated list also times the calibration kernel before every op and a
    set-up import after every repetition.
    """
    pass_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(pass_dir)
    records, kernel, setup = [], [], []
    with open("stdout.txt", "w", encoding="utf-8") as out, \
            open("stderr.txt", "w", encoding="utf-8") as err:
        sys.stdout, sys.stderr = out, err
        try:
            if tracer is None:
                for op in plan["warmup"]:
                    _run_op(cli, op, out, None)
            start = time.perf_counter()

            def done(reps: int) -> bool:
                if seconds is None:
                    return True
                # A slow program gets up to four times the seconds.
                elapsed = time.perf_counter() - start
                return elapsed >= seconds and reps >= MIN_REPS or elapsed >= 4 * seconds

            reps = 0
            while reps == 0 or not done(reps):
                for i, op in enumerate(plan["ops"]):
                    if reps and op.get("once"):
                        continue
                    if seconds is not None:
                        kernel.append(calib.kernel_seconds())
                    records.append([reps, i, *_run_op(cli, op, out, tracer)])
                if seconds is not None:
                    setup.append(_setup_seconds(src))
                reps += 1
        finally:
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return {"dir": str(pass_dir), "records": records, "kernel_s": kernel, "setup_s": setup}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import gaussdist.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"gaussdist imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    plan = json.loads(Path(job["plan"]).read_text(encoding="utf-8"))
    work = Path(job["work"])
    result = {"phases": {}}
    if job["mode"] == "e2e":
        result["phases"]["a"] = _phase(cli, plan, work / "a", job["seconds"], src=str(src))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import trace_layers

        result["phases"]["a"] = _phase(cli, plan, work / "a", None)
        tracer = trace_layers.Tracer()
        tracer.install()
        try:
            result["phases"]["b"] = _phase(cli, plan, work / "b", None, tracer)
        finally:
            tracer.uninstall()
        tracer.save(work / "spans.npz")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
