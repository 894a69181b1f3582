"""The summary of tools/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(pair, side, value=None):
    output = {"error": "exit 1: boom"} if value is None else {
        "metrics": {"op_p50_s": {"value": value}}}
    return {"workload": "w", "pair": pair, "side": side, "output": output}


def test_failed_run_is_counted_and_its_pair_left_out():
    runs = [_run(1, "parent", 1.0), _run(1, "change", 0.9),
            _run(2, "parent", 1.1), _run(2, "change"),
            _run(3, "parent", 1.2), _run(3, "change", 1.0),
            {**_run(1, "parent"), "workload": "other"}]
    specs = {"op_p50_s": {"better": "lower", "bound": 0.25}}
    summary = bench_pairs.summarize(runs, "w", specs)
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    metric = summary["op_p50_s"]
    assert metric["parent"]["n"] == metric["change"]["n"] == 2
    assert metric["change_wins"] == "2/2"


def test_no_complete_pair_still_reports_failures():
    summary = bench_pairs.summarize([_run(1, "parent"), _run(1, "change", 1.0)], "w", {})
    assert summary == {"failed_runs": {"parent": 1, "change": 0}}
