"""The summary of tools/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(pair, side, value=None, metric="op_p50_s"):
    output = {"error": "exit 1: boom"} if value is None else {
        "metrics": {metric: {"value": value}}}
    return {"workload": "w", "pair": pair, "side": side, "output": output}


def _gain(parent, change, metric="op_p50_s", better="lower"):
    runs = [_run(i, side, v, metric) for i, (p, c) in enumerate(zip(parent, change), 1)
            for side, v in (("parent", p), ("change", c))]
    summary = bench_pairs.summarize(runs, "w", {metric: {"better": better}})
    return summary[metric]["gain"]


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


# Parent runs 1.00-1.09 s: median 1.045, interquartile range 0.045.
_PARENT = [1.0 + 0.01 * i for i in range(10)]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_iqr():
    assert _gain(_PARENT, [v - 0.2 for v in _PARENT]) is True
    # 8 of 10 wins, however large the median change.
    assert _gain(_PARENT, [v - 0.2 for v in _PARENT[:8]] + [2.0, 2.0]) is False
    # 10 of 10 wins, by 0.03 s, inside the parent's own spread.
    assert _gain(_PARENT, [v - 0.03 for v in _PARENT]) is False
    # Ties count for neither side: 9 wins and a tie is still nine tenths.
    assert _gain(_PARENT, [v - 0.2 for v in _PARENT[:9]] + [_PARENT[9]]) is True


def test_gain_of_a_higher_is_better_metric():
    assert _gain(_PARENT, [v + 0.2 for v in _PARENT], "items_per_s", "higher") is True
    assert _gain(_PARENT, [v - 0.2 for v in _PARENT], "items_per_s", "higher") is False


def test_a_failed_pair_counts_among_the_pairs_run():
    # 9 complete pairs all won, but 10 were run: 9 of 10 is enough,
    # 8 wins of 9 complete pairs out of 10 is not.
    runs = [_run(i, side, v) for i, p in enumerate(_PARENT, 1)
            for side, v in (("parent", p), ("change", p - 0.2))]
    runs[-1] = _run(10, "change")
    assert bench_pairs.summarize(runs, "w", {})["op_p50_s"]["gain"] is True
    runs[-3] = _run(9, "change", 5.0)
    assert bench_pairs.summarize(runs, "w", {})["op_p50_s"]["gain"] is False
