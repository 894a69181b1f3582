"""The comparison of tools/replay_ops.py on synthetic records."""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_SPEC = importlib.util.spec_from_file_location("replay_ops", _TOOLS / "replay_ops.py")
replay_ops = importlib.util.module_from_spec(_SPEC)
sys.path.insert(0, str(_TOOLS))
try:
    _SPEC.loader.exec_module(replay_ops)
finally:
    sys.path.remove(str(_TOOLS))


def _record(index, cmd, exit=0, stdout="", stderr="", outputs=None):
    return {"workload": "w", "kind": "ops", "index": index, "cmd": cmd, "argv": [cmd],
            "exit": exit, "stdout": stdout, "stderr": stderr, "outputs": outputs or {}}


def test_counts_differing_ops_per_command_and_field():
    parent = [_record(0, "test", 0, "a\nb\n", outputs={"r.json": "x"}),
              _record(1, "test", 1, "c\n"),
              _record(2, "eval", 3, "", "error: boom\n"),
              _record(3, "eval", 0, outputs={"t.txt": "y"})]
    change = [_record(0, "test", 0, "b\n", outputs={"r.json": "x"}),
              _record(1, "test", 1, "c\n"),
              _record(2, "eval", 2, "", "usage error: boom\n"),
              _record(3, "eval", 0, outputs={"t.txt": None})]
    assert replay_ops.compare(parent, change) == {
        "test": {"ops": 2, "differ": 1, "exit": 0, "stdout": 1, "stderr": 0, "outputs": 0},
        "eval": {"ops": 2, "differ": 2, "exit": 1, "stdout": 0, "stderr": 1, "outputs": 1},
    }


def test_summary_names_at_most_ten_differing_ops_per_command():
    parent = [_record(i, "eval", stdout="a") for i in range(13)] + [_record(13, "test")]
    parent[2]["argv"] = ["eval", "--k", "1e6", "--at", "1 2"]
    change = [dict(r, stdout="b") if 0 < r["index"] < 13 else dict(r) for r in parent]
    change[13]["exit"] = 1
    assert replay_ops.summary(parent, change) == [
        "eval        13 ops,   12 differ (exit 0, stdout 12, stderr 0, outputs 0)",
        "  w ops 1: eval",
        "  w ops 2: eval --k 1e6 --at '1 2'",
        *(f"  w ops {i}: eval" for i in range(3, 11)),
        "test         1 ops,    1 differ (exit 1, stdout 0, stderr 0, outputs 0)",
        "  w ops 13: test",
    ]


def test_identical_sides_differ_nowhere():
    records = [_record(0, "sample", outputs={"s.txt": "z"}), _record(1, "contrast", "MemoryError")]
    counts = replay_ops.compare(records, [dict(r) for r in records])
    assert all(c["differ"] == 0 and c["ops"] == 1 for c in counts.values())


def test_sides_that_replayed_different_ops_are_refused():
    with pytest.raises(ValueError, match="same ops"):
        replay_ops.compare([_record(0, "test")], [_record(1, "test")])


def test_output_paths_of_ops_and_warm_ups():
    assert replay_ops.output_paths({"argv": ["test", "s.txt"], "outputs": ["s_test.json"]}) == [
        "s_test.json"]
    assert replay_ops.output_paths({"argv": ["plotdata", "--figure", "fig2", "--output", "f.csv"]}) == [
        "f.csv", "f.csv.meta.json"]
    assert replay_ops.output_paths({"argv": ["test", "w_s.txt", "--output", "w_t.json"]}) == [
        "w_t.json"]
    assert replay_ops.output_paths({"argv": ["diagnose", "d.csv"]}) == []
