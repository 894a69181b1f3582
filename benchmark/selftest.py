"""Fast self-test of the benchmark harness at tiny sizes.

Usage, from the root of a checkout: python3 benchmark/selftest.py

Runs every workload at tiny sizes, untraced and traced, and asserts that
each named metric is emitted with its unit and that the known large-k
failures are counted.  Then runs one workload against an oracle that is
deliberately wrong for one op and asserts that the op is counted as
failed and lowers ok_frac.
"""

from __future__ import annotations

import sys
from pathlib import Path

import oracle
import run
import workloads

ROOT = Path.cwd()
SECONDS = 0.2


def check_units(result: dict, names) -> None:
    metrics = result["metrics"]
    assert set(metrics) == set(names), sorted(set(metrics) ^ set(names))
    for name in names:
        assert metrics[name]["unit"] == run.UNITS[name], name
        assert isinstance(metrics[name]["value"], (int, float)), name
    assert result["attempted"] >= 1


def test_metrics_emitted() -> None:
    for name in workloads.WORKLOADS:
        result = run.measure(ROOT, name, 1, SECONDS, False, workloads.TINY)
        check_units(result, run.END_TO_END)
        assert result["correct"], name
        traced = run.measure(ROOT, name, 1, SECONDS, True, workloads.TINY)
        check_units(traced, run.PER_LAYER)
        assert traced["correct"], name
        if name != "sample-test":  # these carry the known large-k failures
            assert result["metrics"]["ok_frac"]["value"] < 1.0, name
            assert traced["metrics"]["specfun.errors"]["value"] > 0, name


def test_wrong_oracle_counts_as_failure() -> None:
    honest = run.measure(ROOT, "sample-test", 1, SECONDS, False, workloads.TINY)
    original = oracle.moments_mp
    calls = []

    def wrong_once(k: float) -> list[float]:
        # The first expected mean the oracle computes is 50% off, so the
        # first test op checked must fail.
        values = original(k)
        if not calls:
            values[0] *= 1.5
        calls.append(k)
        return values

    oracle.moments_mp = wrong_once
    try:
        result = run.measure(ROOT, "sample-test", 1, SECONDS, False, workloads.TINY)
    finally:
        oracle.moments_mp = original
    assert honest["failed"] == 0 and honest["metrics"]["ok_frac"]["value"] == 1.0
    assert result["failed"] >= 1, result
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def main() -> int:
    for test in (test_metrics_emitted, test_wrong_oracle_counts_as_failure):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
