#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks that `BENCHMARK.json` is what
`metrics.py` writes, then runs every workload at the tiny
size (`--size tiny --seconds 1`), untraced and traced, and asserts that each
result line is well formed, reports every metric with its unit, and passed
its output checks. Takes about ten seconds once the benchmark is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench == metrics.benchmark(), "BENCHMARK.json differs: rerun perfbench/metrics.py"


def check_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--size", "tiny", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    got = result["metrics"]
    assert set(got) == set(catalogue), f"{workload}: names differ: {set(got) ^ set(catalogue)}"
    for name, spec in catalogue.items():
        assert set(got[name]) == {"value", "unit"}, got[name]
        assert got[name]["unit"] == spec[0], f"{workload} {name}: unit {got[name]['unit']}"
        assert isinstance(got[name]["value"], (int, float)), got[name]
        if not trace:
            assert got[name]["value"] > 0, f"{workload} {name} is not positive"
        elif workload in spec[2] and spec[0] in ("s", "ms", "us", "ns"):
            assert got[name]["value"] > 0, f"{workload} {name} was not timed"


def main():
    check_benchmark_json()
    for workload in metrics.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} trace={trace}")
    print("selftest passed")


if __name__ == "__main__":
    main()
