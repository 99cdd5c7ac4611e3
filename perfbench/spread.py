#!/usr/bin/env python3
"""Repeat-and-report-spread: run each workload over several seeds and report
each end-to-end metric's median, quartiles and spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--sets 2]
                                [--seconds S] [--json FILE]

Run from the repository root. The spread of a metric is the distance between
its first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of its median; it is compared with the metric's bound in `metrics.py`. With
several sets, the drift of each later set's median from the first one's is
reported as well (positive = worse).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(metrics.WORKLOADS))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    p.add_argument("--json", help="also write the raw values and summaries here")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values = {name: [] for name in metrics.END_TO_END}
            for seed in seeds:
                m = run(workload, seed, args.seconds)
                for name in values:
                    values[name].append(m[name]["value"])
            sets.append(values)
        report[workload] = {"sets": sets}
        print(f"== {workload}: {len(seeds)} seeds x {args.sets} sets ==")
        for name, (unit, better, bound) in metrics.END_TO_END.items():
            rows = [summary(s[name]) for s in sets]
            for i, r in enumerate(rows):
                drift = ""
                if i > 0:
                    d = (r["median"] - rows[0]["median"]) / rows[0]["median"]
                    drift = f" drift={d if better == 'lower' else -d:+.3f}"
                if name != "setup_s":
                    worst = max(worst, r["spread"] / bound)
                print(f"  {name:20} set{i} median={r['median']:.6g} {unit} q1={r['q1']:.6g} "
                      f"q3={r['q3']:.6g} spread={r['spread']:.4f} (bound {bound}){drift}")
            report[workload][name] = rows
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
