#!/usr/bin/env python3
"""Run a benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                             [--size full|tiny]

Run from the repository root. Builds the `perfbench` package (release, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs passes of the
workload, each in a fresh process. The number of passes is fixed by
`--seconds` and the workload's nominal pass time, and pass `i` runs the
input of seed `pass_seed(seed, i)`, so the same seed and seconds always give
the same inputs while every run samples several of them. Prints a readable
report (each metric's median, sample count and range), a provenance line,
and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (medians over the passes; the
node's `miss_ratio` pools the frames of all passes); `--trace 1` adds to
each pass its traced twin, in its own process, and reports the per-layer
metrics. Names and units are in `metrics.py`. Exits non-zero when an output check fails or the
program cannot be built. `--workload all` runs every workload in turn.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.relpath(HERE, ROOT)
MANIFEST = os.path.join(BENCH_DIR, "Cargo.toml")
# What the benchmark drives; without these the checkout cannot build it.
PROGRAM_CRATES = ["crates/cluster", "crates/core", "crates/distrib", "crates/journal"]

BUILD_TIMEOUT_S = 850
PASS_TIMEOUT_S = 150
# Host seconds of one full-size pass on a 2-CPU Xeon VM (untraced, traced;
# a traced pass is an untraced one plus its traced twin): they turn
# `--seconds` into a fixed number of passes.
NOMINAL_PASS_S = {
    "node_media": (4.0, 8.5),
    "fleet_churn": (2.0, 8.5),
    "fleet_replicated": (6.5, 15.0),
}
TINY_PASSES = 2
# The traced run must cover this share of its host time with layer timers.
COVERAGE_TOLERANCE = 0.05
# personality(2) flag that turns off address-space layout randomisation.
ADDR_NO_RANDOMIZE = 0x0040000
# Seed stride between passes: distinct seeds below it never share an input.
PASS_SEED_STRIDE = 1_000_003


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path."""
    for crate in PROGRAM_CRATES:
        if not os.path.isfile(os.path.join(ROOT, crate, "Cargo.toml")):
            fail(f"{crate} is missing: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        proc = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    binary = os.path.join(target_dir(), "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no binary at {binary}")
    return binary


def fixed_layout():
    """Runs in each pass's process before exec: turns off address-space
    randomisation, which otherwise moves page-granular memory figures by
    several percent from run to run. Left as is where the call is refused."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def pass_seed(seed, i):
    """The input seed of pass `i`; pass 0 runs `seed` itself."""
    return (seed + i * PASS_SEED_STRIDE) % 2**64


def pass_count(args, workload):
    if args.size == "tiny":
        return TINY_PASSES
    nominal = NOMINAL_PASS_S[workload][args.trace]
    return max(1, round(args.seconds / nominal))


def run_pass(binary, args, workload, seed, trace):
    """One pass in a fresh process; returns its parsed record."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--size", args.size,
        "--dir", BENCH_DIR,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
            preexec_fn=fixed_layout,
        )
    except subprocess.TimeoutExpired:
        fail(f"pass timed out after {PASS_TIMEOUT_S} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"pass exited with code {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("pass printed nothing")
    return json.loads(lines[-1])


def pass_checks(records, tag):
    return [
        (f"pass{i}.{tag}{name}", ok, detail)
        for i, rec in enumerate(records)
        for name, ok, detail in rec["checks"]
    ]


def miss_ratio(records, workload):
    """The run's miss ratio. On the node, misses over all frames of the run:
    a node pass sees a few dozen misses, so the pooled ratio is steadier
    than the median of the passes' ratios. Fleet passes report no job
    counts: the median of their ratios."""
    if workload == "node_media":
        frames = sum(rec["sim"]["frames"] for rec in records)
        misses = sum(rec["sim"]["miss_ratio"] * rec["sim"]["frames"] for rec in records)
        return misses / frames
    return statistics.median(rec["sim"]["miss_ratio"] for rec in records)


def end_to_end(records, workload):
    """Medians of the end-to-end samples (the pooled `miss_ratio` on the
    node): {name: (value, unit, samples)}."""
    out = {}
    for name, (unit, _, _) in metrics.END_TO_END.items():
        if name == "miss_ratio":
            values = [rec["sim"]["miss_ratio"] for rec in records]
            out[name] = (miss_ratio(records, workload), unit, values)
            continue
        values = [x for rec in records for x in rec["samples"][name]]
        out[name] = (statistics.median(values), unit, values)
    return out


def per_layer(untraced, traced, workload, checks):
    """Medians of the per-layer metrics over the traced passes. Pass `i` of
    `traced` is the traced twin of pass `i` of `untraced`, run in its own
    process: it must simulate exactly the same, and its host time against
    the untraced run's is the tracing overhead."""
    for i, (u, t) in enumerate(zip(untraced, traced)):
        diff = sorted(k for k in u["sim"] if t["sim"].get(k) != u["sim"][k])
        checks.append((
            f"pass{i}.trace_transparent",
            not diff,
            f"traced twin differs in {diff}" if diff else "traced twin simulates the same",
        ))
    out = {}
    for name, (unit, _, where) in metrics.PER_LAYER.items():
        if name == "trace.host_s":
            values = [t["trace"]["host_s"] for t in traced]
        elif name == "trace.covered_pct":
            values = [100.0 * t["trace"]["covered_s"] / t["trace"]["host_s"] for t in traced]
        elif name == "trace.overhead_pct":
            values = [100.0 * (t["trace"]["run_s"] / u["run_s"] - 1.0) for u, t in zip(untraced, traced)]
        elif name.startswith("wall."):
            values = [x for u in untraced for x in u["samples"][name]]
        elif workload in where:
            values = [t["layers"][name] for t in traced if name in t["layers"]]
            if len(values) != len(traced):
                checks.append((f"layer.{name}", False, "measured layer missing from a pass"))
                values = values or [0.0]
        else:
            values = [0.0]
        out[name] = (statistics.median(values), unit, values)
    covered = out["trace.covered_pct"][0]
    checks.append((
        "trace.layers_cover_host_time",
        abs(covered - 100.0) <= 100.0 * COVERAGE_TOLERANCE,
        f"per-layer host times cover {covered:.2f}% of the traced run",
    ))
    return out


def read_first_line(path):
    try:
        with open(path) as f:
            return f.readline().strip()
    except OSError:
        return ""


def commit():
    """The checked-out commit, read from `.git` without leaving the checkout."""
    head = read_first_line(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        return read_first_line(os.path.join(ROOT, ".git", head[5:])) or "unknown"
    return head or "unknown"


def host():
    """The machine the figures were measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    ram_mb = 0
    try:
        with open("/proc/meminfo") as f:
            ram_mb = next((int(l.split()[1]) for l in f if l.startswith("MemTotal")), 0) // 1024
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_mb": ram_mb,
        "os": platform.platform(),
        "rustc": rustc,
        "commit": commit(),
    }


def run_workload(binary, args, workload):
    """Runs and reports one workload; returns (result line, all checks held)."""
    seeds = [pass_seed(args.seed, i) for i in range(pass_count(args, workload))]
    untraced, traced = [], []
    for seed in seeds:
        untraced.append(run_pass(binary, args, workload, seed, 0))
        if args.trace:
            traced.append(run_pass(binary, args, workload, seed, 1))
    checks = pass_checks(untraced, "") + pass_checks(traced, "traced.")
    if args.trace:
        results = per_layer(untraced, traced, workload, checks)
    else:
        results = end_to_end(untraced, workload)

    print(f"== {workload} (seed {args.seed}, {len(seeds)} passes, trace {args.trace}) ==")
    for name, (value, unit, values) in results.items():
        print(f"{name:28} {value:>16.6g} {unit:8} n={len(values):<4} "
              f"min={min(values):.6g} max={max(values):.6g}")
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"CHECK FAILED {name}: {detail}")
    print(f"checks: {len(checks) - len(failed)} of {len(checks)} passed")
    provenance = {
        "workload": workload,
        "seed": args.seed,
        "pass_seeds": seeds,
        "threads": untraced[0]["threads"],
        "trace": args.trace,
        "size": args.size,
        **host(),
        "samples": {name: len(v[2]) for name, v in results.items()},
    }
    print("provenance: " + json.dumps(provenance))
    line = json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in results.items()},
    })
    return line, not failed


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    workloads = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        line, held = run_workload(binary, args, workload)
        ok = ok and held
        print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
