"""The benchmark's definition: workloads, metric names, units, bounds, and
where each metric applies.

    python3 perfbench/metrics.py

Run from the repository root, it writes `BENCHMARK.json` from this
catalogue; `selftest.py` checks that the file still matches it.
"""

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
# Seconds one run measures; `run.py` turns them into a number of passes.
RUN_SECONDS = 35

# name -> why it is in the benchmark (one line; NOTES.md has the long form).
WORKLOADS = {
    "node_media": "The paper's single node: 2 black-box players under the self-tuning daemon "
                  "plus 4 reserved tasks for 600 sim-s; the daemon's spectrum/controller step "
                  "is the cost",
    "fleet_churn": "625 nodes, 12,500 tasks and a liar wave with the rebalancer on: per-task "
                   "memory, phase-filtered placement and 24k migrations dominate",
    "fleet_replicated": "The composed diurnal fleet (elastic VMs, node re-bounding) streamed to "
                        "a follower, then journal decode and replay verify: follower "
                        "re-simulation dominates",
}

NODE = ("node_media",)
FLEETS = ("fleet_churn", "fleet_replicated")
CHURN = ("fleet_churn",)
REPLICATED = ("fleet_replicated",)
ALL = NODE + FLEETS

# name -> (unit, better, bound). Reported by the untraced runs. Host time
# is CPU time of the pass's process (all threads), which host steal does not
# inflate; the wall-clock twins are the per-layer `wall.*` metrics.
END_TO_END = {
    "sim_rate": ("sim-s/cpu-s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "pass_cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "rss_bytes_per_task": ("B", "lower", 0.15),
    "miss_ratio": ("ratio", "lower", 0.25),
}

# name -> (unit, better, workloads it is measured on). Reported by the
# traced run; a layer that does not run in a workload reports 0 there.
PER_LAYER = {
    "simcore.run_s": ("s", "lower", NODE),
    "simcore.switches": ("count", "lower", ALL),
    "simcore.ns_per_switch": ("ns", "lower", NODE),
    "simcore.busy_frac": ("ratio", "lower", ALL),
    "sched.compressions": ("count", "lower", ALL),
    "tracer.syscalls": ("count", "lower", NODE),
    "core.step_s": ("s", "lower", NODE),
    "core.steps": ("count", "lower", NODE),
    "core.step_p50_us": ("us", "lower", NODE),
    "core.step_p99_us": ("us", "lower", NODE),
    "core.ns_per_syscall": ("ns", "lower", NODE),
    "core.node_rebounds": ("count", "lower", FLEETS),
    "spectrum.estimates": ("count", "lower", NODE),
    "spectrum.aperiodic": ("count", "lower", NODE),
    "spectrum.period_err_pct": ("%", "lower", NODE),
    "apps.ift_p99_norm": ("ratio", "lower", NODE),
    "apps.miss_ratio": ("ratio", "lower", NODE),
    "virt.share_grants": ("count", "lower", FLEETS),
    "cluster.plan_s": ("s", "lower", FLEETS),
    "cluster.placements": ("count", "lower", FLEETS),
    "cluster.us_per_placement": ("us", "lower", FLEETS),
    "cluster.first_epoch_ms": ("ms", "lower", FLEETS),
    "cluster.epochs_s": ("s", "lower", FLEETS),
    "cluster.epoch_p50_ms": ("ms", "lower", FLEETS),
    "cluster.epoch_max_ms": ("ms", "lower", FLEETS),
    "cluster.finish_ms": ("ms", "lower", FLEETS),
    "cluster.migrations": ("count", "lower", FLEETS),
    "cluster.move_fail_ratio": ("ratio", "lower", FLEETS),
    "cluster.refused_ratio": ("ratio", "lower", FLEETS),
    "cluster.miss_ratio": ("ratio", "lower", FLEETS),
    "cluster.speedup_2v1": ("x", "higher", CHURN),
    "mem.after_plan_mb": ("MB", "lower", FLEETS),
    "mem.epoch0_mb": ("MB", "lower", FLEETS),
    "mem.pass_peak_mb": ("MB", "lower", REPLICATED),
    "aggregate.summary_csv_ms": ("ms", "lower", FLEETS),
    "aggregate.tree_reduce_ms": ("ms", "lower", FLEETS),
    "journal.records": ("count", "lower", REPLICATED),
    "journal.bytes": ("B", "lower", REPLICATED),
    "journal.encode_ms": ("ms", "lower", REPLICATED),
    "journal.decode_ms": ("ms", "lower", REPLICATED),
    "journal.verify_s": ("s", "lower", REPLICATED),
    "journal.replay_s": ("s", "lower", REPLICATED),
    "distrib.frames": ("count", "lower", REPLICATED),
    "distrib.bytes": ("B", "lower", REPLICATED),
    "distrib.checkpoints": ("count", "lower", REPLICATED),
    "distrib.feed_records_s": ("s", "lower", REPLICATED),
    "distrib.feed_checkpoint_s": ("s", "lower", REPLICATED),
    "distrib.feed_finish_s": ("s", "lower", REPLICATED),
    "distrib.replica_s": ("s", "lower", REPLICATED),
    "distrib.resim_ratio": ("ratio", "lower", REPLICATED),
    "distrib.ship_overhead_pct": ("%", "lower", REPLICATED),
    "wall.sim_rate": ("sim-s/s", "higher", ALL),
    "wall.pass_s": ("s", "lower", ALL),
    "trace.host_s": ("s", "lower", ALL),
    "trace.covered_pct": ("%", "higher", ALL),
    "trace.overhead_pct": ("%", "lower", ALL),
}


def benchmark():
    """The contents of `BENCHMARK.json`."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
        f.write(json.dumps(benchmark(), indent=2) + "\n")
