//! One measured pass of one benchmark workload, in this fresh process.
//!
//! ```text
//! perfbench --workload node_media|fleet_churn|fleet_replicated
//!           [--seed N] [--trace 0|1] [--size full|tiny] [--dir DIR]
//! ```
//!
//! Prints one JSON line: the simulated statistics (deterministic at a
//! seed), the output checks, and either the raw end-to-end samples of the
//! untraced workload or, with `--trace 1`, the per-layer metrics of its
//! traced twin. `run.py` runs the passes, aggregates them and prints the
//! benchmark result.

mod adapter;
mod fleet;
mod node_media;
mod probe;

use std::path::PathBuf;

use probe::{Checks, Obj};

/// Options of one pass.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Worker threads for the fleet runs: `min(2, nproc)`.
    pub threads: usize,
    /// Whether to run the traced twin instead of the untraced workload.
    pub trace: bool,
    /// Whether to run the tiny self-test sizes.
    pub tiny: bool,
    /// The benchmark directory (holds `scenarios/`).
    pub dir: PathBuf,
}

/// What one pass measured.
#[derive(Default)]
pub struct Record {
    /// End-to-end samples, each a list (untraced passes).
    pub samples: Obj,
    /// Simulated statistics: identical across runs of one seed.
    pub sim: Obj,
    /// Per-layer metrics (traced passes).
    pub layers: Obj,
    /// Output checks.
    pub checks: Checks,
    /// Host seconds of the run the traced twin repeats (untraced passes).
    pub run_s: f64,
    /// Host times of the traced run (traced passes).
    pub trace: TraceTimes,
}

/// Host times of a traced run.
#[derive(Default)]
pub struct TraceTimes {
    /// The whole traced run.
    pub host_s: f64,
    /// The part the per-layer timers cover.
    pub covered_s: f64,
    /// The part that repeats the untraced pass's `run_s`.
    pub run_s: f64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let threads_default = std::thread::available_parallelism()
        .map(|n| n.get().min(2))
        .unwrap_or(1);
    let mut opts = Opts {
        workload: String::new(),
        seed: 42,
        threads: threads_default,
        trace: false,
        tiny: false,
        dir: PathBuf::from("perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => opts.trace = value()? == "1",
            "--size" => opts.tiny = value()? == "tiny",
            "--dir" => opts.dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let rec = match opts.workload.as_str() {
        "node_media" => node_media::pass(&opts),
        "fleet_churn" => fleet::churn(&opts),
        "fleet_replicated" => fleet::replicated(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut trace = Obj::default();
    if opts.trace {
        trace.set("host_s", rec.trace.host_s);
        trace.set("covered_s", rec.trace.covered_s);
        trace.set("run_s", rec.trace.run_s);
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {}, \"samples\": {}, \"sim\": {}, \
         \"layers\": {}, \"run_s\": {:?}, \"trace\": {}, \"checks\": {}}}",
        opts.workload,
        opts.seed,
        opts.threads,
        rec.samples.to_json(),
        rec.sim.to_json(),
        rec.layers.to_json(),
        rec.run_s,
        trace.to_json(),
        rec.checks.to_json(),
    );
}
