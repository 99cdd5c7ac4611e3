//! `node_media`: the paper's single node. Two black-box players under the
//! self-tuning manager beside four reserved background tasks, over a long
//! session. Here the daemon (tracer drain, spectrum, controller,
//! supervisor) is the cost.

use crate::adapter::{NodeOutcome, NodeSession};
use crate::probe::{self, Checks, Obj};
use crate::{Opts, Record};

/// Set-ups per pass (each builds the whole node; the last one runs).
const SETUPS: usize = 200;

/// Detected periods must be within this share of nominal.
const PERIOD_TOLERANCE: f64 = 0.02;

/// An inter-frame time above this multiple of the period is a miss.
const MISS_FACTOR: f64 = 1.5;

fn horizon_s(opts: &Opts) -> f64 {
    if opts.tiny {
        60.0
    } else {
        600.0
    }
}

/// The simulated statistics of a session (deterministic at a seed).
fn sim_stats(out: &NodeOutcome, checks: &mut Checks) -> Obj {
    let mut sim = Obj::default();
    let (mut frames, mut misses) = (0usize, 0usize);
    let (mut err_pct, mut ift_p99_norm) = (0.0f64, 0.0f64);
    let (mut estimates, mut aperiodic, mut syscalls) = (0u64, 0u64, 0u64);
    for p in &out.players {
        frames += p.ift_ms.len();
        misses += p
            .ift_ms
            .iter()
            .filter(|&&x| x > MISS_FACTOR * p.nominal_ms)
            .count();
        ift_p99_norm = ift_p99_norm.max(probe::quantile(&p.ift_ms, 0.99) / p.nominal_ms);
        let err = p
            .detected_ms
            .map_or(f64::INFINITY, |d| (d - p.nominal_ms).abs() / p.nominal_ms);
        checks.add(
            &format!("{}_period_detected", p.label),
            err <= PERIOD_TOLERANCE,
            format!(
                "detected {:?} ms, nominal {:.3} ms",
                p.detected_ms, p.nominal_ms
            ),
        );
        err_pct = err_pct.max(100.0 * err);
        estimates += p.verdicts.0;
        aperiodic += p.verdicts.1;
        syscalls += p.syscalls;
        sim.set(
            &format!("{}.detected_ms", p.label),
            p.detected_ms.unwrap_or(0.0),
        );
    }
    sim.set("miss_ratio", misses as f64 / frames.max(1) as f64);
    sim.set("frames", frames);
    sim.set("period_err_pct", err_pct);
    sim.set("ift_p99_norm", ift_p99_norm);
    sim.set("compressions", out.compressions);
    sim.set("syscalls", syscalls);
    sim.set("switches", out.switches);
    sim.set("busy_frac", out.busy_s / out.now_s.max(1e-9));
    sim.set("estimates", estimates);
    sim.set("aperiodic", aperiodic);
    sim
}

/// One pass: set-ups and the untraced session, or with `--trace 1` the
/// traced session alone (in this fresh process).
pub fn pass(opts: &Opts) -> Record {
    let horizon = horizon_s(opts);
    let mut rec = Record::default();
    if opts.trace {
        traced(opts, horizon, &mut rec);
        return rec;
    }
    let rss0 = probe::rss().now;
    let mut setup = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let (s, (_, cpu)) = probe::timed_cpu(|| NodeSession::new(opts.seed));
        setup.push(cpu);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let tasks = session.tasks();
    let ((), (run_s, run_cpu)) = probe::timed_cpu(|| session.run(horizon));
    let peak = probe::rss().peak;

    rec.samples.set("setup_s", setup);
    rec.samples.set("pass_cpu_s", vec![run_cpu]);
    rec.samples.set("sim_rate", vec![horizon / run_cpu]);
    rec.samples.set("wall.pass_s", vec![run_s]);
    rec.samples.set("wall.sim_rate", vec![horizon / run_s]);
    rec.samples.set("peak_rss_mb", vec![probe::mb(peak)]);
    rec.samples.set(
        "rss_bytes_per_task",
        vec![peak.saturating_sub(rss0) as f64 / tasks as f64],
    );
    rec.sim = sim_stats(&session.outcome(), &mut rec.checks);
    rec.run_s = run_s;
    rec
}

/// The session driven call by call, with `Kernel::run_until` and
/// `SelfTuningManager::step` timed.
fn traced(opts: &Opts, horizon: f64, rec: &mut Record) {
    let mut session = NodeSession::new(opts.seed);
    let (calls, host_s) = probe::timed(|| session.run_timed(horizon));
    let out = session.outcome();
    rec.sim = sim_stats(&out, &mut rec.checks);
    let run_until_s: f64 = calls.iter().map(|c| c.0).sum();
    let step_s: f64 = calls.iter().map(|c| c.1).sum();
    let steps_us: Vec<f64> = calls.iter().map(|c| c.1 * 1e6).collect();
    let syscalls: u64 = out.players.iter().map(|p| p.syscalls).sum();
    let l = &mut rec.layers;
    l.set("simcore.run_s", run_until_s);
    l.set("simcore.switches", out.switches);
    l.set(
        "simcore.ns_per_switch",
        run_until_s * 1e9 / out.switches.max(1) as f64,
    );
    l.set("simcore.busy_frac", rec.sim.num("busy_frac"));
    l.set("sched.compressions", out.compressions);
    l.set("tracer.syscalls", syscalls);
    l.set("core.step_s", step_s);
    l.set("core.steps", calls.len());
    l.set("core.step_p50_us", probe::quantile(&steps_us, 0.5));
    l.set("core.step_p99_us", probe::quantile(&steps_us, 0.99));
    l.set("core.ns_per_syscall", step_s * 1e9 / syscalls.max(1) as f64);
    l.set("spectrum.estimates", rec.sim.num("estimates"));
    l.set("spectrum.aperiodic", rec.sim.num("aperiodic"));
    l.set("spectrum.period_err_pct", rec.sim.num("period_err_pct"));
    l.set("apps.ift_p99_norm", rec.sim.num("ift_p99_norm"));
    l.set("apps.miss_ratio", rec.sim.num("miss_ratio"));
    rec.trace.host_s = host_s;
    rec.trace.covered_s = run_until_s + step_s;
    rec.trace.run_s = host_s;
}
