//! The two fleet workloads, both defined as scenario text under
//! `perfbench/scenarios/`.
//!
//! * `fleet_churn` — 625 nodes, 12,500 honest tasks and a liar wave on
//!   a node prefix, with the feedback rebalancer on. Per-task footprint,
//!   placement and migration dominate.
//! * `fleet_replicated` — the composed diurnal fleet (elastic VMs, node
//!   re-bounding, rebalancing) streamed through a shipper to a follower,
//!   whose journal is then decoded and replay-verified. Follower
//!   re-simulation dominates.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, Fed, Fleet, FleetTrace, Plan, Recorded, Replica, Scenario, Stream};
use crate::probe::{self, Checks, Obj};
use crate::{Opts, Record};

/// Set-ups (scenario load + plan) per `fleet_churn` pass.
const CHURN_SETUPS: usize = 1;
/// Set-ups per `fleet_replicated` pass.
const REPLICATED_SETUPS: usize = 20;

fn scenario_path(opts: &Opts, name: &str) -> PathBuf {
    let file = if opts.tiny {
        format!("{name}.tiny.txt")
    } else {
        format!("{name}.txt")
    };
    opts.dir.join("scenarios").join(file)
}

/// Loads the scenario text and plans it.
fn set_up(path: &Path, seed: u64) -> (Scenario, Plan) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let scenario =
        Scenario::from_text(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    let plan = adapter::plan(&scenario, seed);
    (scenario, plan)
}

/// `setups` set-ups and their CPU seconds; the last one's scenario and plan
/// are kept.
fn set_up_repeated(path: &Path, seed: u64, setups: usize) -> (Scenario, Plan, Vec<f64>) {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let (sp, (_, cpu)) = probe::timed_cpu(|| set_up(path, seed));
        times.push(cpu);
        kept = Some(sp);
    }
    let (scenario, plan) = kept.expect("at least one set-up");
    (scenario, plan, times)
}

/// Checks that the scenario file is the exact text form of what it parses to.
fn check_round_trip(path: &Path, scenario: &Scenario, checks: &mut Checks) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    checks.add(
        "scenario_round_trip",
        scenario.to_text() == text,
        "ScenarioSpec::to_text(from_text(file)) == file",
    );
}

/// The simulated statistics every fleet pass reports.
fn fleet_sim(fleet: &Fleet, summary: &str) -> Obj {
    let mut sim = Obj::default();
    let (attempted, refused) = fleet.admissions();
    let (moves, failed) = fleet.migrations();
    sim.set("miss_ratio", fleet.miss_ratio());
    sim.set("refused_ratio", refused as f64 / attempted.max(1) as f64);
    sim.set("admitted", fleet.admitted());
    sim.set("refused", refused);
    sim.set("migrations", moves);
    sim.set("move_failures", failed);
    sim.set("switches", fleet.switches());
    sim.set("busy_frac", fleet.busy_frac());
    sim.set("summary_fnv", probe::fingerprint(summary.as_bytes()));
    sim
}

/// The samples every untraced fleet pass reports. `mem` is `(VmRSS before
/// set-up, VmHWM the run reached)` in bytes; `run` and `pass` are the
/// `(wall, CPU)` seconds of the simulated run and of the whole timed work.
fn fleet_samples(
    rec: &mut Record,
    scenario: &Scenario,
    mem: (u64, u64),
    admitted: u64,
    run: (f64, f64),
    pass: (f64, f64),
) {
    let (rss0, peak) = mem;
    let sim_s = scenario.node_seconds();
    rec.samples.set("sim_rate", vec![sim_s / run.1]);
    rec.samples.set("pass_cpu_s", vec![pass.1]);
    rec.samples.set("peak_rss_mb", vec![probe::mb(peak)]);
    rec.samples.set(
        "rss_bytes_per_task",
        vec![peak.saturating_sub(rss0) as f64 / admitted.max(1) as f64],
    );
    rec.samples.set("wall.sim_rate", vec![sim_s / run.0]);
    rec.samples.set("wall.pass_s", vec![pass.0]);
    rec.run_s = run.0;
}

/// The `cluster.*`, `mem.*` and event-count layers of a traced fleet run.
/// Returns the host seconds the run's phases cover.
fn cluster_layers(l: &mut Obj, trace: &FleetTrace, fleet: &Fleet) -> f64 {
    let start = trace.start.expect("traced run started");
    let plan_at = trace.plan_at.unwrap_or(start);
    let end = trace.end.unwrap_or(plan_at);
    let first = trace.epoch_at.first().copied().unwrap_or(end);
    let last = trace.epoch_at.last().copied().unwrap_or(end);
    let gaps_ms: Vec<f64> = trace
        .epoch_at
        .windows(2)
        .map(|w| probe::secs(w[0], w[1]) * 1e3)
        .collect();
    let plan_s = probe::secs(start, plan_at);
    let first_s = probe::secs(plan_at, first);
    let epochs_s = probe::secs(first, last);
    let finish_s = probe::secs(last, end);
    let (moves, failed) = fleet.migrations();
    let (csv_s, tree_s) = fleet.aggregate_timings();
    l.set("cluster.plan_s", plan_s);
    l.set("cluster.placements", trace.placements);
    l.set(
        "cluster.us_per_placement",
        plan_s * 1e6 / trace.placements.max(1) as f64,
    );
    l.set("cluster.first_epoch_ms", first_s * 1e3);
    l.set("cluster.epochs_s", epochs_s);
    l.set("cluster.epoch_p50_ms", probe::quantile(&gaps_ms, 0.5));
    l.set("cluster.epoch_max_ms", probe::quantile(&gaps_ms, 1.0));
    l.set("cluster.finish_ms", finish_s * 1e3);
    l.set("cluster.migrations", moves);
    l.set(
        "cluster.move_fail_ratio",
        failed as f64 / (moves + failed).max(1) as f64,
    );
    let (attempted, refused) = fleet.admissions();
    l.set(
        "cluster.refused_ratio",
        refused as f64 / attempted.max(1) as f64,
    );
    l.set("cluster.miss_ratio", fleet.miss_ratio());
    l.set("mem.after_plan_mb", probe::mb(trace.rss_after_plan));
    l.set("mem.epoch0_mb", probe::mb(trace.rss_epoch0));
    l.set("aggregate.summary_csv_ms", csv_s * 1e3);
    l.set("aggregate.tree_reduce_ms", tree_s * 1e3);
    l.set("sched.compressions", trace.compressions);
    l.set("core.node_rebounds", trace.rebounds);
    l.set("virt.share_grants", trace.share_grants);
    l.set("simcore.switches", fleet.switches());
    l.set("simcore.busy_frac", fleet.busy_frac());
    plan_s + first_s + epochs_s + finish_s
}

/// One `fleet_churn` pass. Untraced: set-up, then the run at `threads`.
/// Traced: the tee-sink run first (in this fresh process), then the
/// untraced run at `threads` and at 1 thread for the speed-up and the
/// thread-invariance check.
pub fn churn(opts: &Opts) -> Record {
    let mut rec = Record::default();
    let rss0 = probe::rss().now;
    let path = scenario_path(opts, "fleet_churn");
    let setups = if opts.trace { 1 } else { CHURN_SETUPS };
    let (scenario, plan, setup) = set_up_repeated(&path, opts.seed, setups);
    check_round_trip(&path, &scenario, &mut rec.checks);

    if !opts.trace {
        let (fleet, run) =
            probe::timed_cpu(|| adapter::run_planned(&scenario, opts.seed, &plan, opts.threads));
        let peak = probe::rss().peak;
        rec.samples.set("setup_s", setup);
        fleet_samples(&mut rec, &scenario, (rss0, peak), plan.admitted(), run, run);
        rec.sim = fleet_sim(&fleet, &fleet.summary_csv());
        let (moves, _) = fleet.migrations();
        rec.checks.add(
            "migrations",
            moves > 0,
            format!("{moves} migrations (the rebalancer must act)"),
        );
        return rec;
    }

    let mut trace = FleetTrace::default();
    let traced = adapter::run_traced(&scenario, opts.seed, opts.threads, &mut trace);
    let summary = traced.summary_csv();
    rec.sim = fleet_sim(&traced, &summary);
    rec.trace.covered_s = cluster_layers(&mut rec.layers, &trace, &traced);
    rec.trace.host_s = probe::secs(trace.start.expect("started"), trace.end.expect("ended"));
    rec.trace.run_s = probe::secs(trace.plan_at.expect("planned"), trace.end.expect("ended"));
    drop(traced);

    let (_, run_s) =
        probe::timed(|| adapter::run_planned(&scenario, opts.seed, &plan, opts.threads));
    let (serial, serial_s) = probe::timed(|| adapter::run_planned(&scenario, opts.seed, &plan, 1));
    rec.checks.add(
        "thread_invariant",
        serial.summary_csv() == summary,
        format!(
            "1-thread summary_csv equals the {}-thread one",
            opts.threads
        ),
    );
    rec.layers.set("cluster.speedup_2v1", serial_s / run_s);
    rec
}

/// Host seconds of `Follower::feed` per applied frame kind.
#[derive(Default)]
struct FeedTimes {
    records: f64,
    checkpoint: f64,
    finish: f64,
    bytes: u64,
}

impl FeedTimes {
    fn total(&self) -> f64 {
        self.records + self.checkpoint + self.finish
    }
}

/// Feeds the whole stream to a fresh follower, timing each frame.
fn follow(stream: &Stream, threads: usize, checks: &mut Checks) -> (Replica, FeedTimes) {
    let mut replica = Replica::new(threads);
    let mut times = FeedTimes::default();
    for chunk in &stream.chunks {
        let t0 = Instant::now();
        let fed = replica.feed(chunk);
        let dt = t0.elapsed().as_secs_f64();
        times.bytes += chunk.len() as u64;
        match fed {
            Ok(Fed::Records) => times.records += dt,
            Ok(Fed::Checkpoint) => times.checkpoint += dt,
            Ok(Fed::Finish) => times.finish += dt,
            Err(e) => checks.add("feed", false, e),
        }
    }
    (replica, times)
}

/// What one replicated pipeline produced and how long its stages took.
struct Replication {
    leader: Fleet,
    stream: Stream,
    lead_s: f64,
    leader_peak: u64,
    feed: FeedTimes,
    /// CPU seconds of the leader, the follower and the replay.
    cpu: (f64, f64, f64),
    text: String,
    encode_s: f64,
    decoded: Result<Recorded, String>,
    decode_s: f64,
    verify_s: f64,
}

/// The leader streaming to a follower, then the follower's journal encoded,
/// decoded and replay-verified; with `trace`, the leader runs behind the tee.
fn replicate(
    scenario: &Scenario,
    opts: &Opts,
    trace: Option<&mut FleetTrace>,
    checks: &mut Checks,
) -> Replication {
    let ((leader, stream), (lead_s, lead_cpu)) =
        probe::timed_cpu(|| adapter::lead(scenario, opts.seed, opts.threads, trace));
    // The leader's footprint: in deployment the follower is another
    // process, so its (and the replay's) memory is reported per layer.
    let leader_peak = probe::rss().peak;
    let ((replica, feed), (_, feed_cpu)) =
        probe::timed_cpu(|| follow(&stream, opts.threads, checks));
    let (checkpoints, divergences) = replica.checkpoints();
    checks.add("stream_finished", stream.finished, "leader shipped Finish");
    checks.add(
        "checkpoints",
        checkpoints > 0 && checkpoints == stream.checkpoints && divergences == 0,
        format!(
            "{checkpoints} of {} checkpoints applied, {divergences} diverged",
            stream.checkpoints
        ),
    );
    checks.add(
        "replica_finale",
        replica.finale_csv() == Some(leader.summary_csv()),
        "follower finale summary_csv equals the leader's",
    );
    let journal = replica.journal();
    let (text, encode_s) =
        probe::timed(|| journal.as_ref().map(Recorded::to_text).unwrap_or_default());
    let replay_c0 = probe::cpu_s();
    let (decoded, decode_s) = probe::timed(|| Recorded::from_text(&text));
    let (verified, verify_s) = probe::timed(|| match &decoded {
        Ok(j) => j.verify(opts.threads),
        Err(e) => Err(e.clone()),
    });
    let replay_cpu = probe::cpu_s() - replay_c0;
    checks.add(
        "replay_verify",
        verified.is_ok(),
        verified
            .clone()
            .err()
            .unwrap_or_else(|| "Replayer::verify returned Ok".into()),
    );
    checks.add(
        "journal_fixed_point",
        decoded.as_ref().is_ok_and(|j| j.to_text() == text),
        "to_text(from_text(text)) == text",
    );
    Replication {
        leader,
        stream,
        lead_s,
        leader_peak,
        feed,
        cpu: (lead_cpu, feed_cpu, replay_cpu),
        text,
        encode_s,
        decoded,
        decode_s,
        verify_s,
    }
}

/// One `fleet_replicated` pass: set-ups, then the replication pipeline
/// (`replicate`). Traced: the pipeline behind the tee with per-call timers
/// (in this fresh process), then the leader alone with no sink and with
/// the shipper, for the shipping overhead.
pub fn replicated(opts: &Opts) -> Record {
    let mut rec = Record::default();
    let rss0 = probe::rss().now;
    let path = scenario_path(opts, "fleet_replicated");
    let setups = if opts.trace { 1 } else { REPLICATED_SETUPS };
    let (scenario, plan, setup) = set_up_repeated(&path, opts.seed, setups);
    check_round_trip(&path, &scenario, &mut rec.checks);
    let admitted = plan.admitted();
    drop(plan);

    let mut trace = FleetTrace::default();
    let t0 = Instant::now();
    let r = replicate(
        &scenario,
        opts,
        opts.trace.then_some(&mut trace),
        &mut rec.checks,
    );
    let host_s = t0.elapsed().as_secs_f64();
    let pass_peak = probe::rss().peak;
    let replay_s = r.decode_s + r.verify_s;

    rec.sim = fleet_sim(&r.leader, &r.leader.summary_csv());
    rec.sim.set("frames", r.stream.frames);
    rec.sim.set("records", r.stream.records);
    rec.sim.set("checkpoints", r.stream.checkpoints);
    rec.sim.set("journal_bytes", r.text.len());
    rec.sim
        .set("journal_fnv", probe::fingerprint(r.text.as_bytes()));

    if !opts.trace {
        let (lead_cpu, feed_cpu, replay_cpu) = r.cpu;
        rec.samples.set("setup_s", setup);
        fleet_samples(
            &mut rec,
            &scenario,
            (rss0, r.leader_peak),
            admitted,
            (r.lead_s, lead_cpu),
            (
                r.lead_s + r.feed.total() + replay_s,
                lead_cpu + feed_cpu + replay_cpu,
            ),
        );
        return rec;
    }

    let leader_s = cluster_layers(&mut rec.layers, &trace, &r.leader);
    let l = &mut rec.layers;
    l.set(
        "journal.records",
        r.decoded.as_ref().map_or(0, Recorded::records),
    );
    l.set("journal.bytes", r.text.len());
    l.set("journal.encode_ms", r.encode_s * 1e3);
    l.set("journal.decode_ms", r.decode_s * 1e3);
    l.set("journal.verify_s", r.verify_s);
    l.set("journal.replay_s", replay_s);
    l.set("distrib.frames", r.stream.frames);
    l.set("distrib.bytes", r.feed.bytes);
    l.set("distrib.checkpoints", r.stream.checkpoints);
    l.set("distrib.feed_records_s", r.feed.records);
    l.set("distrib.feed_checkpoint_s", r.feed.checkpoint);
    l.set("distrib.feed_finish_s", r.feed.finish);
    l.set("distrib.replica_s", r.feed.total());
    l.set("distrib.resim_ratio", r.feed.total() / r.lead_s);
    l.set("mem.pass_peak_mb", probe::mb(pass_peak));
    rec.trace.host_s = host_s;
    rec.trace.covered_s = leader_s + r.feed.total() + r.encode_s + replay_s;
    rec.trace.run_s = probe::secs(trace.start.expect("started"), trace.end.expect("ended"));
    drop(r);

    let (_, bare_s) = probe::timed(|| adapter::run(&scenario, opts.seed, opts.threads));
    let (_, shipped_s) = probe::timed(|| adapter::lead(&scenario, opts.seed, opts.threads, None));
    rec.layers.set(
        "distrib.ship_overhead_pct",
        100.0 * (shipped_s / bare_s - 1.0),
    );
    rec
}
