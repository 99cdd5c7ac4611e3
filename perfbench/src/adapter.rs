//! The one place the benchmark calls into the program.
//!
//! Every workload reaches the library crates through the functions and
//! wrappers below, always with the default configuration (no scan
//! placement, no sketch aggregates, no chunk or recycling overrides, the
//! default event queue and dispatch). When the program's public entry
//! points change, this file is the one to edit.

use std::time::Instant;

use selftune_apps::{MediaConfig, MediaPlayer, PeriodicRt};
use selftune_cluster::prelude::*;
use selftune_cluster::NodeSketches;
use selftune_core::{ControllerConfig, ManagerConfig, SelfTuningManager};
use selftune_distrib::{Applied, ChannelTransport, Follower, Shipper, Transport};
use selftune_journal::{Journal, Replayer};
use selftune_sched::{Place, ReservationScheduler, ServerConfig};
use selftune_simcore::{Dur, Kernel, Rng, TaskId, TaskState, Time};
use selftune_tracer::{Tracer, TracerConfig};

use crate::probe;

// ---------------------------------------------------------------- node --

/// Background real-time tasks beside the two players: each a 250 µs job
/// every 20 ms in its own fixed 500 µs / 20 ms CBS reservation, so the
/// players' requests compete with 10% of pinned bandwidth.
const BACKGROUND: usize = 4;

/// One managed player of the node session.
struct Player {
    task: TaskId,
    label: String,
    nominal_ms: f64,
}

/// The paper's single node: a 25 fps `mplayer` video and a 32.5 Hz mp3
/// player, both black boxes under a default [`SelfTuningManager`], beside
/// [`BACKGROUND`] periodic tasks in fixed 20 ms CBS reservations.
pub struct NodeSession {
    kernel: Kernel<ReservationScheduler>,
    manager: SelfTuningManager,
    players: Vec<Player>,
}

/// What one player did over a node session.
pub struct PlayerOutcome {
    /// The player's label.
    pub label: String,
    /// Nominal frame period (ms).
    pub nominal_ms: f64,
    /// Period the self-tuning loop detected (ms), if any.
    pub detected_ms: Option<f64>,
    /// Inter-frame times (ms).
    pub ift_ms: Vec<f64>,
    /// System calls the player issued (what the tracer saw).
    pub syscalls: u64,
    /// `(estimate calls, aperiodic verdicts)` of its period analyser.
    pub verdicts: (u64, u64),
}

/// The simulated outcome of a node session.
pub struct NodeOutcome {
    /// Both players.
    pub players: Vec<PlayerOutcome>,
    /// Grants the supervisor compressed below their request.
    pub compressions: u64,
    /// Context switches.
    pub switches: u64,
    /// CPU busy time over the session (s).
    pub busy_s: f64,
    /// Simulated time (s).
    pub now_s: f64,
}

impl NodeSession {
    /// Builds the node from `seed`.
    pub fn new(seed: u64) -> NodeSession {
        let mut kernel = Kernel::new(ReservationScheduler::new());
        let (hook, reader) = Tracer::create(TracerConfig::default());
        kernel.install_hook(Box::new(hook));
        let mut rng = Rng::new(seed);

        let mut players = Vec::new();
        for cfg in [
            MediaConfig::mplayer_video_25fps(),
            MediaConfig::mplayer_mp3(),
        ] {
            let label = cfg.label.clone();
            let nominal_ms = cfg.period().as_ms_f64();
            let task = kernel.spawn(&label, Box::new(MediaPlayer::new(cfg, rng.fork())));
            players.push(Player {
                task,
                label,
                nominal_ms,
            });
        }
        for i in 0..BACKGROUND {
            let label = format!("bg{i}");
            let task = kernel.spawn(
                &label,
                Box::new(PeriodicRt::new(
                    &label,
                    Dur::us(250),
                    Dur::ms(20),
                    0.1,
                    rng.fork(),
                )),
            );
            let sid = kernel
                .sched_mut()
                .create_server(ServerConfig::new(Dur::us(500), Dur::ms(20)));
            let now = kernel.now();
            match kernel.task_state(task) {
                TaskState::Ready => kernel
                    .sched_mut()
                    .place_ready(task, Place::Server(sid), now),
                _ => kernel.sched_mut().place(task, Place::Server(sid)),
            }
        }

        let mut manager = SelfTuningManager::new(ManagerConfig::default(), reader);
        for p in &players {
            manager.manage(p.task, &p.label, ControllerConfig::default());
        }
        NodeSession {
            kernel,
            manager,
            players,
        }
    }

    /// Tasks on the node.
    pub fn tasks(&self) -> usize {
        self.players.len() + BACKGROUND
    }

    /// Runs the whole session to `horizon_s` through `SelfTuningManager::run`.
    pub fn run(&mut self, horizon_s: f64) {
        let until = Time::ZERO + Dur::from_secs_f64(horizon_s);
        self.manager.run(&mut self.kernel, until);
    }

    /// The session driven one sampling period at a time, with
    /// `Kernel::run_until` and `SelfTuningManager::step` each timed: the
    /// same calls `SelfTuningManager::run` makes. Returns the per-call host
    /// times (s) as `(run_until, step)` pairs.
    pub fn run_timed(&mut self, horizon_s: f64) -> Vec<(f64, f64)> {
        let until = Time::ZERO + Dur::from_secs_f64(horizon_s);
        let sampling = self.manager.config().sampling;
        let mut calls = Vec::new();
        while self.kernel.now() < until {
            let next = (self.kernel.now() + sampling).min(until);
            let t0 = Instant::now();
            self.kernel.run_until(next);
            let t1 = Instant::now();
            self.manager.step(&mut self.kernel);
            let t2 = Instant::now();
            calls.push((probe::secs(t0, t1), probe::secs(t1, t2)));
        }
        calls
    }

    /// What the session simulated so far.
    pub fn outcome(&self) -> NodeOutcome {
        let k = &self.kernel;
        let players = self
            .players
            .iter()
            .map(|p| {
                let ctl = self.manager.controller_of(p.task);
                PlayerOutcome {
                    label: p.label.clone(),
                    nominal_ms: p.nominal_ms,
                    detected_ms: ctl.and_then(|c| c.period()).map(|d| d.as_ms_f64()),
                    ift_ms: k
                        .metrics()
                        .inter_mark_times_ms(&format!("{}.frame", p.label)),
                    syscalls: k.syscall_count(p.task),
                    verdicts: ctl.map_or((0, 0), |c| c.analyser().verdict_counts()),
                }
            })
            .collect();
        NodeOutcome {
            players,
            compressions: self.manager.compressed_grants(),
            switches: k.context_switches(),
            busy_s: k.busy_time().as_secs_f64(),
            now_s: k.now().as_secs_f64(),
        }
    }
}

// --------------------------------------------------------------- fleet --

/// A fleet scenario loaded from its text form.
pub struct Scenario {
    spec: ScenarioSpec,
}

impl Scenario {
    /// Parses scenario text.
    pub fn from_text(text: &str) -> Result<Scenario, String> {
        ScenarioSpec::from_text(text).map(|spec| Scenario { spec })
    }

    /// The scenario's text form.
    pub fn to_text(&self) -> String {
        self.spec.to_text()
    }

    /// Simulated node-seconds one run covers.
    pub fn node_seconds(&self) -> f64 {
        self.spec.nodes as f64 * self.spec.horizon.as_secs_f64()
    }
}

/// A fleet plan (placement of every task and VM).
pub struct Plan {
    plan: FleetPlan,
}

impl Plan {
    /// Real-time tasks and VMs the plan admitted.
    pub fn admitted(&self) -> u64 {
        self.plan.admission.admitted + self.plan.admission.vms_admitted
    }
}

/// `plan_fleet` on `scenario` at `seed`.
pub fn plan(scenario: &Scenario, seed: u64) -> Plan {
    Plan {
        plan: plan_fleet(&scenario.spec, seed),
    }
}

/// The reduced outcome of one fleet run.
pub struct Fleet {
    metrics: AggregateMetrics,
}

impl Fleet {
    /// `AggregateMetrics::summary_csv`.
    pub fn summary_csv(&self) -> String {
        self.metrics.summary_csv()
    }

    /// `AggregateMetrics::miss_ratio`.
    pub fn miss_ratio(&self) -> f64 {
        self.metrics.miss_ratio()
    }

    /// Admissions attempted (tasks and VMs) and how many were refused.
    pub fn admissions(&self) -> (u64, u64) {
        let a = &self.metrics.admission;
        let refused = a.rejected + a.vms_rejected;
        (a.admitted + a.vms_admitted + refused, refused)
    }

    /// Real-time tasks and VMs admitted.
    pub fn admitted(&self) -> u64 {
        let a = &self.metrics.admission;
        a.admitted + a.vms_admitted
    }

    /// Applied migrations and evictions that found no destination.
    pub fn migrations(&self) -> (u64, u64) {
        (self.metrics.rebalance.moves, self.metrics.rebalance.failed)
    }

    /// Context switches over all nodes.
    pub fn switches(&self) -> u64 {
        self.metrics.nodes.iter().map(|n| n.ctx_switches).sum()
    }

    /// Mean CPU busy fraction over the nodes.
    pub fn busy_frac(&self) -> f64 {
        self.metrics.mean_utilisation()
    }

    /// Host seconds of `summary_csv` and of `NodeSketches::tree_reduce`
    /// over the final node reports.
    pub fn aggregate_timings(&self) -> (f64, f64) {
        let (_, csv_s) = probe::timed(|| self.metrics.summary_csv());
        let (_, tree_s) = probe::timed(|| NodeSketches::tree_reduce(&self.metrics.nodes));
        (csv_s, tree_s)
    }
}

/// `ClusterRunner::run_planned` with `threads` workers.
pub fn run_planned(scenario: &Scenario, seed: u64, plan: &Plan, threads: usize) -> Fleet {
    Fleet {
        metrics: ClusterRunner::new(threads).run_planned(&scenario.spec, seed, &plan.plan),
    }
}

/// `ClusterRunner::run` (plan included) with `threads` workers.
pub fn run(scenario: &Scenario, seed: u64, threads: usize) -> Fleet {
    Fleet {
        metrics: ClusterRunner::new(threads).run(&scenario.spec, seed),
    }
}

/// Timestamps, event counts and memory samples of one logged fleet run,
/// taken by a tee journal sink at each callback.
#[derive(Default)]
pub struct FleetTrace {
    /// When the run was entered.
    pub start: Option<Instant>,
    /// When the plan batch arrived (planning done).
    pub plan_at: Option<Instant>,
    /// When each epoch batch arrived.
    pub epoch_at: Vec<Instant>,
    /// When the run returned.
    pub end: Option<Instant>,
    /// `VmRSS` (bytes) when the plan batch arrived.
    pub rss_after_plan: u64,
    /// `VmRSS` (bytes) when the first epoch batch arrived.
    pub rss_epoch0: u64,
    /// Admission decisions (tasks and VMs) in the plan batch.
    pub placements: u64,
    /// Σ supervisor compressions over the `Compression` events.
    pub compressions: u64,
    /// `NodeRebound` events.
    pub rebounds: u64,
    /// `ShareGrant` events.
    pub share_grants: u64,
}

impl FleetTrace {
    fn count(&mut self, events: &[FleetEvent]) {
        for e in events {
            match e {
                FleetEvent::TaskAdmission { .. } | FleetEvent::VmAdmission { .. } => {
                    self.placements += 1;
                }
                FleetEvent::Compression { count, .. } => self.compressions += count,
                FleetEvent::NodeRebound { .. } => self.rebounds += 1,
                FleetEvent::ShareGrant { .. } => self.share_grants += 1,
                FleetEvent::Kill { .. }
                | FleetEvent::Rebalance { .. }
                | FleetEvent::Migration { .. } => {}
            }
        }
    }
}

/// The tee: records into a [`FleetTrace`] and forwards every callback to
/// the inner sink, if any.
struct Tee<'t, 's> {
    trace: &'t mut FleetTrace,
    inner: Option<&'s mut dyn JournalSink>,
}

impl JournalSink for Tee<'_, '_> {
    fn checkpoint_interval(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|s| s.checkpoint_interval())
    }

    fn on_plan(&mut self, admission: &AdmissionStats, events: &[FleetEvent]) {
        self.trace.plan_at = Some(Instant::now());
        self.trace.rss_after_plan = probe::rss().now;
        self.trace.count(events);
        if let Some(s) = self.inner.as_mut() {
            s.on_plan(admission, events);
        }
    }

    fn on_checkpoint(&mut self, cursor: usize, at: Time, interim: &AggregateMetrics) {
        if let Some(s) = self.inner.as_mut() {
            s.on_checkpoint(cursor, at, interim);
        }
    }

    fn on_epoch(&mut self, epoch: usize, at: Time, events: &[FleetEvent]) {
        self.trace.epoch_at.push(Instant::now());
        if self.trace.epoch_at.len() == 1 {
            self.trace.rss_epoch0 = probe::rss().now;
        }
        self.trace.count(events);
        if let Some(s) = self.inner.as_mut() {
            s.on_epoch(epoch, at, events);
        }
    }

    fn on_finish(&mut self, finale: &AggregateMetrics) {
        if let Some(s) = self.inner.as_mut() {
            s.on_finish(finale);
        }
    }
}

/// `ClusterRunner::run_logged_with` through a tee that fills `trace` and
/// forwards to `inner`.
fn run_teed(
    scenario: &Scenario,
    seed: u64,
    threads: usize,
    trace: &mut FleetTrace,
    inner: Option<&mut dyn JournalSink>,
) -> Fleet {
    trace.start = Some(Instant::now());
    let metrics = {
        let mut tee = Tee {
            trace: &mut *trace,
            inner,
        };
        ClusterRunner::new(threads).run_logged_with(&scenario.spec, seed, &mut tee)
    };
    trace.end = Some(Instant::now());
    Fleet { metrics }
}

/// A fleet run with the tee sink and nothing behind it.
pub fn run_traced(scenario: &Scenario, seed: u64, threads: usize, trace: &mut FleetTrace) -> Fleet {
    run_teed(scenario, seed, threads, trace, None)
}

// --------------------------------------------------------- replication --

/// Checkpoint cadence of the replication stream (epochs).
pub const CHECKPOINT_EVERY: usize = 2;

/// What the leader's stream carried.
pub struct Stream {
    /// The encoded frames, in order, as the follower receives them.
    pub chunks: Vec<Vec<u8>>,
    /// Frames shipped.
    pub frames: u64,
    /// Decision records shipped.
    pub records: u64,
    /// Checkpoints shipped.
    pub checkpoints: u64,
    /// Whether the Finish frame went out.
    pub finished: bool,
}

/// Runs the leader with a `Shipper` over a `ChannelTransport` (and the tee
/// in front of it when `trace` is given), then drains the wire.
pub fn lead(
    scenario: &Scenario,
    seed: u64,
    threads: usize,
    trace: Option<&mut FleetTrace>,
) -> (Fleet, Stream) {
    let (tx, mut rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, &scenario.spec, seed, threads, Some(CHECKPOINT_EVERY));
    let fleet = match trace {
        Some(t) => run_teed(scenario, seed, threads, t, Some(&mut shipper)),
        None => Fleet {
            metrics: ClusterRunner::new(threads).run_logged_with(
                &scenario.spec,
                seed,
                &mut shipper,
            ),
        },
    };
    let progress = shipper.progress();
    let mut chunks = Vec::new();
    while let Some(c) = rx.recv() {
        chunks.push(c);
    }
    let stream = Stream {
        chunks,
        frames: progress.frames,
        records: progress.records,
        checkpoints: progress.checkpoints as u64,
        finished: progress.finished,
    };
    (fleet, stream)
}

/// What one fed frame did on the follower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fed {
    /// Hello, plan or epoch records.
    Records,
    /// A checkpoint whose mirror matched.
    Checkpoint,
    /// End of stream, full replica verified.
    Finish,
}

/// A hot-standby `Follower`.
pub struct Replica {
    follower: Follower,
}

impl Replica {
    /// A follower re-simulating on `threads` workers.
    pub fn new(threads: usize) -> Replica {
        Replica {
            follower: Follower::new(threads),
        }
    }

    /// `Follower::feed` of one chunk.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Fed, String> {
        match self.follower.feed(chunk) {
            Ok(Applied::Checkpoint { .. }) => Ok(Fed::Checkpoint),
            Ok(Applied::Finish) => Ok(Fed::Finish),
            Ok(Applied::Hello | Applied::Plan { .. } | Applied::Epoch { .. }) => Ok(Fed::Records),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Checkpoints verified and mirrors that diverged.
    pub fn checkpoints(&self) -> (u64, u64) {
        let s = self.follower.stats();
        (s.checkpoints as u64, s.divergences)
    }

    /// The replica's finale `summary_csv`, once the stream finished.
    pub fn finale_csv(&self) -> Option<String> {
        self.follower.finale().map(AggregateMetrics::summary_csv)
    }

    /// The replica's journal.
    pub fn journal(&self) -> Option<Recorded> {
        self.follower.journal().map(|journal| Recorded { journal })
    }
}

/// A decision journal.
pub struct Recorded {
    journal: Journal,
}

impl Recorded {
    /// `Journal::to_text`.
    pub fn to_text(&self) -> String {
        self.journal.to_text()
    }

    /// `Journal::from_text`.
    pub fn from_text(text: &str) -> Result<Recorded, String> {
        Journal::from_text(text).map(|journal| Recorded { journal })
    }

    /// Decision records in the journal.
    pub fn records(&self) -> usize {
        self.journal.records.len()
    }

    /// `Replayer::verify` on `threads` workers.
    pub fn verify(&self, threads: usize) -> Result<(), String> {
        Replayer::new(threads).verify(&self.journal).map(|_| ())
    }
}
