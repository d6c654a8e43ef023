//! The simulation world: binds protocol state machines to the network,
//! clocks, oracles and fault script.

use crate::clock::DriftClock;
use crate::error::SimError;
use crate::event::{EventKind, EventQueue, MsgPayload};
use crate::metrics::{CommitRecord, Report};
use crate::network::{Delivery, Network, PreStability};
use crate::oracle::{plan_wab_delivery, LeaderOracle};
use crate::scenario::Scenario;
use crate::time::SimTime;
use esync_core::config::TimingConfig;
use esync_core::metrics::Metric;
use esync_core::outbox::{Action, Outbox, Process, Protocol};
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, ShardId, TimerId, Value};
use esync_metrics::{MetricsSnapshot, WatchdogConfig, WatchdogFiring, Watchdogs};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::sync::Arc;

/// Full configuration of one simulated run.
///
/// Serializes (to JSON) so that benchmark artifacts can embed the exact
/// configuration every number was produced from.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// The protocol-visible timing parameters (`N`, `δ`, `σ`, `ε`, `ρ`).
    pub timing: TimingConfig,
    /// The stabilization time `TS` (unknown to processes).
    pub ts: SimTime,
    /// PRNG seed; every run is a deterministic function of it.
    pub seed: u64,
    /// Pre-`TS` network behaviour.
    pub pre: PreStability,
    /// Post-`TS` delays, as fractions of `δ` (default `[0.1, 1.0]`).
    pub post_delay_range: (f64, f64),
    /// Safety horizon: the run errors out if it passes this time.
    pub max_time: SimTime,
    /// Run the idealized leader-election oracle (traditional Paxos).
    pub leader_oracle: bool,
    /// Oracle announcement delay after `TS` (default `2δ`).
    pub leader_announce_after: RealDuration,
    /// Initial values; defaults to `100 + i` for process `i`.
    pub initial_values: Option<Vec<Value>>,
    /// Fault and workload script.
    pub scenario: Scenario,
}

impl SimConfig {
    /// Starts building a configuration for `n` processes.
    pub fn builder(n: usize) -> SimConfigBuilder {
        SimConfigBuilder {
            n,
            delta: RealDuration::from_millis(10),
            sigma: None,
            epsilon: None,
            rho: 1e-3,
            ts: SimTime::from_millis(300),
            seed: 0,
            pre: PreStability::chaos(),
            post_delay_range: (0.1, 1.0),
            max_time: SimTime::from_secs(120),
            leader_oracle: false,
            leader_announce_after: None,
            initial_values: None,
            scenario: Scenario::none(),
        }
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    n: usize,
    delta: RealDuration,
    sigma: Option<RealDuration>,
    epsilon: Option<RealDuration>,
    rho: f64,
    ts: SimTime,
    seed: u64,
    pre: PreStability,
    post_delay_range: (f64, f64),
    max_time: SimTime,
    leader_oracle: bool,
    leader_announce_after: Option<RealDuration>,
    initial_values: Option<Vec<Value>>,
    scenario: Scenario,
}

impl SimConfigBuilder {
    /// Sets the message-delay bound `δ` (default 10ms).
    pub fn delta(mut self, delta: RealDuration) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the session-timer bound `σ` (default: minimum admissible).
    pub fn sigma(mut self, sigma: RealDuration) -> Self {
        self.sigma = Some(sigma);
        self
    }

    /// Sets the retransmission interval `ε` (default `δ/4`).
    pub fn epsilon(mut self, epsilon: RealDuration) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the clock-rate error bound `ρ` (default `10⁻³`).
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Sets the stabilization time `TS` (default 300ms).
    pub fn stability_at(mut self, ts: SimTime) -> Self {
        self.ts = ts;
        self
    }

    /// Sets `TS` in milliseconds.
    pub fn stability_at_millis(self, ms: u64) -> Self {
        self.stability_at(SimTime::from_millis(ms))
    }

    /// Sets the seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pre-stability policy (default [`PreStability::chaos`]).
    pub fn pre_stability(mut self, pre: PreStability) -> Self {
        self.pre = pre;
        self
    }

    /// Sets post-stability delays as fractions of `δ` (default `[0.1,1.0]`).
    pub fn post_delay_range(mut self, range: (f64, f64)) -> Self {
        self.post_delay_range = range;
        self
    }

    /// Sets the safety horizon (default 120s).
    pub fn max_time(mut self, max: SimTime) -> Self {
        self.max_time = max;
        self
    }

    /// Enables the idealized leader-election oracle.
    pub fn leader_oracle(mut self, enabled: bool) -> Self {
        self.leader_oracle = enabled;
        self
    }

    /// Sets the oracle announcement delay after `TS` (default `2δ`).
    pub fn leader_announce_after(mut self, d: RealDuration) -> Self {
        self.leader_announce_after = Some(d);
        self
    }

    /// Sets explicit initial values (defaults to `100 + i`).
    pub fn initial_values(mut self, values: Vec<Value>) -> Self {
        self.initial_values = Some(values);
        self
    }

    /// Sets the fault/workload script.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for invalid timing parameters,
    /// [`SimError::NoSuchProcess`] for out-of-range scenario pids, and
    /// [`SimError::CrashAfterStability`] if the script violates the "no
    /// failures after `TS`" assumption.
    pub fn build(self) -> Result<SimConfig, SimError> {
        let mut b = TimingConfig::builder(self.n);
        b.delta(self.delta).rho(self.rho);
        if let Some(s) = self.sigma {
            b.sigma(s);
        }
        if let Some(e) = self.epsilon {
            b.epsilon(e);
        }
        let timing = b.build()?;
        for pid in self.scenario.referenced_pids() {
            if pid.as_usize() >= self.n {
                return Err(SimError::NoSuchProcess { pid, n: self.n });
            }
        }
        for &(pid, at) in &self.scenario.crashes {
            if at > self.ts {
                return Err(SimError::CrashAfterStability {
                    pid,
                    at,
                    ts: self.ts,
                });
            }
        }
        Ok(SimConfig {
            timing,
            ts: self.ts,
            seed: self.seed,
            pre: self.pre,
            post_delay_range: self.post_delay_range,
            max_time: self.max_time,
            leader_oracle: self.leader_oracle,
            leader_announce_after: self
                .leader_announce_after
                .unwrap_or(self.delta * 2),
            initial_values: self.initial_values,
            scenario: self.scenario,
        })
    }
}

/// Per-timer bookkeeping enabling *lazy re-arming*.
///
/// Protocols re-arm timers constantly (the session timer resets on every
/// message). Pushing a heap event per re-arm floods the queue with stale
/// `TimerFire`s. Instead, each slot remembers its armed deadline; a re-arm
/// only pushes a heap event when no pending event fires early enough, and
/// a stale pop re-pushes for the currently armed deadline. The timer still
/// fires at exactly its armed instant.
#[derive(Debug, Clone, Copy, Default)]
struct TimerSlot {
    /// Bumped on every (re-)arm, cancel, and crash; a popped `TimerFire`
    /// only fires if its epoch is current.
    epoch: u64,
    /// The deadline the protocol most recently armed, if any.
    armed_at: Option<SimTime>,
    /// Firing time of the earliest pending heap event for this timer
    /// (an event is guaranteed to pop at or before `armed_at` while armed).
    next_pending: Option<SimTime>,
}

/// A fixed-capacity bitset over process indices — the structure-of-arrays
/// home of the event loop's hottest per-process flags. One cache line
/// covers 512 processes, so the per-event liveness check (`alive? started?`)
/// and the completion-scan debug assertion never touch the cold
/// `ProcHarness` (protocol state, clocks, fault history).
#[derive(Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Clears all bits and resizes to cover `n` indices.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    fn set(&mut self, i: usize, v: bool) {
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

/// Per-process runtime envelope — the **cold** side of the per-process
/// state. The hot flags (`alive`, `started`) and the decision instants
/// live in parallel arrays on the [`World`] itself (see [`BitSet`]), so
/// the event loop only dereferences a harness when it actually runs the
/// process.
#[derive(Debug)]
struct ProcHarness<Proc> {
    proc: Proc,
    clock: DriftClock,
    /// Timer slots, indexed by `TimerId::get()`. Protocols use single-digit
    /// constant ids, so this stays tiny and cache-resident.
    timers: Vec<TimerSlot>,
    decided_value: Option<Value>,
    crash_times: Vec<SimTime>,
    restart_times: Vec<SimTime>,
}

impl<Proc> ProcHarness<Proc> {
    fn timer_slot(&mut self, timer: TimerId) -> &mut TimerSlot {
        let idx = timer.get() as usize;
        if idx >= self.timers.len() {
            self.timers.resize(idx + 1, TimerSlot::default());
        }
        &mut self.timers[idx]
    }
}

/// Live metrics state ([`World::enable_metrics`]): the snapshot cadence,
/// the collected series, and the online watchdog evaluator. The counters
/// themselves live in the scratch outbox's passive
/// [`MetricSet`](esync_core::metrics::MetricSet) — one cluster-wide
/// registry, since one scratch outbox serves every process.
#[derive(Debug)]
struct MetricsState {
    interval: RealDuration,
    next_at: SimTime,
    watchdogs: Watchdogs,
    snapshots: Vec<MetricsSnapshot>,
    firings: Vec<WatchdogFiring>,
}

/// A deterministic run of one protocol under one configuration.
#[derive(Debug)]
pub struct World<P: Protocol> {
    cfg: SimConfig,
    protocol: P,
    procs: Vec<ProcHarness<P::Process>>,
    /// Hot per-process flags as parallel bitsets (SoA): checked on every
    /// deliver/timer/submit before the harness is touched.
    alive: BitSet,
    started: BitSet,
    /// Per-process first-decision instants, parallel to `procs`.
    decided_at: Vec<Option<SimTime>>,
    queue: EventQueue<P::Msg>,
    network: Network,
    rng: ChaCha8Rng,
    now: SimTime,
    leader: LeaderOracle,
    initial_values: Vec<Value>,
    /// Count of processes that are alive, started and undecided — the O(1)
    /// half of the completion check.
    live_undecided: usize,
    msgs_sent: u64,
    msgs_sent_after_ts: u64,
    /// Per-kind message counts. Protocols have a handful of kinds, so a
    /// linear scan over this Vec beats a map lookup per sent message.
    msgs_by_kind: Vec<(&'static str, u64)>,
    msgs_dropped: u64,
    events: u64,
    /// Every `Action::Decide` with its instant — one record per command
    /// per process for multi-instance protocols (the workload drivers'
    /// measurement feed), one per process for single-shot ones.
    commits: Vec<CommitRecord>,
    /// Reused outbox: one action buffer for the whole run instead of one
    /// allocation per event.
    scratch: Outbox<P::Msg>,
    /// The typed trace collector ([`World::enable_typed_trace`]); the
    /// scratch outbox's tracing flag is on exactly while this is `Some`.
    typed_trace: Option<esync_trace::TraceBuffer>,
    /// Metrics snapshots and watchdogs ([`World::enable_metrics`]); the
    /// scratch outbox's metering flag is on exactly while this is `Some`.
    metrics: Option<MetricsState>,
}

impl<P: Protocol> World<P> {
    /// Creates a world and schedules boots, faults and oracle events.
    pub fn new(cfg: SimConfig, protocol: P) -> Self {
        let mut world = World {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            network: Network::new(cfg.ts, cfg.timing.delta(), cfg.post_delay_range, cfg.pre.clone()),
            leader: LeaderOracle::new(cfg.leader_announce_after),
            queue: EventQueue::with_capacity(Self::queue_cap(&cfg)),
            cfg,
            protocol,
            procs: Vec::new(),
            alive: BitSet::default(),
            started: BitSet::default(),
            decided_at: Vec::new(),
            now: SimTime::ZERO,
            initial_values: Vec::new(),
            live_undecided: 0,
            msgs_sent: 0,
            msgs_sent_after_ts: 0,
            msgs_by_kind: Vec::with_capacity(8),
            msgs_dropped: 0,
            events: 0,
            commits: Vec::new(),
            scratch: Outbox::default(),
            typed_trace: None,
            metrics: None,
        };
        world.populate();
        world
    }

    /// The event queue's pre-sized capacity: every process broadcasting to
    /// every process plus timers and control events, so neither the payload
    /// slab nor the key heap regrows during the first busy instants.
    fn queue_cap(cfg: &SimConfig) -> usize {
        let n = cfg.timing.n();
        24 * n * n + 8 * n + 64
    }

    /// Re-initializes this world for a fresh run of `cfg`, **reusing** the
    /// event queue's slab and heap, the per-process harness vector, the
    /// scratch outbox and every metrics buffer. A sweep resets one world
    /// per seed instead of rebuilding it; the run is bit-identical to one
    /// on a newly constructed `World::new(cfg, protocol)`
    /// (`reset_is_bit_identical_to_fresh_construction` enforces this).
    /// The protocol factory is kept; tracing and metering stay enabled
    /// if they were.
    pub fn reset(&mut self, cfg: SimConfig) {
        self.queue.reset(Self::queue_cap(&cfg));
        self.rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        self.network = Network::new(cfg.ts, cfg.timing.delta(), cfg.post_delay_range, cfg.pre.clone());
        self.leader = LeaderOracle::new(cfg.leader_announce_after);
        self.cfg = cfg;
        self.now = SimTime::ZERO;
        self.live_undecided = 0;
        self.msgs_sent = 0;
        self.msgs_sent_after_ts = 0;
        self.msgs_by_kind.clear();
        self.msgs_dropped = 0;
        self.events = 0;
        self.commits.clear();
        if let Some(tt) = self.typed_trace.as_mut() {
            tt.clear();
        }
        if let Some(state) = self.metrics.as_mut() {
            state.next_at = SimTime::ZERO + state.interval;
            state.snapshots.clear();
            state.firings.clear();
            state.watchdogs = Watchdogs::new(*state.watchdogs.config());
            // Outbox::reset keeps counters (registries are sampled, not
            // drained); a fresh run starts its series from zero.
            self.scratch.metrics_mut().reset();
        }
        self.populate();
    }

    /// Spawns the processes and schedules boots, faults, submissions and
    /// oracle events (shared by [`World::new`] and [`World::reset`]).
    fn populate(&mut self) {
        let cfg = &self.cfg;
        let n = cfg.timing.n();
        self.initial_values = cfg
            .initial_values
            .clone()
            .unwrap_or_else(|| (0..n as u64).map(|i| Value::new(100 + i)).collect());
        assert_eq!(
            self.initial_values.len(),
            n,
            "one initial value per process required"
        );
        // Reuse harness shells (and their timer-slot vectors) in place.
        self.procs.truncate(n);
        self.alive.reset(n);
        self.started.reset(n);
        self.decided_at.clear();
        self.decided_at.resize(n, None);
        for (i, h) in self.procs.iter_mut().enumerate() {
            let pid = ProcessId::new(i as u32);
            h.proc = self
                .protocol
                .spawn(pid, &cfg.timing, self.initial_values[i]);
            h.clock = DriftClock::sample(cfg.timing.rho(), &mut self.rng);
            h.timers.clear();
            h.decided_value = None;
            h.crash_times.clear();
            h.restart_times.clear();
        }
        for i in self.procs.len()..n {
            let pid = ProcessId::new(i as u32);
            self.procs.push(ProcHarness {
                proc: self
                    .protocol
                    .spawn(pid, &cfg.timing, self.initial_values[i]),
                clock: DriftClock::sample(cfg.timing.rho(), &mut self.rng),
                timers: Vec::with_capacity(8),
                decided_value: None,
                crash_times: Vec::new(),
                restart_times: Vec::new(),
            });
        }
        // Crashes are scheduled before boots at the same instant so that a
        // crash at t=0 prevents the process from ever starting.
        for &(pid, at) in &cfg.scenario.crashes {
            self.queue.push(at, EventKind::Crash { pid });
        }
        for pid in ProcessId::all(n) {
            self.queue.push(SimTime::ZERO, EventKind::Boot { pid });
        }
        for &(pid, at) in &cfg.scenario.restarts {
            self.queue.push(at, EventKind::Boot { pid });
        }
        for &(pid, at, value) in &cfg.scenario.submits {
            self.queue.push(at, EventKind::ClientSubmit { pid, value });
        }
        for stream in &cfg.scenario.streams {
            for (at, pid, value) in stream.expand(n) {
                self.queue.push(at, EventKind::ClientSubmit { pid, value });
            }
        }
        if cfg.leader_oracle {
            self.queue
                .push(self.leader.announce_time(cfg.ts), EventKind::LeaderAnnounce);
        }
    }

    /// Starts collecting typed protocol trace events
    /// ([`esync_core::trace::TraceEvent`]) into a bounded ring of `cap`
    /// records, each stamped with the simulated instant of the emitting
    /// event. Tracing never alters protocol behaviour — a traced run's
    /// actions, messages and metrics are bit-identical to an untraced
    /// one — and stays enabled across [`World::reset`] (the buffer is
    /// cleared).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn enable_typed_trace(&mut self, cap: usize) {
        self.typed_trace = Some(esync_trace::TraceBuffer::new(cap));
        self.scratch.set_tracing(true);
    }

    /// The typed trace collector, if [`World::enable_typed_trace`] was
    /// called.
    pub fn typed_trace(&self) -> Option<&esync_trace::TraceBuffer> {
        self.typed_trace.as_ref()
    }

    /// Takes the collected typed trace records (oldest first), leaving
    /// collection enabled. Empty when tracing was never enabled.
    pub fn take_typed_trace(&mut self) -> Vec<esync_trace::TraceRecord> {
        self.typed_trace
            .as_mut()
            .map(|tt| tt.take_records())
            .unwrap_or_default()
    }

    /// Starts metering: protocols bump the cluster-wide counter registry
    /// through the outbox side channel, the world samples it into a
    /// [`MetricsSnapshot`] series every `interval` of simulated time
    /// (stamped at exact interval boundaries — each snapshot reflects
    /// precisely the events at instants `≤ at_ns`), and `cfg`'s online
    /// watchdogs are evaluated per snapshot window plus at every first
    /// decision (the live bound monitor). Metering never alters protocol
    /// behaviour — a metered run's actions, messages and report are
    /// bit-identical to an unmetered one (`tests/metrics_smoke.rs`) —
    /// and stays enabled across [`World::reset`] (series cleared,
    /// watchdog windows re-based), like the typed trace.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_metrics(&mut self, interval: RealDuration, cfg: WatchdogConfig) {
        assert!(interval > RealDuration::ZERO, "a snapshot cadence is required");
        self.metrics = Some(MetricsState {
            interval,
            next_at: SimTime::ZERO + interval,
            watchdogs: Watchdogs::new(cfg),
            snapshots: Vec::new(),
            firings: Vec::new(),
        });
        self.scratch.set_metering(true);
    }

    /// The snapshot series so far, if [`World::enable_metrics`] was
    /// called.
    pub fn metric_snapshots(&self) -> &[MetricsSnapshot] {
        self.metrics.as_ref().map_or(&[], |m| &m.snapshots)
    }

    /// Every watchdog firing so far, in observation order.
    pub fn watchdog_firings(&self) -> &[WatchdogFiring] {
        self.metrics.as_ref().map_or(&[], |m| &m.firings)
    }

    /// The metering cadence, if [`World::enable_metrics`] was called.
    pub fn metrics_interval(&self) -> Option<RealDuration> {
        self.metrics.as_ref().map(|m| m.interval)
    }

    /// Takes the collected snapshots and firings, leaving metering
    /// enabled. Empty when metering was never enabled.
    pub fn take_metrics(&mut self) -> (Vec<MetricsSnapshot>, Vec<WatchdogFiring>) {
        self.metrics
            .as_mut()
            .map(|m| (std::mem::take(&mut m.snapshots), std::mem::take(&mut m.firings)))
            .unwrap_or_default()
    }

    /// Samples the registry into a snapshot stamped `at`, evaluating the
    /// window watchdogs. `TraceDropped` is surfaced from the typed-trace
    /// collector first, and the shard-imbalance ratio is probed from the
    /// same per-shard `submitted` counters the rebalance trigger reads
    /// (sharded protocols only).
    fn take_metric_snapshot(&mut self, at: SimTime) {
        if self.metrics.is_none() {
            return;
        }
        let dropped = self
            .typed_trace
            .as_ref()
            .map_or(0, esync_trace::TraceBuffer::dropped);
        self.scratch.metrics_mut().set(Metric::TraceDropped, dropped);
        let shards = self.protocol.shard_count();
        let imbalance = if shards > 1 {
            let loads: Vec<u64> = (0..shards as u32)
                .map(|s| {
                    let shard = ShardId::new(s);
                    self.procs
                        .iter()
                        .map(|h| h.proc.shard_load(shard).submitted)
                        .sum()
                })
                .collect();
            esync_metrics::imbalance_x1000(&loads)
        } else {
            None
        };
        let snap = MetricsSnapshot {
            at_ns: at.as_nanos(),
            node: None,
            counters: *self.scratch.metrics().counters(),
        };
        let state = self.metrics.as_mut().expect("checked above");
        state.watchdogs.on_snapshot(&snap, imbalance, &mut state.firings);
        state.snapshots.push(snap);
        state.next_at = state.next_at + state.interval;
    }

    /// Flushes every snapshot boundary strictly before `up_to` (the next
    /// event's instant): by then all events at instants `≤` the boundary
    /// have been applied and none after, so the sample is exact.
    fn flush_metric_snapshots(&mut self, up_to: SimTime) {
        while self.metrics.as_ref().is_some_and(|m| m.next_at < up_to) {
            let at = self.metrics.as_ref().expect("checked").next_at;
            self.take_metric_snapshot(at);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The stabilization time of this run.
    pub fn ts(&self) -> SimTime {
        self.cfg.ts
    }

    /// The full configuration of this run (e.g. for embedding in
    /// benchmark artifacts).
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read access to a process's state machine (for typed assertions in
    /// experiments and tests).
    pub fn process(&self, pid: ProcessId) -> &P::Process {
        &self.procs[pid.as_usize()].proc
    }

    /// Every commit (`Action::Decide`) so far, in application order: one
    /// record per command per process for multi-instance protocols. The
    /// feed the workload drivers compute latency histograms from.
    pub fn commits(&self) -> &[CommitRecord] {
        &self.commits
    }

    /// Injects a message to be delivered at `at`, bypassing the network
    /// model. This models the paper's *obsolete messages*: messages "sent
    /// before `TS` by failed processes" that the adversary releases at a
    /// time of its choosing. The caller is responsible for injecting only
    /// states the claimed sender could legitimately have reached.
    pub fn inject_message(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: P::Msg) {
        self.queue.push(
            at,
            EventKind::Deliver {
                from,
                to,
                msg: MsgPayload::Owned(msg),
            },
        );
    }

    /// Schedules a client submission (multi-instance protocols).
    pub fn submit(&mut self, at: SimTime, pid: ProcessId, value: Value) {
        self.queue.push(at, EventKind::ClientSubmit { pid, value });
    }

    /// Schedules a crash at `at`, bypassing the scenario script — the
    /// fault-injection hook for drivers that pick their victim *during*
    /// the run (e.g. crash whichever process anchored as leader). The
    /// paper's model allows failures only before `TS`; unlike scripted
    /// crashes this is not validated, so callers targeting the modeled
    /// regime must keep `at ≤ TS` themselves.
    pub fn inject_crash(&mut self, at: SimTime, pid: ProcessId) {
        assert!(pid.as_usize() < self.cfg.timing.n(), "unknown process");
        self.queue.push(at, EventKind::Crash { pid });
    }

    /// Schedules a restart (or first boot, if the process never ran) at
    /// `at`, bypassing the scenario script. Pairs with
    /// [`World::inject_crash`] for mid-run leader-churn drives.
    pub fn inject_restart(&mut self, at: SimTime, pid: ProcessId) {
        assert!(pid.as_usize() < self.cfg.timing.n(), "unknown process");
        self.queue.push(at, EventKind::Boot { pid });
    }

    /// Processes events until every started, live process has decided and
    /// no boots or submissions remain pending.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if the horizon passes first.
    pub fn run_to_completion(&mut self) -> Result<Report, SimError> {
        loop {
            if self.complete() {
                return Ok(self.report());
            }
            match self.queue.peek_time() {
                None => {
                    // Quiescent but incomplete: protocols always keep a
                    // timer armed, so this indicates a driver-level bug.
                    return Err(SimError::Timeout { at: self.now });
                }
                Some(t) if t > self.cfg.max_time => {
                    return Err(SimError::Timeout { at: t });
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Processes events with firing time ≤ `until`, then advances the clock
    /// to `until`. Useful for fixed-horizon measurements.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        // Close out the horizon: boundaries past the last event but
        // within it still sample (every event ≤ them has been applied).
        while self.metrics.as_ref().is_some_and(|m| m.next_at <= until) {
            let at = self.metrics.as_ref().expect("checked").next_at;
            self.take_metric_snapshot(at);
        }
        self.now = self.now.max(until);
    }

    /// Whether the completion condition holds. O(1): both halves are
    /// maintained incrementally (`live_undecided` by the boot/crash/decide
    /// handlers, pending control events by the queue). The debug cross-check
    /// scans only the SoA flag arrays — a few cache lines even at large `n`.
    pub fn complete(&self) -> bool {
        debug_assert_eq!(
            self.live_undecided,
            (0..self.procs.len())
                .filter(|&i| self.alive.get(i) && self.started.get(i) && self.decided_at[i].is_none())
                .count(),
            "live_undecided counter drifted"
        );
        self.live_undecided == 0 && self.queue.control_pending() == 0
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time must not run backwards");
        if self.metrics.is_some() {
            self.flush_metric_snapshots(ev.at);
        }
        self.now = ev.at;
        self.events += 1;
        match ev.kind {
            EventKind::Boot { pid } => self.on_boot(pid),
            EventKind::Crash { pid } => self.on_crash(pid),
            EventKind::Deliver { from, to, msg } => self.on_deliver(from, to, msg),
            EventKind::TimerFire { pid, timer, epoch } => self.on_timer_fire(pid, timer, epoch),
            EventKind::WabDeliver { to, msg } => self.on_wab_deliver(to, msg),
            EventKind::LeaderAnnounce => self.on_leader_announce(),
            EventKind::LeaderChange { to, leader } => self.on_leader_change(to, leader),
            EventKind::ClientSubmit { pid, value } => self.on_client_submit(pid, value),
        }
        true
    }

    fn local_now(&self, pid: ProcessId) -> esync_core::time::LocalInstant {
        self.procs[pid.as_usize()].clock.local_at(self.now)
    }

    /// Takes the reusable outbox, re-armed for an event at `pid`'s local
    /// clock. Pair with [`World::put_outbox`].
    fn take_outbox(&mut self, pid: ProcessId) -> Outbox<P::Msg> {
        let mut out = std::mem::take(&mut self.scratch);
        out.reset(self.local_now(pid));
        out
    }

    fn put_outbox(&mut self, out: Outbox<P::Msg>) {
        self.scratch = out;
    }

    fn on_boot(&mut self, pid: ProcessId) {
        let i = pid.as_usize();
        if self.alive.get(i) {
            return; // duplicate boot (e.g. restart of a never-crashed pid)
        }
        if self.procs[i].crash_times.last() == Some(&self.now) {
            // A crash at the same instant wins (crashes are scheduled
            // before boots): "dead forever" processes never run.
            return;
        }
        self.alive.set(i, true);
        if self.decided_at[i].is_none() {
            self.live_undecided += 1;
        }
        let mut out = self.take_outbox(pid);
        if !self.started.get(i) {
            self.started.set(i, true);
            self.procs[i].proc.on_start(&mut out);
        } else {
            self.procs[i].restart_times.push(self.now);
            self.procs[i].proc.on_restart(&mut out);
        }
        self.apply_actions(pid, &mut out);
        self.put_outbox(out);
        // A process restarting after the oracle spoke learns the leader.
        if self.cfg.leader_oracle {
            if let Some(leader) = self.leader.current() {
                self.queue
                    .push(self.now, EventKind::LeaderChange { to: pid, leader });
            }
        }
    }

    fn on_crash(&mut self, pid: ProcessId) {
        let i = pid.as_usize();
        self.procs[i].crash_times.push(self.now);
        if !self.alive.get(i) && !self.started.get(i) {
            // Crash-before-start: mark started-never; nothing else to do.
            return;
        }
        if self.alive.get(i) && self.decided_at[i].is_none() {
            self.live_undecided -= 1;
        }
        self.alive.set(i, false);
        // All pending timers die with the incarnation.
        for slot in &mut self.procs[i].timers {
            slot.epoch += 1;
            slot.armed_at = None;
        }
    }

    fn on_deliver(&mut self, from: ProcessId, to: ProcessId, msg: MsgPayload<P::Msg>) {
        if !self.runnable(to) {
            self.msgs_dropped += 1;
            return;
        }
        let mut out = self.take_outbox(to);
        self.procs[to.as_usize()]
            .proc
            .on_message(from, msg.get(), &mut out);
        drop(msg);
        self.apply_actions(to, &mut out);
        self.put_outbox(out);
    }

    /// Whether `pid` is alive and started — the per-event liveness check,
    /// reading only the SoA bitsets.
    #[inline]
    fn runnable(&self, pid: ProcessId) -> bool {
        let i = pid.as_usize();
        self.alive.get(i) && self.started.get(i)
    }

    fn on_timer_fire(&mut self, pid: ProcessId, timer: TimerId, epoch: u64) {
        let now = self.now;
        let h = &mut self.procs[pid.as_usize()];
        let slot = h.timer_slot(timer);
        slot.next_pending = None;
        if slot.epoch != epoch {
            // Superseded or cancelled. If the timer was re-armed to a later
            // deadline, this (earlier) pop is where the deferred heap event
            // gets scheduled — see `TimerSlot`.
            if let Some(armed) = slot.armed_at {
                debug_assert!(armed >= now, "armed deadlines are never in the past");
                let current_epoch = slot.epoch;
                slot.next_pending = Some(armed);
                self.queue.push(
                    armed,
                    EventKind::TimerFire {
                        pid,
                        timer,
                        epoch: current_epoch,
                    },
                );
            }
            return;
        }
        // Current epoch: this is the armed deadline firing. Consume the
        // arm by bumping the epoch — duplicate heap events for the same
        // epoch can exist (a stale pop re-pushing for a deadline that a
        // `SetTimer` also pushed for), and exactly one of them may fire.
        slot.epoch += 1;
        slot.armed_at = None;
        if !self.runnable(pid) {
            return;
        }
        let mut out = self.take_outbox(pid);
        self.procs[pid.as_usize()].proc.on_timer(timer, &mut out);
        self.apply_actions(pid, &mut out);
        self.put_outbox(out);
    }

    fn on_wab_deliver(&mut self, to: ProcessId, msg: esync_core::wab::WabMessage) {
        if !self.runnable(to) {
            return;
        }
        let mut out = self.take_outbox(to);
        self.procs[to.as_usize()].proc.on_wab_deliver(msg, &mut out);
        self.apply_actions(to, &mut out);
        self.put_outbox(out);
    }

    fn on_leader_announce(&mut self) {
        let alive = (0..self.procs.len())
            .filter(|&i| self.alive.get(i) && self.started.get(i))
            .map(|i| ProcessId::new(i as u32));
        if let Some(leader) = self.leader.announce(alive) {
            for pid in ProcessId::all(self.cfg.timing.n()) {
                if self.alive.get(pid.as_usize()) {
                    self.queue
                        .push(self.now, EventKind::LeaderChange { to: pid, leader });
                }
            }
        }
    }

    fn on_leader_change(&mut self, to: ProcessId, leader: ProcessId) {
        if !self.runnable(to) {
            return;
        }
        let mut out = self.take_outbox(to);
        self.procs[to.as_usize()]
            .proc
            .on_leader_change(leader, &mut out);
        self.apply_actions(to, &mut out);
        self.put_outbox(out);
    }

    fn on_client_submit(&mut self, pid: ProcessId, value: Value) {
        if !self.runnable(pid) {
            return;
        }
        let mut out = self.take_outbox(pid);
        self.procs[pid.as_usize()].proc.on_client(value, &mut out);
        self.apply_actions(pid, &mut out);
        self.put_outbox(out);
    }

    /// Counts one message of `kind`. Linear scan: protocols declare only a
    /// handful of kinds, so this beats a map lookup per message.
    fn count_kind(&mut self, kind: &'static str, by: u64) {
        for (k, v) in &mut self.msgs_by_kind {
            if *k == kind {
                *v += by;
                return;
            }
        }
        self.msgs_by_kind.push((kind, by));
    }

    fn account_send(&mut self, kind: &'static str) {
        self.msgs_sent += 1;
        if self.now >= self.cfg.ts {
            self.msgs_sent_after_ts += 1;
        }
        self.count_kind(kind, 1);
    }

    fn send_one(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
        self.account_send(P::kind_of(&msg));
        match self.network.classify(self.now, from, to, &mut self.rng) {
            Delivery::Drop => self.msgs_dropped += 1,
            Delivery::At(t) => {
                self.queue.push(
                    t,
                    EventKind::Deliver {
                        from,
                        to,
                        msg: MsgPayload::Owned(msg),
                    },
                );
            }
        }
    }

    /// Fans one broadcast payload out to every process.
    ///
    /// Messages that own heap data (detected at compile time via
    /// [`std::mem::needs_drop`], e.g. a phase-1b carrying a `Vec` of votes)
    /// are allocated **once** behind an `Arc` and shared by every
    /// recipient's delivery event — zero deep clones. Flat `Copy`-style
    /// messages are cheaper to memcpy inline than to route through a shared
    /// allocation, so they stay owned. The branch is a monomorphization-time
    /// constant.
    fn broadcast(&mut self, from: ProcessId, msg: P::Msg) {
        let n = self.cfg.timing.n();
        // One accounting update for the whole fan-out instead of n.
        self.msgs_sent += n as u64;
        if self.now >= self.cfg.ts {
            self.msgs_sent_after_ts += n as u64;
        }
        self.count_kind(P::kind_of(&msg), n as u64);
        if std::mem::needs_drop::<P::Msg>() {
            let shared = Arc::new(msg);
            for to in ProcessId::all(n) {
                match self.network.classify(self.now, from, to, &mut self.rng) {
                    Delivery::Drop => self.msgs_dropped += 1,
                    Delivery::At(t) => {
                        self.queue.push(
                            t,
                            EventKind::Deliver {
                                from,
                                to,
                                msg: MsgPayload::Shared(Arc::clone(&shared)),
                            },
                        );
                    }
                }
            }
        } else {
            for to in ProcessId::all(n) {
                match self.network.classify(self.now, from, to, &mut self.rng) {
                    Delivery::Drop => self.msgs_dropped += 1,
                    Delivery::At(t) => {
                        self.queue.push(
                            t,
                            EventKind::Deliver {
                                from,
                                to,
                                msg: MsgPayload::Owned(msg.clone()),
                            },
                        );
                    }
                }
            }
        }
    }

    fn apply_actions(&mut self, pid: ProcessId, out: &mut Outbox<P::Msg>) {
        // Drain the trace side channel first, stamping each event with
        // the simulated instant of the event being applied — same-seed
        // runs therefore produce byte-identical trace files.
        if let Some(tt) = self.typed_trace.as_mut() {
            let at_ns = self.now.as_nanos();
            for ev in out.drain_trace() {
                tt.push(esync_trace::TraceRecord { at_ns, pid, ev });
            }
        }
        let n = self.cfg.timing.n();
        for action in out.drain_iter() {
            match action {
                Action::Send { to, msg } => self.send_one(pid, to, msg),
                Action::Broadcast { msg } => self.broadcast(pid, msg),
                Action::SetTimer { id, after } => {
                    let h = &mut self.procs[pid.as_usize()];
                    let fire_at = h.clock.real_after(self.now, after);
                    let slot = h.timer_slot(id);
                    slot.epoch += 1;
                    slot.armed_at = Some(fire_at);
                    // Lazy re-arm: if a pending heap event already fires at
                    // or before the new deadline, reuse it (its stale pop
                    // re-pushes for the armed deadline) instead of flooding
                    // the queue with one event per re-arm.
                    if slot.next_pending.is_none_or(|p| p > fire_at) {
                        slot.next_pending = Some(fire_at);
                        let epoch = slot.epoch;
                        self.queue.push(
                            fire_at,
                            EventKind::TimerFire {
                                pid,
                                timer: id,
                                epoch,
                            },
                        );
                    }
                }
                Action::CancelTimer { id } => {
                    let slot = self.procs[pid.as_usize()].timer_slot(id);
                    slot.epoch += 1;
                    slot.armed_at = None;
                }
                Action::Decide { value, shard } => {
                    self.commits.push(CommitRecord {
                        at: self.now,
                        pid,
                        shard,
                        value,
                    });
                    let i = pid.as_usize();
                    if self.decided_at[i].is_none() {
                        self.decided_at[i] = Some(self.now);
                        self.procs[i].decided_value = Some(value);
                        if self.alive.get(i) && self.started.get(i) {
                            self.live_undecided -= 1;
                        }
                        // Live bound monitor: each process's *first*
                        // decision is the one the paper's deadline
                        // `TS + ε + 3τ + 5δ` speaks about.
                        if let Some(state) = self.metrics.as_mut() {
                            if let Some(f) =
                                state.watchdogs.on_decision(self.now.as_nanos(), None)
                            {
                                state.firings.push(f);
                            }
                        }
                    }
                }
                Action::WabBroadcast { msg } => {
                    let plan =
                        plan_wab_delivery(self.now, n, &self.network, &self.cfg.pre, &mut self.rng);
                    for (to, when) in plan {
                        match when {
                            Some(t) => {
                                self.queue.push(t, EventKind::WabDeliver { to, msg });
                            }
                            None => self.msgs_dropped += 1,
                        }
                    }
                    self.msgs_sent += n as u64;
                    if self.now >= self.cfg.ts {
                        self.msgs_sent_after_ts += n as u64;
                    }
                    self.count_kind("wab", n as u64);
                }
            }
        }
    }

    /// Snapshot of everything measured so far.
    pub fn report(&self) -> Report {
        Report {
            protocol: self.protocol.name().to_string(),
            n: self.cfg.timing.n(),
            seed: self.cfg.seed,
            ts: self.cfg.ts,
            delta: self.cfg.timing.delta(),
            end_time: self.now,
            decided_at: self.decided_at.clone(),
            decisions: self.procs.iter().map(|h| h.decided_value).collect(),
            alive_at_end: (0..self.procs.len()).map(|i| self.alive.get(i)).collect(),
            started: (0..self.procs.len()).map(|i| self.started.get(i)).collect(),
            crashes: self.procs.iter().map(|h| h.crash_times.clone()).collect(),
            restarts: self.procs.iter().map(|h| h.restart_times.clone()).collect(),
            initial_values: self.initial_values.clone(),
            msgs_sent: self.msgs_sent,
            msgs_sent_after_ts: self.msgs_sent_after_ts,
            msgs_by_kind: self
                .msgs_by_kind
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            msgs_dropped: self.msgs_dropped,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::paxos::session::SessionPaxos;

    fn quick_cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::builder(n)
            .seed(seed)
            .stability_at_millis(200)
            .build()
            .unwrap()
    }

    #[test]
    fn session_paxos_completes_and_agrees() {
        let mut w = World::new(quick_cfg(5, 1), SessionPaxos::new());
        let r = w.run_to_completion().expect("completes");
        assert!(r.agreement());
        assert!(r.validity());
        assert!(r.all_alive_decided());
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = World::new(quick_cfg(5, 42), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        let r2 = World::new(quick_cfg(5, 42), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        assert_eq!(r1.decided_at, r2.decided_at);
        assert_eq!(r1.msgs_sent, r2.msgs_sent);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = World::new(quick_cfg(5, 1), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        let r2 = World::new(quick_cfg(5, 2), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        // Overwhelmingly likely with chaotic pre-TS phases.
        assert_ne!(
            (r1.decided_at.clone(), r1.msgs_sent),
            (r2.decided_at.clone(), r2.msgs_sent)
        );
    }

    #[test]
    fn decisions_respect_paper_bound() {
        for seed in 0..10 {
            let cfg = quick_cfg(5, seed);
            let bound = cfg.timing.decision_bound() + cfg.timing.epsilon();
            let mut w = World::new(cfg, SessionPaxos::new());
            let r = w.run_to_completion().unwrap();
            let worst = r.max_decision_after_ts().expect("someone decided");
            assert!(
                worst <= bound,
                "seed {seed}: {:.2}δ exceeds the bound {:.2}δ",
                r.max_decision_after_ts_in_delta().unwrap(),
                bound.as_nanos() as f64 / r.delta.as_nanos() as f64
            );
        }
    }

    #[test]
    fn crash_before_start_keeps_process_down() {
        let cfg = SimConfig::builder(5)
            .seed(3)
            .stability_at_millis(200)
            .scenario(Scenario::none().dead_forever(ProcessId::new(4)))
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(!r.started[4], "p4 never ran");
        assert!(r.decisions[4].is_none());
        assert!(r.agreement());
        assert!((0..4).all(|i| r.decisions[i].is_some()));
    }

    #[test]
    fn crash_and_restart_cycle() {
        let cfg = SimConfig::builder(3)
            .seed(4)
            .stability_at_millis(200)
            .scenario(Scenario::none().down_between(
                ProcessId::new(2),
                SimTime::from_millis(50),
                SimTime::from_millis(400),
            ))
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert_eq!(r.restarts[2].len(), 1);
        assert!(r.decisions[2].is_some(), "restarted process decides");
        assert!(r.agreement());
    }

    #[test]
    fn scenario_validation_rejects_post_ts_crash() {
        let err = SimConfig::builder(3)
            .stability_at_millis(100)
            .scenario(Scenario::none().crash(ProcessId::new(0), SimTime::from_millis(150)))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::CrashAfterStability { .. }));
    }

    #[test]
    fn scenario_validation_rejects_unknown_pid() {
        let err = SimConfig::builder(3)
            .scenario(Scenario::none().crash(ProcessId::new(7), SimTime::ZERO))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::NoSuchProcess { .. }));
    }

    #[test]
    fn max_time_trips_timeout() {
        // Isolate a majority before TS and set max_time below TS: cannot
        // finish.
        let cfg = SimConfig::builder(3)
            .seed(5)
            .stability_at_millis(500)
            .pre_stability(PreStability::silent())
            .max_time(SimTime::from_millis(100))
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        assert!(matches!(
            w.run_to_completion(),
            Err(SimError::Timeout { .. })
        ));
    }

    #[test]
    fn run_until_advances_clock() {
        let mut w = World::new(quick_cfg(3, 6), SessionPaxos::new());
        w.run_until(SimTime::from_millis(50));
        assert_eq!(w.now(), SimTime::from_millis(50));
    }

    #[test]
    fn report_counts_messages() {
        let mut w = World::new(quick_cfg(3, 7), SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(r.msgs_sent > 0);
        assert!(r.msgs_by_kind.contains_key("1a"));
        assert!(r.msgs_by_kind.contains_key("2b"));
        let sum: u64 = r.msgs_by_kind.values().sum();
        assert_eq!(sum, r.msgs_sent);
    }

    #[test]
    fn leader_oracle_skips_dead_lowest_process() {
        use esync_core::paxos::traditional::TraditionalPaxos;
        let cfg = SimConfig::builder(3)
            .seed(9)
            .stability_at_millis(100)
            .pre_stability(PreStability::lossless())
            .scenario(Scenario::none().dead_forever(ProcessId::new(0)))
            .leader_oracle(true)
            .build()
            .unwrap();
        let mut w = World::new(cfg, TraditionalPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(r.agreement());
        assert!(r.decisions[1].is_some() && r.decisions[2].is_some());
        assert!(r.decisions[0].is_none(), "p0 never ran");
    }

    #[test]
    fn wab_oracle_drives_original_bconsensus() {
        use esync_core::bconsensus::BConsensus;
        let cfg = SimConfig::builder(3)
            .seed(10)
            .stability_at_millis(150)
            .build()
            .unwrap();
        let mut w = World::new(cfg, BConsensus::original());
        let r = w.run_to_completion().unwrap();
        assert!(r.agreement() && r.validity());
        assert!(
            r.msgs_by_kind.contains_key("wab"),
            "w-broadcasts are counted: {:?}",
            r.msgs_by_kind
        );
    }

    #[test]
    fn submit_to_down_process_is_ignored() {
        use esync_core::paxos::group::{LogGroup, ShardId};
        let cfg = SimConfig::builder(3)
            .seed(11)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .scenario(
                Scenario::none()
                    .dead_forever(ProcessId::new(2))
                    // Submitted to the dead process: silently lost (the
                    // client's problem, as in any real system).
                    .submit(ProcessId::new(2), SimTime::from_millis(500), Value::new(9))
                    // Submitted to a live one: committed.
                    .submit(ProcessId::new(0), SimTime::from_millis(500), Value::new(8)),
            )
            .build()
            .unwrap();
        let mut w = World::new(cfg, LogGroup::new(1));
        w.run_until(SimTime::from_secs(2));
        let committed: Vec<u64> = w
            .process(ProcessId::new(0))
            .shard(ShardId::ZERO)
            .log_values()
            .map(|v| v.get())
            .collect();
        assert!(committed.contains(&8));
        assert!(!committed.contains(&9));
        // The commit feed saw value 8 at every live process.
        assert!(w.commits().iter().any(|c| c.value.get() == 8));
        assert!(!w.commits().iter().any(|c| c.value.get() == 9));
    }

    #[test]
    fn submit_streams_drive_the_log() {
        use crate::scenario::{SubmitStream, kv_id};
        use esync_core::paxos::group::{LogGroup, ShardId};
        use esync_core::time::RealDuration;
        let stream = SubmitStream::fixed_rate(
            SimTime::from_millis(500),
            RealDuration::from_millis(10),
            6,
        )
        .keyed(8)
        .seed(3);
        let cfg = SimConfig::builder(3)
            .seed(12)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .scenario(Scenario::none().stream(stream))
            .build()
            .unwrap();
        let mut w = World::new(cfg, LogGroup::new(1));
        w.run_until(SimTime::from_secs(2));
        for pid in ProcessId::all(3) {
            let log = w.process(pid).shard(ShardId::ZERO);
            let ids: std::collections::BTreeSet<u64> = log.log_values().map(kv_id).collect();
            assert_eq!(ids, (0..6).collect(), "{pid}: stream commands missing");
        }
    }

    /// The allocation-reusing `World::reset` must be indistinguishable
    /// from fresh construction — same events, same report, bit for bit —
    /// including across a change of `n` and scenario shape.
    #[test]
    fn reset_is_bit_identical_to_fresh_construction() {
        let mut reused = World::new(quick_cfg(5, 1), SessionPaxos::new());
        reused.run_to_completion().unwrap();
        for (n, seed) in [(5, 2u64), (3, 7), (5, 42), (9, 3)] {
            let fresh_report = World::new(quick_cfg(n, seed), SessionPaxos::new())
                .run_to_completion()
                .unwrap();
            reused.reset(quick_cfg(n, seed));
            let reused_report = reused.run_to_completion().unwrap();
            assert_eq!(fresh_report, reused_report, "n={n} seed={seed}");
        }
        // Scenario events reschedule on reset too.
        let cfg = || {
            SimConfig::builder(3)
                .seed(4)
                .stability_at_millis(200)
                .scenario(Scenario::none().down_between(
                    ProcessId::new(2),
                    SimTime::from_millis(50),
                    SimTime::from_millis(400),
                ))
                .build()
                .unwrap()
        };
        let fresh = World::new(cfg(), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        reused.reset(cfg());
        assert_eq!(fresh, reused.run_to_completion().unwrap());
    }

    #[test]
    fn metered_run_is_bit_identical_and_samples_on_cadence() {
        let run = |metered: bool| {
            let mut w = World::new(quick_cfg(5, 21), SessionPaxos::new());
            if metered {
                w.enable_metrics(
                    RealDuration::from_millis(50),
                    esync_metrics::WatchdogConfig::default(),
                );
            }
            let r = w.run_to_completion().unwrap();
            (
                r,
                w.metric_snapshots().to_vec(),
                w.watchdog_firings().to_vec(),
            )
        };
        let (plain, no_snaps, _) = run(false);
        let (metered, snaps, firings) = run(true);
        assert_eq!(plain, metered, "metering must not perturb the run");
        assert!(no_snaps.is_empty());
        // TS is 200ms and the run decides after it, so at least four
        // 50ms boundaries pass; the series is stamped on-cadence and
        // its counters are monotone.
        assert!(snaps.len() >= 4, "{} snapshots", snaps.len());
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.at_ns, (i as u64 + 1) * 50_000_000);
            assert_eq!(s.node, None);
        }
        for w in snaps.windows(2) {
            assert!(w[0].counters.iter().zip(w[1].counters.iter()).all(|(a, b)| a <= b));
        }
        let last = snaps.last().unwrap();
        assert!(last.counter(esync_core::metrics::Metric::OneASent) > 0);
        // A quiet, healthy single-shot run trips no watchdog.
        assert_eq!(firings, &[]);
        // Metering survives reset and the series restarts from scratch.
        let mut w = World::new(quick_cfg(5, 21), SessionPaxos::new());
        w.enable_metrics(
            RealDuration::from_millis(50),
            esync_metrics::WatchdogConfig::default(),
        );
        w.run_to_completion().unwrap();
        w.reset(quick_cfg(5, 21));
        w.run_to_completion().unwrap();
        assert_eq!(w.metric_snapshots(), &snaps[..], "reset rebases the series");
    }

    #[test]
    fn bound_watchdog_fires_on_injected_tight_deadline() {
        let cfg = quick_cfg(5, 1);
        let mut w = World::new(cfg, SessionPaxos::new());
        w.enable_metrics(
            RealDuration::from_millis(50),
            esync_metrics::WatchdogConfig {
                // An absurdly tight injected deadline: 1ns after TS=0.
                bound: Some(esync_metrics::BoundSpec { ts_ns: 0, bound_ns: 1 }),
                ..Default::default()
            },
        );
        w.run_to_completion().unwrap();
        let fired = w
            .watchdog_firings()
            .iter()
            .filter(|f| f.kind == esync_metrics::WatchdogKind::Bound)
            .count();
        assert_eq!(fired, 5, "every first decision is past the injected deadline");
    }

    #[test]
    fn silent_pre_ts_still_decides_after_ts() {
        let cfg = SimConfig::builder(5)
            .seed(8)
            .stability_at_millis(400)
            .pre_stability(PreStability::silent())
            .build()
            .unwrap();
        let bound = cfg.timing.decision_bound() + cfg.timing.epsilon();
        let mut w = World::new(cfg, SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(r.agreement());
        let worst = r.max_decision_after_ts().unwrap();
        assert!(worst <= bound, "worst {worst} > bound {bound}");
    }

    /// Regression: the lazy-rearm machinery must fire each timer arm at
    /// most once. The trap: arm at +10ms, re-arm *earlier* at +5ms (two
    /// heap events now pending), then re-arm at +20ms from inside the
    /// first fire — the stale +10ms pop re-pushes for the +20ms deadline
    /// that the re-arm also pushed for, creating duplicate same-epoch
    /// events. Exactly one of them may fire.
    #[test]
    fn rearmed_timer_fires_once_per_arm() {
        use esync_core::outbox::{Outbox, Process, Protocol};
        use esync_core::time::LocalDuration;

        #[derive(Debug)]
        struct TimerScript {
            id: ProcessId,
            fires: u32,
            decided: Option<Value>,
        }
        impl Process for TimerScript {
            type Msg = ();
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_start(&mut self, out: &mut Outbox<()>) {
                let t = esync_core::types::TimerId::new(0);
                out.set_timer(t, LocalDuration::from_millis(10));
                out.set_timer(t, LocalDuration::from_millis(5)); // earlier re-arm
            }
            fn on_message(&mut self, _f: ProcessId, _m: &(), _o: &mut Outbox<()>) {}
            fn on_timer(&mut self, timer: esync_core::types::TimerId, out: &mut Outbox<()>) {
                self.fires += 1;
                if self.fires == 1 {
                    out.set_timer(timer, LocalDuration::from_millis(20));
                }
                // No re-arm after the second fire: any further fire is a
                // duplicate of an already-consumed arm.
            }
            fn on_restart(&mut self, _o: &mut Outbox<()>) {}
            fn decision(&self) -> Option<Value> {
                self.decided
            }
        }
        #[derive(Debug)]
        struct TimerScriptProto;
        impl Protocol for TimerScriptProto {
            type Msg = ();
            type Process = TimerScript;
            fn name(&self) -> &'static str {
                "timer-script"
            }
            fn spawn(&self, id: ProcessId, _cfg: &TimingConfig, _v: Value) -> TimerScript {
                TimerScript {
                    id,
                    fires: 0,
                    decided: None,
                }
            }
        }

        let cfg = SimConfig::builder(1)
            .seed(0)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap();
        let mut w = World::new(cfg, TimerScriptProto);
        // Drive past every pending (including duplicate) timer event.
        w.run_until(SimTime::from_millis(200));
        assert_eq!(w.process(ProcessId::new(0)).fires, 2, "one fire per arm");
    }
}
