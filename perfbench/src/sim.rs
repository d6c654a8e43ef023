//! The three simulator workloads and the benchmark's own drive loops.
//!
//! The benchmark steps [`World::step`] itself, so the untraced and the
//! traced runs share one loop: the [`Clock`] type parameter is either
//! [`Untimed`] (every lap reads zero and compiles away) or [`Wall`]
//! (contiguous laps split the loop into engine steps, collector calls
//! and command generation).

use crate::layer::{HandlerTotals, StatsHandle, Timed};
use crate::stats::{mix, sub_seed};
use esync_core::metrics::Metric;
use esync_core::outbox::{Process, Protocol, ShardLoad};
use esync_core::paxos::group::{LogGroup, ShardedLogView};
use esync_core::paxos::session::SessionPaxos;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, ShardId, Value};
use esync_metrics::{BoundSpec, MetricsSnapshot, WatchdogConfig, WatchdogFiring};
use esync_sim::metrics::WorkloadSummary;
use esync_sim::scenario::{kv_id, SubmitStream};
use esync_sim::{PreStability, Report, Scenario, SimConfig, SimTime, World};
use esync_trace::TraceRecord;
use esync_workload::{ClosedLoopSpec, Collector, CommandGen};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// `decide`: processes per single-shot run.
pub const DECIDE_N: usize = 17;
/// `decide`: the stabilization instant.
pub const DECIDE_TS_MS: u64 = 100;
/// `log_*`: processes.
pub const LOG_N: usize = 5;
/// `log_*`: log-group shards.
pub const LOG_SHARDS: usize = 4;
/// `log_closed`: clients × outstanding commands.
pub const CLOSED_CLIENTS: usize = 5;
/// `log_closed`: commands each client keeps in flight.
pub const CLOSED_OUTSTANDING: usize = 4;
/// `log_closed`: commands per drive.
pub const CLOSED_COMMANDS: u64 = 100;
/// `log_*`: keys are uniform over this space.
pub const KEY_SPACE: u64 = 1024;
/// `log_chaos`: the stabilization instant.
pub const CHAOS_TS_MS: u64 = 300;
/// `log_chaos`: first arrival.
pub const CHAOS_START_MS: u64 = 50;
/// `log_chaos`: mean Poisson inter-arrival gap (about 1000 commands/s).
pub const CHAOS_MEAN_GAP_US: u64 = 1000;
/// `log_chaos`: commands per drive (arrivals span ~50–450 ms, across TS).
pub const CHAOS_COMMANDS: u64 = 400;
/// `log_chaos`: batching (max batch, max outstanding batches).
pub const CHAOS_BATCHING: (usize, usize) = (16, 8);
/// Metering cadence of the metered (health) drives.
pub const METER_INTERVAL_MS: u64 = 50;

/// A wall clock for the drive loops' laps.
pub trait Clock {
    /// Nanoseconds since an arbitrary origin; [`Untimed`] reads zero.
    fn now(&self) -> u64;

    /// Called once as the lapped loop starts, so that handler calls made
    /// before it (construction, warm-up) can be told apart.
    fn loop_started(&self) {}
}

/// The untraced clock: every read is zero, so laps cost nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untimed;

impl Clock for Untimed {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
}

/// The traced clock. It also notes the wrapped protocol's handler
/// totals as the lapped loop starts, so that only handler calls inside
/// lapped steps are attributed to them.
#[derive(Debug)]
pub struct Wall {
    origin: Instant,
    stats: StatsHandle,
    at_loop_start: Cell<HandlerTotals>,
}

impl Wall {
    /// A clock for a drive of the protocol behind `stats`.
    pub fn new(stats: StatsHandle) -> Self {
        Wall {
            origin: Instant::now(),
            stats,
            at_loop_start: Cell::default(),
        }
    }

    /// Handler totals since the lapped loop started.
    pub fn loop_handlers(&self) -> HandlerTotals {
        self.stats.totals().minus(&self.at_loop_start.get())
    }
}

impl Clock for Wall {
    #[inline(always)]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn loop_started(&self) {
        self.at_loop_start.set(self.stats.totals());
    }
}

/// Where a traced drive spent its wall time. The loop's laps are
/// contiguous, so `step_ns + collect_ns + gen_ns + drive_ns + summary_ns`
/// is exactly `loop_ns`; the open loop's set-up work is timed apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spans {
    /// `World::step` calls (engine plus handlers).
    pub step_ns: u64,
    /// `Collector::on_submit` / `on_commit` calls.
    pub collect_ns: u64,
    /// `CommandGen::next_command` calls (closed loop).
    pub gen_ns: u64,
    /// The rest of the loop: submissions and the benchmark's bookkeeping.
    pub drive_ns: u64,
    /// The whole loop, from its first lap to its last.
    pub loop_ns: u64,
    /// `Collector::summary`.
    pub summary_ns: u64,
    /// Laps taken (each costs one clock read).
    pub laps: u64,
    /// Collector calls.
    pub collect_calls: u64,
    /// Commands generated.
    pub gen_cmds: u64,
    /// Stream expansion during set-up (open loop only).
    pub expand_ns: u64,
    /// Registering the expanded submissions with the collector during
    /// set-up (open loop only).
    pub register_ns: u64,
    /// Submissions registered during set-up.
    pub register_calls: u64,
}

impl Spans {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Spans) {
        self.step_ns += o.step_ns;
        self.collect_ns += o.collect_ns;
        self.gen_ns += o.gen_ns;
        self.drive_ns += o.drive_ns;
        self.loop_ns += o.loop_ns;
        self.summary_ns += o.summary_ns;
        self.laps += o.laps;
        self.collect_calls += o.collect_calls;
        self.gen_cmds += o.gen_cmds;
        self.expand_ns += o.expand_ns;
        self.register_ns += o.register_ns;
        self.register_calls += o.register_calls;
    }
}

/// Contiguous lap timer over a [`Clock`].
struct Laps<'c, C: Clock> {
    clock: &'c C,
    last: u64,
    first: u64,
    laps: u64,
}

impl<'c, C: Clock> Laps<'c, C> {
    fn start(clock: &'c C) -> Self {
        clock.loop_started();
        let t = clock.now();
        Laps {
            clock,
            last: t,
            first: t,
            laps: 0,
        }
    }

    /// Nanoseconds since the previous lap.
    #[inline(always)]
    fn lap(&mut self) -> u64 {
        let t = self.clock.now();
        let d = t - self.last;
        self.last = t;
        self.laps += 1;
        d
    }

    fn total(&self) -> u64 {
        self.last - self.first
    }
}

/// The optional observability seams a drive enables on its world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Seams {
    /// `World::enable_metrics` at [`METER_INTERVAL_MS`] with watchdogs.
    pub metrics: bool,
    /// `World::enable_typed_trace` with this ring capacity.
    pub typed_trace: Option<usize>,
}

/// The metric snapshots and watchdog firings of a metered drive.
pub type Health = (Vec<MetricsSnapshot>, Vec<WatchdogFiring>);

/// One simulated run ("drive") of a workload, with everything the
/// metrics and checks need.
#[derive(Debug, Clone)]
pub struct DriveOut {
    /// The simulator report.
    pub report: Report,
    /// The workload layer's summary (`log_*` only).
    pub summary: Option<WorkloadSummary>,
    /// Operations: commands (`log_*`) or the one decision (`decide`).
    pub ops: u64,
    /// Operations whose checks failed.
    pub failed: u64,
    /// Operations applied at every process.
    pub applied_everywhere: u64,
    /// Per-run worst first-decision instant after effective stability, in δ.
    pub worst_decide_delta: f64,
    /// Simulated latencies in ns: post-TS submit → first commit
    /// (`log_*`), or each process's decision after effective stability
    /// (`decide`).
    pub commit_lat_ns: Vec<u64>,
    /// Committed operations and the simulated span they took, in ns.
    pub simtime: (u64, u64),
    /// Wall time of construction and warm-up.
    pub setup_ns: u64,
    /// Wall time of the whole drive (set-up, loop, summary).
    pub wall_ns: u64,
    /// Traced split of the loop (zeros when untimed).
    pub spans: Spans,
    /// Per-shard load counters summed over processes.
    pub shard_loads: Vec<ShardLoad>,
    /// Metric snapshots and watchdog firings of a metered drive.
    pub health: Option<Health>,
    /// Typed trace records of a traced drive.
    pub records: Vec<TraceRecord>,
}

impl Seams {
    /// Metering only.
    pub const METERED: Seams = Seams {
        metrics: true,
        typed_trace: None,
    };

    /// Typed tracing only, into a ring of `cap` records.
    pub fn typed(cap: usize) -> Seams {
        Seams {
            metrics: false,
            typed_trace: Some(cap),
        }
    }
}

impl DriveOut {
    /// The fields a seam or the timing wrapper must leave unchanged.
    pub fn fingerprint(&self) -> (u64, u64, BTreeMap<String, u64>, Option<WorkloadSummary>) {
        let summary = self.summary.clone().map(|mut s| {
            s.phase_latency = None;
            s.health = None;
            s
        });
        (
            self.report.events,
            self.report.msgs_sent,
            self.report.msgs_by_kind.clone(),
            summary,
        )
    }

    /// The last metered value of `m` (zero when unmetered).
    pub fn counter(&self, m: Metric) -> u64 {
        self.health
            .as_ref()
            .and_then(|(snaps, _)| snaps.last())
            .map_or(0, |s| s.counter(m))
    }
}

/// The three simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// `SessionPaxos` single-shot runs at n=17, lossless before TS.
    Decide,
    /// Closed-loop `LogGroup::new(4)` at n=5, stable from t=0.
    LogClosed,
    /// Open-loop batched `LogGroup` at n=5 under pre-TS chaos.
    LogChaos,
}

impl SimWorkload {
    /// Every workload, by command-line name.
    pub const ALL: [(&'static str, SimWorkload); 3] = [
        ("decide", SimWorkload::Decide),
        ("log_closed", SimWorkload::LogClosed),
        ("log_chaos", SimWorkload::LogChaos),
    ];

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<SimWorkload> {
        SimWorkload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
    }

    /// The seed of drive `index` in a run seeded with `base`.
    pub fn drive_seed(base: u64, index: u64) -> u64 {
        sub_seed(base, index)
    }

    /// The simulator configuration of a drive.
    pub fn config(self, seed: u64) -> SimConfig {
        let b = SimConfig::builder(match self {
            SimWorkload::Decide => DECIDE_N,
            _ => LOG_N,
        })
        .seed(seed);
        let mut cfg = match self {
            SimWorkload::Decide => b
                .stability_at_millis(DECIDE_TS_MS)
                .pre_stability(PreStability::lossless()),
            SimWorkload::LogClosed => b
                .stability_at_millis(0)
                .pre_stability(PreStability::lossless()),
            SimWorkload::LogChaos => b
                .stability_at_millis(CHAOS_TS_MS)
                .pre_stability(PreStability::chaos()),
        }
        .build()
        .expect("valid benchmark configuration");
        if self == SimWorkload::LogChaos {
            let stream = SubmitStream::poisson(
                SimTime::from_millis(CHAOS_START_MS),
                RealDuration::from_micros(CHAOS_MEAN_GAP_US),
                CHAOS_COMMANDS,
            )
            .keyed(KEY_SPACE)
            .seed(mix(seed ^ 0x5EED));
            cfg.scenario = Scenario::none().stream(stream);
        }
        cfg
    }

    /// The instant after which every message meets the δ bound: `TS`,
    /// or zero when the network is lossless and δ-bounded from the start.
    pub fn effective_ts(cfg: &SimConfig) -> SimTime {
        if cfg.pre == PreStability::lossless() {
            SimTime::ZERO
        } else {
            cfg.ts
        }
    }

    /// The closed-loop client spec of a `log_closed` drive.
    pub fn closed_spec(seed: u64) -> ClosedLoopSpec {
        ClosedLoopSpec::new(CLOSED_CLIENTS, CLOSED_OUTSTANDING, CLOSED_COMMANDS)
            .seed(mix(seed ^ 0xC11E))
            .key_space(KEY_SPACE)
    }
}

/// The `log_closed` protocol.
pub fn closed_protocol() -> LogGroup {
    LogGroup::new(LOG_SHARDS)
}

/// The `log_chaos` protocol.
pub fn chaos_protocol() -> LogGroup {
    LogGroup::new(LOG_SHARDS).with_batching(CHAOS_BATCHING.0, CHAOS_BATCHING.1)
}

/// The `decide` protocol.
pub fn decide_protocol() -> SessionPaxos {
    SessionPaxos::new()
}

fn watchdogs(cfg: &SimConfig, bound: bool) -> WatchdogConfig {
    WatchdogConfig {
        bound: bound.then(|| BoundSpec {
            ts_ns: cfg.ts.as_nanos(),
            bound_ns: cfg.timing.decision_bound().as_nanos(),
        }),
        ..WatchdogConfig::default()
    }
}

fn prepare<P: Protocol>(world: &mut World<P>, seams: Seams, bound: bool) {
    if seams.metrics {
        let wd = watchdogs(world.config(), bound);
        world.enable_metrics(RealDuration::from_millis(METER_INTERVAL_MS), wd);
    }
    if let Some(cap) = seams.typed_trace {
        world.enable_typed_trace(cap);
    }
}

fn harvest<P: Protocol>(world: &mut World<P>, seams: Seams) -> (Option<Health>, Vec<TraceRecord>) {
    let health = seams.metrics.then(|| world.take_metrics());
    (health, world.take_typed_trace())
}

/// One `decide` run: construct, then step until every process decided.
pub fn drive_decide<P: Protocol, C: Clock>(
    cfg: SimConfig,
    protocol: P,
    clock: &C,
    seams: Seams,
) -> DriveOut {
    let max_time = cfg.max_time;
    let ts = cfg.ts;
    let eff_ts = SimWorkload::effective_ts(&cfg);
    let bound = cfg.timing.decision_bound();
    let t0 = Instant::now();
    let mut world = World::new(cfg, protocol);
    prepare(&mut world, seams, true);
    let t_setup = Instant::now();
    let mut laps = Laps::start(clock);
    let mut spans = Spans::default();
    let mut timed_out = false;
    while !world.complete() {
        if !world.step() || world.now() > max_time {
            timed_out = true;
            break;
        }
        spans.step_ns += laps.lap();
    }
    spans.loop_ns = laps.total();
    spans.laps = laps.laps;
    let t_end = Instant::now();
    let report = world.report();
    let (health, records) = harvest(&mut world, seams);
    let n = report.n;
    let delta = report.delta.as_nanos() as f64;
    let decided: Vec<SimTime> = report.decided_at.iter().flatten().copied().collect();
    let worst = decided.iter().copied().max().unwrap_or(SimTime::ZERO);
    let ok = !timed_out
        && decided.len() == n
        && report.agreement()
        && report.validity()
        && worst.saturating_since(ts) <= bound;
    DriveOut {
        ops: 1,
        failed: u64::from(!ok),
        applied_everywhere: u64::from(decided.len() == n),
        worst_decide_delta: worst.saturating_since(eff_ts).as_nanos() as f64 / delta,
        commit_lat_ns: decided
            .iter()
            .map(|t| t.saturating_since(eff_ts).as_nanos())
            .collect(),
        simtime: (1, worst.as_nanos()),
        setup_ns: (t_setup - t0).as_nanos() as u64,
        wall_ns: (t_end - t0).as_nanos() as u64,
        spans,
        shard_loads: Vec::new(),
        summary: None,
        health,
        records,
        report,
    }
}

/// Per-command bookkeeping of a log drive: submit instants and which
/// processes applied each command. Command ids are dense from zero.
struct Ledger {
    n: usize,
    submit_ns: Vec<Option<u64>>,
    first_commit_ns: Vec<Option<u64>>,
    applied: Vec<u8>,
    applied_count: Vec<u32>,
    fully_applied: u64,
}

impl Ledger {
    fn new(n: usize, commands: u64) -> Self {
        Ledger {
            n,
            submit_ns: vec![None; commands as usize],
            first_commit_ns: vec![None; commands as usize],
            applied: vec![0; commands as usize * n],
            applied_count: vec![0; commands as usize],
            fully_applied: 0,
        }
    }

    fn submit(&mut self, id: u64, at_ns: u64) {
        if let Some(s) = self.submit_ns.get_mut(id as usize) {
            s.get_or_insert(at_ns);
        }
    }

    fn commit(&mut self, pid: ProcessId, id: u64, at_ns: u64) {
        let i = id as usize;
        if i >= self.applied_count.len() {
            return;
        }
        self.first_commit_ns[i].get_or_insert(at_ns);
        let bit = &mut self.applied[i * self.n + pid.as_usize()];
        if *bit == 0 {
            *bit = 1;
            self.applied_count[i] += 1;
            if self.applied_count[i] as usize == self.n {
                self.fully_applied += 1;
            }
        }
    }

    fn done(&self) -> bool {
        self.fully_applied == self.applied_count.len() as u64
    }
}

/// Slot-by-slot agreement of every shard's chosen log across processes.
fn logs_agree<P>(world: &World<P>) -> bool
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let n = world.config().timing.n();
    let shards = world.process(ProcessId::new(0)).shard_count();
    for shard in (0..shards as u32).map(ShardId::new) {
        let mut reference: BTreeMap<u64, &[Value]> = BTreeMap::new();
        for pid in (0..n as u32).map(ProcessId::new) {
            for (slot, batch) in world.process(pid).shard_log(shard).iter() {
                if *reference.entry(slot).or_insert(batch) != &batch[..] {
                    return false;
                }
            }
        }
    }
    true
}

fn shard_loads<P>(world: &World<P>) -> Vec<ShardLoad>
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let n = world.config().timing.n();
    let shards = world.process(ProcessId::new(0)).shard_count();
    (0..shards as u32)
        .map(|s| {
            let mut total = ShardLoad::default();
            for pid in (0..n as u32).map(ProcessId::new) {
                let l = world.process(pid).shard_load(ShardId::new(s));
                total.submitted += l.submitted;
                total.admitted += l.admitted;
            }
            total
        })
        .collect()
}

fn anchored<P: Protocol>(world: &World<P>) -> bool {
    (0..world.config().timing.n() as u32).any(|p| world.process(ProcessId::new(p)).is_leader())
}

/// The horizon a log drive must finish by (simulated).
pub const LOG_HORIZON_S: u64 = 30;

/// The closed loop's clients: the command generator and which client
/// owns each command id.
struct Clients<'s> {
    gen: CommandGen,
    owner: Vec<u32>,
    spec: &'s ClosedLoopSpec,
    n: usize,
}

impl Clients<'_> {
    /// Issues `client`'s next command, if the budget allows.
    fn submit<P: Protocol, C: Clock>(
        &mut self,
        world: &mut World<P>,
        collector: &mut Collector,
        ledger: &mut Ledger,
        laps: &mut Laps<'_, C>,
        spans: &mut Spans,
        client: u32,
    ) {
        if self.gen.issued() >= self.spec.commands {
            return;
        }
        spans.drive_ns += laps.lap();
        let value = self.gen.next_command();
        spans.gen_ns += laps.lap();
        spans.gen_cmds += 1;
        let now = world.now();
        collector.on_submit(value, now.as_nanos());
        spans.collect_ns += laps.lap();
        spans.collect_calls += 1;
        let id = kv_id(value);
        self.owner[id as usize] = client;
        ledger.submit(id, now.as_nanos());
        world.submit(now, self.spec.target_of(client, self.n), value);
    }
}

/// One `log_closed` drive: construct, warm up until a leader is
/// anchored, then run the closed loop until every command is applied at
/// every process.
pub fn drive_closed<P, C>(
    cfg: SimConfig,
    protocol: P,
    spec: &ClosedLoopSpec,
    clock: &C,
    seams: Seams,
) -> DriveOut
where
    P: Protocol,
    P::Process: ShardedLogView,
    C: Clock,
{
    let horizon = SimTime::from_secs(LOG_HORIZON_S);
    let n = cfg.timing.n();
    let ts_ns = cfg.ts.as_nanos();
    let t0 = Instant::now();
    let mut world = World::new(cfg, protocol);
    prepare(&mut world, seams, false);
    while !anchored(&world) && world.now() < horizon && world.step() {}
    let t_setup = Instant::now();

    let mut laps = Laps::start(clock);
    let mut spans = Spans::default();
    let mut collector = Collector::new(Some(ts_ns), spec.timeline_window);
    collector.reserve_shards(world.process(ProcessId::new(0)).shard_count());
    let mut ledger = Ledger::new(n, spec.commands);
    let mut clients = Clients {
        gen: CommandGen::for_spec(spec),
        owner: vec![0; spec.commands as usize],
        spec,
        n,
    };
    for client in 0..spec.clients as u32 {
        for _ in 0..spec.outstanding {
            clients.submit(
                &mut world,
                &mut collector,
                &mut ledger,
                &mut laps,
                &mut spans,
                client,
            );
        }
    }
    spans.drive_ns += laps.lap();
    let mut cursor = world.commits().len();
    while !ledger.done() && world.now() < horizon {
        if !world.step() {
            break;
        }
        spans.step_ns += laps.lap();
        while cursor < world.commits().len() {
            let c = world.commits()[cursor];
            cursor += 1;
            let first = collector.on_commit(c.pid, c.shard, c.value, c.at.as_nanos());
            spans.collect_ns += laps.lap();
            spans.collect_calls += 1;
            ledger.commit(c.pid, kv_id(c.value), c.at.as_nanos());
            if let Some(id) = first {
                let client = clients.owner[id as usize];
                clients.submit(
                    &mut world,
                    &mut collector,
                    &mut ledger,
                    &mut laps,
                    &mut spans,
                    client,
                );
            }
            spans.drive_ns += laps.lap();
        }
    }
    collector.set_shard_loads(&shard_loads(&world));
    spans.drive_ns += laps.lap();
    let summary = collector.summary();
    spans.summary_ns += laps.lap();
    spans.loop_ns = laps.total();
    spans.laps = laps.laps;
    let t_end = Instant::now();
    finish_log(world, ledger, summary, spans, seams, t0, t_setup, t_end)
}

/// One `log_chaos` drive: construct with the Poisson stream (the
/// collector registers every scheduled submission), then step until
/// every command is applied at every process.
pub fn drive_open<P, C>(cfg: SimConfig, protocol: P, clock: &C, seams: Seams) -> DriveOut
where
    P: Protocol,
    P::Process: ShardedLogView,
    C: Clock,
{
    let horizon = SimTime::from_secs(LOG_HORIZON_S);
    let n = cfg.timing.n();
    let ts_ns = cfg.ts.as_nanos();
    let t0 = Instant::now();
    let mut spans = Spans::default();
    let window = cfg.timing.delta() * 5;
    let mut collector = Collector::new(Some(ts_ns), window);
    collector.reserve_shards(protocol.shard_count());
    let g0 = clock.now();
    let schedule: Vec<(SimTime, ProcessId, Value)> = cfg
        .scenario
        .streams
        .iter()
        .flat_map(|s| s.expand(n))
        .collect();
    let g1 = clock.now();
    spans.expand_ns = g1 - g0;
    spans.gen_cmds = schedule.len() as u64;
    let commands = schedule.len() as u64;
    let mut ledger = Ledger::new(n, commands);
    for (at, _, value) in &schedule {
        collector.on_submit(*value, at.as_nanos());
        ledger.submit(kv_id(*value), at.as_nanos());
    }
    spans.register_ns = clock.now() - g1;
    spans.register_calls = commands;
    let mut world = World::new(cfg, protocol);
    prepare(&mut world, seams, false);
    let t_setup = Instant::now();

    let mut laps = Laps::start(clock);
    let mut cursor = 0;
    while !ledger.done() && world.now() < horizon {
        if !world.step() {
            break;
        }
        spans.step_ns += laps.lap();
        while cursor < world.commits().len() {
            let c = world.commits()[cursor];
            cursor += 1;
            collector.on_commit(c.pid, c.shard, c.value, c.at.as_nanos());
            spans.collect_ns += laps.lap();
            spans.collect_calls += 1;
            ledger.commit(c.pid, kv_id(c.value), c.at.as_nanos());
            spans.drive_ns += laps.lap();
        }
    }
    collector.set_shard_loads(&shard_loads(&world));
    spans.drive_ns += laps.lap();
    let summary = collector.summary();
    spans.summary_ns += laps.lap();
    spans.loop_ns = laps.total();
    spans.laps = laps.laps;
    let t_end = Instant::now();
    finish_log(world, ledger, summary, spans, seams, t0, t_setup, t_end)
}

#[allow(clippy::too_many_arguments)]
fn finish_log<P>(
    mut world: World<P>,
    ledger: Ledger,
    summary: WorkloadSummary,
    spans: Spans,
    seams: Seams,
    t0: Instant,
    t_setup: Instant,
    t_end: Instant,
) -> DriveOut
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let report = world.report();
    let cfg = world.config();
    let ts_ns = cfg.ts.as_nanos();
    let eff_ts = SimWorkload::effective_ts(cfg);
    let agree = logs_agree(&world);
    let commands = ledger.submit_ns.len() as u64;
    let uncommitted = ledger
        .first_commit_ns
        .iter()
        .filter(|c| c.is_none())
        .count() as u64;
    let failed = if agree { uncommitted } else { commands };
    let mut commit_lat_ns = Vec::with_capacity(ledger.submit_ns.len());
    for (s, c) in ledger.submit_ns.iter().zip(&ledger.first_commit_ns) {
        if let (Some(s), Some(c)) = (s, c) {
            if *s >= ts_ns {
                commit_lat_ns.push(c - s);
            }
        }
    }
    let first_submit = ledger
        .submit_ns
        .iter()
        .flatten()
        .min()
        .copied()
        .unwrap_or(0);
    let last_commit = ledger
        .first_commit_ns
        .iter()
        .flatten()
        .max()
        .copied()
        .unwrap_or(0);
    let worst = report
        .decided_at
        .iter()
        .map(|d| d.map_or(u64::MAX, |t| t.saturating_since(eff_ts).as_nanos()))
        .max()
        .unwrap_or(0);
    let worst_decide_delta = worst as f64 / report.delta.as_nanos() as f64;
    let shard_loads = shard_loads(&world);
    let (health, records) = harvest(&mut world, seams);
    DriveOut {
        ops: commands,
        failed,
        applied_everywhere: ledger.fully_applied,
        worst_decide_delta,
        commit_lat_ns,
        simtime: (
            commands - uncommitted,
            last_commit.saturating_sub(first_submit),
        ),
        setup_ns: (t_setup - t0).as_nanos() as u64,
        wall_ns: (t_end - t0).as_nanos() as u64,
        spans,
        shard_loads,
        summary: Some(summary),
        health,
        records,
        report,
    }
}

/// Runs drive `seed` of workload `w` untimed, on the protocol as shipped.
pub fn drive_plain(w: SimWorkload, seed: u64, seams: Seams) -> DriveOut {
    let cfg = w.config(seed);
    match w {
        SimWorkload::Decide => drive_decide(cfg, decide_protocol(), &Untimed, seams),
        SimWorkload::LogClosed => drive_closed(
            cfg,
            closed_protocol(),
            &SimWorkload::closed_spec(seed),
            &Untimed,
            seams,
        ),
        SimWorkload::LogChaos => drive_open(cfg, chaos_protocol(), &Untimed, seams),
    }
}

/// Runs drive `seed` of workload `w` traced: laps on the wall clock and
/// every handler timed by the [`Timed`] wrapper. The handler totals
/// returned cover the lapped loop only.
pub fn drive_traced(w: SimWorkload, seed: u64) -> (DriveOut, HandlerTotals) {
    let cfg = w.config(seed);
    let seams = Seams::default();
    let (drive, clock) = match w {
        SimWorkload::Decide => {
            let p = Timed::new(decide_protocol());
            let clock = Wall::new(p.stats());
            (drive_decide(cfg, p, &clock, seams), clock)
        }
        SimWorkload::LogClosed => {
            let p = Timed::new(closed_protocol());
            let clock = Wall::new(p.stats());
            let spec = SimWorkload::closed_spec(seed);
            (drive_closed(cfg, p, &spec, &clock, seams), clock)
        }
        SimWorkload::LogChaos => {
            let p = Timed::new(chaos_protocol());
            let clock = Wall::new(p.stats());
            (drive_open(cfg, p, &clock, seams), clock)
        }
    };
    (drive, clock.loop_handlers())
}
