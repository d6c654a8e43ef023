//! The benchmark-side timing wrapper around a protocol's processes.
//!
//! [`Timed`] wraps any [`Protocol`]; every process it spawns is a
//! [`TimedProcess`] that delegates each trait method to the real process
//! and, around each handler, reads the wall clock and counts how many
//! actions the handler appended to the outbox. The wrapper never touches
//! the outbox or the messages, so a wrapped run makes exactly the same
//! events, messages and commits as an unwrapped one
//! (`tests/transparency.rs`).

use esync_core::config::TimingConfig;
use esync_core::outbox::{Outbox, Process, Protocol, ShardLoad};
use esync_core::paxos::group::ShardedLogView;
use esync_core::paxos::multi::Batch;
use esync_core::paxos::slotlog::SlotMap;
use esync_core::types::{ProcessId, ShardId, TimerId, Value};
use esync_core::wab::WabMessage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The handler families the per-layer table splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handler {
    /// `on_message`.
    Message = 0,
    /// `on_timer`.
    Timer = 1,
    /// `on_client`.
    Client = 2,
    /// `on_start`, `on_restart`, `on_leader_change`, `on_wab_deliver`.
    Other = 3,
}

const HANDLERS: usize = 4;

/// Per-handler totals of one process, published for readers on other
/// threads. Relaxed atomics: each counter is a statistic with a single
/// writer (the thread running the process), which stores its running
/// total; readers look after that thread has been joined (runtime) or on
/// the same thread (simulator).
#[derive(Debug, Default)]
pub struct HandlerStats {
    calls: [AtomicU64; HANDLERS],
    ns: [AtomicU64; HANDLERS],
    actions: [AtomicU64; HANDLERS],
}

/// A plain copy of [`HandlerStats`], summed over processes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HandlerTotals {
    /// Handler calls, by [`Handler`].
    pub calls: [u64; HANDLERS],
    /// Wall nanoseconds inside handlers, by [`Handler`] (raw: includes
    /// one clock read per call).
    pub ns: [u64; HANDLERS],
    /// Actions appended to the outbox, by [`Handler`].
    pub actions: [u64; HANDLERS],
}

impl HandlerTotals {
    /// Calls of every handler.
    pub fn all_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Nanoseconds in every handler.
    pub fn all_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Actions from every handler.
    pub fn all_actions(&self) -> u64 {
        self.actions.iter().sum()
    }

    /// Mean time per call of handler `h`, less one clock read of
    /// `clock_ns` per call (zero when it was never called).
    pub fn ns_per_call(&self, h: Handler, clock_ns: f64) -> f64 {
        let (calls, ns) = (self.calls[h as usize] as f64, self.ns[h as usize] as f64);
        if calls == 0.0 {
            0.0
        } else {
            ns / calls - clock_ns
        }
    }

    /// `self` less an earlier reading `before` of the same counters.
    pub fn minus(&self, before: &HandlerTotals) -> HandlerTotals {
        let sub = |a: &[u64; HANDLERS], b: &[u64; HANDLERS]| std::array::from_fn(|h| a[h] - b[h]);
        HandlerTotals {
            calls: sub(&self.calls, &before.calls),
            ns: sub(&self.ns, &before.ns),
            actions: sub(&self.actions, &before.actions),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &HandlerTotals) {
        for h in 0..HANDLERS {
            self.calls[h] += other.calls[h];
            self.ns[h] += other.ns[h];
            self.actions[h] += other.actions[h];
        }
    }
}

impl HandlerStats {
    fn publish(&self, h: usize, local: &HandlerTotals) {
        self.calls[h].store(local.calls[h], Ordering::Relaxed);
        self.ns[h].store(local.ns[h], Ordering::Relaxed);
        self.actions[h].store(local.actions[h], Ordering::Relaxed);
    }

    /// A copy of the counters.
    pub fn totals(&self) -> HandlerTotals {
        let load = |a: &[AtomicU64; HANDLERS]| a.each_ref().map(|x| x.load(Ordering::Relaxed));
        HandlerTotals {
            calls: load(&self.calls),
            ns: load(&self.ns),
            actions: load(&self.actions),
        }
    }
}

/// Every spawned process's id and stats, in spawn order.
type Registry = Arc<Mutex<Vec<(ProcessId, Arc<HandlerStats>)>>>;

/// A protocol whose processes time their handlers.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    spawned: Registry,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            spawned: Arc::default(),
        }
    }

    /// A handle on the per-process stats, readable after the protocol has
    /// been moved into a world or a cluster.
    pub fn stats(&self) -> StatsHandle {
        StatsHandle(Arc::clone(&self.spawned))
    }
}

/// Read access to the stats of a [`Timed`] protocol's processes.
#[derive(Debug, Clone)]
pub struct StatsHandle(Registry);

impl StatsHandle {
    /// Totals over every process spawned so far.
    pub fn totals(&self) -> HandlerTotals {
        let mut sum = HandlerTotals::default();
        for (_, s) in self.0.lock().expect("stats registry poisoned").iter() {
            sum.add(&s.totals());
        }
        sum
    }

    /// Totals of the processes with id `pid`.
    pub fn totals_of(&self, pid: ProcessId) -> HandlerTotals {
        let mut sum = HandlerTotals::default();
        for (p, s) in self.0.lock().expect("stats registry poisoned").iter() {
            if *p == pid {
                sum.add(&s.totals());
            }
        }
        sum
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Process = TimedProcess<P::Process>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind_of(msg: &Self::Msg) -> &'static str {
        P::kind_of(msg)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, initial: Value) -> Self::Process {
        let stats = Arc::new(HandlerStats::default());
        self.spawned
            .lock()
            .expect("stats registry poisoned")
            .push((id, Arc::clone(&stats)));
        TimedProcess {
            inner: self.inner.spawn(id, cfg, initial),
            local: HandlerTotals::default(),
            stats,
        }
    }
}

/// A process that times its handlers; see [`Timed`].
#[derive(Debug)]
pub struct TimedProcess<Proc> {
    inner: Proc,
    /// The running totals; plain integers, since handlers own `&mut self`.
    local: HandlerTotals,
    stats: Arc<HandlerStats>,
}

impl<Proc: Process> TimedProcess<Proc> {
    #[inline]
    fn timed(
        &mut self,
        h: Handler,
        out: &mut Outbox<Proc::Msg>,
        f: impl FnOnce(&mut Proc, &mut Outbox<Proc::Msg>),
    ) {
        let before = out.actions().len();
        let t0 = Instant::now();
        f(&mut self.inner, out);
        let ns = t0.elapsed().as_nanos() as u64;
        let h = h as usize;
        self.local.calls[h] += 1;
        self.local.ns[h] += ns;
        self.local.actions[h] += out.actions().len().saturating_sub(before) as u64;
        self.stats.publish(h, &self.local);
    }
}

impl<Proc: Process> Process for TimedProcess<Proc> {
    type Msg = Proc::Msg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, out: &mut Outbox<Self::Msg>) {
        self.timed(Handler::Other, out, |p, out| p.on_start(out));
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, out: &mut Outbox<Self::Msg>) {
        self.timed(Handler::Message, out, |p, out| p.on_message(from, msg, out));
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<Self::Msg>) {
        self.timed(Handler::Timer, out, |p, out| p.on_timer(timer, out));
    }

    fn on_restart(&mut self, out: &mut Outbox<Self::Msg>) {
        self.timed(Handler::Other, out, |p, out| p.on_restart(out));
    }

    fn on_leader_change(&mut self, leader: ProcessId, out: &mut Outbox<Self::Msg>) {
        self.timed(Handler::Other, out, |p, out| {
            p.on_leader_change(leader, out)
        });
    }

    fn on_wab_deliver(&mut self, msg: WabMessage, out: &mut Outbox<Self::Msg>) {
        self.timed(Handler::Other, out, |p, out| p.on_wab_deliver(msg, out));
    }

    fn on_client(&mut self, value: Value, out: &mut Outbox<Self::Msg>) {
        self.timed(Handler::Client, out, |p, out| p.on_client(value, out));
    }

    fn decision(&self) -> Option<Value> {
        self.inner.decision()
    }

    fn is_leader(&self) -> bool {
        self.inner.is_leader()
    }

    fn router_epoch(&self) -> u64 {
        self.inner.router_epoch()
    }

    fn shard_load(&self, shard: ShardId) -> ShardLoad {
        self.inner.shard_load(shard)
    }
}

impl<Proc: ShardedLogView> ShardedLogView for TimedProcess<Proc> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_log(&self, shard: ShardId) -> &SlotMap<Batch> {
        self.inner.shard_log(shard)
    }
}
