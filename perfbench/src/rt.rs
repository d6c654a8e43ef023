//! `rt_closed`: the benchmark's own closed-loop driver over the threaded
//! runtime.
//!
//! Once `Cluster::leader_hint` reports an anchored leader, every client
//! keeps a fixed number of commands in flight. A command falls **due**
//! the instant the driver receives the commit that freed its slot (the
//! first commands, the instant the schedule starts), and it is timed from
//! that instant, so time the driver spends before sending it shows up as
//! latency. No delay is injected after stability (the cluster is stable
//! from the start), so latency is processor, queue and channel time only.

use crate::layer::{HandlerTotals, StatsHandle, Timed};
use esync_core::outbox::Protocol;
use esync_core::paxos::group::LogGroup;
use esync_core::types::ProcessId;
use esync_runtime::{Cluster, ClusterConfig};
use esync_sim::metrics::WorkloadSummary;
use esync_sim::scenario::kv_id;
use esync_workload::{Collector, CommandGen};
use std::time::{Duration, Instant};

/// Nodes.
pub const RT_N: usize = 3;
/// Log-group shards.
pub const RT_SHARDS: usize = 2;
/// The protocol-visible δ.
pub const RT_DELTA_MS: u64 = 5;
/// Clients of the closed loop; client `c` submits to node `c % RT_N`.
pub const RT_CLIENTS: usize = 3;
/// Commands each client keeps in flight.
pub const RT_OUTSTANDING: usize = 16;
/// Commands per cluster session.
pub const RT_SESSION_CMDS: u64 = 3000;
/// Keys are uniform over this space.
pub const RT_KEY_SPACE: u64 = 1024;
/// A session fails when no command first commits for this long before
/// every command is applied at every node.
pub const RT_DRAIN: Duration = Duration::from_secs(2);
/// A leader must be anchored this long after spawn.
pub const RT_ANCHOR_DEADLINE: Duration = Duration::from_secs(5);
/// Metering cadence of the metered session.
pub const RT_METER_INTERVAL: Duration = Duration::from_millis(50);

/// One cluster session: spawn, anchor, the closed loop, drain, shutdown.
#[derive(Debug, Clone, Default)]
pub struct SessionOut {
    /// Spawn plus the wait for `leader_hint` (set-up).
    pub setup_ns: u64,
    /// The wait for `leader_hint` alone.
    pub anchor_ns: u64,
    /// Spawn to joined shutdown.
    pub session_ns: u64,
    /// The schedule's start to the last application (or the deadline).
    pub sched_ns: u64,
    /// Commands scheduled.
    pub commands: u64,
    /// Commands committed somewhere.
    pub committed: u64,
    /// Commands applied at every node.
    pub applied_everywhere: u64,
    /// Commands not applied at every node by the deadline.
    pub failed: u64,
    /// Due instant → first commit received by the driver.
    pub due_lat_ns: Vec<u64>,
    /// Actual send → first commit at a node (the program's own view).
    pub send_lat_ns: Vec<u64>,
    /// Due instant → last node's commit received (full replication).
    pub last_apply_ns: Vec<u64>,
    /// Actual send − due instant, per command.
    pub late_ns: Vec<u64>,
    /// Driver receive instant − the node's commit stamp, per commit.
    pub hop_ns: Vec<u64>,
    /// Last node's commit stamp − first node's, per command.
    pub lag_ns: Vec<u64>,
    /// Time inside `Cluster::submit` (traced sessions only).
    pub submit_ns: u64,
    /// The workload layer's summary (send → first commit).
    pub summary: Option<WorkloadSummary>,
    /// Watchdog firings (metered sessions only).
    pub firings: u64,
    /// Handler totals of every node, and of the leader (traced only).
    pub handlers: Option<(HandlerTotals, HandlerTotals)>,
}

/// The `rt_closed` cluster configuration.
pub fn cluster_config(seed: u64, metered: bool) -> ClusterConfig {
    let cfg = ClusterConfig::new(RT_N)
        .delta(Duration::from_millis(RT_DELTA_MS))
        .seed(seed);
    if metered {
        cfg.metrics(RT_METER_INTERVAL)
    } else {
        cfg
    }
}

/// The `rt_closed` protocol.
pub fn protocol() -> LogGroup {
    LogGroup::new(RT_SHARDS)
}

/// Runs one untraced session of `commands` commands.
pub fn session(seed: u64, commands: u64, metered: bool) -> SessionOut {
    run_session(protocol(), None, seed, commands, metered)
}

/// Runs one session with every handler timed and `Cluster::submit` timed.
pub fn session_traced(seed: u64, commands: u64) -> SessionOut {
    let p = Timed::new(protocol());
    let stats = p.stats();
    run_session(p, Some(stats), seed, commands, false)
}

struct Ledger {
    due_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    client: Vec<u32>,
    first_elapsed: Vec<Option<u64>>,
    last_elapsed: Vec<u64>,
    applied: Vec<u8>,
    applied_count: Vec<u32>,
    fully: u64,
}

fn run_session<P>(
    protocol: P,
    stats: Option<StatsHandle>,
    seed: u64,
    commands: u64,
    metered: bool,
) -> SessionOut
where
    P: Protocol,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
{
    let n = RT_N;
    let mut out = SessionOut {
        commands,
        ..SessionOut::default()
    };
    let t_spawn = Instant::now();
    let cluster = Cluster::spawn(cluster_config(seed, metered), protocol)
        .expect("valid cluster configuration");
    // The cluster's own clock origin, so node commit stamps and driver
    // instants share one axis.
    let origin = Instant::now() - cluster.elapsed();
    let t_wait = Instant::now();
    while cluster.leader_hint().is_none() && t_wait.elapsed() < RT_ANCHOR_DEADLINE {
        std::thread::sleep(Duration::from_micros(100));
    }
    let leader = cluster.leader_hint();
    let t_ready = Instant::now();
    out.setup_ns = (t_ready - t_spawn).as_nanos() as u64;
    out.anchor_ns = (t_ready - t_wait).as_nanos() as u64;
    if leader.is_none() {
        out.failed = commands;
        let _ = cluster.shutdown_stats();
        out.session_ns = t_spawn.elapsed().as_nanos() as u64;
        return out;
    }

    let traced = stats.is_some();
    let c = commands as usize;
    let mut ledger = Ledger {
        due_ns: vec![0; c],
        sent_ns: vec![0; c],
        client: vec![0; c],
        first_elapsed: vec![None; c],
        last_elapsed: vec![0; c],
        applied: vec![0; c * n],
        applied_count: vec![0; c],
        fully: 0,
    };
    let mut collector = Collector::new(None, esync_core::time::RealDuration::from_millis(50));
    collector.reserve_shards(RT_SHARDS);
    let mut gen = CommandGen::new(seed, RT_KEY_SPACE);
    let mut submit = |client: u32,
                      due: u64,
                      out: &mut SessionOut,
                      ledger: &mut Ledger,
                      collector: &mut Collector| {
        let i = gen.issued() as usize;
        if i >= c {
            return;
        }
        let value = gen.next_command();
        let sent = origin.elapsed().as_nanos() as u64;
        ledger.due_ns[i] = due;
        ledger.sent_ns[i] = sent;
        ledger.client[i] = client;
        out.late_ns.push(sent.saturating_sub(due));
        collector.on_submit(value, sent);
        let pid = ProcessId::new(client % n as u32);
        if traced {
            let t = Instant::now();
            cluster.submit(pid, value);
            out.submit_ns += t.elapsed().as_nanos() as u64;
        } else {
            cluster.submit(pid, value);
        }
    };

    let sched0 = (t_ready - origin).as_nanos() as u64;
    for client in 0..RT_CLIENTS as u32 {
        for _ in 0..RT_OUTSTANDING {
            submit(client, sched0, &mut out, &mut ledger, &mut collector);
        }
    }
    let mut deadline = Instant::now() + RT_DRAIN;
    while ledger.fully < commands {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let Ok(commit) = cluster.commits().recv_timeout(deadline - now) else {
            continue;
        };
        let recv = origin.elapsed().as_nanos() as u64;
        let at = commit.elapsed.as_nanos() as u64;
        out.hop_ns.push(recv.saturating_sub(at));
        collector.on_commit(commit.pid, commit.shard, commit.value, at);
        let i = kv_id(commit.value) as usize;
        if i >= c {
            continue;
        }
        if ledger.first_elapsed[i].is_none() {
            ledger.first_elapsed[i] = Some(at);
            out.committed += 1;
            out.due_lat_ns.push(recv.saturating_sub(ledger.due_ns[i]));
            out.send_lat_ns.push(at.saturating_sub(ledger.sent_ns[i]));
            // The freed slot's next command falls due now.
            submit(
                ledger.client[i],
                recv,
                &mut out,
                &mut ledger,
                &mut collector,
            );
            deadline = Instant::now() + RT_DRAIN;
        }
        let bit = &mut ledger.applied[i * n + commit.pid.as_usize()];
        if *bit == 0 {
            *bit = 1;
            ledger.applied_count[i] += 1;
            ledger.last_elapsed[i] = ledger.last_elapsed[i].max(at);
            if ledger.applied_count[i] as usize == n {
                ledger.fully += 1;
                out.last_apply_ns
                    .push(recv.saturating_sub(ledger.due_ns[i]));
                let first = ledger.first_elapsed[i].unwrap_or(at);
                out.lag_ns
                    .push(ledger.last_elapsed[i].saturating_sub(first));
            }
        }
    }
    out.sched_ns = (Instant::now() - t_ready).as_nanos() as u64;
    let node_stats = cluster.shutdown_stats();
    out.session_ns = t_spawn.elapsed().as_nanos() as u64;
    out.applied_everywhere = ledger.fully;
    out.failed = commands - ledger.fully;
    out.firings = node_stats.iter().map(|s| s.firings.len() as u64).sum();
    out.summary = Some(collector.summary());
    out.handlers = stats.map(|s| {
        (
            s.totals(),
            leader.map_or_else(HandlerTotals::default, |l| s.totals_of(l)),
        )
    });
    out
}
