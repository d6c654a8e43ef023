//! Workload drivers over the threaded real-time runtime.
//!
//! The same generators as [`crate::sim_driver`], driving an
//! [`esync_runtime::Cluster`] over real channels and wall clocks: commands
//! go in through [`Cluster::submit`], measurements come back out of the
//! per-command [`Cluster::commits`] stream. Command *sequences* are
//! bit-identical to the simulator drivers' (same [`CommandGen`], same
//! stream expansion); timings are wall-clock and therefore machine-
//! dependent — the runtime drivers demonstrate the subsystem end-to-end,
//! while the simulator drivers produce the reproducible artifacts.

use crate::collect::Collector;
use crate::gen::{ClosedLoopSpec, CommandGen};
use esync_core::outbox::{Protocol, ShardLoad};
use esync_sim::metrics::WorkloadSummary;
use esync_sim::scenario::{kv_id, SubmitStream};
use esync_runtime::{Cluster, ClusterConfig, NodeStats, RuntimeError};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// A completed threaded-runtime workload run.
#[derive(Debug, Clone)]
pub struct RtWorkloadOutcome {
    /// Throughput and latency measurements (wall-clock nanoseconds).
    pub summary: WorkloadSummary,
    /// Command ids applied per node — agreement means every node's set
    /// converges to the full command set.
    pub applied_per_node: Vec<BTreeSet<u64>>,
    /// Per-node router epochs at shutdown (all zero without live
    /// rebalancing).
    pub router_epochs: Vec<u64>,
    /// Every node's typed trace, concatenated in pid order (each node's
    /// records are stamped on the shared wall axis — monotonic
    /// nanoseconds since cluster start). Empty unless the cluster was
    /// configured with [`ClusterConfig::tracing`].
    pub trace: Vec<esync_trace::TraceRecord>,
}

/// Sums the nodes' final per-shard load counters into the collector's
/// schema-v5 fields and extracts the per-node router epochs.
fn fold_node_stats(
    collector: &mut Collector,
    stats: &[NodeStats],
    shards: usize,
) -> Vec<u64> {
    let mut loads = vec![ShardLoad::default(); shards];
    for node in stats {
        for (s, load) in node.shard_loads.iter().enumerate().take(shards) {
            loads[s].submitted += load.submitted;
            loads[s].admitted += load.admitted;
        }
    }
    collector.set_shard_loads(&loads);
    stats.iter().map(|s| s.router_epoch).collect()
}

/// How long the drivers wait on the commit channel per poll.
const POLL: Duration = Duration::from_millis(20);

/// Runs a **closed-loop** workload against a threaded cluster: spawns the
/// cluster, waits `warmup` for the log to anchor a leader, then keeps
/// `spec.clients × spec.outstanding` commands in flight until
/// `spec.commands` are committed *and applied at every node*, or
/// `deadline` (from cluster start) passes.
///
/// # Errors
///
/// Returns [`RuntimeError::Config`] for invalid timing parameters and
/// [`RuntimeError::Timeout`] if the deadline passes before every command
/// commits everywhere.
pub fn run_closed_loop<P>(
    cfg: ClusterConfig,
    protocol: P,
    spec: &ClosedLoopSpec,
    warmup: Duration,
    deadline: Duration,
) -> Result<RtWorkloadOutcome, RuntimeError>
where
    P: Protocol,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
{
    assert!(spec.clients >= 1, "at least one client");
    assert!(spec.outstanding >= 1, "at least one in-flight command");
    let shards = protocol.shard_count();
    let metrics_interval = cfg.metrics_interval();
    let cluster = Cluster::spawn(cfg, protocol)?;
    let n = cluster.n();
    std::thread::sleep(warmup);
    let mut gen = CommandGen::for_spec(spec);
    let mut owner: BTreeMap<u64, u32> = BTreeMap::new();
    let mut collector = Collector::new(None, spec.timeline_window);
    collector.reserve_shards(shards);
    let mut applied: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    for client in 0..spec.clients as u32 {
        for _ in 0..spec.outstanding {
            submit_one(&cluster, &mut gen, &mut collector, &mut owner, client, spec);
        }
    }
    let done = |collector: &Collector, applied: &[BTreeSet<u64>]| {
        collector.committed() >= spec.commands
            && applied.iter().all(|s| s.len() as u64 >= spec.commands)
    };
    while !done(&collector, &applied) {
        if cluster.elapsed() > deadline {
            let decided = collector.committed() as usize;
            cluster.shutdown();
            return Err(RuntimeError::Timeout {
                decided,
                n: spec.commands as usize,
            });
        }
        let Ok(commit) = cluster.commits().recv_timeout(POLL) else {
            continue;
        };
        applied[commit.pid.as_usize()].insert(kv_id(commit.value));
        let at_ns = commit.elapsed.as_nanos() as u64;
        if let Some(id) = collector.on_commit(commit.pid, commit.shard, commit.value, at_ns) {
            let client = owner[&id];
            submit_one(&cluster, &mut gen, &mut collector, &mut owner, client, spec);
        }
    }
    let stats = cluster.shutdown_stats();
    let router_epochs = fold_node_stats(&mut collector, &stats, shards);
    Ok(finish(collector, applied, router_epochs, stats, metrics_interval))
}

/// Assembles the outcome, attaching the nodes' typed traces (and the
/// summary's phase decomposition) when the cluster collected any, and —
/// when the cluster was metered — the per-node health series
/// interleaved in pid order (each node's snapshots stay internally
/// time-ordered; the `node` tag distinguishes the streams).
fn finish(
    collector: Collector,
    applied_per_node: Vec<BTreeSet<u64>>,
    router_epochs: Vec<u64>,
    stats: Vec<NodeStats>,
    metrics_interval: Option<Duration>,
) -> RtWorkloadOutcome {
    let trace_dropped: u64 = stats.iter().map(|s| s.trace_dropped).sum();
    let mut snapshots = Vec::new();
    let mut firings = Vec::new();
    let mut trace: Vec<esync_trace::TraceRecord> = Vec::new();
    for s in stats {
        snapshots.extend(s.snapshots);
        firings.extend(s.firings);
        trace.extend(s.trace);
    }
    let mut summary = collector.summary();
    if !trace.is_empty() {
        summary.phase_latency = Some(esync_trace::decompose(&trace));
    }
    if let Some(interval) = metrics_interval {
        summary.health = Some(esync_metrics::HealthSummary {
            interval_ns: interval.as_nanos() as u64,
            snapshots,
            firings,
            trace_dropped,
        });
    }
    RtWorkloadOutcome {
        summary,
        applied_per_node,
        router_epochs,
        trace,
    }
}

/// Runs an **open-loop** workload against a threaded cluster: the stream's
/// expansion (the same one the simulator schedules) is replayed on the
/// wall clock — command `i` is submitted once `stream.expand(n)[i].0` of
/// wall time has elapsed since the post-spawn submission start — then
/// commits are drained until every command is applied everywhere or
/// `deadline` passes.
///
/// # Errors
///
/// Returns [`RuntimeError::Config`] for invalid timing parameters and
/// [`RuntimeError::Timeout`] on deadline.
pub fn run_open_loop<P>(
    cfg: ClusterConfig,
    protocol: P,
    stream: &SubmitStream,
    deadline: Duration,
) -> Result<RtWorkloadOutcome, RuntimeError>
where
    P: Protocol,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
{
    let shards = protocol.shard_count();
    let metrics_interval = cfg.metrics_interval();
    let cluster = Cluster::spawn(cfg, protocol)?;
    let n = cluster.n();
    let schedule = stream.expand(n);
    let total = schedule.len() as u64;
    let mut collector = Collector::new(None, esync_core::time::RealDuration::from_millis(50));
    collector.reserve_shards(shards);
    let mut applied: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    let start = Instant::now();
    let drain = |collector: &mut Collector, applied: &mut Vec<BTreeSet<u64>>, wait: Duration| {
        if let Ok(commit) = cluster.commits().recv_timeout(wait) {
            applied[commit.pid.as_usize()].insert(kv_id(commit.value));
            collector.on_commit(
                commit.pid,
                commit.shard,
                commit.value,
                commit.elapsed.as_nanos() as u64,
            );
        }
    };
    for (at, pid, value) in &schedule {
        let due = start + Duration::from_nanos(at.as_nanos());
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            drain(&mut collector, &mut applied, (due - now).min(POLL));
        }
        collector.on_submit(*value, cluster.elapsed().as_nanos() as u64);
        cluster.submit(*pid, *value);
    }
    while collector.committed() < total || applied.iter().any(|s| (s.len() as u64) < total) {
        if cluster.elapsed() > deadline {
            let decided = collector.committed() as usize;
            cluster.shutdown();
            return Err(RuntimeError::Timeout {
                decided,
                n: total as usize,
            });
        }
        drain(&mut collector, &mut applied, POLL);
    }
    let stats = cluster.shutdown_stats();
    let router_epochs = fold_node_stats(&mut collector, &stats, shards);
    Ok(finish(collector, applied, router_epochs, stats, metrics_interval))
}

/// Issues the next command for `client`, if the budget allows.
fn submit_one<P>(
    cluster: &Cluster<P>,
    gen: &mut CommandGen,
    collector: &mut Collector,
    owner: &mut BTreeMap<u64, u32>,
    client: u32,
    spec: &ClosedLoopSpec,
) where
    P: Protocol,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
{
    if gen.issued() >= spec.commands {
        return;
    }
    let value = gen.next_command();
    owner.insert(kv_id(value), client);
    collector.on_submit(value, cluster.elapsed().as_nanos() as u64);
    cluster.submit(spec.target_of(client, cluster.n()), value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::paxos::group::LogGroup;

    #[test]
    fn closed_loop_over_threads_commits_everywhere() {
        let cfg = ClusterConfig::new(3)
            .delta(Duration::from_millis(5))
            .seed(21);
        let spec = ClosedLoopSpec::new(2, 2, 12).seed(3);
        let out = run_closed_loop(
            cfg,
            LogGroup::new(1).with_batching(4, 2),
            &spec,
            Duration::from_millis(300),
            Duration::from_secs(30),
        )
        .expect("workload completes");
        assert_eq!(out.summary.committed, 12);
        assert!(out.summary.latency.count == 12);
        for (i, ids) in out.applied_per_node.iter().enumerate() {
            assert_eq!(ids.len(), 12, "node {i} misses commands");
        }
    }
}
