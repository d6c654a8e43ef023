//! Criterion micro-benchmarks: simulator event throughput, event-queue
//! steady-state cost, protocol step cost, parallel sweep throughput, and
//! end-to-end run cost vs N.
//!
//! Set `CRITERION_OUT=BENCH_micro.json` to capture the measurements as a
//! machine-readable artifact (`scripts/bench.sh` does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esync_bench::SweepRunner;
use esync_core::ballot::Ballot;
use esync_core::config::TimingConfig;
use esync_core::outbox::{Outbox, Process, Protocol};
use esync_core::paxos::messages::PaxosMsg;
use esync_core::paxos::session::SessionPaxos;
use esync_core::paxos::state::DecisionTracker;
use esync_core::time::LocalInstant;
use esync_core::types::{ProcessId, Value};
use esync_sim::event::{EventKind, EventQueue, MsgPayload};
use esync_sim::{PreStability, SimConfig, SimTime, World};
use std::hint::black_box;

fn full_run(n: usize, seed: u64) -> u64 {
    let cfg = SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(100)
        .pre_stability(PreStability::lossless())
        .build()
        .unwrap();
    let mut w = World::new(cfg, SessionPaxos::new());
    let r = w.run_to_completion().unwrap();
    r.events
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_stable_run");
    for n in [3usize, 5, 9, 17, 33] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(full_run(n, seed))
            });
        });
    }
    group.finish();
}

/// A closed-loop drive through the sharded log group: the event loop
/// under multi-instance load (shard-tagged messages, per-shard timers,
/// SoA liveness flags on every deliver). The end-to-end cost of one
/// committed command through the S=4 engine.
fn bench_log_group_workload(c: &mut Criterion) {
    use esync_core::paxos::group::LogGroup;
    use esync_workload::gen::ClosedLoopSpec;
    use esync_workload::sim_driver::run_closed_loop;
    c.bench_function("log_group_s4_closed_loop_120_commands", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = SimConfig::builder(5)
                .seed(seed)
                .stability_at_millis(0)
                .pre_stability(PreStability::lossless())
                .build()
                .unwrap();
            let spec = ClosedLoopSpec::new(5, 8, 120).seed(seed).key_space(1 << 10);
            let out = run_closed_loop(
                cfg,
                LogGroup::new(4),
                &spec,
                SimTime::from_millis(500),
                SimTime::from_secs(120),
            );
            assert_eq!(out.summary.committed, 120);
            black_box(out.report.events)
        });
    });
}

fn bench_chaos_run(c: &mut Criterion) {
    c.bench_function("end_to_end_chaos_run_n5", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = SimConfig::builder(5)
                .seed(seed)
                .stability_at_millis(300)
                .pre_stability(PreStability::chaos())
                .build()
                .unwrap();
            let mut w = World::new(cfg, SessionPaxos::new());
            black_box(w.run_to_completion().unwrap().events)
        });
    });
}

fn bench_protocol_step(c: &mut Criterion) {
    c.bench_function("session_paxos_on_message_p1a", |b| {
        let cfg = TimingConfig::for_n_processes(5).unwrap();
        let proto = SessionPaxos::new();
        let mut p = proto.spawn(ProcessId::new(0), &cfg, Value::new(1));
        let mut out = Outbox::new(LocalInstant::ZERO);
        p.on_start(&mut out);
        out.drain();
        let mut ballot = 6u64;
        b.iter(|| {
            ballot += 5; // fresh higher ballot every iteration
            p.on_message(
                ProcessId::new(1),
                &PaxosMsg::P1a {
                    mbal: Ballot::new(ballot),
                },
                &mut out,
            );
            black_box(out.drain().len())
        });
    });
}

/// Promise truncation (the ROADMAP "promise size" item): building the
/// phase-1b reply of a replicated-log acceptor with 4096 chosen slots
/// and a small in-flight window. The **caught-up** caller (prefix equal
/// to the reporter's — the steady-state ε re-announcement case) costs
/// `O(window)`; the **cold** caller (prefix 0 — a restarted process's
/// full catch-up) pays the full `O(log length)` the old untruncated
/// promise paid on *every* reply. The delta between these two entries is
/// the truncation win.
fn bench_promise_truncation(c: &mut Criterion) {
    use esync_core::paxos::group::{GroupMsg, LogGroup, ShardId};
    use esync_core::paxos::multi::{batch_of, MultiMsg};

    let cfg = TimingConfig::for_n_processes(3).unwrap();
    let build = || {
        let mut p = LogGroup::new(1).spawn(ProcessId::new(0), &cfg, Value::new(0));
        let mut out: Outbox<GroupMsg> = Outbox::new(LocalInstant::ZERO);
        p.on_start(&mut out);
        out.drain();
        let mut deliver = |msg| {
            let msg = GroupMsg::Shard {
                shard: ShardId::ZERO,
                msg,
            };
            p.on_message(ProcessId::new(1), &msg, &mut out);
            out.drain();
        };
        // 4096 chosen slots (learned decisions), plus an in-flight window
        // of 4 accepted-but-unchosen votes above the prefix.
        for slot in 0..4096u64 {
            deliver(MultiMsg::LogDecided {
                slot,
                batch: batch_of([Value::new(slot)]),
            });
        }
        for slot in 4097..=4100u64 {
            deliver(MultiMsg::M2a {
                mbal: Ballot::new(4),
                slot,
                batch: batch_of([Value::new(slot)]),
            });
        }
        p
    };
    c.bench_function("promise_reply_log4096_caught_up_caller", |b| {
        let group = build();
        let p = group.shard(ShardId::ZERO);
        let prefix = p.chosen_prefix();
        b.iter(|| black_box(p.vote_report(prefix).votes.len()));
    });
    c.bench_function("promise_reply_log4096_cold_caller", |b| {
        let group = build();
        let p = group.shard(ShardId::ZERO);
        b.iter(|| black_box(p.vote_report(0).chosen.len()));
    });
}

/// The phase-2b tally: the current-ballot cache vs the `BTreeMap` fallback
/// — the delta between these two is the fast path's win (a stable run is
/// ~100% current-ballot hits).
fn bench_decision_tracker(c: &mut Criterion) {
    c.bench_function("decision_tracker_2b_current_ballot", |b| {
        let mut d = DecisionTracker::new();
        let bal = Ballot::new(1_000_000);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(d.record(64, ProcessId::new(i % 64), bal, Value::new(7)))
        });
    });
    c.bench_function("decision_tracker_2b_old_ballot", |b| {
        let mut d = DecisionTracker::new();
        for k in 0..64u64 {
            d.record(64, ProcessId::new(0), Ballot::new(k), Value::new(7));
        }
        // The cache sits on a far newer ballot; every record below goes
        // through the map.
        d.record(64, ProcessId::new(0), Ballot::new(1_000_000), Value::new(7));
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(d.record(
                64,
                ProcessId::new(i % 64),
                Ballot::new(u64::from(i % 64)),
                Value::new(7),
            ))
        });
    });
}

/// Typed-tracing overhead (the ISSUE-7 ≤5% budget): the identical
/// closed-loop drive with tracing disabled (`trace_overhead_noop` — the
/// default every other benchmark runs under) vs enabled
/// (`trace_overhead_on` — every protocol event stamped and ring-buffered).
/// Compare the two entries in `BENCH_micro.json`; tracing must cost no
/// more than 5% of the run.
fn bench_trace_overhead(c: &mut Criterion) {
    use esync_core::paxos::group::LogGroup;
    use esync_workload::gen::ClosedLoopSpec;
    use esync_workload::sim_driver::run_closed_loop_on;

    let drive = |seed: u64, traced: bool| {
        let cfg = SimConfig::builder(3)
            .seed(seed)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap();
        let spec = ClosedLoopSpec::new(4, 4, 120).seed(seed).key_space(1 << 10);
        let mut world = World::new(cfg, LogGroup::new(1));
        if traced {
            world.enable_typed_trace(1 << 18);
        }
        world.run_until(SimTime::from_millis(500));
        let out = run_closed_loop_on(&mut world, &spec, SimTime::from_secs(120));
        assert_eq!(out.summary.committed, 120);
        out.report.events
    };
    c.bench_function("trace_overhead_noop", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, false))
        });
    });
    c.bench_function("trace_overhead_on", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, true))
        });
    });
}

/// The metrics registry's cost on the same closed-loop drive as
/// `bench_trace_overhead`: `metrics_overhead_on` (counters metered,
/// snapshots every 50ms, all watchdogs armed) must stay within 3% of
/// `metrics_overhead_noop` — the "always-on" bar ISSUE 10 sets, gated
/// by `scripts/bench.sh`.
fn bench_metrics_overhead(c: &mut Criterion) {
    use esync_core::paxos::group::LogGroup;
    use esync_core::time::RealDuration;
    use esync_workload::gen::ClosedLoopSpec;
    use esync_workload::sim_driver::run_closed_loop_on;

    let drive = |seed: u64, metered: bool| {
        let cfg = SimConfig::builder(3)
            .seed(seed)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap();
        let spec = ClosedLoopSpec::new(4, 4, 120).seed(seed).key_space(1 << 10);
        let mut world = World::new(cfg, LogGroup::new(1));
        if metered {
            world.enable_metrics(RealDuration::from_millis(50), esync_metrics::WatchdogConfig::default());
        }
        world.run_until(SimTime::from_millis(500));
        let out = run_closed_loop_on(&mut world, &spec, SimTime::from_secs(120));
        assert_eq!(out.summary.committed, 120);
        out.report.events
    };
    c.bench_function("metrics_overhead_noop", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, false))
        });
    });
    c.bench_function("metrics_overhead_on", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, true))
        });
    });
}

/// Event-queue churn at a simulator-realistic size: ~6000 pending events,
/// each pop followed by one push up to `horizon_ns` after it.
fn queue_churn(c: &mut Criterion, name: &str, horizon_ns: u64) {
    c.bench_function(name, |b| {
        let mut q: EventQueue<PaxosMsg> = EventQueue::with_capacity(8 * 1024);
        let mut now = 0u64;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mk = |at: u64, r: u64| {
            (
                SimTime::from_nanos(at),
                EventKind::Deliver {
                    from: ProcessId::new(0),
                    to: ProcessId::new((r % 17) as u32),
                    msg: MsgPayload::Owned(PaxosMsg::P1a {
                        mbal: Ballot::new(r),
                    }),
                },
            )
        };
        for _ in 0..6000 {
            let r = rand();
            let (at, k) = mk(now + r % horizon_ns, r);
            q.push(at, k);
        }
        b.iter(|| {
            let e = q.pop().unwrap();
            now = e.at.as_nanos();
            let r = rand();
            let (at, k) = mk(now + 1 + r % horizon_ns, r);
            q.push(at, k);
            black_box(e.seq)
        });
    });
}

/// Queue churn with delays within a 10ms band (δ-scale) and over a ~4s
/// horizon (timer-scale).
fn bench_event_queue(c: &mut Criterion) {
    queue_churn(c, "event_queue_steady_state_6k", 10_000_000);
    queue_churn(c, "event_queue_wide_horizon_6k", 4_000_000_000);
}

/// Whole-sweep wall time through the parallel engine (single-thread vs
/// all cores), so scaling regressions show up in `BENCH_micro.json`.
fn bench_sweep(c: &mut Criterion) {
    let mk_cfg = |seed: u64| {
        SimConfig::builder(5)
            .seed(seed)
            .stability_at_millis(100)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap()
    };
    c.bench_function("sweep_16_seeds_1_thread", |b| {
        let runner = SweepRunner::with_threads(1);
        b.iter(|| {
            black_box(
                runner
                    .run_seeds(16, mk_cfg, SessionPaxos::new)
                    .unwrap()
                    .len(),
            )
        });
    });
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    c.bench_function(&format!("sweep_16_seeds_{cores}_threads"), |b| {
        let runner = SweepRunner::with_threads(cores);
        b.iter(|| {
            black_box(
                runner
                    .run_seeds(16, mk_cfg, SessionPaxos::new)
                    .unwrap()
                    .len(),
            )
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_end_to_end, bench_log_group_workload, bench_chaos_run,
              bench_protocol_step, bench_promise_truncation,
              bench_decision_tracker, bench_event_queue, bench_sweep,
              bench_trace_overhead, bench_metrics_overhead
}
criterion_main!(benches);
