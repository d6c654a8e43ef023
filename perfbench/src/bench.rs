//! Runs one workload for a measured window and computes its metrics.
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs the separate traced passes and reports the
//! per-layer split. Every operation is checked; a failed check counts
//! into `failed` and lowers `ok_frac`.

use crate::layer::{Handler, HandlerTotals};
use crate::rt::{self, SessionOut};
use crate::sim::{drive_plain, drive_traced, DriveOut, Seams, SimWorkload, Spans};
use crate::stats::{
    beyond, median, on_cpu, peak_rss_mb, quantile, ratio, sub_seed, time_reference, REFERENCE_NS,
};
use esync_core::metrics::Metric;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The end-to-end metrics, in output order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("sim_runs_per_s", "1/s"),
    ("sim_cmds_per_wall_s", "1/s"),
    ("decide_delay_p50_delta", "delta"),
    ("decide_delay_p99_delta", "delta"),
    ("simtime_commits_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("rt_commit_p50_ms", "ms"),
    ("rt_commit_p99_ms", "ms"),
    ("rt_commits_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in output order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("sim.ns_per_event", "ns"),
    ("sim.engine_self_ns_per_event", "ns"),
    ("sim.events_per_op", "count"),
    ("core.msgs_per_op", "count"),
    ("core.handler_ns_per_call.on_message", "ns"),
    ("core.handler_ns_per_call.on_timer", "ns"),
    ("core.handler_ns_per_call.on_client", "ns"),
    ("core.handler_share", "%"),
    ("core.actions_per_call", "count"),
    ("core.retry_ratio", "ratio"),
    ("core.dup_ratio", "ratio"),
    ("core.anchored", "count"),
    ("core.unanchored", "count"),
    ("core.1a_sent", "count"),
    ("workload.collect_ns_per_op", "ns"),
    ("workload.summary_ms", "ms"),
    ("workload.gen_ns_per_cmd", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.jsonl_ns_per_record", "ns"),
    ("metrics.overhead_pct", "%"),
    ("metrics.jsonl_ns_per_line", "ns"),
    ("metrics.watchdog_firings", "count"),
    ("rt.submit_ns", "ns"),
    ("rt.commit_hop_us", "us"),
    ("rt.handler_ns_per_call", "ns"),
    ("rt.leader_busy_frac", "ratio"),
    ("rt.follower_lag_p99_ms", "ms"),
    ("rt.generator_late_p99_us", "us"),
    ("rt.anchor_ms", "ms"),
    ("rt.commit_p50_ms", "ms"),
    ("rt.commit_p99_ms", "ms"),
    ("rt.commits_per_s", "1/s"),
    ("bench.wrapper_overhead_pct", "%"),
    ("bench.accounted_pct", "%"),
    ("bench.clock_ns", "ns"),
];

/// The listed workloads are the simulator workloads; the threaded
/// runtime is measured inside `log_closed`'s traced run (see README.md).
pub use crate::sim::SimWorkload as Workload;

/// How many leading drives of a run the deterministic metrics
/// (`decide_delay_*`, `commit_*`, `simtime_commits_per_s`) are taken
/// over, so that they depend on the seed alone and not on machine speed.
pub fn det_drives(w: SimWorkload) -> u64 {
    match w {
        SimWorkload::Decide => 1000,
        SimWorkload::LogClosed => 1000,
        SimWorkload::LogChaos => 1000,
    }
}

/// The band `bench.accounted_pct` must fall in: the traced loop's parts,
/// clock reads removed, against the untraced loop's wall time.
pub const ACCOUNTED_PCT: std::ops::RangeInclusive<f64> = 70.0..=160.0;

/// Drives on either side of a drive whose references give the speed it
/// is read at.
const REFERENCE_WINDOW: usize = 15;

/// References timed before a drive of the tail is timed again.
const RETIME_REFERENCES: usize = 5;

/// Metered drives per end-to-end run whose watchdogs must stay silent on
/// the stable simulator workloads.
pub const METERED_CHECKS: u64 = 2;

/// Commands of the metered `rt_closed` session.
const RT_METERED_CMDS: u64 = 300;

/// A finished run: the checks' tally, the metrics, and human-readable
/// notes (sample counts, per-workload meaning).
#[derive(Debug, Default)]
pub struct Results {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// `(name, unit, value)` in output order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// One line per note.
    pub notes: Vec<String>,
}

impl Results {
    fn set(&mut self, table: &[(&'static str, &'static str)], values: &[(&str, f64)]) {
        for &(name, unit) in table {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            self.metrics
                .push((name, unit, if v.is_finite() { v } else { 0.0 }));
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// A human-readable table of the metrics and notes.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, unit, v) in &self.metrics {
            let _ = writeln!(s, "  {name:<38} {v:>16.6} {unit}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        s
    }
}

/// Runs `w` for `seconds` with inputs generated from `seed`.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Results {
    let budget = Duration::from_secs(seconds);
    if trace {
        sim_per_layer(w, seed, budget)
    } else {
        sim_end_to_end(w, seed, budget)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sim_end_to_end(w: SimWorkload, seed: u64, budget: Duration) -> Results {
    let k = det_drives(w);
    let mut r = Results::default();
    let mut walls = Vec::new();
    let mut refs = Vec::new();
    let mut events = Vec::new();
    let mut setups = Vec::new();
    let mut worst = Vec::new();
    let mut lat = Vec::new();
    let (mut det_ops, mut det_span) = (0u64, 0u64);
    let (mut committed, mut applied) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut i = 0;
    while i < k || t0.elapsed() < budget {
        let reference = time_reference();
        let (out, busy) =
            on_cpu(|| drive_plain(w, SimWorkload::drive_seed(seed, i), Seams::default()));
        walls.push(busy);
        refs.push(reference);
        events.push(out.report.events);
        setups.push(out.setup_ns);
        committed += out.simtime.0;
        applied += out.applied_everywhere;
        r.attempted += out.ops;
        r.failed += out.failed;
        if i < k {
            worst.push(out.worst_decide_delta);
            lat.extend_from_slice(&out.commit_lat_ns);
            det_ops += out.simtime.0;
            det_span += out.simtime.1;
        }
        i += 1;
    }
    if w != SimWorkload::LogChaos {
        // The stable workloads must trip no watchdog.
        for j in 0..METERED_CHECKS {
            let seams = Seams::METERED;
            let out = drive_plain(w, SimWorkload::drive_seed(seed, i + j), seams);
            let firings = out.health.as_ref().map_or(0, |(_, f)| f.len() as u64);
            r.attempted += out.ops + 1;
            r.failed += out.failed + firings;
        }
    }
    // The machine's speed drifts with its neighbours' load, by up to 2x
    // between runs, and the thread is preempted at random. So a drive's
    // time is its wall time less the time its thread waited for a
    // processor, read in units of a fixed reference computation timed the
    // same way before each drive, and scaled back by the reference's
    // nominal duration. A single reference is as noisy as a drive, so each
    // drive is read against the median of the references around it. The
    // rates rest on a cost per event: the median over drives of time per
    // event, which a stretch of contention hitting a minority of drives
    // does not move; the run's time is modelled as that cost times its
    // event count. `rt_commit_*` are quantiles of the drives' own times.
    // The raw figures go in the notes.
    let drives = walls.len();
    let speed = rolling_median(&refs, REFERENCE_WINDOW);
    let at_reference = |ns: u64, i: usize| ns as f64 / speed[i] * REFERENCE_NS;
    let mut per_drive: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(i, w)| at_reference(*w, i))
        .collect();
    let setups: Vec<f64> = setups
        .iter()
        .enumerate()
        .map(|(i, s)| at_reference(*s, i) / 1e9)
        .collect();
    // Confirm the tail: time the slowest drives once more and keep the
    // lesser time, so that a drive slowed by the host rather than by its
    // own work leaves the tail, while a drive that is slow by its own work
    // stays in it.
    let mut order: Vec<usize> = (0..drives).collect();
    order.sort_by(|a, b| per_drive[*b].total_cmp(&per_drive[*a]));
    for &j in order.iter().take(3 * beyond(drives, 0.99) + 1) {
        let reference = reference_median(RETIME_REFERENCES);
        let drive_seed = SimWorkload::drive_seed(seed, j as u64);
        let (out, busy) = on_cpu(|| drive_plain(w, drive_seed, Seams::default()));
        r.attempted += out.ops;
        r.failed += out.failed;
        per_drive[j] = per_drive[j].min(busy as f64 / reference * REFERENCE_NS);
    }
    let mut per_event: Vec<f64> = per_drive
        .iter()
        .zip(&events)
        .map(|(d, e)| d / *e as f64)
        .collect();
    let cost = quantile(&mut per_event, 0.5);
    let wall_s = cost * events.iter().sum::<u64>() as f64 / 1e9;
    let raw_s = walls.iter().sum::<u64>() as f64 / 1e9;
    let n_lat = lat.len();
    let values = [
        ("setup_s", median(&setups)),
        ("sim_runs_per_s", drives as f64 / wall_s),
        ("sim_cmds_per_wall_s", committed as f64 / wall_s),
        ("decide_delay_p50_delta", quantile(&mut worst, 0.5)),
        ("decide_delay_p99_delta", quantile(&mut worst, 0.99)),
        (
            "simtime_commits_per_s",
            ratio(det_ops as f64, det_span as f64 / 1e9),
        ),
        ("commit_p50_ms", ms(quantile(&mut lat, 0.5))),
        ("commit_p99_ms", ms(quantile(&mut lat, 0.99))),
        ("rt_commit_p50_ms", quantile(&mut per_drive, 0.5) / 1e6),
        ("rt_commit_p99_ms", quantile(&mut per_drive, 0.99) / 1e6),
        ("rt_commits_per_s", applied as f64 / wall_s),
        ("ok_frac", 1.0 - ratio(r.failed as f64, r.attempted as f64)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    r.set(&END_TO_END, &values);
    r.notes = vec![
        format!(
            "{drives} drives; {cost:.1} ns/event at the reference speed (reference median {:.1} us); \
             raw: {raw_s:.3} s of drive time, {:.2} drives/s, drive time p50 {:.3} ms, p99 {:.3} ms",
            quantile(&mut refs, 0.5) as f64 / 1e3,
            drives as f64 / raw_s,
            ms(quantile(&mut walls, 0.5)),
            ms(quantile(&mut walls, 0.99)),
        ),
        format!("setup_s is the median of {drives} set-ups"),
        format!(
            "decide_delay_* over the first {k} drives ({} beyond p99); commit_* over {n_lat} latencies ({} beyond p99)",
            beyond(k as usize, 0.99),
            beyond(n_lat, 0.99)
        ),
        format!(
            "rt_commit_* is the time of one whole drive at the reference speed, over {drives} drives ({} beyond p99)",
            beyond(drives, 0.99)
        ),
    ];
    r
}

/// Cost of one `Instant::now()` read, calibrated at start-up.
pub fn clock_cost_ns() -> f64 {
    let reps = 200_000u32;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(Instant::now());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    best
}

#[derive(Clone, Copy)]
enum Pass {
    Plain,
    Traced,
    Metered,
    Typed,
}

const PASSES: [Pass; 4] = [Pass::Plain, Pass::Traced, Pass::Metered, Pass::Typed];

/// Typed-trace ring capacity of the traced passes.
const TRACE_CAP: usize = 1 << 18;

#[derive(Default)]
struct Acc {
    wall: [u64; 4],
    drives: u64,
    plain_loop: u64,
    events: u64,
    msgs: u64,
    ops: u64,
    committed: u64,
    dups: u64,
    submitted: u64,
    admitted: u64,
    spans: Spans,
    handlers: HandlerTotals,
    anchored: u64,
    unanchored: u64,
    one_a: u64,
    firings: u64,
    trace_records: u64,
    trace_render_ns: u64,
    health_lines: u64,
    health_render_ns: u64,
}

fn sim_per_layer(w: SimWorkload, seed: u64, budget: Duration) -> Results {
    let c = clock_cost_ns();
    let mut r = Results::default();
    let mut a = Acc::default();
    // `log_closed`'s traced run also measures the `runtime` layer, on the
    // threaded cluster, in the last quarter of its window.
    let runtime = w == SimWorkload::LogClosed;
    let sim_budget = if runtime { budget * 3 / 4 } else { budget };
    let t0 = Instant::now();
    let mut round = 0u64;
    while round < 3 || t0.elapsed() < sim_budget {
        let s = SimWorkload::drive_seed(seed, round);
        let mut plain: Option<DriveOut> = None;
        let mut others: Vec<DriveOut> = Vec::new();
        for k in 0..4 {
            let pass = PASSES[(round as usize + k) % 4];
            let out = match pass {
                Pass::Plain => drive_plain(w, s, Seams::default()),
                Pass::Traced => {
                    let (out, h) = drive_traced(w, s);
                    a.handlers.add(&h);
                    a.spans.add(&out.spans);
                    out
                }
                Pass::Metered => {
                    let out = drive_plain(w, s, Seams::METERED);
                    let (snaps, firings) = out.health.as_ref().expect("metered drive");
                    a.anchored += out.counter(Metric::Anchored);
                    a.unanchored += out.counter(Metric::Unanchored);
                    a.one_a += out.counter(Metric::OneASent);
                    a.firings += firings.len() as u64;
                    let meta = esync_metrics::HealthMeta {
                        exp: "perfbench".into(),
                        seed: s,
                        n: out.report.n as u32,
                        interval_ns: crate::sim::METER_INTERVAL_MS * 1_000_000,
                        backend: "sim".into(),
                    };
                    let t = Instant::now();
                    let text = esync_metrics::write_health_jsonl(&meta, snaps, firings);
                    a.health_render_ns += t.elapsed().as_nanos() as u64;
                    a.health_lines += (snaps.len() + firings.len() + 1) as u64;
                    std::hint::black_box(text);
                    out
                }
                Pass::Typed => {
                    let out = drive_plain(w, s, Seams::typed(TRACE_CAP));
                    let cfg = w.config(s);
                    let meta = esync_trace::TraceMeta {
                        exp: "perfbench".into(),
                        seed: s,
                        n: out.report.n as u32,
                        delta_ns: cfg.timing.delta().as_nanos(),
                        epsilon_ns: cfg.timing.epsilon().as_nanos(),
                        ts_ns: cfg.ts.as_nanos(),
                        bound_ns: 0,
                        dropped: 0,
                    };
                    let t = Instant::now();
                    let text = esync_trace::write_jsonl(&meta, &out.records);
                    a.trace_render_ns += t.elapsed().as_nanos() as u64;
                    a.trace_records += out.records.len() as u64;
                    std::hint::black_box(text);
                    out
                }
            };
            a.wall[pass as usize] += out.wall_ns;
            r.attempted += out.ops;
            r.failed += out.failed;
            match pass {
                Pass::Plain => plain = Some(out),
                _ => others.push(out),
            }
        }
        let plain = plain.expect("plain pass ran");
        // The traced, metered and typed-trace passes must reproduce the
        // plain run exactly.
        for o in &others {
            r.attempted += 1;
            if o.fingerprint() != plain.fingerprint() {
                r.failed += 1;
            }
        }
        a.drives += 1;
        a.plain_loop += plain.wall_ns - plain.setup_ns;
        a.events += plain.report.events;
        a.msgs += plain.report.msgs_sent;
        a.ops += plain.ops;
        if let Some(s) = &plain.summary {
            a.committed += s.committed;
            a.dups += s.duplicate_commits;
        }
        for l in &plain.shard_loads {
            a.submitted += l.submitted;
            a.admitted += l.admitted;
        }
        round += 1;
    }
    let h = &a.handlers;
    let sp = &a.spans;
    let calls = h.all_calls() as f64;
    let handler_corr = h.all_ns() as f64 - calls * c;
    let step_laps = a.events as f64;
    let self_corr = sp.step_ns as f64 - h.all_ns() as f64 - (step_laps + calls) * c;
    let loop_corr = sp.loop_ns as f64 - (sp.laps as f64 + 2.0 * calls) * c;
    let collect_corr = sp.collect_ns as f64 - sp.collect_calls as f64 * c + sp.register_ns as f64;
    let gen_corr = sp.gen_ns as f64 - sp.gen_cmds as f64 * c + sp.expand_ns as f64;
    let overhead = |pass: Pass| {
        100.0
            * (ratio(
                a.wall[pass as usize] as f64,
                a.wall[Pass::Plain as usize] as f64,
            ) - 1.0)
    };
    let drives = a.drives as f64;
    // The traced loop's parts with the clock reads removed, against the
    // untraced loop's wall time; the engine's self time is what the
    // untraced loop spent outside handlers, collector and generator.
    let loop_parts = collect_corr - sp.register_ns as f64 + gen_corr - sp.expand_ns as f64
        + sp.summary_ns as f64;
    let accounted = self_corr + handler_corr + loop_parts;
    let accounted_pct = 100.0 * ratio(accounted, a.plain_loop as f64);
    // Decomposition check: engine self + handlers + collector, generator
    // and summary from the traced pass must account for the untraced
    // loop's wall time, within the band the clock calibration allows.
    r.attempted += 1;
    if !ACCOUNTED_PCT.contains(&accounted_pct) {
        r.failed += 1;
    }
    let engine_self = (a.plain_loop as f64 - handler_corr - loop_parts).max(0.0);
    let values = [
        (
            "sim.ns_per_event",
            ratio(a.wall[Pass::Plain as usize] as f64, a.events as f64),
        ),
        (
            "sim.engine_self_ns_per_event",
            ratio(engine_self, a.events as f64),
        ),
        ("sim.events_per_op", ratio(a.events as f64, a.ops as f64)),
        ("core.msgs_per_op", ratio(a.msgs as f64, a.ops as f64)),
        (
            "core.handler_ns_per_call.on_message",
            h.ns_per_call(Handler::Message, c),
        ),
        (
            "core.handler_ns_per_call.on_timer",
            h.ns_per_call(Handler::Timer, c),
        ),
        (
            "core.handler_ns_per_call.on_client",
            h.ns_per_call(Handler::Client, c),
        ),
        ("core.handler_share", 100.0 * ratio(handler_corr, loop_corr)),
        (
            "core.actions_per_call",
            ratio(h.all_actions() as f64, calls),
        ),
        (
            "core.retry_ratio",
            ratio(a.submitted as f64, a.admitted as f64),
        ),
        ("core.dup_ratio", ratio(a.dups as f64, a.committed as f64)),
        ("core.anchored", a.anchored as f64 / drives),
        ("core.unanchored", a.unanchored as f64 / drives),
        ("core.1a_sent", a.one_a as f64 / drives),
        (
            "workload.collect_ns_per_op",
            ratio(collect_corr, a.ops as f64),
        ),
        ("workload.summary_ms", sp.summary_ns as f64 / drives / 1e6),
        (
            "workload.gen_ns_per_cmd",
            ratio(gen_corr, sp.gen_cmds as f64),
        ),
        ("trace.overhead_pct", overhead(Pass::Typed)),
        (
            "trace.jsonl_ns_per_record",
            ratio(a.trace_render_ns as f64, a.trace_records as f64),
        ),
        ("metrics.overhead_pct", overhead(Pass::Metered)),
        (
            "metrics.jsonl_ns_per_line",
            ratio(a.health_render_ns as f64, a.health_lines as f64),
        ),
        ("metrics.watchdog_firings", a.firings as f64),
        ("bench.wrapper_overhead_pct", overhead(Pass::Traced)),
        ("bench.accounted_pct", accounted_pct),
        ("bench.clock_ns", c),
    ];
    let collect_loop = sp.collect_ns as f64 - sp.collect_calls as f64 * c;
    let share = |x: f64| 100.0 * ratio(x, loop_corr);
    r.notes = vec![
        format!(
            "{} rounds of four passes (plain, traced, metered, typed trace) over the same seeds",
            a.drives
        ),
        format!(
            "traced loop, clock reads removed: engine self {:.1}%, handlers {:.1}%, collector {:.1}%, rest {:.1}%",
            share(self_corr),
            share(handler_corr),
            share(collect_loop),
            share(loop_corr - self_corr - handler_corr - collect_loop),
        ),
    ];
    let rt_values = if runtime {
        runtime_layer(seed, budget.saturating_sub(t0.elapsed()), &mut r)
    } else {
        Vec::new()
    };
    r.set(&PER_LAYER, &[&values[..], &rt_values[..]].concat());
    r
}

/// Runs the metered `rt_closed` session whose watchdogs must stay silent,
/// tallies it into `r`, and returns its firings.
fn metered_session(seed: u64, r: &mut Results) -> u64 {
    let s = rt::session(seed, RT_METERED_CMDS, true);
    r.attempted += s.commands + 1;
    r.failed += s.failed + s.firings;
    s.firings
}

/// Median time of `k` reference computations.
fn reference_median(k: usize) -> f64 {
    median(&(0..k).map(|_| time_reference() as f64).collect::<Vec<_>>())
}

/// For each `i`, the median of `xs[i - half ..= i + half]` (clipped).
fn rolling_median(xs: &[u64], half: usize) -> Vec<f64> {
    (0..xs.len())
        .map(|i| {
            let window = &xs[i.saturating_sub(half)..(i + half + 1).min(xs.len())];
            median(&window.iter().map(|x| *x as f64).collect::<Vec<_>>())
        })
        .collect()
}

/// The `runtime` layer: traced `rt_closed` sessions for `budget` (at
/// least three), then one metered session whose watchdogs must stay
/// silent. Every command must be applied at every node; each failure
/// counts into `r`. Returns the `rt.*` figures.
fn runtime_layer(seed: u64, budget: Duration, r: &mut Results) -> Vec<(&'static str, f64)> {
    let c = clock_cost_ns();
    let mut sessions: Vec<SessionOut> = Vec::new();
    let t0 = Instant::now();
    let mut i = 0u64;
    while i < 3 || t0.elapsed() < budget {
        sessions.push(rt::session_traced(sub_seed(seed, i), rt::RT_SESSION_CMDS));
        i += 1;
    }
    let firings = metered_session(sub_seed(seed, i), r);
    let mut all = HandlerTotals::default();
    let mut leader_ns = 0.0;
    let (mut sched, mut submit_ns, mut cmds) = (0u64, 0u64, 0u64);
    let (mut hop, mut lag, mut late, mut due) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in &sessions {
        r.attempted += s.commands;
        r.failed += s.failed;
        if let Some((h, l)) = &s.handlers {
            all.add(h);
            leader_ns += l.all_ns() as f64 - l.all_calls() as f64 * c;
        }
        sched += s.sched_ns;
        submit_ns += s.submit_ns;
        cmds += s.commands;
        hop.extend_from_slice(&s.hop_ns);
        lag.extend_from_slice(&s.lag_ns);
        late.extend_from_slice(&s.late_ns);
        due.extend_from_slice(&s.due_lat_ns);
    }
    let calls = all.all_calls() as f64;
    let handler_corr = all.all_ns() as f64 - calls * c;
    let applied: u64 = sessions.iter().map(|s| s.applied_everywhere).sum();
    r.notes.push(format!(
        "runtime: {} traced rt_closed sessions of {} commands ({} clients x {} outstanding), \
         {firings} watchdog firings in one metered session of {RT_METERED_CMDS}; \
         rt.commit_p99_ms rests on {} commands ({} beyond)",
        sessions.len(),
        rt::RT_SESSION_CMDS,
        rt::RT_CLIENTS,
        rt::RT_OUTSTANDING,
        due.len(),
        beyond(due.len(), 0.99),
    ));
    vec![
        (
            "rt.submit_ns",
            ratio(submit_ns as f64 - cmds as f64 * c, cmds as f64),
        ),
        ("rt.commit_hop_us", quantile(&mut hop, 0.5) as f64 / 1e3),
        ("rt.handler_ns_per_call", ratio(handler_corr, calls)),
        ("rt.leader_busy_frac", ratio(leader_ns, sched as f64)),
        ("rt.follower_lag_p99_ms", ms(quantile(&mut lag, 0.99))),
        (
            "rt.generator_late_p99_us",
            quantile(&mut late, 0.99) as f64 / 1e3,
        ),
        (
            "rt.anchor_ms",
            median(
                &sessions
                    .iter()
                    .map(|s| s.anchor_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("rt.commit_p50_ms", ms(quantile(&mut due, 0.5))),
        ("rt.commit_p99_ms", ms(quantile(&mut due, 0.99))),
        ("rt.commits_per_s", applied as f64 / (sched as f64 / 1e9)),
    ]
}
