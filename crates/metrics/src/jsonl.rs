//! The `HEALTH_*.jsonl` artifact format.
//!
//! One JSON object per line, mirroring the `TRACE_*.jsonl` layout:
//!
//! | line | shape |
//! |------|-------|
//! | header | `{"meta":{"exp":…,"seed":…,"n":…,"interval_ns":…,"backend":"sim"\|"rt"}}` |
//! | snapshot | `{"at_ns":…,"node":…\|null,"counters":[["1a_sent",v],…]}` |
//! | firing | `{"at_ns":…,"node":…\|null,"watchdog":"bound"\|…,"value":…}` |
//!
//! Snapshot `counters` always carries all [`METRIC_COUNT`] pairs in
//! [`Metric::ALL`] order; the parser accepts any order and subset (a
//! missing name reads as zero), so the format can grow counters without
//! breaking old readers. Firing lines are distinguished from snapshot
//! lines by the `watchdog` key.
//!
//! Lines are parsed through the vendored `serde_json::Value`, the same
//! reader the trace parser uses.

use crate::snapshot::MetricsSnapshot;
use crate::watchdog::{WatchdogFiring, WatchdogKind};
use esync_core::metrics::{Metric, METRIC_COUNT};
use serde::{Serialize, Serializer};
use serde_json::Value;
use std::fmt;

/// The run header of a `HEALTH_*.jsonl` file. Serialized in field
/// order, which is the header's key order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HealthMeta {
    /// Experiment label (e.g. `"w6_health"`).
    pub exp: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Cluster size.
    pub n: u32,
    /// Snapshot cadence in nanoseconds.
    pub interval_ns: u64,
    /// Which backend stamped the time axis: `"sim"` (virtual time) or
    /// `"rt"` (monotonic wall time since cluster start).
    pub backend: String,
}

/// One parsed line of a health file.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthLine {
    /// The header line.
    Meta(HealthMeta),
    /// A registry sample.
    Snapshot(MetricsSnapshot),
    /// A watchdog firing.
    Firing(WatchdogFiring),
}

/// A malformed health line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthParseError {
    /// What the parser was looking for.
    pub what: &'static str,
    /// Byte offset within the line.
    pub at: usize,
}

impl fmt::Display for HealthParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid health line: expected {} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for HealthParseError {}

/// Renders the header line (no trailing newline) — the first line a
/// streaming writer appends.
pub fn health_meta_line(meta: &HealthMeta) -> String {
    meta_line(meta)
}

/// Renders one snapshot line (no trailing newline), for writers that
/// append live in arrival order.
pub fn snapshot_line(snap: &MetricsSnapshot) -> String {
    let mut s = Serializer::new();
    snap.serialize(&mut s);
    s.finish()
}

/// Renders one firing line (no trailing newline), for writers that
/// append live in arrival order.
pub fn firing_line(f: &WatchdogFiring) -> String {
    let mut s = Serializer::new();
    f.serialize(&mut s);
    s.finish()
}

fn meta_line(meta: &HealthMeta) -> String {
    let mut s = Serializer::new();
    s.begin_map();
    s.key("meta");
    meta.serialize(&mut s);
    s.end_map();
    s.finish()
}

/// Renders a whole health file: the header, then every snapshot, then
/// every firing, one JSON object per line with a trailing newline.
/// Writers that interleave live (the runtime's `--follow` stream) emit
/// the same line shapes in arrival order instead; the parser accepts
/// both.
pub fn write_health_jsonl(
    meta: &HealthMeta,
    snapshots: &[MetricsSnapshot],
    firings: &[WatchdogFiring],
) -> String {
    let mut out = meta_line(meta);
    out.push('\n');
    for snap in snapshots {
        let mut s = Serializer::new();
        snap.serialize(&mut s);
        out.push_str(&s.finish());
        out.push('\n');
    }
    for f in firings {
        let mut s = Serializer::new();
        f.serialize(&mut s);
        out.push_str(&s.finish());
        out.push('\n');
    }
    out
}

// ---- parsing ----

fn field<'v>(v: &'v Value, key: &'static str) -> Result<&'v Value, HealthParseError> {
    v.get(key).ok_or(HealthParseError { what: key, at: 0 })
}

fn get_u64(v: &Value, key: &'static str) -> Result<u64, HealthParseError> {
    field(v, key)?.as_u64().ok_or(HealthParseError { what: key, at: 0 })
}

fn get_str<'v>(v: &'v Value, key: &'static str) -> Result<&'v str, HealthParseError> {
    field(v, key)?.as_str().ok_or(HealthParseError { what: key, at: 0 })
}

fn get_node(v: &Value) -> Result<Option<u32>, HealthParseError> {
    let node = field(v, "node")?;
    if node.is_null() {
        return Ok(None);
    }
    let bad = HealthParseError { what: "node", at: 0 };
    let n = node.as_u64().ok_or(bad)?;
    u32::try_from(n).map(Some).map_err(|_| bad)
}

fn counters_of(v: &Value) -> Result<[u64; METRIC_COUNT], HealthParseError> {
    let pairs = v.as_array().ok_or(HealthParseError { what: "counters", at: 0 })?;
    let mut counters = [0u64; METRIC_COUNT];
    for pair in pairs {
        let kv = pair.as_array().map(Vec::as_slice);
        let Some([name, count]) = kv else {
            return Err(HealthParseError { what: "counter pair", at: 0 });
        };
        let (Some(name), Some(count)) = (name.as_str(), count.as_u64()) else {
            return Err(HealthParseError { what: "counter pair", at: 0 });
        };
        // Unknown names are skipped, so old readers survive new counters.
        if let Some(m) = Metric::from_name(name) {
            counters[m as usize] = count;
        }
    }
    Ok(counters)
}

/// Parses one line of a health file.
///
/// # Errors
///
/// Returns [`HealthParseError`] for malformed JSON, unknown watchdog
/// names, or missing fields.
pub fn parse_health_line(line: &str) -> Result<HealthLine, HealthParseError> {
    let v: Value = line.trim_end().parse().map_err(|e: serde_json::Error| HealthParseError {
        what: "valid JSON",
        at: e.column() - 1,
    })?;
    if let Some(meta) = v.get("meta") {
        return Ok(HealthLine::Meta(HealthMeta {
            exp: get_str(meta, "exp")?.to_string(),
            seed: get_u64(meta, "seed")?,
            n: u32::try_from(get_u64(meta, "n")?)
                .map_err(|_| HealthParseError { what: "n", at: 0 })?,
            interval_ns: get_u64(meta, "interval_ns")?,
            backend: get_str(meta, "backend")?.to_string(),
        }));
    }
    let at_ns = get_u64(&v, "at_ns")?;
    let node = get_node(&v)?;
    if let Ok(name) = get_str(&v, "watchdog") {
        let kind = WatchdogKind::from_name(name)
            .ok_or(HealthParseError { what: "known watchdog", at: 0 })?;
        return Ok(HealthLine::Firing(WatchdogFiring {
            kind,
            at_ns,
            node,
            value: get_u64(&v, "value")?,
        }));
    }
    Ok(HealthLine::Snapshot(MetricsSnapshot {
        at_ns,
        node,
        counters: counters_of(field(&v, "counters")?)?,
    }))
}

/// Parses a whole health file into its header, snapshot series, and
/// firing list, in file order (blank lines skipped).
///
/// # Errors
///
/// Returns [`HealthParseError`] on the first malformed line, or a
/// `"meta line"` error if the header is missing.
pub fn parse_health_jsonl(
    text: &str,
) -> Result<(HealthMeta, Vec<MetricsSnapshot>, Vec<WatchdogFiring>), HealthParseError> {
    let mut meta = None;
    let mut snapshots = Vec::new();
    let mut firings = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_health_line(line)? {
            HealthLine::Meta(m) => meta = Some(m),
            HealthLine::Snapshot(s) => snapshots.push(s),
            HealthLine::Firing(f) => firings.push(f),
        }
    }
    let meta = meta.ok_or(HealthParseError { what: "meta line", at: 0 })?;
    Ok((meta, snapshots, firings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> HealthMeta {
        HealthMeta {
            exp: "w6_health".to_string(),
            seed: 42,
            n: 3,
            interval_ns: 500_000_000,
            backend: "sim".to_string(),
        }
    }

    #[test]
    fn roundtrips_a_full_file() {
        let mut counters = [0u64; METRIC_COUNT];
        counters[Metric::Decided as usize] = 11;
        counters[Metric::Submitted as usize] = 12;
        let snapshots = vec![
            MetricsSnapshot { at_ns: 500, node: None, counters: [0; METRIC_COUNT] },
            MetricsSnapshot { at_ns: 1000, node: Some(2), counters },
        ];
        let firings = vec![WatchdogFiring {
            kind: WatchdogKind::AnchorChurn,
            at_ns: 1000,
            node: None,
            value: 2,
        }];
        for exp in ["w6_health", "ε-sweep\tx\r\u{1}"] {
            let meta = HealthMeta {
                exp: exp.to_string(),
                ..sample_meta()
            };
            let text = write_health_jsonl(&meta, &snapshots, &firings);
            let (m2, s2, f2) = parse_health_jsonl(&text).expect("roundtrip parses");
            assert_eq!(m2, meta);
            assert_eq!(s2, snapshots);
            assert_eq!(f2, firings);
        }
    }

    #[test]
    fn missing_counter_names_read_as_zero() {
        let line = "{\"at_ns\":7,\"node\":null,\"counters\":[[\"decided\",3],[\"future_counter\",9]]}";
        let HealthLine::Snapshot(s) = parse_health_line(line).expect("parses") else {
            panic!("expected a snapshot line");
        };
        assert_eq!(s.counter(Metric::Decided), 3);
        assert_eq!(s.counter(Metric::Chosen), 0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_health_line("{\"at_ns\":1").is_err());
        assert!(parse_health_line("{\"at_ns\":1,\"node\":0,\"watchdog\":\"nope\",\"value\":1}").is_err());
        assert!(parse_health_jsonl("{\"at_ns\":1,\"node\":null,\"counters\":[]}\n").is_err());
        assert!(parse_health_line("{\"at_ns\":1,\"node\":-1,\"counters\":[]}").is_err());
        assert!(parse_health_line("{\"at_ns\":1,\"node\":null,\"counters\":[[\"decided\"]]}").is_err());
    }
}
