//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics the benchmark prints.

use perfbench::bench::{Workload, END_TO_END, PER_LAYER};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// The `"key": "value"` string values of a flat JSON text, in order.
fn values_of(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(at, _)| {
            let rest = &text[at + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn manifest_lists_every_workload_and_metric() {
    let text = manifest();
    let names = values_of(&text, "name");
    let units = values_of(&text, "unit");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    let metrics: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    assert_eq!(names.len(), workloads.len() + metrics.len());
    assert_eq!(&names[..workloads.len()], &workloads[..]);
    for (i, (name, unit)) in metrics.iter().enumerate() {
        assert_eq!(names[workloads.len() + i], *name);
        assert_eq!(units[i], *unit, "{name}");
    }
}
