//! Small numeric helpers: seed mixing, order statistics, peak memory.

/// SplitMix64: a bijective mix, so distinct inputs give distinct seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the `index`-th drive or session of a run seeded with
/// `base`.
pub fn sub_seed(base: u64, index: u64) -> u64 {
    mix(base.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index)
}

/// The `q` quantile of `xs` by nearest rank (`0` when empty). Sorts `xs`.
pub fn quantile<T: Copy + PartialOrd + Default>(xs: &mut [T], q: f64) -> T {
    if xs.is_empty() {
        return T::default();
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The median of `xs` (`0.0` when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// How many samples lie strictly above the `q` quantile of `n` samples
/// taken by nearest rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// `a / b`, or zero when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The nominal duration of [`reference_work`], in ns: wall-clock metrics
/// normalized by the reference read as if measured on a machine on which
/// the reference takes exactly this long.
pub const REFERENCE_NS: f64 = 300_000.0;

/// A fixed computation, independent of the code under test (ordered-map
/// churn driven by a xorshift sequence, ~300 µs), whose wall time tracks
/// how fast the machine runs at the moment it is measured.
pub fn reference_work() -> u64 {
    let mut map = std::collections::BTreeMap::new();
    let mut x: u64 = std::hint::black_box(0x1234_5678_9ABC_DEF0);
    let mut acc = 0u64;
    for i in 0..3000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, i);
        if i % 3 == 0 {
            if let Some((k, v)) = map.pop_first() {
                acc = acc.wrapping_add(k ^ v);
            }
        }
    }
    acc.wrapping_add(map.len() as u64)
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// processor (Linux `/proc/thread-self/schedstat`, second field; zero
/// where that is unavailable). The kernel adds each wait as the thread
/// gets back on a processor, so the difference of two readings is the
/// time the thread was preempted in between.
pub fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Runs `f` and returns its result with the wall nanoseconds it took,
/// less the time the thread waited for a processor meanwhile.
pub fn on_cpu<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let w0 = runqueue_wait_ns();
    let t = std::time::Instant::now();
    let out = f();
    let wall = t.elapsed().as_nanos() as u64;
    (
        out,
        wall.saturating_sub(runqueue_wait_ns().saturating_sub(w0)),
    )
}

/// Nanoseconds of one [`reference_work`] call, less preemption.
pub fn time_reference() -> u64 {
    on_cpu(|| std::hint::black_box(reference_work())).1
}

/// The process's peak resident set in MiB (Linux `VmHWM`; zero elsewhere).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50);
        assert_eq!(quantile(&mut xs, 0.99), 99);
        assert_eq!(quantile(&mut xs, 1.0), 100);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
        assert!(time_reference() > 0);
    }

    #[test]
    fn mix_separates_neighbours() {
        assert_ne!(mix(0), mix(1));
        assert_eq!(mix(7), mix(7));
    }
}
