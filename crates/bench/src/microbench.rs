//! A minimal timing harness for the `benches/` targets.
//!
//! Criterion is not available in the offline build environment, so the bench
//! targets are compiled with `harness = false` and drive this hand-rolled
//! harness instead: warm-up, a fixed number of timed iterations, and
//! min/mean/max reporting. It is deliberately tiny — enough to watch for
//! order-of-magnitude regressions and to compare variants (e.g. warm vs. cold
//! sessions), not a statistics suite.

use std::time::{Duration, Instant};

/// Result of timing one benchmark case.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Number of timed iterations.
    pub iters: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Mean iteration time.
    pub mean: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

impl Timing {
    /// Mean iteration time in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        self.mean.as_secs_f64() * 1e3
    }

    /// Mean iteration time in nanoseconds — the unit recorded in
    /// `BENCH_planning.json` so perf trajectories are comparable across PRs.
    #[must_use]
    pub fn ns_per_iter(&self) -> f64 {
        self.mean.as_secs_f64() * 1e9
    }

    /// A deterministic value — a model output, or a work count as that many
    /// nanoseconds — as one exact sample, so it lands in a report beside the
    /// measured timings.
    #[must_use]
    pub fn exact(value: Duration) -> Self {
        Self {
            iters: 1,
            min: value,
            mean: value,
            max: value,
        }
    }
}

/// Whether quick mode is active (`SPINDLE_BENCH_QUICK=1`): benches shrink
/// their warm-up and iteration counts so CI smoke jobs finish fast while
/// still exercising every code path and emitting the JSON report.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("SPINDLE_BENCH_QUICK").is_ok_and(|v| v == "1" || v == "true")
}

/// Serialises `(bench name → ns/iter)` pairs as a small JSON object and
/// writes them to `path`. No external JSON crate is available offline, so the
/// format is emitted by hand; names must not contain quotes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_json_report(
    path: &std::path::Path,
    entries: &[(String, Timing)],
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    for (i, (name, timing)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "  \"{name}\": {:.1}{comma}\n",
            timing.ns_per_iter()
        ));
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Times `f` over `iters` iterations after `warmup` untimed runs, printing a
/// one-line summary.
pub fn bench<F: FnMut()>(label: &str, warmup: u32, iters: u32, mut f: F) -> Timing {
    for _ in 0..warmup {
        f();
    }
    let iters = iters.max(1);
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        let elapsed = start.elapsed();
        min = min.min(elapsed);
        max = max.max(elapsed);
        total += elapsed;
    }
    let timing = Timing {
        iters,
        min,
        mean: total / iters,
        max,
    };
    println!(
        "{label:48} {:>9.3} ms/iter (min {:>9.3}, max {:>9.3}, n={})",
        timing.mean.as_secs_f64() * 1e3,
        timing.min.as_secs_f64() * 1e3,
        timing.max.as_secs_f64() * 1e3,
        timing.iters,
    );
    timing
}

/// Prints a section header for a group of related cases.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_statistics() {
        let mut count = 0u64;
        let t = bench("noop", 1, 5, || count += 1);
        assert_eq!(t.iters, 5);
        assert_eq!(count, 6); // warmup + timed
        assert!(t.min <= t.mean && t.mean <= t.max);
        assert!(t.mean_ms() >= 0.0);
        assert!((t.ns_per_iter() - t.mean_ms() * 1e6).abs() < 1e-6);
    }

    #[test]
    fn json_report_is_well_formed() {
        let t = bench("noop", 0, 3, || {});
        let dir = std::env::temp_dir().join("spindle-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_json_report(&path, &[("a".to_string(), t), ("b".to_string(), t)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"a\":"));
        assert!(text.contains("\"b\":"));
        // Exactly one separating comma for two entries.
        assert_eq!(text.matches(',').count(), 1);
    }
}
