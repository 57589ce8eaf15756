//! Order statistics, the tail-percentile rule, memory readings and the work
//! fingerprint shared by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Nearest rank of the `q`-percentile among `n` samples (1-based).
fn rank(n: usize, q: f64) -> usize {
    // The small slack keeps products like 100 * 0.9 from rounding up a rank.
    ((n as f64 * q - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Number of samples strictly beyond the nearest-rank `q`-percentile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest ladder percentile with at least ten samples beyond it, or
/// `None` when even the median has fewer.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&q| beyond(n, q) >= 10)
}

/// Fewest samples for which `q` is a valid tail under [`tail_quantile`].
#[must_use]
pub fn min_samples_for(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= 10).expect("some n works")
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(sorted.len(), q) - 1]
}

/// Reference-job time, ms, of the nominal host that wall-clock figures are
/// scaled to (a quiet 2-core x86-64 cloud VM).
pub const NOMINAL_REFERENCE_MS: f64 = 1.75;

/// How often [`HostSpeed`] re-times the reference job by default.
pub const SPEED_PERIOD: Duration = Duration::from_millis(250);

/// Times a fixed job that shares no code with the program under test
/// (sorting, an ordered map and float arithmetic over seeded data), ms.
#[must_use]
pub fn reference_job_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut values: Vec<u64> = (0..40_000).map(|_| next()).collect();
    values.sort_unstable();
    let mut map = BTreeMap::new();
    let mut acc = 0.0f64;
    for (i, v) in values.iter().enumerate().step_by(4) {
        map.insert(v.rotate_left(17), i);
        acc += (*v as f64).sqrt().ln_1p();
    }
    std::hint::black_box((map.len(), acc));
    start.elapsed().as_secs_f64() * 1e3
}

/// Tracks how fast the host runs right now. On a shared machine,
/// neighbours slow the whole process for seconds to minutes at a time; a
/// fixed reference job slows by the same factor, so scaling a wall-clock
/// time by `NOMINAL_REFERENCE_MS / reference time` reports what it would
/// have been on the nominal host. The reference job shares no code with the
/// program under test, so a faster program still reads faster.
#[derive(Debug)]
pub struct HostSpeed {
    period: Duration,
    measured_at: Option<Instant>,
    factor: f64,
    factors: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::every(SPEED_PERIOD)
    }
}

impl HostSpeed {
    /// A tracker that re-times the reference job at most once per `period`
    /// (`Duration::ZERO`: before every operation).
    #[must_use]
    pub fn every(period: Duration) -> Self {
        Self {
            period,
            measured_at: None,
            factor: 1.0,
            factors: Vec::new(),
        }
    }

    /// Re-times the reference job (best of three) and returns the new
    /// scale factor.
    pub fn measure(&mut self) -> f64 {
        let best = (0..3).map(|_| reference_job_ms()).fold(f64::MAX, f64::min);
        self.factor = NOMINAL_REFERENCE_MS / best;
        self.factors.push(self.factor);
        self.measured_at = Some(Instant::now());
        self.factor
    }

    /// The current scale factor, re-measured once per period. Call it
    /// between timed operations, never inside one.
    pub fn factor(&mut self) -> f64 {
        match self.measured_at {
            Some(at) if at.elapsed() < self.period => self.factor,
            _ => self.measure(),
        }
    }

    /// Median of every factor measured so far (1 before any measurement).
    #[must_use]
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            median(&self.factors)
        }
    }
}

/// Sorts `values` ascending (total order).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// FNV-1a accumulator behind the work fingerprint and plan fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word into the hash.
    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(9), None);
        assert_eq!(tail_quantile(10), None, "the median of 10 has 5 beyond");
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for q in TAIL_LADDER {
            let n = min_samples_for(q);
            assert!(beyond(n, q) >= 10 && beyond(n - 1, q) < 10, "q={q} n={n}");
        }
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.99), 1000);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn host_speed_scales_to_the_nominal_host_and_caches_its_factor() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.median_factor(), 1.0);
        let f = speed.factor();
        assert!(f > 0.0 && f.is_finite());
        // Within one period the factor is reused, not re-measured.
        assert_eq!(speed.factor(), f);
        assert_eq!(speed.factors.len(), 1);
        speed.measure();
        assert_eq!(speed.factors.len(), 2);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
