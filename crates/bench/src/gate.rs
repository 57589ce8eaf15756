//! The perf-regression gate: compares a bench report against a committed
//! baseline with noise-tolerant thresholds.
//!
//! Bench targets write flat JSON reports (`bench name → ns/iter`, see
//! [`microbench::write_json_report`](crate::microbench::write_json_report)).
//! The gate parses the committed `BENCH_baseline.json` and one or more fresh
//! reports, computes per-entry deltas, and classifies each entry:
//!
//! * **fail** — more than `fail_pct` slower than baseline (default 30%),
//! * **warn** — more than `warn_pct` slower (default 15%),
//! * **pass** — within the noise band (or faster),
//! * **new** — present only in the current report (informational),
//! * **gone** — a baseline key missing from the fresh run. This **fails**
//!   the gate: a silently vanished bench is indistinguishable from a
//!   regression nobody measures any more (remove the baseline entry
//!   deliberately when retiring a bench).
//!
//! Deterministic model outputs — `fig8_iter_*` and `fig8_contended_*`, the
//! Fig. 8 iteration times of the serialized (closed-form) and the contended
//! simulator — are not timings: they are pinned exactly, and a change of more
//! than 1 ns in either direction fails (a faster iteration is a behaviour
//! change too). Deterministic work counters — `work_*`, such as the events
//! and flow repricings of one contended simulation — are counts written in
//! place of ns/iter and fail on any change at all: doing less work for the
//! same output is a change the baseline must record.
//!
//! Entries whose baseline and current means are both under the noise floor
//! (default 500 ns) never fail: at that scale the timer resolution dominates.
//! Latency-distribution entries — names containing `_p99` — are gated with a
//! band twice as wide as means: a p99 is a single order statistic of a tail,
//! inherently noisier than a mean over many iterations, and gating it as
//! tightly would page on scheduler jitter rather than regressions.
//! No external JSON crate is available offline, so parsing is hand-rolled for
//! exactly the flat object shape the bench harness emits.

use std::fmt::Write as _;

/// Thresholds of the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Relative slowdown that fails the gate (0.30 = +30%).
    pub fail_pct: f64,
    /// Relative slowdown that warns (0.15 = +15%).
    pub warn_pct: f64,
    /// Entries with both sides under this many ns/iter never fail or warn.
    pub noise_floor_ns: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            fail_pct: 0.30,
            warn_pct: 0.15,
            noise_floor_ns: 500.0,
        }
    }
}

impl GateConfig {
    /// How much wider the tolerance band of a tail-latency entry is than a
    /// mean's: a p99 is one order statistic, not an average, so the same
    /// percentage band would flag scheduler jitter as a regression.
    pub const TAIL_BAND_FACTOR: f64 = 2.0;

    /// The largest change, in ns, an exact entry may show: model outputs are
    /// written rounded to whole nanoseconds.
    pub const EXACT_TOLERANCE_NS: f64 = 1.0;

    /// Name prefix of the deterministic work counters, pinned with no
    /// tolerance at all.
    pub const COUNTER_PREFIX: &'static str = "work_";

    /// `true` for entries gated with the widened tail band (latency
    /// percentile keys, marked by a `_p99` name segment).
    #[must_use]
    pub fn is_tail_entry(name: &str) -> bool {
        name.contains("_p99")
    }

    /// `true` for deterministic model outputs and work counters, pinned in
    /// either direction (see [`Self::exact_tolerance_for`]) instead of gated
    /// with a slowdown band.
    #[must_use]
    pub fn is_exact_entry(name: &str) -> bool {
        name.starts_with("fig8_iter_")
            || name.starts_with("fig8_contended_")
            || name.starts_with(Self::COUNTER_PREFIX)
    }

    /// The largest change an exact entry may show: none for a work counter,
    /// [`Self::EXACT_TOLERANCE_NS`] for a model output.
    #[must_use]
    pub fn exact_tolerance_for(name: &str) -> f64 {
        if name.starts_with(Self::COUNTER_PREFIX) {
            0.0
        } else {
            Self::EXACT_TOLERANCE_NS
        }
    }

    /// The fail threshold applied to `name`.
    #[must_use]
    pub fn fail_pct_for(&self, name: &str) -> f64 {
        if Self::is_tail_entry(name) {
            self.fail_pct * Self::TAIL_BAND_FACTOR
        } else {
            self.fail_pct
        }
    }

    /// The warn threshold applied to `name`.
    #[must_use]
    pub fn warn_pct_for(&self, name: &str) -> f64 {
        if Self::is_tail_entry(name) {
            self.warn_pct * Self::TAIL_BAND_FACTOR
        } else {
            self.warn_pct
        }
    }
}

/// Classification of one gate entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise band (or faster than baseline).
    Pass,
    /// Slower than the warn threshold but within the fail threshold.
    Warn,
    /// Slower than the fail threshold.
    Fail,
    /// Present only in the current report (a newly added bench).
    New,
    /// Present only in the baseline (a removed bench) — fails the gate.
    Gone,
}

impl Verdict {
    /// Short marker used in the delta table.
    #[must_use]
    pub fn marker(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
            Verdict::New => "new",
            Verdict::Gone => "gone",
        }
    }
}

/// One compared bench entry.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Bench name.
    pub name: String,
    /// Baseline mean, ns/iter (`None` for new benches).
    pub baseline_ns: Option<f64>,
    /// Current mean, ns/iter (`None` for removed benches).
    pub current_ns: Option<f64>,
    /// Relative delta `current/baseline - 1` when both sides exist.
    pub delta: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The full gate result.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Compared entries, in baseline order followed by new entries.
    pub entries: Vec<GateEntry>,
}

impl GateReport {
    /// Returns `true` if any entry failed — either a slowdown beyond the
    /// threshold or a baseline key missing from the fresh run.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e.verdict, Verdict::Fail | Verdict::Gone))
    }

    /// Number of warning entries.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.verdict == Verdict::Warn)
            .count()
    }

    /// Renders the delta table as GitHub-flavoured markdown (also perfectly
    /// readable in a terminal).
    #[must_use]
    pub fn to_markdown(&self, config: &GateConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| bench | baseline ns/iter | current ns/iter | delta | verdict |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---|");
        for e in &self.entries {
            let baseline = e.baseline_ns.map_or("—".to_string(), |v| format!("{v:.0}"));
            let current = e.current_ns.map_or("—".to_string(), |v| format!("{v:.0}"));
            let delta = e
                .delta
                .map_or("—".to_string(), |d| format!("{:+.1}%", d * 100.0));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                e.name,
                baseline,
                current,
                delta,
                e.verdict.marker()
            );
        }
        let _ = writeln!(
            out,
            "\nthresholds: fail >{:.0}% slowdown, warn >{:.0}%, noise floor {:.0} ns \
             ({}x band for _p99 tail entries; fig8_iter_/fig8_contended_ pinned to ±{} ns, \
             {}* counters exactly)",
            config.fail_pct * 100.0,
            config.warn_pct * 100.0,
            config.noise_floor_ns,
            GateConfig::TAIL_BAND_FACTOR,
            GateConfig::EXACT_TOLERANCE_NS,
            GateConfig::COUNTER_PREFIX
        );
        out
    }
}

/// Parses the flat `{"name": number, ...}` JSON shape emitted by the bench
/// harness.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let trimmed = text.trim();
    let inner = trimmed
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "expected a top-level JSON object".to_string())?;
    let mut entries = Vec::new();
    for segment in inner.split(',') {
        let segment = segment.trim();
        if segment.is_empty() {
            continue;
        }
        let (key, value) = segment
            .split_once(':')
            .ok_or_else(|| format!("malformed entry: {segment:?}"))?;
        let key = key.trim();
        let key = key
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key: {key:?}"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number for {key:?}: {e}"))?;
        entries.push((key.to_string(), value));
    }
    Ok(entries)
}

/// Compares `current` against `baseline` under `config`.
#[must_use]
pub fn compare(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    config: &GateConfig,
) -> GateReport {
    let lookup = |set: &[(String, f64)], name: &str| -> Option<f64> {
        set.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    let mut entries = Vec::new();
    for (name, base) in baseline {
        match lookup(current, name) {
            Some(cur) => {
                let delta = cur / base.max(f64::MIN_POSITIVE) - 1.0;
                let in_noise_floor = *base < config.noise_floor_ns && cur < config.noise_floor_ns;
                let verdict = if GateConfig::is_exact_entry(name) {
                    if (cur - base).abs() > GateConfig::exact_tolerance_for(name) {
                        Verdict::Fail
                    } else {
                        Verdict::Pass
                    }
                } else if in_noise_floor || delta <= config.warn_pct_for(name) {
                    Verdict::Pass
                } else if delta <= config.fail_pct_for(name) {
                    Verdict::Warn
                } else {
                    Verdict::Fail
                };
                entries.push(GateEntry {
                    name: name.clone(),
                    baseline_ns: Some(*base),
                    current_ns: Some(cur),
                    delta: Some(delta),
                    verdict,
                });
            }
            None => entries.push(GateEntry {
                name: name.clone(),
                baseline_ns: Some(*base),
                current_ns: None,
                delta: None,
                verdict: Verdict::Gone,
            }),
        }
    }
    for (name, cur) in current {
        if lookup(baseline, name).is_none() {
            entries.push(GateEntry {
                name: name.clone(),
                baseline_ns: None,
                current_ns: Some(*cur),
                delta: None,
                verdict: Verdict::New,
            });
        }
    }
    GateReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn parse_roundtrips_the_harness_format() {
        let text = "{\n  \"a\": 123.4,\n  \"b_c/d\": 5000.0\n}\n";
        let parsed = parse_flat_json(text).unwrap();
        assert_eq!(parsed, set(&[("a", 123.4), ("b_c/d", 5000.0)]));
        assert_eq!(parse_flat_json("{}").unwrap(), Vec::new());
        assert!(parse_flat_json("[1,2]").is_err());
        assert!(parse_flat_json("{\"a\" 1}").is_err());
        assert!(parse_flat_json("{\"a\": x}").is_err());
        assert!(parse_flat_json("{a: 1}").is_err());
    }

    #[test]
    fn verdicts_follow_the_thresholds() {
        let config = GateConfig::default();
        let baseline = set(&[
            ("steady", 10_000.0),
            ("warned", 10_000.0),
            ("failed", 10_000.0),
            ("faster", 10_000.0),
            ("removed", 10_000.0),
        ]);
        let current = set(&[
            ("steady", 10_500.0), // +5% -> pass
            ("warned", 12_000.0), // +20% -> warn
            ("failed", 14_000.0), // +40% -> fail
            ("faster", 6_000.0),  // -40% -> pass
            ("brand_new", 1_000.0),
        ]);
        let report = compare(&baseline, &current, &config);
        let verdict = |name: &str| {
            report
                .entries
                .iter()
                .find(|e| e.name == name)
                .unwrap()
                .verdict
        };
        assert_eq!(verdict("steady"), Verdict::Pass);
        assert_eq!(verdict("warned"), Verdict::Warn);
        assert_eq!(verdict("failed"), Verdict::Fail);
        assert_eq!(verdict("faster"), Verdict::Pass);
        assert_eq!(verdict("removed"), Verdict::Gone);
        assert_eq!(verdict("brand_new"), Verdict::New);
        assert!(report.failed());
        assert_eq!(report.warnings(), 1);
    }

    #[test]
    fn missing_baseline_key_alone_fails_the_gate() {
        // A fresh run that silently drops a bench must not pass: the gate
        // would otherwise stop guarding that path without anyone noticing.
        let config = GateConfig::default();
        let baseline = set(&[("kept", 10_000.0), ("vanished", 10_000.0)]);
        let current = set(&[("kept", 10_000.0)]);
        let report = compare(&baseline, &current, &config);
        assert!(report.failed(), "a gone entry must fail the gate");
        assert_eq!(report.warnings(), 0);
        // A new bench on its own stays informational.
        let report = compare(
            &set(&[("kept", 10_000.0)]),
            &set(&[("kept", 10_000.0), ("added", 1.0)]),
            &config,
        );
        assert!(!report.failed());
    }

    #[test]
    fn p99_entries_get_twice_the_band() {
        let config = GateConfig::default();
        let baseline = set(&[
            ("service_replan_p99_clip", 10_000.0),
            ("service_replan_p50_clip", 10_000.0),
        ]);
        // +40%: fails a mean-gated entry, only warns a tail-gated one
        // (2x band: warn >30%, fail >60%).
        let current = set(&[
            ("service_replan_p99_clip", 14_000.0),
            ("service_replan_p50_clip", 14_000.0),
        ]);
        let report = compare(&baseline, &current, &config);
        let verdict = |name: &str| {
            report
                .entries
                .iter()
                .find(|e| e.name == name)
                .unwrap()
                .verdict
        };
        assert_eq!(verdict("service_replan_p99_clip"), Verdict::Warn);
        assert_eq!(verdict("service_replan_p50_clip"), Verdict::Fail);
        // +25% passes a tail entry (within the widened warn band) but warns
        // a mean entry; +70% fails even the tail.
        let report = compare(
            &set(&[("x_p99", 10_000.0), ("x", 10_000.0)]),
            &set(&[("x_p99", 12_500.0), ("x", 12_500.0)]),
            &config,
        );
        assert_eq!(report.entries[0].verdict, Verdict::Pass);
        assert_eq!(report.entries[1].verdict, Verdict::Warn);
        let report = compare(
            &set(&[("x_p99", 10_000.0)]),
            &set(&[("x_p99", 17_500.0)]),
            &config,
        );
        assert_eq!(report.entries[0].verdict, Verdict::Fail);
        assert!(GateConfig::is_tail_entry("service_replan_p99_hyper-fleet"));
        assert!(!GateConfig::is_tail_entry("service_replan_p50_hyper-fleet"));
    }

    #[test]
    fn model_output_entries_are_pinned_in_both_directions() {
        let config = GateConfig::default();
        let key = "fig8_iter_spindle_48t256gpu";
        let contended = "fig8_contended_spindle_48t256gpu";
        let verdict = |name: &str, base: f64, cur: f64| {
            compare(&set(&[(name, base)]), &set(&[(name, cur)]), &config).entries[0].verdict
        };
        // 1% faster is a behaviour change, not a speed-up.
        assert_eq!(verdict(key, 206_944_207.0, 204_874_765.0), Verdict::Fail);
        assert_eq!(
            verdict(contended, 62_738_487.0, 62_111_102.0),
            Verdict::Fail
        );
        // So is 2 ns slower, far inside the 30% band of a timing entry.
        assert_eq!(verdict(key, 206_944_207.0, 206_944_209.0), Verdict::Fail);
        // Equal values and a 1 ns rounding difference pass.
        assert_eq!(verdict(key, 206_944_207.0, 206_944_207.0), Verdict::Pass);
        assert_eq!(
            verdict(contended, 62_738_487.0, 62_738_486.0),
            Verdict::Pass
        );
        // Wall-clock keys next to them keep the slowdown band.
        assert_eq!(
            verdict("fig8_plan_spindle_48t256gpu", 3_400_000.0, 3_000_000.0),
            Verdict::Pass
        );
        assert!(GateConfig::is_exact_entry(contended));
        assert!(!GateConfig::is_exact_entry("fig8_plan_spindle_48t256gpu"));
        assert!(!GateConfig::is_exact_entry("sim_contended_clip-4t/16gpu"));
    }

    #[test]
    fn work_counters_fail_on_any_change() {
        let config = GateConfig::default();
        let repriced = "work_sim_flows_repriced_hyperscale-48t/256gpu";
        let events = "work_sim_events_hyperscale-48t/256gpu";
        let verdict = |name: &str, base: f64, cur: f64| {
            compare(&set(&[(name, base)]), &set(&[(name, cur)]), &config).entries[0].verdict
        };
        // A doubled reprice count fails, and so does one repricing more or
        // fewer, which a timing's 1 ns tolerance would let through.
        assert_eq!(verdict(repriced, 1964.0, 3928.0), Verdict::Fail);
        assert_eq!(verdict(repriced, 1964.0, 1965.0), Verdict::Fail);
        assert_eq!(verdict(repriced, 1964.0, 1963.0), Verdict::Fail);
        assert_eq!(verdict(repriced, 1964.0, 1964.0), Verdict::Pass);
        // Counts below the noise floor are pinned too.
        assert_eq!(verdict(events, 40.0, 80.0), Verdict::Fail);
        assert!(GateConfig::is_exact_entry(repriced));
        assert_eq!(GateConfig::exact_tolerance_for(repriced), 0.0);
        assert_eq!(
            GateConfig::exact_tolerance_for("fig8_iter_spindle_48t256gpu"),
            GateConfig::EXACT_TOLERANCE_NS
        );
        assert!(!GateConfig::is_exact_entry(
            "sim_contended_hyperscale-48t/256gpu"
        ));
    }

    #[test]
    fn noise_floor_shields_tiny_benches() {
        let config = GateConfig::default();
        let baseline = set(&[("tiny", 100.0)]);
        let current = set(&[("tiny", 400.0)]); // 4x slower but sub-floor
        let report = compare(&baseline, &current, &config);
        assert_eq!(report.entries[0].verdict, Verdict::Pass);
        assert!(!report.failed());
        // Above the floor the same ratio fails.
        let report = compare(
            &set(&[("big", 100_000.0)]),
            &set(&[("big", 400_000.0)]),
            &config,
        );
        assert!(report.failed());
    }

    #[test]
    fn tail_band_noise_floor_and_gone_compose() {
        let config = GateConfig::default();

        // A vanished tail entry is still Gone and still fails: the widened
        // band only softens *slowdowns*, it never excuses a bench that
        // silently stopped running.
        let report = compare(
            &set(&[("service_replan_p99_fleet", 2_000_000.0)]),
            &set(&[]),
            &config,
        );
        assert_eq!(report.entries[0].verdict, Verdict::Gone);
        assert!(report.failed());

        // The noise floor shields tail entries exactly like mean entries:
        // both sides sub-floor passes regardless of the ratio...
        let report = compare(
            &set(&[("tiny_p99", 100.0)]),
            &set(&[("tiny_p99", 499.0)]),
            &config,
        );
        assert_eq!(report.entries[0].verdict, Verdict::Pass);
        // ...but the shield needs BOTH sides below 500ns — a bench growing
        // *across* the floor is judged on its delta, with the tail band
        // applied on top (+60% is the tail fail boundary, so +500% fails).
        let report = compare(
            &set(&[("grew_p99", 100.0)]),
            &set(&[("grew_p99", 600.0)]),
            &config,
        );
        assert_eq!(report.entries[0].verdict, Verdict::Fail);
        assert!(report.failed());

        // Just inside the widened boundaries: +59.99% is still a Warn for a
        // tail entry (its fail band ends at +60%), while the same workload
        // delta on a mean entry is far past its +30% band and fails — and a
        // mean entry at +29.99% is the Warn the tail band would have passed.
        let report = compare(
            &set(&[
                ("edge_p99", 10_000.0),
                ("edge", 10_000.0),
                ("mean_warn", 10_000.0),
            ]),
            &set(&[
                ("edge_p99", 15_999.0),
                ("edge", 15_999.0),
                ("mean_warn", 12_999.0),
            ]),
            &config,
        );
        assert_eq!(report.entries[0].verdict, Verdict::Warn);
        assert_eq!(report.entries[1].verdict, Verdict::Fail);
        assert_eq!(report.entries[2].verdict, Verdict::Warn);

        // `_p99` is recognised as a name segment anywhere in the key, and
        // near-misses stay on the mean band.
        assert!(GateConfig::is_tail_entry("fig8_p99_iter_spindle"));
        assert!(!GateConfig::is_tail_entry("fig8_iter_spindle_48t256gpu"));
        assert!(!GateConfig::is_tail_entry("service_replan_p90_fleet"));

        // Speedups pass even when enormous — the gate is one-sided.
        let report = compare(
            &set(&[("fast_p99", 1_000_000.0), ("fast", 1_000_000.0)]),
            &set(&[("fast_p99", 1_000.0), ("fast", 1_000.0)]),
            &config,
        );
        assert!(report.entries.iter().all(|e| e.verdict == Verdict::Pass));
    }

    #[test]
    fn markdown_table_lists_every_entry() {
        let config = GateConfig::default();
        let report = compare(
            &set(&[("a", 1000.0), ("b", 2000.0)]),
            &set(&[("a", 1100.0), ("c", 3000.0)]),
            &config,
        );
        let md = report.to_markdown(&config);
        assert!(md.contains("| a |"));
        assert!(md.contains("| b |"));
        assert!(md.contains("| c |"));
        assert!(md.contains("gone"));
        assert!(md.contains("new"));
        assert!(md.contains("+10.0%"));
        assert!(md.contains("thresholds: fail >30%"));
        // Header + separator + 3 entries + blank + thresholds.
        assert_eq!(md.lines().count(), 7);
    }
}
