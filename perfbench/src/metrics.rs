//! The metric catalogue, the per-run report and its one-line JSON form.
//!
//! Every workload prints every end-to-end metric in an untraced run and every
//! per-layer metric in a traced run. A per-layer metric of a layer the
//! workload does not reach reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("served_frac", "fraction"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("makespan_ms", "ms"),
    ("iter_ms", "ms"),
    ("iter_contended_ms", "ms"),
    ("optimum_ratio", "ratio"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.contract_us", "us"),
    ("estimator.curves_us", "us"),
    ("estimator.curve_fits", "count"),
    ("core.mpsp_us", "us"),
    ("core.bisection_iters", "count"),
    ("core.memory_annot_us", "us"),
    ("core.wavefront_us", "us"),
    ("core.waves_crafted", "count"),
    ("core.place_us", "us"),
    ("core.plan_us", "us"),
    ("core.plan_other_us", "us"),
    ("runtime.localize_us", "us"),
    ("runtime.sites", "count"),
    ("runtime.engine_us", "us"),
    ("runtime.sim_us", "us"),
    ("runtime.sim_events", "count"),
    ("runtime.sim_flows", "count"),
    ("runtime.sim_syncs", "count"),
    ("runtime.compute_ms", "ms"),
    ("runtime.comm_ms", "ms"),
    ("runtime.sync_ms", "ms"),
    ("core.replan_task_us", "us"),
    ("core.replan_device_us", "us"),
    ("core.levels_reused_ratio", "ratio"),
    ("core.placement_reused_ratio", "ratio"),
    ("core.levels_replaced", "count"),
    ("estimator.curve_hit_ratio", "ratio"),
    ("core.cache_bytes_max", "bytes"),
    ("core.cache_evictions", "count"),
    ("runtime.migrate_us", "us"),
    ("runtime.migration_bytes", "bytes"),
    ("runtime.restore_us", "us"),
    ("runtime.restore_bytes", "bytes"),
    ("service.submit_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.plan_us", "us"),
    ("service.transport_us", "us"),
    ("service.coalescing_ratio", "ratio"),
    ("service.rejected", "count"),
    ("service.throttled", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (plan errors, events never served).
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Deterministic work counters, printed beside the wall-clock numbers and
    /// hashed into the work fingerprint.
    pub counters: Vec<(String, u64)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a work counter.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Hash of every work counter: equal across runs of one seed.
    #[must_use]
    pub fn work_fingerprint(&self) -> u64 {
        let mut fp = crate::stats::Fnv::default();
        for (name, value) in &self.counters {
            for b in name.bytes() {
                fp.u64(u64::from(b));
            }
            fp.u64(*value);
        }
        fp.finish()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the catalogue's metrics for this mode. Missing or
    /// non-finite metrics make the run incorrect; per-layer metrics a
    /// workload does not reach read 0.
    #[must_use]
    pub fn to_json(&self, traced: bool) -> (String, bool) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut problems: Vec<String> = Vec::new();
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            if !valid_name(name) {
                problems.push(format!("metric name {name:?} is not printable"));
                continue;
            }
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => {
                    problems.push(format!("metric {name} was not measured"));
                    continue;
                }
            };
            if !value.is_finite() {
                problems.push(format!("metric {name} is not finite: {value}"));
                continue;
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.violations.is_empty() && problems.is_empty() && self.attempted > 0;
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        for p in problems {
            eprintln!("error: {p}");
        }
        (line, correct)
    }
}

/// A finite number in JSON syntax with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(value: f64) -> String {
    let s = format!("{value}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(valid_name("fig8-cold") && valid_name("core.plan_us"));
        assert!(!valid_name("_lead") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_names_every_metric_of_its_mode() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            report.set(name, 1.25);
        }
        let (line, correct) = report.to_json(false);
        assert!(correct);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
        let (traced, correct) = report.to_json(true);
        assert!(correct, "unreached layers read 0");
        for &(name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\": {{\"value\": 0.0,")));
        }
        report.values.remove("iter_ms");
        assert!(!report.to_json(false).1, "a missing end-to-end metric fails the run");
        report.set("iter_ms", f64::NAN);
        assert!(!report.to_json(false).1);
    }

    /// Minimal JSON reader for the test below: extracts the `name` fields of
    /// the objects in one top-level array of `BENCHMARK.json`.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let key = format!("\"{section}\"");
        let at = json.find(&key).unwrap_or_else(|| panic!("{section} missing"));
        let rest = &json[at + key.len()..];
        let open = rest.find('[').expect("array");
        let mut depth = 0;
        let mut end = open;
        for (i, c) in rest[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest[open..end]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let start = chunk.find('"').expect("name value") + 1;
                let len = chunk[start..].find('"').expect("closing quote");
                chunk[start..start + len].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runner_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the bench dir");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        let workloads = names_in(&json, "workloads");
        assert_eq!(workloads, crate::WORKLOADS);
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must carry unit {unit}"
            );
        }
    }
}
