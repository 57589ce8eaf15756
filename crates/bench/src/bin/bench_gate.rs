//! CI perf-regression gate: compares fresh bench reports against the
//! committed baseline and fails on significant slowdowns.
//!
//! ```bash
//! cargo run --release -p spindle-bench --bin bench_gate -- \
//!     BENCH_baseline.json BENCH_planning.json BENCH_sim.json BENCH_incremental.json
//! ```
//!
//! The first argument is the baseline; every further argument is a current
//! report (they are merged). Thresholds default to fail >30% / warn >15% and
//! can be overridden with `SPINDLE_GATE_FAIL_PCT` / `SPINDLE_GATE_WARN_PCT`
//! (whole percents); they do not apply to the deterministic `fig8_iter_*` and
//! `fig8_contended_*` model outputs, which fail on any change of more than
//! 1 ns. When `GITHUB_STEP_SUMMARY` is set, the markdown delta
//! table is appended there too. Exits non-zero if any entry fails the gate —
//! including when a baseline key is missing from the fresh reports (a bench
//! that silently vanished is treated as a regression, not skipped).

use std::io::Write as _;
use std::process::ExitCode;

use spindle_bench::gate::{compare, parse_flat_json, GateConfig};

fn read_report(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
    parse_flat_json(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn pct_env(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(default, |pct| pct / 100.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: bench_gate <baseline.json> <current.json>...");
        return ExitCode::from(2);
    }
    let config = GateConfig {
        fail_pct: pct_env("SPINDLE_GATE_FAIL_PCT", 0.30),
        warn_pct: pct_env("SPINDLE_GATE_WARN_PCT", 0.15),
        ..GateConfig::default()
    };
    let baseline = read_report(&args[0]);
    // Merge the current reports; later files win on duplicate names.
    let mut current: Vec<(String, f64)> = Vec::new();
    for path in &args[1..] {
        for (name, value) in read_report(path) {
            if let Some(slot) = current.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = value;
            } else {
                current.push((name, value));
            }
        }
    }

    let report = compare(&baseline, &current, &config);
    let table = report.to_markdown(&config);
    println!("{table}");
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(summary_path)
        {
            let _ = writeln!(f, "## Bench gate\n\n{table}");
        }
    }

    if report.failed() {
        eprintln!("bench gate FAILED: at least one bench regressed beyond the threshold");
        ExitCode::FAILURE
    } else {
        if report.warnings() > 0 {
            eprintln!("bench gate passed with {} warning(s)", report.warnings());
        } else {
            println!("bench gate passed");
        }
        ExitCode::SUCCESS
    }
}
