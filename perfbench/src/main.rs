//! End-to-end and per-layer benchmark of the Spindle planner, runtime and
//! planning service.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8-cold --seed 1 --seconds 12 --trace 0
//! ```
//!
//! One run sets the workload up several times (reporting the median set-up
//! time), measures it for `--seconds`, checks the outputs, prints the work
//! counters and a human-readable summary, and ends with one JSON line. With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1` the
//! run is split into an untraced and a traced half, the line carries the
//! per-layer metrics plus the tracing overhead, and the spans are written as
//! a Chrome trace. See `perfbench/README.md`.

mod churn;
mod fig8;
mod metrics;
mod probe;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Report;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig8-cold", "churn-256", "service-tcp"];

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Longest a measured window may be stretched to collect enough samples for
/// its tail percentile, as a multiple of `--seconds`.
pub const MAX_STRETCH: f64 = 2.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Sets a workload up [`SETUP_REPS`] times, tearing all but the last down,
/// and returns the last one with the median set-up time in seconds, scaled
/// to the nominal host (see [`stats::HostSpeed`]).
///
/// # Errors
///
/// The first set-up error.
pub fn setup_median<T>(
    speed: &mut stats::HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            teardown(previous)?;
        }
        let factor = speed.measure();
        let start = Instant::now();
        let state = setup()?;
        times.push(start.elapsed().as_secs_f64() * factor);
        kept = Some(state);
    }
    Ok((kept.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// Records `op_p50_ms` and `op_tail_ms` (the workload's fixed tail
/// percentile `tail_q`) from `latencies_ms` (already scaled to the nominal
/// host), checking the tail rule; for a closed loop also `ops_per_s`,
/// operations per busy second.
pub fn record_latency(
    report: &mut Report,
    latencies_ms: &[f64],
    tail_q: f64,
    label: &str,
    closed_loop: bool,
) {
    let mut sorted = latencies_ms.to_vec();
    stats::sort(&mut sorted);
    let n = sorted.len();
    report.check(n > 0, || format!("{label}: no latency samples"));
    if n == 0 {
        return;
    }
    if closed_loop {
        report.set("ops_per_s", n as f64 * 1e3 / sorted.iter().sum::<f64>());
    }
    let p50 = stats::percentile(&sorted, 0.5);
    let tail = stats::percentile(&sorted, tail_q);
    let beyond = stats::beyond(n, tail_q);
    if stats::tail_quantile(n).is_none_or(|q| q < tail_q) {
        eprintln!(
            "warning: {label}: only {beyond} samples beyond p{}; the tail rule allows p{:?}",
            tail_q * 100.0,
            stats::tail_quantile(n).map(|q| q * 100.0)
        );
    }
    println!(
        "{label}: {n} samples, p50 {p50:.4} ms, p{} {tail:.4} ms ({beyond} beyond), max {:.4} ms",
        tail_q * 100.0,
        sorted[n - 1]
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", stats::percentile(&sorted, f64::from(d) / 10.0)))
        .collect();
    println!("{label}: deciles (ms) {}", deciles.join(" "));
    report.set("op_p50_ms", p50);
    report.set("op_tail_ms", tail);
}

/// In a traced run, measures an untraced half and then a traced half of
/// `seconds`, records the overhead of tracing on the median operation time
/// and returns the traced window with its spans. In an untraced run,
/// measures the whole window.
///
/// # Errors
///
/// Errors of `measure`.
pub fn measure_window<W>(
    args: &Args,
    report: &mut Report,
    mut measure: impl FnMut(f64) -> Result<W, String>,
    median_ms: impl Fn(&W) -> f64,
) -> Result<(W, Option<trace::Trace>), String> {
    if !args.trace {
        return Ok((measure(args.seconds)?, None));
    }
    let untraced = measure(args.seconds / 2.0)?;
    trace::start();
    let traced = measure(args.seconds / 2.0);
    let spans = trace::stop().expect("trace started above");
    let traced = traced?;
    let (a, b) = (median_ms(&untraced), median_ms(&traced));
    report.set("trace.overhead_frac", if a > 0.0 { b / a - 1.0 } else { 0.0 });
    println!(
        "tracing overhead: median op {a:.4} ms untraced vs {b:.4} ms traced; {} spans ({} dropped)",
        spans.spans().len(),
        spans.dropped()
    );
    Ok((traced, Some(spans)))
}

/// Where traces go: the build directory the benchmark runs from.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    )
}

/// Writes `trace` as Chrome trace-event JSON beside the build outputs.
pub fn export_trace(args: &Args, trace: &trace::Trace) {
    let dir = trace_dir().join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_chrome_json()))
    {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => eprintln!("warning: writing trace {}: {e}", path.display()),
    }
}

/// Sleeps-or-returns helper for open-loop pacing.
#[must_use]
pub fn until(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\nerror: {e}", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores available)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let result = match args.workload.as_str() {
        "fig8-cold" => fig8::run(&args),
        "churn-256" => churn::run(&args),
        "service-tcp" => service::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match stats::peak_rss_mib() {
        Ok(mib) => report.set("peak_rss_mib", mib),
        Err(e) => report.violations.push(e),
    }
    for (name, value) in &report.counters {
        println!("counter {name} = {value}");
    }
    println!("work fingerprint {:016x}", report.work_fingerprint());
    for (name, value) in &report.values {
        println!("metric {name} = {value}");
    }
    for v in &report.violations {
        eprintln!("check failed: {v}");
    }
    let (line, correct) = report.to_json(args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
