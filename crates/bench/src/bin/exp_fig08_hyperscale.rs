//! Fig. 8-style hyperscale comparison: Spindle vs the baselines at 256 and
//! 512 simulated GPUs on the hyperscale preset (48 and 64 heterogeneous
//! tasks), reporting per cell
//!
//! * simulated iteration time: serialized (the closed form — compute
//!   makespan, then every transmission, then every all-reduce) and
//!   contended (overlapped flows sharing links, all-reduces concurrent),
//! * average cluster utilization of the plan,
//! * planning wall-clock cost (cold session), and
//! * the makespan's gap to the level-synchronous theoretical optimum `Σ C̃*`.
//!
//! The iteration and planning times are written to `BENCH_fig8.json` in the
//! bench-gate report format (name → ns), so CI pins both the *model outputs*
//! and the planner's wall-clock cost trajectory at hyperscale. The model
//! outputs are deterministic: `fig8_iter_*` (the serialized simulator) and
//! `fig8_contended_*` (the contended simulator), for every system. The gate
//! pins them exactly — a change of more than 1 ns in either direction fails
//! — so any drift is a planner or simulator behaviour change.
//!
//! The binary itself asserts the headline claim of the paper's Fig. 8:
//! Spindle's iteration time beats the decoupled (DeepSpeed-style) baseline
//! at every scale. It exits non-zero if it does not.
//!
//! ```bash
//! cargo run --release -p spindle-bench --bin exp_fig08_hyperscale
//! SPINDLE_BENCH_QUICK=1 cargo run --release -p spindle-bench --bin exp_fig08_hyperscale
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use spindle_baselines::SystemKind;
use spindle_bench::microbench::{bench, quick_mode, write_json_report, Timing};
use spindle_bench::{measure, ms, paper_cluster, render_table, speedup};
use spindle_core::SpindleSession;
use spindle_runtime::{SimConfig, Simulator};
use spindle_workloads::hyperscale;

/// The compared systems: Spindle plus the three distinct baseline planning
/// strategies of Fig. 8 (Megatron-LM shares the decoupled path with
/// DeepSpeed at this abstraction level).
const SYSTEMS: [(SystemKind, &str); 4] = [
    (SystemKind::Spindle, "spindle"),
    (SystemKind::SpindleOptimus, "optimus"),
    (SystemKind::DistMmMt, "distmm"),
    (SystemKind::DeepSpeed, "deepspeed"),
];

/// The evaluated scales: (tasks, GPUs).
const CELLS: [(usize, usize); 2] = [(48, 256), (64, 512)];

fn report_path() -> PathBuf {
    if let Ok(path) = std::env::var("SPINDLE_BENCH_FIG8_OUT") {
        return PathBuf::from(path);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fig8.json")
}

/// Wraps a deterministic model output (seconds) as a [`Timing`] so it lands
/// in the report in the standard ns-per-iter unit.
fn deterministic(seconds: f64) -> Timing {
    let d = Duration::from_secs_f64(seconds);
    Timing {
        iters: 1,
        min: d,
        mean: d,
        max: d,
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let (warmup, iters) = if quick { (1, 3) } else { (2, 10) };
    println!(
        "Fig. 8 (hyperscale): Spindle vs baselines at 256-512 GPUs{}\n",
        if quick { " (quick mode)" } else { "" }
    );

    let mut report: Vec<(String, Timing)> = Vec::new();
    let mut failures = Vec::new();

    for (tasks, gpus) in CELLS {
        let graph = hyperscale(tasks).expect("hyperscale preset builds");
        let cluster = paper_cluster(gpus);
        println!("== {tasks} tasks on {gpus} GPUs ==");

        let mut cells: Vec<(SystemKind, f64, f64, f64, f64, f64)> = Vec::new();
        for (system, key) in SYSTEMS {
            // Planning cost: a cold session per run, exactly what a tenant
            // pays on first submission.
            let plan_timing = bench(
                &format!("fig8_plan_{key}_{tasks}t{gpus}gpu"),
                warmup,
                iters,
                || {
                    let mut session = SpindleSession::new(cluster.clone());
                    let _ = system
                        .planning_system()
                        .plan(&graph, &mut session)
                        .expect("planning the hyperscale preset succeeds");
                },
            );

            let mut session = SpindleSession::new(cluster.clone());
            let m = measure(system, &graph, &mut session);
            let optimum_s = session
                .theoretical_optimum(&graph)
                .expect("optimum is computable whenever planning succeeds");
            let makespan_s = m.plan.makespan();

            report.push((
                format!("fig8_iter_{key}_{tasks}t{gpus}gpu"),
                deterministic(m.iteration_ms / 1e3),
            ));
            report.push((format!("fig8_plan_{key}_{tasks}t{gpus}gpu"), plan_timing));
            let contended = Simulator::new(Arc::clone(&m.plan), &cluster)
                .with_graph(&graph)
                .with_config(SimConfig::contended())
                .run_iteration()
                .expect("the contended simulator runs every plan");
            report.push((
                format!("fig8_contended_{key}_{tasks}t{gpus}gpu"),
                deterministic(contended.total_s()),
            ));

            cells.push((
                system,
                m.iteration_ms,
                contended.total_ms(),
                m.plan.average_utilization(),
                plan_timing.mean_ms(),
                makespan_s / optimum_s,
            ));
        }

        let iter_of = |kind: SystemKind| {
            cells
                .iter()
                .find(|c| c.0 == kind)
                .map(|c| c.1)
                .expect("system is in SYSTEMS")
        };
        let spindle = iter_of(SystemKind::Spindle);
        let decoupled = iter_of(SystemKind::DeepSpeed);
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|&(system, iter_ms, contended_ms, util, plan_ms, vs_opt)| {
                vec![
                    system.label().to_string(),
                    ms(iter_ms),
                    ms(contended_ms),
                    format!("{:.1}%", util * 100.0),
                    ms(plan_ms),
                    format!("{vs_opt:.2}x"),
                    speedup(iter_ms / spindle),
                ]
            })
            .collect();
        println!(
            "\n{}",
            render_table(
                &[
                    "System",
                    "Iteration",
                    "Contended",
                    "Cluster util",
                    "Plan cost",
                    "Vs optimum",
                    "Slowdown vs Spindle",
                ],
                &rows,
            )
        );
        println!(
            "(\"Vs optimum\" compares against the level-synchronous bound Σ C̃*; \
             task-parallel Optimus plans may legitimately dip below 1.00x.)"
        );
        println!(
            "Spindle {} vs decoupled {} -> {} speedup\n",
            ms(spindle),
            ms(decoupled),
            speedup(decoupled / spindle)
        );
        if spindle >= decoupled {
            failures.push(format!(
                "{tasks}t/{gpus}gpu: Spindle ({}) does not beat the decoupled baseline ({})",
                ms(spindle),
                ms(decoupled)
            ));
        }
    }

    let path = report_path();
    write_json_report(&path, &report).expect("write BENCH_fig8.json");
    println!("wrote {} entries to {}", report.len(), path.display());

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
