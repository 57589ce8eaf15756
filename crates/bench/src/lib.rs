//! # spindle-bench
//!
//! Benchmark harness reproducing every table and figure of the Spindle paper's
//! evaluation (§5 and Appendices D–H). Each experiment is a standalone binary
//! in `src/bin/` that prints the same rows / series the paper reports; the
//! [`microbench`]-based benches in `benches/` time the planner components
//! themselves (criterion is unavailable offline, so timing is hand-rolled).
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `exp_fig01_decoupled_utilization` | Fig. 1 (lower): utilization fluctuation of decoupled execution |
//! | `exp_fig04_scaling_curves` | Fig. 4: MetaOp execution time & resource scalability |
//! | `exp_fig08_end_to_end` | Fig. 8: end-to-end iteration time, 5 systems × 6 workloads × cluster sizes |
//! | `exp_fig09_case_study` | Fig. 9: cluster / device / MetaOp utilization case study |
//! | `exp_fig10_time_breakdown` | Fig. 10: time breakdown + device-placement ablation |
//! | `exp_fig11_optimality` | Fig. 11: deviation from the theoretical optimum |
//! | `exp_fig12_planner_cost` | Fig. 12: execution-planner wall-clock cost |
//! | `exp_fig13_dynamic` | Fig. 13 (App. D): dynamic multi-task workloads |
//! | `exp_fig14_single_task` | Fig. 14 (App. F): single-task multi-modal comparison |
//! | `exp_fig15_memory` | Fig. 15 (App. G): per-device memory consumption |
//! | `exp_fig16_spindle_seq` | Fig. 16 (App. H): Spindle-Seq implementation overhead |
//! | `exp_tab01_setup` | Tab. 1a/1b: evaluated systems and workloads |
//! | `exp_tab02_large_scale` | Tab. 2 (App. E): 30B/70B simulations on 256 GPUs |

#![warn(missing_docs)]

pub mod fuzz;
pub mod gate;
pub mod microbench;

use std::fmt::Write as _;

use spindle_baselines::SystemKind;
use spindle_cluster::ClusterSpec;
use std::sync::Arc;

use spindle_core::{ExecutionPlan, PlacementStrategy, PlannerConfig, SpindleSession};
use spindle_graph::ComputationGraph;
use spindle_runtime::{LocalizedPlan, SimConfig, SimReport};
use spindle_workloads::WorkloadPreset;

/// One measured (system, workload, cluster) cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The system that produced the plan.
    pub system: SystemKind,
    /// End-to-end iteration time in milliseconds.
    pub iteration_ms: f64,
    /// Full iteration report (breakdown, utilization, memory).
    pub report: SimReport,
    /// The execution plan (for plan-level statistics), shared with the
    /// simulator that executed it — no copy is made.
    pub plan: Arc<ExecutionPlan>,
    /// The plan localised and priced on the session's cluster: run it under
    /// further configurations without localising it again.
    pub localized: LocalizedPlan,
}

/// Plans and simulates one iteration of `graph` within `session` with
/// `system`, going through [`SystemKind::plan`]. Reusing one session
/// across systems and phases shares the curve cache, exactly as a long-lived
/// deployment would.
///
/// # Panics
///
/// Panics if planning or simulation fails — experiment binaries treat that as
/// a fatal configuration error.
#[must_use]
pub fn measure(
    system: SystemKind,
    graph: &ComputationGraph,
    session: &mut SpindleSession,
) -> Measurement {
    let plan = Arc::new(
        system
            .plan(graph, session)
            .unwrap_or_else(|e| panic!("{system} failed to plan: {e}")),
    );
    let localized = LocalizedPlan::new(Arc::clone(&plan), session.cluster_handle(), Some(graph))
        .unwrap_or_else(|e| panic!("{system} failed to run: {e}"));
    let report = localized.run(&SimConfig::default());
    Measurement {
        system,
        iteration_ms: report.iteration_time_ms(),
        report,
        plan,
        localized,
    }
}

/// Measures Spindle with an explicit placement strategy (used by the Fig. 10
/// ablation, where `Sequential` is the "w/o DP" variant).
#[must_use]
pub fn measure_spindle_with_placement(
    graph: &ComputationGraph,
    cluster: &ClusterSpec,
    placement: PlacementStrategy,
) -> Measurement {
    let mut session = SpindleSession::with_config(
        cluster.clone(),
        PlannerConfig {
            placement,
            ..PlannerConfig::default()
        },
    );
    measure(SystemKind::Spindle, graph, &mut session)
}

/// The standard cluster used throughout the evaluation: `num_gpus` A800s in
/// nodes of eight (1 node = 8 GPUs, 2 nodes = 16 GPUs, ...).
///
/// # Panics
///
/// Panics if `num_gpus` is zero.
#[must_use]
pub fn paper_cluster(num_gpus: usize) -> ClusterSpec {
    assert!(num_gpus > 0, "cluster must have at least one GPU");
    if num_gpus < 8 {
        ClusterSpec::homogeneous(1, num_gpus)
    } else {
        assert!(
            num_gpus % 8 == 0,
            "multi-node clusters come in units of 8 GPUs"
        );
        ClusterSpec::homogeneous(num_gpus / 8, 8)
    }
}

/// Human-readable cluster label used in the paper's figures ("1Node(8GPUs)").
#[must_use]
pub fn cluster_label(num_gpus: usize) -> String {
    let nodes = (num_gpus / 8).max(1);
    format!(
        "{nodes}Node{}({num_gpus}GPUs)",
        if nodes > 1 { "s" } else { "" }
    )
}

/// Runs the full Fig. 8 comparison for one workload preset on one cluster
/// size: every system of Tab. 1a, with speedups relative to DeepSpeed.
#[must_use]
pub fn compare_systems(preset: WorkloadPreset, num_gpus: usize) -> Vec<(SystemKind, f64, f64)> {
    let graph = preset.build().expect("preset builds");
    let mut session = SpindleSession::new(paper_cluster(num_gpus));
    let measurements: Vec<Measurement> = SystemKind::ALL
        .iter()
        .map(|&kind| measure(kind, &graph, &mut session))
        .collect();
    let reference = measurements
        .iter()
        .find(|m| m.system == SystemKind::DeepSpeed)
        .map_or(1.0, |m| m.iteration_ms);
    measurements
        .into_iter()
        .map(|m| (m.system, m.iteration_ms, reference / m.iteration_ms))
        .collect()
}

/// Renders a simple fixed-width table. `header` and every row must have the
/// same number of columns.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
        }
        out.push_str("|\n");
    };
    write_row(
        &header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
        &mut out,
    );
    let mut sep = String::new();
    for w in &widths {
        let _ = write!(sep, "|{}", "-".repeat(w + 2));
    }
    sep.push_str("|\n");
    out.push_str(&sep);
    for row in rows {
        write_row(row, &mut out);
    }
    out
}

/// Formats a milliseconds value with one decimal.
#[must_use]
pub fn ms(value: f64) -> String {
    format!("{value:.1}")
}

/// Formats a speedup as the paper does ("1.22x").
#[must_use]
pub fn speedup(value: f64) -> String {
    format!("{value:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_workloads::multitask_clip_with_batch;

    #[test]
    fn paper_cluster_shapes() {
        assert_eq!(paper_cluster(8).num_nodes(), 1);
        assert_eq!(paper_cluster(32).num_nodes(), 4);
        assert_eq!(paper_cluster(4).num_devices(), 4);
        assert_eq!(cluster_label(8), "1Node(8GPUs)");
        assert_eq!(cluster_label(32), "4Nodes(32GPUs)");
    }

    #[test]
    fn measure_and_compare_produce_consistent_speedups() {
        let graph = multitask_clip_with_batch(2, 0.5).unwrap();
        let mut session = SpindleSession::new(paper_cluster(8));
        let spindle = measure(SystemKind::Spindle, &graph, &mut session);
        let deepspeed = measure(SystemKind::DeepSpeed, &graph, &mut session);
        assert!(spindle.iteration_ms > 0.0);
        assert!(deepspeed.iteration_ms > 0.0);
        let s = deepspeed.iteration_ms / spindle.iteration_ms;
        assert!(s > 0.5 && s < 10.0);
    }

    #[test]
    fn placement_ablation_measurement_works() {
        let graph = multitask_clip_with_batch(2, 0.5).unwrap();
        let cluster = paper_cluster(8);
        let locality =
            measure_spindle_with_placement(&graph, &cluster, PlacementStrategy::Locality);
        let sequential =
            measure_spindle_with_placement(&graph, &cluster, PlacementStrategy::Sequential);
        assert!(locality.iteration_ms > 0.0);
        assert!(sequential.iteration_ms > 0.0);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["System", "Time"],
            &[
                vec!["Spindle".to_string(), ms(12.345)],
                vec!["DeepSpeed".to_string(), ms(20.0)],
            ],
        );
        assert!(table.contains("| Spindle"));
        assert!(table.contains("12.3"));
        assert!(table.lines().count() >= 4);
        assert_eq!(speedup(1.2245), "1.22x");
    }
}
