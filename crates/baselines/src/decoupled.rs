//! Decoupled, sequentially executed baselines: Megatron-LM, DeepSpeed and
//! Spindle-Seq.
//!
//! The paper notes that naïvely decoupling sub-models onto separate devices is
//! impractical, so the SOTA baselines are evaluated by decoupling on the
//! *temporal* dimension: within an iteration each task occupies the whole
//! cluster for a slice of time and its operators execute one after another
//! (§5.1). Megatron-LM tunes a hybrid (data × tensor)-parallel configuration
//! per operator; DeepSpeed uses ZeRO-style pure data parallelism.

use std::time::Instant;

use spindle_core::{ExecutionPlan, PlanError, SpindleSession, Wave, WaveEntry};
use spindle_estimator::{AnalyticGpuModel, ParallelConfig};
use spindle_graph::ComputationGraph;

use crate::common::BaselineContext;

/// The per-operator parallelisation style of a decoupled baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecoupledParallelism {
    /// Megatron-LM-style: the best valid hybrid data × tensor configuration
    /// (manually tuned, here chosen by exhaustive search over valid configs).
    HybridBest,
    /// DeepSpeed-style: ZeRO data parallelism only.
    DataParallelOnly,
}

/// Plans `graph` as a decoupled (task-sequential, whole-cluster) baseline
/// with the given parallelisation style within `session`.
pub(crate) fn plan(
    parallelism: DecoupledParallelism,
    graph: &ComputationGraph,
    session: &SpindleSession,
) -> Result<ExecutionPlan, PlanError> {
    let started = Instant::now();
    let ctx = BaselineContext::from_session(graph, session)?;
    let model = AnalyticGpuModel::new(session.cluster());
    let mut waves: Vec<Wave> = Vec::new();
    let mut now = 0.0f64;

    // Tasks execute one after another; within a task, operators execute in
    // dependency order, each occupying the whole cluster.
    for metaops in ctx.task_metaops.values() {
        for &metaop_id in metaops {
            let metaop = ctx.metagraph().metaop(metaop_id);
            let rep = metaop.representative();
            let (devices, time_per_op) = match parallelism {
                DecoupledParallelism::HybridBest => {
                    let n = ctx.largest_valid_allocation(metaop_id, ctx.num_devices);
                    (n, ctx.time_per_op(metaop_id, n))
                }
                DecoupledParallelism::DataParallelOnly => {
                    // Largest data-parallel degree that divides the batch.
                    let batch = rep.input_shape().batch;
                    let mut dp = 1;
                    for n in 1..=ctx.num_devices.min(batch) {
                        if batch % n == 0 {
                            dp = n;
                        }
                    }
                    let config = ParallelConfig { dp, tp: 1 };
                    (dp, model.execution_time_with_config(rep, config))
                }
            };
            let layers = metaop.num_ops();
            let mut entry = WaveEntry::new(metaop_id, layers, devices, time_per_op);
            entry.memory_per_device = ctx.memory_per_device(metaop_id, devices, layers);
            entry.placement = Some(ctx.device_range(0, devices));
            let duration = entry.exec_time;
            waves.push(Wave {
                index: waves.len(),
                level: 0,
                start: now,
                duration,
                entries: vec![entry],
            });
            now += duration;
        }
    }

    Ok(ctx.plan(waves, started.elapsed()))
}

#[cfg(test)]
mod tests {
    use crate::common::plan_on;
    use crate::SystemKind;
    use spindle_cluster::ClusterSpec;
    use spindle_runtime::Simulator;
    use spindle_workloads::multitask_clip;

    #[test]
    fn decoupled_plan_is_valid_and_sequential() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let plan = plan_on(SystemKind::MegatronLM, &graph, &cluster);
        plan.validate().unwrap();
        plan.require_placement().unwrap();
        // One wave per MetaOp, strictly sequential.
        assert_eq!(plan.num_waves(), plan.metagraph().num_metaops());
        for pair in plan.waves().windows(2) {
            assert!(pair[1].start >= pair[0].end() - 1e-12);
        }
    }

    #[test]
    fn hybrid_is_at_least_as_fast_as_dp_only() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let megatron = plan_on(SystemKind::MegatronLM, &graph, &cluster);
        let deepspeed = plan_on(SystemKind::DeepSpeed, &graph, &cluster);
        assert!(megatron.makespan() <= deepspeed.makespan() * 1.001);
    }

    #[test]
    fn decoupled_execution_runs_through_the_runtime() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let plan = plan_on(SystemKind::DeepSpeed, &graph, &cluster);
        let report = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        assert!(report.iteration_time_ms() > 0.0);
    }

    #[test]
    fn whole_cluster_utilisation_fluctuates_for_heterogeneous_tasks() {
        // Fig. 1: decoupled execution of heterogeneous tasks leaves devices
        // underutilised during light operators.
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = plan_on(SystemKind::MegatronLM, &graph, &cluster);
        let report = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let trace = report.utilization_trace();
        let max = trace.iter().map(|s| s.tflops_per_s).fold(0.0, f64::max);
        let min_busy = trace
            .iter()
            .filter(|s| s.tflops_per_s > 0.0)
            .map(|s| s.tflops_per_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max / min_busy > 2.0,
            "expected fluctuating utilisation, got {min_busy}..{max}"
        );
    }
}
