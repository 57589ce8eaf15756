//! DistMM-MT: per-task intra-task resource allocation, tasks executed
//! sequentially (§5.1 baseline 3).
//!
//! DistMM allocates resources across the multi-tower modality encoders of a
//! *single* multi-modal task; DistMM-MT applies it to each task of an MT MM
//! workload in turn. Within one task this planner uses the same continuous
//! relaxation + discretisation + wave crafting machinery as Spindle — the
//! difference is purely that it never co-schedules operators of different
//! tasks, which is exactly the gap the paper attributes to it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use spindle_cluster::ClusterSpec;
use spindle_core::{
    allocator, mpsp, placement, wavefront, ExecutionPlan, MetaOpId, PlacementStrategy, PlanError,
    PlanningSystem, SpindleSession, Wave,
};
use spindle_graph::ComputationGraph;

use crate::common::BaselineContext;

/// Planner implementing the DistMM-MT strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistMmMtPlanner;

impl DistMmMtPlanner {
    /// Creates the planner.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Produces the DistMM-MT execution plan for `graph` on `cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the cluster is empty or profiling fails.
    pub fn plan(
        &self,
        graph: &ComputationGraph,
        cluster: &ClusterSpec,
    ) -> Result<ExecutionPlan, PlanError> {
        let started = Instant::now();
        let ctx = BaselineContext::build(graph, cluster)?;
        self.plan_with_context(ctx, cluster, started)
    }

    /// Lays out the DistMM-MT schedule over an already-built context.
    fn plan_with_context(
        &self,
        ctx: BaselineContext,
        cluster: &ClusterSpec,
        started: Instant,
    ) -> Result<ExecutionPlan, PlanError> {
        let mut waves: Vec<Wave> = Vec::new();
        let mut now = 0.0f64;

        for metaops in ctx.task_metaops.values() {
            // Group this task's MetaOps by dependency level.
            let mut by_level: BTreeMap<usize, Vec<MetaOpId>> = BTreeMap::new();
            for &id in metaops {
                by_level
                    .entry(ctx.metagraph.metaop(id).level())
                    .or_default()
                    .push(id);
            }
            for (level, ids) in by_level {
                let items: Vec<mpsp::MpspItem> = ids
                    .iter()
                    .map(|&id| mpsp::MpspItem {
                        metaop: id,
                        num_ops: ctx.metagraph.metaop(id).num_ops(),
                        curve: Arc::clone(&ctx.curves[&id]),
                    })
                    .collect();
                let solution = mpsp::solve(&items, ctx.num_devices, mpsp::DEFAULT_EPSILON);
                let alloc = allocator::discretize(&solution, &items);
                let curve_map: wavefront::CurveMap = ids
                    .iter()
                    .map(|&id| (id, Arc::clone(&ctx.curves[&id])))
                    .collect();
                let (mut level_waves, end) = wavefront::schedule_level(
                    &alloc,
                    &curve_map,
                    ctx.num_devices,
                    level,
                    now,
                    waves.len(),
                );
                for wave in &mut level_waves {
                    for entry in &mut wave.entries {
                        entry.memory_per_device =
                            ctx.memory_per_device(entry.metaop, entry.devices, entry.layers);
                    }
                }
                waves.extend(level_waves);
                now = end;
            }
        }

        // DistMM-MT plans every task against the full cluster, so waves of the
        // same task never overlap and placement can reuse Spindle's
        // locality-aware mechanism.
        let mut plan = ExecutionPlan::new(
            waves,
            ctx.metagraph,
            ctx.num_devices,
            0.0,
            started.elapsed(),
        );
        placement::place(&mut plan, cluster, PlacementStrategy::Locality)?;
        Ok(plan)
    }
}

impl PlanningSystem for DistMmMtPlanner {
    fn name(&self) -> &str {
        "DistMM-MT"
    }

    fn plan(
        &mut self,
        graph: &ComputationGraph,
        session: &mut SpindleSession,
    ) -> Result<ExecutionPlan, PlanError> {
        let started = Instant::now();
        let ctx = BaselineContext::from_session(graph, session)?;
        self.plan_with_context(ctx, session.cluster(), started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecoupledParallelism, DecoupledPlanner};
    use spindle_runtime::Simulator;
    use spindle_workloads::multitask_clip;

    #[test]
    fn distmm_plan_is_valid() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let plan = DistMmMtPlanner::new().plan(&graph, &cluster).unwrap();
        plan.validate().unwrap();
        plan.require_placement().unwrap();
    }

    #[test]
    fn distmm_beats_fully_decoupled_execution_on_multitower_tasks() {
        // DistMM-MT parallelises the two towers of each CLIP task, so it must
        // finish the compute portion faster than the one-operator-at-a-time
        // decoupled baseline.
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let distmm = DistMmMtPlanner::new().plan(&graph, &cluster).unwrap();
        let decoupled = DecoupledPlanner::new(DecoupledParallelism::DataParallelOnly)
            .plan(&graph, &cluster)
            .unwrap();
        assert!(distmm.makespan() < decoupled.makespan());
    }

    #[test]
    fn distmm_runs_through_runtime() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let plan = DistMmMtPlanner::new().plan(&graph, &cluster).unwrap();
        let report = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        assert!(report.iteration_time_ms() > 0.0);
    }
}
