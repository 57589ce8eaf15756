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
use std::time::Instant;

use spindle_core::mpsp::{self, MpspScratch};
use spindle_core::wavefront::{self, WavefrontScratch};
use spindle_core::{
    allocator, ExecutionPlan, MetaOpArena, MetaOpId, PlacementStrategy, PlanError, SpindleSession,
    Wave,
};
use spindle_graph::ComputationGraph;

use crate::common::BaselineContext;

/// Plans `graph` with the DistMM-MT strategy within `session`.
pub(crate) fn plan(
    graph: &ComputationGraph,
    session: &SpindleSession,
) -> Result<ExecutionPlan, PlanError> {
    let started = Instant::now();
    let ctx = BaselineContext::from_session(graph, session)?;
    let arena = MetaOpArena::build(ctx.metagraph(), &ctx.curves);
    let mut mpsp_scratch = MpspScratch::new();
    let mut wavefront_scratch = WavefrontScratch::new();
    let mut waves: Vec<Wave> = Vec::new();
    let mut now = 0.0f64;

    for metaops in ctx.task_metaops.values() {
        // Group this task's MetaOps by dependency level.
        let mut by_level: BTreeMap<usize, Vec<MetaOpId>> = BTreeMap::new();
        for &id in metaops {
            by_level
                .entry(ctx.metagraph().metaop(id).level())
                .or_default()
                .push(id);
        }
        for (level, ids) in by_level {
            let solution = mpsp::solve_level(
                &arena,
                &ids,
                ctx.num_devices,
                mpsp::DEFAULT_EPSILON,
                &mut mpsp_scratch,
            );
            let alloc = allocator::discretize_level(&solution, &arena, &ids);
            let (mut level_waves, end) = wavefront::schedule_level_dense(
                &alloc,
                &arena,
                ctx.num_devices,
                level,
                now,
                waves.len(),
                &mut wavefront_scratch,
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
    let mut plan = ctx.plan(waves, started.elapsed());
    PlacementStrategy::Locality.place(&mut plan, session.cluster())?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use crate::common::{plan_digest, plan_on};
    use crate::SystemKind;
    use spindle_cluster::ClusterSpec;
    use spindle_runtime::Simulator;
    use spindle_workloads::{multitask_clip, WorkloadPreset};

    #[test]
    fn distmm_plan_is_valid() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let plan = plan_on(SystemKind::DistMmMt, &graph, &cluster);
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
        let distmm = plan_on(SystemKind::DistMmMt, &graph, &cluster);
        let decoupled = plan_on(SystemKind::DeepSpeed, &graph, &cluster);
        assert!(distmm.makespan() < decoupled.makespan());
    }

    /// DistMM-MT plans of every Fig. 8 preset on each of its paper cluster
    /// sizes, digested and pinned: the digests were recorded from the
    /// map-based MPSP, discretisation and wavefront path, and the dense path
    /// must reproduce every bit.
    #[test]
    fn fig8_preset_plans_match_the_recorded_digests() {
        let mut digests = Vec::new();
        for preset in WorkloadPreset::figure8_presets() {
            let graph = preset.build().unwrap();
            for gpus in preset.paper_cluster_sizes() {
                let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
                let plan = plan_on(SystemKind::DistMmMt, &graph, &cluster);
                digests.push(plan_digest(&plan));
            }
        }
        assert_eq!(
            digests,
            [
                0x309a_1c32_62b9_4039,
                0x535a_11e2_fed4_c9a1,
                0x0c64_8d4d_fec2_9682,
                0xdf78_28b3_107b_4fdb,
                0xdbf6_24ca_c348_bc74,
                0x5012_6653_249a_bccb,
                0x354d_f7dd_84ba_4629,
                0x3833_e8ca_53b3_6e6d,
                0xf7c0_2742_94fb_9931,
                0xca4c_f4a1_6c10_5794,
                0x4e02_fdf7_03b0_9f5b,
                0x70cb_2777_4ca0_ac61,
                0x84df_745d_fb33_cd6d,
                0x952f_e415_d295_b8e8,
                0xc0e6_c817_cbd3_9093,
                0x50f7_5f7b_01c9_df04,
                0x3502_1cc2_cdfe_be91,
            ],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn distmm_runs_through_runtime() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let plan = plan_on(SystemKind::DistMmMt, &graph, &cluster);
        let report = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        assert!(report.iteration_time_ms() > 0.0);
    }
}
