//! Uniform dispatch over all evaluated systems (Spindle + baselines).

use std::fmt;

use spindle_core::{ExecutionPlan, PlanError, SpindleSession};
use spindle_graph::ComputationGraph;

use crate::decoupled::{self, DecoupledParallelism};
use crate::{distmm, optimus};

/// Every system compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemKind {
    /// Spindle: the full wavefront-scheduling planner.
    Spindle,
    /// Spindle-Optimus: task-level marginal-gain allocation.
    SpindleOptimus,
    /// DistMM-MT: intra-task allocation, tasks executed sequentially.
    DistMmMt,
    /// Megatron-LM-style decoupled execution (hybrid parallelism per operator).
    MegatronLM,
    /// DeepSpeed-style decoupled execution (ZeRO data parallelism).
    DeepSpeed,
    /// Spindle-Seq: the decoupled strategy on Spindle's machinery (Appendix H).
    SpindleSeq,
}

impl SystemKind {
    /// All systems of Fig. 8, in the paper's legend order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Spindle,
        SystemKind::SpindleOptimus,
        SystemKind::DistMmMt,
        SystemKind::MegatronLM,
        SystemKind::DeepSpeed,
    ];

    /// Display label used by the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Spindle => "Spindle",
            SystemKind::SpindleOptimus => "Spindle-Optimus",
            SystemKind::DistMmMt => "DistMM-MT",
            SystemKind::MegatronLM => "Megatron-LM",
            SystemKind::DeepSpeed => "DeepSpeed",
            SystemKind::SpindleSeq => "Spindle-Seq",
        }
    }

    /// Whether the system is aware of inter-task workload heterogeneity
    /// (Tab. 1a, first column).
    #[must_use]
    pub fn inter_task_aware(&self) -> bool {
        matches!(self, SystemKind::Spindle | SystemKind::SpindleOptimus)
    }

    /// Whether the system is aware of intra-task workload heterogeneity
    /// (Tab. 1a, second column).
    #[must_use]
    pub fn intra_task_aware(&self) -> bool {
        matches!(self, SystemKind::Spindle | SystemKind::DistMmMt)
    }

    /// Plans one training iteration of `graph` with this system within
    /// `session` — the one way to plan a system by kind. The session supplies
    /// the cluster, the planner configuration and the shared scalability
    /// estimator, so every system profiles operators through the same
    /// persistent curve cache and is measured on identical footing.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the cluster is empty or profiling fails.
    pub fn plan(
        self,
        graph: &ComputationGraph,
        session: &mut SpindleSession,
    ) -> Result<ExecutionPlan, PlanError> {
        match self {
            SystemKind::Spindle => session.plan(graph),
            SystemKind::SpindleOptimus => optimus::plan(graph, session),
            SystemKind::DistMmMt => distmm::plan(graph, session),
            SystemKind::MegatronLM => {
                decoupled::plan(DecoupledParallelism::HybridBest, graph, session)
            }
            SystemKind::DeepSpeed | SystemKind::SpindleSeq => {
                decoupled::plan(DecoupledParallelism::DataParallelOnly, graph, session)
            }
        }
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use spindle_cluster::{ClusterSpec, DeviceId};
    use spindle_runtime::{LocalizedPlan, Simulator};
    use spindle_workloads::{multitask_clip, WorkloadPreset};

    use crate::common::{fnv1a, plan_digest};

    #[test]
    fn labels_and_awareness_match_table_1a() {
        assert_eq!(SystemKind::ALL.len(), 5);
        assert!(SystemKind::Spindle.inter_task_aware() && SystemKind::Spindle.intra_task_aware());
        assert!(SystemKind::SpindleOptimus.inter_task_aware());
        assert!(!SystemKind::SpindleOptimus.intra_task_aware());
        assert!(!SystemKind::DistMmMt.inter_task_aware());
        assert!(SystemKind::DistMmMt.intra_task_aware());
        assert!(!SystemKind::DeepSpeed.inter_task_aware());
        assert!(!SystemKind::MegatronLM.intra_task_aware());
        assert_eq!(SystemKind::Spindle.to_string(), "Spindle");
        assert_eq!(SystemKind::DistMmMt.label(), "DistMM-MT");
    }

    #[test]
    fn spindle_plans_through_the_session_pass() {
        let graph = multitask_clip(2).unwrap();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let plan = SystemKind::Spindle.plan(&graph, &mut session).unwrap();
        plan.validate().unwrap();
        plan.require_placement().unwrap();
        assert_eq!(session.plans_produced(), 1);
    }

    #[test]
    fn every_system_plans_and_runs_the_same_workload() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        // One shared session: every system profiles through one curve cache.
        let mut session = SpindleSession::new(cluster.clone());
        for kind in SystemKind::ALL {
            let plan = kind.plan(&graph, &mut session).unwrap();
            plan.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            let report = Simulator::new(plan, &cluster)
                .with_graph(&graph)
                .run_iteration()
                .unwrap();
            assert!(report.iteration_time_ms() > 0.0, "{kind}");
        }
        // After the first system fitted the curves, the rest were cache-served.
        assert!(session.planning_stats().curve_hits > 0);
    }

    #[test]
    fn every_system_plans_onto_the_survivors_of_a_device_loss() {
        let graph = multitask_clip(4).unwrap();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let removed = [DeviceId(0), DeviceId(1)];
        session.remove_devices(&removed).unwrap();
        let cluster = session.cluster_handle();
        for kind in SystemKind::ALL.into_iter().chain([SystemKind::SpindleSeq]) {
            let plan = kind.plan(&graph, &mut session).unwrap();
            plan.check_invariants(cluster.device_memory_bytes())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            for entry in plan.waves().iter().flat_map(|w| &w.entries) {
                let group = entry.placement.as_ref().unwrap();
                assert!(
                    removed.iter().all(|&d| !group.contains(d)),
                    "{kind}: {} placed on {group}",
                    entry.metaop
                );
            }
            LocalizedPlan::new(Arc::new(plan), &cluster, Some(&graph))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    /// One digest per system, in `ALL` order and then Spindle-Seq, over its
    /// plans of the 17 Fig. 8 cells (one shared session per cell, as
    /// `compare_systems` plans them) and of `multitask_clip(4)` on a 2x8
    /// session without devices 0 and 1. The digests were recorded through
    /// the boxed per-system planners that `SystemKind::plan` replaced, and
    /// it must reproduce every bit.
    #[test]
    fn every_kind_reproduces_the_recorded_plan_digests() {
        let kinds: Vec<SystemKind> = SystemKind::ALL
            .into_iter()
            .chain([SystemKind::SpindleSeq])
            .collect();
        let mut plans = vec![Vec::new(); kinds.len()];
        let mut plan_all = |graph: &ComputationGraph, session: &mut SpindleSession| {
            for (digests, &kind) in plans.iter_mut().zip(&kinds) {
                let plan = kind.plan(graph, session).unwrap();
                digests.push(plan_digest(&plan));
            }
        };
        for preset in WorkloadPreset::figure8_presets() {
            let graph = preset.build().unwrap();
            for gpus in preset.paper_cluster_sizes() {
                plan_all(
                    &graph,
                    &mut SpindleSession::new(ClusterSpec::homogeneous(gpus / 8, 8)),
                );
            }
        }
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        session.remove_devices(&[DeviceId(0), DeviceId(1)]).unwrap();
        plan_all(&multitask_clip(4).unwrap(), &mut session);
        assert!(plans.iter().all(|p| p.len() == 18));
        let digests: Vec<u64> = plans.iter().map(|p| fnv1a(p)).collect();
        assert_eq!(
            digests,
            [
                0x263c_f5a1_4a45_46f8,
                0xd815_11a0_12cb_18cd,
                0xe3b4_3dca_1918_2f21,
                0x5adf_5b09_ccd1_ee31,
                0x9249_ff8f_a076_1e9b,
                0x9249_ff8f_a076_1e9b,
            ],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn spindle_is_fastest_on_the_case_study_workload() {
        // The headline claim (Fig. 8 / Fig. 9): on Multitask-CLIP with 4 tasks
        // and 16 GPUs, Spindle beats every baseline end to end.
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let mut session = SpindleSession::new(cluster.clone());
        let mut times = std::collections::BTreeMap::new();
        for kind in SystemKind::ALL {
            let plan = kind.plan(&graph, &mut session).unwrap();
            let report = Simulator::new(plan, &cluster)
                .with_graph(&graph)
                .run_iteration()
                .unwrap();
            times.insert(kind, report.iteration_time_ms());
        }
        let spindle = times[&SystemKind::Spindle];
        for (kind, time) in &times {
            if *kind != SystemKind::Spindle {
                assert!(
                    spindle <= *time * 1.02,
                    "Spindle ({spindle:.1} ms) should not lose to {kind} ({time:.1} ms)"
                );
            }
        }
        // And it should meaningfully beat the task-sequential SOTA systems.
        assert!(times[&SystemKind::DeepSpeed] / spindle > 1.1);
    }
}
