//! Uniform dispatch over all evaluated systems (Spindle + baselines).

use std::fmt;

use spindle_core::{PlanningSystem, SpindlePlanner};

use crate::{DecoupledParallelism, DecoupledPlanner, DistMmMtPlanner, OptimusPlanner};

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

    /// Instantiates the [`PlanningSystem`] implementing this kind — the single
    /// place that maps kinds to planners. Experiment harnesses call this once
    /// and then drive every system through the trait.
    #[must_use]
    pub fn planning_system(self) -> Box<dyn PlanningSystem> {
        match self {
            SystemKind::Spindle => Box::new(SpindlePlanner::new()),
            SystemKind::SpindleOptimus => Box::new(OptimusPlanner::new()),
            SystemKind::DistMmMt => Box::new(DistMmMtPlanner::new()),
            SystemKind::MegatronLM => {
                Box::new(DecoupledPlanner::new(DecoupledParallelism::HybridBest))
            }
            SystemKind::DeepSpeed | SystemKind::SpindleSeq => Box::new(DecoupledPlanner::new(
                DecoupledParallelism::DataParallelOnly,
            )),
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
    use spindle_core::SpindleSession;
    use spindle_runtime::{LocalizedPlan, Simulator};
    use spindle_workloads::multitask_clip;

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
    fn every_system_plans_and_runs_the_same_workload() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 8);
        // One shared session: every system profiles through one curve cache.
        let mut session = SpindleSession::new(cluster.clone());
        for kind in SystemKind::ALL {
            let mut system = kind.planning_system();
            let plan = system.plan(&graph, &mut session).unwrap();
            plan.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            let report = Simulator::new(plan, &cluster)
                .with_graph(&graph)
                .run_iteration()
                .unwrap();
            assert!(report.iteration_time_ms() > 0.0, "{kind}");
        }
        // After the first system fitted the curves, the rest were cache-served.
        assert!(session.cache_stats().hits > 0);
    }

    #[test]
    fn every_system_plans_onto_the_survivors_of_a_device_loss() {
        let graph = multitask_clip(4).unwrap();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let removed = [DeviceId(0), DeviceId(1)];
        session.remove_devices(&removed).unwrap();
        let cluster = session.cluster_handle();
        for kind in SystemKind::ALL.into_iter().chain([SystemKind::SpindleSeq]) {
            let plan = kind.planning_system().plan(&graph, &mut session).unwrap();
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

    #[test]
    fn trait_names_match_kind_labels() {
        for kind in SystemKind::ALL {
            let system = kind.planning_system();
            assert_eq!(system.name(), kind.label(), "{kind}");
        }
        let spindle_seq = SystemKind::SpindleSeq.planning_system();
        assert_eq!(spindle_seq.name(), "DeepSpeed"); // same decoupled strategy
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
            let plan = kind.planning_system().plan(&graph, &mut session).unwrap();
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
