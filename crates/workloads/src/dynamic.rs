//! Dynamic multi-task workloads (Appendix D): the active task set changes as
//! training progresses — tasks with little data finish early, new tasks join.

use spindle_graph::{ComputationGraph, GraphError};

use crate::{multitask_clip, ofasys, WorkloadPreset};

/// One phase of a dynamic workload: a fixed task set trained for a number of
/// iterations.
#[derive(Debug, Clone)]
pub struct DynamicPhase {
    /// Human-readable description of the phase's task set.
    pub label: String,
    /// Number of training iterations in the phase.
    pub iterations: u64,
    /// The computation graph of the active task set.
    pub graph: ComputationGraph,
}

/// A schedule of task-set changes over a training run.
#[derive(Debug, Clone)]
pub struct DynamicWorkload {
    name: String,
    phases: Vec<DynamicPhase>,
}

impl DynamicWorkload {
    /// Creates a dynamic workload from its phases.
    #[must_use]
    pub fn new(name: impl Into<String>, phases: Vec<DynamicPhase>) -> Self {
        Self {
            name: name.into(),
            phases,
        }
    }

    /// The Multitask-CLIP dynamic schedule used in Fig. 13 (≈200k iterations,
    /// task set growing from 4 to 10 tasks and then shrinking as early tasks
    /// exhaust their data).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if any phase graph fails to build.
    pub fn multitask_clip_schedule() -> Result<Self, GraphError> {
        Ok(Self::new(
            "Multitask-CLIP",
            vec![
                DynamicPhase {
                    label: "4 tasks".to_string(),
                    iterations: 50_000,
                    graph: multitask_clip(4)?,
                },
                DynamicPhase {
                    label: "7 tasks".to_string(),
                    iterations: 60_000,
                    graph: multitask_clip(7)?,
                },
                DynamicPhase {
                    label: "10 tasks".to_string(),
                    iterations: 50_000,
                    graph: multitask_clip(10)?,
                },
                DynamicPhase {
                    label: "7 tasks (early tasks finished)".to_string(),
                    iterations: 40_000,
                    graph: multitask_clip(7)?,
                },
            ],
        ))
    }

    /// The OFASys dynamic schedule used in Fig. 13 (≈100k iterations).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if any phase graph fails to build.
    pub fn ofasys_schedule() -> Result<Self, GraphError> {
        Ok(Self::new(
            "OFASys",
            vec![
                DynamicPhase {
                    label: "4 tasks".to_string(),
                    iterations: 30_000,
                    graph: ofasys(4)?,
                },
                DynamicPhase {
                    label: "7 tasks".to_string(),
                    iterations: 40_000,
                    graph: ofasys(7)?,
                },
                DynamicPhase {
                    label: "5 tasks".to_string(),
                    iterations: 30_000,
                    graph: ofasys(5)?,
                },
            ],
        ))
    }

    /// Workload name (for experiment output).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phases in training order.
    #[must_use]
    pub fn phases(&self) -> &[DynamicPhase] {
        &self.phases
    }

    /// The phase graphs in training order, one re-plan each.
    #[must_use]
    pub fn phase_graphs(&self) -> Vec<&ComputationGraph> {
        self.phases.iter().map(|p| &p.graph).collect()
    }

    /// A schedule with this schedule's phases repeated `times` in a row —
    /// used to scale multi-phase planning benches beyond the native phase
    /// count.
    #[must_use]
    pub fn repeated(&self, times: usize) -> Self {
        let mut phases = Vec::with_capacity(self.phases.len() * times);
        for _ in 0..times.max(1) {
            phases.extend(self.phases.iter().cloned());
        }
        Self::new(format!("{} x{}", self.name, times.max(1)), phases)
    }

    /// Total number of iterations across all phases.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.phases.iter().map(|p| p.iterations).sum()
    }

    /// Number of times the workload changes (requiring a new execution plan).
    #[must_use]
    pub fn num_changes(&self) -> usize {
        self.phases.len().saturating_sub(1)
    }
}

/// Convenience: the presets of every phase boundary in Fig. 13's x-axis order.
#[must_use]
pub fn figure13_presets() -> Vec<WorkloadPreset> {
    vec![
        WorkloadPreset::MultitaskClip { tasks: 4 },
        WorkloadPreset::MultitaskClip { tasks: 7 },
        WorkloadPreset::MultitaskClip { tasks: 10 },
        WorkloadPreset::Ofasys { tasks: 4 },
        WorkloadPreset::Ofasys { tasks: 7 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_schedule_grows_then_shrinks() {
        let w = DynamicWorkload::multitask_clip_schedule().unwrap();
        assert_eq!(w.name(), "Multitask-CLIP");
        assert_eq!(w.phases().len(), 4);
        assert_eq!(w.num_changes(), 3);
        assert_eq!(w.total_iterations(), 200_000);
        let task_counts: Vec<usize> = w.phases().iter().map(|p| p.graph.tasks().len()).collect();
        assert_eq!(task_counts, vec![4, 7, 10, 7]);
    }

    #[test]
    fn phase_graphs_and_repetition_are_consistent() {
        let w = DynamicWorkload::multitask_clip_schedule().unwrap();
        assert_eq!(w.phase_graphs().len(), w.phases().len());
        let doubled = w.repeated(2);
        assert_eq!(doubled.phases().len(), 2 * w.phases().len());
        assert_eq!(doubled.total_iterations(), 2 * w.total_iterations());
        assert!(doubled.name().contains("x2"));
        assert_eq!(w.repeated(0).phases().len(), w.phases().len());
    }

    #[test]
    fn ofasys_schedule_is_well_formed() {
        let w = DynamicWorkload::ofasys_schedule().unwrap();
        assert_eq!(w.total_iterations(), 100_000);
        assert!(w.phases().iter().all(|p| p.iterations > 0));
        assert!(w.phases().iter().all(|p| !p.label.is_empty()));
    }

    #[test]
    fn figure13_presets_build() {
        for p in figure13_presets() {
            assert!(p.build().is_ok());
        }
    }
}
