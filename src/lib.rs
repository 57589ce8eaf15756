//! # Spindle
//!
//! A simulation-based reproduction of *Spindle: Efficient Distributed Training of
//! Multi-Task Large Models via Wavefront Scheduling* (ASPLOS 2025).
//!
//! Spindle plans and executes the training of multi-task multi-modal (MT MM)
//! models by decomposing the heterogeneous, dependent computation graph into
//! sequentially executed *waves*: within a wave, sliced [`MetaOp`]s run
//! concurrently on disjoint device groups with balanced execution times.
//!
//! The centre of the API is the owned, long-lived [`SpindleSession`]: bound to
//! one cluster, it plans any number of workloads and keeps a persistent
//! **curve cache** keyed by operator signature, so re-planning a changed task
//! mix (the dynamic scenario of the paper's Appendix D) re-fits **zero**
//! scaling curves for operators it has already profiled. Internally each plan
//! runs an explicit staged pipeline (`ContractedGraph` → `CurveSet` →
//! `LevelSchedule` → [`ExecutionPlan`]) with one entry point per stage,
//! device placement is chosen by the `PlacementStrategy` enum, and Spindle
//! plus every baseline system implement the common [`PlanningSystem`] trait.
//!
//! This crate is a facade that re-exports the whole workspace:
//!
//! * [`cluster`] — GPU-cluster topology and communication cost model.
//! * [`graph`] — operator-level computation-graph IR for MT MM workloads.
//! * [`estimator`] — scalability estimator (piecewise α–β fitting over an
//!   analytic hardware model) with cache-aware curve fitting.
//! * [`core`] — the execution planner: sessions, the staged pipeline, MPSP
//!   resource allocation, wavefront scheduling and device placement.
//! * [`runtime`] — a deterministic discrete-event simulator that executes an
//!   [`ExecutionPlan`] wave by wave and records metrics.
//! * [`baselines`] — the comparison systems from the paper's evaluation,
//!   unified behind [`PlanningSystem`].
//! * [`workloads`] — the Multitask-CLIP / OFASys / QWen-VAL workload presets
//!   and the dynamic task-mix schedules.
//! * [`service`] — planning as a service: a multi-tenant daemon that shards
//!   sessions across worker threads with re-plan coalescing and bounded-queue
//!   backpressure.
//!
//! ## Quickstart
//!
//! ```
//! use spindle::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A long-lived planning session for a 2-node cluster of 8 GPUs each.
//! let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
//!
//! // Plan the 4-task Multitask-CLIP workload and simulate one iteration.
//! let model = multitask_clip(4)?;
//! let plan = session.plan(&model)?;
//! let report = Simulator::new(&plan, session.cluster())
//!     .with_graph(&model)
//!     .run_iteration()?;
//! println!("iteration time: {:.1} ms", report.iteration_time_ms());
//!
//! // The task mix changes: re-planning reuses every cached scaling curve.
//! let fits_before = session.curve_fits();
//! let larger = multitask_clip(7)?;
//! let replanned = session.plan(&larger)?;
//! assert!(replanned.makespan() > 0.0);
//! assert!(session.curve_fits() >= fits_before); // only *new* signatures fit
//!
//! // Baselines go through the same trait-based entry point.
//! let mut deepspeed = SystemKind::DeepSpeed.planning_system();
//! let baseline_plan = deepspeed.plan(&model, &mut session)?;
//! assert!(baseline_plan.makespan() >= plan.makespan());
//! # Ok(())
//! # }
//! ```
//!
//! [`MetaOp`]: spindle_core::MetaOp
//! [`ExecutionPlan`]: spindle_core::ExecutionPlan
//! [`SpindleSession`]: spindle_core::SpindleSession
//! [`PlanningSystem`]: spindle_core::PlanningSystem

pub use spindle_baselines as baselines;
pub use spindle_cluster as cluster;
pub use spindle_core as core;
pub use spindle_estimator as estimator;
pub use spindle_graph as graph;
pub use spindle_runtime as runtime;
pub use spindle_service as service;
pub use spindle_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use spindle_baselines::SystemKind;
    pub use spindle_cluster::{ClusterSpec, DeviceId};
    pub use spindle_core::{
        ContractedGraph, CurveSet, ExecutionPlan, LevelSchedule, PlacementStrategy, PlannerConfig,
        PlanningSystem, SpindlePlanner, SpindleSession,
    };
    pub use spindle_estimator::{ScalabilityEstimator, ScalingCurve};
    pub use spindle_graph::{ComputationGraph, Modality, OpKind, TaskSpec};
    pub use spindle_runtime::{SimReport, Simulator};
    pub use spindle_workloads::{multitask_clip, ofasys, qwen_val, WorkloadPreset};
}
