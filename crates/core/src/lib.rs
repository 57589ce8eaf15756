//! # spindle-core
//!
//! The Spindle execution planner — the primary contribution of the paper.
//!
//! Given the unified computation graph of a multi-task multi-modal workload
//! (`spindle-graph`), a cluster description (`spindle-cluster`) and per-operator
//! scaling curves (`spindle-estimator`), the planner produces an
//! [`ExecutionPlan`]: a sequence of *waves*, each wave being a set of sliced
//! MetaOps that execute concurrently on disjoint, placed device groups with
//! aligned time spans.
//!
//! The public entry point is the owned, long-lived [`SpindleSession`]: it is
//! bound to one cluster, carries a persistent curve cache, and plans any
//! number of workloads — re-planning a changed task mix reuses every scaling
//! curve fitted before. Internally each plan is an explicit staged
//! [`pipeline`] following §3 of the paper, with typed intermediate artifacts:
//!
//! 1. **Graph contraction** (§3.1, [`ContractedGraph`]) fuses chains of
//!    identical operators into [`MetaOp`]s and assigns them to dependency
//!    [`MetaLevel`]s.
//! 2. **Scalability estimation** (§3.2, [`CurveSet`]) resolves each MetaOp's
//!    execution-time function `T_m(n)` through the session's curve cache.
//! 3. **Resource allocation + wavefront scheduling** (§3.3–§3.4,
//!    [`LevelSchedule::build`]) solves the relaxed
//!    malleable-project-scheduling problem by bisection
//!    ([`mpsp::solve_level`]), discretises the continuous optimum into at
//!    most two ASL-tuples per MetaOp ([`allocator::discretize_level`]), and
//!    greedily slices the tuples into compact waves
//!    ([`wavefront::schedule_level_dense`]), all over one dense
//!    [`MetaOpArena`].
//! 4. **Device placement** (§3.5, [`LevelSchedule::place`]) maps each wave
//!    entry onto concrete devices by a [`PlacementStrategy`].
//!
//! Each stage has exactly one entry point; the DistMM-MT baseline runs the
//! same three stage functions one task at a time.
//!
//! Spindle and the baseline systems all implement the [`PlanningSystem`]
//! trait, so experiment harnesses drive every system through one interface.
//!
//! ## Example
//!
//! ```
//! use spindle_cluster::ClusterSpec;
//! use spindle_core::SpindleSession;
//! use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny two-tower contrastive task.
//! let mut b = GraphBuilder::new();
//! let t = b.add_task("audio-text", [Modality::Audio, Modality::Text], 8);
//! let audio = b.add_op_chain(t, OpKind::Encoder(Modality::Audio), TensorShape::new(8, 229, 768), 6)?;
//! let text = b.add_op_chain(t, OpKind::Encoder(Modality::Text), TensorShape::new(8, 77, 768), 6)?;
//! let loss = b.add_op(t, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))?;
//! b.add_flow(*audio.last().unwrap(), loss)?;
//! b.add_flow(*text.last().unwrap(), loss)?;
//! let graph = b.build()?;
//!
//! let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
//! let plan = session.plan(&graph)?;
//! assert!(plan.makespan() > 0.0);
//! assert!(plan.validate().is_ok());
//! // Re-planning reuses every cached curve: zero new fits.
//! let fits = session.curve_fits();
//! session.plan(&graph)?;
//! assert_eq!(session.curve_fits(), fits);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocator;
pub mod arena;
mod error;
mod metagraph;
mod metaop;
pub mod mpsp;
pub mod pipeline;
pub mod placement;
mod plan;
mod session;
pub mod structural;
mod system;
pub mod wavefront;

pub use allocator::{AllocationPlan, DiscreteAllocation, MetaOpAllocation};
pub use arena::{CacheTelemetry, MetaOpArena, PlanningStats};
pub use error::PlanError;
pub use metagraph::{MetaGraph, MetaLevel};
pub use metaop::{MetaOp, MetaOpId};
pub use mpsp::ContinuousSolution;
pub use pipeline::{ContractedGraph, CurveSet, LevelSchedule};
pub use placement::PlacementStrategy;
pub use plan::{ExecutionPlan, Residency, SiteSet, Survivors, Wave, WaveEntry};
pub use session::{PlannerConfig, ReplanOutcome, ReplanSummary, SpindleSession};
pub use structural::{
    LevelArtifact, LevelKey, PlacedSkeleton, PlanKey, StructuralPlanCache,
    DEFAULT_STRUCTURAL_CACHE_BUDGET,
};
pub use system::{PlanningSystem, SpindlePlanner};
