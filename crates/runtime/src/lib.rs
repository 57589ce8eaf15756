//! # spindle-runtime
//!
//! A deterministic discrete-event runtime engine that executes Spindle
//! [`ExecutionPlan`](spindle_core::ExecutionPlan)s and reports the metrics the
//! paper's evaluation measures.
//!
//! The paper's runtime engine (§3.6) instantiates MetaOps on each device,
//! inserts transmission operators at wave boundaries, maintains a parameter
//! device-group pool, and runs forward/backward wave by wave followed by
//! group-wise parameter synchronisation. This crate reproduces that execution
//! *in simulation*, through two backends sharing one localisation pass
//! ([`LocalizedPlan`]):
//!
//! * [`RuntimeEngine`] — the closed-form fast path: computation, transmission
//!   and synchronisation are priced by the same cost models the planner uses,
//!   and every quantity reported in §5 (end-to-end iteration time, time
//!   breakdown, utilization traces, per-device / per-MetaOp utilization,
//!   memory consumption) is derived analytically.
//! * [`Simulator`] — a discrete-event backend that executes the plan op by op
//!   on a binary-heap event queue with deterministic tie-breaking: per-link
//!   bandwidth sharing (contention), heterogeneous per-device speed factors,
//!   injected stragglers and seeded compute perturbations. In its default
//!   (serialized, contention-free) configuration it reproduces the analytical
//!   engine's iteration time, so each backend cross-checks the other.
//!
//! On top of the simulator, [`DynamicRunLoop`] drives dynamic task-arrival
//! schedules ([`spindle_workloads::ArrivalSchedule`]) with *online
//! re-planning*: at every task-mix change it calls back into the planning
//! session (reusing its warm curve cache) and reports per-phase makespan,
//! re-plan cost, cache warmth and the plan-vs-simulated gap.
//!
//! ## Example
//!
//! ```
//! use spindle_cluster::ClusterSpec;
//! use spindle_core::SpindleSession;
//! use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
//! use spindle_runtime::RuntimeEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let t = b.add_task("audio-text", [Modality::Audio, Modality::Text], 8);
//! let a = b.add_op_chain(t, OpKind::Encoder(Modality::Audio), TensorShape::new(8, 229, 768), 6)?;
//! let x = b.add_op_chain(t, OpKind::Encoder(Modality::Text), TensorShape::new(8, 77, 768), 6)?;
//! let loss = b.add_op(t, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))?;
//! b.add_flow(*a.last().unwrap(), loss)?;
//! b.add_flow(*x.last().unwrap(), loss)?;
//! let graph = b.build()?;
//! let cluster = ClusterSpec::homogeneous(1, 8);
//! let mut session = SpindleSession::new(cluster.clone());
//! let plan = session.plan(&graph)?;
//!
//! let report = RuntimeEngine::new(plan, &cluster).with_graph(&graph).run_iteration()?;
//! assert!(report.iteration_time_ms() > 0.0);
//! assert!(report.breakdown().fwd_bwd_s > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dynamic_run;
mod engine;
mod error;
mod events;
mod localize;
mod metrics;
mod migrate;
mod param_groups;
mod recovery;
mod sim;
mod transmission;

pub use dynamic_run::{ChurnRunReport, DynamicRunLoop, DynamicRunReport, PhaseRunReport};
pub use engine::{IntoShared, RuntimeEngine};
pub use error::RuntimeError;
pub use events::{EventLog, LoggedEvent, SimEventKind};
pub use localize::LocalizedPlan;
pub use metrics::{
    sample_utilization_trace, ComputeInterval, IterationReport, TimeBreakdown, UtilizationSample,
};
pub use migrate::{
    migration_bytes, migration_flows, price_migration, MigrationFlow, MigrationPlan, RestoreFlow,
};
pub use param_groups::ParamGroupPool;
pub use recovery::{
    adam_state_bytes, background_checkpoint_flows, checkpoint_flows, full_state_bytes,
    price_checkpoint_write, price_restore, CheckpointPolicy,
};
pub use sim::{
    BackgroundFlow, CommMode, FaultReport, FaultSpec, SimConfig, SimReport, Simulator, Straggler,
};
pub use transmission::{
    derive_transmission_sites, derive_transmissions, total_transmission_time, Transmission,
    TransmissionKind, TransmissionSite,
};
