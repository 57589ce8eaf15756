//! # spindle-runtime
//!
//! A deterministic discrete-event simulator that executes Spindle
//! [`ExecutionPlan`](spindle_core::ExecutionPlan)s and reports the metrics the
//! paper's evaluation measures.
//!
//! The paper's runtime engine (§3.6) instantiates MetaOps on each device,
//! inserts transmission operators at wave boundaries, maintains a parameter
//! device-group pool, and runs forward/backward wave by wave followed by
//! group-wise parameter synchronisation. This crate reproduces that execution
//! *in simulation* with one execution model, the [`Simulator`]: localisation
//! ([`LocalizedPlan`]) binds entries to devices and derives the transmissions
//! and the parameter pool, then a binary-heap event queue with deterministic
//! tie-breaking runs every wave once the waves it waits on have finished.
//!
//! * Its default [`CommMode::Serialized`] configuration is the closed form
//!   run as events — all compute, then every transmission, then every
//!   all-reduce, one at a time — so its iteration time is
//!   [`LocalizedPlan::closed_form_iteration_s`] up to float rounding.
//! * [`SimConfig::contended`] overlaps each wave's transmissions with the
//!   waves that do not wait on them and runs the all-reduces concurrently,
//!   sharing link bandwidth; heterogeneous per-device speed factors,
//!   injected stragglers, seeded compute perturbations, background flows and
//!   device-death faults model what the closed form cannot.
//!
//! Every run returns a [`SimReport`]: iteration time and breakdown,
//! utilization trace, per-device and per-MetaOp utilization, memory, FLOPs
//! and the event log. [`RuntimeEngine`] and [`IterationReport`] are the
//! older names of [`Simulator`] and [`SimReport`].
//!
//! On top of the simulator, [`DynamicRunLoop`] drives dynamic task-arrival
//! schedules ([`spindle_workloads::ArrivalSchedule`]) with *online
//! re-planning*: at every task-mix change it calls back into the planning
//! session (reusing its warm curve cache) and reports per-phase makespan,
//! re-plan cost, cache warmth and the simulated-vs-closed-form gap.
//!
//! ## Example
//!
//! ```
//! use spindle_cluster::ClusterSpec;
//! use spindle_core::SpindleSession;
//! use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
//! use spindle_runtime::Simulator;
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
//! let report = Simulator::new(plan, &cluster).with_graph(&graph).run_iteration()?;
//! assert!(report.iteration_time_ms() > 0.0);
//! assert!(report.breakdown().fwd_bwd_s > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dynamic_run;
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
pub use error::RuntimeError;
pub use events::{EventLog, LoggedEvent, SimEventKind};
pub use localize::LocalizedPlan;
pub use metrics::{
    sample_utilization_trace, ComputeInterval, IterationReport, SimReport, TimeBreakdown,
    UtilizationSample,
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
    BackgroundFlow, CommMode, FaultReport, FaultSpec, IntoShared, RuntimeEngine, SimConfig,
    Simulator, Straggler,
};
pub use transmission::{
    derive_transmission_sites, derive_transmissions, total_transmission_time, Transmission,
    TransmissionKind, TransmissionSite,
};
