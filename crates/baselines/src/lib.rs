//! # spindle-baselines
//!
//! The comparison systems of the Spindle evaluation (§5.1, Tab. 1a),
//! re-implemented as planners over the same computation-graph / cluster /
//! estimator substrate so that every system is executed by the same runtime
//! simulator and measured identically:
//!
//! | System | Inter-task heterogeneity | Intra-task heterogeneity |
//! |---|---|---|
//! | Megatron-LM / DeepSpeed | ✗ | ✗ |
//! | DistMM-MT | ✗ | ✓ |
//! | Spindle-Optimus | ✓ | ✗ |
//! | Spindle | ✓ | ✓ |
//!
//! * **Megatron-LM / DeepSpeed** decouple the tasks in time: each task's
//!   sub-model takes the whole cluster for a slice of the iteration and its
//!   operators run one after another. Megatron-LM tunes a hybrid
//!   (data × tensor)-parallel configuration per operator; DeepSpeed uses
//!   ZeRO-style pure data parallelism.
//! * **DistMM-MT** extends DistMM to multiple tasks: within each task it
//!   allocates resources across the task's modality towers, but tasks still
//!   execute sequentially.
//! * **Spindle-Optimus** allocates whole-task device shares using Optimus'
//!   marginal-gain rule and runs tasks concurrently, each task executing its
//!   operators sequentially on its own devices.
//! * **Spindle-Seq** (Appendix H) is the decoupled strategy expressed through
//!   Spindle's own plan machinery — it quantifies the overhead of the Spindle
//!   implementation itself.
//!
//! [`SystemKind::plan`] plans with any of them inside a shared
//! [`SpindleSession`] and returns an ordinary
//! [`ExecutionPlan`](spindle_core::ExecutionPlan).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
mod decoupled;
mod distmm;
mod optimus;
mod system;

pub use system::SystemKind;

// `SystemKind::plan` plans within a `SpindleSession`; re-exported so harnesses
// depending on this crate get it in one hop.
pub use spindle_core::SpindleSession;
