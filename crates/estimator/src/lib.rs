//! # spindle-estimator
//!
//! Scalability estimator for MT MM workloads (§3.2 and Appendix A of the
//! paper).
//!
//! The estimator answers one question for the planner: *how long does one
//! operator of MetaOp `m` take when allocated `n` devices*, i.e. the execution
//! time function `T_m(n)` — including how it degrades when operators are small
//! and devices are plentiful (poor resource scalability).
//!
//! In the paper, `T_m(n)` is obtained by profiling the real model on real GPUs
//! at a few discrete allocations and fitting a *piecewise α–β* model. Real
//! hardware is not available to this reproduction, so profiling is replaced by
//! an [`AnalyticGpuModel`]: a deterministic, calibrated analytic model of an
//! A800-class GPU (compute-efficiency roll-off for small per-device workloads,
//! kernel-launch overheads, tensor-parallel communication). The estimator then
//! fits the same piecewise α–β curves on top of those synthetic profiles — so
//! the code path downstream of profiling is exactly the paper's.
//!
//! ## Example
//!
//! ```
//! use spindle_cluster::ClusterSpec;
//! use spindle_estimator::ScalabilityEstimator;
//! use spindle_graph::{Modality, OpId, OpKind, Operator, TaskId, TensorShape};
//!
//! let cluster = ClusterSpec::homogeneous(2, 8);
//! let estimator = ScalabilityEstimator::new(&cluster);
//!
//! // A heavyweight LM layer scales much further than a tiny text layer.
//! let lm = Operator::new(OpId(0), OpKind::LmDecoderOnly, TaskId(0), TensorShape::new(8, 512, 4096));
//! let text = Operator::new(OpId(1), OpKind::Encoder(Modality::Text), TaskId(0), TensorShape::new(4, 77, 768));
//! let lm_curve = estimator.curve_for(&lm);
//! let text_curve = estimator.curve_for(&text);
//! assert!(lm_curve.scalability(8.0) > text_curve.scalability(8.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod estimator;
mod memory_model;
mod parallel;
mod perf_model;
mod piecewise;
mod profiler;
mod scaling_curve;
#[cfg(any(test, feature = "test-util"))]
pub mod test_util;

pub use error::EstimatorError;
pub use estimator::{ScalabilityEstimator, DEFAULT_CURVE_CACHE_BUDGET};
pub use memory_model::MemoryModel;
pub use parallel::ParallelConfig;
pub use perf_model::{AnalyticGpuModel, PerfModel};
pub use piecewise::PiecewiseAlphaBeta;
pub use profiler::{ProfileSample, Profiler};
pub use scaling_curve::ScalingCurve;
