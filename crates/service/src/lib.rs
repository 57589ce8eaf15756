//! # spindle-service
//!
//! Planning as a service: a long-lived, multi-tenant daemon over
//! [`SpindleSession`](spindle_core::SpindleSession)s.
//!
//! A single session already makes online re-planning cheap — warm curve
//! caches, structural splicing, placed-skeleton reuse. This crate scales that
//! to a *fleet*: hundreds of tenants, each with its own churn process,
//! planned by a fixed pool of worker threads. Three mechanisms carry the
//! load:
//!
//! * **Sharding** — tenants map onto workers by rendezvous (highest-random-
//!   weight) hashing over stable worker keys; each worker owns its tenants'
//!   sessions outright, so per-tenant re-plans are FIFO and no lock is ever
//!   taken on a session. Stable keys make [`PlanService::resize`] cheap:
//!   re-sharding moves only the tenants whose highest-scoring key changed.
//! * **Coalescing** — workers drain their queue greedily between re-plans
//!   and fold queued events per tenant ([`CoalescingQueue`]): a burst of N
//!   churn events costs one re-plan against the latest graph, not N. Under
//!   contention the queue drains by deficit round-robin, weighted by the
//!   service's [`FairnessConfig`].
//! * **Backpressure & fairness** — worker queues are bounded; when one is
//!   full, [`PlanService::submit`] rejects with a retry hint instead of
//!   buffering without limit, and per-tenant token buckets
//!   ([`TenantThrottle`]) reject over-quota tenants before they reach a
//!   queue at all. Combined with the session caches' byte budgets
//!   (see [`PlannerConfig`](spindle_core::PlannerConfig)), the daemon's
//!   memory stays bounded no matter how long it runs.
//!
//! Remote callers speak a versioned, length-prefixed binary protocol
//! ([`proto`]-module framing) to a [`TcpIngress`] built on a nonblocking
//! `std::net` listener; in-process callers use [`LocalClient`]. Both
//! implement [`ServiceApi`] and produce bit-identical plan fingerprints for
//! the same submissions, which the `loadgen` binary proves on every run.
//!
//! The `loadgen` binary replays seeded multi-tenant traces
//! ([`TenantFleet`](spindle_workloads::TenantFleet)) against a service and
//! reports latency percentiles, coalescing ratio and throughput in the
//! repository's bench-report format.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use spindle_cluster::ClusterSpec;
//! use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
//! use spindle_service::{PlanService, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let t = b.add_task("tenant-42", [Modality::Vision, Modality::Text], 8);
//! let tower = b.add_op_chain(t, OpKind::Encoder(Modality::Vision), TensorShape::new(8, 197, 768), 4)?;
//! let loss = b.add_op(t, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))?;
//! b.add_flow(*tower.last().unwrap(), loss)?;
//! let graph = Arc::new(b.build()?);
//!
//! let (service, completions) = PlanService::start(
//!     ClusterSpec::homogeneous(1, 8),
//!     ServiceConfig { workers: 2, queue_depth: 16, ..ServiceConfig::default() },
//! );
//! service.submit(42, graph)?;
//! let done = completions.recv()?;
//! assert_eq!(done.tenant, 42);
//! done.result?.plan.validate()?;
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
pub mod backoff;
mod coalesce;
mod fairness;
mod listener;
pub mod proto;
mod service;

pub use api::{ApiCompletion, LocalClient, ServiceApi, TcpClient};
pub use backoff::{Backoff, BACKOFF_CAP, MIN_RETRY_HINT};
pub use coalesce::{CoalescedReplan, CoalescingQueue};
pub use fairness::{FairnessConfig, TenantPolicy, TenantThrottle};
pub use listener::TcpIngress;
pub use proto::{
    ErrorCode, FrameDecoder, ReplanSummary, Request, Response, WireError, PROTO_VERSION,
};
pub use service::{Completion, PlanService, ServiceConfig, ServiceStats, SubmitError};
