//! # spindle-cluster
//!
//! GPU-cluster topology and communication cost model for the Spindle
//! reproduction.
//!
//! The paper evaluates Spindle on an 8-node cluster where each node holds
//! 8 NVIDIA A800 80 GB GPUs connected by NVLink, and nodes are connected by
//! 400 Gbps InfiniBand. This crate provides a faithful *model* of such a
//! cluster — device identities, node/island structure, per-link bandwidths and
//! latencies, per-device memory capacity — together with an analytic
//! communication cost model for the point-to-point and collective operations
//! Spindle's planner and runtime need to reason about.
//!
//! Everything here is a pure description: no GPUs are touched. The rest of the
//! workspace (estimator, planner, runtime simulator) consumes these types to
//! make the same decisions the paper's system makes against real hardware.
//!
//! ## Example
//!
//! ```
//! use spindle_cluster::{ClusterSpec, CommModel, DeviceGroup, DeviceId};
//!
//! // Two nodes of 8 A800-like GPUs.
//! let cluster = ClusterSpec::homogeneous(2, 8);
//! assert_eq!(cluster.num_devices(), 16);
//!
//! // All-reducing 1 GiB of gradients within one node is much cheaper than
//! // across the two nodes.
//! let comm = CommModel::new(&cluster);
//! let intra = DeviceGroup::contiguous(DeviceId(0), 8);
//! let inter = DeviceGroup::contiguous(DeviceId(4), 8);
//! let bytes = 1u64 << 30;
//! assert!(comm.all_reduce_time(&intra, bytes) < comm.all_reduce_time(&inter, bytes));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bandwidth;
mod collective;
mod device;
mod error;
mod group;
mod link;
mod storage;
mod topology;

pub use bandwidth::{InterconnectSpec, LinkClass};
pub use collective::CommModel;
pub use device::{DeviceId, GpuSpec, NodeId};
pub use error::ClusterError;
pub use group::DeviceGroup;
pub use link::{collective_footprint, transfer_footprint, LinkId, LinkOccupancy, NodeSpan};
pub use storage::StorageSpec;
pub use topology::{ClusterSpec, Island, NodeSpec};
