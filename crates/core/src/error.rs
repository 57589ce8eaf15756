//! Error type for the execution planner.

use std::error::Error;
use std::fmt;

use spindle_graph::GraphError;

use crate::MetaOpId;

/// Errors produced while planning or validating an execution plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The underlying computation graph was invalid.
    Graph(GraphError),
    /// The cluster has no devices.
    EmptyCluster,
    /// A MetaOp has no scaling curve / no valid allocation.
    NoCurve(MetaOpId),
    /// A wave allocates more devices than the cluster provides.
    CapacityExceeded {
        /// Index of the offending wave.
        wave: usize,
        /// Devices requested by the wave.
        requested: u32,
        /// Devices available in the cluster.
        available: u32,
    },
    /// Some operators of a MetaOp were never scheduled.
    IncompleteSchedule {
        /// The MetaOp whose layers are missing.
        metaop: MetaOpId,
        /// Layers scheduled across all waves.
        scheduled: u32,
        /// Layers required.
        required: u32,
    },
    /// Waves are not ordered by start time.
    UnorderedWaves {
        /// Index of the first out-of-order wave.
        wave: usize,
    },
    /// A wave entry has no device placement but one was required.
    MissingPlacement {
        /// Index of the offending wave.
        wave: usize,
        /// The MetaOp lacking placement.
        metaop: MetaOpId,
    },
    /// Two entries of the same wave were placed on overlapping devices.
    PlacementOverlap {
        /// Index of the offending wave.
        wave: usize,
    },
    /// A wave entry's estimated per-device memory exceeds the device's
    /// capacity.
    MemoryExceeded {
        /// Index of the offending wave.
        wave: usize,
        /// The MetaOp whose entry overflows.
        metaop: MetaOpId,
        /// Estimated per-device bytes required by the entry.
        required: u64,
        /// Per-device memory capacity, bytes.
        capacity: u64,
    },
    /// Planning panicked — a bug in the planner, not a property of the
    /// input. The session that panicked may hold half-updated state and must
    /// be discarded; the multi-tenant service maps this to a per-tenant
    /// completion error instead of letting the panic take the worker down.
    Panicked {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// A wave entry names a MetaOp the plan's MetaGraph does not contain.
    UnknownMetaOp {
        /// Index of the offending wave.
        wave: usize,
        /// The unknown MetaOp.
        metaop: MetaOpId,
    },
    /// Two slices of one MetaOp overlap in time.
    SliceOverlap {
        /// Index of the wave whose slice starts before the previous one
        /// ends.
        wave: usize,
        /// The MetaOp.
        metaop: MetaOpId,
    },
    /// An entry starts on a device while an entry of an earlier wave is
    /// still running there.
    DeviceBusy {
        /// Index of the wave of the entry that starts too early.
        wave: usize,
        /// Raw id of the device.
        device: u32,
    },
    /// A MetaOp's first slice starts before a producer's last slice ends.
    EarlyConsumer {
        /// The producing MetaOp.
        producer: MetaOpId,
        /// The consuming MetaOp.
        consumer: MetaOpId,
    },
    /// A wave entry was placed on a device outside the cluster.
    PlacementOutOfRange {
        /// Index of the offending wave.
        wave: usize,
        /// Raw id of the out-of-range device.
        device: u32,
        /// Devices the cluster actually has.
        available: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Graph(e) => write!(f, "invalid computation graph: {e}"),
            PlanError::EmptyCluster => write!(f, "cluster has no devices"),
            PlanError::NoCurve(m) => write!(f, "no scaling curve for {m}"),
            PlanError::CapacityExceeded {
                wave,
                requested,
                available,
            } => write!(
                f,
                "wave {wave} requests {requested} devices but only {available} exist"
            ),
            PlanError::IncompleteSchedule {
                metaop,
                scheduled,
                required,
            } => write!(f, "{metaop} scheduled {scheduled} of {required} operators"),
            PlanError::UnorderedWaves { wave } => {
                write!(f, "wave {wave} starts before its predecessor")
            }
            PlanError::MissingPlacement { wave, metaop } => {
                write!(f, "wave {wave} entry {metaop} has no device placement")
            }
            PlanError::PlacementOverlap { wave } => {
                write!(f, "wave {wave} places two entries on the same device")
            }
            PlanError::MemoryExceeded {
                wave,
                metaop,
                required,
                capacity,
            } => write!(
                f,
                "wave {wave} entry {metaop} needs {required} bytes/device but only {capacity} fit"
            ),
            PlanError::Panicked { message } => {
                write!(f, "planning panicked: {message}")
            }
            PlanError::UnknownMetaOp { wave, metaop } => {
                write!(
                    f,
                    "wave {wave} schedules {metaop}, which the MetaGraph lacks"
                )
            }
            PlanError::SliceOverlap { wave, metaop } => write!(
                f,
                "wave {wave} starts a slice of {metaop} before its previous slice ends"
            ),
            PlanError::DeviceBusy { wave, device } => write!(
                f,
                "wave {wave} starts an entry on device {device} while an earlier one runs there"
            ),
            PlanError::EarlyConsumer { producer, consumer } => write!(
                f,
                "{consumer} starts before its producer {producer} finishes"
            ),
            PlanError::PlacementOutOfRange {
                wave,
                device,
                available,
            } => write!(
                f,
                "wave {wave} places an entry on device {device} but the cluster has {available}"
            ),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PlanError {
    fn from(value: GraphError) -> Self {
        PlanError::Graph(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PlanError>();
        let e = PlanError::Graph(GraphError::CycleDetected);
        assert!(e.to_string().contains("cycle"));
        assert!(e.source().is_some());
        assert!(PlanError::EmptyCluster.source().is_none());
        let cap = PlanError::CapacityExceeded {
            wave: 3,
            requested: 9,
            available: 8,
        };
        assert!(cap.to_string().contains("wave 3"));
    }
}
