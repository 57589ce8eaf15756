//! Per-operator device-memory estimation.

use spindle_graph::Operator;

use crate::PerfModel;

/// Estimates per-device memory consumption of operators.
///
/// Used by the device-placement step (§3.5: "Spindle estimates each MetaOp's
/// memory consumption, tracks available memory on devices, and prioritizes
/// placement on the device with the most available memory") and by the runtime
/// simulator's memory accounting (Appendix G).
#[derive(Debug)]
pub struct MemoryModel<'a> {
    model: &'a dyn PerfModel,
}

impl<'a> MemoryModel<'a> {
    /// Creates a memory model backed by a performance model.
    #[must_use]
    pub fn new(model: &'a dyn PerfModel) -> Self {
        Self { model }
    }

    /// Peak per-device bytes needed by one operator of a MetaOp when the
    /// MetaOp is allocated `n` devices.
    #[must_use]
    pub fn per_device_bytes(&self, op: &Operator, n: u32) -> u64 {
        self.model.memory_bytes(op, n.max(1))
    }

    /// Peak per-device bytes for `layers` stacked operators sharing the same
    /// allocation (e.g. the slice of a MetaOp placed on one device group).
    #[must_use]
    pub fn per_device_bytes_for_slice(&self, op: &Operator, n: u32, layers: u32) -> u64 {
        self.per_device_bytes(op, n)
            .saturating_mul(u64::from(layers.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyticGpuModel;
    use spindle_cluster::ClusterSpec;
    use spindle_graph::{OpId, OpKind, TaskId, TensorShape};

    #[test]
    fn slices_scale_linearly_with_layers() {
        let cluster = ClusterSpec::homogeneous(1, 8);
        let gpu_model = AnalyticGpuModel::new(&cluster);
        let mem = MemoryModel::new(&gpu_model);
        let op = Operator::new(
            OpId(0),
            OpKind::LmDecoderOnly,
            TaskId(0),
            TensorShape::new(8, 512, 2048),
        );
        let one = mem.per_device_bytes_for_slice(&op, 4, 1);
        let four = mem.per_device_bytes_for_slice(&op, 4, 4);
        assert_eq!(four, 4 * one);
        assert_eq!(one, mem.per_device_bytes(&op, 4));
        // Zero layers are clamped to one to avoid vanishing footprints.
        assert_eq!(mem.per_device_bytes_for_slice(&op, 4, 0), one);
    }
}
