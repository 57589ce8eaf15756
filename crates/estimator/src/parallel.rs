//! Intra-operator parallel configurations (data parallelism × tensor
//! parallelism).

use std::fmt;

use spindle_graph::Operator;

/// A hybrid parallel configuration for executing one operator on
/// `dp × tp` devices: the batch is split `dp` ways (data parallelism) and the
/// operator's weights are split `tp` ways (tensor parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Data-parallel degree.
    pub dp: u32,
    /// Tensor-parallel degree.
    pub tp: u32,
}

impl ParallelConfig {
    /// The single-device configuration.
    pub const SERIAL: ParallelConfig = ParallelConfig { dp: 1, tp: 1 };

    /// Total number of devices used.
    #[must_use]
    pub fn num_devices(&self) -> u32 {
        self.dp * self.tp
    }

    /// All valid configurations of `op` on exactly `n` devices: the
    /// data-parallel degree must divide the operator's batch, and the
    /// tensor-parallel degree must be 1, 2, 4 or 8 (bounded by NVLink island
    /// size) and not exceed the number of attention heads implied by the
    /// hidden dimension.
    pub fn valid_for(op: &Operator, n: u32) -> impl Iterator<Item = ParallelConfig> {
        let batch = op.input_shape().batch;
        let heads = (op.input_shape().hidden / 64).max(1);
        [1u32, 2, 4, 8].into_iter().filter_map(move |tp| {
            if n % tp != 0 || tp > heads {
                return None;
            }
            let dp = n / tp;
            (dp != 0 && batch % dp == 0).then_some(ParallelConfig { dp, tp })
        })
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dp{}xtp{}", self.dp, self.tp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{Modality, OpId, OpKind, TaskId, TensorShape};

    fn op(batch: u32, hidden: u32) -> Operator {
        Operator::new(
            OpId(0),
            OpKind::Encoder(Modality::Text),
            TaskId(0),
            TensorShape::new(batch, 77, hidden),
        )
    }

    #[test]
    fn serial_config_always_valid() {
        let configs: Vec<_> = ParallelConfig::valid_for(&op(8, 768), 1).collect();
        assert_eq!(configs, vec![ParallelConfig::SERIAL]);
        assert_eq!(ParallelConfig::SERIAL.num_devices(), 1);
    }

    #[test]
    fn dp_must_divide_batch() {
        // batch 4 on 8 devices: dp=8 invalid, dp4xtp2 / dp2xtp4 / dp1xtp8 valid.
        let configs: Vec<_> = ParallelConfig::valid_for(&op(4, 768), 8).collect();
        assert!(!configs.iter().any(|c| c.dp == 8));
        assert!(configs.contains(&ParallelConfig { dp: 4, tp: 2 }));
        assert!(configs.contains(&ParallelConfig { dp: 1, tp: 8 }));
        for c in &configs {
            assert_eq!(c.num_devices(), 8);
        }
    }

    #[test]
    fn odd_device_counts_are_usually_invalid() {
        assert_eq!(ParallelConfig::valid_for(&op(8, 768), 3).count(), 0);
        assert_eq!(ParallelConfig::valid_for(&op(8, 768), 5).count(), 0);
        // ... but batch-divisible odd counts are fine (dp only).
        assert_eq!(
            ParallelConfig::valid_for(&op(6, 768), 3).collect::<Vec<_>>(),
            vec![ParallelConfig { dp: 3, tp: 1 }]
        );
    }

    #[test]
    fn tp_bounded_by_heads() {
        // hidden 128 -> 2 heads, so tp 4/8 are invalid.
        assert!(ParallelConfig::valid_for(&op(8, 128), 8).all(|c| c.tp <= 2));
    }

    #[test]
    fn display_format() {
        assert_eq!(ParallelConfig { dp: 4, tp: 2 }.to_string(), "dp4xtp2");
    }
}
