//! Tensor shapes describing per-operator input data sizes.

use std::fmt;

use crate::GraphError;

/// Shape of an operator's input activation tensor, `[batch, sequence, hidden]`.
///
/// This matches the "input data size" column of Fig. 3 in the paper — e.g. the
/// audio MetaOp of the audio-language task has input `[8, 229, 768]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Number of samples in the (per-task) global batch.
    pub batch: u32,
    /// Sequence length in tokens/patches.
    pub seq: u32,
    /// Hidden (model) dimension.
    pub hidden: u32,
}

impl TensorShape {
    /// Creates a shape `[batch, seq, hidden]`.
    #[must_use]
    pub fn new(batch: u32, seq: u32, hidden: u32) -> Self {
        Self { batch, seq, hidden }
    }

    /// Validates that all dimensions are non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidShape`] if any dimension is zero.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.batch == 0 || self.seq == 0 || self.hidden == 0 {
            return Err(GraphError::InvalidShape(format!(
                "all dimensions must be positive, got {self}"
            )));
        }
        Ok(())
    }

    /// Number of elements in a tensor of this shape, saturating at
    /// `u64::MAX`: shapes decoded from the wire may be absurd.
    #[must_use]
    pub fn num_elements(&self) -> u64 {
        u64::from(self.batch)
            .saturating_mul(u64::from(self.seq))
            .saturating_mul(u64::from(self.hidden))
    }

    /// Size in bytes assuming 2-byte (bf16/fp16) elements, the precision used
    /// for activations in mixed-precision training.
    #[must_use]
    pub fn activation_bytes(&self) -> u64 {
        self.num_elements().saturating_mul(2)
    }

    /// Number of tokens (batch × sequence).
    #[must_use]
    pub fn tokens(&self) -> u64 {
        u64::from(self.batch) * u64::from(self.seq)
    }

    /// Returns a copy with a different batch size (used when a task's batch is
    /// re-partitioned).
    #[must_use]
    pub fn with_batch(&self, batch: u32) -> Self {
        Self { batch, ..*self }
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}]", self.batch, self.seq, self.hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_and_byte_counts() {
        let s = TensorShape::new(8, 229, 768);
        assert_eq!(s.num_elements(), 8 * 229 * 768);
        assert_eq!(s.activation_bytes(), 8 * 229 * 768 * 2);
        assert_eq!(s.tokens(), 8 * 229);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(TensorShape::new(8, 229, 768).to_string(), "[8, 229, 768]");
    }

    #[test]
    fn validation_rejects_zero_dims() {
        assert!(TensorShape::new(0, 1, 1).validate().is_err());
        assert!(TensorShape::new(1, 0, 1).validate().is_err());
        assert!(TensorShape::new(1, 1, 0).validate().is_err());
        assert!(TensorShape::new(4, 77, 768).validate().is_ok());
    }

    #[test]
    fn with_batch_only_changes_batch() {
        let s = TensorShape::new(8, 77, 768).with_batch(4);
        assert_eq!(s, TensorShape::new(4, 77, 768));
    }
}
