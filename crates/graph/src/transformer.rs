//! Analytic cost formulas for transformer-style operators.
//!
//! The workload builders need per-operator forward FLOPs, parameter sizes and
//! activation volumes. These are standard closed-form counts for transformer
//! layers (attention + MLP) and lightweight components (adaptors, losses); they
//! are the same formulas used by Megatron-LM's performance accounting.

use crate::{OpKind, TensorShape};

/// Configuration of a transformer layer used to derive FLOP and parameter
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerLayerSpec {
    /// Hidden (model) dimension.
    pub hidden: u32,
    /// Feed-forward expansion factor (4 for classic transformers).
    pub ffn_multiplier: u32,
    /// Number of attention heads.
    pub num_heads: u32,
}

impl TransformerLayerSpec {
    /// A layer spec for the given hidden size with conventional defaults
    /// (4× FFN, head dimension 64).
    #[must_use]
    pub fn for_hidden(hidden: u32) -> Self {
        Self {
            hidden,
            ffn_multiplier: 4,
            num_heads: (hidden / 64).max(1),
        }
    }

    /// Forward FLOPs of one layer for a `[b, s, h]` input.
    ///
    /// Attention projections + score/context matmuls + MLP:
    /// `8·b·s·h² + 4·b·s²·h + 4·m·b·s·h²` where `m` is the FFN multiplier.
    #[must_use]
    pub fn forward_flops(&self, shape: TensorShape) -> f64 {
        let b = f64::from(shape.batch);
        let s = f64::from(shape.seq);
        let h = f64::from(self.hidden);
        let m = f64::from(self.ffn_multiplier);
        8.0 * b * s * h * h + 4.0 * b * s * s * h + 4.0 * m * b * s * h * h
    }

    /// Number of parameters in one layer: `4·h²` (attention) + `2·m·h²` (MLP)
    /// plus layer norms (negligible, included as `4·h`), saturating at
    /// `u64::MAX` for absurd hidden sizes.
    #[must_use]
    pub fn num_params(&self) -> u64 {
        let h = u64::from(self.hidden);
        let m = u64::from(self.ffn_multiplier);
        (h * h).saturating_mul(4 + 2 * m).saturating_add(4 * h)
    }

    /// Parameter bytes in half precision (2 bytes per parameter).
    #[must_use]
    pub fn param_bytes(&self) -> u64 {
        self.num_params().saturating_mul(2)
    }
}

/// Per-operator cost figures derived from its kind and input shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// Forward-pass FLOPs of the operator on the full (per-task) batch.
    pub flops_forward: f64,
    /// Bytes of parameters owned by the operator (half precision).
    pub param_bytes: u64,
    /// Bytes of the operator's output activation (half precision).
    pub output_bytes: u64,
}

/// Default costs for an operator of `kind` whose input is `shape`.
///
/// Heavy operators (encoder/LM layers) follow the transformer formulas above;
/// lightweight operators (adaptors, embeddings, projections, losses) cost a
/// single matmul or less. The hidden dimension is taken from the input shape.
#[must_use]
pub fn default_costs(kind: OpKind, shape: TensorShape) -> OpCosts {
    let layer = TransformerLayerSpec::for_hidden(shape.hidden);
    let b = f64::from(shape.batch);
    let s = f64::from(shape.seq);
    let h = f64::from(shape.hidden);
    let output_bytes = shape.activation_bytes();
    match kind {
        OpKind::Encoder(_) | OpKind::LmEncoder | OpKind::LmDecoder | OpKind::LmDecoderOnly => {
            OpCosts {
                flops_forward: layer.forward_flops(shape),
                param_bytes: layer.param_bytes(),
                output_bytes,
            }
        }
        OpKind::Adaptor(_) | OpKind::Projection => OpCosts {
            // One dense projection h -> h.
            flops_forward: 2.0 * b * s * h * h,
            param_bytes: (u64::from(shape.hidden) * u64::from(shape.hidden)).saturating_mul(2),
            output_bytes,
        },
        OpKind::Embedding => OpCosts {
            // Lookup + scale; compute-negligible but owns an embedding table.
            flops_forward: 2.0 * b * s * h,
            param_bytes: 32_000u64 * u64::from(shape.hidden) * 2,
            output_bytes,
        },
        OpKind::ContrastiveLoss => OpCosts {
            // Pairwise similarity over the batch on pooled features.
            flops_forward: 2.0 * b * b * h,
            param_bytes: 0,
            output_bytes: u64::from(shape.batch) * 4,
        },
        OpKind::GenerativeLoss => OpCosts {
            // Logit projection to a 32k vocabulary + softmax.
            flops_forward: 2.0 * b * s * h * 32_000.0,
            param_bytes: 32_000u64 * u64::from(shape.hidden) * 2,
            output_bytes: u64::from(shape.batch) * 4,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Modality;

    #[test]
    fn layer_flops_scale_with_tokens_and_hidden() {
        let spec = TransformerLayerSpec::for_hidden(768);
        let small = spec.forward_flops(TensorShape::new(4, 77, 768));
        let more_tokens = spec.forward_flops(TensorShape::new(8, 77, 768));
        assert!((more_tokens / small - 2.0).abs() < 1e-9);
        let wide = TransformerLayerSpec::for_hidden(1536);
        assert!(wide.forward_flops(TensorShape::new(4, 77, 1536)) > 3.0 * small);
    }

    #[test]
    fn layer_params_match_closed_form() {
        let spec = TransformerLayerSpec::for_hidden(1024);
        // 4h^2 + 8h^2 + 4h = 12h^2 + 4h
        assert_eq!(spec.num_params(), 12 * 1024 * 1024 + 4 * 1024);
        assert_eq!(spec.param_bytes(), spec.num_params() * 2);
        assert_eq!(spec.num_heads, 16);
    }

    #[test]
    fn encoder_layers_dominate_lightweight_ops() {
        let shape = TensorShape::new(8, 229, 768);
        let enc = default_costs(OpKind::Encoder(Modality::Audio), shape);
        let adaptor = default_costs(OpKind::Adaptor(Modality::Audio), shape);
        let loss = default_costs(OpKind::ContrastiveLoss, shape);
        assert!(enc.flops_forward > adaptor.flops_forward);
        assert!(adaptor.flops_forward > loss.flops_forward);
        assert!(enc.param_bytes > adaptor.param_bytes);
        assert_eq!(loss.param_bytes, 0);
    }

    #[test]
    fn generative_loss_owns_vocab_projection() {
        let shape = TensorShape::new(4, 512, 1024);
        let gen = default_costs(OpKind::GenerativeLoss, shape);
        assert!(gen.param_bytes > 0);
        assert!(gen.flops_forward > default_costs(OpKind::ContrastiveLoss, shape).flops_forward);
    }

    #[test]
    fn output_bytes_follow_shape_for_layer_ops() {
        let shape = TensorShape::new(8, 197, 768);
        let enc = default_costs(OpKind::Encoder(Modality::Depth), shape);
        assert_eq!(enc.output_bytes, shape.activation_bytes());
    }
}
