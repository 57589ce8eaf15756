//! Operators: the nodes of the computation graph.

use std::fmt;

use crate::transformer::{default_costs, OpCosts};
use crate::{Modality, TaskId, TensorShape};

/// Identifier of an operator within a [`ComputationGraph`](crate::ComputationGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub u32);

impl OpId {
    /// Raw index of the operator.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifier of a (possibly shared) parameter group.
///
/// Two operators carrying the same `ParamId` share parameters: their gradients
/// must be accumulated and the parameter synchronised across every device that
/// hosts either operator (the parameter device groups of §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub u32);

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// The computational kind of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// One transformer layer of a modality-specific encoder.
    Encoder(Modality),
    /// A lightweight modality adaptor (single projection), as used by OFASys.
    Adaptor(Modality),
    /// One encoder layer of a unified cross-modal LM (encoder-decoder style).
    LmEncoder,
    /// One decoder layer of a unified cross-modal LM (encoder-decoder style).
    LmDecoder,
    /// One layer of a decoder-only LLM (QWen-style cross-modal module).
    LmDecoderOnly,
    /// Token/patch embedding lookup.
    Embedding,
    /// A projection head (e.g. into the contrastive embedding space).
    Projection,
    /// Contrastive (CLIP-style) loss head.
    ContrastiveLoss,
    /// Generative (language-modelling) loss head.
    GenerativeLoss,
}

impl OpKind {
    /// Short stable label for the kind (used in traces and experiment output).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            OpKind::Encoder(m) => format!("{m}-enc"),
            OpKind::Adaptor(m) => format!("{m}-adaptor"),
            OpKind::LmEncoder => "lm-enc".to_string(),
            OpKind::LmDecoder => "lm-dec".to_string(),
            OpKind::LmDecoderOnly => "llm".to_string(),
            OpKind::Embedding => "embed".to_string(),
            OpKind::Projection => "proj".to_string(),
            OpKind::ContrastiveLoss => "contrastive-loss".to_string(),
            OpKind::GenerativeLoss => "generative-loss".to_string(),
        }
    }

    /// Returns `true` if this kind is a loss head.
    #[must_use]
    pub fn is_loss(&self) -> bool {
        matches!(self, OpKind::ContrastiveLoss | OpKind::GenerativeLoss)
    }

    /// The modality this kind is specific to, if any.
    #[must_use]
    pub fn modality(&self) -> Option<Modality> {
        match self {
            OpKind::Encoder(m) | OpKind::Adaptor(m) => Some(*m),
            _ => None,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A node of the computation graph: one computational operator activated by a
/// specific task, together with the cost figures the planner needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    id: OpId,
    kind: OpKind,
    task: TaskId,
    input_shape: TensorShape,
    flops_forward: f64,
    param_bytes: u64,
    output_bytes: u64,
    params: Vec<ParamId>,
}

impl Operator {
    /// Creates an operator with costs derived from its kind and input shape.
    #[must_use]
    pub fn new(id: OpId, kind: OpKind, task: TaskId, input_shape: TensorShape) -> Self {
        let OpCosts {
            flops_forward,
            param_bytes,
            output_bytes,
        } = default_costs(kind, input_shape);
        Self {
            id,
            kind,
            task,
            input_shape,
            flops_forward,
            param_bytes,
            output_bytes,
            params: Vec::new(),
        }
    }

    /// Overrides the derived costs (for calibration or custom operators).
    #[must_use]
    pub fn with_costs(mut self, flops_forward: f64, param_bytes: u64, output_bytes: u64) -> Self {
        self.flops_forward = flops_forward;
        self.param_bytes = param_bytes;
        self.output_bytes = output_bytes;
        self
    }

    /// Attaches a (possibly shared) parameter group to the operator.
    #[must_use]
    pub fn with_param(mut self, param: ParamId) -> Self {
        if !self.params.contains(&param) {
            self.params.push(param);
        }
        self
    }

    /// Operator identity.
    #[must_use]
    pub fn id(&self) -> OpId {
        self.id
    }

    /// Operator kind.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The task that activates this operator.
    #[must_use]
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Input activation shape.
    #[must_use]
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// Forward-pass FLOPs on the full per-task batch.
    #[must_use]
    pub fn flops_forward(&self) -> f64 {
        self.flops_forward
    }

    /// Backward-pass FLOPs (the conventional 2× forward).
    #[must_use]
    pub fn flops_backward(&self) -> f64 {
        2.0 * self.flops_forward
    }

    /// Total FLOPs of one training step of this operator (forward + backward).
    #[must_use]
    pub fn flops_total(&self) -> f64 {
        self.flops_forward + self.flops_backward()
    }

    /// Bytes of parameters owned by this operator.
    #[must_use]
    pub fn param_bytes(&self) -> u64 {
        self.param_bytes
    }

    /// Bytes of the operator's output activation (= the volume of every data
    /// flow leaving this operator).
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        self.output_bytes
    }

    /// Parameter groups attached to this operator.
    #[must_use]
    pub fn params(&self) -> &[ParamId] {
        &self.params
    }

    /// Workload signature used by the graph-contraction criteria of §3.1: two
    /// operators with the same signature have identical workloads.
    #[must_use]
    pub fn signature(&self) -> OpSignature {
        OpSignature {
            kind: self.kind,
            input_shape: self.input_shape,
            task: self.task,
        }
    }

    /// Task-independent workload identity: everything that determines the
    /// operator's cost model — kind, input shape and the (possibly overridden)
    /// cost figures. Two operators with equal workload signatures have
    /// bit-identical scaling curves, memory footprints and flow volumes, no
    /// matter which task activates them, so this is the key under which
    /// estimator and planner caches may share results across tasks and across
    /// graphs (e.g. the phases of a dynamic workload).
    #[must_use]
    pub fn workload_signature(&self) -> WorkloadSignature {
        WorkloadSignature {
            kind: self.kind,
            input_shape: self.input_shape,
            flops_forward_bits: self.flops_forward.to_bits(),
            param_bytes: self.param_bytes,
            output_bytes: self.output_bytes,
        }
    }

    /// The device-allocation sizes that are *valid* for this operator under
    /// the practical constraints of §3.3: the data-parallel degree must divide
    /// the per-task batch and the tensor-parallel degree must be a power of two
    /// no larger than 8, so valid sizes are exactly the products of such a pair.
    /// Always includes 1 and never exceeds `max_devices`.
    #[must_use]
    pub fn valid_allocations(&self, max_devices: u32) -> Vec<u32> {
        let batch = self.input_shape.batch;
        let mut valid = Vec::new();
        for n in 1..=max_devices {
            if Self::is_valid_allocation(batch, n) {
                valid.push(n);
            }
        }
        if valid.is_empty() {
            valid.push(1);
        }
        valid
    }

    fn is_valid_allocation(batch: u32, n: u32) -> bool {
        for tp in [1u32, 2, 4, 8] {
            if n % tp != 0 {
                continue;
            }
            let dp = n / tp;
            if dp == 0 {
                continue;
            }
            if batch % dp == 0 {
                return true;
            }
        }
        false
    }
}

/// Signature that identifies identical workloads for graph contraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSignature {
    /// Operator kind.
    pub kind: OpKind,
    /// Input data size.
    pub input_shape: TensorShape,
    /// Activating task (operators of different tasks are never fused).
    pub task: TaskId,
}

/// Task-independent workload identity (see
/// [`Operator::workload_signature`]): the exact inputs of the cost model,
/// including overridden costs, so equal signatures guarantee equal profiling
/// results. Unlike [`OpSignature`] it carries no [`TaskId`], which is what
/// lets caches keyed by it serve hits across tasks and across graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadSignature {
    /// Operator kind.
    pub kind: OpKind,
    /// Input data size.
    pub input_shape: TensorShape,
    /// Bit pattern of the forward-pass FLOPs (bitwise so the key is hashable;
    /// costs produced by the same derivation are bit-identical).
    pub flops_forward_bits: u64,
    /// Parameter bytes.
    pub param_bytes: u64,
    /// Output activation bytes.
    pub output_bytes: u64,
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} {})", self.id, self.kind, self.input_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, shape: TensorShape) -> Operator {
        Operator::new(OpId(0), kind, TaskId(0), shape)
    }

    #[test]
    fn costs_derived_from_kind_and_shape() {
        let enc = op(
            OpKind::Encoder(Modality::Vision),
            TensorShape::new(4, 257, 768),
        );
        assert!(enc.flops_forward() > 0.0);
        assert!(enc.param_bytes() > 0);
        assert_eq!(enc.flops_backward(), 2.0 * enc.flops_forward());
        assert_eq!(enc.flops_total(), 3.0 * enc.flops_forward());
    }

    #[test]
    fn with_costs_overrides() {
        let o = op(OpKind::Projection, TensorShape::new(4, 77, 768)).with_costs(1.0, 2, 3);
        assert_eq!(o.flops_forward(), 1.0);
        assert_eq!(o.param_bytes(), 2);
        assert_eq!(o.output_bytes(), 3);
    }

    #[test]
    fn params_dedup() {
        let o = op(OpKind::LmEncoder, TensorShape::new(4, 512, 1024))
            .with_param(ParamId(5))
            .with_param(ParamId(5))
            .with_param(ParamId(6));
        assert_eq!(o.params(), &[ParamId(5), ParamId(6)]);
    }

    #[test]
    fn signatures_distinguish_shape_and_kind() {
        let a = op(
            OpKind::Encoder(Modality::Text),
            TensorShape::new(8, 77, 768),
        );
        let b = op(
            OpKind::Encoder(Modality::Text),
            TensorShape::new(4, 77, 768),
        );
        let c = op(
            OpKind::Encoder(Modality::Vision),
            TensorShape::new(8, 77, 768),
        );
        assert_ne!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
        assert_eq!(a.signature(), a.clone().signature());
    }

    #[test]
    fn workload_signatures_ignore_task_but_track_costs() {
        let a = Operator::new(
            OpId(0),
            OpKind::Encoder(Modality::Text),
            TaskId(0),
            TensorShape::new(8, 77, 768),
        );
        let b = Operator::new(
            OpId(9),
            OpKind::Encoder(Modality::Text),
            TaskId(3),
            TensorShape::new(8, 77, 768),
        );
        // Same kind+shape+derived costs: equal across tasks (OpSignature is
        // not — it keeps tasks apart for contraction).
        assert_eq!(a.workload_signature(), b.workload_signature());
        assert_ne!(a.signature(), b.signature());
        // Overridden costs change the workload identity.
        let c = b.clone().with_costs(1.0, 2, 3);
        assert_ne!(a.workload_signature(), c.workload_signature());
        // Copying the same costs (as subgraph extraction does) keeps it.
        let d = b
            .clone()
            .with_costs(b.flops_forward(), b.param_bytes(), b.output_bytes());
        assert_eq!(a.workload_signature(), d.workload_signature());
    }

    #[test]
    fn valid_allocations_follow_batch_divisibility() {
        let o = op(
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
        );
        let valid = o.valid_allocations(16);
        assert!(valid.contains(&1));
        assert!(valid.contains(&2));
        assert!(valid.contains(&8));
        assert!(valid.contains(&16));
        // 3, 5, 7 are invalid for a batch of 8 (per the paper's example).
        assert!(!valid.contains(&3));
        assert!(!valid.contains(&5));
        assert!(!valid.contains(&7));
    }

    #[test]
    fn valid_allocations_never_empty_and_bounded() {
        let o = op(OpKind::ContrastiveLoss, TensorShape::new(7, 1, 768));
        let valid = o.valid_allocations(4);
        assert!(!valid.is_empty());
        assert!(valid.iter().all(|&n| n <= 4));
    }

    #[test]
    fn kind_helpers() {
        assert!(OpKind::ContrastiveLoss.is_loss());
        assert!(!OpKind::LmDecoderOnly.is_loss());
        assert_eq!(
            OpKind::Encoder(Modality::Audio).modality(),
            Some(Modality::Audio)
        );
        assert_eq!(OpKind::LmDecoder.modality(), None);
        assert_eq!(OpKind::Encoder(Modality::Vision).label(), "vision-enc");
    }

    #[test]
    fn display_is_informative() {
        let o = op(
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
        );
        let s = o.to_string();
        assert!(s.contains("op0"));
        assert!(s.contains("audio-enc"));
        assert!(s.contains("[8, 229, 768]"));
    }
}
