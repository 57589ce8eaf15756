//! MetaOps: fused chains of identical operators (§3.1).

use std::fmt;

use spindle_graph::{OpId, Operator, ParamId, TaskId};

/// Identifier of a MetaOp within a [`MetaGraph`](crate::MetaGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MetaOpId(pub u32);

impl MetaOpId {
    /// Raw index of the MetaOp.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MetaOpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metaop{}", self.0)
    }
}

/// A MetaOp: a maximal chain of consecutive operators with identical workloads
/// (same operator type and input data size), produced by graph contraction.
///
/// Because all member operators share the same workload, the MetaOp is fully
/// characterised by one *representative* operator and the number of operators
/// it contains (`L_m` in the paper). The planner allocates resources and
/// schedules execution at MetaOp granularity, slicing the `L_m` operators
/// across waves as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaOp {
    id: MetaOpId,
    ops: Vec<OpId>,
    representative: Operator,
    level: usize,
}

impl MetaOp {
    /// Creates a MetaOp from its member operators (in chain order) and a
    /// representative operator describing the per-operator workload.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    #[must_use]
    pub fn new(id: MetaOpId, ops: Vec<OpId>, representative: Operator) -> Self {
        assert!(
            !ops.is_empty(),
            "a MetaOp must contain at least one operator"
        );
        Self {
            id,
            ops,
            representative,
            level: 0,
        }
    }

    /// MetaOp identity.
    #[must_use]
    pub fn id(&self) -> MetaOpId {
        self.id
    }

    /// The member operators, in execution (chain) order.
    #[must_use]
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// Number of consecutive operators fused into this MetaOp (`L_m`).
    #[must_use]
    pub fn num_ops(&self) -> u32 {
        self.ops.len() as u32
    }

    /// The representative operator describing the per-operator workload.
    #[must_use]
    pub fn representative(&self) -> &Operator {
        &self.representative
    }

    /// The task that activates this MetaOp.
    #[must_use]
    pub fn task(&self) -> TaskId {
        self.representative.task()
    }

    /// The dependency level (MetaLevel index) of this MetaOp.
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    pub(crate) fn set_level(&mut self, level: usize) {
        self.level = level;
    }

    /// All parameter groups touched by the MetaOp's operators. For fused
    /// layer chains each layer typically owns a distinct parameter group; the
    /// representative carries only the first layer's, so this is primarily the
    /// sharing signal used for parameter device groups.
    #[must_use]
    pub fn params(&self) -> &[ParamId] {
        self.representative.params()
    }

    /// Total forward+backward FLOPs of one iteration of the whole MetaOp.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.representative.flops_total() * f64::from(self.num_ops())
    }
}

impl fmt::Display for MetaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} x {} {}]",
            self.id,
            self.num_ops(),
            self.representative.kind(),
            self.representative.input_shape()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{Modality, OpKind, TensorShape};

    fn rep() -> Operator {
        Operator::new(
            OpId(0),
            OpKind::Encoder(Modality::Audio),
            TaskId(1),
            TensorShape::new(8, 229, 768),
        )
        .with_param(ParamId(3))
    }

    #[test]
    fn accessors() {
        let m = MetaOp::new(MetaOpId(2), vec![OpId(0), OpId(1), OpId(2)], rep());
        assert_eq!(m.id(), MetaOpId(2));
        assert_eq!(m.num_ops(), 3);
        assert_eq!(m.task(), TaskId(1));
        assert_eq!(m.params(), &[ParamId(3)]);
        assert_eq!(m.level(), 0);
        assert!((m.total_flops() - 3.0 * m.representative().flops_total()).abs() < 1e-6);
        assert!(m.to_string().contains("metaop2"));
    }

    #[test]
    #[should_panic(expected = "at least one operator")]
    fn empty_metaop_panics() {
        let _ = MetaOp::new(MetaOpId(0), vec![], rep());
    }

    #[test]
    fn metaop_id_display() {
        assert_eq!(MetaOpId(7).to_string(), "metaop7");
        assert_eq!(MetaOpId(7).index(), 7);
    }
}
