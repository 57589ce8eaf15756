//! The unified computation graph `G = (V, E)` over all tasks.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use crate::{GraphError, OpId, Operator, ParamId, TaskId, TaskSpec};

/// The unified directed acyclic computation graph over all tasks of an MT MM
/// workload.
///
/// Nodes are [`Operator`]s, edges are data flows. The graph keeps its
/// operators, edges and tasks and nothing derived from them; queries such
/// as [`topological_order`](Self::topological_order) read the edge list.
/// It is immutable once built, and [`new`](Self::new) is the one place a
/// graph is checked: [`GraphBuilder::build`](crate::GraphBuilder::build)
/// and graphs decoded from the wire both go through it. The planner derives
/// MetaOps, MetaLevels and the execution plan from it without mutating it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputationGraph {
    ops: Vec<Operator>,
    edges: Vec<(OpId, OpId)>,
    tasks: Vec<TaskSpec>,
}

impl ComputationGraph {
    /// Assembles a graph from parts, validating identity, edges and
    /// acyclicity.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty, an operator's id is not its
    /// index ([`GraphError::UnknownOp`]), it references unknown operators or
    /// tasks, has a degenerate shape, a self-loop, a repeated edge or a
    /// cycle. The checks run in that order and the first fault found is
    /// returned, so of a graph with several faults one is named; of several
    /// repeated edges, [`GraphError::DuplicateEdge`] names the smallest
    /// `(from, to)` pair.
    pub fn new(
        ops: Vec<Operator>,
        edges: Vec<(OpId, OpId)>,
        tasks: Vec<TaskSpec>,
    ) -> Result<Self, GraphError> {
        if ops.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        for (idx, op) in ops.iter().enumerate() {
            if op.id().index() != idx {
                return Err(GraphError::UnknownOp(op.id()));
            }
            op.input_shape().validate()?;
            if op.task().index() >= tasks.len() {
                return Err(GraphError::UnknownTask(op.task()));
            }
        }
        let n = ops.len();
        for &(a, b) in &edges {
            if a.index() >= n {
                return Err(GraphError::UnknownOp(a));
            }
            if b.index() >= n {
                return Err(GraphError::UnknownOp(b));
            }
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
        }
        // Sorted, a repeated edge sits next to its twin, and each operator's
        // out-edges form one run for the cycle check.
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(GraphError::DuplicateEdge(pair[0].0, pair[0].1));
        }
        // A cycle leaves its operators out of every topological order.
        if kahn_order(n, &sorted).len() != n {
            return Err(GraphError::CycleDetected);
        }
        Ok(Self { ops, edges, tasks })
    }

    /// Number of operators.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of data-flow edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All operators, indexed by [`OpId`].
    #[must_use]
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// The operator with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (graphs only hand out valid ids).
    #[must_use]
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id.index()]
    }

    /// All data-flow edges.
    #[must_use]
    pub fn edges(&self) -> &[(OpId, OpId)] {
        &self.edges
    }

    /// The tasks of this workload.
    #[must_use]
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// The task with the given id, if it exists.
    #[must_use]
    pub fn task(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.get(id.index())
    }

    /// A topological order of the operators (Kahn's algorithm over the
    /// edge list, smallest ready id first). [`new`](Self::new) rejects
    /// cyclic graphs, so the order is always complete.
    #[must_use]
    pub fn topological_order(&self) -> Vec<OpId> {
        let mut sorted = self.edges.clone();
        sorted.sort_unstable();
        kahn_order(self.num_ops(), &sorted)
    }

    /// Total forward+backward FLOPs of one iteration over all operators.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.ops.iter().map(Operator::flops_total).sum()
    }

    /// Total bytes of *unique* parameters (operators sharing a [`ParamId`]
    /// count once; operators without an explicit `ParamId` count individually).
    #[must_use]
    pub fn total_param_bytes(&self) -> u64 {
        let mut by_param: BTreeMap<ParamId, u64> = BTreeMap::new();
        let mut unshared = 0u64;
        for op in &self.ops {
            if op.params().is_empty() {
                unshared += op.param_bytes();
            } else {
                let share = op.param_bytes() / op.params().len() as u64;
                for &p in op.params() {
                    let entry = by_param.entry(p).or_insert(0);
                    *entry = (*entry).max(share);
                }
            }
        }
        unshared + by_param.values().sum::<u64>()
    }
}

/// Kahn's algorithm over `n` operators and `sorted`, edges in ascending
/// order (so each operator's out-edges form one run). Ready operators leave
/// smallest id first, which keeps the order deterministic and makes derived
/// ids (e.g. MetaOp ids) follow operator declaration order. The order is
/// shorter than `n` exactly when the edges contain a cycle.
fn kahn_order(n: usize, sorted: &[(OpId, OpId)]) -> Vec<OpId> {
    let mut in_deg = vec![0usize; n];
    for &(_, b) in sorted {
        in_deg[b.index()] += 1;
    }
    let mut ready: BinaryHeap<Reverse<OpId>> = (0..n)
        .filter(|&i| in_deg[i] == 0)
        .map(|i| Reverse(OpId(i as u32)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(id)) = ready.pop() {
        order.push(id);
        let first = sorted.partition_point(|&(a, _)| a < id);
        for &(_, succ) in sorted[first..].iter().take_while(|&&(a, _)| a == id) {
            in_deg[succ.index()] -= 1;
            if in_deg[succ.index()] == 0 {
                ready.push(Reverse(succ));
            }
        }
    }
    order
}

impl fmt::Display for ComputationGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "computation graph: {} tasks, {} ops, {} edges, {:.2} GFLOPs/iter",
            self.tasks.len(),
            self.num_ops(),
            self.num_edges(),
            self.total_flops() / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Modality, OpKind, TensorShape};

    fn two_task_graph() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task("audio-text", [Modality::Audio, Modality::Text], 8);
        let t1 = b.add_task("vision-text", [Modality::Vision, Modality::Text], 4);
        let audio = b
            .add_op_chain(
                t0,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                3,
            )
            .unwrap();
        let text0 = b
            .add_op_chain(
                t0,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                2,
            )
            .unwrap();
        let loss0 = b
            .add_op(t0, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))
            .unwrap();
        b.add_flow(*audio.last().unwrap(), loss0).unwrap();
        b.add_flow(*text0.last().unwrap(), loss0).unwrap();
        let vis = b
            .add_op_chain(
                t1,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(4, 257, 768),
                2,
            )
            .unwrap();
        let text1 = b
            .add_op_chain(
                t1,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(4, 77, 768),
                2,
            )
            .unwrap();
        let loss1 = b
            .add_op(t1, OpKind::ContrastiveLoss, TensorShape::new(4, 1, 768))
            .unwrap();
        b.add_flow(*vis.last().unwrap(), loss1).unwrap();
        b.add_flow(*text1.last().unwrap(), loss1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = two_task_graph();
        assert_eq!(g.num_ops(), 3 + 2 + 1 + 2 + 2 + 1);
        assert_eq!(g.tasks().len(), 2);
        assert!(g.total_flops() > 0.0);
        assert!(g.total_param_bytes() > 0);
        assert!(g.to_string().contains("2 tasks"));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = two_task_graph();
        let order = g.topological_order();
        assert_eq!(order.len(), g.num_ops());
        let pos: BTreeMap<OpId, usize> = order.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        for &(a, b) in g.edges() {
            assert!(pos[&a] < pos[&b], "{a} must precede {b}");
        }
    }

    #[test]
    fn cycle_rejected() {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Text], 4);
        let a = b
            .add_op(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(4, 77, 768),
            )
            .unwrap();
        let c = b
            .add_op(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(4, 77, 768),
            )
            .unwrap();
        b.add_flow(a, c).unwrap();
        b.add_flow(c, a).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::CycleDetected);
    }

    #[test]
    fn duplicate_edge_and_self_loop_rejected() {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Text], 4);
        let shape = TensorShape::new(4, 77, 768);
        let [a, c, d] =
            [0; 3].map(|_| b.add_op(t, OpKind::Encoder(Modality::Text), shape).unwrap());
        assert_eq!(b.add_flow(a, a).unwrap_err(), GraphError::SelfLoop(a));
        // `add_flow` leaves repeats to `build`, which names the smallest
        // repeated pair whatever order the repeats came in.
        for (from, to) in [(c, d), (c, d), (a, c), (a, c)] {
            b.add_flow(from, to).unwrap();
        }
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(a, c));
    }

    #[test]
    fn task_lookup() {
        let g = two_task_graph();
        assert_eq!(g.task(TaskId(0)).unwrap().name(), "audio-text");
        assert!(g.task(TaskId(7)).is_none());
    }
}
