//! The unified computation graph `G = (V, E)` over all tasks.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::{GraphError, OpId, Operator, ParamId, TaskId, TaskSpec};

/// The unified directed acyclic computation graph over all tasks of an MT MM
/// workload.
///
/// Nodes are [`Operator`]s, edges are data flows. The graph is immutable once
/// built (see [`GraphBuilder`](crate::GraphBuilder)); the planner derives
/// MetaOps, MetaLevels and the execution plan from it without mutating it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputationGraph {
    ops: Vec<Operator>,
    edges: Vec<(OpId, OpId)>,
    out_edges: Vec<Vec<OpId>>,
    in_edges: Vec<Vec<OpId>>,
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
    /// tasks, contains duplicate edges, self-loops, or a cycle.
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
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        let mut seen = BTreeSet::new();
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
            if !seen.insert((a, b)) {
                return Err(GraphError::DuplicateEdge(a, b));
            }
            out_edges[a.index()].push(b);
            in_edges[b.index()].push(a);
        }
        let graph = Self {
            ops,
            edges,
            out_edges,
            in_edges,
            tasks,
        };
        // Detect cycles by checking that a full topological order exists.
        if graph.topological_order().len() != graph.num_ops() {
            return Err(GraphError::CycleDetected);
        }
        Ok(graph)
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

    /// Direct successors (consumers) of `id`.
    #[must_use]
    pub fn successors(&self, id: OpId) -> &[OpId] {
        &self.out_edges[id.index()]
    }

    /// Direct predecessors (producers) of `id`.
    #[must_use]
    pub fn predecessors(&self, id: OpId) -> &[OpId] {
        &self.in_edges[id.index()]
    }

    /// Out-degree of `id`.
    #[must_use]
    pub fn out_degree(&self, id: OpId) -> usize {
        self.out_edges[id.index()].len()
    }

    /// In-degree of `id`.
    #[must_use]
    pub fn in_degree(&self, id: OpId) -> usize {
        self.in_edges[id.index()].len()
    }

    /// Operators with no predecessors (the graph's inputs).
    #[must_use]
    pub fn roots(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .map(Operator::id)
            .filter(|&id| self.in_degree(id) == 0)
            .collect()
    }

    /// Operators with no successors (the graph's outputs, typically losses).
    #[must_use]
    pub fn leaves(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .map(Operator::id)
            .filter(|&id| self.out_degree(id) == 0)
            .collect()
    }

    /// A topological order of the operators (Kahn's algorithm). If the graph
    /// contained a cycle the returned order is shorter than
    /// [`num_ops`](Self::num_ops); [`new`](Self::new) uses this to reject
    /// cyclic graphs, so orders obtained from a constructed graph are always
    /// complete.
    #[must_use]
    pub fn topological_order(&self) -> Vec<OpId> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.num_ops();
        let mut in_deg: Vec<usize> = (0..n).map(|i| self.in_edges[i].len()).collect();
        // Smallest-id-first processing keeps the order deterministic and makes
        // derived ids (e.g. MetaOp ids) follow operator declaration order.
        let mut ready: BinaryHeap<Reverse<OpId>> = (0..n)
            .filter(|&i| in_deg[i] == 0)
            .map(|i| Reverse(OpId(i as u32)))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(id)) = ready.pop() {
            order.push(id);
            for &succ in &self.out_edges[id.index()] {
                in_deg[succ.index()] -= 1;
                if in_deg[succ.index()] == 0 {
                    ready.push(Reverse(succ));
                }
            }
        }
        order
    }

    /// Dependency depth of every operator: the length of the longest path from
    /// any root to the operator. Used by the BFS MetaLevel assignment.
    #[must_use]
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.num_ops()];
        for id in self.topological_order() {
            for &pred in self.predecessors(id) {
                depth[id.index()] = depth[id.index()].max(depth[pred.index()] + 1);
            }
        }
        depth
    }

    /// The operators activated by `task`, in id order.
    #[must_use]
    pub fn ops_of_task(&self, task: TaskId) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|o| o.task() == task)
            .map(Operator::id)
            .collect()
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

    /// Volume in bytes of the data flow along edge `(from, to)`: the output
    /// activation of `from`.
    #[must_use]
    pub fn edge_volume(&self, from: OpId, _to: OpId) -> u64 {
        self.op(from).output_bytes()
    }

    /// Extracts the sub-graph containing only the operators of `tasks`
    /// (re-indexed densely). Used by decoupled baselines and by dynamic
    /// workloads when the active task set changes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`] if any task id is unknown, or
    /// [`GraphError::EmptyGraph`] if no operator belongs to the given tasks.
    pub fn subgraph_for_tasks(&self, tasks: &[TaskId]) -> Result<ComputationGraph, GraphError> {
        for &t in tasks {
            if t.index() >= self.tasks.len() {
                return Err(GraphError::UnknownTask(t));
            }
        }
        let keep: BTreeSet<TaskId> = tasks.iter().copied().collect();
        let kept_ops: Vec<&Operator> = self
            .ops
            .iter()
            .filter(|o| keep.contains(&o.task()))
            .collect();
        if kept_ops.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        // Old task id -> new dense task id.
        let task_remap: BTreeMap<TaskId, TaskId> = keep
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, TaskId(new as u32)))
            .collect();
        // Old op id -> new dense op id.
        let op_remap: BTreeMap<OpId, OpId> = kept_ops
            .iter()
            .enumerate()
            .map(|(new, o)| (o.id(), OpId(new as u32)))
            .collect();
        let new_tasks: Vec<TaskSpec> = keep
            .iter()
            .map(|&old| {
                let t = &self.tasks[old.index()];
                TaskSpec::new(
                    task_remap[&old],
                    t.name(),
                    t.modalities().iter().copied(),
                    t.batch_size(),
                )
            })
            .collect();
        let new_ops: Vec<Operator> = kept_ops
            .iter()
            .map(|o| {
                let mut new_op = Operator::new(
                    op_remap[&o.id()],
                    o.kind(),
                    task_remap[&o.task()],
                    o.input_shape(),
                )
                .with_costs(o.flops_forward(), o.param_bytes(), o.output_bytes());
                for &p in o.params() {
                    new_op = new_op.with_param(p);
                }
                new_op
            })
            .collect();
        let new_edges: Vec<(OpId, OpId)> = self
            .edges
            .iter()
            .filter_map(|&(a, b)| match (op_remap.get(&a), op_remap.get(&b)) {
                (Some(&na), Some(&nb)) => Some((na, nb)),
                _ => None,
            })
            .collect();
        ComputationGraph::new(new_ops, new_edges, new_tasks)
    }
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
        assert_eq!(g.roots().len(), 4);
        assert_eq!(g.leaves().len(), 2);
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
    fn depths_increase_along_chains() {
        let g = two_task_graph();
        let depths = g.depths();
        // The loss of task 0 sits after a chain of 3 audio layers.
        let loss = g
            .ops_of_task(TaskId(0))
            .into_iter()
            .find(|&o| g.op(o).kind().is_loss())
            .unwrap();
        assert_eq!(depths[loss.index()], 3);
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
        assert_eq!(b.add_flow(a, a).unwrap_err(), GraphError::SelfLoop(a));
        b.add_flow(a, c).unwrap();
        assert_eq!(
            b.add_flow(a, c).unwrap_err(),
            GraphError::DuplicateEdge(a, c)
        );
    }

    #[test]
    fn subgraph_extraction_keeps_only_requested_tasks() {
        let g = two_task_graph();
        let sub = g.subgraph_for_tasks(&[TaskId(1)]).unwrap();
        assert_eq!(sub.tasks().len(), 1);
        assert_eq!(sub.num_ops(), 5);
        assert!(sub.ops().iter().all(|o| o.task() == TaskId(0)));
        // Flows inside the kept task survive.
        assert_eq!(sub.leaves().len(), 1);
        assert!(g.subgraph_for_tasks(&[TaskId(9)]).is_err());
    }

    #[test]
    fn edge_volume_is_producer_output() {
        let g = two_task_graph();
        let (a, b) = g.edges()[0];
        assert_eq!(g.edge_volume(a, b), g.op(a).output_bytes());
    }

    #[test]
    fn task_lookup() {
        let g = two_task_graph();
        assert_eq!(g.task(TaskId(0)).unwrap().name(), "audio-text");
        assert!(g.task(TaskId(7)).is_none());
        assert_eq!(g.ops_of_task(TaskId(0)).len(), 6);
    }
}
