//! Incremental construction of computation graphs.

use crate::{
    ComputationGraph, GraphError, Modality, OpId, OpKind, Operator, ParamId, TaskId, TaskSpec,
    TensorShape,
};

/// Builder for [`ComputationGraph`]s.
///
/// Mirrors the paper's user-facing API: tasks are declared first, operators are
/// added per task (individually or as chains of identical layers, the typical
/// structure of transformer towers), and `add_flow` wires data flows between
/// them. Parameter sharing across tasks is expressed by attaching the same
/// [`ParamId`]s to operators of different tasks.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    ops: Vec<Operator>,
    edges: Vec<(OpId, OpId)>,
    tasks: Vec<TaskSpec>,
    next_param: u32,
}

impl GraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new task and returns its id.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        modalities: impl IntoIterator<Item = Modality>,
        batch_size: u32,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks
            .push(TaskSpec::new(id, name, modalities, batch_size));
        id
    }

    /// Allocates a fresh shared-parameter id.
    pub fn new_param(&mut self) -> ParamId {
        let id = ParamId(self.next_param);
        self.next_param += 1;
        id
    }

    /// Adds a single operator for `task` with a fresh parameter group.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`] if the task was not declared and
    /// [`GraphError::InvalidShape`] for degenerate shapes.
    pub fn add_op(
        &mut self,
        task: TaskId,
        kind: OpKind,
        shape: TensorShape,
    ) -> Result<OpId, GraphError> {
        let param = self.new_param();
        self.add_op_with_params(task, kind, shape, &[param])
    }

    /// Adds a single operator for `task` attached to the given (shared)
    /// parameter groups.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`] if the task was not declared and
    /// [`GraphError::InvalidShape`] for degenerate shapes.
    pub fn add_op_with_params(
        &mut self,
        task: TaskId,
        kind: OpKind,
        shape: TensorShape,
        params: &[ParamId],
    ) -> Result<OpId, GraphError> {
        if task.index() >= self.tasks.len() {
            return Err(GraphError::UnknownTask(task));
        }
        shape.validate()?;
        let id = OpId(self.ops.len() as u32);
        let mut op = Operator::new(id, kind, task, shape);
        for &p in params {
            op = op.with_param(p);
        }
        self.ops.push(op);
        Ok(id)
    }

    /// Adds a chain of `count` identical operators connected head-to-tail,
    /// each with its own fresh parameter group. Returns the operator ids in
    /// execution order. This is the natural way to express a stack of
    /// transformer layers.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`] / [`GraphError::InvalidShape`] as
    /// for [`add_op`](Self::add_op); `count` of zero yields an empty chain.
    pub fn add_op_chain(
        &mut self,
        task: TaskId,
        kind: OpKind,
        shape: TensorShape,
        count: usize,
    ) -> Result<Vec<OpId>, GraphError> {
        let params: Vec<ParamId> = (0..count).map(|_| self.new_param()).collect();
        self.add_op_chain_with_params(task, kind, shape, &params)
    }

    /// Adds a chain of identical operators whose i-th layer uses the i-th
    /// given parameter group. Passing the same parameter slice for two tasks
    /// expresses sub-model sharing (e.g. a text encoder activated by several
    /// tasks).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`] / [`GraphError::InvalidShape`] as
    /// for [`add_op`](Self::add_op).
    pub fn add_op_chain_with_params(
        &mut self,
        task: TaskId,
        kind: OpKind,
        shape: TensorShape,
        params: &[ParamId],
    ) -> Result<Vec<OpId>, GraphError> {
        let mut ids = Vec::with_capacity(params.len());
        for &p in params {
            let id = self.add_op_with_params(task, kind, shape, &[p])?;
            if let Some(&prev) = ids.last() {
                self.add_flow(prev, id)?;
            }
            ids.push(id);
        }
        Ok(ids)
    }

    /// Adds a data flow (edge) from `from` to `to`.
    ///
    /// A flow added twice is not looked for here: [`build`](Self::build)
    /// reports it as [`GraphError::DuplicateEdge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownOp`] for out-of-range operators and
    /// [`GraphError::SelfLoop`] when `from == to`.
    pub fn add_flow(&mut self, from: OpId, to: OpId) -> Result<(), GraphError> {
        if from.index() >= self.ops.len() {
            return Err(GraphError::UnknownOp(from));
        }
        if to.index() >= self.ops.len() {
            return Err(GraphError::UnknownOp(to));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Number of operators added so far.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of tasks declared so far.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Finalises the graph through [`ComputationGraph::new`], the one check
    /// of structure, repeated flows and acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`ComputationGraph::new`], including
    /// [`GraphError::DuplicateEdge`] for a flow added twice.
    pub fn build(self) -> Result<ComputationGraph, GraphError> {
        ComputationGraph::new(self.ops, self.edges, self.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_unknown_task_and_bad_shape() {
        let mut b = GraphBuilder::new();
        assert_eq!(
            b.add_op(TaskId(0), OpKind::Embedding, TensorShape::new(4, 8, 16)),
            Err(GraphError::UnknownTask(TaskId(0)))
        );
        let t = b.add_task("t", [Modality::Text], 4);
        assert!(matches!(
            b.add_op(t, OpKind::Embedding, TensorShape::new(0, 8, 16)),
            Err(GraphError::InvalidShape(_))
        ));
    }

    #[test]
    fn chains_are_wired_sequentially() {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Text], 4);
        let chain = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(4, 77, 768),
                4,
            )
            .unwrap();
        assert_eq!(chain.len(), 4);
        assert_eq!(b.num_ops(), 4);
        let g = b.build().unwrap();
        for w in chain.windows(2) {
            assert!(g.edges().contains(&(w[0], w[1])));
        }
        // Every layer has a distinct parameter group.
        let mut params: Vec<ParamId> = g.ops().iter().flat_map(|o| o.params().to_vec()).collect();
        params.dedup();
        assert_eq!(params.len(), 4);
    }

    #[test]
    fn shared_params_across_tasks() {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task("t0", [Modality::Text], 8);
        let t1 = b.add_task("t1", [Modality::Text], 4);
        let shared: Vec<ParamId> = (0..3).map(|_| b.new_param()).collect();
        let c0 = b
            .add_op_chain_with_params(
                t0,
                OpKind::LmEncoder,
                TensorShape::new(8, 512, 1024),
                &shared,
            )
            .unwrap();
        let c1 = b
            .add_op_chain_with_params(
                t1,
                OpKind::LmEncoder,
                TensorShape::new(4, 512, 1024),
                &shared,
            )
            .unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.op(c0[0]).params(), g.op(c1[0]).params());
        // Shared parameters are not double counted.
        let single_chain_params = 3 * g.op(c0[0]).param_bytes();
        assert_eq!(g.total_param_bytes(), single_chain_params);
    }

    #[test]
    fn empty_builder_fails_to_build() {
        assert_eq!(
            GraphBuilder::new().build().unwrap_err(),
            GraphError::EmptyGraph
        );
    }

    #[test]
    fn counts_track_additions() {
        let mut b = GraphBuilder::new();
        assert_eq!(b.num_tasks(), 0);
        let t = b.add_task("t", [Modality::Vision], 2);
        assert_eq!(b.num_tasks(), 1);
        b.add_op(
            t,
            OpKind::Encoder(Modality::Vision),
            TensorShape::new(2, 197, 768),
        )
        .unwrap();
        assert_eq!(b.num_ops(), 1);
    }
}
