//! # spindle-graph
//!
//! Operator-level computation-graph IR for multi-task multi-modal (MT MM)
//! training workloads.
//!
//! The Spindle planner (see `spindle-core`) consumes a unified directed acyclic
//! computation graph `G = (V, E)` in which each node is a computational
//! operator (e.g. one transformer layer of a modality encoder) and each edge is
//! a data flow. Different tasks activate different operators and may *share*
//! parameters (the sub-model sharing approach of OFASys/Qwen-VL-style models);
//! parameter sharing is expressed through [`ParamId`]s attached to operators.
//!
//! In the paper the graph is traced out of PyTorch modules via FX. Here the
//! graph is first-class: workload crates build it directly through
//! [`GraphBuilder`], whose `add_flow` method mirrors the paper's user-facing
//! API.
//!
//! [`ComputationGraph::new`] is the one place a graph is checked: operator
//! ids, tasks, shapes, edge range, self-loops, repeated flows and cycles.
//! [`GraphBuilder::build`] ends there, and so does every graph decoded from
//! the wire. The graph stores its operators, edges and tasks and nothing
//! derived from them: adjacency is read from
//! [`edges`](ComputationGraph::edges) where it is needed.
//!
//! ## Example
//!
//! ```
//! use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let task = b.add_task("image-text", [Modality::Vision, Modality::Text], 8);
//! let vision = b.add_op_chain(
//!     task,
//!     OpKind::Encoder(Modality::Vision),
//!     TensorShape::new(8, 257, 768),
//!     12,
//! )?;
//! let text = b.add_op_chain(
//!     task,
//!     OpKind::Encoder(Modality::Text),
//!     TensorShape::new(8, 77, 768),
//!     12,
//! )?;
//! let loss = b.add_op(task, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))?;
//! b.add_flow(*vision.last().unwrap(), loss)?;
//! b.add_flow(*text.last().unwrap(), loss)?;
//! let graph = b.build()?;
//! assert_eq!(graph.num_ops(), 25);
//! assert!(graph.topological_order().len() == 25);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod error;
mod graph;
mod modality;
mod op;
mod rng;
mod shape;
mod task;
mod transformer;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::ComputationGraph;
pub use modality::Modality;
pub use op::{OpId, OpKind, OpSignature, Operator, ParamId, WorkloadSignature};
pub use rng::XorShift64Star;
pub use shape::TensorShape;
pub use task::{TaskId, TaskSpec};
pub use transformer::TransformerLayerSpec;
