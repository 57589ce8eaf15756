//! The contracted MetaGraph and its dependency levels (§3.1).

use std::fmt;

use spindle_graph::{ComputationGraph, OpId};

use crate::{MetaOp, MetaOpId};

/// A dependency level of the MetaGraph: the set of MetaOps whose longest
/// dependency chain from any graph input has the same length. MetaOps within
/// one level have no dependencies among each other, so the per-level
/// sub-problem of the resource allocator needs no dependency constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaLevel {
    /// Index of the level (0 = graph inputs).
    pub index: usize,
    /// MetaOps belonging to the level.
    pub metaops: Vec<MetaOpId>,
}

/// The contracted computation graph `G_M = (V_M, E_M)` whose nodes are
/// [`MetaOp`]s, plus the derived MetaLevel decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaGraph {
    metaops: Vec<MetaOp>,
    edges: Vec<(MetaOpId, MetaOpId)>,
    levels: Vec<MetaLevel>,
    /// Dense `OpId -> MetaOpId` map (operators are densely indexed).
    op_to_metaop: Vec<MetaOpId>,
}

impl MetaGraph {
    /// Contracts a computation graph into a MetaGraph.
    ///
    /// Two adjacent operators `i → j` are fused when the edge is the only
    /// outgoing edge of `i` and the only incoming edge of `j` (direct
    /// predecessor/successor) and both share the same operator type and input
    /// data size — the two criteria of §3.1. Contraction proceeds in
    /// topological order until no more pairs qualify; levels are then assigned
    /// by dependency depth.
    #[must_use]
    pub fn contract(graph: &ComputationGraph) -> Self {
        // The smallest-id-first topological order. When every edge runs from
        // a lower id to a higher one — as graph builders declare them — that
        // order is the id order itself, and no ready queue is needed.
        let order: Vec<OpId> = if graph.edges().iter().all(|&(a, b)| a < b) {
            (0..graph.num_ops() as u32).map(OpId).collect()
        } else {
            graph.topological_order()
        };
        // Each operator's in- and out-degree and its last-listed predecessor,
        // from one pass over the edges: for an operator of in-degree one
        // that predecessor is its only one.
        let n = graph.num_ops();
        let (mut in_degree, mut out_degree) = (vec![0u32; n], vec![0u32; n]);
        let mut predecessor = vec![OpId(0); n];
        for &(a, b) in graph.edges() {
            out_degree[a.index()] += 1;
            in_degree[b.index()] += 1;
            predecessor[b.index()] = a;
        }
        // Operators are densely indexed, so the op -> MetaOp map is a plain
        // vector filled in topological order (predecessors are always mapped
        // before their successors).
        let mut op_to_metaop: Vec<MetaOpId> = vec![MetaOpId(0); n];
        let mut chains: Vec<Vec<OpId>> = Vec::new();

        for &op in &order {
            let operator = graph.op(op);
            // Candidate for fusion into the predecessor's chain?
            let fuse_into = if in_degree[op.index()] == 1 {
                let pred = predecessor[op.index()];
                let pred_op = graph.op(pred);
                if out_degree[pred.index()] == 1 && pred_op.signature() == operator.signature() {
                    Some(op_to_metaop[pred.index()])
                } else {
                    None
                }
            } else {
                None
            };
            match fuse_into {
                Some(mid) => {
                    chains[mid.index()].push(op);
                    op_to_metaop[op.index()] = mid;
                }
                None => {
                    let mid = MetaOpId(chains.len() as u32);
                    chains.push(vec![op]);
                    op_to_metaop[op.index()] = mid;
                }
            }
        }

        let mut metaops: Vec<MetaOp> = chains
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                let representative = graph.op(ops[0]).clone();
                MetaOp::new(MetaOpId(i as u32), ops, representative)
            })
            .collect();

        // MetaGraph edges: graph edges whose endpoints live in different MetaOps.
        let mut edges: Vec<(MetaOpId, MetaOpId)> = graph
            .edges()
            .iter()
            .filter_map(|&(a, b)| {
                let ma = op_to_metaop[a.index()];
                let mb = op_to_metaop[b.index()];
                (ma != mb).then_some((ma, mb))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();

        // Dependency depth of each MetaOp (longest path), which guarantees
        // that no two MetaOps of the same level depend on each other. MetaOps
        // were created in a topological order of the original graph, so every
        // edge runs from a lower id to a higher one, and the sorted edges
        // reach each MetaOp's outgoing edges after all of its incoming ones.
        let mut levels: Vec<MetaLevel> = Vec::new();
        for &(a, b) in &edges {
            let depth = metaops[a.index()].level() + 1;
            if depth > metaops[b.index()].level() {
                metaops[b.index()].set_level(depth);
            }
        }
        // A MetaOp of depth d > 0 has a predecessor of depth d - 1 and a lower
        // id, so in id order each depth first appears after the one below it.
        for metaop in &metaops {
            let depth = metaop.level();
            if depth == levels.len() {
                levels.push(MetaLevel {
                    index: depth,
                    metaops: Vec::new(),
                });
            }
            levels[depth].metaops.push(metaop.id());
        }

        Self {
            metaops,
            edges,
            levels,
            op_to_metaop,
        }
    }

    /// The MetaOps of the graph, indexed by [`MetaOpId`].
    #[must_use]
    pub fn metaops(&self) -> &[MetaOp] {
        &self.metaops
    }

    /// The MetaOp with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn metaop(&self, id: MetaOpId) -> &MetaOp {
        &self.metaops[id.index()]
    }

    /// Number of MetaOps.
    #[must_use]
    pub fn num_metaops(&self) -> usize {
        self.metaops.len()
    }

    /// Data-flow edges between MetaOps.
    #[must_use]
    pub fn edges(&self) -> &[(MetaOpId, MetaOpId)] {
        &self.edges
    }

    /// The dependency levels, in execution order.
    #[must_use]
    pub fn levels(&self) -> &[MetaLevel] {
        &self.levels
    }

    /// The MetaOp that a given original operator was fused into.
    #[must_use]
    pub fn metaop_of(&self, op: OpId) -> Option<MetaOpId> {
        self.op_to_metaop.get(op.index()).copied()
    }

    /// Total number of original operators represented by the MetaGraph.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.metaops.iter().map(|m| m.num_ops() as usize).sum()
    }
}

impl fmt::Display for MetaGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "metagraph: {} metaops over {} levels ({} original ops, {} edges)",
            self.num_metaops(),
            self.levels.len(),
            self.total_ops(),
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
    use spindle_workloads::{FuzzBounds, QwenValSize, Scenario, WorkloadPreset};

    /// The two-task example of Fig. 3: an audio-language task (audio + text
    /// encoders feeding an LM) and a vision-language task (vision + text).
    fn fig3_like_graph() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let tal = b.add_task("audio-lang", [Modality::Audio, Modality::Text], 8);
        let tvl = b.add_task("vision-lang", [Modality::Vision, Modality::Text], 4);
        // Task AL: 3 audio ops, 2 text ops, 3 LM ops.
        let audio = b
            .add_op_chain(
                tal,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                3,
            )
            .unwrap();
        let text_a = b
            .add_op_chain(
                tal,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                2,
            )
            .unwrap();
        let lm_a = b
            .add_op_chain(tal, OpKind::LmEncoder, TensorShape::new(8, 512, 1024), 3)
            .unwrap();
        b.add_flow(*audio.last().unwrap(), lm_a[0]).unwrap();
        b.add_flow(*text_a.last().unwrap(), lm_a[0]).unwrap();
        // Task VL: 2 text ops, 2+2 vision ops (different resolutions), 3 LM ops.
        let text_v = b
            .add_op_chain(
                tvl,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(4, 77, 768),
                2,
            )
            .unwrap();
        let vis_hi = b
            .add_op_chain(
                tvl,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(4, 257, 768),
                2,
            )
            .unwrap();
        let vis_lo = b
            .add_op_chain(
                tvl,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(4, 197, 768),
                2,
            )
            .unwrap();
        let lm_v = b
            .add_op_chain(tvl, OpKind::LmEncoder, TensorShape::new(4, 512, 1024), 3)
            .unwrap();
        b.add_flow(*vis_hi.last().unwrap(), vis_lo[0]).unwrap();
        b.add_flow(*text_v.last().unwrap(), lm_v[0]).unwrap();
        b.add_flow(*vis_lo.last().unwrap(), lm_v[0]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn contraction_produces_seven_metaops_like_fig3() {
        let g = fig3_like_graph();
        let mg = MetaGraph::contract(&g);
        // Fig. 3 contracts this structure into 7 MetaOps.
        assert_eq!(mg.num_metaops(), 7);
        assert_eq!(mg.total_ops(), g.num_ops());
        // Chains keep their lengths.
        let sizes: Vec<u32> = mg.metaops().iter().map(MetaOp::num_ops).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn fusion_requires_identical_signature() {
        let g = fig3_like_graph();
        let mg = MetaGraph::contract(&g);
        // The two vision chains have different input sizes (257 vs 197 tokens),
        // so they are distinct MetaOps even though they form one long chain.
        let vision_metaops: Vec<&MetaOp> = mg
            .metaops()
            .iter()
            .filter(|m| m.representative().kind() == OpKind::Encoder(Modality::Vision))
            .collect();
        assert_eq!(vision_metaops.len(), 2);
    }

    #[test]
    fn levels_have_no_internal_dependencies() {
        let g = fig3_like_graph();
        let mg = MetaGraph::contract(&g);
        for level in mg.levels() {
            for &a in &level.metaops {
                for &b in &level.metaops {
                    if a != b {
                        assert!(!mg.edges().contains(&(a, b)), "{a} -> {b} within level");
                    }
                }
            }
        }
        // Encoders sit below the LM modules.
        assert!(mg.levels().len() >= 2);
    }

    #[test]
    fn edges_connect_encoder_chains_to_lm() {
        let g = fig3_like_graph();
        let mg = MetaGraph::contract(&g);
        assert!(!mg.edges().is_empty());
        for &(a, b) in mg.edges() {
            assert!(mg.metaop(a).level() < mg.metaop(b).level());
        }
    }

    #[test]
    fn op_to_metaop_is_total() {
        let g = fig3_like_graph();
        let mg = MetaGraph::contract(&g);
        for op in g.ops() {
            let mid = mg.metaop_of(op.id()).expect("every op maps to a metaop");
            assert!(mg.metaop(mid).ops().contains(&op.id()));
        }
        assert!(mg.to_string().contains("metaops"));
    }

    /// The contraction [`MetaGraph::contract`] replaced: it cloned each
    /// chain into its MetaOp and took dependency depths from per-MetaOp
    /// predecessor lists, one level scan per depth. Degrees and the sole
    /// predecessor are read from the edge list, one scan per question.
    fn contract_reference(graph: &ComputationGraph) -> MetaGraph {
        let predecessors = |op: OpId| -> Vec<OpId> {
            let edges = graph.edges().iter();
            edges.filter(|&&(_, b)| b == op).map(|&(a, _)| a).collect()
        };
        let out_degree = |op: OpId| graph.edges().iter().filter(|&&(a, _)| a == op).count();
        let mut op_to_metaop: Vec<MetaOpId> = vec![MetaOpId(0); graph.num_ops()];
        let mut chains: Vec<Vec<OpId>> = Vec::new();
        for &op in &graph.topological_order() {
            let preds = predecessors(op);
            let fuse_into = (preds.len() == 1)
                .then(|| preds[0])
                .filter(|&pred| {
                    out_degree(pred) == 1 && graph.op(pred).signature() == graph.op(op).signature()
                })
                .map(|pred| op_to_metaop[pred.index()]);
            let mid = fuse_into.unwrap_or_else(|| {
                chains.push(Vec::new());
                MetaOpId(chains.len() as u32 - 1)
            });
            chains[mid.index()].push(op);
            op_to_metaop[op.index()] = mid;
        }
        let mut metaops: Vec<MetaOp> = chains
            .iter()
            .enumerate()
            .map(|(i, ops)| MetaOp::new(MetaOpId(i as u32), ops.clone(), graph.op(ops[0]).clone()))
            .collect();
        let mut edges: Vec<(MetaOpId, MetaOpId)> = graph
            .edges()
            .iter()
            .map(|&(a, b)| (op_to_metaop[a.index()], op_to_metaop[b.index()]))
            .filter(|(a, b)| a != b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let n = metaops.len();
        let mut preds: Vec<Vec<MetaOpId>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            preds[b.index()].push(a);
        }
        let mut depth = vec![0usize; n];
        for i in 0..n {
            for &p in &preds[i] {
                depth[i] = depth[i].max(depth[p.index()] + 1);
            }
        }
        for (metaop, &d) in metaops.iter_mut().zip(&depth) {
            metaop.set_level(d);
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let levels = (0..=max_depth)
            .map(|lvl| MetaLevel {
                index: lvl,
                metaops: (0..n)
                    .filter(|&i| depth[i] == lvl)
                    .map(|i| MetaOpId(i as u32))
                    .collect(),
            })
            .collect();
        MetaGraph {
            metaops,
            edges,
            levels,
            op_to_metaop,
        }
    }

    /// A text chain declared before the audio chain that feeds it, so one
    /// edge runs from a higher operator id to a lower one.
    fn late_producer_graph() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let t = b.add_task("at", [Modality::Audio, Modality::Text], 8);
        let text = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                3,
            )
            .unwrap();
        let audio = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                2,
            )
            .unwrap();
        b.add_flow(*audio.last().unwrap(), text[0]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn contraction_matches_the_reference_on_presets_and_fuzzed_graphs() {
        let late = late_producer_graph();
        assert!(late.edges().iter().any(|&(a, b)| a > b));
        let mut graphs = vec![
            late,
            fig3_like_graph(),
            spindle_workloads::hyperscale(48).unwrap(),
        ];
        for preset in WorkloadPreset::figure8_presets() {
            graphs.push(preset.build().unwrap());
        }
        for size in [QwenValSize::B30, QwenValSize::B70] {
            graphs.push(spindle_workloads::qwen_val(size).unwrap());
        }
        let bounds = FuzzBounds::quick();
        for index in 0..16 {
            let scenario = Scenario::draw(0x00C0_FFEE, index, &bounds);
            graphs.extend(scenario.phases().unwrap().into_iter().map(|(_, g)| g));
        }
        for graph in &graphs {
            // Equal MetaOps (members, representatives and levels), edges,
            // levels and op map.
            assert_eq!(MetaGraph::contract(graph), contract_reference(graph));
        }
    }

    #[test]
    fn single_op_graph_contracts_to_single_metaop() {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Text], 4);
        b.add_op(t, OpKind::Embedding, TensorShape::new(4, 77, 768))
            .unwrap();
        let g = b.build().unwrap();
        let mg = MetaGraph::contract(&g);
        assert_eq!(mg.num_metaops(), 1);
        assert_eq!(mg.levels().len(), 1);
        assert_eq!(mg.levels()[0].metaops.len(), 1);
    }
}
