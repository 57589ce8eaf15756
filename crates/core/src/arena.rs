//! Dense per-plan working state for the planning hot paths.
//!
//! Graph contraction assigns [`MetaOpId`]s densely (`0..num_metaops`), so all
//! per-MetaOp working state of one planning pass — scaling curves, operator
//! counts, hoisted curve constants — can live in plain `Vec`s indexed by
//! `MetaOpId::index()` instead of `BTreeMap`s. The arena is built once per
//! plan from the stage-1/2 artifacts and then read by the MPSP solver, the
//! bi-point discretiser and the wavefront scheduler without any map lookups or
//! allocations on their inner loops. `BTreeMap`-shaped state survives only at
//! the public-artifact boundary ([`ContinuousSolution`](crate::ContinuousSolution),
//! [`ExecutionPlan`](crate::ExecutionPlan)).

use std::sync::Arc;

use spindle_estimator::ScalingCurve;

use crate::pipeline::CurveSet;
use crate::{MetaGraph, MetaOpId};

/// Dense, immutable per-MetaOp planning state: one slot per MetaOp of the
/// contracted graph, indexed directly by [`MetaOpId`].
#[derive(Debug, Clone)]
pub struct MetaOpArena {
    curves: Vec<Arc<ScalingCurve>>,
    num_ops: Vec<u32>,
    /// Hoisted `curve.time(1.0)` per MetaOp — the single-device time used on
    /// every bisection iteration and in the sub-one-device extrapolation.
    t1: Vec<f64>,
}

impl MetaOpArena {
    /// Builds the arena for one plan from the contracted graph and its
    /// resolved curves.
    ///
    /// # Panics
    ///
    /// Panics if `curves` does not cover every MetaOp of `metagraph` (the
    /// stage-2 artifact always does).
    #[must_use]
    pub fn build(metagraph: &MetaGraph, curves: &CurveSet) -> Self {
        Self::from_slots(metagraph.metaops().iter().map(|metaop| {
            let curve = curves
                .get(metaop.id())
                .expect("CurveSet::resolve covers every MetaOp of the ContractedGraph");
            (metaop.num_ops(), Arc::clone(curve))
        }))
    }

    /// An arena of `(num_ops, curve)` slots, slot `i` holding `MetaOpId(i)`.
    pub(crate) fn from_slots(slots: impl Iterator<Item = (u32, Arc<ScalingCurve>)>) -> Self {
        let n = slots.size_hint().0;
        let mut arena = Self {
            curves: Vec::with_capacity(n),
            num_ops: Vec::with_capacity(n),
            t1: Vec::with_capacity(n),
        };
        for (num_ops, curve) in slots {
            arena.t1.push(curve.time(1.0));
            arena.curves.push(curve);
            arena.num_ops.push(num_ops);
        }
        arena
    }

    /// Number of slots (MetaOps).
    #[must_use]
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// Whether the arena has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }

    /// The scaling curve of a MetaOp.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn curve(&self, id: MetaOpId) -> &Arc<ScalingCurve> {
        &self.curves[id.index()]
    }

    /// Number of operators (`L_m`) of a MetaOp.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn num_ops(&self, id: MetaOpId) -> u32 {
        self.num_ops[id.index()]
    }

    /// Hoisted single-device time `T_m(1)` of a MetaOp.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn t1(&self, id: MetaOpId) -> f64 {
        self.t1[id.index()]
    }
}

/// The cache-telemetry pair shared by every surface that reports on the
/// session caches (estimator curve cache plus structural plan cache combined):
/// a point-in-time byte gauge and an eviction count.
///
/// One struct serves both [`PlanningStats`] (lifetime evictions) and
/// [`ReplanOutcome`](crate::ReplanOutcome) (evictions during that re-plan), so
/// the two reporting surfaces cannot drift apart field by field. The
/// surrounding type documents which eviction window applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheTelemetry {
    /// Approximate bytes currently held by the caches — a gauge, not a
    /// counter.
    pub bytes: usize,
    /// Cache entries evicted to stay within the configured byte budgets.
    pub evictions: u64,
}

/// Counters describing one planning pass's hot-path behaviour, exposed through
/// [`SpindleSession::planning_stats`](crate::SpindleSession::planning_stats).
///
/// Benches and tests use these to *assert* the allocation-free invariants
/// instead of trusting them: the scratch high-water marks bound how large the
/// reusable buffers ever grew (they must match the largest level, not the
/// number of solves), and `waves_crafted` must equal the number of waves in
/// the produced plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanningStats {
    /// Number of per-level MPSP solves performed.
    pub mpsp_solves: u64,
    /// Total bisection iterations across all MPSP solves.
    pub bisection_iterations: u64,
    /// Total waves crafted by the wavefront scheduler.
    pub waves_crafted: u64,
    /// MetaLevels solved fresh (MPSP + wavefront actually ran).
    pub levels_planned: u64,
    /// MetaLevels spliced from the structural plan cache instead of being
    /// re-solved (see [`StructuralPlanCache`](crate::StructuralPlanCache)).
    pub levels_reused: u64,
    /// High-water mark of the MPSP scratch buffer (largest number of
    /// simultaneously active items, i.e. the largest level planned).
    pub mpsp_scratch_high_water: usize,
    /// High-water mark of the wavefront scratch (largest pending set).
    pub wavefront_scratch_high_water: usize,
    /// Session cache telemetry. `cache.bytes` is a point-in-time gauge: the
    /// session's [`planning_stats`](crate::SpindleSession::planning_stats)
    /// snapshot fills it; per-pass stats leave it zero and `merge` keeps the
    /// latest non-zero observation. `cache.evictions` counts over the
    /// session's lifetime; `merge` keeps the max.
    pub cache: CacheTelemetry,
}

impl PlanningStats {
    /// Accumulates another pass's counters into this one.
    pub fn merge(&mut self, other: &PlanningStats) {
        self.mpsp_solves += other.mpsp_solves;
        self.bisection_iterations += other.bisection_iterations;
        self.waves_crafted += other.waves_crafted;
        self.levels_planned += other.levels_planned;
        self.levels_reused += other.levels_reused;
        self.mpsp_scratch_high_water = self
            .mpsp_scratch_high_water
            .max(other.mpsp_scratch_high_water);
        self.wavefront_scratch_high_water = self
            .wavefront_scratch_high_water
            .max(other.wavefront_scratch_high_water);
        if other.cache.bytes != 0 {
            self.cache.bytes = other.cache.bytes;
        }
        self.cache.evictions = self.cache.evictions.max(other.cache.evictions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ContractedGraph;
    use spindle_cluster::ClusterSpec;
    use spindle_estimator::ScalabilityEstimator;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    fn arena() -> (MetaOpArena, MetaGraph) {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Audio, Modality::Text], 8);
        let audio = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                5,
            )
            .unwrap();
        let loss = b
            .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))
            .unwrap();
        b.add_flow(*audio.last().unwrap(), loss).unwrap();
        let graph = b.build().unwrap();
        let contracted = ContractedGraph::new(&graph);
        let estimator = ScalabilityEstimator::new(&ClusterSpec::homogeneous(1, 8));
        let curves = CurveSet::resolve(&contracted, &estimator).unwrap();
        let arena = MetaOpArena::build(contracted.metagraph(), &curves);
        (arena, contracted.metagraph().clone())
    }

    #[test]
    fn arena_mirrors_metagraph_slots() {
        let (arena, mg) = arena();
        assert_eq!(arena.len(), mg.num_metaops());
        assert!(!arena.is_empty());
        for metaop in mg.metaops() {
            assert_eq!(arena.num_ops(metaop.id()), metaop.num_ops());
            let t1 = arena.t1(metaop.id());
            assert!(t1 > 0.0);
            assert!((arena.curve(metaop.id()).time(1.0) - t1).abs() < 1e-15);
        }
    }

    #[test]
    fn stats_merge_accumulates_and_maxes() {
        let mut a = PlanningStats {
            mpsp_solves: 1,
            bisection_iterations: 10,
            waves_crafted: 3,
            levels_planned: 2,
            levels_reused: 1,
            mpsp_scratch_high_water: 4,
            wavefront_scratch_high_water: 2,
            cache: CacheTelemetry {
                bytes: 0,
                evictions: 2,
            },
        };
        let b = PlanningStats {
            mpsp_solves: 2,
            bisection_iterations: 5,
            waves_crafted: 1,
            levels_planned: 1,
            levels_reused: 3,
            mpsp_scratch_high_water: 3,
            wavefront_scratch_high_water: 6,
            cache: CacheTelemetry {
                bytes: 4096,
                evictions: 1,
            },
        };
        a.merge(&b);
        assert_eq!(a.mpsp_solves, 3);
        assert_eq!(a.bisection_iterations, 15);
        assert_eq!(a.waves_crafted, 4);
        assert_eq!(a.levels_planned, 3);
        assert_eq!(a.levels_reused, 4);
        assert_eq!(a.mpsp_scratch_high_water, 4);
        assert_eq!(a.wavefront_scratch_high_water, 6);
        assert_eq!(a.cache.bytes, 4096, "gauge takes the latest observation");
        assert_eq!(a.cache.evictions, 2, "lifetime counter keeps the max");
    }
}
