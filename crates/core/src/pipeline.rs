//! The staged planning pipeline with typed intermediate artifacts.
//!
//! [`SpindleSession::plan`](crate::SpindleSession::plan) is a composition of
//! four explicit stages, each producing a typed artifact that can be built,
//! inspected and tested independently:
//!
//! 1. [`ContractedGraph::new`] — graph contraction (§3.1);
//! 2. [`CurveSet::resolve`] — scalability estimation (§3.2), served from the
//!    session's persistent curve cache;
//! 3. [`LevelSchedule::build`] — MPSP resource allocation + wavefront
//!    scheduling (§3.3–§3.4), splicing levels from an optional
//!    [`StructuralPlanCache`];
//! 4. [`LevelSchedule::place`] — device placement (§3.5) by a
//!    [`PlacementStrategy`].
//!
//! The split exists for the dynamic re-planning loop: a session re-planning a
//! mutated workload re-runs stages 1 and 3–4 but stage 2 degenerates to cache
//! lookups for every operator signature seen before.

use std::sync::Arc;
use std::time::Duration;

use spindle_cluster::ClusterSpec;
use spindle_estimator::{ScalabilityEstimator, ScalingCurve};
use spindle_graph::ComputationGraph;

use crate::arena::{MetaOpArena, PlanningStats};
use crate::mpsp::{self, MpspScratch};
use crate::structural::{LevelArtifact, LevelKey, StructuralPlanCache};
use crate::wavefront::{self, WavefrontScratch};
use crate::{allocator, ExecutionPlan, MetaGraph, MetaOpId, PlacementStrategy, PlanError, Wave};

/// Stage-1 artifact: the contracted MetaGraph of a workload, behind an
/// [`Arc`] so plans (and cached plan skeletons) share it without deep copies.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractedGraph {
    metagraph: Arc<MetaGraph>,
}

impl ContractedGraph {
    /// Contracts a computation graph (§3.1).
    #[must_use]
    pub fn new(graph: &ComputationGraph) -> Self {
        Self {
            metagraph: Arc::new(MetaGraph::contract(graph)),
        }
    }

    /// The contracted MetaGraph.
    #[must_use]
    pub fn metagraph(&self) -> &MetaGraph {
        &self.metagraph
    }

    /// A shareable handle to the MetaGraph.
    #[must_use]
    pub fn metagraph_handle(&self) -> Arc<MetaGraph> {
        Arc::clone(&self.metagraph)
    }
}

/// Stage-2 artifact: one scaling curve per MetaOp of a [`ContractedGraph`],
/// stored densely in [`MetaOpId`] order.
#[derive(Debug, Clone, Default)]
pub struct CurveSet {
    curves: Vec<Arc<ScalingCurve>>,
}

impl CurveSet {
    /// Resolves the curve of every MetaOp against `estimator`. Signatures the
    /// estimator has already fitted are served from its cache.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoCurve`] for MetaOps whose representative cannot
    /// be profiled.
    pub fn resolve(
        contracted: &ContractedGraph,
        estimator: &ScalabilityEstimator,
    ) -> Result<Self, PlanError> {
        let curves = contracted
            .metagraph()
            .metaops()
            .iter()
            .map(|metaop| {
                estimator
                    .try_curve_for(metaop.representative())
                    .map_err(|_| PlanError::NoCurve(metaop.id()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { curves })
    }

    /// The curve of a MetaOp, if resolved.
    #[must_use]
    pub fn get(&self, id: MetaOpId) -> Option<&Arc<ScalingCurve>> {
        self.curves.get(id.index())
    }

    /// Number of resolved curves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }
}

/// Stage-3 artifact: the unplaced wave schedule of every MetaLevel, plus the
/// theoretical optimum `Σ C̃*` of the continuous relaxation.
#[derive(Debug, Clone)]
pub struct LevelSchedule {
    waves: Vec<Wave>,
    theoretical_optimum: f64,
    num_devices: u32,
    stats: PlanningStats,
}

impl LevelSchedule {
    /// Allocates and schedules every MetaLevel (§3.3 + §3.4) and attaches
    /// per-entry memory estimates for the placement stage.
    ///
    /// All per-level working state lives in a dense [`MetaOpArena`] plus
    /// reusable MPSP/wavefront scratch buffers: steady-state levels allocate
    /// nothing beyond the produced wave artifacts.
    ///
    /// With a [`StructuralPlanCache`], levels whose [`LevelKey`] hits the
    /// cache are *spliced* from the cached artifact (bit-identical to a fresh
    /// solve) instead of re-running MPSP, discretisation, wavefront
    /// scheduling and memory estimation; dirty levels are solved as usual and
    /// their artifacts inserted for the next re-plan. `stats().levels_reused`
    /// reports how many levels were spliced.
    #[must_use]
    pub fn build(
        contracted: &ContractedGraph,
        curves: &CurveSet,
        estimator: &ScalabilityEstimator,
        num_devices: u32,
        epsilon: f64,
        mut cache: Option<&mut StructuralPlanCache>,
    ) -> Self {
        let metagraph = contracted.metagraph();
        let arena = MetaOpArena::build(metagraph, curves);
        let mut mpsp_scratch = MpspScratch::new();
        let mut wavefront_scratch = WavefrontScratch::new();
        let mut waves: Vec<Wave> = Vec::new();
        let mut theoretical_optimum = 0.0;
        let mut now = 0.0;
        let mut levels_planned = 0u64;
        let mut levels_reused = 0u64;
        // Per-entry memory estimates feed the placement's memory balancing.
        // Entries of one MetaOp recur across waves at the same allocation, so
        // memoise per (metaop, devices) to avoid re-running the model sweep.
        let mut memo: Vec<Vec<(u32, u64)>> = vec![Vec::new(); arena.len()];
        for level in metagraph.levels() {
            let key = cache
                .is_some()
                .then(|| LevelKey::of(metagraph, level, num_devices));
            if let Some(artifact) = key.as_ref().and_then(|k| cache.as_mut()?.level(k)) {
                now = artifact.splice(level, now, waves.len(), &mut waves);
                theoretical_optimum += artifact.optimal_time();
                levels_reused += 1;
                continue;
            }
            levels_planned += 1;
            let solution = mpsp::solve_level(
                &arena,
                &level.metaops,
                num_devices,
                epsilon,
                &mut mpsp_scratch,
            );
            theoretical_optimum += solution.optimal_time;
            let alloc_plan = allocator::discretize_level(&solution, &arena, &level.metaops);
            let (mut level_waves, end) = wavefront::schedule_level_dense(
                &alloc_plan,
                &arena,
                num_devices,
                level.index,
                now,
                waves.len(),
                &mut wavefront_scratch,
            );
            for wave in &mut level_waves {
                for entry in &mut wave.entries {
                    let known = memo[entry.metaop.index()]
                        .iter()
                        .find(|&&(n, _)| n == entry.devices)
                        .map(|&(_, bytes)| bytes);
                    let per_op = known.unwrap_or_else(|| {
                        let rep = metagraph.metaop(entry.metaop).representative();
                        let bytes = estimator.memory_bytes(rep, entry.devices);
                        memo[entry.metaop.index()].push((entry.devices, bytes));
                        bytes
                    });
                    entry.memory_per_device = per_op.saturating_mul(u64::from(entry.layers));
                }
            }
            if let (Some(c), Some(k)) = (cache.as_mut(), key) {
                c.insert_level(
                    k,
                    LevelArtifact::capture(level, solution.optimal_time, &level_waves),
                );
            }
            waves.extend(level_waves);
            now = end;
        }

        let stats = PlanningStats {
            mpsp_solves: mpsp_scratch.solves(),
            bisection_iterations: mpsp_scratch.iterations(),
            waves_crafted: wavefront_scratch.waves_crafted(),
            levels_planned,
            levels_reused,
            mpsp_scratch_high_water: mpsp_scratch.high_water(),
            wavefront_scratch_high_water: wavefront_scratch.high_water(),
            ..PlanningStats::default()
        };
        Self {
            waves,
            theoretical_optimum,
            num_devices,
            stats,
        }
    }

    /// Hot-path counters of the pass that built this schedule.
    #[must_use]
    pub fn stats(&self) -> PlanningStats {
        self.stats
    }

    /// Stage 4: assigns concrete devices to every wave entry by `strategy`
    /// and assembles the final [`ExecutionPlan`].
    ///
    /// `planning_time` is the wall-clock time attributed to planning so far
    /// (sessions pass their pipeline timer; standalone callers may pass
    /// [`Duration::ZERO`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::CapacityExceeded`] if a wave requests more devices
    /// than the cluster provides.
    pub fn place(
        self,
        contracted: &ContractedGraph,
        cluster: &ClusterSpec,
        strategy: PlacementStrategy,
        planning_time: Duration,
    ) -> Result<ExecutionPlan, PlanError> {
        let mut plan = ExecutionPlan::new(
            self.waves,
            contracted.metagraph_handle(),
            self.num_devices,
            self.theoretical_optimum,
            planning_time,
        );
        strategy.place(&mut plan, cluster)?;
        plan.set_device_space(cluster.device_space() as u32);
        Ok(plan)
    }
}

/// Computes the theoretical optimum `Σ C̃*` directly from the per-level MPSP
/// solutions, without discretisation, wavefront scheduling or placement — the
/// cheap path behind [`SpindleSession::theoretical_optimum`](crate::SpindleSession::theoretical_optimum).
#[must_use]
pub fn theoretical_optimum(
    contracted: &ContractedGraph,
    curves: &CurveSet,
    num_devices: u32,
    epsilon: f64,
) -> f64 {
    let metagraph = contracted.metagraph();
    let arena = MetaOpArena::build(metagraph, curves);
    let mut scratch = MpspScratch::new();
    metagraph
        .levels()
        .iter()
        .map(|level| {
            mpsp::solve_level(&arena, &level.metaops, num_devices, epsilon, &mut scratch)
                .optimal_time
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlacementStrategy, SpindleSession};
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    fn workload() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let t = b.add_task("al", [Modality::Audio, Modality::Text], 8);
        let audio = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                6,
            )
            .unwrap();
        let text = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                6,
            )
            .unwrap();
        let loss = b
            .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))
            .unwrap();
        b.add_flow(*audio.last().unwrap(), loss).unwrap();
        b.add_flow(*text.last().unwrap(), loss).unwrap();
        b.build().unwrap()
    }

    /// Stage 3 on 8 devices, without a structural cache.
    fn build(
        contracted: &ContractedGraph,
        curves: &CurveSet,
        estimator: &ScalabilityEstimator,
    ) -> LevelSchedule {
        LevelSchedule::build(
            contracted,
            curves,
            estimator,
            8,
            mpsp::DEFAULT_EPSILON,
            None,
        )
    }

    #[test]
    fn stages_compose_into_a_valid_plan() {
        let graph = workload();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let estimator = ScalabilityEstimator::new(&cluster);

        let contracted = ContractedGraph::new(&graph);
        assert_eq!(contracted.metagraph().total_ops(), graph.num_ops());

        let curves = CurveSet::resolve(&contracted, &estimator).unwrap();
        assert_eq!(curves.len(), contracted.metagraph().num_metaops());
        assert!(!curves.is_empty());

        let schedule = build(&contracted, &curves, &estimator);
        let plan = schedule
            .place(
                &contracted,
                &cluster,
                PlacementStrategy::Locality,
                Duration::ZERO,
            )
            .unwrap();
        assert!(plan.makespan() > 0.0);
        assert!(plan.theoretical_optimum() > 0.0);
        assert_eq!(plan.num_devices(), 8);
        assert!(plan.waves().iter().all(|w| w.devices_used() <= 8));
        plan.validate().unwrap();
        plan.require_placement().unwrap();
    }

    #[test]
    fn staged_pipeline_matches_session_plan() {
        let graph = workload();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let mut session = SpindleSession::new(cluster.clone());
        let via_session = session.plan(&graph).unwrap();

        let estimator = ScalabilityEstimator::new(&cluster);
        let contracted = ContractedGraph::new(&graph);
        let curves = CurveSet::resolve(&contracted, &estimator).unwrap();
        let by_hand = build(&contracted, &curves, &estimator)
            .place(
                &contracted,
                &cluster,
                PlacementStrategy::Locality,
                Duration::ZERO,
            )
            .unwrap();

        assert_eq!(via_session.waves(), by_hand.waves());
        assert!((via_session.theoretical_optimum() - by_hand.theoretical_optimum()).abs() < 1e-12);
    }

    #[test]
    fn direct_theoretical_optimum_matches_full_schedule() {
        let graph = workload();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let estimator = ScalabilityEstimator::new(&cluster);
        let contracted = ContractedGraph::new(&graph);
        let curves = CurveSet::resolve(&contracted, &estimator).unwrap();
        let direct = theoretical_optimum(&contracted, &curves, 8, mpsp::DEFAULT_EPSILON);
        let optimum = build(&contracted, &curves, &estimator).theoretical_optimum;
        assert!((direct - optimum).abs() < 1e-12);
        assert!(direct > 0.0);
    }
}
