//! The long-lived planning session: owned state, staged pipeline, and a
//! persistent cross-plan curve cache.

use std::sync::Arc;
use std::time::Instant;

use spindle_cluster::{ClusterSpec, DeviceId, LinkClass, NodeId};
use spindle_estimator::{CurveCacheStats, ScalabilityEstimator, DEFAULT_CURVE_CACHE_BUDGET};
use spindle_graph::ComputationGraph;

use crate::pipeline::{self, ContractedGraph, CurveSet, LevelSchedule};
use crate::structural::{
    PlacedSkeleton, PlanKey, StructuralCacheStats, StructuralPlanCache,
    DEFAULT_STRUCTURAL_CACHE_BUDGET,
};
use crate::{
    mpsp, CacheTelemetry, ExecutionPlan, PlacementCheckpoint, PlacementStrategy, PlanError,
    PlanningStats, Wave,
};

/// Tunable knobs of the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Device-placement strategy (§3.5); [`PlacementStrategy::Sequential`] is
    /// the ablation variant of Fig. 10.
    pub placement: PlacementStrategy,
    /// Convergence tolerance of the MPSP bisection search, in seconds.
    pub bisection_epsilon: f64,
    /// Memoize per-level planning artifacts and placed plan skeletons in the
    /// session's [`StructuralPlanCache`], so re-planning after task churn
    /// re-solves only the dirty levels (default: on). Disable to force every
    /// plan through the full pipeline, e.g. to measure the incremental
    /// speedup.
    pub structural_cache: bool,
    /// Byte budget of the structural plan cache
    /// (default: [`DEFAULT_STRUCTURAL_CACHE_BUDGET`]). Once the accounted
    /// bytes exceed the budget, least-recently-used artifacts are evicted;
    /// `usize::MAX` disables eviction. Applied on every planning pass, so
    /// changes through [`SpindleSession::config_mut`] take effect
    /// immediately.
    pub structural_cache_budget: usize,
    /// Byte budget of the estimator's curve cache
    /// (default: [`DEFAULT_CURVE_CACHE_BUDGET`]); semantics as for
    /// [`structural_cache_budget`](Self::structural_cache_budget). Note that
    /// sessions pooling one estimator share one budgeted cache.
    pub curve_cache_budget: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            placement: PlacementStrategy::Locality,
            bisection_epsilon: mpsp::DEFAULT_EPSILON,
            structural_cache: true,
            structural_cache_budget: DEFAULT_STRUCTURAL_CACHE_BUDGET,
            curve_cache_budget: DEFAULT_CURVE_CACHE_BUDGET,
        }
    }
}

/// The result of an online re-plan: the new execution plan plus a probe of
/// how much the session's persistent curve cache helped.
#[derive(Debug)]
pub struct ReplanOutcome {
    /// The freshly produced plan for the changed workload.
    pub plan: ExecutionPlan,
    /// Operator signatures that had to be profiled and fitted anew.
    pub new_curve_fits: usize,
    /// Curve-cache hits served while producing this plan.
    pub cache_hits: usize,
    /// `true` if the cache was fully warm (zero new fits).
    pub warm: bool,
    /// MetaLevels of the re-planned graph.
    pub levels_total: usize,
    /// Levels spliced from the structural plan cache instead of being
    /// re-solved (MPSP + wavefront + memory estimation skipped).
    pub levels_reused: usize,
    /// `true` if the fully placed wave list was served structurally (every
    /// level clean and the plan structure seen before), skipping placement.
    pub placement_reused: bool,
    /// Cache telemetry for this re-plan: `cache.bytes` is the bytes held by
    /// the session's caches (curve cache plus structural plan cache) after
    /// the re-plan, `cache.evictions` counts entries evicted *during this
    /// re-plan* to stay within the configured byte budgets (both caches
    /// combined).
    pub cache: CacheTelemetry,
    /// Devices lost since the placement being reused was made (0 when the
    /// topology did not shrink since the last plan of this structure).
    pub devices_lost: usize,
    /// Levels re-placed onto the surviving device set after a topology
    /// change; the remaining `levels_total - levels_replaced` clean-prefix
    /// levels kept their placements and paid zero migration.
    pub levels_replaced: usize,
    /// Parameter bytes that must move to realize the new placement. Zero when
    /// the previous placement is unknown (nothing to diff against).
    pub migration_bytes: u64,
    /// Serialized α-β estimate of the migration time, seconds.
    ///
    /// Migration is priced with the analytical α-β link model
    /// ([`InterconnectSpec::transfer_time`](spindle_cluster::InterconnectSpec::transfer_time)):
    /// for every MetaOp whose placement shifted, the bytes resident per lost
    /// device move once over the cheapest class of link that connects an old
    /// replica to the new device (intra-island when a surviving replica shares
    /// the island, inter-island otherwise), and the per-transfer times are
    /// summed — a serialized upper bound. The runtime simulator charges the
    /// finer contended cost by pushing the same transfers through its flow
    /// model.
    pub migration_cost: f64,
    /// Distinct re-placed MetaOps whose every old replica died: no survivor
    /// can source their state, so it must be re-materialised from the
    /// checkpoint tier. Always counted, whether or not the caller models
    /// checkpoints.
    pub rematerialized_metaops: usize,
    /// State bytes of the re-materialised MetaOps' new placements, restored
    /// from the checkpoint tier rather than migrated from survivors.
    pub restore_bytes: u64,
}

impl ReplanOutcome {
    /// An outcome for `plan` with no structural reuse, no topology change and
    /// an empty cache probe; each planning path sets the fields that apply.
    fn new(plan: ExecutionPlan, levels_total: usize) -> Self {
        Self {
            plan,
            new_curve_fits: 0,
            cache_hits: 0,
            warm: true,
            levels_total,
            levels_reused: 0,
            placement_reused: false,
            cache: CacheTelemetry::default(),
            devices_lost: 0,
            levels_replaced: 0,
            migration_bytes: 0,
            migration_cost: 0.0,
            rematerialized_metaops: 0,
            restore_bytes: 0,
        }
    }

    /// Cache hit rate of this re-plan: hits over total lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.new_curve_fits;
        if total == 0 {
            return 1.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Fraction of levels served from the structural cache.
    #[must_use]
    pub fn level_reuse_rate(&self) -> f64 {
        if self.levels_total == 0 {
            return 1.0;
        }
        self.levels_reused as f64 / self.levels_total as f64
    }
}

/// A long-lived Spindle planning session bound to one cluster.
///
/// Unlike a one-shot planner invocation, a session *owns* its
/// state: the cluster description (shared via [`Arc`]), the scalability
/// estimator with its persistent curve cache, and a
/// [`StructuralPlanCache`](crate::StructuralPlanCache) memoizing per-level
/// planning artifacts and placed plan skeletons. In the dynamic multi-task
/// scenario of the paper's Appendix D (the task mix changes, the system
/// re-plans at every phase), a warm session re-fits **zero** curves for
/// workloads it has already profiled *and* re-solves only the MetaLevels a
/// task-mix change actually touched — clean levels are spliced from cached
/// fragments and recurring plan structures reuse their placed waves
/// wholesale, bit-identical to planning from scratch.
///
/// A session plans any number of workloads:
///
/// ```
/// use spindle_cluster::ClusterSpec;
/// use spindle_core::SpindleSession;
/// use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// let t = b.add_task("audio-text", [Modality::Audio, Modality::Text], 8);
/// let audio = b.add_op_chain(t, OpKind::Encoder(Modality::Audio), TensorShape::new(8, 229, 768), 6)?;
/// let text = b.add_op_chain(t, OpKind::Encoder(Modality::Text), TensorShape::new(8, 77, 768), 6)?;
/// let loss = b.add_op(t, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))?;
/// b.add_flow(*audio.last().unwrap(), loss)?;
/// b.add_flow(*text.last().unwrap(), loss)?;
/// let graph = b.build()?;
///
/// let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
/// let cold = session.plan(&graph)?;
/// let fits_after_cold = session.curve_fits();
/// let warm = session.plan(&graph)?; // cache-served: zero new fits
/// assert_eq!(session.curve_fits(), fits_after_cold);
/// assert_eq!(cold.waves(), warm.waves());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SpindleSession {
    /// The *active* cluster — `pristine` minus the currently `removed`
    /// devices. All planning happens against this.
    cluster: Arc<ClusterSpec>,
    /// The full cluster as constructed, before any churn.
    pristine: Arc<ClusterSpec>,
    /// Currently removed device ids (sorted, deduplicated).
    removed: Vec<DeviceId>,
    /// The active device set before the most recent topology change:
    /// `(device count, missing ids)`. Lets the next re-plan probe the
    /// structural cache for the pre-churn placed skeleton and reuse its
    /// clean-prefix placements.
    prev_topology: Option<(u32, Vec<u32>)>,
    estimator: Arc<ScalabilityEstimator>,
    config: PlannerConfig,
    plans_produced: usize,
    stats: PlanningStats,
    structural: StructuralPlanCache,
}

impl SpindleSession {
    /// Creates a session for `cluster` with the default configuration and the
    /// default analytic performance model.
    #[must_use]
    pub fn new(cluster: impl Into<Arc<ClusterSpec>>) -> Self {
        Self::with_config(cluster, PlannerConfig::default())
    }

    /// Creates a session with an explicit configuration.
    #[must_use]
    pub fn with_config(cluster: impl Into<Arc<ClusterSpec>>, config: PlannerConfig) -> Self {
        let cluster = cluster.into();
        let estimator = Arc::new(ScalabilityEstimator::new(&cluster));
        Self::with_estimator(cluster, estimator, config)
    }

    /// Creates a session around a caller-supplied estimator (e.g. one backed
    /// by recorded profiles, or one shared with another session to pool curve
    /// caches).
    #[must_use]
    pub fn with_estimator(
        cluster: impl Into<Arc<ClusterSpec>>,
        estimator: Arc<ScalabilityEstimator>,
        config: PlannerConfig,
    ) -> Self {
        let cluster = cluster.into();
        Self {
            pristine: Arc::clone(&cluster),
            cluster,
            removed: Vec::new(),
            prev_topology: None,
            estimator,
            config,
            plans_produced: 0,
            stats: PlanningStats::default(),
            structural: StructuralPlanCache::new(),
        }
    }

    /// The cluster this session plans for.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// A shareable handle to the cluster description.
    #[must_use]
    pub fn cluster_handle(&self) -> Arc<ClusterSpec> {
        Arc::clone(&self.cluster)
    }

    /// Devices currently removed from the active cluster (sorted).
    #[must_use]
    pub fn removed_devices(&self) -> &[DeviceId] {
        &self.removed
    }

    /// The `(device count, missing ids)` signature of a cluster's active
    /// device set within its dense id space.
    fn device_set_signature(cluster: &ClusterSpec) -> (u32, Vec<u32>) {
        let space = cluster.device_space();
        let mut present = vec![false; space];
        for d in cluster.all_devices().iter() {
            present[d.index()] = true;
        }
        let missing = (0..space as u32)
            .filter(|&i| !present[i as usize])
            .collect();
        (cluster.num_devices() as u32, missing)
    }

    /// Rebuilds the active cluster from `pristine` minus `removed`, recording
    /// the previous active set for partial placement reuse. Returns the
    /// signed change in device count (positive = devices lost).
    fn apply_topology(&mut self) -> Result<isize, PlanError> {
        let before = self.cluster.num_devices() as isize;
        let next = self
            .pristine
            .without_devices(&self.removed)
            .map_err(|_| PlanError::EmptyCluster)?;
        let after = next.num_devices() as isize;
        if before != after || next.all_devices() != self.cluster.all_devices() {
            self.prev_topology = Some(Self::device_set_signature(&self.cluster));
            self.cluster = Arc::new(next);
        }
        Ok(before - after)
    }

    /// Removes `devices` from the active cluster — the topology-change entry
    /// point for device churn (spot reclamation, GPU failure, preemption).
    /// Ids already removed or unknown are ignored. Subsequent plans place
    /// onto the surviving set only; the next re-plan of a structure planned
    /// before the change reuses the placements of its clean prefix of levels
    /// and reports the migration the dirty suffix costs (see
    /// [`ReplanOutcome`]).
    ///
    /// Returns the number of devices actually lost.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyCluster`] (leaving the session unchanged) if
    /// the removal would leave no device.
    pub fn remove_devices(&mut self, devices: &[DeviceId]) -> Result<usize, PlanError> {
        let saved = self.removed.clone();
        for &d in devices {
            if !self.removed.contains(&d) {
                self.removed.push(d);
            }
        }
        self.removed.sort_unstable();
        match self.apply_topology() {
            Ok(delta) => Ok(delta.max(0) as usize),
            Err(e) => {
                self.removed = saved;
                Err(e)
            }
        }
    }

    /// Returns previously removed `devices` to the active cluster (spot
    /// capacity coming back, a node rejoining). Ids not currently removed are
    /// ignored. A restore that returns the cluster to a previously planned
    /// topology lets re-plans serve placed skeletons cached for that
    /// topology — bit-identical to cold plans of the restored cluster.
    ///
    /// Returns the number of devices actually regained.
    pub fn restore_devices(&mut self, devices: &[DeviceId]) -> usize {
        self.removed.retain(|d| !devices.contains(d));
        match self.apply_topology() {
            Ok(delta) => (-delta).max(0) as usize,
            Err(_) => unreachable!("restoring devices cannot empty the cluster"),
        }
    }

    /// The session's estimator (and its persistent curve cache).
    #[must_use]
    pub fn estimator(&self) -> &ScalabilityEstimator {
        &self.estimator
    }

    /// A shareable handle to the estimator, e.g. for baseline planners that
    /// want to reuse the session's curve cache.
    #[must_use]
    pub fn estimator_handle(&self) -> Arc<ScalabilityEstimator> {
        Arc::clone(&self.estimator)
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Mutable access to the configuration (e.g. to switch the placement
    /// strategy between plans).
    pub fn config_mut(&mut self) -> &mut PlannerConfig {
        &mut self.config
    }

    /// Number of plans this session has produced.
    #[must_use]
    pub fn plans_produced(&self) -> usize {
        self.plans_produced
    }

    /// Number of distinct operator signatures whose curves are cached.
    #[must_use]
    pub fn cached_curves(&self) -> usize {
        self.estimator.cached_curves()
    }

    /// Number of profile-and-fit operations performed over the session's
    /// lifetime. Re-planning a workload whose operator signatures were all
    /// seen before leaves this unchanged.
    #[must_use]
    pub fn curve_fits(&self) -> usize {
        self.estimator.curve_fits()
    }

    /// A snapshot of the curve-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CurveCacheStats {
        self.estimator.cache_stats()
    }

    /// A snapshot of the structural plan cache's counters (level artifacts,
    /// placed skeletons, hits and misses).
    #[must_use]
    pub fn structural_cache_stats(&self) -> StructuralCacheStats {
        self.structural.stats()
    }

    /// Drops every cached structural artifact (level schedules and placed
    /// skeletons). The curve cache is unaffected.
    pub fn clear_structural_cache(&mut self) {
        self.structural.clear();
    }

    /// Approximate bytes currently held by the session's caches: the
    /// estimator's curve cache plus the structural plan cache.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.estimator.cache_bytes() + self.structural.bytes()
    }

    /// Total cache entries evicted (both caches combined) to stay within the
    /// configured byte budgets, over the session's lifetime.
    #[must_use]
    pub fn cache_evictions(&self) -> usize {
        self.estimator.cache_evictions() + self.structural.evictions()
    }

    /// Accumulated hot-path counters over every plan this session produced:
    /// bisection iterations, waves crafted and the scratch-buffer high-water
    /// marks, plus a live snapshot of the cache byte/eviction gauges. Benches
    /// and tests use these to assert the allocation-free planning invariants
    /// (e.g. the MPSP scratch never grows beyond the largest level) instead
    /// of trusting them.
    #[must_use]
    pub fn planning_stats(&self) -> PlanningStats {
        let mut stats = self.stats;
        stats.cache = CacheTelemetry {
            bytes: self.cache_bytes(),
            evictions: self.cache_evictions() as u64,
        };
        stats
    }

    /// Stage 1: contracts a workload graph into its MetaGraph.
    #[must_use]
    pub fn contract(&self, graph: &ComputationGraph) -> ContractedGraph {
        ContractedGraph::new(graph)
    }

    /// Stage 2: resolves the scaling curve of every MetaOp, served from the
    /// session's curve cache wherever possible.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoCurve`] for MetaOps that cannot be profiled.
    pub fn resolve_curves(&self, contracted: &ContractedGraph) -> Result<CurveSet, PlanError> {
        CurveSet::resolve(contracted, &self.estimator)
    }

    /// Runs the full staged pipeline and returns the execution plan: a
    /// [`replan`](Self::replan) without the probe.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyCluster`] for clusters without devices and
    /// [`PlanError::NoCurve`] if an operator cannot be profiled.
    pub fn plan(&mut self, graph: &ComputationGraph) -> Result<ExecutionPlan, PlanError> {
        self.replan(graph).map(|outcome| outcome.plan)
    }

    /// Re-plans a (possibly changed) workload and reports how warm the
    /// session's caches were for it — the online re-planning hook used by
    /// the runtime's dynamic run loop when the task mix changes mid-run.
    ///
    /// Produces the same plan as [`plan`](Self::plan); the extra value is the
    /// probe: how many genuinely new operator signatures had to be fitted
    /// versus how many were served from the curve cache, and how many
    /// MetaLevels (and whether the placement) were spliced from the
    /// structural plan cache instead of being re-solved. An incremental
    /// re-plan produces a plan bit-identical to a cold plan of the same
    /// graph; only the cost differs.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`plan`](Self::plan).
    pub fn replan(&mut self, graph: &ComputationGraph) -> Result<ReplanOutcome, PlanError> {
        if self.cluster.num_devices() == 0 {
            return Err(PlanError::EmptyCluster);
        }
        let fits_before = self.curve_fits();
        let hits_before = self.estimator.cache_hits();
        let evictions_before = self.cache_evictions();
        let mut outcome = self.plan_pass(graph)?;
        self.plans_produced += 1;
        outcome.new_curve_fits = self.curve_fits().saturating_sub(fits_before);
        outcome.cache_hits = self.estimator.cache_hits().saturating_sub(hits_before);
        outcome.warm = outcome.new_curve_fits == 0;
        outcome.cache = CacheTelemetry {
            bytes: self.cache_bytes(),
            evictions: self.cache_evictions().saturating_sub(evictions_before) as u64,
        };
        Ok(outcome)
    }

    /// The single pipeline pass behind [`replan`](Self::replan). Consults the
    /// structural plan cache (when enabled): a whole-plan hit skips stages 3
    /// and 4 entirely, per-level hits splice cached schedule fragments, and
    /// misses solve fresh and feed the cache for the next re-plan. Merges the
    /// pass's hot-path counters into the session's on success; the caller
    /// fills in the curve-cache probe.
    fn plan_pass(&mut self, graph: &ComputationGraph) -> Result<ReplanOutcome, PlanError> {
        let started = Instant::now();
        // Apply the configured byte budgets before the pass touches either
        // cache, so `config_mut` edits take effect on the very next plan.
        self.estimator
            .ensure_cache_budget(self.config.curve_cache_budget);
        self.structural
            .ensure_budget(self.config.structural_cache_budget);
        let contracted = self.contract(graph);
        let curves = self.resolve_curves(&contracted)?;
        let num_devices = self.cluster.num_devices() as u32;
        let levels_total = contracted.metagraph().levels().len();
        let use_cache = self.config.structural_cache;
        if use_cache {
            self.structural
                .ensure_epsilon(self.config.bisection_epsilon);
        }
        let plan_key = use_cache.then(|| {
            let (n, missing) = Self::device_set_signature(&self.cluster);
            PlanKey::with_device_set(contracted.metagraph(), n, missing, self.config.placement)
        });
        if let Some(skeleton) = plan_key.as_ref().and_then(|k| self.structural.skeleton(k)) {
            // Whole-plan structural hit. Bit-identical to the full pipeline
            // by construction of `PlanKey`.
            return Ok(self.serve_skeleton(&contracted, &skeleton, started));
        }
        // Migration-aware partial placement reuse: when the topology shrank
        // since this structure was last placed, salvage the clean prefix of
        // levels from the pre-churn skeleton instead of re-placing everything.
        let mut devices_lost = 0;
        let mut levels_replaced = 0;
        let prev_key = match &self.prev_topology {
            Some((prev_n, prev_missing))
                if use_cache
                    && *prev_n > num_devices
                    && self.config.placement == PlacementStrategy::Locality =>
            {
                devices_lost = (*prev_n - num_devices) as usize;
                Some(PlanKey::with_device_set(
                    contracted.metagraph(),
                    *prev_n,
                    prev_missing.clone(),
                    self.config.placement,
                ))
            }
            _ => None,
        };
        if let Some(prev_key) = prev_key {
            if let Some(old) = self.structural.skeleton(&prev_key) {
                if let Some(outcome) =
                    self.replan_after_loss(&contracted, &curves, &old, devices_lost, started)?
                {
                    return Ok(outcome);
                }
            } else {
                // The pre-churn placement was evicted: nothing to diff
                // against, so the whole plan is re-placed and the
                // migration volume is unknown (reported as zero).
                levels_replaced = levels_total;
            }
        }
        let schedule = LevelSchedule::build_with_cache(
            &contracted,
            &curves,
            &self.estimator,
            num_devices,
            self.config.bisection_epsilon,
            use_cache.then_some(&mut self.structural),
        );
        let stats = schedule.stats();
        let (mut plan, checkpoints) = schedule.place_checkpointed(
            &contracted,
            &self.cluster,
            self.config.placement,
            started.elapsed(),
        )?;
        plan.set_planning_time(started.elapsed());
        if let Some(key) = plan_key {
            self.structural.insert_skeleton(
                key,
                PlacedSkeleton {
                    waves: plan.waves().to_vec(),
                    theoretical_optimum: plan.theoretical_optimum(),
                    checkpoints,
                },
            );
        }
        self.stats.merge(&stats);
        Ok(ReplanOutcome {
            levels_reused: stats.levels_reused as usize,
            devices_lost,
            levels_replaced,
            ..ReplanOutcome::new(plan, levels_total)
        })
    }

    /// Serves a whole plan from a placed skeleton: clones its waves, attaches
    /// the freshly contracted MetaGraph and counts every level as reused.
    fn serve_skeleton(
        &mut self,
        contracted: &ContractedGraph,
        skeleton: &PlacedSkeleton,
        started: Instant,
    ) -> ReplanOutcome {
        let levels_total = contracted.metagraph().levels().len();
        let mut plan = ExecutionPlan::new(
            skeleton.waves.clone(),
            contracted.metagraph_handle(),
            self.cluster.num_devices() as u32,
            skeleton.theoretical_optimum,
            started.elapsed(),
        );
        plan.set_device_space(self.cluster.device_space() as u32);
        self.stats.merge(&PlanningStats {
            levels_reused: levels_total as u64,
            ..PlanningStats::default()
        });
        ReplanOutcome {
            levels_reused: levels_total,
            placement_reused: true,
            ..ReplanOutcome::new(plan, levels_total)
        }
    }

    /// The partial-reuse re-plan after device loss: keep the placements of
    /// the maximal clean prefix of levels (none of their placed devices was
    /// removed — they pay zero migration), rebuild and re-place the dirty
    /// suffix onto the surviving devices by resuming the placement pass from
    /// the last clean level's checkpoint, and price the parameter migration
    /// the suffix's placement shift causes. Returns `Ok(None)` when the old
    /// skeleton cannot seed a resume (no usable checkpoints) — the caller
    /// falls back to a full re-plan.
    fn replan_after_loss(
        &mut self,
        contracted: &ContractedGraph,
        curves: &CurveSet,
        old: &PlacedSkeleton,
        devices_lost: usize,
        started: Instant,
    ) -> Result<Option<ReplanOutcome>, PlanError> {
        let num_devices = self.cluster.num_devices() as u32;
        let device_space = self.cluster.device_space();
        let levels_total = contracted.metagraph().levels().len();
        let num_metaops = contracted.metagraph().num_metaops();
        let mut present = vec![false; device_space];
        for d in self.cluster.all_devices().iter() {
            present[d.index()] = true;
        }
        // The clean prefix: maximal leading run of levels whose placements
        // reference surviving devices only.
        let mut clean_prefix = 0usize;
        'levels: for lvl in 0..levels_total {
            for wave in old.waves.iter().filter(|w| w.level == lvl) {
                for entry in &wave.entries {
                    let clean = entry.placement.as_ref().is_some_and(|g| {
                        g.iter()
                            .all(|d| d.index() < device_space && present[d.index()])
                    });
                    if !clean {
                        break 'levels;
                    }
                }
            }
            clean_prefix += 1;
        }
        let new_key = {
            let (n, missing) = Self::device_set_signature(&self.cluster);
            PlanKey::with_device_set(contracted.metagraph(), n, missing, self.config.placement)
        };
        if clean_prefix == levels_total {
            // Every placed device survived: the old plan is feasible on the
            // surviving set as-is (disjoint placements on survivors cannot
            // exceed the surviving capacity) and pays zero migration.
            let outcome = self.serve_skeleton(contracted, old, started);
            self.structural.insert_skeleton(new_key, old.clone());
            return Ok(Some(ReplanOutcome {
                devices_lost,
                ..outcome
            }));
        }
        if clean_prefix > 0 && old.checkpoints.len() < clean_prefix {
            // Skeleton predates checkpointing (or used a stateless strategy):
            // nothing to resume from.
            return Ok(None);
        }
        // Where the suffix MetaOps used to live, for the migration diff.
        let mut old_sites: Vec<Vec<DeviceId>> = vec![Vec::new(); num_metaops];
        for wave in old.waves.iter().filter(|w| w.level >= clean_prefix) {
            for entry in &wave.entries {
                if let Some(group) = &entry.placement {
                    let sites = &mut old_sites[entry.metaop.index()];
                    for d in group.iter() {
                        if !sites.contains(&d) {
                            sites.push(d);
                        }
                    }
                }
            }
        }
        // Re-solve every level at the surviving capacity (level artifacts
        // cached per capacity make repeats cheap), keep the clean prefix's
        // old waves verbatim, and splice the freshly scheduled suffix after
        // them.
        let schedule = LevelSchedule::build_with_cache(
            contracted,
            curves,
            &self.estimator,
            num_devices,
            self.config.bisection_epsilon,
            Some(&mut self.structural),
        );
        let stats = schedule.stats();
        let (new_waves, new_optimum) = schedule.into_parts();
        let mut waves: Vec<Wave> = old
            .waves
            .iter()
            .filter(|w| w.level < clean_prefix)
            .cloned()
            .collect();
        let prefix_len = waves.len();
        let mut now = waves.last().map_or(0.0, Wave::end);
        for mut wave in new_waves.into_iter().filter(|w| w.level >= clean_prefix) {
            wave.index = waves.len();
            wave.start = now;
            now = wave.end();
            waves.push(wave);
        }
        let mut plan = ExecutionPlan::new(
            waves,
            contracted.metagraph_handle(),
            num_devices,
            new_optimum,
            started.elapsed(),
        );
        crate::placement::check_capacity(&plan, &self.cluster)?;
        let resume = if clean_prefix > 0 {
            old.checkpoints[clean_prefix - 1].clone()
        } else {
            PlacementCheckpoint::default()
        };
        let suffix_checkpoints =
            crate::placement::place_locality_resume(&mut plan, &self.cluster, prefix_len, &resume);
        plan.set_device_space(device_space as u32);
        let mut outcome = ReplanOutcome {
            levels_reused: stats.levels_reused as usize,
            devices_lost,
            levels_replaced: levels_total - clean_prefix,
            ..ReplanOutcome::new(plan, levels_total)
        };
        // Price the migration: for every suffix MetaOp, each device it now
        // occupies but did not before receives that MetaOp's per-device bytes
        // over the cheapest link class connecting it to a surviving old
        // replica (intra-island when one shares the island, inter-island
        // otherwise — including the no-survivor case, a checkpoint restore).
        let interconnect = self.cluster.interconnect();
        let mut new_sites: Vec<Vec<DeviceId>> = vec![Vec::new(); num_metaops];
        let mut bytes_per_device: Vec<u64> = vec![0; num_metaops];
        for wave in outcome.plan.waves().iter().skip(prefix_len) {
            for entry in &wave.entries {
                let m = entry.metaop.index();
                bytes_per_device[m] = bytes_per_device[m].max(entry.memory_per_device);
                if let Some(group) = &entry.placement {
                    for d in group.iter() {
                        if !new_sites[m].contains(&d) {
                            new_sites[m].push(d);
                        }
                    }
                }
            }
        }
        for m in 0..num_metaops {
            let bytes = bytes_per_device[m];
            if bytes == 0 {
                continue;
            }
            let old_nodes: Vec<NodeId> = old_sites[m]
                .iter()
                .filter(|d| d.index() < device_space && present[d.index()])
                .filter_map(|&d| self.cluster.node_of(d).ok())
                .collect();
            // Every old replica died: the MetaOp cannot be migrated at all —
            // its new sites restore from the checkpoint tier. Count it so
            // lost state is surfaced, never silently dropped.
            let rematerialized = !old_sites[m].is_empty() && old_nodes.is_empty();
            if rematerialized && !new_sites[m].is_empty() {
                outcome.rematerialized_metaops += 1;
            }
            for &d in new_sites[m].iter().filter(|d| !old_sites[m].contains(d)) {
                outcome.migration_bytes += bytes;
                if rematerialized {
                    outcome.restore_bytes += bytes;
                }
                let class = match self.cluster.node_of(d) {
                    Ok(node) if old_nodes.contains(&node) => LinkClass::IntraIsland,
                    _ => LinkClass::InterIsland,
                };
                outcome.migration_cost += interconnect.transfer_time(class, bytes);
            }
        }
        let mut checkpoints = old.checkpoints[..clean_prefix].to_vec();
        checkpoints.extend(suffix_checkpoints);
        self.structural.insert_skeleton(
            new_key,
            PlacedSkeleton {
                waves: outcome.plan.waves().to_vec(),
                theoretical_optimum: new_optimum,
                checkpoints,
            },
        );
        outcome.plan.set_planning_time(started.elapsed());
        self.stats.merge(&stats);
        Ok(Some(outcome))
    }

    /// The theoretical optimum `Σ C̃*` of a workload on this session's
    /// cluster, computed directly from the per-level MPSP solutions — no
    /// discretisation, wavefront scheduling or device placement.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`plan`](Self::plan).
    pub fn theoretical_optimum(&self, graph: &ComputationGraph) -> Result<f64, PlanError> {
        if self.cluster.num_devices() == 0 {
            return Err(PlanError::EmptyCluster);
        }
        let contracted = self.contract(graph);
        let curves = self.resolve_curves(&contracted)?;
        Ok(pipeline::theoretical_optimum(
            &contracted,
            &curves,
            self.cluster.num_devices() as u32,
            self.config.bisection_epsilon,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementStrategy;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    /// A 2-task contrastive workload with heterogeneous towers.
    fn workload() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        for (name, m, seq, batch, layers) in [
            ("audio-text", Modality::Audio, 229u32, 8u32, 12usize),
            ("vision-text", Modality::Vision, 257, 4, 24),
        ] {
            let t = b.add_task(name, [m, Modality::Text], batch);
            let tower = b
                .add_op_chain(
                    t,
                    OpKind::Encoder(m),
                    TensorShape::new(batch, seq, 768),
                    layers,
                )
                .unwrap();
            let text = b
                .add_op_chain(
                    t,
                    OpKind::Encoder(Modality::Text),
                    TensorShape::new(batch, 77, 768),
                    12,
                )
                .unwrap();
            let loss = b
                .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(batch, 1, 768))
                .unwrap();
            b.add_flow(*tower.last().unwrap(), loss).unwrap();
            b.add_flow(*text.last().unwrap(), loss).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn session_plan_is_complete_and_valid() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let plan = session.plan(&graph).unwrap();
        plan.validate().unwrap();
        plan.require_placement().unwrap();
        assert!(plan.makespan() > 0.0);
        assert!(plan.theoretical_optimum() > 0.0);
        assert!(plan.makespan() + 1e-9 >= plan.theoretical_optimum() * 0.99);
        assert!(plan.num_waves() >= 2);
        assert_eq!(session.plans_produced(), 1);
    }

    #[test]
    fn makespan_close_to_theoretical_optimum() {
        // Fig. 11: the practical plan should stay within a few percent of C̃*.
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let plan = session.plan(&graph).unwrap();
        let ratio = plan.makespan() / plan.theoretical_optimum();
        assert!(ratio < 1.35, "deviation too large: {ratio:.3}");
    }

    #[test]
    fn more_devices_never_slow_the_plan_down_much() {
        let graph = workload();
        let small = SpindleSession::new(ClusterSpec::homogeneous(1, 8))
            .plan(&graph)
            .unwrap();
        let large = SpindleSession::new(ClusterSpec::homogeneous(2, 8))
            .plan(&graph)
            .unwrap();
        assert!(large.makespan() <= small.makespan() * 1.05);
    }

    #[test]
    fn replanning_the_same_workload_performs_no_new_fits() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let cold = session.plan(&graph).unwrap();
        let fits = session.curve_fits();
        assert!(fits > 0);
        let warm = session.plan(&graph).unwrap();
        assert_eq!(session.curve_fits(), fits, "warm re-plan must not re-fit");
        assert_eq!(cold.waves(), warm.waves());
        assert_eq!(session.plans_produced(), 2);
        assert!(session.cache_stats().hits > 0);
    }

    #[test]
    fn replan_probe_reports_cache_warmth() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let cold = session.replan(&graph).unwrap();
        assert!(cold.new_curve_fits > 0);
        assert!(!cold.warm);
        assert!(cold.plan.makespan() > 0.0);
        let warm = session.replan(&graph).unwrap();
        assert_eq!(warm.new_curve_fits, 0);
        assert!(warm.warm);
        assert!(warm.cache_hits > 0);
        assert!((warm.hit_rate() - 1.0).abs() < 1e-12);
        assert!(cold.hit_rate() < 1.0);
        assert_eq!(warm.plan.waves(), cold.plan.waves());
    }

    #[test]
    fn sequential_placement_config_is_respected() {
        let graph = workload();
        let config = PlannerConfig {
            placement: PlacementStrategy::Sequential,
            ..PlannerConfig::default()
        };
        let mut session = SpindleSession::with_config(ClusterSpec::homogeneous(2, 8), config);
        assert_eq!(session.config().placement, PlacementStrategy::Sequential);
        let plan = session.plan(&graph).unwrap();
        plan.require_placement().unwrap();
        plan.validate().unwrap();
        // Switching the strategy between plans works too.
        session.config_mut().placement = PlacementStrategy::Locality;
        let plan = session.plan(&graph).unwrap();
        plan.validate().unwrap();
    }

    #[test]
    fn planning_time_is_recorded_and_small() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(4, 8));
        let plan = session.plan(&graph).unwrap();
        // Fig. 12: planning takes seconds at most; this small case must be
        // well under a second.
        assert!(plan.planning_time().as_secs_f64() < 1.0);
        assert!(plan.planning_time().as_nanos() > 0);
    }

    #[test]
    fn theoretical_optimum_matches_full_plan_without_building_it() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let direct = session.theoretical_optimum(&graph).unwrap();
        let plan = session.plan(&graph).unwrap();
        assert!((direct - plan.theoretical_optimum()).abs() < 1e-12);
    }

    #[test]
    fn planning_stats_expose_hot_path_counters() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        assert_eq!(session.planning_stats(), crate::PlanningStats::default());
        let plan = session.plan(&graph).unwrap();
        let stats = session.planning_stats();
        assert!(stats.mpsp_solves > 0);
        assert!(stats.bisection_iterations > 0);
        assert_eq!(stats.waves_crafted, plan.num_waves() as u64);
        // Zero-alloc invariant: the scratch buffers never grow beyond the
        // largest level of the workload.
        let contracted = session.contract(&graph);
        let largest_level = contracted
            .metagraph()
            .levels()
            .iter()
            .map(|l| l.metaops.len())
            .max()
            .unwrap();
        assert!(stats.mpsp_scratch_high_water <= largest_level);
        assert!(stats.wavefront_scratch_high_water <= largest_level);
        // A second plan of the same graph is served from the structural
        // cache: no new waves are crafted, and the reuse counters account
        // for every level.
        session.plan(&graph).unwrap();
        let stats = session.planning_stats();
        assert_eq!(stats.waves_crafted, plan.num_waves() as u64);
        assert_eq!(
            stats.levels_reused,
            contracted.metagraph().levels().len() as u64
        );
        assert!(session.structural_cache_stats().skeleton_hits > 0);
        // With the structural cache disabled the pipeline runs in full again.
        session.config_mut().structural_cache = false;
        session.plan(&graph).unwrap();
        assert_eq!(
            session.planning_stats().waves_crafted,
            2 * plan.num_waves() as u64
        );
    }

    #[test]
    fn cache_budgets_flow_from_config_and_are_reported() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let cold = session.replan(&graph).unwrap();
        assert!(
            cold.cache.bytes > 0,
            "caches hold the cold plan's artifacts"
        );
        assert_eq!(cold.cache.evictions, 0, "default budgets are generous");
        let stats = session.planning_stats();
        assert_eq!(stats.cache.bytes, session.cache_bytes());
        assert_eq!(stats.cache.evictions, 0);
        // Starve both caches: the next pass evicts everything it inserts.
        session.config_mut().structural_cache_budget = 1;
        session.config_mut().curve_cache_budget = 1;
        let starved = session.replan(&graph).unwrap();
        assert!(starved.cache.evictions > 0, "tiny budgets must evict");
        assert!(session.cache_bytes() <= 2, "hard byte bound on both caches");
        assert_eq!(starved.plan.waves(), cold.plan.waves(), "plans unaffected");
        // A post-eviction re-plan re-fits from scratch yet stays identical.
        let refit = session.replan(&graph).unwrap();
        assert!(refit.new_curve_fits > 0, "evicted curves are fitted anew");
        assert_eq!(refit.plan.waves(), cold.plan.waves());
    }

    /// A 3-level chain (embedding → towers → loss) whose first level is a
    /// single MetaOp: on a 12-device cluster its power-of-two allocation
    /// occupies only devices 0..8, so removing a high-id device leaves level
    /// 0's placement clean while dirtying the later, work-conserving levels.
    fn staged_workload() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let t = b.add_task("staged", [Modality::Audio, Modality::Text], 8);
        let embed = b
            .add_op(t, OpKind::Embedding, TensorShape::new(8, 229, 768))
            .unwrap();
        let audio = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                8,
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
        b.add_flow(embed, audio[0]).unwrap();
        b.add_flow(embed, text[0]).unwrap();
        b.add_flow(*audio.last().unwrap(), loss).unwrap();
        b.add_flow(*text.last().unwrap(), loss).unwrap();
        b.build().unwrap()
    }

    fn placed_devices(plan: &ExecutionPlan) -> Vec<spindle_cluster::DeviceId> {
        let mut devices = Vec::new();
        for wave in plan.waves() {
            for entry in &wave.entries {
                if let Some(group) = &entry.placement {
                    for d in group.iter() {
                        if !devices.contains(&d) {
                            devices.push(d);
                        }
                    }
                }
            }
        }
        devices
    }

    #[test]
    fn device_loss_replan_reuses_clean_prefix_and_prices_migration() {
        let graph = staged_workload();
        let cluster = ClusterSpec::homogeneous(3, 4);
        let capacity = cluster.device_memory_bytes();
        let mut session = SpindleSession::new(cluster);
        let cold = session.replan(&graph).unwrap();
        assert_eq!(cold.devices_lost, 0);
        assert_eq!(cold.levels_replaced, 0);
        assert_eq!(cold.migration_bytes, 0);
        let dead = spindle_cluster::DeviceId(11);
        assert!(placed_devices(&cold.plan).contains(&dead));
        let cold_prefix: Vec<Wave> = cold
            .plan
            .waves()
            .iter()
            .filter(|w| w.level == 0)
            .cloned()
            .collect();

        assert_eq!(session.remove_devices(&[dead]).unwrap(), 1);
        assert_eq!(session.cluster().num_devices(), 11);
        let churned = session.replan(&graph).unwrap();
        assert_eq!(churned.devices_lost, 1);
        assert_eq!(churned.levels_total, 3);
        assert!(
            churned.levels_replaced > 0 && churned.levels_replaced < churned.levels_total,
            "partial churn must replace a proper suffix, got {}/{}",
            churned.levels_replaced,
            churned.levels_total
        );
        assert!(churned.migration_bytes > 0, "placement shift moves bytes");
        assert!(churned.migration_cost > 0.0);
        // One lost device out of a replicated placement leaves survivors for
        // every MetaOp: nothing has to come back from the checkpoint tier.
        assert_eq!(churned.rematerialized_metaops, 0);
        assert_eq!(churned.restore_bytes, 0);
        churned.plan.check_invariants(capacity).unwrap();
        assert!(
            !placed_devices(&churned.plan).contains(&dead),
            "removed device must not appear in any placement"
        );
        // The clean prefix keeps its placements verbatim — zero migration.
        let new_prefix: Vec<Wave> = churned
            .plan
            .waves()
            .iter()
            .filter(|w| w.level == 0)
            .cloned()
            .collect();
        assert_eq!(cold_prefix, new_prefix);
        // A second re-plan on the shrunken topology is a plain skeleton hit.
        let settled = session.replan(&graph).unwrap();
        assert_eq!(settled.devices_lost, 0);
        assert!(settled.placement_reused);
        assert_eq!(settled.plan.waves(), churned.plan.waves());
    }

    #[test]
    fn restore_then_recur_is_bit_identical_to_cold() {
        let graph = staged_workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(3, 4));
        let cold = session.replan(&graph).unwrap();
        let dead = [spindle_cluster::DeviceId(9), spindle_cluster::DeviceId(11)];
        assert_eq!(session.remove_devices(&dead).unwrap(), 2);
        session.replan(&graph).unwrap();
        assert_eq!(session.restore_devices(&dead), 2);
        assert_eq!(session.cluster().num_devices(), 12);
        assert_eq!(session.removed_devices(), &[]);
        let restored = session.replan(&graph).unwrap();
        assert_eq!(restored.plan.waves(), cold.plan.waves());
        // And with a cleared cache the restored re-plan still reproduces the
        // cold plan bit for bit — determinism, not cache luck.
        session.clear_structural_cache();
        let recomputed = session.replan(&graph).unwrap();
        assert_eq!(recomputed.plan.waves(), cold.plan.waves());
    }

    #[test]
    fn removing_every_device_is_rejected_and_leaves_session_usable() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 4));
        session.plan(&graph).unwrap();
        let all: Vec<_> = session.cluster().all_devices().iter().collect();
        assert!(matches!(
            session.remove_devices(&all),
            Err(PlanError::EmptyCluster)
        ));
        assert_eq!(session.cluster().num_devices(), 4, "session unchanged");
        session.plan(&graph).unwrap();
    }

    #[test]
    fn sessions_can_pool_one_estimator() {
        let graph = workload();
        let cluster = Arc::new(ClusterSpec::homogeneous(1, 8));
        let estimator = Arc::new(ScalabilityEstimator::new(&cluster));
        let mut a = SpindleSession::with_estimator(
            Arc::clone(&cluster),
            Arc::clone(&estimator),
            PlannerConfig::default(),
        );
        a.plan(&graph).unwrap();
        let fits = estimator.curve_fits();
        let mut b = SpindleSession::with_estimator(cluster, estimator, PlannerConfig::default());
        b.plan(&graph).unwrap();
        assert_eq!(b.curve_fits(), fits, "second session reuses pooled curves");
    }
}
