//! The long-lived planning session: owned state, staged pipeline, and a
//! persistent cross-plan curve cache.

use std::sync::Arc;
use std::time::Instant;

use spindle_cluster::{ClusterSpec, DeviceId, LinkClass};
use spindle_estimator::{ScalabilityEstimator, DEFAULT_CURVE_CACHE_BUDGET};
use spindle_graph::ComputationGraph;

use crate::pipeline::{self, ContractedGraph, CurveSet, LevelSchedule};
use crate::structural::{
    PlacedSkeleton, PlanKey, StructuralPlanCache, DEFAULT_STRUCTURAL_CACHE_BUDGET,
};
use crate::{
    mpsp, CacheTelemetry, ExecutionPlan, MetaOpId, PlacementStrategy, PlanError, PlanningStats,
    Residency, Wave,
};

/// Tunable knobs of the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Device-placement strategy (§3.5); [`PlacementStrategy::Sequential`] is
    /// the ablation variant of Fig. 10.
    pub placement: PlacementStrategy,
    /// Convergence tolerance of the MPSP bisection search, in seconds.
    pub bisection_epsilon: f64,
    /// Byte budget of the session's [`StructuralPlanCache`], which memoizes
    /// per-level planning artifacts and placed plan skeletons so re-planning
    /// after task churn re-solves only the dirty levels
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
    /// Devices of the set the session last planned on that have left the
    /// cluster since (0 on a session's first plan, and when no device was
    /// lost since the previous plan).
    pub devices_lost: usize,
    /// Levels re-placed onto the surviving device set after a device loss:
    /// `levels_total` when the loss touched a placed device and the whole
    /// plan was re-placed, 0 when the pre-loss plan was kept as it was.
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

    /// Prices the migration of a re-plan after device loss: for every
    /// MetaOp, each device it now occupies but did not in `old` (the
    /// pre-loss plan's waves) receives that MetaOp's per-device bytes over
    /// the cheapest link class connecting it to a surviving old replica
    /// (intra-island when one shares the island, inter-island otherwise —
    /// including the no-survivor case, a checkpoint restore). The survivors
    /// are the old replicas `cluster` still has.
    fn price_migration(&mut self, old: &[Wave], cluster: &ClusterSpec) {
        let num_metaops = self.plan.metagraph().num_metaops();
        let new = self.plan.waves();
        let old_sites = Residency::new(old);
        let survivors = old_sites.survivors(cluster);
        let new_sites = Residency::new(new);
        let mut bytes_per_device: Vec<u64> = vec![0; num_metaops];
        for entry in new.iter().flat_map(|w| &w.entries) {
            let bytes = &mut bytes_per_device[entry.metaop.index()];
            *bytes = (*bytes).max(entry.memory_per_device);
        }
        let interconnect = cluster.interconnect();
        for (m, &bytes) in (0..).map(MetaOpId).zip(&bytes_per_device) {
            if bytes == 0 {
                continue;
            }
            // Every old replica died: the MetaOp cannot be migrated at all —
            // its new sites restore from the checkpoint tier. Count it so
            // lost state is surfaced, never silently dropped.
            let rematerialized = !old_sites.sites(m).is_empty() && survivors.first(m).is_none();
            let sites = new_sites.sites(m);
            if rematerialized && !sites.is_empty() {
                self.rematerialized_metaops += 1;
            }
            for &d in sites.iter().filter(|&&d| !old_sites.holds(m, d)) {
                self.migration_bytes += bytes;
                if rematerialized {
                    self.restore_bytes += bytes;
                }
                let class = match cluster.node_of(d) {
                    Ok(node) if survivors.on_node(m, node).is_some() => LinkClass::IntraIsland,
                    _ => LinkClass::InterIsland,
                };
                self.migration_cost += interconnect.transfer_time(class, bytes);
            }
        }
    }
}

/// The counters of one re-plan as a `Copy` record: a [`ReplanOutcome`]
/// without its plan, which it names by makespan, wave count and
/// fingerprint.
///
/// The service ships it over the wire and the runtime's run reports hold
/// it, so clients need neither the waves nor a field-by-field copy. The
/// fingerprint is an FNV-1a hash over every wave entry's exact bit pattern:
/// two plans have equal fingerprints iff their wave structure, timings and
/// placements are bit-identical, which is the property the
/// transport-equivalence cross-check asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplanSummary {
    /// Bit pattern of the plan's makespan (seconds as `f64::to_bits`).
    pub makespan_bits: u64,
    /// Number of waves in the plan.
    pub num_waves: u32,
    /// FNV-1a over every wave's and entry's exact bits, placements
    /// included.
    pub plan_fingerprint: u64,
    /// Operator signatures profiled and fitted anew.
    pub new_curve_fits: u32,
    /// Curve-cache hits served while producing the plan.
    pub cache_hits: u32,
    /// `true` if the curve cache was fully warm (zero new fits).
    pub warm: bool,
    /// MetaLevels of the re-planned graph.
    pub levels_total: u32,
    /// Levels spliced from the structural plan cache.
    pub levels_reused: u32,
    /// `true` if the fully placed wave list was served structurally.
    pub placement_reused: bool,
    /// Session cache telemetry after the re-plan (see
    /// [`ReplanOutcome::cache`]).
    pub cache: CacheTelemetry,
    /// Devices of the last planned device set lost since.
    pub devices_lost: u32,
    /// Levels re-placed after a topology change.
    pub levels_replaced: u32,
    /// The planner's estimate of the parameter bytes that must move.
    pub migration_bytes: u64,
    /// Bit pattern of the planner's serialized migration time estimate, in
    /// seconds.
    pub migration_cost_bits: u64,
    /// MetaOps that lost every replica and must restore from checkpoints.
    pub rematerialized_metaops: u32,
    /// The planner's estimate of the state bytes those MetaOps read back
    /// from storage.
    pub restore_bytes: u64,
}

impl ReplanSummary {
    /// Summarises a full [`ReplanOutcome`].
    #[must_use]
    pub fn of(outcome: &ReplanOutcome) -> Self {
        Self {
            makespan_bits: outcome.plan.makespan().to_bits(),
            num_waves: outcome.plan.num_waves() as u32,
            plan_fingerprint: outcome.plan.fingerprint(),
            new_curve_fits: outcome.new_curve_fits as u32,
            cache_hits: outcome.cache_hits as u32,
            warm: outcome.warm,
            levels_total: outcome.levels_total as u32,
            levels_reused: outcome.levels_reused as u32,
            placement_reused: outcome.placement_reused,
            cache: outcome.cache,
            devices_lost: outcome.devices_lost as u32,
            levels_replaced: outcome.levels_replaced as u32,
            migration_bytes: outcome.migration_bytes,
            migration_cost_bits: outcome.migration_cost.to_bits(),
            rematerialized_metaops: outcome.rematerialized_metaops as u32,
            restore_bytes: outcome.restore_bytes,
        }
    }

    /// The plan's makespan in seconds.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }

    /// The planner's serialized migration time estimate in seconds.
    #[must_use]
    pub fn migration_cost(&self) -> f64 {
        f64::from_bits(self.migration_cost_bits)
    }

    /// Curve-cache hits over curve lookups (1.0 without lookups).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = u64::from(self.cache_hits) + u64::from(self.new_curve_fits);
        if total == 0 {
            return 1.0;
        }
        f64::from(self.cache_hits) / total as f64
    }

    /// Fraction of levels served from the structural cache (1.0 without
    /// levels).
    #[must_use]
    pub fn level_reuse_rate(&self) -> f64 {
        if self.levels_total == 0 {
            return 1.0;
        }
        f64::from(self.levels_reused) / f64::from(self.levels_total)
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
    /// The device set of the last successful planning pass, as a presence
    /// map over its dense id space. A re-plan after device loss probes the
    /// structural cache for the skeleton placed on it, and keeps that
    /// skeleton when none of its placed devices left.
    planned_on: Option<Vec<bool>>,
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
            planned_on: None,
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

    /// Rebuilds the active cluster from `pristine` minus `removed`. Returns
    /// the signed change in device count (positive = devices lost).
    fn apply_topology(&mut self) -> Result<isize, PlanError> {
        let before = self.cluster.num_devices() as isize;
        let next = self
            .pristine
            .without_devices(&self.removed)
            .map_err(|_| PlanError::EmptyCluster)?;
        let after = next.num_devices() as isize;
        if before != after || next.all_devices() != self.cluster.all_devices() {
            self.cluster = Arc::new(next);
        }
        Ok(before - after)
    }

    /// Removes `devices` from the active cluster — the topology-change entry
    /// point for device churn (spot reclamation, GPU failure, preemption).
    /// Ids already removed or unknown are ignored. Subsequent plans place
    /// onto the surviving set only; the next re-plan diffs against the
    /// device set the session last planned on: it keeps the plan placed
    /// there when the loss touched none of its placed devices, and otherwise
    /// re-places it and reports the migration that costs (see
    /// [`ReplanOutcome`]).
    ///
    /// Returns the number of devices actually lost.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyCluster`] (leaving the session unchanged) if
    /// the removal would leave no device.
    pub fn remove_devices(&mut self, devices: &[DeviceId]) -> Result<usize, PlanError> {
        let next = self.pristine.removed_set(&self.removed, &[], devices);
        let saved = std::mem::replace(&mut self.removed, next);
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
        self.removed = self.pristine.removed_set(&self.removed, devices, &[]);
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

    /// Number of profile-and-fit operations performed over the session's
    /// lifetime. Re-planning a workload whose operator signatures were all
    /// seen before leaves this unchanged.
    #[must_use]
    pub fn curve_fits(&self) -> usize {
        self.estimator.curve_fits()
    }

    /// The session's counters: the hot-path counters accumulated over every
    /// plan it produced (bisection iterations, waves crafted, the
    /// scratch-buffer high-water marks), and a snapshot of both caches'
    /// entries, hits, misses, bytes and evictions. Benches and tests use
    /// these to assert the allocation-free planning invariants (e.g. the
    /// MPSP scratch never grows beyond the largest level) instead of
    /// trusting them.
    #[must_use]
    pub fn planning_stats(&self) -> PlanningStats {
        let estimator = &self.estimator;
        let mut stats = PlanningStats {
            curve_cache: CacheTelemetry {
                bytes: estimator.cache_bytes(),
                evictions: estimator.cache_evictions() as u64,
            },
            curve_entries: estimator.cached_curves(),
            curve_fits: estimator.curve_fits(),
            curve_hits: estimator.cache_hits(),
            ..self.stats
        };
        self.structural.report(&mut stats);
        stats.cache = CacheTelemetry {
            bytes: stats.curve_cache.bytes + stats.structural_cache.bytes,
            evictions: stats.curve_cache.evictions + stats.structural_cache.evictions,
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
        let before = self.planning_stats();
        let mut outcome = self.plan_pass(graph)?;
        self.plans_produced += 1;
        let after = self.planning_stats();
        outcome.new_curve_fits = after.curve_fits.saturating_sub(before.curve_fits);
        outcome.cache_hits = after.curve_hits.saturating_sub(before.curve_hits);
        outcome.warm = outcome.new_curve_fits == 0;
        outcome.cache = CacheTelemetry {
            bytes: after.cache.bytes,
            evictions: after.cache.evictions.saturating_sub(before.cache.evictions),
        };
        Ok(outcome)
    }

    /// The single pipeline pass behind [`replan`](Self::replan). Consults the
    /// structural plan cache: a whole-plan hit skips stages 3 and 4
    /// entirely, per-level hits splice cached schedule fragments, and misses
    /// solve fresh and feed the cache for the next re-plan. After device
    /// loss, the skeleton placed on the last planned device set is served as
    /// it is when none of its placed devices left; otherwise the pass
    /// re-places the whole plan on the survivors and prices its migration
    /// against that skeleton. Merges the pass's hot-path counters into the
    /// session's on success; the caller fills in the curve-cache probe.
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
        let levels_total = contracted.metagraph().levels().len();
        self.structural
            .ensure_epsilon(self.config.bisection_epsilon);
        let present = presence(&self.cluster);
        let placement = self.config.placement;
        let key = |present: &[bool]| {
            let (n, missing) = device_set_signature(present);
            PlanKey::with_device_set(contracted.metagraph(), n, missing, placement)
        };
        let plan_key = key(&present);
        if let Some(skeleton) = self.structural.skeleton(&plan_key) {
            // Whole-plan structural hit. Bit-identical to the full pipeline
            // by construction of `PlanKey`.
            self.planned_on = Some(present);
            return Ok(self.serve_skeleton(&contracted, &skeleton, started));
        }
        let devices_lost = self.planned_on.as_ref().map_or(0, |planned| {
            planned
                .iter()
                .enumerate()
                .filter(|&(i, &was)| was && present.get(i) != Some(&true))
                .count()
        });
        // The pre-loss skeleton; when it was evicted there is nothing to diff
        // against, so the migration volume is unknown (reported as zero).
        let old = match &self.planned_on {
            Some(planned) if devices_lost > 0 => self.structural.skeleton(&key(planned)),
            _ => None,
        };
        let mut outcome = match &old {
            // Every placed device survived: the old plan is feasible on the
            // surviving set as-is (disjoint placements on survivors cannot
            // exceed the surviving capacity) and pays zero migration.
            Some(old) if placed_within(&old.waves, &present) => {
                self.serve_skeleton(&contracted, old, started)
            }
            _ => {
                let schedule = LevelSchedule::build(
                    &contracted,
                    &curves,
                    &self.estimator,
                    self.cluster.num_devices() as u32,
                    self.config.bisection_epsilon,
                    Some(&mut self.structural),
                );
                let stats = schedule.stats();
                let plan =
                    schedule.place(&contracted, &self.cluster, placement, started.elapsed())?;
                self.stats.merge(&stats);
                let mut outcome = ReplanOutcome {
                    levels_reused: stats.levels_reused as usize,
                    levels_replaced: if devices_lost > 0 { levels_total } else { 0 },
                    ..ReplanOutcome::new(plan, levels_total)
                };
                if let Some(old) = &old {
                    outcome.price_migration(&old.waves, &self.cluster);
                }
                outcome.plan.set_planning_time(started.elapsed());
                outcome
            }
        };
        outcome.devices_lost = devices_lost;
        self.structural.insert_skeleton(
            plan_key,
            PlacedSkeleton {
                waves: outcome.plan.waves().to_vec(),
                theoretical_optimum: outcome.plan.theoretical_optimum(),
            },
        );
        self.planned_on = Some(present);
        Ok(outcome)
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

/// Which ids of `cluster`'s dense id space hold a device.
fn presence(cluster: &ClusterSpec) -> Vec<bool> {
    let mut present = vec![false; cluster.device_space()];
    for d in cluster.all_devices().iter() {
        present[d.index()] = true;
    }
    present
}

/// The `(device count, missing ids)` signature of the device set `present`
/// marks within its dense id space.
fn device_set_signature(present: &[bool]) -> (u32, Vec<u32>) {
    let missing: Vec<u32> = (0..present.len() as u32)
        .filter(|&i| !present[i as usize])
        .collect();
    ((present.len() - missing.len()) as u32, missing)
}

/// Whether every entry of `waves` is placed on devices `present` marks
/// only.
fn placed_within(waves: &[Wave], present: &[bool]) -> bool {
    waves.iter().flat_map(|w| &w.entries).all(|entry| {
        entry
            .placement
            .as_ref()
            .is_some_and(|g| g.iter().all(|d| present.get(d.index()) == Some(&true)))
    })
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
        assert!(session.planning_stats().curve_hits > 0);
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
        assert!((ReplanSummary::of(&warm).hit_rate() - 1.0).abs() < 1e-12);
        assert!(ReplanSummary::of(&cold).hit_rate() < 1.0);
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
        assert!(stats.skeleton_hits > 0);
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
        assert_eq!(stats.cache.bytes, cold.cache.bytes);
        assert_eq!(stats.cache.evictions, 0);
        // Starve both caches: the next pass evicts everything it inserts.
        session.config_mut().structural_cache_budget = 1;
        session.config_mut().curve_cache_budget = 1;
        let starved = session.replan(&graph).unwrap();
        assert!(starved.cache.evictions > 0, "tiny budgets must evict");
        let bytes = session.planning_stats().cache.bytes;
        assert!(bytes <= 2, "hard byte bound on both caches");
        assert_eq!(starved.plan.waves(), cold.plan.waves(), "plans unaffected");
        // A post-eviction re-plan re-fits from scratch yet stays identical.
        let refit = session.replan(&graph).unwrap();
        assert!(refit.new_curve_fits > 0, "evicted curves are fitted anew");
        assert_eq!(refit.plan.waves(), cold.plan.waves());
    }

    /// A 3-level chain (embedding → towers → loss) whose first level is a
    /// single MetaOp: on a 12-device cluster its power-of-two allocation
    /// occupies only devices 0..8, while the later, work-conserving levels
    /// use every device.
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
    fn device_loss_replan_re_places_the_plan_and_prices_migration() {
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
        assert_eq!(
            churned.levels_replaced, 3,
            "a touched plan is re-placed whole"
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
        // Level 0 never used the lost device, and the full re-place puts it
        // where it was: its MetaOp moves no bytes.
        let new_prefix: Vec<Wave> = churned
            .plan
            .waves()
            .iter()
            .filter(|w| w.level == 0)
            .cloned()
            .collect();
        assert_eq!(cold_prefix, new_prefix);
        // The re-placed plan, pinned bit for bit.
        let digest = churned.plan.fingerprint();
        assert_eq!(digest, 0x0d98_d0ea_381f_6952, "{digest:#018x}");
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
        // And a fresh session's plan of the restored cluster reproduces the
        // cold plan bit for bit — determinism, not cache luck.
        let fresh = SpindleSession::new(ClusterSpec::homogeneous(3, 4)).plan(&graph);
        assert_eq!(fresh.unwrap().waves(), cold.plan.waves());
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
    fn replans_after_device_loss_time_every_entry_at_a_point_of_its_curve() {
        // 4 nodes of 5 GPUs: curves are fitted at 1, 2, 4, 8 and 16 devices,
        // so 15 survivors can bracket n* with an allocation that no longer
        // fits the cluster.
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(4, 5));
        session.replan(&graph).unwrap();
        let node2: Vec<_> = (10..15).map(DeviceId).collect();
        assert_eq!(session.remove_devices(&node2).unwrap(), 5);
        let plan = session.replan(&graph).unwrap().plan;
        let curves = session.resolve_curves(&session.contract(&graph)).unwrap();
        let mut points = 0;
        for entry in plan.waves().iter().flat_map(|w| &w.entries) {
            assert!(entry.devices <= 15, "{} on {}", entry.metaop, entry.devices);
            let curve = curves.get(entry.metaop).unwrap();
            assert!(
                curve
                    .valid_allocations()
                    .contains(&(entry.devices, entry.time_per_op)),
                "{} runs on {} devices at {:e} s/op, not a point of its curve {:?}",
                entry.metaop,
                entry.devices,
                entry.time_per_op,
                curve.valid_allocations()
            );
            points += 1;
        }
        assert!(points > 0);
    }

    #[test]
    fn unknown_device_ids_are_ignored() {
        let graph = workload();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 4));
        let cold = session.plan(&graph).unwrap();
        let unknown: Vec<_> = [99, 8, 1 << 20].into_iter().map(DeviceId).collect();
        assert_eq!(session.remove_devices(&unknown).unwrap(), 0);
        assert_eq!(session.removed_devices(), &[]);
        let (a, b) = (DeviceId(3), DeviceId(1));
        assert_eq!(session.remove_devices(&[a, b, a, DeviceId(99)]).unwrap(), 2);
        assert_eq!(session.removed_devices(), &[b, a], "sorted, deduplicated");
        assert_eq!(session.restore_devices(&[DeviceId(99), a, a]), 1);
        assert_eq!(session.removed_devices(), &[b]);
        assert_eq!(session.restore_devices(&[b]), 1);
        assert_eq!(session.plan(&graph).unwrap().waves(), cold.waves());
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

    /// Every cache and planning counter of a seeded replay, digested after
    /// each re-plan: a roster walk under budgets small enough that both
    /// caches evict, with a device loss and a restore on the way. Recorded
    /// when the cache counters came from `CurveCacheStats` (hit rate
    /// included), `StructuralCacheStats` and the session's
    /// `cached_curves()`, `cache_bytes()` and `cache_evictions()`, in that
    /// order, which is why some values appear twice; `planning_stats()`
    /// now returns every one of them.
    #[test]
    fn seeded_replay_cache_counters_match_the_recorded_digest() {
        let cluster = ClusterSpec::homogeneous(4, 8);
        let mut session = SpindleSession::with_config(
            cluster,
            PlannerConfig {
                structural_cache_budget: 40 * 1024,
                curve_cache_budget: 6 * 1024,
                ..PlannerConfig::default()
            },
        );
        let mut rng = spindle_graph::XorShift64Star::new(0x0C0_C7E5);
        let mut active: Vec<bool> = (0..spindle_workloads::HYPERSCALE_ROSTER)
            .map(|s| s < 8)
            .collect();
        let node3: Vec<DeviceId> = (24..32).map(DeviceId).collect();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |words: &[u64]| {
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let (mut lost, mut regained) = (0, 0);
        for step in 0..20 {
            match step {
                7 => lost += session.remove_devices(&node3[4..]).unwrap(),
                13 => regained += session.restore_devices(&node3[4..]),
                15 => lost += session.remove_devices(&node3).unwrap(),
                _ => {
                    let slot =
                        (rng.next_u64() % spindle_workloads::HYPERSCALE_ROSTER as u64) as usize;
                    let can_deactivate = active[slot] && active.iter().filter(|&&a| a).count() > 4;
                    active[slot] = !can_deactivate;
                }
            }
            let slots: Vec<usize> = (0..spindle_workloads::HYPERSCALE_ROSTER)
                .filter(|&s| active[s])
                .collect();
            let outcome = session
                .replan(&spindle_workloads::hyperscale_subset(&slots).unwrap())
                .unwrap();
            let stats = session.planning_stats();
            let lookups = stats.curve_fits + stats.curve_hits;
            mix(&[
                stats.curve_entries as u64,
                stats.curve_fits as u64,
                stats.curve_hits as u64,
                stats.curve_cache.bytes as u64,
                stats.curve_cache.evictions,
                (stats.curve_hits as f64 / lookups as f64).to_bits(),
                stats.level_entries as u64,
                stats.skeleton_entries as u64,
                stats.level_hits as u64,
                stats.level_misses as u64,
                stats.skeleton_hits as u64,
                stats.skeleton_misses as u64,
                stats.structural_cache.bytes as u64,
                stats.structural_cache.evictions,
                stats.curve_entries as u64,
                stats.cache.bytes as u64,
                stats.cache.evictions,
                stats.mpsp_solves,
                stats.bisection_iterations,
                stats.waves_crafted,
                stats.levels_planned,
                stats.levels_reused,
                stats.mpsp_scratch_high_water as u64,
                stats.wavefront_scratch_high_water as u64,
                stats.cache.bytes as u64,
                stats.cache.evictions,
                outcome.cache.bytes as u64,
                outcome.cache.evictions,
                outcome.devices_lost as u64,
            ]);
            if step == 19 {
                assert!(
                    stats.curve_cache.evictions > 0,
                    "the curve cache must evict"
                );
                assert!(
                    stats.structural_cache.evictions > 0,
                    "the structural cache must evict"
                );
            }
        }
        assert_eq!((lost, regained), (12, 4));
        assert_eq!(digest, 0x0d60_6436_8909_e058, "{digest:#018x}");
    }
}
