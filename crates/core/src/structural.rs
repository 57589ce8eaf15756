//! The structural plan cache behind incremental delta re-planning.
//!
//! The dynamic-schedule scenario (Appendix D / Fig. 13) re-plans at every
//! task arrival or departure, but each event perturbs only a slice of the
//! plan: a MetaLevel whose task mix did not change poses *exactly* the same
//! allocation/scheduling sub-problem as before, and a task mix that recurs
//! (tasks leave and later rejoin — the dominant pattern of churn traces)
//! poses the same whole-plan problem. This module memoizes both granularities
//! so [`SpindleSession::replan`](crate::SpindleSession::replan) re-solves
//! only the *dirty* levels and splices cached fragments for the clean ones:
//!
//! * **Per-level artifacts** ([`LevelArtifact`], keyed by [`LevelKey`]): the
//!   MPSP solution's optimum `C̃*` together with the discretised allocation
//!   as crafted, memory-annotated waves in level-relative form (MetaOps as
//!   positions within the level, times relative to the level start). Splicing
//!   replays the exact accumulation of the cold path, so a spliced schedule
//!   is *bit-identical* to a freshly solved one.
//! * **Placed skeletons** ([`PlacedSkeleton`], keyed by [`PlanKey`]): the
//!   fully placed wave list of a whole plan. Device placement is a stateful
//!   global pass (affinity and memory balance carry across waves and
//!   levels), so placement fragments can only be reused when *every* level is
//!   clean and the MetaGraph wiring matches — which is what the plan-level
//!   key guarantees.
//!
//! Keys are built from [`WorkloadSignature`]s — the task-independent identity
//! of an operator's cost model — so a cached level serves hits across task-id
//! shifts (a departed early task renumbers every later task) and even across
//! different tasks with identical towers. Two equal keys imply bit-identical
//! profiling results, bit-identical MPSP bisection iterates and therefore
//! bit-identical schedules; the `incremental_replan` integration tests pin
//! this equivalence over seeded churn sequences.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use spindle_graph::WorkloadSignature;

use crate::{
    CacheTelemetry, MetaGraph, MetaLevel, PlacementStrategy, PlanningStats, Wave, WaveEntry,
};

/// Default byte budget of the structural plan cache: comfortably holds every
/// artifact of paper-scale and hyperscale runs while bounding a long-running
/// service. Configure per session via
/// [`PlannerConfig::structural_cache_budget`](crate::PlannerConfig).
pub const DEFAULT_STRUCTURAL_CACHE_BUDGET: usize = 64 * 1024 * 1024;

/// Approximate bytes of one placed (or unplaced) wave: the wave struct, its
/// entries and any placement device lists.
fn wave_bytes(wave: &Wave) -> usize {
    std::mem::size_of::<Wave>()
        + wave
            .entries
            .iter()
            .map(|e| {
                std::mem::size_of::<WaveEntry>()
                    + e.placement.as_ref().map_or(0, |g| {
                        g.len() * std::mem::size_of::<spindle_cluster::DeviceId>()
                    })
            })
            .sum::<usize>()
}

/// Canonical signature of one MetaLevel's allocation + scheduling sub-problem:
/// the level's MetaOp workloads (signature and operator count, in level
/// order) plus the device budget. Two levels with equal keys have
/// bit-identical MPSP solutions and wave schedules.
///
/// The key is order-sensitive on purpose: the bisection solver accumulates
/// floating-point sums in level order, so only an identically ordered level
/// is guaranteed to reproduce the same bits. (Levels list MetaOps in id
/// order, which graph builders derive from task declaration order, so
/// recurring task mixes produce identically ordered levels.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LevelKey {
    num_devices: u32,
    items: Vec<(WorkloadSignature, u32)>,
}

impl LevelKey {
    /// Builds the key of `level` within `metagraph` for a cluster of
    /// `num_devices`.
    #[must_use]
    pub fn of(metagraph: &MetaGraph, level: &MetaLevel, num_devices: u32) -> Self {
        Self {
            num_devices,
            items: level
                .metaops
                .iter()
                .map(|&id| {
                    let m = metagraph.metaop(id);
                    (m.representative().workload_signature(), m.num_ops())
                })
                .collect(),
        }
    }

    /// Approximate memory footprint of the key, for cache byte accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.items.len() * std::mem::size_of::<(WorkloadSignature, u32)>()
    }
}

/// Canonical signature of a whole structural planning problem: every MetaOp's
/// workload (in id order), the MetaGraph wiring, the device budget and the
/// placement strategy. Equal keys imply bit-identical *placed* plans, because
/// placement reads nothing beyond MetaOp volumes (workload-determined), the
/// edge structure and the wave schedule (level-determined).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    num_devices: u32,
    /// Device ids absent from the dense space `0..num_devices + missing.len()`
    /// — empty on a pristine cluster, the removed ids after device churn.
    /// Two post-churn clusters can have equal device *counts* but different
    /// survivor *sets*; their placed skeletons are not interchangeable.
    missing: Vec<u32>,
    placement: PlacementStrategy,
    metaops: Vec<(WorkloadSignature, u32)>,
    edges: Vec<(u32, u32)>,
}

impl PlanKey {
    /// Builds the plan-level key of `metagraph` for a pristine cluster of
    /// `num_devices` contiguous devices under `placement`.
    #[must_use]
    pub fn of(metagraph: &MetaGraph, num_devices: u32, placement: PlacementStrategy) -> Self {
        Self::with_device_set(metagraph, num_devices, Vec::new(), placement)
    }

    /// Builds the key for an explicit device set: `num_devices` survivors in
    /// the dense id space `0..num_devices + missing.len()` with `missing`
    /// (sorted) ids absent.
    #[must_use]
    pub fn with_device_set(
        metagraph: &MetaGraph,
        num_devices: u32,
        missing: Vec<u32>,
        placement: PlacementStrategy,
    ) -> Self {
        Self {
            num_devices,
            missing,
            placement,
            metaops: metagraph
                .metaops()
                .iter()
                .map(|m| (m.representative().workload_signature(), m.num_ops()))
                .collect(),
            edges: metagraph.edges().iter().map(|&(a, b)| (a.0, b.0)).collect(),
        }
    }

    /// Approximate memory footprint of the key, for cache byte accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.missing.len() * std::mem::size_of::<u32>()
            + self.metaops.len() * std::mem::size_of::<(WorkloadSignature, u32)>()
            + self.edges.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// One cached wave entry in level-relative form: the MetaOp is stored as its
/// *position* within the level (`slot`), so the entry can be rebased onto any
/// level with the same key.
#[derive(Debug, Clone)]
struct CachedEntry {
    slot: u32,
    layers: u32,
    devices: u32,
    time_per_op: f64,
    exec_time: f64,
    memory_per_device: u64,
}

/// One cached wave: its duration plus rebasable entries. Start times are not
/// stored — splicing replays the cold path's `start = now; now = start +
/// duration` accumulation so rebased timestamps come out bit-identical.
#[derive(Debug, Clone)]
struct CachedWave {
    duration: f64,
    entries: Vec<CachedEntry>,
}

/// The cached per-level planning artifact: the continuous optimum `C̃*` of
/// the level's MPSP solution and the crafted waves (which embody the
/// discretised device allocation) with memory annotations, in level-relative
/// form.
#[derive(Debug, Clone)]
pub struct LevelArtifact {
    optimal_time: f64,
    waves: Vec<CachedWave>,
}

impl LevelArtifact {
    /// Captures the freshly built waves of one level in rebasable form.
    ///
    /// # Panics
    ///
    /// Panics if a wave references a MetaOp outside `level` (the wavefront
    /// scheduler never does).
    #[must_use]
    pub fn capture(level: &MetaLevel, optimal_time: f64, level_waves: &[Wave]) -> Self {
        let waves = level_waves
            .iter()
            .map(|wave| CachedWave {
                duration: wave.duration,
                entries: wave
                    .entries
                    .iter()
                    .map(|entry| CachedEntry {
                        // Level MetaOp lists are in ascending id order.
                        slot: level
                            .metaops
                            .binary_search(&entry.metaop)
                            .expect("wave entries only reference the level's MetaOps")
                            as u32,
                        layers: entry.layers,
                        devices: entry.devices,
                        time_per_op: entry.time_per_op,
                        exec_time: entry.exec_time,
                        memory_per_device: entry.memory_per_device,
                    })
                    .collect(),
            })
            .collect();
        Self {
            optimal_time,
            waves,
        }
    }

    /// The continuous optimum `C̃*` of the level (the MPSP solution).
    #[must_use]
    pub fn optimal_time(&self) -> f64 {
        self.optimal_time
    }

    /// Approximate memory footprint of the artifact, for cache byte
    /// accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .waves
                .iter()
                .map(|w| {
                    std::mem::size_of::<CachedWave>()
                        + w.entries.len() * std::mem::size_of::<CachedEntry>()
                })
                .sum::<usize>()
    }

    /// Number of cached waves.
    #[must_use]
    pub fn num_waves(&self) -> usize {
        self.waves.len()
    }

    /// Splices the cached waves onto `level` starting at `start_time` with
    /// wave indices from `first_wave_index`, appending to `out`. Returns the
    /// end time of the level — exactly what the cold path would have
    /// computed.
    pub fn splice(
        &self,
        level: &MetaLevel,
        start_time: f64,
        first_wave_index: usize,
        out: &mut Vec<Wave>,
    ) -> f64 {
        let mut now = start_time;
        for (i, cached) in self.waves.iter().enumerate() {
            let wave = Wave {
                index: first_wave_index + i,
                level: level.index,
                start: now,
                duration: cached.duration,
                entries: cached
                    .entries
                    .iter()
                    .map(|e| WaveEntry {
                        metaop: level.metaops[e.slot as usize],
                        layers: e.layers,
                        devices: e.devices,
                        time_per_op: e.time_per_op,
                        exec_time: e.exec_time,
                        memory_per_device: e.memory_per_device,
                        placement: None,
                    })
                    .collect(),
            };
            now = wave.end();
            out.push(wave);
        }
        now
    }
}

/// The cached whole-plan artifact: the fully placed wave list and the summed
/// theoretical optimum of a previously planned structure.
///
/// The placements are all a partial re-plan after device loss needs: it
/// keeps the waves of the clean prefix of levels and resumes the locality
/// pass by replaying their placements.
#[derive(Debug, Clone)]
pub struct PlacedSkeleton {
    /// The placed waves, ready to clone into a new [`ExecutionPlan`](crate::ExecutionPlan).
    pub waves: Vec<Wave>,
    /// The plan's theoretical optimum `Σ C̃*`.
    pub theoretical_optimum: f64,
}

impl PlacedSkeleton {
    /// Approximate memory footprint of the skeleton (waves, entries and
    /// placement device lists), for cache byte accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.waves.iter().map(wave_bytes).sum::<usize>()
    }
}

/// One cached level artifact with its LRU stamp and accounted size.
#[derive(Debug)]
struct LevelSlot {
    artifact: Arc<LevelArtifact>,
    bytes: usize,
    /// Tick of the most recent lookup or insert.
    tick: u64,
}

/// One cached placed skeleton with its LRU stamp and accounted size.
#[derive(Debug)]
struct SkeletonSlot {
    skeleton: Arc<PlacedSkeleton>,
    bytes: usize,
    tick: u64,
}

/// The level-keyed structural plan cache of a
/// [`SpindleSession`](crate::SpindleSession).
///
/// Plain owned state: the session plans through `&mut self`, so lookups and
/// inserts need no lock. Hit/miss counters let tests and benches *assert*
/// structural reuse rather than trusting it.
///
/// The cache is bounded: artifacts carry approximate byte sizes and an LRU
/// tick, and inserts evict least-recently-used entries once the accounted
/// bytes exceed the configured budget (unbounded by default; sessions apply
/// [`PlannerConfig::structural_cache_budget`](crate::PlannerConfig) on every
/// planning pass).
pub struct StructuralPlanCache {
    /// Bisection epsilon the level artifacts were solved under; a config
    /// change invalidates them.
    epsilon_bits: u64,
    /// Byte budget; `usize::MAX` means unbounded.
    budget: usize,
    /// Approximate bytes currently cached across both maps.
    bytes: usize,
    /// LRU clock; every lookup hit and insert stamps its slot with the next
    /// tick.
    clock: u64,
    levels: HashMap<LevelKey, LevelSlot>,
    skeletons: HashMap<PlanKey, SkeletonSlot>,
    level_hits: usize,
    level_misses: usize,
    skeleton_hits: usize,
    skeleton_misses: usize,
    evictions: usize,
}

impl Default for StructuralPlanCache {
    fn default() -> Self {
        Self {
            epsilon_bits: 0,
            budget: usize::MAX,
            bytes: 0,
            clock: 0,
            levels: HashMap::new(),
            skeletons: HashMap::new(),
            level_hits: 0,
            level_misses: 0,
            skeleton_hits: 0,
            skeleton_misses: 0,
            evictions: 0,
        }
    }
}

impl fmt::Debug for StructuralPlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StructuralPlanCache")
            .field("level_entries", &self.levels.len())
            .field("skeleton_entries", &self.skeletons.len())
            .field("level_hits", &self.level_hits)
            .field("skeleton_hits", &self.skeleton_hits)
            .finish()
    }
}

impl StructuralPlanCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the cache's artifacts were produced under `epsilon`, clearing
    /// them if the tolerance changed (cached bisection iterates would no
    /// longer match a fresh solve).
    pub fn ensure_epsilon(&mut self, epsilon: f64) {
        let bits = epsilon.to_bits();
        if self.epsilon_bits != bits {
            self.clear();
            self.epsilon_bits = bits;
        }
    }

    /// The current byte budget (`usize::MAX` means unbounded).
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Ensures the cache is bounded by `budget` bytes, evicting immediately
    /// if the budget shrank below the currently cached bytes.
    pub fn ensure_budget(&mut self, budget: usize) {
        if self.budget != budget {
            self.budget = budget;
            self.evict_to_budget();
        }
    }

    /// Evicts least-recently-used slots (levels and skeletons pooled under
    /// one LRU clock) until the accounted bytes fit the budget. A
    /// just-inserted slot carries the freshest tick so it goes last, but even
    /// it is dropped when it alone exceeds the budget — the byte bound is a
    /// hard invariant.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget && (!self.levels.is_empty() || !self.skeletons.is_empty()) {
            let oldest_level = self
                .levels
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, s)| (k.clone(), s.tick));
            let oldest_skeleton = self
                .skeletons
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, s)| (k.clone(), s.tick));
            let level_is_older = match (&oldest_level, &oldest_skeleton) {
                (Some((_, lt)), Some((_, st))) => lt <= st,
                (Some(_), None) => true,
                _ => false,
            };
            if level_is_older {
                let (key, _) = oldest_level.expect("checked above");
                if let Some(slot) = self.levels.remove(&key) {
                    self.bytes -= slot.bytes;
                    self.evictions += 1;
                }
            } else if let Some((key, _)) = oldest_skeleton {
                if let Some(slot) = self.skeletons.remove(&key) {
                    self.bytes -= slot.bytes;
                    self.evictions += 1;
                }
            }
        }
    }

    /// Looks up a level artifact, counting the hit or miss.
    #[must_use]
    pub fn level(&mut self, key: &LevelKey) -> Option<Arc<LevelArtifact>> {
        match self.levels.get_mut(key) {
            Some(slot) => {
                self.clock += 1;
                slot.tick = self.clock;
                self.level_hits += 1;
                Some(Arc::clone(&slot.artifact))
            }
            None => {
                self.level_misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly solved level artifact, evicting LRU entries if the
    /// insert pushed the cache over its byte budget.
    pub fn insert_level(&mut self, key: LevelKey, artifact: LevelArtifact) {
        let bytes = key.approx_bytes() + std::mem::size_of::<LevelSlot>() + artifact.approx_bytes();
        self.clock += 1;
        let slot = LevelSlot {
            artifact: Arc::new(artifact),
            bytes,
            tick: self.clock,
        };
        if let Some(old) = self.levels.insert(key, slot) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_budget();
    }

    /// Looks up a placed skeleton, counting the hit or miss.
    #[must_use]
    pub fn skeleton(&mut self, key: &PlanKey) -> Option<Arc<PlacedSkeleton>> {
        match self.skeletons.get_mut(key) {
            Some(slot) => {
                self.clock += 1;
                slot.tick = self.clock;
                self.skeleton_hits += 1;
                Some(Arc::clone(&slot.skeleton))
            }
            None => {
                self.skeleton_misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly placed skeleton, evicting LRU entries if the insert
    /// pushed the cache over its byte budget.
    pub fn insert_skeleton(&mut self, key: PlanKey, skeleton: PlacedSkeleton) {
        let bytes =
            key.approx_bytes() + std::mem::size_of::<SkeletonSlot>() + skeleton.approx_bytes();
        self.clock += 1;
        let slot = SkeletonSlot {
            skeleton: Arc::new(skeleton),
            bytes,
            tick: self.clock,
        };
        if let Some(old) = self.skeletons.insert(key, slot) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_budget();
    }

    /// Drops every cached artifact (counters are kept).
    pub fn clear(&mut self) {
        self.levels.clear();
        self.skeletons.clear();
        self.bytes = 0;
    }

    /// Fills the structural cache's fields of a
    /// [`PlanningStats`] snapshot: entries, hits and misses, bytes and
    /// lifetime evictions.
    pub(crate) fn report(&self, stats: &mut PlanningStats) {
        stats.structural_cache = CacheTelemetry {
            bytes: self.bytes,
            evictions: self.evictions as u64,
        };
        stats.level_entries = self.levels.len();
        stats.level_hits = self.level_hits;
        stats.level_misses = self.level_misses;
        stats.skeleton_entries = self.skeletons.len();
        stats.skeleton_hits = self.skeleton_hits;
        stats.skeleton_misses = self.skeleton_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ContractedGraph;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    /// The cache's fields of a session snapshot.
    fn snapshot(cache: &StructuralPlanCache) -> PlanningStats {
        let mut stats = PlanningStats::default();
        cache.report(&mut stats);
        stats
    }

    fn contracted(batches: &[u32]) -> ContractedGraph {
        let mut b = GraphBuilder::new();
        for (i, &batch) in batches.iter().enumerate() {
            let t = b.add_task(format!("t{i}"), [Modality::Audio, Modality::Text], batch);
            let tower = b
                .add_op_chain(
                    t,
                    OpKind::Encoder(Modality::Audio),
                    TensorShape::new(batch, 229, 768),
                    4,
                )
                .unwrap();
            let loss = b
                .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(batch, 1, 768))
                .unwrap();
            b.add_flow(*tower.last().unwrap(), loss).unwrap();
        }
        ContractedGraph::new(&b.build().unwrap())
    }

    #[test]
    fn level_keys_are_task_independent_but_shape_sensitive() {
        let a = contracted(&[8, 16]);
        let b = contracted(&[8, 16]);
        let c = contracted(&[8, 32]);
        let key = |cg: &ContractedGraph, lvl: usize| {
            LevelKey::of(cg.metagraph(), &cg.metagraph().levels()[lvl], 8)
        };
        assert_eq!(key(&a, 0), key(&b, 0));
        assert_eq!(key(&a, 1), key(&b, 1));
        assert_ne!(key(&a, 0), key(&c, 0), "batch change must dirty the level");
        // Device budget is part of the key.
        let narrow = LevelKey::of(a.metagraph(), &a.metagraph().levels()[0], 4);
        assert_ne!(narrow, key(&a, 0));
    }

    #[test]
    fn plan_keys_track_wiring_and_strategy() {
        let a = contracted(&[8, 16]);
        let b = contracted(&[8, 16]);
        let c = contracted(&[8]);
        let key = |cg: &ContractedGraph, s: PlacementStrategy| PlanKey::of(cg.metagraph(), 8, s);
        assert_eq!(
            key(&a, PlacementStrategy::Locality),
            key(&b, PlacementStrategy::Locality)
        );
        assert_ne!(
            key(&a, PlacementStrategy::Locality),
            key(&c, PlacementStrategy::Locality)
        );
        assert_ne!(
            key(&a, PlacementStrategy::Locality),
            key(&a, PlacementStrategy::Sequential)
        );
    }

    #[test]
    fn capture_and_splice_roundtrip_bit_for_bit() {
        let cg = contracted(&[8, 16]);
        let mg = cg.metagraph();
        let level = &mg.levels()[0];
        // Two hand-built waves over the level's MetaOps.
        let entry = |slot: usize, layers, devices, t| {
            let mut e = WaveEntry::new(level.metaops[slot], layers, devices, t);
            e.memory_per_device = 1024 * (slot as u64 + 1);
            e
        };
        let waves = vec![
            Wave {
                index: 3,
                level: level.index,
                start: 1.25,
                duration: 0.5,
                entries: vec![entry(0, 2, 4, 0.25), entry(1, 1, 4, 0.5)],
            },
            Wave {
                index: 4,
                level: level.index,
                start: 1.75,
                duration: 0.75,
                entries: vec![entry(0, 2, 8, 0.375)],
            },
        ];
        let artifact = LevelArtifact::capture(level, 2.5, &waves);
        assert_eq!(artifact.num_waves(), 2);
        assert_eq!(artifact.optimal_time(), 2.5);
        let mut out = Vec::new();
        let end = artifact.splice(level, 1.25, 3, &mut out);
        assert_eq!(out, waves);
        assert_eq!(end, waves.last().unwrap().end());
        // Rebasing onto a different offset shifts starts, nothing else.
        let mut shifted = Vec::new();
        let end2 = artifact.splice(level, 0.0, 0, &mut shifted);
        assert_eq!(shifted[0].start, 0.0);
        assert_eq!(shifted[1].index, 1);
        assert_eq!(end2, 1.25);
        assert_eq!(shifted[0].entries, waves[0].entries);
    }

    #[test]
    fn cache_counts_hits_misses_and_clears_on_epsilon_change() {
        let cg = contracted(&[8]);
        let mg = cg.metagraph();
        let mut cache = StructuralPlanCache::new();
        cache.ensure_epsilon(1e-7);
        let key = LevelKey::of(mg, &mg.levels()[0], 8);
        assert!(cache.level(&key).is_none());
        cache.insert_level(
            key.clone(),
            LevelArtifact {
                optimal_time: 1.0,
                waves: Vec::new(),
            },
        );
        assert!(cache.level(&key).is_some());
        let plan_key = PlanKey::of(mg, 8, PlacementStrategy::Locality);
        assert!(cache.skeleton(&plan_key).is_none());
        cache.insert_skeleton(
            plan_key.clone(),
            PlacedSkeleton {
                waves: Vec::new(),
                theoretical_optimum: 1.0,
            },
        );
        assert!(cache.skeleton(&plan_key).is_some());
        let stats = snapshot(&cache);
        assert_eq!(stats.level_entries, 1);
        assert_eq!(stats.skeleton_entries, 1);
        assert_eq!(stats.level_hits, 1);
        assert_eq!(stats.level_misses, 1);
        assert_eq!(stats.skeleton_hits, 1);
        assert_eq!(stats.skeleton_misses, 1);
        // Same epsilon: nothing dropped. New epsilon: artifacts invalidated.
        cache.ensure_epsilon(1e-7);
        assert_eq!(snapshot(&cache).level_entries, 1);
        cache.ensure_epsilon(1e-9);
        let stats = snapshot(&cache);
        assert_eq!(stats.level_entries, 0);
        assert_eq!(stats.skeleton_entries, 0);
        assert!(format!("{cache:?}").contains("StructuralPlanCache"));
    }

    #[test]
    fn byte_budget_is_a_hard_bound_and_evicts_lru_first() {
        let cg = contracted(&[8]);
        let mg = cg.metagraph();
        let level = &mg.levels()[0];
        let mut cache = StructuralPlanCache::new();
        assert_eq!(cache.budget(), usize::MAX, "unbounded by default");
        let key_for = |devices: u32| LevelKey::of(mg, level, devices);
        let artifact = || LevelArtifact {
            optimal_time: 1.0,
            waves: vec![CachedWave {
                duration: 1.0,
                entries: vec![
                    CachedEntry {
                        slot: 0,
                        layers: 1,
                        devices: 1,
                        time_per_op: 1.0,
                        exec_time: 1.0,
                        memory_per_device: 0,
                    };
                    4
                ],
            }],
        };
        let per_entry = key_for(1).approx_bytes()
            + std::mem::size_of::<LevelSlot>()
            + artifact().approx_bytes();
        // Room for exactly two level artifacts.
        cache.ensure_budget(2 * per_entry);
        cache.insert_level(key_for(1), artifact());
        cache.insert_level(key_for(2), artifact());
        assert_eq!(snapshot(&cache).structural_cache.evictions, 0);
        assert_eq!(cache.bytes, 2 * per_entry);
        // Touch key 1 so key 2 becomes the LRU victim of the next insert.
        assert!(cache.level(&key_for(1)).is_some());
        cache.insert_level(key_for(3), artifact());
        let stats = snapshot(&cache);
        assert_eq!(stats.structural_cache.evictions, 1);
        assert_eq!(stats.level_entries, 2);
        assert!(
            stats.structural_cache.bytes <= cache.budget(),
            "hard byte bound"
        );
        assert!(cache.level(&key_for(1)).is_some(), "recently used survives");
        assert!(cache.level(&key_for(2)).is_none(), "LRU entry was evicted");
        assert!(cache.level(&key_for(3)).is_some());
        // Skeletons share the same budget pool; a large skeleton pushes out
        // the remaining levels, and shrinking the budget evicts immediately.
        let plan_key = PlanKey::of(mg, 8, PlacementStrategy::Locality);
        cache.insert_skeleton(
            plan_key.clone(),
            PlacedSkeleton {
                waves: Vec::new(),
                theoretical_optimum: 1.0,
            },
        );
        assert!(cache.bytes <= cache.budget());
        cache.ensure_budget(1);
        let stats = snapshot(&cache);
        assert_eq!(stats.level_entries + stats.skeleton_entries, 0);
        assert_eq!(stats.structural_cache.bytes, 0);
        assert!(stats.structural_cache.evictions >= 3);
    }
}
