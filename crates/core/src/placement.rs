//! Device placement (§3.5): mapping wave entries onto concrete devices.
//!
//! Three guidelines steer placement:
//!
//! 1. **Intra-device-island placement** — keep each entry (and the data flows
//!    it participates in) inside one NVLink island whenever possible.
//! 2. **Prioritising high communication workloads** — entries moving the most
//!    data get first pick of the best-connected devices.
//! 3. **Device memory balance** — entries prefer devices with the most free
//!    memory, and an entry that would overflow a device falls back to a
//!    memory-first assignment (the paper's "alternative placements with
//!    sub-optimal communication costs and better memory balance").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spindle_cluster::{ClusterSpec, DeviceGroup, DeviceId, Island};

use crate::{ExecutionPlan, MetaOpId, PlanError, Wave};

/// The device-placement strategy applied to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementStrategy {
    /// The locality-, communication- and memory-aware strategy of §3.5.
    #[default]
    Locality,
    /// Consecutive devices from device 0 for each entry, ignoring locality —
    /// the ablation baseline of Fig. 10 ("Spindle w/o DP", i.e. without the
    /// device-placement mechanism).
    Sequential,
}

impl PlacementStrategy {
    /// The strategy itself, so callers written against the former
    /// trait-object API (`strategy.policy().place(..)`) keep compiling.
    #[must_use]
    pub fn policy(self) -> Self {
        self
    }

    /// Assigns concrete devices to every wave entry of `plan`, keeping the
    /// entries of each wave on disjoint devices.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::CapacityExceeded`] if some wave requests more
    /// devices than the cluster provides.
    pub fn place(self, plan: &mut ExecutionPlan, cluster: &ClusterSpec) -> Result<(), PlanError> {
        self.place_from(plan, cluster, 0)
    }

    /// Places `plan.waves()[first_wave..]`. The waves before `first_wave`
    /// keep the placements they carry (a clean prefix kept after device
    /// loss, possibly placed on a larger cluster), and the locality pass
    /// resumes from the state those placements leave.
    pub(crate) fn place_from(
        self,
        plan: &mut ExecutionPlan,
        cluster: &ClusterSpec,
        first_wave: usize,
    ) -> Result<(), PlanError> {
        check_capacity(plan, cluster)?;
        match self {
            PlacementStrategy::Locality => place_locality_resume(plan, cluster, first_wave),
            PlacementStrategy::Sequential => place_sequential(&mut plan.waves_mut()[first_wave..]),
        }
        Ok(())
    }
}

/// Shared precondition of every strategy: no wave may request more devices
/// than the cluster provides.
fn check_capacity(plan: &ExecutionPlan, cluster: &ClusterSpec) -> Result<(), PlanError> {
    let total_devices = cluster.num_devices() as u32;
    for wave in plan.waves() {
        if wave.devices_used() > total_devices {
            return Err(PlanError::CapacityExceeded {
                wave: wave.index,
                requested: wave.devices_used(),
                available: total_devices,
            });
        }
    }
    Ok(())
}

/// Naïve consecutive-device placement.
fn place_sequential(waves: &mut [Wave]) {
    for wave in waves {
        let mut next = 0u32;
        for entry in &mut wave.entries {
            entry.placement = Some(DeviceGroup::contiguous(
                DeviceId(next),
                entry.devices as usize,
            ));
            next += entry.devices;
        }
    }
}

/// Island index recorded for device ids that are not part of the cluster.
const NO_ISLAND: usize = usize::MAX;

/// Fills [`LocalityPass::chosen`] with the devices of one entry, given how
/// many it needs; the entry's affinities are already marked.
type Chooser = fn(&mut LocalityPass, usize);

/// Ranking key of an island for one entry (larger ranks first): islands
/// with enough free devices, then high affinity, then plenty of free memory,
/// then the lower island index.
type IslandKey = (bool, i64, u64, Reverse<usize>);

/// Affinity of every device, and of every island, for the entry being placed.
struct Affinity {
    /// Island index of each device id (`NO_ISLAND` for ids outside the
    /// cluster).
    island_of: Vec<usize>,
    device: Vec<i64>,
    /// Sum of `device` over each island's devices, occupied ones included:
    /// being on the same island as a producer is what makes the data flow
    /// cheap, regardless of which sibling occupies the device.
    island: Vec<i64>,
}

impl Affinity {
    /// The island of `d`, if `d` is part of the cluster.
    fn island_index(&self, d: DeviceId) -> Option<usize> {
        self.island_of
            .get(d.index())
            .copied()
            .filter(|&k| k != NO_ISLAND)
    }

    /// Adds `weight` to every device of `group` that is part of the cluster
    /// and to its island. Devices a replayed placement kept after they left
    /// the cluster attract nothing.
    fn mark(&mut self, group: Option<&DeviceGroup>, weight: i64) {
        for d in group.into_iter().flat_map(DeviceGroup::iter) {
            if let Some(k) = self.island_index(d) {
                self.device[d.index()] += weight;
                self.island[k] += weight;
            }
        }
    }
}

/// The locality pass (§3.5). Its cross-wave state — per-device memory load,
/// MetaOp-on-device residency and each MetaOp's last placement — is a
/// function of the placements made so far, so a pass can resume at any wave
/// by replaying the placements of the waves before it.
///
/// All working state is dense and reused across waves: device sets are
/// `Vec`-indexed by `DeviceId` (sized by [`ClusterSpec::device_space`], so a
/// post-churn cluster with holes in its numbering indexes safely), per-MetaOp
/// state by `MetaOpId`, per-island totals by island index, and the MetaGraph
/// adjacency is extracted once up front instead of being re-scanned (and
/// re-allocated) per entry.
struct LocalityPass {
    islands: Vec<Island>,
    all_devices: Vec<DeviceId>,
    capacity: u64,
    /// Devices available for allocation (the surviving count).
    num_devices: usize,
    /// Dense id-space size (one past the highest device id).
    space: usize,
    preds: Vec<Vec<MetaOpId>>,
    succs: Vec<Vec<MetaOpId>>,
    volume: Vec<u64>,
    // Cross-wave state.
    memory_used: Vec<u64>,
    resident: Vec<bool>,
    /// `(wave, entry)` index of each MetaOp's last placed entry.
    last: Vec<Option<(usize, usize)>>,
    // Per-wave scratch.
    free: Vec<bool>,
    /// Free devices of each island, and the sum of their free memory: set
    /// once per wave, reduced as entries take devices.
    island_free: Vec<usize>,
    island_free_mem: Vec<u64>,
    affinity: Affinity,
    /// Ranking keys of the islands with free devices, for one entry.
    ranked: Vec<IslandKey>,
    order: Vec<usize>,
    candidates: Vec<DeviceId>,
    chosen: Vec<DeviceId>,
    /// Entries placed by the memory-balance fallback.
    #[cfg(test)]
    fallbacks: usize,
}

impl LocalityPass {
    fn new(plan: &ExecutionPlan, cluster: &ClusterSpec) -> Self {
        let num_metaops = plan.metagraph().num_metaops();
        let space = cluster.device_space();

        // Dense adjacency and communication volume of each MetaOp: bytes it
        // receives plus bytes it sends along MetaGraph edges (guideline 2).
        let mut preds: Vec<Vec<MetaOpId>> = vec![Vec::new(); num_metaops];
        let mut succs: Vec<Vec<MetaOpId>> = vec![Vec::new(); num_metaops];
        for &(a, b) in plan.metagraph().edges() {
            preds[b.index()].push(a);
            succs[a.index()].push(b);
        }
        let mut volume: Vec<u64> = vec![0; num_metaops];
        for metaop in plan.metagraph().metaops() {
            let i = metaop.id().index();
            let incoming: u64 = preds[i]
                .iter()
                .map(|&p| plan.metagraph().metaop(p).representative().output_bytes())
                .sum();
            let outgoing = metaop.representative().output_bytes() * succs[i].len() as u64;
            volume[i] = incoming + outgoing;
        }

        let islands = cluster.islands();
        let mut island_of = vec![NO_ISLAND; space];
        for (k, island) in islands.iter().enumerate() {
            for d in island.devices.iter() {
                island_of[d.index()] = k;
            }
        }
        let num_islands = islands.len();
        Self {
            islands,
            all_devices: cluster.all_devices().iter().collect(),
            capacity: cluster.device_memory_bytes(),
            num_devices: cluster.num_devices(),
            space,
            preds,
            succs,
            volume,
            memory_used: vec![0; space],
            resident: vec![false; num_metaops * space],
            last: vec![None; num_metaops],
            free: vec![false; space],
            island_free: vec![0; num_islands],
            island_free_mem: vec![0; num_islands],
            affinity: Affinity {
                island_of,
                device: vec![0; space],
                island: vec![0; num_islands],
            },
            ranked: Vec::with_capacity(num_islands),
            order: Vec::new(),
            candidates: Vec::new(),
            chosen: Vec::new(),
            #[cfg(test)]
            fallbacks: 0,
        }
    }

    /// Rebuilds the cross-wave state from `waves[..first_wave]` as they are
    /// already placed, then places `waves[first_wave..]`.
    fn place_from(&mut self, waves: &mut [Wave], first_wave: usize, choose: Chooser) {
        self.replay(&waves[..first_wave]);
        for w in first_wave..waves.len() {
            self.place_wave(waves, w, choose);
        }
    }

    /// Replays placements made earlier — possibly by a pass on a larger
    /// cluster. State on devices outside this pass's cluster is dropped:
    /// exactly the state whose loss forces a migration.
    fn replay(&mut self, waves: &[Wave]) {
        for (w, wave) in waves.iter().enumerate() {
            for (e, entry) in wave.entries.iter().enumerate() {
                let Some(group) = &entry.placement else {
                    continue;
                };
                for d in group.iter() {
                    if self.affinity.island_index(d).is_some() {
                        self.occupy(entry.metaop, d, entry.memory_per_device);
                    }
                }
                self.last[entry.metaop.index()] = Some((w, e));
            }
        }
    }

    /// Makes `metaop` resident on `d`, charging its per-device bytes the first
    /// time.
    fn occupy(&mut self, metaop: MetaOpId, d: DeviceId, bytes: u64) {
        let slot = metaop.index() * self.space + d.index();
        if !self.resident[slot] {
            self.resident[slot] = true;
            self.memory_used[d.index()] = self.memory_used[d.index()].saturating_add(bytes);
        }
    }

    /// Marks the affinity of every device and island for an entry of
    /// `metaop`: toward its own last placement, its predecessors' and its
    /// siblings' (MetaOps feeding the same successor, so the successor's
    /// inputs end up on one island).
    fn mark_affinities(&mut self, waves: &[Wave], metaop: MetaOpId) {
        let Self {
            affinity,
            last,
            preds,
            succs,
            ..
        } = self;
        let last_group =
            |m: MetaOpId| last[m.index()].and_then(|(w, e)| waves[w].entries[e].placement.as_ref());
        affinity.device.fill(0);
        affinity.island.fill(0);
        affinity.mark(last_group(metaop), 4);
        for &pred in &preds[metaop.index()] {
            affinity.mark(last_group(pred), 2);
        }
        for &succ in &succs[metaop.index()] {
            for &sibling in &preds[succ.index()] {
                if sibling != metaop {
                    affinity.mark(last_group(sibling), 1);
                }
            }
        }
    }

    /// Places every entry of `waves[w]`, advancing the cross-wave state.
    fn place_wave(&mut self, waves: &mut [Wave], w: usize, choose: Chooser) {
        self.free.fill(false);
        self.island_free.fill(0);
        self.island_free_mem.fill(0);
        for &d in &self.all_devices {
            self.free[d.index()] = true;
            let k = self.affinity.island_of[d.index()];
            self.island_free[k] += 1;
            self.island_free_mem[k] += self.capacity.saturating_sub(self.memory_used[d.index()]);
        }
        // Guideline 2: place the most communication-intensive entries first.
        let entries = &waves[w].entries;
        self.order.clear();
        self.order.extend(0..entries.len());
        let volume = &self.volume;
        self.order
            .sort_by_key(|&i| Reverse(volume[entries[i].metaop.index()]));

        for oi in 0..self.order.len() {
            let idx = self.order[oi];
            let entry = &waves[w].entries[idx];
            let (metaop, per_device) = (entry.metaop, entry.memory_per_device);
            let needed = (entry.devices as usize).min(self.num_devices);
            self.mark_affinities(waves, metaop);

            self.chosen.clear();
            choose(self, needed);

            // Memory-balance fallback: if any chosen device would exceed its
            // capacity, redo the choice ordering devices purely by free memory.
            let would_overflow = self
                .chosen
                .iter()
                .any(|d| self.memory_used[d.index()] + per_device > self.capacity);
            if would_overflow {
                #[cfg(test)]
                {
                    self.fallbacks += 1;
                }
                self.candidates.clear();
                self.candidates
                    .extend(self.all_devices.iter().filter(|d| self.free[d.index()]));
                let memory_used = &self.memory_used;
                self.candidates
                    .sort_by_key(|d| (memory_used[d.index()], d.0));
                self.chosen.clear();
                let take = needed.min(self.candidates.len());
                self.chosen.extend(self.candidates.iter().take(take));
            }

            for i in 0..self.chosen.len() {
                let d = self.chosen[i];
                self.free[d.index()] = false;
                let k = self.affinity.island_of[d.index()];
                self.island_free[k] -= 1;
                self.island_free_mem[k] -=
                    self.capacity.saturating_sub(self.memory_used[d.index()]);
                self.occupy(metaop, d, per_device);
            }
            waves[w].entries[idx].placement = Some(DeviceGroup::from_distinct(self.chosen.clone()));
            self.last[metaop.index()] = Some((w, idx));
        }
    }

    /// Ranking key of island `k` for an entry needing `needed` devices, from
    /// the running totals.
    fn island_key(&self, k: usize, needed: usize) -> IslandKey {
        (
            self.island_free[k] >= needed,
            self.affinity.island[k],
            self.island_free_mem[k],
            Reverse(k),
        )
    }

    /// Guideline 1: takes islands best-first by [`island_key`](Self::island_key)
    /// until the entry has `needed` devices — the order a stable sort of
    /// every island visits them in. Islands without free devices would add
    /// nothing and are left out. The ranked islands form a heap, so an entry
    /// that fits on the best island orders nothing beyond it.
    fn choose_islands(&mut self, needed: usize) {
        self.ranked.clear();
        for k in 0..self.islands.len() {
            if self.island_free[k] > 0 {
                self.ranked.push(self.island_key(k, needed));
            }
        }
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.ranked));
        while self.chosen.len() < needed {
            let Some((.., Reverse(k))) = heap.pop() else {
                break;
            };
            self.take_from_island(k, needed);
        }
        self.ranked = heap.into_vec();
    }

    /// Appends island `k`'s free devices to `chosen`, most affine first, then
    /// least loaded (guideline 3 tie-break), until the entry has `needed`.
    fn take_from_island(&mut self, k: usize, needed: usize) {
        self.candidates.clear();
        self.candidates.extend(
            self.islands[k]
                .devices
                .iter()
                .filter(|d| self.free[d.index()]),
        );
        let (affinity, memory_used) = (&self.affinity.device, &self.memory_used);
        self.candidates
            .sort_by_key(|d| (Reverse(affinity[d.index()]), memory_used[d.index()], d.0));
        let take = needed
            .saturating_sub(self.chosen.len())
            .min(self.candidates.len());
        self.chosen.extend_from_slice(&self.candidates[..take]);
    }
}

/// Locality-, communication- and memory-aware placement of
/// `plan.waves_mut()[first_wave..]` onto `cluster`. The waves before
/// `first_wave` keep the placements they carry — a clean prefix kept after
/// device loss, possibly placed on a larger cluster — and the pass resumes
/// from the state those placements leave. With `first_wave == 0` this is a
/// full pass.
fn place_locality_resume(plan: &mut ExecutionPlan, cluster: &ClusterSpec, first_wave: usize) {
    let mut pass = LocalityPass::new(plan, cluster);
    pass.place_from(plan.waves_mut(), first_wave, LocalityPass::choose_islands);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetaGraph, Wave, WaveEntry};
    use spindle_cluster::{GpuSpec, InterconnectSpec};
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape, XorShift64Star};
    use std::time::Duration;

    /// Builds a plan with two encoder MetaOps feeding an LM MetaOp, scheduled
    /// in two waves (encoders, then LM).
    fn unplaced_plan() -> (ExecutionPlan, ClusterSpec) {
        let mut b = GraphBuilder::new();
        let t = b.add_task("al", [Modality::Audio, Modality::Text], 8);
        let audio = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                4,
            )
            .unwrap();
        let text = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                4,
            )
            .unwrap();
        let lm = b
            .add_op_chain(t, OpKind::LmEncoder, TensorShape::new(8, 512, 1024), 4)
            .unwrap();
        b.add_flow(*audio.last().unwrap(), lm[0]).unwrap();
        b.add_flow(*text.last().unwrap(), lm[0]).unwrap();
        let graph = b.build().unwrap();
        let mg = MetaGraph::contract(&graph);
        assert_eq!(mg.num_metaops(), 3);
        let audio_id = mg.metaop_of(audio[0]).unwrap();
        let text_id = mg.metaop_of(text[0]).unwrap();
        let lm_id = mg.metaop_of(lm[0]).unwrap();

        let mut e0 = WaveEntry::new(audio_id, 4, 4, 1.0);
        e0.memory_per_device = 1 << 30;
        let mut e1 = WaveEntry::new(text_id, 4, 4, 0.9);
        e1.memory_per_device = 1 << 30;
        let mut e2 = WaveEntry::new(lm_id, 4, 8, 0.7);
        e2.memory_per_device = 2 << 30;
        let waves = vec![
            Wave {
                index: 0,
                level: 0,
                start: 0.0,
                duration: 4.0,
                entries: vec![e0, e1],
            },
            Wave {
                index: 1,
                level: 1,
                start: 4.0,
                duration: 2.8,
                entries: vec![e2],
            },
        ];
        let plan = ExecutionPlan::new(waves, mg, 16, 6.0, Duration::ZERO);
        (plan, ClusterSpec::homogeneous(2, 8))
    }

    #[test]
    fn sequential_placement_is_consecutive() {
        let (mut plan, cluster) = unplaced_plan();
        PlacementStrategy::Sequential
            .place(&mut plan, &cluster)
            .unwrap();
        plan.require_placement().unwrap();
        plan.validate().unwrap();
        let first = plan.waves()[0].entries[0].placement.as_ref().unwrap();
        assert_eq!(first.devices()[0], DeviceId(0));
        let second = plan.waves()[0].entries[1].placement.as_ref().unwrap();
        assert_eq!(second.devices()[0], DeviceId(4));
    }

    #[test]
    fn locality_placement_is_valid_and_disjoint_per_wave() {
        let (mut plan, cluster) = unplaced_plan();
        PlacementStrategy::Locality
            .place(&mut plan, &cluster)
            .unwrap();
        plan.require_placement().unwrap();
        plan.validate().unwrap();
    }

    #[test]
    fn locality_prefers_single_island_groups() {
        let (mut plan, cluster) = unplaced_plan();
        PlacementStrategy::Locality
            .place(&mut plan, &cluster)
            .unwrap();
        // 4-device entries fit inside one 8-GPU island and must stay there.
        for entry in &plan.waves()[0].entries {
            let group = entry.placement.as_ref().unwrap();
            assert!(
                cluster.is_intra_island(group).unwrap(),
                "group {group} spans islands"
            );
        }
    }

    #[test]
    fn capacity_violation_rejected() {
        let (plan, _) = unplaced_plan();
        let small_cluster = ClusterSpec::homogeneous(1, 4);
        let mut plan = plan;
        let err = PlacementStrategy::Locality
            .place(&mut plan, &small_cluster)
            .unwrap_err();
        assert!(matches!(err, PlanError::CapacityExceeded { .. }));
    }

    #[test]
    fn successor_lands_near_predecessors() {
        let (mut plan, cluster) = unplaced_plan();
        PlacementStrategy::Locality
            .place(&mut plan, &cluster)
            .unwrap();
        // The LM entry (8 devices) must reuse every device its two 4-device
        // predecessors used, because affinity pulls it there.
        let wave0 = &plan.waves()[0];
        let wave1 = &plan.waves()[1];
        let mut pred_devices: Vec<DeviceId> = wave0
            .entries
            .iter()
            .flat_map(|e| e.placement.as_ref().unwrap().iter())
            .collect();
        pred_devices.sort_unstable();
        let mut lm_devices: Vec<DeviceId> = wave1.entries[0]
            .placement
            .as_ref()
            .unwrap()
            .iter()
            .collect();
        lm_devices.sort_unstable();
        assert_eq!(pred_devices, lm_devices);
    }

    #[test]
    fn a_strategy_is_its_own_policy() {
        for strategy in [PlacementStrategy::Locality, PlacementStrategy::Sequential] {
            assert_eq!(strategy.policy(), strategy);
            let (mut plan, cluster) = unplaced_plan();
            strategy.policy().place(&mut plan, &cluster).unwrap();
            plan.require_placement().unwrap();
        }
    }

    impl LocalityPass {
        /// The island ranking [`LocalityPass::choose_islands`] replaced: every
        /// entry sorts every island by a key walked from its devices, then
        /// takes islands in that order.
        fn choose_islands_reference(&mut self, needed: usize) {
            let mut order: Vec<usize> = (0..self.islands.len()).collect();
            order.sort_by_cached_key(|&k| {
                let mut free_count = 0usize;
                let mut free_mem = 0u64;
                let mut aff = 0i64;
                for d in self.islands[k].devices.iter() {
                    aff += self.affinity.device[d.index()];
                    if self.free[d.index()] {
                        free_count += 1;
                        free_mem += self.capacity.saturating_sub(self.memory_used[d.index()]);
                    }
                }
                (
                    Reverse(free_count >= needed),
                    Reverse(aff),
                    Reverse(free_mem),
                )
            });
            for k in order {
                if self.chosen.len() >= needed {
                    break;
                }
                self.take_from_island(k, needed);
            }
        }
    }

    /// Asserts that the production pass of `plan` on `cluster`, resumed at
    /// `first_wave`, places exactly like a pass with the reference island
    /// ranking; returns the placed plan and how many entries took the
    /// memory-balance fallback.
    fn assert_matches_reference(
        plan: &ExecutionPlan,
        cluster: &ClusterSpec,
        first_wave: usize,
    ) -> (ExecutionPlan, usize) {
        let mut placed = plan.clone();
        place_locality_resume(&mut placed, cluster, first_wave);
        let mut reference = plan.clone();
        let mut pass = LocalityPass::new(&reference, cluster);
        pass.place_from(
            reference.waves_mut(),
            first_wave,
            LocalityPass::choose_islands_reference,
        );
        assert_eq!(placed.waves(), reference.waves(), "placements differ");
        (placed, pass.fallbacks)
    }

    /// A cold plan of the hyperscale roster's first `tasks` slots minus one
    /// seeded slot, on `cluster`.
    fn hyperscale_plan(
        tasks: usize,
        rng: &mut XorShift64Star,
        cluster: &ClusterSpec,
    ) -> ExecutionPlan {
        let dropped = (rng.next_u64() % tasks as u64) as usize;
        let slots: Vec<usize> = (0..tasks).filter(|&s| s != dropped).collect();
        let graph = spindle_workloads::hyperscale_subset(&slots).unwrap();
        crate::SpindleSession::new(cluster.clone())
            .plan(&graph)
            .unwrap()
    }

    /// The first wave of every level of `plan`: where a resumed pass can
    /// start.
    fn level_starts(plan: &ExecutionPlan) -> Vec<usize> {
        let waves = plan.waves();
        (0..waves.len())
            .filter(|&i| i == 0 || waves[i - 1].level != waves[i].level)
            .collect()
    }

    /// Twelve seeded device ids of `cluster`, plus every device of one
    /// seeded island when `empty_island`.
    fn seeded_removals(
        cluster: &ClusterSpec,
        rng: &mut XorShift64Star,
        empty_island: bool,
    ) -> Vec<DeviceId> {
        let gpus = cluster.num_devices() as u64;
        let mut removed: Vec<DeviceId> = (0..12)
            .map(|_| DeviceId((rng.next_u64() % gpus) as u32))
            .collect();
        if empty_island {
            let islands = cluster.islands();
            let island = &islands[(rng.next_u64() % islands.len() as u64) as usize];
            removed.extend(island.devices.iter());
        }
        removed
    }

    /// `islands` islands of eight devices, each with twice the memory of the
    /// largest entry of `plan`: resident slices pile up until some locality
    /// choices would overflow and fall back.
    fn small_memory_cluster(islands: usize, plan: &ExecutionPlan) -> ClusterSpec {
        let largest = plan
            .waves()
            .iter()
            .flat_map(|w| &w.entries)
            .map(|e| e.memory_per_device)
            .max()
            .unwrap();
        ClusterSpec::with_specs(
            islands,
            8,
            GpuSpec {
                memory_bytes: 2 * largest,
                ..GpuSpec::a800_80gb()
            },
            InterconnectSpec::nvlink_plus_infiniband_400g(),
        )
    }

    /// Plans placed on a full cluster and then resumed on a churned copy at
    /// every level boundary, digested and pinned: 48 tasks on 256 GPUs and
    /// 63 on 512, each with seeded removals, with one island emptied, and on
    /// devices small enough to force the memory-balance fallback. The
    /// digests were recorded by resuming from the per-level placement
    /// checkpoints the pass used to take; each resume also matches the
    /// reference island ranking.
    #[test]
    fn resumed_placements_match_the_recorded_digests() {
        let mut rng = XorShift64Star::new(0x5EED_0004);
        let mut digests = Vec::new();
        for (tasks, islands) in [(49, 32), (64, 64)] {
            for case in 0..3 {
                let mut full = ClusterSpec::homogeneous(islands, 8);
                let removed = seeded_removals(&full, &mut rng, case == 1);
                let plan =
                    hyperscale_plan(tasks, &mut rng, &full.without_devices(&removed).unwrap());
                if case == 2 {
                    full = small_memory_cluster(islands, &plan);
                }
                let churned = full.without_devices(&removed).unwrap();
                let mut before_loss = plan.clone();
                place_locality_resume(&mut before_loss, &full, 0);
                let mut fallbacks = 0;
                for first_wave in level_starts(&plan) {
                    let (resumed, n) = assert_matches_reference(&before_loss, &churned, first_wave);
                    digests.push(resumed.fingerprint());
                    fallbacks += n;
                }
                assert_eq!(case == 2, fallbacks > 0, "{tasks} tasks, case {case}");
            }
        }
        assert_eq!(
            digests,
            [
                0x3630_6f41_a5b1_9059,
                0xb608_2100_7130_4aee,
                0x506b_805e_e89c_90dc,
                0x5a58_d6dc_d6af_1668,
                0xff6c_1946_068c_b8f1,
                0x96b6_ddf6_5bd3_860e,
                0x4338_b31c_15eb_dd17,
                0xfd4f_d229_4fb3_b962,
                0x6954_ae09_7d10_4c71,
                0x40b6_3919_a49b_812c,
                0xedd4_2a9d_c00f_66e3,
                0x177f_0b3c_5252_327e,
                0x169e_040b_62e3_f93d,
                0xe490_8eda_1789_397f,
                0x8f3d_6015_daa7_d3d0,
                0xd5e2_5394_43d9_d139,
                0x1b37_1a2d_fab4_68ff,
                0x0aeb_cfee_acf7_5aab,
                0xe2cb_3af9_2a3f_983c,
                0x97af_f367_5c4f_e25d,
                0x5ac9_f4cc_d9cf_abbd,
                0x7555_ec5d_00f3_9b8c,
                0x2f51_6858_0010_8a76,
                0x3d54_b315_183a_f246,
            ],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn best_first_islands_match_the_full_ranking_on_hyperscale_mixes() {
        let mut rng = XorShift64Star::new(0x5EED_0001);
        for (tasks, gpus) in [(48, 256), (48, 256), (64, 512), (64, 512)] {
            let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
            let plan = hyperscale_plan(tasks, &mut rng, &cluster);
            assert_matches_reference(&plan, &cluster, 0);
        }
    }

    #[test]
    fn best_first_islands_match_the_full_ranking_on_churned_clusters() {
        let mut rng = XorShift64Star::new(0x5EED_0002);
        let full = ClusterSpec::homogeneous(32, 8);
        for draw in 0..3 {
            // Knock out a seeded set of devices, emptying one island outright
            // on the last draw.
            let removed = seeded_removals(&full, &mut rng, draw == 2);
            let churned = full.without_devices(&removed).unwrap();
            assert!(
                churned.device_space() > churned.num_devices(),
                "no id holes"
            );
            let plan = hyperscale_plan(48, &mut rng, &churned);
            assert_matches_reference(&plan, &churned, 0);

            // Resume on the survivors after the placements of a pass on the
            // full cluster, as a re-plan after device loss does: the replay
            // drops the state of the removed devices.
            let mut before_loss = plan.clone();
            place_locality_resume(&mut before_loss, &full, 0);
            for &first_wave in &level_starts(&plan)[1..] {
                assert_matches_reference(&before_loss, &churned, first_wave);
            }
        }
    }

    #[test]
    fn best_first_islands_match_the_full_ranking_through_the_memory_fallback() {
        let mut rng = XorShift64Star::new(0x5EED_0003);
        let cluster = ClusterSpec::homogeneous(32, 8);
        let plan = hyperscale_plan(48, &mut rng, &cluster);
        let small = small_memory_cluster(32, &plan);
        let (_, fallbacks) = assert_matches_reference(&plan, &small, 0);
        assert!(fallbacks > 0, "no entry took the memory-balance fallback");
    }
}
