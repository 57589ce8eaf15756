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
        check_capacity(plan, cluster)?;
        match self {
            PlacementStrategy::Locality => place_locality(plan, cluster),
            PlacementStrategy::Sequential => place_sequential(plan),
        }
        Ok(())
    }
}

/// Shared precondition of every strategy: no wave may request more devices
/// than the cluster provides.
pub(crate) fn check_capacity(plan: &ExecutionPlan, cluster: &ClusterSpec) -> Result<(), PlanError> {
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
pub(crate) fn place_sequential(plan: &mut ExecutionPlan) {
    for wave in plan.waves_mut() {
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

/// Snapshot of the locality pass's cross-wave state at a level boundary:
/// per-device memory load, MetaOp-on-device residency, and each MetaOp's last
/// device group. Stored per level alongside cached plan skeletons so that a
/// topology change can keep the placements of a clean prefix of levels and
/// resume the pass — restricted to the surviving device set — from the first
/// dirty level instead of re-placing the whole plan
/// (see [`SpindleSession::replan`](crate::SpindleSession::replan)).
///
/// The snapshot is sparse (device-id keyed, not dense-indexed), so it can be
/// restored onto a cluster whose device numbering gained holes after
/// [`ClusterSpec::without_devices`]. State attached to devices that no longer
/// exist is dropped on restore — exactly the state whose loss forces a
/// migration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementCheckpoint {
    /// Bytes resident per device; only loaded devices are listed.
    memory_used: Vec<(DeviceId, u64)>,
    /// `(metaop index, device)` residency pairs.
    resident: Vec<(u32, DeviceId)>,
    /// Last device group of each placed MetaOp, by metaop index.
    last_placement: Vec<(u32, DeviceGroup)>,
}

impl PlacementCheckpoint {
    /// Approximate heap footprint, for cache byte accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.memory_used.len() * std::mem::size_of::<(DeviceId, u64)>()
            + self.resident.len() * std::mem::size_of::<(u32, DeviceId)>()
            + self
                .last_placement
                .iter()
                .map(|(_, g)| {
                    std::mem::size_of::<(u32, DeviceGroup)>()
                        + g.len() * std::mem::size_of::<DeviceId>()
                })
                .sum::<usize>()
    }
}

/// Island index recorded for device ids that are not part of the cluster.
const NO_ISLAND: usize = usize::MAX;

/// Fills [`LocalityPass::chosen`] with the devices of one entry, given how
/// many it needs; the entry's affinities are already marked.
type Chooser = fn(&mut LocalityPass, usize);

/// Ranking key of an island for one entry (smaller ranks first): islands
/// with enough free devices, then high affinity, then plenty of free memory.
type IslandKey = (Reverse<bool>, Reverse<i64>, Reverse<u64>);

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
    fn clear(&mut self) {
        self.device.fill(0);
        self.island.fill(0);
    }

    fn mark(&mut self, group: Option<&DeviceGroup>, weight: i64) {
        for d in group.into_iter().flat_map(DeviceGroup::iter) {
            self.device[d.index()] += weight;
            if let Some(island) = self.island.get_mut(self.island_of[d.index()]) {
                *island += weight;
            }
        }
    }
}

/// The locality pass (§3.5) with its cross-wave state made explicit, so the
/// state can be checkpointed at level boundaries and restored later.
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
    num_metaops: usize,
    preds: Vec<Vec<MetaOpId>>,
    succs: Vec<Vec<MetaOpId>>,
    volume: Vec<u64>,
    // Cross-wave state — what checkpoints capture.
    memory_used: Vec<u64>,
    resident: Vec<bool>,
    last_placement: Vec<Option<DeviceGroup>>,
    // Per-wave scratch.
    free: Vec<bool>,
    /// Free devices of each island, and the sum of their free memory: set
    /// once per wave, reduced as entries take devices.
    island_free: Vec<usize>,
    island_free_mem: Vec<u64>,
    affinity: Affinity,
    /// Islands with free devices and their ranking keys, for one entry.
    ranked: Vec<(IslandKey, usize)>,
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
            num_metaops,
            preds,
            succs,
            volume,
            memory_used: vec![0; space],
            resident: vec![false; num_metaops * space],
            last_placement: vec![None; num_metaops],
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

    /// Whether `d` is one of this pass's cluster devices.
    fn contains(&self, d: DeviceId) -> bool {
        self.affinity
            .island_of
            .get(d.index())
            .is_some_and(|&k| k != NO_ISLAND)
    }

    /// Snapshots the cross-wave state in sparse, id-stable form.
    fn checkpoint(&self) -> PlacementCheckpoint {
        PlacementCheckpoint {
            memory_used: self
                .memory_used
                .iter()
                .enumerate()
                .filter(|&(_, &bytes)| bytes > 0)
                .map(|(i, &bytes)| (DeviceId(i as u32), bytes))
                .collect(),
            resident: (0..self.num_metaops)
                .flat_map(|m| {
                    let row = &self.resident[m * self.space..(m + 1) * self.space];
                    row.iter()
                        .enumerate()
                        .filter(|&(_, &r)| r)
                        .map(move |(d, _)| (m as u32, DeviceId(d as u32)))
                })
                .collect(),
            last_placement: self
                .last_placement
                .iter()
                .enumerate()
                .filter_map(|(m, g)| g.as_ref().map(|g| (m as u32, g.clone())))
                .collect(),
        }
    }

    /// Loads a checkpoint, dropping state attached to devices that are not
    /// part of this pass's cluster (they were removed by churn). A last
    /// placement touching a removed device keeps its surviving members —
    /// affinity toward the survivors still makes the data flows cheap.
    fn restore(&mut self, checkpoint: &PlacementCheckpoint) {
        self.memory_used.fill(0);
        for &(d, bytes) in &checkpoint.memory_used {
            if self.contains(d) {
                self.memory_used[d.index()] = bytes;
            }
        }
        self.resident.fill(false);
        for &(m, d) in &checkpoint.resident {
            let m = m as usize;
            if m < self.num_metaops && self.contains(d) {
                self.resident[m * self.space + d.index()] = true;
            }
        }
        self.last_placement.fill(None);
        for (m, group) in &checkpoint.last_placement {
            let m = *m as usize;
            if m >= self.num_metaops {
                continue;
            }
            let survivors: DeviceGroup = group.iter().filter(|&d| self.contains(d)).collect();
            if !survivors.is_empty() {
                self.last_placement[m] = Some(survivors);
            }
        }
    }

    /// Places the given waves in order, snapshotting the cross-wave state
    /// after the last wave of every level they cover.
    fn place_levels<'w>(
        &mut self,
        waves: impl IntoIterator<Item = &'w mut Wave>,
        choose: Chooser,
    ) -> Vec<PlacementCheckpoint> {
        let mut checkpoints = Vec::new();
        let mut current_level: Option<usize> = None;
        for wave in waves {
            if current_level.is_some_and(|level| level != wave.level) {
                checkpoints.push(self.checkpoint());
            }
            current_level = Some(wave.level);
            self.place_wave(wave, choose);
        }
        if current_level.is_some() {
            checkpoints.push(self.checkpoint());
        }
        checkpoints
    }

    /// Places every entry of one wave, advancing the cross-wave state.
    fn place_wave(&mut self, wave: &mut Wave, choose: Chooser) {
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
        self.order.clear();
        self.order.extend(0..wave.entries.len());
        let volume = &self.volume;
        self.order
            .sort_by_key(|&i| Reverse(volume[wave.entries[i].metaop.index()]));

        for oi in 0..self.order.len() {
            let idx = self.order[oi];
            let metaop = wave.entries[idx].metaop;
            let needed = (wave.entries[idx].devices as usize).min(self.num_devices);
            // Affinity of each device and island for this entry.
            self.affinity.clear();
            self.affinity
                .mark(self.last_placement[metaop.index()].as_ref(), 4);
            for &pred in &self.preds[metaop.index()] {
                self.affinity
                    .mark(self.last_placement[pred.index()].as_ref(), 2);
            }
            // Sibling affinity: co-locate with MetaOps that feed the same
            // successor, so the successor's inputs end up on one island.
            for &succ in &self.succs[metaop.index()] {
                for &sibling in &self.preds[succ.index()] {
                    if sibling != metaop {
                        self.affinity
                            .mark(self.last_placement[sibling.index()].as_ref(), 1);
                    }
                }
            }

            self.chosen.clear();
            choose(self, needed);

            // Memory-balance fallback: if any chosen device would exceed its
            // capacity, redo the choice ordering devices purely by free memory.
            let per_device = wave.entries[idx].memory_per_device;
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
                let slot = metaop.index() * self.space + d.index();
                if !self.resident[slot] {
                    self.resident[slot] = true;
                    self.memory_used[d.index()] =
                        self.memory_used[d.index()].saturating_add(per_device);
                }
            }
            let group: DeviceGroup = self.chosen.iter().copied().collect();
            self.last_placement[metaop.index()] = Some(group.clone());
            wave.entries[idx].placement = Some(group);
        }
    }

    /// Ranking key of island `k` for an entry needing `needed` devices, from
    /// the running totals.
    fn island_key(&self, k: usize, needed: usize) -> IslandKey {
        (
            Reverse(self.island_free[k] >= needed),
            Reverse(self.affinity.island[k]),
            Reverse(self.island_free_mem[k]),
        )
    }

    /// Guideline 1: takes islands best-first by [`island_key`](Self::island_key),
    /// ties to the lower index, until the entry has `needed` devices — the
    /// order a stable sort of every island visits them in. Islands without
    /// free devices would add nothing and are left out. Most entries fit on
    /// the best island, found in one scan; the rest are sorted only when the
    /// entry needs more.
    fn choose_islands(&mut self, needed: usize) {
        self.ranked.clear();
        for k in 0..self.islands.len() {
            if self.island_free[k] > 0 {
                self.ranked.push((self.island_key(k, needed), k));
            }
        }
        let Some(&(_, best)) = self.ranked.iter().min() else {
            return;
        };
        self.take_from_island(best, needed);
        if self.chosen.len() < needed {
            self.ranked.sort_unstable();
            for i in 1..self.ranked.len() {
                if self.chosen.len() >= needed {
                    break;
                }
                self.take_from_island(self.ranked[i].1, needed);
            }
        }
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

/// Locality-, communication- and memory-aware placement.
fn place_locality(plan: &mut ExecutionPlan, cluster: &ClusterSpec) {
    let mut pass = LocalityPass::new(plan, cluster);
    for wave in plan.waves_mut() {
        pass.place_wave(wave, LocalityPass::choose_islands);
    }
}

/// [`place_locality`] that also snapshots the pass state at every level
/// boundary. `checkpoints[i]` is the state after the last wave of the `i`-th
/// level of the plan, in wave order — restoring `checkpoints[i]` and
/// re-placing levels `i+1..` reproduces a full pass exactly.
pub(crate) fn place_locality_checkpointed(
    plan: &mut ExecutionPlan,
    cluster: &ClusterSpec,
) -> Vec<PlacementCheckpoint> {
    let mut pass = LocalityPass::new(plan, cluster);
    pass.place_levels(plan.waves_mut(), LocalityPass::choose_islands)
}

/// Resumes a locality pass from `resume_from` (the checkpoint taken after the
/// last clean level) and places only `plan.waves_mut()[first_wave..]` — the
/// waves of the dirty levels — onto `cluster`'s surviving devices. Waves
/// before `first_wave` keep whatever placement they already carry. Returns
/// one checkpoint per level placed, so the resulting hybrid plan can itself
/// seed the next partial re-plan.
pub(crate) fn place_locality_resume(
    plan: &mut ExecutionPlan,
    cluster: &ClusterSpec,
    first_wave: usize,
    resume_from: &PlacementCheckpoint,
) -> Vec<PlacementCheckpoint> {
    let mut pass = LocalityPass::new(plan, cluster);
    pass.restore(resume_from);
    pass.place_levels(
        plan.waves_mut().iter_mut().skip(first_wave),
        LocalityPass::choose_islands,
    )
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

    /// Asserts that the production pass of `plan` on `cluster`, resumed from
    /// `resume` at `first_wave`, places and checkpoints exactly like a pass
    /// with the reference island ranking; returns how many entries took the
    /// memory-balance fallback.
    fn assert_matches_reference(
        plan: &ExecutionPlan,
        cluster: &ClusterSpec,
        first_wave: usize,
        resume: &PlacementCheckpoint,
    ) -> usize {
        let mut placed = plan.clone();
        let checkpoints = place_locality_resume(&mut placed, cluster, first_wave, resume);
        let mut reference = plan.clone();
        let mut pass = LocalityPass::new(&reference, cluster);
        pass.restore(resume);
        let reference_checkpoints = pass.place_levels(
            reference.waves_mut().iter_mut().skip(first_wave),
            LocalityPass::choose_islands_reference,
        );
        assert_eq!(placed.waves(), reference.waves(), "placements differ");
        assert_eq!(checkpoints, reference_checkpoints, "checkpoints differ");
        pass.fallbacks
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

    /// Index of the first wave after the `level`-th level of `plan` (in wave
    /// order) — where a pass resumed from checkpoint `level` starts.
    fn first_wave_after(plan: &ExecutionPlan, level: usize) -> usize {
        let mut levels_seen = 0;
        for (i, pair) in plan.waves().windows(2).enumerate() {
            if pair[0].level != pair[1].level {
                if levels_seen == level {
                    return i + 1;
                }
                levels_seen += 1;
            }
        }
        plan.num_waves()
    }

    #[test]
    fn best_first_islands_match_the_full_ranking_on_hyperscale_mixes() {
        let mut rng = XorShift64Star::new(0x5EED_0001);
        for (tasks, gpus) in [(48, 256), (48, 256), (64, 512), (64, 512)] {
            let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
            let plan = hyperscale_plan(tasks, &mut rng, &cluster);
            assert_matches_reference(&plan, &cluster, 0, &PlacementCheckpoint::default());
        }
    }

    #[test]
    fn best_first_islands_match_the_full_ranking_on_churned_clusters() {
        let mut rng = XorShift64Star::new(0x5EED_0002);
        let full = ClusterSpec::homogeneous(32, 8);
        for draw in 0..3 {
            // Knock out a seeded set of devices, emptying one island outright
            // on the last draw.
            let mut removed: Vec<DeviceId> = (0..12)
                .map(|_| DeviceId((rng.next_u64() % 256) as u32))
                .collect();
            if draw == 2 {
                removed.extend((40..48).map(DeviceId));
            }
            let churned = full.without_devices(&removed).unwrap();
            assert!(
                churned.device_space() > churned.num_devices(),
                "no id holes"
            );
            let plan = hyperscale_plan(48, &mut rng, &churned);
            assert_matches_reference(&plan, &churned, 0, &PlacementCheckpoint::default());

            // Resume on the survivors from checkpoints of a pass on the full
            // cluster, as a re-plan after device loss does: restore drops the
            // state of the removed devices.
            let mut before_loss = plan.clone();
            let checkpoints = place_locality_checkpointed(&mut before_loss, &full);
            for level in [0, checkpoints.len() / 2, checkpoints.len() - 2] {
                let first_wave = first_wave_after(&plan, level);
                assert!(first_wave < plan.num_waves());
                assert_matches_reference(&plan, &churned, first_wave, &checkpoints[level]);
            }
        }
    }

    #[test]
    fn best_first_islands_match_the_full_ranking_through_the_memory_fallback() {
        let mut rng = XorShift64Star::new(0x5EED_0003);
        let cluster = ClusterSpec::homogeneous(32, 8);
        let plan = hyperscale_plan(48, &mut rng, &cluster);
        // The same topology with devices of twice the largest entry's
        // footprint: resident slices pile up until some locality choices
        // would overflow and fall back.
        let largest = plan
            .waves()
            .iter()
            .flat_map(|w| &w.entries)
            .map(|e| e.memory_per_device)
            .max()
            .unwrap();
        let small = ClusterSpec::with_specs(
            32,
            8,
            GpuSpec {
                memory_bytes: 2 * largest,
                ..GpuSpec::a800_80gb()
            },
            InterconnectSpec::nvlink_plus_infiniband_400g(),
        );
        let fallbacks = assert_matches_reference(&plan, &small, 0, &PlacementCheckpoint::default());
        assert!(fallbacks > 0, "no entry took the memory-balance fallback");
    }
}
