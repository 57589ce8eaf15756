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
//!
//! # Cost
//!
//! An entry costs time in the devices it marks and takes and in the islands
//! its affinity touches, not in the size of the cluster. It resets only the
//! affinities the previous entry marked, builds island ranking keys only for
//! its affine islands — those holding the last placement of its MetaOp, a
//! predecessor or a sibling: 1,439 keys for the 618 entries of a
//! 63-task/512-GPU plan, against 15,700 if every island with a free device
//! were ranked — and moves only the islands it took devices from in the
//! per-wave island order (a binary search, then a shift back). A wave
//! starts from per-island free-device and free-memory totals that are kept
//! current as MetaOps become resident, and sorts its islands once.
//!
//! The islands are visited in exactly the order of the reference ranking,
//! which sorts every island by (fits the entry, affinity, free memory,
//! index). Affine islands have affinity ≥ 1 and all others 0, so within
//! each fit class the affine islands come first, in key order, and the rest
//! rank by (free memory, index): the per-wave order, filtered by fit. An
//! island that fits holds the whole entry, so the pass takes the best
//! fitting island, affine or not; only an entry that fits on no island
//! walks the affine islands by key and then the others in the per-wave
//! order. The tests check this against the reference ranking on hyperscale
//! mixes, churned clusters, the memory fallback and 256 fuzz draws.

use std::cmp::Reverse;

use spindle_cluster::{ClusterSpec, DeviceGroup, DeviceId, Island};

use crate::{ExecutionPlan, MetaOpId, PlanError, Wave};

/// The device-placement strategy applied to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementStrategy {
    /// The locality-, communication- and memory-aware strategy of §3.5.
    #[default]
    Locality,
    /// Consecutive devices of the cluster, in id order, for each entry,
    /// ignoring locality — the ablation baseline of Fig. 10 ("Spindle w/o
    /// DP", i.e. without the device-placement mechanism).
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
            PlacementStrategy::Locality => LocalityPass::new(plan, cluster)
                .place(plan.waves_mut(), LocalityPass::choose_islands),
            PlacementStrategy::Sequential => place_sequential(plan.waves_mut(), cluster),
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

/// Naïve consecutive-device placement: each wave's entries take the
/// cluster's devices in id order, skipping removed ids.
fn place_sequential(waves: &mut [Wave], cluster: &ClusterSpec) {
    let devices = cluster.all_devices();
    for wave in waves {
        let mut next = 0;
        for entry in &mut wave.entries {
            let end = next + entry.devices as usize;
            entry.placement = Some(DeviceGroup::from_distinct(
                devices.devices()[next..end].to_vec(),
            ));
            next = end;
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

/// Ranking key of a free device for one entry (smaller ranks first): high
/// affinity, then little memory in use, then the lower id.
type DeviceKey = (Reverse<i64>, u64, DeviceId);

/// Order key of island `k` in [`LocalityPass::by_memory`] (smaller first):
/// more free memory, then the lower index.
fn memory_key(free_mem: &[u64], k: usize) -> (Reverse<u64>, usize) {
    (Reverse(free_mem[k]), k)
}

/// Flat (CSR) adjacency lists: the neighbours of MetaOp `m` are
/// `ids[start[m]..start[m + 1]]`, in MetaGraph edge order.
struct Adjacency {
    start: Vec<usize>,
    ids: Vec<MetaOpId>,
}

impl Adjacency {
    /// Lists the neighbours `pairs` gives each of `n` MetaOps as
    /// `(metaop, neighbour)`.
    fn new(n: usize, pairs: impl Iterator<Item = (MetaOpId, MetaOpId)> + Clone) -> Self {
        let mut start = vec![0; n + 1];
        for (m, _) in pairs.clone() {
            start[m.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut ids = vec![MetaOpId(0); start[n]];
        for (m, neighbour) in pairs {
            ids[next[m.index()]] = neighbour;
            next[m.index()] += 1;
        }
        Self { start, ids }
    }

    /// The neighbours of `m`.
    fn of(&self, m: MetaOpId) -> &[MetaOpId] {
        &self.ids[self.start[m.index()]..self.start[m.index() + 1]]
    }
}

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
    /// The devices and the islands with nonzero affinity, each listed once:
    /// all that the next entry resets, and the only islands it ranks by key.
    marked_devices: Vec<usize>,
    marked_islands: Vec<usize>,
}

impl Affinity {
    /// Zeroes every affinity the last entry marked.
    fn reset(&mut self) {
        for d in self.marked_devices.drain(..) {
            self.device[d] = 0;
        }
        for k in self.marked_islands.drain(..) {
            self.island[k] = 0;
        }
    }

    /// Adds `weight` (positive) to every device of `group`, a placement of
    /// this pass, and to its island.
    fn mark(&mut self, group: Option<&DeviceGroup>, weight: i64) {
        for d in group.into_iter().flat_map(DeviceGroup::iter) {
            let k = self.island_of[d.index()];
            if self.device[d.index()] == 0 {
                self.marked_devices.push(d.index());
            }
            self.device[d.index()] += weight;
            if self.island[k] == 0 {
                self.marked_islands.push(k);
            }
            self.island[k] += weight;
        }
    }
}

/// The locality pass (§3.5). Its cross-wave state — per-device memory load,
/// MetaOp-on-device residency and each MetaOp's last placement — is a
/// function of the placements made so far.
///
/// All working state is dense and reused across waves: device sets are
/// `Vec`-indexed by `DeviceId` (sized by [`ClusterSpec::device_space`], so a
/// post-churn cluster with holes in its numbering indexes safely), per-MetaOp
/// state by `MetaOpId`, per-island totals by island index, and the MetaGraph
/// adjacency is flattened once up front instead of being re-scanned (and
/// re-allocated) per entry.
struct LocalityPass {
    islands: Vec<Island>,
    /// Device count of the largest island: no entry needing more fits on one.
    largest_island: usize,
    all_devices: Vec<DeviceId>,
    capacity: u64,
    /// Devices available for allocation (the surviving count).
    num_devices: usize,
    /// Dense id-space size (one past the highest device id).
    space: usize,
    preds: Adjacency,
    succs: Adjacency,
    volume: Vec<u64>,
    // Cross-wave state.
    memory_used: Vec<u64>,
    /// Free memory summed over each island's devices, kept current by
    /// [`occupy`](Self::occupy).
    island_mem: Vec<u64>,
    resident: Vec<bool>,
    /// `(wave, entry)` index of each MetaOp's last placed entry.
    last: Vec<Option<(usize, usize)>>,
    // Per-wave scratch.
    /// Devices not yet taken in this wave: every cluster device between
    /// waves.
    free: Vec<bool>,
    /// Free devices of each island, and the sum of their free memory: set
    /// once per wave, reduced as entries take devices.
    island_free: Vec<usize>,
    island_free_mem: Vec<u64>,
    /// The islands with free devices by free memory (descending), then
    /// index: the order the ranking visits islands without affinity in.
    by_memory: Vec<usize>,
    affinity: Affinity,
    /// Ranking keys of the affine islands with free devices, for one entry.
    ranked: Vec<IslandKey>,
    /// Islands the chosen devices came from, each once, and their places in
    /// `by_memory`.
    touched: Vec<usize>,
    moved: Vec<usize>,
    order: Vec<usize>,
    candidates: Vec<DeviceKey>,
    chosen: Vec<DeviceId>,
    /// Entries placed by the memory-balance fallback.
    #[cfg(test)]
    fallbacks: usize,
    /// Island ranking keys built.
    #[cfg(test)]
    keys_built: usize,
}

impl LocalityPass {
    fn new(plan: &ExecutionPlan, cluster: &ClusterSpec) -> Self {
        let metagraph = plan.metagraph();
        let num_metaops = metagraph.num_metaops();
        let space = cluster.device_space();

        // Flat adjacency and communication volume of each MetaOp: bytes it
        // receives plus bytes it sends along MetaGraph edges (guideline 2).
        let edges = metagraph.edges().iter();
        let preds = Adjacency::new(num_metaops, edges.clone().map(|&(a, b)| (b, a)));
        let succs = Adjacency::new(num_metaops, edges.copied());
        let volume = metagraph
            .metaops()
            .iter()
            .map(|metaop| {
                let id = metaop.id();
                let incoming: u64 = preds
                    .of(id)
                    .iter()
                    .map(|&p| metagraph.metaop(p).representative().output_bytes())
                    .sum();
                incoming + metaop.representative().output_bytes() * succs.of(id).len() as u64
            })
            .collect();

        let islands = cluster.islands();
        let capacity = cluster.device_memory_bytes();
        let all_devices: Vec<DeviceId> = cluster.all_devices().iter().collect();
        let mut island_of = vec![NO_ISLAND; space];
        for (k, island) in islands.iter().enumerate() {
            for d in island.devices.iter() {
                island_of[d.index()] = k;
            }
        }
        let mut free = vec![false; space];
        for d in &all_devices {
            free[d.index()] = true;
        }
        let num_islands = islands.len();
        Self {
            largest_island: islands.iter().map(|i| i.devices.len()).max().unwrap_or(0),
            island_mem: islands
                .iter()
                .map(|i| capacity * i.devices.len() as u64)
                .collect(),
            islands,
            all_devices,
            capacity,
            num_devices: cluster.num_devices(),
            space,
            preds,
            succs,
            volume,
            memory_used: vec![0; space],
            resident: vec![false; num_metaops * space],
            last: vec![None; num_metaops],
            free,
            island_free: vec![0; num_islands],
            island_free_mem: vec![0; num_islands],
            by_memory: Vec::with_capacity(num_islands),
            affinity: Affinity {
                island_of,
                device: vec![0; space],
                island: vec![0; num_islands],
                marked_devices: Vec::new(),
                marked_islands: Vec::new(),
            },
            ranked: Vec::new(),
            touched: Vec::new(),
            moved: Vec::new(),
            order: Vec::new(),
            candidates: Vec::new(),
            chosen: Vec::new(),
            #[cfg(test)]
            fallbacks: 0,
            #[cfg(test)]
            keys_built: 0,
        }
    }

    /// Places every wave, first to last.
    fn place(&mut self, waves: &mut [Wave], choose: Chooser) {
        for w in 0..waves.len() {
            self.place_wave(waves, w, choose);
        }
    }

    /// Makes `metaop` resident on the cluster device `d`, charging its
    /// per-device bytes (to `d` and its island's free memory) the first time.
    fn occupy(&mut self, metaop: MetaOpId, d: DeviceId, bytes: u64) {
        let slot = metaop.index() * self.space + d.index();
        if !self.resident[slot] {
            self.resident[slot] = true;
            let used = &mut self.memory_used[d.index()];
            let free_before = self.capacity.saturating_sub(*used);
            *used = used.saturating_add(bytes);
            self.island_mem[self.affinity.island_of[d.index()]] -=
                free_before - self.capacity.saturating_sub(*used);
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
        affinity.reset();
        affinity.mark(last_group(metaop), 4);
        for &pred in preds.of(metaop) {
            affinity.mark(last_group(pred), 2);
        }
        for &succ in succs.of(metaop) {
            for &sibling in preds.of(succ) {
                if sibling != metaop {
                    affinity.mark(last_group(sibling), 1);
                }
            }
        }
    }

    /// Places every entry of `waves[w]`, advancing the cross-wave state.
    fn place_wave(&mut self, waves: &mut [Wave], w: usize, choose: Chooser) {
        for (free, island) in self.island_free.iter_mut().zip(&self.islands) {
            *free = island.devices.len();
        }
        self.island_free_mem.copy_from_slice(&self.island_mem);
        self.by_memory.clear();
        self.by_memory.extend(0..self.islands.len());
        let free_mem = &self.island_free_mem;
        self.by_memory
            .sort_unstable_by_key(|&k| memory_key(free_mem, k));
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
            self.touched.clear();
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
                let (free, memory_used) = (&self.free, &self.memory_used);
                self.candidates.clear();
                self.candidates.extend(
                    self.all_devices
                        .iter()
                        .filter(|d| free[d.index()])
                        .map(|&d| (Reverse(0), memory_used[d.index()], d)),
                );
                self.candidates.sort_unstable();
                let take = needed.min(self.candidates.len());
                self.chosen.clear();
                self.chosen
                    .extend(self.candidates[..take].iter().map(|&(.., d)| d));
                let island_of = &self.affinity.island_of;
                self.touched.clear();
                self.touched
                    .extend(self.chosen.iter().map(|d| island_of[d.index()]));
                self.touched.sort_unstable();
                self.touched.dedup();
            }

            self.take_chosen(metaop, per_device);
            waves[w].entries[idx].placement = Some(DeviceGroup::from_distinct(self.chosen.clone()));
            self.last[metaop.index()] = Some((w, idx));
        }
        // Hand the wave's devices back for the next wave.
        for entry in &waves[w].entries {
            for d in entry.placement.iter().flat_map(DeviceGroup::iter) {
                self.free[d.index()] = true;
            }
        }
    }

    /// Takes the `chosen` devices for an entry of `metaop` needing `bytes`
    /// on each: busy for the rest of the wave, charged to the per-wave
    /// island totals, and resident. The islands they came from, listed in
    /// `touched`, move to their new place in `by_memory`, or leave it once
    /// full.
    fn take_chosen(&mut self, metaop: MetaOpId, bytes: u64) {
        // Where the touched islands stand before their keys change, last
        // first: moving an island disturbs nothing in front of it.
        let (by_memory, free_mem) = (&self.by_memory, &self.island_free_mem);
        self.moved.clear();
        self.moved.extend(self.touched.iter().map(|&k| {
            by_memory.partition_point(|&j| memory_key(free_mem, j) < memory_key(free_mem, k))
        }));
        self.moved.sort_unstable_by(|a, b| b.cmp(a));
        for i in 0..self.chosen.len() {
            let d = self.chosen[i];
            self.free[d.index()] = false;
            let k = self.affinity.island_of[d.index()];
            self.island_free[k] -= 1;
            self.island_free_mem[k] -= self.capacity.saturating_sub(self.memory_used[d.index()]);
            self.occupy(metaop, d, bytes);
        }
        // An island's free memory only falls, so it only moves back.
        let free_mem = &self.island_free_mem;
        for &at in &self.moved {
            let k = self.by_memory[at];
            if self.island_free[k] == 0 {
                self.by_memory.remove(at);
                continue;
            }
            let key = memory_key(free_mem, k);
            let mut to = at;
            while let Some(&next) = self.by_memory.get(to + 1) {
                if memory_key(free_mem, next) > key {
                    break;
                }
                self.by_memory[to] = next;
                to += 1;
            }
            self.by_memory[to] = k;
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
    /// every island visits them in — while building keys only for the
    /// affine islands. The others all have zero affinity, so they rank by
    /// fit, then free memory, then index: `by_memory` order, split by fit.
    /// A fitting island holds the whole entry, so only an entry that fits on
    /// no island takes from more than one.
    fn choose_islands(&mut self, needed: usize) {
        self.ranked.clear();
        for &k in &self.affinity.marked_islands {
            if self.island_free[k] > 0 {
                self.ranked.push(self.island_key(k, needed));
            }
        }
        #[cfg(test)]
        {
            self.keys_built += self.ranked.len();
        }
        self.ranked.sort_unstable_by(|a, b| b.cmp(a));
        let fitting = match self.ranked.first() {
            Some(&(true, .., Reverse(k))) => Some(k),
            _ if needed <= self.largest_island => self
                .by_memory
                .iter()
                .copied()
                .find(|&k| self.affinity.island[k] == 0 && self.island_free[k] >= needed),
            _ => None,
        };
        if let Some(k) = fitting {
            self.take_from_island(k, needed);
            return;
        }
        // No island fits: every affine island by key, then the others by
        // free memory.
        for i in 0..self.ranked.len() {
            if self.chosen.len() >= needed {
                return;
            }
            let (.., Reverse(k)) = self.ranked[i];
            self.take_from_island(k, needed);
        }
        for i in 0..self.by_memory.len() {
            if self.chosen.len() >= needed {
                return;
            }
            let k = self.by_memory[i];
            if self.affinity.island[k] == 0 {
                self.take_from_island(k, needed);
            }
        }
    }

    /// Appends island `k`'s free devices to `chosen`, most affine first, then
    /// least loaded (guideline 3 tie-break), until the entry has `needed`.
    fn take_from_island(&mut self, k: usize, needed: usize) {
        let (affinity, memory_used, free) = (&self.affinity.device, &self.memory_used, &self.free);
        self.candidates.clear();
        self.candidates.extend(
            self.islands[k]
                .devices
                .iter()
                .filter(|d| free[d.index()])
                .map(|d| (Reverse(affinity[d.index()]), memory_used[d.index()], d)),
        );
        self.candidates.sort_unstable();
        let take = needed
            .saturating_sub(self.chosen.len())
            .min(self.candidates.len());
        if take > 0 {
            self.touched.push(k);
        }
        self.chosen
            .extend(self.candidates[..take].iter().map(|&(.., d)| d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetaGraph, Wave, WaveEntry};
    use spindle_cluster::{GpuSpec, InterconnectSpec};
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape, XorShift64Star};
    use spindle_workloads::{FuzzBounds, Scenario};
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

    /// Asserts that the production pass of `plan` on `cluster` places
    /// exactly like a pass with the reference island ranking; returns the
    /// placed plan and how many entries took the memory-balance fallback.
    fn assert_matches_reference(
        plan: &ExecutionPlan,
        cluster: &ClusterSpec,
    ) -> (ExecutionPlan, usize) {
        let mut placed = plan.clone();
        PlacementStrategy::Locality
            .place(&mut placed, cluster)
            .unwrap();
        let mut reference = plan.clone();
        let mut pass = LocalityPass::new(&reference, cluster);
        pass.place(
            reference.waves_mut(),
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

    /// Plans placed on a churned cluster, digested and pinned: 48 tasks on
    /// 256 GPUs and 63 on 512, each with seeded removals, with one island
    /// emptied, and on devices small enough to force the memory-balance
    /// fallback. Each placement also matches the reference island ranking.
    /// The six digests were recorded next to those of passes resumed behind
    /// a kept prefix of levels, a path since deleted.
    #[test]
    fn churned_placements_match_the_recorded_digests() {
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
                let (placed, fallbacks) = assert_matches_reference(&plan, &churned);
                digests.push(placed.fingerprint());
                assert_eq!(case == 2, fallbacks > 0, "{tasks} tasks, case {case}");
            }
        }
        assert_eq!(
            digests,
            [
                0x3630_6f41_a5b1_9059,
                0xff6c_1946_068c_b8f1,
                0x6954_ae09_7d10_4c71,
                0x169e_040b_62e3_f93d,
                0x1b37_1a2d_fab4_68ff,
                0x5ac9_f4cc_d9cf_abbd,
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
            assert_matches_reference(&plan, &cluster);
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
            assert_matches_reference(&plan, &churned);
        }
    }

    /// Every fuzz draw's plan (1–8 islands of 1–8 GPUs) places like the
    /// reference on its cluster and on a seeded removal of a third of its
    /// devices.
    #[test]
    fn best_first_islands_match_the_full_ranking_on_fuzz_draws() {
        const SEED: u64 = 0x5EED_0005;
        let mut rng = XorShift64Star::new(SEED);
        for index in 0..256 {
            let scenario = Scenario::draw(SEED, index, &FuzzBounds::full());
            let graph = scenario.graph_of(&scenario.active).unwrap();
            let full = ClusterSpec::homogeneous(scenario.nodes, scenario.gpus_per_node);
            let plan = crate::SpindleSession::new(full.clone())
                .plan(&graph)
                .unwrap();
            assert_matches_reference(&plan, &full);

            let mut devices: Vec<DeviceId> = full.all_devices().iter().collect();
            let removed = devices.len() / 3;
            for i in 0..removed {
                let j = i + (rng.next_u64() % (devices.len() - i) as u64) as usize;
                devices.swap(i, j);
            }
            let churned = full.without_devices(&devices[..removed]).unwrap();
            let plan = crate::SpindleSession::new(churned.clone())
                .plan(&graph)
                .unwrap();
            assert_matches_reference(&plan, &churned);
        }
    }

    /// A full pass over the 63-task/512-GPU mix builds ranking keys only for
    /// the affine islands with free devices: about two per entry. Ranking
    /// every island with a free device would build 15,700 keys for the same
    /// 618 entries.
    #[test]
    fn island_keys_are_built_only_for_affine_islands() {
        let cluster = ClusterSpec::homogeneous(64, 8);
        let graph = spindle_workloads::hyperscale(63).unwrap();
        let plan = crate::SpindleSession::new(cluster.clone())
            .plan(&graph)
            .unwrap();
        let mut placed = plan.clone();
        let mut pass = LocalityPass::new(&placed, &cluster);
        pass.place(placed.waves_mut(), LocalityPass::choose_islands);
        assert_eq!(placed.waves(), plan.waves());
        let entries: usize = plan.waves().iter().map(|w| w.entries.len()).sum();
        assert_eq!((entries, pass.keys_built), (618, 1_439));
    }

    #[test]
    fn best_first_islands_match_the_full_ranking_through_the_memory_fallback() {
        let mut rng = XorShift64Star::new(0x5EED_0003);
        let cluster = ClusterSpec::homogeneous(32, 8);
        let plan = hyperscale_plan(48, &mut rng, &cluster);
        let small = small_memory_cluster(32, &plan);
        let (_, fallbacks) = assert_matches_reference(&plan, &small);
        assert!(fallbacks > 0, "no entry took the memory-balance fallback");
    }
}
