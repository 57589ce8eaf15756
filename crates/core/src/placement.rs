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

use spindle_cluster::{ClusterSpec, DeviceGroup, DeviceId, Island};

use crate::{ExecutionPlan, MetaOpId, PlanError, Wave};

/// A device-placement policy: maps every wave entry of a plan onto concrete
/// devices.
///
/// New placement strategies implement this trait instead of touching the
/// planner core — [`SpindleSession`](crate::SpindleSession) invokes whatever
/// policy its configuration selects after wavefront scheduling. Implementors
/// must place *every* entry of *every* wave, keeping the entries of each wave
/// on disjoint devices ([`ExecutionPlan::validate`] checks this).
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Human-readable name of the policy.
    fn name(&self) -> &'static str;

    /// Assigns concrete devices to every wave entry of `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::CapacityExceeded`] if some wave requests more
    /// devices than the cluster provides.
    fn place(&self, plan: &mut ExecutionPlan, cluster: &ClusterSpec) -> Result<(), PlanError>;
}

/// The locality-, communication- and memory-aware policy of §3.5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalityPlacement;

impl PlacementPolicy for LocalityPlacement {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn place(&self, plan: &mut ExecutionPlan, cluster: &ClusterSpec) -> Result<(), PlanError> {
        check_capacity(plan, cluster)?;
        place_locality(plan, cluster);
        Ok(())
    }
}

/// A naïve policy that assigns each entry consecutive devices starting from
/// device 0, ignoring locality — the ablation baseline of Fig. 10
/// ("Spindle w/o DP", i.e. without the device-placement mechanism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialPlacement;

impl PlacementPolicy for SequentialPlacement {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn place(&self, plan: &mut ExecutionPlan, cluster: &ClusterSpec) -> Result<(), PlanError> {
        check_capacity(plan, cluster)?;
        place_sequential(plan);
        Ok(())
    }
}

/// The placement strategy to apply to a plan — a compact, copyable selector
/// over the built-in [`PlacementPolicy`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementStrategy {
    /// The locality-, communication- and memory-aware strategy of §3.5
    /// ([`LocalityPlacement`]).
    #[default]
    Locality,
    /// Consecutive-device placement ignoring locality
    /// ([`SequentialPlacement`]).
    Sequential,
}

impl PlacementStrategy {
    /// The policy implementing this strategy.
    #[must_use]
    pub fn policy(self) -> &'static dyn PlacementPolicy {
        match self {
            PlacementStrategy::Locality => &LocalityPlacement,
            PlacementStrategy::Sequential => &SequentialPlacement,
        }
    }
}

/// Assigns concrete devices to every wave entry of `plan`.
///
/// # Errors
///
/// Returns [`PlanError::CapacityExceeded`] if some wave requests more devices
/// than the cluster provides.
pub fn place(
    plan: &mut ExecutionPlan,
    cluster: &ClusterSpec,
    strategy: PlacementStrategy,
) -> Result<(), PlanError> {
    strategy.policy().place(plan, cluster)
}

/// Shared precondition of every built-in policy: no wave may request more
/// devices than the cluster provides.
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
fn place_sequential(plan: &mut ExecutionPlan) {
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

/// The locality pass (§3.5) with its cross-wave state made explicit, so the
/// state can be checkpointed at level boundaries and restored later.
///
/// All working state is dense and reused across waves: device sets are
/// `Vec`-indexed by `DeviceId` (sized by [`ClusterSpec::device_space`], so a
/// post-churn cluster with holes in its numbering indexes safely), per-MetaOp
/// state by `MetaOpId`, and the MetaGraph adjacency is extracted once up
/// front instead of being re-scanned (and re-allocated) per entry.
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
    affinity: Vec<i64>,
    order: Vec<usize>,
    island_order: Vec<usize>,
    candidates: Vec<DeviceId>,
    chosen: Vec<DeviceId>,
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

        Self {
            islands: cluster.islands(),
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
            affinity: vec![0; space],
            order: Vec::new(),
            island_order: Vec::new(),
            candidates: Vec::new(),
            chosen: Vec::new(),
        }
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
        let mut present = vec![false; self.space];
        for &d in &self.all_devices {
            present[d.index()] = true;
        }
        self.memory_used.fill(0);
        for &(d, bytes) in &checkpoint.memory_used {
            if d.index() < self.space && present[d.index()] {
                self.memory_used[d.index()] = bytes;
            }
        }
        self.resident.fill(false);
        for &(m, d) in &checkpoint.resident {
            let m = m as usize;
            if m < self.num_metaops && d.index() < self.space && present[d.index()] {
                self.resident[m * self.space + d.index()] = true;
            }
        }
        self.last_placement.fill(None);
        for (m, group) in &checkpoint.last_placement {
            let m = *m as usize;
            if m >= self.num_metaops {
                continue;
            }
            let survivors: DeviceGroup = group
                .iter()
                .filter(|d| d.index() < self.space && present[d.index()])
                .collect();
            if !survivors.is_empty() {
                self.last_placement[m] = Some(survivors);
            }
        }
    }

    /// Places every entry of one wave, advancing the cross-wave state.
    fn place_wave(&mut self, wave: &mut Wave) {
        self.free.fill(false);
        for &d in &self.all_devices {
            self.free[d.index()] = true;
        }
        // Guideline 2: place the most communication-intensive entries first.
        self.order.clear();
        self.order.extend(0..wave.entries.len());
        let volume = &self.volume;
        self.order
            .sort_by_key(|&i| std::cmp::Reverse(volume[wave.entries[i].metaop.index()]));

        for oi in 0..self.order.len() {
            let idx = self.order[oi];
            let entry = &wave.entries[idx];
            let needed = (entry.devices as usize).min(self.num_devices);
            // Affinity of each device for this entry.
            self.affinity.fill(0);
            let mark = |group: Option<&DeviceGroup>, weight: i64, affinity: &mut Vec<i64>| {
                if let Some(g) = group {
                    for d in g.iter() {
                        affinity[d.index()] += weight;
                    }
                }
            };
            mark(
                self.last_placement[entry.metaop.index()].as_ref(),
                4,
                &mut self.affinity,
            );
            for &pred in &self.preds[entry.metaop.index()] {
                mark(
                    self.last_placement[pred.index()].as_ref(),
                    2,
                    &mut self.affinity,
                );
            }
            // Sibling affinity: co-locate with MetaOps that feed the same
            // successor, so the successor's inputs end up on one island.
            for &succ in &self.succs[entry.metaop.index()] {
                for &sibling in &self.preds[succ.index()] {
                    if sibling != entry.metaop {
                        mark(
                            self.last_placement[sibling.index()].as_ref(),
                            1,
                            &mut self.affinity,
                        );
                    }
                }
            }

            // Guideline 1: choose islands first, preferring islands with
            // enough free devices, high affinity and plenty of free memory.
            self.island_order.clear();
            self.island_order.extend(0..self.islands.len());
            let (islands, free, affinity, memory_used, capacity) = (
                &self.islands,
                &self.free,
                &self.affinity,
                &self.memory_used,
                self.capacity,
            );
            // Cached: the key walks the island's devices, so compute it once
            // per island rather than on every comparison. The sort is stable,
            // like `sort_by_key`.
            self.island_order.sort_by_cached_key(|&k| {
                let island = &islands[k];
                let mut free_count = 0usize;
                let mut free_mem = 0u64;
                // Affinity counts every device of the island (even occupied
                // ones): being on the same island as a producer is what makes
                // the data flow cheap, regardless of which sibling occupies it.
                let mut aff = 0i64;
                for d in island.devices.iter() {
                    aff += affinity[d.index()];
                    if free[d.index()] {
                        free_count += 1;
                        free_mem += capacity.saturating_sub(memory_used[d.index()]);
                    }
                }
                let fits = free_count >= needed;
                (
                    std::cmp::Reverse(fits),
                    std::cmp::Reverse(aff),
                    std::cmp::Reverse(free_mem),
                )
            });

            self.chosen.clear();
            for ki in 0..self.island_order.len() {
                let k = self.island_order[ki];
                if self.chosen.len() >= needed {
                    break;
                }
                self.candidates.clear();
                self.candidates.extend(
                    self.islands[k]
                        .devices
                        .iter()
                        .filter(|d| self.free[d.index()]),
                );
                // Guideline 3 tie-break: most affine, then most free memory.
                let (affinity, memory_used) = (&self.affinity, &self.memory_used);
                self.candidates.sort_by_key(|d| {
                    (
                        std::cmp::Reverse(affinity[d.index()]),
                        memory_used[d.index()],
                        d.0,
                    )
                });
                for ci in 0..self.candidates.len() {
                    if self.chosen.len() >= needed {
                        break;
                    }
                    let d = self.candidates[ci];
                    self.chosen.push(d);
                }
            }

            // Memory-balance fallback: if any chosen device would exceed its
            // capacity, redo the choice ordering devices purely by free memory.
            let per_device = wave.entries[idx].memory_per_device;
            let would_overflow = self
                .chosen
                .iter()
                .any(|d| self.memory_used[d.index()] + per_device > self.capacity);
            if would_overflow {
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

            let metaop = wave.entries[idx].metaop;
            for i in 0..self.chosen.len() {
                let d = self.chosen[i];
                self.free[d.index()] = false;
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
}

/// Locality-, communication- and memory-aware placement.
fn place_locality(plan: &mut ExecutionPlan, cluster: &ClusterSpec) {
    let mut pass = LocalityPass::new(plan, cluster);
    for wave in plan.waves_mut() {
        pass.place_wave(wave);
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
    let mut checkpoints = Vec::new();
    let mut current_level: Option<usize> = None;
    for wave in plan.waves_mut() {
        if let Some(level) = current_level {
            if level != wave.level {
                checkpoints.push(pass.checkpoint());
            }
        }
        current_level = Some(wave.level);
        pass.place_wave(wave);
    }
    if current_level.is_some() {
        checkpoints.push(pass.checkpoint());
    }
    checkpoints
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
    let mut checkpoints = Vec::new();
    let mut current_level: Option<usize> = None;
    for wave in plan.waves_mut().iter_mut().skip(first_wave) {
        if let Some(level) = current_level {
            if level != wave.level {
                checkpoints.push(pass.checkpoint());
            }
        }
        current_level = Some(wave.level);
        pass.place_wave(wave);
    }
    if current_level.is_some() {
        checkpoints.push(pass.checkpoint());
    }
    checkpoints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetaGraph, Wave, WaveEntry};
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};
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
        place(&mut plan, &cluster, PlacementStrategy::Sequential).unwrap();
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
        place(&mut plan, &cluster, PlacementStrategy::Locality).unwrap();
        plan.require_placement().unwrap();
        plan.validate().unwrap();
    }

    #[test]
    fn locality_prefers_single_island_groups() {
        let (mut plan, cluster) = unplaced_plan();
        place(&mut plan, &cluster, PlacementStrategy::Locality).unwrap();
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
        let err = place(&mut plan, &small_cluster, PlacementStrategy::Locality).unwrap_err();
        assert!(matches!(err, PlanError::CapacityExceeded { .. }));
    }

    #[test]
    fn successor_lands_near_predecessors() {
        let (mut plan, cluster) = unplaced_plan();
        place(&mut plan, &cluster, PlacementStrategy::Locality).unwrap();
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
    fn strategies_resolve_to_named_policies() {
        assert_eq!(PlacementStrategy::Locality.policy().name(), "locality");
        assert_eq!(PlacementStrategy::Sequential.policy().name(), "sequential");
        // Policies are directly invokable, like any custom implementation.
        let (mut plan, cluster) = unplaced_plan();
        let policy: &dyn PlacementPolicy = &LocalityPlacement;
        policy.place(&mut plan, &cluster).unwrap();
        plan.require_placement().unwrap();
    }
}
