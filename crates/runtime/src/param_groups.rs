//! Parameter device groups and group-wise synchronisation (§3.6 step 3).
//!
//! For every (possibly shared) parameter, all devices that hold a replica must
//! accumulate and synchronise its gradient once per iteration. Spindle scans
//! the placed plan before training, determines the device group of each
//! parameter, and maintains a pool `{D_i → {W_j}}` mapping device groups to the
//! parameter sets synchronised within them — one all-reduce per group per
//! iteration instead of one per parameter.

use std::collections::HashMap;

use spindle_cluster::{DeviceGroup, DeviceId};
use spindle_core::ExecutionPlan;
use spindle_graph::{ComputationGraph, ParamId};

/// The global parameter device-group pool of a placed plan.
#[derive(Debug, Clone, Default)]
pub struct ParamGroupPool {
    /// Sorted device groups, in ascending lexicographic order, each with the
    /// total parameter bytes synchronised in it.
    groups: Vec<(DeviceGroup, u64)>,
}

impl ParamGroupPool {
    /// Builds the pool from a placed plan, using the original computation graph
    /// to resolve per-operator parameter identity (required to capture
    /// cross-task parameter sharing exactly).
    #[must_use]
    pub fn from_plan(plan: &ExecutionPlan, graph: &ComputationGraph) -> Self {
        let (placements, op_entry) = entry_map(plan, graph.num_ops());
        let sets = DeviceSets::of(&placements, plan.device_space() as usize);
        // Bytes synchronised within exactly one entry's devices, by entry:
        // anonymous parameters and named ones no other entry holds.
        let mut entry_bytes: Vec<Option<u64>> = vec![None; placements.len()];
        // (parameter, entry holding it, share) for every named parameter.
        let mut holders: Vec<(ParamId, usize, u64)> = Vec::new();
        for op in graph.ops() {
            let Some(entry) = op_entry[op.id().index()] else {
                continue;
            };
            if op.params().is_empty() {
                // Unshared, anonymous parameters still need data-parallel
                // gradient sync within their own device group.
                if op.param_bytes() > 0 {
                    *entry_bytes[entry].get_or_insert(0) += op.param_bytes();
                }
                continue;
            }
            let share = op.param_bytes() / op.params().len() as u64;
            holders.extend(op.params().iter().map(|&p| (p, entry, share)));
        }
        // Each parameter's holders become adjacent, ascending by entry.
        holders.sort_unstable();
        let mut groups = GroupSums::new(placements.len());
        let mut union = vec![0u64; sets.words];
        let mut rest = holders.as_slice();
        while let Some(&(param, first, _)) = rest.first() {
            let count = rest.iter().take_while(|h| h.0 == param).count();
            let (held, tail) = rest.split_at(count);
            rest = tail;
            let bytes = held.iter().map(|h| h.2).max().unwrap_or(0);
            if held[count - 1].1 == first {
                *entry_bytes[first].get_or_insert(0) += bytes;
            } else {
                union.fill(0);
                for h in held {
                    for (word, &bits) in union.iter_mut().zip(sets.of_entry(h.1)) {
                        *word |= bits;
                    }
                }
                groups.add(&union, bytes);
            }
        }
        for (entry, bytes) in entry_bytes.into_iter().enumerate() {
            if let Some(bytes) = bytes {
                groups.add(sets.of_entry(entry), bytes);
            }
        }
        groups.into_pool()
    }

    /// Builds an approximate pool from the plan alone (no original graph):
    /// every MetaOp entry executing on more than one device pays a gradient
    /// all-reduce of its parameters within its own group, and parameter sharing
    /// is derived from the representative operators' parameter ids.
    #[must_use]
    pub fn from_plan_approximate(plan: &ExecutionPlan) -> Self {
        let metagraph = plan.metagraph();
        let (placements, _) = entry_map(plan, 0);
        let sets = DeviceSets::of(&placements, plan.device_space() as usize);
        // Every device that ran a slice of each MetaOp, by MetaOp index.
        let mut metaop_sets = vec![0u64; metagraph.num_metaops() * sets.words];
        let entries = plan.waves().iter().flat_map(|w| &w.entries);
        for (entry, placed) in entries.enumerate() {
            let at = placed.metaop.index() * sets.words;
            for (word, &bits) in metaop_sets[at..at + sets.words]
                .iter_mut()
                .zip(sets.of_entry(entry))
            {
                *word |= bits;
            }
        }
        let mut groups = GroupSums::new(metagraph.num_metaops());
        for metaop in metagraph.metaops() {
            let bytes = metaop.representative().param_bytes() * u64::from(metaop.num_ops());
            let at = metaop.id().index() * sets.words;
            groups.add(&metaop_sets[at..at + sets.words], bytes);
        }
        groups.into_pool()
    }

    /// Number of distinct device groups in the pool.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total bytes of parameters requiring synchronisation.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.groups.iter().map(|(_, bytes)| bytes).sum()
    }

    /// The groups and their synchronised byte volumes: each group sorted by
    /// device id, the groups in ascending lexicographic order.
    #[must_use]
    pub fn groups(&self) -> &[(DeviceGroup, u64)] {
        &self.groups
    }
}

/// Every wave entry's device set as a bitset over device ids: the
/// canonical form two entries share exactly when they run on the same
/// devices, in whatever order.
struct DeviceSets {
    /// `u64` words per set.
    words: usize,
    bits: Vec<u64>,
}

impl DeviceSets {
    /// The sets of `placements`, sized for ids below `space` unless some
    /// placed id is larger.
    fn of(placements: &[&[DeviceId]], space: usize) -> Self {
        let words = space.div_ceil(64).max(1);
        let mut bits = vec![0u64; placements.len() * words];
        for (set, devices) in bits.chunks_exact_mut(words).zip(placements) {
            for d in devices.iter() {
                let Some(word) = set.get_mut(d.index() / 64) else {
                    // An id past the space: size for the largest one.
                    let largest = placements.iter().flat_map(|p| p.iter()).max();
                    return Self::of(placements, largest.map_or(0, |d| d.index() + 1));
                };
                *word |= 1 << (d.index() % 64);
            }
        }
        Self { words, bits }
    }

    /// The device set of entry `entry`.
    fn of_entry(&self, entry: usize) -> &[u64] {
        &self.bits[entry * self.words..(entry + 1) * self.words]
    }
}

/// Bytes per distinct device set.
struct GroupSums(HashMap<Vec<u64>, u64>);

impl GroupSums {
    /// Sums with room made for `groups` groups.
    fn new(groups: usize) -> Self {
        Self(HashMap::with_capacity(groups))
    }

    /// Adds `bytes` to the group of the devices in `set` when it holds more
    /// than one device.
    fn add(&mut self, set: &[u64], bytes: u64) {
        if set.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
            return;
        }
        match self.0.get_mut(set) {
            Some(sum) => *sum += bytes,
            None => {
                self.0.insert(set.to_vec(), bytes);
            }
        }
    }

    fn into_pool(self) -> ParamGroupPool {
        let mut groups: Vec<(DeviceGroup, u64)> = self
            .0
            .into_iter()
            .map(|(set, bytes)| {
                let count = set.iter().map(|w| w.count_ones() as usize).sum();
                let mut devices = Vec::with_capacity(count);
                for (w, &bits) in (0..).zip(&set) {
                    let mut rest = bits;
                    while rest != 0 {
                        devices.push(DeviceId(w * 64 + rest.trailing_zeros()));
                        rest &= rest - 1;
                    }
                }
                // Ascending ids: the group is already sorted.
                (devices.into_iter().collect(), bytes)
            })
            .collect();
        groups.sort_unstable_by(|a, b| a.0.devices().cmp(b.0.devices()));
        ParamGroupPool { groups }
    }
}

/// The device list of every wave entry in plan order, and the entry that
/// executed each original operator, indexed by op id (`None` for operators
/// no entry executed), found by walking each MetaOp's slices in order.
fn entry_map(plan: &ExecutionPlan, num_ops: usize) -> (Vec<&[DeviceId]>, Vec<Option<usize>>) {
    let metagraph = plan.metagraph();
    let mut consumed = vec![0usize; metagraph.num_metaops()];
    let mut placements = Vec::new();
    let mut op_entry = vec![None; num_ops];
    for entry in plan.waves().iter().flat_map(|w| &w.entries) {
        let ops = metagraph.metaop(entry.metaop).ops();
        let start = consumed[entry.metaop.index()];
        let end = (start + entry.layers as usize).min(ops.len());
        for op in &ops[start..end] {
            // Ops outside the graph are never looked up.
            if let Some(slot) = op_entry.get_mut(op.index()) {
                *slot = Some(placements.len());
            }
        }
        consumed[entry.metaop.index()] = end;
        placements.push(
            entry
                .placement
                .as_ref()
                .map_or(&[][..], DeviceGroup::devices),
        );
    }
    (placements, op_entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_cluster::ClusterSpec;
    use spindle_core::SpindleSession;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape, XorShift64Star};

    /// Two tasks sharing a text encoder (same ParamIds) — the textbook case
    /// for cross-task parameter device groups.
    fn shared_encoder_graph() -> spindle_graph::ComputationGraph {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task("audio-text", [Modality::Audio, Modality::Text], 8);
        let t1 = b.add_task("vision-text", [Modality::Vision, Modality::Text], 8);
        let shared: Vec<_> = (0..6).map(|_| b.new_param()).collect();
        let a = b
            .add_op_chain(
                t0,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                6,
            )
            .unwrap();
        let x0 = b
            .add_op_chain_with_params(
                t0,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                &shared,
            )
            .unwrap();
        let l0 = b
            .add_op(t0, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))
            .unwrap();
        b.add_flow(*a.last().unwrap(), l0).unwrap();
        b.add_flow(*x0.last().unwrap(), l0).unwrap();
        let v = b
            .add_op_chain(
                t1,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(8, 257, 768),
                6,
            )
            .unwrap();
        let x1 = b
            .add_op_chain_with_params(
                t1,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                &shared,
            )
            .unwrap();
        let l1 = b
            .add_op(t1, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))
            .unwrap();
        b.add_flow(*v.last().unwrap(), l1).unwrap();
        b.add_flow(*x1.last().unwrap(), l1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shared_parameters_form_cross_task_groups() {
        let graph = shared_encoder_graph();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        let pool = ParamGroupPool::from_plan(&plan, &graph);
        assert!(pool.num_groups() >= 1);
        assert!(pool.total_bytes() > 0);
        // The shared text-encoder parameters must be synchronised across a
        // group that is at least as large as either task's text placement.
        let largest = pool.groups().iter().map(|(g, _)| g.len()).max().unwrap();
        assert!(largest >= 2);
    }

    #[test]
    fn approximate_pool_is_usable_without_graph() {
        let graph = shared_encoder_graph();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        let approx = ParamGroupPool::from_plan_approximate(&plan);
        assert!(approx.total_bytes() > 0);
        assert!(approx.groups().iter().all(|(group, _)| group.len() > 1));
    }

    #[test]
    fn single_device_entries_need_no_sync() {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Text], 1);
        b.add_op(
            t,
            OpKind::Encoder(Modality::Text),
            TensorShape::new(1, 77, 768),
        )
        .unwrap();
        let graph = b.build().unwrap();
        let cluster = ClusterSpec::homogeneous(1, 1);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        let pool = ParamGroupPool::from_plan(&plan, &graph);
        assert_eq!(pool.num_groups(), 0);
        assert_eq!(pool.total_bytes(), 0);
        assert!(pool.groups().is_empty());
    }

    /// The pool construction [`ParamGroupPool::from_plan`] replaced: an
    /// ordered op → devices map cloning each entry's device list, and each
    /// parameter's device union built with `Vec::contains`. Anonymous
    /// parameters are keyed `ParamId(u32::MAX - op)`, so graphs holding such
    /// an id are out of its domain.
    fn from_plan_reference(plan: &ExecutionPlan, graph: &ComputationGraph) -> ParamGroupPool {
        use spindle_core::MetaOpId;
        use spindle_graph::OpId;
        use std::collections::BTreeMap;
        let mut consumed: BTreeMap<MetaOpId, usize> = BTreeMap::new();
        let mut op_devices: BTreeMap<OpId, Vec<DeviceId>> = BTreeMap::new();
        for wave in plan.waves() {
            for entry in &wave.entries {
                let metaop = plan.metagraph().metaop(entry.metaop);
                let start = *consumed.get(&entry.metaop).unwrap_or(&0);
                let end = (start + entry.layers as usize).min(metaop.ops().len());
                let devices: Vec<DeviceId> = entry
                    .placement
                    .as_ref()
                    .map(|g| g.iter().collect())
                    .unwrap_or_default();
                for &op in &metaop.ops()[start..end] {
                    op_devices.insert(op, devices.clone());
                }
                consumed.insert(entry.metaop, end);
            }
        }
        let mut params: BTreeMap<ParamId, (Vec<DeviceId>, u64)> = BTreeMap::new();
        for op in graph.ops() {
            let Some(devices) = op_devices.get(&op.id()) else {
                continue;
            };
            if op.params().is_empty() {
                if devices.len() > 1 && op.param_bytes() > 0 {
                    let mut sorted = devices.clone();
                    sorted.sort_unstable();
                    params.insert(ParamId(u32::MAX - op.id().0), (sorted, op.param_bytes()));
                }
                continue;
            }
            let share = op.param_bytes() / op.params().len() as u64;
            for &p in op.params() {
                let entry = params.entry(p).or_insert_with(|| (Vec::new(), 0));
                for &d in devices {
                    if !entry.0.contains(&d) {
                        entry.0.push(d);
                    }
                }
                entry.1 = entry.1.max(share);
            }
        }
        let mut groups: BTreeMap<Vec<DeviceId>, u64> = BTreeMap::new();
        for (mut devices, bytes) in params.into_values() {
            if devices.len() > 1 {
                devices.sort_unstable();
                *groups.entry(devices).or_insert(0) += bytes;
            }
        }
        ParamGroupPool {
            groups: groups
                .into_iter()
                .map(|(devices, bytes)| (devices.into_iter().collect(), bytes))
                .collect(),
        }
    }

    fn assert_pool_matches_reference(plan: &ExecutionPlan, graph: &ComputationGraph) {
        let pool = ParamGroupPool::from_plan(plan, graph);
        let reference = from_plan_reference(plan, graph);
        assert!(pool.num_groups() > 1);
        assert_eq!(pool.groups(), reference.groups());
    }

    /// The hyperscale roster's first `tasks` slots minus one seeded slot.
    fn hyperscale_mix(tasks: usize, rng: &mut XorShift64Star) -> ComputationGraph {
        let dropped = (rng.next_u64() % tasks as u64) as usize;
        let slots: Vec<usize> = (0..tasks).filter(|&s| s != dropped).collect();
        spindle_workloads::hyperscale_subset(&slots).unwrap()
    }

    #[test]
    fn linear_pool_matches_the_reference_on_hyperscale_mixes() {
        let mut rng = XorShift64Star::new(0x9001);
        for (tasks, gpus) in [(48, 256), (64, 512)] {
            let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
            let graph = hyperscale_mix(tasks, &mut rng);
            let plan = SpindleSession::new(cluster).plan(&graph).unwrap();
            assert_pool_matches_reference(&plan, &graph);
        }
    }

    #[test]
    fn linear_pool_matches_the_reference_with_cross_task_sharing() {
        // Tasks share encoder (CLIP) and LM (OFASys) parameters, so a
        // parameter's holders repeat devices across ops.
        for (graph, gpus) in [
            (spindle_workloads::multitask_clip(10).unwrap(), 32),
            (spindle_workloads::ofasys(7).unwrap(), 64),
        ] {
            let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
            let plan = SpindleSession::new(cluster).plan(&graph).unwrap();
            assert_pool_matches_reference(&plan, &graph);
        }
    }

    #[test]
    fn linear_pool_matches_the_reference_after_churn() {
        let mut rng = XorShift64Star::new(0x9002);
        let graph = hyperscale_mix(48, &mut rng);
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(32, 8));
        assert_pool_matches_reference(&session.plan(&graph).unwrap(), &graph);
        // Lose seeded devices, leaving holes in the id space, then re-plan:
        // the plan is re-placed on the survivors.
        let lost: Vec<DeviceId> = (0..20)
            .map(|_| DeviceId((rng.next_u64() % 256) as u32))
            .collect();
        session.remove_devices(&lost).unwrap();
        let outcome = session.replan(&graph).unwrap();
        assert!(outcome.devices_lost > 0);
        assert_pool_matches_reference(&outcome.plan, &graph);
    }

    #[test]
    fn approximate_pool_matches_the_reference_on_hyperscale_mixes() {
        // The per-MetaOp device union the bitset pool replaced, sorted and
        // deduplicated into an ordered map.
        let reference = |plan: &ExecutionPlan| {
            use std::collections::BTreeMap;
            let metagraph = plan.metagraph();
            let mut devices: Vec<Vec<DeviceId>> = vec![Vec::new(); metagraph.num_metaops()];
            for entry in plan.waves().iter().flat_map(|w| &w.entries) {
                if let Some(group) = &entry.placement {
                    devices[entry.metaop.index()].extend(group.iter());
                }
            }
            let mut sums: BTreeMap<Vec<DeviceId>, u64> = BTreeMap::new();
            for metaop in metagraph.metaops() {
                let mut set = devices[metaop.id().index()].clone();
                set.sort_unstable();
                set.dedup();
                if set.len() > 1 {
                    let bytes = metaop.representative().param_bytes() * u64::from(metaop.num_ops());
                    *sums.entry(set).or_insert(0) += bytes;
                }
            }
            sums.into_iter()
                .map(|(set, bytes)| (set.into_iter().collect::<DeviceGroup>(), bytes))
                .collect::<Vec<_>>()
        };
        let mut rng = XorShift64Star::new(0x9003);
        for (tasks, gpus) in [(48, 256), (64, 512)] {
            let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
            let graph = hyperscale_mix(tasks, &mut rng);
            let plan = SpindleSession::new(cluster).plan(&graph).unwrap();
            let pool = ParamGroupPool::from_plan_approximate(&plan);
            assert!(pool.num_groups() > 1);
            assert_eq!(pool.groups(), reference(&plan));
        }
    }

    #[test]
    fn anonymous_parameters_never_merge_with_a_named_one() {
        // Op 0 has no ParamId; op 1 holds ParamId(u32::MAX), the id the
        // anonymous parameter of op 0 used to be keyed by.
        let mut b = GraphBuilder::new();
        let t0 = b.add_task("anonymous", [Modality::Text], 8);
        let t1 = b.add_task("named", [Modality::Text], 8);
        let shape = TensorShape::new(8, 77, 1024);
        let kind = OpKind::Encoder(Modality::Text);
        b.add_op_with_params(t0, kind, shape, &[]).unwrap();
        b.add_op_with_params(t1, kind, shape, &[ParamId(u32::MAX)])
            .unwrap();
        let graph = b.build().unwrap();
        let metagraph = spindle_core::MetaGraph::contract(&graph);
        assert_eq!(metagraph.num_metaops(), 2);
        // Both ops run on the same 16 devices, one wave each.
        let waves = metagraph
            .metaops()
            .iter()
            .enumerate()
            .map(|(i, metaop)| {
                let mut entry = spindle_core::WaveEntry::new(metaop.id(), 1, 16, 1.0);
                entry.placement = Some(DeviceGroup::contiguous(DeviceId(0), 16));
                spindle_core::Wave {
                    index: i,
                    level: i,
                    start: i as f64,
                    duration: 1.0,
                    entries: vec![entry],
                }
            })
            .collect();
        let plan = ExecutionPlan::new(waves, metagraph, 16, 2.0, std::time::Duration::ZERO);
        plan.validate().unwrap();
        let pool = ParamGroupPool::from_plan(&plan, &graph);
        let both = graph.ops()[0].param_bytes() + graph.ops()[1].param_bytes();
        assert!(graph.ops()[0].param_bytes() > 0);
        assert_eq!(pool.num_groups(), 1);
        assert_eq!(pool.total_bytes(), both);
    }
}
