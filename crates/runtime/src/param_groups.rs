//! Parameter device groups and group-wise synchronisation (§3.6 step 3).
//!
//! For every (possibly shared) parameter, all devices that hold a replica must
//! accumulate and synchronise its gradient once per iteration. Spindle scans
//! the placed plan before training, determines the device group of each
//! parameter, and maintains a pool `{D_i → {W_j}}` mapping device groups to the
//! parameter sets synchronised within them — one all-reduce per group per
//! iteration instead of one per parameter.

use std::collections::BTreeMap;

use spindle_cluster::{CommModel, DeviceGroup, DeviceId};
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
        let mut groups = GroupSums::default();
        let mut rest = holders.as_slice();
        while let Some(&(param, first, _)) = rest.first() {
            let count = rest.iter().take_while(|h| h.0 == param).count();
            let (held, tail) = rest.split_at(count);
            rest = tail;
            let bytes = held.iter().map(|h| h.2).max().unwrap_or(0);
            if held[count - 1].1 == first {
                *entry_bytes[first].get_or_insert(0) += bytes;
            } else {
                groups.add(held.iter().flat_map(|h| placements[h.1]), bytes);
            }
        }
        for (entry, bytes) in entry_bytes.into_iter().enumerate() {
            if let Some(bytes) = bytes {
                groups.add(placements[entry], bytes);
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
        let mut metaop_devices: Vec<Vec<DeviceId>> = vec![Vec::new(); metagraph.num_metaops()];
        for entry in plan.waves().iter().flat_map(|w| &w.entries) {
            if let Some(group) = &entry.placement {
                metaop_devices[entry.metaop.index()].extend(group.iter());
            }
        }
        let mut groups = GroupSums::default();
        for metaop in metagraph.metaops() {
            let bytes = metaop.representative().param_bytes() * u64::from(metaop.num_ops());
            groups.add(&metaop_devices[metaop.id().index()], bytes);
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

    /// Total group-wise synchronisation time per iteration, seconds.
    #[must_use]
    pub fn sync_time(&self, comm: &CommModel) -> f64 {
        self.groups
            .iter()
            .map(|(group, bytes)| comm.all_reduce_time(group, *bytes))
            .sum()
    }
}

/// Bytes per sorted device group, keyed through one reused scratch buffer.
#[derive(Default)]
struct GroupSums {
    sums: BTreeMap<Vec<DeviceId>, u64>,
    scratch: Vec<DeviceId>,
}

impl GroupSums {
    /// Adds `bytes` to the group of `devices` (repeats allowed) when it
    /// spans more than one device.
    fn add<'a>(&mut self, devices: impl IntoIterator<Item = &'a DeviceId>, bytes: u64) {
        self.scratch.clear();
        self.scratch.extend(devices);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        if self.scratch.len() < 2 {
            return;
        }
        match self.sums.get_mut(self.scratch.as_slice()) {
            Some(sum) => *sum += bytes,
            None => {
                self.sums.insert(self.scratch.clone(), bytes);
            }
        }
    }

    fn into_pool(self) -> ParamGroupPool {
        ParamGroupPool {
            groups: self
                .sums
                .into_iter()
                .map(|(devices, bytes)| (devices.into_iter().collect(), bytes))
                .collect(),
        }
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
        let comm = CommModel::new(&cluster);
        assert!(pool.sync_time(&comm) > 0.0);
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
        let comm = CommModel::new(&cluster);
        assert!(approx.sync_time(&comm) >= 0.0);
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
        GroupSums {
            sums: groups,
            scratch: Vec::new(),
        }
        .into_pool()
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
        // the resumed placement keeps a clean prefix and places the rest on
        // the survivors.
        let lost: Vec<DeviceId> = (0..20)
            .map(|_| DeviceId((rng.next_u64() % 256) as u32))
            .collect();
        session.remove_devices(&lost).unwrap();
        let outcome = session.replan(&graph).unwrap();
        assert!(outcome.devices_lost > 0);
        assert_pool_matches_reference(&outcome.plan, &graph);
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
