//! Parameter-migration flows after a topology change, priced through the
//! simulator's link-contention model.
//!
//! When the planner re-places a workload after device churn, every device
//! that newly hosts a MetaOp replica must receive that replica's parameter
//! shard from a surviving old replica. The planner itself prices this
//! serially with the α-β interconnect model (an upper bound, reported as
//! `ReplanOutcome::migration_cost`); this module derives the *concrete* flow
//! set from the old and new plans and prices it the way the event-driven
//! simulator prices wave-boundary traffic — all flows issued concurrently,
//! sharing link bandwidth equal-share at the most contended link
//! ([`LinkOccupancy`]). The contended price is what the elastic run loop
//! charges the timeline.

use std::collections::BTreeMap;

use spindle_cluster::{ClusterSpec, CommModel, DeviceId, LinkOccupancy, NodeSpan};
use spindle_core::{ExecutionPlan, MetaOpId};

/// One parameter-shard move: `bytes` of MetaOp state travel from a surviving
/// replica to a device that newly hosts the MetaOp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationFlow {
    /// The MetaOp whose state moves.
    pub metaop: MetaOpId,
    /// Surviving source replica.
    pub from: DeviceId,
    /// Newly placed destination device.
    pub to: DeviceId,
    /// Parameter bytes moved (the MetaOp's per-device memory footprint).
    pub bytes: u64,
}

/// One checkpoint-restore transfer: `bytes` of MetaOp state stream from the
/// storage tier onto a device that must re-materialise a replica no survivor
/// holds. Priced by [`price_restore`](crate::price_restore) over the storage
/// links, not the compute fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreFlow {
    /// The MetaOp whose state is restored.
    pub metaop: MetaOpId,
    /// The device receiving the restored shard.
    pub to: DeviceId,
    /// State bytes restored (the MetaOp's per-device memory footprint —
    /// scaled to checkpoint bytes by the active
    /// [`CheckpointPolicy`](crate::CheckpointPolicy) at pricing time).
    pub bytes: u64,
}

/// The full recovery work implied by re-placing a plan after churn: state
/// that can *move* from surviving replicas, and state that must be
/// *re-materialised* from the last checkpoint because every replica died.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Parameter moves from surviving replicas, priced over the compute
    /// fabric by [`price_migration`].
    pub flows: Vec<MigrationFlow>,
    /// Restores of all-replicas-dead MetaOps, one per receiving device,
    /// priced over the storage tier.
    pub restores: Vec<RestoreFlow>,
}

impl MigrationPlan {
    /// Total bytes moved between surviving devices.
    #[must_use]
    pub fn migration_bytes(&self) -> u64 {
        migration_bytes(&self.flows)
    }

    /// Total state bytes that must be restored from storage.
    #[must_use]
    pub fn restore_bytes(&self) -> u64 {
        self.restores.iter().map(|f| f.bytes).sum()
    }

    /// Number of distinct MetaOps that lost every replica.
    #[must_use]
    pub fn rematerialized_metaops(&self) -> usize {
        let mut ids: Vec<MetaOpId> = self.restores.iter().map(|f| f.metaop).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Derives the recovery work implied by re-placing `old` as `new` on
/// `cluster` (the post-churn cluster: its device set is the survivor set).
///
/// For every device that hosts a MetaOp in `new` but did not in `old`, one
/// [`MigrationFlow`] is emitted from the nearest surviving old replica — a
/// same-node replica if one exists, otherwise the first surviving replica.
/// A MetaOp whose old replicas *all* died cannot be moved: each of its new
/// sites gets a [`RestoreFlow`] from storage instead, so lost state is
/// always counted, never silently dropped. MetaOps with no annotated memory
/// or absent from the old plan (fresh arrivals) emit nothing.
#[must_use]
pub fn migration_flows(
    old: &ExecutionPlan,
    new: &ExecutionPlan,
    cluster: &ClusterSpec,
) -> MigrationPlan {
    let mut old_metaops: Vec<MetaOpId> = Vec::new();
    let mut old_sites: BTreeMap<MetaOpId, Vec<DeviceId>> = BTreeMap::new();
    for wave in old.waves() {
        for entry in &wave.entries {
            let Some(group) = &entry.placement else {
                continue;
            };
            if !old_metaops.contains(&entry.metaop) {
                old_metaops.push(entry.metaop);
            }
            let sites = old_sites.entry(entry.metaop).or_default();
            for d in group.iter() {
                if cluster.contains(d) && !sites.contains(&d) {
                    sites.push(d);
                }
            }
        }
    }
    let mut plan = MigrationPlan::default();
    let mut new_seen: BTreeMap<MetaOpId, Vec<DeviceId>> = BTreeMap::new();
    for wave in new.waves() {
        for entry in &wave.entries {
            let Some(group) = &entry.placement else {
                continue;
            };
            if !old_metaops.contains(&entry.metaop) || entry.memory_per_device == 0 {
                continue;
            }
            let sources = old_sites.get(&entry.metaop).map_or(&[][..], Vec::as_slice);
            let seen = new_seen.entry(entry.metaop).or_default();
            for d in group.iter() {
                if seen.contains(&d) {
                    continue;
                }
                seen.push(d);
                if sources.contains(&d) {
                    continue;
                }
                if sources.is_empty() {
                    // Every old replica died: the shard must come back from
                    // the checkpoint tier.
                    plan.restores.push(RestoreFlow {
                        metaop: entry.metaop,
                        to: d,
                        bytes: entry.memory_per_device,
                    });
                    continue;
                }
                let node = cluster.node_of(d).ok();
                let from = sources
                    .iter()
                    .copied()
                    .find(|&s| cluster.node_of(s).ok() == node && node.is_some())
                    .unwrap_or(sources[0]);
                plan.flows.push(MigrationFlow {
                    metaop: entry.metaop,
                    from,
                    to: d,
                    bytes: entry.memory_per_device,
                });
            }
        }
    }
    plan
}

/// Total bytes moved by a flow set.
#[must_use]
pub fn migration_bytes(flows: &[MigrationFlow]) -> u64 {
    flows.iter().map(|f| f.bytes).sum()
}

/// Prices a migration flow set on `cluster`: all flows start concurrently,
/// and with `contended` each flow's service rate is its nominal bandwidth
/// divided by the worst concurrent-flow count on any link of its footprint —
/// exactly the equal-share model the event-driven simulator applies to
/// wave-boundary traffic. Without contention, flows overlap at full rate and
/// the price is the slowest flow. Returns the makespan of the migration,
/// seconds.
#[must_use]
pub fn price_migration(cluster: &ClusterSpec, flows: &[MigrationFlow], contended: bool) -> f64 {
    struct Active {
        remaining_s: f64,
        /// The flow's link slots: `slots[footprint.0..footprint.1]`.
        footprint: (usize, usize),
        /// The flow's equal-share slowdown, recomputed only when a flow
        /// sharing one of its links completes.
        congestion: f64,
    }
    let comm = CommModel::new(cluster);
    let (mut from, mut to) = (NodeSpan::default(), NodeSpan::default());
    let mut links = Vec::new();
    let mut slots: Vec<u32> = Vec::new();
    let mut active: Vec<Active> = flows
        .iter()
        .map(|f| {
            from.fill(cluster, &[f.from]);
            to.fill(cluster, &[f.to]);
            links.clear();
            NodeSpan::transfer_links(&from, &to, &mut links);
            let start = slots.len();
            slots.extend(links.iter().map(|l| l.slot()));
            Active {
                remaining_s: comm.p2p_time(f.from, f.to, f.bytes),
                footprint: (start, slots.len()),
                congestion: 1.0,
            }
        })
        .collect();
    let footprint = |flow: &Active| &slots[flow.footprint.0..flow.footprint.1];
    let mut occupancy = LinkOccupancy::for_cluster(cluster);
    let mut touched = Vec::new();
    if contended {
        for (id, flow) in (0..).zip(&active) {
            occupancy.register(id, footprint(flow));
        }
        for flow in &mut active {
            flow.congestion = f64::from(occupancy.congestion(footprint(flow)));
        }
    }
    let mut live: Vec<usize> = (0..active.len()).collect();
    // The last round whose completions touched each flow.
    let mut touched_in = vec![0usize; active.len()];
    let mut round = 0;
    let mut now = 0.0_f64;
    while !live.is_empty() {
        round += 1;
        // Next completion at current equal-share rates.
        let step = live
            .iter()
            .map(|&i| active[i].remaining_s * active[i].congestion)
            .fold(f64::INFINITY, f64::min);
        now += step;
        for &i in &live {
            active[i].remaining_s -= step / active[i].congestion;
        }
        let eps = 1e-12 * now.max(1.0);
        live.retain(|&i| {
            let done = active[i].remaining_s <= eps;
            if done && contended {
                occupancy.release(i as u32, footprint(&active[i]));
                for &slot in footprint(&active[i]) {
                    touched.extend_from_slice(occupancy.flows_on(slot));
                }
            }
            !done
        });
        // Only flows on a released link can change speed.
        for i in touched.drain(..) {
            let i = i as usize;
            if touched_in[i] != round {
                touched_in[i] = round;
                active[i].congestion = f64::from(occupancy.congestion(footprint(&active[i])));
            }
        }
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_cluster::{transfer_footprint, DeviceGroup, LinkId};
    use spindle_core::SpindleSession;
    use spindle_graph::{
        ComputationGraph, GraphBuilder, Modality, OpKind, TensorShape, XorShift64Star,
    };

    /// The reference pricing loop: every round recomputes every flow's
    /// congestion from a per-link flow count. [`price_migration`] caches
    /// congestion and must price every flow set bit-identically.
    fn price_migration_reference(
        cluster: &ClusterSpec,
        flows: &[MigrationFlow],
        contended: bool,
    ) -> f64 {
        struct Active {
            remaining_s: f64,
            footprint: Vec<LinkId>,
        }
        fn congestion(counts: &BTreeMap<LinkId, usize>, footprint: &[LinkId]) -> usize {
            footprint
                .iter()
                .map(|l| counts.get(l).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
                .max(1)
        }
        let comm = CommModel::new(cluster);
        let mut active: Vec<Active> = flows
            .iter()
            .map(|f| Active {
                remaining_s: comm.p2p_time(f.from, f.to, f.bytes),
                footprint: transfer_footprint(
                    cluster,
                    &DeviceGroup::contiguous(f.from, 1),
                    &DeviceGroup::contiguous(f.to, 1),
                ),
            })
            .collect();
        let mut counts: BTreeMap<LinkId, usize> = BTreeMap::new();
        if contended {
            for link in active.iter().flat_map(|f| &f.footprint) {
                *counts.entry(*link).or_insert(0) += 1;
            }
        }
        let mut now = 0.0_f64;
        while !active.is_empty() {
            let step = active
                .iter()
                .map(|f| f.remaining_s * congestion(&counts, &f.footprint) as f64)
                .fold(f64::INFINITY, f64::min);
            now += step;
            for flow in &mut active {
                flow.remaining_s -= step / congestion(&counts, &flow.footprint) as f64;
            }
            let eps = 1e-12 * now.max(1.0);
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining_s <= eps {
                    let done = active.swap_remove(i);
                    if contended {
                        for link in &done.footprint {
                            *counts.get_mut(link).expect("registered") -= 1;
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
        now
    }

    #[test]
    fn cached_congestion_prices_bit_identically_to_the_reference() {
        // Four nodes of eight with holes, so flows mix same-node pairs,
        // cross-node pairs and several flows out of (or into) one node.
        let cluster = ClusterSpec::homogeneous(4, 8)
            .without_devices(&[DeviceId(3), DeviceId(12), DeviceId(13)])
            .unwrap();
        let devices: Vec<DeviceId> = cluster.all_devices().iter().collect();
        let mut rng = XorShift64Star::new(0x5EED_F10E);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        for round in 0..200 {
            let count = 1 + pick(48);
            // Few distinct sizes, so several flows often finish in one round.
            let sizes = [1u64 << 24, 3 << 26, 1 << 30, 5 << 27];
            let flows: Vec<MigrationFlow> = (0..count)
                .map(|k| {
                    let from = devices[pick(devices.len())];
                    // Every third flow stays on its source's node.
                    let to = if k % 3 == 0 {
                        let node = cluster.node_of(from).unwrap().index();
                        let peers = &cluster.nodes()[node].devices;
                        peers[pick(peers.len())]
                    } else {
                        devices[pick(devices.len())]
                    };
                    MigrationFlow {
                        metaop: MetaOpId(k as u32),
                        from,
                        to,
                        bytes: sizes[pick(sizes.len())] + pick(3) as u64,
                    }
                })
                .collect();
            for contended in [true, false] {
                let got = price_migration(&cluster, &flows, contended);
                let want = price_migration_reference(&cluster, &flows, contended);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "round {round}, contended {contended}: {got} vs {want}"
                );
            }
        }
    }

    fn graph() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let t = b.add_task("audio-text", [Modality::Audio, Modality::Text], 64);
        let audio = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(64, 229, 768),
                8,
            )
            .unwrap();
        let text = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(64, 77, 768),
                6,
            )
            .unwrap();
        let loss = b
            .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(64, 1, 768))
            .unwrap();
        b.add_flow(*audio.last().unwrap(), loss).unwrap();
        b.add_flow(*text.last().unwrap(), loss).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn identical_plans_need_no_migration() {
        let cluster = ClusterSpec::homogeneous(2, 4);
        let g = graph();
        let plan = SpindleSession::new(cluster.clone()).plan(&g).unwrap();
        let migration = migration_flows(&plan, &plan, &cluster);
        assert!(
            migration.flows.is_empty(),
            "same placement moves nothing: {:?}",
            migration.flows
        );
        assert!(migration.restores.is_empty());
        assert_eq!(migration.rematerialized_metaops(), 0);
        assert_eq!(price_migration(&cluster, &migration.flows, true), 0.0);
    }

    #[test]
    fn device_loss_produces_priced_flows_from_survivors() {
        let full = ClusterSpec::homogeneous(2, 4);
        let g = graph();
        let mut session = SpindleSession::new(full.clone());
        let old = session.plan(&g).unwrap();
        session.remove_devices(&[DeviceId(7)]).unwrap();
        let new = session.replan(&g).unwrap().plan;
        let shrunk = session.cluster_handle();
        let flows = migration_flows(&old, &new, &shrunk).flows;
        // Every flow originates at a survivor and lands on a survivor that
        // did not previously host the MetaOp.
        for flow in &flows {
            assert_ne!(flow.from, DeviceId(7));
            assert_ne!(flow.to, DeviceId(7));
            assert_ne!(flow.from, flow.to);
            assert!(flow.bytes > 0);
        }
        if !flows.is_empty() {
            let relaxed = price_migration(&shrunk, &flows, false);
            let contended = price_migration(&shrunk, &flows, true);
            assert!(relaxed > 0.0);
            assert!(
                contended >= relaxed - 1e-12,
                "contention can only slow migration: {contended} vs {relaxed}"
            );
        }
    }

    #[test]
    fn all_dead_metaops_are_surfaced_as_restores_never_dropped() {
        // A multi-task mix partitions across the two nodes, so killing node 1
        // takes every replica of the MetaOps confined to it: their state must
        // be re-materialised, not migrated.
        let full = ClusterSpec::homogeneous(2, 4);
        let g = spindle_workloads::multitask_clip(5).unwrap();
        let mut session = SpindleSession::new(full.clone());
        let old = session.plan(&g).unwrap();
        let dead: Vec<DeviceId> = (4..8).map(DeviceId).collect();

        // Ground truth from the old plan: MetaOps whose replica sites —
        // unioned across every wave — live entirely inside the dead set.
        let mut sites: BTreeMap<MetaOpId, Vec<DeviceId>> = BTreeMap::new();
        let mut stateful: Vec<MetaOpId> = Vec::new();
        for wave in old.waves() {
            for entry in &wave.entries {
                let group = entry.placement.as_ref().unwrap();
                sites.entry(entry.metaop).or_default().extend(group.iter());
                if entry.memory_per_device > 0 && !stateful.contains(&entry.metaop) {
                    stateful.push(entry.metaop);
                }
            }
        }
        let all_dead: Vec<MetaOpId> = sites
            .iter()
            .filter(|(id, devs)| stateful.contains(id) && devs.iter().all(|d| dead.contains(d)))
            .map(|(id, _)| *id)
            .collect();
        assert!(
            !all_dead.is_empty(),
            "the scenario must actually kill some MetaOp's every replica"
        );

        session.remove_devices(&dead).unwrap();
        let new = session.replan(&g).unwrap().plan;
        let shrunk = session.cluster_handle();
        let migration = migration_flows(&old, &new, &shrunk);
        // Regression: the all-dead MetaOps are counted, not silently skipped.
        assert_eq!(migration.rematerialized_metaops(), all_dead.len());
        assert!(migration.restore_bytes() > 0);
        for restore in &migration.restores {
            assert!(all_dead.contains(&restore.metaop));
            assert!(!dead.contains(&restore.to), "restore lands on a survivor");
            assert!(restore.bytes > 0);
        }
        // And no migration flow claims to source from a dead device.
        for flow in &migration.flows {
            assert!(!dead.contains(&flow.from));
        }
    }

    #[test]
    fn contention_prices_shared_links_above_the_lone_flow() {
        let cluster = ClusterSpec::homogeneous(2, 4);
        // Two cross-island flows out of the same node share its uplink.
        let flows = vec![
            MigrationFlow {
                metaop: MetaOpId(0),
                from: DeviceId(0),
                to: DeviceId(4),
                bytes: 1 << 30,
            },
            MigrationFlow {
                metaop: MetaOpId(1),
                from: DeviceId(1),
                to: DeviceId(5),
                bytes: 1 << 30,
            },
        ];
        let lone = price_migration(&cluster, &flows[..1], true);
        let both = price_migration(&cluster, &flows, true);
        assert!(both > lone * 1.5, "shared uplink must halve the rate");
    }
}
