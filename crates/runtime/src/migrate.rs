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
//! sharing link bandwidth equal-share at the most contended link. The
//! contended price is what the elastic run loop charges the timeline.

use std::ops::Range;

use spindle_cluster::{ClusterSpec, CommModel, DeviceId, NodeSpan};
use spindle_core::{ExecutionPlan, MetaOpId, Residency, SiteSet};

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
    /// State bytes restored: the MetaOp's per-device memory footprint, which
    /// is exactly what its shard's checkpoint holds.
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
/// or absent from the old plan (fresh arrivals) emit nothing. Flows and
/// restores come out in the order `new` first places each MetaOp on each
/// device.
#[must_use]
pub fn migration_flows(
    old: &ExecutionPlan,
    new: &ExecutionPlan,
    cluster: &ClusterSpec,
) -> MigrationPlan {
    let old_sites = Residency::new(old.waves());
    let survivors = old_sites.survivors(cluster);
    let mut plan = MigrationPlan::default();
    let mut seen = SiteSet::for_waves(new.waves());
    for entry in new.waves().iter().flat_map(|w| &w.entries) {
        let Some(group) = &entry.placement else {
            continue;
        };
        let m = entry.metaop;
        if old_sites.sites(m).is_empty() || entry.memory_per_device == 0 {
            continue;
        }
        let first = survivors.first(m);
        for d in group.iter() {
            if !seen.insert(m, d) || (old_sites.holds(m, d) && cluster.contains(d)) {
                continue;
            }
            let Some(first) = first else {
                // Every old replica died: the shard must come back from the
                // checkpoint tier.
                plan.restores.push(RestoreFlow {
                    metaop: m,
                    to: d,
                    bytes: entry.memory_per_device,
                });
                continue;
            };
            let near = cluster
                .node_of(d)
                .ok()
                .and_then(|node| survivors.on_node(m, node));
            plan.flows.push(MigrationFlow {
                metaop: m,
                from: near.unwrap_or(first),
                to: d,
                bytes: entry.memory_per_device,
            });
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
///
/// The price advances in rounds: each round runs to the next completion at
/// the current rates (the least remaining time times slowdown over the live
/// flows), every live flow loses the round's time divided by its slowdown,
/// and flows left within `1e-12` of the elapsed time finish together.
///
/// A point-to-point flow crosses at most two links, and flows on the same
/// two links see the same slowdown in every round, so the rounds price each
/// such link-pair group at once: one slowdown, one product and one division
/// per group and round. This is exact, not an approximation: each flow sees
/// the float operations it would see priced alone, because subtracting one
/// value keeps a group's remaining times in order (rounding is monotone),
/// and flows with bit-equal remaining times finish in the same round.
#[must_use]
pub fn price_migration(cluster: &ClusterSpec, flows: &[MigrationFlow], contended: bool) -> f64 {
    // A point-to-point flow crosses at most two links (an island bus, or an
    // uplink and a downlink); `NONE` pads a shorter footprint.
    const NONE: u32 = u32::MAX;
    let comm = CommModel::new(cluster);
    let (mut from, mut to) = (NodeSpan::default(), NodeSpan::default());
    let mut links = Vec::new();
    let mut priced = Vec::with_capacity(flows.len());
    for f in flows {
        from.fill(cluster, &[f.from]);
        to.fill(cluster, &[f.to]);
        links.clear();
        NodeSpan::transfer_links(&from, &to, &mut links);
        debug_assert!(links.len() <= 2, "a point-to-point flow crossed {links:?}");
        let mut pair = [NONE; 2];
        for (slot, link) in pair.iter_mut().zip(&links) {
            *slot = link.slot();
        }
        priced.push((pair, comm.p2p_time(f.from, f.to, f.bytes)));
    }
    // The slot past the last link stands for a missing link.
    let idle = priced
        .iter()
        .flat_map(|(pair, _)| pair)
        .filter(|&&slot| slot != NONE)
        .max()
        .map_or(0, |&slot| slot + 1);
    for slot in priced
        .iter_mut()
        .flat_map(|(pair, _)| pair)
        .filter(|slot| **slot == NONE)
    {
        *slot = idle;
    }
    let share = |a: u32, b: u32| f64::from(a.max(b).max(1));
    price_rounds(priced, idle, contended, share)
}

/// The round model of [`price_migration`] and
/// [`price_restore`](crate::price_restore): flow `(slots, remaining)` needs
/// `remaining` seconds at its nominal rate and occupies the two slots
/// `slots`. With `contended`, each slot counts its live flows, and a flow's
/// slowdown is `share` of its two slots' counts; slot `idle` stands for no
/// resource and never counts a flow. Without, every count stays zero. Each
/// round runs to the next completion at the current rates (the least
/// remaining time times slowdown), every live flow loses the round's time
/// divided by its slowdown, and flows left within `1e-12` of the elapsed
/// time finish together and release their slots. Returns the makespan,
/// seconds.
///
/// The rounds work per link-pair group, which prices every flow set
/// bit-identically to rounds over single flows. Flows on the same two slots
/// see the same slowdown in every round, so a group computes one slowdown,
/// one product and one division per round. Rounding is monotone, so
/// subtracting one step from a group keeps its flows in order of remaining
/// time, and flows whose remaining times are bit-equal stay bit-equal and
/// finish in the same round: each group is sorted once, bit-equal flows
/// merge into one entry with a flow count, the least remaining time of a
/// group is its first live entry, and finished entries leave from the front
/// and release their slots by their count.
pub(crate) fn price_rounds(
    mut flows: Vec<([u32; 2], f64)>,
    idle: u32,
    contended: bool,
    share: impl Fn(u32, u32) -> f64,
) -> f64 {
    /// The flows on one slot pair: their live entries, in ascending
    /// remaining time, and their slowdown in the current round.
    struct Group {
        slots: [u32; 2],
        live: Range<usize>,
        slowdown: f64,
    }
    let mut count = vec![0u32; idle as usize + 1];
    if contended {
        for &slot in flows
            .iter()
            .flat_map(|(slots, _)| slots)
            .filter(|&&slot| slot != idle)
        {
            count[slot as usize] += 1;
        }
    }
    // A remaining time is a latency plus bytes over a bandwidth, which
    // `ClusterSpec` checks, so it is +0.0 or positive and finite, and its
    // bits sort as its value does.
    debug_assert!(flows
        .iter()
        .all(|(_, r)| r.is_sign_positive() && r.is_finite()));
    flows.sort_unstable_by_key(|&([a, b], r)| (u64::from(a) << 32 | u64::from(b), r.to_bits()));
    // Entries are (remaining time, flows), grouped by slot pair.
    let mut entries: Vec<(f64, u32)> = Vec::with_capacity(flows.len());
    let mut groups: Vec<Group> = Vec::new();
    for &(slots, remaining) in &flows {
        match (groups.last_mut(), entries.last_mut()) {
            (Some(group), Some(last)) if group.slots == slots => {
                if last.0.to_bits() == remaining.to_bits() {
                    last.1 += 1;
                } else {
                    entries.push((remaining, 1));
                    group.live.end += 1;
                }
            }
            _ => {
                groups.push(Group {
                    slots,
                    live: entries.len()..entries.len() + 1,
                    slowdown: 1.0,
                });
                entries.push((remaining, 1));
            }
        }
    }
    let mut now = 0.0_f64;
    while !groups.is_empty() {
        let mut step = f64::INFINITY;
        for group in &mut groups {
            let [a, b] = group.slots;
            group.slowdown = share(count[a as usize], count[b as usize]);
            step = step.min(entries[group.live.start].0 * group.slowdown);
        }
        now += step;
        let eps = 1e-12 * now.max(1.0);
        groups.retain_mut(|group| {
            let pace = step / group.slowdown;
            for (remaining, _) in &mut entries[group.live.clone()] {
                *remaining -= pace;
            }
            let mut finished = 0;
            while group.live.start < group.live.end && entries[group.live.start].0 <= eps {
                finished += entries[group.live.start].1;
                group.live.start += 1;
            }
            if contended && finished > 0 {
                for &slot in group.slots.iter().filter(|&&slot| slot != idle) {
                    count[slot as usize] -= finished;
                }
            }
            !group.live.is_empty()
        });
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use spindle_cluster::{transfer_footprint, DeviceGroup, LinkId};
    use spindle_core::SpindleSession;
    use spindle_graph::{
        ComputationGraph, GraphBuilder, Modality, OpKind, TensorShape, XorShift64Star,
    };

    /// The reference pricing loop: every round recomputes every flow's
    /// congestion from a per-link flow count keyed by [`LinkId`] over the
    /// flow's [`transfer_footprint`]. [`price_migration`] keeps dense
    /// per-slot counts and prices flows per link-pair group, and must price
    /// every flow set bit-identically.
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

    /// `count` flows drawn on `cluster`: every third stays on its source's
    /// node, and sizes come from a few values, so several flows often finish
    /// in one round.
    fn draw_flows(
        cluster: &ClusterSpec,
        rng: &mut XorShift64Star,
        count: usize,
    ) -> Vec<MigrationFlow> {
        let devices: Vec<DeviceId> = cluster.all_devices().iter().collect();
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let sizes = [1u64 << 24, 3 << 26, 1 << 30, 5 << 27];
        (0..count)
            .map(|k| {
                let from = devices[pick(devices.len())];
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
            .collect()
    }

    #[test]
    fn cached_congestion_prices_bit_identically_to_the_reference() {
        // Four nodes of eight with holes, so flows mix same-node pairs,
        // cross-node pairs and several flows out of (or into) one node; then
        // a few flow sets of the size a device event moves on 32 nodes; then
        // the moves of a seeded node loss from the 48-task mix, which leave
        // few source nodes and carry many equal-size shards, so many flows
        // share a link pair and a remaining time.
        let small = ClusterSpec::homogeneous(4, 8)
            .without_devices(&[DeviceId(3), DeviceId(12), DeviceId(13)])
            .unwrap();
        let large = ClusterSpec::homogeneous(32, 8)
            .without_devices(&(40..48).chain([3, 200]).map(DeviceId).collect::<Vec<_>>())
            .unwrap();
        let mut rng = XorShift64Star::new(0x5EED_F10E);
        let check = |cluster: &ClusterSpec, flows: &[MigrationFlow], case| {
            for contended in [true, false] {
                let got = price_migration(cluster, flows, contended);
                let want = price_migration_reference(cluster, flows, contended);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} ({} flows), contended {contended}: {got} vs {want}",
                    flows.len()
                );
            }
        };
        for case in 0..200 {
            let count = 1 + (rng.next_u64() % 48) as usize;
            check(&small, &draw_flows(&small, &mut rng, count), case);
        }
        for (case, count) in (200..).zip([1_000, 1_200, 1_430]) {
            check(&large, &draw_flows(&large, &mut rng, count), case);
        }
        let graph = spindle_workloads::hyperscale(48).unwrap();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(32, 8));
        let before = session.plan(&graph).unwrap();
        let node = (rng.next_u64() % 32) as u32;
        session
            .remove_devices(&(8 * node..8 * node + 8).map(DeviceId).collect::<Vec<_>>())
            .unwrap();
        let after = session.replan(&graph).unwrap().plan;
        let survivors = session.cluster_handle();
        let flows = migration_flows(&before, &after, &survivors).flows;
        assert!(
            flows.len() > 1_000,
            "node {node} moved {} shards",
            flows.len()
        );
        check(&survivors, &flows, 203);
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
