//! Checkpoint/restore semantics: priced recovery of replicas no survivor
//! holds, and steady-state checkpoint-write charges.
//!
//! [`migration_flows`](crate::migration_flows) partitions post-churn state
//! movement into migratable flows (a surviving replica exists) and
//! [`RestoreFlow`](crate::RestoreFlow)s (every replica died). This module
//! prices the second kind: restore traffic streams from the checkpoint tier
//! over the cluster's [`StorageSpec`](spindle_cluster::StorageSpec) links —
//! per-node storage links behind a shared, oversubscribed spine — using the
//! same concurrent next-completion advance the migration pricer applies to
//! the compute fabric. On top of that, a [`CheckpointPolicy`] fixes *what*
//! can be restored: state is only as fresh as the last checkpoint, so a
//! re-materialised MetaOp drags every iteration since that checkpoint back
//! with it (lost-progress replay), and the checkpoints themselves cost
//! steady-state write stalls (synchronous) or background storage flows
//! contending with training traffic (`async_overlap`).

use spindle_cluster::{ClusterSpec, LinkId};
use spindle_core::{ExecutionPlan, SiteSet};

use crate::migrate::{price_rounds, RestoreFlow};
use crate::sim::BackgroundFlow;

/// When and how checkpoints are written. A shard's checkpoint holds its
/// resident state bytes.
///
/// `cadence_iters: None` disables checkpoint modeling entirely: no write
/// charges, no restore pricing, no replay — the optimistic pre-checkpoint
/// behavior, and the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointPolicy {
    /// A checkpoint is written every this many iterations (`None` = never).
    pub cadence_iters: Option<u32>,
    /// `true` overlaps checkpoint writes with training: instead of a full
    /// synchronous stall, the write runs as background storage flows that
    /// contend with the iteration's own traffic in the event simulator, and
    /// only the induced slowdown is charged.
    pub async_overlap: bool,
}

impl CheckpointPolicy {
    /// A synchronous checkpoint every `cadence_iters` iterations.
    #[must_use]
    pub fn every(cadence_iters: u32) -> Self {
        Self {
            cadence_iters: Some(cadence_iters.max(1)),
            ..Self::default()
        }
    }

    /// `true` when checkpoint modeling is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cadence_iters.is_some()
    }

    /// Number of checkpoints written during `iterations` steady-state
    /// iterations (the phase starts from a checkpointed state).
    #[must_use]
    pub fn checkpoints_in(&self, iterations: u64) -> u64 {
        match self.cadence_iters {
            Some(k) => iterations / u64::from(k.max(1)),
            None => 0,
        }
    }

    /// Iterations lost when state must come back from the last checkpoint
    /// after `iterations_done` steady-state iterations — the progress past
    /// the most recent cadence boundary.
    #[must_use]
    pub fn replay_iterations(&self, iterations_done: u64) -> u64 {
        match self.cadence_iters {
            Some(k) => iterations_done % u64::from(k.max(1)),
            None => 0,
        }
    }
}

/// Prices a set of storage transfers (restores *or* checkpoint writes — the
/// tier is symmetric) on `cluster`: all flows start concurrently; with
/// `contended`, each flow runs at the rate of its most contended stage —
/// equal-share on its node's storage link, equal-share of the spine scaled
/// by the oversubscription ratio (see
/// [`StorageSpec::slowdown`](spindle_cluster::StorageSpec::slowdown)).
/// Returns the makespan of the transfer set, seconds. The price does not
/// depend on `_policy`: a shard's checkpoint holds its resident state bytes.
///
/// The rounds are [`price_migration`](crate::price_migration)'s. Every flow
/// crosses its node's storage link and the spine, so flows to one node see
/// the same slowdown in every round and are priced as one group, exactly as
/// if each were priced alone: a full checkpoint of thousands of shards is
/// priced as one group per storage link.
#[must_use]
pub fn price_restore(
    cluster: &ClusterSpec,
    flows: &[RestoreFlow],
    _policy: &CheckpointPolicy,
    contended: bool,
) -> f64 {
    // One slot per node's storage link, one shared by flows to devices the
    // cluster does not have, then the spine every flow crosses.
    let storage = cluster.storage();
    let unplaced = cluster.num_nodes() as u32;
    let spine = unplaced + 1;
    let priced = flows
        .iter()
        .map(|f| {
            let node = cluster.node_of(f.to).map_or(unplaced, |n| n.0);
            ([node, spine], storage.transfer_time(f.bytes))
        })
        .collect();
    let share = |node: u32, spine: u32| storage.slowdown(node as usize, spine as usize);
    price_rounds(priced, spine + 1, contended, share)
}

/// The storage flows of one full checkpoint of `plan`: every placed MetaOp
/// shard (one per hosting device, deduplicated across waves) writes its
/// state bytes to the tier. The same flow set read in reverse is a full
/// restore, so [`price_restore`] prices both directions.
#[must_use]
pub fn checkpoint_flows(plan: &ExecutionPlan) -> Vec<RestoreFlow> {
    let mut written = SiteSet::for_waves(plan.waves());
    let mut flows = Vec::new();
    for entry in plan.waves().iter().flat_map(|w| &w.entries) {
        let Some(group) = &entry.placement else {
            continue;
        };
        if entry.memory_per_device == 0 {
            continue;
        }
        for d in group.iter() {
            if written.insert(entry.metaop, d) {
                flows.push(RestoreFlow {
                    metaop: entry.metaop,
                    to: d,
                    bytes: entry.memory_per_device,
                });
            }
        }
    }
    flows
}

/// Prices one synchronous full checkpoint write of `plan` on `cluster`: the
/// stall the training timeline pays per cadence boundary when
/// `async_overlap` is off.
#[must_use]
pub fn price_checkpoint_write(cluster: &ClusterSpec, plan: &ExecutionPlan, contended: bool) -> f64 {
    price_restore(
        cluster,
        &checkpoint_flows(plan),
        &CheckpointPolicy::default(),
        contended,
    )
}

/// Builds the background-flow set of one `async_overlap` checkpoint write
/// for injection into the event simulator
/// ([`SimConfig::background_flows`](crate::SimConfig)): each shard's write
/// leaves its node through the node's network egress (where it contends with
/// the iteration's inter-island traffic) and then crosses its storage link
/// and the shared spine.
#[must_use]
pub fn background_checkpoint_flows(
    cluster: &ClusterSpec,
    plan: &ExecutionPlan,
) -> Vec<BackgroundFlow> {
    let storage = cluster.storage();
    checkpoint_flows(plan)
        .iter()
        .filter_map(|f| {
            let node = cluster.node_of(f.to).ok()?;
            Some(BackgroundFlow {
                nominal_s: storage.transfer_time(f.bytes),
                footprint: vec![
                    LinkId::Uplink(node),
                    LinkId::StorageLink(node),
                    LinkId::StorageSpine,
                ],
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use spindle_cluster::{DeviceId, NodeId, StorageSpec};
    use spindle_core::{MetaOpId, SpindleSession};
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape, XorShift64Star};

    /// The round loop [`price_restore`] ran before it shared
    /// [`price_migration`](crate::price_migration)'s rounds: every round
    /// rebuilds the per-node flow counts in a map. The grouped rounds must
    /// price every flow set bit-identically.
    fn price_restore_reference(
        cluster: &ClusterSpec,
        flows: &[RestoreFlow],
        contended: bool,
    ) -> f64 {
        struct Active {
            remaining_s: f64,
            node: Option<NodeId>,
        }
        let storage = cluster.storage();
        let mut active: Vec<Active> = flows
            .iter()
            .map(|f| Active {
                remaining_s: storage.transfer_time(f.bytes),
                node: cluster.node_of(f.to).ok(),
            })
            .collect();
        let mut now = 0.0_f64;
        while !active.is_empty() {
            let mut node_flows: BTreeMap<Option<NodeId>, usize> = BTreeMap::new();
            for flow in &active {
                *node_flows.entry(flow.node).or_insert(0) += 1;
            }
            let spine_flows = active.len();
            let factor = |flow: &Active| {
                if contended {
                    storage.slowdown(node_flows[&flow.node], spine_flows)
                } else {
                    1.0
                }
            };
            let step = active
                .iter()
                .map(|f| f.remaining_s * factor(f))
                .fold(f64::INFINITY, f64::min);
            now += step;
            for flow in &mut active {
                let f = factor(flow);
                flow.remaining_s -= step / f;
            }
            let eps = 1e-12 * now.max(1.0);
            active.retain(|f| f.remaining_s > eps);
        }
        now
    }

    #[test]
    fn packed_restore_pricing_matches_the_reference_bit_for_bit() {
        // Eight nodes of four behind the default spine of four node links,
        // three devices gone: a restore can target a device the cluster no
        // longer has. Odd cases pile every flow onto the first two nodes
        // (node links are the bottleneck); even cases spread up to 40 flows
        // over all eight, far past the spine's knee.
        let cluster = ClusterSpec::homogeneous(8, 4);
        let targets: Vec<DeviceId> = cluster.all_devices().iter().collect();
        let cluster = cluster
            .without_devices(&[DeviceId(5), DeviceId(6), DeviceId(30)])
            .unwrap();
        let policy = CheckpointPolicy::every(1);
        let mut rng = XorShift64Star::new(0x0C4E_57A6);
        let sizes = [1u64 << 24, 3 << 26, 1 << 30, 5 << 27];
        let check = |cluster: &ClusterSpec, flows: &[RestoreFlow], case| {
            for contended in [true, false] {
                let got = price_restore(cluster, flows, &policy, contended);
                let want = price_restore_reference(cluster, flows, contended);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} ({} flows), contended {contended}: {got} vs {want}",
                    flows.len()
                );
            }
        };
        for case in 0..300 {
            let pool = if case % 2 == 0 { 32 } else { 8 };
            let count = 1 + (rng.next_u64() % 40) as usize;
            let flows: Vec<RestoreFlow> = (0..count)
                .map(|k| RestoreFlow {
                    metaop: MetaOpId(k as u32),
                    to: targets[(rng.next_u64() % pool) as usize],
                    bytes: sizes[(rng.next_u64() % 4) as usize] + rng.next_u64() % 3,
                })
                .collect();
            check(&cluster, &flows, case);
        }
        // A full checkpoint of the 48-task mix on 256 GPUs: thousands of
        // shards on 32 storage links, many of one size.
        let hyper = ClusterSpec::homogeneous(32, 8);
        let plan = SpindleSession::new(hyper.clone())
            .plan(&spindle_workloads::hyperscale(48).unwrap())
            .unwrap();
        let flows = checkpoint_flows(&plan);
        assert!(flows.len() > 2_000, "{} shards", flows.len());
        check(&hyper, &flows, 300);
    }

    fn plan_on(nodes: usize, gpus: usize) -> (ExecutionPlan, ClusterSpec) {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Vision, Modality::Text], 32);
        let tower = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(32, 197, 768),
                6,
            )
            .unwrap();
        let loss = b
            .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(32, 1, 768))
            .unwrap();
        b.add_flow(*tower.last().unwrap(), loss).unwrap();
        let graph = b.build().unwrap();
        let cluster = ClusterSpec::homogeneous(nodes, gpus);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        (plan, cluster)
    }

    #[test]
    fn policy_cadence_accounting() {
        let p = CheckpointPolicy::every(4);
        assert!(p.enabled());
        assert_eq!(p.checkpoints_in(11), 2);
        assert_eq!(p.replay_iterations(11), 3);
        assert_eq!(p.replay_iterations(8), 0);
        let off = CheckpointPolicy::default();
        assert!(!off.enabled());
        assert_eq!(off.checkpoints_in(100), 0);
        assert_eq!(off.replay_iterations(100), 0);
    }

    #[test]
    fn lone_restore_matches_the_storage_spec() {
        let (_, cluster) = plan_on(1, 4);
        let policy = CheckpointPolicy::every(1);
        let flows = vec![RestoreFlow {
            metaop: MetaOpId(0),
            to: DeviceId(0),
            bytes: 1 << 30,
        }];
        let t = price_restore(&cluster, &flows, &policy, true);
        let expected = cluster.storage().transfer_time(1 << 30);
        assert!((t - expected).abs() < 1e-9, "{t} vs {expected}");
    }

    #[test]
    fn same_node_restores_share_the_storage_link() {
        let (_, cluster) = plan_on(2, 4);
        let policy = CheckpointPolicy::every(1);
        let same_node: Vec<RestoreFlow> = (0..3)
            .map(|i| RestoreFlow {
                metaop: MetaOpId(i),
                to: DeviceId(i),
                bytes: 1 << 30,
            })
            .collect();
        let lone = price_restore(&cluster, &same_node[..1], &policy, true);
        let shared = price_restore(&cluster, &same_node, &policy, true);
        assert!(
            shared > lone * 2.5,
            "three flows on one storage link must run near a third rate: {shared} vs {lone}"
        );
        // Spread across nodes, the same three flows only meet at the spine,
        // which has 4x node-link headroom — no slowdown.
        let spread: Vec<RestoreFlow> = (0..2)
            .map(|i| RestoreFlow {
                metaop: MetaOpId(i),
                to: DeviceId(4 * i),
                bytes: 1 << 30,
            })
            .collect();
        let spread_t = price_restore(&cluster, &spread, &policy, true);
        assert!((spread_t - lone).abs() < 1e-9);
    }

    #[test]
    fn oversubscribed_spine_throttles_cluster_wide_restores() {
        // 8 nodes, one flow each: the 2x-oversubscribed default spine halves
        // every flow's rate even though each node link is alone.
        let (_, cluster) = plan_on(8, 1);
        let policy = CheckpointPolicy::every(1);
        let flows: Vec<RestoreFlow> = (0..8)
            .map(|i| RestoreFlow {
                metaop: MetaOpId(i),
                to: DeviceId(i),
                bytes: 1 << 30,
            })
            .collect();
        let lone = price_restore(&cluster, &flows[..1], &policy, true);
        let all = price_restore(&cluster, &flows, &policy, true);
        assert!(
            (all / lone - 2.0).abs() < 0.05,
            "8 node-disjoint flows over a 4x spine must halve: {all} vs {lone}"
        );
        // Uncontended pricing ignores the sharing entirely.
        let relaxed = price_restore(&cluster, &flows, &policy, false);
        assert!((relaxed - lone).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_flows_cover_every_placed_shard_once() {
        let (plan, cluster) = plan_on(2, 4);
        let flows = checkpoint_flows(&plan);
        assert!(!flows.is_empty());
        let mut keys: Vec<(MetaOpId, DeviceId)> = flows.iter().map(|f| (f.metaop, f.to)).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "no shard is written twice");
        let write = price_checkpoint_write(&cluster, &plan, true);
        assert!(write > 0.0);
    }

    #[test]
    fn slower_storage_prices_higher() {
        let (plan, cluster) = plan_on(2, 4);
        let fast = price_checkpoint_write(&cluster, &plan, true);
        let slow_cluster = cluster.clone().with_storage(StorageSpec {
            node_bandwidth: 1e9,
            spine_bandwidth: 4e9,
            latency_s: 2e-3,
        });
        let slow = price_checkpoint_write(&slow_cluster, &plan, true);
        assert!(slow > fast * 2.0, "{slow} vs {fast}");
    }

    #[test]
    fn background_flows_name_egress_and_storage_links() {
        let (plan, cluster) = plan_on(2, 4);
        let bg = background_checkpoint_flows(&cluster, &plan);
        assert_eq!(bg.len(), checkpoint_flows(&plan).len());
        for flow in &bg {
            assert!(flow.nominal_s > 0.0);
            assert!(flow.footprint.contains(&LinkId::StorageSpine));
            assert!(flow
                .footprint
                .iter()
                .any(|l| matches!(l, LinkId::Uplink(_))));
        }
    }
}
