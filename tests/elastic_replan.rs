//! Elastic re-planning properties: a session that loses devices must
//! re-plan onto the survivors with every plan invariant intact, never place
//! work on a dead device, price the migration it induces, keep the plan
//! unchanged when the loss touched no placed device — and, once the devices
//! return, recur bit-for-bit with a cold plan as if the churn never
//! happened.

use spindle::prelude::*;
use spindle::runtime::{LocalizedPlan, SimConfig, Simulator};
use spindle::service::ReplanSummary;
use spindle_cluster::ClusterSpec;
use spindle_core::ReplanOutcome;
use spindle_graph::{ComputationGraph, GraphBuilder, TensorShape, XorShift64Star};

/// A 3-level chain (embedding → towers → loss) whose first level is a single
/// MetaOp: on a 12-device cluster its power-of-two allocation occupies only
/// devices 0..8, while the later, work-conserving levels use every device,
/// so every removal from the full cluster re-places the plan.
fn staged_graph() -> ComputationGraph {
    let mut b = GraphBuilder::new();
    let t = b.add_task("staged", [Modality::Audio, Modality::Text], 8);
    let embed = b
        .add_op(t, OpKind::Embedding, TensorShape::new(8, 229, 768))
        .unwrap();
    let audio = b
        .add_op_chain(
            t,
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
            8,
        )
        .unwrap();
    let text = b
        .add_op_chain(
            t,
            OpKind::Encoder(Modality::Text),
            TensorShape::new(8, 77, 768),
            6,
        )
        .unwrap();
    let loss = b
        .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(8, 1, 768))
        .unwrap();
    b.add_flow(embed, audio[0]).unwrap();
    b.add_flow(embed, text[0]).unwrap();
    b.add_flow(*audio.last().unwrap(), loss).unwrap();
    b.add_flow(*text.last().unwrap(), loss).unwrap();
    b.build().unwrap()
}

/// No wave entry of `outcome` may be placed on any of `removed`.
fn assert_no_dead_placement(outcome: &ReplanOutcome, removed: &[DeviceId], context: &str) {
    for (w, wave) in outcome.plan.waves().iter().enumerate() {
        for entry in &wave.entries {
            if let Some(group) = &entry.placement {
                for &dead in removed {
                    assert!(
                        !group.contains(dead),
                        "{context}: wave {w} entry {} placed on removed {dead:?}",
                        entry.metaop
                    );
                }
            }
        }
    }
}

/// 1–3 distinct devices of a 12-device cluster, drawn over the whole id
/// space so some draws hit level-0 devices and some only the high-id tail,
/// which level 0 does not use.
fn draw_removal(rng: &mut XorShift64Star) -> Vec<DeviceId> {
    let k = 1 + (rng.next_u64() % 3) as usize;
    let mut removed: Vec<DeviceId> = Vec::new();
    while removed.len() < k {
        let d = DeviceId((rng.next_u64() % 12) as u32);
        if !removed.contains(&d) {
            removed.push(d);
        }
    }
    removed
}

#[test]
fn seeded_removals_replan_onto_survivors_with_invariants_intact() {
    let cluster = ClusterSpec::homogeneous(3, 4);
    let capacity = cluster.device_memory_bytes();
    let graph = staged_graph();
    let mut rng = XorShift64Star::new(0x0E1A_571C);
    let mut saw_priced_migration = false;

    for step in 0..12 {
        let mut session = SpindleSession::new(cluster.clone());
        let baseline = session.plan(&graph).unwrap();
        let removed = draw_removal(&mut rng);
        let shrunk = session.remove_devices(&removed).unwrap();
        assert_eq!(shrunk, removed.len(), "step {step}: all removals applied");

        let outcome = session.replan(&graph).unwrap();
        let context = format!("step {step} (removed {removed:?})");
        outcome.plan.check_invariants(capacity).unwrap();
        assert_no_dead_placement(&outcome, &removed, &context);
        assert_eq!(outcome.devices_lost, removed.len(), "{context}");
        assert!(
            outcome.levels_replaced == 0 || outcome.levels_replaced == outcome.levels_total,
            "{context}: a loss keeps the plan or re-places it whole, not {}/{} levels",
            outcome.levels_replaced,
            outcome.levels_total
        );
        // Migration is priced exactly when placements actually moved.
        assert_eq!(
            outcome.migration_bytes > 0,
            outcome.migration_cost > 0.0,
            "{context}: bytes {} vs cost {}",
            outcome.migration_bytes,
            outcome.migration_cost
        );
        if outcome.migration_bytes > 0 {
            saw_priced_migration = true;
        }
        // The baseline plan (pre-churn) is untouched by the re-plan.
        assert_eq!(baseline.num_devices(), 12);
    }
    assert!(
        saw_priced_migration,
        "no draw induced (and priced) any migration"
    );
}

/// The plans of the seeded removals above, and of a further loss of the
/// highest surviving device after each, pinned bit for bit: recorded when a
/// loss re-plan kept the clean prefix of levels and placed only the rest,
/// which six of them did, with the same plans as a full re-place. One FNV-1a
/// digest over every summary field of the 24 re-plans (devices lost, levels
/// replaced and reused, migration bytes and cost bits, re-materialised
/// MetaOps, restore bytes and the cache probe) pins the loss-side figures.
/// It was re-pinned when the clean-prefix path went: those six re-plans now
/// report 3 levels replaced, not 2, and every other figure is unchanged.
#[test]
fn seeded_removal_replans_match_the_recorded_digests() {
    let cluster = ClusterSpec::homogeneous(3, 4);
    let graph = staged_graph();
    let mut rng = XorShift64Star::new(0x0E1A_571C);
    let mut digests = Vec::new();
    let mut figures = 0xcbf2_9ce4_8422_2325u64;
    let mut kept = 0;
    for _ in 0..12 {
        let mut session = SpindleSession::new(cluster.clone());
        session.plan(&graph).unwrap();
        session.remove_devices(&draw_removal(&mut rng)).unwrap();
        let mut outcomes = vec![session.replan(&graph).unwrap()];
        let highest = session.cluster().all_devices().iter().max().unwrap();
        session.remove_devices(&[highest]).unwrap();
        outcomes.push(session.replan(&graph).unwrap());
        for outcome in &outcomes {
            assert!(
                outcome.levels_replaced == 0 || outcome.levels_replaced == outcome.levels_total
            );
            kept += usize::from(outcome.levels_replaced == 0);
            let summary = ReplanSummary::of(outcome);
            digests.push(summary.plan_fingerprint);
            for byte in format!("{summary:?}").bytes() {
                figures = (figures ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(kept, 1, "re-plans that kept the pre-loss plan");
    assert_eq!(figures, 0xe29e_9242_af1a_60b1, "{figures:#018x}");
    assert_eq!(
        digests,
        [
            0x7b43_ba54_4639_007c,
            0xe644_4886_41ba_0ca6,
            0x4eee_d787_809b_e35c,
            0x4eee_d787_809b_e35c,
            0x4d44_48cd_7eb7_ba1a,
            0x5f43_0e74_7304_cbe0,
            0xf806_cf89_4980_e0f7,
            0x1b41_b11d_c034_7280,
            0xb409_fb90_663c_421d,
            0x38d2_59d2_86db_2ff9,
            0x7b43_ba54_4639_007c,
            0xe644_4886_41ba_0ca6,
            0xec40_84a0_732a_f6d2,
            0xc77f_eab9_eb2d_26c1,
            0x43ef_5133_fa01_d4e6,
            0x28fc_3ee4_744c_81b2,
            0x7b43_ba54_4639_007c,
            0xe644_4886_41ba_0ca6,
            0x6ada_e7e1_937b_2bdb,
            0x0ae3_2c48_cb4a_c3d3,
            0x4ac8_b7e6_1028_c852,
            0x1d1e_cb7e_6ede_a0a6,
            0x1d1e_cb7e_6ede_a0a6,
            0xb751_5bfa_1cfc_694d,
        ],
        "{digests:#018x?}"
    );
}

/// A loss re-plan diffs against the device set the session last planned
/// on: two removals before one re-plan give the plan and figures of one
/// removal of both devices, and a session's first plan reports no loss.
#[test]
fn loss_replans_diff_against_the_last_planned_device_set() {
    let cluster = ClusterSpec::homogeneous(3, 4);
    let graph = staged_graph();
    let replan_after = |removals: &[&[DeviceId]]| {
        let mut session = SpindleSession::new(cluster.clone());
        session.plan(&graph).unwrap();
        for removed in removals {
            session.remove_devices(removed).unwrap();
        }
        ReplanSummary::of(&session.replan(&graph).unwrap())
    };
    let (d10, d11) = (DeviceId(10), DeviceId(11));
    let single = replan_after(&[&[d11, d10]]);
    let figures = |s: &ReplanSummary| (s.devices_lost, s.levels_replaced, s.migration_bytes);
    assert_eq!(figures(&single), (2, 3, 96), "{single:?}");
    assert_eq!(replan_after(&[&[d11], &[d10]]), single);

    let mut fresh = SpindleSession::new(cluster);
    fresh.remove_devices(&[d11, DeviceId(3)]).unwrap();
    let first = ReplanSummary::of(&fresh.replan(&graph).unwrap());
    assert_eq!(figures(&first), (0, 0, 0), "{first:?}");
}

#[test]
fn restore_then_recur_is_bit_identical_to_a_cold_plan() {
    let cluster = ClusterSpec::homogeneous(2, 8);
    let graph = multitask_clip(5).unwrap();
    let mut session = SpindleSession::new(cluster.clone());
    session.plan(&graph).unwrap();

    // Walk through a removal, a further removal, a partial restore and a
    // full restore, re-planning at every step.
    let first: Vec<DeviceId> = vec![DeviceId(3), DeviceId(4)];
    let second: Vec<DeviceId> = vec![DeviceId(12)];
    session.remove_devices(&first).unwrap();
    session.replan(&graph).unwrap();
    session.remove_devices(&second).unwrap();
    session.replan(&graph).unwrap();
    assert_eq!(session.restore_devices(&second), 1);
    session.replan(&graph).unwrap();
    assert_eq!(session.restore_devices(&first), 2);
    assert!(session.removed_devices().is_empty());

    let warm = session.replan(&graph).unwrap();
    let cold = SpindleSession::new(cluster).plan(&graph).unwrap();
    assert_eq!(
        warm.plan.waves(),
        cold.waves(),
        "waves diverged after churn"
    );
    assert!(
        warm.plan.makespan().to_bits() == cold.makespan().to_bits(),
        "makespan diverged: {} vs {}",
        warm.plan.makespan(),
        cold.makespan()
    );
    assert_eq!(warm.plan.num_devices(), cold.num_devices());
    assert_eq!(warm.devices_lost, 0);
}

#[test]
fn half_cluster_loss_degrades_simulated_time_proportionally() {
    // A controlled degradation check: lose nodes 2 and 3 of a 4x8 cluster
    // (half the devices) under a workload wide enough to keep all 32 busy.
    // Halving the devices at most doubles the per-wave compute; boundary
    // and sync costs shift but stay the same order, so the simulated
    // iteration must land within a proportional band — not collapse, not
    // blow up.
    let cluster = ClusterSpec::homogeneous(4, 8);
    let graph = multitask_clip(8).unwrap();
    let mut session = SpindleSession::new(cluster.clone());
    let full_plan = session.plan(&graph).unwrap();
    let before = Simulator::new(full_plan, &cluster)
        .with_graph(graph.clone())
        .with_config(SimConfig::contended())
        .run_iteration()
        .unwrap()
        .total_s();

    let removed: Vec<DeviceId> = (16..32).map(DeviceId).collect();
    session.remove_devices(&removed).unwrap();
    let outcome = session.replan(&graph).unwrap();
    assert_eq!(outcome.devices_lost, 16);
    assert_no_dead_placement(&outcome, &removed, "half-cluster loss");
    let survivors = session.cluster_handle();
    let after = Simulator::new(outcome.plan, &survivors)
        .with_graph(graph.clone())
        .with_config(SimConfig::contended())
        .run_iteration()
        .unwrap()
        .total_s();

    assert!(
        after <= before * 2.5,
        "losing half the cluster more than 2.5x'd the iteration: {before:.4}s -> {after:.4}s"
    );
    assert!(
        after >= before * 0.8,
        "losing half the cluster sped the iteration up: {before:.4}s -> {after:.4}s"
    );
}

/// A seeded walk of loss/restore cycles with an active checkpoint policy:
/// every re-plan's recovery accounting (re-materialised MetaOps, restore
/// bytes, priced restore stall) is internally consistent, the whole-node
/// kills in the walk actually strand MetaOps (ground truth fires), and the
/// entire walk is bit-identical when replayed — recovery pricing adds no
/// nondeterminism.
#[test]
fn seeded_loss_restore_cycles_account_recovery_deterministically() {
    use spindle::cluster::StorageSpec;
    use spindle::runtime::{migration_flows, price_restore, CheckpointPolicy};

    #[derive(Debug, PartialEq)]
    struct Record {
        makespan_bits: u64,
        num_waves: usize,
        rematerialized: usize,
        restore_bytes: u64,
        restore_price_bits: u64,
    }

    let walk = || -> Vec<Record> {
        let cluster =
            ClusterSpec::homogeneous(2, 4).with_storage(StorageSpec::disaggregated_nvme());
        let graph = multitask_clip(5).unwrap();
        let policy = CheckpointPolicy::every(4);
        let mut session = SpindleSession::new(cluster.clone());
        let mut prev_plan = session.plan(&graph).unwrap();
        let mut rng = XorShift64Star::new(0x0C1C_7E57);
        let mut records = Vec::new();
        for step in 0..10 {
            let removed_before = session.removed_devices().to_vec();
            let alive: Vec<DeviceId> = (0..8)
                .map(DeviceId)
                .filter(|d| !removed_before.contains(d))
                .collect();
            match rng.next_u64() % 3 {
                // Kill the whole second island (whatever of it still lives):
                // the all-replicas-dead case checkpoints exist for.
                0 => {
                    let node1: Vec<DeviceId> = alive.iter().copied().filter(|d| d.0 >= 4).collect();
                    if node1.is_empty() || alive.len() - node1.len() < 2 {
                        continue;
                    }
                    session.remove_devices(&node1).unwrap();
                }
                // Lose one random device, keeping enough survivors.
                1 => {
                    if alive.len() <= 3 {
                        continue;
                    }
                    let victim = alive[(rng.next_u64() % alive.len() as u64) as usize];
                    session.remove_devices(&[victim]).unwrap();
                }
                // Capacity comes back.
                _ => {
                    if removed_before.is_empty() {
                        continue;
                    }
                    session.restore_devices(&removed_before);
                }
            }
            let outcome = session.replan(&graph).unwrap();
            let survivors = session.cluster_handle();
            outcome
                .plan
                .check_invariants(survivors.device_memory_bytes())
                .unwrap();
            let migration = migration_flows(&prev_plan, &outcome.plan, &survivors);
            let price = price_restore(&survivors, &migration.restores, &policy, true);
            let context = format!("step {step}");
            // Internal consistency of the runtime's partition.
            assert_eq!(
                migration.restore_bytes() > 0,
                migration.rematerialized_metaops() > 0,
                "{context}: bytes vs count"
            );
            assert_eq!(
                price > 0.0,
                !migration.restores.is_empty(),
                "{context}: priced {price}s for {} restores",
                migration.restores.len()
            );
            assert!(price.is_finite(), "{context}");
            // The planner's own counters never claim a restore the runtime
            // partition disproves.
            assert_eq!(
                outcome.rematerialized_metaops > 0,
                outcome.restore_bytes > 0,
                "{context}: session counters disagree"
            );
            if outcome.restore_bytes > 0 {
                assert!(
                    migration.restore_bytes() > 0,
                    "{context}: session reports {} restore bytes, runtime found none",
                    outcome.restore_bytes
                );
            }
            records.push(Record {
                makespan_bits: outcome.plan.makespan().to_bits(),
                num_waves: outcome.plan.num_waves(),
                rematerialized: migration.rematerialized_metaops(),
                restore_bytes: migration.restore_bytes(),
                restore_price_bits: price.to_bits(),
            });
            prev_plan = outcome.plan;
        }
        // Close the walk: full restore must recur bit-identically cold.
        let still_down = session.removed_devices().to_vec();
        if !still_down.is_empty() {
            session.restore_devices(&still_down);
        }
        let warm = session.replan(&graph).unwrap();
        let cold = SpindleSession::new(cluster).plan(&graph).unwrap();
        assert_eq!(warm.plan.waves(), cold.waves(), "post-walk warm vs cold");
        records
    };

    let first = walk();
    let second = walk();
    assert!(
        first.iter().any(|r| r.restore_bytes > 0),
        "the walk's whole-node kills never stranded a MetaOp — no ground truth exercised"
    );
    assert_eq!(first, second, "replaying the walk diverged");
}

/// Every device event of a seeded churn replay on 256 GPUs — a
/// `hyperscale_churn` window of the 48-task mix with seeded device loss and
/// restore — digested and pinned: each migration's flows and restores in
/// order, its contended and uncontended price bits, and the re-plan's own
/// migration figures (bytes, cost bits, restore bytes, re-materialised
/// MetaOps). Several events move more than 1,000 shards, the size of a
/// device event at this scale. Recorded before the migration passes became
/// table-driven.
#[test]
fn hyperscale_device_churn_migration_matches_the_recorded_digest() {
    use spindle::runtime::{migration_flows, price_migration};
    use spindle::workloads::{hyperscale_churn, DeviceChurnKind, ScheduleEvent};

    const SEED: u64 = 0x5eed_c4a7;
    let schedule = hyperscale_churn(SEED, 48, 12, 30.0)
        .unwrap()
        .with_seeded_device_churn(SEED, 256, 16);
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(32, 8));
    let mut current: Option<(&ComputationGraph, ExecutionPlan)> = None;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |words: &[u64]| {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let (mut device_events, mut large) = (0, 0);
    for event in schedule.timeline() {
        match event {
            ScheduleEvent::Phase(arrival) => {
                let plan = session.replan(&arrival.graph).unwrap().plan;
                current = Some((&arrival.graph, plan));
            }
            ScheduleEvent::Churn(churn) => {
                let (graph, old) = current.take().expect("a task event comes first");
                let ids: Vec<DeviceId> = churn.devices.iter().map(|&d| DeviceId(d)).collect();
                match churn.kind {
                    DeviceChurnKind::Remove => session.remove_devices(&ids).unwrap(),
                    DeviceChurnKind::Restore => session.restore_devices(&ids),
                };
                let outcome = session.replan(graph).unwrap();
                let cluster = session.cluster_handle();
                let migration = migration_flows(&old, &outcome.plan, &cluster);
                for f in &migration.flows {
                    mix(&[
                        f.metaop.index() as u64,
                        f.from.0.into(),
                        f.to.0.into(),
                        f.bytes,
                    ]);
                }
                mix(&[u64::MAX]);
                for r in &migration.restores {
                    mix(&[r.metaop.index() as u64, r.to.0.into(), r.bytes]);
                }
                mix(&[
                    price_migration(&cluster, &migration.flows, true).to_bits(),
                    price_migration(&cluster, &migration.flows, false).to_bits(),
                    outcome.migration_bytes,
                    outcome.migration_cost.to_bits(),
                    outcome.restore_bytes,
                    outcome.rematerialized_metaops as u64,
                ]);
                device_events += 1;
                large += usize::from(migration.flows.len() > 1_000);
                current = Some((graph, outcome.plan));
            }
        }
    }
    assert!(
        large >= 3,
        "{large} of {device_events} device events move over 1,000 shards"
    );
    assert_eq!(device_events, 18);
    assert_eq!(digest, 0xcf9b_ca21_1324_1201, "{digest:#018x}");
}

/// A loss that touches no placed device keeps the plan: one Multitask-CLIP
/// task on 1×7 leaves device 6 idle, so losing it re-places nothing and
/// moves nothing.
#[test]
fn losing_an_idle_device_keeps_the_plan() {
    let graph = multitask_clip(1).unwrap();
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 7));
    let before = session.plan(&graph).unwrap();
    let idle = DeviceId(6);
    assert!(before.waves().iter().flat_map(|w| &w.entries).all(|e| !e
        .placement
        .as_ref()
        .unwrap()
        .contains(idle)));
    session.remove_devices(&[idle]).unwrap();
    let outcome = session.replan(&graph).unwrap();
    assert_eq!(outcome.devices_lost, 1);
    assert_eq!(outcome.levels_replaced, 0);
    assert_eq!(outcome.migration_bytes, 0);
    assert_eq!(outcome.migration_cost, 0.0);
    assert_eq!(outcome.plan.waves(), before.waves());
}

/// Sequential placement takes the surviving devices in id order: after
/// devices 0 and 1 of 2×8 are lost, no entry lands on them, and the plan
/// localises on the survivors.
#[test]
fn sequential_placement_replans_onto_the_survivors() {
    let graph = multitask_clip(4).unwrap();
    let config = PlannerConfig {
        placement: PlacementStrategy::Sequential,
        ..PlannerConfig::default()
    };
    let mut session = SpindleSession::with_config(ClusterSpec::homogeneous(2, 8), config);
    session.plan(&graph).unwrap();
    let removed = [DeviceId(0), DeviceId(1)];
    session.remove_devices(&removed).unwrap();
    let outcome = session.replan(&graph).unwrap();
    assert_no_dead_placement(&outcome, &removed, "sequential after loss");
    assert_eq!(outcome.devices_lost, 2);
    let survivors = session.cluster_handle();
    outcome
        .plan
        .check_invariants(survivors.device_memory_bytes())
        .unwrap();
    LocalizedPlan::new(std::sync::Arc::new(outcome.plan), &survivors, Some(&graph)).unwrap();
}
