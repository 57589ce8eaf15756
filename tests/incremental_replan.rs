//! Incremental re-planning equivalence: a warm `replan` served (partly or
//! wholly) from the structural plan cache must produce a plan *identical* to
//! a cold plan of the same graph — same waves, allocations, placements,
//! makespan and theoretical optimum — under arbitrary seeded churn
//! sequences. These are the safety proofs behind the `incremental_replan`
//! bench: the speedup is only meaningful because the output is bit-for-bit
//! the same.

use spindle::core::ReplanSummary;
use spindle::prelude::*;
use spindle::workloads::{hyperscale_churn, hyperscale_subset, HYPERSCALE_ROSTER};
use spindle_cluster::ClusterSpec;
use spindle_graph::{ComputationGraph, XorShift64Star};

/// Asserts bit-for-bit plan equality (waves include placement and all
/// floating-point schedule fields via `PartialEq`).
fn assert_plans_identical(incremental: &ExecutionPlan, cold: &ExecutionPlan, context: &str) {
    assert_eq!(
        incremental.num_waves(),
        cold.num_waves(),
        "wave count diverged: {context}"
    );
    assert_eq!(
        incremental.waves(),
        cold.waves(),
        "waves diverged: {context}"
    );
    assert!(
        incremental.makespan().to_bits() == cold.makespan().to_bits(),
        "makespan diverged: {context}"
    );
    assert!(
        incremental.theoretical_optimum().to_bits() == cold.theoretical_optimum().to_bits(),
        "theoretical optimum diverged: {context}"
    );
    assert_eq!(incremental.num_devices(), cold.num_devices());
}

#[test]
fn clip_churn_replans_match_cold_plans_bit_for_bit() {
    // A task-count walk over the Multitask-CLIP family: every re-plan of the
    // warm session must equal a cold plan from a fresh session.
    let cluster = ClusterSpec::homogeneous(4, 8);
    let mut warm = SpindleSession::new(cluster.clone());
    let mut rng = XorShift64Star::new(0xC11E);
    let mut tasks: i64 = 4;
    for step in 0..10 {
        let graph = multitask_clip(tasks as usize).unwrap();
        let outcome = warm.replan(&graph).unwrap();
        let cold = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        assert_plans_identical(
            &outcome.plan,
            &cold,
            &format!("clip churn step {step} ({tasks} tasks)"),
        );
        outcome.plan.validate().unwrap();
        outcome.plan.require_placement().unwrap();
        let step_delta = match rng.next_u64() % 4 {
            0 => -2,
            1 => -1,
            2 => 1,
            _ => 2,
        };
        tasks = (tasks + step_delta).clamp(1, 10);
    }
    // The walk revisits task counts, so the structural cache must have
    // served whole plans by now.
    assert!(warm.planning_stats().skeleton_hits > 0);
}

#[test]
fn hyperscale_subset_churn_matches_cold_plans_bit_for_bit() {
    // Random roster subsets with single-slot churn (the hyperscale regime,
    // shrunk to 32 GPUs to keep the test fast). Includes shallow/deep mixes
    // so partial level reuse paths are exercised too.
    let cluster = ClusterSpec::homogeneous(4, 8);
    let mut warm = SpindleSession::new(cluster.clone());
    let mut rng = XorShift64Star::new(0x48FF);
    let mut active: Vec<bool> = (0..HYPERSCALE_ROSTER).map(|s| s < 10).collect();
    for step in 0..12 {
        let slots: Vec<usize> = (0..HYPERSCALE_ROSTER).filter(|&s| active[s]).collect();
        let graph = hyperscale_subset(&slots).unwrap();
        let outcome = warm.replan(&graph).unwrap();
        let cold = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        assert_plans_identical(&outcome.plan, &cold, &format!("hyperscale step {step}"));
        assert_eq!(outcome.levels_total, cold.metagraph().levels().len());
        // Toggle one random slot (keep at least 4 active).
        let slot = (rng.next_u64() % HYPERSCALE_ROSTER as u64) as usize;
        let can_deactivate = active[slot] && active.iter().filter(|&&a| a).count() > 4;
        active[slot] = !can_deactivate;
    }
}

#[test]
fn levels_reused_is_zero_cold_and_positive_after_single_task_churn() {
    let cluster = ClusterSpec::homogeneous(4, 8);
    let mut session = SpindleSession::new(cluster);
    let ten = multitask_clip(10).unwrap();
    let nine = multitask_clip(9).unwrap();

    let cold = session.replan(&ten).unwrap();
    assert_eq!(cold.levels_reused, 0, "a cold plan has nothing to reuse");
    assert!(cold.levels_total > 0);
    assert!(!cold.placement_reused);
    assert!((ReplanSummary::of(&cold).level_reuse_rate()).abs() < 1e-12);

    // First visit of the churned mix: its levels all differ from the 10-task
    // plan's (every level contains the departed task), so it seeds the cache.
    let churn1 = session.replan(&nine).unwrap();
    assert!(churn1.warm, "no new curve fits for a shrunk task mix");

    // The mix churns back and forth — the recurring pattern of dynamic
    // schedules. From now on every single-task-churn re-plan is served
    // structurally: all levels spliced, placement reused wholesale.
    for outcome in [
        session.replan(&ten).unwrap(),
        session.replan(&nine).unwrap(),
        session.replan(&ten).unwrap(),
    ] {
        assert_eq!(outcome.levels_reused, outcome.levels_total);
        assert!(outcome.levels_reused > 0);
        assert!(outcome.placement_reused);
        assert!((ReplanSummary::of(&outcome).level_reuse_rate() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn shallow_churn_reuses_deep_only_levels_on_first_sight() {
    // Roster slot 0 is deep (levels 0–3), slot 1 is shallow (levels 0–1).
    // Removing a *shallow* task perturbs only the levels it participates in;
    // the deep-only levels 2–3 must be spliced from the cache even though
    // this exact task mix was never planned before.
    let cluster = ClusterSpec::homogeneous(4, 8);
    let mut session = SpindleSession::new(cluster);
    let slots: Vec<usize> = (0..12).collect();
    let full = hyperscale_subset(&slots).unwrap();
    let contracted_levels = |g: &ComputationGraph| {
        SpindleSession::new(ClusterSpec::homogeneous(4, 8))
            .contract(g)
            .metagraph()
            .levels()
            .len()
    };
    assert_eq!(contracted_levels(&full), 4, "deep tasks span four levels");

    session.replan(&full).unwrap();
    let without_shallow: Vec<usize> = slots.iter().copied().filter(|&s| s != 1).collect();
    let churned = hyperscale_subset(&without_shallow).unwrap();
    let outcome = session.replan(&churned).unwrap();
    assert_eq!(outcome.levels_total, 4);
    assert_eq!(
        outcome.levels_reused, 2,
        "the two deep-only levels are untouched by shallow churn"
    );
    assert!(
        !outcome.placement_reused,
        "placement is global: must re-run"
    );

    // Removing a *deep* task instead dirties every level.
    session.replan(&full).unwrap();
    let without_deep: Vec<usize> = slots.iter().copied().filter(|&s| s != 0).collect();
    let churned = hyperscale_subset(&without_deep).unwrap();
    let outcome = session.replan(&churned).unwrap();
    assert_eq!(outcome.levels_reused, 0);
}

#[test]
fn hyperscale_churn_schedule_replans_identically_and_reuses_structure() {
    // The full churn-trace artifact at reduced scale: drive the seeded
    // arrival schedule through a warm session and check both equivalence and
    // accumulated structural reuse.
    let schedule = hyperscale_churn(7, 10, 8, 25.0).unwrap();
    let cluster = ClusterSpec::homogeneous(4, 8);
    let mut warm = SpindleSession::new(cluster.clone());
    let mut reused_levels = 0usize;
    for arrival in schedule.arrivals() {
        let outcome = warm.replan(&arrival.graph).unwrap();
        let cold = SpindleSession::new(cluster.clone())
            .plan(&arrival.graph)
            .unwrap();
        assert_plans_identical(&outcome.plan, &cold, &arrival.label);
        reused_levels += outcome.levels_reused;
    }
    assert!(
        reused_levels > 0,
        "a churn trace with single-task deltas must reuse levels"
    );
}

#[test]
fn disabling_the_structural_cache_changes_cost_not_output() {
    let cluster = ClusterSpec::homogeneous(4, 8);
    let graph = multitask_clip(7).unwrap();
    let mut cached = SpindleSession::new(cluster.clone());
    cached.plan(&graph).unwrap();
    let via_cache = cached.replan(&graph).unwrap();
    assert!(via_cache.placement_reused);

    let mut uncached = SpindleSession::with_config(
        cluster,
        PlannerConfig {
            structural_cache: false,
            ..PlannerConfig::default()
        },
    );
    uncached.plan(&graph).unwrap();
    let full = uncached.replan(&graph).unwrap();
    assert_eq!(full.levels_reused, 0);
    assert!(!full.placement_reused);
    assert_plans_identical(&via_cache.plan, &full.plan, "cache on vs off");
}
