//! Cache-eviction safety: under byte budgets the session caches (structural
//! plan cache + estimator curve cache) must (a) never exceed their budgets at
//! any observation point of a seeded churn trace, and (b) keep re-plans
//! bit-identical to cold plans even when the entries they would have reused
//! were evicted. Eviction changes cost — `levels_reused` drops — never output.

use spindle::prelude::*;
use spindle::workloads::{hyperscale_subset, HYPERSCALE_ROSTER};
use spindle_cluster::ClusterSpec;
use spindle_graph::XorShift64Star;

fn assert_plans_identical(warm: &ExecutionPlan, cold: &ExecutionPlan, context: &str) {
    assert_eq!(warm.num_waves(), cold.num_waves(), "wave count: {context}");
    assert_eq!(warm.waves(), cold.waves(), "waves: {context}");
    assert!(
        warm.makespan().to_bits() == cold.makespan().to_bits(),
        "makespan: {context}"
    );
    assert!(
        warm.theoretical_optimum().to_bits() == cold.theoretical_optimum().to_bits(),
        "theoretical optimum: {context}"
    );
}

#[test]
fn budgeted_caches_never_exceed_their_budgets_under_churn() {
    // Budgets tight enough that a roster walk must evict, checked after every
    // re-plan: the byte gauges are hard bounds, not high-water marks.
    let structural_budget = 48 * 1024;
    let curve_budget = 8 * 1024;
    let cluster = ClusterSpec::homogeneous(4, 8);
    let mut session = SpindleSession::with_config(
        cluster.clone(),
        PlannerConfig {
            structural_cache_budget: structural_budget,
            curve_cache_budget: curve_budget,
            ..PlannerConfig::default()
        },
    );
    let mut rng = XorShift64Star::new(0xCAFE);
    let mut active: Vec<bool> = (0..HYPERSCALE_ROSTER).map(|s| s < 10).collect();
    for step in 0..24 {
        let slots: Vec<usize> = (0..HYPERSCALE_ROSTER).filter(|&s| active[s]).collect();
        let graph = hyperscale_subset(&slots).unwrap();
        let outcome = session.replan(&graph).unwrap();
        let bytes = session.planning_stats().cache.bytes;
        assert!(
            bytes <= structural_budget + curve_budget,
            "step {step}: caches hold {bytes} bytes over a {} byte budget",
            structural_budget + curve_budget
        );
        assert_eq!(outcome.cache.bytes, bytes);

        let cold = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        assert_plans_identical(&outcome.plan, &cold, &format!("budgeted churn step {step}"));

        let slot = (rng.next_u64() % HYPERSCALE_ROSTER as u64) as usize;
        let can_deactivate = active[slot] && active.iter().filter(|&&a| a).count() > 4;
        active[slot] = !can_deactivate;
    }
    let stats = session.planning_stats();
    assert!(
        stats.cache.evictions > 0,
        "a 24-step roster walk under tight budgets must evict"
    );
    assert_eq!(
        stats.cache.evictions,
        stats.curve_cache.evictions + stats.structural_cache.evictions
    );
}

#[test]
fn post_eviction_replans_match_cold_plans_and_lose_only_reuse() {
    // Unbudgeted control: the A↔B churn pattern is served structurally — all
    // levels spliced once both mixes are cached.
    let cluster = ClusterSpec::homogeneous(4, 8);
    let slots_a: Vec<usize> = (0..12).collect();
    let slots_b: Vec<usize> = (0..12).filter(|&s| s != 1).collect();
    let graph_a = hyperscale_subset(&slots_a).unwrap();
    let graph_b = hyperscale_subset(&slots_b).unwrap();

    let mut unbounded = SpindleSession::new(cluster.clone());
    unbounded.replan(&graph_a).unwrap();
    unbounded.replan(&graph_b).unwrap();
    let warm = unbounded.replan(&graph_a).unwrap();
    assert_eq!(warm.levels_reused, warm.levels_total);
    let evictions = unbounded.planning_stats().cache.evictions;
    assert_eq!(evictions, 0, "no budget, no evictions");

    // Same churn with a structural budget so small every insertion evicts its
    // predecessor: nothing survives to be reused, yet every plan is identical.
    let mut starved = SpindleSession::with_config(
        cluster.clone(),
        PlannerConfig {
            structural_cache_budget: 1,
            ..PlannerConfig::default()
        },
    );
    starved.replan(&graph_a).unwrap();
    starved.replan(&graph_b).unwrap();
    let evicted = starved.replan(&graph_a).unwrap();
    assert_eq!(
        evicted.levels_reused, 0,
        "a starved cache has nothing left to splice"
    );
    assert!(!evicted.placement_reused);
    assert!(starved.planning_stats().cache.evictions > 0);
    assert_plans_identical(&evicted.plan, &warm.plan, "starved vs unbounded A↔B churn");

    // Restoring the budget mid-session re-enables reuse without a restart.
    starved.config_mut().structural_cache_budget = usize::MAX;
    starved.replan(&graph_b).unwrap();
    starved.replan(&graph_a).unwrap();
    let recovered = starved.replan(&graph_b).unwrap();
    assert_eq!(recovered.levels_reused, recovered.levels_total);
    let control = SpindleSession::new(cluster).plan(&graph_b).unwrap();
    assert_plans_identical(&recovered.plan, &control, "recovered budget");
}
