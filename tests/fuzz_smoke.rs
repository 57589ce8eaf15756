//! Smoke coverage of the scenario-fuzzing harness: a fixed-seed batch must
//! pass every invariant, a deliberately corrupted plan must be caught *and*
//! shrunk to a minimal reproducer, and the `WorkloadSignature` key the curve
//! cache relies on must be injective over the generator's operator space.

use std::collections::HashMap;

use spindle_bench::fuzz::{self, FuzzConfig, Mutation};
use spindle_cluster::ClusterSpec;
use spindle_core::SpindleSession;
use spindle_graph::{OpKind, TensorShape, WorkloadSignature};
use spindle_workloads::{FuzzBounds, Scenario};

/// The seed the CI `fuzz-smoke` job uses (`0xCAFEBABE`); pinning the same one
/// here means a CI failure reproduces locally with `cargo test fuzz_smoke`.
const SMOKE_SEED: u64 = 0xCAFE_BABE;

#[test]
fn fixed_seed_smoke_batch_is_clean() {
    let cfg = FuzzConfig::quick(SMOKE_SEED, 16);
    let report = fuzz::run(&cfg);
    if let Some((scenario, violation)) = report.violation {
        panic!("violation on {}: {violation}", scenario.label());
    }
    assert_eq!(report.stats.draws, 16);
    // Every draw checks all four systems across every churn phase, and
    // every Spindle phase plan is compared wave-for-wave to a cold plan.
    assert!(report.stats.plans_checked >= 16 * fuzz::FUZZ_SYSTEMS.len() as u64);
    assert!(report.stats.simulations == 2 * report.stats.plans_checked);
    assert_eq!(report.stats.localizations, report.stats.plans_checked);
    assert!(report.stats.warm_identical >= 16);
}

#[test]
fn deliberately_broken_invariants_are_caught() {
    let cfg = FuzzConfig::quick(SMOKE_SEED, 1);
    let scenario = Scenario::draw(cfg.seed, 0, &cfg.bounds);
    for mutation in Mutation::ALL {
        let violation = fuzz::check_scenario(&scenario, &cfg, Some(mutation))
            .expect_err("a corrupted plan must fail the gauntlet");
        assert_eq!(violation.seed, scenario.seed, "{mutation}");
        assert_eq!(violation.index, scenario.index, "{mutation}");
        assert!(
            violation.scenario_json.contains("\"seed\""),
            "{mutation}: violation must embed the serialized config"
        );
    }
}

#[test]
fn caught_violation_shrinks_to_a_minimal_reproducer() {
    let cfg = FuzzConfig::quick(SMOKE_SEED, 1);
    // Pick a draw with structure worth shrinking.
    let scenario = (0..64)
        .map(|i| Scenario::draw(cfg.seed, i, &cfg.bounds))
        .find(|s| s.tasks.len() >= 3 && !s.churn.is_empty())
        .expect("quick bounds produce draws with several tasks and churn");
    let mutation = Some(Mutation::OverAllocate);
    let violation =
        fuzz::check_scenario(&scenario, &cfg, mutation).expect_err("mutation must be caught");
    let (minimal, min_violation) = fuzz::shrink(scenario.clone(), violation, &cfg, mutation);

    // The reproducer is strictly smaller and still fails the same check.
    let weight = |s: &Scenario| {
        s.tasks.len() * 1000
            + s.churn.len() * 100
            + s.num_devices() * 10
            + s.tasks.iter().map(|t| t.tower_layers).sum::<usize>()
    };
    assert!(
        weight(&minimal) < weight(&scenario),
        "shrink made no progress"
    );
    fuzz::check_scenario(&minimal, &cfg, mutation)
        .expect_err("the minimal reproducer must still fail");
    assert!(min_violation.detail.contains("devices"), "{min_violation}");
    // And it carries everything needed to re-run: the draw coordinates and
    // the serialized config.
    assert_eq!(min_violation.seed, SMOKE_SEED);
    assert!(min_violation.repro_command().contains("--seed"));
    assert!(min_violation.scenario_json.contains("\"tasks\""));
}

/// The independently derived identity of an operator's cost model — exactly
/// what [`WorkloadSignature`] promises to encode, reconstructed from the
/// public [`Operator`](spindle_graph::Operator) accessors rather than from
/// the signature itself.
type CostTuple = (OpKind, TensorShape, u64, u64, u64);

#[test]
fn workload_signature_is_injective_over_the_generator_space() {
    let bounds = FuzzBounds::quick();
    let mut sig_of: HashMap<CostTuple, WorkloadSignature> = HashMap::new();
    let mut tuple_of: HashMap<WorkloadSignature, CostTuple> = HashMap::new();
    for index in 0..32 {
        let scenario = Scenario::draw(SMOKE_SEED, index, &bounds);
        let active = vec![true; scenario.tasks.len()];
        let graph = scenario.graph_of(&active).unwrap();
        for op in graph.ops() {
            let tuple: CostTuple = (
                op.kind(),
                op.input_shape(),
                op.flops_forward().to_bits(),
                op.param_bytes(),
                op.output_bytes(),
            );
            let sig = op.workload_signature();
            // Well-defined: the same cost tuple always maps to one signature.
            if let Some(prev) = sig_of.insert(tuple, sig) {
                assert_eq!(prev, sig, "one cost tuple produced two signatures");
            }
            // Injective: one signature never covers two distinct cost tuples.
            if let Some(prev) = tuple_of.insert(sig, tuple) {
                assert_eq!(prev, tuple, "two cost tuples collided on {sig:?}");
            }
        }
    }
    assert!(
        tuple_of.len() > 32,
        "expected a diverse signature space, got {} distinct signatures",
        tuple_of.len()
    );
}

#[test]
fn equal_signatures_mean_identical_curve_cache_behavior() {
    let bounds = FuzzBounds::quick();
    let scenario = (0..64)
        .map(|i| Scenario::draw(SMOKE_SEED, i, &bounds))
        .find(|s| s.tasks.len() >= 3)
        .expect("quick bounds produce multi-task draws");
    let cluster = ClusterSpec::homogeneous(scenario.nodes, scenario.gpus_per_node);
    let all_active = vec![true; scenario.tasks.len()];
    let graph = scenario.graph_of(&all_active).unwrap();

    // Fitting is keyed by WorkloadSignature, so a cold plan performs at most
    // one fit per distinct signature in the graph.
    let distinct: std::collections::HashSet<WorkloadSignature> = graph
        .ops()
        .iter()
        .map(|op| op.workload_signature())
        .collect();
    let mut session = SpindleSession::new(cluster);
    session.plan(&graph).unwrap();
    assert!(
        session.curve_fits() <= distinct.len(),
        "{} fits for {} distinct signatures",
        session.curve_fits(),
        distinct.len()
    );

    // Every operator of a sub-graph shares its signature with the full
    // graph's operators, so re-planning any active subset is fully warm:
    // equal signatures served from cache, zero new fits.
    let mut subset = vec![false; scenario.tasks.len()];
    subset[0] = true;
    subset[scenario.tasks.len() - 1] = true;
    let sub_graph = scenario.graph_of(&subset).unwrap();
    let outcome = session.replan(&sub_graph).unwrap();
    assert_eq!(outcome.new_curve_fits, 0, "subset re-plan must be warm");
    assert!(outcome.warm);
}
