//! Session curve-cache behaviour across plan revisions — the property that
//! makes `SpindleSession` the right API for dynamic multi-task training
//! (paper Appendix D): re-planning a mutated workload reuses cached scaling
//! curves for every unchanged operator signature, verified through the
//! estimator's fit-count probe.

use spindle::baselines::SystemKind;
use spindle::prelude::*;
use spindle::workloads::DynamicWorkload;
use spindle_cluster::ClusterSpec;

#[test]
fn warm_replan_of_the_same_workload_performs_zero_fits() {
    let graph = multitask_clip(4).unwrap();
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    let cold = session.plan(&graph).unwrap();
    let fits_after_cold = session.curve_fits();
    assert!(fits_after_cold > 0, "the cold plan must fit curves");

    let warm = session.plan(&graph).unwrap();
    assert_eq!(
        session.curve_fits(),
        fits_after_cold,
        "re-planning an unchanged workload must not fit any curve"
    );
    assert!(session.planning_stats().curve_hits > 0);

    // Cold and warm plans are identical in every scheduling decision.
    assert_eq!(cold.waves(), warm.waves());
    assert_eq!(cold.num_devices(), warm.num_devices());
    assert!((cold.makespan() - warm.makespan()).abs() < 1e-15);
    assert!((cold.theoretical_optimum() - warm.theoretical_optimum()).abs() < 1e-15);
}

#[test]
fn mutated_workload_only_fits_new_signatures() {
    // Growing Multitask-CLIP from 4 to 7 tasks adds tasks whose towers have
    // new batch/shape combinations but reuses the 4-task ones; the session
    // must fit curves only for the genuinely new operator signatures.
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    session.plan(&multitask_clip(4).unwrap()).unwrap();
    let fits_4t = session.curve_fits();

    // Independently measure how many distinct signatures each workload has.
    let mut fresh = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    fresh.plan(&multitask_clip(7).unwrap()).unwrap();
    let signatures_7t = fresh.curve_fits();

    session.plan(&multitask_clip(7).unwrap()).unwrap();
    let new_fits = session.curve_fits() - fits_4t;
    assert!(new_fits > 0, "7 tasks introduce new operator signatures");
    assert!(
        new_fits < signatures_7t,
        "shared signatures must come from the cache ({new_fits} new fits vs {signatures_7t} total)"
    );
    assert_eq!(
        session.curve_fits(),
        signatures_7t,
        "warm 4t+7t fits exactly the union of distinct signatures"
    );
}

#[test]
fn dynamic_schedule_phases_with_known_signatures_replan_fit_free() {
    // The Fig. 13 dynamic schedule: 4 -> 7 -> 10 -> 7 tasks. The final phase
    // shrinks back to a task mix whose operator signatures were all seen in
    // earlier phases, so its re-plan must perform zero new curve fits.
    let schedule = DynamicWorkload::multitask_clip_schedule().unwrap();
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    let mut fits_per_phase = Vec::new();
    for phase in schedule.phases() {
        let before = session.curve_fits();
        let plan = session.plan(&phase.graph).unwrap();
        plan.validate().unwrap();
        fits_per_phase.push(session.curve_fits() - before);
    }
    assert_eq!(fits_per_phase.len(), 4);
    assert!(fits_per_phase[0] > 0, "phase 1 starts cold");
    let last = *fits_per_phase.last().unwrap();
    assert_eq!(
        last, 0,
        "the shrink-back phase re-plans with zero new fits: {fits_per_phase:?}"
    );
}

#[test]
fn cold_and_warm_sessions_produce_identical_plans() {
    // A warm cache must never change planning *results*, only planning cost:
    // plans from a pre-warmed session equal plans from a cold one, wave for
    // wave, across every phase of the dynamic schedule.
    let schedule = DynamicWorkload::multitask_clip_schedule().unwrap();
    let cluster = ClusterSpec::homogeneous(2, 8);
    let mut warm = SpindleSession::new(cluster.clone());
    for phase in schedule.phases() {
        warm.plan(&phase.graph).unwrap(); // pre-warm on every signature
    }
    for phase in schedule.phases() {
        let from_warm = warm.plan(&phase.graph).unwrap();
        let from_cold = SpindleSession::new(cluster.clone())
            .plan(&phase.graph)
            .unwrap();
        assert_eq!(from_cold.waves(), from_warm.waves(), "{}", phase.label);
        assert!(
            (from_cold.theoretical_optimum() - from_warm.theoretical_optimum()).abs() < 1e-15,
            "{}",
            phase.label
        );
    }
}

#[test]
fn baselines_share_the_session_cache_with_spindle() {
    // After Spindle plans a workload in a session, a baseline planning the
    // same workload through the trait performs zero additional fits.
    let graph = multitask_clip(4).unwrap();
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    SystemKind::Spindle
        .planning_system()
        .plan(&graph, &mut session)
        .unwrap();
    let fits = session.curve_fits();
    for kind in [
        SystemKind::DeepSpeed,
        SystemKind::SpindleOptimus,
        SystemKind::DistMmMt,
    ] {
        kind.planning_system().plan(&graph, &mut session).unwrap();
        assert_eq!(
            session.curve_fits(),
            fits,
            "{kind} must reuse cached curves"
        );
    }
}
