//! Hot-path benchmarks of the allocation-free planning pipeline, with a
//! machine-readable report for cross-PR perf trajectories.
//!
//! Covers the paths this repo's perf work targets: cold single-phase planning
//! (fresh session, fresh curve cache), warm re-planning, the MPSP bisection
//! and wavefront micro-loops, the placement stage (`place_*`: one
//! `LevelSchedule::place` of a fixed, unplaced schedule, including the clone
//! of the schedule it consumes, on 32, 64 and 4 islands:
//! `place_hyperscale-48t/256gpu`, `place_hyperscale-64t/512gpu` and
//! `place_clip-10t/32gpu`), and sequential multi-phase planning of the
//! dynamic Multitask-CLIP schedule.
//!
//! Every case's mean is written to `BENCH_planning.json` at the workspace
//! root as `bench name → ns/iter`. The clip-10t/32gpu cold-plan probe also
//! writes its MPSP solves, bisection iterations, waves crafted and curve fits
//! as `work_plan_*` entries, which the gate pins exactly. Set
//! `SPINDLE_BENCH_QUICK=1` for the CI smoke mode (fewer iterations, same
//! coverage, same report).
//!
//! ```bash
//! cargo bench -p spindle-bench --bench planning_hot_path
//! SPINDLE_BENCH_QUICK=1 cargo bench -p spindle-bench --bench planning_hot_path
//! ```

use std::path::PathBuf;
use std::time::Duration;

use spindle_bench::microbench::{bench, group, quick_mode, write_json_report, Timing};
use spindle_cluster::ClusterSpec;
use spindle_core::pipeline::{ContractedGraph, CurveSet, LevelSchedule};
use spindle_core::{allocator, mpsp, wavefront, MetaOpArena, PlacementStrategy, SpindleSession};
use spindle_workloads::{hyperscale, multitask_clip, DynamicWorkload};

fn report_path() -> PathBuf {
    if let Ok(path) = std::env::var("SPINDLE_BENCH_OUT") {
        return PathBuf::from(path);
    }
    // CARGO_MANIFEST_DIR = crates/bench; the report lives at the workspace
    // root so it is easy to diff across PRs.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_planning.json")
}

fn main() {
    let quick = quick_mode();
    let (warmup, iters) = if quick { (1, 3) } else { (2, 30) };
    let mut report: Vec<(String, Timing)> = Vec::new();
    let record = |name: &str, t: Timing, report: &mut Vec<(String, Timing)>| {
        report.push((name.to_string(), t));
    };

    // -- Cold and warm single-phase planning ---------------------------------
    group("single-phase planning (Multitask-CLIP)");
    for (name, tasks, gpus) in [("clip-4t/16gpu", 4, 16usize), ("clip-10t/32gpu", 10, 32)] {
        let graph = multitask_clip(tasks).unwrap();
        let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
        let t = bench(&format!("cold_plan_{name}"), warmup, iters, || {
            let _ = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        });
        record(&format!("cold_plan_{name}"), t, &mut report);

        let mut session = SpindleSession::new(cluster.clone());
        session.plan(&graph).unwrap();
        let t = bench(&format!("warm_replan_{name}"), warmup, iters, || {
            let _ = session.plan(&graph).unwrap();
        });
        record(&format!("warm_replan_{name}"), t, &mut report);
    }

    // -- Stage micro-loops ---------------------------------------------------
    group("stage micro-loops (clip-10t, 32 gpus, level 0)");
    let graph = multitask_clip(10).unwrap();
    let cluster = ClusterSpec::homogeneous(4, 8);
    let estimator = spindle_estimator::ScalabilityEstimator::new(&cluster);
    let contracted = ContractedGraph::new(&graph);
    let curves = CurveSet::resolve(&contracted, &estimator).unwrap();
    let arena = MetaOpArena::build(contracted.metagraph(), &curves);
    let level = &contracted.metagraph().levels()[0];

    let mut scratch = mpsp::MpspScratch::new();
    let t = bench("mpsp_bisection_level0", warmup, iters.max(20), || {
        let _ = mpsp::solve_level(
            &arena,
            &level.metaops,
            32,
            mpsp::DEFAULT_EPSILON,
            &mut scratch,
        );
    });
    record("mpsp_bisection_level0", t, &mut report);

    let solution = mpsp::solve_level(
        &arena,
        &level.metaops,
        32,
        mpsp::DEFAULT_EPSILON,
        &mut scratch,
    );
    let alloc_plan = allocator::discretize_level(&solution, &arena, &level.metaops);
    let mut wf_scratch = wavefront::WavefrontScratch::new();
    let t = bench("wavefront_level0", warmup, iters.max(20), || {
        let _ =
            wavefront::schedule_level_dense(&alloc_plan, &arena, 32, 0, 0.0, 0, &mut wf_scratch);
    });
    record("wavefront_level0", t, &mut report);

    // -- Placement stage -----------------------------------------------------
    group("placement stage (hyperscale and Multitask-CLIP schedules)");
    for (name, graph, gpus) in [
        ("hyperscale-48t/256gpu", hyperscale(48), 256),
        ("hyperscale-64t/512gpu", hyperscale(64), 512),
        ("clip-10t/32gpu", multitask_clip(10), 32),
    ] {
        let place_cluster = ClusterSpec::homogeneous(gpus / 8, 8);
        let place_estimator = spindle_estimator::ScalabilityEstimator::new(&place_cluster);
        let contracted = ContractedGraph::new(&graph.unwrap());
        let curves = CurveSet::resolve(&contracted, &place_estimator).unwrap();
        let unplaced = LevelSchedule::build(
            &contracted,
            &curves,
            &place_estimator,
            gpus as u32,
            mpsp::DEFAULT_EPSILON,
            None,
        );
        let key = format!("place_{name}");
        let t = bench(&key, warmup, iters, || {
            let _ = unplaced
                .clone()
                .place(
                    &contracted,
                    &place_cluster,
                    PlacementStrategy::Locality,
                    Duration::ZERO,
                )
                .unwrap();
        });
        record(&key, t, &mut report);
    }

    // -- Multi-phase planning -------------------------------------------------
    group("dynamic Multitask-CLIP schedule: sequential phases");
    let schedule = DynamicWorkload::multitask_clip_schedule().unwrap();
    let phase_cluster = ClusterSpec::homogeneous(2, 8);
    for (suffix, sched) in [("4", schedule.clone()), ("8", schedule.repeated(2))] {
        let graphs = sched.phase_graphs();
        let mut session = SpindleSession::new(phase_cluster.clone());
        // Warm the curve cache once so the pass measures steady-state
        // re-planning (the Fig. 13 regime).
        for g in &graphs {
            session.plan(g).unwrap();
        }
        let t = bench(
            &format!("phases_sequential_{suffix}"),
            warmup,
            iters,
            || {
                for g in &graphs {
                    let _ = session.plan(g).unwrap();
                }
            },
        );
        record(&format!("phases_sequential_{suffix}"), t, &mut report);
    }

    // -- Zero-alloc probes ---------------------------------------------------
    let mut session = SpindleSession::new(cluster.clone());
    let plan = session.plan(&graph).unwrap();
    let stats = session.planning_stats();
    println!(
        "\nplanning_stats probe (clip-10t/32gpu): {} mpsp solves, {} bisection iterations, \
         {} waves crafted, scratch high-water mpsp={} wavefront={}",
        stats.mpsp_solves,
        stats.bisection_iterations,
        stats.waves_crafted,
        stats.mpsp_scratch_high_water,
        stats.wavefront_scratch_high_water
    );
    assert_eq!(
        stats.waves_crafted,
        plan.num_waves() as u64,
        "probe must account for every wave"
    );
    for (counter, count) in [
        ("mpsp_solves", stats.mpsp_solves),
        ("bisection_iters", stats.bisection_iterations),
        ("waves_crafted", stats.waves_crafted),
        ("curve_fits", session.curve_fits() as u64),
    ] {
        report.push((
            format!("work_plan_{counter}_clip-10t/32gpu"),
            Timing::exact(Duration::from_nanos(count)),
        ));
    }
    let largest_level = contracted
        .metagraph()
        .levels()
        .iter()
        .map(|l| l.metaops.len())
        .max()
        .unwrap_or(0);
    assert!(
        stats.mpsp_scratch_high_water <= largest_level,
        "zero-alloc invariant: MPSP scratch must not outgrow the largest level"
    );

    let path = report_path();
    write_json_report(&path, &report).expect("write BENCH_planning.json");
    println!("\nwrote {} entries to {}", report.len(), path.display());
}
