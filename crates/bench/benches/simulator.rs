//! Benchmarks of the event-driven runtime simulator and the dynamic
//! online-re-planning loop.
//!
//! Every case's mean is written to `BENCH_sim.json` at the workspace root
//! (bench name → ns/iter) — together with `BENCH_planning.json` this is the
//! input to the CI perf-regression gate. Set `SPINDLE_BENCH_QUICK=1` for the
//! CI smoke mode.
//!
//! ```bash
//! cargo bench -p spindle-bench --bench simulator
//! SPINDLE_BENCH_QUICK=1 cargo bench -p spindle-bench --bench simulator
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use spindle_bench::microbench::{bench, group, quick_mode, write_json_report, Timing};
use spindle_cluster::ClusterSpec;
use spindle_core::SpindleSession;
use spindle_runtime::{
    price_checkpoint_write, CheckpointPolicy, DynamicRunLoop, LocalizedPlan, SimConfig, Simulator,
    Straggler,
};
use spindle_workloads::{hyperscale, multitask_clip, ArrivalSchedule, DynamicWorkload};

fn report_path() -> PathBuf {
    if let Ok(path) = std::env::var("SPINDLE_BENCH_SIM_OUT") {
        return PathBuf::from(path);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json")
}

fn main() {
    let quick = quick_mode();
    let (warmup, iters) = if quick { (1, 3) } else { (2, 30) };
    println!(
        "simulator bench{}",
        if quick { " (quick mode)" } else { "" }
    );
    let mut report: Vec<(String, Timing)> = Vec::new();

    group("one simulated iteration (serialized closed form vs contended)");
    for (name, tasks, gpus) in [
        ("clip-4t/16gpu", 4usize, 16usize),
        ("clip-10t/32gpu", 10, 32),
    ] {
        let graph = multitask_clip(tasks).unwrap();
        let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
        let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());

        let oracle = Simulator::new(Arc::clone(&plan), &cluster).with_graph(&graph);
        let t = bench(&format!("sim_serialized_{name}"), warmup, iters, || {
            let _ = oracle.run_iteration().unwrap();
        });
        report.push((format!("sim_serialized_{name}"), t));

        let contended = Simulator::new(Arc::clone(&plan), &cluster)
            .with_graph(&graph)
            .with_config(SimConfig::contended());
        let t = bench(&format!("sim_contended_{name}"), warmup, iters, || {
            let _ = contended.run_iteration().unwrap();
        });
        report.push((format!("sim_contended_{name}"), t));
    }

    group("serialized and contended simulator at hyperscale (work counters beside the time)");
    let graph = hyperscale(48).unwrap();
    let cluster = ClusterSpec::homogeneous(32, 8);
    let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
    let serialized = Simulator::new(Arc::clone(&plan), &cluster).with_graph(&graph);
    let name = "sim_serialized_hyperscale-48t/256gpu";
    let t = bench(name, warmup, iters, || {
        let _ = serialized.run_iteration().unwrap();
    });
    let localized = LocalizedPlan::new(Arc::clone(&plan), &cluster, Some(&graph)).unwrap();
    println!(
        "{:48} {} transmission sites, {} parameter groups",
        "",
        localized.sites().len(),
        localized.pool().num_groups()
    );
    report.push((name.to_string(), t));

    let contended = Simulator::new(Arc::clone(&plan), &cluster)
        .with_graph(&graph)
        .with_config(SimConfig::contended());
    let name = "sim_contended_hyperscale-48t/256gpu";
    let t = bench(name, warmup, iters, || {
        let _ = contended.run_iteration().unwrap();
    });
    let run = contended.run_iteration().unwrap();
    println!(
        "{:48} {} events, {} flows repriced ({} transmissions, {} syncs)",
        "",
        run.event_log().entries().len(),
        run.flows_repriced(),
        run.flows_executed(),
        run.syncs_executed()
    );
    report.push((name.to_string(), t));

    group("perturbed scenarios (clip-4t, 16 gpus)");
    let graph = multitask_clip(4).unwrap();
    let cluster = ClusterSpec::homogeneous(2, 8);
    let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
    let perturbed = Simulator::new(Arc::clone(&plan), &cluster)
        .with_graph(&graph)
        .with_config(SimConfig {
            compute_jitter: 0.05,
            stragglers: vec![Straggler::persistent(spindle_cluster::DeviceId(3), 2.0)],
            ..SimConfig::contended()
        });
    let t = bench("sim_straggler_jitter_clip-4t/16gpu", warmup, iters, || {
        let _ = perturbed.run_iteration().unwrap();
    });
    report.push(("sim_straggler_jitter_clip-4t/16gpu".to_string(), t));

    group("dynamic run loop (4-phase Multitask-CLIP schedule, warm session)");
    let workload = DynamicWorkload::multitask_clip_schedule().unwrap();
    let schedule = ArrivalSchedule::from_workload(&workload, 0.05);
    let mut session = SpindleSession::new(cluster.clone());
    // Warm the curve cache so the loop measures steady-state online re-plans.
    for arrival in schedule.arrivals() {
        session.plan(&arrival.graph).unwrap();
    }
    let t = bench("dynloop_clip_4phase/16gpu", warmup, iters, || {
        let report = DynamicRunLoop::new(&mut session).run(&schedule).unwrap();
        assert!(report.replans() >= 2);
    });
    report.push(("dynloop_clip_4phase/16gpu".to_string(), t));

    group("checkpoint write pricing (contended storage model)");
    // The steady-state cost the run loop charges per checkpoint: derive the
    // plan's per-device write flows and push them through the contended
    // storage-link model. This is pure pricing — no simulation — and sits on
    // the run loop's per-iteration path whenever a cadence is active.
    let policy = CheckpointPolicy::every(64);
    for (name, tasks, gpus) in [
        ("clip-4t/16gpu", 4usize, 16usize),
        ("clip-10t/32gpu", 10, 32),
    ] {
        let graph = multitask_clip(tasks).unwrap();
        let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
        let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
        let t = bench(
            &format!("checkpoint_overhead_{name}"),
            warmup,
            iters,
            || {
                let stall = price_checkpoint_write(&cluster, &plan, &policy, true);
                assert!(stall > 0.0);
            },
        );
        report.push((format!("checkpoint_overhead_{name}"), t));
    }

    let path = report_path();
    write_json_report(&path, &report).expect("write BENCH_sim.json");
    println!("\nwrote {} entries to {}", report.len(), path.display());
}
