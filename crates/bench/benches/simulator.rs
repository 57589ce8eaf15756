//! Benchmarks of the event-driven runtime simulator and the dynamic
//! online-re-planning loop.
//!
//! Every case's mean is written to `BENCH_sim.json` at the workspace root
//! (bench name → ns/iter) — together with `BENCH_planning.json` this is the
//! input to the CI perf-regression gate. Each plan is localised once, timed
//! on its own, and every configuration runs from that localisation. The
//! hyperscale cases also write their work counts as `work_*` entries, which
//! the gate pins exactly: the contended run's logged events, flow
//! repricings and events popped, and the serialized run's transmissions
//! and all-reduces. Set `SPINDLE_BENCH_QUICK=1` for the CI smoke mode.
//!
//! ```bash
//! cargo bench -p spindle-bench --bench simulator
//! SPINDLE_BENCH_QUICK=1 cargo bench -p spindle-bench --bench simulator
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use spindle_bench::microbench::{bench, group, quick_mode, write_json_report, Timing};
use spindle_cluster::ClusterSpec;
use spindle_core::SpindleSession;
use spindle_runtime::{
    price_checkpoint_write, DynamicRunLoop, LocalizedPlan, SimConfig, Straggler,
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
        let localized = LocalizedPlan::new(plan, &cluster, Some(&graph)).unwrap();

        let oracle = SimConfig::default();
        let t = bench(&format!("sim_serialized_{name}"), warmup, iters, || {
            let _ = localized.run(&oracle);
        });
        report.push((format!("sim_serialized_{name}"), t));

        let contended = SimConfig::contended();
        let t = bench(&format!("sim_contended_{name}"), warmup, iters, || {
            let _ = localized.run(&contended);
        });
        report.push((format!("sim_contended_{name}"), t));
    }

    group("localisation, serialized and contended simulator at hyperscale (work counters beside the time)");
    let graph = hyperscale(48).unwrap();
    let cluster = Arc::new(ClusterSpec::homogeneous(32, 8));
    let plan = Arc::new(
        SpindleSession::new(Arc::clone(&cluster))
            .plan(&graph)
            .unwrap(),
    );
    let name = "localize_hyperscale-48t/256gpu";
    let t = bench(name, warmup, iters, || {
        let _ = LocalizedPlan::new(Arc::clone(&plan), &cluster, Some(&graph)).unwrap();
    });
    report.push((name.to_string(), t));
    let localized = LocalizedPlan::new(plan, &cluster, Some(&graph)).unwrap();
    println!(
        "{:48} {} transmission sites, {} parameter groups",
        "",
        localized.sites().len(),
        localized.pool().num_groups()
    );

    let serialized = SimConfig::default();
    let name = "sim_serialized_hyperscale-48t/256gpu";
    let t = bench(name, warmup, iters, || {
        let _ = localized.run(&serialized);
    });
    report.push((name.to_string(), t));
    let serial = localized.run(&serialized);
    println!(
        "{:48} {} transmissions, {} syncs",
        "",
        serial.flows_executed(),
        serial.syncs_executed()
    );

    let contended = SimConfig::contended();
    let name = "sim_contended_hyperscale-48t/256gpu";
    let t = bench(name, warmup, iters, || {
        let _ = localized.run(&contended);
    });
    let run = localized.run(&contended);
    println!(
        "{:48} {} events, {} popped, {} flows repriced ({} transmissions, {} syncs)",
        "",
        run.event_log().entries().len(),
        run.events_popped(),
        run.flows_repriced(),
        run.flows_executed(),
        run.syncs_executed()
    );
    report.push((name.to_string(), t));
    for (counter, count) in [
        ("events", run.event_log().len()),
        ("flows_repriced", run.flows_repriced()),
        ("events_popped", run.events_popped()),
        ("serialized_flows", serial.flows_executed()),
        ("serialized_syncs", serial.syncs_executed()),
    ] {
        report.push((
            format!("work_sim_{counter}_hyperscale-48t/256gpu"),
            Timing::exact(Duration::from_nanos(count as u64)),
        ));
    }

    group("perturbed scenarios (clip-4t, 16 gpus)");
    let graph = multitask_clip(4).unwrap();
    let cluster = ClusterSpec::homogeneous(2, 8);
    let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
    let localized = LocalizedPlan::new(plan, &cluster, Some(&graph)).unwrap();
    let perturbed = SimConfig {
        compute_jitter: 0.05,
        stragglers: vec![Straggler::persistent(spindle_cluster::DeviceId(3), 2.0)],
        ..SimConfig::contended()
    };
    let t = bench("sim_straggler_jitter_clip-4t/16gpu", warmup, iters, || {
        let _ = localized.run(&perturbed);
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
    // the run loop's per-iteration path whenever a cadence is active. The
    // 48-task mix writes about two thousand shards over 32 storage links.
    for (name, graph, gpus) in [
        ("clip-4t/16gpu", multitask_clip(4).unwrap(), 16usize),
        ("clip-10t/32gpu", multitask_clip(10).unwrap(), 32),
        ("hyperscale-48t/256gpu", hyperscale(48).unwrap(), 256),
    ] {
        let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
        let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
        let t = bench(
            &format!("checkpoint_overhead_{name}"),
            warmup,
            iters,
            || {
                let stall = price_checkpoint_write(&cluster, &plan, true);
                assert!(stall > 0.0);
            },
        );
        report.push((format!("checkpoint_overhead_{name}"), t));
    }

    let path = report_path();
    write_json_report(&path, &report).expect("write BENCH_sim.json");
    println!("\nwrote {} entries to {}", report.len(), path.display());
}
