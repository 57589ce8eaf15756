//! Event-driven runtime simulation: link contention, stragglers,
//! heterogeneous GPUs, and online re-planning under task arrivals.
//!
//! Part 1 cross-checks the discrete-event simulator against the closed form
//! (the default serialized, contention-free run reproduces it up to float
//! rounding), then turns on the effects the closed form cannot express:
//! overlapped flows with link contention, a straggling GPU, and a slow
//! second node.
//!
//! Part 2 runs a dynamic task-arrival schedule through the online
//! re-planning loop: tasks join and finish at simulated timestamps, the
//! long-lived session re-plans at every change (warm curve cache), and the
//! report shows the per-phase plan-vs-simulated gap and the warm-cache hit
//! rate.
//!
//! ```bash
//! cargo run --release --example runtime_simulation
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use spindle::prelude::*;
use spindle::runtime::{CommMode, DynamicRunLoop, LocalizedPlan, SimConfig, Straggler};
use spindle::workloads::ArrivalSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::homogeneous(2, 8);
    let graph = multitask_clip(4)?;
    let mut session = SpindleSession::new(cluster.clone());
    let plan = session.plan(&graph)?;

    println!("== simulating Multitask-CLIP (4 tasks) on {cluster} ==\n");
    // Localise the plan once: transmissions, parameter groups, their prices
    // and link footprints. Every run below reads them.
    let localized = LocalizedPlan::new(Arc::new(plan), &cluster, Some(&graph))?;
    let closed_form = localized.closed_form_iteration_s();
    println!(
        "closed form:              {:>8.2} ms/iter",
        closed_form * 1e3
    );

    // Serialized, contention-free flows: the event-driven timeline runs the
    // closed form as events (the cross-check oracle).
    let oracle = localized.run(&SimConfig::default());
    println!(
        "simulator (oracle mode):  {:>8.2} ms/iter  (gap {:+.3}%, {} events)",
        oracle.total_ms(),
        oracle.gap_vs(closed_form) * 100.0,
        oracle.event_log().len()
    );

    // Overlapped flows sharing links: boundary transmissions and parameter
    // syncs contend instead of queueing politely.
    let contended = localized.run(&SimConfig::contended());
    println!(
        "simulator (contended):    {:>8.2} ms/iter  (gap {:+.3}%)",
        contended.total_ms(),
        contended.gap_vs(closed_form) * 100.0
    );

    // A straggling GPU: gpu3 runs 2.5x slower for the whole iteration.
    let straggling = localized.run(&SimConfig {
        stragglers: vec![Straggler::persistent(DeviceId(3), 2.5)],
        ..SimConfig::contended()
    });
    println!(
        "simulator (gpu3 straggles 2.5x): {:>8.2} ms/iter  ({:+.1}% vs contended)",
        straggling.total_ms(),
        (straggling.total_s() / contended.total_s() - 1.0) * 100.0
    );

    // A heterogeneous cluster: the second node's GPUs are a slower SKU.
    let speed_factors: BTreeMap<DeviceId, f64> = (8..16).map(|d| (DeviceId(d), 0.75)).collect();
    let hetero = localized.run(&SimConfig {
        speed_factors,
        compute_jitter: 0.03,
        seed: 1,
        ..SimConfig::contended()
    });
    println!(
        "simulator (node1 at 75% + 3% jitter): {:>5.2} ms/iter  ({:+.1}% vs contended)",
        hetero.total_ms(),
        (hetero.total_s() / contended.total_s() - 1.0) * 100.0
    );
    let busy = hetero.device_busy_s();
    let (min_busy, max_busy) = busy.values().fold((f64::INFINITY, 0.0f64), |(lo, hi), &b| {
        (lo.min(b), hi.max(b))
    });
    println!(
        "  per-device busy time: {:.2}..{:.2} ms (imbalance {:.2}x)\n",
        min_busy * 1e3,
        max_busy * 1e3,
        max_busy / min_busy.max(1e-12)
    );

    // -- Part 2: online re-planning under a seeded task-arrival process ------
    let schedule = ArrivalSchedule::multitask_clip_arrivals(17, 5, 120.0)?;
    println!(
        "== dynamic run: {} ({} phases, {} online re-plans, horizon {:.0} s) ==\n",
        schedule.name(),
        schedule.arrivals().len(),
        schedule.num_replans(),
        schedule.horizon_s()
    );
    let report = DynamicRunLoop::new(&mut session)
        .with_sim_config(SimConfig {
            comm_mode: CommMode::Overlapped,
            contention: true,
            ..SimConfig::default()
        })
        .run(&schedule)?;
    println!(
        "{:<10} {:>9} {:>11} {:>10} {:>11} {:>11} {:>8}",
        "phase", "arrival", "re-plan", "new fits", "sim/iter", "gap", "iters"
    );
    for phase in &report.phases {
        println!(
            "{:<10} {:>7.0} s {:>8.2} ms {:>10} {:>8.2} ms {:>10.2}% {:>8}",
            phase.label,
            phase.arrival_s,
            phase.replan_ms,
            if phase.warm {
                "warm".to_string()
            } else {
                phase.new_curve_fits.to_string()
            },
            phase.sim_iteration_s * 1e3,
            phase.gap * 100.0,
            phase.iterations
        );
    }
    println!("\n{report}");
    Ok(())
}
