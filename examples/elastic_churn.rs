//! Elastic clusters: seeded device churn through the dynamic run loop.
//!
//! A Multitask-CLIP arrival schedule is overlaid with a seeded device-churn
//! trace — node losses, GPU-range failures, preemption windows that return
//! their devices, explicit restores — and driven end to end through
//! [`DynamicRunLoop`] on a contended simulator. Every removal fault-injects
//! into the in-flight simulated wave (discarding the work the dead devices
//! were doing), re-plans the active task mix onto the survivors with the
//! clean level prefix keeping its placements, prices the parameter migration
//! through the simulator's link-contention model, and resumes. The run never
//! places work on a dead device and never crashes: graceful degradation, in
//! one table.
//!
//! ```bash
//! cargo run --release --example elastic_churn
//! ```

use spindle::prelude::*;
use spindle::runtime::{DynamicRunLoop, SimConfig};
use spindle::workloads::ArrivalSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::homogeneous(2, 8); // 16 GPUs, 2 NVLink islands
    let num_devices = cluster.num_devices() as u32;
    let schedule = ArrivalSchedule::multitask_clip_arrivals(5, 4, 60.0)?.with_seeded_device_churn(
        17,
        num_devices,
        8,
    );
    println!(
        "== {} on {cluster}: {} phases, {} topology changes ==\n",
        schedule.name(),
        schedule.arrivals().len(),
        schedule.num_topology_changes()
    );

    let mut session = SpindleSession::new(cluster);
    let report = DynamicRunLoop::new(&mut session)
        .with_sim_config(SimConfig::contended())
        .run(&schedule)?;

    println!(
        "{:<44} {:>4} {:>5} {:>9} {:>11} {:>10} {:>9} {:>9}",
        "event", "lost", "lvls", "replan", "migrated", "mig-time", "wasted", "iter"
    );
    for c in &report.churn {
        println!(
            "{:<44} {:>4} {:>2}/{:<2} {:>7.2}ms {:>8}MiB {:>8.2}ms {:>7.2}ms {:>7.2}ms",
            format!("t={:.1}s {}", c.at_s, c.label),
            c.replan.devices_lost,
            c.replan.levels_replaced,
            c.replan.levels_total,
            c.replan_ms,
            c.migration_bytes >> 20,
            c.sim_migration_s * 1e3,
            c.wasted_compute_s * 1e3,
            c.iteration_after_s * 1e3,
        );
    }

    println!("\n{report}");
    println!(
        "churn overhead: {:.3}s (wasted in-flight compute + contended migration)",
        report.churn_overhead_s()
    );
    assert!(
        session.removed_devices().len() < num_devices as usize,
        "the cluster always keeps survivors"
    );
    Ok(())
}
