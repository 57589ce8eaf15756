//! Hyperscale dynamic churn: incremental delta re-planning at a scale where
//! full re-planning visibly hurts.
//!
//! 48 heterogeneous tasks (deep adaptor→encoder→projection→loss pipelines
//! interleaved with shallow encoder→loss towers) train on 256 simulated
//! GPUs while a seeded churn trace arrives and departs one task at a time.
//! At every task-mix change the long-lived session re-plans online; the
//! structural plan cache splices cached level schedules for the levels each
//! event did not touch and reuses whole placed plans when a task mix recurs,
//! so re-planning cost collapses from milliseconds to tens of microseconds —
//! while producing plans bit-identical to planning from scratch.
//!
//! ```bash
//! cargo run --release --example hyperscale_churn
//! ```

use spindle::prelude::*;
use spindle::runtime::DynamicRunLoop;
use spindle::workloads::{hyperscale_churn, HYPERSCALE_DEFAULT_TASKS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::homogeneous(32, 8); // 256 GPUs
    let schedule = hyperscale_churn(0xC0FFEE, HYPERSCALE_DEFAULT_TASKS, 10, 120.0)?;
    println!(
        "== {} on {cluster}: {} phases, {} online re-plans ==\n",
        schedule.name(),
        schedule.arrivals().len(),
        schedule.num_replans()
    );

    let mut session = SpindleSession::new(cluster);
    let report = DynamicRunLoop::new(&mut session).run(&schedule)?;

    println!(
        "{:<26} {:>10} {:>9} {:>13} {:>9} {:>10}",
        "phase", "replan", "levels", "reused", "placed", "sim/iter"
    );
    for phase in &report.phases {
        println!(
            "{:<26} {:>8.2}ms {:>9} {:>9}/{:<3} {:>9} {:>8.1}ms",
            phase.label,
            phase.replan_ms,
            phase.replan.levels_total,
            phase.replan.levels_reused,
            phase.replan.levels_total,
            if phase.replan.placement_reused {
                "reused"
            } else {
                "fresh"
            },
            phase.sim_iteration_s * 1e3,
        );
    }

    println!("\n{report}");
    let stats = session.planning_stats();
    println!(
        "structural cache: {} level artifacts, {} placed skeletons, \
         {} level hits, {} skeleton hits",
        stats.level_entries, stats.skeleton_entries, stats.level_hits, stats.skeleton_hits
    );
    println!(
        "curve cache: {} curves, {} fits over the whole run ({} plans)",
        stats.curve_entries,
        stats.curve_fits,
        session.plans_produced()
    );
    Ok(())
}
