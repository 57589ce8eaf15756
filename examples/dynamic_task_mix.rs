//! Dynamic multi-task training (paper Appendix D): the active task set changes
//! as tasks join and finish; the system re-plans at every change.
//!
//! Each system keeps one long-lived [`SpindleSession`] across the whole run,
//! so re-planning a new phase reuses every scaling curve fitted in earlier
//! phases — after phase 1, phases whose operator signatures were all seen
//! before perform zero new curve fits and re-plan markedly faster.
//!
//! ```bash
//! cargo run --release --example dynamic_task_mix
//! ```

use spindle::baselines::SystemKind;
use spindle::prelude::*;
use spindle::workloads::DynamicWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schedule = DynamicWorkload::multitask_clip_schedule()?;
    let cluster = ClusterSpec::homogeneous(2, 8);
    println!(
        "dynamic workload: {} — {} iterations over {} phases\n",
        schedule.name(),
        schedule.total_iterations(),
        schedule.phases().len()
    );

    for kind in [
        SystemKind::DeepSpeed,
        SystemKind::SpindleOptimus,
        SystemKind::Spindle,
    ] {
        // One owned session per system: the curve cache persists across every
        // phase's re-plan.
        let mut session = SpindleSession::new(cluster.clone());
        let mut cumulative_s = 0.0;
        println!("== {kind} ==");
        for phase in schedule.phases() {
            let fits_before = session.curve_fits();
            let plan = kind.plan(&phase.graph, &mut session)?;
            let new_fits = session.curve_fits() - fits_before;
            let report = Simulator::new(&plan, session.cluster())
                .with_graph(&phase.graph)
                .run_iteration()?;
            // Each phase re-plans once, then trains for `iterations` steps.
            cumulative_s += plan.planning_time().as_secs_f64();
            cumulative_s += report.iteration_time_s() * phase.iterations as f64;
            println!(
                "  {:32} {:>7.1} ms/iter, re-plan {:>7.1} ms ({:>2} new curve fits), cumulative {:>8.1} x10^3 s",
                phase.label,
                report.iteration_time_ms(),
                plan.planning_time().as_secs_f64() * 1e3,
                new_fits,
                cumulative_s / 1e3
            );
        }
        let stats = session.planning_stats();
        println!(
            "  curve cache: {} entries, {} fits, {} hits ({:.0}% hit rate)\n",
            stats.curve_entries,
            stats.curve_fits,
            stats.curve_hits,
            stats.curve_hits as f64 / (stats.curve_hits + stats.curve_fits) as f64 * 100.0
        );
    }
    Ok(())
}
