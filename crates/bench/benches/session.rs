//! Warm-session vs. cold-session re-planning latency on the dynamic
//! Multitask-CLIP schedule (paper Appendix D / Fig. 13).
//!
//! The dynamic scenario re-plans at every task-mix change. A *cold* planner
//! (the legacy `Planner` behaviour) re-fits every scaling curve from scratch
//! per phase; a *warm* `SpindleSession` serves previously-seen operator
//! signatures from its curve cache and only fits the genuinely new ones. This
//! bench measures a full pass over the schedule's phases both ways and prints
//! the speedup.
//!
//! ```bash
//! cargo bench -p spindle-bench --bench session
//! ```

use spindle_bench::microbench::{bench, group};
use spindle_cluster::ClusterSpec;
use spindle_core::SpindleSession;
use spindle_workloads::DynamicWorkload;

fn main() {
    let schedule = DynamicWorkload::multitask_clip_schedule().expect("schedule builds");
    let cluster = ClusterSpec::homogeneous(2, 8);
    println!(
        "dynamic schedule: {} ({} phases); planning every phase once per iteration",
        schedule.name(),
        schedule.phases().len()
    );

    group("cold: fresh session (fresh curve cache) per phase");
    let cold = bench("re-plan all phases, cold", 1, 10, || {
        for phase in schedule.phases() {
            let mut session = SpindleSession::new(cluster.clone());
            let _ = session.plan(&phase.graph).unwrap();
        }
    });

    group("warm: one long-lived session across all phases");
    // Pre-warm once so the timed iterations measure steady-state re-planning.
    let mut session = SpindleSession::new(cluster.clone());
    for phase in schedule.phases() {
        let _ = session.plan(&phase.graph).unwrap();
    }
    let warm = bench("re-plan all phases, warm", 1, 10, || {
        for phase in schedule.phases() {
            let _ = session.plan(&phase.graph).unwrap();
        }
    });

    let stats = session.planning_stats();
    println!(
        "\ncurve cache after warm pass: {} entries, {} fits, {} hits ({:.0}% hit rate)",
        stats.curve_entries,
        stats.curve_fits,
        stats.curve_hits,
        stats.curve_hits as f64 / (stats.curve_hits + stats.curve_fits) as f64 * 100.0
    );
    println!(
        "warm-session speedup over cold re-planning: {:.2}x ({:.3} ms -> {:.3} ms per schedule pass)",
        cold.mean.as_secs_f64() / warm.mean.as_secs_f64(),
        cold.mean_ms(),
        warm.mean_ms()
    );
}
