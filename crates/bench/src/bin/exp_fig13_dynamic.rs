//! Fig. 13 (Appendix D): dynamic multi-task workloads.
//!
//! The active task set changes several times over a long training run (tasks
//! join and finish). Each system re-plans at every change; the figure tracks
//! the *cumulative* training time. The reproduction target: Spindle's curve
//! stays lowest throughout, because it adapts its execution plan to every task
//! mix; re-planning cost (seconds) is negligible against the tens of thousands
//! of iterations per phase.

use spindle_baselines::{SpindleSession, SystemKind};
use spindle_bench::{measure, paper_cluster, render_table};
use spindle_workloads::DynamicWorkload;

fn main() {
    println!("Fig. 13: dynamic multi-task workloads (cumulative training time, 16 GPUs)\n");
    let cluster = paper_cluster(16);
    let schedules = [
        DynamicWorkload::multitask_clip_schedule().expect("clip schedule"),
        DynamicWorkload::ofasys_schedule().expect("ofasys schedule"),
    ];

    for schedule in &schedules {
        println!(
            "== {} ({} iterations, {} task-set changes) ==",
            schedule.name(),
            schedule.total_iterations(),
            schedule.num_changes()
        );
        let mut rows = Vec::new();
        for kind in SystemKind::ALL {
            // One long-lived session per system: re-planning at each phase
            // change reuses every scaling curve fitted in earlier phases.
            let mut session = SpindleSession::new(cluster.clone());
            let mut cumulative_s = 0.0;
            let mut checkpoints = Vec::new();
            for phase in schedule.phases() {
                let m = measure(kind, &phase.graph, &mut session);
                // Re-planning happens once per phase and costs planner time.
                cumulative_s += m.plan.planning_time().as_secs_f64();
                cumulative_s += m.report.iteration_time_s() * phase.iterations as f64;
                checkpoints.push(format!("{:.1}", cumulative_s / 1e3));
            }
            let mut row = vec![kind.label().to_string()];
            row.extend(checkpoints);
            let stats = session.planning_stats();
            row.push(format!(
                "{} fits / {} hits",
                stats.curve_fits, stats.curve_hits
            ));
            rows.push(row);
        }
        let mut header: Vec<String> = vec!["System".to_string()];
        header.extend(
            schedule
                .phases()
                .iter()
                .map(|p| format!("after {} ({}k iters)", p.label, p.iterations / 1000)),
        );
        header.push("curve cache".to_string());
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        println!("{}", render_table(&header_refs, &rows));
        println!("(cumulative time in 10^3 seconds, as in the paper's y-axis)\n");
    }
}
