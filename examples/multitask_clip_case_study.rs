//! Case study (paper §5.3): plan and simulate the 4-task Multitask-CLIP
//! workload on 16 GPUs with Spindle and with the decoupled DeepSpeed-style
//! strategy, and compare utilization, memory balance and time breakdown.
//!
//! ```bash
//! cargo run --release --example multitask_clip_case_study
//! ```

use spindle::baselines::SystemKind;
use spindle::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = multitask_clip(4)?;
    // One session shared by all four systems: every system profiles operators
    // through the same curve cache, so they are compared on equal footing.
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    println!("workload: {graph}");
    println!("cluster:  {}\n", session.cluster());

    let mut reference_ms = None;
    for kind in [
        SystemKind::DeepSpeed,
        SystemKind::DistMmMt,
        SystemKind::SpindleOptimus,
        SystemKind::Spindle,
    ] {
        let plan = kind.plan(&graph, &mut session)?;
        let report = Simulator::new(&plan, session.cluster())
            .with_graph(&graph)
            .run_iteration()?;
        let breakdown = report.breakdown();
        let speedup = reference_ms
            .map(|r: f64| r / report.iteration_time_ms())
            .unwrap_or(1.0);
        if reference_ms.is_none() {
            reference_ms = Some(report.iteration_time_ms());
        }
        println!("== {kind} ==");
        println!(
            "  iteration {:.1} ms ({speedup:.2}x vs DeepSpeed), {} waves",
            report.iteration_time_ms(),
            plan.num_waves()
        );
        println!(
            "  fwd+bwd {:.1} ms | sync {:.1} ms | send/recv {:.1} ms",
            breakdown.fwd_bwd_s * 1e3,
            breakdown.sync_s * 1e3,
            breakdown.send_recv_s * 1e3
        );
        println!(
            "  avg cluster utilization {:.0}%, memory imbalance {:.2}x",
            report.average_utilization() * 100.0,
            report.memory_imbalance()
        );
        // A 10-bucket sparkline of the utilization-over-time trace (Fig. 9a).
        let trace = report.utilization_trace();
        let buckets = 10;
        let spark: String = (0..buckets)
            .map(|b| {
                let lo = b * trace.len() / buckets;
                let hi = ((b + 1) * trace.len() / buckets).max(lo + 1);
                let avg: f64 =
                    trace[lo..hi].iter().map(|s| s.tflops_per_s).sum::<f64>() / (hi - lo) as f64;
                match (avg / 1000.0 * 8.0).round() as u32 {
                    0 => ' ',
                    1 => '.',
                    2 => ':',
                    3 => '-',
                    4 => '=',
                    5 => '+',
                    6 => '*',
                    7 => '#',
                    _ => '@',
                }
            })
            .collect();
        println!("  utilization over time: [{spark}]\n");
    }
    Ok(())
}
