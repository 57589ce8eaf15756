//! Fig. 14 (Appendix F): single-task multi-modal (ST MM) workload comparison.
//!
//! Even with a single task, Spindle's operator-level allocation parallelises
//! the task's two modality towers across device groups, so it still beats the
//! SOTA systems; DistMM-MT — designed exactly for this case — lands close to
//! Spindle, which is the fidelity check this experiment provides.

use spindle_bench::{cluster_label, compare_systems, ms, render_table, speedup};
use spindle_workloads::WorkloadPreset;

fn main() {
    println!("Fig. 14: single-task Multitask-CLIP comparison\n");
    let preset = WorkloadPreset::MultitaskClip { tasks: 1 };
    let mut rows = Vec::new();
    for gpus in [8usize, 16, 32] {
        for (system, time_ms, sp) in compare_systems(preset, gpus) {
            rows.push(vec![
                cluster_label(gpus),
                system.label().to_string(),
                ms(time_ms),
                speedup(sp),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["Cluster", "System", "Iteration (ms)", "vs DeepSpeed"],
            &rows
        )
    );
}
