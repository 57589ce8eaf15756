//! Fig. 8: end-to-end iteration time of Spindle and the four baselines across
//! all workloads of Tab. 1b and all cluster sizes of the paper's testbed.
//!
//! For every (workload, cluster) pair the binary prints each system's
//! iteration time in milliseconds and its speedup over DeepSpeed (the paper's
//! reference system, "larger than 1 is faster"). The reproduction target is
//! the *shape*: Spindle fastest, the gap growing with the number of tasks and
//! with cluster size; Spindle-Optimus second at scale but sometimes behind on
//! one node; DistMM-MT ahead of the SOTA systems on Multitask-CLIP but weak
//! on OFASys. Spindle is fastest in 14 of the 17 cells: Spindle-Optimus wins
//! Multitask-CLIP with 4 and 7 tasks and OFASys with 7 tasks on 32 GPUs, and
//! `tests/end_to_end.rs` pins those three cells.

use spindle_bench::{cluster_label, compare_systems, ms, render_table, speedup};
use spindle_workloads::WorkloadPreset;

fn main() {
    println!("Fig. 8: end-to-end iteration time (ms) and speedup over DeepSpeed\n");
    for preset in WorkloadPreset::figure8_presets() {
        println!("== {preset} ==");
        let mut rows = Vec::new();
        for gpus in preset.paper_cluster_sizes() {
            let results = compare_systems(preset, gpus);
            for (system, time_ms, sp) in results {
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
}
