//! Micro-benchmarks of the Spindle execution planner's components
//! (Fig. 12's complexity analysis, broken down by stage): graph contraction,
//! device placement and the end-to-end `SpindleSession::plan` call. The MPSP
//! solve and wavefront scheduling of clip-10t level 0 are timed, and gated,
//! by the `planning_hot_path` bench.
//!
//! ```bash
//! cargo bench -p spindle-bench --bench planner
//! ```

use spindle_bench::microbench::{bench, group};
use spindle_cluster::ClusterSpec;
use spindle_core::{MetaGraph, PlacementStrategy, SpindleSession};
use spindle_workloads::{multitask_clip, ofasys, qwen_val, QwenValSize};

fn bench_contraction() {
    group("contraction");
    for (name, graph) in [
        ("clip-10t", multitask_clip(10).unwrap()),
        ("ofasys-7t", ofasys(7).unwrap()),
        ("qwen-val", qwen_val(QwenValSize::B9).unwrap()),
    ] {
        bench(name, 2, 20, || {
            let _ = MetaGraph::contract(&graph);
        });
    }
}

fn bench_placement() {
    group("device-placement");
    let graph = multitask_clip(10).unwrap();
    let cluster = ClusterSpec::homogeneous(4, 8);
    let unplaced = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
    for strategy in [PlacementStrategy::Locality, PlacementStrategy::Sequential] {
        bench(&format!("{strategy:?}"), 2, 20, || {
            let mut plan = unplaced.clone();
            strategy.place(&mut plan, &cluster).unwrap();
        });
    }
}

fn bench_end_to_end_planning() {
    group("planner-end-to-end (cold session per iteration)");
    for (name, graph, gpus) in [
        ("clip-4t/16gpu", multitask_clip(4).unwrap(), 16usize),
        ("clip-10t/32gpu", multitask_clip(10).unwrap(), 32),
        ("ofasys-7t/16gpu", ofasys(7).unwrap(), 16),
        ("qwen-val/64gpu", qwen_val(QwenValSize::B9).unwrap(), 64),
    ] {
        let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
        bench(name, 1, 10, || {
            let _ = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        });
    }
}

fn main() {
    bench_contraction();
    bench_placement();
    bench_end_to_end_planning();
}
