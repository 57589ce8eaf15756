//! Benchmarks over the *measured quantity* of the paper's headline figure:
//! simulated end-to-end iteration time of each system (Fig. 8 cells).
//!
//! `cargo bench -p spindle-bench --bench experiments` reports, for the
//! Multitask-CLIP 4-task workload on 16 GPUs, how long it takes each system's
//! planner + simulated runtime to produce its iteration measurement. The
//! experiment binaries in `src/bin/` print the full tables; these benches keep
//! the planning+simulation pipeline itself under performance regression watch.

use std::sync::Arc;

use spindle_baselines::{SpindleSession, SystemKind};
use spindle_bench::microbench::{bench, group};
use spindle_cluster::ClusterSpec;
use spindle_runtime::Simulator;
use spindle_workloads::multitask_clip;

fn bench_fig8_cell() {
    group("fig8-clip4t-16gpu (plan + simulate, warm session)");
    // Arc handles are created outside the timed closure so the measurement
    // covers planning + simulation, not deep copies of the workload graph.
    let graph = Arc::new(multitask_clip(4).unwrap());
    let cluster = ClusterSpec::homogeneous(2, 8);
    let mut session = SpindleSession::new(cluster.clone());
    for kind in SystemKind::ALL {
        bench(kind.label(), 1, 10, || {
            let plan = kind.planning_system().plan(&graph, &mut session).unwrap();
            let _ = Simulator::new(plan, &cluster)
                .with_graph(Arc::clone(&graph))
                .run_iteration()
                .unwrap()
                .iteration_time_ms();
        });
    }
}

fn bench_simulation_only() {
    group("runtime-simulation");
    let graph = Arc::new(multitask_clip(10).unwrap());
    let cluster = ClusterSpec::homogeneous(4, 8);
    let mut session = SpindleSession::new(cluster.clone());
    let plan = Arc::new(
        SystemKind::Spindle
            .planning_system()
            .plan(&graph, &mut session)
            .unwrap(),
    );
    bench("clip-10t-32gpu", 1, 10, || {
        let _ = Simulator::new(Arc::clone(&plan), &cluster)
            .with_graph(Arc::clone(&graph))
            .run_iteration()
            .unwrap();
    });
}

fn main() {
    bench_fig8_cell();
    bench_simulation_only();
}
