//! Quickstart: define a small multi-task multi-modal workload, plan it with
//! Spindle, and simulate one training iteration.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use spindle::prelude::*;
use spindle_graph::GraphBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the workload: two contrastive tasks sharing nothing, one
    //    audio-text and one vision-text, with different batch sizes — the
    //    minimal example of inter-task workload heterogeneity.
    let mut builder = GraphBuilder::new();
    for (name, modality, seq, hidden, batch, layers) in [
        (
            "audio-text",
            Modality::Audio,
            229u32,
            768u32,
            32u32,
            12usize,
        ),
        ("vision-text", Modality::Vision, 257, 1280, 16, 32),
    ] {
        let task = builder.add_task(name, [modality, Modality::Text], batch);
        let tower = builder.add_op_chain(
            task,
            OpKind::Encoder(modality),
            spindle_graph::TensorShape::new(batch, seq, hidden),
            layers,
        )?;
        let text = builder.add_op_chain(
            task,
            OpKind::Encoder(Modality::Text),
            spindle_graph::TensorShape::new(batch, 77, 1024),
            24,
        )?;
        let loss = builder.add_op(
            task,
            OpKind::ContrastiveLoss,
            spindle_graph::TensorShape::new(batch, 1, hidden),
        )?;
        builder.add_flow(*tower.last().unwrap(), loss)?;
        builder.add_flow(*text.last().unwrap(), loss)?;
    }
    let graph = builder.build()?;
    println!("workload: {graph}");

    // 2. Open a planning session on the cluster: two nodes of eight A800-like
    //    GPUs. The session owns the estimator and its curve cache, so any
    //    further plans reuse the profiling work done here.
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    println!("cluster:  {}", session.cluster());

    // 3. Plan: graph contraction, scalability estimation, MPSP allocation,
    //    wavefront scheduling and device placement.
    let plan = session.plan(&graph)?;
    println!("plan:     {plan}");
    println!(
        "          theoretical optimum {:.1} ms, planned in {:.1} ms",
        plan.theoretical_optimum() * 1e3,
        plan.planning_time().as_secs_f64() * 1e3
    );
    for wave in plan.waves().iter().take(4) {
        println!(
            "          wave {:>2}: {:>5.2} ms, {} sliced MetaOps on {} devices",
            wave.index,
            wave.duration * 1e3,
            wave.entries.len(),
            wave.devices_used()
        );
    }

    // 4. Simulate one training iteration and read the paper's metrics.
    let report = Simulator::new(&plan, session.cluster())
        .with_graph(&graph)
        .run_iteration()?;
    let breakdown = report.breakdown();
    println!("iteration: {:.1} ms", report.iteration_time_ms());
    println!(
        "           fwd+bwd {:.1} ms | param sync {:.1} ms | send/recv {:.1} ms",
        breakdown.fwd_bwd_s * 1e3,
        breakdown.sync_s * 1e3,
        breakdown.send_recv_s * 1e3
    );
    println!(
        "           average cluster utilization {:.0}%",
        report.average_utilization() * 100.0
    );
    Ok(())
}
