//! Planning a large decoder-only multi-modal model: QWen-VAL (9B/30B/70B)
//! across cluster sizes, reporting how Spindle's advantage over decoupled
//! execution grows with model and cluster scale (paper Fig. 8 right column and
//! Tab. 2).
//!
//! ```bash
//! cargo run --release --example qwen_val_large_model
//! ```

use spindle::baselines::SystemKind;
use spindle::prelude::*;
use spindle::workloads::QwenValSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (size, gpus) in [
        (QwenValSize::B9, 32usize),
        (QwenValSize::B9, 64),
        (QwenValSize::B30, 256),
    ] {
        let graph = qwen_val(size)?;
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(gpus / 8, 8));
        println!(
            "== {} on {} GPUs ({:.1}B parameters) ==",
            size.label(),
            gpus,
            graph.total_param_bytes() as f64 / 2e9
        );
        let mut deepspeed_ms = None;
        for kind in [
            SystemKind::DeepSpeed,
            SystemKind::SpindleOptimus,
            SystemKind::Spindle,
        ] {
            let plan = kind.plan(&graph, &mut session)?;
            let report = Simulator::new(&plan, session.cluster())
                .with_graph(&graph)
                .run_iteration()?;
            let ms = report.iteration_time_ms();
            let speedup = deepspeed_ms.map(|d: f64| d / ms).unwrap_or(1.0);
            if deepspeed_ms.is_none() {
                deepspeed_ms = Some(ms);
            }
            println!(
                "  {:16} iteration {:8.1} ms  ({:.2}x vs DeepSpeed), planner {:.2} s",
                kind.label(),
                ms,
                speedup,
                plan.planning_time().as_secs_f64()
            );
        }
        println!();
    }
    Ok(())
}
