//! Integration-level property checks on the workload zoo and the baseline
//! planners: structural invariants that must hold for any task count, model
//! size or cluster shape used by the experiments.
//!
//! The former proptest cases are expressed as exhaustive sweeps over the small
//! parameter grids they used to sample from (task count × cluster shape ×
//! system), which gives strictly better coverage without the dependency.

use spindle::baselines::SystemKind;
use spindle::prelude::*;
use spindle::workloads::{
    figure13_presets, multitask_clip, ofasys, qwen_val, QwenValSize, WorkloadPreset,
};
use spindle_cluster::ClusterSpec;
use spindle_core::MetaGraph;

#[test]
fn presets_report_consistent_task_counts() {
    for preset in WorkloadPreset::figure8_presets()
        .into_iter()
        .chain(figure13_presets())
    {
        let graph = preset.build().unwrap();
        assert_eq!(graph.tasks().len(), preset.num_tasks(), "{preset}");
        // Every task activates at least one operator and exactly one loss.
        for task in graph.tasks() {
            let ops: Vec<_> = graph
                .ops()
                .iter()
                .filter(|o| o.task() == task.id())
                .collect();
            assert!(!ops.is_empty(), "{preset}: {task} has no operators");
            let losses = ops.iter().filter(|o| o.kind().is_loss()).count();
            assert_eq!(losses, 1, "{preset}: {task} should end in one loss");
        }
    }
}

#[test]
fn contraction_shrinks_every_preset_substantially() {
    // Graph contraction is what keeps planning tractable: stacked layers fuse,
    // so the MetaGraph must be much smaller than the operator graph.
    for preset in WorkloadPreset::figure8_presets() {
        let graph = preset.build().unwrap();
        let metagraph = MetaGraph::contract(&graph);
        assert_eq!(metagraph.total_ops(), graph.num_ops(), "{preset}");
        assert!(
            metagraph.num_metaops() * 3 <= graph.num_ops(),
            "{preset}: contraction should fuse layer chains ({} metaops from {} ops)",
            metagraph.num_metaops(),
            graph.num_ops()
        );
    }
}

#[test]
fn qwen_val_sizes_are_ordered_in_flops_and_params() {
    let b9 = qwen_val(QwenValSize::B9).unwrap();
    let b30 = qwen_val(QwenValSize::B30).unwrap();
    let b70 = qwen_val(QwenValSize::B70).unwrap();
    assert!(b9.total_flops() < b30.total_flops());
    assert!(b30.total_flops() < b70.total_flops());
    assert!(b9.total_param_bytes() < b30.total_param_bytes());
    assert!(b30.total_param_bytes() < b70.total_param_bytes());
}

#[test]
fn task_count_growth_adds_flops_monotonically() {
    let mut previous = 0.0;
    for tasks in [1usize, 4, 7, 10] {
        let flops = multitask_clip(tasks).unwrap().total_flops();
        assert!(flops > previous, "{tasks} tasks should add work");
        previous = flops;
    }
    let mut previous = 0.0;
    for tasks in [1usize, 4, 7] {
        let flops = ofasys(tasks).unwrap().total_flops();
        assert!(flops > previous);
        previous = flops;
    }
}

/// Every baseline produces a valid, fully placed plan for any CLIP task
/// count and any small cluster, and the plan covers every operator.
#[test]
fn baselines_always_produce_valid_plans() {
    for nodes in 1usize..3 {
        let cluster = ClusterSpec::homogeneous(nodes, 8);
        // One session per cluster: all task counts and systems share curves.
        let mut session = SpindleSession::new(cluster.clone());
        for tasks in 1usize..6 {
            let graph = multitask_clip(tasks).unwrap();
            for kind in SystemKind::ALL {
                let plan = kind.plan(&graph, &mut session).unwrap();
                assert!(
                    plan.validate().is_ok(),
                    "{kind}/{tasks}t/{nodes}n: {:?}",
                    plan.validate()
                );
                assert!(plan.require_placement().is_ok(), "{kind}/{tasks}t/{nodes}n");
                assert!(plan.makespan() > 0.0, "{kind}/{tasks}t/{nodes}n");
                assert!(plan.num_devices() as usize == cluster.num_devices());
            }
        }
    }
}

/// The decoupled baselines schedule exactly one MetaOp per wave (strictly
/// sequential execution), which is the property the paper's Fig. 1
/// motivation rests on.
#[test]
fn decoupled_baselines_are_strictly_sequential() {
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
    for tasks in 1usize..5 {
        let graph = ofasys(tasks).unwrap();
        for kind in [
            SystemKind::DeepSpeed,
            SystemKind::MegatronLM,
            SystemKind::SpindleSeq,
        ] {
            let plan = kind.plan(&graph, &mut session).unwrap();
            assert_eq!(
                plan.num_waves(),
                plan.metagraph().num_metaops(),
                "{kind}/{tasks}t"
            );
            for wave in plan.waves() {
                assert_eq!(wave.entries.len(), 1, "{kind}/{tasks}t");
            }
        }
    }
}
