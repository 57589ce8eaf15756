//! Multitask-CLIP: an ImageBind-style multi-task contrastive workload.

use spindle_graph::{
    ComputationGraph, GraphBuilder, GraphError, Modality, OpKind, ParamId, TaskId, TensorShape,
};

/// Per-modality encoder configuration (ImageBind-style tower sizes).
#[derive(Debug, Clone, Copy)]
struct EncoderSpec {
    modality: Modality,
    layers: usize,
    hidden: u32,
    seq: u32,
}

/// The six modality encoders of Multitask-CLIP. The vision tower is ViT-H
/// sized, text follows OpenCLIP's large text tower, and the remaining
/// modalities use ViT-B-sized towers — together roughly the 1.2 B parameters
/// reported in Tab. 1b.
const ENCODERS: [EncoderSpec; 6] = [
    EncoderSpec {
        modality: Modality::Vision,
        layers: 32,
        hidden: 1280,
        seq: 257,
    },
    EncoderSpec {
        modality: Modality::Text,
        layers: 24,
        hidden: 1024,
        seq: 77,
    },
    EncoderSpec {
        modality: Modality::Audio,
        layers: 12,
        hidden: 768,
        seq: 229,
    },
    EncoderSpec {
        modality: Modality::Depth,
        layers: 12,
        hidden: 768,
        seq: 197,
    },
    EncoderSpec {
        modality: Modality::Thermal,
        layers: 12,
        hidden: 768,
        seq: 197,
    },
    EncoderSpec {
        modality: Modality::Motion,
        layers: 6,
        hidden: 512,
        seq: 128,
    },
];

/// The ten contrastive tasks (pairs of modalities). The first four match the
/// task labels of Fig. 4 (Task1-Text/Audio, Task2-Vision/Depth,
/// Task3-Audio/Thermal, Task4-Motion/Thermal); the remainder extend to the
/// 7- and 10-task configurations of Fig. 8. Each task carries its own batch
/// size, which is what creates inter-task workload heterogeneity.
const TASKS: [(&str, Modality, Modality, u32); 10] = [
    ("text-audio", Modality::Text, Modality::Audio, 32),
    ("vision-depth", Modality::Vision, Modality::Depth, 16),
    ("audio-thermal", Modality::Audio, Modality::Thermal, 48),
    ("motion-thermal", Modality::Motion, Modality::Thermal, 64),
    ("vision-text", Modality::Vision, Modality::Text, 24),
    ("vision-audio", Modality::Vision, Modality::Audio, 16),
    ("text-depth", Modality::Text, Modality::Depth, 32),
    ("vision-thermal", Modality::Vision, Modality::Thermal, 16),
    ("motion-text", Modality::Motion, Modality::Text, 64),
    ("audio-depth", Modality::Audio, Modality::Depth, 32),
];

/// Builds the Multitask-CLIP workload with the first `num_tasks` tasks
/// (1 ≤ `num_tasks` ≤ 10) and the default per-task batch sizes.
///
/// # Errors
///
/// Returns a [`GraphError`] if `num_tasks` is 0 (empty graph).
pub fn multitask_clip(num_tasks: usize) -> Result<ComputationGraph, GraphError> {
    multitask_clip_with_batch(num_tasks, 1.0)
}

/// Builds Multitask-CLIP with every task's batch size scaled by
/// `batch_scale` (values below 1 shrink the workload, useful for fast tests;
/// values above 1 enlarge it).
///
/// # Errors
///
/// Returns a [`GraphError`] if `num_tasks` is 0 or the scaled batch collapses
/// to an invalid shape.
pub fn multitask_clip_with_batch(
    num_tasks: usize,
    batch_scale: f64,
) -> Result<ComputationGraph, GraphError> {
    let num_tasks = num_tasks.min(TASKS.len());
    let mut b = GraphBuilder::new();

    // Shared per-modality encoder parameters: one ParamId per layer, reused by
    // every task that activates the modality (the sub-model sharing approach).
    let mut encoder_params: Vec<Vec<ParamId>> = Vec::with_capacity(ENCODERS.len());
    for spec in &ENCODERS {
        encoder_params.push((0..spec.layers).map(|_| b.new_param()).collect());
    }

    for &(name, ma, mb, batch) in TASKS.iter().take(num_tasks) {
        let batch = ((f64::from(batch) * batch_scale).round() as u32).max(1);
        let task = b.add_task(name, [ma, mb], batch);
        let tower_a = add_tower(&mut b, task, ma, batch, &encoder_params)?;
        let tower_b = add_tower(&mut b, task, mb, batch, &encoder_params)?;
        // The cross-modal module of Multitask-CLIP is a lightweight
        // contrastive loss over pooled features.
        let hidden = ENCODERS
            .iter()
            .find(|e| e.modality == ma)
            .map_or(768, |e| e.hidden);
        let loss = b.add_op(
            task,
            OpKind::ContrastiveLoss,
            TensorShape::new(batch, 1, hidden),
        )?;
        b.add_flow(tower_a, loss)?;
        b.add_flow(tower_b, loss)?;
    }
    b.build()
}

/// Adds one modality tower (encoder chain + projection) for a task, sharing
/// the modality's parameters, and returns the tower's output operator.
fn add_tower(
    b: &mut GraphBuilder,
    task: TaskId,
    modality: Modality,
    batch: u32,
    encoder_params: &[Vec<ParamId>],
) -> Result<spindle_graph::OpId, GraphError> {
    let (idx, spec) = ENCODERS
        .iter()
        .enumerate()
        .find(|(_, e)| e.modality == modality)
        .expect("every task modality has an encoder spec");
    let shape = TensorShape::new(batch, spec.seq, spec.hidden);
    let chain =
        b.add_op_chain_with_params(task, OpKind::Encoder(modality), shape, &encoder_params[idx])?;
    let proj = b.add_op(
        task,
        OpKind::Projection,
        TensorShape::new(batch, 1, spec.hidden),
    )?;
    b.add_flow(*chain.last().expect("encoder chains are non-empty"), proj)?;
    Ok(proj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_task_structure() {
        let g = multitask_clip(4).unwrap();
        assert_eq!(g.tasks().len(), 4);
        // Per task: two encoder chains + two projections + one loss.
        let expected_ops: usize = TASKS
            .iter()
            .take(4)
            .map(|&(_, a, b, _)| layers_of(a) + layers_of(b) + 3)
            .sum();
        assert_eq!(g.num_ops(), expected_ops);
        // Operators that feed no other: at least the four losses.
        let leaves = g
            .ops()
            .iter()
            .filter(|o| g.edges().iter().all(|&(a, _)| a != o.id()));
        assert!(leaves.count() >= 4);
    }

    fn layers_of(m: Modality) -> usize {
        ENCODERS.iter().find(|e| e.modality == m).unwrap().layers
    }

    #[test]
    fn parameter_count_matches_table_1b() {
        // Tab. 1b: 1.20 B parameters. Shared encoders are counted once no
        // matter how many tasks activate them.
        let g = multitask_clip(10).unwrap();
        let billions = g.total_param_bytes() as f64 / 2.0 / 1e9;
        assert!(
            billions > 0.9 && billions < 1.5,
            "got {billions:.2} B params"
        );
    }

    #[test]
    fn more_tasks_do_not_duplicate_shared_encoders() {
        let g4 = multitask_clip(4).unwrap();
        let g10 = multitask_clip(10).unwrap();
        let p4 = g4.total_param_bytes();
        let p10 = g10.total_param_bytes();
        // 10 tasks activate more encoders than 4 tasks but far fewer than 2.5x.
        assert!(p10 > p4);
        assert!((p10 as f64) < (p4 as f64) * 1.8);
        // FLOPs, in contrast, grow roughly with the number of tasks.
        assert!(g10.total_flops() > 1.8 * g4.total_flops());
    }

    #[test]
    fn tasks_have_heterogeneous_batches_and_modalities() {
        let g = multitask_clip(10).unwrap();
        let batches: Vec<u32> = g.tasks().iter().map(|t| t.batch_size()).collect();
        let mut unique = batches.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() >= 4, "batches should differ across tasks");
        assert!(g.tasks().iter().all(|t| t.modalities().len() == 2));
    }

    #[test]
    fn batch_scale_shrinks_workload() {
        let full = multitask_clip(4).unwrap();
        let small = multitask_clip_with_batch(4, 0.25).unwrap();
        assert!(small.total_flops() < full.total_flops() / 3.0);
        assert_eq!(small.tasks().len(), 4);
    }

    #[test]
    fn task_count_is_clamped() {
        let g = multitask_clip(25).unwrap();
        assert_eq!(g.tasks().len(), 10);
    }

    #[test]
    fn zero_tasks_is_an_error() {
        assert!(multitask_clip(0).is_err());
    }
}
