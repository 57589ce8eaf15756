//! Spindle-Optimus: workload-aware *task-level* resource allocation
//! (§5.1 baseline 4).
//!
//! Inspired by the Optimus cluster scheduler, this baseline treats each task
//! as an indivisible job. Devices are handed out one valid increment at a time
//! to the task with the largest marginal gain
//! `(T(n) − T(n′)) / (n′ − n)` — the reduction in task completion time per
//! additional device. Tasks then run concurrently, each executing its
//! operators sequentially on its own device share. The coarse granularity is
//! the point: it captures inter-task heterogeneity but not the intra-task kind,
//! which is what separates it from Spindle in the evaluation.

use std::collections::BTreeMap;
use std::time::Instant;

use spindle_core::{ExecutionPlan, PlanError, SpindleSession, Wave, WaveEntry};
use spindle_graph::{ComputationGraph, TaskId};

use crate::common::BaselineContext;

/// Plans `graph` with the Spindle-Optimus strategy within `session`.
pub(crate) fn plan(
    graph: &ComputationGraph,
    session: &SpindleSession,
) -> Result<ExecutionPlan, PlanError> {
    let started = Instant::now();
    let ctx = BaselineContext::from_session(graph, session)?;
    let tasks: Vec<TaskId> = ctx.task_metaops.keys().copied().collect();
    let n = ctx.num_devices;

    let mut waves: Vec<Wave> = Vec::new();
    let mut now = 0.0f64;
    // More tasks than devices: run them in concurrent groups of at most N.
    for group in tasks.chunks(n as usize) {
        let allocations = allocate_marginal_gain(&ctx, group, n);
        now = emit_task_waves(&ctx, group, &allocations, now, &mut waves);
    }

    // Waves of concurrent tasks interleave on the timeline: order them by
    // start time and re-index them.
    waves.sort_by(|a, b| a.start.total_cmp(&b.start));
    for (i, wave) in waves.iter_mut().enumerate() {
        wave.index = i;
    }
    Ok(ctx.plan(waves, started.elapsed()))
}

/// Lays out each task's sequential operator execution on its contiguous
/// range of the context's devices, all tasks starting at `start`.
/// Returns the end time of the slowest task.
fn emit_task_waves(
    ctx: &BaselineContext,
    tasks: &[TaskId],
    allocations: &BTreeMap<TaskId, u32>,
    start: f64,
    waves: &mut Vec<Wave>,
) -> f64 {
    let mut first_device = 0u32;
    let mut group_end = start;
    for &task in tasks {
        let devices = allocations[&task];
        let mut now = start;
        for &metaop_id in &ctx.task_metaops[&task] {
            let metaop = ctx.metagraph().metaop(metaop_id);
            let alloc = ctx.largest_valid_allocation(metaop_id, devices);
            let time_per_op = ctx.time_per_op(metaop_id, alloc);
            let layers = metaop.num_ops();
            let mut entry = WaveEntry::new(metaop_id, layers, alloc, time_per_op);
            entry.memory_per_device = ctx.memory_per_device(metaop_id, alloc, layers);
            entry.placement = Some(ctx.device_range(first_device, alloc));
            let duration = entry.exec_time;
            waves.push(Wave {
                index: 0, // re-indexed after sorting
                level: 0,
                start: now,
                duration,
                entries: vec![entry],
            });
            now += duration;
        }
        group_end = group_end.max(now);
        first_device += devices;
    }
    group_end
}

/// Completion time of a task when its operators execute sequentially on `n`
/// devices.
fn task_time(ctx: &BaselineContext, task: TaskId, n: u32) -> f64 {
    ctx.task_metaops[&task]
        .iter()
        .map(|&id| {
            let alloc = ctx.largest_valid_allocation(id, n);
            ctx.time_per_op(id, alloc) * f64::from(ctx.metagraph().metaop(id).num_ops())
        })
        .sum()
}

/// The next allocation larger than `current` at which the task actually runs
/// faster (Optimus' "next valid allocation number larger than n"). Returns the
/// allocation and the resulting task time, or `None` if no larger allocation
/// within `limit` helps.
fn next_useful_allocation(
    ctx: &BaselineContext,
    task: TaskId,
    current: u32,
    limit: u32,
) -> Option<(u32, f64)> {
    let t_current = task_time(ctx, task, current);
    (current + 1..=limit)
        .map(|n| (n, task_time(ctx, task, n)))
        .find(|&(_, t)| t < t_current * (1.0 - 1e-9))
}

/// Optimus marginal-gain allocation: every task starts with one device; spare
/// devices go, one valid increment at a time, to the task whose completion
/// time shrinks the most per added device.
fn allocate_marginal_gain(
    ctx: &BaselineContext,
    tasks: &[TaskId],
    num_devices: u32,
) -> BTreeMap<TaskId, u32> {
    let mut alloc: BTreeMap<TaskId, u32> = tasks.iter().map(|&t| (t, 1u32)).collect();
    let mut remaining = num_devices.saturating_sub(tasks.len() as u32);
    while remaining > 0 {
        let mut best: Option<(TaskId, u32, f64)> = None;
        for &task in tasks {
            let current = alloc[&task];
            let limit = current + remaining;
            let Some((next, t_next)) = next_useful_allocation(ctx, task, current, limit) else {
                continue;
            };
            let gain = (task_time(ctx, task, current) - t_next) / f64::from(next - current);
            if best.map_or(true, |(_, _, g)| gain > g) {
                best = Some((task, next, gain));
            }
        }
        match best {
            Some((task, next, gain)) if gain > 0.0 => {
                let current = alloc[&task];
                remaining -= next - current;
                *alloc.get_mut(&task).expect("task present") = next;
            }
            // No task benefits from more devices: stop handing them out.
            _ => break,
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::plan_on;
    use crate::SystemKind;
    use spindle_cluster::ClusterSpec;
    use spindle_runtime::Simulator;
    use spindle_workloads::{multitask_clip, ofasys};

    #[test]
    fn optimus_plan_is_valid_and_runs() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = plan_on(SystemKind::SpindleOptimus, &graph, &cluster);
        plan.validate().unwrap();
        plan.require_placement().unwrap();
        let report = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        assert!(report.iteration_time_ms() > 0.0);
    }

    #[test]
    fn concurrent_tasks_use_disjoint_devices() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = plan_on(SystemKind::SpindleOptimus, &graph, &cluster);
        // Any two waves overlapping in time must not share devices.
        let waves = plan.waves();
        for (i, a) in waves.iter().enumerate() {
            for b in waves.iter().skip(i + 1) {
                let overlap = a.start < b.end() - 1e-12 && b.start < a.end() - 1e-12;
                if !overlap {
                    continue;
                }
                for ea in &a.entries {
                    for eb in &b.entries {
                        let ga = ea.placement.as_ref().unwrap();
                        let gb = eb.placement.as_ref().unwrap();
                        assert!(
                            !ga.overlaps(gb),
                            "waves {} and {} overlap on devices",
                            a.index,
                            b.index
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn task_parallelism_beats_pure_sequential_execution_at_scale() {
        // Fig. 8 shows Spindle-Optimus losing to DeepSpeed on one node but
        // clearly winning at four nodes, where task-level parallelism has room
        // to pay off; this checks the four-node side of that trend.
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(4, 8);
        let optimus = plan_on(SystemKind::SpindleOptimus, &graph, &cluster);
        let decoupled = plan_on(SystemKind::DeepSpeed, &graph, &cluster);
        assert!(optimus.makespan() < decoupled.makespan());
    }

    #[test]
    fn heavier_tasks_receive_more_devices() {
        let graph = multitask_clip(4).unwrap();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let ctx = BaselineContext::from_session(&graph, &SpindleSession::new(cluster)).unwrap();
        let tasks: Vec<TaskId> = ctx.task_metaops.keys().copied().collect();
        let alloc = allocate_marginal_gain(&ctx, &tasks, 16);
        let total: u32 = alloc.values().sum();
        assert!(total <= 16);
        // The heaviest task (by serial time) gets at least as many devices as
        // the lightest.
        let heaviest = tasks
            .iter()
            .copied()
            .max_by(|&a, &b| task_time(&ctx, a, 1).total_cmp(&task_time(&ctx, b, 1)))
            .unwrap();
        let lightest = tasks
            .iter()
            .copied()
            .min_by(|&a, &b| task_time(&ctx, a, 1).total_cmp(&task_time(&ctx, b, 1)))
            .unwrap();
        assert!(alloc[&heaviest] >= alloc[&lightest]);
    }

    #[test]
    fn more_tasks_than_devices_are_chunked() {
        let graph = ofasys(7).unwrap();
        let cluster = ClusterSpec::homogeneous(1, 4);
        let plan = plan_on(SystemKind::SpindleOptimus, &graph, &cluster);
        plan.validate().unwrap();
        plan.require_placement().unwrap();
    }
}
