//! The hyperscale dynamic-churn workload: 48–64 concurrent tasks sized for
//! 256–512 simulated GPUs.
//!
//! The paper's presets top out at ten tasks on 32 GPUs — a scale where full
//! re-planning is already cheap, so incremental re-planning barely registers.
//! This preset models the regime the dynamic-schedule story (Appendix D) and
//! compound multi-task training systems actually live in: dozens of tasks,
//! hundreds of devices, and frequent task arrivals/departures, where a full
//! pipeline pass visibly hurts and the structural plan cache pays off.
//!
//! The roster holds [`HYPERSCALE_ROSTER`] task templates of two depths:
//!
//! * **shallow** tasks — an encoder tower feeding a contrastive loss
//!   (MetaLevels 0–1);
//! * **deep** tasks — a modality adaptor, a heavier encoder tower, a
//!   projection and a generative loss (MetaLevels 0–3).
//!
//! Because shallow tasks never reach levels 2–3, churning a shallow task
//! leaves the deep-only levels *clean*: an incremental re-plan splices their
//! cached schedules and re-solves only the levels the event actually touched.
//! Template dimensions (modality, batch, sequence length, tower depth) are
//! derived deterministically from the roster slot, so the same active set
//! always builds the same graph.

use spindle_graph::{
    ComputationGraph, GraphBuilder, GraphError, Modality, OpKind, TensorShape, XorShift64Star,
};

use crate::{ArrivalSchedule, PhaseArrival};

/// Number of task templates in the hyperscale roster.
pub const HYPERSCALE_ROSTER: usize = 64;

/// Default number of active tasks of the preset.
pub const HYPERSCALE_DEFAULT_TASKS: usize = 48;

/// One roster slot's template, derived from its index.
#[derive(Debug, Clone, Copy)]
struct TaskTemplate {
    modality: Modality,
    batch: u32,
    seq: u32,
    hidden: u32,
    tower_layers: usize,
    deep: bool,
}

fn template(slot: usize) -> TaskTemplate {
    const MODALITIES: [Modality; 6] = [
        Modality::Vision,
        Modality::Text,
        Modality::Audio,
        Modality::Depth,
        Modality::Thermal,
        Modality::Motion,
    ];
    const BATCHES: [u32; 5] = [16, 24, 32, 48, 64];
    const SEQS: [u32; 4] = [77, 128, 197, 257];
    let deep = slot % 2 == 0;
    TaskTemplate {
        modality: MODALITIES[slot % MODALITIES.len()],
        batch: BATCHES[slot % BATCHES.len()],
        seq: SEQS[slot % SEQS.len()],
        hidden: if deep { 1024 } else { 768 },
        tower_layers: if deep {
            12 + 4 * (slot % 4)
        } else {
            6 + 2 * (slot % 3)
        },
        deep,
    }
}

/// Builds the hyperscale workload over an explicit set of roster slots
/// (deduplicated, built in ascending slot order so a recurring active set
/// always produces the same graph).
///
/// # Errors
///
/// Returns a [`GraphError`] if `slots` selects no valid roster entry.
pub fn hyperscale_subset(slots: &[usize]) -> Result<ComputationGraph, GraphError> {
    let mut active: Vec<usize> = slots
        .iter()
        .copied()
        .filter(|&s| s < HYPERSCALE_ROSTER)
        .collect();
    active.sort_unstable();
    active.dedup();
    let mut b = GraphBuilder::new();
    for &slot in &active {
        let t = template(slot);
        let task = b.add_task(
            format!("hyper-{slot}"),
            [t.modality, Modality::Text],
            t.batch,
        );
        let tower_shape = TensorShape::new(t.batch, t.seq, t.hidden);
        if t.deep {
            let adaptor = b.add_op(task, OpKind::Adaptor(t.modality), tower_shape)?;
            let tower = b.add_op_chain(
                task,
                OpKind::Encoder(t.modality),
                tower_shape,
                t.tower_layers,
            )?;
            b.add_flow(adaptor, tower[0])?;
            let proj = b.add_op(
                task,
                OpKind::Projection,
                TensorShape::new(t.batch, 1, t.hidden),
            )?;
            b.add_flow(*tower.last().expect("towers are non-empty"), proj)?;
            let loss = b.add_op(
                task,
                OpKind::GenerativeLoss,
                TensorShape::new(t.batch, 1, t.hidden),
            )?;
            b.add_flow(proj, loss)?;
        } else {
            let tower = b.add_op_chain(
                task,
                OpKind::Encoder(t.modality),
                tower_shape,
                t.tower_layers,
            )?;
            let loss = b.add_op(
                task,
                OpKind::ContrastiveLoss,
                TensorShape::new(t.batch, 1, t.hidden),
            )?;
            b.add_flow(*tower.last().expect("towers are non-empty"), loss)?;
        }
    }
    b.build()
}

/// Builds the hyperscale workload with the first `num_tasks` roster slots
/// (clamped to [`HYPERSCALE_ROSTER`]).
///
/// # Errors
///
/// Returns a [`GraphError`] if `num_tasks` is zero.
pub fn hyperscale(num_tasks: usize) -> Result<ComputationGraph, GraphError> {
    let n = num_tasks.min(HYPERSCALE_ROSTER);
    let slots: Vec<usize> = (0..n).collect();
    hyperscale_subset(&slots)
}

/// A seeded arrival/departure churn trace over the hyperscale roster: the
/// active set starts as the first `initial_tasks` slots, and every subsequent
/// phase toggles exactly one roster slot — a departure when the set is large,
/// an arrival when it is small (bounded walk), exponential inter-arrival
/// times of mean `mean_gap_s`. Churn is bursty the way real compound
/// training workloads are: about half the events toggle the *previous*
/// event's slot back (a short-lived task joins and promptly finishes, or a
/// paused task resumes), so task mixes recur. Single-slot deltas are the
/// workload the incremental re-planner targets: each event perturbs only the
/// levels the toggled task participates in, and recurring mixes are served
/// from the placed-skeleton cache wholesale.
///
/// # Errors
///
/// Returns a [`GraphError`] if a phase graph fails to build.
///
/// # Panics
///
/// Panics if `phases` or `initial_tasks` is zero, or `mean_gap_s` is not
/// positive.
pub fn hyperscale_churn(
    seed: u64,
    initial_tasks: usize,
    phases: usize,
    mean_gap_s: f64,
) -> Result<ArrivalSchedule, GraphError> {
    assert!(phases > 0, "schedule needs at least one phase");
    assert!(initial_tasks > 0, "need at least one initial task");
    assert!(mean_gap_s > 0.0, "mean inter-arrival gap must be positive");
    let initial = initial_tasks.min(HYPERSCALE_ROSTER);
    let lo = initial.saturating_sub(6).max(1);
    let hi = (initial + 6).min(HYPERSCALE_ROSTER);
    let mut rng = XorShift64Star::new(seed);
    let mut active: Vec<bool> = (0..HYPERSCALE_ROSTER).map(|s| s < initial).collect();
    let mut count = initial;
    let mut at = 0.0;
    let mut last_slot: Option<usize> = None;
    let mut arrivals = Vec::with_capacity(phases);
    for i in 0..phases {
        let label = if i == 0 {
            format!("{count} tasks")
        } else {
            // Toggle one roster slot: prefer departures near the upper bound,
            // arrivals near the lower bound, otherwise flip a coin.
            let depart = if count >= hi {
                true
            } else if count <= lo {
                false
            } else {
                rng.next_u64() % 2 == 0
            };
            let pick = |rng: &mut XorShift64Star, active: &[bool], want: bool| {
                let candidates: Vec<usize> = (0..HYPERSCALE_ROSTER)
                    .filter(|&s| active[s] == want)
                    .collect();
                candidates[(rng.next_u64() % candidates.len() as u64) as usize]
            };
            // Bursty recurrence: half the time revert the previous toggle
            // (when its direction matches), bringing a prior mix back.
            let slot = match last_slot {
                Some(last) if active[last] == depart && rng.next_u64() % 2 == 0 => last,
                _ => pick(&mut rng, &active, depart),
            };
            last_slot = Some(slot);
            active[slot] = !depart;
            if depart {
                count -= 1;
            } else {
                count += 1;
            }
            let u = rng.next_f64();
            at += mean_gap_s * -(1.0 - u).max(f64::MIN_POSITIVE).ln();
            if depart {
                format!("{count} tasks (-hyper-{slot})")
            } else {
                format!("{count} tasks (+hyper-{slot})")
            }
        };
        let slots: Vec<usize> = (0..HYPERSCALE_ROSTER).filter(|&s| active[s]).collect();
        arrivals.push(PhaseArrival {
            at_s: at,
            label,
            graph: hyperscale_subset(&slots)?,
        });
    }
    Ok(ArrivalSchedule::new(
        format!("Hyperscale churn (seed {seed})"),
        arrivals,
        at + mean_gap_s,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_builds_with_mixed_depths() {
        let g = hyperscale(HYPERSCALE_DEFAULT_TASKS).unwrap();
        assert_eq!(g.tasks().len(), HYPERSCALE_DEFAULT_TASKS);
        // Deep tasks run adaptor → tower → projection → loss, shallow ones
        // tower → loss: their losses sit at different op depths (after
        // contraction this yields MetaLevels 0–3 for deep and 0–1 for
        // shallow tasks, which the incremental re-planner exploits).
        // Longest-path depth of every operator, from the edge list.
        let mut depths = vec![0usize; g.num_ops()];
        for op in g.topological_order() {
            for &(pred, _) in g.edges().iter().filter(|&&(_, b)| b == op) {
                depths[op.index()] = depths[op.index()].max(depths[pred.index()] + 1);
            }
        }
        let loss_depth = |task: usize| {
            g.ops()
                .iter()
                .find(|o| o.task().index() == task && o.kind().is_loss())
                .map(|o| depths[o.id().index()])
                .unwrap()
        };
        // Slot 0 is deep, slot 1 shallow (templates alternate).
        assert!(loss_depth(0) > loss_depth(1) + 1);
        assert!(g.num_ops() > 400, "hyperscale must be big: {}", g.num_ops());
    }

    #[test]
    fn subsets_are_deterministic_and_order_insensitive() {
        let a = hyperscale_subset(&[5, 2, 9]).unwrap();
        let b = hyperscale_subset(&[9, 5, 2, 2]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.tasks().len(), 3);
        // Out-of-roster slots are ignored.
        let c = hyperscale_subset(&[2, 5, 9, HYPERSCALE_ROSTER + 7]).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn churn_toggles_one_task_per_phase_within_bounds() {
        let s = hyperscale_churn(42, 48, 12, 30.0).unwrap();
        assert_eq!(s.arrivals().len(), 12);
        assert_eq!(s.num_replans(), 11);
        let counts: Vec<usize> = s.arrivals().iter().map(|a| a.graph.tasks().len()).collect();
        assert_eq!(counts[0], 48);
        for pair in counts.windows(2) {
            let delta = pair[1] as i64 - pair[0] as i64;
            assert_eq!(delta.abs(), 1, "each phase toggles exactly one task");
        }
        assert!(counts.iter().all(|&c| (42..=54).contains(&c)));
        // Same seed reproduces the trace; a different seed diverges.
        let again = hyperscale_churn(42, 48, 12, 30.0).unwrap();
        for (x, y) in s.arrivals().iter().zip(again.arrivals()) {
            assert_eq!(x.label, y.label);
            assert!((x.at_s - y.at_s).abs() < 1e-12);
        }
        let other = hyperscale_churn(43, 48, 12, 30.0).unwrap();
        let same = s
            .arrivals()
            .iter()
            .zip(other.arrivals())
            .all(|(x, y)| x.label == y.label);
        assert!(!same, "different seeds must diverge");
    }
}
