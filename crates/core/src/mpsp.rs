//! Continuous relaxation of the per-level allocation problem: the malleable
//! project scheduling problem (MPSP), solved by bisection (§3.3, Appendix B).
//!
//! Theorem 1: when every execution-time function `T_m(n)` is positive and
//! non-increasing, the optimum of the continuous problem has all MetaOps start
//! at time zero, run all their operators with a constant (real-valued)
//! allocation `n*_m`, and finish together at the common completion time `C̃*`
//! defined by `T_m(n*_m)·L_m = C̃*` and `Σ n*_m = N`.
//!
//! The bisection itself is allocation-free: active items live in a reusable
//! [`MpspScratch`] buffer with their single-device times hoisted, each
//! iteration sums candidate allocations in place, and the per-MetaOp
//! allocation map of the public [`ContinuousSolution`] is materialised exactly
//! once, at convergence.

use std::collections::BTreeMap;
use std::sync::Arc;

use spindle_estimator::ScalingCurve;

use crate::arena::MetaOpArena;
use crate::MetaOpId;

/// The continuous optimum of one MetaLevel's allocation problem.
#[derive(Debug, Clone)]
pub struct ContinuousSolution {
    /// The common completion time `C̃*` (theoretical optimum of the level).
    pub optimal_time: f64,
    /// Real-valued device allocation `n*_m` per MetaOp. Values below 1 mean
    /// the MetaOp needs less than one device to finish within `C̃*` (a
    /// "dummy allocation" candidate in the discretisation step).
    pub allocations: BTreeMap<MetaOpId, f64>,
}

/// Default convergence tolerance of the bisection, in seconds.
pub const DEFAULT_EPSILON: f64 = 1e-7;

/// Evaluates the continuous execution-time function at a possibly fractional
/// allocation. Allocations below one device are extrapolated hyperbolically
/// (`T(n) = T(1)/n` for `n < 1`), modelling time-sharing of a single device —
/// this is what allows levels with more MetaOps than devices to remain
/// feasible.
#[must_use]
pub fn continuous_time(curve: &ScalingCurve, n: f64) -> f64 {
    if n >= 1.0 {
        curve.time(n)
    } else {
        curve.time(1.0) / n.max(1e-6)
    }
}

/// Inverse of [`continuous_time`]: the fractional allocation at which one
/// operator of the MetaOp takes `time` seconds, given its single-device
/// time `t1 = curve.time(1.0)`. The caller hoists `t1`, so the bisection
/// loop never re-evaluates the fit at `n = 1`.
#[inline]
fn inverse_hoisted(curve: &ScalingCurve, t1: f64, time: f64) -> f64 {
    if time >= t1 {
        // Less than one device suffices.
        (t1 / time).max(1e-6)
    } else {
        curve.inverse(time)
    }
}

/// One active (non-empty) item of a solve, with hoisted constants.
#[derive(Debug, Clone)]
struct ActiveItem {
    metaop: MetaOpId,
    /// `L_m` as a float.
    weight: f64,
    /// Hoisted `curve.time(1.0)`.
    t1: f64,
    curve: Arc<ScalingCurve>,
}

/// Reusable working buffers (and probes) of the bisection solver.
///
/// A scratch can be reused across any number of [`solve_level`] calls; its
/// buffers keep their capacity, so steady-state solves perform no heap
/// allocation. The counters feed
/// [`PlanningStats`](crate::PlanningStats).
#[derive(Debug, Default)]
pub struct MpspScratch {
    active: Vec<ActiveItem>,
    solves: u64,
    iterations: u64,
    high_water: usize,
}

impl MpspScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of solves performed through this scratch.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Total bisection iterations across all solves.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Largest number of simultaneously active items seen — the capacity
    /// bound of the reused buffer.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Runs one bisection over the currently staged items, consuming them.
    fn bisect(&mut self, num_devices: u32, epsilon: f64) -> ContinuousSolution {
        self.solves += 1;
        self.high_water = self.high_water.max(self.active.len());
        if self.active.is_empty() || num_devices == 0 {
            self.active.clear();
            return ContinuousSolution {
                optimal_time: 0.0,
                allocations: BTreeMap::new(),
            };
        }
        let n = f64::from(num_devices);

        // Lower bound: every MetaOp gets the whole cluster (fastest possible);
        // upper bound: MetaOps run one after another on a single device.
        let mut t_min = 0.0_f64;
        let mut t_max = 0.0_f64;
        for item in &self.active {
            t_min = t_min.max(continuous_time(&item.curve, n) * item.weight);
            t_max += item.t1 * item.weight;
        }

        let mut low = t_min;
        let mut high = t_max.max(t_min);
        let eps = epsilon.max(f64::EPSILON);
        while high - low > eps {
            let mid = 0.5 * (low + high);
            // Above 2^29 s adjacent doubles lie more than 1e-7 apart, so
            // the interval can stop shrinking before it is `eps` wide.
            if mid <= low || mid >= high {
                break;
            }
            self.iterations += 1;
            let mut total = 0.0_f64;
            for item in &self.active {
                total += inverse_hoisted(&item.curve, item.t1, mid / item.weight).min(n);
            }
            if total < n {
                // The cluster is not fully used at this completion time: we
                // can afford to finish faster.
                high = mid;
            } else {
                low = mid;
            }
        }
        let optimal_time = high;
        // The only map built by a solve: the public artifact, materialised
        // once at convergence.
        let allocations = self
            .active
            .iter()
            .map(|item| {
                let per_op = optimal_time / item.weight;
                let alloc = inverse_hoisted(&item.curve, item.t1, per_op).min(n);
                (item.metaop, alloc)
            })
            .collect();
        self.active.clear();
        ContinuousSolution {
            optimal_time,
            allocations,
        }
    }
}

/// Solves the relaxed MPSP for the `metaops` of one MetaLevel by bisection
/// search over the common completion time `C̃*` (Alg. 2 of Appendix B),
/// reading curves, operator counts and the hoisted `T(1)` from the dense
/// [`MetaOpArena`].
///
/// `num_devices` is the cluster size `N`. MetaOps with zero operators are
/// ignored. If the level is empty the solution has zero time and no
/// allocations.
#[must_use]
pub fn solve_level(
    arena: &MetaOpArena,
    metaops: &[MetaOpId],
    num_devices: u32,
    epsilon: f64,
    scratch: &mut MpspScratch,
) -> ContinuousSolution {
    scratch.active.clear();
    for &id in metaops {
        let num_ops = arena.num_ops(id);
        if num_ops == 0 {
            continue;
        }
        scratch.active.push(ActiveItem {
            metaop: id,
            weight: f64::from(num_ops),
            t1: arena.t1(id),
            curve: Arc::clone(arena.curve(id)),
        });
    }
    scratch.bisect(num_devices, epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_estimator::test_util::{linear_curve, saturating_curve};

    /// An arena of `(num_ops, curve)` slots.
    fn arena(slots: Vec<(u32, Arc<ScalingCurve>)>) -> MetaOpArena {
        MetaOpArena::from_slots(slots.into_iter())
    }

    /// Solves one level holding every slot of `arena` on a fresh scratch.
    fn solve(arena: &MetaOpArena, num_devices: u32) -> ContinuousSolution {
        let ids: Vec<MetaOpId> = (0..arena.len() as u32).map(MetaOpId).collect();
        let mut scratch = MpspScratch::new();
        solve_level(arena, &ids, num_devices, DEFAULT_EPSILON, &mut scratch)
    }

    #[test]
    fn equal_workloads_split_evenly() {
        let items = arena(vec![
            (10, linear_curve(1.0, 16)),
            (10, linear_curve(1.0, 16)),
        ]);
        let sol = solve(&items, 16);
        let a0 = sol.allocations[&MetaOpId(0)];
        let a1 = sol.allocations[&MetaOpId(1)];
        assert!((a0 - 8.0).abs() < 0.05, "a0 = {a0}");
        assert!((a1 - 8.0).abs() < 0.05);
        // C* = T(8) * 10 = 10/8.
        assert!((sol.optimal_time - 1.25).abs() < 0.01);
    }

    #[test]
    fn heavier_workload_gets_more_devices() {
        let items = arena(vec![
            (30, linear_curve(1.0, 32)),
            (10, linear_curve(1.0, 32)),
        ]);
        let sol = solve(&items, 16);
        assert!(sol.allocations[&MetaOpId(0)] > 2.5 * sol.allocations[&MetaOpId(1)]);
    }

    #[test]
    fn all_metaops_finish_together_at_optimum() {
        let items = arena(vec![
            (12, linear_curve(2.0, 32)),
            (6, saturating_curve(1.0, 32)),
            (20, linear_curve(0.5, 32)),
        ]);
        let sol = solve(&items, 32);
        assert_eq!(sol.allocations.len(), items.len());
        for (&id, &n) in &sol.allocations {
            let finish = continuous_time(items.curve(id), n) * f64::from(items.num_ops(id));
            // Items pinned at the cluster bound may finish early; all others
            // must finish exactly at C*.
            assert!(
                finish <= sol.optimal_time + 1e-3,
                "{id} finishes at {finish} > {}",
                sol.optimal_time
            );
        }
        let total: f64 = sol.allocations.values().sum();
        assert!(total <= 32.0 + 1e-6);
    }

    #[test]
    fn poor_scalability_caps_useful_allocation() {
        let items = arena(vec![
            (10, saturating_curve(1.0, 32)),
            (10, linear_curve(1.0, 32)),
        ]);
        let sol = solve(&items, 32);
        // The saturating MetaOp gains nothing beyond 2 devices, so it must not
        // hoard more than that even though the cluster has 32; the level's
        // optimum is pinned by its floor of T(2)·L = 5.
        assert!(sol.allocations[&MetaOpId(0)] <= 2.0 + 1e-6);
        assert!((sol.optimal_time - 5.0).abs() < 0.01);
        let total: f64 = sol.allocations.values().sum();
        assert!(total <= 32.0 + 1e-6);
    }

    #[test]
    fn more_metaops_than_devices_yields_fractional_allocations() {
        let items = arena((0..8).map(|_| (4, linear_curve(1.0, 4))).collect());
        let sol = solve(&items, 4);
        let total: f64 = sol.allocations.values().sum();
        assert!((total - 4.0).abs() < 0.1);
        assert!(sol.allocations.values().all(|&a| a < 1.0 + 1e-9));
        assert!(sol.optimal_time > 0.0);
    }

    #[test]
    fn empty_level_is_trivial() {
        let sol = solve(&arena(vec![]), 8);
        assert_eq!(sol.optimal_time, 0.0);
        assert!(sol.allocations.is_empty());
    }

    #[test]
    fn single_metaop_takes_whole_cluster_or_its_max() {
        let sol = solve(&arena(vec![(10, linear_curve(1.0, 8))]), 8);
        let a = sol.allocations[&MetaOpId(0)];
        assert!(a >= 7.9, "allocation {a}");
    }

    #[test]
    fn continuous_time_extends_below_one_device() {
        let c = linear_curve(1.0, 8);
        assert!((continuous_time(&c, 0.5) - 2.0).abs() < 1e-9);
        assert!((inverse_hoisted(&c, 1.0, 2.0) - 0.5).abs() < 1e-9);
        assert!((inverse_hoisted(&c, 1.0, 0.25) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn reused_scratch_matches_fresh_solves_and_counts_work() {
        let items = arena(vec![
            (12, linear_curve(2.0, 16)),
            (6, saturating_curve(1.0, 16)),
            (20, linear_curve(0.5, 16)),
        ]);
        let (level_a, level_b) = ([MetaOpId(0), MetaOpId(1)], [MetaOpId(2)]);
        let level = |ids: &[MetaOpId], scratch: &mut MpspScratch| {
            solve_level(&items, ids, 16, DEFAULT_EPSILON, scratch)
        };
        let mut scratch = MpspScratch::new();
        let a = level(&level_a, &mut scratch);
        let b = level(&level_b, &mut scratch);
        let a_fresh = level(&level_a, &mut MpspScratch::new());
        let b_fresh = level(&level_b, &mut MpspScratch::new());
        assert_eq!(a.allocations, a_fresh.allocations);
        assert_eq!(b.allocations, b_fresh.allocations);
        assert_eq!(a.optimal_time, a_fresh.optimal_time);
        assert_eq!(b.optimal_time, b_fresh.optimal_time);
        assert_eq!(scratch.solves(), 2);
        assert!(scratch.iterations() > 0);
        // High water equals the larger staging set, not the sum: the buffer
        // was reused, not regrown.
        assert_eq!(scratch.high_water(), 2);
    }

    #[test]
    fn huge_costs_plan_to_a_finite_makespan() {
        use spindle_cluster::ClusterSpec;
        use spindle_graph::{ComputationGraph, Modality, OpId, OpKind, Operator, TaskId, TaskSpec};
        // Seconds far above 2^29, where doubles are coarser than epsilon.
        for flops in [1e25, 1e40, 1e300] {
            let shape = spindle_graph::TensorShape::new(8, 128, 768);
            let op = |i| {
                Operator::new(OpId(i), OpKind::LmDecoder, TaskId(0), shape).with_costs(flops, 1, 1)
            };
            let tasks = vec![TaskSpec::new(TaskId(0), "t", [Modality::Text], 8)];
            let edges = vec![(OpId(0), OpId(1)), (OpId(1), OpId(2))];
            let graph = ComputationGraph::new(vec![op(0), op(1), op(2)], edges, tasks).unwrap();
            let cluster = ClusterSpec::homogeneous(1, 8);
            let plan = crate::SpindleSession::new(cluster).plan(&graph).unwrap();
            assert!(
                plan.makespan().is_finite() && plan.makespan() > 1e9,
                "{flops:e}"
            );
        }
    }
}
