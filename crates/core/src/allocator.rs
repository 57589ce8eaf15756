//! Bi-point discretisation of the continuous MPSP optimum (§3.3).
//!
//! The continuous optimum assigns each MetaOp a real-valued allocation `n*_m`.
//! Real clusters allocate whole devices, and only *valid* allocation sizes are
//! practical (the data-parallel degree must divide the batch, tensor
//! parallelism comes in small powers of two). The allocator therefore
//! represents each MetaOp's continuous allocation by at most two discrete
//! ASL-tuples `⟨n̲, ·, l̲⟩, ⟨n̄, ·, l̄⟩` whose layer counts are chosen so that
//!
//! * Cond. (10a): `l̲ + l̄ = L_m` — all operators are covered, and
//! * Cond. (10b): `T(n̲)·l̲ + T(n̄)·l̄ = C̃*` — the MetaOp still finishes at the
//!   continuous optimum.
//!
//! Allocations below one device ("dummy allocations") collapse to a single
//! 1-device tuple, which finishes *before* `C̃*` and is packed with other work
//! by the wavefront scheduler.

use std::fmt;

use spindle_estimator::ScalingCurve;

use crate::arena::MetaOpArena;
use crate::mpsp::ContinuousSolution;
use crate::MetaOpId;

/// One discrete ASL-tuple without a start time: `layers` consecutive operators
/// executed on `devices` devices, each taking `time_per_op` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteAllocation {
    /// Devices allocated.
    pub devices: u32,
    /// Number of operators (layers) covered by this tuple.
    pub layers: u32,
    /// Per-operator execution time at this allocation, seconds.
    pub time_per_op: f64,
}

impl DiscreteAllocation {
    /// Total execution time of the tuple.
    #[must_use]
    pub fn exec_time(&self) -> f64 {
        f64::from(self.layers) * self.time_per_op
    }
}

/// The discretised allocation of one MetaOp: one or two tuples ordered by
/// decreasing device count.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaOpAllocation {
    /// The MetaOp.
    pub metaop: MetaOpId,
    /// Its tuples (at most two, larger allocation first).
    pub tuples: Vec<DiscreteAllocation>,
}

impl MetaOpAllocation {
    /// Total layers covered by the tuples.
    #[must_use]
    pub fn total_layers(&self) -> u32 {
        self.tuples.iter().map(|t| t.layers).sum()
    }

    /// Total execution time if the tuples run back to back.
    #[must_use]
    pub fn total_time(&self) -> f64 {
        self.tuples.iter().map(DiscreteAllocation::exec_time).sum()
    }
}

/// The allocation plan of one MetaLevel.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    /// Per-MetaOp allocations.
    pub allocations: Vec<MetaOpAllocation>,
    /// The continuous optimum `C̃*` the plan approximates.
    pub target_time: f64,
}

impl AllocationPlan {
    /// Looks up the allocation of a MetaOp.
    #[must_use]
    pub fn allocation_for(&self, metaop: MetaOpId) -> Option<&MetaOpAllocation> {
        self.allocations.iter().find(|a| a.metaop == metaop)
    }
}

impl fmt::Display for AllocationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "allocation plan (target {:.3} ms):",
            self.target_time * 1e3
        )?;
        for a in &self.allocations {
            write!(f, "  {}:", a.metaop)?;
            for t in &a.tuples {
                write!(f, " [{} dev x {} ops]", t.devices, t.layers)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Discretises the continuous solution of one MetaLevel into an
/// [`AllocationPlan`], reading curves and operator counts from the dense
/// [`MetaOpArena`].
///
/// `metaops` must be the level the continuous solution was computed for;
/// MetaOps missing from the solution (e.g. empty ones) are skipped.
#[must_use]
pub fn discretize_level(
    solution: &ContinuousSolution,
    arena: &MetaOpArena,
    metaops: &[MetaOpId],
) -> AllocationPlan {
    let mut allocations = Vec::with_capacity(metaops.len());
    for &id in metaops {
        let num_ops = arena.num_ops(id);
        if num_ops == 0 {
            continue;
        }
        let Some(&n_star) = solution.allocations.get(&id) else {
            continue;
        };
        let tuples = discretize_one(arena.curve(id), n_star, num_ops, solution.optimal_time);
        allocations.push(MetaOpAllocation { metaop: id, tuples });
    }
    AllocationPlan {
        allocations,
        target_time: solution.optimal_time,
    }
}

fn discretize_one(
    curve: &ScalingCurve,
    n_star: f64,
    num_ops: u32,
    target_time: f64,
) -> Vec<DiscreteAllocation> {
    let single = |devices: u32| -> Vec<DiscreteAllocation> {
        let time_per_op = curve
            .time_at(devices)
            .unwrap_or_else(|| curve.time(f64::from(devices)));
        vec![DiscreteAllocation {
            devices,
            layers: num_ops,
            time_per_op,
        }]
    };

    // Dummy-allocation case: less than one device needed; run everything on a
    // single device (finishes within the target time because T(1)·L ≤ C̃*).
    if n_star < 1.0 {
        return single(1);
    }
    let (n_lo, n_hi) = curve.bracketing_allocations(n_star);
    if n_lo == n_hi {
        return single(n_lo);
    }
    let t_lo = curve
        .time_at(n_lo)
        .unwrap_or_else(|| curve.time(f64::from(n_lo)));
    let t_hi = curve
        .time_at(n_hi)
        .unwrap_or_else(|| curve.time(f64::from(n_hi)));
    if (t_lo - t_hi).abs() < f64::EPSILON {
        return single(n_lo);
    }
    let l = f64::from(num_ops);
    // Solve Cond. (10a)/(10b) for the layer split, then round to integers.
    let layers_hi_real = ((t_lo * l - target_time) / (t_lo - t_hi)).clamp(0.0, l);
    let layers_hi = layers_hi_real.round() as u32;
    let layers_lo = num_ops - layers_hi.min(num_ops);
    let mut tuples = Vec::new();
    if layers_hi > 0 {
        tuples.push(DiscreteAllocation {
            devices: n_hi,
            layers: layers_hi.min(num_ops),
            time_per_op: t_hi,
        });
    }
    if layers_lo > 0 {
        tuples.push(DiscreteAllocation {
            devices: n_lo,
            layers: layers_lo,
            time_per_op: t_lo,
        });
    }
    if tuples.is_empty() {
        return single(n_lo);
    }
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpsp::{self, MpspScratch, DEFAULT_EPSILON};
    use spindle_estimator::test_util::{curve_from_points as curve, linear_curve};
    use std::sync::Arc;

    /// Every slot of `arena`, as one level.
    fn level(arena: &MetaOpArena) -> Vec<MetaOpId> {
        (0..arena.len() as u32).map(MetaOpId).collect()
    }

    /// Solves and discretises one level holding every `(num_ops, curve)`
    /// slot on `num_devices` devices.
    fn plan(
        slots: Vec<(u32, Arc<ScalingCurve>)>,
        num_devices: u32,
    ) -> (AllocationPlan, MetaOpArena) {
        let arena = MetaOpArena::from_slots(slots.into_iter());
        let ids = level(&arena);
        let mut scratch = MpspScratch::new();
        let sol = mpsp::solve_level(&arena, &ids, num_devices, DEFAULT_EPSILON, &mut scratch);
        (discretize_level(&sol, &arena, &ids), arena)
    }

    #[test]
    fn conditions_10a_and_10b_hold_before_rounding_bias() {
        // Two MetaOps competing for 12 devices; allocations land between valid
        // integers so both get two tuples.
        let (plan, arena) = plan(
            vec![
                (12, linear_curve(1.0, 16)),
                (
                    8,
                    curve(&[(1, 1.0), (2, 0.7), (4, 0.55), (8, 0.5), (16, 0.48)]),
                ),
            ],
            12,
        );
        assert_eq!(plan.allocations.len(), 2);
        for alloc in &plan.allocations {
            // Cond. (10a): all operators covered.
            assert_eq!(alloc.total_layers(), arena.num_ops(alloc.metaop));
            // Cond. (10b) up to rounding: total time close to the target.
            let per_op_worst = alloc
                .tuples
                .iter()
                .map(|t| t.time_per_op)
                .fold(0.0, f64::max);
            assert!(
                alloc.total_time() <= plan.target_time + per_op_worst + 1e-9,
                "{}: {} vs {}",
                alloc.metaop,
                alloc.total_time(),
                plan.target_time
            );
            assert!(alloc.tuples.len() <= 2);
        }
    }

    #[test]
    fn tuples_ordered_larger_allocation_first() {
        let (plan, _) = plan(
            vec![(12, linear_curve(1.0, 16)), (12, linear_curve(2.0, 16))],
            12,
        );
        for alloc in &plan.allocations {
            if alloc.tuples.len() == 2 {
                assert!(alloc.tuples[0].devices > alloc.tuples[1].devices);
            }
        }
    }

    #[test]
    fn dummy_allocation_collapses_to_single_device() {
        // 8 identical MetaOps on 4 devices: each continuous allocation is 0.5.
        let (plan, _) = plan((0..8).map(|_| (4, linear_curve(1.0, 4))).collect(), 4);
        for alloc in &plan.allocations {
            assert_eq!(alloc.tuples.len(), 1);
            assert_eq!(alloc.tuples[0].devices, 1);
            assert_eq!(alloc.total_layers(), 4);
            // Finishes within the level optimum.
            assert!(alloc.total_time() <= plan.target_time + 1e-9);
        }
    }

    #[test]
    fn exact_valid_allocation_yields_single_tuple() {
        let (plan, _) = plan(vec![(10, linear_curve(1.0, 8))], 8);
        let alloc = plan.allocation_for(MetaOpId(0)).unwrap();
        assert_eq!(alloc.tuples.len(), 1);
        assert_eq!(alloc.tuples[0].devices, 8);
        assert_eq!(alloc.tuples[0].layers, 10);
    }

    #[test]
    fn paper_example_metaop2_discretisation() {
        // Fig. 5a: a MetaOp with n* = 1.5 and L = 12 splits into allocations of
        // 2 and 1 devices with layer counts near 8.4 / 3.6 (here rounded).
        let c = linear_curve(1.0, 4);
        let sol = ContinuousSolution {
            optimal_time: crate::mpsp::continuous_time(&c, 1.5) * 12.0,
            allocations: [(MetaOpId(0), 1.5)].into_iter().collect(),
        };
        let arena = MetaOpArena::from_slots([(12, c)].into_iter());
        let plan = discretize_level(&sol, &arena, &level(&arena));
        let alloc = plan.allocation_for(MetaOpId(0)).unwrap();
        assert_eq!(alloc.tuples.len(), 2);
        assert_eq!(alloc.tuples[0].devices, 2);
        assert_eq!(alloc.tuples[1].devices, 1);
        assert_eq!(alloc.total_layers(), 12);
        assert_eq!(alloc.tuples[0].layers, 8);
        assert_eq!(alloc.tuples[1].layers, 4);
    }

    #[test]
    fn display_lists_every_metaop() {
        let (plan, _) = plan(
            vec![(4, linear_curve(1.0, 4)), (4, linear_curve(1.0, 4))],
            8,
        );
        let text = plan.to_string();
        assert!(text.contains("metaop0"));
        assert!(text.contains("metaop1"));
        assert!(plan.allocation_for(MetaOpId(3)).is_none());
    }
}
