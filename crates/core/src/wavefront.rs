//! Wavefront scheduling (§3.4, Alg. 1).
//!
//! Given the discretised allocation plan of one MetaLevel, the wavefront
//! scheduler crafts *waves*: maximal sets of sliced MetaOps that execute
//! concurrently on disjoint device groups. Each wave (1) occupies as many
//! devices as possible, (2) extends allocations when devices would otherwise
//! idle, and (3) aligns the time spans of its entries by slicing MetaOps, so
//! that no device waits for a straggler.
//!
//! The crafting loop is index-based and allocation-free: pending MetaOps keep
//! an incrementally maintained `remaining` execution time and a cached head
//! tuple, their ASL-tuples live in one flat reusable buffer, and the sort
//! orders reuse scratch vectors — nothing is recomputed inside comparators.

use spindle_estimator::ScalingCurve;

use crate::allocator::{AllocationPlan, DiscreteAllocation};
use crate::arena::MetaOpArena;
use crate::{MetaOpId, Wave, WaveEntry};

#[derive(Debug, Clone, Copy)]
struct PendingTuple {
    devices: u32,
    layers_left: u32,
    time_per_op: f64,
}

#[derive(Debug, Clone)]
struct PendingMetaOp {
    metaop: MetaOpId,
    /// Index of the first unfinished tuple in [`WavefrontScratch::tuples`].
    head: u32,
    /// One past the last tuple of this MetaOp in the flat buffer.
    end: u32,
    /// Incrementally maintained total remaining execution time.
    remaining: f64,
}

impl PendingMetaOp {
    fn is_done(&self) -> bool {
        self.head >= self.end
    }
}

/// Reusable working buffers (and probes) of the wavefront scheduler.
///
/// A scratch can be reused across levels and plans; its buffers keep their
/// capacity so steady-state scheduling performs no heap allocation beyond the
/// produced [`Wave`] artifacts themselves.
#[derive(Debug, Default)]
pub struct WavefrontScratch {
    pending: Vec<PendingMetaOp>,
    tuples: Vec<PendingTuple>,
    order: Vec<u32>,
    selected: Vec<u32>,
    extension_order: Vec<u32>,
    waves_crafted: u64,
    high_water: usize,
}

impl WavefrontScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total waves crafted through this scratch.
    #[must_use]
    pub fn waves_crafted(&self) -> u64 {
        self.waves_crafted
    }

    /// Largest pending set seen — the capacity bound of the reused buffers.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Schedules one MetaLevel into waves.
///
/// * `plan` — the level's discretised allocation plan;
/// * `arena` — the plan's dense per-MetaOp state, whose scaling curves drive
///   resource extension;
/// * `num_devices` — cluster size `N`;
/// * `level` — the MetaLevel index (recorded on the produced waves);
/// * `start_time` — the end time of the previous level;
/// * `first_wave_index` — index to assign to the first produced wave;
/// * `scratch` — caller-owned working buffers, reusable across levels.
///
/// Returns the produced waves and the end time of the level.
#[must_use]
pub fn schedule_level_dense(
    plan: &AllocationPlan,
    arena: &MetaOpArena,
    num_devices: u32,
    level: usize,
    start_time: f64,
    first_wave_index: usize,
    scratch: &mut WavefrontScratch,
) -> (Vec<Wave>, f64) {
    scratch.pending.clear();
    scratch.tuples.clear();
    for a in &plan.allocations {
        let curve = arena.curve(a.metaop);
        let start = scratch.tuples.len() as u32;
        let mut remaining = 0.0_f64;
        for t in a.tuples.iter().filter(|t| t.layers > 0) {
            let (devices, time_per_op) = fit_to_cluster(t, curve, num_devices);
            scratch.tuples.push(PendingTuple {
                devices,
                layers_left: t.layers,
                time_per_op,
            });
            remaining += f64::from(t.layers) * time_per_op;
        }
        let end = scratch.tuples.len() as u32;
        if end > start {
            scratch.pending.push(PendingMetaOp {
                metaop: a.metaop,
                head: start,
                end,
                remaining,
            });
        }
    }
    scratch.high_water = scratch.high_water.max(scratch.pending.len());

    let mut waves = Vec::new();
    let mut now = start_time;
    let mut wave_index = first_wave_index;

    while !scratch.pending.is_empty() {
        let wave = craft_wave(scratch, arena, num_devices, level, now, wave_index);
        now = wave.end();
        wave_index += 1;
        waves.push(wave);
        scratch.pending.retain(|p| !p.is_done());
    }
    (waves, now)
}

/// The `(devices, time_per_op)` a tuple is staged at. A tuple wider than the
/// cluster — curves fitted before a device loss can bracket `n*` above the
/// survivor count — runs at the curve's largest valid allocation that fits,
/// at that allocation's time; every staged tuple fits the cluster.
fn fit_to_cluster(t: &DiscreteAllocation, curve: &ScalingCurve, num_devices: u32) -> (u32, f64) {
    let devices = t.devices.max(1);
    if devices <= num_devices {
        return (devices, t.time_per_op);
    }
    curve
        .valid_allocations()
        .iter()
        .rev()
        .find(|&&(n, _)| n <= num_devices)
        .copied()
        .unwrap_or((num_devices, t.time_per_op))
}

/// Crafts a single wave, mutating the pending set (Alg. 1 lines 3–7).
fn craft_wave(
    scratch: &mut WavefrontScratch,
    arena: &MetaOpArena,
    num_devices: u32,
    level: usize,
    start: f64,
    index: usize,
) -> Wave {
    let WavefrontScratch {
        pending,
        tuples,
        order,
        selected,
        extension_order,
        waves_crafted,
        ..
    } = scratch;
    *waves_crafted += 1;

    // Step 1: propose a candidate set, greedily filling devices. Candidates
    // are the head tuple of each unfinished MetaOp, largest allocations first.
    // The comparator reads cached state only: head tuples are indexed
    // directly and `remaining` is maintained incrementally.
    order.clear();
    order.extend(0..pending.len() as u32);
    order.sort_by(|&a, &b| {
        let pa = &pending[a as usize];
        let pb = &pending[b as usize];
        tuples[pb.head as usize]
            .devices
            .cmp(&tuples[pa.head as usize].devices)
            .then(pb.remaining.total_cmp(&pa.remaining))
    });
    // Every staged tuple fits the cluster, so the first candidate always
    // does: a wave is never empty.
    selected.clear();
    let mut used = 0u32;
    for &i in order.iter() {
        let n = tuples[pending[i as usize].head as usize].devices;
        if used + n <= num_devices {
            selected.push(i);
            used += n;
        }
    }

    // Step 2: extend allocations if devices would idle, prioritising MetaOps
    // with the largest remaining execution time. The priority is re-ranked at
    // every round: granting an extension shrinks a MetaOp's remaining time,
    // so the order of the previous round is stale.
    let mut spare = num_devices.saturating_sub(used);
    if spare > 0 {
        extension_order.clear();
        extension_order.extend_from_slice(selected);
        let mut progressed = true;
        while spare > 0 && progressed {
            progressed = false;
            extension_order.sort_by(|&a, &b| {
                pending[b as usize]
                    .remaining
                    .total_cmp(&pending[a as usize].remaining)
            });
            for &i in extension_order.iter() {
                let p = &pending[i as usize];
                let h = p.head as usize;
                let current = tuples[h].devices;
                if let Some((next_n, next_t)) =
                    next_valid_allocation(arena.curve(p.metaop), current, current + spare)
                {
                    let extra = next_n - current;
                    let tuple = &mut tuples[h];
                    pending[i as usize].remaining +=
                        f64::from(tuple.layers_left) * (next_t - tuple.time_per_op);
                    tuple.devices = next_n;
                    tuple.time_per_op = next_t;
                    spare -= extra;
                    progressed = true;
                    if spare == 0 {
                        break;
                    }
                }
            }
        }
    }

    // Step 3: align time spans to the shortest proposed tuple by dissecting
    // the longer ones (scheduling only part of their operators).
    let wave_span = selected
        .iter()
        .map(|&i| {
            let t = &tuples[pending[i as usize].head as usize];
            f64::from(t.layers_left) * t.time_per_op
        })
        .fold(f64::INFINITY, f64::min);

    let mut entries = Vec::with_capacity(selected.len());
    for &i in selected.iter() {
        let p = &mut pending[i as usize];
        let tuple = &mut tuples[p.head as usize];
        let fit = if tuple.time_per_op > 0.0 {
            ((wave_span / tuple.time_per_op) + 1e-9).floor() as u32
        } else {
            tuple.layers_left
        };
        let layers = fit.clamp(1, tuple.layers_left);
        tuple.layers_left -= layers;
        p.remaining -= f64::from(layers) * tuple.time_per_op;
        let entry = WaveEntry::new(p.metaop, layers, tuple.devices, tuple.time_per_op);
        if tuple.layers_left == 0 {
            // Advance the cached head; tuples are only staged with layers > 0,
            // so the next tuple (if any) is immediately schedulable.
            p.head += 1;
        }
        entries.push(entry);
    }

    // Step 4: conclude the wave.
    let duration = entries.iter().map(|e| e.exec_time).fold(0.0_f64, f64::max);
    Wave {
        index,
        level,
        start,
        duration,
        entries,
    }
}

/// The next valid allocation strictly larger than `current` but no larger than
/// `limit`, with its per-operator time.
fn next_valid_allocation(curve: &ScalingCurve, current: u32, limit: u32) -> Option<(u32, f64)> {
    curve
        .valid_allocations()
        .iter()
        .find(|&&(n, _)| n > current && n <= limit)
        .copied()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use super::*;
    use crate::allocator::MetaOpAllocation;
    use spindle_estimator::test_util::{curve_from_points, linear_curve};

    fn alloc(metaop: u32, tuples: &[(u32, u32, f64)]) -> MetaOpAllocation {
        MetaOpAllocation {
            metaop: MetaOpId(metaop),
            tuples: tuples
                .iter()
                .map(|&(devices, layers, time_per_op)| DiscreteAllocation {
                    devices,
                    layers,
                    time_per_op,
                })
                .collect(),
        }
    }

    /// The arena of `curves[i]` as `MetaOpId(i)`, each slot holding the
    /// layers `plan` gives that MetaOp.
    fn arena(plan: &AllocationPlan, curves: Vec<Arc<ScalingCurve>>) -> MetaOpArena {
        MetaOpArena::from_slots(curves.into_iter().enumerate().map(|(i, curve)| {
            let layers = plan
                .allocation_for(MetaOpId(i as u32))
                .map_or(0, MetaOpAllocation::total_layers);
            (layers, curve)
        }))
    }

    /// Schedules `plan` as level `level` from `start` on a fresh scratch.
    fn schedule(
        plan: &AllocationPlan,
        curves: Vec<Arc<ScalingCurve>>,
        num_devices: u32,
        (level, start, first_wave): (usize, f64, usize),
    ) -> (Vec<Wave>, f64) {
        let arena = arena(plan, curves);
        let mut scratch = WavefrontScratch::new();
        schedule_level_dense(
            plan,
            &arena,
            num_devices,
            level,
            start,
            first_wave,
            &mut scratch,
        )
    }

    #[test]
    fn single_metaop_single_wave() {
        let plan = AllocationPlan {
            allocations: vec![alloc(0, &[(8, 4, 0.5)])],
            target_time: 2.0,
        };
        let (waves, end) = schedule(&plan, vec![linear_curve(4.0, 8)], 8, (0, 0.0, 0));
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].entries.len(), 1);
        assert_eq!(waves[0].entries[0].layers, 4);
        assert!((end - 2.0).abs() < 1e-9);
        assert_eq!(waves[0].devices_used(), 8);
    }

    #[test]
    fn all_operators_scheduled_exactly_once() {
        let plan = AllocationPlan {
            allocations: vec![
                alloc(0, &[(4, 9, 0.5), (2, 2, 0.9)]),
                alloc(1, &[(2, 14, 0.3), (1, 2, 0.55)]),
                alloc(2, &[(2, 3, 0.4), (1, 13, 0.7)]),
            ],
            target_time: 6.0,
        };
        let curves = vec![
            linear_curve(2.0, 8),
            linear_curve(0.6, 8),
            linear_curve(0.8, 8),
        ];
        let (waves, end) = schedule(&plan, curves, 8, (0, 0.0, 0));
        assert!(end > 0.0);
        let mut layers: BTreeMap<MetaOpId, u32> = BTreeMap::new();
        for w in &waves {
            assert!(w.devices_used() <= 8, "wave {} overflows", w.index);
            for e in &w.entries {
                *layers.entry(e.metaop).or_insert(0) += e.layers;
            }
        }
        assert_eq!(layers[&MetaOpId(0)], 11);
        assert_eq!(layers[&MetaOpId(1)], 16);
        assert_eq!(layers[&MetaOpId(2)], 16);
    }

    #[test]
    fn waves_are_contiguous_in_time() {
        let plan = AllocationPlan {
            allocations: vec![alloc(0, &[(4, 6, 0.5)]), alloc(1, &[(4, 3, 1.1)])],
            target_time: 3.3,
        };
        let curves = vec![linear_curve(2.0, 8), linear_curve(4.4, 8)];
        let (waves, end) = schedule(&plan, curves, 8, (2, 1.5, 7));
        assert!(!waves.is_empty());
        assert_eq!(waves[0].start, 1.5);
        assert_eq!(waves[0].index, 7);
        assert_eq!(waves[0].level, 2);
        for pair in waves.windows(2) {
            assert!((pair[1].start - pair[0].end()).abs() < 1e-9);
            assert_eq!(pair[1].index, pair[0].index + 1);
        }
        assert!((end - waves.last().unwrap().end()).abs() < 1e-12);
    }

    #[test]
    fn number_of_waves_bounded_by_twice_metaops() {
        // Complexity analysis (§5.5): each wave consumes all layers of at least
        // one ASL-tuple and each MetaOp produces at most two tuples.
        let plan = AllocationPlan {
            allocations: vec![
                alloc(0, &[(8, 2, 0.2), (4, 9, 0.4)]),
                alloc(1, &[(2, 14, 0.25), (1, 2, 0.45)]),
                alloc(2, &[(2, 3, 0.3), (1, 13, 0.5)]),
                alloc(3, &[(1, 6, 0.6)]),
                alloc(4, &[(1, 6, 0.55)]),
            ],
            target_time: 6.0,
        };
        let curves = (0..5).map(|_| linear_curve(1.0, 8)).collect();
        let (waves, _) = schedule(&plan, curves, 8, (0, 0.0, 0));
        assert!(waves.len() <= 2 * 5);
    }

    #[test]
    fn resource_extension_fills_idle_devices() {
        // One MetaOp with a small allocation and plenty of spare devices: the
        // scheduler should extend it to use the whole cluster.
        let c = linear_curve(4.0, 8);
        let t1 = c.time_at(1).unwrap();
        let plan = AllocationPlan {
            allocations: vec![alloc(0, &[(1, 8, t1)])],
            target_time: 8.0 * t1,
        };
        let (waves, end) = schedule(&plan, vec![c], 8, (0, 0.0, 0));
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].entries[0].devices, 8);
        // Extension uses the faster per-op time from the curve.
        assert!(end < 8.0 * t1);
    }

    #[test]
    fn alignment_slices_long_metaops() {
        // A long MetaOp next to a short one: the first wave must cut the long
        // one so both entries span (roughly) the same time.
        let plan = AllocationPlan {
            allocations: vec![alloc(0, &[(4, 20, 0.5)]), alloc(1, &[(4, 2, 0.5)])],
            target_time: 10.0,
        };
        let curves = vec![linear_curve(2.0, 4), linear_curve(2.0, 4)];
        let (waves, _) = schedule(&plan, curves, 8, (0, 0.0, 0));
        let first = &waves[0];
        let e0 = first.entry_for(MetaOpId(0)).unwrap();
        let e1 = first.entry_for(MetaOpId(1)).unwrap();
        assert_eq!(e1.layers, 2);
        assert_eq!(e0.layers, 2, "long MetaOp must be dissected to align spans");
        assert!((e0.exec_time - e1.exec_time).abs() < 1e-9);
        // The remaining 18 layers appear in later waves.
        let total: u32 = waves
            .iter()
            .filter_map(|w| w.entry_for(MetaOpId(0)))
            .map(|e| e.layers)
            .sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn empty_plan_produces_no_waves() {
        let plan = AllocationPlan {
            allocations: vec![],
            target_time: 0.0,
        };
        let (waves, end) = schedule(&plan, vec![], 8, (0, 3.0, 0));
        assert!(waves.is_empty());
        assert_eq!(end, 3.0);
    }

    #[test]
    fn extension_rounds_rerank_by_current_remaining_time() {
        // Regression test for the stale-priority bug: the extension order used
        // to be sorted once, so round 2 extended by the *initial* remaining
        // times even though round 1's grants had changed them.
        //
        // A starts with remaining 10.0, B with 9.9, both on 1 device; 5
        // devices leave 3 spare. Round 1 extends A (1→2, remaining drops to
        // 5.0) then B (1→2, remaining 9.0). The last spare device must go to
        // B — the MetaOp with the larger remaining time *now* — not to A.
        let a_curve = curve_from_points(&[(1, 1.0), (2, 0.5), (3, 0.34)]);
        let b_curve = curve_from_points(&[(1, 1.1), (2, 1.0), (3, 0.9)]);
        let plan = AllocationPlan {
            allocations: vec![alloc(0, &[(1, 10, 1.0)]), alloc(1, &[(1, 9, 1.1)])],
            target_time: 10.0,
        };
        let (waves, _) = schedule(&plan, vec![a_curve, b_curve], 5, (0, 0.0, 0));
        let first = &waves[0];
        let a = first.entry_for(MetaOpId(0)).unwrap();
        let b = first.entry_for(MetaOpId(1)).unwrap();
        assert_eq!(a.devices, 2, "A must keep its round-1 extension only");
        assert_eq!(
            b.devices, 3,
            "round 2 must re-rank and give the spare device to B"
        );
    }

    #[test]
    fn tuples_wider_than_the_cluster_run_at_a_point_of_their_curve() {
        // Curves fitted on 16 devices, scheduled on the 15 that survive a
        // device loss: bi-point rounding bracketed n* with 16 and 8.
        let curve = curve_from_points(&[(1, 1.0), (2, 0.55), (4, 0.3), (8, 0.17), (16, 0.1)]);
        let plan = AllocationPlan {
            allocations: vec![alloc(0, &[(16, 6, 0.1), (8, 4, 0.17)])],
            target_time: 1.28,
        };
        let (waves, end) = schedule(&plan, vec![Arc::clone(&curve)], 15, (0, 0.0, 0));
        let entries: Vec<&WaveEntry> = waves.iter().flat_map(|w| &w.entries).collect();
        for e in &entries {
            assert!(
                curve
                    .valid_allocations()
                    .contains(&(e.devices, e.time_per_op)),
                "{} devices at {} s/op is not a point of the curve",
                e.devices,
                e.time_per_op
            );
        }
        // The wide tuple keeps its layers and runs on 8 devices at T(8).
        assert_eq!(entries.iter().map(|e| e.layers).sum::<u32>(), 10);
        assert!(entries.iter().all(|e| e.devices == 8));
        assert!((end - 10.0 * 0.17).abs() < 1e-9);
    }

    #[test]
    fn reused_scratch_matches_fresh_scheduling() {
        let plan_a = AllocationPlan {
            allocations: vec![
                alloc(0, &[(4, 9, 0.5), (2, 2, 0.9)]),
                alloc(1, &[(2, 14, 0.3), (1, 2, 0.55)]),
            ],
            target_time: 6.0,
        };
        let plan_b = AllocationPlan {
            allocations: vec![alloc(2, &[(2, 3, 0.4), (1, 13, 0.7)])],
            target_time: 9.5,
        };
        let curves: Vec<_> = (0..3).map(|_| linear_curve(1.0, 8)).collect();
        let arena = MetaOpArena::from_slots(curves.iter().map(|c| (16, Arc::clone(c))));
        let mut scratch = WavefrontScratch::new();
        let (wa, ea) = schedule_level_dense(&plan_a, &arena, 8, 0, 0.0, 0, &mut scratch);
        let (wb, eb) = schedule_level_dense(&plan_b, &arena, 8, 1, ea, wa.len(), &mut scratch);
        let (wa_fresh, ea_fresh) = schedule(&plan_a, curves.clone(), 8, (0, 0.0, 0));
        let (wb_fresh, eb_fresh) = schedule(&plan_b, curves, 8, (1, ea_fresh, wa_fresh.len()));
        assert_eq!(wa, wa_fresh);
        assert_eq!(wb, wb_fresh);
        assert_eq!(ea, ea_fresh);
        assert_eq!(eb, eb_fresh);
        assert_eq!(scratch.waves_crafted(), (wa.len() + wb.len()) as u64);
        assert_eq!(scratch.high_water(), 2);
    }

    /// Deterministic xorshift64* PRNG — a stand-in for proptest's generators.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Self(seed.max(1))
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform value in `[lo, hi)`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo)
        }

        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[self.range(0, options.len() as u64) as usize]
        }
    }

    /// A random allocation plan shaped like the bi-point discretiser's
    /// output: at most two tuples per MetaOp (larger allocation first),
    /// power-of-two device counts no larger than the cluster, positive
    /// per-operator times consistent with a `base / n` curve.
    fn random_plan(rng: &mut Rng, num_devices: u32) -> (AllocationPlan, Vec<Arc<ScalingCurve>>) {
        let num_metaops = rng.range(1, 12) as u32;
        let mut allocations = Vec::new();
        let mut curves = Vec::new();
        for id in 0..num_metaops {
            let base = rng.range(1, 40) as f64 / 10.0;
            curves.push(linear_curve(base, num_devices));
            let powers: Vec<u32> = (0..)
                .map(|k| 1u32 << k)
                .take_while(|&n| n <= num_devices)
                .collect();
            let hi = rng.pick(&powers);
            let mut tuples = vec![(hi, rng.range(1, 20) as u32, base / f64::from(hi))];
            // Half the MetaOps get a second, smaller tuple (the bi-point case).
            if hi > 1 && rng.range(0, 2) == 0 {
                let lo = hi / 2;
                tuples.push((lo, rng.range(1, 20) as u32, base / f64::from(lo)));
            }
            allocations.push(alloc(id, &tuples));
        }
        let target_time = rng.range(1, 100) as f64 / 10.0;
        (
            AllocationPlan {
                allocations,
                target_time,
            },
            curves,
        )
    }

    /// For *any* well-formed allocation plan the scheduler must (a) schedule
    /// every layer of every MetaOp exactly once, (b) never oversubscribe the
    /// cluster in any wave, and (c) produce at most `2·|MetaOps|` waves — the
    /// §5.5 complexity bound: each wave finishes at least one ASL-tuple and
    /// each MetaOp has at most two.
    #[test]
    fn random_plans_satisfy_all_wavefront_invariants() {
        let mut rng = Rng::new(0x5eed_0a0e);
        for case in 0..64 {
            let num_devices = rng.pick(&[4u32, 8, 16, 32]);
            let (plan, curves) = random_plan(&mut rng, num_devices);
            let expected_layers: BTreeMap<MetaOpId, u32> = plan
                .allocations
                .iter()
                .map(|a| (a.metaop, a.total_layers()))
                .collect();
            let num_metaops = plan.allocations.len();

            let (waves, end) = schedule(&plan, curves, num_devices, (0, 0.0, 0));

            // (a) every layer scheduled exactly once.
            let mut scheduled: BTreeMap<MetaOpId, u32> = BTreeMap::new();
            for w in &waves {
                for e in &w.entries {
                    *scheduled.entry(e.metaop).or_insert(0) += e.layers;
                }
            }
            assert_eq!(scheduled, expected_layers, "case {case}: layer coverage");

            // (b) no wave oversubscribes the cluster.
            for w in &waves {
                assert!(
                    w.devices_used() <= num_devices,
                    "case {case}: wave {} uses {} of {num_devices} devices",
                    w.index,
                    w.devices_used()
                );
            }

            // (c) at most 2·|MetaOps| waves.
            assert!(
                waves.len() <= 2 * num_metaops,
                "case {case}: {} waves for {num_metaops} MetaOps",
                waves.len()
            );

            // Waves are contiguous and the reported end matches the last wave.
            for pair in waves.windows(2) {
                assert!(
                    (pair[1].start - pair[0].end()).abs() < 1e-9,
                    "case {case}: waves not contiguous"
                );
            }
            assert!((end - waves.last().map_or(0.0, |w| w.end())).abs() < 1e-12);
        }
    }
}
