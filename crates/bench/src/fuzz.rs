//! The scenario-fuzzing harness: drives every planning system through
//! randomized scenarios and checks plan invariants on each draw.
//!
//! One [`check_draw`] runs the full gauntlet for a single `(seed, index)`
//! draw: every phase of the scenario's churn trace is planned by Spindle
//! (via the incremental re-planner) and by three baselines, and each plan
//! must satisfy
//!
//! 1. **Structural validity** — full operator coverage, ordered waves,
//!    per-wave device capacity ([`ExecutionPlan::validate`]);
//! 2. **Placement** — every entry placed, on disjoint in-range devices
//!    ([`ExecutionPlan::check_placement_in_range`]);
//! 3. **Memory** — per-device estimates within the device's HBM
//!    ([`ExecutionPlan::check_memory`]);
//! 4. **Optimality bounds** — `makespan ≥ busy device-seconds / devices`
//!    (the averaging bound, sound for any schedule), and for plans with a
//!    serial wave timeline also `makespan ≥ theoretical_optimum` (the `Σ C̃*`
//!    of Theorem 1, computed by the session so decoupled baselines — which
//!    record an optimum of 0 in their plans — are held to the same bar);
//! 5. **Model agreement** — the event-driven simulator in serialized mode
//!    matches the closed form
//!    ([`LocalizedPlan::closed_form_iteration_s`](spindle_runtime::LocalizedPlan::closed_form_iteration_s))
//!    within a configured two-sided tolerance on every plan, task-parallel
//!    ones included
//!    ([`SimReport::check_gap_within`](spindle_runtime::SimReport::check_gap_within));
//! 6. **Cache soundness** — Spindle's warm re-plan of an already-seen phase
//!    is bit-identical (wave-for-wave) to a cold plan of the same graph;
//! 7. **Robustness** — a heterogeneous contended simulation (slow devices,
//!    transient straggler windows, the scenario's drawn comm-overlap mode,
//!    link contention) still completes with a finite, positive iteration
//!    time no shorter than the plan's compute alone, and completes every
//!    transmission site and every parameter-group all-reduce exactly once.
//!
//! Scenarios additionally carry a *device-level* churn trace (removals and
//! restores of whole device sets). For Spindle — the only system with an
//! elastic session — every device-churn event triggers a re-plan that is
//! pushed through the same invariants on the surviving cluster, with three
//! extra checks: no placement may reference a removed device; a loss
//! re-plan either keeps the pre-event plan (`levels_replaced == 0`) or
//! equals a cold plan of a fresh session with the same devices removed
//! (`levels_replaced == levels_total`), and nothing in between; and after
//! the final restore the session must recur bit-identically with a cold plan
//! on the pristine cluster (invariant 6 under elasticity).
//!
//! 8. **Recovery accounting** — scenarios also draw a checkpoint cadence and
//!    a storage-tier bandwidth. At every device-churn event the runtime's
//!    migration/restore partition must agree with ground truth computed
//!    directly from the previous plan: restore bytes are charged *iff* some
//!    stateful MetaOp's every replica fell inside the removed set, the
//!    re-materialised count matches exactly, restore pricing over the drawn
//!    storage tier stays finite and positive, and the planner's own
//!    loss-side counters never claim a restore ground truth disproves.
//!    Finally, the steady-state checkpoint-write charge must be monotone in
//!    the cadence: checkpointing half as often can never cost more write
//!    time over a fixed horizon.
//!
//! A failed check becomes a [`Violation`] carrying the draw coordinates and
//! the serialized scenario; [`shrink`] then greedily re-checks the scenario's
//! reduction candidates to find a minimal reproducer. [`Mutation`]s exist to
//! prove the gauntlet has teeth: each one corrupts a plan in a way exactly
//! one invariant must catch.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use spindle_baselines::SystemKind;
use spindle_cluster::{ClusterSpec, DeviceId, StorageSpec};
use spindle_core::{ExecutionPlan, MetaOpId, SpindleSession};
use spindle_graph::ComputationGraph;
use spindle_runtime::{
    migration_flows, price_checkpoint_write, price_restore, CheckpointPolicy, CommMode,
    LocalizedPlan, SimConfig, SimReport, Straggler,
};
use spindle_workloads::{FuzzBounds, Scenario};

/// The systems every draw is checked against: Spindle plus the three
/// baselines with distinct planning strategies (Optimus-style task-level
/// allocation, DistMM-style sequential tasks, DeepSpeed-style decoupled
/// data parallelism). Megatron-LM shares the decoupled code path with
/// DeepSpeed, and Spindle-Seq is a Fig. 16 implementation-overhead variant,
/// so neither adds invariant coverage.
pub const FUZZ_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Spindle,
    SystemKind::SpindleOptimus,
    SystemKind::DistMmMt,
    SystemKind::DeepSpeed,
];

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; each draw folds its index into it.
    pub seed: u64,
    /// Number of scenarios to draw and check.
    pub draws: u64,
    /// Bounds of the scenario space.
    pub bounds: FuzzBounds,
    /// Maximum relative gap, either way, between the serialized simulator
    /// and the closed form: they price the same work and differ only in the
    /// order float sums are taken.
    pub gap_tolerance: f64,
    /// Relative slack on the `makespan ≥ theoretical_optimum` bound. The
    /// bound is a continuous MPSP solution obtained by bisection (per-level
    /// epsilon 1e-7 s), so an exactly-optimal discrete plan can undercut it
    /// by a few 1e-7 s; 1e-3 relative absorbs that with margin.
    pub optimum_tolerance: f64,
    /// Whether to shrink a violating scenario to a minimal reproducer.
    pub shrink: bool,
}

impl FuzzConfig {
    /// Quick-mode run: small scenario bounds, suitable for CI smoke jobs.
    #[must_use]
    pub fn quick(seed: u64, draws: u64) -> Self {
        Self {
            seed,
            draws,
            bounds: FuzzBounds::quick(),
            gap_tolerance: 1e-9,
            optimum_tolerance: 1e-3,
            shrink: true,
        }
    }

    /// Full-mode run: mid-scale scenario bounds.
    #[must_use]
    pub fn full(seed: u64, draws: u64) -> Self {
        Self {
            bounds: FuzzBounds::full(),
            ..Self::quick(seed, draws)
        }
    }
}

/// A deliberate plan corruption used to prove the invariant gauntlet catches
/// real violations (mutation testing of the fuzzer itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Removes one wave entry — breaks full operator coverage.
    DropEntry,
    /// Inflates one entry's device allocation past the cluster — breaks the
    /// per-wave capacity bound.
    OverAllocate,
    /// Inflates one entry's per-device memory estimate past any HBM — breaks
    /// the memory bound.
    InflateMemory,
    /// Scales the whole timeline down a million-fold — drives the makespan
    /// below the theoretical optimum.
    ShrinkMakespan,
}

impl Mutation {
    /// Every mutation, for exhaustive mutation-coverage tests.
    pub const ALL: [Mutation; 4] = [
        Mutation::DropEntry,
        Mutation::OverAllocate,
        Mutation::InflateMemory,
        Mutation::ShrinkMakespan,
    ];

    /// Applies this corruption to a copy of `plan`.
    #[must_use]
    pub fn apply(self, plan: &ExecutionPlan) -> ExecutionPlan {
        let mut waves = plan.waves().to_vec();
        match self {
            Mutation::DropEntry => {
                if let Some(wave) = waves.iter_mut().find(|w| !w.entries.is_empty()) {
                    wave.entries.remove(0);
                }
            }
            Mutation::OverAllocate => {
                if let Some(entry) = waves.iter_mut().flat_map(|w| w.entries.iter_mut()).next() {
                    entry.devices = plan.num_devices() + 7;
                }
            }
            Mutation::InflateMemory => {
                if let Some(entry) = waves.iter_mut().flat_map(|w| w.entries.iter_mut()).next() {
                    entry.memory_per_device = u64::MAX / 2;
                }
            }
            Mutation::ShrinkMakespan => {
                for wave in &mut waves {
                    wave.start *= 1e-6;
                    wave.duration *= 1e-6;
                    for entry in &mut wave.entries {
                        entry.time_per_op *= 1e-6;
                        entry.exec_time *= 1e-6;
                    }
                }
            }
        }
        ExecutionPlan::new(
            waves,
            plan.metagraph_handle(),
            plan.num_devices(),
            plan.theoretical_optimum(),
            plan.planning_time(),
        )
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mutation::DropEntry => "drop-entry",
            Mutation::OverAllocate => "over-allocate",
            Mutation::InflateMemory => "inflate-memory",
            Mutation::ShrinkMakespan => "shrink-makespan",
        };
        f.write_str(s)
    }
}

/// One invariant violation: which check failed, where, and the full offending
/// configuration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Seed of the violating run.
    pub seed: u64,
    /// Draw index within the run.
    pub index: u64,
    /// System whose plan violated the invariant, when attributable.
    pub system: Option<SystemKind>,
    /// Phase label (active set) at the violation.
    pub phase: String,
    /// Human-readable description of the failed check.
    pub detail: String,
    /// The offending scenario, serialized as JSON.
    pub scenario_json: String,
}

impl Violation {
    fn new(scenario: &Scenario, system: Option<SystemKind>, phase: &str, detail: String) -> Self {
        Self {
            seed: scenario.seed,
            index: scenario.index,
            system,
            phase: phase.to_string(),
            detail,
            scenario_json: scenario.to_json(),
        }
    }

    /// The command reproducing this violation.
    #[must_use]
    pub fn repro_command(&self) -> String {
        format!(
            "cargo run --release -p spindle-bench --bin fuzz -- --seed {} --index {}",
            self.seed, self.index
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let system = self
            .system
            .map_or_else(|| "generator".to_string(), |s| s.to_string());
        write!(
            f,
            "seed {} draw {} [{system}] phase \"{}\": {}",
            self.seed, self.index, self.phase, self.detail
        )
    }
}

/// Whether the plan's waves form a serial timeline: every wave starts at or
/// after its predecessor ends (up to float noise). Only such plans are held
/// to the level-synchronous optimum `Σ C̃*`.
fn has_serial_timeline(plan: &ExecutionPlan) -> bool {
    plan.waves()
        .windows(2)
        .all(|w| w[1].start >= w[0].end() - 1e-9)
}

/// Part of invariant 7: `run` completed every transmission site and every
/// parameter-group all-reduce of `localized` exactly once.
fn completes_every_flow_once(run: &SimReport, localized: &LocalizedPlan) -> Result<(), String> {
    let sites = localized.sites().len();
    let groups = localized.pool().num_groups();
    if run.flows_executed() == sites && run.syncs_executed() == groups {
        return Ok(());
    }
    Err(format!(
        "completed {} transmissions of {sites} sites and {} all-reduces of {groups} groups",
        run.flows_executed(),
        run.syncs_executed()
    ))
}

/// Invariants 1–5 and 7 for one plan of `graph` on `cluster` — the check
/// every phase plan and every churned re-plan goes through. `session` plans
/// on `cluster` and supplies invariant 4's `Σ C̃*`. The closed form and both
/// simulations run from one localisation of the plan; `stats` counts it and
/// the simulations.
fn check_plan(
    plan: &Arc<ExecutionPlan>,
    graph: &ComputationGraph,
    cluster: &ClusterSpec,
    session: &SpindleSession,
    hetero_config: &SimConfig,
    cfg: &FuzzConfig,
    stats: &mut FuzzStats,
) -> Result<(), String> {
    // 1–3: structure, placement, capacity, memory.
    plan.check_invariants(cluster.device_memory_bytes())
        .map_err(|e| format!("invariant: {e}"))?;

    // 4: lower bounds on the makespan. Two bounds apply:
    //
    // * The averaging bound — busy device-seconds cannot exceed
    //   `makespan × num_devices` — holds for *any* schedule.
    // * The session's `Σ C̃*` is the optimum of *level-synchronous*
    //   schedules (Theorem 1 assumes wavefront level barriers).
    //   Task-parallel plans (Optimus) overlap heterogeneous-depth tasks
    //   across level boundaries and can legitimately finish below it, so it
    //   is enforced only on serial-timeline plans (which decoupled and
    //   sequential baselines also produce).
    let makespan = plan.makespan();
    let busy: f64 = plan
        .waves()
        .iter()
        .flat_map(|w| w.entries.iter())
        .map(|e| e.exec_time * f64::from(e.devices))
        .sum();
    let averaging_bound = busy / f64::from(plan.num_devices());
    if makespan < averaging_bound * (1.0 - cfg.optimum_tolerance) {
        return Err(format!(
            "makespan {makespan:.6}s packs {busy:.6} busy device-seconds onto \
             {} devices (averaging bound {averaging_bound:.6}s)",
            plan.num_devices()
        ));
    }
    if has_serial_timeline(plan) {
        let optimum = session
            .theoretical_optimum(graph)
            .map_err(|e| format!("optimum bound unavailable: {e}"))?;
        if makespan < optimum * (1.0 - cfg.optimum_tolerance) {
            return Err(format!(
                "makespan {makespan:.6}s beats the theoretical optimum {optimum:.6}s"
            ));
        }
    }

    // 5: the serialized simulator runs the closed form as events.
    let localized = LocalizedPlan::new(Arc::clone(plan), cluster, Some(graph))
        .map_err(|e| format!("localization: {e}"))?;
    stats.localizations += 1;
    localized
        .run(&SimConfig::default())
        .check_gap_within(localized.closed_form_iteration_s(), cfg.gap_tolerance)
        .map_err(|e| format!("serialized simulation: {e}"))?;

    // 7: heterogeneous contended simulation stays sane. Slow devices,
    // straggler windows, the drawn comm-overlap mode and contention can move
    // the total either way relative to the serialized run, but it can never
    // finish faster than the plan's pure compute on the slowest assigned
    // device, and it completes every transmission and all-reduce exactly
    // once.
    let hetero = localized.run(hetero_config);
    stats.simulations += 2;
    if !hetero.total_s().is_finite() || hetero.total_s() <= 0.0 {
        return Err(format!(
            "heterogeneous simulation produced a degenerate total of {}s",
            hetero.total_s()
        ));
    }
    if hetero.total_s() + 1e-9 < makespan {
        return Err(format!(
            "heterogeneous simulation finished in {:.6}s, faster than the plan's \
             own compute makespan {makespan:.6}s",
            hetero.total_s()
        ));
    }
    completes_every_flow_once(&hetero, &localized)
        .map_err(|e| format!("heterogeneous simulation {e}"))
}

/// Counters accumulated over the checked draws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Scenarios checked.
    pub draws: u64,
    /// Phase plans produced and checked (across all systems).
    pub plans_checked: u64,
    /// Spindle warm re-plans that were bit-identical to cold plans.
    pub warm_identical: u64,
    /// Simulations executed (serialized + heterogeneous contended).
    pub simulations: u64,
    /// Plans localised for simulation: one per plan checked, shared by the
    /// closed form and both simulations.
    pub localizations: u64,
    /// Device-churn events whose recovery accounting (restore-iff-all-dead,
    /// re-materialised counts, restore pricing) was verified.
    pub recovery_checked: u64,
    /// Loss re-plans checked to keep the pre-event plan or to equal a cold
    /// plan on the survivors.
    pub loss_replans_checked: u64,
}

/// Checks every invariant for one scenario. `mutation` corrupts Spindle's
/// first-phase plan before checking — used by mutation-coverage tests; pass
/// `None` for real fuzzing.
///
/// # Errors
///
/// Returns the first [`Violation`] encountered.
pub fn check_scenario(
    scenario: &Scenario,
    cfg: &FuzzConfig,
    mutation: Option<Mutation>,
) -> Result<FuzzStats, Box<Violation>> {
    let mut stats = FuzzStats::default();
    // The drawn storage tier (spine keeps the default 4x node-link ratio)
    // propagates through `without_devices`, so churned survivor clusters
    // price restores against the same tier.
    let cluster = ClusterSpec::homogeneous(scenario.nodes, scenario.gpus_per_node).with_storage(
        StorageSpec {
            node_bandwidth: scenario.storage_gbps * 1e9,
            spine_bandwidth: scenario.storage_gbps * 4e9,
            latency_s: 2e-3,
        },
    );
    let policy = scenario
        .checkpoint_cadence
        .map_or_else(CheckpointPolicy::default, CheckpointPolicy::every);
    let phases = scenario.phases().map_err(|e| {
        Box::new(Violation::new(
            scenario,
            None,
            "generation",
            format!("phase graph failed to build: {e}"),
        ))
    })?;
    let speed_factors: BTreeMap<DeviceId, f64> = scenario
        .speed_factors
        .iter()
        .map(|&(d, f)| (DeviceId(d), f))
        .collect();
    let stragglers: Vec<Straggler> = scenario
        .straggler_windows
        .iter()
        .map(|w| Straggler {
            device: DeviceId(w.device),
            slowdown: w.slowdown,
            from_s: w.from_s,
            until_s: w.until_s,
        })
        .collect();
    let hetero_config = SimConfig {
        seed: scenario.seed ^ scenario.index,
        comm_mode: if scenario.overlap_comm {
            CommMode::Overlapped
        } else {
            CommMode::Serialized
        },
        speed_factors,
        stragglers,
        ..SimConfig::contended()
    };

    for &system in &FUZZ_SYSTEMS {
        let mut session = SpindleSession::new(cluster.clone());
        for (phase, graph) in &phases {
            let fail =
                |detail: String| Box::new(Violation::new(scenario, Some(system), phase, detail));
            // Spindle goes through the incremental re-planner so churn
            // exercises the structural plan cache; baselines plan cold.
            let plan = if system == SystemKind::Spindle {
                session.replan(graph).map_err(|e| fail(e.to_string()))?.plan
            } else {
                system
                    .plan(graph, &mut session)
                    .map_err(|e| fail(e.to_string()))?
            };
            let plan = match mutation {
                Some(m) if system == SystemKind::Spindle => m.apply(&plan),
                _ => plan,
            };
            let plan = Arc::new(plan);
            stats.plans_checked += 1;
            check_plan(
                &plan,
                graph,
                &cluster,
                &session,
                &hetero_config,
                cfg,
                &mut stats,
            )
            .map_err(fail)?;

            // 6: warm re-plan bit-identity. A fresh session planning the
            // same graph cold must produce exactly the waves the warm
            // incremental path produced.
            if system == SystemKind::Spindle && mutation.is_none() {
                let mut cold = SpindleSession::new(cluster.clone());
                let cold_plan = cold
                    .plan(graph)
                    .map_err(|e| fail(format!("cold re-plan failed: {e}")))?;
                if cold_plan.waves() != plan.waves() {
                    return Err(fail(format!(
                        "warm re-plan diverged from the cold plan: {} vs {} waves, \
                         makespans {:.9}s vs {:.9}s",
                        plan.waves().len(),
                        cold_plan.waves().len(),
                        plan.makespan(),
                        cold_plan.makespan()
                    )));
                }
                stats.warm_identical += 1;
            }
        }

        // Device-level churn — Spindle only (baselines have no elastic
        // session). Every removal/restore re-plans the last phase graph on
        // the surviving devices and pushes the result through the same
        // per-plan check as a phase plan (invariants 1–5 and 7), plus: no
        // placement may reference a removed device.
        if system == SystemKind::Spindle && mutation.is_none() && !scenario.device_churn.is_empty()
        {
            let (last_phase, graph) = phases.last().expect("phases are non-empty");
            let phase = format!("{last_phase} +device-churn");
            let fail =
                |detail: String| Box::new(Violation::new(scenario, Some(system), &phase, detail));
            // The placement the first churn event diffs against; updated
            // after every event so each re-plan is compared to its true
            // predecessor. Served from the warm cache (bit-identical to the
            // phase plan per invariant 6).
            let mut prev_plan = Arc::new(
                session
                    .replan(graph)
                    .map_err(|e| fail(format!("pre-churn snapshot re-plan: {e}")))?
                    .plan,
            );
            for event in &scenario.device_churn {
                let ids: Vec<DeviceId> = event.devices.iter().map(|&d| DeviceId(d)).collect();
                if event.remove {
                    session
                        .remove_devices(&ids)
                        .map_err(|e| fail(format!("device removal {ids:?}: {e}")))?;
                } else {
                    session.restore_devices(&ids);
                }
                let outcome = session
                    .replan(graph)
                    .map_err(|e| fail(format!("churn re-plan: {e}")))?;
                // A loss keeps the pre-event plan or re-places all of it,
                // exactly as a fresh session on the same survivors plans.
                if outcome.devices_lost > 0 {
                    let (replaced, total) = (outcome.levels_replaced, outcome.levels_total);
                    let expected = match replaced {
                        0 => Arc::clone(&prev_plan),
                        n if n == total => {
                            let mut fresh = SpindleSession::new(cluster.clone());
                            let cold = fresh
                                .remove_devices(session.removed_devices())
                                .and_then(|_| fresh.plan(graph))
                                .map_err(|e| fail(format!("cold plan on the survivors: {e}")))?;
                            Arc::new(cold)
                        }
                        n => return Err(fail(format!("a loss re-placed {n} of {total} levels"))),
                    };
                    if outcome.plan.waves() != expected.waves() {
                        return Err(fail(format!(
                            "a loss re-plan replacing {replaced} of {total} levels diverged \
                             from the pre-event plan or a cold plan on the survivors"
                        )));
                    }
                    stats.loss_replans_checked += 1;
                }
                let planner_rematerialized = outcome.rematerialized_metaops;
                let planner_restore_bytes = outcome.restore_bytes;
                let plan = Arc::new(outcome.plan);
                stats.plans_checked += 1;
                let churned = session.cluster_handle();
                check_plan(
                    &plan,
                    graph,
                    &churned,
                    &session,
                    &hetero_config,
                    cfg,
                    &mut stats,
                )
                .map_err(fail)?;
                let removed = session.removed_devices();
                for (w, wave) in plan.waves().iter().enumerate() {
                    for entry in &wave.entries {
                        if let Some(group) = &entry.placement {
                            if let Some(&dead) = removed.iter().find(|&&d| group.contains(d)) {
                                return Err(fail(format!(
                                    "wave {w} places {} on removed device {dead:?}",
                                    entry.metaop
                                )));
                            }
                        }
                    }
                }
                // Invariant 8: recovery accounting. Diff the plan against its
                // predecessor on the surviving cluster: restore traffic exists
                // iff some stateful MetaOp lost every replica, the per-MetaOp
                // count is exact, and restore pricing over the drawn storage
                // tier stays finite and positive.
                let mut old_sites: BTreeMap<MetaOpId, Vec<DeviceId>> = BTreeMap::new();
                for wave in prev_plan.waves() {
                    for entry in &wave.entries {
                        if let Some(group) = &entry.placement {
                            let sites = old_sites.entry(entry.metaop).or_default();
                            for d in group.iter() {
                                if !sites.contains(&d) {
                                    sites.push(d);
                                }
                            }
                        }
                    }
                }
                let mut new_live: Vec<MetaOpId> = Vec::new();
                for wave in plan.waves() {
                    for entry in &wave.entries {
                        if entry.placement.is_some()
                            && entry.memory_per_device > 0
                            && !new_live.contains(&entry.metaop)
                        {
                            new_live.push(entry.metaop);
                        }
                    }
                }
                let truly_dead = old_sites
                    .iter()
                    .filter(|(id, sites)| {
                        new_live.contains(id) && sites.iter().all(|d| removed.contains(d))
                    })
                    .count();
                let migration = migration_flows(&prev_plan, &plan, &churned);
                if migration.rematerialized_metaops() != truly_dead {
                    return Err(fail(format!(
                        "runtime re-materialises {} MetaOps but ground truth says {} lost \
                         every replica",
                        migration.rematerialized_metaops(),
                        truly_dead
                    )));
                }
                if (migration.restore_bytes() > 0) != (truly_dead > 0) {
                    return Err(fail(format!(
                        "restore_bytes {} disagrees with {} all-replicas-dead MetaOps",
                        migration.restore_bytes(),
                        truly_dead
                    )));
                }
                if policy.enabled() && !migration.restores.is_empty() {
                    let stall = price_restore(&churned, &migration.restores, &policy, true);
                    if !stall.is_finite() || stall <= 0.0 {
                        return Err(fail(format!(
                            "restore of {} bytes priced to a degenerate {stall}s",
                            migration.restore_bytes()
                        )));
                    }
                }
                // The session's own loss-side counters are best-effort (a
                // fallback full re-plan loses the old placement and reports
                // zero), so hold them to one-directional consistency only.
                if (planner_rematerialized > 0) != (planner_restore_bytes > 0) {
                    return Err(fail(format!(
                        "session counters disagree: {planner_rematerialized} re-materialised \
                         MetaOps vs {planner_restore_bytes} restore bytes"
                    )));
                }
                if planner_restore_bytes > 0 && truly_dead == 0 {
                    return Err(fail(format!(
                        "session reports {planner_restore_bytes} restore bytes but no MetaOp \
                         lost every replica"
                    )));
                }
                stats.recovery_checked += 1;
                prev_plan = plan;
            }
            // Restore whatever is still down: the session must recur
            // bit-identically with a cold plan on the pristine cluster
            // (invariant 6 under elasticity).
            let still_down = session.removed_devices().to_vec();
            if !still_down.is_empty() {
                session.restore_devices(&still_down);
            }
            let outcome = session
                .replan(graph)
                .map_err(|e| fail(format!("post-restore re-plan: {e}")))?;
            let mut cold = SpindleSession::new(cluster.clone());
            let cold_plan = cold
                .plan(graph)
                .map_err(|e| fail(format!("post-restore cold plan: {e}")))?;
            if outcome.plan.waves() != cold_plan.waves() {
                return Err(fail(format!(
                    "restore-then-replan diverged from the cold plan: {} vs {} waves, \
                     makespans {:.9}s vs {:.9}s",
                    outcome.plan.waves().len(),
                    cold_plan.waves().len(),
                    outcome.plan.makespan(),
                    cold_plan.makespan()
                )));
            }
            stats.warm_identical += 1;
            // Invariant 8, write-side: over a fixed horizon, checkpointing
            // half as often can never cost more write time than the drawn
            // cadence — the steady-state charge is monotone.
            if let Some(k) = scenario.checkpoint_cadence {
                const HORIZON_ITERS: u64 = 256;
                let charge = |cadence: u32| {
                    let p = CheckpointPolicy::every(cadence);
                    #[allow(clippy::cast_precision_loss)]
                    let n = p.checkpoints_in(HORIZON_ITERS) as f64;
                    n * price_checkpoint_write(&cluster, &outcome.plan, true)
                };
                let dense = charge(k);
                let sparse = charge(k.saturating_mul(2));
                if sparse > dense + 1e-9 {
                    return Err(fail(format!(
                        "checkpoint write charge is not monotone in cadence: every {k} iters \
                         costs {dense:.9}s over {HORIZON_ITERS} iters, every {} costs \
                         {sparse:.9}s",
                        k.saturating_mul(2)
                    )));
                }
                stats.recovery_checked += 1;
            }
        }
    }
    stats.draws = 1;
    Ok(stats)
}

/// Draws and checks scenario `index` of the run seeded by `cfg.seed`.
///
/// # Errors
///
/// Returns the first [`Violation`] encountered.
pub fn check_draw(cfg: &FuzzConfig, index: u64) -> Result<FuzzStats, Box<Violation>> {
    check_scenario(&Scenario::draw(cfg.seed, index, &cfg.bounds), cfg, None)
}

/// Upper bound on re-checks one shrink loop may spend.
pub const SHRINK_CHECK_BUDGET: usize = 100;

/// Greedily shrinks `scenario` to a smaller one that still fails, re-checking
/// candidates from [`Scenario::shrink_candidates`] until none fails or the
/// check budget runs out. Returns the minimal scenario and its violation.
#[must_use]
pub fn shrink(
    scenario: Scenario,
    violation: Box<Violation>,
    cfg: &FuzzConfig,
    mutation: Option<Mutation>,
) -> (Scenario, Box<Violation>) {
    let mut current = scenario;
    let mut current_violation = violation;
    let mut budget = SHRINK_CHECK_BUDGET;
    'outer: loop {
        for candidate in current.shrink_candidates() {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(v) = check_scenario(&candidate, cfg, mutation) {
                current = candidate;
                current_violation = v;
                continue 'outer;
            }
        }
        break;
    }
    (current, current_violation)
}

/// Result of a whole fuzz run: accumulated stats plus the (shrunk) violation
/// that stopped it, if any.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Accumulated counters over all checked draws.
    pub stats: FuzzStats,
    /// The violation that stopped the run, already shrunk when the config
    /// asks for it, together with the minimal scenario.
    pub violation: Option<(Scenario, Box<Violation>)>,
}

/// Runs `cfg.draws` seeded draws, stopping at (and shrinking) the first
/// violation.
#[must_use]
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    run_with(cfg, |_, _| {})
}

/// [`run`] with a per-draw progress callback `(index, label)`.
pub fn run_with(cfg: &FuzzConfig, mut progress: impl FnMut(u64, &str)) -> FuzzReport {
    let mut stats = FuzzStats::default();
    for index in 0..cfg.draws {
        let scenario = Scenario::draw(cfg.seed, index, &cfg.bounds);
        progress(index, &scenario.label());
        match check_scenario(&scenario, cfg, None) {
            Ok(s) => {
                stats.draws += s.draws;
                stats.plans_checked += s.plans_checked;
                stats.warm_identical += s.warm_identical;
                stats.simulations += s.simulations;
                stats.localizations += s.localizations;
                stats.recovery_checked += s.recovery_checked;
                stats.loss_replans_checked += s.loss_replans_checked;
            }
            Err(v) => {
                let (scenario, v) = if cfg.shrink {
                    shrink(scenario, v, cfg, None)
                } else {
                    (scenario, v)
                };
                return FuzzReport {
                    stats,
                    violation: Some((scenario, v)),
                };
            }
        }
    }
    FuzzReport {
        stats,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::Modality;
    use spindle_workloads::{DeviceChurnDraw, FuzzTask, TowerShape};

    fn tiny_cfg() -> FuzzConfig {
        FuzzConfig::quick(0xF022, 4)
    }

    /// A hand-built scenario whose single churn event removes a whole node
    /// under a multi-task roster, guaranteeing at least one MetaOp loses
    /// every replica — so the restore-iff-all-dead invariant is exercised on
    /// its positive side, not just vacuously.
    #[test]
    fn whole_node_loss_exercises_the_restore_invariant() {
        let modalities = [
            Modality::Vision,
            Modality::Audio,
            Modality::Depth,
            Modality::Thermal,
            Modality::Motion,
        ];
        let tasks: Vec<FuzzTask> = modalities
            .iter()
            .enumerate()
            .map(|(i, &modality)| FuzzTask {
                modality,
                batch: 8 + 4 * u32::try_from(i).unwrap(),
                seq: 64,
                hidden: 256,
                tower_layers: 2 + i % 3,
                shape: TowerShape::Dual,
            })
            .collect();
        let scenario = Scenario {
            seed: 0xD00D,
            index: 0,
            nodes: 2,
            gpus_per_node: 4,
            active: vec![true; tasks.len()],
            tasks,
            churn: vec![],
            speed_factors: vec![],
            overlap_comm: false,
            straggler_windows: vec![],
            device_churn: vec![DeviceChurnDraw {
                remove: true,
                devices: vec![4, 5, 6, 7],
            }],
            checkpoint_cadence: Some(3),
            storage_gbps: 8.0,
        };
        // Ground truth first: on this roster the node-1 removal really does
        // strand MetaOps with zero surviving replicas, so the harness check
        // below cannot pass vacuously.
        let cluster = ClusterSpec::homogeneous(2, 4).with_storage(spindle_cluster::StorageSpec {
            node_bandwidth: 8e9,
            spine_bandwidth: 32e9,
            latency_s: 2e-3,
        });
        let phases = scenario.phases().expect("phase graphs build");
        let (_, graph) = phases.last().expect("roster is non-empty");
        let mut session = SpindleSession::new(cluster);
        let before = session.replan(graph).expect("initial plan").plan;
        let dead: Vec<DeviceId> = (4..8).map(DeviceId).collect();
        session.remove_devices(&dead).expect("node removal");
        let after = session.replan(graph).expect("churn re-plan").plan;
        let survivors = session.cluster_handle();
        let migration = migration_flows(&before, &after, &survivors);
        assert!(
            migration.restore_bytes() > 0,
            "whole-node loss must strand at least one MetaOp"
        );
        // The full gauntlet passes and counts both the per-event recovery
        // check and the cadence-monotonicity check.
        let stats = check_scenario(&scenario, &tiny_cfg(), None).unwrap_or_else(|v| panic!("{v}"));
        assert!(stats.recovery_checked >= 2, "{stats:?}");
    }

    #[test]
    fn clean_draws_pass_every_invariant() {
        let cfg = tiny_cfg();
        for index in 0..cfg.draws {
            let stats = check_draw(&cfg, index).unwrap_or_else(|v| panic!("{v}"));
            assert!(stats.plans_checked >= FUZZ_SYSTEMS.len() as u64);
            assert_eq!(stats.localizations, stats.plans_checked);
            assert!(stats.warm_identical >= 1);
        }
    }

    #[test]
    fn every_mutation_is_caught() {
        let cfg = tiny_cfg();
        let scenario = Scenario::draw(cfg.seed, 0, &cfg.bounds);
        for mutation in Mutation::ALL {
            let v = check_scenario(&scenario, &cfg, Some(mutation))
                .expect_err("corrupted plan must violate an invariant");
            assert_eq!(v.system, Some(SystemKind::Spindle), "{mutation}: {v}");
        }
    }

    #[test]
    fn mutations_target_distinct_invariants() {
        let cfg = tiny_cfg();
        let scenario = Scenario::draw(cfg.seed, 1, &cfg.bounds);
        let detail = |m: Mutation| {
            check_scenario(&scenario, &cfg, Some(m))
                .expect_err("mutation must be caught")
                .detail
        };
        assert!(detail(Mutation::DropEntry).contains("scheduled"));
        assert!(detail(Mutation::OverAllocate).contains("devices"));
        assert!(detail(Mutation::InflateMemory).contains("bytes/device"));
        assert!(detail(Mutation::ShrinkMakespan).contains("beats the theoretical optimum"));
    }

    #[test]
    fn violations_shrink_to_smaller_scenarios() {
        let cfg = tiny_cfg();
        // Find a multi-task draw so there is room to shrink.
        let scenario = (0..32)
            .map(|i| Scenario::draw(cfg.seed, i, &cfg.bounds))
            .find(|s| s.tasks.len() > 2 || !s.churn.is_empty())
            .expect("quick bounds produce multi-task draws");
        let mutation = Some(Mutation::InflateMemory);
        let v = check_scenario(&scenario, &cfg, mutation).expect_err("mutation must fail");
        let (min, min_v) = shrink(scenario.clone(), v, &cfg, mutation);
        assert!(
            min.tasks.len() < scenario.tasks.len()
                || min.churn.len() < scenario.churn.len()
                || min.num_devices() < scenario.num_devices()
                || min
                    .tasks
                    .iter()
                    .zip(&scenario.tasks)
                    .any(|(a, b)| a.tower_layers < b.tower_layers),
            "shrinking must reduce at least one dimension"
        );
        assert!(min_v.detail.contains("bytes/device"), "{min_v}");
        // The minimal reproducer still fails on a fresh check.
        check_scenario(&min, &cfg, mutation).expect_err("minimal scenario must still fail");
        assert!(min_v.repro_command().contains("--seed"));
    }
}
