//! The dynamic run loop: online re-planning under task arrivals and
//! departures.
//!
//! The paper's Appendix D scenario — tasks join and finish mid-run, the
//! system re-plans at every change — is driven here end to end: an
//! [`ArrivalSchedule`] positions task-mix changes on a simulated timeline,
//! and at each arrival the loop calls back into the long-lived
//! [`SpindleSession`] to re-plan online (served from the warm curve cache for
//! operator signatures seen before), localises the new plan once and runs
//! it on the event-driven simulator ([`LocalizedPlan::run`]). The report
//! captures, per phase, the re-plan
//! cost and cache warmth, the simulated versus closed-form iteration time
//! (the plan-vs-simulated gap), and the utilization trace.

use std::fmt;
use std::sync::Arc;

use spindle_cluster::DeviceId;
use spindle_core::{ReplanSummary, SpindleSession};
use spindle_graph::ComputationGraph;
use spindle_workloads::{ArrivalSchedule, DeviceChurnEvent, DeviceChurnKind, ScheduleEvent};

use crate::localize::LocalizedPlan;
use crate::metrics::UtilizationSample;
use crate::migrate::{migration_flows, price_migration};
use crate::recovery::{
    background_checkpoint_flows, price_checkpoint_write, price_restore, CheckpointPolicy,
};
use crate::sim::{FaultSpec, SimConfig};
use crate::RuntimeError;

/// What happened in one phase of a dynamic run.
#[derive(Debug, Clone)]
pub struct PhaseRunReport {
    /// The phase's task-set label.
    pub label: String,
    /// When the phase's task mix arrived, simulated seconds since run start.
    pub arrival_s: f64,
    /// Wall-clock cost of the online re-plan, milliseconds.
    pub replan_ms: f64,
    /// The online re-plan's counters: curve fits and hits, warmth, levels
    /// reused from the structural plan cache, placement reuse.
    pub replan: ReplanSummary,
    /// Simulated iteration time of the phase's plan, seconds.
    pub sim_iteration_s: f64,
    /// Closed-form iteration time of the same plan
    /// ([`LocalizedPlan::closed_form_iteration_s`]), seconds.
    pub analytical_iteration_s: f64,
    /// Relative plan-vs-simulated gap:
    /// `(simulated - analytical) / analytical`.
    pub gap: f64,
    /// Training iterations executed before the next task-mix change.
    pub iterations: u64,
    /// Checkpoints written during the phase at the configured cadence.
    pub checkpoints_written: u64,
    /// Steady-state checkpoint-write charge of the phase, seconds: full
    /// synchronous stalls, or (with
    /// [`CheckpointPolicy::async_overlap`]) only the contention-induced
    /// iteration slowdown measured by the event simulator.
    pub checkpoint_write_s: f64,
    /// Utilization trace of one simulated iteration of this phase.
    pub utilization_trace: Vec<UtilizationSample>,
}

/// What happened at one device-churn event of a dynamic run.
#[derive(Debug, Clone)]
pub struct ChurnRunReport {
    /// Event timestamp, simulated seconds since run start.
    pub at_s: f64,
    /// The schedule's event label.
    pub label: String,
    /// `true` for a removal (device death / preemption), `false` for a
    /// restore.
    pub removed: bool,
    /// The global device ids the event named.
    pub devices: Vec<u32>,
    /// Wall-clock cost of the topology re-plan, milliseconds.
    pub replan_ms: f64,
    /// The topology re-plan's counters (all zero when no phase was active):
    /// devices lost against the last planned device set (removals of
    /// already-dead devices count zero), levels re-placed (all of them, or
    /// none when the loss touched no placed device and the plan was kept),
    /// and the planner's
    /// loss-side estimates of the migration (bytes, serialized α-β price)
    /// and of the restores. The runtime's own figures are the fields below.
    pub replan: ReplanSummary,
    /// Runtime figure: parameter bytes of the actual migration flow set
    /// (old plan → new plan), the same flows
    /// [`sim_migration_s`](Self::sim_migration_s) prices. Unlike the
    /// planner's estimate this also counts a restore moving parameters back
    /// onto returned devices.
    pub migration_bytes: u64,
    /// Runtime figure: the migration makespan with all flows concurrent
    /// under the simulator's equal-share link-contention model, seconds.
    pub sim_migration_s: f64,
    /// Runtime figure: in-flight compute seconds the device death discarded
    /// mid-wave.
    pub wasted_compute_s: f64,
    /// Runtime figure: distinct MetaOps of the flow set whose every replica
    /// died, forcing a checkpoint restore (counted whether or not a
    /// [`CheckpointPolicy`] is active).
    pub rematerialized_metaops: usize,
    /// Runtime figure: state bytes of the flow set that had to come back
    /// from the checkpoint tier.
    pub restore_bytes: u64,
    /// Makespan of the restore flows over the contended storage links,
    /// seconds (0 without an active [`CheckpointPolicy`]).
    pub restore_s: f64,
    /// Lost progress re-run after the event, seconds: the discarded
    /// in-flight iteration ([`wasted_compute_s`](Self::wasted_compute_s))
    /// plus — when state was re-materialised — every iteration since the
    /// last checkpoint, re-run at the post-churn iteration time.
    pub replay_s: f64,
    /// Simulated iteration time before the event, seconds (0 when no phase
    /// was active yet).
    pub iteration_before_s: f64,
    /// Simulated iteration time on the re-planned topology, seconds.
    pub iteration_after_s: f64,
}

/// The full report of a dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicRunReport {
    /// Per-phase reports in arrival order.
    pub phases: Vec<PhaseRunReport>,
    /// Per-event reports of the schedule's device churn, in timeline order.
    pub churn: Vec<ChurnRunReport>,
    /// Total simulated training time across all phases, including churn
    /// overhead (wasted in-flight compute and migration makespans), seconds.
    pub total_simulated_s: f64,
    /// Total online re-planning time, milliseconds.
    pub total_replan_ms: f64,
}

impl DynamicRunReport {
    /// Number of online re-plans performed (every phase after the first).
    #[must_use]
    pub fn replans(&self) -> usize {
        self.phases.len().saturating_sub(1)
    }

    /// The counters of the online re-plans (phases after the first, whose
    /// plans are produced mid-run) summed: curve fits and hits, levels
    /// reused and total.
    fn online_replans(&self) -> ReplanSummary {
        let mut sum = ReplanSummary::default();
        for p in self.phases.iter().skip(1) {
            sum.new_curve_fits += p.replan.new_curve_fits;
            sum.cache_hits += p.replan.cache_hits;
            sum.levels_reused += p.replan.levels_reused;
            sum.levels_total += p.replan.levels_total;
        }
        sum
    }

    /// Curve-cache hit rate over the online re-plans. 1.0 means every
    /// operator signature was served from the warm cache.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        self.online_replans().hit_rate()
    }

    /// Largest absolute plan-vs-simulated gap over all phases.
    #[must_use]
    pub fn worst_gap(&self) -> f64 {
        self.phases.iter().map(|p| p.gap.abs()).fold(0.0, f64::max)
    }

    /// Total contention-priced migration makespans over all churn events,
    /// seconds.
    #[must_use]
    pub fn migration_s(&self) -> f64 {
        self.churn.iter().map(|c| c.sim_migration_s).sum()
    }

    /// Total checkpoint-restore makespans over all churn events, seconds.
    #[must_use]
    pub fn restore_s(&self) -> f64 {
        self.churn.iter().map(|c| c.restore_s).sum()
    }

    /// Total lost-progress replay over all churn events, seconds (includes
    /// the discarded in-flight compute).
    #[must_use]
    pub fn replay_s(&self) -> f64 {
        self.churn.iter().map(|c| c.replay_s).sum()
    }

    /// Total steady-state checkpoint-write charge over all phases, seconds.
    #[must_use]
    pub fn checkpoint_write_s(&self) -> f64 {
        self.phases.iter().map(|p| p.checkpoint_write_s).sum()
    }

    /// Total simulated seconds lost to device churn and recovery:
    /// contention-priced migration makespans, checkpoint restores,
    /// lost-progress replay (which includes discarded in-flight compute)
    /// and steady-state checkpoint writes —
    /// [`migration_s`](Self::migration_s) + [`restore_s`](Self::restore_s) +
    /// [`replay_s`](Self::replay_s) +
    /// [`checkpoint_write_s`](Self::checkpoint_write_s).
    #[must_use]
    pub fn churn_overhead_s(&self) -> f64 {
        self.migration_s() + self.restore_s() + self.replay_s() + self.checkpoint_write_s()
    }

    /// Fraction of MetaLevels spliced from the structural plan cache over
    /// the online re-plans. 1.0 means every re-plan was fully incremental.
    #[must_use]
    pub fn structural_reuse_rate(&self) -> f64 {
        self.online_replans().level_reuse_rate()
    }
}

impl fmt::Display for DynamicRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} phases, {} online re-plans ({:.1} ms total, {:.0}% warm-cache hit rate, \
             {:.0}% structural level reuse), {:.1} x10^3 s simulated, \
             worst plan-vs-sim gap {:+.1}%",
            self.phases.len(),
            self.replans(),
            self.total_replan_ms,
            self.warm_hit_rate() * 100.0,
            self.structural_reuse_rate() * 100.0,
            self.total_simulated_s / 1e3,
            self.worst_gap() * 100.0
        )?;
        if !self.churn.is_empty() {
            write!(
                f,
                ", {} topology changes ({:.3} s churn overhead)",
                self.churn.len(),
                self.churn_overhead_s()
            )?;
        }
        if self.checkpoint_write_s() > 0.0 {
            write!(f, ", {:.3} s checkpoint writes", self.checkpoint_write_s())?;
        }
        Ok(())
    }
}

/// Drives a dynamic workload through online re-planning and event-driven
/// simulation.
///
/// The loop borrows a long-lived [`SpindleSession`] so its curve cache
/// persists across the run (and across runs, if the caller keeps the session).
#[derive(Debug)]
pub struct DynamicRunLoop<'s> {
    session: &'s mut SpindleSession,
    sim_config: SimConfig,
    checkpoint_policy: CheckpointPolicy,
}

impl<'s> DynamicRunLoop<'s> {
    /// Creates a run loop over `session` with the default simulator
    /// configuration (serialized, contention-free — the closed form run as
    /// events) and checkpoint modeling off.
    pub fn new(session: &'s mut SpindleSession) -> Self {
        Self {
            session,
            sim_config: SimConfig::default(),
            checkpoint_policy: CheckpointPolicy::default(),
        }
    }

    /// Overrides the simulator configuration used for every phase.
    #[must_use]
    pub fn with_sim_config(mut self, config: SimConfig) -> Self {
        self.sim_config = config;
        self
    }

    /// Enables checkpoint modeling: steady-state write charges at the
    /// policy's cadence, priced restores of all-replicas-dead MetaOps, and
    /// lost-progress replay back to the last checkpoint.
    #[must_use]
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Executes the schedule's merged timeline. At every task arrival the
    /// session re-plans the new task mix, the new plan is simulated, and the
    /// phase trains until the next arrival (at least one iteration per
    /// phase). At every device-churn event the topology changes mid-run: a
    /// removal kills the in-flight iteration at the event instant (wasted
    /// compute is charged), the session re-plans the active task mix onto
    /// the survivors — keeping the plan when the loss touched none of its
    /// placed devices — and the parameter migration implied by the placement
    /// diff is priced through the simulator's link-contention model. The loop
    /// never dies with the devices: it degrades and carries on.
    ///
    /// # Errors
    ///
    /// Propagates planning failures as [`RuntimeError::InvalidPlan`] and
    /// simulation failures unchanged.
    pub fn run(&mut self, schedule: &ArrivalSchedule) -> Result<DynamicRunReport, RuntimeError> {
        let mut phases = Vec::with_capacity(schedule.arrivals().len());
        let mut churn = Vec::with_capacity(schedule.num_topology_changes());
        let mut total_simulated_s = 0.0;
        let mut total_replan_ms = 0.0;
        // The active phase: its graph, its current plan (localised once), the
        // plan's simulated iteration time and the instant the plan took
        // effect.
        let mut active: Option<(&ComputationGraph, LocalizedPlan, f64, f64)> = None;
        let mut phase_idx = 0;
        for event in schedule.timeline() {
            match event {
                ScheduleEvent::Phase(arrival) => {
                    // Online re-plan at the arrival, against the warm session
                    // cache.
                    let outcome = self.session.replan(&arrival.graph)?;
                    let replan = ReplanSummary::of(&outcome);
                    let replan_ms = outcome.plan.planning_time().as_secs_f64() * 1e3;
                    total_replan_ms += replan_ms;
                    let plan = Arc::new(outcome.plan);
                    let cluster = self.session.cluster_handle();

                    // Price the plan both ways, from one localisation: closed
                    // form and event-driven.
                    let localized =
                        LocalizedPlan::new(Arc::clone(&plan), &cluster, Some(&arrival.graph))?;
                    let analytical_s = localized.closed_form_iteration_s();
                    let sim = localized.run(&self.sim_config);

                    let window_s = schedule.phase_window_s(phase_idx);
                    let iterations = if sim.total_s() > 0.0 {
                        ((window_s / sim.total_s()).floor() as u64).max(1)
                    } else {
                        1
                    };
                    total_simulated_s += iterations as f64 * sim.total_s();

                    // Steady-state checkpoint writes at the configured
                    // cadence: synchronous stalls priced over the storage
                    // tier, or (async_overlap) the contention-induced
                    // iteration slowdown with the write's background flows
                    // injected into the event simulator.
                    let checkpoints_written = self.checkpoint_policy.checkpoints_in(iterations);
                    let checkpoint_write_s = if checkpoints_written == 0 {
                        0.0
                    } else if self.checkpoint_policy.async_overlap {
                        let mut bg_config = self.sim_config.clone();
                        bg_config.background_flows = background_checkpoint_flows(&cluster, &plan);
                        let loaded = localized.run(&bg_config);
                        checkpoints_written as f64 * (loaded.total_s() - sim.total_s()).max(0.0)
                    } else {
                        checkpoints_written as f64
                            * price_checkpoint_write(&cluster, &plan, self.sim_config.contention)
                    };
                    total_simulated_s += checkpoint_write_s;

                    phases.push(PhaseRunReport {
                        label: arrival.label.clone(),
                        arrival_s: arrival.at_s,
                        replan_ms,
                        replan,
                        sim_iteration_s: sim.total_s(),
                        analytical_iteration_s: analytical_s,
                        gap: sim.gap_vs(analytical_s),
                        iterations,
                        checkpoints_written,
                        checkpoint_write_s,
                        utilization_trace: sim.utilization_trace().to_vec(),
                    });
                    active = Some((&arrival.graph, localized, sim.total_s(), arrival.at_s));
                    phase_idx += 1;
                }
                ScheduleEvent::Churn(event) => {
                    let report = self.on_churn(event, &mut active)?;
                    total_replan_ms += report.replan_ms;
                    total_simulated_s +=
                        report.replay_s + report.sim_migration_s + report.restore_s;
                    churn.push(report);
                }
            }
        }
        Ok(DynamicRunReport {
            phases,
            churn,
            total_simulated_s,
            total_replan_ms,
        })
    }

    /// Applies one device-churn event to the session mid-run and re-plans
    /// the active task mix on the changed topology.
    fn on_churn(
        &mut self,
        event: &DeviceChurnEvent,
        active: &mut Option<(&ComputationGraph, LocalizedPlan, f64, f64)>,
    ) -> Result<ChurnRunReport, RuntimeError> {
        let device_ids: Vec<DeviceId> = event.devices.iter().map(|&d| DeviceId(d)).collect();
        let removed = event.kind == DeviceChurnKind::Remove;

        // A removal strikes the iteration in flight: fault-inject the death
        // into the current plan's simulation at the event's offset within
        // the iteration and charge the discarded compute.
        let mut wasted_compute_s = 0.0;
        if removed {
            if let Some((_, localized, iter_s, since_s)) = active.as_ref() {
                if *iter_s > 0.0 {
                    let offset = (event.at_s - since_s).rem_euclid(*iter_s);
                    let (_, fault) = localized.run_with_fault(
                        &self.sim_config,
                        &FaultSpec {
                            at_s: offset,
                            devices: device_ids.clone(),
                        },
                    );
                    wasted_compute_s = fault.wasted_compute_s;
                }
            }
            self.session.remove_devices(&device_ids)?;
        } else {
            self.session.restore_devices(&device_ids);
        }

        let Some((graph, old, iter_before_s, since_s)) = active.take() else {
            // Topology changed before any task arrived: nothing to re-plan.
            return Ok(ChurnRunReport {
                at_s: event.at_s,
                label: event.label.clone(),
                removed,
                devices: event.devices.clone(),
                replan_ms: 0.0,
                replan: ReplanSummary::default(),
                migration_bytes: 0,
                sim_migration_s: 0.0,
                wasted_compute_s,
                rematerialized_metaops: 0,
                restore_bytes: 0,
                restore_s: 0.0,
                replay_s: wasted_compute_s,
                iteration_before_s: 0.0,
                iteration_after_s: 0.0,
            });
        };

        // Re-plan the active task mix on the survivors; a plan the loss did
        // not touch is kept as it is.
        let outcome = self.session.replan(graph)?;
        let replan = ReplanSummary::of(&outcome);
        let replan_ms = outcome.plan.planning_time().as_secs_f64() * 1e3;
        let new_plan = Arc::new(outcome.plan);
        let cluster = self.session.cluster_handle();

        // Price the actual migration flow set through the contention model.
        // The flows — not the planner's loss-side estimate — are the bytes
        // reported: a restore moves parameters back onto returned devices
        // even though the planner charges no loss migration for it. MetaOps
        // whose every replica died cannot be moved at all: their state comes
        // back from the checkpoint tier over the storage links.
        let migration = migration_flows(old.plan(), &new_plan, &cluster);
        let moved_bytes = migration.migration_bytes();
        let sim_migration_s =
            price_migration(&cluster, &migration.flows, self.sim_config.contention);
        let rematerialized_metaops = migration.rematerialized_metaops();
        let restore_bytes = migration.restore_bytes();
        let policy = &self.checkpoint_policy;
        let restore_s = if policy.enabled() && !migration.restores.is_empty() {
            price_restore(
                &cluster,
                &migration.restores,
                policy,
                self.sim_config.contention,
            )
        } else {
            0.0
        };

        let localized = LocalizedPlan::new(new_plan, &cluster, Some(graph))?;
        let iteration_after_s = localized.run(&self.sim_config).total_s();

        // Lost progress: the aborted in-flight iteration is always re-run;
        // when state was re-materialised it is only as fresh as the last
        // checkpoint, so every iteration past the last cadence boundary is
        // re-run too, at the post-churn iteration time.
        let mut replay_s = wasted_compute_s;
        if policy.enabled() && !migration.restores.is_empty() && iter_before_s > 0.0 {
            let iters_done = ((event.at_s - since_s).max(0.0) / iter_before_s).floor() as u64;
            replay_s += policy.replay_iterations(iters_done) as f64 * iteration_after_s;
        }
        *active = Some((graph, localized, iteration_after_s, event.at_s));

        Ok(ChurnRunReport {
            at_s: event.at_s,
            label: event.label.clone(),
            removed,
            devices: event.devices.clone(),
            replan_ms,
            replan,
            migration_bytes: moved_bytes,
            sim_migration_s,
            wasted_compute_s,
            rematerialized_metaops,
            restore_bytes,
            restore_s,
            replay_s,
            iteration_before_s: iter_before_s,
            iteration_after_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_cluster::ClusterSpec;
    use spindle_workloads::DynamicWorkload;

    #[test]
    fn run_loop_replans_online_with_warm_cache() {
        let workload = DynamicWorkload::multitask_clip_schedule().unwrap();
        let schedule = ArrivalSchedule::from_workload(&workload, 0.05);
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let report = DynamicRunLoop::new(&mut session).run(&schedule).unwrap();
        assert_eq!(report.phases.len(), 4);
        assert_eq!(report.replans(), 3);
        // Phase 1 is cold; the final phase ("7 tasks" again) re-plans fully
        // warm, so the overall online hit rate is high.
        assert!(!report.phases[0].replan.warm);
        assert!(
            report.phases[3].replan.warm,
            "repeat task mix must be cache-warm"
        );
        assert!(report.warm_hit_rate() > 0.5);
        // The final phase repeats phase 2's task mix, so the structural plan
        // cache serves it wholesale: every level spliced, placement reused.
        assert_eq!(
            report.phases[0].replan.levels_reused, 0,
            "cold plan reuses nothing"
        );
        assert_eq!(
            report.phases[3].replan.levels_reused,
            report.phases[3].replan.levels_total
        );
        assert!(report.phases[3].replan.placement_reused);
        assert!(report.structural_reuse_rate() > 0.0);
        // The default serialized config is the closed form run as events:
        // every phase agrees with it up to float rounding.
        assert!(report.worst_gap() < 1e-9, "gap {}", report.worst_gap());
        assert!(report.total_simulated_s > 0.0);
        assert!(report.total_replan_ms > 0.0);
        for phase in &report.phases {
            assert!(phase.iterations >= 1);
            assert!(phase.sim_iteration_s > 0.0);
            assert!(!phase.utilization_trace.is_empty());
        }
        let text = report.to_string();
        assert!(text.contains("3 online re-plans"));
    }

    #[test]
    fn device_churn_degrades_gracefully_and_recovers() {
        let schedule = ArrivalSchedule::multitask_clip_arrivals(5, 3, 60.0)
            .unwrap()
            .with_seeded_device_churn(17, 16, 10);
        assert!(schedule.num_topology_changes() > 0, "seed must draw churn");
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let report = DynamicRunLoop::new(&mut session)
            .with_sim_config(SimConfig::contended())
            .run(&schedule)
            .unwrap();
        assert_eq!(report.phases.len(), schedule.arrivals().len());
        assert_eq!(report.churn.len(), schedule.num_topology_changes());
        for c in &report.churn {
            // Every event re-plans onto a live topology: the loop survives.
            assert!(c.iteration_after_s > 0.0 || c.replan.levels_total == 0);
            if c.removed && c.replan.devices_lost > 0 {
                // Losing a small slice of capacity changes the iteration
                // time boundedly (it can even speed up: shallower
                // parallelism means less sync overhead). What must hold is
                // that the run continues at a sane pace, not a cliff.
                assert!(
                    c.iteration_after_s <= c.iteration_before_s * 4.0
                        && c.iteration_after_s >= c.iteration_before_s * 0.25,
                    "lost {} devices, iteration jumped {} -> {}",
                    c.replan.devices_lost,
                    c.iteration_before_s,
                    c.iteration_after_s
                );
                // Migration is priced, and the contended price can beat the
                // planner's serialized α-β bound only through overlap — it
                // never exceeds serial by more than rounding.
                if c.migration_bytes > 0 {
                    assert!(c.replan.migration_cost() > 0.0);
                }
            }
        }
        assert!(report.total_simulated_s > 0.0);
        let text = report.to_string();
        assert!(text.contains("topology changes"), "display: {text}");
    }

    #[test]
    fn removal_before_any_arrival_is_survived() {
        use spindle_workloads::{DeviceChurnEvent, DeviceChurnKind};
        let base = ArrivalSchedule::multitask_clip_arrivals(3, 3, 40.0).unwrap();
        // The seeded arrival process starts its first phase at t=0, so place
        // a removal at the earliest representable instant after it and a
        // restore later; then move the first arrival's events around them.
        let churn = vec![
            DeviceChurnEvent {
                at_s: 0.0,
                kind: DeviceChurnKind::Remove,
                devices: vec![14, 15],
                label: "early loss".into(),
            },
            DeviceChurnEvent {
                at_s: base.horizon_s() * 0.5,
                kind: DeviceChurnKind::Restore,
                devices: vec![14, 15],
                label: "capacity back".into(),
            },
        ];
        let schedule = base.with_device_churn(churn);
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let report = DynamicRunLoop::new(&mut session).run(&schedule).unwrap();
        assert_eq!(report.churn.len(), 2);
        // The removal lands at t=0 after the first arrival (arrivals sort
        // first on ties), so a plan is already active and gets re-planned
        // down to 14 devices.
        assert!(report.churn[0].removed);
        assert_eq!(report.churn[0].replan.devices_lost, 2);
        assert!(report.churn[0].replan.levels_replaced > 0);
        // The restore re-plans back up: nothing is "lost".
        assert!(!report.churn[1].removed);
        assert_eq!(report.churn[1].replan.devices_lost, 0);
        assert!(report.churn[1].iteration_after_s > 0.0);
        // The restore re-planned on the full device set again: the next
        // removal of the same devices would be a real loss.
        assert_eq!(session.removed_devices().len(), 0);
    }

    #[test]
    fn recovery_components_are_exactly_zero_without_policy_or_faults() {
        let workload = DynamicWorkload::multitask_clip_schedule().unwrap();
        let schedule = ArrivalSchedule::from_workload(&workload, 0.05);
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let report = DynamicRunLoop::new(&mut session).run(&schedule).unwrap();
        assert_eq!(report.migration_s(), 0.0);
        assert_eq!(report.restore_s(), 0.0);
        assert_eq!(report.replay_s(), 0.0);
        assert_eq!(report.checkpoint_write_s(), 0.0);
        assert_eq!(report.churn_overhead_s(), 0.0);
        for phase in &report.phases {
            assert_eq!(phase.checkpoints_written, 0);
            assert_eq!(phase.checkpoint_write_s, 0.0);
        }
    }

    #[test]
    fn full_node_loss_restores_from_checkpoints_and_replays() {
        use crate::recovery::CheckpointPolicy;
        use spindle_workloads::{DeviceChurnEvent, DeviceChurnKind};
        let base = ArrivalSchedule::multitask_clip_arrivals(3, 1, 40.0).unwrap();
        // Learn the lone phase's iteration time so the kill can land 10.5
        // iterations in: 10 done, 10 % cadence(3) = 1 iteration to replay.
        let mut probe_session = SpindleSession::new(ClusterSpec::homogeneous(2, 4));
        let probe = DynamicRunLoop::new(&mut probe_session)
            .with_sim_config(SimConfig::contended())
            .run(&base)
            .unwrap();
        let iter_s = probe.phases[0].sim_iteration_s;
        // Kill an entire node mid-run: MetaOps placed only there lose every
        // replica and must be re-materialised from the checkpoint tier.
        let churn = vec![DeviceChurnEvent {
            at_s: iter_s * 10.5,
            kind: DeviceChurnKind::Remove,
            devices: (4..8).collect(),
            label: "node down".into(),
        }];
        let schedule = base.with_device_churn(churn);

        // Baseline: same trace without checkpoint modeling — the pre-policy
        // accounting (wasted compute + migration only).
        let mut bare_session = SpindleSession::new(ClusterSpec::homogeneous(2, 4));
        let bare = DynamicRunLoop::new(&mut bare_session)
            .with_sim_config(SimConfig::contended())
            .run(&schedule)
            .unwrap();
        assert_eq!(bare.restore_s(), 0.0, "no policy prices no restores");
        assert_eq!(bare.checkpoint_write_s(), 0.0);

        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 4));
        let report = DynamicRunLoop::new(&mut session)
            .with_sim_config(SimConfig::contended())
            .with_checkpoint_policy(CheckpointPolicy::every(3))
            .run(&schedule)
            .unwrap();
        let c = &report.churn[0];
        // The dead node hosted some MetaOp exclusively: restore accounting
        // fires whether or not a policy is active...
        assert!(c.rematerialized_metaops > 0, "scenario must kill a MetaOp");
        assert!(c.restore_bytes > 0);
        assert_eq!(
            c.rematerialized_metaops,
            bare.churn[0].rematerialized_metaops
        );
        assert_eq!(c.restore_bytes, bare.churn[0].restore_bytes);
        // ...but only the policy prices it and replays lost progress: one
        // iteration past the last cadence boundary, at the post-churn pace.
        assert!(c.restore_s > 0.0);
        assert!(
            (c.replay_s - (c.wasted_compute_s + c.iteration_after_s)).abs() < 1e-9,
            "10 iterations done, cadence 3: exactly one to replay"
        );
        assert!(c.replay_s >= c.wasted_compute_s);
        assert!(report.replay_s() > 0.0);
        // Steady-state writes are charged at the cadence.
        assert!(report.checkpoint_write_s() > 0.0);
        for phase in &report.phases {
            assert_eq!(
                phase.checkpoints_written,
                phase.iterations / 3,
                "cadence accounting"
            );
        }
        // The recovery-aware total strictly exceeds the pre-policy figure.
        assert!(report.churn_overhead_s() > bare.churn_overhead_s());
        // And the pre-policy figure still equals the historical formula.
        let historical: f64 = bare
            .churn
            .iter()
            .map(|c| c.wasted_compute_s + c.sim_migration_s)
            .sum();
        assert!((bare.churn_overhead_s() - historical).abs() < 1e-12);
    }

    #[test]
    fn async_overlap_charges_at_most_the_synchronous_stall() {
        use crate::recovery::CheckpointPolicy;
        let schedule = ArrivalSchedule::multitask_clip_arrivals(7, 3, 60.0).unwrap();
        let sync_policy = CheckpointPolicy::every(2);
        let mut s1 = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let sync = DynamicRunLoop::new(&mut s1)
            .with_sim_config(SimConfig::contended())
            .with_checkpoint_policy(sync_policy)
            .run(&schedule)
            .unwrap();
        let mut s2 = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let overlapped = DynamicRunLoop::new(&mut s2)
            .with_sim_config(SimConfig::contended())
            .with_checkpoint_policy(CheckpointPolicy {
                async_overlap: true,
                ..sync_policy
            })
            .run(&schedule)
            .unwrap();
        assert!(sync.checkpoint_write_s() > 0.0);
        // Overlapping the write hides everything except the contention it
        // induces on the training traffic.
        assert!(
            overlapped.checkpoint_write_s() <= sync.checkpoint_write_s() + 1e-9,
            "async {} vs sync {}",
            overlapped.checkpoint_write_s(),
            sync.checkpoint_write_s()
        );
    }

    #[test]
    fn seeded_arrival_process_drives_replans() {
        let schedule = ArrivalSchedule::multitask_clip_arrivals(11, 4, 50.0).unwrap();
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let report = DynamicRunLoop::new(&mut session)
            .with_sim_config(SimConfig::contended())
            .run(&schedule)
            .unwrap();
        assert_eq!(report.replans(), 3);
        // Overlapped flows can only help, so the gap is never positive beyond
        // rounding.
        for phase in &report.phases {
            assert!(phase.gap <= 1e-9, "phase {} gap {}", phase.label, phase.gap);
        }
    }

    /// Every figure of a dynamic run with device churn and a checkpoint policy
    /// except the wall-clock re-plan times, digested and pinned: each phase's
    /// re-plan counters, simulated and closed-form iteration, checkpoint
    /// charges and utilization trace; each device event's re-plan counters,
    /// the runtime's migration, restore and replay figures and the iteration
    /// before and after; and the run's totals. Recorded when the reports
    /// copied the re-plan's counters field by field; they now hold its
    /// `ReplanSummary`.
    #[test]
    fn run_reports_match_the_recorded_digest() {
        use crate::recovery::CheckpointPolicy;
        let schedule = ArrivalSchedule::multitask_clip_arrivals(0x0D1A, 6, 60.0)
            .unwrap()
            .with_seeded_device_churn(0x0D1A, 16, 12);
        let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
        let report = DynamicRunLoop::new(&mut session)
            .with_sim_config(SimConfig::contended())
            .with_checkpoint_policy(CheckpointPolicy::every(3))
            .run(&schedule)
            .unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |words: &[u64]| {
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for p in &report.phases {
            mix(&p.label.bytes().map(u64::from).collect::<Vec<_>>());
            mix(&[
                p.arrival_s.to_bits(),
                p.replan.new_curve_fits.into(),
                p.replan.cache_hits.into(),
                p.replan.warm.into(),
                p.replan.levels_total.into(),
                p.replan.levels_reused.into(),
                p.replan.placement_reused.into(),
                p.sim_iteration_s.to_bits(),
                p.analytical_iteration_s.to_bits(),
                p.gap.to_bits(),
                p.iterations,
                p.checkpoints_written,
                p.checkpoint_write_s.to_bits(),
                p.utilization_trace.len() as u64,
            ]);
            for sample in &p.utilization_trace {
                mix(&[sample.time_s.to_bits(), sample.tflops_per_s.to_bits()]);
            }
        }
        for c in &report.churn {
            mix(&c.label.bytes().map(u64::from).collect::<Vec<_>>());
            mix(&c.devices.iter().map(|&d| u64::from(d)).collect::<Vec<_>>());
            mix(&[
                c.at_s.to_bits(),
                u64::from(c.removed),
                c.replan.devices_lost.into(),
                c.replan.levels_total.into(),
                c.replan.levels_replaced.into(),
                c.migration_bytes,
                c.replan.migration_cost_bits,
                c.sim_migration_s.to_bits(),
                c.wasted_compute_s.to_bits(),
                c.rematerialized_metaops as u64,
                c.restore_bytes,
                c.restore_s.to_bits(),
                c.replay_s.to_bits(),
                c.iteration_before_s.to_bits(),
                c.iteration_after_s.to_bits(),
            ]);
        }
        mix(&[
            report.total_simulated_s.to_bits(),
            report.replans() as u64,
            report.warm_hit_rate().to_bits(),
            report.worst_gap().to_bits(),
            report.structural_reuse_rate().to_bits(),
            report.churn_overhead_s().to_bits(),
        ]);
        let events = report.churn.len();
        let restored = report.churn.iter().filter(|c| c.restore_bytes > 0).count();
        let priced = report
            .churn
            .iter()
            .filter(|c| c.replan.migration_cost() > 0.0)
            .count();
        assert_eq!(
            (report.phases.len(), events, restored, priced),
            (6, 11, 6, 8)
        );
        assert_eq!(digest, 0x4a28_c339_276b_3907, "{digest:#018x}");
    }
}
