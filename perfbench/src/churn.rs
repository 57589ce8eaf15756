//! `churn-256`: the warm re-planning path under task and device churn.
//!
//! A `hyperscale_churn` trace (48 initial tasks, one task toggled per phase)
//! is merged with device churn on a 256-GPU paper cluster via
//! `ArrivalSchedule::timeline`. The seed picks which [`PHASES`]-phase window
//! of a fixed [`BASE_PHASES`]-phase trace is replayed, so seeds vary the
//! input without changing its character. One pass replays the timeline on one
//! fresh session: a task event calls `replan(graph)`; a device event calls
//! `remove_devices`/`restore_devices`, re-plans the active graph, derives
//! the migration with `migration_flows`, prices it with `price_migration`
//! and, when shards must come back from storage, prices them with
//! `price_restore`. No iteration is simulated. Each event is one operation;
//! the first plan of a pass is its cold warm-up and is not sampled. Passes
//! repeat until the window closes; every pass does identical work.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle::cluster::{ClusterSpec, DeviceId};
use spindle::core::{ExecutionPlan, ReplanOutcome, SpindleSession};
use spindle::graph::ComputationGraph;
use spindle::runtime::{migration_flows, price_migration, price_restore, CheckpointPolicy};
use spindle::workloads::{
    hyperscale_churn, ArrivalSchedule, DeviceChurnKind, PhaseArrival, ScheduleEvent,
};

use crate::metrics::Report;
use crate::probe;
use crate::trace::{self, span};
use crate::stats::{self, HostSpeed};
use crate::Args;

/// Simulated GPUs (32 nodes of 8).
const GPUS: usize = 256;
/// Active tasks at the start of the trace.
const INITIAL_TASKS: usize = 48;
/// Task-mix phases replayed per pass.
const PHASES: usize = 200;
/// Phases of the fixed trace the seed picks its window from.
const BASE_PHASES: usize = 208;
/// Seed of the fixed task and device-churn trace.
const TRACE_SEED: u64 = 0x5eed_c4a7;
/// Device-churn draws over the window.
const DEVICE_EVENTS: usize = 40;
/// Mean simulated gap between task events, seconds.
const MEAN_GAP_S: f64 = 30.0;
/// Task events whose warm plans are checked against cold plans and
/// evaluated for plan quality.
const SAMPLES: usize = 24;
/// The reported tail percentile (≥ 10 samples beyond it from 1000 events).
pub const TAIL_Q: f64 = 0.99;

struct Churn {
    cluster: Arc<ClusterSpec>,
    schedule: ArrivalSchedule,
}

/// What one event did, from the re-plan outcome and the migration pricing.
#[derive(Debug, Clone, Default, PartialEq)]
struct EventWork {
    task: bool,
    fingerprint: u64,
    makespan_bits: u64,
    levels_total: u64,
    levels_reused: u64,
    placement_reused: bool,
    levels_replaced: u64,
    curve_hits: u64,
    curve_fits: u64,
    cache_bytes: u64,
    evictions: u64,
    migration_bytes: u64,
    restore_bytes: u64,
}

impl EventWork {
    fn of(outcome: &ReplanOutcome, task: bool) -> Self {
        Self {
            task,
            fingerprint: probe::plan_fingerprint(&outcome.plan),
            makespan_bits: outcome.plan.makespan().to_bits(),
            levels_total: outcome.levels_total as u64,
            levels_reused: outcome.levels_reused as u64,
            placement_reused: outcome.placement_reused,
            levels_replaced: outcome.levels_replaced as u64,
            curve_hits: outcome.cache_hits as u64,
            curve_fits: outcome.new_curve_fits as u64,
            cache_bytes: outcome.cache.bytes as u64,
            evictions: outcome.cache.evictions,
            ..Self::default()
        }
    }
}

/// A warm plan kept for the cold-plan check and evaluation.
struct Kept {
    phase: usize,
    removed: Vec<DeviceId>,
    cluster: Arc<ClusterSpec>,
    plan: Arc<ExecutionPlan>,
}

/// One pass over the timeline.
#[derive(Default)]
struct Pass {
    /// Per timed event (warm-up excluded): latency scaled to the nominal
    /// host, ms.
    events_ms: Vec<f64>,
    work: Vec<EventWork>,
    kept: Vec<Kept>,
}

impl Churn {
    fn setup(seed: u64) -> Result<Self, String> {
        let cluster = Arc::new(ClusterSpec::homogeneous(GPUS / 8, 8));
        let base = hyperscale_churn(TRACE_SEED, INITIAL_TASKS, BASE_PHASES, MEAN_GAP_S)
            .map_err(|e| format!("building the churn trace: {e}"))?;
        let offset = (seed % (BASE_PHASES - PHASES + 1) as u64) as usize;
        let start_s = base.arrivals()[offset].at_s;
        let window: Vec<PhaseArrival> = base.arrivals()[offset..offset + PHASES]
            .iter()
            .map(|a| PhaseArrival {
                at_s: a.at_s - start_s,
                ..a.clone()
            })
            .collect();
        let horizon_s = window.last().map_or(0.0, |a| a.at_s) + MEAN_GAP_S;
        let schedule = ArrivalSchedule::new(format!("churn window {offset}"), window, horizon_s)
            .with_seeded_device_churn(TRACE_SEED, GPUS as u32, DEVICE_EVENTS);
        // Warm-up: a cold plan of the first mix pages in the planner.
        SpindleSession::new(Arc::clone(&cluster))
            .plan(&schedule.arrivals()[0].graph)
            .map_err(|e| format!("warm-up plan: {e}"))?;
        Ok(Self { cluster, schedule })
    }

    /// Phase indices of the task events to sample (warm-up excluded).
    fn sample_phases(&self) -> Vec<usize> {
        let n = self.schedule.arrivals().len();
        (0..SAMPLES).map(|i| 1 + i * (n - 1) / SAMPLES).collect()
    }

    /// Replays the timeline once on a fresh session. With `check`, every
    /// plan must pass its invariants. Plans of the phases in `sample_at`
    /// are kept.
    fn pass(
        &self,
        next_op: &mut u64,
        sample_at: &[usize],
        check: bool,
        speed: &mut HostSpeed,
    ) -> Result<Pass, String> {
        let arrivals = self.schedule.arrivals();
        let memory = self.cluster.device_memory_bytes();
        let mut session = SpindleSession::new(Arc::clone(&self.cluster));
        let mut out = Pass::default();
        // The active phase and its latest plan.
        let mut current: Option<(usize, Arc<ExecutionPlan>)> = None;
        let mut phase = 0usize;
        for event in self.schedule.timeline() {
            let op = *next_op;
            *next_op += 1;
            trace::set_op(op);
            let factor = speed.factor();
            let began = Instant::now();
            let (work, plan) = match event {
                ScheduleEvent::Phase(arrival) => {
                    let outcome = span("op", || {
                        span("core.replan_task", || session.replan(&arrival.graph))
                    })
                    .map_err(|e| format!("task event {phase}: {e}"))?;
                    let work = EventWork::of(&outcome, true);
                    let plan = Arc::new(outcome.plan);
                    current = Some((phase, Arc::clone(&plan)));
                    phase += 1;
                    (work, plan)
                }
                ScheduleEvent::Churn(churn) => {
                    let Some((active, old)) = current.clone() else {
                        return Err("device churn before the first task event".into());
                    };
                    let graph = &arrivals[active].graph;
                    let (work, plan) = span("op", || {
                        self.on_device_event(&mut session, churn.kind, &churn.devices, graph, &old)
                    })?;
                    current = Some((active, Arc::clone(&plan)));
                    (work, plan)
                }
            };
            let elapsed = began.elapsed();
            // The pass's first plan is its cold warm-up, not a sample.
            if !out.work.is_empty() {
                out.events_ms.push(elapsed.as_secs_f64() * 1e3 * factor);
            }
            if check && plan.check_invariants(memory).is_err() {
                return Err(format!("event {}: plan violates its invariants", out.work.len()));
            }
            if work.task && sample_at.contains(&(phase - 1)) {
                out.kept.push(Kept {
                    phase: phase - 1,
                    removed: session.removed_devices().to_vec(),
                    cluster: session.cluster_handle(),
                    plan: Arc::clone(&plan),
                });
            }
            out.work.push(work);
        }
        Ok(out)
    }

    fn on_device_event(
        &self,
        session: &mut SpindleSession,
        kind: DeviceChurnKind,
        devices: &[u32],
        graph: &ComputationGraph,
        old: &ExecutionPlan,
    ) -> Result<(EventWork, Arc<ExecutionPlan>), String> {
        let ids: Vec<DeviceId> = devices.iter().map(|&d| DeviceId(d)).collect();
        match kind {
            DeviceChurnKind::Remove => {
                session
                    .remove_devices(&ids)
                    .map_err(|e| format!("removing devices: {e}"))?;
            }
            DeviceChurnKind::Restore => {
                session.restore_devices(&ids);
            }
        }
        let outcome = span("core.replan_device", || session.replan(graph))
            .map_err(|e| format!("device event re-plan: {e}"))?;
        let mut work = EventWork::of(&outcome, false);
        let plan = Arc::new(outcome.plan);
        let cluster = session.cluster_handle();
        let migration = span("runtime.migrate", || {
            let migration = migration_flows(old, &plan, &cluster);
            black_box(price_migration(&cluster, &migration.flows, true));
            migration
        });
        work.migration_bytes = migration.migration_bytes();
        if !migration.restores.is_empty() {
            span("runtime.restore", || {
                black_box(price_restore(
                    &cluster,
                    &migration.restores,
                    &CheckpointPolicy::default(),
                    true,
                ))
            });
            work.restore_bytes = migration.restore_bytes();
        }
        Ok((work, plan))
    }
}

/// What the measured window observed.
#[derive(Default)]
struct Observed {
    events_ms: Vec<f64>,
    passes: u64,
    /// Work of every pass, to compare against the reference pass.
    pass_work: Vec<Vec<EventWork>>,
}

impl Observed {
    fn median_ms(&self) -> f64 {
        stats::median(&self.events_ms)
    }
}

fn measure(
    churn: &Churn,
    seconds: f64,
    min_samples: usize,
    next_op: &mut u64,
    speed: &mut HostSpeed,
) -> Result<Observed, String> {
    let mut seen = Observed::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let hard_stop = start + Duration::from_secs_f64(seconds * crate::MAX_STRETCH);
    loop {
        let now = Instant::now();
        if (now >= deadline && seen.events_ms.len() >= min_samples) || now >= hard_stop {
            break;
        }
        let pass = churn.pass(next_op, &[], false, speed)?;
        seen.events_ms.extend(pass.events_ms);
        seen.pass_work.push(pass.work);
        seen.passes += 1;
    }
    Ok(seen)
}

/// Records the per-pass work counters and the cache/migration layer
/// metrics of the reference pass.
fn record_pass_work(report: &mut Report, work: &[EventWork]) {
    let sum = |f: fn(&EventWork) -> u64| work.iter().map(f).sum::<u64>();
    let levels_total = sum(|w| w.levels_total);
    let levels_reused = sum(|w| w.levels_reused);
    let placement_reused = sum(|w| u64::from(w.placement_reused));
    let curve_hits = sum(|w| w.curve_hits);
    let curve_fits = sum(|w| w.curve_fits);
    let mut fp = stats::Fnv::default();
    for w in work {
        fp.u64(w.fingerprint);
    }
    report.count("pass.events", work.len() as u64);
    report.count("pass.task_events", sum(|w| u64::from(w.task)));
    report.count("pass.plan_fingerprints", fp.finish());
    report.count("pass.levels_total", levels_total);
    report.count("pass.levels_reused", levels_reused);
    report.count("pass.placements_reused", placement_reused);
    report.count("pass.levels_replaced", sum(|w| w.levels_replaced));
    report.count("pass.curve_hits", curve_hits);
    report.count("pass.curve_fits", curve_fits);
    report.count("pass.evictions", sum(|w| w.evictions));
    report.count("pass.migration_bytes", sum(|w| w.migration_bytes));
    report.count("pass.restore_bytes", sum(|w| w.restore_bytes));
    report.set(
        "core.levels_reused_ratio",
        levels_reused as f64 / levels_total.max(1) as f64,
    );
    report.set(
        "core.placement_reused_ratio",
        placement_reused as f64 / work.len().max(1) as f64,
    );
    report.set("core.levels_replaced", sum(|w| w.levels_replaced) as f64);
    report.set(
        "estimator.curve_hit_ratio",
        curve_hits as f64 / (curve_hits + curve_fits).max(1) as f64,
    );
    report.set(
        "core.cache_bytes_max",
        work.iter().map(|w| w.cache_bytes).max().unwrap_or(0) as f64,
    );
    report.set("core.cache_evictions", sum(|w| w.evictions) as f64);
    report.set("runtime.migration_bytes", sum(|w| w.migration_bytes) as f64);
    report.set("runtime.restore_bytes", sum(|w| w.restore_bytes) as f64);
    let makespans: Vec<f64> = work
        .iter()
        .map(|w| f64::from_bits(w.makespan_bits) * 1e3)
        .collect();
    report.set("makespan_ms", stats::mean(&makespans));
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut speed = HostSpeed::default();
    let (churn, setup_s) =
        crate::setup_median(&mut speed, || Churn::setup(args.seed), |_| Ok(()))?;
    report.set("setup_s", setup_s);

    let mut next_op = 0u64;
    let min_samples = if args.trace {
        1
    } else {
        stats::min_samples_for(TAIL_Q)
    };
    let (seen, spans) = crate::measure_window(
        args,
        &mut report,
        |secs| measure(&churn, secs, min_samples, &mut next_op, &mut speed),
        Observed::median_ms,
    )?;
    // Each pass: one warm-up plan plus the timed events. A failed re-plan
    // aborts the run, so every attempted event was served.
    let per_pass = seen.pass_work.first().map_or(0, Vec::len) as u64;
    report.attempted = seen.passes * per_pass.saturating_sub(1);
    report.set(
        "served_frac",
        seen.events_ms.len() as f64 / report.attempted.max(1) as f64,
    );
    println!("host speed factor (median) {:.4}", speed.median_factor());
    crate::record_latency(&mut report, &seen.events_ms, TAIL_Q, "event", true);

    // Reference pass, untimed (traced in a traced run): every plan must pass
    // its invariants, every measured pass must repeat it exactly, and the
    // sampled warm plans must equal cold plans on the same topology.
    if let Some(spans) = spans {
        trace::resume(spans);
    }
    let sample_at = churn.sample_phases();
    let reference = churn.pass(&mut next_op, &sample_at, true, &mut speed)?;
    report.check(
        seen.pass_work.iter().all(|w| *w == reference.work),
        || "a measured pass re-planned differently from the reference pass".into(),
    );
    record_pass_work(&mut report, &reference.work);
    report.check(reference.kept.len() == SAMPLES, || {
        format!("{} of {SAMPLES} samples taken", reference.kept.len())
    });
    let arrivals = churn.schedule.arrivals();
    let mut evals = Vec::new();
    let mut stage_work = Vec::new();
    let mut sites = Vec::new();
    for sample in &reference.kept {
        trace::set_op(next_op);
        next_op += 1;
        let graph = Arc::new(arrivals[sample.phase].graph.clone());
        let cold = span("core.plan", || {
            let mut cold = SpindleSession::new(Arc::clone(&churn.cluster));
            cold.remove_devices(&sample.removed)
                .and_then(|_| cold.plan(&graph))
        })
        .map_err(|e| format!("cold plan of phase {}: {e}", sample.phase))?;
        report.check(
            probe::plan_fingerprint(&cold) == probe::plan_fingerprint(&sample.plan),
            || {
                format!(
                    "phase {}: warm re-plan differs from a cold plan ({} devices down)",
                    sample.phase,
                    sample.removed.len()
                )
            },
        );
        evals.push(probe::evaluate(&sample.plan, &graph, &sample.cluster)?);
        if trace::active() {
            sites.push(probe::localize(&sample.plan, &graph, &sample.cluster)?);
            stage_work.push(probe::replay_stages(&graph, &sample.cluster)?.1);
        }
    }
    let mean_makespan = report.values["makespan_ms"];
    probe::record_evals(&mut report, "sample", &evals);
    // The warm path's quality is the mean over every event's plan.
    report.set("makespan_ms", mean_makespan);

    if let Some(spans) = trace::stop() {
        for (span_name, metric) in [
            ("core.replan_task", "core.replan_task_us"),
            ("core.replan_device", "core.replan_device_us"),
            ("runtime.migrate", "runtime.migrate_us"),
            ("runtime.restore", "runtime.restore_us"),
        ] {
            report.set(metric, spans.median_self_us(span_name));
        }
        probe::record_stage_spans(&mut report, &spans, spans.median_self_us("core.plan"));
        probe::record_probe_work(&mut report, &stage_work, &sites);
        probe::record_runtime_spans(&mut report, &spans);
        crate::export_trace(args, &spans);
    }
    Ok(report)
}
