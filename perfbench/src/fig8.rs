//! `fig8-cold`: the cold planner and evaluation paths at Fig. 8 hyperscale.
//!
//! One operation plans a hyperscale task mix on a 512-GPU paper cluster with
//! a fresh `SpindleSession` (curve fits, MPSP, wavefront, placement), runs
//! the analytical `RuntimeEngine` on the plan, then the event-driven
//! `Simulator` with `SimConfig::contended()`. Caches and the service are
//! bypassed. The seed picks [`VARIANTS`] mixes, each the 64-slot roster minus
//! [`DROPPED`] seeded slots; operations cycle through them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle::cluster::ClusterSpec;
use spindle::core::SpindleSession;
use spindle::graph::{ComputationGraph, XorShift64Star};
use spindle::workloads::{hyperscale_subset, HYPERSCALE_ROSTER};

use crate::metrics::Report;
use crate::probe::{self, Eval};
use crate::stats::HostSpeed;
use crate::trace::{self, span};
use crate::{stats, Args};

/// Simulated GPUs (64 nodes of 8).
const GPUS: usize = 512;
/// Task mixes per seed.
const VARIANTS: usize = 8;
/// Roster slots each mix leaves out.
const DROPPED: usize = 1;
/// The reported tail percentile (≥ 10 samples beyond it from 100 cycles).
pub const TAIL_Q: f64 = 0.9;

struct Fig8 {
    cluster: Arc<ClusterSpec>,
    graphs: Vec<Arc<ComputationGraph>>,
}

/// One cycle's outputs.
struct Cycle {
    plan: Arc<spindle::core::ExecutionPlan>,
    eval: Eval,
    bisection_iters: u64,
    waves_crafted: u64,
    curve_fits: u64,
}

/// The roster minus `DROPPED` slots drawn from `(seed, variant)`.
fn variant_slots(seed: u64, variant: usize) -> Vec<usize> {
    let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ variant as u64);
    let mut slots: Vec<usize> = (0..HYPERSCALE_ROSTER).collect();
    for _ in 0..DROPPED {
        let at = (rng.next_u64() % slots.len() as u64) as usize;
        slots.remove(at);
    }
    slots
}

impl Fig8 {
    fn setup(seed: u64) -> Result<Self, String> {
        let cluster = Arc::new(ClusterSpec::homogeneous(GPUS / 8, 8));
        let graphs = (0..VARIANTS)
            .map(|v| hyperscale_subset(&variant_slots(seed, v)).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("building the hyperscale mixes: {e}"))?;
        let this = Self { cluster, graphs };
        // Warm-up: page in the allocator and code paths before timing.
        this.cycle(0)?;
        Ok(this)
    }

    fn cycle(&self, variant: usize) -> Result<Cycle, String> {
        let graph = &self.graphs[variant];
        let (plan, planning, curve_fits) = span("core.plan", || {
            let mut session = SpindleSession::new(Arc::clone(&self.cluster));
            session
                .plan(graph)
                .map(|plan| (plan, session.planning_stats(), session.curve_fits()))
        })
        .map_err(|e| format!("planning: {e}"))?;
        let plan = Arc::new(plan);
        let eval = probe::evaluate(&plan, graph, &self.cluster)?;
        Ok(Cycle {
            plan,
            eval,
            bisection_iters: planning.bisection_iterations,
            waves_crafted: planning.waves_crafted,
            curve_fits: curve_fits as u64,
        })
    }
}

/// What the measured window observed.
#[derive(Default)]
struct Observed {
    /// Cycle times scaled to the nominal host, ms.
    cycles_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Per completed op: (variant, plan fingerprint, outputs).
    outputs: Vec<(usize, u64, Eval)>,
    errors: Vec<String>,
}

impl Observed {
    fn median_ms(&self) -> f64 {
        stats::median(&self.cycles_ms)
    }
}

fn measure(
    fig8: &Fig8,
    seconds: f64,
    min_samples: usize,
    next_op: &mut u64,
    speed: &mut HostSpeed,
) -> Observed {
    let mut seen = Observed::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let hard_stop = start + Duration::from_secs_f64(seconds * crate::MAX_STRETCH);
    loop {
        let now = Instant::now();
        if (now >= deadline && seen.cycles_ms.len() >= min_samples) || now >= hard_stop {
            break;
        }
        let op = *next_op;
        *next_op += 1;
        let variant = op as usize % VARIANTS;
        trace::set_op(op);
        seen.attempted += 1;
        let factor = speed.factor();
        let began = Instant::now();
        let result = span("op", || fig8.cycle(variant));
        let elapsed = began.elapsed();
        match result {
            Ok(c) => {
                seen.cycles_ms.push(elapsed.as_secs_f64() * 1e3 * factor);
                seen.outputs
                    .push((variant, probe::plan_fingerprint(&c.plan), c.eval));
                if trace::active() {
                    // Layer probes, outside the timed operation.
                    let graph = &fig8.graphs[variant];
                    if let Err(e) = probe::localize(&c.plan, graph, &fig8.cluster)
                        .and_then(|_| probe::replay_stages(graph, &fig8.cluster))
                    {
                        seen.errors.push(e);
                    }
                }
            }
            Err(e) => {
                seen.failed += 1;
                seen.errors.push(e);
            }
        }
    }
    seen
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // A cycle takes tens of milliseconds: re-time the host before each.
    let mut speed = HostSpeed::every(Duration::ZERO);
    let (fig8, setup_s) =
        crate::setup_median(&mut speed, || Fig8::setup(args.seed), |_| Ok(()))?;
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
        |secs| Ok(measure(&fig8, secs, min_samples, &mut next_op, &mut speed)),
        Observed::median_ms,
    )?;
    report.attempted = seen.attempted;
    report.failed = seen.failed;
    report.violations.extend(seen.errors.iter().cloned());
    report.set(
        "served_frac",
        (seen.attempted - seen.failed) as f64 / seen.attempted.max(1) as f64,
    );
    println!("host speed factor (median) {:.4}", speed.median_factor());
    crate::record_latency(&mut report, &seen.cycles_ms, TAIL_Q, "cycle", true);

    // Reference outputs per mix, untimed: every measured cycle must repeat
    // them bit for bit, and they must pass the plan and backend checks.
    let memory = fig8.cluster.device_memory_bytes();
    let mut evals = Vec::new();
    let mut work = Vec::new();
    let mut sites = Vec::new();
    for variant in 0..VARIANTS {
        let reference = fig8.cycle(variant)?;
        let graph = &fig8.graphs[variant];
        let fingerprint = probe::plan_fingerprint(&reference.plan);
        report.check(reference.plan.check_invariants(memory).is_ok(), || {
            format!("mix {variant}: plan violates its invariants")
        });
        let (engine_s, serialized_s) =
            probe::serialized_and_engine_s(&reference.plan, graph, &fig8.cluster)?;
        report.check(
            (serialized_s - engine_s).abs() <= probe::BACKEND_TOLERANCE * engine_s,
            || format!("mix {variant}: serialized sim {serialized_s} s != engine {engine_s} s"),
        );
        let (replayed, stage_work) = probe::replay_stages(graph, &fig8.cluster)?;
        report.check(probe::plan_fingerprint(&replayed) == fingerprint, || {
            format!("mix {variant}: the stage replay differs from SpindleSession::plan")
        });
        report.check(
            stage_work.bisection_iters == reference.bisection_iters
                && stage_work.waves_crafted == reference.waves_crafted
                && stage_work.curve_fits == reference.curve_fits,
            || format!("mix {variant}: stage replay work {stage_work:?} differs from the plan's"),
        );
        let mix_sites = probe::localize(&reference.plan, graph, &fig8.cluster)?;
        let repeats = seen
            .outputs
            .iter()
            .filter(|(v, _, _)| *v == variant)
            .collect::<Vec<_>>();
        report.check(
            repeats
                .iter()
                .all(|(_, fp, e)| *fp == fingerprint && *e == reference.eval),
            || format!("mix {variant}: a measured cycle's plan or outputs differ"),
        );
        report.count(format!("mix[{variant}].tasks"), graph.tasks().len() as u64);
        report.count(format!("mix[{variant}].plan_fingerprint"), fingerprint);
        report.count(format!("mix[{variant}].bisection_iters"), reference.bisection_iters);
        report.count(format!("mix[{variant}].waves_crafted"), reference.waves_crafted);
        report.count(format!("mix[{variant}].curve_fits"), reference.curve_fits);
        report.count(format!("mix[{variant}].sites"), mix_sites);
        evals.push(reference.eval);
        work.push(stage_work);
        sites.push(mix_sites);
    }
    probe::record_evals(&mut report, "mix", &evals);
    probe::record_probe_work(&mut report, &work, &sites);

    if let Some(spans) = spans {
        let plan_us = spans.median_self_us("core.plan");
        probe::record_stage_spans(&mut report, &spans, plan_us);
        probe::record_runtime_spans(&mut report, &spans);
        crate::export_trace(args, &spans);
    }
    Ok(report)
}
