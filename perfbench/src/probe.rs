//! Calls into the planner and runtime layers shared by the workloads: plan
//! evaluation, the stage-by-stage replay of a cold plan, and plan
//! fingerprints.

use std::sync::Arc;
use std::time::Duration;

use spindle::cluster::ClusterSpec;
use spindle::core::{
    allocator, mpsp, wavefront, ExecutionPlan, MetaOpArena, PlacementStrategy, SpindleSession,
};
use spindle::graph::ComputationGraph;
use spindle::runtime::{LocalizedPlan, RuntimeEngine, SimConfig, Simulator};

use crate::metrics::Report;
use crate::stats::{self, Fnv};
use crate::trace::{span, Trace};

/// FNV-1a over every wave entry's exact bits: equal iff two plans have the
/// same waves, timings, memory annotations and placements.
#[must_use]
pub fn plan_fingerprint(plan: &ExecutionPlan) -> u64 {
    let mut fp = Fnv::default();
    for wave in plan.waves() {
        fp.u64(wave.index as u64);
        fp.u64(wave.level as u64);
        fp.u64(wave.start.to_bits());
        fp.u64(wave.duration.to_bits());
        for entry in &wave.entries {
            fp.u64(entry.metaop.index() as u64);
            fp.u64(u64::from(entry.layers));
            fp.u64(u64::from(entry.devices));
            fp.u64(entry.time_per_op.to_bits());
            fp.u64(entry.exec_time.to_bits());
            fp.u64(entry.memory_per_device);
            match &entry.placement {
                None => fp.u64(u64::MAX),
                Some(group) => {
                    fp.u64(group.len() as u64);
                    for d in group.iter() {
                        fp.u64(u64::from(d.0));
                    }
                }
            }
        }
    }
    fp.finish()
}

/// Model outputs of one plan: the analytical engine and the contended
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eval {
    /// Plan makespan (forward + backward waves), ms.
    pub makespan_ms: f64,
    /// Makespan over the level-synchronous optimum `Σ C̃*`.
    pub optimum_ratio: f64,
    /// Analytical-engine iteration time, ms.
    pub iter_ms: f64,
    /// Engine breakdown: compute, transmission and synchronisation, ms.
    pub compute_ms: f64,
    pub comm_ms: f64,
    pub sync_ms: f64,
    /// Contended-simulator iteration time, ms.
    pub contended_ms: f64,
    /// Contended-simulator work: events logged, flows and all-reduces run.
    pub sim_events: u64,
    pub sim_flows: u64,
    pub sim_syncs: u64,
}

/// Records the plan-quality metrics (means over `evals`) and the runtime's
/// deterministic per-plan work, and hashes each plan's outputs into the work
/// counters under `label`.
pub fn record_evals(report: &mut Report, label: &str, evals: &[Eval]) {
    let mean = |f: fn(&Eval) -> f64| stats::mean(&evals.iter().map(f).collect::<Vec<_>>());
    report.set("makespan_ms", mean(|e| e.makespan_ms));
    report.set("optimum_ratio", mean(|e| e.optimum_ratio));
    report.set("iter_ms", mean(|e| e.iter_ms));
    report.set("iter_contended_ms", mean(|e| e.contended_ms));
    report.set("runtime.compute_ms", mean(|e| e.compute_ms));
    report.set("runtime.comm_ms", mean(|e| e.comm_ms));
    report.set("runtime.sync_ms", mean(|e| e.sync_ms));
    report.set("runtime.sim_events", mean(|e| e.sim_events as f64));
    report.set("runtime.sim_flows", mean(|e| e.sim_flows as f64));
    report.set("runtime.sim_syncs", mean(|e| e.sim_syncs as f64));
    for (i, e) in evals.iter().enumerate() {
        report.count(format!("{label}[{i}].sim_events"), e.sim_events);
        report.count(format!("{label}[{i}].sim_flows"), e.sim_flows);
        report.count(format!("{label}[{i}].sim_syncs"), e.sim_syncs);
        report.count(format!("{label}[{i}].iter_bits"), e.iter_ms.to_bits());
        report.count(format!("{label}[{i}].contended_bits"), e.contended_ms.to_bits());
    }
}

/// Records the runtime layer's self times from a trace of [`evaluate`] and
/// [`localize`] calls: the backends localise internally, so their own time
/// is the span's minus the median localisation.
pub fn record_runtime_spans(report: &mut Report, trace: &Trace) {
    let localize = trace.median_self_us("runtime.localize");
    report.set("runtime.localize_us", localize);
    report.set(
        "runtime.engine_us",
        trace.median_self_us("runtime.engine") - localize,
    );
    report.set("runtime.sim_us", trace.median_self_us("runtime.sim") - localize);
}

/// Records the planner stage self times from a trace of [`replay_stages`]
/// calls, and `core.plan_other_us` against the whole-plan median `plan_us`.
pub fn record_stage_spans(report: &mut Report, trace: &Trace, plan_us: f64) {
    let mut stages = 0.0;
    for (span_name, metric) in [
        ("core.contract", "core.contract_us"),
        ("estimator.curves", "estimator.curves_us"),
        ("core.mpsp", "core.mpsp_us"),
        ("core.wavefront", "core.wavefront_us"),
        ("core.memory_annot", "core.memory_annot_us"),
        ("core.place", "core.place_us"),
    ] {
        let us = trace.median_self_us(span_name);
        stages += us;
        report.set(metric, us);
    }
    report.set("core.plan_us", plan_us);
    report.set("core.plan_other_us", plan_us - stages);
}

/// Records the deterministic work of the stage replays and localisations
/// (means over the probed plans).
pub fn record_probe_work(report: &mut Report, work: &[StageWork], sites: &[u64]) {
    let mean = |f: fn(&StageWork) -> u64| {
        stats::mean(&work.iter().map(|w| f(w) as f64).collect::<Vec<_>>())
    };
    report.set("estimator.curve_fits", mean(|w| w.curve_fits));
    report.set("core.bisection_iters", mean(|w| w.bisection_iters));
    report.set("core.waves_crafted", mean(|w| w.waves_crafted));
    let sites: Vec<f64> = sites.iter().map(|&s| s as f64).collect();
    report.set("runtime.sites", stats::mean(&sites));
}

/// Runs the analytical engine and the contended simulator on `plan`, each in
/// its own span.
///
/// # Errors
///
/// Any runtime error, rendered.
pub fn evaluate(
    plan: &Arc<ExecutionPlan>,
    graph: &Arc<ComputationGraph>,
    cluster: &ClusterSpec,
) -> Result<Eval, String> {
    let engine = span("runtime.engine", || {
        RuntimeEngine::new(Arc::clone(plan), cluster)
            .with_graph(Arc::clone(graph))
            .run_iteration()
    })
    .map_err(|e| format!("engine: {e}"))?;
    let sim = span("runtime.sim", || {
        Simulator::new(Arc::clone(plan), cluster)
            .with_graph(Arc::clone(graph))
            .with_config(SimConfig::contended())
            .run_iteration()
    })
    .map_err(|e| format!("contended sim: {e}"))?;
    let breakdown = engine.breakdown();
    Ok(Eval {
        makespan_ms: plan.makespan() * 1e3,
        optimum_ratio: plan.makespan() / plan.theoretical_optimum(),
        iter_ms: engine.iteration_time_ms(),
        compute_ms: breakdown.fwd_bwd_s * 1e3,
        comm_ms: breakdown.send_recv_s * 1e3,
        sync_ms: breakdown.sync_s * 1e3,
        contended_ms: sim.total_ms(),
        sim_events: sim.event_log().len() as u64,
        sim_flows: sim.flows_executed() as u64,
        sim_syncs: sim.syncs_executed() as u64,
    })
}

/// Localises `plan` on its own (the step both execution backends begin
/// with), in a `runtime.localize` span; returns the transmission-site count.
///
/// # Errors
///
/// Any runtime error, rendered.
pub fn localize(
    plan: &Arc<ExecutionPlan>,
    graph: &ComputationGraph,
    cluster: &ClusterSpec,
) -> Result<u64, String> {
    span("runtime.localize", || {
        LocalizedPlan::new(Arc::clone(plan), cluster, Some(graph))
    })
    .map(|l| l.sites().len() as u64)
    .map_err(|e| format!("localize: {e}"))
}

/// Relative difference allowed between the serialized simulator and the
/// analytical engine: they price the same work and differ only in the order
/// floating-point sums are taken.
pub const BACKEND_TOLERANCE: f64 = 1e-12;

/// Iteration time of `plan` from the analytical engine and from the
/// serialized simulator, seconds.
///
/// # Errors
///
/// Any runtime error, rendered.
pub fn serialized_and_engine_s(
    plan: &Arc<ExecutionPlan>,
    graph: &Arc<ComputationGraph>,
    cluster: &ClusterSpec,
) -> Result<(f64, f64), String> {
    let engine = RuntimeEngine::new(Arc::clone(plan), cluster)
        .with_graph(Arc::clone(graph))
        .run_iteration()
        .map_err(|e| format!("engine: {e}"))?;
    let sim = Simulator::new(Arc::clone(plan), cluster)
        .with_graph(Arc::clone(graph))
        .run_iteration()
        .map_err(|e| format!("serialized sim: {e}"))?;
    Ok((engine.iteration_time_s(), sim.total_s()))
}

/// Counters of one stage replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageWork {
    /// Scaling curves fitted by the cold estimator.
    pub curve_fits: u64,
    /// MPSP bisection iterations over all levels.
    pub bisection_iters: u64,
    /// Waves crafted by the wavefront scheduler.
    pub waves_crafted: u64,
}

/// Replays a cold plan of `graph` stage by stage through the planner's
/// public entry points on a fresh session, one span per stage:
/// `core.contract`, `estimator.curves`, `core.mpsp` (arena build, MPSP
/// solve and discretisation), `core.wavefront`, `core.memory_annot` and
/// `core.place`. The result must equal `SpindleSession::plan`.
///
/// # Errors
///
/// Any planning error, rendered.
pub fn replay_stages(
    graph: &ComputationGraph,
    cluster: &Arc<ClusterSpec>,
) -> Result<(ExecutionPlan, StageWork), String> {
    let session = SpindleSession::new(Arc::clone(cluster));
    let contracted = span("core.contract", || session.contract(graph));
    let curves = span("estimator.curves", || session.resolve_curves(&contracted))
        .map_err(|e| format!("curves: {e}"))?;
    let metagraph = contracted.metagraph();
    let devices = cluster.num_devices() as u32;
    let epsilon = session.config().bisection_epsilon;
    let estimator = session.estimator();
    let arena = span("core.mpsp", || MetaOpArena::build(metagraph, &curves));
    let mut mpsp_scratch = mpsp::MpspScratch::new();
    let mut wave_scratch = wavefront::WavefrontScratch::new();
    let mut waves = Vec::new();
    let mut optimum = 0.0;
    let mut now = 0.0;
    // Per-(metaop, devices) memory memo, as the pipeline keeps it.
    let mut memo: Vec<Vec<(u32, u64)>> = vec![Vec::new(); arena.len()];
    for level in metagraph.levels() {
        let (solution, allocation) = span("core.mpsp", || {
            let solution =
                mpsp::solve_level(&arena, &level.metaops, devices, epsilon, &mut mpsp_scratch);
            let allocation = allocator::discretize_level(&solution, &arena, &level.metaops);
            (solution, allocation)
        });
        optimum += solution.optimal_time;
        let (mut level_waves, end) = span("core.wavefront", || {
            wavefront::schedule_level_dense(
                &allocation,
                &arena,
                devices,
                level.index,
                now,
                waves.len(),
                &mut wave_scratch,
            )
        });
        span("core.memory_annot", || {
            for entry in level_waves.iter_mut().flat_map(|w| w.entries.iter_mut()) {
                let known = memo[entry.metaop.index()]
                    .iter()
                    .find(|&&(n, _)| n == entry.devices)
                    .map(|&(_, bytes)| bytes);
                let per_op = known.unwrap_or_else(|| {
                    let rep = metagraph.metaop(entry.metaop).representative();
                    let bytes = estimator.memory_bytes(rep, entry.devices);
                    memo[entry.metaop.index()].push((entry.devices, bytes));
                    bytes
                });
                entry.memory_per_device = per_op.saturating_mul(u64::from(entry.layers));
            }
        });
        waves.extend(level_waves);
        now = end;
    }
    let plan = span("core.place", || {
        let mut plan = ExecutionPlan::new(
            waves,
            contracted.metagraph_handle(),
            devices,
            optimum,
            Duration::ZERO,
        );
        PlacementStrategy::Locality
            .policy()
            .place(&mut plan, cluster)
            .map(|()| {
                plan.set_device_space(cluster.device_space() as u32);
                plan
            })
    })
    .map_err(|e| format!("placement: {e}"))?;
    let work = StageWork {
        curve_fits: session.curve_fits() as u64,
        bisection_iters: mpsp_scratch.iterations(),
        waves_crafted: wave_scratch.waves_crafted(),
    };
    Ok((plan, work))
}
