//! The discrete-event runtime simulator.
//!
//! Where [`RuntimeEngine`](crate::RuntimeEngine) prices one iteration in
//! closed form (sum of wave makespan, transmission time and sync time), this
//! module *executes* the plan op by op on a simulated timeline: every sliced
//! MetaOp becomes a compute event, every inter-wave transmission and parameter
//! all-reduce becomes a flow whose service rate depends on how many concurrent
//! flows share its most contended link, and per-device speed factors,
//! straggler windows and seeded perturbations distort the timeline the way a
//! real cluster would.
//!
//! In the default configuration ([`SimConfig::default`]: serialized
//! communication, no contention, no perturbation) the simulated makespan
//! reproduces the analytical engine's iteration time — the cross-check oracle
//! the invariant tests pin to within 1%. Enable [`CommMode::Overlapped`] and
//! contention to explore the regimes the closed-form model cannot express.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use spindle_cluster::{
    collective_footprint, transfer_footprint, ClusterSpec, CommModel, DeviceId, LinkId,
    LinkOccupancy,
};
use spindle_core::{ExecutionPlan, MetaOpId};
use spindle_graph::ComputationGraph;

use crate::engine::IntoShared;
use crate::events::{EventLog, EventQueue, SimEventKind, XorShift64Star};
use crate::localize::LocalizedPlan;
use crate::metrics::{sample_utilization_trace, ComputeInterval, UtilizationSample, TRACE_SAMPLES};
use crate::RuntimeError;

/// How inter-wave transmissions and parameter syncs occupy the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// Flows of a wave boundary (and the final sync stage) run one after
    /// another — the semantics of the closed-form analytical engine, used for
    /// cross-checking.
    #[default]
    Serialized,
    /// Flows of a boundary (and all parameter syncs) are issued concurrently;
    /// with contention enabled they share link bandwidth.
    Overlapped,
}

/// A transient slowdown of one device — a straggling GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// The straggling device.
    pub device: DeviceId,
    /// Execution-time multiplier while the window is active (2.0 = twice as
    /// slow). Values below 1 are treated as 1 (no speed-up via stragglers).
    pub slowdown: f64,
    /// Start of the straggle window, seconds of simulated time.
    pub from_s: f64,
    /// End of the straggle window, seconds of simulated time.
    pub until_s: f64,
}

impl Straggler {
    /// A straggler active for the whole run.
    #[must_use]
    pub fn persistent(device: DeviceId, slowdown: f64) -> Self {
        Self {
            device,
            slowdown,
            from_s: 0.0,
            until_s: f64::INFINITY,
        }
    }
}

/// A device-death fault: at `at_s` simulated seconds into the iteration the
/// listed devices die. Whatever they were computing at that instant is lost
/// (the wave can never complete its barrier), the iteration aborts, and the
/// caller is expected to re-plan onto the survivors — the elastic-cluster
/// path [`DynamicRunLoop`](crate::DynamicRunLoop) drives end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Fault instant, simulated seconds since the start of the iteration.
    pub at_s: f64,
    /// The devices that die.
    pub devices: Vec<DeviceId>,
}

/// What a [`FaultSpec`] did to the iteration it interrupted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// `true` if the fault instant fell inside the iteration. When the
    /// iteration finished first, the report is all zeros except `at_s`.
    pub fired: bool,
    /// The effective fault instant, simulated seconds.
    pub at_s: f64,
    /// Compute seconds already spent on in-flight entries that involved a
    /// dead device — work the fault discarded.
    pub wasted_compute_s: f64,
    /// In-flight entries killed because a dead device was in their group.
    pub killed_entries: usize,
    /// Waves that had fully completed (including their boundary flows) when
    /// the fault fired.
    pub completed_waves: usize,
}

/// A flow that runs *underneath* the iteration — checkpoint writes being
/// streamed out while training continues ([`CheckpointPolicy::async_overlap`]
/// mode, see [`background_checkpoint_flows`](crate::background_checkpoint_flows)).
/// Background flows are issued at iteration start, contend for their
/// footprint links like any training flow, but never gate a stage barrier:
/// the iteration ends when the plan's own work ends, and whatever background
/// service is still outstanding simply continues past the horizon. They only
/// have an observable effect under [`CommMode::Overlapped`] with contention
/// enabled — in serialized or contention-free runs they are skipped.
///
/// [`CheckpointPolicy::async_overlap`]: crate::CheckpointPolicy
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundFlow {
    /// Service time of the flow alone on its links, seconds.
    pub nominal_s: f64,
    /// The shared links the flow occupies.
    pub footprint: Vec<LinkId>,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Seed of the xorshift generator behind compute-time perturbations.
    pub seed: u64,
    /// Network occupancy semantics.
    pub comm_mode: CommMode,
    /// Share link bandwidth among concurrent flows (only observable with
    /// [`CommMode::Overlapped`], where flows can actually overlap).
    pub contention: bool,
    /// Relative compute-time jitter: each compute event's duration is
    /// multiplied by `1 + U(-jitter, +jitter)` drawn from a per-event seeded
    /// stream. `0.0` disables perturbation entirely.
    pub compute_jitter: f64,
    /// Per-device speed factors for heterogeneous clusters (1.0 = nominal,
    /// 0.5 = half speed). Devices not listed run at nominal speed. An entry
    /// runs at the speed of the *slowest* device in its group.
    pub speed_factors: BTreeMap<DeviceId, f64>,
    /// Injected straggler windows.
    pub stragglers: Vec<Straggler>,
    /// Background flows (e.g. an overlapped checkpoint write) issued at
    /// iteration start; observable only with [`CommMode::Overlapped`] and
    /// contention.
    pub background_flows: Vec<BackgroundFlow>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            comm_mode: CommMode::Serialized,
            contention: false,
            compute_jitter: 0.0,
            speed_factors: BTreeMap::new(),
            stragglers: Vec::new(),
            background_flows: Vec::new(),
        }
    }
}

impl SimConfig {
    /// The realistic configuration: overlapped communication with link
    /// contention.
    #[must_use]
    pub fn contended() -> Self {
        Self {
            comm_mode: CommMode::Overlapped,
            contention: true,
            ..Self::default()
        }
    }
}

/// The result of simulating one training iteration.
#[derive(Debug, Clone)]
pub struct SimReport {
    total_s: f64,
    compute_s: f64,
    comm_s: f64,
    sync_s: f64,
    device_busy_s: BTreeMap<DeviceId, f64>,
    utilization_trace: Vec<UtilizationSample>,
    event_log: EventLog,
    flows_executed: usize,
    syncs_executed: usize,
    flows_repriced: usize,
}

impl SimReport {
    /// End-to-end simulated iteration time, seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// End-to-end simulated iteration time, milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// Time spent inside wave compute stages, seconds.
    #[must_use]
    pub fn compute_s(&self) -> f64 {
        self.compute_s
    }

    /// Time spent blocked on inter-wave transmissions, seconds.
    #[must_use]
    pub fn comm_s(&self) -> f64 {
        self.comm_s
    }

    /// Time spent in group-wise parameter synchronisation, seconds.
    #[must_use]
    pub fn sync_s(&self) -> f64 {
        self.sync_s
    }

    /// Busy seconds of every device (compute only).
    #[must_use]
    pub fn device_busy_s(&self) -> &BTreeMap<DeviceId, f64> {
        &self.device_busy_s
    }

    /// Cluster throughput over the simulated timeline, sampled at the
    /// configured trace resolution.
    #[must_use]
    pub fn utilization_trace(&self) -> &[UtilizationSample] {
        &self.utilization_trace
    }

    /// The deterministic event log of the run.
    #[must_use]
    pub fn event_log(&self) -> &EventLog {
        &self.event_log
    }

    /// Number of inter-wave transmissions executed.
    #[must_use]
    pub fn flows_executed(&self) -> usize {
        self.flows_executed
    }

    /// Number of parameter-group all-reduces executed.
    #[must_use]
    pub fn syncs_executed(&self) -> usize {
        self.syncs_executed
    }

    /// How many times a flow's congestion was recomputed. Only contended
    /// runs reprice: each flow start or end recomputes the flows that share
    /// a link with it, plus the starting flow itself.
    #[must_use]
    pub fn flows_repriced(&self) -> usize {
        self.flows_repriced
    }

    /// Relative gap of the simulated iteration time versus a reference time
    /// (e.g. the analytical engine's): `(simulated - reference) / reference`.
    #[must_use]
    pub fn gap_vs(&self, reference_s: f64) -> f64 {
        if reference_s <= 0.0 {
            return 0.0;
        }
        (self.total_s - reference_s) / reference_s
    }

    /// Asserts that the simulated iteration time stays within `tolerance`
    /// (relative, two-sided) of an analytical reference — the
    /// analytical-vs-simulator cross-check the scenario fuzzer enforces on
    /// every randomized draw. Returns the gap on success so callers can
    /// aggregate worst-case statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::GapExceeded`] with both sides and the gap if
    /// `|gap| > tolerance`.
    pub fn check_gap_within(&self, reference_s: f64, tolerance: f64) -> Result<f64, RuntimeError> {
        let gap = self.gap_vs(reference_s);
        if gap.abs() > tolerance {
            return Err(RuntimeError::GapExceeded {
                simulated_s: self.total_s,
                reference_s,
                gap,
                tolerance,
            });
        }
        Ok(gap)
    }
}

/// The discrete-event simulator for one execution plan on one cluster.
#[derive(Debug)]
pub struct Simulator {
    plan: Arc<ExecutionPlan>,
    cluster: ClusterSpec,
    comm: CommModel,
    graph: Option<Arc<ComputationGraph>>,
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `plan` on `cluster`. Accepts the plan by
    /// value, by `Arc`, or by reference (cloning) — like the analytical
    /// engine.
    #[must_use]
    pub fn new(plan: impl IntoShared<ExecutionPlan>, cluster: &ClusterSpec) -> Self {
        Self {
            plan: plan.into_shared(),
            cluster: cluster.clone(),
            comm: CommModel::new(cluster),
            graph: None,
            config: SimConfig::default(),
        }
    }

    /// Attaches the original computation graph for exact parameter device
    /// groups (cross-task parameter sharing).
    #[must_use]
    pub fn with_graph(mut self, graph: impl IntoShared<ComputationGraph>) -> Self {
        self.graph = Some(graph.into_shared());
        self
    }

    /// Overrides the simulation configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates one training iteration event by event.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPlan`] if the plan fails validation,
    /// lacks placement or places an entry on a device the cluster does not
    /// contain, and [`RuntimeError::ClusterMismatch`] if the plan was built
    /// for more devices than the cluster has.
    pub fn run_iteration(&self) -> Result<SimReport, RuntimeError> {
        let localized =
            LocalizedPlan::new(Arc::clone(&self.plan), &self.cluster, self.graph.as_deref())?;
        let mut run = Run::new(&localized, &self.cluster, &self.comm, &self.config);
        run.execute();
        Ok(run.into_report())
    }

    /// Simulates one training iteration with a device-death fault armed: if
    /// the fault instant falls inside the iteration, the listed devices die
    /// at that instant, every in-flight entry touching them is killed, and
    /// the iteration aborts there (the returned report's makespan is the
    /// fault instant). If the iteration finishes first, the fault never
    /// fires and the run is identical to [`Self::run_iteration`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::run_iteration`].
    pub fn run_iteration_with_fault(
        &self,
        fault: &FaultSpec,
    ) -> Result<(SimReport, FaultReport), RuntimeError> {
        let localized =
            LocalizedPlan::new(Arc::clone(&self.plan), &self.cluster, self.graph.as_deref())?;
        let mut run = Run::new(&localized, &self.cluster, &self.comm, &self.config);
        run.fault = Some(fault);
        run.execute();
        let fault_report = run.fault_report.take().unwrap_or(FaultReport {
            fired: false,
            at_s: fault.at_s,
            completed_waves: localized.plan().num_waves(),
            ..FaultReport::default()
        });
        Ok((run.into_report(), fault_report))
    }
}

/// An inter-wave transmission or parameter sync waiting to be serviced.
#[derive(Debug, Clone)]
struct FlowSpec {
    nominal_s: f64,
    footprint: Vec<LinkId>,
    label: FlowLabel,
}

#[derive(Debug, Clone, Copy)]
enum FlowLabel {
    Transmission {
        from: MetaOpId,
        to: MetaOpId,
    },
    Sync {
        group: usize,
    },
    /// A background flow: contends for links but never gates a stage.
    Background,
}

#[derive(Debug)]
struct ActiveFlow {
    remaining_s: f64,
    rate: f64,
    last_settle_s: f64,
    footprint: Vec<LinkId>,
    label: FlowLabel,
    epoch: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Compute,
    Boundary,
    Sync,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    ComputeEnd { wave: usize, entry: usize },
    FlowEnd { id: usize, epoch: u64 },
}

struct Run<'a> {
    localized: &'a LocalizedPlan,
    cluster: &'a ClusterSpec,
    comm: &'a CommModel,
    config: &'a SimConfig,
    queue: EventQueue<Ev>,
    log: EventLog,
    now: f64,
    done: bool,
    stage: Stage,
    wave: usize,
    wave_start: f64,
    outstanding_compute: usize,
    stage_start: f64,
    serial_pending: VecDeque<FlowSpec>,
    /// Reusable staging buffer for the flow specs of one boundary/sync stage,
    /// so steady-state wave boundaries allocate no fresh `Vec` per stage.
    spec_buf: Vec<FlowSpec>,
    outstanding_flows: usize,
    /// Every flow ever started, indexed by flow id; `None` once complete.
    flows: Vec<Option<ActiveFlow>>,
    /// Ids of the active flows, unordered (contention mode only).
    active: Vec<usize>,
    occupancy: LinkOccupancy,
    /// Flows to reprice after a flow starts or ends.
    sharers: Vec<usize>,
    flows_repriced: usize,
    compute_s: f64,
    comm_s: f64,
    sync_s: f64,
    /// Busy seconds by device id; `None` for devices that ran nothing.
    device_busy: Vec<Option<f64>>,
    intervals: Vec<ComputeInterval>,
    flows_executed: usize,
    syncs_executed: usize,
    /// Outstanding compute entries of the current wave: `(entry index,
    /// scheduled end)` — what a mid-wave fault kills.
    inflight: Vec<(usize, f64)>,
    fault: Option<&'a FaultSpec>,
    fault_report: Option<FaultReport>,
}

impl<'a> Run<'a> {
    fn new(
        localized: &'a LocalizedPlan,
        cluster: &'a ClusterSpec,
        comm: &'a CommModel,
        config: &'a SimConfig,
    ) -> Self {
        Self {
            localized,
            cluster,
            comm,
            config,
            queue: EventQueue::new(),
            log: EventLog::default(),
            now: 0.0,
            done: false,
            stage: Stage::Compute,
            wave: 0,
            wave_start: 0.0,
            outstanding_compute: 0,
            stage_start: 0.0,
            serial_pending: VecDeque::new(),
            spec_buf: Vec::new(),
            outstanding_flows: 0,
            flows: Vec::new(),
            active: Vec::new(),
            occupancy: LinkOccupancy::for_cluster(cluster),
            sharers: Vec::new(),
            flows_repriced: 0,
            compute_s: 0.0,
            comm_s: 0.0,
            sync_s: 0.0,
            device_busy: vec![None; cluster.device_space()],
            intervals: Vec::new(),
            flows_executed: 0,
            syncs_executed: 0,
            inflight: Vec::new(),
            fault: None,
            fault_report: None,
        }
    }

    fn execute(&mut self) {
        // Background flows contend from t=0; without overlapped contention
        // they could never interact with the iteration, so skip them.
        if self.config.comm_mode == CommMode::Overlapped && self.config.contention {
            let specs: Vec<FlowSpec> = self
                .config
                .background_flows
                .iter()
                .map(|bg| FlowSpec {
                    nominal_s: bg.nominal_s,
                    footprint: bg.footprint.clone(),
                    label: FlowLabel::Background,
                })
                .collect();
            for spec in specs {
                self.start_flow(spec);
            }
        }
        if self.localized.plan().num_waves() == 0 {
            self.start_sync();
        } else {
            self.schedule_wave(0);
        }
        while !self.done {
            let Some((t, ev)) = self.queue.pop() else {
                // Defensive: an empty queue before IterationEnd means every
                // stage has drained; finish at the current time.
                self.finish();
                break;
            };
            if let Some(fault) = self.fault {
                if self.fault_report.is_none() && fault.at_s <= t {
                    self.fire_fault(fault);
                    break;
                }
            }
            self.now = self.now.max(t);
            match ev {
                Ev::ComputeEnd { wave, entry } => self.on_compute_end(wave, entry),
                Ev::FlowEnd { id, epoch } => self.on_flow_end(id, epoch),
            }
        }
    }

    /// Effective speed of `device` at instant `t` (1.0 nominal; smaller is
    /// slower).
    fn effective_speed(&self, device: DeviceId, t: f64) -> f64 {
        let mut speed = self
            .config
            .speed_factors
            .get(&device)
            .copied()
            .unwrap_or(1.0)
            .max(1e-6);
        for s in &self.config.stragglers {
            if s.device == device && t >= s.from_s && t < s.until_s {
                speed /= s.slowdown.max(1.0);
            }
        }
        speed
    }

    /// Speed of the slowest device in `group` at instant `t` — the pace the
    /// whole entry runs at.
    fn group_speed(&self, group: &spindle_cluster::DeviceGroup, t: f64) -> f64 {
        group
            .iter()
            .map(|d| self.effective_speed(d, t))
            .fold(f64::INFINITY, f64::min)
            .max(1e-6)
    }

    /// Wall-clock duration of `exec_time` nominal seconds of work on `group`
    /// starting at `start`: the group-speed profile is piecewise-constant
    /// (it changes only at straggler-window edges), so the work integral is
    /// walked segment by segment. Without stragglers this is exactly
    /// `exec_time / group_speed(start)`.
    fn entry_wall_duration(
        &self,
        group: &spindle_cluster::DeviceGroup,
        start: f64,
        exec_time: f64,
    ) -> f64 {
        let mut breakpoints: Vec<f64> = self
            .config
            .stragglers
            .iter()
            .filter(|s| group.contains(s.device))
            .flat_map(|s| [s.from_s, s.until_s])
            .filter(|&b| b > start && b.is_finite())
            .collect();
        breakpoints.sort_by(f64::total_cmp);
        breakpoints.dedup();
        let mut t = start;
        let mut remaining = exec_time;
        for b in breakpoints {
            let speed = self.group_speed(group, t);
            let capacity = (b - t) * speed;
            if capacity >= remaining {
                return t + remaining / speed - start;
            }
            remaining -= capacity;
            t = b;
        }
        t + remaining / self.group_speed(group, t) - start
    }

    fn schedule_wave(&mut self, w: usize) {
        self.stage = Stage::Compute;
        self.wave = w;
        self.wave_start = self.now;
        let wave = &self.localized.plan().waves()[w];
        self.outstanding_compute = wave.entries.len();
        self.inflight.clear();
        for (idx, entry) in wave.entries.iter().enumerate() {
            let group = entry
                .placement
                .as_ref()
                .expect("localisation requires placement");
            let mut duration = self.entry_wall_duration(group, self.now, entry.exec_time);
            if self.config.compute_jitter > 0.0 {
                // One independent stream per (wave, entry) so perturbations do
                // not depend on event-processing order.
                let stream = self
                    .config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((w as u64) << 20)
                    .wrapping_add(idx as u64);
                let u = XorShift64Star::new(stream).next_f64();
                let factor = 1.0 + self.config.compute_jitter * (2.0 * u - 1.0);
                duration *= factor.max(0.01);
            }
            let rep = self
                .localized
                .plan()
                .metagraph()
                .metaop(entry.metaop)
                .representative();
            let flops = rep.flops_total() * f64::from(entry.layers);
            self.intervals.push(ComputeInterval {
                start_s: self.now,
                end_s: self.now + duration,
                flops_per_s: flops / duration.max(1e-12),
            });
            for d in group.iter() {
                *self.device_busy[d.index()].get_or_insert(0.0) += duration;
            }
            self.log.push(
                self.now,
                SimEventKind::ComputeStart {
                    wave: w,
                    metaop: entry.metaop,
                    devices: entry.devices,
                },
            );
            self.inflight.push((idx, self.now + duration));
            self.queue.push(
                self.now + duration,
                Ev::ComputeEnd {
                    wave: w,
                    entry: idx,
                },
            );
        }
        if self.outstanding_compute == 0 {
            self.wave_complete();
        }
    }

    fn on_compute_end(&mut self, wave: usize, entry: usize) {
        let metaop = self.localized.plan().waves()[wave].entries[entry].metaop;
        self.log
            .push(self.now, SimEventKind::ComputeEnd { wave, metaop });
        self.inflight.retain(|&(idx, _)| idx != entry);
        self.outstanding_compute -= 1;
        if self.outstanding_compute == 0 {
            self.wave_complete();
        }
    }

    fn wave_complete(&mut self) {
        self.log
            .push(self.now, SimEventKind::WaveComplete { wave: self.wave });
        self.compute_s += self.now - self.wave_start;
        self.start_boundary();
    }

    fn start_boundary(&mut self) {
        // Stage the boundary's flows in the reusable scratch buffer (taken
        // out of `self` for the duration of the fill to appease borrows; its
        // capacity survives the round-trip).
        let mut specs = std::mem::take(&mut self.spec_buf);
        specs.clear();
        specs.extend(self.localized.sites_after_wave(self.wave).map(|site| {
            let t = &site.transmission;
            FlowSpec {
                nominal_s: t.round_trip_time(self.comm),
                footprint: transfer_footprint(self.cluster, &t.src, &t.dst),
                label: FlowLabel::Transmission {
                    from: t.from,
                    to: t.to,
                },
            }
        }));
        self.stage = Stage::Boundary;
        self.stage_start = self.now;
        if specs.is_empty() {
            self.spec_buf = specs;
            self.advance();
        } else {
            self.issue(&mut specs);
            self.spec_buf = specs;
        }
    }

    fn advance(&mut self) {
        if self.wave + 1 < self.localized.plan().num_waves() {
            self.schedule_wave(self.wave + 1);
        } else {
            self.start_sync();
        }
    }

    fn start_sync(&mut self) {
        let mut specs = std::mem::take(&mut self.spec_buf);
        specs.clear();
        specs.extend(self.localized.pool().groups().iter().enumerate().map(
            |(i, (group, bytes))| FlowSpec {
                nominal_s: self.comm.all_reduce_time(group, *bytes),
                footprint: collective_footprint(self.cluster, group),
                label: FlowLabel::Sync { group: i },
            },
        ));
        self.stage = Stage::Sync;
        self.stage_start = self.now;
        if specs.is_empty() {
            self.spec_buf = specs;
            self.finish();
        } else {
            self.issue(&mut specs);
            self.spec_buf = specs;
        }
    }

    fn issue(&mut self, specs: &mut Vec<FlowSpec>) {
        self.outstanding_flows = specs.len();
        match self.config.comm_mode {
            CommMode::Serialized => {
                self.serial_pending.extend(specs.drain(..));
                self.start_next_serial();
            }
            CommMode::Overlapped => {
                for spec in specs.drain(..) {
                    self.start_flow(spec);
                }
            }
        }
    }

    fn start_next_serial(&mut self) {
        if let Some(spec) = self.serial_pending.pop_front() {
            self.start_flow(spec);
        }
    }

    fn start_flow(&mut self, spec: FlowSpec) {
        match spec.label {
            FlowLabel::Transmission { from, to } => {
                self.log
                    .push(self.now, SimEventKind::FlowStart { from, to });
            }
            FlowLabel::Sync { group } => {
                self.log.push(self.now, SimEventKind::SyncStart { group });
            }
            FlowLabel::Background => {}
        }
        let id = self.flows.len();
        if !self.config.contention {
            // Rates never change without contention: schedule the completion
            // once and never settle or reprice.
            self.queue
                .push(self.now + spec.nominal_s, Ev::FlowEnd { id, epoch: 0 });
            self.flows.push(Some(ActiveFlow {
                remaining_s: spec.nominal_s,
                rate: 1.0,
                last_settle_s: self.now,
                footprint: spec.footprint,
                label: spec.label,
                epoch: 0,
            }));
            return;
        }
        self.settle_flows();
        self.occupancy
            .register(id, &spec.footprint, &mut self.sharers);
        self.sharers.push(id);
        self.flows.push(Some(ActiveFlow {
            remaining_s: spec.nominal_s,
            // Negative sentinel: guarantees the first reprice sees a changed
            // rate and schedules this flow's completion event.
            rate: -1.0,
            last_settle_s: self.now,
            footprint: spec.footprint,
            label: spec.label,
            epoch: 0,
        }));
        self.active.push(id);
        self.reprice_flows();
    }

    /// Advances every active flow's remaining service to the current time at
    /// its current rate (contention mode only — without contention the
    /// completion is scheduled once at start and never revisited).
    fn settle_flows(&mut self) {
        for &id in &self.active {
            let flow = self.flows[id].as_mut().expect("active flows are live");
            let elapsed = self.now - flow.last_settle_s;
            flow.remaining_s = (flow.remaining_s - elapsed * flow.rate.max(0.0)).max(0.0);
            flow.last_settle_s = self.now;
        }
    }

    /// Recomputes the service rates of the flows in `sharers` — the flows
    /// sharing a link with the one that just started or ended, plus a
    /// starting flow itself; no other flow's congestion can have changed —
    /// and re-schedules the completion events of flows whose rate actually
    /// changed. A flow with an unchanged rate keeps its scheduled event —
    /// settling preserves `last_settle + remaining/rate` — and stale events
    /// are invalidated through the epoch counter. Visiting the flows in
    /// ascending id order pushes their events in the order a scan of every
    /// flow would, which keeps simultaneous completions in the same order.
    fn reprice_flows(&mut self) {
        self.sharers.sort_unstable();
        self.sharers.dedup();
        self.flows_repriced += self.sharers.len();
        for &id in &self.sharers {
            let flow = self.flows[id].as_mut().expect("sharers are active");
            let congestion = self.occupancy.congestion(&flow.footprint);
            let rate = 1.0 / congestion as f64;
            if rate == flow.rate {
                continue;
            }
            flow.rate = rate;
            flow.epoch += 1;
            let epoch = flow.epoch;
            self.queue.push(
                self.now + flow.remaining_s / rate,
                Ev::FlowEnd { id, epoch },
            );
        }
        self.sharers.clear();
    }

    fn on_flow_end(&mut self, id: usize, epoch: u64) {
        let stale = match &self.flows[id] {
            Some(flow) => flow.epoch != epoch,
            None => true,
        };
        if stale {
            return;
        }
        if self.config.contention {
            self.settle_flows();
        }
        let flow = self.flows[id].take().expect("flow checked active");
        if self.config.contention {
            let at = self.active.iter().position(|&f| f == id);
            self.active.swap_remove(at.expect("a live flow is active"));
            self.occupancy
                .release(id, &flow.footprint, &mut self.sharers);
            self.reprice_flows();
        }
        match flow.label {
            FlowLabel::Transmission { from, to } => {
                self.log.push(self.now, SimEventKind::FlowEnd { from, to });
                self.flows_executed += 1;
            }
            FlowLabel::Sync { group } => {
                self.log.push(self.now, SimEventKind::SyncEnd { group });
                self.syncs_executed += 1;
            }
            // Background flows gate nothing: release their links (already
            // done above) and leave every stage counter untouched.
            FlowLabel::Background => return,
        }
        self.outstanding_flows -= 1;
        if self.config.comm_mode == CommMode::Serialized {
            self.start_next_serial();
        }
        if self.outstanding_flows == 0 {
            match self.stage {
                Stage::Boundary => {
                    self.comm_s += self.now - self.stage_start;
                    self.advance();
                }
                Stage::Sync => {
                    self.sync_s += self.now - self.stage_start;
                    self.finish();
                }
                Stage::Compute => unreachable!("flows only complete in comm stages"),
            }
        }
    }

    /// The device-death fault fires: in-flight entries touching a dead
    /// device are killed (their compute so far counted as wasted), busy-time
    /// accounting is trimmed to the fault instant for every outstanding
    /// entry, and the iteration aborts there.
    fn fire_fault(&mut self, fault: &FaultSpec) {
        self.now = self.now.max(fault.at_s);
        let mut wasted = 0.0;
        let mut killed = 0;
        let completed_waves;
        match self.stage {
            Stage::Compute => {
                completed_waves = self.wave;
                let elapsed = self.now - self.wave_start;
                let wave = &self.localized.plan().waves()[self.wave];
                for &(idx, scheduled_end) in &self.inflight {
                    let group = wave.entries[idx]
                        .placement
                        .as_ref()
                        .expect("localisation requires placement");
                    if fault.devices.iter().any(|&d| group.contains(d)) {
                        wasted += elapsed;
                        killed += 1;
                    }
                    // No outstanding entry runs past the fault: trim the
                    // busy seconds credited up front at schedule time.
                    let overrun = (scheduled_end - self.now).max(0.0);
                    for d in group.iter() {
                        if let Some(busy) = &mut self.device_busy[d.index()] {
                            *busy = (*busy - overrun).max(0.0);
                        }
                    }
                }
                self.compute_s += elapsed;
            }
            Stage::Boundary => {
                completed_waves = self.wave + 1;
                self.comm_s += self.now - self.stage_start;
            }
            Stage::Sync => {
                completed_waves = self.localized.plan().num_waves();
                self.sync_s += self.now - self.stage_start;
            }
        }
        self.log.push(
            self.now,
            SimEventKind::DeviceFault {
                devices: fault.devices.len(),
                killed,
            },
        );
        self.fault_report = Some(FaultReport {
            fired: true,
            at_s: self.now,
            wasted_compute_s: wasted,
            killed_entries: killed,
            completed_waves,
        });
        self.finish();
    }

    fn finish(&mut self) {
        if !self.done {
            self.log.push(self.now, SimEventKind::IterationEnd);
            self.done = true;
        }
    }

    fn into_report(self) -> SimReport {
        let trace = sample_utilization_trace(&self.intervals, self.now, TRACE_SAMPLES);
        SimReport {
            total_s: self.now,
            compute_s: self.compute_s,
            comm_s: self.comm_s,
            sync_s: self.sync_s,
            device_busy_s: (0..)
                .map(DeviceId)
                .zip(self.device_busy)
                .filter_map(|(d, busy)| busy.map(|b| (d, b)))
                .collect(),
            utilization_trace: trace,
            event_log: self.log,
            flows_executed: self.flows_executed,
            syncs_executed: self.syncs_executed,
            flows_repriced: self.flows_repriced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeEngine;
    use spindle_core::SpindleSession;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    fn two_task_graph() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        for (name, m, seq, batch, layers) in [
            ("audio-text", Modality::Audio, 229u32, 128u32, 12usize),
            ("vision-text", Modality::Vision, 257, 64, 24),
        ] {
            let t = b.add_task(name, [m, Modality::Text], batch);
            let tower = b
                .add_op_chain(
                    t,
                    OpKind::Encoder(m),
                    TensorShape::new(batch, seq, 768),
                    layers,
                )
                .unwrap();
            let text = b
                .add_op_chain(
                    t,
                    OpKind::Encoder(Modality::Text),
                    TensorShape::new(batch, 77, 768),
                    12,
                )
                .unwrap();
            let loss = b
                .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(batch, 1, 768))
                .unwrap();
            b.add_flow(*tower.last().unwrap(), loss).unwrap();
            b.add_flow(*text.last().unwrap(), loss).unwrap();
        }
        b.build().unwrap()
    }

    fn plan_on(nodes: usize, gpus: usize) -> (ExecutionPlan, ComputationGraph, ClusterSpec) {
        let graph = two_task_graph();
        let cluster = ClusterSpec::homogeneous(nodes, gpus);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        (plan, graph, cluster)
    }

    #[test]
    fn serialized_contention_free_matches_analytical_engine() {
        let (plan, graph, cluster) = plan_on(2, 8);
        let analytical = RuntimeEngine::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let sim = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let gap = sim.gap_vs(analytical.iteration_time_s()).abs();
        assert!(
            gap < 0.01,
            "gap {gap}: sim {} vs analytical {}",
            sim.total_s(),
            analytical.iteration_time_s()
        );
        // The stage breakdown matches the closed-form breakdown too.
        let b = analytical.breakdown();
        assert!((sim.compute_s() - b.fwd_bwd_s).abs() / b.fwd_bwd_s < 0.01);
        assert!((sim.comm_s() - b.send_recv_s).abs() <= b.send_recv_s * 0.01 + 1e-12);
        assert!((sim.sync_s() - b.sync_s).abs() <= b.sync_s * 0.01 + 1e-12);
    }

    #[test]
    fn overlapped_flows_never_slow_the_iteration_down() {
        let (plan, graph, cluster) = plan_on(2, 8);
        let serialized = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let overlapped = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(SimConfig::contended())
            .run_iteration()
            .unwrap();
        // Equal-share contention is work-conserving: concurrent flows finish
        // no later than the same flows run back to back.
        assert!(overlapped.total_s() <= serialized.total_s() * (1.0 + 1e-9));
        assert_eq!(overlapped.flows_executed(), serialized.flows_executed());
        assert_eq!(overlapped.syncs_executed(), serialized.syncs_executed());
    }

    #[test]
    fn straggler_stretches_the_iteration() {
        let (plan, graph, cluster) = plan_on(1, 8);
        let nominal = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let straggling = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(SimConfig {
                stragglers: vec![Straggler::persistent(DeviceId(0), 3.0)],
                ..SimConfig::default()
            })
            .run_iteration()
            .unwrap();
        assert!(straggling.total_s() > nominal.total_s());
        // The straggling device is busy the longest.
        let busy = straggling.device_busy_s();
        let max_busy = busy.values().fold(0.0f64, |a, &b| a.max(b));
        assert!((busy[&DeviceId(0)] - max_busy).abs() < 1e-12);
    }

    #[test]
    fn straggler_window_opening_mid_entry_still_bites() {
        let (plan, graph, cluster) = plan_on(1, 8);
        let nominal = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        // A window opening halfway through the first wave: the piecewise work
        // integral must slow the remainder of every affected entry.
        let half_wave = plan.waves()[0].duration / 2.0;
        let windowed = |from_s: f64| {
            Simulator::new(&plan, &cluster)
                .with_graph(&graph)
                .with_config(SimConfig {
                    stragglers: vec![Straggler {
                        device: DeviceId(0),
                        slowdown: 4.0,
                        from_s,
                        until_s: f64::INFINITY,
                    }],
                    ..SimConfig::default()
                })
                .run_iteration()
                .unwrap()
        };
        let mid = windowed(half_wave);
        let full = windowed(0.0);
        assert!(
            mid.total_s() > nominal.total_s(),
            "mid-entry window must slow the run: {} vs {}",
            mid.total_s(),
            nominal.total_s()
        );
        assert!(
            mid.total_s() < full.total_s(),
            "a partial window must hurt less than a full one"
        );
    }

    #[test]
    fn heterogeneous_speed_factors_slow_affected_groups() {
        let (plan, graph, cluster) = plan_on(2, 8);
        let nominal = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        // The whole second node runs at 70% speed.
        let speed_factors: BTreeMap<DeviceId, f64> = (8..16).map(|d| (DeviceId(d), 0.7)).collect();
        let hetero = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(SimConfig {
                speed_factors,
                ..SimConfig::default()
            })
            .run_iteration()
            .unwrap();
        assert!(hetero.total_s() > nominal.total_s());
        assert!(hetero.total_s() < nominal.total_s() / 0.7 + 1e-9);
    }

    #[test]
    fn same_seed_reproduces_the_event_log_bit_for_bit() {
        let (plan, graph, cluster) = plan_on(1, 8);
        let config = SimConfig {
            compute_jitter: 0.1,
            comm_mode: CommMode::Overlapped,
            contention: true,
            ..SimConfig::default()
        };
        let a = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(config.clone())
            .run_iteration()
            .unwrap();
        let b = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(config.clone())
            .run_iteration()
            .unwrap();
        assert_eq!(a.event_log().render(), b.event_log().render());
        let c = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(SimConfig {
                seed: config.seed + 1,
                ..config
            })
            .run_iteration()
            .unwrap();
        assert_ne!(a.event_log().render(), c.event_log().render());
    }

    #[test]
    fn busy_time_is_conserved_per_device() {
        let (plan, graph, cluster) = plan_on(2, 8);
        let sim = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(SimConfig::contended())
            .run_iteration()
            .unwrap();
        for (&d, &busy) in sim.device_busy_s() {
            assert!(
                busy <= sim.total_s() + 1e-9,
                "{d} busy {busy} > makespan {}",
                sim.total_s()
            );
        }
        assert!(sim.device_busy_s().values().any(|&b| b > 0.0));
    }

    #[test]
    fn event_log_accounts_for_every_entry_and_flow() {
        let (plan, graph, cluster) = plan_on(1, 8);
        let sim = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let entries: usize = plan.waves().iter().map(|w| w.entries.len()).sum();
        let starts = sim
            .event_log()
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, SimEventKind::ComputeStart { .. }))
            .count();
        assert_eq!(starts, entries);
        let wave_completes = sim
            .event_log()
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, SimEventKind::WaveComplete { .. }))
            .count();
        assert_eq!(wave_completes, plan.num_waves());
        assert!(matches!(
            sim.event_log().entries().last().unwrap().kind,
            SimEventKind::IterationEnd
        ));
        assert_eq!(sim.utilization_trace().len(), TRACE_SAMPLES);
    }

    #[test]
    fn mid_wave_fault_kills_in_flight_work_and_aborts() {
        let (plan, graph, cluster) = plan_on(1, 8);
        let nominal = Simulator::new(plan.clone(), &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let at_s = plan.waves()[0].duration / 2.0;
        let (report, fault) = Simulator::new(plan, &cluster)
            .with_graph(&graph)
            .run_iteration_with_fault(&FaultSpec {
                at_s,
                devices: vec![DeviceId(0)],
            })
            .unwrap();
        assert!(fault.fired);
        assert!((fault.at_s - at_s).abs() < 1e-12);
        assert!(fault.killed_entries > 0, "device 0 was computing mid-wave");
        assert!(fault.wasted_compute_s > 0.0);
        assert_eq!(fault.completed_waves, 0);
        // The iteration aborts at the fault instant.
        assert!((report.total_s() - at_s).abs() < 1e-12);
        assert!(report.total_s() < nominal.total_s());
        // Busy time stays conserved after trimming in-flight entries.
        for (&d, &busy) in report.device_busy_s() {
            assert!(busy <= report.total_s() + 1e-9, "{d} busy {busy}");
        }
        // The fault is on the deterministic event log.
        assert!(report.event_log().render().contains("device-fault"));
    }

    #[test]
    fn fault_after_the_iteration_never_fires() {
        let (plan, graph, cluster) = plan_on(1, 8);
        let nominal = Simulator::new(plan.clone(), &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let (report, fault) = Simulator::new(plan.clone(), &cluster)
            .with_graph(&graph)
            .run_iteration_with_fault(&FaultSpec {
                at_s: nominal.total_s() * 2.0,
                devices: vec![DeviceId(0)],
            })
            .unwrap();
        assert!(!fault.fired);
        assert_eq!(fault.wasted_compute_s, 0.0);
        assert_eq!(fault.completed_waves, plan.num_waves());
        assert!((report.total_s() - nominal.total_s()).abs() < 1e-12);
    }

    #[test]
    fn fault_on_an_idle_device_wastes_nothing() {
        let (plan, graph, cluster) = plan_on(1, 8);
        // DeviceId(200) is not in the cluster: nothing in flight dies, but
        // the iteration still aborts (the device pool changed under the run).
        let at_s = plan.waves()[0].duration / 2.0;
        let (report, fault) = Simulator::new(plan, &cluster)
            .with_graph(&graph)
            .run_iteration_with_fault(&FaultSpec {
                at_s,
                devices: vec![DeviceId(200)],
            })
            .unwrap();
        assert!(fault.fired);
        assert_eq!(fault.killed_entries, 0);
        assert_eq!(fault.wasted_compute_s, 0.0);
        assert!((report.total_s() - at_s).abs() < 1e-12);
    }

    #[test]
    fn background_flows_slow_only_contended_overlapped_runs() {
        let (plan, graph, cluster) = plan_on(2, 8);
        // A long background write out of every node's egress: overlapped
        // contended iterations share their uplinks with it.
        let background: Vec<BackgroundFlow> = (0..2)
            .map(|n| BackgroundFlow {
                nominal_s: 10.0,
                footprint: vec![
                    LinkId::Uplink(spindle_cluster::NodeId(n)),
                    LinkId::StorageLink(spindle_cluster::NodeId(n)),
                    LinkId::StorageSpine,
                ],
            })
            .collect();
        let nominal = Simulator::new(plan.clone(), &cluster)
            .with_graph(&graph)
            .with_config(SimConfig::contended())
            .run_iteration()
            .unwrap();
        let loaded = Simulator::new(plan.clone(), &cluster)
            .with_graph(&graph)
            .with_config(SimConfig {
                background_flows: background.clone(),
                ..SimConfig::contended()
            })
            .run_iteration()
            .unwrap();
        assert!(
            loaded.total_s() > nominal.total_s(),
            "background egress traffic must slow the contended iteration: {} vs {}",
            loaded.total_s(),
            nominal.total_s()
        );
        // The same flows in the serialized oracle are skipped entirely.
        let serialized = Simulator::new(plan.clone(), &cluster)
            .with_graph(&graph)
            .with_config(SimConfig {
                background_flows: background,
                ..SimConfig::default()
            })
            .run_iteration()
            .unwrap();
        let baseline = Simulator::new(plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        assert!((serialized.total_s() - baseline.total_s()).abs() < 1e-12);
    }

    #[test]
    fn disjoint_background_flows_each_reprice_once() {
        let (plan, graph, cluster) = plan_on(2, 8);
        let run = |background_flows: Vec<BackgroundFlow>| {
            Simulator::new(&plan, &cluster)
                .with_graph(&graph)
                .with_config(SimConfig {
                    background_flows,
                    ..SimConfig::contended()
                })
                .run_iteration()
                .unwrap()
        };
        let base = run(Vec::new());
        assert!(base.flows_repriced() > 0);
        // Storage links of distinct nodes: no training flow and no other
        // background flow uses them. Half finish at once, half outlive the
        // iteration.
        let k = 6;
        let background = (0..k)
            .map(|n| BackgroundFlow {
                nominal_s: if n % 2 == 0 { 1e-6 } else { 10.0 },
                footprint: vec![LinkId::StorageLink(spindle_cluster::NodeId(n))],
            })
            .collect();
        let loaded = run(background);
        // Each is repriced once, when it starts; sharing no link, it neither
        // reprices nor is repriced by anything else.
        assert_eq!(loaded.flows_repriced(), base.flows_repriced() + k as usize);
        assert_eq!(loaded.event_log().render(), base.event_log().render());
        assert_eq!(loaded.total_s().to_bits(), base.total_s().to_bits());
        // Without contention nothing is ever repriced.
        let free = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        assert_eq!(free.flows_repriced(), 0);
    }

    #[test]
    fn cluster_mismatch_is_rejected() {
        let (plan, _, _) = plan_on(2, 8);
        let small = ClusterSpec::homogeneous(1, 8);
        let err = Simulator::new(plan, &small).run_iteration().unwrap_err();
        assert!(matches!(err, RuntimeError::ClusterMismatch { .. }));
    }
}
