//! The discrete-event runtime simulator — the crate's one execution model.
//!
//! The simulator *executes* a placed plan op by op on a simulated timeline
//! (§3.6): every sliced MetaOp becomes a compute event, every inter-wave
//! transmission and parameter all-reduce becomes a flow, and per-device speed
//! factors, straggler windows and seeded perturbations distort the timeline
//! the way a real cluster would.
//!
//! Waves start by readiness: wave `w` starts once every lower-indexed wave
//! whose planned end is at or before `w`'s planned start (1e-9 s tolerance)
//! has finished. On a serial wave timeline — Spindle's wavefront plans, the
//! decoupled and sequential baselines — that is a barrier chain in index
//! order; on a task-parallel Spindle-Optimus plan each task's waves form
//! their own chain and the chains run side by side, as planned.
//!
//! [`CommMode`] decides where communication sits on that timeline:
//!
//! * [`CommMode::Serialized`] (the default) is the closed form run as events:
//!   all compute by the rule above, then every transmission, then every
//!   all-reduce, one at a time. Without perturbation the iteration time is
//!   [`LocalizedPlan::closed_form_iteration_s`] up to float rounding.
//! * [`CommMode::Overlapped`] issues a wave's boundary flows when its compute
//!   ends — the wave finishes, and releases the waves waiting on it, once
//!   they are delivered — and every all-reduce at once after the last wave.
//!   With [`SimConfig::contention`] concurrent flows share link bandwidth,
//!   a flow's service rate set by its most contended link.

use std::collections::BTreeMap;
use std::sync::Arc;

use spindle_cluster::{
    collective_footprint, transfer_footprint, ClusterSpec, CommModel, DeviceGroup, DeviceId,
    LinkId, LinkOccupancy,
};
use spindle_core::{ExecutionPlan, MetaOpId, Wave};
use spindle_graph::ComputationGraph;

use crate::events::{EventLog, EventQueue, SimEventKind, XorShift64Star};
use crate::localize::LocalizedPlan;
use crate::metrics::{
    sample_utilization_trace, ComputeInterval, SimReport, TimeBreakdown, TRACE_SAMPLES,
};
use crate::transmission::TransmissionSite;
use crate::RuntimeError;

/// Conversion into a shared [`Arc`] handle — what the simulator's
/// constructors accept in place of lifetime-bound borrows.
///
/// Owned values and existing `Arc`s move in without copying; plain references
/// clone, so `Simulator::new(&plan, &cluster)` works too.
pub trait IntoShared<T> {
    /// Converts `self` into an `Arc<T>`.
    fn into_shared(self) -> Arc<T>;
}

impl<T> IntoShared<T> for T {
    fn into_shared(self) -> Arc<T> {
        Arc::new(self)
    }
}

impl<T> IntoShared<T> for Arc<T> {
    fn into_shared(self) -> Arc<T> {
        self
    }
}

impl<T: Clone> IntoShared<T> for &T {
    fn into_shared(self) -> Arc<T> {
        Arc::new(self.clone())
    }
}

impl<T> IntoShared<T> for &Arc<T> {
    fn into_shared(self) -> Arc<T> {
        Arc::clone(self)
    }
}

/// Where inter-wave transmissions and parameter syncs sit on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// The closed form run as events: every wave's compute, then every
    /// transmission, then every all-reduce, one at a time.
    #[default]
    Serialized,
    /// A wave's boundary flows start when its compute ends and gate the
    /// waves waiting on it; every all-reduce starts at once after the last
    /// wave. With contention enabled concurrent flows share link bandwidth.
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
    /// Waves that had finished when the fault fired: computed and, under
    /// [`CommMode::Overlapped`], their boundary flows delivered.
    pub completed_waves: usize,
}

/// A flow that runs *underneath* the iteration — checkpoint writes being
/// streamed out while training continues ([`CheckpointPolicy::async_overlap`]
/// mode, see [`background_checkpoint_flows`](crate::background_checkpoint_flows)).
/// Background flows are issued at iteration start, contend for their
/// footprint links like any training flow, but never gate a wave or stage:
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

/// The discrete-event simulator for one execution plan on one cluster.
#[derive(Debug)]
pub struct Simulator {
    plan: Arc<ExecutionPlan>,
    cluster: ClusterSpec,
    comm: CommModel,
    graph: Option<Arc<ComputationGraph>>,
    config: SimConfig,
}

/// The simulator's name from when a closed-form engine stood beside it; the
/// default [`CommMode::Serialized`] configuration is that closed form.
pub type RuntimeEngine = Simulator;

impl Simulator {
    /// Creates a simulator for `plan` on `cluster`. Accepts the plan by
    /// value, by `Arc`, or by reference (cloning).
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
    /// groups (cross-task parameter sharing) instead of the per-MetaOp
    /// approximation.
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
        self.run(None).map(|(report, _)| report)
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
        let (report, fired) = self.run(Some(fault))?;
        let fault_report = fired.unwrap_or(FaultReport {
            fired: false,
            at_s: fault.at_s,
            completed_waves: self.plan.num_waves(),
            ..FaultReport::default()
        });
        Ok((report, fault_report))
    }

    fn run(
        &self,
        fault: Option<&FaultSpec>,
    ) -> Result<(SimReport, Option<FaultReport>), RuntimeError> {
        let localized =
            LocalizedPlan::new(Arc::clone(&self.plan), &self.cluster, self.graph.as_deref())?;
        let mut run = Run::new(&localized, &self.cluster, &self.comm, &self.config);
        run.fault = fault;
        run.execute();
        let fired = run.fault_report.take();
        Ok((run.into_report(), fired))
    }
}

/// Two planned instants this close count as one: a wave waits for every
/// lower-indexed wave that ends by its planned start plus this tolerance.
const TIMELINE_TOLERANCE_S: f64 = 1e-9;

/// Which waves each wave waits for before it may start (see the module
/// docs). Only dependencies no other kept one implies are stored: a wave
/// that ends by the planned start of a kept dependency is one that
/// dependency waits for already. On a serial timeline every wave keeps just
/// its predecessor.
#[derive(Debug)]
struct WaveDeps {
    /// Waves without dependencies, ascending: they start at time zero.
    roots: Vec<usize>,
    /// Per wave, how many of its dependencies have not finished yet.
    pending: Vec<usize>,
    /// `dependents[offsets[v]..offsets[v + 1]]`: the waves waiting on wave
    /// `v`, ascending.
    offsets: Vec<usize>,
    dependents: Vec<usize>,
}

impl WaveDeps {
    fn new(waves: &[Wave]) -> Self {
        // `(dependency, wave)` pairs; `latest_end[v]` is the latest planned
        // end among waves `0..=v`.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut latest_end: Vec<f64> = Vec::with_capacity(waves.len());
        let mut pending = vec![0; waves.len()];
        for (w, wave) in waves.iter().enumerate() {
            let ready_by = wave.start + TIMELINE_TOLERANCE_S;
            // The latest planned start among the dependencies kept so far:
            // any lower wave ending by then is implied by one of them.
            let mut covered = f64::NEG_INFINITY;
            for v in (0..w).rev() {
                if latest_end[v] <= covered + TIMELINE_TOLERANCE_S {
                    break;
                }
                let end = waves[v].end();
                if end <= ready_by && end > covered + TIMELINE_TOLERANCE_S {
                    edges.push((v, w));
                    pending[w] += 1;
                    covered = covered.max(waves[v].start);
                }
            }
            latest_end.push(latest_end.last().map_or(wave.end(), |&e| e.max(wave.end())));
        }
        edges.sort_unstable();
        let mut offsets = vec![0; waves.len() + 1];
        for &(v, _) in &edges {
            offsets[v + 1] += 1;
        }
        for v in 0..waves.len() {
            offsets[v + 1] += offsets[v];
        }
        Self {
            roots: (0..waves.len()).filter(|&w| pending[w] == 0).collect(),
            pending,
            offsets,
            dependents: edges.into_iter().map(|(_, w)| w).collect(),
        }
    }
}

/// An inter-wave transmission or parameter sync waiting to be serviced.
#[derive(Debug, Clone)]
struct FlowSpec {
    nominal_s: f64,
    /// The links the flow occupies; empty unless contention is modelled.
    footprint: Vec<LinkId>,
    label: FlowLabel,
}

#[derive(Debug, Clone, Copy)]
enum FlowLabel {
    /// A transmission across the boundary after wave `wave`.
    Transmission {
        from: MetaOpId,
        to: MetaOpId,
        wave: usize,
    },
    Sync {
        group: usize,
    },
    /// A background flow: contends for links but never gates anything.
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

/// What the cluster is doing, for the time breakdown: some wave computing,
/// only boundary (or serialized) transmissions in flight, the sync stage, or
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Compute,
    Comm,
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
    deps: WaveDeps,
    /// Per wave: entries still computing, then boundary flows in flight.
    outstanding: Vec<usize>,
    waves_finished: usize,
    /// Waves computing, and waves whose boundary flows are in flight.
    computing: usize,
    communicating: usize,
    phase: Phase,
    phase_start: f64,
    compute_s: f64,
    comm_s: f64,
    sync_s: f64,
    /// Serialized mode: position of the next flow of the tail — the
    /// transmission sites, then the parameter groups.
    serial_next: usize,
    /// Overlapped mode: all-reduces in flight.
    outstanding_syncs: usize,
    /// Every flow ever started, indexed by flow id; `None` once complete.
    flows: Vec<Option<ActiveFlow>>,
    /// Ids of the active flows, unordered (contention mode only).
    active: Vec<usize>,
    occupancy: LinkOccupancy,
    /// Flows to reprice after a flow starts or ends.
    sharers: Vec<usize>,
    flows_repriced: usize,
    /// Busy seconds by device id; `None` for devices that ran nothing.
    device_busy: Vec<Option<f64>>,
    intervals: Vec<ComputeInterval>,
    flows_executed: usize,
    syncs_executed: usize,
    /// With a fault armed: every entry started, as `(wave, entry, start,
    /// scheduled end)` — what a fault finds in flight.
    started: Vec<(usize, usize, f64, f64)>,
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
        let waves = localized.plan().waves();
        Self {
            localized,
            cluster,
            comm,
            config,
            queue: EventQueue::new(),
            log: EventLog::default(),
            now: 0.0,
            done: false,
            deps: WaveDeps::new(waves),
            outstanding: vec![0; waves.len()],
            waves_finished: 0,
            computing: 0,
            communicating: 0,
            phase: Phase::Idle,
            phase_start: 0.0,
            compute_s: 0.0,
            comm_s: 0.0,
            sync_s: 0.0,
            serial_next: 0,
            outstanding_syncs: 0,
            flows: Vec::new(),
            active: Vec::new(),
            occupancy: LinkOccupancy::for_cluster(cluster),
            sharers: Vec::new(),
            flows_repriced: 0,
            device_busy: vec![None; cluster.device_space()],
            intervals: Vec::new(),
            flows_executed: 0,
            syncs_executed: 0,
            started: Vec::new(),
            fault: None,
            fault_report: None,
        }
    }

    fn execute(&mut self) {
        // Background flows contend from t=0; without overlapped contention
        // they could never interact with the iteration, so skip them.
        if self.config.comm_mode == CommMode::Overlapped && self.config.contention {
            for bg in &self.config.background_flows {
                self.start_flow(FlowSpec {
                    nominal_s: bg.nominal_s,
                    footprint: bg.footprint.clone(),
                    label: FlowLabel::Background,
                });
            }
        }
        if self.localized.plan().num_waves() == 0 {
            self.after_compute();
        }
        for i in 0..self.deps.roots.len() {
            self.schedule_wave(self.deps.roots[i]);
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
    fn group_speed(&self, group: &DeviceGroup, t: f64) -> f64 {
        if self.config.speed_factors.is_empty() && self.config.stragglers.is_empty() {
            return 1.0;
        }
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
    fn entry_wall_duration(&self, group: &DeviceGroup, start: f64, exec_time: f64) -> f64 {
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

    /// Starts every entry of wave `w` now.
    fn schedule_wave(&mut self, w: usize) {
        let wave = &self.localized.plan().waves()[w];
        self.outstanding[w] = wave.entries.len();
        self.computing += 1;
        self.update_phase();
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
            let end = self.now + duration;
            self.intervals.push(ComputeInterval {
                start_s: self.now,
                end_s: end,
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
            if self.fault.is_some() {
                self.started.push((w, idx, self.now, end));
            }
            self.queue.push(
                end,
                Ev::ComputeEnd {
                    wave: w,
                    entry: idx,
                },
            );
        }
        if wave.entries.is_empty() {
            self.wave_computed(w);
        }
    }

    fn on_compute_end(&mut self, wave: usize, entry: usize) {
        let metaop = self.localized.plan().waves()[wave].entries[entry].metaop;
        self.log
            .push(self.now, SimEventKind::ComputeEnd { wave, metaop });
        self.outstanding[wave] -= 1;
        if self.outstanding[wave] == 0 {
            self.wave_computed(wave);
        }
    }

    /// Every entry of wave `w` has ended. Overlapped mode sends the wave's
    /// boundary flows now; the wave finishes once they are delivered.
    fn wave_computed(&mut self, w: usize) {
        self.log
            .push(self.now, SimEventKind::WaveComplete { wave: w });
        self.computing -= 1;
        if self.config.comm_mode == CommMode::Overlapped {
            let localized = self.localized;
            for site in localized.sites_after_wave(w) {
                self.outstanding[w] += 1;
                let spec = self.transmission_flow(site);
                self.start_flow(spec);
            }
        }
        if self.outstanding[w] == 0 {
            self.update_phase();
            self.wave_finished(w);
        } else {
            self.communicating += 1;
            self.update_phase();
        }
    }

    /// Wave `w` has finished: start the waves waiting on it, or the
    /// communication tail after the last one.
    fn wave_finished(&mut self, w: usize) {
        self.waves_finished += 1;
        if self.waves_finished == self.localized.plan().num_waves() {
            self.after_compute();
            return;
        }
        for i in self.deps.offsets[w]..self.deps.offsets[w + 1] {
            let next = self.deps.dependents[i];
            self.deps.pending[next] -= 1;
            if self.deps.pending[next] == 0 {
                self.schedule_wave(next);
            }
        }
    }

    /// Every wave has finished: the serialized tail runs every transmission
    /// and then every all-reduce one at a time; overlapped mode issues every
    /// all-reduce at once.
    fn after_compute(&mut self) {
        if self.config.comm_mode == CommMode::Serialized {
            self.start_next_serial();
            return;
        }
        self.enter(Phase::Sync);
        self.outstanding_syncs = self.localized.pool().groups().len();
        if self.outstanding_syncs == 0 {
            self.finish();
        }
        for group in 0..self.outstanding_syncs {
            let spec = self.sync_flow(group);
            self.start_flow(spec);
        }
    }

    /// Starts the next flow of the serialized tail — the transmissions in
    /// site order, then the all-reduces in pool order — or ends the
    /// iteration after the last.
    fn start_next_serial(&mut self) {
        let sites = self.localized.sites();
        let next = self.serial_next;
        self.serial_next += 1;
        let spec = if let Some(site) = sites.get(next) {
            self.enter(Phase::Comm);
            self.transmission_flow(site)
        } else if next - sites.len() < self.localized.pool().groups().len() {
            self.enter(Phase::Sync);
            self.sync_flow(next - sites.len())
        } else {
            self.finish();
            return;
        };
        self.start_flow(spec);
    }

    fn transmission_flow(&self, site: &TransmissionSite) -> FlowSpec {
        let t = &site.transmission;
        FlowSpec {
            nominal_s: t.round_trip_time(self.comm),
            footprint: if self.config.contention {
                transfer_footprint(self.cluster, &t.src, &t.dst)
            } else {
                Vec::new()
            },
            label: FlowLabel::Transmission {
                from: t.from,
                to: t.to,
                wave: site.after_wave,
            },
        }
    }

    fn sync_flow(&self, group: usize) -> FlowSpec {
        let (devices, bytes) = &self.localized.pool().groups()[group];
        FlowSpec {
            nominal_s: self.comm.all_reduce_time(devices, *bytes),
            footprint: if self.config.contention {
                collective_footprint(self.cluster, devices)
            } else {
                Vec::new()
            },
            label: FlowLabel::Sync { group },
        }
    }

    /// Moves the stage clock to what the waves are doing now.
    fn update_phase(&mut self) {
        let phase = if self.computing > 0 {
            Phase::Compute
        } else if self.communicating > 0 {
            Phase::Comm
        } else {
            Phase::Idle
        };
        self.enter(phase);
    }

    /// Charges the time since the last phase change to the phase that ends
    /// and enters `phase`.
    fn enter(&mut self, phase: Phase) {
        if phase == self.phase {
            return;
        }
        let elapsed = self.now - self.phase_start;
        match self.phase {
            Phase::Compute => self.compute_s += elapsed,
            Phase::Comm => self.comm_s += elapsed,
            Phase::Sync => self.sync_s += elapsed,
            Phase::Idle => {}
        }
        self.phase = phase;
        self.phase_start = self.now;
    }

    fn start_flow(&mut self, spec: FlowSpec) {
        match spec.label {
            FlowLabel::Transmission { from, to, .. } => {
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
        let serialized = self.config.comm_mode == CommMode::Serialized;
        match flow.label {
            FlowLabel::Transmission { from, to, wave } => {
                self.log.push(self.now, SimEventKind::FlowEnd { from, to });
                self.flows_executed += 1;
                if serialized {
                    self.start_next_serial();
                    return;
                }
                self.outstanding[wave] -= 1;
                if self.outstanding[wave] == 0 {
                    self.communicating -= 1;
                    self.update_phase();
                    self.wave_finished(wave);
                }
            }
            FlowLabel::Sync { group } => {
                self.log.push(self.now, SimEventKind::SyncEnd { group });
                self.syncs_executed += 1;
                if serialized {
                    self.start_next_serial();
                    return;
                }
                self.outstanding_syncs -= 1;
                if self.outstanding_syncs == 0 {
                    self.finish();
                }
            }
            // Background flows gate nothing: release their links (already
            // done above) and leave every counter untouched.
            FlowLabel::Background => {}
        }
    }

    /// The device-death fault fires: in-flight entries touching a dead
    /// device are killed (their compute so far counted as wasted), busy-time
    /// accounting is trimmed to the fault instant for every in-flight entry,
    /// and the iteration aborts there.
    fn fire_fault(&mut self, fault: &FaultSpec) {
        self.now = self.now.max(fault.at_s);
        let waves = self.localized.plan().waves();
        let mut wasted = 0.0;
        let mut killed = 0;
        // Every event before the fault instant has been processed, so the
        // entries still in flight are exactly those ending at or after it.
        for &(w, idx, start, end) in &self.started {
            if end < self.now {
                continue;
            }
            let group = waves[w].entries[idx]
                .placement
                .as_ref()
                .expect("localisation requires placement");
            if fault.devices.iter().any(|&d| group.contains(d)) {
                wasted += self.now - start;
                killed += 1;
            }
            // No in-flight entry runs past the fault: trim the busy seconds
            // credited up front at schedule time.
            let overrun = end - self.now;
            for d in group.iter() {
                if let Some(busy) = &mut self.device_busy[d.index()] {
                    *busy = (*busy - overrun).max(0.0);
                }
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
            completed_waves: self.waves_finished,
        });
        self.finish();
    }

    fn finish(&mut self) {
        if !self.done {
            self.enter(Phase::Idle);
            self.log.push(self.now, SimEventKind::IterationEnd);
            self.done = true;
        }
    }

    fn into_report(self) -> SimReport {
        let plan = self.localized.plan();
        let peak = self.cluster.gpu().peak_flops();
        // The plan's static footprint: FLOPs and resident memory per device
        // (parameters and optimizer state stay resident, so each device
        // accumulates every slice placed on it), FLOPs and planned
        // device-seconds per MetaOp.
        let mut total_flops = 0.0;
        let mut device_flops = vec![0.0; self.cluster.device_space()];
        let mut device_memory = vec![0u64; self.cluster.device_space()];
        let mut metaops: Vec<Option<(f64, f64)>> = vec![None; plan.metagraph().num_metaops()];
        for entry in plan.waves().iter().flat_map(|w| &w.entries) {
            let rep = plan.metagraph().metaop(entry.metaop).representative();
            let flops = rep.flops_total() * f64::from(entry.layers);
            total_flops += flops;
            let (metaop_flops, device_s) = metaops[entry.metaop.index()].get_or_insert((0.0, 0.0));
            *metaop_flops += flops;
            *device_s += entry.exec_time * f64::from(entry.devices);
            if let Some(group) = &entry.placement {
                let per_device = flops / group.len() as f64;
                for d in group.iter() {
                    device_flops[d.index()] += per_device;
                    device_memory[d.index()] =
                        device_memory[d.index()].saturating_add(entry.memory_per_device);
                }
            }
        }
        let horizon = self.now.max(plan.makespan()).max(1e-12);
        let devices = self.cluster.all_devices();
        SimReport {
            total_s: self.now,
            breakdown: TimeBreakdown {
                fwd_bwd_s: self.compute_s,
                sync_s: self.sync_s,
                send_recv_s: self.comm_s,
            },
            device_busy_s: (0..)
                .map(DeviceId)
                .zip(self.device_busy)
                .filter_map(|(d, busy)| busy.map(|b| (d, b)))
                .collect(),
            utilization_trace: sample_utilization_trace(&self.intervals, self.now, TRACE_SAMPLES),
            device_utilization: devices
                .iter()
                .map(|d| (d, device_flops[d.index()] / (peak * horizon)))
                .collect(),
            metaop_utilization: (0..)
                .map(MetaOpId)
                .zip(metaops)
                .filter_map(|(m, totals)| {
                    totals.map(|(flops, device_s)| (m, flops / (peak * device_s.max(1e-12))))
                })
                .collect(),
            device_memory: devices
                .iter()
                .map(|d| (d, device_memory[d.index()]))
                .collect(),
            total_flops,
            num_devices: self.cluster.num_devices() as u32,
            peak_flops_per_device: peak,
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

    fn plan_and_run(nodes: usize, gpus: usize) -> (ExecutionPlan, SimReport, ComputationGraph) {
        let (plan, graph, cluster) = plan_on(nodes, gpus);
        let report = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        (plan, report, graph)
    }

    fn wave(index: usize, start: f64, duration: f64) -> Wave {
        Wave {
            index,
            level: 0,
            start,
            duration,
            entries: Vec::new(),
        }
    }

    #[test]
    fn serial_waves_wait_only_for_their_predecessor() {
        let waves = [
            wave(0, 0.0, 1.0),
            wave(1, 1.0, 2.0),
            wave(2, 3.0 + 5e-10, 1.0),
        ];
        let deps = WaveDeps::new(&waves);
        assert_eq!(deps.roots, vec![0]);
        assert_eq!(deps.pending, vec![0, 1, 1]);
        assert_eq!(deps.offsets, vec![0, 1, 2, 2]);
        assert_eq!(deps.dependents, vec![1, 2]);
    }

    #[test]
    fn overlapping_waves_wait_for_every_earlier_wave_ending_by_their_start() {
        // Two chains side by side: 0 then 3, and 1 then 2 then 3. Wave 3
        // waits for 0 and 2; 1 is implied by 2, which waits for it.
        let waves = [
            wave(0, 0.0, 3.0),
            wave(1, 0.0, 1.0),
            wave(2, 1.0, 2.0),
            wave(3, 3.0, 1.0),
        ];
        let deps = WaveDeps::new(&waves);
        assert_eq!(deps.roots, vec![0, 1]);
        assert_eq!(deps.pending, vec![0, 0, 1, 2]);
        assert_eq!(deps.offsets, vec![0, 1, 2, 3, 3]);
        assert_eq!(deps.dependents, vec![3, 2, 3]);
    }

    #[test]
    fn serialized_contention_free_matches_the_closed_form() {
        let (plan, graph, cluster) = plan_on(2, 8);
        let localized = LocalizedPlan::new(Arc::new(plan.clone()), &cluster, Some(&graph)).unwrap();
        let comm = CommModel::new(&cluster);
        let sim = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let closed_form = localized.closed_form_iteration_s(&comm);
        let gap = sim.gap_vs(closed_form).abs();
        assert!(
            gap < 1e-9,
            "gap {gap}: sim {} vs closed form {closed_form}",
            sim.total_s()
        );
        // Each stage matches its closed-form term too.
        let close = |a: f64, b: f64| (a - b).abs() <= b * 1e-9 + 1e-15;
        let b = sim.breakdown();
        assert!(close(b.fwd_bwd_s, plan.makespan()), "{b:?}");
        assert!(close(
            b.send_recv_s,
            localized.total_transmission_time(&comm)
        ));
        assert!(close(b.sync_s, localized.sync_time(&comm)));
        assert!(close(b.total_s(), sim.total_s()));
    }

    #[test]
    fn iteration_time_dominated_by_compute() {
        let (_, report, _) = plan_and_run(1, 8);
        let b = report.breakdown();
        assert!(b.fwd_bwd_s > 0.0);
        // §5.4: forward/backward dominates (80-95%), send/recv stays small.
        assert!(
            b.fwd_bwd_s / b.total_s() > 0.6,
            "fwd+bwd fraction too small: {b:?}"
        );
        assert!(b.send_recv_fraction() < 0.2, "send/recv too large: {b:?}");
    }

    #[test]
    fn more_devices_reduce_iteration_time() {
        let (_, small, _) = plan_and_run(1, 8);
        let (_, large, _) = plan_and_run(2, 8);
        assert!(large.iteration_time_ms() < small.iteration_time_ms());
    }

    #[test]
    fn utilization_trace_covers_iteration_and_is_positive_somewhere() {
        let (_, report, _) = plan_and_run(1, 8);
        let trace = report.utilization_trace();
        assert_eq!(trace.len(), 200);
        assert!(trace.iter().any(|s| s.tflops_per_s > 0.0));
        assert!(trace.windows(2).all(|w| w[0].time_s < w[1].time_s));
    }

    #[test]
    fn per_device_metrics_cover_all_devices() {
        let (plan, report, _) = plan_and_run(2, 8);
        assert_eq!(report.device_utilization().len(), 16);
        assert_eq!(report.device_memory().len(), 16);
        assert!(report
            .device_utilization()
            .values()
            .all(|&u| (0.0..=1.0).contains(&u)));
        assert!(report.metaop_utilization().len() >= plan.metagraph().num_metaops() / 2);
        assert!(report
            .metaop_utilization()
            .values()
            .all(|&u| u > 0.0 && u <= 1.0));
    }

    #[test]
    fn memory_stays_within_device_capacity_for_small_models() {
        let (_, report, _) = plan_and_run(1, 8);
        let capacity = ClusterSpec::homogeneous(1, 8).device_memory_bytes();
        for (&d, &bytes) in report.device_memory() {
            assert!(bytes <= capacity, "{d} uses {bytes} bytes");
        }
    }

    #[test]
    fn sequential_placement_costs_more_send_recv() {
        use spindle_core::{PlacementStrategy, PlannerConfig};
        let graph = two_task_graph();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let locality = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        let sequential = SpindleSession::with_config(
            cluster.clone(),
            PlannerConfig {
                placement: PlacementStrategy::Sequential,
                ..PlannerConfig::default()
            },
        )
        .plan(&graph)
        .unwrap();
        let r_loc = Simulator::new(&locality, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let r_seq = Simulator::new(&sequential, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        // On this small workload the two placements are close; locality must
        // not be meaningfully worse (the large-workload ablation of Fig. 10 is
        // exercised by the benchmark harness).
        assert!(r_loc.breakdown().send_recv_s <= r_seq.breakdown().send_recv_s * 1.1 + 1e-6);
    }

    #[test]
    fn report_flops_match_graph_flops() {
        let (_, report, graph) = plan_and_run(1, 8);
        let expected = graph.total_flops();
        assert!((report.total_flops() - expected).abs() / expected < 1e-9);
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
