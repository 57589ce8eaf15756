//! Execution plans: waves, wave entries and the overall plan consumed by the
//! runtime simulator.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use spindle_cluster::{ClusterSpec, DeviceGroup, DeviceId, NodeId};

use crate::{MetaGraph, MetaOpId, PlanError};

/// One sliced MetaOp scheduled inside a wave: `layers` consecutive operators
/// of `metaop` executing on `devices` devices (an ASL-tuple of §3.3 whose
/// start time is the wave's start time).
#[derive(Debug, Clone, PartialEq)]
pub struct WaveEntry {
    /// The MetaOp being executed.
    pub metaop: MetaOpId,
    /// Number of consecutive operators of the MetaOp scheduled in this wave.
    pub layers: u32,
    /// Number of devices allocated.
    pub devices: u32,
    /// Execution time of a single operator at this allocation, seconds.
    pub time_per_op: f64,
    /// Execution time of the whole entry (`layers × time_per_op`), seconds.
    pub exec_time: f64,
    /// Estimated peak per-device memory consumed by this entry, bytes.
    pub memory_per_device: u64,
    /// Concrete devices assigned by the placement step; `None` until placed.
    pub placement: Option<DeviceGroup>,
}

impl WaveEntry {
    /// Creates an unplaced wave entry.
    #[must_use]
    pub fn new(metaop: MetaOpId, layers: u32, devices: u32, time_per_op: f64) -> Self {
        Self {
            metaop,
            layers,
            devices,
            time_per_op,
            exec_time: f64::from(layers) * time_per_op,
            memory_per_device: 0,
            placement: None,
        }
    }
}

/// A wave: the smallest scheduling unit of Spindle. All entries of a wave
/// execute concurrently on disjoint device groups; device allocation stays
/// fixed for the duration of the wave and data flows move only at wave
/// boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Wave {
    /// Index of the wave in overall execution order.
    pub index: usize,
    /// The MetaLevel this wave belongs to.
    pub level: usize,
    /// Start time within the iteration, seconds.
    pub start: f64,
    /// Duration of the wave (the longest entry), seconds.
    pub duration: f64,
    /// The sliced MetaOps executing in this wave.
    pub entries: Vec<WaveEntry>,
}

impl Wave {
    /// Total number of devices occupied by the wave's entries.
    #[must_use]
    pub fn devices_used(&self) -> u32 {
        self.entries.iter().map(|e| e.devices).sum()
    }

    /// End time of the wave.
    #[must_use]
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// Device-time utilisation of the wave: busy device-seconds divided by
    /// `duration × devices_available`. 1.0 means no device idles.
    #[must_use]
    pub fn utilization(&self, devices_available: u32) -> f64 {
        if self.duration <= 0.0 || devices_available == 0 {
            return 0.0;
        }
        let busy: f64 = self
            .entries
            .iter()
            .map(|e| e.exec_time * f64::from(e.devices))
            .sum();
        busy / (self.duration * f64::from(devices_available))
    }

    /// The entry executing `metaop`, if any.
    #[must_use]
    pub fn entry_for(&self, metaop: MetaOpId) -> Option<&WaveEntry> {
        self.entries.iter().find(|e| e.metaop == metaop)
    }
}

/// The complete execution plan for one training iteration: the ordered waves
/// (with device placement), the MetaGraph they were derived from, and the
/// theoretical lower bound used for optimality analysis (Fig. 11).
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    waves: Vec<Wave>,
    /// Shared: re-planning paths that reuse cached wave fragments hand the
    /// same contracted MetaGraph to several plans without deep-cloning its
    /// op maps.
    metagraph: Arc<MetaGraph>,
    num_devices: u32,
    /// One past the highest device id the plan may legally reference. Equals
    /// `num_devices` on a pristine cluster; larger after device churn, where
    /// surviving devices keep their global ids and the numbering has holes
    /// (see [`ClusterSpec::device_space`](spindle_cluster::ClusterSpec::device_space)).
    device_space: u32,
    theoretical_optimum: f64,
    planning_time: Duration,
}

impl ExecutionPlan {
    /// Assembles a plan from its parts. Baseline planners use this constructor
    /// to describe their own (non-wavefront) schedules in the same format.
    /// The plan's device id space defaults to `0..num_devices`; planning on a
    /// post-churn cluster with id holes widens it via
    /// [`set_device_space`](Self::set_device_space).
    #[must_use]
    pub fn new(
        waves: Vec<Wave>,
        metagraph: impl Into<Arc<MetaGraph>>,
        num_devices: u32,
        theoretical_optimum: f64,
        planning_time: Duration,
    ) -> Self {
        Self {
            waves,
            metagraph: metagraph.into(),
            num_devices,
            device_space: num_devices,
            theoretical_optimum,
            planning_time,
        }
    }

    /// The waves of the plan, in execution order.
    #[must_use]
    pub fn waves(&self) -> &[Wave] {
        &self.waves
    }

    /// Mutable access to the waves (used by the placement step).
    pub(crate) fn waves_mut(&mut self) -> &mut Vec<Wave> {
        &mut self.waves
    }

    /// Records the wall-clock planning time (set once placement finishes).
    pub(crate) fn set_planning_time(&mut self, elapsed: Duration) {
        self.planning_time = elapsed;
    }

    /// The MetaGraph the plan schedules.
    #[must_use]
    pub fn metagraph(&self) -> &MetaGraph {
        &self.metagraph
    }

    /// A shareable handle to the MetaGraph.
    #[must_use]
    pub fn metagraph_handle(&self) -> Arc<MetaGraph> {
        Arc::clone(&self.metagraph)
    }

    /// Cluster size the plan was built for.
    #[must_use]
    pub fn num_devices(&self) -> u32 {
        self.num_devices
    }

    /// One past the highest device id the plan may legally reference. On a
    /// pristine cluster this equals [`num_devices`](Self::num_devices); after
    /// device churn it can exceed it, because survivors keep their global
    /// ids and the numbering gains holes.
    #[must_use]
    pub fn device_space(&self) -> u32 {
        self.device_space.max(self.num_devices)
    }

    /// Widens the legal device id space to `space` (for plans placed on a
    /// post-churn cluster whose surviving ids are not contiguous). Values
    /// below `num_devices` are ignored — the space never shrinks below the
    /// device count.
    pub fn set_device_space(&mut self, space: u32) {
        self.device_space = space.max(self.num_devices);
    }

    /// The theoretical optimum `Σ_levels C̃*` from the continuous relaxation —
    /// an unachievable lower bound on the compute portion of the iteration.
    #[must_use]
    pub fn theoretical_optimum(&self) -> f64 {
        self.theoretical_optimum
    }

    /// Wall-clock time the planner spent producing this plan (Fig. 12).
    #[must_use]
    pub fn planning_time(&self) -> Duration {
        self.planning_time
    }

    /// Planned makespan: the latest end of any wave (compute + intra-wave
    /// alignment idle time, excluding inter-wave transmission and parameter
    /// synchronisation, which the runtime adds). Waves of task-parallel
    /// plans overlap, so the last wave to start need not end last.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.waves.iter().map(Wave::end).fold(0.0, f64::max)
    }

    /// Number of waves.
    #[must_use]
    pub fn num_waves(&self) -> usize {
        self.waves.len()
    }

    /// Checks the structural invariants of the plan:
    ///
    /// * no wave allocates more devices than the cluster has;
    /// * every entry names a MetaOp of the plan's MetaGraph;
    /// * placed entries of a wave occupy disjoint devices;
    /// * every MetaOp's operators are all scheduled exactly once across waves;
    /// * waves are ordered by start time;
    ///
    /// and the timing rules a level barrier used to guarantee, at 1e-9 s,
    /// where an entry runs from its wave's start for its `exec_time`:
    ///
    /// * a MetaOp's slices do not overlap in time;
    /// * entries that overlap in time use disjoint devices;
    /// * a consumer's first slice starts at or after its producers' last
    ///   slices end.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), PlanError> {
        // Two instants this close count as one.
        const TOLERANCE_S: f64 = 1e-9;
        let metaops = self.metagraph.num_metaops();
        // Layers scheduled per MetaOp, and when its first slice starts and
        // its last one ends, by MetaOp index.
        let mut scheduled = vec![0u32; metaops];
        let mut first_start = vec![f64::INFINITY; metaops];
        let mut last_end = vec![f64::NEG_INFINITY; metaops];
        let mut prev_start = 0.0f64;
        // Per device, the stamp (1-based wave position) of the last wave that
        // placed it and when its latest entry ends: one dense table reused
        // by every wave. Ids past the device space grow it
        // (`check_placement_in_range` reports them).
        let mut last_use: Vec<(usize, f64)> =
            vec![(0, f64::NEG_INFINITY); self.device_space() as usize];
        for (stamp, wave) in (1..).zip(&self.waves) {
            if wave.devices_used() > self.num_devices {
                return Err(PlanError::CapacityExceeded {
                    wave: wave.index,
                    requested: wave.devices_used(),
                    available: self.num_devices,
                });
            }
            if wave.start + TOLERANCE_S < prev_start {
                return Err(PlanError::UnorderedWaves { wave: wave.index });
            }
            prev_start = wave.start;
            for entry in &wave.entries {
                let m = entry.metaop.index();
                let Some(layers) = scheduled.get_mut(m) else {
                    return Err(PlanError::UnknownMetaOp {
                        wave: wave.index,
                        metaop: entry.metaop,
                    });
                };
                *layers += entry.layers;
                let end = wave.start + entry.exec_time;
                if wave.start + TOLERANCE_S < last_end[m] {
                    return Err(PlanError::SliceOverlap {
                        wave: wave.index,
                        metaop: entry.metaop,
                    });
                }
                first_start[m] = first_start[m].min(wave.start);
                last_end[m] = last_end[m].max(end);
                if let Some(group) = &entry.placement {
                    for d in group.iter() {
                        if d.index() >= last_use.len() {
                            last_use.resize(d.index() + 1, (0, f64::NEG_INFINITY));
                        }
                        let (last_wave, busy_until) = &mut last_use[d.index()];
                        if *last_wave == stamp {
                            return Err(PlanError::PlacementOverlap { wave: wave.index });
                        }
                        if wave.start + TOLERANCE_S < *busy_until {
                            return Err(PlanError::DeviceBusy {
                                wave: wave.index,
                                device: d.0,
                            });
                        }
                        *last_wave = stamp;
                        *busy_until = busy_until.max(end);
                    }
                }
            }
        }
        for (metaop, &got) in self.metagraph.metaops().iter().zip(&scheduled) {
            if got != metaop.num_ops() {
                return Err(PlanError::IncompleteSchedule {
                    metaop: metaop.id(),
                    scheduled: got,
                    required: metaop.num_ops(),
                });
            }
        }
        for &(producer, consumer) in self.metagraph.edges() {
            if first_start[consumer.index()] + TOLERANCE_S < last_end[producer.index()] {
                return Err(PlanError::EarlyConsumer { producer, consumer });
            }
        }
        Ok(())
    }

    /// Requires every entry to carry a placement (called before handing the
    /// plan to the runtime).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::MissingPlacement`] naming the first unplaced entry.
    pub fn require_placement(&self) -> Result<(), PlanError> {
        for wave in &self.waves {
            for entry in &wave.entries {
                if entry.placement.is_none() {
                    return Err(PlanError::MissingPlacement {
                        wave: wave.index,
                        metaop: entry.metaop,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks that every wave entry's estimated per-device memory fits within
    /// `capacity_bytes` — the memory-bound invariant the scenario fuzzer
    /// asserts on every randomized draw.
    ///
    /// Entries whose memory was never annotated (`memory_per_device == 0`)
    /// pass trivially; the planner and every baseline annotate theirs.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::MemoryExceeded`] naming the first overflowing
    /// entry.
    pub fn check_memory(&self, capacity_bytes: u64) -> Result<(), PlanError> {
        for wave in &self.waves {
            for entry in &wave.entries {
                if entry.memory_per_device > capacity_bytes {
                    return Err(PlanError::MemoryExceeded {
                        wave: wave.index,
                        metaop: entry.metaop,
                        required: entry.memory_per_device,
                        capacity: capacity_bytes,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks that every placed device id lies within the plan's device id
    /// space ([`device_space`](Self::device_space) — `0..num_devices` on a
    /// pristine cluster, wider when churn left holes in the numbering).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::PlacementOutOfRange`] naming the first stray
    /// device.
    pub fn check_placement_in_range(&self) -> Result<(), PlanError> {
        let space = self.device_space();
        for wave in &self.waves {
            for entry in &wave.entries {
                if let Some(group) = &entry.placement {
                    for d in group.iter() {
                        if d.0 >= space {
                            return Err(PlanError::PlacementOutOfRange {
                                wave: wave.index,
                                device: d.0,
                                available: space,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the full invariant suite the scenario fuzzer enforces on every
    /// draw: structural validity ([`validate`](Self::validate) — full op
    /// coverage, per-wave device capacity, wave ordering, disjoint
    /// placements), complete placement
    /// ([`require_placement`](Self::require_placement)), in-range device ids
    /// and the per-device memory bound.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self, device_memory_bytes: u64) -> Result<(), PlanError> {
        self.validate()?;
        self.require_placement()?;
        self.check_placement_in_range()?;
        self.check_memory(device_memory_bytes)
    }

    /// Average device utilisation over the plan's makespan (compute only).
    #[must_use]
    pub fn average_utilization(&self) -> f64 {
        let makespan = self.makespan();
        if makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .waves
            .iter()
            .flat_map(|w| w.entries.iter())
            .map(|e| e.exec_time * f64::from(e.devices))
            .sum();
        busy / (makespan * f64::from(self.num_devices))
    }
}

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execution plan: {} waves over {} devices, makespan {:.2} ms, avg utilization {:.0}%",
            self.num_waves(),
            self.num_devices,
            self.makespan() * 1e3,
            self.average_utilization() * 100.0
        )
    }
}

/// A set of `(MetaOp, device)` sites: one bit per pair, in a dense
/// MetaOp-major table sized from the waves it describes.
#[derive(Debug, Clone)]
pub struct SiteSet {
    bits: Vec<u64>,
    /// 64-bit words per MetaOp.
    words: usize,
    /// One past the highest MetaOp index the table covers.
    metaops: usize,
}

impl SiteSet {
    /// An empty set with room for every site a placed entry of `waves`
    /// occupies.
    #[must_use]
    pub fn for_waves(waves: &[Wave]) -> Self {
        let (mut metaops, mut devices) = (0, 0);
        for entry in waves.iter().flat_map(|w| &w.entries) {
            if let Some(group) = &entry.placement {
                metaops = metaops.max(entry.metaop.index() + 1);
                devices = group.iter().fold(devices, |n, d| n.max(d.index() + 1));
            }
        }
        let words = devices.div_ceil(64);
        Self {
            bits: vec![0; metaops * words],
            words,
            metaops,
        }
    }

    /// Adds `(metaop, device)` and returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if the site lies outside the waves the set was sized for.
    pub fn insert(&mut self, metaop: MetaOpId, device: DeviceId) -> bool {
        let (word, bit) = self
            .locate(metaop, device)
            .expect("the site lies within the waves the set was sized for");
        let absent = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        absent
    }

    /// Whether the set holds `(metaop, device)`.
    #[must_use]
    pub fn contains(&self, metaop: MetaOpId, device: DeviceId) -> bool {
        self.locate(metaop, device)
            .is_some_and(|(word, bit)| self.bits[word] & bit != 0)
    }

    fn locate(&self, metaop: MetaOpId, device: DeviceId) -> Option<(usize, u64)> {
        let d = device.index();
        (metaop.index() < self.metaops && d < self.words * 64)
            .then(|| (metaop.index() * self.words + d / 64, 1 << (d % 64)))
    }
}

/// Where the MetaOps of a run of waves reside: each MetaOp's distinct
/// devices in first-placement order, with constant-time membership. Diffing
/// the residency of a plan before and after a topology change gives the
/// parameter shards that must move.
#[derive(Debug, Clone)]
pub struct Residency {
    held: SiteSet,
    /// MetaOp `m`'s sites are `devices[offsets[m]..offsets[m + 1]]`.
    offsets: Vec<usize>,
    devices: Vec<DeviceId>,
}

impl Residency {
    /// The residency of `waves`, in one pass over their placements.
    #[must_use]
    pub fn new(waves: &[Wave]) -> Self {
        let mut held = SiteSet::for_waves(waves);
        let mut offsets = vec![0; held.metaops + 1];
        let mut first_seen = Vec::new();
        for entry in waves.iter().flat_map(|w| &w.entries) {
            for d in entry.placement.iter().flat_map(DeviceGroup::iter) {
                if held.insert(entry.metaop, d) {
                    first_seen.push((entry.metaop.index(), d));
                    offsets[entry.metaop.index() + 1] += 1;
                }
            }
        }
        for m in 1..offsets.len() {
            offsets[m] += offsets[m - 1];
        }
        // A stable scatter keeps each MetaOp's sites in first-seen order.
        let mut next = offsets.clone();
        let mut devices = vec![DeviceId(0); first_seen.len()];
        for (m, d) in first_seen {
            devices[next[m]] = d;
            next[m] += 1;
        }
        Self {
            held,
            offsets,
            devices,
        }
    }

    /// The distinct devices `metaop` occupies, in first-placement order.
    #[must_use]
    pub fn sites(&self, metaop: MetaOpId) -> &[DeviceId] {
        let m = metaop.index();
        if m + 1 >= self.offsets.len() {
            return &[];
        }
        &self.devices[self.offsets[m]..self.offsets[m + 1]]
    }

    /// Whether `metaop` occupies `device`.
    #[must_use]
    pub fn holds(&self, metaop: MetaOpId, device: DeviceId) -> bool {
        self.held.contains(metaop, device)
    }

    /// Each MetaOp's first site that `cluster` still has, overall and on
    /// each node, in site order: the replica a moved shard is read from.
    #[must_use]
    pub fn survivors(&self, cluster: &ClusterSpec) -> Survivors {
        let nodes = cluster.num_nodes();
        let metaops = self.offsets.len() - 1;
        let mut first = vec![None; metaops];
        let mut on_node = vec![None; metaops * nodes];
        for (m, first) in first.iter_mut().enumerate() {
            for &d in &self.devices[self.offsets[m]..self.offsets[m + 1]] {
                if let Ok(node) = cluster.node_of(d) {
                    first.get_or_insert(d);
                    on_node[m * nodes + node.index()].get_or_insert(d);
                }
            }
        }
        Survivors {
            first,
            on_node,
            nodes,
        }
    }
}

/// The first surviving site of each MetaOp of a [`Residency`], overall and
/// on each node of a cluster ([`Residency::survivors`]).
#[derive(Debug, Clone)]
pub struct Survivors {
    first: Vec<Option<DeviceId>>,
    /// `nodes` entries per MetaOp, by node index.
    on_node: Vec<Option<DeviceId>>,
    nodes: usize,
}

impl Survivors {
    /// The MetaOp's first surviving site, `None` when every replica died.
    #[must_use]
    pub fn first(&self, metaop: MetaOpId) -> Option<DeviceId> {
        self.first.get(metaop.index()).copied().flatten()
    }

    /// The MetaOp's first surviving site on `node`.
    #[must_use]
    pub fn on_node(&self, metaop: MetaOpId, node: NodeId) -> Option<DeviceId> {
        if node.index() >= self.nodes {
            return None;
        }
        self.on_node
            .get(metaop.index() * self.nodes + node.index())
            .copied()
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    fn tiny_metagraph() -> MetaGraph {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Audio, Modality::Text], 8);
        b.add_op_chain(
            t,
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
            2,
        )
        .unwrap();
        b.add_op_chain(
            t,
            OpKind::Encoder(Modality::Text),
            TensorShape::new(8, 77, 768),
            3,
        )
        .unwrap();
        MetaGraph::contract(&b.build().unwrap())
    }

    fn placed(entry: WaveEntry, first: u32) -> WaveEntry {
        WaveEntry {
            placement: Some(DeviceGroup::contiguous(
                DeviceId(first),
                entry.devices as usize,
            )),
            ..entry
        }
    }

    fn simple_plan() -> ExecutionPlan {
        let mg = tiny_metagraph();
        let wave = Wave {
            index: 0,
            level: 0,
            start: 0.0,
            duration: 2.0,
            entries: vec![
                placed(WaveEntry::new(MetaOpId(0), 2, 4, 1.0), 0),
                placed(WaveEntry::new(MetaOpId(1), 3, 4, 0.5), 4),
            ],
        };
        ExecutionPlan::new(vec![wave], mg, 8, 1.9, Duration::from_millis(1))
    }

    #[test]
    fn valid_plan_passes_validation() {
        let plan = simple_plan();
        assert!(plan.validate().is_ok());
        assert!(plan.require_placement().is_ok());
        assert_eq!(plan.num_waves(), 1);
        assert_eq!(plan.makespan(), 2.0);
        assert_eq!(plan.num_devices(), 8);
        assert!((plan.theoretical_optimum() - 1.9).abs() < 1e-12);
        assert!(plan.average_utilization() > 0.5);
        assert!(plan.to_string().contains("1 waves"));
    }

    #[test]
    fn makespan_is_the_latest_wave_end() {
        // Two overlapping waves where the first to start ends last.
        let mg = tiny_metagraph();
        let wave = |index, start, duration, entry| Wave {
            index,
            level: 0,
            start,
            duration,
            entries: vec![placed(entry, 4 * index as u32)],
        };
        let plan = ExecutionPlan::new(
            vec![
                wave(0, 0.0, 3.0, WaveEntry::new(MetaOpId(0), 2, 4, 1.5)),
                wave(1, 1.0, 1.5, WaveEntry::new(MetaOpId(1), 3, 4, 0.5)),
            ],
            mg,
            8,
            0.0,
            Duration::ZERO,
        );
        assert!(plan.validate().is_ok());
        assert_eq!(plan.makespan(), 3.0);
    }

    #[test]
    fn capacity_violation_detected() {
        let mg = tiny_metagraph();
        let wave = Wave {
            index: 0,
            level: 0,
            start: 0.0,
            duration: 1.0,
            entries: vec![
                WaveEntry::new(MetaOpId(0), 2, 6, 0.5),
                WaveEntry::new(MetaOpId(1), 3, 6, 0.3),
            ],
        };
        let plan = ExecutionPlan::new(vec![wave], mg, 8, 0.0, Duration::ZERO);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::CapacityExceeded {
                requested: 12,
                available: 8,
                ..
            })
        ));
    }

    #[test]
    fn incomplete_schedule_detected() {
        let mg = tiny_metagraph();
        let wave = Wave {
            index: 0,
            level: 0,
            start: 0.0,
            duration: 1.0,
            entries: vec![WaveEntry::new(MetaOpId(0), 2, 4, 0.5)],
        };
        let plan = ExecutionPlan::new(vec![wave], mg, 8, 0.0, Duration::ZERO);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::IncompleteSchedule {
                metaop: MetaOpId(1),
                scheduled: 0,
                required: 3
            })
        ));
    }

    /// One wave at `start` holding `entries`.
    fn wave_at(index: usize, start: f64, entries: Vec<WaveEntry>) -> Wave {
        let duration = entries.iter().map(|e| e.exec_time).fold(0.0, f64::max);
        Wave {
            index,
            level: index,
            start,
            duration,
            entries,
        }
    }

    #[test]
    fn slices_overlapping_in_time_are_rejected() {
        // MetaOp 0's second slice starts at 0.5 s, before its first (one
        // layer of 1 s from 0 s) ends.
        let waves = vec![
            wave_at(
                0,
                0.0,
                vec![
                    placed(WaveEntry::new(MetaOpId(0), 1, 2, 1.0), 0),
                    placed(WaveEntry::new(MetaOpId(1), 3, 4, 0.1), 4),
                ],
            ),
            wave_at(
                1,
                0.5,
                vec![placed(WaveEntry::new(MetaOpId(0), 1, 2, 1.0), 2)],
            ),
        ];
        let plan = ExecutionPlan::new(waves, tiny_metagraph(), 8, 0.0, Duration::ZERO);
        assert_eq!(
            plan.validate(),
            Err(PlanError::SliceOverlap {
                wave: 1,
                metaop: MetaOpId(0)
            })
        );
    }

    #[test]
    fn entries_overlapping_in_time_on_one_device_are_rejected() {
        // Wave 1 starts at 1 s on devices 2-5; devices 2 and 3 run MetaOp 0
        // until 2 s.
        let waves = |second_on: u32| {
            vec![
                wave_at(
                    0,
                    0.0,
                    vec![placed(WaveEntry::new(MetaOpId(0), 2, 4, 1.0), 0)],
                ),
                wave_at(
                    1,
                    1.0,
                    vec![placed(WaveEntry::new(MetaOpId(1), 3, 4, 0.5), second_on)],
                ),
            ]
        };
        let plan = ExecutionPlan::new(waves(2), tiny_metagraph(), 8, 0.0, Duration::ZERO);
        assert_eq!(
            plan.validate(),
            Err(PlanError::DeviceBusy { wave: 1, device: 2 })
        );
        // The same overlap on disjoint devices is fine.
        let plan = ExecutionPlan::new(waves(4), tiny_metagraph(), 8, 0.0, Duration::ZERO);
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn a_consumer_starting_before_its_producer_ends_is_rejected() {
        // The audio tower feeds the text tower: one MetaGraph edge.
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Audio, Modality::Text], 8);
        let audio = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, 229, 768),
                2,
            )
            .unwrap();
        let text = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(8, 77, 768),
                3,
            )
            .unwrap();
        b.add_flow(*audio.last().unwrap(), text[0]).unwrap();
        let mg = Arc::new(MetaGraph::contract(&b.build().unwrap()));
        let &[(producer, consumer)] = mg.edges() else {
            panic!("one edge expected, got {:?}", mg.edges());
        };
        // The producer runs two layers of 1 s from 0 s on devices 0-3; the
        // consumer starts on devices 4-7 at `consumer_start`.
        let plan = |consumer_start: f64| {
            let waves = vec![
                wave_at(0, 0.0, vec![placed(WaveEntry::new(producer, 2, 4, 1.0), 0)]),
                wave_at(
                    1,
                    consumer_start,
                    vec![placed(WaveEntry::new(consumer, 3, 4, 0.5), 4)],
                ),
            ];
            ExecutionPlan::new(waves, Arc::clone(&mg), 8, 0.0, Duration::ZERO)
        };
        assert_eq!(
            plan(1.0).validate(),
            Err(PlanError::EarlyConsumer { producer, consumer })
        );
        assert_eq!(plan(2.0 - 5e-10).validate(), Ok(()));
    }

    #[test]
    fn placement_overlap_detected() {
        let mg = tiny_metagraph();
        let wave = Wave {
            index: 0,
            level: 0,
            start: 0.0,
            duration: 1.0,
            entries: vec![
                placed(WaveEntry::new(MetaOpId(0), 2, 4, 0.5), 0),
                placed(WaveEntry::new(MetaOpId(1), 3, 4, 0.3), 2),
            ],
        };
        let plan = ExecutionPlan::new(vec![wave], mg, 8, 0.0, Duration::ZERO);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::PlacementOverlap { wave: 0 })
        ));
    }

    #[test]
    fn missing_placement_detected() {
        let mg = tiny_metagraph();
        let wave = Wave {
            index: 0,
            level: 0,
            start: 0.0,
            duration: 1.0,
            entries: vec![
                WaveEntry::new(MetaOpId(0), 2, 4, 0.5),
                WaveEntry::new(MetaOpId(1), 3, 4, 0.3),
            ],
        };
        let plan = ExecutionPlan::new(vec![wave], mg, 8, 0.0, Duration::ZERO);
        assert!(matches!(
            plan.require_placement(),
            Err(PlanError::MissingPlacement { wave: 0, .. })
        ));
    }

    #[test]
    fn memory_bound_and_placement_range_checks() {
        let plan = simple_plan();
        // The toy plan annotates no memory, so any capacity passes.
        plan.check_memory(1).unwrap();
        plan.check_invariants(1).unwrap();

        // Inflate one entry's memory beyond the capacity: caught, with the
        // offending wave and requirement reported.
        let mg = tiny_metagraph();
        let mut wave = Wave {
            index: 0,
            level: 0,
            start: 0.0,
            duration: 2.0,
            entries: vec![
                placed(WaveEntry::new(MetaOpId(0), 2, 4, 1.0), 0),
                placed(WaveEntry::new(MetaOpId(1), 3, 4, 0.5), 4),
            ],
        };
        wave.entries[1].memory_per_device = 100;
        let plan = ExecutionPlan::new(vec![wave], mg, 8, 1.9, Duration::ZERO);
        plan.check_memory(100).unwrap();
        assert!(matches!(
            plan.check_memory(99),
            Err(PlanError::MemoryExceeded {
                wave: 0,
                metaop: MetaOpId(1),
                required: 100,
                capacity: 99,
            })
        ));
        assert!(plan.check_invariants(99).is_err());

        // A placement naming a device the cluster does not have is caught
        // even though the wave's device *count* is within capacity.
        let mg = tiny_metagraph();
        let wave = Wave {
            index: 0,
            level: 0,
            start: 0.0,
            duration: 2.0,
            entries: vec![
                placed(WaveEntry::new(MetaOpId(0), 2, 4, 1.0), 0),
                placed(WaveEntry::new(MetaOpId(1), 3, 4, 0.5), 6),
            ],
        };
        let plan = ExecutionPlan::new(vec![wave], mg, 8, 1.9, Duration::ZERO);
        assert!(matches!(
            plan.check_placement_in_range(),
            Err(PlanError::PlacementOutOfRange {
                wave: 0,
                device: 8,
                available: 8,
            })
        ));
        assert!(plan.check_invariants(u64::MAX).is_err());
    }

    #[test]
    fn wave_helpers() {
        let plan = simple_plan();
        let wave = &plan.waves()[0];
        assert_eq!(wave.devices_used(), 8);
        assert_eq!(wave.end(), 2.0);
        assert!(wave.utilization(8) > 0.5);
        assert!(wave.entry_for(MetaOpId(0)).is_some());
        assert!(wave.entry_for(MetaOpId(9)).is_none());
    }

    #[test]
    fn residency_lists_sites_in_first_placement_order() {
        let group = |ids: &[u32]| DeviceGroup::new(ids.iter().map(|&d| DeviceId(d))).unwrap();
        let entry = |metaop, ids: &[u32]| WaveEntry {
            placement: Some(group(ids)),
            ..WaveEntry::new(MetaOpId(metaop), 1, ids.len() as u32, 1.0)
        };
        let waves = [
            wave_at(0, 0.0, vec![entry(1, &[70, 3]), entry(0, &[9])]),
            wave_at(1, 1.0, vec![entry(1, &[3, 12, 66])]),
        ];
        let residency = Residency::new(&waves);
        assert_eq!(residency.sites(MetaOpId(0)), [DeviceId(9)]);
        assert_eq!(residency.sites(MetaOpId(1)), [70, 3, 12, 66].map(DeviceId));
        assert!(residency.sites(MetaOpId(7)).is_empty());
        assert!(residency.holds(MetaOpId(1), DeviceId(66)));
        assert!(!residency.holds(MetaOpId(0), DeviceId(3)));
        assert!(!residency.holds(MetaOpId(1), DeviceId(500)));
        // Devices 70 and 3 are gone: MetaOp 1 survives first on device 12,
        // and on node 8 only through device 66.
        let cluster = ClusterSpec::homogeneous(9, 8)
            .without_devices(&[DeviceId(3), DeviceId(70)])
            .unwrap();
        let survivors = residency.survivors(&cluster);
        assert_eq!(survivors.first(MetaOpId(1)), Some(DeviceId(12)));
        assert_eq!(
            survivors.on_node(MetaOpId(1), NodeId(8)),
            Some(DeviceId(66))
        );
        assert_eq!(survivors.on_node(MetaOpId(1), NodeId(0)), None);
        assert_eq!(survivors.first(MetaOpId(0)), Some(DeviceId(9)));
        let mut seen = SiteSet::for_waves(&waves);
        assert!(seen.insert(MetaOpId(1), DeviceId(70)));
        assert!(!seen.insert(MetaOpId(1), DeviceId(70)));
        assert!(!seen.contains(MetaOpId(0), DeviceId(70)));
    }
}
