//! The wave-by-wave runtime engine (§3.6).

use std::collections::BTreeMap;
use std::sync::Arc;

use spindle_cluster::{ClusterSpec, CommModel, DeviceId};
use spindle_core::{ExecutionPlan, MetaOpId};
use spindle_graph::ComputationGraph;

use crate::localize::LocalizedPlan;
use crate::metrics::{
    sample_utilization_trace, ComputeInterval, IterationReport, TimeBreakdown, UtilizationSample,
    TRACE_SAMPLES,
};
use crate::RuntimeError;

/// Conversion into a shared [`Arc`] handle — what the engine's constructors
/// accept in place of the lifetime-bound borrows of the old API.
///
/// Owned values and existing `Arc`s move in without copying; plain references
/// clone, so every historical `RuntimeEngine::new(&plan, &cluster)` call site
/// keeps working.
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

/// Executes a placed [`ExecutionPlan`] on a simulated cluster and reports the
/// measurements of one training iteration.
///
/// The engine *owns* its plan and graph via [`Arc`] handles, so it can outlive
/// the planning session that produced them (and be handed across threads or
/// stored alongside other engines) without lifetime threading.
///
/// The engine follows the four steps of §3.6: (1) localisation — each entry's
/// MetaOp slice is bound to its device group; (2) intra-task data dependencies
/// — transmission operators are derived for every inter-wave data flow; (3)
/// inter-task model dependencies — the parameter device-group pool is built;
/// (4) the training step — forward/backward run wave by wave and group-wise
/// parameter synchronisation concludes the iteration.
#[derive(Debug)]
pub struct RuntimeEngine {
    plan: Arc<ExecutionPlan>,
    cluster: ClusterSpec,
    comm: CommModel,
    graph: Option<Arc<ComputationGraph>>,
}

impl RuntimeEngine {
    /// Creates an engine for `plan` on `cluster`. Accepts the plan by value,
    /// by `Arc`, or by reference (cloning).
    #[must_use]
    pub fn new(plan: impl IntoShared<ExecutionPlan>, cluster: &ClusterSpec) -> Self {
        Self {
            plan: plan.into_shared(),
            cluster: cluster.clone(),
            comm: CommModel::new(cluster),
            graph: None,
        }
    }

    /// Attaches the original computation graph, enabling exact parameter
    /// device groups (cross-task parameter sharing) instead of the per-MetaOp
    /// approximation.
    #[must_use]
    pub fn with_graph(mut self, graph: impl IntoShared<ComputationGraph>) -> Self {
        self.graph = Some(graph.into_shared());
        self
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// A shareable handle to the plan being executed.
    #[must_use]
    pub fn plan_handle(&self) -> Arc<ExecutionPlan> {
        Arc::clone(&self.plan)
    }

    /// Simulates one training iteration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPlan`] if the plan fails validation or
    /// lacks placement, and [`RuntimeError::ClusterMismatch`] if the plan was
    /// built for more devices than the cluster has.
    pub fn run_iteration(&self) -> Result<IterationReport, RuntimeError> {
        // Steps 1-3: localisation, transmission derivation and the parameter
        // device-group pool — shared with the event-driven simulator so both
        // backends price identical physical work.
        let localized =
            LocalizedPlan::new(Arc::clone(&self.plan), &self.cluster, self.graph.as_deref())?;

        // Step 4a: wave-by-wave forward and backward — already laid out on the
        // plan's timeline (entry times include forward + backward).
        let fwd_bwd_s = self.plan.makespan();

        // Step 2: inter-wave transmissions (forward activations + backward
        // gradients).
        let send_recv_s = localized.total_transmission_time(&self.comm);

        // Step 3 + 4b: parameter device groups and group-wise synchronisation.
        let sync_s = localized.sync_time(&self.comm);

        let breakdown = TimeBreakdown {
            fwd_bwd_s,
            sync_s,
            send_recv_s,
        };

        Ok(IterationReport {
            utilization_trace: self.utilization_trace(breakdown.total_s()),
            device_utilization: self.device_utilization(breakdown.total_s()),
            metaop_utilization: self.metaop_utilization(),
            device_memory: self.device_memory(),
            total_flops: self.total_flops(),
            num_devices: self.cluster.num_devices() as u32,
            peak_flops_per_device: self.cluster.gpu().peak_flops(),
            breakdown,
        })
    }

    /// Total FLOPs executed per iteration (forward + backward over every
    /// scheduled operator).
    fn total_flops(&self) -> f64 {
        self.plan
            .waves()
            .iter()
            .flat_map(|w| w.entries.iter())
            .map(|e| {
                let rep = self.plan.metagraph().metaop(e.metaop).representative();
                rep.flops_total() * f64::from(e.layers)
            })
            .sum()
    }

    /// Cluster throughput sampled over the compute portion of the iteration.
    fn utilization_trace(&self, total_s: f64) -> Vec<UtilizationSample> {
        let makespan = self.plan.makespan().max(1e-12);
        let horizon = total_s.max(makespan);
        // Each entry is busy from its wave's start for exec_time.
        let intervals: Vec<ComputeInterval> = self
            .plan
            .waves()
            .iter()
            .flat_map(|wave| {
                wave.entries.iter().map(|entry| {
                    let rep = self.plan.metagraph().metaop(entry.metaop).representative();
                    let flops = rep.flops_total() * f64::from(entry.layers);
                    ComputeInterval {
                        start_s: wave.start,
                        end_s: wave.start + entry.exec_time,
                        flops_per_s: flops / entry.exec_time.max(1e-12),
                    }
                })
            })
            .collect();
        sample_utilization_trace(&intervals, horizon, TRACE_SAMPLES)
    }

    /// Average per-device utilization relative to peak compute.
    fn device_utilization(&self, total_s: f64) -> BTreeMap<DeviceId, f64> {
        let peak = self.cluster.gpu().peak_flops();
        let horizon = total_s.max(self.plan.makespan()).max(1e-12);
        let mut per_device: BTreeMap<DeviceId, f64> = self
            .cluster
            .all_devices()
            .iter()
            .map(|d| (d, 0.0))
            .collect();
        for wave in self.plan.waves() {
            for entry in &wave.entries {
                let Some(group) = &entry.placement else {
                    continue;
                };
                let rep = self.plan.metagraph().metaop(entry.metaop).representative();
                let flops_per_device =
                    rep.flops_total() * f64::from(entry.layers) / group.len() as f64;
                for d in group.iter() {
                    *per_device.entry(d).or_insert(0.0) += flops_per_device;
                }
            }
        }
        per_device
            .into_iter()
            .map(|(d, flops)| (d, flops / (peak * horizon)))
            .collect()
    }

    /// Computational utilization of each MetaOp: achieved FLOP/s on its
    /// allocated devices divided by their aggregate peak.
    fn metaop_utilization(&self) -> BTreeMap<MetaOpId, f64> {
        let peak = self.cluster.gpu().peak_flops();
        let mut flops: BTreeMap<MetaOpId, f64> = BTreeMap::new();
        let mut device_time: BTreeMap<MetaOpId, f64> = BTreeMap::new();
        for wave in self.plan.waves() {
            for entry in &wave.entries {
                let rep = self.plan.metagraph().metaop(entry.metaop).representative();
                *flops.entry(entry.metaop).or_insert(0.0) +=
                    rep.flops_total() * f64::from(entry.layers);
                *device_time.entry(entry.metaop).or_insert(0.0) +=
                    entry.exec_time * f64::from(entry.devices);
            }
        }
        flops
            .into_iter()
            .map(|(m, f)| {
                let dt = device_time.get(&m).copied().unwrap_or(0.0).max(1e-12);
                (m, f / (peak * dt))
            })
            .collect()
    }

    /// Peak per-device memory: parameters and optimizer state stay resident, so
    /// each device accumulates the footprint of every slice placed on it.
    fn device_memory(&self) -> BTreeMap<DeviceId, u64> {
        let mut memory: BTreeMap<DeviceId, u64> = self
            .cluster
            .all_devices()
            .iter()
            .map(|d| (d, 0u64))
            .collect();
        for wave in self.plan.waves() {
            for entry in &wave.entries {
                let Some(group) = &entry.placement else {
                    continue;
                };
                for d in group.iter() {
                    *memory.entry(d).or_insert(0) =
                        memory[&d].saturating_add(entry.memory_per_device);
                }
            }
        }
        memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_core::{PlacementStrategy, PlannerConfig, SpindleSession};
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

    fn plan_and_run(
        nodes: usize,
        gpus: usize,
    ) -> (ExecutionPlan, IterationReport, ComputationGraph) {
        let graph = two_task_graph();
        let cluster = ClusterSpec::homogeneous(nodes, gpus);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        let report = RuntimeEngine::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        (plan, report, graph)
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
    fn mismatched_cluster_rejected() {
        let graph = two_task_graph();
        let big = ClusterSpec::homogeneous(2, 8);
        let plan = SpindleSession::new(big).plan(&graph).unwrap();
        let small = ClusterSpec::homogeneous(1, 8);
        let err = RuntimeEngine::new(plan, &small)
            .run_iteration()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ClusterMismatch { .. }));
    }

    #[test]
    fn sequential_placement_costs_more_send_recv() {
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
        let r_loc = RuntimeEngine::new(&locality, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .unwrap();
        let r_seq = RuntimeEngine::new(&sequential, &cluster)
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
}
