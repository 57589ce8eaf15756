//! Shared helpers for baseline planners.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use spindle_cluster::{DeviceGroup, DeviceId};
use spindle_core::{
    ContractedGraph, CurveSet, ExecutionPlan, MetaGraph, MetaOpId, PlanError, SpindleSession, Wave,
};
use spindle_estimator::{ScalabilityEstimator, ScalingCurve};
use spindle_graph::{ComputationGraph, TaskId};

/// Contracted graph, per-MetaOp curves and per-task MetaOp lists — the inputs
/// every baseline planner needs, resolved through a planning session.
#[derive(Debug)]
pub struct BaselineContext {
    /// The session's stage-1 artifact: the contracted MetaGraph.
    pub contracted: ContractedGraph,
    /// The session's stage-2 artifact: one scaling curve per MetaOp.
    pub curves: CurveSet,
    /// The session's estimator (for memory queries), so baselines profile
    /// through the same persistent curve cache.
    pub estimator: Arc<ScalabilityEstimator>,
    /// MetaOps of each task, in dependency-level order.
    pub task_metaops: BTreeMap<TaskId, Vec<MetaOpId>>,
    /// Cluster size in devices.
    pub num_devices: u32,
    /// The cluster's devices in id order. A baseline lays tasks out on
    /// contiguous ranges of positions in this list
    /// ([`device_range`](Self::device_range)), so after a device loss they
    /// land on the survivors.
    pub devices: Vec<DeviceId>,
    /// The cluster's device id space
    /// ([`ClusterSpec::device_space`](spindle_cluster::ClusterSpec::device_space)).
    pub device_space: u32,
}

impl BaselineContext {
    /// Builds the context for a workload inside a planning session, reusing
    /// the session's estimator and therefore its cross-plan curve cache.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the cluster is empty or an operator cannot be
    /// profiled.
    pub fn from_session(
        graph: &ComputationGraph,
        session: &SpindleSession,
    ) -> Result<Self, PlanError> {
        let cluster = session.cluster();
        let num_devices = cluster.num_devices() as u32;
        if num_devices == 0 {
            return Err(PlanError::EmptyCluster);
        }
        let contracted = session.contract(graph);
        let curves = session.resolve_curves(&contracted)?;
        let metagraph = contracted.metagraph();
        let mut task_metaops: BTreeMap<TaskId, Vec<MetaOpId>> = BTreeMap::new();
        // Level-major order gives a valid sequential execution order per task.
        for level in metagraph.levels() {
            for &id in &level.metaops {
                task_metaops
                    .entry(metagraph.metaop(id).task())
                    .or_default()
                    .push(id);
            }
        }
        Ok(Self {
            contracted,
            curves,
            estimator: session.estimator_handle(),
            task_metaops,
            num_devices,
            devices: cluster.all_devices().devices().to_vec(),
            device_space: cluster.device_space() as u32,
        })
    }

    /// The devices at positions `first..first + count` of
    /// [`devices`](Self::devices): the ids `first..first + count` on an
    /// intact cluster, the survivors in their place after a loss.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the last device or is empty.
    #[must_use]
    pub fn device_range(&self, first: u32, count: u32) -> DeviceGroup {
        let range = first as usize..(first + count) as usize;
        assert!(!range.is_empty(), "device range must not be empty");
        DeviceGroup::from_distinct(self.devices[range].to_vec())
    }

    /// A plan of `waves` over the session's cluster and its device id
    /// space.
    #[must_use]
    pub fn plan(&self, waves: Vec<Wave>, planning_time: Duration) -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(
            waves,
            self.contracted.metagraph_handle(),
            self.num_devices,
            0.0,
            planning_time,
        );
        plan.set_device_space(self.device_space);
        plan
    }

    /// The contracted MetaGraph.
    #[must_use]
    pub fn metagraph(&self) -> &MetaGraph {
        self.contracted.metagraph()
    }

    /// Per-device memory bytes of `layers` operators of a MetaOp at allocation
    /// `devices`.
    #[must_use]
    pub fn memory_per_device(&self, metaop: MetaOpId, devices: u32, layers: u32) -> u64 {
        let rep = self.metagraph().metaop(metaop).representative();
        self.estimator
            .memory_bytes(rep, devices)
            .saturating_mul(u64::from(layers))
    }

    /// Per-operator time of a MetaOp on `devices` devices: the profiled point
    /// of its curve where there is one, the fitted curve otherwise.
    #[must_use]
    pub fn time_per_op(&self, metaop: MetaOpId, devices: u32) -> f64 {
        let curve = self.curve(metaop);
        curve
            .time_at(devices)
            .unwrap_or_else(|| curve.time(f64::from(devices)))
    }

    /// The largest valid allocation of a MetaOp not exceeding `limit`.
    #[must_use]
    pub fn largest_valid_allocation(&self, metaop: MetaOpId, limit: u32) -> u32 {
        self.curve(metaop)
            .valid_allocations()
            .iter()
            .filter(|&&(n, _)| n <= limit)
            .map(|&(n, _)| n)
            .max()
            .unwrap_or(1)
    }

    fn curve(&self, metaop: MetaOpId) -> &ScalingCurve {
        self.curves
            .get(metaop)
            .expect("CurveSet::resolve covers every MetaOp of the ContractedGraph")
    }
}

/// Plans `graph` with `kind` in a fresh session on `cluster`.
#[cfg(test)]
pub(crate) fn plan_on(
    kind: crate::SystemKind,
    graph: &ComputationGraph,
    cluster: &spindle_cluster::ClusterSpec,
) -> ExecutionPlan {
    kind.plan(graph, &mut SpindleSession::new(cluster.clone()))
        .unwrap()
}

/// FNV-1a over every wave's and entry's exact bits, placements included:
/// equal iff two plans are identical wave for wave.
#[cfg(test)]
pub(crate) fn plan_digest(plan: &ExecutionPlan) -> u64 {
    let mut words = Vec::new();
    for wave in plan.waves() {
        words.extend([wave.index as u64, wave.level as u64]);
        words.extend([wave.start.to_bits(), wave.duration.to_bits()]);
        for e in &wave.entries {
            words.extend([e.metaop.index() as u64, e.layers.into(), e.devices.into()]);
            words.extend([e.time_per_op.to_bits(), e.exec_time.to_bits()]);
            words.push(e.memory_per_device);
            let group = e.placement.as_ref().expect("placed");
            words.extend(group.iter().map(|d| u64::from(d.0)));
        }
    }
    fnv1a(&words)
}

/// FNV-1a over the little-endian bytes of `words`.
#[cfg(test)]
pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_cluster::ClusterSpec;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    #[test]
    fn context_collects_per_task_metaops_in_level_order() {
        let mut b = GraphBuilder::new();
        let t = b.add_task("vl", [Modality::Vision, Modality::Text], 8);
        let enc = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(8, 257, 768),
                4,
            )
            .unwrap();
        let lm = b
            .add_op_chain(t, OpKind::LmDecoderOnly, TensorShape::new(8, 512, 1024), 4)
            .unwrap();
        b.add_flow(*enc.last().unwrap(), lm[0]).unwrap();
        let graph = b.build().unwrap();
        let session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let ctx = BaselineContext::from_session(&graph, &session).unwrap();
        assert_eq!(ctx.num_devices, 8);
        assert_eq!(ctx.task_metaops.len(), 1);
        let metaops = &ctx.task_metaops[&TaskId(0)];
        assert_eq!(metaops.len(), 2);
        assert!(
            ctx.metagraph().metaop(metaops[0]).level()
                <= ctx.metagraph().metaop(metaops[1]).level()
        );
        assert!(ctx.largest_valid_allocation(metaops[0], 8) >= 4);
        assert!(ctx.memory_per_device(metaops[0], 8, 4) > 0);
    }

    #[test]
    fn session_contexts_share_the_curve_cache() {
        let mut b = GraphBuilder::new();
        let t = b.add_task("vl", [Modality::Vision, Modality::Text], 8);
        b.add_op_chain(
            t,
            OpKind::Encoder(Modality::Vision),
            TensorShape::new(8, 257, 768),
            4,
        )
        .unwrap();
        let graph = b.build().unwrap();
        let session = SpindleSession::new(ClusterSpec::homogeneous(1, 8));
        let first = BaselineContext::from_session(&graph, &session).unwrap();
        let fits = session.curve_fits();
        assert!(fits > 0);
        let second = BaselineContext::from_session(&graph, &session).unwrap();
        // The second context re-used every curve the first one fitted.
        assert_eq!(session.curve_fits(), fits);
        assert!(Arc::ptr_eq(&first.estimator, &second.estimator));
    }
}
