//! Analytic hardware performance model — the simulated stand-in for profiling
//! real GPUs.

use spindle_cluster::{ClusterSpec, CommModel, DeviceGroup, DeviceId};
use spindle_graph::Operator;

use crate::ParallelConfig;

/// Source of per-operator execution-time and memory measurements.
///
/// In the paper these numbers come from profiling the model on the target
/// cluster; in this reproduction they come from [`AnalyticGpuModel`]. The trait
/// exists so a real profiler (or a trace replayer) can be substituted without
/// touching the planner.
pub trait PerfModel: std::fmt::Debug + Send + Sync {
    /// Execution time in seconds of one training step (forward + backward) of
    /// `op` on `n` devices, using the best valid parallel configuration.
    /// Returns `None` if no valid configuration exists for `n`.
    fn execution_time(&self, op: &Operator, n: u32) -> Option<f64>;

    /// Peak per-device memory in bytes needed to hold `op` (parameters,
    /// gradients, optimizer states and activations) when executed on `n`
    /// devices with its best configuration.
    fn memory_bytes(&self, op: &Operator, n: u32) -> u64;
}

/// Deterministic analytic model of an A800-class GPU and its interconnect.
///
/// The model captures the three effects that drive heterogeneous resource
/// scalability in MT MM training (Fig. 4 of the paper):
///
/// 1. **Kernel-launch / fixed overheads** (`α`): a per-operator constant that
///    dominates tiny operators and caps their useful parallelism.
/// 2. **Compute-efficiency roll-off**: small per-device workloads cannot
///    saturate the GPU, so effective throughput falls below peak; the
///    saturation is modelled as `eff = peak · w / (w + w_half)` where `w` is
///    per-device FLOPs.
/// 3. **Parallelisation communication** (`β`): tensor parallelism pays
///    activation all-reduces on every layer, priced by the cluster's
///    [`CommModel`].
#[derive(Debug, Clone)]
pub struct AnalyticGpuModel {
    cluster: ClusterSpec,
    comm: CommModel,
    /// The device groups of tensor-parallel degrees 2, 4 and 8: adjacent
    /// devices from device 0, so within a device island whenever the degree
    /// fits one.
    tp_groups: [DeviceGroup; 3],
    /// Per-device FLOPs at which the GPU reaches half of its peak efficiency.
    half_saturation_flops: f64,
    /// Maximum fraction of peak FLOP/s achievable by dense transformer kernels.
    max_efficiency: f64,
    /// Fixed per-operator overhead in seconds (kernel launches, Python/driver
    /// dispatch, stream sync).
    fixed_overhead_s: f64,
    /// Bytes of optimizer + gradient state per parameter byte (Adam, mixed
    /// precision: fp32 master + two moments + fp16 gradient ≈ 7×).
    optimizer_state_ratio: f64,
    /// Multiplier on the operator output size accounting for intermediate
    /// activations kept for the backward pass.
    activation_multiplier: f64,
}

impl AnalyticGpuModel {
    /// Builds the default A800-calibrated model for `cluster`.
    #[must_use]
    pub fn new(cluster: &ClusterSpec) -> Self {
        Self {
            cluster: cluster.clone(),
            comm: CommModel::new(cluster),
            tp_groups: [2, 4, 8].map(|tp| DeviceGroup::contiguous(DeviceId(0), tp)),
            // Half-saturation point of dense transformer kernels: per-device
            // workloads well below ~20 GFLOPs leave the GPU mostly idle, which
            // is what makes lightweight MT MM operators scale poorly (Fig. 4).
            half_saturation_flops: 2.0e10,
            max_efficiency: 0.62,
            // Per-operator fixed cost of one training step (kernel launches,
            // Python dispatch, optimizer hooks): the latency floor that caps
            // the useful parallelism of small operators.
            fixed_overhead_s: 600.0e-6,
            optimizer_state_ratio: 7.0,
            activation_multiplier: 6.0,
        }
    }

    /// The cluster this model is calibrated against.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Execution time of one training step of `op` under an explicit parallel
    /// configuration. Exposed for tests and for the estimator's
    /// configuration sweep.
    #[must_use]
    pub fn execution_time_with_config(&self, op: &Operator, config: ParallelConfig) -> f64 {
        let n = f64::from(config.num_devices());
        let total_flops = op.flops_total();
        let per_device_flops = total_flops / n;
        let peak = self.cluster.gpu().peak_flops();
        let efficiency = self.max_efficiency * per_device_flops
            / (per_device_flops + self.half_saturation_flops);
        let compute = per_device_flops / (peak * efficiency.max(1e-6));
        let comm = self.tp_comm_time(op, config);
        self.fixed_overhead_s + compute + comm
    }

    /// Per-device memory footprint of `op` under an explicit configuration.
    #[must_use]
    pub fn memory_with_config(&self, op: &Operator, config: ParallelConfig) -> u64 {
        let params = op.param_bytes() as f64 / f64::from(config.tp);
        let states = params * self.optimizer_state_ratio;
        let activations =
            op.output_bytes() as f64 * self.activation_multiplier / f64::from(config.dp);
        (params + states + activations).ceil() as u64
    }

    /// Tensor-parallel communication time per training step: forward and
    /// backward each pay two all-reduces of the per-replica activation.
    fn tp_comm_time(&self, op: &Operator, config: ParallelConfig) -> f64 {
        if config.tp <= 1 {
            return 0.0;
        }
        let tp = config.tp as usize;
        let built;
        let group = match self.tp_groups.iter().find(|g| g.len() == tp) {
            Some(group) => group,
            None => {
                built = DeviceGroup::contiguous(DeviceId(0), tp);
                &built
            }
        };
        let per_replica_activation = op.output_bytes() / u64::from(config.dp).max(1);
        4.0 * self.comm.all_reduce_time(group, per_replica_activation)
    }
}

impl PerfModel for AnalyticGpuModel {
    fn execution_time(&self, op: &Operator, n: u32) -> Option<f64> {
        ParallelConfig::valid_for(op, n)
            .map(|c| self.execution_time_with_config(op, c))
            .min_by(|a, b| a.total_cmp(b))
    }

    fn memory_bytes(&self, op: &Operator, n: u32) -> u64 {
        let best = ParallelConfig::valid_for(op, n)
            .min_by(|a, b| {
                self.execution_time_with_config(op, *a)
                    .total_cmp(&self.execution_time_with_config(op, *b))
            })
            .unwrap_or(ParallelConfig::SERIAL);
        self.memory_with_config(op, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{Modality, OpId, OpKind, TaskId, TensorShape};

    fn model() -> AnalyticGpuModel {
        AnalyticGpuModel::new(&ClusterSpec::homogeneous(2, 8))
    }

    fn heavy_op() -> Operator {
        Operator::new(
            OpId(0),
            OpKind::LmDecoderOnly,
            TaskId(0),
            TensorShape::new(8, 512, 4096),
        )
    }

    fn light_op() -> Operator {
        Operator::new(
            OpId(1),
            OpKind::Encoder(Modality::Text),
            TaskId(0),
            TensorShape::new(4, 77, 768),
        )
    }

    #[test]
    fn time_decreases_with_more_devices() {
        let m = model();
        let op = heavy_op();
        let t1 = m.execution_time(&op, 1).unwrap();
        let t4 = m.execution_time(&op, 4).unwrap();
        let t16 = m.execution_time(&op, 16).unwrap();
        assert!(t1 > t4);
        assert!(t4 > t16);
    }

    #[test]
    fn heavy_ops_scale_better_than_light_ops() {
        let m = model();
        let heavy = heavy_op();
        let light = light_op();
        let heavy_speedup =
            m.execution_time(&heavy, 1).unwrap() / m.execution_time(&heavy, 8).unwrap();
        let light_speedup =
            m.execution_time(&light, 1).unwrap() / m.execution_time(&light, 8).unwrap();
        assert!(
            heavy_speedup > 2.0 * light_speedup,
            "heavy {heavy_speedup:.2} vs light {light_speedup:.2}"
        );
    }

    #[test]
    fn invalid_allocation_returns_none() {
        let m = model();
        // batch 4, n = 3 has no valid (dp, tp) factorisation.
        assert!(m.execution_time(&light_op(), 3).is_none());
    }

    #[test]
    fn fixed_overhead_bounds_scaling() {
        let m = model();
        let light = light_op();
        // Even with the whole cluster, a tiny op cannot beat the fixed overhead.
        let t = m.execution_time(&light, 16).unwrap();
        assert!(t >= m.fixed_overhead_s);
    }

    #[test]
    fn memory_shrinks_with_parallelism() {
        let m = model();
        let op = heavy_op();
        let m1 = m.memory_bytes(&op, 1);
        let m8 = m.memory_bytes(&op, 8);
        assert!(m8 < m1);
        assert!(m8 > 0);
    }

    #[test]
    fn tp_config_pays_communication() {
        let m = model();
        let op = heavy_op();
        let dp_only = m.execution_time_with_config(&op, ParallelConfig { dp: 8, tp: 1 });
        let tp_heavy = m.execution_time_with_config(&op, ParallelConfig { dp: 1, tp: 8 });
        // Same compute split, but TP adds all-reduce time.
        assert!(tp_heavy > dp_only);
    }

    #[test]
    fn cluster_accessor() {
        let m = model();
        assert_eq!(m.cluster().num_devices(), 16);
    }
}
