//! Cluster topology: nodes, device islands and the overall cluster spec.

use std::fmt;

use crate::{
    ClusterError, DeviceGroup, DeviceId, GpuSpec, InterconnectSpec, LinkClass, NodeId, StorageSpec,
};

/// Description of a single node (server) of the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Identity of the node.
    pub id: NodeId,
    /// Devices hosted by this node, in local order.
    pub devices: Vec<DeviceId>,
}

impl NodeSpec {
    /// Number of devices on this node.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }
}

/// A device island: the set of devices connected by the high-bandwidth
/// intra-node interconnect. In this model an island coincides with a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Island {
    /// Island identity (same as the node id).
    pub id: NodeId,
    /// Devices belonging to the island.
    pub devices: DeviceGroup,
}

/// Full description of the training cluster: per-GPU spec, node layout and
/// interconnect parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    gpu: GpuSpec,
    interconnect: InterconnectSpec,
    storage: StorageSpec,
    nodes: Vec<NodeSpec>,
    /// Dense device id → hosting node (`None` for ids not in the cluster),
    /// derived from `nodes` by [`ClusterSpec::index_devices`] so
    /// [`ClusterSpec::node_of`] and [`ClusterSpec::contains`] are O(1).
    node_by_device: Vec<Option<NodeId>>,
}

impl ClusterSpec {
    /// Builds a homogeneous cluster of `num_nodes` nodes with `gpus_per_node`
    /// A800-like GPUs each, connected by NVLink within a node and 400 Gbps
    /// InfiniBand across nodes — the paper's testbed configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` or `gpus_per_node` is zero.
    #[must_use]
    pub fn homogeneous(num_nodes: usize, gpus_per_node: usize) -> Self {
        Self::with_specs(
            num_nodes,
            gpus_per_node,
            GpuSpec::a800_80gb(),
            InterconnectSpec::nvlink_plus_infiniband_400g(),
        )
    }

    /// Builds a homogeneous cluster with explicit GPU and interconnect specs.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` or `gpus_per_node` is zero, or if a bandwidth
    /// of `interconnect` is not finite and positive or a latency is not
    /// finite and non-negative: such a spec prices a transfer at infinity or
    /// NaN, and contended pricing would never finish.
    #[must_use]
    pub fn with_specs(
        num_nodes: usize,
        gpus_per_node: usize,
        gpu: GpuSpec,
        interconnect: InterconnectSpec,
    ) -> Self {
        assert!(num_nodes > 0, "cluster must have at least one node");
        assert!(gpus_per_node > 0, "nodes must have at least one GPU");
        assert_priceable(
            "interconnect",
            &[
                interconnect.intra_device_bandwidth,
                interconnect.intra_island_bandwidth,
                interconnect.inter_island_bandwidth,
            ],
            &[
                interconnect.intra_device_latency_s,
                interconnect.intra_island_latency_s,
                interconnect.inter_island_latency_s,
            ],
        );
        let nodes = (0..num_nodes)
            .map(|n| NodeSpec {
                id: NodeId(n as u32),
                devices: (0..gpus_per_node)
                    .map(|g| DeviceId((n * gpus_per_node + g) as u32))
                    .collect(),
            })
            .collect();
        Self {
            gpu,
            interconnect,
            storage: StorageSpec::default(),
            nodes,
            node_by_device: Vec::new(),
        }
        .index_devices()
    }

    /// Rebuilds the device → node table from `nodes`.
    fn index_devices(mut self) -> Self {
        self.node_by_device.clear();
        for node in &self.nodes {
            for d in &node.devices {
                if self.node_by_device.len() <= d.index() {
                    self.node_by_device.resize(d.index() + 1, None);
                }
                self.node_by_device[d.index()] = Some(node.id);
            }
        }
        self
    }

    /// Replaces the checkpoint storage tier description (defaults to
    /// [`StorageSpec::disaggregated_nvme`]).
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth of `storage` is not finite and positive or its
    /// latency is not finite and non-negative: such a tier prices a transfer
    /// at infinity or NaN, and contended pricing would never finish.
    #[must_use]
    pub fn with_storage(mut self, storage: StorageSpec) -> Self {
        assert_priceable(
            "storage",
            &[storage.node_bandwidth, storage.spine_bandwidth],
            &[storage.latency_s],
        );
        self.storage = storage;
        self
    }

    /// The per-GPU hardware description.
    #[must_use]
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The interconnect description.
    #[must_use]
    pub fn interconnect(&self) -> &InterconnectSpec {
        &self.interconnect
    }

    /// The checkpoint storage tier description.
    #[must_use]
    pub fn storage(&self) -> &StorageSpec {
        &self.storage
    }

    /// The nodes of the cluster.
    #[must_use]
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Total number of devices in the cluster.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.nodes.iter().map(NodeSpec::num_devices).sum()
    }

    /// One past the highest global device id — the size of the dense id
    /// space. Equals [`ClusterSpec::num_devices`] on a pristine cluster;
    /// after [`ClusterSpec::without_devices`] it can exceed the device
    /// count, because surviving devices keep their global ids and the
    /// numbering gains holes instead of being compacted.
    #[must_use]
    pub fn device_space(&self) -> usize {
        // The table ends at the highest device id present.
        self.node_by_device.len()
    }

    /// A copy of this cluster with `removed` devices taken out of their
    /// nodes — the surviving set after churn (spot reclamation, GPU
    /// failure, preemption). Surviving devices keep their global ids, so
    /// the numbering gains holes rather than being compacted, and nodes
    /// keep their [`NodeId`]s — a node whose devices are all removed stays
    /// in the layout as an empty island so link endpoints remain stable.
    /// Ids in `removed` that are absent (unknown or already removed) are
    /// ignored, making the operation idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] if removal would leave no
    /// device at all.
    pub fn without_devices(&self, removed: &[DeviceId]) -> Result<Self, ClusterError> {
        let gone = self.removed_set(&[], &[], removed);
        let mut spec = self.clone();
        for node in &mut spec.nodes {
            node.devices.retain(|d| gone.binary_search(d).is_err());
        }
        if spec.num_devices() == 0 {
            return Err(ClusterError::EmptyCluster);
        }
        Ok(spec.index_devices())
    }

    /// The removed-device set after a topology change: `current` minus
    /// `restored`, plus `removed`, applied in that order. Ids this cluster
    /// does not have are dropped. The result is sorted and deduplicated
    /// through a table indexed by device id, so a call takes time linear in
    /// ids plus devices.
    #[must_use]
    pub fn removed_set(
        &self,
        current: &[DeviceId],
        restored: &[DeviceId],
        removed: &[DeviceId],
    ) -> Vec<DeviceId> {
        let mut gone = vec![false; self.device_space()];
        for (ids, mark) in [(current, true), (restored, false), (removed, true)] {
            for &d in ids.iter().filter(|&&d| self.contains(d)) {
                gone[d.index()] = mark;
            }
        }
        (0..)
            .zip(gone)
            .filter_map(|(i, g)| g.then_some(DeviceId(i)))
            .collect()
    }

    /// Number of nodes (device islands).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All devices of the cluster in global order.
    #[must_use]
    pub fn all_devices(&self) -> DeviceGroup {
        self.nodes
            .iter()
            .flat_map(|n| n.devices.iter().copied())
            .collect()
    }

    /// The device islands of the cluster (one per node). Nodes emptied by
    /// [`ClusterSpec::without_devices`] are skipped — an island with no
    /// devices cannot host work.
    #[must_use]
    pub fn islands(&self) -> Vec<Island> {
        self.nodes
            .iter()
            .filter(|n| !n.devices.is_empty())
            .map(|n| Island {
                id: n.id,
                devices: n.devices.iter().copied().collect(),
            })
            .collect()
    }

    /// The node hosting `device`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownDevice`] if the device is not part of the
    /// cluster.
    pub fn node_of(&self, device: DeviceId) -> Result<NodeId, ClusterError> {
        self.node_by_device
            .get(device.index())
            .copied()
            .flatten()
            .ok_or(ClusterError::UnknownDevice(device))
    }

    /// Returns `true` if `device` exists in this cluster.
    #[must_use]
    pub fn contains(&self, device: DeviceId) -> bool {
        self.node_of(device).is_ok()
    }

    /// Link class between two devices of the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownDevice`] if either device is unknown.
    pub fn link_class(&self, a: DeviceId, b: DeviceId) -> Result<LinkClass, ClusterError> {
        if a == b {
            // Still validate the device exists.
            self.node_of(a)?;
            return Ok(LinkClass::IntraDevice);
        }
        let na = self.node_of(a)?;
        let nb = self.node_of(b)?;
        Ok(if na == nb {
            LinkClass::IntraIsland
        } else {
            LinkClass::InterIsland
        })
    }

    /// Returns `true` if every device of `group` lives on the same island.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownDevice`] if any device is unknown, or
    /// [`ClusterError::EmptyGroup`] for an empty group.
    pub fn is_intra_island(&self, group: &DeviceGroup) -> Result<bool, ClusterError> {
        let mut nodes = group.iter().map(|d| self.node_of(d));
        let first = nodes.next().ok_or(ClusterError::EmptyGroup)??;
        for n in nodes {
            if n? != first {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Number of distinct islands spanned by `group`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownDevice`] if any device is unknown.
    pub fn islands_spanned(&self, group: &DeviceGroup) -> Result<usize, ClusterError> {
        let mut nodes: Vec<NodeId> = group
            .iter()
            .map(|d| self.node_of(d))
            .collect::<Result<_, _>>()?;
        nodes.sort_unstable();
        nodes.dedup();
        Ok(nodes.len())
    }

    /// Per-device memory capacity in bytes.
    #[must_use]
    pub fn device_memory_bytes(&self) -> u64 {
        self.gpu.memory_bytes
    }
}

/// Asserts that a link spec prices every transfer at a finite time: each
/// bandwidth finite and positive, each latency finite and non-negative.
fn assert_priceable(spec: &str, bandwidths: &[f64], latencies: &[f64]) {
    for &bandwidth in bandwidths {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "{spec} bandwidths must be finite and positive, got {bandwidth}"
        );
    }
    for &latency in latencies {
        assert!(
            latency.is_finite() && latency >= 0.0,
            "{spec} latencies must be finite and non-negative, got {latency}"
        );
    }
}

impl fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} node(s) x {} GPU(s), {:.0} TFLOP/s each, {:.0} GiB memory",
            self.num_nodes(),
            self.nodes.first().map_or(0, NodeSpec::num_devices),
            self.gpu.peak_tflops,
            self.gpu.memory_gib()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_layout() {
        let c = ClusterSpec::homogeneous(2, 8);
        assert_eq!(c.num_devices(), 16);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.nodes()[1].devices[0], DeviceId(8));
        assert_eq!(c.all_devices().len(), 16);
        assert_eq!(c.islands().len(), 2);
        assert!(c.contains(DeviceId(15)));
        assert!(!c.contains(DeviceId(16)));
    }

    #[test]
    fn node_of_and_link_class() {
        let c = ClusterSpec::homogeneous(2, 4);
        assert_eq!(c.node_of(DeviceId(3)).unwrap(), NodeId(0));
        assert_eq!(c.node_of(DeviceId(4)).unwrap(), NodeId(1));
        assert_eq!(
            c.node_of(DeviceId(99)),
            Err(ClusterError::UnknownDevice(DeviceId(99)))
        );
        assert_eq!(
            c.link_class(DeviceId(1), DeviceId(1)).unwrap(),
            LinkClass::IntraDevice
        );
        assert_eq!(
            c.link_class(DeviceId(1), DeviceId(3)).unwrap(),
            LinkClass::IntraIsland
        );
        assert_eq!(
            c.link_class(DeviceId(1), DeviceId(5)).unwrap(),
            LinkClass::InterIsland
        );
    }

    #[test]
    fn island_queries() {
        let c = ClusterSpec::homogeneous(4, 8);
        let intra = DeviceGroup::contiguous(DeviceId(8), 8);
        let cross = DeviceGroup::contiguous(DeviceId(4), 8);
        assert!(c.is_intra_island(&intra).unwrap());
        assert!(!c.is_intra_island(&cross).unwrap());
        assert_eq!(c.islands_spanned(&intra).unwrap(), 1);
        assert_eq!(c.islands_spanned(&cross).unwrap(), 2);
        let all = c.all_devices();
        assert_eq!(c.islands_spanned(&all).unwrap(), 4);
    }

    #[test]
    fn device_memory_is_the_gpus() {
        let small = ClusterSpec::homogeneous(1, 8);
        assert_eq!(small.device_memory_bytes(), 80 * (1 << 30));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = ClusterSpec::homogeneous(0, 8);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = ClusterSpec::homogeneous(1, 0);
    }

    #[test]
    fn with_specs_rejects_interconnects_that_cannot_price_a_transfer() {
        let good = InterconnectSpec::nvlink_plus_infiniband_400g();
        let mut broken = Vec::new();
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            broken.push(InterconnectSpec {
                intra_device_bandwidth: v,
                ..good
            });
            broken.push(InterconnectSpec {
                intra_island_bandwidth: v,
                ..good
            });
            broken.push(InterconnectSpec {
                inter_island_bandwidth: v,
                ..good
            });
        }
        for v in [-1e-6, f64::NAN, f64::INFINITY] {
            broken.push(InterconnectSpec {
                intra_device_latency_s: v,
                ..good
            });
            broken.push(InterconnectSpec {
                intra_island_latency_s: v,
                ..good
            });
            broken.push(InterconnectSpec {
                inter_island_latency_s: v,
                ..good
            });
        }
        for spec in broken {
            let built = std::panic::catch_unwind(|| {
                ClusterSpec::with_specs(2, 4, GpuSpec::a800_80gb(), spec)
            });
            assert!(built.is_err(), "accepted {spec:?}");
        }
        let free = InterconnectSpec {
            intra_device_latency_s: 0.0,
            intra_island_latency_s: 0.0,
            inter_island_latency_s: 0.0,
            ..good
        };
        let _ = ClusterSpec::with_specs(2, 4, GpuSpec::a800_80gb(), free);
    }

    #[test]
    fn with_storage_rejects_tiers_that_cannot_price_a_transfer() {
        let good = StorageSpec::disaggregated_nvme();
        let mut broken = Vec::new();
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            broken.push(StorageSpec {
                node_bandwidth: v,
                ..good
            });
            broken.push(StorageSpec {
                spine_bandwidth: v,
                ..good
            });
        }
        for v in [-1e-3, f64::NAN, f64::INFINITY] {
            broken.push(StorageSpec {
                latency_s: v,
                ..good
            });
        }
        for spec in broken {
            let built =
                std::panic::catch_unwind(|| ClusterSpec::homogeneous(2, 4).with_storage(spec));
            assert!(built.is_err(), "accepted {spec:?}");
        }
        let _ = ClusterSpec::homogeneous(2, 4).with_storage(StorageSpec {
            latency_s: 0.0,
            ..good
        });
    }

    #[test]
    fn display_mentions_shape() {
        let c = ClusterSpec::homogeneous(2, 8);
        let s = c.to_string();
        assert!(s.contains("2 node"));
        assert!(s.contains("8 GPU"));
    }

    #[test]
    fn without_devices_keeps_stable_ids_and_node_layout() {
        let c = ClusterSpec::homogeneous(2, 4);
        let survived = c
            .without_devices(&[DeviceId(0), DeviceId(5), DeviceId(6), DeviceId(7)])
            .unwrap();
        assert_eq!(survived.num_devices(), 4);
        // Ids are stable: the id space spans up to the highest survivor.
        assert_eq!(survived.device_space(), 5);
        assert!(!survived.contains(DeviceId(0)));
        assert!(survived.contains(DeviceId(4)));
        assert_eq!(survived.node_of(DeviceId(4)).unwrap(), NodeId(1));
        // Node 1 still hosts DeviceId(4); removing it empties the node,
        // which then stops contributing an island but keeps its NodeId.
        let bare = survived.without_devices(&[DeviceId(4)]).unwrap();
        assert_eq!(bare.num_nodes(), 2);
        assert_eq!(bare.islands().len(), 1);
        assert_eq!(bare.device_space(), 4);
        // Removing unknown or already-removed ids is a no-op.
        assert_eq!(
            bare.without_devices(&[DeviceId(0), DeviceId(99)]).unwrap(),
            bare.without_devices(&[]).unwrap()
        );
        // Removing everything is rejected.
        assert_eq!(
            bare.without_devices(&[DeviceId(1), DeviceId(2), DeviceId(3)]),
            Err(ClusterError::EmptyCluster)
        );
    }

    #[test]
    fn removed_set_drops_unknown_ids_and_restores_before_removing() {
        let c = ClusterSpec::homogeneous(2, 4);
        let ids = |raw: &[u32]| raw.iter().copied().map(DeviceId).collect::<Vec<_>>();
        let set = c.removed_set(&ids(&[5, 1]), &ids(&[5, 99]), &ids(&[7, 1, 8, 7]));
        assert_eq!(
            set,
            ids(&[1, 7]),
            "sorted, deduplicated, unknown ids dropped"
        );
        assert_eq!(c.removed_set(&[], &ids(&[2]), &ids(&[2])), ids(&[2]));
    }

    #[test]
    fn device_table_agrees_with_a_scan_of_the_nodes() {
        let check = |c: &ClusterSpec| {
            for id in 0..c.device_space() as u32 + 8 {
                let d = DeviceId(id);
                let scanned = c
                    .nodes()
                    .iter()
                    .find(|n| n.devices.contains(&d))
                    .map(|n| n.id);
                assert_eq!(c.node_of(d).ok(), scanned, "{d}");
                assert_eq!(c.contains(d), scanned.is_some(), "{d}");
            }
        };
        let pristine = ClusterSpec::homogeneous(4, 8);
        check(&pristine);
        // Holes on nodes 0 and 2, and node 3 emptied entirely.
        let mut removed: Vec<DeviceId> = (24..32).map(DeviceId).collect();
        removed.extend([DeviceId(1), DeviceId(6), DeviceId(17)]);
        let holed = pristine.without_devices(&removed).unwrap();
        assert!(holed.nodes()[3].devices.is_empty());
        assert_eq!(holed.device_space(), 24);
        check(&holed);
        // The table stays in step through a second removal.
        check(&holed.without_devices(&[DeviceId(23), DeviceId(0)]).unwrap());
    }

    #[test]
    fn is_intra_island_rejects_unknown_device() {
        let c = ClusterSpec::homogeneous(1, 4);
        let g = DeviceGroup::contiguous(DeviceId(2), 4);
        assert_eq!(
            c.is_intra_island(&g),
            Err(ClusterError::UnknownDevice(DeviceId(4)))
        );
    }
}
