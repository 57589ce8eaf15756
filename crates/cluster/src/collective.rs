//! Analytic cost model for point-to-point and collective communication.
//!
//! The model follows the classic α–β formulation used throughout the
//! distributed-training literature (and by the paper's scalability estimator):
//! a transfer of `b` bytes over a link with latency α and bandwidth β⁻¹ costs
//! `α + b·β`. Collectives use ring-algorithm volume factors and are bounded by
//! the *slowest* link class present in the participating group, which is what
//! makes crossing a device island expensive — the effect Spindle's device
//! placement (§3.5) is designed to avoid.

use std::sync::Arc;

use crate::link::ring_collective_time;
use crate::{ClusterSpec, DeviceGroup, DeviceId, LinkClass, NodeSpan};

/// Communication cost model over a specific cluster.
///
/// The model shares its cluster description and borrows nothing mutable;
/// create one per cluster and clone it freely.
#[derive(Debug, Clone)]
pub struct CommModel {
    cluster: Arc<ClusterSpec>,
}

impl CommModel {
    /// Creates a cost model for a copy of `cluster`.
    #[must_use]
    pub fn new(cluster: &ClusterSpec) -> Self {
        Self::shared(Arc::new(cluster.clone()))
    }

    /// Creates a cost model over a shared cluster description, copying
    /// nothing.
    #[must_use]
    pub fn shared(cluster: Arc<ClusterSpec>) -> Self {
        Self { cluster }
    }

    /// The cluster this model describes.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Link class of the slowest link inside `group` (the bottleneck for any
    /// collective spanning the whole group). Single-device groups are
    /// [`LinkClass::IntraDevice`].
    #[must_use]
    pub fn bottleneck_class(&self, group: &DeviceGroup) -> LinkClass {
        if group.len() <= 1 {
            return LinkClass::IntraDevice;
        }
        match self.cluster.is_intra_island(group) {
            Ok(true) => LinkClass::IntraIsland,
            _ => LinkClass::InterIsland,
        }
    }

    /// Time in seconds for a point-to-point transfer of `bytes` from `src` to
    /// `dst`. Unknown devices are treated conservatively as inter-island.
    #[must_use]
    pub fn p2p_time(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> f64 {
        let class = self
            .cluster
            .link_class(src, dst)
            .unwrap_or(LinkClass::InterIsland);
        self.cluster.interconnect().transfer_time(class, bytes)
    }

    /// Time in seconds to transfer `bytes` from a source group to a destination
    /// group (inter-wave data flow). The volume is assumed to be evenly sharded
    /// across the source devices; each shard travels over the worst link
    /// between the two groups, and shards move in parallel.
    #[must_use]
    pub fn group_transfer_time(&self, src: &DeviceGroup, dst: &DeviceGroup, bytes: u64) -> f64 {
        if src.is_empty() || dst.is_empty() || bytes == 0 {
            return 0.0;
        }
        let mut worst = LinkClass::IntraDevice;
        for s in src.iter() {
            // Pair each source device with the destination device it would
            // stream to (round-robin); track the worst link class involved.
            let idx = (s.index()) % dst.len();
            let d = dst.devices()[idx];
            let class = self
                .cluster
                .link_class(s, d)
                .unwrap_or(LinkClass::InterIsland);
            worst = worst.max(class);
            if worst == LinkClass::InterIsland {
                // No pair can be worse.
                break;
            }
        }
        let shard = (bytes as f64 / src.len() as f64).ceil() as u64;
        self.cluster.interconnect().transfer_time(worst, shard)
    }

    /// All-reduce time in seconds for `bytes` of data across `group`.
    ///
    /// Groups contained in one device island use a plain ring
    /// (volume factor `2·(n−1)/n` at NVLink bandwidth). Groups spanning
    /// several islands use the hierarchical algorithm NCCL applies on
    /// multi-node clusters: an intra-island reduce-scatter + all-gather of the
    /// full volume, plus an inter-island ring all-reduce of the per-device
    /// shard — far cheaper than pushing the whole volume through the network.
    /// Single-device groups cost nothing.
    #[must_use]
    pub fn all_reduce_time(&self, group: &DeviceGroup, bytes: u64) -> f64 {
        if group.len() <= 1 || bytes == 0 {
            return 0.0;
        }
        if self.bottleneck_class(group) != LinkClass::InterIsland {
            return self.ring_collective_time(group, bytes, 2.0);
        }
        NodeSpan::new(&self.cluster, group).all_reduce_time(self.cluster.interconnect(), bytes)
    }

    fn ring_collective_time(&self, group: &DeviceGroup, bytes: u64, volume_factor: f64) -> f64 {
        ring_collective_time(
            self.cluster.interconnect(),
            self.bottleneck_class(group),
            group.len(),
            bytes,
            volume_factor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterSpec;

    fn model(nodes: usize, gpus: usize) -> CommModel {
        CommModel::new(&ClusterSpec::homogeneous(nodes, gpus))
    }

    #[test]
    fn p2p_respects_link_hierarchy() {
        let m = model(2, 4);
        let b = 1u64 << 28;
        let local = m.p2p_time(DeviceId(0), DeviceId(0), b);
        let intra = m.p2p_time(DeviceId(0), DeviceId(1), b);
        let inter = m.p2p_time(DeviceId(0), DeviceId(4), b);
        assert!(local < intra);
        assert!(intra < inter);
    }

    #[test]
    fn all_reduce_zero_for_single_device() {
        let m = model(1, 8);
        let g = DeviceGroup::contiguous(DeviceId(0), 1);
        assert_eq!(m.all_reduce_time(&g, 1 << 30), 0.0);
    }

    #[test]
    fn all_reduce_cross_island_is_slower() {
        let m = model(2, 8);
        let intra = DeviceGroup::contiguous(DeviceId(0), 8);
        let cross = DeviceGroup::contiguous(DeviceId(4), 8);
        let b = 1u64 << 30;
        assert!(m.all_reduce_time(&intra, b) < m.all_reduce_time(&cross, b));
        assert_eq!(m.bottleneck_class(&intra), LinkClass::IntraIsland);
        assert_eq!(m.bottleneck_class(&cross), LinkClass::InterIsland);
    }

    #[test]
    fn all_reduce_costs_about_twice_a_one_pass_ring() {
        let m = model(1, 8);
        let g = DeviceGroup::contiguous(DeviceId(0), 8);
        let b = 1u64 << 30;
        let ar = m.all_reduce_time(&g, b);
        let ag = m.ring_collective_time(&g, b, 1.0);
        let ratio = ar / ag;
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn cross_island_all_reduce_is_hierarchical() {
        // A 16-GPU group spanning two islands must cost far less than pushing
        // the whole volume through the inter-island network, but more than the
        // same volume within one island.
        let m = model(2, 8);
        let b = 1u64 << 30;
        let intra = DeviceGroup::contiguous(DeviceId(0), 8);
        let cross = DeviceGroup::contiguous(DeviceId(0), 16);
        let t_intra = m.all_reduce_time(&intra, b);
        let t_cross = m.all_reduce_time(&cross, b);
        // Flat ring over the IB bottleneck would cost ~2 * bytes / 42 GB/s.
        let flat_ring_floor = 2.0 * (15.0 / 16.0) * b as f64 / 42.0e9;
        assert!(t_cross > t_intra);
        assert!(t_cross < flat_ring_floor, "{t_cross} vs {flat_ring_floor}");
    }

    #[test]
    fn collective_volume_saturates_with_group_size() {
        // (n-1)/n grows with n, so per-byte cost grows but stays bounded by 1.
        let m = model(4, 8);
        let b = 1u64 << 30;
        let g8 = DeviceGroup::contiguous(DeviceId(0), 8);
        let g16 = DeviceGroup::contiguous(DeviceId(0), 16);
        let g32 = DeviceGroup::contiguous(DeviceId(0), 32);
        let t8 = m.all_reduce_time(&g8, b);
        let t16 = m.all_reduce_time(&g16, b);
        let t32 = m.all_reduce_time(&g32, b);
        // 16 and 32 GPU groups cross islands so they are slower than 8.
        assert!(t16 > t8);
        // But the growth from 16 to 32 is modest (volume factor 15/16 -> 31/32).
        assert!(t32 / t16 < 1.5);
    }

    #[test]
    fn group_transfer_prefers_intra_island() {
        let m = model(2, 8);
        let src = DeviceGroup::contiguous(DeviceId(0), 4);
        let dst_near = DeviceGroup::contiguous(DeviceId(4), 4);
        let dst_far = DeviceGroup::contiguous(DeviceId(8), 4);
        let b = 64u64 << 20;
        assert!(
            m.group_transfer_time(&src, &dst_near, b) < m.group_transfer_time(&src, &dst_far, b)
        );
        assert_eq!(m.group_transfer_time(&src, &dst_far, 0), 0.0);
    }

    #[test]
    fn group_transfer_sharding_speeds_up_with_more_sources() {
        let m = model(2, 8);
        let src1 = DeviceGroup::contiguous(DeviceId(0), 1);
        let src4 = DeviceGroup::contiguous(DeviceId(0), 4);
        let dst = DeviceGroup::contiguous(DeviceId(8), 4);
        let b = 256u64 << 20;
        assert!(m.group_transfer_time(&src4, &dst, b) < m.group_transfer_time(&src1, &dst, b));
    }

    /// The all-reduce model as it was written before [`NodeSpan`]: devices
    /// per island counted in an ordered map per call.
    fn all_reduce_reference(m: &CommModel, group: &DeviceGroup, bytes: u64) -> f64 {
        if group.len() <= 1 || bytes == 0 {
            return 0.0;
        }
        if m.bottleneck_class(group) != LinkClass::InterIsland {
            return m.ring_collective_time(group, bytes, 2.0);
        }
        let ic = m.cluster.interconnect();
        let mut per_island: std::collections::BTreeMap<crate::NodeId, usize> =
            std::collections::BTreeMap::new();
        for d in group.iter() {
            if let Ok(node) = m.cluster.node_of(d) {
                *per_island.entry(node).or_insert(0) += 1;
            }
        }
        let islands = per_island.len().max(1);
        let local = per_island.values().copied().max().unwrap_or(1).max(1);
        let intra = if local > 1 {
            let steps = (local - 1) as f64;
            2.0 * steps * ic.latency(LinkClass::IntraIsland)
                + 2.0 * steps / local as f64 * bytes as f64 / ic.bandwidth(LinkClass::IntraIsland)
        } else {
            0.0
        };
        let shard = bytes as f64 / local as f64;
        let steps = (islands - 1) as f64;
        let inter = 2.0 * steps * ic.latency(LinkClass::InterIsland)
            + 2.0 * steps / islands as f64 * shard / ic.bandwidth(LinkClass::InterIsland);
        intra + inter
    }

    #[test]
    fn all_reduce_prices_bit_identically_to_the_ordered_map_reference() {
        // Four nodes of eight with holes; ids up to 40 include devices the
        // cluster lacks.
        let cluster = ClusterSpec::homogeneous(4, 8)
            .without_devices(&[DeviceId(3), DeviceId(17), DeviceId(18)])
            .unwrap();
        let m = CommModel::new(&cluster);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..2_000 {
            let len = 1 + next(20) as usize;
            let group: DeviceGroup = (0..len).map(|_| DeviceId(next(41) as u32)).collect();
            let bytes = next(1 << 32);
            let reference = all_reduce_reference(&m, &group, bytes);
            assert_eq!(
                m.all_reduce_time(&group, bytes).to_bits(),
                reference.to_bits(),
                "{group} x {bytes} bytes"
            );
            assert_eq!(
                m.all_reduce_time(&group.sorted(), bytes).to_bits(),
                all_reduce_reference(&m, &group.sorted(), bytes).to_bits()
            );
        }
    }

    #[test]
    fn cluster_accessor_roundtrips() {
        let c = ClusterSpec::homogeneous(2, 2);
        let m = CommModel::new(&c);
        assert_eq!(m.cluster(), &c);
    }
}
