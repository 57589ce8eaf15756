//! The checkpoint storage tier: per-node storage links behind a shared,
//! possibly oversubscribed spine.
//!
//! Checkpoint writes and restores do not ride the compute fabric the waves
//! train over — they leave each node through a dedicated storage link and
//! converge on a shared storage spine (a parallel filesystem or object
//! store front-end). The spine's aggregate bandwidth is typically *smaller*
//! than the sum of the node links (oversubscription), so a cluster-wide
//! checkpoint or a mass restore contends there even when every node link
//! still has headroom. [`StorageSpec`] models both stages; together with the
//! [`LinkId::StorageLink`](crate::LinkId::StorageLink) /
//! [`LinkId::StorageSpine`](crate::LinkId::StorageSpine) footprint links it
//! plugs into the same equal-share occupancy model the runtime simulator uses
//! for training traffic.

/// Bandwidth/latency model of the checkpoint storage tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageSpec {
    /// Bandwidth of one node's link to the storage fabric, bytes/s.
    pub node_bandwidth: f64,
    /// Aggregate bandwidth of the shared storage spine, bytes/s. When this is
    /// below `num_nodes * node_bandwidth` the tier is oversubscribed and
    /// concurrent many-node transfers bottleneck here.
    pub spine_bandwidth: f64,
    /// Fixed per-transfer latency (request setup, metadata), seconds.
    pub latency_s: f64,
}

impl StorageSpec {
    /// A disaggregated NVMe-over-fabric tier: 8 GB/s per node link behind a
    /// 32 GB/s spine (2x oversubscribed at the paper's 8-node testbed scale),
    /// 2 ms setup latency.
    #[must_use]
    pub fn disaggregated_nvme() -> Self {
        Self {
            node_bandwidth: 8e9,
            spine_bandwidth: 32e9,
            latency_s: 2e-3,
        }
    }

    /// Bandwidth a single transfer sees with the tier otherwise idle: the
    /// minimum of its node link and the whole spine.
    #[must_use]
    pub fn lone_bandwidth(&self) -> f64 {
        self.node_bandwidth.min(self.spine_bandwidth).max(1.0)
    }

    /// Time for one transfer of `bytes` with the tier otherwise idle.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.lone_bandwidth()
    }

    /// Slowdown factor (>= 1) of one flow versus [`Self::transfer_time`],
    /// given `node_flows` concurrent flows on its node's storage link and
    /// `spine_flows` concurrent flows on the spine (both counts include the
    /// flow itself). Each stage shares equally; the flow runs at the rate of
    /// its most contended stage, so the spine only becomes the bottleneck
    /// once `spine_flows` exceeds the spine-to-node bandwidth ratio — the
    /// oversubscription knee.
    #[must_use]
    pub fn slowdown(&self, node_flows: usize, spine_flows: usize) -> f64 {
        let lone = self.lone_bandwidth();
        let node_limited = node_flows as f64 * lone / self.node_bandwidth.max(1.0);
        let spine_limited = spine_flows as f64 * lone / self.spine_bandwidth.max(1.0);
        node_limited.max(spine_limited).max(1.0)
    }
}

impl Default for StorageSpec {
    fn default() -> Self {
        Self::disaggregated_nvme()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_transfer_is_node_link_limited() {
        let s = StorageSpec::disaggregated_nvme();
        let t = s.transfer_time(8_000_000_000);
        assert!((t - (s.latency_s + 1.0)).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn slowdown_has_an_oversubscription_knee() {
        let s = StorageSpec::disaggregated_nvme();
        // Spine/node ratio is 4: up to 4 single-per-node flows share nothing.
        assert_eq!(s.slowdown(1, 1), 1.0);
        assert_eq!(s.slowdown(1, 4), 1.0);
        // Beyond the ratio the spine is the bottleneck even with idle node
        // links.
        assert!((s.slowdown(1, 8) - 2.0).abs() < 1e-12);
        // Node-link sharing dominates when flows pile onto one node.
        assert!((s.slowdown(3, 3) - 3.0).abs() < 1e-12);
    }
}
