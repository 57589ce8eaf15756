//! Shared-link occupancy: the contention model consumed by the event-driven
//! runtime simulator.
//!
//! The analytic [`CommModel`](crate::CommModel) prices every transfer as if it
//! ran alone on the wire. Real clusters are not so polite: several concurrent
//! flows crossing the same NVLink fabric or the same node's network uplink
//! share its bandwidth. This module gives transfers an explicit *link
//! footprint* — the set of shared physical resources a flow occupies — and a
//! [`LinkOccupancy`] tracker that reports, for any footprint, the worst
//! congestion (number of concurrent flows) on any of its links. A flow-level
//! simulator divides the flow's nominal bandwidth by that congestion factor,
//! which is the classic equal-share approximation of max-min fairness.

use crate::{ClusterSpec, DeviceGroup, NodeId};

/// One shared physical communication resource of the cluster.
///
/// The granularity matches what the simulator needs to express the two
/// contention effects that matter for wave execution: intra-island transfers
/// contending on a node's NVLink fabric, and inter-island transfers contending
/// on a node's network uplink/downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkId {
    /// The NVLink/NVSwitch fabric of one node (island). All intra-island
    /// transfers on that node share it.
    IslandBus(NodeId),
    /// The egress side of a node's inter-island network interface.
    Uplink(NodeId),
    /// The ingress side of a node's inter-island network interface.
    Downlink(NodeId),
    /// A node's link to the checkpoint storage fabric (see
    /// [`StorageSpec`](crate::StorageSpec)). Checkpoint writes and restores
    /// of that node's devices share it.
    StorageLink(NodeId),
    /// The shared storage spine every storage transfer crosses — the
    /// oversubscription point of the checkpoint tier.
    StorageSpine,
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkId::IslandBus(n) => write!(f, "bus:{n}"),
            LinkId::Uplink(n) => write!(f, "up:{n}"),
            LinkId::Downlink(n) => write!(f, "down:{n}"),
            LinkId::StorageLink(n) => write!(f, "store:{n}"),
            LinkId::StorageSpine => write!(f, "spine"),
        }
    }
}

/// The set of shared links a group-to-group transfer occupies.
///
/// Empty footprints (single-device or intra-device transfers) never contend.
/// The footprint is sorted and duplicate-free so footprints compare and hash
/// deterministically.
#[must_use]
pub fn transfer_footprint(
    cluster: &ClusterSpec,
    src: &DeviceGroup,
    dst: &DeviceGroup,
) -> Vec<LinkId> {
    let src_nodes = nodes_of(cluster, src);
    let dst_nodes = nodes_of(cluster, dst);
    let mut links = Vec::new();
    if src_nodes.len() == 1 && src_nodes == dst_nodes {
        // Same island: a pure NVLink transfer, unless it is one device talking
        // to itself (a local copy contends with nothing).
        let same_single_device = src.len() == 1 && dst.len() == 1 && src.devices() == dst.devices();
        if !same_single_device {
            links.push(LinkId::IslandBus(src_nodes[0]));
        }
    } else {
        for &n in &src_nodes {
            links.push(LinkId::Uplink(n));
        }
        for &n in &dst_nodes {
            links.push(LinkId::Downlink(n));
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

/// The set of shared links an intra-group collective (e.g. the gradient
/// all-reduce of a parameter device group) occupies.
#[must_use]
pub fn collective_footprint(cluster: &ClusterSpec, group: &DeviceGroup) -> Vec<LinkId> {
    let nodes = nodes_of(cluster, group);
    let mut links = Vec::new();
    if nodes.len() <= 1 {
        if group.len() > 1 {
            if let Some(&n) = nodes.first() {
                links.push(LinkId::IslandBus(n));
            }
        }
    } else {
        // A hierarchical all-reduce touches every participating island's
        // fabric and both directions of its uplink (ring neighbours).
        for &n in &nodes {
            links.push(LinkId::IslandBus(n));
            links.push(LinkId::Uplink(n));
            links.push(LinkId::Downlink(n));
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

fn nodes_of(cluster: &ClusterSpec, group: &DeviceGroup) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = group
        .iter()
        .filter_map(|d| cluster.node_of(d).ok())
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Per-node links of [`LinkId`]: island bus, uplink, downlink and storage
/// link.
const LINKS_PER_NODE: usize = 4;

/// The dense table slot of `link`: the storage spine first, then the
/// [`LINKS_PER_NODE`] links of each node in node order.
fn slot(link: LinkId) -> usize {
    let (node, kind) = match link {
        LinkId::StorageSpine => return 0,
        LinkId::IslandBus(n) => (n, 0),
        LinkId::Uplink(n) => (n, 1),
        LinkId::Downlink(n) => (n, 2),
        LinkId::StorageLink(n) => (n, 3),
    };
    1 + node.index() * LINKS_PER_NODE + kind
}

/// Tracks which active flows occupy each shared link.
///
/// Every [`LinkId`] maps to a slot of a dense table sized from the cluster;
/// a slot lists the ids of the flows on its link. Callers name each flow
/// with an id that is unique among the active flows. Registering or
/// releasing a flow reports the other flows that share a link with it —
/// exactly the flows whose [`congestion`](Self::congestion) that call can
/// change — so a flow-level simulator reprices only those. All operations
/// are deterministic.
#[derive(Debug, Clone)]
pub struct LinkOccupancy {
    slots: Vec<Vec<usize>>,
}

impl LinkOccupancy {
    /// Creates an empty tracker with a slot for every link of `cluster`.
    /// Links of nodes beyond the cluster still work: the table grows on
    /// first use.
    #[must_use]
    pub fn for_cluster(cluster: &ClusterSpec) -> Self {
        Self {
            slots: vec![Vec::new(); 1 + cluster.num_nodes() * LINKS_PER_NODE],
        }
    }

    /// Registers flow `id` on every link of `footprint` and appends to
    /// `sharers` the other flows already on those links — once per shared
    /// link, unsorted. A link listed twice counts the flow twice, as if it
    /// were two flows.
    pub fn register(&mut self, id: usize, footprint: &[LinkId], sharers: &mut Vec<usize>) {
        for &link in footprint {
            let slot = slot(link);
            if slot >= self.slots.len() {
                self.slots.resize_with(slot + 1, Vec::new);
            }
            let flows = &mut self.slots[slot];
            sharers.extend(flows.iter().filter(|&&f| f != id));
            flows.push(id);
        }
    }

    /// Releases flow `id` from the links of `footprint` and appends to
    /// `sharers` the flows still on those links — once per released link,
    /// unsorted.
    ///
    /// Releasing a flow from a link it is not on is a no-op.
    pub fn release(&mut self, id: usize, footprint: &[LinkId], sharers: &mut Vec<usize>) {
        for &link in footprint {
            let Some(flows) = self.slots.get_mut(slot(link)) else {
                continue;
            };
            if let Some(at) = flows.iter().position(|&f| f == id) {
                flows.swap_remove(at);
                sharers.extend(flows.iter().filter(|&&f| f != id));
            }
        }
    }

    /// Number of active flows on `link`.
    #[must_use]
    pub fn flows_on(&self, link: LinkId) -> usize {
        self.slots.get(slot(link)).map_or(0, Vec::len)
    }

    /// Worst-case congestion over `footprint`: the maximum number of
    /// concurrent flows on any of its links, at least 1 (a flow always has
    /// itself). A registered flow asking about its own footprint therefore
    /// gets `1` when it runs alone and `k` when `k` flows share its most
    /// contended link.
    #[must_use]
    pub fn congestion(&self, footprint: &[LinkId]) -> usize {
        footprint
            .iter()
            .map(|&l| self.flows_on(l))
            .max()
            .unwrap_or(0)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceId;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 4)
    }

    #[test]
    fn intra_island_transfer_occupies_the_island_bus() {
        let c = cluster();
        let src = DeviceGroup::contiguous(DeviceId(0), 2);
        let dst = DeviceGroup::contiguous(DeviceId(2), 2);
        assert_eq!(
            transfer_footprint(&c, &src, &dst),
            vec![LinkId::IslandBus(NodeId(0))]
        );
    }

    #[test]
    fn self_transfer_contends_with_nothing() {
        let c = cluster();
        let g = DeviceGroup::contiguous(DeviceId(1), 1);
        assert!(transfer_footprint(&c, &g, &g).is_empty());
    }

    #[test]
    fn cross_island_transfer_occupies_uplink_and_downlink() {
        let c = cluster();
        let src = DeviceGroup::contiguous(DeviceId(0), 2);
        let dst = DeviceGroup::contiguous(DeviceId(4), 2);
        assert_eq!(
            transfer_footprint(&c, &src, &dst),
            vec![LinkId::Uplink(NodeId(0)), LinkId::Downlink(NodeId(1))]
        );
    }

    #[test]
    fn collective_footprints_scale_with_span() {
        let c = cluster();
        let single = DeviceGroup::contiguous(DeviceId(0), 1);
        assert!(collective_footprint(&c, &single).is_empty());
        let intra = DeviceGroup::contiguous(DeviceId(0), 4);
        assert_eq!(
            collective_footprint(&c, &intra),
            vec![LinkId::IslandBus(NodeId(0))]
        );
        let cross = DeviceGroup::contiguous(DeviceId(2), 4);
        let links = collective_footprint(&c, &cross);
        assert_eq!(links.len(), 6); // bus + up + down per island
        assert!(links.contains(&LinkId::Uplink(NodeId(1))));
    }

    #[test]
    fn occupancy_counts_and_saturates() {
        let c = cluster();
        let src = DeviceGroup::contiguous(DeviceId(0), 2);
        let near = DeviceGroup::contiguous(DeviceId(2), 2);
        let far = DeviceGroup::contiguous(DeviceId(4), 2);
        let f1 = transfer_footprint(&c, &src, &near);
        let f2 = transfer_footprint(&c, &src, &far);
        let mut occ = LinkOccupancy::for_cluster(&c);
        let mut sharers = Vec::new();
        assert_eq!(occ.congestion(&f1), 1);
        occ.register(0, &f1, &mut sharers);
        assert!(sharers.is_empty());
        occ.register(1, &f1, &mut sharers);
        assert_eq!(sharers, [0]);
        assert_eq!(occ.congestion(&f1), 2);
        // The cross-island flow does not contend with the NVLink flows.
        sharers.clear();
        occ.register(2, &f2, &mut sharers);
        assert!(sharers.is_empty());
        assert_eq!(occ.congestion(&f2), 1);
        occ.release(0, &f1, &mut sharers);
        assert_eq!(sharers, [1]);
        assert_eq!(occ.congestion(&f1), 1);
        sharers.clear();
        occ.release(1, &f1, &mut sharers);
        occ.release(1, &f1, &mut sharers); // over-release is a no-op
        assert!(sharers.is_empty());
        assert_eq!(occ.flows_on(LinkId::IslandBus(NodeId(0))), 0);
        assert_eq!(occ.flows_on(LinkId::Uplink(NodeId(0))), 1);
        assert_eq!(occ.congestion(&[]), 1);
    }

    #[test]
    fn sharers_are_reported_once_per_shared_link() {
        let c = cluster();
        let mut occ = LinkOccupancy::for_cluster(&c);
        let mut sharers = Vec::new();
        let up = LinkId::Uplink(NodeId(0));
        let down = LinkId::Downlink(NodeId(1));
        occ.register(7, &[up, down], &mut sharers);
        occ.register(3, &[up], &mut sharers);
        occ.register(5, &[down, LinkId::StorageSpine], &mut sharers);
        assert_eq!(sharers, [7, 7]);
        // Flow 9 shares its uplink with 7 and 3 and its downlink with 7 and
        // 5: the report has one entry per (link, flow) pair.
        sharers.clear();
        occ.register(9, &[up, down], &mut sharers);
        sharers.sort_unstable();
        assert_eq!(sharers, [3, 5, 7, 7]);
        sharers.clear();
        occ.release(7, &[up, down], &mut sharers);
        sharers.sort_unstable();
        assert_eq!(sharers, [3, 5, 9, 9]);
        assert_eq!(occ.congestion(&[up, down]), 2);
        // A link listed twice counts its flow twice and never reports it as
        // its own sharer.
        sharers.clear();
        occ.register(
            11,
            &[LinkId::StorageSpine, LinkId::StorageSpine],
            &mut sharers,
        );
        assert_eq!(sharers, [5, 5]);
        assert_eq!(occ.flows_on(LinkId::StorageSpine), 3);
        sharers.clear();
        occ.release(
            11,
            &[LinkId::StorageSpine, LinkId::StorageSpine],
            &mut sharers,
        );
        assert_eq!(sharers, [5, 5]);
        assert_eq!(occ.flows_on(LinkId::StorageSpine), 1);
    }

    #[test]
    fn links_beyond_the_cluster_grow_the_table() {
        let mut occ = LinkOccupancy::for_cluster(&cluster());
        let mut sharers = Vec::new();
        let far = LinkId::StorageLink(NodeId(40));
        assert_eq!(occ.flows_on(far), 0);
        occ.register(0, &[far], &mut sharers);
        occ.register(1, &[far], &mut sharers);
        assert_eq!(sharers, [0]);
        assert_eq!(occ.congestion(&[far]), 2);
        // Distinct links never share a slot.
        let links = [
            LinkId::StorageSpine,
            LinkId::IslandBus(NodeId(1)),
            LinkId::Uplink(NodeId(1)),
            LinkId::Downlink(NodeId(1)),
            LinkId::StorageLink(NodeId(1)),
            LinkId::IslandBus(NodeId(2)),
        ];
        let mut slots: Vec<usize> = links.iter().map(|&l| slot(l)).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), links.len());
    }

    #[test]
    fn link_display_is_compact() {
        assert_eq!(LinkId::IslandBus(NodeId(0)).to_string(), "bus:node0");
        assert_eq!(LinkId::Uplink(NodeId(1)).to_string(), "up:node1");
        assert_eq!(LinkId::Downlink(NodeId(2)).to_string(), "down:node2");
    }
}
