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
    if src_nodes.len() == 1 && src_nodes == dst_nodes {
        // Same island: a pure NVLink transfer, unless it is one device talking
        // to itself (a local copy contends with nothing).
        let same_single_device = src.len() == 1 && dst.len() == 1 && src.devices() == dst.devices();
        return if same_single_device {
            Vec::new()
        } else {
            vec![LinkId::IslandBus(src_nodes[0])]
        };
    }
    // Ascending nodes give ascending links: every uplink sorts before every
    // downlink.
    let mut links = Vec::with_capacity(src_nodes.len() + dst_nodes.len());
    links.extend(src_nodes.iter().map(|&n| LinkId::Uplink(n)));
    links.extend(dst_nodes.iter().map(|&n| LinkId::Downlink(n)));
    links
}

/// The set of shared links an intra-group collective (e.g. the gradient
/// all-reduce of a parameter device group) occupies, sorted and
/// duplicate-free.
#[must_use]
pub fn collective_footprint(cluster: &ClusterSpec, group: &DeviceGroup) -> Vec<LinkId> {
    let nodes = nodes_of(cluster, group);
    match nodes[..] {
        [n] if group.len() > 1 => vec![LinkId::IslandBus(n)],
        [] | [_] => Vec::new(),
        _ => {
            // A hierarchical all-reduce touches every participating island's
            // fabric and both directions of its uplink (ring neighbours).
            let mut links = Vec::with_capacity(3 * nodes.len());
            links.extend(nodes.iter().map(|&n| LinkId::IslandBus(n)));
            links.extend(nodes.iter().map(|&n| LinkId::Uplink(n)));
            links.extend(nodes.iter().map(|&n| LinkId::Downlink(n)));
            links
        }
    }
}

/// The nodes hosting `group`'s devices, ascending and once each. Node ids
/// ascend with device ids, so a sorted group yields them in one pass; any
/// other order falls back to a sort.
fn nodes_of(cluster: &ClusterSpec, group: &DeviceGroup) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut ascending = true;
    for node in group.iter().filter_map(|d| cluster.node_of(d).ok()) {
        if let Some(&last) = nodes.last() {
            if last == node {
                continue;
            }
            ascending &= last < node;
        }
        nodes.push(node);
    }
    if !ascending {
        nodes.sort_unstable();
        nodes.dedup();
    }
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
/// with an id that is unique among the active flows. A flow's
/// [`congestion`](Self::congestion) can change only when a flow on one of
/// its links registers or releases, so a flow-level simulator reads
/// [`flows_on`](Self::flows_on) for the links of the flow that started or
/// ended and reprices only the flows it finds there. All operations are
/// deterministic.
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

    /// Registers flow `id` on every link of `footprint`. A link listed twice
    /// counts the flow twice, as if it were two flows.
    pub fn register(&mut self, id: usize, footprint: &[LinkId]) {
        for &link in footprint {
            let slot = slot(link);
            if slot >= self.slots.len() {
                self.slots.resize_with(slot + 1, Vec::new);
            }
            self.slots[slot].push(id);
        }
    }

    /// Releases flow `id` from the links of `footprint`, once per listing.
    ///
    /// Releasing a flow from a link it is not on is a no-op.
    pub fn release(&mut self, id: usize, footprint: &[LinkId]) {
        for &link in footprint {
            let Some(flows) = self.slots.get_mut(slot(link)) else {
                continue;
            };
            if let Some(at) = flows.iter().position(|&f| f == id) {
                flows.swap_remove(at);
            }
        }
    }

    /// The ids of the active flows on `link`, unordered; a flow registered
    /// with the link listed twice appears twice.
    #[must_use]
    pub fn flows_on(&self, link: LinkId) -> &[usize] {
        self.slots.get(slot(link)).map_or(&[], Vec::as_slice)
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
            .map(|&l| self.flows_on(l).len())
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
    fn footprints_of_unsorted_groups_match_sorted_ones() {
        let c = ClusterSpec::homogeneous(4, 4);
        let group = |ids: &[u32]| DeviceGroup::new(ids.iter().map(|&d| DeviceId(d))).unwrap();
        // Placement order need not be device order: nodes 3, 0, 3, 1.
        let shuffled = group(&[13, 1, 12, 5]);
        let sorted = shuffled.sorted();
        let dst = group(&[9, 2]);
        assert_eq!(
            collective_footprint(&c, &shuffled),
            collective_footprint(&c, &sorted)
        );
        let links = transfer_footprint(&c, &shuffled, &dst);
        assert_eq!(links, transfer_footprint(&c, &sorted, &dst.sorted()));
        assert_eq!(
            links,
            [0, 1, 3]
                .map(|n| LinkId::Uplink(NodeId(n)))
                .into_iter()
                .chain([0, 2].map(|n| LinkId::Downlink(NodeId(n))))
                .collect::<Vec<_>>()
        );
        let mut sorted_links = links.clone();
        sorted_links.sort_unstable();
        sorted_links.dedup();
        assert_eq!(links, sorted_links);
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
        assert_eq!(occ.congestion(&f1), 1);
        occ.register(0, &f1);
        occ.register(1, &f1);
        assert_eq!(occ.flows_on(LinkId::IslandBus(NodeId(0))), [0, 1]);
        assert_eq!(occ.congestion(&f1), 2);
        // The cross-island flow does not contend with the NVLink flows.
        occ.register(2, &f2);
        assert_eq!(occ.congestion(&f2), 1);
        occ.release(0, &f1);
        assert_eq!(occ.flows_on(LinkId::IslandBus(NodeId(0))), [1]);
        assert_eq!(occ.congestion(&f1), 1);
        occ.release(1, &f1);
        occ.release(1, &f1); // over-release is a no-op
        assert!(occ.flows_on(LinkId::IslandBus(NodeId(0))).is_empty());
        assert_eq!(occ.flows_on(LinkId::Uplink(NodeId(0))), [2]);
        assert_eq!(occ.congestion(&[]), 1);
    }

    #[test]
    fn a_link_listed_twice_counts_its_flow_twice() {
        let c = cluster();
        let mut occ = LinkOccupancy::for_cluster(&c);
        let up = LinkId::Uplink(NodeId(0));
        occ.register(5, &[up, LinkId::StorageSpine]);
        occ.register(11, &[LinkId::StorageSpine, LinkId::StorageSpine]);
        assert_eq!(occ.flows_on(LinkId::StorageSpine), [5, 11, 11]);
        assert_eq!(occ.congestion(&[up]), 1);
        assert_eq!(occ.congestion(&[up, LinkId::StorageSpine]), 3);
        occ.release(11, &[LinkId::StorageSpine, LinkId::StorageSpine]);
        assert_eq!(occ.flows_on(LinkId::StorageSpine), [5]);
    }

    #[test]
    fn links_beyond_the_cluster_grow_the_table() {
        let mut occ = LinkOccupancy::for_cluster(&cluster());
        let far = LinkId::StorageLink(NodeId(40));
        assert!(occ.flows_on(far).is_empty());
        occ.register(0, &[far]);
        occ.register(1, &[far]);
        assert_eq!(occ.flows_on(far), [0, 1]);
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
