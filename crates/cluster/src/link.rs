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
//!
//! A group's footprint and its collective price both depend only on the
//! nodes it spans, so [`NodeSpan`] finds those in one pass over the group's
//! devices and derives both.

use crate::{ClusterSpec, DeviceGroup, DeviceId, InterconnectSpec, LinkClass, NodeId};

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

/// Per-node links of [`LinkId`]: island bus, uplink, downlink and storage
/// link.
const LINKS_PER_NODE: usize = 4;

impl LinkId {
    /// The link's slot in a dense per-link table such as
    /// [`LinkOccupancy`]: the storage spine first, then the four links of
    /// each node (island bus, uplink, downlink, storage link) in node order.
    /// Distinct links never share a slot.
    #[must_use]
    pub fn slot(self) -> u32 {
        let (node, kind) = match self {
            LinkId::StorageSpine => return 0,
            LinkId::IslandBus(n) => (n, 0),
            LinkId::Uplink(n) => (n, 1),
            LinkId::Downlink(n) => (n, 2),
            LinkId::StorageLink(n) => (n, 3),
        };
        (1 + node.index() * LINKS_PER_NODE + kind) as u32
    }
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

/// The nodes one device group spans, found in one pass over its devices:
/// everything a group's link footprint and its all-reduce price depend on.
///
/// Devices the cluster does not contain count towards the group's size but
/// span no node.
#[derive(Debug, Clone, Default)]
pub struct NodeSpan {
    /// The nodes hosting the group's devices, ascending and once each.
    nodes: Vec<NodeId>,
    /// Devices in the group.
    devices: usize,
    /// Most devices on one node.
    busiest: usize,
    /// Whether every device is in the cluster.
    complete: bool,
    /// The group's device when it has exactly one.
    only: Option<DeviceId>,
    /// Devices per node while a span is being filled, by node index; all
    /// zero in between.
    counts: Vec<u32>,
}

impl PartialEq for NodeSpan {
    fn eq(&self, other: &Self) -> bool {
        // `counts` is scratch space.
        (
            &self.nodes,
            self.devices,
            self.busiest,
            self.complete,
            self.only,
        ) == (
            &other.nodes,
            other.devices,
            other.busiest,
            other.complete,
            other.only,
        )
    }
}

impl Eq for NodeSpan {}

impl NodeSpan {
    /// The span of `group` on `cluster`.
    #[must_use]
    pub fn new(cluster: &ClusterSpec, group: &DeviceGroup) -> Self {
        let mut span = Self::default();
        span.fill(cluster, group.devices());
        span
    }

    /// Recomputes the span for `devices` (no repeats), reusing this span's
    /// buffers.
    pub fn fill(&mut self, cluster: &ClusterSpec, devices: &[DeviceId]) {
        self.nodes.clear();
        self.devices = devices.len();
        self.only = match devices {
            [d] => Some(*d),
            _ => None,
        };
        self.complete = true;
        // Node ids ascend with device ids, so a sorted group meets its
        // nodes in order; any other order sorts the distinct nodes.
        let mut ascending = true;
        for &d in devices {
            let Ok(node) = cluster.node_of(d) else {
                self.complete = false;
                continue;
            };
            let n = node.index();
            if n >= self.counts.len() {
                self.counts.resize(n + 1, 0);
            }
            if self.counts[n] == 0 {
                if let Some(&last) = self.nodes.last() {
                    ascending &= last < node;
                }
                self.nodes.push(node);
            }
            self.counts[n] += 1;
        }
        if !ascending {
            self.nodes.sort_unstable();
        }
        self.busiest = 0;
        for node in &self.nodes {
            let count = std::mem::take(&mut self.counts[node.index()]);
            self.busiest = self.busiest.max(count as usize);
        }
    }

    /// The nodes hosting the group's devices, ascending and once each.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// All-reduce time in seconds for `bytes` across the group on
    /// `interconnect` — the model [`CommModel::all_reduce_time`] documents.
    ///
    /// [`CommModel::all_reduce_time`]: crate::CommModel::all_reduce_time
    #[must_use]
    pub fn all_reduce_time(&self, interconnect: &InterconnectSpec, bytes: u64) -> f64 {
        if self.devices <= 1 || bytes == 0 {
            return 0.0;
        }
        if self.complete && self.nodes.len() == 1 {
            return ring_collective_time(
                interconnect,
                LinkClass::IntraIsland,
                self.devices,
                bytes,
                2.0,
            );
        }
        let ic = interconnect;
        let islands = self.nodes.len().max(1);
        let local = self.busiest.max(1);
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

    /// Appends the links an intra-group collective (e.g. the gradient
    /// all-reduce of a parameter device group) over this span occupies,
    /// sorted and duplicate-free.
    pub fn collective_links(&self, out: &mut Vec<LinkId>) {
        match self.nodes[..] {
            [n] if self.devices > 1 => out.push(LinkId::IslandBus(n)),
            [] | [_] => {}
            _ => {
                // A hierarchical all-reduce touches every participating
                // island's fabric and both directions of its uplink (ring
                // neighbours).
                out.extend(self.nodes.iter().map(|&n| LinkId::IslandBus(n)));
                out.extend(self.nodes.iter().map(|&n| LinkId::Uplink(n)));
                out.extend(self.nodes.iter().map(|&n| LinkId::Downlink(n)));
            }
        }
    }

    /// Appends the links a transfer from `src` to `dst` occupies, sorted and
    /// duplicate-free.
    pub fn transfer_links(src: &NodeSpan, dst: &NodeSpan, out: &mut Vec<LinkId>) {
        if src.nodes.len() == 1 && src.nodes == dst.nodes {
            // Same island: a pure NVLink transfer, unless it is one device
            // talking to itself (a local copy contends with nothing).
            if src.only.is_none() || src.only != dst.only {
                out.push(LinkId::IslandBus(src.nodes[0]));
            }
            return;
        }
        // Ascending nodes give ascending links: every uplink sorts before
        // every downlink.
        out.extend(src.nodes.iter().map(|&n| LinkId::Uplink(n)));
        out.extend(dst.nodes.iter().map(|&n| LinkId::Downlink(n)));
    }
}

/// Ring collective time in seconds for `bytes` across `n` devices whose
/// slowest link is of `class`, moving `volume_factor · (n−1)/n` of the data.
pub(crate) fn ring_collective_time(
    ic: &InterconnectSpec,
    class: LinkClass,
    n: usize,
    bytes: u64,
    volume_factor: f64,
) -> f64 {
    if n <= 1 || bytes == 0 {
        return 0.0;
    }
    let steps = (n - 1) as f64;
    let volume = volume_factor * steps / n as f64 * bytes as f64;
    // Each of the (n-1) steps pays the per-message latency once.
    steps * ic.latency(class) * if volume_factor > 1.0 { 2.0 } else { 1.0 }
        + volume / ic.bandwidth(class)
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
    let mut links = Vec::new();
    NodeSpan::transfer_links(
        &NodeSpan::new(cluster, src),
        &NodeSpan::new(cluster, dst),
        &mut links,
    );
    links
}

/// The set of shared links an intra-group collective (e.g. the gradient
/// all-reduce of a parameter device group) occupies, sorted and
/// duplicate-free.
#[must_use]
pub fn collective_footprint(cluster: &ClusterSpec, group: &DeviceGroup) -> Vec<LinkId> {
    let mut links = Vec::new();
    NodeSpan::new(cluster, group).collective_links(&mut links);
    links
}

/// Tracks which active flows occupy each shared link.
///
/// A table indexed by [`LinkId::slot`], sized from the cluster, lists the
/// ids of the flows on each link; the list's length is the link's flow
/// count. Footprints are given as link slots. Callers name each flow with
/// an id that is unique among the active flows. A flow's
/// [`congestion`](Self::congestion) can change only when a flow on one of
/// its links registers or releases, so a flow-level simulator reads
/// [`flows_on`](Self::flows_on) for the links of the flow that started or
/// ended and reprices only the flows it finds there. All operations are
/// deterministic.
#[derive(Debug, Clone)]
pub struct LinkOccupancy {
    slots: Vec<Vec<u32>>,
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

    /// Registers flow `id` on every link slot of `footprint`. A slot listed
    /// twice counts the flow twice, as if it were two flows.
    pub fn register(&mut self, id: u32, footprint: &[u32]) {
        for &slot in footprint {
            let slot = slot as usize;
            if slot >= self.slots.len() {
                self.slots.resize_with(slot + 1, Vec::new);
            }
            self.slots[slot].push(id);
        }
    }

    /// Releases flow `id` from the link slots of `footprint`, once per
    /// listing.
    ///
    /// Releasing a flow from a link it is not on is a no-op.
    pub fn release(&mut self, id: u32, footprint: &[u32]) {
        for &slot in footprint {
            let Some(flows) = self.slots.get_mut(slot as usize) else {
                continue;
            };
            if let Some(at) = flows.iter().position(|&f| f == id) {
                flows.swap_remove(at);
            }
        }
    }

    /// The ids of the active flows on link slot `slot`, unordered; a flow
    /// registered with the slot listed twice appears twice.
    #[must_use]
    pub fn flows_on(&self, slot: u32) -> &[u32] {
        self.slots.get(slot as usize).map_or(&[], Vec::as_slice)
    }

    /// Worst-case congestion over `footprint`: the maximum number of
    /// concurrent flows on any of its link slots, at least 1 (a flow always
    /// has itself). A registered flow asking about its own footprint
    /// therefore gets `1` when it runs alone and `k` when `k` flows share
    /// its most contended link.
    #[must_use]
    pub fn congestion(&self, footprint: &[u32]) -> u32 {
        footprint
            .iter()
            .map(|&slot| self.flows_on(slot).len() as u32)
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

    /// The link slots of `footprint`.
    fn slots(footprint: &[LinkId]) -> Vec<u32> {
        footprint.iter().map(|l| l.slot()).collect()
    }

    #[test]
    fn occupancy_counts_and_saturates() {
        let c = cluster();
        let src = DeviceGroup::contiguous(DeviceId(0), 2);
        let near = DeviceGroup::contiguous(DeviceId(2), 2);
        let far = DeviceGroup::contiguous(DeviceId(4), 2);
        let f1 = slots(&transfer_footprint(&c, &src, &near));
        let f2 = slots(&transfer_footprint(&c, &src, &far));
        let bus = LinkId::IslandBus(NodeId(0)).slot();
        let mut occ = LinkOccupancy::for_cluster(&c);
        assert_eq!(occ.congestion(&f1), 1);
        occ.register(0, &f1);
        occ.register(1, &f1);
        assert_eq!(occ.flows_on(bus), [0, 1]);
        assert_eq!(occ.congestion(&f1), 2);
        // The cross-island flow does not contend with the NVLink flows.
        occ.register(2, &f2);
        assert_eq!(occ.congestion(&f2), 1);
        occ.release(0, &f1);
        assert_eq!(occ.flows_on(bus), [1]);
        assert_eq!(occ.congestion(&f1), 1);
        occ.release(1, &f1);
        occ.release(1, &f1); // over-release is a no-op
        assert!(occ.flows_on(bus).is_empty());
        assert_eq!(occ.flows_on(LinkId::Uplink(NodeId(0)).slot()), [2]);
        assert_eq!(occ.congestion(&[]), 1);
    }

    #[test]
    fn a_link_listed_twice_counts_its_flow_twice() {
        let c = cluster();
        let mut occ = LinkOccupancy::for_cluster(&c);
        let up = LinkId::Uplink(NodeId(0)).slot();
        let spine = LinkId::StorageSpine.slot();
        occ.register(5, &[up, spine]);
        occ.register(11, &[spine, spine]);
        assert_eq!(occ.flows_on(spine), [5, 11, 11]);
        assert_eq!(occ.congestion(&[up]), 1);
        assert_eq!(occ.congestion(&[up, spine]), 3);
        occ.release(11, &[spine, spine]);
        assert_eq!(occ.flows_on(spine), [5]);
    }

    #[test]
    fn links_beyond_the_cluster_grow_the_table() {
        let mut occ = LinkOccupancy::for_cluster(&cluster());
        let far = LinkId::StorageLink(NodeId(40)).slot();
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
        let mut slots = slots(&links);
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), links.len());
    }

    #[test]
    fn node_spans_count_nodes_whatever_the_device_order() {
        let c = ClusterSpec::homogeneous(4, 4);
        let group = |ids: &[u32]| DeviceGroup::new(ids.iter().map(|&d| DeviceId(d))).unwrap();
        // Nodes 3, 0, 3, 1, 3: node 3 hosts three of the five devices.
        let shuffled = group(&[13, 1, 12, 5, 14]);
        let span = NodeSpan::new(&c, &shuffled);
        assert_eq!(span, NodeSpan::new(&c, &shuffled.sorted()));
        assert_eq!(span.nodes(), [NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(span.busiest, 3);
        assert!(span.complete);
        // A device the cluster lacks spans no node and breaks completeness.
        let stray = NodeSpan::new(&c, &group(&[2, 3, 99]));
        assert_eq!(stray.nodes(), [NodeId(0)]);
        assert_eq!(
            (stray.devices, stray.busiest, stray.complete),
            (3, 2, false)
        );
        // One refilled span matches a fresh one.
        let mut reused = span.clone();
        reused.fill(&c, group(&[7]).devices());
        assert_eq!(reused, NodeSpan::new(&c, &group(&[7])));
        assert_eq!(reused.only, Some(DeviceId(7)));
    }

    #[test]
    fn link_display_is_compact() {
        assert_eq!(LinkId::IslandBus(NodeId(0)).to_string(), "bus:node0");
        assert_eq!(LinkId::Uplink(NodeId(1)).to_string(), "up:node1");
        assert_eq!(LinkId::Downlink(NodeId(2)).to_string(), "down:node2");
    }
}
