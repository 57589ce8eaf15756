//! Plan localisation (§3.6 steps 1–3): what the simulator needs before it
//! can run a placed plan, built and priced once per plan.
//!
//! Those are the wave entries bound to their device groups (step 1, implicit
//! in the placed plan), the inter-wave transmission operators with the wave
//! boundary each one crosses (step 2), and the parameter device-group pool
//! (step 3). [`LocalizedPlan`] derives all three and prices them here, not
//! in the runs: every transmission's round trip (the cost model's
//! [`Transmission::round_trip_time`](crate::Transmission::round_trip_time))
//! and every group's all-reduce, each with the link slots it occupies under
//! contention, read from one node-span pass per device group. Every run of
//! the plan — [`LocalizedPlan::run`] under any
//! [`SimConfig`](crate::SimConfig) — reads those prices, and the
//! closed-form iteration time adds them up without events: the reference
//! the serialized simulator is cross-checked against.

use std::sync::Arc;

use spindle_cluster::{ClusterSpec, CommModel, NodeSpan};
use spindle_core::{ExecutionPlan, PlanError};
use spindle_graph::ComputationGraph;

use crate::param_groups::ParamGroupPool;
use crate::sim::IntoShared;
use crate::transmission::{derive_transmission_sites, TransmissionSite};
use crate::RuntimeError;

/// A validated, localised and priced execution plan: transmissions resolved
/// per wave boundary, the parameter device-group pool built, and every
/// transmission and all-reduce priced with its link footprint.
///
/// The plan's flows are numbered as the simulator issues them: transmission
/// site `i` is flow `i`, and parameter group `g` is flow `sites().len() + g`.
#[derive(Debug, Clone)]
pub struct LocalizedPlan {
    plan: Arc<ExecutionPlan>,
    cluster: Arc<ClusterSpec>,
    sites: Vec<TransmissionSite>,
    /// Site indices by the wave boundary they cross: boundary `w`'s are
    /// `boundary_sites[boundary_at[w]..boundary_at[w + 1]]`, ascending.
    boundary_at: Vec<u32>,
    boundary_sites: Vec<u32>,
    pool: ParamGroupPool,
    /// Nominal service seconds of every flow: each site's round trip, then
    /// each group's all-reduce.
    flow_s: Vec<f64>,
    /// Link slots of every flow: flow `f` occupies
    /// `slots[slots_at[f]..slots_at[f + 1]]`.
    slots_at: Vec<u32>,
    slots: Vec<u32>,
}

impl LocalizedPlan {
    /// Localises and prices `plan` for execution on `cluster`, which is
    /// taken by value, by `Arc` or by reference (cloning).
    ///
    /// When the original computation graph is supplied, the parameter pool
    /// captures cross-task parameter sharing exactly; without it, the
    /// per-MetaOp approximation is used.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPlan`] if the plan fails validation,
    /// lacks placement or places an entry on a device the cluster does not
    /// contain ([`PlanError::PlacementOutOfRange`] names the first such
    /// device), and [`RuntimeError::ClusterMismatch`] if the plan was built
    /// for more devices than the cluster has.
    pub fn new(
        plan: Arc<ExecutionPlan>,
        cluster: impl IntoShared<ClusterSpec>,
        graph: Option<&ComputationGraph>,
    ) -> Result<Self, RuntimeError> {
        let cluster = cluster.into_shared();
        plan.validate()?;
        plan.require_placement()?;
        let cluster_devices = cluster.num_devices() as u32;
        if plan.num_devices() > cluster_devices {
            return Err(RuntimeError::ClusterMismatch {
                plan_devices: plan.num_devices(),
                cluster_devices,
            });
        }
        // The simulator indexes per-device state by id over the cluster's
        // device space, so every placed device must exist in the cluster.
        for wave in plan.waves() {
            let placed = wave.entries.iter().flat_map(|e| e.placement.iter());
            if let Some(device) = placed.flatten().find(|&d| !cluster.contains(d)) {
                return Err(RuntimeError::InvalidPlan(PlanError::PlacementOutOfRange {
                    wave: wave.index,
                    device: device.0,
                    available: cluster_devices,
                }));
            }
        }
        let sites = derive_transmission_sites(&plan);
        let pool = match graph {
            Some(graph) => ParamGroupPool::from_plan(&plan, graph),
            None => ParamGroupPool::from_plan_approximate(&plan),
        };

        // Sites by boundary, in site order.
        let mut boundary_at = vec![0u32; plan.num_waves() + 1];
        for site in &sites {
            boundary_at[site.after_wave + 1] += 1;
        }
        for w in 0..plan.num_waves() {
            boundary_at[w + 1] += boundary_at[w];
        }
        let mut boundary_sites = vec![0u32; sites.len()];
        let mut next = boundary_at.clone();
        for (i, site) in (0..).zip(&sites) {
            boundary_sites[next[site.after_wave] as usize] = i;
            next[site.after_wave] += 1;
        }

        // Prices, and footprints from one node-span pass per device group.
        let flows = sites.len() + pool.num_groups();
        let comm = CommModel::shared(Arc::clone(&cluster));
        let mut flow_s = Vec::with_capacity(flows);
        let mut slots_at = Vec::with_capacity(flows + 1);
        let mut slots = Vec::new();
        let (mut src, mut dst) = (NodeSpan::default(), NodeSpan::default());
        let mut links = Vec::new();
        slots_at.push(0);
        for site in &sites {
            let t = &site.transmission;
            flow_s.push(t.round_trip_time(&comm));
            src.fill(&cluster, t.src.devices());
            dst.fill(&cluster, t.dst.devices());
            links.clear();
            NodeSpan::transfer_links(&src, &dst, &mut links);
            slots.extend(links.iter().map(|l| l.slot()));
            slots_at.push(slots.len() as u32);
        }
        for (group, bytes) in pool.groups() {
            src.fill(&cluster, group.devices());
            flow_s.push(src.all_reduce_time(cluster.interconnect(), *bytes));
            links.clear();
            src.collective_links(&mut links);
            slots.extend(links.iter().map(|l| l.slot()));
            slots_at.push(slots.len() as u32);
        }
        Ok(Self {
            plan,
            cluster,
            sites,
            boundary_at,
            boundary_sites,
            pool,
            flow_s,
            slots_at,
            slots,
        })
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The cluster the plan is localised on.
    pub(crate) fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The inter-wave transmissions, each bound to the wave boundary it
    /// crosses.
    #[must_use]
    pub fn sites(&self) -> &[TransmissionSite] {
        &self.sites
    }

    /// The indices of the sites ready after wave `wave` completes,
    /// ascending.
    pub(crate) fn boundary(&self, wave: usize) -> &[u32] {
        let (from, to) = (self.boundary_at[wave], self.boundary_at[wave + 1]);
        &self.boundary_sites[from as usize..to as usize]
    }

    /// The parameter device-group pool (§3.6 step 3).
    #[must_use]
    pub fn pool(&self) -> &ParamGroupPool {
        &self.pool
    }

    /// Nominal service seconds of flow `flow` (see the type docs for the
    /// numbering): alone on its links.
    pub(crate) fn flow_s(&self, flow: usize) -> f64 {
        self.flow_s[flow]
    }

    /// The link slots flow `flow` occupies.
    pub(crate) fn footprint(&self, flow: usize) -> &[u32] {
        &self.slots[self.slots_at[flow] as usize..self.slots_at[flow + 1] as usize]
    }

    /// Total forward+backward transmission time, seconds: every site's
    /// round trip, one after another.
    #[must_use]
    pub fn transmission_s(&self) -> f64 {
        self.flow_s[..self.sites.len()].iter().sum()
    }

    /// Total group-wise parameter synchronisation time, seconds: every
    /// group's all-reduce, one after another.
    #[must_use]
    pub fn sync_s(&self) -> f64 {
        self.flow_s[self.sites.len()..].iter().sum()
    }

    /// The closed-form iteration time, seconds: the plan's makespan, then
    /// every transmission, then every all-reduce, one after another. The
    /// default serialized run ([`run`](Self::run) with
    /// [`SimConfig::default`](crate::SimConfig)) runs exactly this as
    /// events and agrees with it up to float rounding.
    #[must_use]
    pub fn closed_form_iteration_s(&self) -> f64 {
        self.plan.makespan() + self.transmission_s() + self.sync_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_cluster::{collective_footprint, transfer_footprint, ClusterSpec, DeviceId};
    use spindle_core::SpindleSession;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    fn graph() -> ComputationGraph {
        let mut b = GraphBuilder::new();
        let t = b.add_task("vl", [Modality::Vision, Modality::Text], 8);
        let vis = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(8, 257, 768),
                8,
            )
            .unwrap();
        let lm = b
            .add_op_chain(t, OpKind::LmDecoderOnly, TensorShape::new(8, 512, 2048), 8)
            .unwrap();
        b.add_flow(*vis.last().unwrap(), lm[0]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn localisation_prices_every_flow_as_the_cost_model_does() {
        let graph = graph();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
        let localized = LocalizedPlan::new(Arc::clone(&plan), &cluster, Some(&graph)).unwrap();
        let comm = CommModel::new(&cluster);
        let sites = crate::derive_transmission_sites(&plan);
        assert_eq!(localized.sites(), sites);
        let pool = ParamGroupPool::from_plan(&plan, &graph);
        assert_eq!(localized.pool().groups(), pool.groups());
        // Each flow's price and footprint, bit for bit.
        for (i, site) in sites.iter().enumerate() {
            let t = &site.transmission;
            assert_eq!(
                localized.flow_s(i).to_bits(),
                t.round_trip_time(&comm).to_bits()
            );
            let links = transfer_footprint(&cluster, &t.src, &t.dst);
            assert_eq!(localized.footprint(i), slots(&links));
        }
        for (g, (group, bytes)) in pool.groups().iter().enumerate() {
            let flow = sites.len() + g;
            assert_eq!(
                localized.flow_s(flow).to_bits(),
                comm.all_reduce_time(group, *bytes).to_bits()
            );
            let links = collective_footprint(&cluster, group);
            assert_eq!(localized.footprint(flow), slots(&links));
        }
        let transmission: f64 = sites
            .iter()
            .map(|s| s.transmission.round_trip_time(&comm))
            .sum();
        assert_eq!(localized.transmission_s().to_bits(), transmission.to_bits());
        let sync: f64 = pool
            .groups()
            .iter()
            .map(|(group, bytes)| comm.all_reduce_time(group, *bytes))
            .sum();
        assert_eq!(localized.sync_s().to_bits(), sync.to_bits());
        // Every site is reachable through exactly one boundary iterator, in
        // site order.
        for w in 0..plan.num_waves() {
            let direct: Vec<&TransmissionSite> =
                sites.iter().filter(|s| s.after_wave == w).collect();
            let boundary: Vec<&TransmissionSite> = localized
                .boundary(w)
                .iter()
                .map(|&site| &localized.sites()[site as usize])
                .collect();
            assert_eq!(boundary, direct);
        }
    }

    fn slots(links: &[spindle_cluster::LinkId]) -> Vec<u32> {
        links.iter().map(|l| l.slot()).collect()
    }

    #[test]
    fn cluster_mismatch_is_rejected() {
        let graph = graph();
        let big = ClusterSpec::homogeneous(2, 8);
        let plan = Arc::new(SpindleSession::new(big).plan(&graph).unwrap());
        let small = ClusterSpec::homogeneous(1, 8);
        let err = LocalizedPlan::new(plan, &small, None).unwrap_err();
        assert!(matches!(err, RuntimeError::ClusterMismatch { .. }));
    }

    #[test]
    fn placement_on_a_device_the_cluster_lacks_is_rejected() {
        // Planned on ids 0-15; run on a cluster of 16 devices with ids 8-23.
        let graph = graph();
        let plan = Arc::new(
            SpindleSession::new(ClusterSpec::homogeneous(2, 8))
                .plan(&graph)
                .unwrap(),
        );
        let lost: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let shifted = ClusterSpec::homogeneous(3, 8)
            .without_devices(&lost)
            .unwrap();
        assert_eq!(shifted.num_devices(), 16);
        let first_stray = plan
            .waves()
            .iter()
            .flat_map(|w| w.entries.iter().map(move |e| (w.index, e)))
            .find_map(|(wave, e)| {
                let group = e.placement.as_ref().unwrap();
                group.iter().find(|d| d.0 < 8).map(|d| (wave, d.0))
            })
            .unwrap();
        let expected = RuntimeError::InvalidPlan(PlanError::PlacementOutOfRange {
            wave: first_stray.0,
            device: first_stray.1,
            available: 16,
        });
        let localized = LocalizedPlan::new(Arc::clone(&plan), &shifted, Some(&graph)).unwrap_err();
        assert_eq!(localized, expected);
        let sim = crate::Simulator::new(Arc::clone(&plan), &shifted)
            .with_graph(&graph)
            .run_iteration()
            .unwrap_err();
        assert_eq!(sim, expected);
    }
}
