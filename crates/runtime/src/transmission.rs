//! Inter-wave transmission operators (§3.6 step 2).
//!
//! Data flows cross wave boundaries in two situations:
//!
//! * a MetaGraph edge `m1 → m2`: the output activation of `m1`'s last operator
//!   must reach the devices executing `m2`'s first operator (and the gradient
//!   flows back during the backward pass);
//! * a MetaOp sliced across waves whose consecutive slices run on different
//!   device groups: the intermediate activation must be handed over.
//!
//! The runtime prices each transmission with the cluster's communication model
//! (copy / shard / send / receive collapse into a group-to-group transfer).

use spindle_cluster::{CommModel, DeviceGroup};
use spindle_core::{ExecutionPlan, MetaOpId};

/// Why a transmission exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmissionKind {
    /// A data flow along a MetaGraph edge (activation forward, gradient back).
    DataFlow,
    /// A hand-over between consecutive slices of the same MetaOp placed on
    /// different device groups.
    SliceHandover,
}

/// One inter-wave transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// Producing MetaOp.
    pub from: MetaOpId,
    /// Consuming MetaOp (equal to `from` for slice hand-overs).
    pub to: MetaOpId,
    /// Source device group.
    pub src: DeviceGroup,
    /// Destination device group.
    pub dst: DeviceGroup,
    /// Bytes moved in the forward direction (the backward pass moves the same
    /// volume of gradients in reverse).
    pub bytes: u64,
    /// Why this transmission exists.
    pub kind: TransmissionKind,
}

impl Transmission {
    /// Time in seconds for one direction of this transmission.
    #[must_use]
    pub fn one_way_time(&self, comm: &CommModel) -> f64 {
        comm.group_transfer_time(&self.src, &self.dst, self.bytes)
    }

    /// Time in seconds for forward activation plus backward gradient.
    #[must_use]
    pub fn round_trip_time(&self, comm: &CommModel) -> f64 {
        self.one_way_time(comm) + comm.group_transfer_time(&self.dst, &self.src, self.bytes)
    }
}

/// A [`Transmission`] bound to its position on the plan's timeline: the flow
/// becomes ready once wave `after_wave` completes. The overlapped simulator
/// issues flows per boundary; the closed form ignores the index.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmissionSite {
    /// The transmission itself.
    pub transmission: Transmission,
    /// Index of the wave whose completion makes this transmission ready (the
    /// wave of the producing slice).
    pub after_wave: usize,
}

/// Derives every inter-wave transmission of a placed execution plan, each
/// annotated with the wave boundary it crosses.
///
/// Entries without placement are skipped (the planner guarantees placement for
/// plans headed to the runtime; baselines constructing partial plans can still
/// inspect transmissions of the placed subset).
#[must_use]
pub fn derive_transmission_sites(plan: &ExecutionPlan) -> Vec<TransmissionSite> {
    // Ordered placements of each MetaOp's slices across waves, with the wave
    // index of each slice, by MetaOp index.
    let mut slices: Vec<Vec<(usize, &DeviceGroup)>> =
        vec![Vec::new(); plan.metagraph().num_metaops()];
    for wave in plan.waves() {
        for entry in &wave.entries {
            if let Some(group) = &entry.placement {
                slices[entry.metaop.index()].push((wave.index, group));
            }
        }
    }

    let mut sites = Vec::new();
    // Slice hand-overs within a MetaOp.
    for (metaop, groups) in (0..).map(MetaOpId).zip(&slices) {
        if groups.len() < 2 {
            continue;
        }
        let bytes = plan
            .metagraph()
            .metaop(metaop)
            .representative()
            .output_bytes();
        for pair in groups.windows(2) {
            if pair[0].1 != pair[1].1 {
                sites.push(TransmissionSite {
                    transmission: Transmission {
                        from: metaop,
                        to: metaop,
                        src: pair[0].1.clone(),
                        dst: pair[1].1.clone(),
                        bytes,
                        kind: TransmissionKind::SliceHandover,
                    },
                    after_wave: pair[0].0,
                });
            }
        }
    }
    // Data flows along MetaGraph edges: from the producer's last slice to the
    // consumer's first slice.
    for &(from, to) in plan.metagraph().edges() {
        let (Some(src), Some(dst)) = (
            slices.get(from.index()).and_then(|g| g.last()),
            slices.get(to.index()).and_then(|g| g.first()),
        ) else {
            continue;
        };
        let bytes = plan
            .metagraph()
            .metaop(from)
            .representative()
            .output_bytes();
        sites.push(TransmissionSite {
            transmission: Transmission {
                from,
                to,
                src: src.1.clone(),
                dst: dst.1.clone(),
                bytes,
                kind: TransmissionKind::DataFlow,
            },
            after_wave: src.0,
        });
    }
    sites
}

/// Derives every inter-wave transmission of a placed execution plan (without
/// timeline positions — see [`derive_transmission_sites`] for those).
#[must_use]
pub fn derive_transmissions(plan: &ExecutionPlan) -> Vec<Transmission> {
    derive_transmission_sites(plan)
        .into_iter()
        .map(|s| s.transmission)
        .collect()
}

/// Total forward+backward transmission time of a placed plan, in seconds.
#[must_use]
pub fn total_transmission_time(plan: &ExecutionPlan, comm: &CommModel) -> f64 {
    derive_transmissions(plan)
        .iter()
        .map(|t| t.round_trip_time(comm))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_cluster::ClusterSpec;
    use spindle_core::{PlacementStrategy, PlannerConfig, SpindleSession};
    use spindle_graph::{ComputationGraph, GraphBuilder, Modality, OpKind, TensorShape};

    fn pipeline_graph() -> ComputationGraph {
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
    fn data_flow_transmissions_follow_metagraph_edges() {
        let graph = pipeline_graph();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        let transmissions = derive_transmissions(&plan);
        let data_flows: Vec<&Transmission> = transmissions
            .iter()
            .filter(|t| t.kind == TransmissionKind::DataFlow)
            .collect();
        assert_eq!(data_flows.len(), plan.metagraph().edges().len());
        for t in &transmissions {
            assert!(t.bytes > 0);
            assert!(!t.src.is_empty());
            assert!(!t.dst.is_empty());
        }
    }

    #[test]
    fn locality_placement_transmits_no_more_than_sequential() {
        let graph = pipeline_graph();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let comm = CommModel::new(&cluster);
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
        let t_loc = total_transmission_time(&locality, &comm);
        let t_seq = total_transmission_time(&sequential, &comm);
        assert!(
            t_loc <= t_seq + 1e-9,
            "locality {t_loc} vs sequential {t_seq}"
        );
    }

    #[test]
    fn sites_carry_valid_wave_boundaries() {
        let graph = pipeline_graph();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        let sites = derive_transmission_sites(&plan);
        assert_eq!(sites.len(), derive_transmissions(&plan).len());
        for site in &sites {
            assert!(site.after_wave < plan.num_waves());
            // The producing slice really executes in `after_wave`.
            assert!(plan.waves()[site.after_wave]
                .entry_for(site.transmission.from)
                .is_some());
        }
    }

    #[test]
    fn round_trip_is_two_one_way_transfers() {
        let graph = pipeline_graph();
        let cluster = ClusterSpec::homogeneous(1, 8);
        let comm = CommModel::new(&cluster);
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        for t in derive_transmissions(&plan) {
            assert!(t.round_trip_time(&comm) >= t.one_way_time(&comm));
        }
    }
}
