//! Plan localisation (§3.6 steps 1–3), shared by the analytical engine and the
//! event-driven simulator.
//!
//! Both execution backends need the same three artefacts before they can run a
//! placed plan: the wave entries bound to their device groups (step 1, implicit
//! in the placed plan), the inter-wave transmission operators with the wave
//! boundary each one crosses (step 2), and the parameter device-group pool
//! (step 3). [`LocalizedPlan`] computes all three once, so the closed-form
//! engine and the simulator price the *same* physical work and can be
//! cross-checked against each other.

use std::sync::Arc;

use spindle_cluster::{ClusterSpec, CommModel};
use spindle_core::{ExecutionPlan, PlanError};
use spindle_graph::ComputationGraph;

use crate::param_groups::ParamGroupPool;
use crate::transmission::{derive_transmission_sites, TransmissionSite};
use crate::RuntimeError;

/// A validated, localised execution plan: transmissions resolved per wave
/// boundary and the parameter device-group pool built.
#[derive(Debug, Clone)]
pub struct LocalizedPlan {
    plan: Arc<ExecutionPlan>,
    sites: Vec<TransmissionSite>,
    pool: ParamGroupPool,
}

impl LocalizedPlan {
    /// Localises `plan` for execution on `cluster`.
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
        cluster: &ClusterSpec,
        graph: Option<&ComputationGraph>,
    ) -> Result<Self, RuntimeError> {
        plan.validate()?;
        plan.require_placement()?;
        let cluster_devices = cluster.num_devices() as u32;
        if plan.num_devices() > cluster_devices {
            return Err(RuntimeError::ClusterMismatch {
                plan_devices: plan.num_devices(),
                cluster_devices,
            });
        }
        // Both backends index per-device state by id over the cluster's
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
        Ok(Self { plan, sites, pool })
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// A shareable handle to the plan.
    #[must_use]
    pub fn plan_handle(&self) -> Arc<ExecutionPlan> {
        Arc::clone(&self.plan)
    }

    /// The inter-wave transmissions, each bound to the wave boundary it
    /// crosses.
    #[must_use]
    pub fn sites(&self) -> &[TransmissionSite] {
        &self.sites
    }

    /// The transmissions ready after wave `wave` completes.
    pub fn sites_after_wave(&self, wave: usize) -> impl Iterator<Item = &TransmissionSite> {
        self.sites.iter().filter(move |s| s.after_wave == wave)
    }

    /// The parameter device-group pool (§3.6 step 3).
    #[must_use]
    pub fn pool(&self) -> &ParamGroupPool {
        &self.pool
    }

    /// Total forward+backward transmission time priced by `comm`, seconds —
    /// the closed-form quantity the analytical engine reports.
    #[must_use]
    pub fn total_transmission_time(&self, comm: &CommModel) -> f64 {
        self.sites
            .iter()
            .map(|s| s.transmission.round_trip_time(comm))
            .sum()
    }

    /// Total group-wise parameter synchronisation time priced by `comm`,
    /// seconds.
    #[must_use]
    pub fn sync_time(&self, comm: &CommModel) -> f64 {
        self.pool.sync_time(comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_cluster::{ClusterSpec, DeviceId};
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
    fn localisation_matches_standalone_derivations() {
        let graph = graph();
        let cluster = ClusterSpec::homogeneous(2, 8);
        let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
        let localized = LocalizedPlan::new(Arc::clone(&plan), &cluster, Some(&graph)).unwrap();
        let comm = CommModel::new(&cluster);
        let direct = crate::transmission::total_transmission_time(&plan, &comm);
        assert!((localized.total_transmission_time(&comm) - direct).abs() < 1e-15);
        let pool = ParamGroupPool::from_plan(&plan, &graph);
        assert!((localized.sync_time(&comm) - pool.sync_time(&comm)).abs() < 1e-15);
        // Every site is reachable through exactly one boundary iterator.
        let by_boundary: usize = (0..plan.num_waves())
            .map(|w| localized.sites_after_wave(w).count())
            .sum();
        assert_eq!(by_boundary, localized.sites().len());
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
        let engine = crate::RuntimeEngine::new(Arc::clone(&plan), &shifted)
            .with_graph(&graph)
            .run_iteration()
            .unwrap_err();
        assert_eq!(engine, expected);
        let sim = crate::Simulator::new(Arc::clone(&plan), &shifted)
            .with_graph(&graph)
            .run_iteration()
            .unwrap_err();
        assert_eq!(sim, expected);
    }
}
