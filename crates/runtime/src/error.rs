//! Error type for the runtime engine.

use std::error::Error;
use std::fmt;

use spindle_core::PlanError;

/// Errors produced while executing an execution plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The plan failed structural validation.
    InvalidPlan(PlanError),
    /// The plan was built for more devices than the cluster it is executed
    /// on has. (A plan placed on a device the cluster lacks is an
    /// [`InvalidPlan`](RuntimeError::InvalidPlan) with
    /// [`PlanError::PlacementOutOfRange`].)
    ClusterMismatch {
        /// Devices the plan was built for.
        plan_devices: u32,
        /// Devices available in the executing cluster.
        cluster_devices: u32,
    },
    /// The simulated iteration time diverged from an analytical reference
    /// beyond the caller's tolerance — the analytical cost model and the
    /// event-driven simulator disagree about the same plan.
    GapExceeded {
        /// Simulated iteration time, seconds.
        simulated_s: f64,
        /// Analytical reference iteration time, seconds.
        reference_s: f64,
        /// Relative gap `(simulated - reference) / reference`.
        gap: f64,
        /// Tolerance the gap exceeded (absolute value of the relative gap).
        tolerance: f64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidPlan(e) => write!(f, "invalid execution plan: {e}"),
            RuntimeError::ClusterMismatch {
                plan_devices,
                cluster_devices,
            } => write!(
                f,
                "plan targets {plan_devices} devices but cluster has {cluster_devices}"
            ),
            RuntimeError::GapExceeded {
                simulated_s,
                reference_s,
                gap,
                tolerance,
            } => write!(
                f,
                "simulated iteration {simulated_s:.6}s vs analytical {reference_s:.6}s: \
                 gap {:+.3}% exceeds ±{:.3}%",
                gap * 100.0,
                tolerance * 100.0
            ),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::InvalidPlan(e) => Some(e),
            RuntimeError::ClusterMismatch { .. } | RuntimeError::GapExceeded { .. } => None,
        }
    }
}

impl From<PlanError> for RuntimeError {
    fn from(value: PlanError) -> Self {
        RuntimeError::InvalidPlan(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<RuntimeError>();
        let e = RuntimeError::from(PlanError::EmptyCluster);
        assert!(e.to_string().contains("invalid execution plan"));
        assert!(e.source().is_some());
        let m = RuntimeError::ClusterMismatch {
            plan_devices: 16,
            cluster_devices: 8,
        };
        assert!(m.to_string().contains("16"));
        assert!(m.source().is_none());
    }
}
