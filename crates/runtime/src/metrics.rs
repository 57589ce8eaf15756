//! Metrics collected by the simulator: the quantities reported in the
//! paper's evaluation (Figs. 8, 9, 10, 15).

use std::collections::BTreeMap;
use std::fmt;

use spindle_cluster::DeviceId;
use spindle_core::MetaOpId;

use crate::events::EventLog;
use crate::RuntimeError;

/// Iteration-time breakdown (Fig. 10): forward+backward computation, parameter
/// synchronisation, and inter-wave send & receive.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Forward + backward computation time, seconds (includes intra-wave
    /// alignment idle time).
    pub fwd_bwd_s: f64,
    /// Group-wise parameter synchronisation time, seconds.
    pub sync_s: f64,
    /// Inter-wave send & receive time, seconds.
    pub send_recv_s: f64,
}

impl TimeBreakdown {
    /// Total iteration time, seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.fwd_bwd_s + self.sync_s + self.send_recv_s
    }

    /// Fraction of the iteration spent in inter-wave send & receive.
    #[must_use]
    pub fn send_recv_fraction(&self) -> f64 {
        if self.total_s() <= 0.0 {
            0.0
        } else {
            self.send_recv_s / self.total_s()
        }
    }

    /// Fraction of the iteration spent in parameter synchronisation.
    #[must_use]
    pub fn sync_fraction(&self) -> f64 {
        if self.total_s() <= 0.0 {
            0.0
        } else {
            self.sync_s / self.total_s()
        }
    }
}

/// One sample of the cluster-utilization-over-time trace (Fig. 9a / Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Time since the start of the iteration, seconds.
    pub time_s: f64,
    /// Achieved cluster throughput at that instant, TFLOP/s.
    pub tflops_per_s: f64,
}

/// A half-open interval of busy compute `[start_s, end_s)` contributing
/// `flops_per_s` of achieved throughput — the raw material of a utilization
/// trace, produced by the simulator from its event timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeInterval {
    /// Interval start, seconds.
    pub start_s: f64,
    /// Interval end, seconds.
    pub end_s: f64,
    /// Achieved throughput while the interval is live, FLOP/s.
    pub flops_per_s: f64,
}

/// Points in the utilization trace of every simulator report.
pub(crate) const TRACE_SAMPLES: usize = 200;

/// Samples a utilization trace of `samples` uniform points over `[0,
/// horizon_s)` from a set of busy compute intervals. Sample instants use
/// midpoint positioning (`(k + 0.5) / samples`), so a trace of any resolution
/// covers the full horizon without sampling the ambiguous endpoints. Each
/// sample sums the intervals live at its instant in slice order; an interval
/// visits only the samples it covers.
#[must_use]
pub fn sample_utilization_trace(
    intervals: &[ComputeInterval],
    horizon_s: f64,
    samples: usize,
) -> Vec<UtilizationSample> {
    let horizon = horizon_s.max(1e-12);
    let instant = |k: usize| horizon * (k as f64 + 0.5) / samples as f64;
    let mut flops_per_s = vec![0.0; samples];
    for iv in intervals {
        // One sample before the first the interval can cover: the exact
        // test below decides membership.
        let first = (iv.start_s / horizon * samples as f64 - 1.5).max(0.0) as usize;
        for (k, sum) in flops_per_s.iter_mut().enumerate().skip(first) {
            let t = instant(k);
            if t >= iv.end_s {
                break;
            }
            if t >= iv.start_s {
                *sum += iv.flops_per_s;
            }
        }
    }
    flops_per_s
        .into_iter()
        .enumerate()
        .map(|(k, sum)| UtilizationSample {
            time_s: instant(k),
            tflops_per_s: sum / 1e12,
        })
        .collect()
}

/// The report of one simulated training iteration — every quantity the
/// paper's evaluation reports: the simulated timeline (iteration time, stage
/// breakdown, utilization trace, per-device busy time and utilization, event
/// log and work counters) and the plan's footprint (FLOPs, per-device
/// memory, per-MetaOp utilization).
#[derive(Debug, Clone)]
pub struct SimReport {
    pub(crate) total_s: f64,
    pub(crate) breakdown: TimeBreakdown,
    pub(crate) device_busy_s: BTreeMap<DeviceId, f64>,
    pub(crate) utilization_trace: Vec<UtilizationSample>,
    pub(crate) device_utilization: BTreeMap<DeviceId, f64>,
    pub(crate) metaop_utilization: BTreeMap<MetaOpId, f64>,
    pub(crate) device_memory: BTreeMap<DeviceId, u64>,
    pub(crate) total_flops: f64,
    pub(crate) num_devices: u32,
    pub(crate) peak_flops_per_device: f64,
    pub(crate) event_log: EventLog,
    pub(crate) flows_executed: usize,
    pub(crate) syncs_executed: usize,
    pub(crate) flows_repriced: usize,
    pub(crate) events_popped: usize,
}

/// The report's name from before the simulator became the only execution
/// model.
pub type IterationReport = SimReport;

impl SimReport {
    /// End-to-end simulated iteration time, seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// End-to-end simulated iteration time, milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// End-to-end iteration time in seconds; the same as
    /// [`total_s`](Self::total_s).
    #[must_use]
    pub fn iteration_time_s(&self) -> f64 {
        self.total_s
    }

    /// End-to-end iteration time in milliseconds (the headline metric of
    /// Fig. 8); the same as [`total_ms`](Self::total_ms).
    #[must_use]
    pub fn iteration_time_ms(&self) -> f64 {
        self.total_ms()
    }

    /// The iteration-time breakdown (Fig. 10): time with some wave
    /// computing, time blocked on transmissions alone, and the
    /// synchronisation stage. The stages add up to
    /// [`total_s`](Self::total_s) up to float rounding.
    #[must_use]
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Busy seconds of every device that computed (compute only).
    #[must_use]
    pub fn device_busy_s(&self) -> &BTreeMap<DeviceId, f64> {
        &self.device_busy_s
    }

    /// Cluster throughput over the simulated timeline (Fig. 9a), sampled at
    /// 200 uniform points.
    #[must_use]
    pub fn utilization_trace(&self) -> &[UtilizationSample] {
        &self.utilization_trace
    }

    /// Average utilization of each cluster device as a fraction of its peak
    /// compute (Fig. 9b, left spider chart).
    #[must_use]
    pub fn device_utilization(&self) -> &BTreeMap<DeviceId, f64> {
        &self.device_utilization
    }

    /// Planned computational utilization of each MetaOp: its FLOPs over its
    /// planned device-seconds at peak (Fig. 9b, right spider chart).
    #[must_use]
    pub fn metaop_utilization(&self) -> &BTreeMap<MetaOpId, f64> {
        &self.metaop_utilization
    }

    /// Peak memory consumption of each cluster device in bytes (Fig. 15).
    #[must_use]
    pub fn device_memory(&self) -> &BTreeMap<DeviceId, u64> {
        &self.device_memory
    }

    /// Peak memory consumption of each device in GiB.
    #[must_use]
    pub fn device_memory_gib(&self) -> BTreeMap<DeviceId, f64> {
        self.device_memory
            .iter()
            .map(|(&d, &b)| (d, b as f64 / f64::from(1u32 << 30)))
            .collect()
    }

    /// Largest-to-smallest ratio of per-device memory (memory balance metric).
    #[must_use]
    pub fn memory_imbalance(&self) -> f64 {
        let max = self.device_memory.values().copied().max().unwrap_or(0) as f64;
        let min = self.device_memory.values().copied().min().unwrap_or(0) as f64;
        if min <= 0.0 {
            if max <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max / min
        }
    }

    /// Total FLOPs of the plan (forward + backward over every scheduled
    /// operator).
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.total_flops
    }

    /// Average cluster utilization as a fraction of aggregate peak compute.
    #[must_use]
    pub fn average_utilization(&self) -> f64 {
        let peak = self.peak_flops_per_device * f64::from(self.num_devices);
        if peak <= 0.0 || self.total_s <= 0.0 {
            return 0.0;
        }
        (self.total_flops / self.total_s) / peak
    }

    /// The deterministic event log of the run.
    #[must_use]
    pub fn event_log(&self) -> &EventLog {
        &self.event_log
    }

    /// Number of inter-wave transmissions executed.
    #[must_use]
    pub fn flows_executed(&self) -> usize {
        self.flows_executed
    }

    /// Number of parameter-group all-reduces executed.
    #[must_use]
    pub fn syncs_executed(&self) -> usize {
        self.syncs_executed
    }

    /// How many times a flow was repriced. Only contended runs reprice. A
    /// batch of flows starting at one instant reprices once each of its
    /// flows and each active flow whose congestion it raised; a flow's end
    /// reprices the flows whose bottleneck link it released, whether or not
    /// their rate then changes.
    #[must_use]
    pub fn flows_repriced(&self) -> usize {
        self.flows_repriced
    }

    /// How many events the run took off its queue. A flow's completion is
    /// one event, moved whenever the flow is repriced, so no popped event
    /// is stale: this is the compute ends, flow ends and all-reduce ends
    /// processed, plus background-flow ends and the event at which an
    /// armed fault fires.
    #[must_use]
    pub fn events_popped(&self) -> usize {
        self.events_popped
    }

    /// Relative gap of the simulated iteration time versus a reference time
    /// (e.g. the closed form): `(simulated - reference) / reference`.
    #[must_use]
    pub fn gap_vs(&self, reference_s: f64) -> f64 {
        if reference_s <= 0.0 {
            return 0.0;
        }
        (self.total_s - reference_s) / reference_s
    }

    /// Asserts that the simulated iteration time stays within `tolerance`
    /// (relative, two-sided) of a reference — the simulator-vs-closed-form
    /// cross-check the scenario fuzzer enforces on every randomized draw.
    /// Returns the gap on success so callers can aggregate worst-case
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::GapExceeded`] with both sides and the gap if
    /// `|gap| > tolerance`.
    pub fn check_gap_within(&self, reference_s: f64, tolerance: f64) -> Result<f64, RuntimeError> {
        let gap = self.gap_vs(reference_s);
        if gap.abs() > tolerance {
            return Err(RuntimeError::GapExceeded {
                simulated_s: self.total_s,
                reference_s,
                gap,
                tolerance,
            });
        }
        Ok(gap)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iteration {:.1} ms (fwd+bwd {:.1} ms, sync {:.1} ms, send/recv {:.1} ms), avg util {:.0}%",
            self.iteration_time_ms(),
            self.breakdown.fwd_bwd_s * 1e3,
            self.breakdown.sync_s * 1e3,
            self.breakdown.send_recv_s * 1e3,
            self.average_utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            total_s: 1.0,
            breakdown: TimeBreakdown {
                fwd_bwd_s: 0.8,
                sync_s: 0.1,
                send_recv_s: 0.1,
            },
            device_busy_s: [(DeviceId(0), 0.6)].into_iter().collect(),
            utilization_trace: vec![
                UtilizationSample {
                    time_s: 0.0,
                    tflops_per_s: 100.0,
                },
                UtilizationSample {
                    time_s: 0.5,
                    tflops_per_s: 50.0,
                },
            ],
            device_utilization: [(DeviceId(0), 0.5), (DeviceId(1), 0.25)]
                .into_iter()
                .collect(),
            metaop_utilization: [(MetaOpId(0), 0.6)].into_iter().collect(),
            device_memory: [(DeviceId(0), 2 << 30), (DeviceId(1), 1 << 30)]
                .into_iter()
                .collect(),
            total_flops: 1e14,
            num_devices: 2,
            peak_flops_per_device: 312e12,
            event_log: EventLog::default(),
            flows_executed: 0,
            syncs_executed: 0,
            flows_repriced: 0,
            events_popped: 0,
        }
    }

    #[test]
    fn breakdown_totals_and_fractions() {
        let r = report();
        assert!((r.iteration_time_s() - 1.0).abs() < 1e-12);
        assert!((r.iteration_time_ms() - 1000.0).abs() < 1e-9);
        assert!((r.breakdown().send_recv_fraction() - 0.1).abs() < 1e-12);
        assert!((r.breakdown().sync_fraction() - 0.1).abs() < 1e-12);
        let zero = TimeBreakdown::default();
        assert_eq!(zero.total_s(), 0.0);
        assert_eq!(zero.send_recv_fraction(), 0.0);
        assert_eq!(zero.sync_fraction(), 0.0);
    }

    #[test]
    fn trace_sampling_sums_live_intervals() {
        let intervals = [
            ComputeInterval {
                start_s: 0.0,
                end_s: 1.0,
                flops_per_s: 1e12,
            },
            ComputeInterval {
                start_s: 0.5,
                end_s: 1.5,
                flops_per_s: 2e12,
            },
        ];
        let trace = sample_utilization_trace(&intervals, 2.0, 4);
        assert_eq!(trace.len(), 4);
        // Midpoints: 0.25 (first only), 0.75 (both), 1.25 (second), 1.75 (none).
        assert!((trace[0].tflops_per_s - 1.0).abs() < 1e-12);
        assert!((trace[1].tflops_per_s - 3.0).abs() < 1e-12);
        assert!((trace[2].tflops_per_s - 2.0).abs() < 1e-12);
        assert!(trace[3].tflops_per_s.abs() < 1e-12);
        assert!(trace.windows(2).all(|w| w[0].time_s < w[1].time_s));
    }

    #[test]
    fn trace_sampling_matches_a_scan_of_every_interval() {
        let mut rng = crate::events::XorShift64Star::new(7);
        let intervals: Vec<ComputeInterval> = (0..300)
            .map(|_| {
                let start_s = rng.next_f64() * 0.9;
                ComputeInterval {
                    start_s,
                    end_s: start_s + rng.next_f64() * 0.2,
                    flops_per_s: rng.next_f64() * 1e15,
                }
            })
            .collect();
        let trace = sample_utilization_trace(&intervals, 1.0, TRACE_SAMPLES);
        for sample in &trace {
            let t = sample.time_s;
            let scanned = intervals
                .iter()
                .filter(|iv| t >= iv.start_s && t < iv.end_s)
                .fold(0.0, |sum, iv| sum + iv.flops_per_s);
            assert_eq!(sample.tflops_per_s.to_bits(), (scanned / 1e12).to_bits());
        }
    }

    #[test]
    fn utilization_and_memory_accessors() {
        let r = report();
        assert_eq!(r.utilization_trace().len(), 2);
        assert_eq!(r.device_utilization().len(), 2);
        assert_eq!(r.metaop_utilization().len(), 1);
        assert!((r.device_memory_gib()[&DeviceId(0)] - 2.0).abs() < 1e-9);
        assert!((r.memory_imbalance() - 2.0).abs() < 1e-9);
        assert!(r.average_utilization() > 0.0 && r.average_utilization() < 1.0);
        assert!(r.to_string().contains("iteration"));
        assert!((r.total_flops() - 1e14).abs() < 1.0);
    }
}
