//! `service-tcp`: the planning service behind its TCP ingress.
//!
//! A `TcpIngress` on loopback serves one `TcpClient` (one connection, this
//! thread) replaying a CLIP tenant fleet (`TenantFleet::from_pool`)
//! cyclically. The fixed-rate phase offers [`OFFERED_EPS`] events per second
//! open loop, in bursts of [`BURST`] events due at the same instant, and
//! times each burst from its due instant until the completion that closes
//! its last event arrives (a completion folding k events closes its tenant's
//! k oldest); the saturation phase then submits as fast as the service
//! accepts and reports the served rate. Each tenant's first plan is warm-up
//! and counts toward set-up. Service workers default to the machine's
//! available parallelism.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle::cluster::ClusterSpec;
use spindle::core::SpindleSession;
use spindle::graph::ComputationGraph;
use spindle::service::{
    ApiCompletion, ReplanSummary, ServiceApi, ServiceConfig, SubmitError, TcpClient, TcpIngress,
};
use spindle::workloads::{ArrivalSchedule, TenantFleet};

use crate::metrics::Report;
use crate::probe;
use crate::trace::{self, span};
use crate::stats::{self, HostSpeed};
use crate::{until, Args};

/// Tenants in the fleet; each replays its own trace.
const TENANTS: usize = 32;
/// Traces in the fixed pool the seed picks the tenants' traces from.
const POOL: usize = 40;
/// Seed of the fixed pool of tenant traces.
const TRACE_SEED: u64 = 0xc11f_f1ee;
/// Task-mix phases per tenant trace.
const PHASES: usize = 12;
/// Mean simulated gap between a tenant's task events, seconds.
const MEAN_GAP_S: f64 = 30.0;
/// Width of the buckets the saturation rate is taken over; the reported
/// rate is the median bucket's.
const RATE_BUCKET: Duration = Duration::from_millis(250);
/// Offered load of the fixed-rate phase, events per second.
pub const OFFERED_EPS: f64 = 400.0;
/// Events due at the same instant: the fixed-rate phase offers bursts of
/// this many events every `BURST / OFFERED_EPS` seconds.
const BURST: u64 = 32;
/// Share of the window spent in the fixed-rate phase; the rest saturates.
const FIXED_SHARE: f64 = 0.7;
/// Longest wait for outstanding completions before they count as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// The reported tail percentile over bursts (≥ 10 samples beyond it from
/// 100 bursts).
pub const TAIL_Q: f64 = 0.9;

/// An accepted event not yet closed by a completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pending {
    /// When the open loop was due to send it.
    pub due: Instant,
    /// When the submission that was accepted left the client.
    pub sent: Instant,
}

/// Due-time accounting: per tenant, the accepted events awaiting a
/// completion, oldest first. The service folds a tenant's queued events
/// into one re-plan, so a completion reporting `k` folded events closes
/// that tenant's `k` oldest open events.
#[derive(Debug, Default)]
pub struct Ledger {
    open: HashMap<u64, VecDeque<Pending>>,
    count: usize,
}

impl Ledger {
    /// Records an accepted event.
    pub fn open(&mut self, tenant: u64, pending: Pending) {
        self.open.entry(tenant).or_default().push_back(pending);
        self.count += 1;
    }

    /// Closes the `k` oldest open events of `tenant` at `at`, returning them
    /// oldest first.
    ///
    /// # Errors
    ///
    /// When the tenant has fewer than `k` open events.
    pub fn close(&mut self, tenant: u64, k: usize, at: Instant) -> Result<Vec<Pending>, String> {
        let queue = self.open.entry(tenant).or_default();
        if k == 0 || queue.len() < k {
            return Err(format!(
                "tenant {tenant}: a completion folds {k} events but {} are open at {at:?}",
                queue.len()
            ));
        }
        self.count -= k;
        Ok(queue.drain(..k).collect())
    }

    /// Events accepted and not yet closed.
    #[must_use]
    pub fn open_events(&self) -> usize {
        self.count
    }
}

/// What one measured window observed.
#[derive(Debug, Default)]
struct Observed {
    /// Fixed-rate phase: per burst, the time from its due instant until the
    /// completion of its last event arrived, ms.
    bursts_ms: Vec<f64>,
    /// Fixed-rate phase: how late each submission left, ms.
    late_ms: Vec<f64>,
    /// Fixed-rate phase, per completion: server-reported queue wait and
    /// planning time, and the remainder of the client-seen latency, us.
    queue_wait_us: Vec<f64>,
    plan_us: Vec<f64>,
    transport_us: Vec<f64>,
    /// Saturation phase: events served per second.
    capacity_eps: f64,
    attempted: u64,
    failed: u64,
    events_closed: u64,
    completions: u64,
    rejected: u64,
    throttled: u64,
}

impl Observed {
    fn median_ms(&self) -> f64 {
        stats::median(&self.bursts_ms)
    }
}

struct Service {
    fleet: TenantFleet,
    cluster: ClusterSpec,
    ingress: TcpIngress,
    client: TcpClient,
    cursor: usize,
    ledger: Ledger,
    /// Per tenant: the last graph accepted and the last plan fingerprint
    /// received.
    last_graph: BTreeMap<u64, Arc<ComputationGraph>>,
    last_fingerprint: BTreeMap<u64, u64>,
    /// Open bursts of the fixed-rate phase: due instant → events not yet
    /// closed.
    open_bursts: BTreeMap<Instant, u64>,
    errors: Vec<String>,
}

impl Service {
    fn setup(seed: u64) -> Result<Self, String> {
        // One trace per tenant: the seed picks a run of consecutive traces
        // from a fixed pool and the tenants' start offsets, so seeds vary the
        // fleet without changing its character.
        let first = (seed % (POOL - TENANTS + 1) as u64) as usize;
        let pool = (first..first + TENANTS)
            .map(|i| {
                ArrivalSchedule::multitask_clip_arrivals(
                    TRACE_SEED.wrapping_add(i as u64),
                    PHASES,
                    MEAN_GAP_S,
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("building the fleet: {e}"))?;
        let fleet = TenantFleet::from_pool("CLIP fleet", &pool, seed, TENANTS, MEAN_GAP_S);
        let cluster = ClusterSpec::homogeneous(4, 8);
        let ingress = TcpIngress::bind("127.0.0.1:0", cluster.clone(), ServiceConfig::default())
            .map_err(|e| format!("binding the ingress: {e}"))?;
        let client = TcpClient::connect(ingress.local_addr())
            .map_err(|e| format!("connecting to the ingress: {e}"))?;
        let mut this = Self {
            fleet,
            cluster,
            ingress,
            client,
            cursor: 0,
            ledger: Ledger::default(),
            last_graph: BTreeMap::new(),
            last_fingerprint: BTreeMap::new(),
            open_bursts: BTreeMap::new(),
            errors: Vec::new(),
        };
        // Warm-up: every tenant's first plan.
        let mut warm = Observed::default();
        let firsts: Vec<(u64, Arc<ComputationGraph>)> = (0..TENANTS)
            .filter_map(|t| {
                let e = this.fleet.events().iter().find(|e| e.tenant == t)?;
                Some((t as u64, Arc::clone(&e.graph)))
            })
            .collect();
        for (tenant, graph) in firsts {
            let now = Instant::now();
            this.submit(tenant, graph, now, &mut warm)?;
        }
        this.drain(&mut warm, false)?;
        if warm.failed > 0 {
            return Err(format!("{} warm-up plans failed", warm.failed));
        }
        Ok(this)
    }

    /// Shuts the connection and the ingress down, returning the server's
    /// error count and any completions that were never polled.
    fn teardown(self) -> Result<(u64, usize), String> {
        let (stats, rest) = self.client.finish();
        let served = self.ingress.shutdown();
        if stats.replans == 0 && served.replans > 0 {
            return Err("the final Stats frame never arrived".into());
        }
        Ok((stats.errors, rest.len()))
    }

    /// Handles one completion received at `at`.
    fn complete(&mut self, done: &ApiCompletion, at: Instant, seen: &mut Observed, timed: bool) {
        let closed = match self.ledger.close(done.tenant, done.coalesced, at) {
            Ok(closed) => closed,
            Err(e) => {
                self.errors.push(e);
                return;
            }
        };
        seen.completions += 1;
        seen.events_closed += closed.len() as u64;
        match &done.result {
            Ok(summary) => {
                self.last_fingerprint
                    .insert(done.tenant, summary.plan_fingerprint);
            }
            Err(e) => {
                seen.failed += closed.len() as u64;
                self.errors.push(format!("tenant {}: {e}", done.tenant));
            }
        }
        if timed {
            for p in &closed {
                let Some(open) = self.open_bursts.get_mut(&p.due) else {
                    continue;
                };
                *open -= 1;
                if *open == 0 {
                    self.open_bursts.remove(&p.due);
                    seen.bursts_ms
                        .push(at.duration_since(p.due).as_secs_f64() * 1e3);
                }
            }
            let client_us = at.duration_since(closed[0].sent).as_secs_f64() * 1e6;
            let queue_us = done.queue_wait.as_secs_f64() * 1e6;
            let plan_us = done.plan_time.as_secs_f64() * 1e6;
            seen.queue_wait_us.push(queue_us);
            seen.plan_us.push(plan_us);
            seen.transport_us.push(client_us - queue_us - plan_us);
        }
    }

    /// Takes every completion already buffered, without blocking.
    fn take_buffered(&mut self, seen: &mut Observed, timed: bool) {
        while let Some(done) = self.client.poll_completion(Duration::ZERO) {
            self.complete(&done, Instant::now(), seen, timed);
        }
    }

    /// Waits for completions until `deadline`.
    fn wait_until(&mut self, deadline: Instant, seen: &mut Observed, timed: bool) {
        loop {
            let left = until(deadline);
            if left.is_zero() {
                return;
            }
            // The socket timeout has a 1 ms floor; sleep out shorter waits.
            if left < Duration::from_millis(1) {
                std::thread::sleep(left);
                continue;
            }
            if let Some(done) = self.client.poll_completion(left) {
                self.complete(&done, Instant::now(), seen, timed);
            }
        }
    }

    /// Submits `graph` for `tenant`, retrying on backpressure and quota
    /// rejections until it is accepted.
    fn submit(
        &mut self,
        tenant: u64,
        graph: Arc<ComputationGraph>,
        due: Instant,
        seen: &mut Observed,
    ) -> Result<(), String> {
        seen.attempted += 1;
        let sent = loop {
            let sent = Instant::now();
            let hint = match span("service.submit", || self.client.submit(tenant, &graph)) {
                Ok(()) => break sent,
                Err(SubmitError::QueueFull { retry_hint }) => {
                    seen.rejected += 1;
                    retry_hint
                }
                Err(SubmitError::Throttled { retry_hint }) => {
                    seen.throttled += 1;
                    retry_hint
                }
                Err(SubmitError::WorkerGone) => {
                    seen.failed += 1;
                    return Err(format!("tenant {tenant}: the service is gone"));
                }
            };
            let retry_at = Instant::now() + hint.max(Duration::from_millis(1));
            self.wait_until(retry_at, seen, false);
        };
        // The completion of this event can only follow its acceptance.
        self.ledger.open(tenant, Pending { due, sent });
        self.last_graph.insert(tenant, graph);
        Ok(())
    }

    /// Submits the next fleet event (cyclically).
    fn submit_next(&mut self, due: Instant, seen: &mut Observed) -> Result<(), String> {
        let events = self.fleet.events();
        let event = &events[self.cursor % events.len()];
        let (tenant, graph) = (event.tenant as u64, Arc::clone(&event.graph));
        self.cursor += 1;
        trace::set_op(self.cursor as u64);
        self.submit(tenant, graph, due, seen)
    }

    /// Waits until every accepted event is closed; events still open after
    /// [`DRAIN_TIMEOUT`] count as failed.
    fn drain(&mut self, seen: &mut Observed, timed: bool) -> Result<(), String> {
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while self.ledger.open_events() > 0 {
            let left = until(give_up);
            if left.is_zero() {
                seen.failed += self.ledger.open_events() as u64;
                return Err(format!(
                    "{} events never completed",
                    self.ledger.open_events()
                ));
            }
            if let Some(done) = self.client.poll_completion(left) {
                self.complete(&done, Instant::now(), seen, timed);
            }
        }
        Ok(())
    }

    /// One measured window: the fixed-rate phase, then saturation.
    fn measure(&mut self, seconds: f64) -> Result<Observed, String> {
        let mut seen = Observed::default();
        let fixed_s = seconds * FIXED_SHARE;
        let start = Instant::now();
        let due_events = (fixed_s * OFFERED_EPS).round() as u64;
        for i in 0..due_events {
            let burst_start = i / BURST * BURST;
            let due = start + Duration::from_secs_f64(burst_start as f64 / OFFERED_EPS);
            if i == burst_start {
                self.open_bursts
                    .insert(due, BURST.min(due_events - burst_start));
            }
            self.wait_until(due, &mut seen, true);
            seen.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            self.submit_next(due, &mut seen)?;
            self.take_buffered(&mut seen, true);
        }
        self.drain(&mut seen, true)?;

        // Saturation: accepted events per bucket. Submissions wait for their
        // ack and retry on backpressure, so the accepted rate is the rate the
        // service drains its queues at.
        let start = Instant::now();
        let buckets = ((seconds - fixed_s) / RATE_BUCKET.as_secs_f64()).floor().max(1.0) as u32;
        let mut rates = Vec::with_capacity(buckets as usize);
        for b in 1..=buckets {
            let bucket_end = start + RATE_BUCKET * b;
            let before = seen.attempted;
            while Instant::now() < bucket_end {
                self.submit_next(Instant::now(), &mut seen)?;
                self.take_buffered(&mut seen, false);
            }
            rates.push((seen.attempted - before) as f64 / RATE_BUCKET.as_secs_f64());
        }
        self.drain(&mut seen, false)?;
        seen.capacity_eps = stats::median(&rates);
        Ok(seen)
    }
}

/// Each tenant's last graph in the fleet trace.
fn final_graphs(fleet: &TenantFleet) -> Vec<(u64, Arc<ComputationGraph>)> {
    let mut last: BTreeMap<u64, Arc<ComputationGraph>> = BTreeMap::new();
    for e in fleet.events() {
        last.insert(e.tenant as u64, Arc::clone(&e.graph));
    }
    last.into_iter().collect()
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or transport failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut speed = HostSpeed::default();
    let (mut service, setup_s) = crate::setup_median(
        &mut speed,
        || Service::setup(args.seed),
        |s| s.teardown().map(|_| ()),
    )?;
    report.set("setup_s", setup_s);

    let mut total = Observed::default();
    let (seen, spans) = crate::measure_window(
        args,
        &mut report,
        |secs| {
            let seen = service.measure(secs)?;
            total.attempted += seen.attempted;
            total.failed += seen.failed;
            Ok(seen)
        },
        Observed::median_ms,
    )?;
    report.attempted = total.attempted;
    report.failed = total.failed;
    report.set(
        "served_frac",
        (total.attempted - total.failed) as f64 / total.attempted.max(1) as f64,
    );
    report.set("ops_per_s", seen.capacity_eps);
    crate::record_latency(&mut report, &seen.bursts_ms, TAIL_Q, "burst due-to-completion", false);
    let mut late = seen.late_ms.clone();
    stats::sort(&mut late);
    println!(
        "offered {OFFERED_EPS} events/s; saturation served {:.1} events/s; open loop late p99 {:.4} ms",
        seen.capacity_eps,
        stats::percentile(&late, 0.99)
    );
    report.set("loadgen.late_p99_ms", stats::percentile(&late, 0.99));
    report.set("service.queue_wait_us", stats::median(&seen.queue_wait_us));
    report.set("service.plan_us", stats::median(&seen.plan_us));
    report.set("service.transport_us", stats::median(&seen.transport_us));
    report.set(
        "service.coalescing_ratio",
        seen.events_closed as f64 / seen.completions.max(1) as f64,
    );
    report.set("service.rejected", seen.rejected as f64);
    report.set("service.throttled", seen.throttled as f64);
    if let Some(spans) = &spans {
        report.set("service.submit_us", spans.median_self_us("service.submit"));
    }

    let last_graph = std::mem::take(&mut service.last_graph);
    let last_fingerprint = std::mem::take(&mut service.last_fingerprint);
    report.violations.append(&mut service.errors);
    let cluster = Arc::new(service.cluster.clone());
    let finals = final_graphs(&service.fleet);
    report.count("fleet.events", service.fleet.events().len() as u64);
    report.count("fleet.tenants", TENANTS as u64);
    let (server_errors, unpolled) = service.teardown()?;
    report.check(server_errors == 0, || {
        format!("the service reported {server_errors} planning errors")
    });
    report.check(unpolled == 0, || {
        format!("{unpolled} completions arrived after the drain")
    });

    // Final plans: each tenant's last fingerprint must equal a direct
    // session plan of its last graph. Plan quality is evaluated on each
    // tenant's final fleet graph, which does not depend on timing.
    if let Some(spans) = spans {
        trace::resume(spans);
    }
    let memory = cluster.device_memory_bytes();
    for (tenant, graph) in &last_graph {
        trace::set_op(u64::MAX / 2 + tenant);
        let outcome = span("core.plan", || {
            SpindleSession::new(Arc::clone(&cluster)).replan(graph)
        })
        .map_err(|e| format!("direct plan for tenant {tenant}: {e}"))?;
        report.check(outcome.plan.check_invariants(memory).is_ok(), || {
            format!("tenant {tenant}: plan violates its invariants")
        });
        let direct = ReplanSummary::of(&outcome).plan_fingerprint;
        report.check(last_fingerprint.get(tenant) == Some(&direct), || {
            format!("tenant {tenant}: served plan differs from a direct session plan")
        });
    }
    report.check(last_graph.len() == TENANTS, || {
        format!("{} of {TENANTS} tenants were served", last_graph.len())
    });
    let mut evals = Vec::new();
    let mut stage_work = Vec::new();
    let mut sites = Vec::new();
    for (tenant, graph) in finals {
        trace::set_op(u64::MAX - tenant);
        let plan = SpindleSession::new(Arc::clone(&cluster))
            .plan(&graph)
            .map_err(|e| format!("final plan for tenant {tenant}: {e}"))?;
        let plan = Arc::new(plan);
        report.count(format!("tenant[{tenant}].plan_fingerprint"), probe::plan_fingerprint(&plan));
        evals.push(probe::evaluate(&plan, &graph, &cluster)?);
        if trace::active() {
            sites.push(probe::localize(&plan, &graph, &cluster)?);
            stage_work.push(probe::replay_stages(&graph, &cluster)?.1);
        }
    }
    probe::record_evals(&mut report, "tenant", &evals);

    if let Some(spans) = trace::stop() {
        probe::record_stage_spans(&mut report, &spans, spans.median_self_us("core.plan"));
        probe::record_probe_work(&mut report, &stage_work, &sites);
        probe::record_runtime_spans(&mut report, &spans);
        crate::export_trace(args, &spans);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_completions_close_the_oldest_events_from_their_due_times() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut ledger = Ledger::default();
        for i in 0..3 {
            ledger.open(
                7,
                Pending {
                    due: t0 + ms(i),
                    sent: t0 + ms(i) + ms(1),
                },
            );
        }
        ledger.open(
            9,
            Pending {
                due: t0,
                sent: t0,
            },
        );
        assert_eq!(ledger.open_events(), 4);
        // One re-plan folding two events closes tenant 7's two oldest; each
        // is timed from its own due time.
        let at = t0 + ms(10);
        let closed = ledger.close(7, 2, at).unwrap();
        let latencies: Vec<Duration> = closed.iter().map(|p| at.duration_since(p.due)).collect();
        assert_eq!(latencies, vec![ms(10), ms(9)]);
        assert_eq!(closed[0].sent, t0 + ms(1), "oldest first");
        assert_eq!(ledger.open_events(), 2);
        // Folding more events than are open is an accounting error.
        assert!(ledger.close(7, 2, at).is_err());
        assert!(ledger.close(9, 0, at).is_err());
        assert_eq!(ledger.close(7, 1, at).unwrap()[0].due, t0 + ms(2));
        assert_eq!(ledger.close(9, 1, at).unwrap().len(), 1);
        assert_eq!(ledger.open_events(), 0);
    }
}
