//! Multi-tenant load generator for the planning service.
//!
//! Replays seeded [`TenantFleet`] traces (CLIP-style tenants at paper scale,
//! hyperscale-churn tenants at 256 simulated GPUs) against a service as fast
//! as it accepts them (open loop with retry-on-backpressure), then reports
//! per-event latency percentiles, coalescing ratio and throughput — both
//! human-readable and as a flat JSON bench report (`BENCH_service.json`) the
//! `bench_gate` binary can compare against the checked-in baseline.
//!
//! The replay is generic over [`ServiceApi`], so the same code drives the
//! in-process fast path ([`LocalClient`]) and the framed-TCP ingress
//! ([`TcpClient`] against a loopback [`TcpIngress`]). The CLIP fleet runs on
//! *both* transports and the per-tenant final plan fingerprints must match
//! bit for bit — the transport-equivalence proof of the wire protocol.
//!
//! ```bash
//! cargo run --release -p spindle-service --bin loadgen
//! # CI smoke: SPINDLE_BENCH_QUICK=1 cargo run --release -p spindle-service --bin loadgen
//! ```
//!
//! Flags: `--tenants N` overrides the fleet size of both scenarios;
//! `--quick` equals `SPINDLE_BENCH_QUICK=1`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use spindle_cluster::ClusterSpec;
use spindle_core::PlannerConfig;
use spindle_service::{
    ApiCompletion, Backoff, LocalClient, ServiceApi, ServiceConfig, SubmitError, TcpClient,
    TcpIngress,
};
use spindle_workloads::TenantFleet;

fn quick_mode() -> bool {
    std::env::var("SPINDLE_BENCH_QUICK").is_ok_and(|v| v == "1" || v == "true")
        || std::env::args().any(|a| a == "--quick")
}

fn tenants_override() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--tenants")?;
    args.get(at + 1)?.parse().ok()
}

fn report_path() -> PathBuf {
    if let Ok(path) = std::env::var("SPINDLE_BENCH_OUT") {
        return PathBuf::from(path);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json")
}

/// Everything measured over one fleet replay.
struct RunReport {
    label: &'static str,
    tenants: usize,
    events: usize,
    replans: u64,
    rejections: u64,
    throttled: u64,
    coalescing_ratio: f64,
    p50: Duration,
    p99: Duration,
    wall: Duration,
    max_cache_bytes: usize,
    evictions: u64,
    /// Each tenant's final plan fingerprint — the transport-equivalence
    /// witness.
    fingerprints: BTreeMap<u64, u64>,
}

impl RunReport {
    fn ns_per_event(&self) -> f64 {
        self.wall.as_secs_f64() * 1e9 / self.events as f64
    }
}

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentile of an empty latency set");
    let rank = ((sorted.len() as f64 * pct).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Replays `fleet` through any transport, open loop: events are submitted
/// in timeline order as fast as the bounded queues accept them; on
/// backpressure the generator waits for a completion (which frees a slot)
/// and retries the same event, so no accepted-then-dropped events exist.
fn replay<A: ServiceApi>(
    label: &'static str,
    fleet: &TenantFleet,
    cache_budget: usize,
    mut client: A,
) -> RunReport {
    let mut tally = Tally {
        cache_budget,
        latencies: Vec::with_capacity(fleet.events().len()),
        served: 0,
        max_cache_bytes: 0,
        evictions: 0,
        fingerprints: BTreeMap::new(),
    };
    let mut rejections = 0u64;
    let mut throttled = 0u64;
    let mut backoff = Backoff::new(0x10ad_9e4e ^ fleet.events().len() as u64);
    let start = Instant::now();
    for event in fleet.events() {
        // Opportunistically drain finished work between submissions.
        while let Some(done) = client.poll_completion(Duration::ZERO) {
            tally.record(&done);
        }
        let mut attempt = 0u32;
        loop {
            let retry_hint = match client.submit(event.tenant as u64, &event.graph) {
                Ok(()) => break,
                Err(SubmitError::QueueFull { retry_hint }) => {
                    rejections += 1;
                    retry_hint
                }
                Err(SubmitError::Throttled { retry_hint }) => {
                    throttled += 1;
                    retry_hint
                }
                Err(SubmitError::WorkerGone) => unreachable!("workers outlive the replay"),
            };
            // Backpressure or quota: back off for the hinted interval
            // (doubled per consecutive rejection, jittered, capped), draining
            // completions while we wait — each one frees a queue slot soon
            // after, so waiting on completions *is* the backoff.
            let delay = backoff.delay(retry_hint, attempt);
            attempt += 1;
            let wait_until = Instant::now() + delay;
            loop {
                let left = wait_until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match client.poll_completion(left) {
                    Some(done) => tally.record(&done),
                    None => break,
                }
            }
        }
    }
    let (stats, rest) = client.finish();
    for done in rest {
        tally.record(&done);
    }
    let wall = start.elapsed();
    assert_eq!(
        tally.served,
        fleet.events().len(),
        "every event must be served"
    );
    assert_eq!(stats.errors, 0, "no plan may fail");
    tally.latencies.sort_unstable();
    RunReport {
        label,
        tenants: fleet.num_tenants(),
        events: tally.served,
        replans: stats.replans,
        rejections,
        throttled,
        coalescing_ratio: stats.coalescing_ratio(),
        p50: percentile(&tally.latencies, 0.50),
        p99: percentile(&tally.latencies, 0.99),
        wall,
        max_cache_bytes: tally.max_cache_bytes,
        evictions: tally.evictions,
        fingerprints: tally.fingerprints,
    }
}

/// Accumulates completion-side measurements during a replay.
struct Tally {
    cache_budget: usize,
    latencies: Vec<Duration>,
    served: usize,
    max_cache_bytes: usize,
    evictions: u64,
    fingerprints: BTreeMap<u64, u64>,
}

impl Tally {
    fn record(&mut self, done: &ApiCompletion) {
        self.latencies.push(done.total_latency());
        self.served += done.coalesced;
        let outcome = done.result.as_ref().expect("fleet graphs always plan");
        assert!(
            outcome.cache.bytes <= self.cache_budget,
            "session caches exceeded their byte budgets: {} > {}",
            outcome.cache.bytes,
            self.cache_budget
        );
        self.max_cache_bytes = self.max_cache_bytes.max(outcome.cache.bytes);
        self.evictions += outcome.cache.evictions;
        self.fingerprints
            .insert(done.tenant, outcome.plan_fingerprint);
    }
}

fn print_report(r: &RunReport) {
    println!("== {} ==", r.label);
    println!(
        "  {} tenants, {} events -> {} re-plans (coalescing ratio {:.2}), {} backpressure rejections, {} throttled",
        r.tenants, r.events, r.replans, r.coalescing_ratio, r.rejections, r.throttled
    );
    println!(
        "  latency p50 {:.3} ms, p99 {:.3} ms; {:.0} events/s over {:.2} s",
        r.p50.as_secs_f64() * 1e3,
        r.p99.as_secs_f64() * 1e3,
        r.events as f64 / r.wall.as_secs_f64(),
        r.wall.as_secs_f64()
    );
    println!(
        "  caches: max {} KiB per session, {} evictions across the fleet",
        r.max_cache_bytes / 1024,
        r.evictions
    );
}

/// Hand-rolled flat JSON (no JSON crate offline): `{name: ns, ...}`.
fn write_report(path: &std::path::Path, entries: &[(String, f64)]) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("  \"{name}\": {ns:.1}{comma}\n"));
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn main() {
    let quick = quick_mode();
    let tenants = tenants_override().unwrap_or(if quick { 12 } else { 120 });
    let phases = if quick { 2 } else { 4 };
    println!(
        "spindle loadgen: {tenants} tenants/fleet, {phases} phases/tenant{}",
        if quick { " (quick mode)" } else { "" }
    );

    let default_budget = PlannerConfig::default().structural_cache_budget
        + PlannerConfig::default().curve_cache_budget;

    // Scenario 1 — CLIP tenants at paper scale (32 GPUs), default budgets,
    // in-process transport.
    let clip = TenantFleet::clip_fleet(11, tenants, phases, 30.0).expect("clip fleet builds");
    let clip_cluster = ClusterSpec::homogeneous(4, 8);
    let clip_report = replay(
        "clip-fleet (local)",
        &clip,
        default_budget,
        LocalClient::start(
            clip_cluster.clone(),
            ServiceConfig {
                queue_depth: 32,
                ..ServiceConfig::default()
            },
        ),
    );
    print_report(&clip_report);

    // Scenario 2 — hyperscale-churn tenants on 256 simulated GPUs, with
    // deliberately tight cache budgets: a long trace must keep every
    // session's bytes bounded and visibly evict (the acceptance criterion of
    // a daemon that never restarts).
    let tight = PlannerConfig {
        structural_cache_budget: 96 * 1024,
        curve_cache_budget: 16 * 1024,
        ..PlannerConfig::default()
    };
    let hyper =
        TenantFleet::hyperscale_fleet(7, tenants, phases.max(3), 12, 30.0).expect("hyper fleet");
    let hyper_report = replay(
        "hyper-fleet (local)",
        &hyper,
        tight.structural_cache_budget + tight.curve_cache_budget,
        LocalClient::start(
            ClusterSpec::homogeneous(32, 8),
            ServiceConfig {
                queue_depth: 32,
                planner: tight,
                ..ServiceConfig::default()
            },
        ),
    );
    print_report(&hyper_report);

    // Scenario 3 — the same CLIP fleet over the TCP ingress on loopback.
    // Same cluster, same planner, same trace: the wire protocol must be
    // behaviorally invisible.
    let ingress = TcpIngress::bind(
        "127.0.0.1:0",
        clip_cluster,
        ServiceConfig {
            queue_depth: 32,
            ..ServiceConfig::default()
        },
    )
    .expect("binding the loopback ingress");
    let tcp_client = TcpClient::connect(ingress.local_addr()).expect("connecting to the ingress");
    let tcp_report = replay("clip-fleet (tcp)", &clip, default_budget, tcp_client);
    print_report(&tcp_report);
    ingress.shutdown();

    // Transport equivalence: every tenant's final plan fingerprint must be
    // bit-identical across transports — coalescing may fold different event
    // subsets, but the last event per tenant always wins and the planner is
    // deterministic.
    assert_eq!(
        clip_report.fingerprints, tcp_report.fingerprints,
        "TCP and in-process transports diverged on final plans"
    );
    println!(
        "transport equivalence: {} tenants, fingerprints bit-identical across local and tcp",
        clip_report.fingerprints.len()
    );

    // The wire must stay cheap: TCP p99 within 1.5x of in-process (plus a
    // small absolute allowance so micro-second-scale runs don't flap).
    let tcp_bound = clip_report
        .p99
        .mul_f64(1.5)
        .saturating_add(Duration::from_millis(2));
    assert!(
        tcp_report.p99 <= tcp_bound,
        "tcp p99 {:?} exceeds 1.5x local p99 {:?}",
        tcp_report.p99,
        clip_report.p99
    );

    if !quick {
        // Acceptance criteria of the service PR, asserted where they are
        // measured: bursty open-loop replay must coalesce, and the tight
        // hyperscale budgets must actually evict.
        assert!(
            clip_report.coalescing_ratio > 1.0 || hyper_report.coalescing_ratio > 1.0,
            "open-loop replay must coalesce somewhere"
        );
        assert!(
            hyper_report.evictions > 0,
            "tight budgets over a long trace must evict"
        );
    }

    let entries = vec![
        (
            "service_replan_p50_clip-fleet".to_string(),
            clip_report.p50.as_secs_f64() * 1e9,
        ),
        (
            "service_replan_p99_clip-fleet".to_string(),
            clip_report.p99.as_secs_f64() * 1e9,
        ),
        (
            "service_replan_p50_hyper-fleet".to_string(),
            hyper_report.p50.as_secs_f64() * 1e9,
        ),
        (
            "service_replan_p99_hyper-fleet".to_string(),
            hyper_report.p99.as_secs_f64() * 1e9,
        ),
        (
            "service_event_ns_clip-fleet".to_string(),
            clip_report.ns_per_event(),
        ),
        (
            "service_event_ns_hyper-fleet".to_string(),
            hyper_report.ns_per_event(),
        ),
        (
            "ingress_p50_clip-fleet".to_string(),
            tcp_report.p50.as_secs_f64() * 1e9,
        ),
        (
            "ingress_p99_clip-fleet".to_string(),
            tcp_report.p99.as_secs_f64() * 1e9,
        ),
    ];
    let path = report_path();
    write_report(&path, &entries).expect("writing the bench report");
    println!("report: {}", path.display());
}
