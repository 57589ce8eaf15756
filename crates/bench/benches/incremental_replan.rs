//! Incremental delta re-planning under task churn: the structural plan cache
//! versus the full pipeline, at paper scale and at hyperscale.
//!
//! Every case alternates between two task mixes that differ by exactly one
//! task (the single-task-churn regime of dynamic schedules) against a
//! session whose curve cache *and* structural cache are warm, so the numbers
//! isolate the cost of re-planning itself:
//!
//! * `incremental_replan_*` — structural cache on (the default): clean
//!   levels are spliced, recurring structures reuse the placed skeleton.
//! * `full_replan_*` — structural cache off: contraction, MPSP, wavefront
//!   scheduling, memory estimation and placement all re-run (the pre-cache
//!   warm path).
//!
//! The printed bench lines time the alternating *pair*; the JSON report
//! records the halved mean, i.e. **ns per re-plan**, in
//! `BENCH_incremental.json`. The printed incremental speedups compare the
//! fastest iterations. Quick mode (`SPINDLE_BENCH_QUICK=1`) shrinks
//! iteration counts for the CI gate.
//!
//! ```bash
//! cargo bench -p spindle-bench --bench incremental_replan
//! ```

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

use spindle_bench::microbench::{bench, group, quick_mode, write_json_report, Timing};
use spindle_cluster::{ClusterSpec, DeviceId};
use spindle_core::{PlannerConfig, SpindleSession};
use spindle_graph::ComputationGraph;
use spindle_runtime::{migration_flows, price_migration};
use spindle_workloads::{hyperscale_subset, multitask_clip, HYPERSCALE_DEFAULT_TASKS};

fn report_path() -> PathBuf {
    if let Ok(path) = std::env::var("SPINDLE_BENCH_OUT") {
        return PathBuf::from(path);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_incremental.json")
}

/// Halves a pair timing into a per-replan timing.
fn per_replan(pair: Timing) -> Timing {
    Timing {
        iters: pair.iters,
        min: pair.min / 2,
        mean: pair.mean / 2,
        max: pair.max / 2,
    }
}

/// One alternating single-task-churn case: the two task mixes, the cluster,
/// and whether the structural cache is on.
struct ChurnCase<'a> {
    name: &'a str,
    cluster: &'a ClusterSpec,
    a: &'a ComputationGraph,
    b: &'a ComputationGraph,
    structural: bool,
}

/// Benches alternating single-task-churn re-plans, with the structural cache
/// on or off. The session is pre-warmed on both mixes so the measurement
/// captures steady-state churn, not first-sight fitting.
fn churn_case(
    case: &ChurnCase<'_>,
    warmup: u32,
    iters: u32,
    report: &mut Vec<(String, Timing)>,
) -> Timing {
    let ChurnCase {
        name,
        cluster,
        a,
        b,
        structural,
    } = *case;
    let config = PlannerConfig {
        structural_cache: structural,
        ..PlannerConfig::default()
    };
    let mut session = SpindleSession::with_config(cluster.clone(), config);
    session.plan(a).unwrap();
    session.plan(b).unwrap();
    let t = bench(name, warmup, iters, || {
        let _ = session.replan(a).unwrap();
        let _ = session.replan(b).unwrap();
    });
    let t = per_replan(t);
    if structural {
        // The measured regime must actually be incremental; assert it.
        let probe = session.replan(a).unwrap();
        assert_eq!(
            probe.levels_reused, probe.levels_total,
            "warm churn re-plans must be served structurally"
        );
    }
    report.push((name.to_string(), t));
    t
}

fn main() {
    let quick = quick_mode();
    let (warmup, iters) = if quick { (1, 3) } else { (3, 30) };
    println!(
        "incremental_replan: per-replan cost of single-task churn{}",
        if quick { " (quick mode)" } else { "" }
    );
    let mut report: Vec<(String, Timing)> = Vec::new();

    // -- Paper scale: Multitask-CLIP, 10 vs 9 tasks on 32 GPUs ---------------
    group("paper scale: clip 10<->9 tasks, 32 gpus");
    let clip_cluster = ClusterSpec::homogeneous(4, 8);
    let clip10 = multitask_clip(10).unwrap();
    let clip9 = multitask_clip(9).unwrap();
    let inc = churn_case(
        &ChurnCase {
            name: "incremental_replan_clip-10t/32gpu",
            cluster: &clip_cluster,
            a: &clip10,
            b: &clip9,
            structural: true,
        },
        warmup,
        iters,
        &mut report,
    );
    let full = churn_case(
        &ChurnCase {
            name: "full_replan_clip-10t/32gpu",
            cluster: &clip_cluster,
            a: &clip10,
            b: &clip9,
            structural: false,
        },
        warmup,
        iters,
        &mut report,
    );
    let clip_speedup = full.min.as_secs_f64() / inc.min.as_secs_f64();
    println!("incremental speedup over full re-plan (clip-10t/32gpu): {clip_speedup:.2}x");

    // -- Hyperscale: 48 tasks churning one shallow task on 256 GPUs ----------
    group("hyperscale: 48<->47 tasks, 256 gpus");
    let hyper_cluster = ClusterSpec::homogeneous(32, 8);
    let all: Vec<usize> = (0..HYPERSCALE_DEFAULT_TASKS).collect();
    // Slot 1 is a shallow task: its departure leaves the deep-only levels
    // clean, so even first-sight churn is partially incremental.
    let minus_one: Vec<usize> = all.iter().copied().filter(|&s| s != 1).collect();
    let hyper_a = hyperscale_subset(&all).unwrap();
    let hyper_b = hyperscale_subset(&minus_one).unwrap();
    let inc = churn_case(
        &ChurnCase {
            name: "incremental_replan_hyperscale-48t/256gpu",
            cluster: &hyper_cluster,
            a: &hyper_a,
            b: &hyper_b,
            structural: true,
        },
        warmup,
        iters,
        &mut report,
    );
    let full = churn_case(
        &ChurnCase {
            name: "full_replan_hyperscale-48t/256gpu",
            cluster: &hyper_cluster,
            a: &hyper_a,
            b: &hyper_b,
            structural: false,
        },
        warmup,
        iters,
        &mut report,
    );
    let hyper_speedup = full.min.as_secs_f64() / inc.min.as_secs_f64();
    println!("incremental speedup over full re-plan (hyperscale-48t/256gpu): {hyper_speedup:.2}x");

    // Context: what a cold hyperscale plan costs (fresh session each pass —
    // dominated by first-time curve fitting).
    let cold = bench("cold_plan_hyperscale-48t/256gpu", 0, iters.min(5), || {
        let _ = SpindleSession::new(hyper_cluster.clone())
            .plan(&hyper_a)
            .unwrap();
    });
    report.push(("cold_plan_hyperscale-48t/256gpu".to_string(), cold));

    // -- Elastic topology churn: migration-aware partial re-plan -------------
    // One device dies, the session re-plans onto the survivors (clean-prefix
    // placements reused, migration priced), the device returns, the session
    // re-plans back. The halved pair is the steady-state latency of one
    // topology-change re-plan — the number the elastic service pays per
    // tenant on every churn broadcast.
    group("elastic churn: device loss -> re-plan -> restore -> re-plan");
    let mut session = SpindleSession::new(clip_cluster.clone());
    session.plan(&clip10).unwrap();
    let dead = [DeviceId(31)];
    // First sight of the shrunk topology must actually be migration-aware
    // churn; afterwards the loss-keyed placement is cached and steady-state
    // churn re-plans are served structurally (devices_lost 0 against the
    // cached shrunk placement) — exactly the regime the bench times.
    session.remove_devices(&dead).unwrap();
    let probe = session.replan(&clip10).unwrap();
    assert_eq!(
        probe.devices_lost, 1,
        "loss re-plan must see the dead device"
    );
    session.restore_devices(&dead);
    session.replan(&clip10).unwrap();
    let t = bench("churn_replan_clip-10t/32gpu", warmup, iters, || {
        session.remove_devices(&dead).unwrap();
        let _ = session.replan(&clip10).unwrap();
        session.restore_devices(&dead);
        let _ = session.replan(&clip10).unwrap();
    });
    report.push(("churn_replan_clip-10t/32gpu".to_string(), per_replan(t)));

    let mut session = SpindleSession::new(hyper_cluster.clone());
    session.plan(&hyper_a).unwrap();
    let dead = [DeviceId(255)];
    let t = bench("churn_replan_hyperscale-48t/256gpu", warmup, iters, || {
        session.remove_devices(&dead).unwrap();
        let _ = session.replan(&hyper_a).unwrap();
        session.restore_devices(&dead);
        let _ = session.replan(&hyper_a).unwrap();
    });
    report.push((
        "churn_replan_hyperscale-48t/256gpu".to_string(),
        per_replan(t),
    ));

    // -- Migration of a device event: derive and price the moved shards ------
    // The 48-task mix loses node 1 (eight GPUs) and the session re-plans
    // onto the survivors once. The bench times the runtime's migration layer
    // of that fixed re-plan: deriving the shard moves (`migration_flows`) and
    // pricing them under link contention (`price_migration`). The number of
    // moves is a deterministic work count.
    group("migration: one node lost from the 48-task mix, 256 gpus");
    let mut session = SpindleSession::new(hyper_cluster.clone());
    let before = session.plan(&hyper_a).unwrap();
    let node: Vec<DeviceId> = (8..16).map(DeviceId).collect();
    session.remove_devices(&node).unwrap();
    let after = session.replan(&hyper_a).unwrap().plan;
    let survivors = session.cluster_handle();
    let moves = migration_flows(&before, &after, &survivors).flows.len();
    println!("{:48} {moves} shard moves", "");
    let t = bench("migrate_hyperscale-48t/256gpu", warmup, iters, || {
        let migration = migration_flows(&before, &after, &survivors);
        black_box(price_migration(&survivors, &migration.flows, true));
    });
    report.push(("migrate_hyperscale-48t/256gpu".to_string(), t));
    report.push((
        "work_migrate_flows_hyperscale-48t/256gpu".to_string(),
        Timing::exact(Duration::from_nanos(moves as u64)),
    ));

    // -- Recovery re-plan: whole-node loss with restore accounting -----------
    // An entire NVLink island dies, so some MetaOps lose every replica: the
    // re-plan must detect them, and the runtime partitions the delta into
    // migration flows and priced storage restores. The halved pair is the
    // steady-state latency of one recovery-aware re-plan *including* flow
    // derivation and restore pricing — the full control-plane cost of a
    // fault, minus the simulated data movement itself.
    group("recovery re-plan: whole-node loss -> restore-priced re-plan");
    let recovery_cluster = ClusterSpec::homogeneous(2, 4)
        .with_storage(spindle_cluster::StorageSpec::disaggregated_nvme());
    let clip5 = multitask_clip(5).unwrap();
    let policy = spindle_runtime::CheckpointPolicy::every(64);
    let node1: Vec<DeviceId> = (4..8).map(DeviceId).collect();
    let mut session = SpindleSession::new(recovery_cluster.clone());
    let mut prev = session.plan(&clip5).unwrap();
    // Prove the case exercises the restore path before timing it.
    session.remove_devices(&node1).unwrap();
    let shrunk = session.replan(&clip5).unwrap();
    let probe = migration_flows(&prev, &shrunk.plan, &session.cluster_handle());
    assert!(
        probe.restore_bytes() > 0,
        "whole-node loss must strand MetaOps for the recovery bench to be honest"
    );
    session.restore_devices(&node1);
    prev = session.replan(&clip5).unwrap().plan;
    let t = bench("recovery_replan_clip-5t/8gpu", warmup, iters, || {
        session.remove_devices(&node1).unwrap();
        let outcome = session.replan(&clip5).unwrap();
        let migration = migration_flows(&prev, &outcome.plan, &session.cluster_handle());
        let stall = spindle_runtime::price_restore(
            &session.cluster_handle(),
            &migration.restores,
            &policy,
            true,
        );
        assert!(stall.is_finite());
        session.restore_devices(&node1);
        prev = session.replan(&clip5).unwrap().plan;
    });
    report.push(("recovery_replan_clip-5t/8gpu".to_string(), per_replan(t)));

    let path = report_path();
    write_json_report(&path, &report).expect("write BENCH_incremental.json");
    println!("\nwrote {} entries to {}", report.len(), path.display());

    // The acceptance bars of the incremental re-planning work, checked after
    // the report is written so a failing ratio still leaves its numbers.
    // Both ratios compare fastest iterations, which one host stall cannot
    // inflate the way it inflates a mean. Guarded only outside quick mode:
    // CI smoke iteration counts are too small for stable ratios (the perf
    // gate tracks absolute regressions instead).
    if !quick {
        assert!(
            clip_speedup >= 3.0,
            "single-task churn at paper scale must be >=3x faster incrementally, got {clip_speedup:.2}x"
        );
        assert!(
            hyper_speedup >= 5.0,
            "hyperscale churn must be >=5x faster incrementally, got {hyper_speedup:.2}x"
        );
    }
}
