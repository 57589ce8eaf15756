//! Integration tests of hot re-sharding: `PlanService::resize` under
//! concurrent load must lose nothing, and migrated tenants must keep their
//! warm session caches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spindle::cluster::ClusterSpec;
use spindle::graph::{ComputationGraph, GraphBuilder, Modality, OpKind, TensorShape};
use spindle::service::{PlanService, ReplanSummary, ServiceConfig, SubmitError};

fn graph(batch: u32) -> Arc<ComputationGraph> {
    let mut b = GraphBuilder::new();
    let t = b.add_task("t", [Modality::Vision, Modality::Text], batch);
    let tower = b
        .add_op_chain(
            t,
            OpKind::Encoder(Modality::Vision),
            TensorShape::new(batch, 197, 768),
            4,
        )
        .unwrap();
    let loss = b
        .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(batch, 1, 768))
        .unwrap();
    b.add_flow(*tower.last().unwrap(), loss).unwrap();
    Arc::new(b.build().unwrap())
}

#[test]
fn resize_under_concurrent_load_loses_zero_accepted_submissions() {
    let (service, completions) = PlanService::start(
        ClusterSpec::homogeneous(1, 8),
        ServiceConfig {
            workers: 2,
            queue_depth: 8,
            ..ServiceConfig::default()
        },
    );
    let service = Arc::new(service);
    let accepted = Arc::new(AtomicU64::new(0));
    let done_submitting = Arc::new(AtomicBool::new(false));

    // Two submitter threads hammer the service across 8 tenants while the
    // main thread re-shards it repeatedly. Every Ok(()) is an accepted
    // submission the service owes us a completion for.
    let submitters: Vec<_> = (0..2u64)
        .map(|half| {
            let service = Arc::clone(&service);
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for round in 0..12u32 {
                    for tenant in (half * 4)..(half * 4 + 4) {
                        let g = graph(8 + (round % 4) * 8);
                        loop {
                            match service.submit(tenant, Arc::clone(&g)) {
                                Ok(()) => {
                                    accepted.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                Err(SubmitError::QueueFull { retry_hint }) => {
                                    std::thread::sleep(retry_hint.min(Duration::from_millis(2)));
                                }
                                Err(other) => panic!("service must stay alive: {other}"),
                            }
                        }
                    }
                }
            })
        })
        .collect();

    // Re-shard while the submitters are running: grow, shrink, grow again.
    // The loop runs until the submitters finish, so the number of resizes
    // depends on host speed; each one moves at most the live tenant
    // population (8), never more.
    let mut total_moves = 0;
    let mut resizes = 0;
    while !done_submitting.load(Ordering::Relaxed) {
        for workers in [4usize, 1, 3, 2] {
            let moved = service.resize(workers);
            assert!(moved <= 8, "one resize moved {moved} of 8 tenants");
            total_moves += moved;
            resizes += 1;
            assert_eq!(service.num_workers(), workers);
        }
        if submitters.iter().all(std::thread::JoinHandle::is_finished) {
            done_submitting.store(true, Ordering::Relaxed);
        }
    }
    for s in submitters {
        s.join().unwrap();
    }

    let accepted = accepted.load(Ordering::Relaxed);
    assert_eq!(accepted, 2 * 12 * 4, "every submission eventually accepted");
    let stats = Arc::try_unwrap(service)
        .expect("all clones dropped")
        .shutdown();
    assert_eq!(stats.errors, 0, "no re-plan may fail across re-shards");

    let mut served = 0u64;
    for done in completions.iter() {
        served += done.coalesced as u64;
        done.result.expect("every re-plan succeeds");
    }
    assert_eq!(
        served, accepted,
        "an accepted submission was lost during resize"
    );
    assert!(
        total_moves <= 8 * resizes,
        "moves: {total_moves} over {resizes} resizes"
    );
}

#[test]
fn migrated_tenants_keep_their_warm_caches() {
    let (service, completions) = PlanService::start(
        ClusterSpec::homogeneous(1, 8),
        ServiceConfig {
            workers: 3,
            queue_depth: 16,
            ..ServiceConfig::default()
        },
    );
    // Warm six tenants spread over three workers.
    let g = graph(16);
    for tenant in 0..6u64 {
        service.submit(tenant, Arc::clone(&g)).unwrap();
    }
    let mut cold_fingerprints = std::collections::BTreeMap::new();
    for _ in 0..6 {
        let done = completions
            .recv_timeout(Duration::from_secs(30))
            .expect("cold completion");
        let outcome = done.result.expect("cold plan succeeds");
        cold_fingerprints.insert(done.tenant, ReplanSummary::of(&outcome).plan_fingerprint);
    }

    // Shrink to one worker: every tenant that lived on workers 1 and 2
    // migrates, sessions and caches riding along.
    let moved = service.resize(1);
    assert!(moved > 0, "shrinking 3->1 must migrate someone");
    assert!(moved <= 6);

    // Re-planning the identical graph must be cache-served for *every*
    // tenant — migration preserved the warm session state bit for bit.
    for tenant in 0..6u64 {
        service.submit(tenant, Arc::clone(&g)).unwrap();
    }
    for _ in 0..6 {
        let done = completions
            .recv_timeout(Duration::from_secs(30))
            .expect("warm completion");
        let outcome = done.result.expect("warm plan succeeds");
        assert!(
            outcome.warm,
            "tenant {} lost its curve cache in the move",
            done.tenant
        );
        assert!(
            outcome.placement_reused,
            "tenant {} lost its structural cache in the move",
            done.tenant
        );
        assert_eq!(
            ReplanSummary::of(&outcome).plan_fingerprint,
            cold_fingerprints[&done.tenant],
            "tenant {} re-planned differently after migrating",
            done.tenant
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.replans, 12);
}
