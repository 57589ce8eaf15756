//! Invariants of the event-driven runtime simulator, checked through the
//! public facade: determinism (same seed ⇒ byte-identical event log, and one
//! contended hyperscale run pinned to the bit),
//! conservation (per-device busy time never exceeds the makespan), and the
//! cross-check oracle (the serialized, contention-free simulation matches the
//! closed form to 1e-9 for every system on every preset workload).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use spindle::cluster::{CommModel, LinkId, NodeId};
use spindle::prelude::*;
use spindle::runtime::{
    BackgroundFlow, CommMode, DynamicRunLoop, LocalizedPlan, SimConfig, SimEventKind, Straggler,
};
use spindle::workloads::{hyperscale, ArrivalSchedule, DynamicWorkload};

/// The paper's Fig. 8 presets, each on its smallest evaluated cluster.
fn preset_cases() -> Vec<(WorkloadPreset, ClusterSpec)> {
    WorkloadPreset::figure8_presets()
        .into_iter()
        .map(|preset| {
            let gpus = preset
                .paper_cluster_sizes()
                .into_iter()
                .min()
                .expect("preset has cluster sizes");
            (preset, ClusterSpec::homogeneous((gpus / 8).max(1), 8))
        })
        .collect()
}

#[test]
fn contention_free_simulation_matches_analytical_engine_on_all_presets() {
    for (preset, cluster) in preset_cases() {
        let graph = preset.build().unwrap();
        let mut session = SpindleSession::new(cluster.clone());
        for system in SystemKind::ALL {
            let plan = Arc::new(system.planning_system().plan(&graph, &mut session).unwrap());
            let closed_form = LocalizedPlan::new(Arc::clone(&plan), &cluster, Some(&graph))
                .unwrap()
                .closed_form_iteration_s(&CommModel::new(&cluster));
            let sim = Simulator::new(&plan, &cluster)
                .with_graph(&graph)
                .run_iteration()
                .unwrap();
            let gap = sim.gap_vs(closed_form).abs();
            assert!(
                gap < 1e-9,
                "{preset} / {system}: sim {:.6} ms vs closed form {:.6} ms (gap {gap:e})",
                sim.total_ms(),
                closed_form * 1e3
            );
            // Every wave starts when planned, and two waves computing at the
            // same time never share a device.
            let mut spans = vec![(f64::NAN, f64::NAN); plan.num_waves()];
            for event in sim.event_log().entries() {
                match event.kind {
                    SimEventKind::ComputeStart { wave, .. } => spans[wave].0 = event.time_s,
                    SimEventKind::WaveComplete { wave } => spans[wave].1 = event.time_s,
                    _ => {}
                }
            }
            let devices = |w: usize| -> BTreeSet<DeviceId> {
                plan.waves()[w]
                    .entries
                    .iter()
                    .flat_map(|e| e.placement.as_ref().unwrap().iter())
                    .collect()
            };
            for (w, wave) in plan.waves().iter().enumerate() {
                assert!(
                    (spans[w].0 - wave.start).abs() <= 1e-9 * (1.0 + wave.start),
                    "{preset} / {system}: wave {w} starts at {} s, planned {} s",
                    spans[w].0,
                    wave.start
                );
                for v in (0..w).filter(|&v| spans[v].0 < spans[w].1 && spans[w].0 < spans[v].1) {
                    assert!(
                        devices(v).is_disjoint(&devices(w)),
                        "{preset} / {system}: waves {v} and {w} overlap on a device"
                    );
                }
            }
        }
    }
}

#[test]
fn same_seed_produces_byte_identical_event_logs() {
    let graph = multitask_clip(4).unwrap();
    let cluster = ClusterSpec::homogeneous(2, 8);
    let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
    let config = SimConfig {
        seed: 0xFEED,
        comm_mode: CommMode::Overlapped,
        contention: true,
        compute_jitter: 0.08,
        stragglers: vec![Straggler {
            device: DeviceId(5),
            slowdown: 2.0,
            from_s: 0.0,
            until_s: 0.02,
        }],
        ..SimConfig::default()
    };
    let run = || {
        Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .with_config(config.clone())
            .run_iteration()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.event_log().render().into_bytes(),
        b.event_log().render().into_bytes(),
        "same seed must replay the exact event log"
    );
    assert_eq!(a.total_s(), b.total_s());
    // A different seed perturbs compute times, so the log changes.
    let c = Simulator::new(&plan, &cluster)
        .with_graph(&graph)
        .with_config(SimConfig {
            seed: 0xBEEF,
            ..config
        })
        .run_iteration()
        .unwrap();
    assert_ne!(a.event_log().render(), c.event_log().render());
}

#[test]
fn per_device_busy_time_never_exceeds_makespan() {
    for (preset, cluster) in preset_cases() {
        let graph = preset.build().unwrap();
        let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
        for config in [SimConfig::default(), SimConfig::contended()] {
            let sim = Simulator::new(&plan, &cluster)
                .with_graph(&graph)
                .with_config(config)
                .run_iteration()
                .unwrap();
            assert!(sim.total_s() > 0.0);
            for (&device, &busy) in sim.device_busy_s() {
                assert!(
                    busy <= sim.total_s() + 1e-9,
                    "{preset}: {device} busy {busy:.6}s exceeds makespan {:.6}s",
                    sim.total_s()
                );
            }
            assert!(
                sim.device_busy_s().values().any(|&b| b > 0.0),
                "{preset}: someone must compute"
            );
        }
    }
}

#[test]
fn event_log_is_well_formed_and_time_ordered() {
    let graph = ofasys(4).unwrap();
    let cluster = ClusterSpec::homogeneous(1, 8);
    let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
    let sim = Simulator::new(&plan, &cluster)
        .with_graph(&graph)
        .with_config(SimConfig::contended())
        .run_iteration()
        .unwrap();
    let log = sim.event_log();
    assert!(log
        .entries()
        .windows(2)
        .all(|w| w[0].time_s <= w[1].time_s + 1e-12));
    let starts = log
        .entries()
        .iter()
        .filter(|e| matches!(e.kind, SimEventKind::ComputeStart { .. }))
        .count();
    let ends = log
        .entries()
        .iter()
        .filter(|e| matches!(e.kind, SimEventKind::ComputeEnd { .. }))
        .count();
    assert_eq!(starts, ends, "every compute start must end");
    let flow_starts = log
        .entries()
        .iter()
        .filter(|e| matches!(e.kind, SimEventKind::FlowStart { .. }))
        .count();
    assert_eq!(flow_starts, sim.flows_executed());
    assert!(matches!(
        log.entries().last().unwrap().kind,
        SimEventKind::IterationEnd
    ));
}

#[test]
fn heterogeneous_and_straggler_scenarios_degrade_gracefully() {
    let graph = multitask_clip(4).unwrap();
    let cluster = ClusterSpec::homogeneous(2, 8);
    let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
    let nominal = Simulator::new(&plan, &cluster)
        .with_graph(&graph)
        .run_iteration()
        .unwrap();
    // Slowing half the cluster to 50% at most doubles the iteration and never
    // improves it.
    let speed_factors: BTreeMap<DeviceId, f64> = (8..16).map(|d| (DeviceId(d), 0.5)).collect();
    let hetero = Simulator::new(&plan, &cluster)
        .with_graph(&graph)
        .with_config(SimConfig {
            speed_factors,
            ..SimConfig::default()
        })
        .run_iteration()
        .unwrap();
    assert!(hetero.total_s() >= nominal.total_s() - 1e-12);
    assert!(hetero.total_s() <= nominal.total_s() * 2.0 + 1e-9);
    // A straggler window that ends before the run starts changes nothing.
    let noop = Simulator::new(&plan, &cluster)
        .with_graph(&graph)
        .with_config(SimConfig {
            stragglers: vec![Straggler {
                device: DeviceId(0),
                slowdown: 10.0,
                from_s: -2.0,
                until_s: 0.0,
            }],
            ..SimConfig::default()
        })
        .run_iteration()
        .unwrap();
    assert!((noop.total_s() - nominal.total_s()).abs() < 1e-12);
}

#[test]
fn dynamic_run_loop_replans_online_and_reports_cache_warmth() {
    let workload = DynamicWorkload::multitask_clip_schedule().unwrap();
    let schedule = ArrivalSchedule::from_workload(&workload, 0.08);
    let mut session = SpindleSession::new(ClusterSpec::homogeneous(2, 8));
    let report = DynamicRunLoop::new(&mut session).run(&schedule).unwrap();
    assert!(report.replans() >= 2, "the schedule must force ≥2 re-plans");
    assert!(report.warm_hit_rate() > 0.5);
    // The last phase repeats an earlier task mix: fully warm re-plan.
    assert!(report.phases.last().unwrap().warm);
    // Oracle-matching sim config: every phase's gap stays under 1%.
    assert!(report.worst_gap() < 0.01);
    // The session kept planning through the loop (one plan per phase).
    assert_eq!(session.plans_produced(), schedule.arrivals().len());
}

/// FNV-1a over `bytes`: a digest that, unlike std's hashers, is specified
/// and therefore stable across toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A contended hyperscale run: jittered compute, and checkpoint-style
/// background flows that share node uplinks with the training traffic.
fn contended_hyperscale_run(background_s: f64) -> spindle::runtime::SimReport {
    let graph = hyperscale(16).unwrap();
    let cluster = ClusterSpec::homogeneous(16, 8);
    let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
    let background_flows = (0..4)
        .map(|n| BackgroundFlow {
            nominal_s: background_s * f64::from(n + 1),
            footprint: vec![
                LinkId::Uplink(NodeId(n * 4)),
                LinkId::StorageLink(NodeId(n * 4)),
                LinkId::StorageSpine,
            ],
        })
        .collect();
    Simulator::new(&plan, &cluster)
        .with_graph(&graph)
        .with_config(SimConfig {
            seed: 0x00C0_FFEE,
            compute_jitter: 0.05,
            background_flows,
            ..SimConfig::contended()
        })
        .run_iteration()
        .unwrap()
}

#[test]
fn contended_hyperscale_run_is_pinned_bit_for_bit() {
    let run = contended_hyperscale_run(0.004);
    let digest = fnv1a(run.event_log().render().as_bytes());
    // The background flows end mid-iteration: the same run with flows that
    // outlive it diverges, because their links free up before the end.
    let outlived = contended_hyperscale_run(1e3);
    assert_ne!(run.total_s(), outlived.total_s());
    // Pinned before the link-indexed repricing landed; any change to the
    // contention model's arithmetic or event order moves these.
    assert_eq!(run.total_s().to_bits(), 0x3fb2_b712_4451_9ec1);
    assert_eq!(digest, 0x8f75_f464_a9d2_c67e);
}
