//! Invariants of the event-driven runtime simulator, checked through the
//! public facade: determinism (same seed ⇒ byte-identical event log, and one
//! contended hyperscale run pinned to the bit),
//! conservation (per-device busy time never exceeds the makespan), and the
//! cross-check oracle (the serialized, contention-free simulation matches the
//! closed form to 1e-9 for every system on every preset workload).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use spindle::cluster::{LinkId, NodeId};
use spindle::core::{MetaOpId, PlanError};
use spindle::prelude::*;
use spindle::runtime::{
    BackgroundFlow, CommMode, DynamicRunLoop, FaultSpec, LocalizedPlan, RuntimeError, SimConfig,
    SimEventKind, Straggler,
};
use spindle::workloads::{
    hyperscale, hyperscale_subset, ArrivalSchedule, DynamicWorkload, HYPERSCALE_ROSTER,
};

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
                .closed_form_iteration_s();
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
    assert!(report.phases.last().unwrap().replan.warm);
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

/// Digest of what a run reports: FNV-1a over the rendered event log, then
/// the bits of `total_s`, of the breakdown and of every device's busy time.
fn report_digest(report: &SimReport) -> u64 {
    let mut bytes = report.event_log().render().into_bytes();
    let b = report.breakdown();
    for x in [report.total_s(), b.fwd_bwd_s, b.sync_s, b.send_recv_s] {
        bytes.extend(x.to_bits().to_le_bytes());
    }
    for (d, busy) in report.device_busy_s() {
        bytes.extend(d.0.to_le_bytes());
        bytes.extend(busy.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// One plan of the corpus: a graph, its cluster and the plan on it.
fn corpus_plan(
    graph: ComputationGraph,
    nodes: usize,
) -> (Arc<ExecutionPlan>, ComputationGraph, ClusterSpec) {
    let cluster = ClusterSpec::homogeneous(nodes, 8);
    let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
    (Arc::new(plan), graph, cluster)
}

fn corpus_run(
    (plan, graph, cluster): &(Arc<ExecutionPlan>, ComputationGraph, ClusterSpec),
    config: SimConfig,
) -> SimReport {
    Simulator::new(Arc::clone(plan), cluster)
        .with_graph(graph)
        .with_config(config)
        .run_iteration()
        .unwrap()
}

/// Contended runs of two `fig8-cold` mixes (the 64-slot roster minus one
/// slot, 512 GPUs), plain and jittered, digested and pinned. The digests
/// were recorded from the one-flow-at-a-time settle-and-reprice loop; the
/// batched loop must reproduce every bit.
#[test]
fn fig8_cold_contended_runs_match_the_recorded_digests() {
    let mut digests = Vec::new();
    for dropped in [5, 41] {
        let slots: Vec<usize> = (0..HYPERSCALE_ROSTER).filter(|&s| s != dropped).collect();
        let case = corpus_plan(hyperscale_subset(&slots).unwrap(), 64);
        for compute_jitter in [0.0, 0.05] {
            let run = corpus_run(
                &case,
                SimConfig {
                    compute_jitter,
                    ..SimConfig::contended()
                },
            );
            digests.push(report_digest(&run));
        }
    }
    assert_eq!(
        digests,
        [
            0x0b0c_fa59_f649_296e,
            0xe6b4_6e07_db66_6aa0,
            0xc883_1119_1c07_4af2,
            0x8d35_7303_5079_b73e,
        ],
        "{digests:#018x?}"
    );
}

/// The rest of the corpus, on one plan of 48 tasks on 256 GPUs: the plain
/// contended run, background flows that share uplinks with the training
/// traffic and with each other, stragglers with speed factors, the
/// serialized tail under contention, and a fault that fires during the sync
/// stage.
#[test]
fn contended_corner_cases_match_the_recorded_digests() {
    let mut digests = Vec::new();
    let case = corpus_plan(hyperscale(48).unwrap(), 32);
    let plain = corpus_run(&case, SimConfig::contended());
    digests.push(report_digest(&plain));
    let background_flows = vec![
        BackgroundFlow {
            nominal_s: 0.002,
            footprint: vec![LinkId::Uplink(NodeId(0)), LinkId::StorageLink(NodeId(0))],
        },
        BackgroundFlow {
            nominal_s: 0.004,
            footprint: vec![
                LinkId::Uplink(NodeId(0)),
                LinkId::Uplink(NodeId(0)),
                LinkId::StorageSpine,
            ],
        },
        BackgroundFlow {
            nominal_s: 0.003,
            footprint: vec![
                LinkId::Uplink(NodeId(5)),
                LinkId::StorageLink(NodeId(5)),
                LinkId::StorageSpine,
            ],
        },
        BackgroundFlow {
            nominal_s: 1e3,
            footprint: vec![LinkId::Downlink(NodeId(9)), LinkId::StorageSpine],
        },
    ];
    let loaded = corpus_run(
        &case,
        SimConfig {
            background_flows,
            ..SimConfig::contended()
        },
    );
    assert_ne!(loaded.total_s(), plain.total_s());
    digests.push(report_digest(&loaded));

    let speed_factors: BTreeMap<DeviceId, f64> = (8..16).map(|d| (DeviceId(d), 0.8)).collect();
    digests.push(report_digest(&corpus_run(
        &case,
        SimConfig {
            speed_factors,
            stragglers: vec![
                Straggler::persistent(DeviceId(3), 1.5),
                Straggler {
                    device: DeviceId(42),
                    slowdown: 3.0,
                    from_s: 0.002,
                    until_s: 0.01,
                },
            ],
            ..SimConfig::contended()
        },
    )));

    digests.push(report_digest(&corpus_run(
        &case,
        SimConfig {
            comm_mode: CommMode::Serialized,
            contention: true,
            ..SimConfig::default()
        },
    )));

    // The fault fires halfway through the plain run's sync stage.
    let sync_start = plain
        .event_log()
        .entries()
        .iter()
        .find(|e| matches!(e.kind, SimEventKind::SyncStart { .. }))
        .unwrap()
        .time_s;
    let fault = FaultSpec {
        at_s: (sync_start + plain.total_s()) / 2.0,
        devices: vec![DeviceId(17), DeviceId(90)],
    };
    let (report, fired) = Simulator::new(Arc::clone(&case.0), &case.2)
        .with_graph(&case.1)
        .with_config(SimConfig::contended())
        .run_iteration_with_fault(&fault)
        .unwrap();
    assert!(fired.fired);
    let mut bytes = report_digest(&report).to_le_bytes().to_vec();
    for x in [fired.at_s, fired.wasted_compute_s] {
        bytes.extend(x.to_bits().to_le_bytes());
    }
    for n in [fired.killed_entries, fired.completed_waves] {
        bytes.extend((n as u64).to_le_bytes());
    }
    digests.push(fnv1a(&bytes));
    assert_eq!(
        digests,
        [
            0x3caf_c439_698e_734c,
            0x5a1e_a36f_fa30_d2d7,
            0xe9bd_cf1c_d5e0_a860,
            0x713e_2f18_9a10_75fe,
            0x9176_f58a_83f6_7cf5,
        ],
        "{digests:#018x?}"
    );
}

/// The ends a run logs: compute, transmission and all-reduce ends.
fn logged_ends(report: &SimReport) -> usize {
    report
        .event_log()
        .entries()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                SimEventKind::ComputeEnd { .. }
                    | SimEventKind::FlowEnd { .. }
                    | SimEventKind::SyncEnd { .. }
            )
        })
        .count()
}

/// A repriced flow moves its one completion event instead of leaving a
/// stale one behind, so every event the corpus runs pop is an end they
/// log — plus the ends of background flows, which are not logged, and the
/// event at which an armed fault fires.
#[test]
fn the_corpus_runs_pop_only_the_ends_they_log() {
    for dropped in [5, 41] {
        let slots: Vec<usize> = (0..HYPERSCALE_ROSTER).filter(|&s| s != dropped).collect();
        let case = corpus_plan(hyperscale_subset(&slots).unwrap(), 64);
        for compute_jitter in [0.0, 0.05] {
            let run = corpus_run(
                &case,
                SimConfig {
                    compute_jitter,
                    ..SimConfig::contended()
                },
            );
            assert_eq!(run.events_popped(), logged_ends(&run));
        }
    }
    let case = corpus_plan(hyperscale(48).unwrap(), 32);
    let speed_factors: BTreeMap<DeviceId, f64> = (8..16).map(|d| (DeviceId(d), 0.8)).collect();
    for config in [
        SimConfig::contended(),
        SimConfig {
            speed_factors,
            stragglers: vec![Straggler::persistent(DeviceId(3), 1.5)],
            ..SimConfig::contended()
        },
        SimConfig {
            comm_mode: CommMode::Serialized,
            contention: true,
            ..SimConfig::default()
        },
        SimConfig::default(),
    ] {
        let run = corpus_run(&case, config);
        assert_eq!(run.events_popped(), logged_ends(&run));
    }
    // Two background flows end mid-iteration; the third outlives it.
    let loaded = corpus_run(
        &case,
        SimConfig {
            background_flows: vec![
                BackgroundFlow {
                    nominal_s: 0.002,
                    footprint: vec![LinkId::Uplink(NodeId(0)), LinkId::StorageLink(NodeId(0))],
                },
                BackgroundFlow {
                    nominal_s: 0.003,
                    footprint: vec![LinkId::Uplink(NodeId(5)), LinkId::StorageSpine],
                },
                BackgroundFlow {
                    nominal_s: 1e3,
                    footprint: vec![LinkId::Downlink(NodeId(9)), LinkId::StorageSpine],
                },
            ],
            ..SimConfig::contended()
        },
    );
    assert_eq!(loaded.events_popped(), logged_ends(&loaded) + 2);
    // All four background flows of the pinned hyperscale run end inside it.
    let pinned = contended_hyperscale_run(0.004);
    assert_eq!(pinned.events_popped(), logged_ends(&pinned) + 4);
    // A fault fires at the event it pops and processes nothing after.
    let plain = corpus_run(&case, SimConfig::contended());
    let (faulted, fired) = Simulator::new(Arc::clone(&case.0), &case.2)
        .with_graph(&case.1)
        .with_config(SimConfig::contended())
        .run_iteration_with_fault(&FaultSpec {
            at_s: plain.total_s() / 2.0,
            devices: vec![DeviceId(17)],
        })
        .unwrap();
    assert!(fired.fired);
    assert_eq!(faulted.events_popped(), logged_ends(&faulted) + 1);
}

/// A wave entry naming a MetaOp the MetaGraph lacks is a typed plan error,
/// not an index panic inside localization.
#[test]
fn a_plan_naming_an_unknown_metaop_is_rejected() {
    let graph = multitask_clip(4).unwrap();
    let cluster = ClusterSpec::homogeneous(2, 8);
    let plan = SpindleSession::new(cluster.clone()).plan(&graph).unwrap();
    let unknown = MetaOpId(plan.metagraph().num_metaops() as u32 + 5);
    let mut waves = plan.waves().to_vec();
    let mut extra = waves.last().unwrap().clone();
    extra.index = waves.len();
    extra.entries.truncate(1);
    extra.entries[0].metaop = unknown;
    waves.push(extra);
    let broken = Arc::new(ExecutionPlan::new(
        waves,
        plan.metagraph_handle(),
        plan.num_devices(),
        plan.theoretical_optimum(),
        plan.planning_time(),
    ));
    let expected = PlanError::UnknownMetaOp {
        wave: plan.num_waves(),
        metaop: unknown,
    };
    assert_eq!(broken.validate(), Err(expected.clone()));
    assert_eq!(
        broken.check_invariants(cluster.device_memory_bytes()),
        Err(expected.clone())
    );
    let invalid = RuntimeError::InvalidPlan(expected);
    assert_eq!(
        LocalizedPlan::new(Arc::clone(&broken), &cluster, Some(&graph)).unwrap_err(),
        invalid
    );
    assert_eq!(
        Simulator::new(broken, &cluster)
            .with_config(SimConfig::contended())
            .run_iteration()
            .unwrap_err(),
        invalid
    );
}
