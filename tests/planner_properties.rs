//! Property-style tests of the planner's core invariants, driven by randomly
//! generated multi-task workloads and cluster shapes.
//!
//! The offline build environment has no `proptest`, so the generator is a
//! small deterministic xorshift PRNG: every run explores the same fixed set of
//! random workloads, which keeps failures reproducible by construction.

use spindle_cluster::ClusterSpec;
use spindle_core::{MetaGraph, SpindleSession};
use spindle_graph::{ComputationGraph, GraphBuilder, Modality, OpKind, TensorShape};
use spindle_runtime::Simulator;

/// Deterministic xorshift64* PRNG — a stand-in for proptest's generators.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.range(0, options.len() as u64) as usize]
    }
}

/// A randomly shaped contrastive task: modality pair, batch, tower depths.
#[derive(Debug, Clone)]
struct RandomTask {
    modality: Modality,
    batch: u32,
    seq: u32,
    hidden: u32,
    layers_a: usize,
    layers_b: usize,
}

fn random_task(rng: &mut Rng) -> RandomTask {
    RandomTask {
        modality: rng.pick(&[
            Modality::Vision,
            Modality::Audio,
            Modality::Depth,
            Modality::Thermal,
            Modality::Motion,
        ]),
        batch: rng.pick(&[4u32, 8, 16, 32, 48]),
        seq: rng.range(16, 512) as u32,
        hidden: rng.pick(&[512u32, 768, 1024]),
        layers_a: rng.range(1, 12) as usize,
        layers_b: rng.range(1, 12) as usize,
    }
}

fn random_tasks(rng: &mut Rng, max_tasks: u64) -> Vec<RandomTask> {
    let n = rng.range(1, max_tasks);
    (0..n).map(|_| random_task(rng)).collect()
}

fn build_graph(tasks: &[RandomTask]) -> ComputationGraph {
    let mut b = GraphBuilder::new();
    for (i, t) in tasks.iter().enumerate() {
        let task = b.add_task(format!("task{i}"), [t.modality, Modality::Text], t.batch);
        let tower = b
            .add_op_chain(
                task,
                OpKind::Encoder(t.modality),
                TensorShape::new(t.batch, t.seq, t.hidden),
                t.layers_a,
            )
            .expect("valid chain");
        let text = b
            .add_op_chain(
                task,
                OpKind::Encoder(Modality::Text),
                TensorShape::new(t.batch, 77, t.hidden),
                t.layers_b,
            )
            .expect("valid chain");
        let loss = b
            .add_op(
                task,
                OpKind::ContrastiveLoss,
                TensorShape::new(t.batch, 1, t.hidden),
            )
            .expect("valid op");
        b.add_flow(*tower.last().unwrap(), loss).expect("flow");
        b.add_flow(*text.last().unwrap(), loss).expect("flow");
    }
    b.build().expect("graph builds")
}

/// Graph contraction never loses or duplicates operators, and MetaLevels
/// never contain dependent MetaOps.
#[test]
fn contraction_preserves_operators() {
    let mut rng = Rng::new(0x5eed_0001);
    for case in 0..24 {
        let tasks = random_tasks(&mut rng, 5);
        let graph = build_graph(&tasks);
        let metagraph = MetaGraph::contract(&graph);
        assert_eq!(metagraph.total_ops(), graph.num_ops(), "case {case}");
        // Every operator maps to exactly one MetaOp.
        for op in graph.ops() {
            assert!(metagraph.metaop_of(op.id()).is_some(), "case {case}");
        }
        // Edges always go from a lower to a strictly higher level.
        for &(a, b) in metagraph.edges() {
            assert!(
                metagraph.metaop(a).level() < metagraph.metaop(b).level(),
                "case {case}: {a} -> {b}"
            );
        }
    }
}

/// Every plan produced by the session passes validation: full coverage of
/// all operators, per-wave capacity, disjoint placements, and a makespan
/// no better than the theoretical optimum.
#[test]
fn plans_are_always_valid() {
    let mut rng = Rng::new(0x5eed_0002);
    for case in 0..24 {
        let tasks = random_tasks(&mut rng, 4);
        let nodes = rng.range(1, 3) as usize;
        let graph = build_graph(&tasks);
        let cluster = ClusterSpec::homogeneous(nodes, 8);
        let plan = SpindleSession::new(cluster.clone())
            .plan(&graph)
            .expect("plan");
        assert!(
            plan.validate().is_ok(),
            "case {case}: {:?}",
            plan.validate()
        );
        assert!(plan.require_placement().is_ok(), "case {case}");
        assert!(plan.makespan() > 0.0, "case {case}");
        assert!(
            plan.makespan() + 1e-9 >= plan.theoretical_optimum() * 0.99,
            "case {case}"
        );
        // Devices used by any wave never exceed the cluster.
        for wave in plan.waves() {
            assert!(
                wave.devices_used() <= cluster.num_devices() as u32,
                "case {case}"
            );
        }
    }
}

/// The simulated iteration is internally consistent: the breakdown sums to
/// the iteration time, every device appears in the metrics, and total
/// FLOPs match the workload exactly.
#[test]
fn simulation_is_consistent() {
    let mut rng = Rng::new(0x5eed_0003);
    let cluster = ClusterSpec::homogeneous(1, 8);
    // One warm session across cases: cache reuse must never change results.
    let mut session = SpindleSession::new(cluster.clone());
    for case in 0..24 {
        let tasks = random_tasks(&mut rng, 4);
        let graph = build_graph(&tasks);
        let plan = session.plan(&graph).expect("plan");
        let report = Simulator::new(&plan, &cluster)
            .with_graph(&graph)
            .run_iteration()
            .expect("simulation");
        let b = report.breakdown();
        assert!(
            (b.total_s() - report.iteration_time_s()).abs() < 1e-12,
            "case {case}"
        );
        assert_eq!(report.device_utilization().len(), 8, "case {case}");
        assert_eq!(report.device_memory().len(), 8, "case {case}");
        let expected = graph.total_flops();
        assert!(
            (report.total_flops() - expected).abs() / expected < 1e-9,
            "case {case}"
        );
        for util in report.device_utilization().values() {
            assert!((0.0..=1.0).contains(util), "case {case}");
        }
    }
}
