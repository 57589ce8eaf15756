//! The multi-tenant planning daemon: sharded workers, bounded queues,
//! explicit backpressure, per-tenant fairness and hot re-sharding.

use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spindle_cluster::{ClusterSpec, DeviceId};
use spindle_core::{PlanError, PlannerConfig, ReplanOutcome, SpindleSession};
use spindle_estimator::ScalabilityEstimator;
use spindle_graph::ComputationGraph;

use crate::backoff::MIN_RETRY_HINT;
use crate::proto::graph_wire_len;
use crate::{CoalescingQueue, FairnessConfig, TenantThrottle};

// Sessions migrate between worker threads during `resize`; this fails to
// compile if `SpindleSession` ever stops being `Send`.
#[allow(dead_code)]
fn assert_send<T: Send>() {}
const _: fn() = assert_send::<SpindleSession>;

/// Tunable knobs of a [`PlanService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads; tenants map onto them by rendezvous hashing over
    /// stable worker keys (see [`PlanService::resize`]). Defaults to the
    /// machine's available parallelism.
    pub workers: usize,
    /// Bound of each worker's request queue. Submissions beyond it are
    /// rejected with [`SubmitError::QueueFull`] — explicit backpressure
    /// instead of unbounded memory growth.
    pub queue_depth: usize,
    /// Planner configuration of every tenant session (placement strategy,
    /// bisection epsilon, cache budgets).
    pub planner: PlannerConfig,
    /// Per-tenant fairness: admission quotas, DRR weights and the drain
    /// quantum. The default enforces nothing and drains strictly FIFO.
    pub fairness: FairnessConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_depth: 64,
            planner: PlannerConfig::default(),
            fairness: FairnessConfig::default(),
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's worker queue is at its configured depth. Back off for
    /// roughly `retry_hint` (the service's average re-plan time) and retry;
    /// newer submissions for the same tenant supersede older ones anyway.
    QueueFull {
        /// Suggested backoff before retrying.
        retry_hint: Duration,
    },
    /// The tenant's fairness quota (submission rate or byte volume) is
    /// exhausted; nothing was queued or charged.
    Throttled {
        /// Exact wait until the tenant's buckets would admit the submission.
        retry_hint: Duration,
    },
    /// The tenant's worker is gone (the service is shutting down or the
    /// worker panicked); the submission can never be served.
    WorkerGone,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { retry_hint } => {
                write!(f, "worker queue full; retry in ~{retry_hint:?}")
            }
            Self::Throttled { retry_hint } => {
                write!(f, "tenant quota exhausted; retry in ~{retry_hint:?}")
            }
            Self::WorkerGone => write!(f, "worker gone; service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One finished re-plan, delivered on the service's completion channel.
#[derive(Debug)]
pub struct Completion {
    /// The tenant that was re-planned.
    pub tenant: u64,
    /// The re-plan outcome (plan plus cache-warmth probe), or the planning
    /// error.
    pub result: Result<ReplanOutcome, PlanError>,
    /// `true` when this re-plan was triggered by a cluster topology change
    /// ([`PlanService::submit_topology`]) rather than a task-mix event.
    pub topology_change: bool,
    /// Churn events folded into this re-plan (≥ 1; > 1 means coalescing
    /// saved `coalesced - 1` full re-plans).
    pub coalesced: usize,
    /// Time from the oldest folded event's submission until planning began.
    pub queue_wait: Duration,
    /// Time spent planning.
    pub plan_time: Duration,
}

impl Completion {
    /// End-to-end latency of the oldest folded event: queue wait plus
    /// planning time.
    #[must_use]
    pub fn total_latency(&self) -> Duration {
        self.queue_wait + self.plan_time
    }
}

/// A snapshot of the service-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions accepted onto a worker queue.
    pub submitted: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Submissions rejected with [`SubmitError::Throttled`] (per-tenant
    /// quota, not queue depth).
    pub throttled: u64,
    /// Coalesced re-plans executed for task-mix events.
    pub replans: u64,
    /// Re-plans executed because the cluster topology changed (one per
    /// affected tenant per change; not counted in `replans`, so the
    /// coalescing ratio keeps its events-per-replan meaning).
    pub topology_replans: u64,
    /// Re-plans that failed with a [`PlanError`], plus worker loops that
    /// panicked.
    pub errors: u64,
    /// Total time spent planning, nanoseconds.
    pub plan_nanos: u64,
    /// MetaOps that lost every replica to topology changes and had to be
    /// re-materialised from checkpoints, summed over all tenants.
    pub rematerialized_metaops: u64,
    /// State bytes those re-materialisations read back from the checkpoint
    /// tier, summed over all tenants.
    pub restore_bytes: u64,
}

impl ServiceStats {
    /// Accepted events per executed re-plan (1.0 before any re-plan ran;
    /// events still queued inflate the ratio until they are served, so read
    /// it after a drain for an exact figure).
    #[must_use]
    pub fn coalescing_ratio(&self) -> f64 {
        if self.replans == 0 {
            return 1.0;
        }
        self.submitted as f64 / self.replans as f64
    }

    /// Mean planning time per re-plan.
    #[must_use]
    pub fn avg_plan_time(&self) -> Duration {
        Duration::from_nanos(self.plan_nanos / self.replans.max(1))
    }
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    throttled: AtomicU64,
    replans: AtomicU64,
    topology_replans: AtomicU64,
    errors: AtomicU64,
    plan_nanos: AtomicU64,
    rematerialized_metaops: AtomicU64,
    restore_bytes: AtomicU64,
}

/// One tenant's state in flight between workers during a re-shard.
struct TenantMove {
    tenant: u64,
    session: Box<SpindleSession>,
    last_graph: Option<Arc<ComputationGraph>>,
}

enum Request {
    Event {
        tenant: u64,
        weight: u32,
        graph: Arc<ComputationGraph>,
        submitted: Instant,
    },
    Topology {
        removed: Vec<DeviceId>,
        restored: Vec<DeviceId>,
        submitted: Instant,
    },
    /// Re-shard directive for a surviving worker: drain everything pending,
    /// then emit a [`TenantMove`] for every owned tenant whose rendezvous
    /// owner under `keys` is no longer this worker.
    Reshard {
        keys: Arc<Vec<u64>>,
        moves: Sender<TenantMove>,
    },
    /// Re-shard directive for a retiring worker: drain everything pending,
    /// emit every owned tenant, then exit.
    Retire {
        moves: Sender<TenantMove>,
    },
    /// A tenant migrating in from another worker during a re-shard.
    Adopt {
        tenant: u64,
        session: Box<SpindleSession>,
        last_graph: Option<Arc<ComputationGraph>>,
    },
    Shutdown,
}

/// One worker shard: a stable rendezvous key plus the queue feeding its
/// thread.
#[derive(Clone)]
struct Shard {
    key: u64,
    sender: SyncSender<Request>,
}

/// SplitMix64: the rendezvous mixing function. Stable across runs and
/// transports, so tenant→worker assignment is reproducible.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Highest-random-weight score of placing `tenant` on the worker with `key`.
fn rendezvous_score(key: u64, tenant: u64) -> u64 {
    splitmix64(key ^ splitmix64(tenant))
}

/// The rendezvous owner of `tenant` among `keys` (highest score wins).
fn owner_key(keys: &[u64], tenant: u64) -> u64 {
    *keys
        .iter()
        .max_by_key(|&&key| rendezvous_score(key, tenant))
        .expect("at least one worker key")
}

/// A long-lived multi-tenant planning daemon.
///
/// Tenants are sharded onto worker threads by *rendezvous (highest-random-
/// weight) hashing* over stable worker keys; each worker owns the
/// [`SpindleSession`]s of its tenants outright (no session is ever shared
/// across threads), which guarantees per-tenant FIFO ordering: a tenant's
/// re-plans execute in submission order, always against its latest submitted
/// graph. Rendezvous hashing is what makes [`PlanService::resize`] cheap —
/// growing or shrinking the worker pool only moves the tenants whose
/// highest-scoring key changed, provably the minimum possible.
///
/// Workers drain their bounded queue greedily between re-plans and fold
/// queued events per tenant (see [`CoalescingQueue`]); the queue drains by
/// deficit round-robin using the weights of the service's
/// [`FairnessConfig`], and admission is rate-limited per tenant by a
/// [`TenantThrottle`] shared by every transport. All tenant sessions of a
/// worker pool one [`ScalabilityEstimator`], so tenants with overlapping
/// operator signatures share fitted curves (a migrated tenant keeps the
/// estimator of its origin worker — cross-worker sharing is a cost
/// optimisation, never a correctness input, since plans are deterministic).
///
/// Results arrive asynchronously on the completion channel returned by
/// [`PlanService::start`].
#[derive(Debug)]
pub struct PlanService {
    shards: RwLock<Vec<Shard>>,
    handles: Mutex<Vec<(u64, JoinHandle<()>)>>,
    counters: Arc<Counters>,
    queue_depth: usize,
    throttle: Mutex<TenantThrottle>,
    /// Retained so `resize` can wire new workers to the same completion
    /// channel; drops with the service, disconnecting the receiver.
    completion_tx: Sender<Completion>,
    cluster: Arc<ClusterSpec>,
    planner: PlannerConfig,
    quantum: u64,
    next_key: AtomicU64,
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard").field("key", &self.key).finish()
    }
}

impl PlanService {
    /// Starts the service's worker threads for `cluster` and returns it with
    /// the receiving end of its completion channel.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.queue_depth` is zero.
    #[must_use]
    pub fn start(
        cluster: impl Into<Arc<ClusterSpec>>,
        config: ServiceConfig,
    ) -> (Self, Receiver<Completion>) {
        assert!(config.workers > 0, "service needs at least one worker");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let cluster = cluster.into();
        let counters = Arc::new(Counters::default());
        let (completion_tx, completion_rx) = std::sync::mpsc::channel();
        let quantum = config.fairness.quantum;
        let mut shards = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for key in 0..config.workers as u64 {
            let (sender, handle) = spawn_worker(
                key,
                config.queue_depth,
                &cluster,
                config.planner,
                quantum,
                &counters,
                &completion_tx,
            );
            shards.push(Shard { key, sender });
            handles.push((key, handle));
        }
        (
            Self {
                shards: RwLock::new(shards),
                handles: Mutex::new(handles),
                counters,
                queue_depth: config.queue_depth,
                throttle: Mutex::new(TenantThrottle::new(config.fairness)),
                completion_tx,
                cluster,
                planner: config.planner,
                quantum,
                next_key: AtomicU64::new(config.workers as u64),
            },
            completion_rx,
        )
    }

    /// Worker threads the service currently runs.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.shards.read().expect("shards lock").len()
    }

    /// Per-worker queue bound.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Submits a churn event: `tenant`'s task mix became `graph`. Returns
    /// immediately; the re-plan executes on the tenant's worker and its
    /// [`Completion`] arrives on the completion channel. Never blocks — a
    /// full worker queue rejects with [`SubmitError::QueueFull`] and a
    /// retry hint, an exhausted tenant quota with [`SubmitError::Throttled`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Throttled`] when the tenant's admission quota is
    /// exhausted, [`SubmitError::QueueFull`] under backpressure, or
    /// [`SubmitError::WorkerGone`] if the tenant's worker has exited.
    pub fn submit(&self, tenant: u64, graph: Arc<ComputationGraph>) -> Result<(), SubmitError> {
        let weight = {
            let mut throttle = self.throttle.lock().expect("throttle lock");
            if throttle.enforcing() {
                // The byte cost is the graph's wire length, so the TCP and
                // in-process transports charge identical figures.
                let bytes = graph_wire_len(&graph);
                if let Err(wait) = throttle.admit(tenant, bytes, Instant::now()) {
                    self.counters.throttled.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Throttled {
                        retry_hint: wait.max(MIN_RETRY_HINT),
                    });
                }
            }
            throttle.config().policy(tenant).effective_weight()
        };
        let shards = self.shards.read().expect("shards lock");
        let Some(shard) = shards
            .iter()
            .max_by_key(|shard| rendezvous_score(shard.key, tenant))
        else {
            return Err(SubmitError::WorkerGone);
        };
        match shard.sender.try_send(Request::Event {
            tenant,
            weight,
            graph,
            submitted: Instant::now(),
        }) {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull {
                    retry_hint: self.retry_hint(),
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::WorkerGone),
        }
    }

    /// Submits a cluster topology change: `removed` devices left the pool
    /// and `restored` devices rejoined it. The change is broadcast to every
    /// worker; each worker applies it to all of its tenant sessions and
    /// re-plans every tenant's latest task mix on the changed device set,
    /// delivering one [`Completion`] per affected tenant (with
    /// `topology_change == true`). Tenants are isolated: one tenant's
    /// re-plan failure — or panic — becomes that tenant's completion error,
    /// never a worker death.
    ///
    /// Unlike [`Self::submit`], topology changes use a *blocking* enqueue:
    /// they are rare, must not be dropped under backpressure, and every
    /// worker has to observe the same device set. Returns the number of
    /// workers notified.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WorkerGone`] if no worker is alive to apply the
    /// change.
    pub fn submit_topology(
        &self,
        removed: &[DeviceId],
        restored: &[DeviceId],
    ) -> Result<usize, SubmitError> {
        let submitted = Instant::now();
        let mut notified = 0;
        for shard in self.shards.read().expect("shards lock").iter() {
            if shard
                .sender
                .send(Request::Topology {
                    removed: removed.to_vec(),
                    restored: restored.to_vec(),
                    submitted,
                })
                .is_ok()
            {
                notified += 1;
            }
        }
        if notified == 0 {
            return Err(SubmitError::WorkerGone);
        }
        Ok(notified)
    }

    /// Re-shards the service to `workers` worker threads *without dropping a
    /// single accepted submission*, returning the number of tenants that
    /// migrated.
    ///
    /// Concurrent [`submit`](Self::submit)s block for the duration (they
    /// take the shard read lock), so every submission is either accepted
    /// before the re-shard — and then drained by its owning worker before
    /// that worker migrates or retires — or routed by the new shard table
    /// after it. Rendezvous hashing keeps moves minimal: growing from *n* to
    /// *m* workers moves only tenants whose highest-scoring key is new
    /// (≈ `(m-n)/m` of them), and shrinking moves only the retired workers'
    /// tenants. A migrating tenant's in-flight work is fully planned by its
    /// old worker first, so per-tenant FIFO ordering survives the move.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn resize(&self, workers: usize) -> usize {
        assert!(workers > 0, "service needs at least one worker");
        let mut shards = self.shards.write().expect("shards lock");
        if shards.len() == workers {
            return 0;
        }
        let mut victims: Vec<Shard> = Vec::new();
        if workers > shards.len() {
            let mut handles = self.handles.lock().expect("handles lock");
            for _ in shards.len()..workers {
                let key = self.next_key.fetch_add(1, Ordering::Relaxed);
                let (sender, handle) = spawn_worker(
                    key,
                    self.queue_depth,
                    &self.cluster,
                    self.planner,
                    self.quantum,
                    &self.counters,
                    &self.completion_tx,
                );
                shards.push(Shard { key, sender });
                handles.push((key, handle));
            }
        } else {
            victims = shards.split_off(workers);
        }
        let keys: Arc<Vec<u64>> = Arc::new(shards.iter().map(|s| s.key).collect());
        let (moves_tx, moves_rx) = std::sync::mpsc::channel();
        for shard in shards.iter() {
            let _ = shard.sender.send(Request::Reshard {
                keys: Arc::clone(&keys),
                moves: moves_tx.clone(),
            });
        }
        for victim in &victims {
            let _ = victim.sender.send(Request::Retire {
                moves: moves_tx.clone(),
            });
        }
        drop(moves_tx);
        // Workers drain their queues, then stream their leaving tenants here;
        // the channel disconnects once every worker finished migrating.
        let mut moved = 0;
        for TenantMove {
            tenant,
            session,
            last_graph,
        } in moves_rx
        {
            let owner = owner_key(&keys, tenant);
            let shard = shards
                .iter()
                .find(|s| s.key == owner)
                .expect("owner key is in the new shard set");
            // Blocking send: adoption must not be lost, and the owner is
            // alive and draining.
            let _ = shard.sender.send(Request::Adopt {
                tenant,
                session,
                last_graph,
            });
            moved += 1;
        }
        // Retired workers exit after emitting their tenants; reap them.
        let victim_keys: Vec<u64> = victims.iter().map(|v| v.key).collect();
        drop(victims);
        let mut handles = self.handles.lock().expect("handles lock");
        let mut remaining = Vec::with_capacity(handles.len());
        for (key, handle) in handles.drain(..) {
            if victim_keys.contains(&key) {
                let _ = handle.join();
            } else {
                remaining.push((key, handle));
            }
        }
        *handles = remaining;
        moved
    }

    /// The backoff the service suggests on [`SubmitError::QueueFull`]: its
    /// average re-plan time so far (at least 100µs).
    #[must_use]
    pub fn retry_hint(&self) -> Duration {
        let replans = self.counters.replans.load(Ordering::Relaxed);
        if replans == 0 {
            return MIN_RETRY_HINT;
        }
        let avg = self.counters.plan_nanos.load(Ordering::Relaxed) / replans;
        Duration::from_nanos(avg).max(MIN_RETRY_HINT)
    }

    /// A snapshot of the service-wide counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            throttled: self.counters.throttled.load(Ordering::Relaxed),
            replans: self.counters.replans.load(Ordering::Relaxed),
            topology_replans: self.counters.topology_replans.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            plan_nanos: self.counters.plan_nanos.load(Ordering::Relaxed),
            rematerialized_metaops: self.counters.rematerialized_metaops.load(Ordering::Relaxed),
            restore_bytes: self.counters.restore_bytes.load(Ordering::Relaxed),
        }
    }

    /// Stops the service: every worker drains its remaining queue (accepted
    /// events are never dropped), then exits. Returns the final counter
    /// snapshot. Completions of the drained events are still delivered on
    /// the completion channel before it disconnects.
    pub fn shutdown(self) -> ServiceStats {
        self.stop_workers();
        self.stats()
    }

    /// Sends shutdown to every worker, drops the senders and joins.
    fn stop_workers(&self) {
        {
            let shards = self.shards.read().expect("shards lock");
            for shard in shards.iter() {
                // A blocking send is correct here: the worker keeps
                // draining, so the shutdown marker always fits eventually.
                let _ = shard.sender.send(Request::Shutdown);
            }
        }
        self.shards.write().expect("shards lock").clear();
        let mut handles = self.handles.lock().expect("handles lock");
        for (_, handle) in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still joins the workers: clearing
        // the shards disconnects the queues, and a disconnected queue ends
        // the worker loop after its drain. (After `shutdown()` this is a
        // no-op: shards and handles are already empty.)
        self.shards.write().expect("shards lock").clear();
        let mut handles = self.handles.lock().expect("handles lock");
        for (_, handle) in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns one worker thread with the given stable rendezvous `key`.
fn spawn_worker(
    key: u64,
    queue_depth: usize,
    cluster: &Arc<ClusterSpec>,
    planner: PlannerConfig,
    quantum: u64,
    counters: &Arc<Counters>,
    completions: &Sender<Completion>,
) -> (SyncSender<Request>, JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(queue_depth);
    let cluster = Arc::clone(cluster);
    let counters = Arc::clone(counters);
    let completions = completions.clone();
    let handle = std::thread::Builder::new()
        .name(format!("spindle-svc-{key}"))
        .spawn(move || {
            // The whole loop is panic-guarded: a panic that escapes the
            // per-tenant guards still ends the worker cleanly (its queue
            // disconnects, submit reports WorkerGone, shutdown's join never
            // hangs) and is surfaced on the error counter.
            let guarded = std::panic::catch_unwind(AssertUnwindSafe(|| {
                worker_loop(
                    key,
                    &rx,
                    &cluster,
                    planner,
                    quantum,
                    &counters,
                    &completions,
                );
            }));
            if guarded.is_err() {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        })
        .expect("spawning a service worker thread");
    (tx, handle)
}

/// Runs one tenant's re-plan behind a panic guard. A planner panic poisons
/// only that tenant: it is reported as [`PlanError::Panicked`] and the
/// caller discards the tenant's session.
fn guarded_replan(
    session: &mut SpindleSession,
    graph: &ComputationGraph,
) -> Result<ReplanOutcome, PlanError> {
    std::panic::catch_unwind(AssertUnwindSafe(|| session.replan(graph)))
        .unwrap_or_else(|payload| Err(panic_error(&payload)))
}

/// Maps a caught panic payload to the per-tenant [`PlanError::Panicked`]
/// the completion channel reports.
fn panic_error(payload: &(dyn std::any::Any + Send)) -> PlanError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    PlanError::Panicked { message }
}

struct WorkerState<'a> {
    sessions: HashMap<u64, SpindleSession>,
    last_graph: HashMap<u64, Arc<ComputationGraph>>,
    /// The devices currently removed from the cluster, applied to sessions
    /// created after the topology change so new tenants see the same
    /// survivor set as old ones.
    removed_now: Vec<DeviceId>,
    /// Where every re-plan is counted and delivered.
    counters: &'a Counters,
    completions: &'a Sender<Completion>,
}

/// A pending re-shard directive; `keys: None` means this worker retires.
struct Migration {
    keys: Option<Arc<Vec<u64>>>,
    moves: Sender<TenantMove>,
}

fn worker_loop(
    key: u64,
    rx: &Receiver<Request>,
    cluster: &Arc<ClusterSpec>,
    planner: PlannerConfig,
    quantum: u64,
    counters: &Counters,
    completions: &Sender<Completion>,
) {
    let estimator = Arc::new(ScalabilityEstimator::new(cluster));
    let mut state = WorkerState {
        sessions: HashMap::new(),
        last_graph: HashMap::new(),
        removed_now: Vec::new(),
        counters,
        completions,
    };
    let mut queue = CoalescingQueue::with_quantum(quantum);
    let mut topology: Vec<(Vec<DeviceId>, Vec<DeviceId>, Instant)> = Vec::new();
    let mut migration: Option<Migration> = None;
    let mut shutting_down = false;
    loop {
        if queue.is_empty() && topology.is_empty() && migration.is_none() {
            if shutting_down {
                break;
            }
            // Nothing pending: block for the next request.
            match rx.recv() {
                Ok(request) => apply(
                    request,
                    &mut state,
                    &mut queue,
                    &mut topology,
                    &mut migration,
                    &mut shutting_down,
                ),
                Err(_) => break,
            }
        }
        // Greedy drain: fold every queued event before planning, so a burst
        // for one tenant coalesces into a single re-plan.
        while let Ok(request) = rx.try_recv() {
            apply(
                request,
                &mut state,
                &mut queue,
                &mut topology,
                &mut migration,
                &mut shutting_down,
            );
        }
        // Topology changes first: subsequent tenant re-plans must see the
        // new device set.
        for (removed, restored, submitted) in topology.drain(..) {
            apply_topology(&removed, &restored, submitted, &mut state);
        }
        if let Some(directive) = migration.take() {
            // Drain-before-migrate: every accepted event is planned by the
            // worker that accepted it, so migration never reorders or drops
            // a tenant's in-flight work (submissions are blocked on the
            // shard lock for the whole re-shard, so the queue is complete).
            while let Some(replan) = queue.pop() {
                plan_one(replan, &mut state, cluster, &estimator, planner);
            }
            let mut tenants: Vec<u64> = state.sessions.keys().copied().collect();
            tenants.sort_unstable();
            for tenant in tenants {
                let stays = directive
                    .keys
                    .as_deref()
                    .is_some_and(|keys| owner_key(keys, tenant) == key);
                if stays {
                    continue;
                }
                let session = state.sessions.remove(&tenant).expect("tenant listed");
                let last_graph = state.last_graph.remove(&tenant);
                let _ = directive.moves.send(TenantMove {
                    tenant,
                    session: Box::new(session),
                    last_graph,
                });
            }
            if directive.keys.is_none() {
                // Retired: the moves sender drops here, signalling the
                // re-shard coordinator that this worker is done.
                return;
            }
            continue;
        }
        let Some(replan) = queue.pop() else { continue };
        plan_one(replan, &mut state, cluster, &estimator, planner);
    }
}

/// Plans one coalesced re-plan and delivers its completion.
fn plan_one(
    replan: crate::CoalescedReplan,
    state: &mut WorkerState<'_>,
    cluster: &Arc<ClusterSpec>,
    estimator: &Arc<ScalabilityEstimator>,
    planner: PlannerConfig,
) {
    let queue_wait = replan.oldest_submit.elapsed();
    let removed_now = &state.removed_now;
    state.sessions.entry(replan.tenant).or_insert_with(|| {
        let mut session =
            SpindleSession::with_estimator(Arc::clone(cluster), Arc::clone(estimator), planner);
        if !removed_now.is_empty() {
            // Never fails: a non-empty survivor set already planned for
            // the worker's other tenants.
            let _ = session.remove_devices(removed_now);
        }
        session
    });
    let trigger = Trigger::Events(replan.coalesced);
    replan_tenant(state, replan.tenant, &replan.graph, queue_wait, trigger);
}

/// Applies one topology change to every tenant session of a worker and
/// re-plans each tenant's latest task mix on the changed device set. Each
/// tenant is isolated: its failure (or panic) is its own completion error.
fn apply_topology(
    removed: &[DeviceId],
    restored: &[DeviceId],
    submitted: Instant,
    state: &mut WorkerState<'_>,
) {
    state.removed_now.retain(|d| !restored.contains(d));
    for &d in removed {
        if !state.removed_now.contains(&d) {
            state.removed_now.push(d);
        }
    }
    let mut tenants: Vec<u64> = state.sessions.keys().copied().collect();
    tenants.sort_unstable();
    for tenant in tenants {
        let session = state.sessions.get_mut(&tenant).expect("tenant listed");
        if !restored.is_empty() {
            session.restore_devices(restored);
        }
        let applied = if removed.is_empty() {
            Ok(0)
        } else {
            session.remove_devices(removed)
        };
        // A tenant that never completed a plan has no task mix to re-plan;
        // its session still observed the topology change above.
        let Some(graph) = state.last_graph.get(&tenant).cloned() else {
            continue;
        };
        let trigger = Trigger::Topology(applied);
        replan_tenant(state, tenant, &graph, submitted.elapsed(), trigger);
    }
}

/// What set off a re-plan.
enum Trigger {
    /// This many task-mix events, folded into one re-plan.
    Events(usize),
    /// A topology change, and how the tenant's session took it: an error
    /// there fails the re-plan.
    Topology(Result<usize, PlanError>),
}

/// Re-plans `tenant`'s session on `graph` behind the panic guard and
/// reports it. Event re-plans add to `replans` and `plan_nanos`, topology
/// re-plans to `topology_replans`; a success adds its recovery figures and
/// keeps `graph` as the tenant's latest mix; a failure counts as an error,
/// and a panic also discards the session. The completion goes out last.
fn replan_tenant(
    state: &mut WorkerState<'_>,
    tenant: u64,
    graph: &Arc<ComputationGraph>,
    queue_wait: Duration,
    trigger: Trigger,
) {
    let session = state.sessions.get_mut(&tenant).expect("session made");
    let topology_change = matches!(trigger, Trigger::Topology(_));
    let started = Instant::now();
    let (result, coalesced) = match trigger {
        Trigger::Events(coalesced) => (guarded_replan(session, graph), coalesced),
        Trigger::Topology(applied) => (applied.and_then(|_| guarded_replan(session, graph)), 1),
    };
    let plan_time = started.elapsed();
    let counters = state.counters;
    if topology_change {
        counters.topology_replans.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.replans.fetch_add(1, Ordering::Relaxed);
        counters
            .plan_nanos
            .fetch_add(plan_time.as_nanos() as u64, Ordering::Relaxed);
    }
    match &result {
        Ok(outcome) => {
            counters
                .rematerialized_metaops
                .fetch_add(outcome.rematerialized_metaops as u64, Ordering::Relaxed);
            counters
                .restore_bytes
                .fetch_add(outcome.restore_bytes, Ordering::Relaxed);
            state.last_graph.insert(tenant, Arc::clone(graph));
        }
        Err(error) => {
            counters.errors.fetch_add(1, Ordering::Relaxed);
            if matches!(error, PlanError::Panicked { .. }) {
                // The session may hold half-updated caches: discard it.
                state.sessions.remove(&tenant);
                state.last_graph.remove(&tenant);
            }
        }
    }
    // A gone receiver just means the caller stopped listening; keep
    // draining so accepted events still update the counters.
    let _ = state.completions.send(Completion {
        tenant,
        result,
        topology_change,
        coalesced,
        queue_wait,
        plan_time,
    });
}

fn apply(
    request: Request,
    state: &mut WorkerState<'_>,
    queue: &mut CoalescingQueue,
    topology: &mut Vec<(Vec<DeviceId>, Vec<DeviceId>, Instant)>,
    migration: &mut Option<Migration>,
    shutting_down: &mut bool,
) {
    match request {
        Request::Event {
            tenant,
            weight,
            graph,
            submitted,
        } => {
            queue.push_weighted(tenant, weight, graph, submitted);
        }
        Request::Topology {
            removed,
            restored,
            submitted,
        } => topology.push((removed, restored, submitted)),
        Request::Reshard { keys, moves } => {
            *migration = Some(Migration {
                keys: Some(keys),
                moves,
            });
        }
        Request::Retire { moves } => {
            *migration = Some(Migration { keys: None, moves });
        }
        Request::Adopt {
            tenant,
            session,
            last_graph,
        } => {
            state.sessions.insert(tenant, *session);
            if let Some(graph) = last_graph {
                state.last_graph.insert(tenant, graph);
            }
        }
        Request::Shutdown => *shutting_down = true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{GraphBuilder, Modality, OpKind, TensorShape};

    fn graph(batch: u32) -> Arc<ComputationGraph> {
        let mut b = GraphBuilder::new();
        let t = b.add_task("t", [Modality::Audio, Modality::Text], batch);
        let tower = b
            .add_op_chain(
                t,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(batch, 229, 768),
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
    fn submissions_complete_with_valid_plans_in_fifo_order() {
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 8),
            ServiceConfig {
                workers: 2,
                queue_depth: 16,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(service.num_workers(), 2);
        for batch in [8u32, 16, 32] {
            service.submit(0, graph(batch)).unwrap();
        }
        service.submit(1, graph(8)).unwrap();
        let mut tenant0_batches = Vec::new();
        let mut tenant1 = 0;
        // 0 and 1 may land on different workers; tenant 0's events may
        // coalesce, but whatever completes must come in submission order
        // with the latest graph last.
        let mut events_seen = 0;
        while events_seen < 4 {
            let done = completions
                .recv_timeout(Duration::from_secs(30))
                .expect("completion");
            let outcome = done.result.expect("plan succeeds");
            outcome.plan.validate().unwrap();
            events_seen += done.coalesced;
            if done.tenant == 0 {
                tenant0_batches.push(outcome.plan.num_waves());
            } else {
                tenant1 += 1;
            }
            assert!(done.plan_time > Duration::ZERO);
        }
        assert!(!tenant0_batches.is_empty());
        assert_eq!(tenant1, 1);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.errors, 0);
        assert!(stats.replans >= 2, "at least one re-plan per tenant");
        assert!(stats.replans <= 4);
        assert!(stats.coalescing_ratio() >= 1.0);
        assert!(stats.avg_plan_time() > Duration::ZERO);
    }

    #[test]
    fn full_queue_rejects_with_retry_hint_and_drains_on_shutdown() {
        // One worker, depth 1: the worker blocks planning the first event
        // while later submissions hit the bound.
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 8),
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
                ..ServiceConfig::default()
            },
        );
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for i in 0..200u32 {
            match service.submit(u64::from(i % 4), graph(8 + (i % 4) * 8)) {
                Ok(()) => accepted += 1,
                Err(SubmitError::QueueFull { retry_hint }) => {
                    assert!(retry_hint >= Duration::from_micros(100));
                    rejected += 1;
                }
                Err(other) => panic!("worker must be alive and unthrottled: {other}"),
            }
        }
        assert!(rejected > 0, "depth-1 queue must push back");
        let stats = service.shutdown();
        assert_eq!(stats.submitted, accepted);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.throttled, 0, "no fairness config, no throttling");
        // Every accepted event was served (drained on shutdown), and the
        // completion channel accounts for all of them.
        let mut served = 0u64;
        let mut replans = 0u64;
        for done in completions.iter() {
            served += done.coalesced as u64;
            replans += 1;
        }
        assert_eq!(served, accepted);
        assert_eq!(replans, stats.replans);
    }

    #[test]
    fn bursts_coalesce_into_fewer_replans() {
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 8),
            ServiceConfig {
                workers: 1,
                queue_depth: 64,
                ..ServiceConfig::default()
            },
        );
        // A burst of 12 events for one tenant: the worker is busy planning
        // the first, so the rest sit queued and fold into (far) fewer
        // re-plans. The final plan must reflect the *last* submitted graph.
        for batch in (1..=12u32).map(|i| 8 * i) {
            service.submit(3, graph(batch)).unwrap();
        }
        let stats = service.shutdown();
        let done: Vec<Completion> = completions.iter().collect();
        let served: usize = done.iter().map(|c| c.coalesced).sum();
        assert_eq!(served, 12);
        assert!(done.len() < 12, "burst must coalesce");
        assert!(stats.coalescing_ratio() > 1.0);
        let last = done.last().unwrap().result.as_ref().unwrap();
        let direct = SpindleSession::new(ClusterSpec::homogeneous(1, 8))
            .plan(&graph(96))
            .unwrap();
        assert_eq!(last.plan.waves(), direct.waves(), "latest graph wins");
    }

    #[test]
    fn coalescing_ratio_is_defined_before_any_replan() {
        // Regression: replans == 0 used to divide by zero; the ratio must be
        // the neutral 1.0 (one event per re-plan) and stay finite.
        let fresh = ServiceStats::default();
        assert_eq!(fresh.replans, 0);
        let ratio = fresh.coalescing_ratio();
        assert!(ratio.is_finite(), "ratio must never be NaN/inf: {ratio}");
        assert_eq!(ratio, 1.0);
        // Even with accepted-but-unserved submissions the ratio stays 1.0
        // until a re-plan actually executes.
        let queued = ServiceStats {
            submitted: 7,
            ..ServiceStats::default()
        };
        assert_eq!(queued.coalescing_ratio(), 1.0);
        // And once re-plans run, it is the exact events-per-replan quotient.
        let served = ServiceStats {
            submitted: 12,
            replans: 4,
            ..ServiceStats::default()
        };
        assert_eq!(served.coalescing_ratio(), 3.0);
        // A live service that has accepted nothing reports the same neutral
        // figure through the snapshot path.
        let (service, _completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 4),
            ServiceConfig {
                workers: 1,
                queue_depth: 4,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(service.stats().coalescing_ratio(), 1.0);
    }

    #[test]
    fn retry_hint_is_floored_at_100_microseconds() {
        let (service, _completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 4),
            ServiceConfig {
                workers: 1,
                queue_depth: 4,
                ..ServiceConfig::default()
            },
        );
        // Fresh service: no re-plans yet, the hint is exactly the floor.
        assert_eq!(service.retry_hint(), MIN_RETRY_HINT);
        assert_eq!(MIN_RETRY_HINT, Duration::from_micros(100));

        // Regression: when the observed mean plan time sits *below* the
        // floor (here 5µs/replan), the hint must not follow it down — a
        // sub-100µs backoff would have callers hammering a full queue.
        service.counters.replans.store(10, Ordering::Relaxed);
        service.counters.plan_nanos.store(50_000, Ordering::Relaxed);
        assert_eq!(service.retry_hint(), MIN_RETRY_HINT);

        // Above the floor the hint tracks the observed mean exactly.
        service.counters.replans.store(4, Ordering::Relaxed);
        service
            .counters
            .plan_nanos
            .store(4_000_000, Ordering::Relaxed);
        assert_eq!(service.retry_hint(), Duration::from_millis(1));
    }

    fn drain_ok(completions: &Receiver<Completion>, expect: usize) -> Vec<Completion> {
        (0..expect)
            .map(|_| {
                completions
                    .recv_timeout(Duration::from_secs(30))
                    .expect("completion")
            })
            .collect()
    }

    fn uses_device(outcome: &ReplanOutcome, device: u32) -> bool {
        outcome.plan.waves().iter().any(|w| {
            w.entries.iter().any(|e| {
                e.placement
                    .as_ref()
                    .is_some_and(|g| g.contains(spindle_cluster::DeviceId(device)))
            })
        })
    }

    #[test]
    fn topology_change_replans_every_tenant_on_the_survivors() {
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 8),
            ServiceConfig {
                workers: 1,
                queue_depth: 16,
                ..ServiceConfig::default()
            },
        );
        service.submit(0, graph(16)).unwrap();
        service.submit(1, graph(32)).unwrap();
        for done in drain_ok(&completions, 2) {
            assert!(!done.topology_change);
            done.result.expect("task-mix plan succeeds");
        }

        // Device 7 dies: both tenants re-plan onto the 7 survivors.
        let notified = service
            .submit_topology(&[spindle_cluster::DeviceId(7)], &[])
            .unwrap();
        assert_eq!(notified, 1);
        let mut tenants_seen = Vec::new();
        for done in drain_ok(&completions, 2) {
            assert!(done.topology_change);
            assert_eq!(done.coalesced, 1);
            let outcome = done.result.expect("topology re-plan succeeds");
            outcome.plan.validate().unwrap();
            assert!(
                !uses_device(&outcome, 7),
                "tenant {} placed work on the dead device",
                done.tenant
            );
            assert_eq!(outcome.devices_lost, 1);
            tenants_seen.push(done.tenant);
        }
        tenants_seen.sort_unstable();
        assert_eq!(tenants_seen, vec![0, 1]);

        // A tenant arriving after the change plans on the survivors too.
        service.submit(2, graph(8)).unwrap();
        let done = drain_ok(&completions, 1).pop().unwrap();
        let outcome = done.result.expect("new tenant plans");
        assert!(!uses_device(&outcome, 7), "new tenant saw the old topology");

        // The device comes back: every tenant re-plans at full capacity and
        // may use device 7 again.
        service
            .submit_topology(&[], &[spindle_cluster::DeviceId(7)])
            .unwrap();
        for done in drain_ok(&completions, 3) {
            assert!(done.topology_change);
            let outcome = done.result.expect("restore re-plan succeeds");
            assert_eq!(outcome.devices_lost, 0);
            outcome.plan.validate().unwrap();
        }

        let stats = service.shutdown();
        assert_eq!(stats.topology_replans, 5, "2 on loss + 3 on restore");
        assert_eq!(stats.errors, 0);
        // Topology re-plans stay out of the coalescing denominator.
        assert_eq!(stats.replans, 3);
    }

    #[test]
    fn removing_every_device_is_a_tenant_error_not_a_worker_death() {
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 4),
            ServiceConfig {
                workers: 1,
                queue_depth: 16,
                ..ServiceConfig::default()
            },
        );
        service.submit(0, graph(8)).unwrap();
        drain_ok(&completions, 1)
            .pop()
            .unwrap()
            .result
            .expect("initial plan");
        // Removing all four devices cannot be applied; the tenant gets an
        // error completion and the worker lives on.
        let all: Vec<spindle_cluster::DeviceId> = (0..4).map(spindle_cluster::DeviceId).collect();
        service.submit_topology(&all, &[]).unwrap();
        let done = drain_ok(&completions, 1).pop().unwrap();
        assert!(done.topology_change);
        assert!(done.result.is_err(), "empty cluster must be rejected");
        // The worker is still serving: the same tenant re-plans fine.
        service.submit(0, graph(16)).unwrap();
        let done = drain_ok(&completions, 1).pop().unwrap();
        done.result
            .expect("worker survived the bad topology change");
        let stats = service.shutdown();
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn panic_payloads_map_to_per_tenant_plan_errors() {
        for (payload, needle) in [
            (
                std::panic::catch_unwind(|| panic!("boom at wave 3")).unwrap_err(),
                "boom at wave 3",
            ),
            (
                std::panic::catch_unwind(|| panic!("{}", String::from("formatted"))).unwrap_err(),
                "formatted",
            ),
            (
                std::panic::catch_unwind(|| std::panic::panic_any(42_u32)).unwrap_err(),
                "non-string panic payload",
            ),
        ] {
            match panic_error(payload.as_ref()) {
                PlanError::Panicked { message } => assert!(
                    message.contains(needle),
                    "payload mapped to {message:?}, wanted {needle:?}"
                ),
                other => panic!("wrong error: {other:?}"),
            }
        }
    }

    #[test]
    fn dropping_the_service_joins_workers() {
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 4),
            ServiceConfig {
                workers: 1,
                queue_depth: 4,
                ..ServiceConfig::default()
            },
        );
        service.submit(9, graph(8)).unwrap();
        drop(service);
        // The worker drained the event before exiting.
        let done: Vec<Completion> = completions.iter().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tenant, 9);
    }

    #[test]
    fn rendezvous_moves_are_minimal_and_deterministic() {
        // Growing the key set must never move a tenant between two surviving
        // keys — the defining property of rendezvous hashing.
        let old_keys: Vec<u64> = (0..4).collect();
        let new_keys: Vec<u64> = (0..6).collect();
        let mut moved = 0;
        for tenant in 0..1000u64 {
            let before = owner_key(&old_keys, tenant);
            let after = owner_key(&new_keys, tenant);
            if before != after {
                assert!(after >= 4, "tenant {tenant} moved between survivors");
                moved += 1;
            }
            // Determinism: the owner is a pure function of keys and tenant.
            assert_eq!(after, owner_key(&new_keys, tenant));
        }
        // Expected fraction ~ 2/6 of tenants; allow generous slack.
        assert!((150..=550).contains(&moved), "moved {moved} of 1000");

        // Shrinking only moves the removed keys' tenants.
        for tenant in 0..1000u64 {
            let before = owner_key(&new_keys, tenant);
            let after = owner_key(&old_keys, tenant);
            if before < 4 {
                assert_eq!(before, after, "tenant {tenant} moved off a survivor");
            }
        }
    }

    #[test]
    fn throttled_submissions_are_rejected_without_queueing() {
        use crate::TenantPolicy;
        let mut fairness = FairnessConfig::default();
        fairness.overrides.insert(
            5,
            TenantPolicy {
                rate: 0.5,
                burst: 2.0,
                ..TenantPolicy::unlimited()
            },
        );
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 8),
            ServiceConfig {
                workers: 1,
                queue_depth: 16,
                fairness,
                ..ServiceConfig::default()
            },
        );
        // The burst admits two submissions; the third is throttled with a
        // rate-derived hint, and an unlimited tenant is unaffected.
        service.submit(5, graph(8)).unwrap();
        service.submit(5, graph(16)).unwrap();
        match service.submit(5, graph(24)) {
            Err(SubmitError::Throttled { retry_hint }) => {
                assert!(retry_hint >= Duration::from_secs(1), "hint {retry_hint:?}");
            }
            other => panic!("expected throttle, got {other:?}"),
        }
        service.submit(6, graph(8)).unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.throttled, 1);
        assert_eq!(stats.rejected, 0);
        let served: usize = completions.iter().map(|c| c.coalesced).sum();
        assert_eq!(served, 3, "throttled events never reach a worker");
    }

    #[test]
    fn resize_migrates_sessions_and_loses_nothing() {
        let (service, completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 8),
            ServiceConfig {
                workers: 2,
                queue_depth: 32,
                ..ServiceConfig::default()
            },
        );
        for tenant in 0..6u64 {
            service
                .submit(tenant, graph(8 + tenant as u32 * 8))
                .unwrap();
        }
        // Grow while the first plans are still in flight, then shrink back.
        let moved_up = service.resize(4);
        assert_eq!(service.num_workers(), 4);
        for tenant in 0..6u64 {
            service
                .submit(tenant, graph(16 + tenant as u32 * 8))
                .unwrap();
        }
        let moved_down = service.resize(1);
        assert_eq!(service.num_workers(), 1);
        for tenant in 0..6u64 {
            service
                .submit(tenant, graph(24 + tenant as u32 * 8))
                .unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 18);
        assert_eq!(stats.errors, 0);
        let mut served = 0usize;
        for done in completions.iter() {
            served += done.coalesced;
            done.result.expect("every re-plan succeeds across resizes");
        }
        assert_eq!(served, 18, "no accepted submission may be lost");
        // Shrinking to one worker moves every tenant that lived elsewhere;
        // growing moves only re-owned tenants. Both are bounded by the
        // tenant count.
        assert!(moved_up <= 6);
        assert!(moved_down <= 6);
    }

    #[test]
    fn resize_to_same_size_is_a_no_op() {
        let (service, _completions) = PlanService::start(
            ClusterSpec::homogeneous(1, 4),
            ServiceConfig {
                workers: 2,
                queue_depth: 4,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(service.resize(2), 0);
        assert_eq!(service.num_workers(), 2);
    }
}
