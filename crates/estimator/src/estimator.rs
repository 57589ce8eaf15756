//! The scalability estimator facade with cache-aware curve fitting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use spindle_cluster::ClusterSpec;
use spindle_graph::{Operator, WorkloadSignature};

use crate::{AnalyticGpuModel, EstimatorError, PerfModel, Profiler, ScalingCurve};

/// Default byte budget of the curve cache: generous enough that paper-scale
/// and hyperscale workloads never evict, small enough that a long-running
/// multi-tenant service cannot grow without bound.
pub const DEFAULT_CURVE_CACHE_BUDGET: usize = 16 * 1024 * 1024;

/// Counters describing the curve cache of a [`ScalabilityEstimator`].
///
/// `fits` counts the expensive operations (profile sweep + piecewise α–β fit);
/// `hits` counts lookups served from the cache. Long-lived planning sessions
/// use these to verify that re-planning a workload with unchanged operator
/// signatures performs **zero** new fits. `bytes` and `evictions` track the
/// LRU byte bound: the cache never holds more than its configured budget of
/// approximate curve bytes, evicting least-recently-used fits when it would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CurveCacheStats {
    /// Distinct operator signatures currently cached.
    pub entries: usize,
    /// Profile-and-fit operations performed since the estimator was created.
    pub fits: usize,
    /// Curve lookups served from the cache without fitting.
    pub hits: usize,
    /// Approximate bytes currently held by the cached curves.
    pub bytes: usize,
    /// Curves evicted to keep the cache within its byte budget.
    pub evictions: usize,
}

impl CurveCacheStats {
    /// Fraction of lookups served from the cache (0.0 when nothing was looked
    /// up yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.fits + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The scalability estimator of §3.2: profiles each distinct operator workload
/// and fits its piecewise α–β scaling curve, with results cached by
/// [`WorkloadSignature`] — the task-independent workload identity — so that
/// the thousands of identical layers of a workload pay the cost once, equal
/// towers of *different* tasks share one fit, and, when the estimator is
/// shared by a long-lived planning session, *re-planning* a changed task mix
/// only fits curves for workloads it has never seen (regardless of how task
/// ids shifted in the new graph).
pub struct ScalabilityEstimator {
    model: Arc<dyn PerfModel>,
    profiler: Profiler,
    max_devices: u32,
    /// Curves by signature. An `RwLock` (not a `Mutex`) because one
    /// estimator can serve sessions on several threads at once: the planning
    /// service pools one estimator per worker, and a tenant migrated by
    /// `PlanService::resize` keeps its origin worker's estimator. Cache hits
    /// take the read path; the write path is taken only on a fit.
    cache: RwLock<HashMap<WorkloadSignature, CurveSlot>>,
    /// Byte budget of the cache; [`usize::MAX`] disables eviction.
    budget: AtomicUsize,
    /// Approximate bytes currently cached. Mutated only under the cache's
    /// write lock; atomic so the read-path stats snapshot stays lock-free.
    bytes: AtomicUsize,
    /// Logical LRU clock: every lookup stamps the hit slot with the next
    /// tick, so eviction can order slots by recency without a linked list.
    clock: AtomicU64,
    fits: AtomicUsize,
    hits: AtomicUsize,
    evictions: AtomicUsize,
}

/// One cached curve with its LRU stamp and accounted size.
struct CurveSlot {
    curve: Arc<ScalingCurve>,
    bytes: usize,
    /// Tick of the most recent lookup; updated through the read path with a
    /// relaxed store (an approximate LRU is all eviction needs).
    tick: AtomicU64,
}

impl CurveSlot {
    fn new(curve: Arc<ScalingCurve>, tick: u64) -> Self {
        let bytes = std::mem::size_of::<WorkloadSignature>()
            + std::mem::size_of::<Self>()
            + curve.approx_bytes();
        Self {
            curve,
            bytes,
            tick: AtomicU64::new(tick),
        }
    }
}

impl std::fmt::Debug for ScalabilityEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScalabilityEstimator")
            .field("max_devices", &self.max_devices)
            .field("cached_curves", &self.cached_curves())
            .field("curve_fits", &self.curve_fits())
            .finish()
    }
}

impl ScalabilityEstimator {
    /// Creates an estimator backed by the default analytic GPU model for
    /// `cluster`.
    #[must_use]
    pub fn new(cluster: &ClusterSpec) -> Self {
        Self::with_model(
            Arc::new(AnalyticGpuModel::new(cluster)),
            cluster.num_devices() as u32,
        )
    }

    /// Creates an estimator backed by an arbitrary performance model
    /// (e.g. a replayer of real profiling traces).
    #[must_use]
    pub fn with_model(model: Arc<dyn PerfModel>, max_devices: u32) -> Self {
        Self {
            model,
            profiler: Profiler::new(),
            max_devices: max_devices.max(1),
            cache: RwLock::new(HashMap::new()),
            budget: AtomicUsize::new(usize::MAX),
            bytes: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            fits: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// The largest allocation the estimator profiles up to (the cluster size).
    #[must_use]
    pub fn max_devices(&self) -> u32 {
        self.max_devices
    }

    /// The cache's byte budget ([`usize::MAX`] when unbounded).
    #[must_use]
    pub fn cache_budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Sets the cache's byte budget, evicting least-recently-used curves if
    /// the cache currently exceeds it. A no-op when the budget is unchanged,
    /// so callers (e.g. a planning session applying its config before every
    /// pass) can invoke it unconditionally.
    pub fn ensure_cache_budget(&self, budget: usize) {
        if self.budget.swap(budget, Ordering::Relaxed) == budget {
            return;
        }
        if self.bytes.load(Ordering::Relaxed) > budget {
            let mut cache = self.write_cache();
            self.evict_to_budget(&mut cache, budget);
        }
    }

    /// The scaling curve `T_m(n)` of the given operator (cached by signature).
    ///
    /// # Panics
    ///
    /// Panics if the operator cannot be profiled at any allocation, which
    /// cannot happen for operators built through `spindle-graph` (allocation 1
    /// is always valid). Use [`try_curve_for`](Self::try_curve_for) to handle
    /// the error explicitly.
    #[must_use]
    pub fn curve_for(&self, op: &Operator) -> Arc<ScalingCurve> {
        self.try_curve_for(op)
            .expect("operator must admit at least the single-device allocation")
    }

    /// The scaling curve of the given operator, or an error if profiling fails.
    ///
    /// Cache hits are free and counted in [`cache_stats`](Self::cache_stats);
    /// misses run the profiler and fit a fresh curve.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::NoValidAllocation`] if no allocation of the
    /// operator is executable under the performance model.
    pub fn try_curve_for(&self, op: &Operator) -> Result<Arc<ScalingCurve>, EstimatorError> {
        let signature = op.workload_signature();
        if let Some(slot) = self.read_cache().get(&signature) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            slot.tick.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            return Ok(Arc::clone(&slot.curve));
        }
        let samples = self
            .profiler
            .profile(self.model.as_ref(), op, self.max_devices)?;
        let curve = Arc::new(ScalingCurve::from_samples(&samples)?);
        // Re-check under the write lock: a concurrent caller sharing this
        // estimator may have fitted the same signature meanwhile. Keeping the
        // counters inside the critical section preserves the invariant that
        // `curve_fits()` equals the number of distinct fitted signatures,
        // which the zero-new-fits probes rely on (evictions may later shrink
        // the cache below the fit count).
        let mut cache = self.write_cache();
        if let Some(existing) = cache.get(&signature) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&existing.curve));
        }
        self.fits.fetch_add(1, Ordering::Relaxed);
        let slot = CurveSlot::new(
            Arc::clone(&curve),
            self.clock.fetch_add(1, Ordering::Relaxed),
        );
        self.bytes.fetch_add(slot.bytes, Ordering::Relaxed);
        cache.insert(signature, slot);
        self.evict_to_budget(&mut cache, self.budget.load(Ordering::Relaxed));
        Ok(curve)
    }

    /// Evicts least-recently-used slots until the accounted bytes fit the
    /// budget. Must be called with the write lock held. The just-inserted
    /// slot carries the freshest tick, so it goes last — but even it is
    /// dropped if it alone exceeds the budget, keeping the bound a hard
    /// invariant (the curve was still returned to the caller; a later lookup
    /// simply re-fits).
    fn evict_to_budget(&self, cache: &mut HashMap<WorkloadSignature, CurveSlot>, budget: usize) {
        while self.bytes.load(Ordering::Relaxed) > budget && !cache.is_empty() {
            let oldest = cache
                .iter()
                .min_by_key(|(_, slot)| slot.tick.load(Ordering::Relaxed))
                .map(|(sig, _)| *sig)
                .expect("cache is non-empty");
            if let Some(slot) = cache.remove(&oldest) {
                self.bytes.fetch_sub(slot.bytes, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Per-device memory in bytes of one operator at allocation `n`.
    #[must_use]
    pub fn memory_bytes(&self, op: &Operator, n: u32) -> u64 {
        self.model.memory_bytes(op, n.max(1))
    }

    /// Number of distinct operator signatures profiled so far.
    #[must_use]
    pub fn cached_curves(&self) -> usize {
        self.read_cache().len()
    }

    /// Number of profile-and-fit operations performed so far. A lookup served
    /// from the cache does **not** increment this, which is what lets session
    /// tests assert "re-planning performed zero new fits".
    #[must_use]
    pub fn curve_fits(&self) -> usize {
        self.fits.load(Ordering::Relaxed)
    }

    /// Number of curve lookups served from the cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Approximate bytes currently held by the cached curves.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Curves evicted so far to keep the cache within its byte budget.
    #[must_use]
    pub fn cache_evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// A snapshot of the curve-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CurveCacheStats {
        CurveCacheStats {
            entries: self.cached_curves(),
            fits: self.curve_fits(),
            hits: self.cache_hits(),
            bytes: self.cache_bytes(),
            evictions: self.cache_evictions(),
        }
    }

    fn read_cache(&self) -> std::sync::RwLockReadGuard<'_, HashMap<WorkloadSignature, CurveSlot>> {
        self.cache
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_cache(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, HashMap<WorkloadSignature, CurveSlot>> {
        self.cache
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_graph::{Modality, OpId, OpKind, TaskId, TensorShape};

    fn estimator() -> ScalabilityEstimator {
        ScalabilityEstimator::new(&ClusterSpec::homogeneous(4, 8))
    }

    fn op(id: u32, kind: OpKind, shape: TensorShape) -> Operator {
        Operator::new(OpId(id), kind, TaskId(0), shape)
    }

    #[test]
    fn curves_are_cached_by_signature() {
        let est = estimator();
        let a = op(
            0,
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
        );
        let b = op(
            7,
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
        );
        let c = op(
            9,
            OpKind::Encoder(Modality::Text),
            TensorShape::new(8, 77, 768),
        );
        let ca = est.curve_for(&a);
        let cb = est.curve_for(&b);
        let cc = est.curve_for(&c);
        assert!(Arc::ptr_eq(&ca, &cb));
        assert!(!Arc::ptr_eq(&ca, &cc));
        assert_eq!(est.cached_curves(), 2);
    }

    #[test]
    fn fit_and_hit_counters_track_cache_traffic() {
        let est = estimator();
        let a = op(
            0,
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
        );
        let b = op(
            7,
            OpKind::Encoder(Modality::Audio),
            TensorShape::new(8, 229, 768),
        );
        assert_eq!(est.cache_stats(), CurveCacheStats::default());
        let _ = est.curve_for(&a);
        assert_eq!(est.curve_fits(), 1);
        assert_eq!(est.cache_hits(), 0);
        let _ = est.curve_for(&b); // same signature: a hit, no new fit
        let _ = est.curve_for(&a);
        let stats = est.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.fits, 1);
        assert_eq!(stats.hits, 2);
        assert!(stats.bytes > 0, "cached curves must be accounted");
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_curves() {
        let est = estimator();
        let op_for = |id: u32, seq: u32| {
            op(
                id,
                OpKind::Encoder(Modality::Audio),
                TensorShape::new(8, seq, 768),
            )
        };
        let first = est.curve_for(&op_for(0, 100));
        let per_curve = est.cache_bytes();
        assert!(per_curve > first.approx_bytes(), "slot overhead is counted");
        // Budget for roughly two curves: the third insert evicts the LRU one.
        est.ensure_cache_budget(2 * per_curve + per_curve / 2);
        let _ = est.curve_for(&op_for(1, 101));
        assert_eq!(est.cache_evictions(), 0);
        // Touch the first signature so the *second* becomes LRU.
        let _ = est.curve_for(&op_for(0, 100));
        let _ = est.curve_for(&op_for(2, 102));
        assert_eq!(est.cache_evictions(), 1);
        assert!(est.cache_bytes() <= est.cache_budget());
        assert_eq!(est.cached_curves(), 2);
        // The touched signature survived; the untouched one was evicted and
        // now re-fits (correctness is unaffected, only cost).
        let fits = est.curve_fits();
        let refit = est.curve_for(&op_for(0, 100));
        assert_eq!(est.curve_fits(), fits, "recently used curve stays cached");
        assert_eq!(refit.valid_allocations(), first.valid_allocations());
        let _ = est.curve_for(&op_for(1, 101));
        assert_eq!(est.curve_fits(), fits + 1, "evicted curve must re-fit");
    }

    #[test]
    fn shrinking_the_budget_evicts_immediately_and_bound_is_hard() {
        let est = estimator();
        for seq in 0..8u32 {
            let _ = est.curve_for(&op(
                seq,
                OpKind::Encoder(Modality::Vision),
                TensorShape::new(8, 100 + seq, 768),
            ));
        }
        assert_eq!(est.cached_curves(), 8);
        let bytes = est.cache_bytes();
        est.ensure_cache_budget(bytes / 2);
        assert!(est.cache_bytes() <= bytes / 2);
        assert!(est.cache_evictions() >= 4);
        // A budget below a single curve keeps the cache empty but functional.
        est.ensure_cache_budget(8);
        assert_eq!(est.cache_bytes(), 0);
        let curve = est.curve_for(&op(
            99,
            OpKind::Encoder(Modality::Text),
            TensorShape::new(8, 77, 768),
        ));
        assert!(curve.max_allocation() >= 1);
        assert_eq!(est.cache_bytes(), 0, "oversized entries are not retained");
    }

    #[test]
    fn heavy_ops_have_better_scalability() {
        let est = estimator();
        let llm = op(0, OpKind::LmDecoderOnly, TensorShape::new(8, 512, 4096));
        let text = op(
            1,
            OpKind::Encoder(Modality::Text),
            TensorShape::new(4, 77, 768),
        );
        assert!(est.curve_for(&llm).scalability(16.0) > est.curve_for(&text).scalability(16.0));
    }

    #[test]
    fn memory_positive_and_shrinks() {
        let est = estimator();
        let llm = op(0, OpKind::LmDecoderOnly, TensorShape::new(8, 512, 4096));
        assert!(est.memory_bytes(&llm, 1) > est.memory_bytes(&llm, 8));
        assert!(est.memory_bytes(&llm, 8) > 0);
    }

    #[test]
    fn max_devices_bounds_curve() {
        let est = estimator();
        assert_eq!(est.max_devices(), 32);
        let a = op(
            0,
            OpKind::Encoder(Modality::Vision),
            TensorShape::new(8, 257, 768),
        );
        assert!(est.curve_for(&a).max_allocation() <= 32);
    }

    #[test]
    fn debug_does_not_leak_internals() {
        let est = estimator();
        let s = format!("{est:?}");
        assert!(s.contains("ScalabilityEstimator"));
    }
}
