//! The shared, concurrency-safe slot caches: one for plans, one for
//! expression evaluators (`crate::expr_results`).
//!
//! [`spgemm::PlanCache`] amortizes symbolic work for *one* caller;
//! this cache turns the same amortization into a cross-tenant,
//! cross-worker resource. The plan cache maps a [`PlanKey`] — the
//! operands' structure fingerprints (computed once at registration,
//! see [`crate::MatrixStore`]) plus the kernel options — to a slot
//! holding [`SpgemmPlan`]s. Repeated products over stable structures,
//! from any tenant on any worker, reuse the symbolic phase and the
//! plan's pooled per-thread accumulators.
//!
//! # Concurrency model
//!
//! A plan's workspace pool is indexed by worker id within one
//! execution pool, so a single plan instance must not run on two
//! worker teams at once (nor may an evaluator be advanced by two).
//! Serializing a hot key on one instance would throttle the dominant
//! tenant to one worker, so each slot holds a small **pool of
//! instances**: a worker checks an instance out ([`Slot::checkout`]),
//! runs its whole batch without holding any slot lock, and returns it
//! ([`Slot::checkin`]). A hot key thus fans out to as many instances
//! as there are workers demanding it — each instance pays its own
//! build once (a miss) and is reused ever after (hits) — while cold
//! keys cost exactly one instance.
//!
//! Eviction is least-recently-used over a fixed key budget. An
//! evicted slot still held by a worker stays alive (the map holds
//! `Arc`s); checked-out instances are simply returned to the orphaned
//! slot and dropped with it.

use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_sparse::PlusTimes;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::store::StoredMatrix;

/// The semiring the serving layer runs (the paper's numeric setting).
pub(crate) type S = PlusTimes<f64>;

/// Cache key: operand structures + kernel options. Two requests with
/// the same key can share one plan verbatim.
///
/// # Trust model
///
/// Structure identity is decided by the 64-bit FNV-1a
/// [`spgemm_sparse::Csr::structure_fingerprint`], which is fast but
/// not collision-resistant: the engine assumes *cooperating* tenants.
/// A plan's per-execute checks still reject any shape or nnz
/// disagreement with an error, so only a full fingerprint collision
/// between equal-shape, equal-nnz, structurally different matrices —
/// vanishingly unlikely by accident, constructible by a hostile
/// tenant — could route a job through the wrong symbolic structure.
/// Serving mutually untrusted tenants would need a keyed or
/// cryptographic structure hash (or per-tenant cache partitions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`spgemm_sparse::Csr::structure_fingerprint`] of `A`.
    pub fp_a: u64,
    /// Fingerprint of `B`.
    pub fp_b: u64,
    /// Requested kernel (pre-`Auto`-resolution; resolution happens
    /// once inside the plan).
    pub algo: Algorithm,
    /// Output ordering contract.
    pub order: OutputOrder,
}

impl PlanKey {
    /// The key of `a · b` under the given options.
    pub fn for_product(
        a: &StoredMatrix,
        b: &StoredMatrix,
        algo: Algorithm,
        order: OutputOrder,
    ) -> Self {
        PlanKey {
            fp_a: a.fingerprint(),
            fp_b: b.fingerprint(),
            algo,
            order,
        }
    }
}

/// One cache entry: a pool of interchangeable instances for the key
/// (built lazily by workers as concurrency demands) and an LRU stamp.
pub(crate) struct Slot<V> {
    /// Recovers from poisoning: a critical section moves whole instances.
    instances: Mutex<Vec<V>>,
    last_used: AtomicU64,
}

impl<V> Slot<V> {
    fn instances(&self) -> MutexGuard<'_, Vec<V>> {
        self.instances
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the idle instance `fit` ranks lowest — the most recently
    /// returned among equals; instances it ranks `None` stay pooled.
    pub(crate) fn checkout(&self, mut fit: impl FnMut(&V) -> Option<u32>) -> Option<V> {
        let mut pool = self.instances();
        let (at, _) = (pool.iter().enumerate().rev())
            .filter_map(|(i, v)| fit(v).map(|rank| (i, rank)))
            .min_by_key(|&(_, rank)| rank)?;
        Some(pool.remove(at))
    }

    /// Return an instance for the next worker.
    pub(crate) fn checkin(&self, v: V) {
        self.instances().push(v);
    }
}

/// Counters of a slot cache — the plan cache's, and
/// [`crate::ExprResultCacheStats`] for the evaluator cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Jobs served by an instance already built: numeric-only under a
    /// plan (batch-mates of the job that built it included), or on an
    /// evaluator already at the job's input versions.
    pub hits: u64,
    /// Jobs that paid a build: a plan's symbolic phase, or a whole
    /// expression evaluation (an advanced evaluator is neither).
    pub misses: u64,
    /// Entries evicted to stay within the budget.
    pub evictions: u64,
    /// Live cache **keys** (each may pool several instances — see
    /// [`crate::ServeConfig::plan_cache_plans`]; the evaluator cache
    /// holds up to 128 keys).
    pub entries: usize,
}

impl PlanCacheStats {
    /// Per-window deltas against an earlier snapshot of the same
    /// cache: counters are differenced, `entries` (a gauge) keeps its
    /// end-of-window value.
    pub fn since(&self, prev: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            evictions: self.evictions.saturating_sub(prev.evictions),
            entries: self.entries,
        }
    }

    /// `hits / (hits + misses)`, 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The product plans' cache.
pub(crate) type SharedPlanCache = SlotCache<PlanKey, SpgemmPlan<S>>;

/// Key → [`Slot`] of pooled instances, LRU over a key budget.
pub(crate) struct SlotCache<K, V> {
    /// Recovers from poisoning: a critical section moves whole slots.
    map: Mutex<HashMap<K, Arc<Slot<V>>>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V> SlotCache<K, V> {
    /// A cache holding at most `capacity` keys; 0 disables caching
    /// (the engine then builds an instance per job and drops it — for
    /// plans, the cold one-shot baseline the `spgemm-serve --compare`
    /// bench measures against).
    pub(crate) fn new(capacity: usize) -> Self {
        SlotCache {
            map: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn map(&self) -> MutexGuard<'_, HashMap<K, Arc<Slot<V>>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot for `key`, creating (and LRU-evicting) as needed.
    pub(crate) fn slot(&self, key: K) -> Arc<Slot<V>> {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.map();
        if let Some(slot) = map.get(&key) {
            slot.last_used.store(stamp, Ordering::Relaxed);
            return Arc::clone(slot);
        }
        if map.len() >= self.capacity {
            let victim = map
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = Arc::new(Slot {
            instances: Mutex::new(Vec::new()),
            last_used: AtomicU64::new(stamp),
        });
        map.insert(key, Arc::clone(&slot));
        slot
    }

    /// Record `n` jobs served by a built instance.
    pub(crate) fn note_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` jobs that paid (or shared) a build.
    pub(crate) fn note_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.map().len(),
        }
    }
}

impl SharedPlanCache {
    /// Bytes held by the *idle* (checked-in) plans of every live slot:
    /// each one's [`SpgemmPlan::owned_bytes`] — work analysis, row
    /// pointers and, for a dense-kernel plan, the column pattern its
    /// bind wrote — read now, so an instance rebound while checked out
    /// counts at its new size once it is back. ("approx": the pooled
    /// per-thread accumulators are not in it.)
    pub(crate) fn idle_bytes(&self) -> u64 {
        let idle = |slot: &Arc<Slot<SpgemmPlan<S>>>| -> u64 {
            let plans = slot.instances();
            plans.iter().map(|p| p.owned_bytes() as u64).sum()
        };
        self.map().values().map(idle).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64) -> PlanKey {
        PlanKey {
            fp_a: fp,
            fp_b: fp,
            algo: Algorithm::Hash,
            order: OutputOrder::Sorted,
        }
    }

    #[test]
    fn slot_is_stable_per_key() {
        let cache = SharedPlanCache::new(4);
        let s1 = cache.slot(key(1));
        let s2 = cache.slot(key(1));
        assert!(Arc::ptr_eq(&s1, &s2));
        let other = cache.slot(key(2));
        assert!(!Arc::ptr_eq(&s1, &other));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_evicts_coldest() {
        let cache = SharedPlanCache::new(2);
        let s1 = cache.slot(key(1));
        let _s2 = cache.slot(key(2));
        let _s1_again = cache.slot(key(1)); // refresh 1; 2 is now coldest
        let _s3 = cache.slot(key(3)); // evicts 2
        let st = cache.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.evictions, 1);
        assert!(Arc::ptr_eq(&s1, &cache.slot(key(1))), "1 survived");
        // 2 was evicted: a fresh, empty slot comes back.
        let s2_new = cache.slot(key(2));
        assert!(s2_new.checkout(|_| Some(0)).is_none());
    }

    /// The cache counts an idle instance at what it holds: the
    /// analysis, the row pointers and the `u16` column pattern the bind
    /// captured, two bytes per output entry — no more after executions
    /// while checked out, since they replay the pattern rather than add
    /// to it.
    #[test]
    fn pooled_bytes_follow_the_plan_across_its_capture() {
        let a = spgemm_sparse::Csr::<f64>::identity(300);
        let pool = spgemm_par::Pool::new(1);
        let plan = SpgemmPlan::<S>::new_in(&a, &a, Algorithm::Auto, OutputOrder::Sorted, &pool);
        let cache = SharedPlanCache::new(1);
        let slot = cache.slot(key(1));
        let pooled = || cache.idle_bytes();
        slot.checkin(plan.unwrap());
        // 300 row flops + 2 partition offsets + 301 row pointers, 8 B
        // each, and the pattern.
        let held = 8 * (300 + 2 + 301) + 2 * 300;
        assert_eq!(pooled(), held);
        let plan = slot.checkout(|_| Some(0)).expect("pooled above");
        assert_eq!(pooled(), 0);
        for _ in 0..2 {
            plan.execute_in(&a, &a, &pool).unwrap();
        }
        slot.checkin(plan);
        assert_eq!(pooled(), held, "the u16 pattern, unchanged");
    }

    #[test]
    fn hit_rate_math() {
        let cache = SharedPlanCache::new(2);
        cache.note_misses(1);
        cache.note_hits(3);
        let st = cache.stats();
        assert!((st.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
    }
}
