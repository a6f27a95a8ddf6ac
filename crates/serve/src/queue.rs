//! The bounded, prioritized submission queue.
//!
//! One `Mutex<Inner>` + `Condvar` protect three FIFO lanes (one per
//! [`Priority`] level). `try_push` never blocks — a full queue is the
//! backpressure signal ([`ServeError::Overloaded`]) — while workers
//! block in [`JobQueue::pop_batch`] until work arrives or the queue is
//! closed and drained.
//!
//! Popping is where request **batching** happens: the head job is
//! taken from the highest non-empty lane, then every queued job with
//! the *same plan key* (same operand structures and options) is pulled
//! out with it, up to the batch cap. The worker executes the whole
//! batch under one plan, so all but the first job skip the symbolic
//! phase even when the plan cache is cold. Batch-mates ride along at
//! the head job's scheduling slot — coalescing trades a little
//! priority strictness for symbolic-phase reuse, the standard batching
//! bargain.

use crate::error::ServeError;
use crate::expr_results::EvalKey;
use crate::job::{JobCore, Priority};
use crate::plan_cache::PlanKey;
use crate::store::StoredMatrix;
use spgemm::expr::ExprSpec;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What a batch coalesces on: jobs with equal keys execute together
/// under one plan (products) or share one evaluation (identical
/// expression jobs over identical snapshots).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchKey {
    /// Same operand structures + kernel options.
    Product(PlanKey),
    /// Same DAG + same input snapshots + same kernel (the root node's
    /// value fingerprint): byte-identical results by construction.
    Expr(u64),
}

/// A resolved expression job: the spec, the captured input snapshots,
/// and the key (kernel included) of the evaluators that can serve it.
pub(crate) struct ExprJob {
    pub(crate) spec: ExprSpec,
    pub(crate) inputs: Vec<Arc<StoredMatrix>>,
    pub(crate) key: EvalKey,
}

/// What the worker executes for one job.
pub(crate) enum JobPayload {
    /// Plain `C = A · B` over resolved snapshots.
    Product {
        a: Arc<StoredMatrix>,
        b: Arc<StoredMatrix>,
        key: PlanKey,
    },
    /// A whole expression DAG.
    Expr(ExprJob),
}

/// A job as it sits in the queue: resolved operands plus shared state.
pub(crate) struct QueuedJob {
    pub(crate) core: Arc<JobCore>,
    pub(crate) key: BatchKey,
    pub(crate) payload: JobPayload,
}

struct Inner {
    lanes: [VecDeque<QueuedJob>; Priority::COUNT],
    len: usize,
    closed: bool,
}

pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                lanes: std::array::from_fn(|_| VecDeque::new()),
                len: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Recovers from poisoning: jobs and `len` move together under it.
    fn lanes(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue without blocking. Fails with `Overloaded` at capacity
    /// and `ShuttingDown` after [`JobQueue::close`].
    pub(crate) fn try_push(&self, priority: Priority, job: QueuedJob) -> Result<(), ServeError> {
        let mut inner = self.lanes();
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        if inner.len >= self.capacity {
            return Err(ServeError::Overloaded {
                capacity: self.capacity,
            });
        }
        inner.lanes[priority.lane()].push_back(job);
        inner.len += 1;
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Take the next batch: the head job of the highest non-empty
    /// lane plus up to `max_batch - 1` queued jobs sharing its plan
    /// key (scanned in priority order). Blocks while the queue is
    /// empty and open; returns an empty vec once it is closed *and*
    /// drained — the worker's signal to exit.
    pub(crate) fn pop_batch(&self, max_batch: usize) -> Vec<QueuedJob> {
        let max_batch = max_batch.max(1);
        let mut inner = self.lanes();
        loop {
            if inner.len > 0 {
                let mut batch = Vec::new();
                let head = inner
                    .lanes
                    .iter_mut()
                    .find_map(|lane| lane.pop_front())
                    .expect("len > 0 but all lanes empty");
                let key = head.key;
                batch.push(head);
                for lane in &mut inner.lanes {
                    let mut i = 0;
                    while i < lane.len() && batch.len() < max_batch {
                        if lane[i].key == key {
                            batch.push(lane.remove(i).expect("index in bounds"));
                        } else {
                            i += 1;
                        }
                    }
                }
                inner.len -= batch.len();
                return batch;
            }
            if inner.closed {
                return Vec::new();
            }
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop accepting; wake every worker so they can drain and exit.
    pub(crate) fn close(&self) {
        self.lanes().closed = true;
        self.cv.notify_all();
    }

    /// Queued (not yet popped) jobs. Cancelled jobs still occupy a
    /// slot until a worker pops and skips them.
    pub(crate) fn depth(&self) -> usize {
        self.lanes().len
    }

    /// Queued jobs per priority lane, highest priority first (the
    /// same order as [`Priority::lane`]). One lock acquisition, so
    /// the lane counts are a consistent snapshot that sums to
    /// [`JobQueue::depth`] at the same instant.
    pub(crate) fn lane_depths(&self) -> [usize; Priority::COUNT] {
        let inner = self.lanes();
        std::array::from_fn(|l| inner.lanes[l].len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::store::MatrixStore;
    use spgemm::{Algorithm, OutputOrder};
    use spgemm_sparse::Csr;

    /// A queued job over an `n × n` identity; the structure (and so
    /// the plan key) is distinct per `n`.
    fn job(store: &MatrixStore, id: u64, n: usize) -> QueuedJob {
        let name = format!("m{n}");
        let m = store
            .get(&name)
            .unwrap_or_else(|| store.insert(name, Csr::<f64>::identity(n)));
        let key =
            crate::plan_cache::PlanKey::for_product(&m, &m, Algorithm::Hash, OutputOrder::Sorted);
        QueuedJob {
            core: JobCore::new(
                id,
                String::new(),
                Arc::new(Metrics::default()),
                spgemm_obs::TraceCtx::INERT,
            ),
            key: BatchKey::Product(key),
            payload: JobPayload::Product {
                a: Arc::clone(&m),
                b: m,
                key,
            },
        }
    }

    /// The row count of a product job's left operand (test probe).
    fn rows(j: &QueuedJob) -> usize {
        match &j.payload {
            JobPayload::Product { a, .. } => a.csr().nrows(),
            JobPayload::Expr(_) => unreachable!("product jobs only in these tests"),
        }
    }

    #[test]
    fn backpressure_overloaded_exactly_at_capacity() {
        let store = MatrixStore::new();
        let q = JobQueue::new(2);
        q.try_push(Priority::Normal, job(&store, 0, 3)).unwrap();
        q.try_push(Priority::Normal, job(&store, 1, 3)).unwrap();
        match q.try_push(Priority::Normal, job(&store, 2, 3)) {
            Err(ServeError::Overloaded { capacity: 2 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        // Popping frees a slot.
        let batch = q.pop_batch(1);
        assert_eq!(batch.len(), 1);
        q.try_push(Priority::Normal, job(&store, 3, 3)).unwrap();
    }

    #[test]
    fn priority_order_then_fifo_within_level() {
        let store = MatrixStore::new();
        let q = JobQueue::new(16);
        // Distinct structures so batching can't merge them.
        q.try_push(Priority::Low, job(&store, 0, 2)).unwrap();
        q.try_push(Priority::Normal, job(&store, 1, 3)).unwrap();
        q.try_push(Priority::High, job(&store, 2, 4)).unwrap();
        q.try_push(Priority::High, job(&store, 3, 5)).unwrap();
        q.try_push(Priority::Normal, job(&store, 4, 6)).unwrap();
        let order: Vec<usize> = (0..5).map(|_| rows(&q.pop_batch(1)[0])).collect();
        assert_eq!(order, [4, 5, 3, 6, 2], "high first, FIFO within level");
    }

    #[test]
    fn pop_batches_same_key_across_lanes() {
        let store = MatrixStore::new();
        let q = JobQueue::new(16);
        q.try_push(Priority::Normal, job(&store, 0, 4)).unwrap();
        q.try_push(Priority::Normal, job(&store, 1, 9)).unwrap();
        q.try_push(Priority::Low, job(&store, 2, 4)).unwrap();
        q.try_push(Priority::Normal, job(&store, 3, 4)).unwrap();
        let batch = q.pop_batch(8);
        assert_eq!(batch.len(), 3, "all three n=4 jobs coalesce");
        assert!(batch.iter().all(|j| rows(j) == 4));
        assert_eq!(q.depth(), 1);
        assert_eq!(rows(&q.pop_batch(8)[0]), 9);
    }

    #[test]
    fn batch_cap_respected() {
        let store = MatrixStore::new();
        let q = JobQueue::new(16);
        for i in 0..5 {
            q.try_push(Priority::Normal, job(&store, i, 4)).unwrap();
        }
        assert_eq!(q.pop_batch(3).len(), 3);
        assert_eq!(q.pop_batch(3).len(), 2);
    }

    #[test]
    fn lane_depths_track_each_priority() {
        let store = MatrixStore::new();
        let q = JobQueue::new(16);
        assert_eq!(q.lane_depths(), [0, 0, 0]);
        q.try_push(Priority::Low, job(&store, 0, 2)).unwrap();
        q.try_push(Priority::Normal, job(&store, 1, 3)).unwrap();
        q.try_push(Priority::Normal, job(&store, 2, 4)).unwrap();
        q.try_push(Priority::High, job(&store, 3, 5)).unwrap();
        let lanes = q.lane_depths();
        assert_eq!(lanes, [1, 2, 1], "high, normal, low");
        assert_eq!(lanes.iter().sum::<usize>(), q.depth());
        // Popping the high-priority head drains its lane first.
        q.pop_batch(1);
        assert_eq!(q.lane_depths(), [0, 2, 1]);
    }

    #[test]
    fn close_rejects_new_work_and_drains_old() {
        let store = MatrixStore::new();
        let q = JobQueue::new(8);
        q.try_push(Priority::Normal, job(&store, 0, 3)).unwrap();
        q.close();
        assert!(matches!(
            q.try_push(Priority::Normal, job(&store, 1, 3)),
            Err(ServeError::ShuttingDown)
        ));
        assert_eq!(q.pop_batch(4).len(), 1, "accepted work still drains");
        assert!(q.pop_batch(4).is_empty(), "then signals exit");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_batch(1).len());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let store = MatrixStore::new();
        q.try_push(Priority::Normal, job(&store, 0, 3)).unwrap();
        assert_eq!(t.join().unwrap(), 1);
    }
}
