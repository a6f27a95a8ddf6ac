//! The serving engine: worker threads draining the queue through the
//! shared plan cache. A job resolves its tenant's telemetry cell at
//! submission and records into it once, at completion
//! ([`crate::metrics`]); [`ServeEngine::metrics`] sums the cells.

use crate::delta::{DeltaTracker, RowUpdateReceipt};
use crate::error::ServeError;
use crate::expr_results::{self, EvalKey, EvaluatorCache};
use crate::job::{ExprRequest, JobCore, JobHandle, ProductRequest};
use crate::metrics::{Levels, Metrics, MetricsSnapshot, SloPolicy};
use crate::plan_cache::{PlanKey, SharedPlanCache, Slot, S};
use crate::queue::{BatchKey, ExprJob, JobPayload, JobQueue, QueuedJob};
use crate::store::MatrixStore;
use spgemm::delta::RowPatch;
use spgemm::SpgemmPlan;
use spgemm_dist::{DistConfig, GridSpec, ShardRuntime};
use spgemm_obs as obs;
use spgemm_par::{panic_text, Pool};
use spgemm_sparse::{stats, Csr, SparseError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Most jobs one worker coalesces under a single plan per pop.
const MAX_BATCH: usize = 16;

/// Budget of the evaluator cache for expression jobs, in keys: one per
/// pipeline (graph, input names, kernel) whatever tenant submits it,
/// each pooling up to one evaluator — a `spgemm::expr::ExprPlan` — per
/// worker that demanded it at once. LRU beyond it.
const EVALUATOR_KEYS: usize = 128;

/// Engine sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue (each executes one batch at a
    /// time). Clamped to ≥ 1.
    pub workers: usize,
    /// Width of each worker's execution [`Pool`]. All workers use the
    /// same width so cached plans are interchangeable between them.
    pub threads_per_worker: usize,
    /// Submission queue capacity; `try_submit` returns
    /// [`ServeError::Overloaded`] beyond it.
    pub queue_capacity: usize,
    /// Shared plan cache budget in **keys** (distinct operand
    /// structures × options); LRU beyond it. Each hot key retains up
    /// to one plan *instance* per worker that demanded it
    /// concurrently, so worst-case retained plans are
    /// `plan_cache_plans × workers`. **0 disables the cache**, making
    /// every job a cold one-shot multiply (the baseline the
    /// `spgemm-serve --compare` bench measures against).
    pub plan_cache_plans: usize,
    /// Inert: read by nothing. It selected the calibration-profile
    /// path that left with `crates/tune`; the field stays only because
    /// the frozen repo benchmark (`bm/src/workloads/serve_mix.rs`)
    /// names it in a struct literal, and goes with the next
    /// benchmark-only change.
    #[doc(hidden)]
    pub use_tuned_profile: bool,
    /// Route oversized product jobs to a shared sharded backend
    /// (`spgemm_dist::ShardRuntime`) instead of the monolithic plan
    /// path. `None` (the default) disables routing. Expression jobs
    /// never route: they run on their evaluator.
    pub dist: Option<DistRouting>,
    /// Per-tenant latency objectives. Jobs of a tenant with a target
    /// are classified good/bad on completion and surfaced as the
    /// [`crate::TenantSlo`] of their [`crate::TenantLatency`] row
    /// (error-budget burn rate included) in
    /// [`MetricsSnapshot::per_tenant`]. The default policy tracks
    /// nothing.
    pub slo: SloPolicy,
}

/// When and how the engine hands a product job to the sharded backend.
///
/// One [`ShardRuntime`] is spawned at engine startup and **shared by
/// all workers**; a routed job occupies the whole shard fleet, so
/// oversized products serialize there (by design — they are the jobs
/// a single workspace could not serve well). The routed job executes
/// under the backend's own kernel policy; the request's `algo` is
/// treated as advisory, like `Auto`, and the result honours either
/// output-order contract (the fleet runs sorted products on
/// `DistConfig`'s default kernel, `Auto`, so its rows are sorted, and
/// every block resolving to `Spa` or `Hash` is bit-identical to the
/// monolithic `Hash` product). All routed keys share that runtime, which
/// keeps up to [`spgemm_dist::CACHED_STRUCTURES`] (2) operand
/// structures bound: up to that many routed structures replay
/// numeric-only however their jobs interleave, and a further one
/// rebinds the least recently used structure's shard plans.
/// Shard-fleet infrastructure failures are not surfaced to the
/// job: the worker falls back to its monolithic path and the product
/// still completes.
#[derive(Clone, Copy, Debug)]
pub struct DistRouting {
    /// Shard grid for the shared runtime.
    pub grid: GridSpec,
    /// Pool width of each shard.
    pub threads_per_shard: usize,
    /// Route when `nnz(A) + nnz(B)` reaches this.
    pub min_operand_nnz: usize,
    /// Also route when the product's estimated flop reaches this
    /// (`None` disables the flop test). Checked only when the nnz
    /// test fails; costs one `O(nnz(A))` pass per routed decision.
    pub min_flop: Option<u64>,
}

impl Default for DistRouting {
    fn default() -> Self {
        DistRouting {
            grid: GridSpec::new(2, 1),
            threads_per_shard: 1,
            min_operand_nnz: 1 << 22,
            min_flop: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            threads_per_worker: 1,
            queue_capacity: 1024,
            plan_cache_plans: 64,
            use_tuned_profile: false,
            dist: None,
            slo: SloPolicy::default(),
        }
    }
}

struct EngineShared {
    store: MatrixStore,
    queue: JobQueue,
    cache: SharedPlanCache,
    evaluators: EvaluatorCache,
    metrics: Arc<Metrics>,
    /// Per-name edit windows behind `try_submit_row_update`; also the
    /// lock serializing its read-modify-write against the store.
    deltas: DeltaTracker,
    next_job: AtomicU64,
    /// Workers executing a batch (not blocked in `pop_batch`).
    workers_busy: AtomicUsize,
    started: Instant,
    /// The sharded backend plus its routing thresholds, when enabled.
    dist: Option<(ShardRuntime, DistRouting)>,
}

/// The in-process SpGEMM service: register matrices, submit products,
/// hold [`JobHandle`]s.
///
/// ```
/// use spgemm_serve::{ProductRequest, ServeConfig, ServeEngine};
/// use spgemm_sparse::Csr;
///
/// let engine = ServeEngine::new(ServeConfig::default());
/// engine.store().insert("a", Csr::<f64>::identity(16));
/// let job = engine.try_submit(ProductRequest::new("a", "a")).unwrap();
/// let c = job.wait().unwrap();
/// assert_eq!(c.nnz(), 16);
/// let m = engine.shutdown();
/// assert_eq!(m.completed, 1);
/// ```
pub struct ServeEngine {
    shared: Arc<EngineShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Start the engine: spawns `cfg.workers` worker threads, each
    /// owning an execution pool of `cfg.threads_per_worker` threads.
    pub fn new(cfg: ServeConfig) -> Self {
        let dist = cfg.dist.map(|routing| {
            let runtime = ShardRuntime::new(DistConfig {
                grid: routing.grid,
                threads_per_shard: routing.threads_per_shard.max(1),
                ..DistConfig::default()
            });
            (runtime, routing)
        });
        let shared = Arc::new(EngineShared {
            store: MatrixStore::new(),
            queue: JobQueue::new(cfg.queue_capacity),
            cache: SharedPlanCache::new(cfg.plan_cache_plans),
            evaluators: EvaluatorCache::new(EVALUATOR_KEYS),
            metrics: Arc::new(Metrics::with_slo(cfg.slo.clone())),
            deltas: DeltaTracker::default(),
            next_job: AtomicU64::new(0),
            workers_busy: AtomicUsize::new(0),
            started: Instant::now(),
            dist,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let width = cfg.threads_per_worker.max(1);
                std::thread::Builder::new()
                    .name(format!("spgemm-serve-{i}"))
                    .spawn(move || {
                        let pool = Pool::new(width);
                        worker_loop(&shared, &pool);
                    })
                    .expect("failed to spawn serve worker")
            })
            .collect();
        ServeEngine { shared, workers }
    }

    /// The matrix registry.
    pub fn store(&self) -> &MatrixStore {
        &self.shared.store
    }

    /// Apply a row-granular edit to the registered matrix `name`
    /// without blocking on the job queue: the patched matrix is
    /// registered as a new immutable version (in-flight jobs keep
    /// their snapshots — the usual bounded-staleness contract), and
    /// the engine records *which rows changed* so expression jobs
    /// submitted against the new version can **advance** the cached
    /// evaluator of an earlier version, recomputing only the rows the
    /// edit dirtied in every node, instead of evaluating from scratch
    /// (see [`MetricsSnapshot::expr_results_patched`]).
    ///
    /// Errors mirror the patch contract of
    /// [`spgemm_sparse::Csr::apply_patch`]: an unknown name is
    /// [`ServeError::UnknownMatrix`], out-of-bounds coordinates and
    /// updates of absent entries surface as [`ServeError::Sparse`] and
    /// leave the registration untouched. Concurrent updates to one
    /// engine serialize; each sees the previous one's result.
    ///
    /// ```
    /// use spgemm::delta::RowPatch;
    /// use spgemm_serve::{ServeConfig, ServeEngine};
    /// use spgemm_sparse::Csr;
    ///
    /// let engine = ServeEngine::new(ServeConfig::default());
    /// engine.store().insert("g", Csr::<f64>::identity(8));
    /// let mut patch = RowPatch::new();
    /// patch.insert(2, 5, 1.0).delete(3, 3);
    /// let receipt = engine.try_submit_row_update("g", &patch).unwrap();
    /// assert_eq!(receipt.rows_dirtied, 2);
    /// assert!(receipt.new_version > receipt.old_version);
    /// let m = engine.shutdown();
    /// assert_eq!(m.row_updates, 1);
    /// assert_eq!(m.rows_dirtied, 2);
    /// ```
    pub fn try_submit_row_update(
        &self,
        name: &str,
        patch: &RowPatch<f64>,
    ) -> Result<RowUpdateReceipt, ServeError> {
        // Row updates run synchronously on the caller's thread, so
        // their trace opens and finishes right here (no job core).
        let ctx = obs::TraceCtx::root();
        let started = Instant::now();
        let result = {
            let _scope = obs::ctx_scope(ctx);
            let _g = obs::span!("serve", "serve.row_update");
            self.row_update_inner(name, patch)
        };
        let total_ns = started.elapsed().as_nanos() as u64;
        obs::finish_request(ctx, "(row-update)", total_ns, total_ns);
        result
    }

    fn row_update_inner(
        &self,
        name: &str,
        patch: &RowPatch<f64>,
    ) -> Result<RowUpdateReceipt, ServeError> {
        let shared = &self.shared;
        let _g = shared.deltas.update_guard();
        // The write lands only on the version it patched: a wholesale
        // registration in between would sit inside the window.
        let (cur, stored, dirty) = loop {
            let unknown = || ServeError::UnknownMatrix { name: name.into() };
            let cur = shared.store.get(name).ok_or_else(unknown)?;
            let (patched, dirty) = cur.csr().apply_patch(patch).map_err(ServeError::Sparse)?;
            let version = Some(cur.version());
            if let Some(stored) = shared.store.replace(name.into(), version, patched) {
                break (cur, stored, dirty);
            }
        };
        shared
            .deltas
            .record(name, cur.version(), stored.version(), &dirty);
        shared.metrics.row_updates.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .rows_dirtied
            .fetch_add(dirty.count() as u64, Ordering::Relaxed);
        Ok(RowUpdateReceipt {
            old_version: cur.version(),
            new_version: stored.version(),
            rows_dirtied: dirty.count(),
        })
    }

    /// Submit a product without blocking. A full queue is reported as
    /// [`ServeError::Overloaded`] — the caller sheds or retries; the
    /// engine never blocks a submitter.
    pub fn try_submit(&self, req: ProductRequest) -> Result<JobHandle, ServeError> {
        let result = self.submit_inner(&req);
        match &result {
            Ok(_) => self.shared.metrics.accepted.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn submit_inner(&self, req: &ProductRequest) -> Result<JobHandle, ServeError> {
        let a = self
            .shared
            .store
            .get(&req.a)
            .ok_or_else(|| ServeError::UnknownMatrix {
                name: req.a.clone(),
            })?;
        let b = self
            .shared
            .store
            .get(&req.b)
            .ok_or_else(|| ServeError::UnknownMatrix {
                name: req.b.clone(),
            })?;
        if a.csr().ncols() != b.csr().nrows() {
            return Err(ServeError::Sparse(SparseError::ShapeMismatch {
                left: a.csr().shape(),
                right: b.csr().shape(),
                op: "serve submit",
            }));
        }
        let id = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        // The request's trace opens here and travels with the core.
        // The submit span must close *before* the push: once the job
        // is visible to a worker the trace can finish at any moment,
        // and spans recorded after that are dropped.
        let ctx = obs::TraceCtx::root();
        let (core, job) = {
            let _scope = obs::ctx_scope(ctx);
            let _g = obs::span!("serve", "serve.submit");
            let core = JobCore::new(
                id,
                req.tenant.clone(),
                Arc::clone(&self.shared.metrics),
                ctx,
            );
            let key = PlanKey::for_product(&a, &b, req.algo, req.order);
            let job = QueuedJob {
                core: Arc::clone(&core),
                key: BatchKey::Product(key),
                payload: JobPayload::Product { a, b, key },
            };
            (core, job)
        };
        if let Err(e) = self.shared.queue.try_push(req.priority, job) {
            core.finish_trace(); // rejected: the trace ends at the queue
            return Err(e);
        }
        Ok(JobHandle::new(core))
    }

    /// Submit a whole expression pipeline without blocking. Same
    /// backpressure contract as [`ServeEngine::try_submit`]; the
    /// result delivered to the handle is the root node's value.
    ///
    /// Rejected up front: unknown input names, an input count that
    /// does not match the graph's slots, unsorted inputs, and graphs
    /// using vector input slots (unsupported in the serving layer).
    pub fn try_submit_expr(&self, req: ExprRequest) -> Result<JobHandle, ServeError> {
        let result = self.submit_expr_inner(&req);
        match &result {
            Ok(_) => self.shared.metrics.accepted.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn submit_expr_inner(&self, req: &ExprRequest) -> Result<JobHandle, ServeError> {
        let graph = &req.spec.graph;
        if graph.num_vec_inputs() != 0 {
            return Err(ServeError::Sparse(SparseError::Unsupported {
                what: "expression graphs with vector input slots; \
                       bake scaling factors into Map nodes or pre-scaled matrices"
                    .into(),
            }));
        }
        if req.inputs.len() != graph.num_inputs() {
            return Err(ServeError::Sparse(SparseError::PlanMismatch {
                detail: format!(
                    "expression graph declares {} input slots; request names {}",
                    graph.num_inputs(),
                    req.inputs.len()
                ),
            }));
        }
        let mut inputs = Vec::with_capacity(req.inputs.len());
        for name in &req.inputs {
            let m = self
                .shared
                .store
                .get(name)
                .ok_or_else(|| ServeError::UnknownMatrix { name: name.clone() })?;
            if !m.csr().is_sorted() {
                return Err(ServeError::Sparse(SparseError::Unsorted {
                    op: "expr submit",
                }));
            }
            inputs.push(m);
        }
        // Leaves as registration versions (snapshots are immutable)
        // and the kernel salting every product: equal root fingerprints
        // mean equal results, so such jobs batch. Leaves as slots: the
        // pipeline, evaluators' key.
        let root = req.spec.root.index();
        let salt = req.algo as u64;
        let value_fp = graph.node_fingerprints(|slot| inputs[slot].version(), salt)[root];
        let key = EvalKey {
            graph: graph.node_fingerprints(|slot| slot as u64, salt)[root],
            inputs: req.inputs.clone(),
            algo: req.algo,
        };
        let id = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        // Same ordering constraint as `submit_inner`: close the submit
        // span before the job becomes visible to workers.
        let ctx = obs::TraceCtx::root();
        let (core, job) = {
            let _scope = obs::ctx_scope(ctx);
            let _g = obs::span!("serve", "serve.submit");
            let core = JobCore::new(
                id,
                req.tenant.clone(),
                Arc::clone(&self.shared.metrics),
                ctx,
            );
            let job = QueuedJob {
                core: Arc::clone(&core),
                key: BatchKey::Expr(value_fp),
                payload: JobPayload::Expr(ExprJob {
                    spec: req.spec.clone(),
                    inputs,
                    key,
                }),
            };
            (core, job)
        };
        if let Err(e) = self.shared.queue.try_push(req.priority, job) {
            core.finish_trace(); // rejected: the trace ends at the queue
            return Err(e);
        }
        Ok(JobHandle::new(core))
    }

    /// Jobs currently queued (excludes running ones).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// The submission queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Current counters, and the levels read from the engine's own
    /// queue, workers, store and caches.
    pub fn metrics(&self) -> MetricsSnapshot {
        let shared = &self.shared;
        let levels = Levels {
            queue_depth_per_lane: shared.queue.lane_depths(),
            workers_busy: shared.workers_busy.load(Ordering::Relaxed),
            store: shared.store.levels(),
            plan_cache_idle_bytes: shared.cache.idle_bytes(),
        };
        shared.metrics.snapshot(
            levels,
            shared.cache.stats(),
            shared.evaluators.stats(),
            shared.started,
        )
    }

    /// Stop accepting, drain every accepted job, join the workers and
    /// return the final counters. Every job accepted before the call
    /// still reaches its handle exactly once.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.close_and_join();
        self.metrics()
    }

    fn close_and_join(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &EngineShared, pool: &Pool) {
    loop {
        let batch = shared.queue.pop_batch(MAX_BATCH);
        if batch.is_empty() {
            return; // closed and drained
        }
        // Per-job panics are contained inside execute_batch; this
        // outer net catches panics in the batch *bookkeeping* (plan
        // checkout, metrics, ...) so a popped job can never be
        // orphaned with its waiters blocked forever — the worker
        // fails whatever is still unresolved and keeps serving.
        let cores: Vec<_> = batch.iter().map(|j| Arc::clone(&j.core)).collect();
        shared.workers_busy.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| execute_batch(shared, pool, batch)));
        shared.workers_busy.fetch_sub(1, Ordering::Relaxed);
        if let Err(payload) = outcome {
            let detail = panic_text(payload);
            for core in &cores {
                core.fail_if_unresolved(ServeError::Internal {
                    detail: detail.clone(),
                });
                // the unwind closed every span guard on this thread,
                // so the traces are safe to finish here
                core.finish_trace();
            }
        }
    }
}

/// Execute one same-key batch: skip jobs cancelled while queued, then
/// dispatch on the payload kind — products run numeric-only under the
/// cached plan (building it once on miss) or as cold one-shot
/// multiplies when the cache is disabled; expression batches run
/// their (identical) job once on an evaluator and fan the shared root
/// out.
fn execute_batch(shared: &EngineShared, pool: &Pool, batch: Vec<QueuedJob>) {
    let runnable: Vec<QueuedJob> = batch.into_iter().filter(|j| j.core.start()).collect();
    let Some(first) = runnable.first() else {
        return; // whole batch was cancelled while queued
    };
    shared.metrics.note_batch(runnable.len());
    // The batch leader's trace hosts the worker-side spans; every
    // batch-mate's trace gets a flow link into it at batch formation,
    // so a deduplicated follower still explains where its time went.
    let leader_ctx = first.core.trace_ctx();
    {
        let _scope = obs::ctx_scope(leader_ctx);
        let _g = obs::span!("serve", "serve.batch");
        for j in &runnable[1..] {
            j.core
                .trace_ctx()
                .link_to(&leader_ctx, "serve.batch.member");
        }
        match &first.payload {
            JobPayload::Product { .. } => execute_product_batch(shared, pool, &runnable),
            JobPayload::Expr(job) => {
                // Same batch key = same DAG over the same snapshots
                // with the same kernel: one evaluation serves the
                // whole batch.
                let result = {
                    let _g = obs::span!("serve", "serve.expr_eval");
                    let (cache, deltas) = (&shared.evaluators, &shared.deltas);
                    contained(|| expr_results::evaluate(cache, deltas, &shared.metrics, job, pool))
                };
                shared
                    .metrics
                    .expr_jobs
                    .fetch_add(runnable.len() as u64, Ordering::Relaxed);
                for j in &runnable {
                    j.core.complete(result.clone());
                }
            }
        }
    }
    // every span working on the batch is closed: the traces can
    // finish (idempotent; the cores' Drop would backstop it anyway)
    for j in &runnable {
        j.core.finish_trace();
    }
}

/// The operands and plan key of a product job (batch invariant: every
/// job in a product batch is a product).
fn product_parts(job: &QueuedJob) -> (&Csr<f64>, &Csr<f64>, PlanKey) {
    match &job.payload {
        JobPayload::Product { a, b, key } => (a.csr(), b.csr(), *key),
        JobPayload::Expr(_) => unreachable!("product batch holds a non-product job"),
    }
}

fn execute_product_batch(shared: &EngineShared, pool: &Pool, runnable: &[QueuedJob]) {
    let (first_a, first_b, key) = product_parts(&runnable[0]);
    // The whole batch shares one structure, so one decision covers it.
    let fleet = dist_route(shared, first_a, first_b);
    // One plan instance serves every job of the batch that takes the
    // plan path. A result goes out as soon as it exists, except under
    // a held instance: that goes back to its slot first, because a
    // waiter woken by its result may submit the next same-key job
    // immediately, and it should find the instance already pooled.
    let mut held = None;
    let mut undelivered = Vec::new();
    for job in runnable {
        let (a, b, _) = product_parts(job);
        let result = routed_multiply(shared, fleet, a, b, key, pool, &mut held).map(Arc::new);
        if held.is_some() {
            undelivered.push((job, result));
        } else {
            job.core.complete(result);
        }
    }
    if let Some((slot, plan)) = held {
        slot.checkin(plan);
    }
    for (job, result) in undelivered {
        job.core.complete(result);
    }
}

/// The per-job panic net every execution path runs under: a panic
/// inside `f` becomes [`ServeError::Internal`] for that job instead of
/// unwinding the worker, and `f`'s own error converts to a
/// [`ServeError`].
fn contained<T, E: Into<ServeError>>(f: impl FnOnce() -> Result<T, E>) -> Result<T, ServeError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(Into::into),
        Err(payload) => Err(ServeError::Internal {
            detail: panic_text(payload),
        }),
    }
}

/// A plan instance a worker holds across its products of one key,
/// with the slot it goes back to.
type HeldPlan = Option<(Arc<Slot<SpgemmPlan<S>>>, SpgemmPlan<S>)>;

/// One product job's `(a, b, key)` down the routing ladder,
/// panic-contained on every rung:
///
/// 1. Past the dist thresholds (`fleet` = [`dist_route`]'s answer for
///    these operands), the shared shard fleet. An
///    infrastructure failure there ([`ServeError::Internal`]: a failed
///    shard, a panic) is not the job's fault: the product falls
///    through to the monolithic rungs so it still completes, just
///    without sharding — and without counting as dist-served. Sparse
///    errors (shapes, contracts) would fail either way and are
///    reported as-is.
/// 2. With the plan cache disabled, a cold one-shot multiply.
/// 3. Otherwise numeric-only under a plan instance checked out of the
///    key's slot — built on a miss — into `held`, where the caller's
///    next product of the same key finds it, and which the caller
///    checks back in. No slot lock is held during execution, so
///    same-key batches on other workers run on instances of their own.
fn routed_multiply(
    shared: &EngineShared,
    fleet: Option<&ShardRuntime>,
    a: &Csr<f64>,
    b: &Csr<f64>,
    key: PlanKey,
    pool: &Pool,
    held: &mut HeldPlan,
) -> Result<Csr<f64>, ServeError> {
    if let Some(runtime) = fleet {
        let _g = obs::span!("serve", "serve.dist_route");
        match contained(|| runtime.multiply(a, b)) {
            Err(ServeError::Internal { .. }) => {}
            served => {
                shared.metrics.dist_routed.fetch_add(1, Ordering::Relaxed);
                return served;
            }
        }
    }
    if !shared.cache.enabled() {
        return contained(|| spgemm::multiply_in::<S>(a, b, key.algo, key.order, pool));
    }
    if held.is_some() {
        // A batch-mate of the job that checked the instance out (or
        // paid its symbolic phase) reuses it numeric-only.
        shared.cache.note_hits(1);
    } else {
        let slot = shared.cache.slot(key);
        let plan = match slot.checkout(|p| (p.nthreads() == pool.nthreads()).then_some(0)) {
            Some(plan) => {
                shared.cache.note_hits(1);
                plan
            }
            None => {
                shared.cache.note_misses(1);
                let _g = obs::span!("serve", "serve.plan_build");
                contained(|| SpgemmPlan::<S>::new_in(a, b, key.algo, key.order, pool))?
            }
        };
        *held = Some((slot, plan));
    }
    let (_, plan) = held.as_ref().expect("checked out or built above");
    contained(|| plan.execute_in(a, b, pool))
}

/// The shard fleet, when `(a, b)` crosses the dist thresholds: cheap
/// combined-nnz test first, then the optional `O(nnz(A))` flop
/// estimate. A function of operand structure only.
fn dist_route<'a>(
    shared: &'a EngineShared,
    a: &Csr<f64>,
    b: &Csr<f64>,
) -> Option<&'a ShardRuntime> {
    let (runtime, routing) = shared.dist.as_ref()?;
    let routes = a.nnz() + b.nnz() >= routing.min_operand_nnz
        || routing.min_flop.is_some_and(|min| stats::flop(a, b) >= min);
    routes.then_some(runtime)
}
