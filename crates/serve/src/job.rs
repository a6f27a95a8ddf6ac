//! Jobs: what tenants submit and the handle they hold while the
//! engine works.

use crate::error::ServeError;
use crate::metrics::{Metrics, TenantCell};
use spgemm::expr::ExprSpec;
use spgemm::{Algorithm, OutputOrder};
use spgemm_sparse::Csr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Scheduling priority of a job. Workers always drain higher
/// priorities first; within one priority jobs run in submission order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work (bulk recomputation, prefetch).
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive interactive traffic.
    High,
}

impl Priority {
    /// Number of priority levels.
    pub const COUNT: usize = 3;

    /// Queue lane index, highest priority first.
    pub(crate) fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A product request: `C = A · B` over two *stored* matrices.
///
/// The operands are resolved against the [`crate::MatrixStore`] at
/// submission time; the job keeps the resolved snapshots, so
/// re-registering a name afterwards does not affect it.
#[derive(Clone, Debug)]
pub struct ProductRequest {
    /// Store name of the left operand.
    pub a: String,
    /// Store name of the right operand.
    pub b: String,
    /// Kernel choice (`Auto` resolves per structure, once per plan).
    pub algo: Algorithm,
    /// Output ordering contract.
    pub order: OutputOrder,
    /// Scheduling priority.
    pub priority: Priority,
    /// Free-form tenant label carried into metrics/debugging.
    pub tenant: String,
}

impl ProductRequest {
    /// `A · B` with default options (`Auto`, sorted output, normal
    /// priority, anonymous tenant).
    pub fn new(a: impl Into<String>, b: impl Into<String>) -> Self {
        ProductRequest {
            a: a.into(),
            b: b.into(),
            algo: Algorithm::Auto,
            order: OutputOrder::Sorted,
            priority: Priority::Normal,
            tenant: String::new(),
        }
    }

    /// Set the kernel.
    pub fn algo(mut self, algo: Algorithm) -> Self {
        self.algo = algo;
        self
    }

    /// Set the output order.
    pub fn order(mut self, order: OutputOrder) -> Self {
        self.order = order;
        self
    }

    /// Set the priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the tenant label.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// A whole-pipeline request: evaluate an expression DAG
/// ([`spgemm::expr::ExprGraph`]) over *stored* matrices bound to its
/// input slots.
///
/// Expression jobs run on a worker through a cached evaluator (a
/// [`spgemm::expr::ExprPlan`]) keyed by the graph, the input names
/// and the kernel, so tenants submitting the same pipeline over the
/// same stored matrices share it; after row updates it is advanced,
/// not rebuilt (the evaluator cache holds 128 pipelines, LRU beyond).
///
/// Vector input slots ([`spgemm::expr::ExprGraph::vec_input`]) are
/// not accepted by the serving layer.
#[derive(Clone, Debug)]
pub struct ExprRequest {
    /// The DAG and its output node.
    pub spec: ExprSpec,
    /// Store names bound to the graph's input slots, in slot order.
    pub inputs: Vec<String>,
    /// Kernel for the DAG's `Multiply` nodes (`Auto` resolves per
    /// node).
    pub algo: Algorithm,
    /// Scheduling priority.
    pub priority: Priority,
    /// Free-form tenant label carried into metrics/debugging.
    pub tenant: String,
}

impl ExprRequest {
    /// A request binding `inputs` (store names, in slot order) to
    /// `spec` with default options.
    pub fn new<I, S>(spec: ExprSpec, inputs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ExprRequest {
            spec,
            inputs: inputs.into_iter().map(Into::into).collect(),
            algo: Algorithm::Auto,
            priority: Priority::Normal,
            tenant: String::new(),
        }
    }

    /// Set the kernel.
    pub fn algo(mut self, algo: Algorithm) -> Self {
        self.algo = algo;
        self
    }

    /// Set the priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the tenant label.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// A completed product, shared between deduplicated jobs.
pub type JobOutput = Arc<Csr<f64>>;

/// Terminal outcome of one job.
pub type JobResult = Result<JobOutput, ServeError>;

enum Phase {
    Pending,
    /// Running since the worker picked the job up — the pickup
    /// instant splits total latency into queue delay and service
    /// time.
    Running(Instant),
    Done(JobResult),
}

/// Shared state between a [`JobHandle`] and the worker executing the
/// job. Terminal-state bookkeeping is centralized in
/// [`JobCore::complete`], which is the exactly-once delivery point.
pub(crate) struct JobCore {
    id: u64,
    tenant: String,
    submitted: Instant,
    state: Mutex<Phase>,
    cv: Condvar,
    metrics: Arc<Metrics>,
    /// The tenant cell this job records into and the target it is
    /// classified against (`None`: not SLO-tracked), resolved once at
    /// submission so completion records lock-free.
    cell: Arc<TenantCell>,
    target_ns: Option<u64>,
    /// The request's trace context, opened at submission and carried
    /// across every thread that works on the job. Inert when tracing
    /// is disabled.
    ctx: spgemm_obs::TraceCtx,
    /// Service time stashed by [`JobCore::complete`] for the trace
    /// finish (ns; 0 until completed).
    service_ns: AtomicU64,
    /// Whether [`JobCore::finish_trace`] already ran.
    trace_finished: AtomicBool,
}

impl JobCore {
    pub(crate) fn new(
        id: u64,
        tenant: String,
        metrics: Arc<Metrics>,
        ctx: spgemm_obs::TraceCtx,
    ) -> Arc<Self> {
        let (cell, target_ns) = metrics.tenant_cell(&tenant);
        Arc::new(JobCore {
            id,
            tenant,
            submitted: Instant::now(),
            state: Mutex::new(Phase::Pending),
            cv: Condvar::new(),
            metrics,
            cell,
            target_ns,
            ctx,
            service_ns: AtomicU64::new(0),
            trace_finished: AtomicBool::new(false),
        })
    }

    /// Recovers from poisoning: a critical section stores whole phases.
    fn phase(&self) -> MutexGuard<'_, Phase> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The request's trace context.
    pub(crate) fn trace_ctx(&self) -> spgemm_obs::TraceCtx {
        self.ctx
    }

    /// Close the request's trace: report its end-to-end latency to
    /// the exemplar store (grouped by tenant) and release the active
    /// slot. Idempotent; must run after every span working on the job
    /// has closed. Called on every terminal path and backstopped by
    /// `Drop`.
    pub(crate) fn finish_trace(&self) {
        if !self.ctx.is_active() || self.trace_finished.swap(true, Ordering::Relaxed) {
            return;
        }
        let group = if self.tenant.is_empty() {
            "(anonymous)"
        } else {
            self.tenant.as_str()
        };
        let total_ns = self.submitted.elapsed().as_nanos() as u64;
        let service_ns = self.service_ns.load(Ordering::Relaxed);
        spgemm_obs::finish_request(self.ctx, group, total_ns, service_ns);
    }

    /// Transition Pending → Running, stamping the pickup instant that
    /// splits queue delay from service time. `false` means the job
    /// already reached a terminal state (cancelled while queued) and
    /// must not be executed.
    pub(crate) fn start(&self) -> bool {
        let mut st = self.phase();
        match *st {
            Phase::Pending => {
                *st = Phase::Running(Instant::now());
                true
            }
            Phase::Done(_) => false,
            Phase::Running(_) => unreachable!("job {} started twice", self.id),
        }
    }

    /// Deliver the terminal result. Exactly the first call wins; later
    /// calls only bump the duplicate counter (which the smoke harness
    /// asserts stays 0).
    pub(crate) fn complete(&self, result: JobResult) -> bool {
        let mut st = self.phase();
        if matches!(*st, Phase::Done(_)) {
            self.metrics
                .duplicate_completions
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        match &result {
            Ok(_) => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                let total = self.submitted.elapsed();
                // Jobs resolved without a start (deduplicated
                // followers completed by the batch leader) spent
                // their whole life queued: service time is zero.
                let (queue, service) = match *st {
                    Phase::Running(started) => {
                        let service = started.elapsed();
                        (total.saturating_sub(service), service)
                    }
                    _ => (total, Duration::ZERO),
                };
                self.cell.record(total, queue, service, self.target_ns);
                self.service_ns
                    .store(service.as_nanos() as u64, Ordering::Relaxed);
            }
            Err(ServeError::Cancelled) => {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        *st = Phase::Done(result);
        self.cv.notify_all();
        true
    }

    /// Terminal backstop for jobs orphaned by a worker panic outside
    /// the per-job execution windows: fail the job with `err` unless
    /// it already has a result. Unlike [`JobCore::complete`] an
    /// already-resolved job is left untouched *without* counting a
    /// duplicate — delivery still happened exactly once.
    pub(crate) fn fail_if_unresolved(&self, err: ServeError) {
        let mut st = self.phase();
        if matches!(*st, Phase::Done(_)) {
            return;
        }
        self.metrics.failed.fetch_add(1, Ordering::Relaxed);
        *st = Phase::Done(Err(err));
        self.cv.notify_all();
    }

    /// Cancel if still queued (atomically with respect to
    /// [`JobCore::start`]).
    fn cancel_if_pending(&self) -> bool {
        let won = {
            let mut st = self.phase();
            if matches!(*st, Phase::Pending) {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                *st = Phase::Done(Err(ServeError::Cancelled));
                self.cv.notify_all();
                true
            } else {
                false
            }
        };
        if won {
            // never executed ⇒ no spans are open; safe to close now
            self.finish_trace();
        }
        won
    }
}

impl Drop for JobCore {
    fn drop(&mut self) {
        // backstop so an abandoned job can never leak its active-trace
        // slot (normal paths finish explicitly, making this a no-op)
        self.finish_trace();
    }
}

/// The caller's side of a submitted job: poll, block, or cancel.
///
/// Handles are cheap to clone and may be waited on from any thread;
/// dropping every handle does **not** cancel the job.
#[derive(Clone)]
pub struct JobHandle {
    core: Arc<JobCore>,
}

impl JobHandle {
    pub(crate) fn new(core: Arc<JobCore>) -> Self {
        JobHandle { core }
    }

    /// Engine-unique job id.
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// The tenant label the request carried.
    pub fn tenant(&self) -> &str {
        &self.core.tenant
    }

    /// The terminal result if the job has finished, without blocking.
    pub fn poll(&self) -> Option<JobResult> {
        match &*self.core.phase() {
            Phase::Done(r) => Some(r.clone()),
            _ => None,
        }
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> JobResult {
        let mut st = self.core.phase();
        loop {
            if let Phase::Done(r) = &*st {
                return r.clone();
            }
            st = (self.core.cv.wait(st)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`JobHandle::wait`] bounded by `timeout`; `None` if the job is
    /// still in flight when it elapses. A `timeout` too large to
    /// represent as a deadline (e.g. `Duration::MAX`) waits
    /// indefinitely, like [`JobHandle::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Some(self.wait());
        };
        let mut st = self.core.phase();
        loop {
            if let Phase::Done(r) = &*st {
                return Some(r.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            st = (self.core.cv.wait_timeout(st, left))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Cancel the job if it is still queued. Returns `true` when the
    /// cancellation won (the job will never execute; its result is
    /// [`ServeError::Cancelled`]), `false` when the job already runs
    /// or finished — running jobs are never interrupted.
    pub fn cancel(&self) -> bool {
        self.core.cancel_if_pending()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match &*self.core.phase() {
            Phase::Pending => "pending",
            Phase::Running(_) => "running",
            Phase::Done(Ok(_)) => "done",
            Phase::Done(Err(_)) => "failed",
        };
        write!(f, "JobHandle(#{} {phase})", self.core.id)
    }
}
