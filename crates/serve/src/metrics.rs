//! Serving metrics: per-job latency decomposition, per-tenant
//! telemetry cells, aggregate counters, and the snapshot the
//! `spgemm-serve` bench prints.
//!
//! Latencies are recorded into bounded log-bucketed histograms
//! ([`spgemm_obs::Histogram`]): every sample counts (nothing is
//! dropped), memory never grows with job count, and quantiles are
//! exact to within the histogram's bucket error bound (≤ 6.25%
//! relative). Each completed job is decomposed into queue delay
//! (submit → worker pickup) and service time (pickup → done).
//!
//! A job's telemetry lands in exactly one [`TenantCell`]: its named
//! tenant's (capped at 64, the tail shares [`OVERFLOW_TENANT`]'s), or
//! the lock-free anonymous cell. The cell holds the latency histograms
//! and the tenant's SLO good/bad counts; the engine-wide histograms of
//! a [`MetricsSnapshot`] are the bucket-wise sum of every cell.

use spgemm_obs::{Histogram, HistogramSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::expr_results::ExprResultCacheStats;
use crate::job::Priority;
use crate::plan_cache::PlanCacheStats;

/// Hard cap on distinct *named* tenant cells; tenants beyond it share
/// the [`OVERFLOW_TENANT`] cell (which rides on top of the cap, so the
/// table holds at most `MAX_TENANTS + 1` cells) and a label-cardinality
/// explosion cannot grow memory without bound.
const MAX_TENANTS: usize = 64;

/// Aggregation label for tenants beyond the per-tenant cap (64
/// distinct tenants).
pub const OVERFLOW_TENANT: &str = "(other)";

/// Latency histograms for one tenant cell: total latency plus its
/// queue/service decomposition, nanoseconds.
#[derive(Default)]
struct LatencyRecorder {
    total: Histogram,
    queue: Histogram,
    service: Histogram,
}

impl LatencyRecorder {
    fn record(&self, total: Duration, queue: Duration, service: Duration) {
        self.total.record(total.as_nanos() as u64);
        self.queue.record(queue.as_nanos() as u64);
        self.service.record(service.as_nanos() as u64);
    }

    /// Raw (total, queue, service) histogram snapshots — carried in
    /// [`MetricsSnapshot`] so [`MetricsSnapshot::since`] can diff
    /// windows bucket-wise.
    fn raw_snapshots(&self) -> [HistogramSnapshot; 3] {
        [
            self.total.snapshot(),
            self.queue.snapshot(),
            self.service.snapshot(),
        ]
    }
}

/// Latency-objective configuration for the engine: which tenants get
/// an SLO, at what latency target, and the fraction of jobs that must
/// meet it. Set on `ServeConfig::slo`.
#[derive(Clone, Debug)]
pub struct SloPolicy {
    /// Latency target applied to every named tenant without an
    /// override; `None` disables SLO tracking for un-overridden
    /// tenants. Anonymous (empty-label) jobs are never SLO-tracked.
    pub default_target: Option<Duration>,
    /// Per-tenant target overrides `(tenant, target)`.
    pub per_tenant: Vec<(String, Duration)>,
    /// The objective: the fraction of a tenant's jobs that must
    /// finish within the target (the error budget is `1 - goal`).
    pub goal: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            default_target: None,
            per_tenant: Vec::new(),
            goal: 0.99,
        }
    }
}

impl SloPolicy {
    /// The target for `tenant`, if SLO-tracked under this policy.
    fn target_for(&self, tenant: &str) -> Option<Duration> {
        if tenant.is_empty() {
            return None;
        }
        self.per_tenant
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, d)| *d)
            .or(self.default_target)
    }
}

/// One tenant's telemetry: its latency histograms and its SLO
/// good/bad counts. Resolved once per job at submission, written
/// lock-free at completion.
#[derive(Default)]
pub(crate) struct TenantCell {
    latency: LatencyRecorder,
    good: AtomicU64,
    bad: AtomicU64,
    /// The target the row shows (ns), set by the first SLO-tracked
    /// job resolved to the cell; unset, the row has no SLO. Jobs are
    /// classified against their own target, so overflow tenants with
    /// a stricter override stay strict.
    shown_target_ns: OnceLock<u64>,
}

impl TenantCell {
    /// Record one completed job, and classify it against `target_ns`
    /// when it is SLO-tracked.
    pub(crate) fn record(
        &self,
        total: Duration,
        queue: Duration,
        service: Duration,
        target_ns: Option<u64>,
    ) {
        self.latency.record(total, queue, service);
        if let Some(target_ns) = target_ns {
            let outcome = if total.as_nanos() as u64 <= target_ns {
                &self.good
            } else {
                &self.bad
            };
            outcome.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The levels an engine reads from its own structures when it takes a
/// snapshot: each comes from its owner's locked state (or, for busy
/// workers, the engine's own count), never from a process-global
/// mirror.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Levels {
    /// Queued jobs per lane, `[High, Normal, Low]`.
    pub(crate) queue_depth_per_lane: [usize; Priority::COUNT],
    /// Workers executing a batch.
    pub(crate) workers_busy: usize,
    /// Registered names and their approximate CSR bytes.
    pub(crate) store: (usize, u64),
    /// Bytes the plan cache's idle instances hold.
    pub(crate) plan_cache_idle_bytes: u64,
    /// Bytes the dist runtime's kept structures hold (0 without one).
    pub(crate) dist_held_bytes: u64,
}

/// Shared counters, written by submitters, workers and job handles.
#[derive(Default)]
pub(crate) struct Metrics {
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    /// Second completions of one job — must stay 0; counted instead of
    /// panicking so the smoke harness can assert on it.
    pub(crate) duplicate_completions: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_jobs: AtomicU64,
    /// Product jobs executed on the sharded backend instead of the plan
    /// path.
    pub(crate) dist_routed: AtomicU64,
    /// Jobs that evaluated a whole expression DAG.
    pub(crate) expr_jobs: AtomicU64,
    /// Interior nodes evaluated by binding expression evaluators.
    pub(crate) expr_nodes_computed: AtomicU64,
    /// Streaming row updates applied through
    /// `ServeEngine::try_submit_row_update`.
    pub(crate) row_updates: AtomicU64,
    /// Total rows dirtied by those updates (sum of per-update
    /// `DirtyRows` counts).
    pub(crate) rows_dirtied: AtomicU64,
    /// Expression jobs served by advancing a cached evaluator through
    /// row updates instead of binding a new one.
    pub(crate) expr_results_patched: AtomicU64,
    /// The engine's SLO policy (installed at construction).
    slo_policy: SloPolicy,
    /// The anonymous (empty-label) tenant's cell: reached without a
    /// lock, never a row, only in the engine-wide sums.
    anonymous: Arc<TenantCell>,
    /// Named tenants' cells, created on first submission, capped at
    /// [`MAX_TENANTS`] plus the [`OVERFLOW_TENANT`] cell.
    /// Recovers from poisoning: a critical section inserts whole cells.
    tenants: Mutex<HashMap<String, Arc<TenantCell>>>,
}

impl Metrics {
    /// Metrics with an SLO policy installed.
    pub(crate) fn with_slo(policy: SloPolicy) -> Metrics {
        Metrics {
            slo_policy: policy,
            ..Metrics::default()
        }
    }

    /// The cell `tenant`'s job records into, and the target it is
    /// classified against (`None`: not SLO-tracked). One lock for a
    /// named tenant, none for the anonymous one; a tenant beyond the
    /// cap resolves to the [`OVERFLOW_TENANT`] cell but keeps its own
    /// target (that row shows the default, or the first tracked
    /// overflow tenant's target).
    pub(crate) fn tenant_cell(&self, tenant: &str) -> (Arc<TenantCell>, Option<u64>) {
        if tenant.is_empty() {
            return (Arc::clone(&self.anonymous), None);
        }
        let target_ns = self
            .slo_policy
            .target_for(tenant)
            .map(|d| d.as_nanos() as u64);
        let mut map = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = map.get(tenant) {
            return (Arc::clone(cell), target_ns);
        }
        let (key, shown_ns) = if map.len() < MAX_TENANTS {
            (tenant, target_ns)
        } else {
            let default_ns = self.slo_policy.default_target.map(|d| d.as_nanos() as u64);
            (OVERFLOW_TENANT, target_ns.map(|t| default_ns.unwrap_or(t)))
        };
        if !map.contains_key(key) {
            map.insert(key.to_string(), Arc::default());
        }
        let cell = &map[key];
        if let Some(ns) = shown_ns {
            cell.shown_target_ns.get_or_init(|| ns);
        }
        (Arc::clone(cell), target_ns)
    }

    pub(crate) fn note_batch(&self, jobs: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(jobs as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(
        &self,
        levels: Levels,
        plan_cache: PlanCacheStats,
        expr_results: ExprResultCacheStats,
        since: Instant,
    ) -> MetricsSnapshot {
        let mut per_tenant: Vec<TenantLatency> = self
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(tenant, cell)| {
                let slo = cell.shown_target_ns.get().map(|&ns| TenantSlo {
                    target_ms: ns as f64 / 1e6,
                    goal: self.slo_policy.goal,
                    good: cell.good.load(Ordering::Relaxed),
                    bad: cell.bad.load(Ordering::Relaxed),
                });
                TenantLatency::new(tenant.clone(), cell.latency.raw_snapshots(), slo)
            })
            .collect();
        per_tenant.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let [mut latency_hist, mut queue_delay_hist, mut service_hist] =
            self.anonymous.latency.raw_snapshots();
        for t in &per_tenant {
            latency_hist.absorb(&t.latency_hist);
            queue_delay_hist.absorb(&t.queue_delay_hist);
            service_hist.absorb(&t.service_hist);
        }
        let completed = self.completed.load(Ordering::Relaxed);
        let elapsed = since.elapsed();
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            duplicate_completions: self.duplicate_completions.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_jobs: self.batched_jobs.load(Ordering::Relaxed),
            dist_routed: self.dist_routed.load(Ordering::Relaxed),
            expr_jobs: self.expr_jobs.load(Ordering::Relaxed),
            expr_nodes_computed: self.expr_nodes_computed.load(Ordering::Relaxed),
            row_updates: self.row_updates.load(Ordering::Relaxed),
            rows_dirtied: self.rows_dirtied.load(Ordering::Relaxed),
            expr_results_patched: self.expr_results_patched.load(Ordering::Relaxed),
            queue_depth: levels.queue_depth_per_lane.iter().sum(),
            queue_depth_per_lane: levels.queue_depth_per_lane,
            workers_busy: levels.workers_busy,
            store_names: levels.store.0,
            store_approx_bytes: levels.store.1,
            plan_cache,
            plan_cache_idle_bytes: levels.plan_cache_idle_bytes,
            dist_held_bytes: levels.dist_held_bytes,
            expr_results,
            elapsed,
            throughput_jps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            latency: LatencySummary::from_snapshot(&latency_hist),
            queue_delay: LatencySummary::from_snapshot(&queue_delay_hist),
            service: LatencySummary::from_snapshot(&service_hist),
            latency_hist,
            queue_delay_hist,
            service_hist,
            per_tenant,
        }
    }
}

/// Order statistics over completed-job latencies, derived from a
/// bounded log-bucketed histogram: every completed job is counted
/// (no sample cap), and quantiles carry the histogram's ≤ 6.25%
/// relative bucket error (the mean and max are exact).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Recorded samples (every one — histograms never drop).
    pub count: u64,
    /// Arithmetic mean, milliseconds (exact).
    pub mean_ms: f64,
    /// Median, milliseconds (within bucket error).
    pub p50_ms: f64,
    /// 99th percentile, milliseconds (within bucket error).
    pub p99_ms: f64,
    /// Maximum, milliseconds (exact).
    pub max_ms: f64,
}

impl LatencySummary {
    fn from_snapshot(s: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: s.count,
            mean_ms: s.mean() / 1e6,
            p50_ms: s.quantile(0.50) as f64 / 1e6,
            p99_ms: s.quantile(0.99) as f64 / 1e6,
            max_ms: s.max as f64 / 1e6,
        }
    }
}

/// One tenant's SLO standing at snapshot time (the `slo` of its
/// [`TenantLatency`] row).
#[derive(Clone, Debug)]
pub struct TenantSlo {
    /// Latency objective shown for this tenant, milliseconds.
    pub target_ms: f64,
    /// Fraction of jobs that must meet the target (policy-wide).
    pub goal: f64,
    /// Completed jobs within their target.
    pub good: u64,
    /// Completed jobs over their target.
    pub bad: u64,
}

impl TenantSlo {
    /// Observed bad fraction `bad / (good + bad)` (0 with no
    /// traffic).
    pub fn bad_fraction(&self) -> f64 {
        let n = self.good + self.bad;
        if n == 0 {
            0.0
        } else {
            self.bad as f64 / n as f64
        }
    }

    /// Error-budget burn rate: the observed bad fraction over the
    /// budget `1 - goal`. 1.0 means the tenant is burning exactly its
    /// budget; above 1.0 it is on track to exhaust it. Computed over
    /// whatever window the snapshot covers — combine with
    /// [`MetricsSnapshot::since`] for a *rolling* burn rate.
    pub fn burn_rate(&self) -> f64 {
        let budget = (1.0 - self.goal).max(1e-9);
        self.bad_fraction() / budget
    }
}

/// One tenant's row at snapshot time: its latency decomposition and
/// SLO standing.
#[derive(Clone, Debug)]
pub struct TenantLatency {
    /// The tenant label ([`OVERFLOW_TENANT`] aggregates the tail
    /// beyond the per-tenant cap).
    pub tenant: String,
    /// Submit → done.
    pub latency: LatencySummary,
    /// Submit → worker pickup (time spent queued).
    pub queue_delay: LatencySummary,
    /// Worker pickup → done (time spent executing).
    pub service: LatencySummary,
    /// Raw total-latency histogram (ns) behind
    /// [`TenantLatency::latency`]; kept so
    /// [`MetricsSnapshot::since`] can diff windows.
    pub latency_hist: HistogramSnapshot,
    /// Raw queue-delay histogram (ns).
    pub queue_delay_hist: HistogramSnapshot,
    /// Raw service-time histogram (ns).
    pub service_hist: HistogramSnapshot,
    /// Good/bad counts against the tenant's latency target; `None`
    /// unless `ServeConfig::slo` gives the tenant (for the overflow
    /// row: one of its tenants) a target.
    pub slo: Option<TenantSlo>,
}

impl TenantLatency {
    fn new(tenant: String, [lat, q, sv]: [HistogramSnapshot; 3], slo: Option<TenantSlo>) -> Self {
        TenantLatency {
            tenant,
            latency: LatencySummary::from_snapshot(&lat),
            queue_delay: LatencySummary::from_snapshot(&q),
            service: LatencySummary::from_snapshot(&sv),
            latency_hist: lat,
            queue_delay_hist: q,
            service_hist: sv,
            slo,
        }
    }
}

/// A point-in-time view of the engine's counters.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Jobs accepted into the queue.
    pub accepted: u64,
    /// Submissions rejected (overload, unknown matrix, shape mismatch,
    /// shutdown).
    pub rejected: u64,
    /// Jobs that produced a product.
    pub completed: u64,
    /// Jobs whose execution failed.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs that reached a terminal state twice — always 0 unless the
    /// exactly-once delivery invariant is broken.
    pub duplicate_completions: u64,
    /// Worker batch count (a batch is ≥ 1 job under one plan).
    pub batches: u64,
    /// Jobs executed through batches (`batched_jobs / batches` is the
    /// mean batch size).
    pub batched_jobs: u64,
    /// Product jobs executed on the sharded (`spgemm-dist`) backend
    /// because they crossed the configured size threshold (see
    /// `ServeConfig::dist`).
    pub dist_routed: u64,
    /// Jobs that evaluated a whole expression DAG
    /// (`ServeEngine::try_submit_expr`).
    pub expr_jobs: u64,
    /// Interior expression nodes evaluated in full: each evaluator
    /// bind (an `expr_results` miss) adds its graph's non-input nodes;
    /// a hit or an advanced evaluator adds none.
    pub expr_nodes_computed: u64,
    /// Streaming row updates applied
    /// (`ServeEngine::try_submit_row_update`).
    pub row_updates: u64,
    /// Total matrix rows dirtied across those updates.
    pub rows_dirtied: u64,
    /// Expression jobs served by **advancing** a cached evaluator of
    /// earlier input versions through the row updates since —
    /// recomputing only the rows they invalidated, in every node —
    /// instead of binding a new one (neither an `expr_results` hit nor
    /// a miss).
    pub expr_results_patched: u64,
    /// Queued jobs at snapshot time (sum of the per-lane depths).
    pub queue_depth: usize,
    /// Queued jobs per priority lane at snapshot time: `[High,
    /// Normal, Low]`, one consistent snapshot.
    pub queue_depth_per_lane: [usize; Priority::COUNT],
    /// Workers executing a batch at snapshot time (0 once the engine
    /// is quiet).
    pub workers_busy: usize,
    /// Names registered in the engine's [`crate::MatrixStore`] at
    /// snapshot time.
    pub store_names: usize,
    /// Approximate CSR bytes ([`spgemm_sparse::csr_bytes`]) of those
    /// registrations, read in the same locked pass (snapshots captured
    /// by in-flight jobs are not counted).
    pub store_approx_bytes: u64,
    /// Shared plan cache counters.
    pub plan_cache: PlanCacheStats,
    /// Bytes the plan cache's idle (checked-in) instances hold at
    /// snapshot time, each its [`spgemm::SpgemmPlan::owned_bytes`]
    /// (the pooled per-thread accumulators are not in it).
    pub plan_cache_idle_bytes: u64,
    /// Bytes the sharded runtime's kept structures hold
    /// (`spgemm_dist::DistStats::held_bytes`: its shard plans'
    /// [`spgemm::SpgemmPlan::owned_bytes`] and output layouts, as of
    /// its last completed product); 0 without `ServeConfig::dist`.
    pub dist_held_bytes: u64,
    /// Expression evaluator cache counters: hits are jobs whose
    /// evaluator was already at their input versions, misses jobs that
    /// bound one.
    pub expr_results: ExprResultCacheStats,
    /// Time since the engine started.
    pub elapsed: Duration,
    /// `completed / elapsed`, jobs per second.
    pub throughput_jps: f64,
    /// Latency order statistics over completed jobs (submit → done).
    pub latency: LatencySummary,
    /// Queue-delay component (submit → worker pickup) over completed
    /// jobs; with [`MetricsSnapshot::service`] this decomposes
    /// [`MetricsSnapshot::latency`].
    pub queue_delay: LatencySummary,
    /// Service-time component (worker pickup → done) over completed
    /// jobs.
    pub service: LatencySummary,
    /// Raw engine-wide total-latency histogram (ns) behind
    /// [`MetricsSnapshot::latency`]: the bucket-wise sum of every
    /// tenant row and the anonymous jobs; kept so
    /// [`MetricsSnapshot::since`] can diff windows.
    pub latency_hist: HistogramSnapshot,
    /// Raw engine-wide queue-delay histogram (ns).
    pub queue_delay_hist: HistogramSnapshot,
    /// Raw engine-wide service-time histogram (ns).
    pub service_hist: HistogramSnapshot,
    /// One row per tenant — latency decomposition and SLO standing —
    /// sorted by tenant label. Anonymous (empty-label) jobs appear
    /// only in the engine-wide summaries.
    pub per_tenant: Vec<TenantLatency>,
}

impl MetricsSnapshot {
    /// Terminal outcomes delivered (completed + failed + cancelled) —
    /// the number the exactly-once smoke check compares to accepted.
    pub fn delivered(&self) -> u64 {
        self.completed + self.failed + self.cancelled
    }

    /// The rows that carry an SLO, as `(tenant, standing)`, in row
    /// order.
    pub fn slo_rows(&self) -> impl Iterator<Item = (&str, &TenantSlo)> {
        self.per_tenant
            .iter()
            .filter_map(|t| Some((t.tenant.as_str(), t.slo.as_ref()?)))
    }

    /// Append this snapshot as OpenMetrics families (engine job
    /// counters, cache hit/miss counters, the levels — queue depth
    /// per lane, busy workers, store names and bytes, cache entries,
    /// the plan cache's idle bytes — the engine-wide and per-tenant
    /// latency histograms, and the SLO series of the rows that have
    /// one) — the serving layer's contribution to a `/metrics` page,
    /// designed to plug into `spgemm_obs::http::ScrapeServer::start_with`
    /// as the extra-exposition hook. Families are prefixed
    /// `spgemm_serve_`; the registry holds no serve gauge, so every
    /// serve level on the page is this snapshot's.
    pub fn openmetrics_into(&self, out: &mut String) {
        use spgemm_obs::openmetrics::{
            append_counter, append_gauge, append_histogram, append_type,
        };
        let counters: [(&str, u64); 14] = [
            ("spgemm_serve_jobs_accepted", self.accepted),
            ("spgemm_serve_jobs_rejected", self.rejected),
            ("spgemm_serve_jobs_completed", self.completed),
            ("spgemm_serve_jobs_failed", self.failed),
            ("spgemm_serve_jobs_cancelled", self.cancelled),
            (
                "spgemm_serve_duplicate_completions",
                self.duplicate_completions,
            ),
            ("spgemm_serve_batches", self.batches),
            ("spgemm_serve_batched_jobs", self.batched_jobs),
            ("spgemm_serve_dist_routed", self.dist_routed),
            ("spgemm_serve_expr_jobs", self.expr_jobs),
            ("spgemm_serve_expr_nodes_computed", self.expr_nodes_computed),
            ("spgemm_serve_row_updates", self.row_updates),
            ("spgemm_serve_rows_dirtied", self.rows_dirtied),
            (
                "spgemm_serve_expr_results_patched",
                self.expr_results_patched,
            ),
        ];
        for (fam, v) in counters {
            append_type(out, fam, "counter");
            append_counter(out, fam, &[], v);
        }
        let caches = [
            ("plan", self.plan_cache),
            ("expr_results", self.expr_results),
        ];
        for (kind, fam) in [
            "spgemm_serve_cache_hits",
            "spgemm_serve_cache_misses",
            "spgemm_serve_cache_evictions",
        ]
        .into_iter()
        .enumerate()
        {
            append_type(out, fam, "counter");
            for (cache, c) in caches {
                let v = [c.hits, c.misses, c.evictions][kind];
                append_counter(out, fam, &[("cache", cache)], v);
            }
        }
        let fam = "spgemm_serve_queue_depth";
        append_type(out, fam, "gauge");
        for (lane, depth) in ["high", "normal", "low"]
            .into_iter()
            .zip(self.queue_depth_per_lane)
        {
            append_gauge(out, fam, &[("lane", lane)], depth as f64);
        }
        let fam = "spgemm_serve_cache_entries";
        append_type(out, fam, "gauge");
        for (cache, c) in caches {
            append_gauge(out, fam, &[("cache", cache)], c.entries as f64);
        }
        let levels = [
            ("spgemm_serve_workers_busy", self.workers_busy as f64),
            ("spgemm_serve_store_names", self.store_names as f64),
            (
                "spgemm_serve_store_approx_bytes",
                self.store_approx_bytes as f64,
            ),
            (
                "spgemm_serve_plan_cache_idle_bytes",
                self.plan_cache_idle_bytes as f64,
            ),
            ("spgemm_serve_dist_held_bytes", self.dist_held_bytes as f64),
        ];
        for (fam, v) in levels {
            append_type(out, fam, "gauge");
            append_gauge(out, fam, &[], v);
        }
        let phases: [(&str, &HistogramSnapshot); 3] = [
            ("total", &self.latency_hist),
            ("queue", &self.queue_delay_hist),
            ("service", &self.service_hist),
        ];
        let fam = "spgemm_serve_latency_ns";
        append_type(out, fam, "histogram");
        for (phase, hist) in phases {
            append_histogram(out, fam, &[("phase", phase)], hist);
        }
        if !self.per_tenant.is_empty() {
            let fam = "spgemm_serve_tenant_latency_ns";
            append_type(out, fam, "histogram");
            for t in &self.per_tenant {
                append_histogram(out, fam, &[("tenant", t.tenant.as_str())], &t.latency_hist);
            }
        }
        if self.slo_rows().next().is_some() {
            let fam = "spgemm_serve_slo_jobs";
            append_type(out, fam, "counter");
            for (tenant, s) in self.slo_rows() {
                for (outcome, v) in [("good", s.good), ("bad", s.bad)] {
                    append_counter(out, fam, &[("tenant", tenant), ("outcome", outcome)], v);
                }
            }
            let fam = "spgemm_serve_slo_target_ms";
            append_type(out, fam, "gauge");
            for (tenant, s) in self.slo_rows() {
                append_gauge(out, fam, &[("tenant", tenant)], s.target_ms);
            }
            let fam = "spgemm_serve_slo_burn_rate";
            append_type(out, fam, "gauge");
            for (tenant, s) in self.slo_rows() {
                append_gauge(out, fam, &[("tenant", tenant)], s.burn_rate());
            }
        }
    }

    /// The interval view between `prev` (an earlier snapshot of the
    /// same engine) and `self`: counters become per-window deltas,
    /// latency summaries and each row's SLO counts cover only the
    /// window's samples (bucket-wise histogram differences, see
    /// [`HistogramSnapshot::since`]), and `throughput_jps` becomes
    /// the window rate. Levels (queue depths, busy workers, store names
    /// and bytes, cache `entries`, the plan cache's idle bytes) keep
    /// their end-of-window value. `since` of an identical snapshot is
    /// all-zero. Tenants absent from `prev` diff against empty.
    pub fn since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let latency_hist = self.latency_hist.since(&prev.latency_hist);
        let queue_delay_hist = self.queue_delay_hist.since(&prev.queue_delay_hist);
        let service_hist = self.service_hist.since(&prev.service_hist);
        let empty = Histogram::new().snapshot();
        let per_tenant = self
            .per_tenant
            .iter()
            .map(|t| {
                let p = prev.per_tenant.iter().find(|p| p.tenant == t.tenant);
                let window =
                    |h: fn(&TenantLatency) -> &HistogramSnapshot| h(t).since(p.map_or(&empty, h));
                let slo = t.slo.as_ref().map(|s| {
                    let before = p.and_then(|p| p.slo.as_ref());
                    TenantSlo {
                        good: s.good.saturating_sub(before.map_or(0, |b| b.good)),
                        bad: s.bad.saturating_sub(before.map_or(0, |b| b.bad)),
                        ..s.clone()
                    }
                });
                let hists = [
                    window(|t| &t.latency_hist),
                    window(|t| &t.queue_delay_hist),
                    window(|t| &t.service_hist),
                ];
                TenantLatency::new(t.tenant.clone(), hists, slo)
            })
            .collect();
        let completed = self.completed.saturating_sub(prev.completed);
        let elapsed = self.elapsed.saturating_sub(prev.elapsed);
        MetricsSnapshot {
            accepted: self.accepted.saturating_sub(prev.accepted),
            rejected: self.rejected.saturating_sub(prev.rejected),
            completed,
            failed: self.failed.saturating_sub(prev.failed),
            cancelled: self.cancelled.saturating_sub(prev.cancelled),
            duplicate_completions: self
                .duplicate_completions
                .saturating_sub(prev.duplicate_completions),
            batches: self.batches.saturating_sub(prev.batches),
            batched_jobs: self.batched_jobs.saturating_sub(prev.batched_jobs),
            dist_routed: self.dist_routed.saturating_sub(prev.dist_routed),
            expr_jobs: self.expr_jobs.saturating_sub(prev.expr_jobs),
            expr_nodes_computed: self
                .expr_nodes_computed
                .saturating_sub(prev.expr_nodes_computed),
            row_updates: self.row_updates.saturating_sub(prev.row_updates),
            rows_dirtied: self.rows_dirtied.saturating_sub(prev.rows_dirtied),
            expr_results_patched: self
                .expr_results_patched
                .saturating_sub(prev.expr_results_patched),
            queue_depth: self.queue_depth,
            queue_depth_per_lane: self.queue_depth_per_lane,
            workers_busy: self.workers_busy,
            store_names: self.store_names,
            store_approx_bytes: self.store_approx_bytes,
            plan_cache: self.plan_cache.since(&prev.plan_cache),
            plan_cache_idle_bytes: self.plan_cache_idle_bytes,
            dist_held_bytes: self.dist_held_bytes,
            expr_results: self.expr_results.since(&prev.expr_results),
            elapsed,
            throughput_jps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            latency: LatencySummary::from_snapshot(&latency_hist),
            queue_delay: LatencySummary::from_snapshot(&queue_delay_hist),
            service: LatencySummary::from_snapshot(&service_hist),
            latency_hist,
            queue_delay_hist,
            service_hist,
            per_tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (total, queue, service) summaries of a recorder (test probe).
    fn summaries(rec: &LatencyRecorder) -> [LatencySummary; 3] {
        rec.raw_snapshots()
            .map(|h| LatencySummary::from_snapshot(&h))
    }

    /// Resolve `tenant`'s cell and record one job of `total` split
    /// evenly into queue and service, as submission and completion do.
    fn job(m: &Metrics, tenant: &str, total: Duration) {
        let (cell, target_ns) = m.tenant_cell(tenant);
        cell.record(total, total / 2, total - total / 2, target_ns);
    }

    fn snap(m: &Metrics) -> MetricsSnapshot {
        m.snapshot(
            Levels::default(),
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        )
    }

    fn row<'a>(s: &'a MetricsSnapshot, tenant: &str) -> &'a TenantLatency {
        s.per_tenant.iter().find(|t| t.tenant == tenant).unwrap()
    }

    #[test]
    fn summary_percentiles_within_bucket_error() {
        // 1..=100 ms recorded as ns: exact order stats are known, the
        // histogram summary must land within its 6.25% bucket bound
        let rec = LatencyRecorder::default();
        for i in 1..=100u64 {
            let d = Duration::from_millis(i);
            rec.record(d, d / 2, d / 2);
        }
        let [s, q, v] = summaries(&rec);
        assert_eq!(s.count, 100);
        assert!((s.p50_ms - 50.0).abs() <= 50.0 * 0.07, "{}", s.p50_ms);
        assert!((s.p99_ms - 99.0).abs() <= 99.0 * 0.07, "{}", s.p99_ms);
        assert!((s.max_ms - 100.0).abs() < 1e-9, "max is exact");
        assert!((s.mean_ms - 50.5).abs() < 1e-9, "mean is exact");
        // decomposition components recorded alongside
        assert_eq!(q.count, 100);
        assert_eq!(v.count, 100);
        assert!((q.max_ms - 50.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_reports_per_lane_depths_and_their_sum() {
        let m = Metrics::default();
        let s = m.snapshot(
            Levels {
                queue_depth_per_lane: [2, 5, 1],
                ..Levels::default()
            },
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        );
        assert_eq!(s.queue_depth_per_lane, [2, 5, 1]);
        assert_eq!(s.queue_depth, 8, "aggregate is the lane sum");
        assert_eq!(s.dist_routed, 0);
        assert!(s.per_tenant.is_empty());
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = snap(&Metrics::default());
        for sum in [s.latency, s.queue_delay, s.service] {
            assert_eq!(sum.count, 0);
            assert_eq!(sum.p99_ms, 0.0);
            assert_eq!(sum.max_ms, 0.0);
        }
    }

    #[test]
    fn per_tenant_decomposition_adds_up() {
        let m = Metrics::default();
        let (cell, target_ns) = m.tenant_cell("acme");
        for i in 1..=50u64 {
            let queue = Duration::from_millis(i);
            let service = Duration::from_millis(2 * i);
            cell.record(queue + service, queue, service, target_ns);
        }
        let snap = snap(&m);
        assert_eq!(snap.per_tenant.len(), 1);
        let t = &snap.per_tenant[0];
        assert_eq!(t.tenant, "acme");
        assert_eq!(t.latency.count, 50);
        // mean(total) = mean(queue) + mean(service), exactly
        assert!(
            (t.latency.mean_ms - t.queue_delay.mean_ms - t.service.mean_ms).abs() < 1e-9,
            "decomposition must add up: {t:?}"
        );
        assert!(t.queue_delay.p99_ms > 0.0 && t.service.p99_ms > 0.0);
        // engine-wide histograms saw the same jobs
        assert_eq!(snap.latency.count, 50);
    }

    #[test]
    fn anonymous_tenant_records_only_engine_wide() {
        let m = Metrics::default();
        let (cell, target_ns) = m.tenant_cell("");
        assert!(Arc::ptr_eq(&cell, &m.anonymous), "the lock-free cell");
        assert!(target_ns.is_none(), "anonymous jobs are never tracked");
        job(&m, "", Duration::from_millis(3));
        let snap = snap(&m);
        assert!(snap.per_tenant.is_empty());
        assert_eq!(snap.latency.count, 1);
    }

    /// With only named tenants the engine-wide histograms are exactly
    /// the rows' sum: count and sum add, max is the rows' max.
    #[test]
    fn engine_wide_summaries_are_the_sum_of_the_tenant_rows() {
        let m = Metrics::default();
        for (tenant, ms) in [("a", [1, 9, 4]), ("b", [30, 2, 7]), ("c", [5, 5, 5])] {
            for ms in ms {
                job(&m, tenant, Duration::from_millis(ms));
            }
        }
        let s = snap(&m);
        assert_eq!(s.per_tenant.len(), 3);
        let parts: [fn(&TenantLatency) -> &HistogramSnapshot; 3] = [
            |t| &t.latency_hist,
            |t| &t.queue_delay_hist,
            |t| &t.service_hist,
        ];
        let wide = [&s.latency_hist, &s.queue_delay_hist, &s.service_hist];
        for (wide, part) in wide.into_iter().zip(parts) {
            let rows: Vec<&HistogramSnapshot> = s.per_tenant.iter().map(part).collect();
            assert_eq!(wide.count, rows.iter().map(|h| h.count).sum::<u64>());
            assert_eq!(wide.sum, rows.iter().map(|h| h.sum).sum::<u64>());
            assert_eq!(wide.max, rows.iter().map(|h| h.max).max().unwrap());
        }
        assert_eq!(s.latency.count, 9);
        assert!((s.latency.max_ms - 30.0).abs() < 1e-9);
        let d = s.since(&s.clone());
        assert_eq!(
            (d.latency.count, d.queue_delay.count, d.service.count),
            (0, 0, 0)
        );
        assert_eq!(d.latency.max_ms, 0.0);
        assert!(d.per_tenant.iter().all(|t| t.latency.count == 0));
    }

    #[test]
    fn slo_cells_classify_and_snapshot() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(10)),
            per_tenant: vec![("strict".to_string(), Duration::from_millis(1))],
            goal: 0.9,
        });
        assert!(m.tenant_cell("").1.is_none(), "anonymous jobs untracked");
        // 5 ms: within the 10 ms default, over the 1 ms override
        let five_ms = Duration::from_millis(5);
        for _ in 0..8 {
            job(&m, "lax", five_ms);
        }
        job(&m, "lax", Duration::from_millis(50)); // one breach
        job(&m, "strict", five_ms);
        job(&m, "strict", Duration::from_micros(500));
        let snap = snap(&m);
        assert_eq!(snap.per_tenant.len(), 2);
        let lax = row(&snap, "lax").slo.as_ref().unwrap();
        assert_eq!((lax.good, lax.bad), (8, 1));
        assert!((lax.target_ms - 10.0).abs() < 1e-9);
        // bad fraction 1/9 over a 0.1 budget ⇒ burn ≈ 1.11
        assert!((lax.burn_rate() - (1.0 / 9.0) / 0.1).abs() < 1e-9);
        let strict = row(&snap, "strict").slo.as_ref().unwrap();
        assert_eq!((strict.good, strict.bad), (1, 1));
        assert!((strict.target_ms - 1.0).abs() < 1e-9);
        assert!((strict.burn_rate() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn slo_overflow_tenants_keep_their_own_targets() {
        // No default target: only overridden tenants are tracked, and
        // the ones beyond the cap must keep their override's
        // classification while aggregating under the overflow label.
        let mut per_tenant: Vec<(String, Duration)> = (0..MAX_TENANTS)
            .map(|i| (format!("t-{i}"), Duration::from_millis(10)))
            .collect();
        per_tenant.push(("lax-tail".to_string(), Duration::from_millis(10)));
        per_tenant.push(("strict-tail".to_string(), Duration::from_millis(1)));
        let m = Metrics::with_slo(SloPolicy {
            default_target: None,
            per_tenant,
            goal: 0.9,
        });
        for i in 0..MAX_TENANTS {
            assert!(m.tenant_cell(&format!("t-{i}")).1.is_some());
        }
        let five_ms = Duration::from_millis(5);
        job(&m, "lax-tail", five_ms); // within its 10 ms target
        job(&m, "strict-tail", five_ms); // over its 1 ms target
        let snap = snap(&m);
        assert_eq!(snap.per_tenant.len(), MAX_TENANTS + 1, "cap + overflow");
        assert!(snap.per_tenant.iter().all(|t| t.slo.is_some()));
        let other = row(&snap, OVERFLOW_TENANT).slo.as_ref().unwrap();
        assert_eq!(
            (other.good, other.bad),
            (1, 1),
            "each tail tenant classified against its own target"
        );
    }

    /// The cap is shared: once 64 untracked tenants fill the table, a
    /// tracked tenant's latency and SLO counts both land in the
    /// overflow row, classified against its own target.
    #[test]
    fn a_tracked_tenant_past_the_cap_lands_in_the_overflow_row() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: None,
            per_tenant: vec![("strict-tail".to_string(), Duration::from_millis(1))],
            goal: 0.9,
        });
        for i in 0..MAX_TENANTS {
            job(&m, &format!("untracked-{i}"), Duration::from_micros(10));
        }
        job(&m, "strict-tail", Duration::from_millis(5)); // over 1 ms
        job(&m, "strict-tail", Duration::from_micros(500)); // within
        let snap = snap(&m);
        assert_eq!(snap.per_tenant.len(), MAX_TENANTS + 1, "cap + overflow");
        assert!(snap.per_tenant.iter().all(|t| t.tenant != "strict-tail"));
        let other = row(&snap, OVERFLOW_TENANT);
        assert_eq!(other.latency.count, 2, "latency lands in the overflow row");
        let slo = other.slo.as_ref().expect("overflow row carries the SLO");
        assert_eq!((slo.good, slo.bad), (1, 1));
        assert!((slo.target_ms - 1.0).abs() < 1e-9, "its own target shown");
        let tracked = snap.per_tenant.iter().filter(|t| t.slo.is_some()).count();
        assert_eq!(tracked, 1, "untracked rows have no SLO");
    }

    #[test]
    fn no_policy_means_no_slo_rows() {
        let m = Metrics::default();
        assert!(m.tenant_cell("anyone").1.is_none());
        job(&m, "anyone", Duration::from_millis(1));
        let snap = snap(&m);
        assert_eq!(snap.per_tenant.len(), 1);
        assert!(snap.per_tenant[0].slo.is_none());
        let mut page = String::new();
        snap.openmetrics_into(&mut page);
        assert!(!page.contains("spgemm_serve_slo"), "{page}");
    }

    #[test]
    fn since_of_identical_snapshots_is_zero() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(5)),
            ..SloPolicy::default()
        });
        m.accepted.store(7, Ordering::Relaxed);
        m.completed.store(7, Ordering::Relaxed);
        for i in 1..=7u64 {
            job(&m, "acme", Duration::from_millis(i));
        }
        let start = Instant::now();
        let snap = m.snapshot(
            Levels {
                workers_busy: 1,
                store: (3, 4096),
                plan_cache_idle_bytes: 512,
                dist_held_bytes: 2048,
                ..Levels::default()
            },
            PlanCacheStats {
                hits: 3,
                misses: 4,
                evictions: 1,
                entries: 2,
            },
            ExprResultCacheStats::default(),
            start,
        );
        let d = snap.since(&snap.clone());
        assert_eq!(d.accepted, 0);
        assert_eq!(d.completed, 0);
        assert_eq!(d.delivered(), 0);
        assert_eq!(d.batches, 0);
        assert_eq!(d.latency.count, 0);
        assert_eq!(d.latency.max_ms, 0.0);
        assert_eq!(d.queue_delay.count, 0);
        assert_eq!(d.plan_cache.hits, 0);
        assert_eq!(d.plan_cache.entries, 2, "levels keep their value");
        assert_eq!(
            (d.workers_busy, d.store_names, d.store_approx_bytes),
            (1, 3, 4096)
        );
        assert_eq!(d.plan_cache_idle_bytes, 512);
        assert_eq!(d.dist_held_bytes, 2048);
        assert_eq!(d.throughput_jps, 0.0);
        assert_eq!(d.per_tenant.len(), 1);
        assert_eq!(d.per_tenant[0].latency.count, 0);
        let slo = d.per_tenant[0].slo.as_ref().unwrap();
        assert_eq!((slo.good, slo.bad), (0, 0));
        assert_eq!(slo.burn_rate(), 0.0);
    }

    #[test]
    fn since_isolates_the_window() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(5)),
            ..SloPolicy::default()
        });
        let run = |ms: u64| {
            job(&m, "w", Duration::from_millis(ms));
            m.completed.fetch_add(1, Ordering::Relaxed);
        };
        let start = Instant::now();
        run(1);
        run(100); // slow outlier in the *first* window
        let prev = m.snapshot(
            Levels::default(),
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            start,
        );
        run(2);
        run(3);
        run(4);
        let cur = m.snapshot(
            Levels::default(),
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            start,
        );
        let w = cur.since(&prev);
        assert_eq!(w.completed, 3);
        assert_eq!(w.latency.count, 3);
        // the first window's 100 ms outlier must not leak into the
        // window's max (cumulative max would be ~100)
        assert!(
            w.latency.max_ms < 10.0,
            "window max {} leaked the outlier",
            w.latency.max_ms
        );
        let t = &w.per_tenant[0];
        assert_eq!(t.latency.count, 3);
        let slo = t.slo.as_ref().unwrap();
        assert_eq!((slo.good, slo.bad), (3, 0));
        assert!(w.elapsed <= cur.elapsed);
    }

    #[test]
    fn openmetrics_exposition_is_valid_and_covers_tenants() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(5)),
            ..SloPolicy::default()
        });
        for i in 1..=20u64 {
            job(&m, "acme \"prod\"\n", Duration::from_millis(i));
        }
        m.accepted.store(20, Ordering::Relaxed);
        m.completed.store(20, Ordering::Relaxed);
        let snap = m.snapshot(
            Levels {
                queue_depth_per_lane: [1, 2, 3],
                ..Levels::default()
            },
            PlanCacheStats {
                hits: 9,
                misses: 3,
                evictions: 1,
                entries: 2,
            },
            ExprResultCacheStats::default(),
            Instant::now(),
        );
        let mut page = String::new();
        snap.openmetrics_into(&mut page);
        page.push_str("# EOF\n");
        spgemm_obs::openmetrics::validate(&page).expect("serve exposition must validate");
        assert!(page.contains("spgemm_serve_jobs_completed_total 20"));
        assert!(page.contains("spgemm_serve_cache_hits_total{cache=\"plan\"} 9"));
        assert!(page.contains("spgemm_serve_queue_depth{lane=\"low\"} 3"));
        assert!(page.contains("spgemm_serve_cache_entries{cache=\"plan\"} 2"));
        // hostile tenant label escaped, never raw
        assert!(!page.contains("acme \"prod\"\n\""));
        assert!(page.contains("tenant=\"acme \\\"prod\\\"\\n\""));
        assert!(page.contains("spgemm_serve_slo_jobs_total"));
        assert!(page.contains("spgemm_serve_latency_ns_bucket"));
    }

    #[test]
    fn tenant_cardinality_is_capped() {
        let m = Metrics::default();
        for i in 0..(MAX_TENANTS + 10) {
            job(&m, &format!("tenant-{i}"), Duration::from_micros(10));
        }
        let snap = snap(&m);
        assert_eq!(snap.per_tenant.len(), MAX_TENANTS + 1, "cap + overflow");
        assert_eq!(
            row(&snap, OVERFLOW_TENANT).latency.count,
            10,
            "tail tenants aggregate"
        );
    }
}
