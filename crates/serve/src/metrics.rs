//! Serving metrics: per-job latency decomposition, per-tenant
//! histograms, aggregate counters, and the snapshot the
//! `spgemm-serve` bench prints.
//!
//! Latencies are recorded into bounded log-bucketed histograms
//! ([`spgemm_obs::Histogram`]): every sample counts (nothing is
//! dropped), memory never grows with job count, and quantiles are
//! exact to within the histogram's bucket error bound (≤ 6.25%
//! relative). Each completed job is decomposed into queue delay
//! (submit → worker pickup) and service time (pickup → done), the
//! split the ROADMAP's async-ingress work needs to reason about
//! overload.

use parking_lot::Mutex;
use spgemm_obs::{Histogram, HistogramSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::expr_results::ExprResultCacheStats;
use crate::job::Priority;
use crate::plan_cache::PlanCacheStats;

/// Hard cap on distinct *named* per-tenant recorders; tenants beyond
/// it are aggregated under [`OVERFLOW_TENANT`] (which rides on top of
/// the cap, so a map holds at most `MAX_TENANTS + 1` entries) and a
/// label-cardinality explosion cannot grow memory without bound.
const MAX_TENANTS: usize = 64;

/// Aggregation label for tenants beyond the per-tenant recorder cap
/// (64 distinct tenants).
pub const OVERFLOW_TENANT: &str = "(other)";

/// Latency histograms for one scope (engine-wide or one tenant):
/// total latency plus its queue/service decomposition, nanoseconds.
#[derive(Default)]
pub(crate) struct LatencyRecorder {
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
    fn raw_snapshots(&self) -> (HistogramSnapshot, HistogramSnapshot, HistogramSnapshot) {
        (
            self.total.snapshot(),
            self.queue.snapshot(),
            self.service.snapshot(),
        )
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

/// Shared good/bad counters for one SLO aggregation bucket (a named
/// tenant, or [`OVERFLOW_TENANT`] for the tail beyond the cap).
struct SloCounts {
    good: AtomicU64,
    bad: AtomicU64,
}

/// A tenant's latency target paired with the counters its outcomes
/// aggregate into. Resolved at submission (like the latency
/// recorder), bumped lock-free at completion. Tenants beyond the cap
/// share the [`OVERFLOW_TENANT`] counters but each keeps its *own*
/// resolved target, so a strict per-tenant override is still
/// classified against its override while aggregating under the
/// overflow label.
pub(crate) struct SloCell {
    target_ns: u64,
    counts: Arc<SloCounts>,
}

impl SloCell {
    fn new(target_ns: u64) -> SloCell {
        SloCell {
            target_ns,
            counts: Arc::new(SloCounts {
                good: AtomicU64::new(0),
                bad: AtomicU64::new(0),
            }),
        }
    }

    /// Classify one completed job's total latency.
    pub(crate) fn record(&self, total_ns: u64) {
        if total_ns <= self.target_ns {
            self.counts.good.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counts.bad.fetch_add(1, Ordering::Relaxed);
        }
    }
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
    /// Engine-wide latency histograms (always on; fixed footprint).
    overall: LatencyRecorder,
    /// Per-tenant recorders, created on first submission, capped at
    /// [`MAX_TENANTS`]. The anonymous tenant (empty label) records
    /// only into `overall`.
    tenants: Mutex<HashMap<String, Arc<LatencyRecorder>>>,
    /// The engine's SLO policy (installed at construction).
    slo_policy: SloPolicy,
    /// Per-tenant SLO cells, resolved at submission, capped like the
    /// latency recorders (tail tenants aggregate under
    /// [`OVERFLOW_TENANT`], each still classified against its own
    /// resolved target).
    slo: Mutex<HashMap<String, Arc<SloCell>>>,
}

impl Metrics {
    /// Metrics with an SLO policy installed.
    pub(crate) fn with_slo(policy: SloPolicy) -> Metrics {
        Metrics {
            slo_policy: policy,
            ..Metrics::default()
        }
    }

    /// The SLO cell for `tenant`, creating it under the cap; `None`
    /// when the policy gives the tenant no target. Resolved once per
    /// job at submission, so completion stays lock-free.
    pub(crate) fn slo_cell(&self, tenant: &str) -> Option<Arc<SloCell>> {
        let target = self.slo_policy.target_for(tenant)?;
        let target_ns = target.as_nanos() as u64;
        let mut map = self.slo.lock();
        if let Some(cell) = map.get(tenant) {
            return Some(Arc::clone(cell));
        }
        if map.len() < MAX_TENANTS {
            let cell = Arc::new(SloCell::new(target_ns));
            map.insert(tenant.to_string(), Arc::clone(&cell));
            return Some(cell);
        }
        // At the cap: aggregate counts under the overflow bucket, but
        // classify against *this tenant's* resolved target (a strict
        // override stays strict; the overflow row's displayed target
        // is the default, or the first overflowing tenant's).
        let overflow = map.entry(OVERFLOW_TENANT.to_string()).or_insert_with(|| {
            let shown_ns = self
                .slo_policy
                .default_target
                .map_or(target_ns, |d| d.as_nanos() as u64);
            Arc::new(SloCell::new(shown_ns))
        });
        if overflow.target_ns == target_ns {
            return Some(Arc::clone(overflow));
        }
        Some(Arc::new(SloCell {
            target_ns,
            counts: Arc::clone(&overflow.counts),
        }))
    }
    /// The recorder for `tenant`, creating it under the cap. `None`
    /// for the anonymous (empty) tenant label. Called once per job at
    /// submission, so completion stays lock-free.
    pub(crate) fn tenant_recorder(&self, tenant: &str) -> Option<Arc<LatencyRecorder>> {
        if tenant.is_empty() {
            return None;
        }
        let mut map = self.tenants.lock();
        if let Some(rec) = map.get(tenant) {
            return Some(Arc::clone(rec));
        }
        if map.len() < MAX_TENANTS {
            let rec = Arc::new(LatencyRecorder::default());
            map.insert(tenant.to_string(), Arc::clone(&rec));
            return Some(rec);
        }
        let rec = map
            .entry(OVERFLOW_TENANT.to_string())
            .or_insert_with(|| Arc::new(LatencyRecorder::default()));
        Some(Arc::clone(rec))
    }

    /// Record one completed job's decomposed latency into the
    /// engine-wide histograms and (when resolved) the tenant's.
    pub(crate) fn record_job(
        &self,
        tenant_rec: Option<&LatencyRecorder>,
        total: Duration,
        queue: Duration,
        service: Duration,
    ) {
        self.overall.record(total, queue, service);
        if let Some(rec) = tenant_rec {
            rec.record(total, queue, service);
        }
    }

    pub(crate) fn note_batch(&self, jobs: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(jobs as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth_per_lane: [usize; Priority::COUNT],
        plan_cache: PlanCacheStats,
        expr_results: ExprResultCacheStats,
        since: Instant,
    ) -> MetricsSnapshot {
        let (latency_hist, queue_delay_hist, service_hist) = self.overall.raw_snapshots();
        let latency = LatencySummary::from_snapshot(&latency_hist);
        let queue_delay = LatencySummary::from_snapshot(&queue_delay_hist);
        let service = LatencySummary::from_snapshot(&service_hist);
        let per_tenant = {
            let map = self.tenants.lock();
            let mut rows: Vec<TenantLatency> = map
                .iter()
                .map(|(tenant, rec)| {
                    let (lat, q, sv) = rec.raw_snapshots();
                    TenantLatency {
                        tenant: tenant.clone(),
                        latency: LatencySummary::from_snapshot(&lat),
                        queue_delay: LatencySummary::from_snapshot(&q),
                        service: LatencySummary::from_snapshot(&sv),
                        latency_hist: lat,
                        queue_delay_hist: q,
                        service_hist: sv,
                    }
                })
                .collect();
            rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
            rows
        };
        let slo = {
            let map = self.slo.lock();
            let mut rows: Vec<TenantSlo> = map
                .iter()
                .map(|(tenant, cell)| TenantSlo {
                    tenant: tenant.clone(),
                    target_ms: cell.target_ns as f64 / 1e6,
                    goal: self.slo_policy.goal,
                    good: cell.counts.good.load(Ordering::Relaxed),
                    bad: cell.counts.bad.load(Ordering::Relaxed),
                })
                .collect();
            rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
            rows
        };
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
            queue_depth: queue_depth_per_lane.iter().sum(),
            queue_depth_per_lane,
            plan_cache,
            expr_results,
            elapsed,
            throughput_jps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            latency,
            queue_delay,
            service,
            latency_hist,
            queue_delay_hist,
            service_hist,
            per_tenant,
            slo,
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

/// One tenant's SLO standing at snapshot time.
#[derive(Clone, Debug)]
pub struct TenantSlo {
    /// Tenant label ([`OVERFLOW_TENANT`] aggregates the tail beyond
    /// the cap).
    pub tenant: String,
    /// Latency objective for this tenant, milliseconds.
    pub target_ms: f64,
    /// Fraction of jobs that must meet the target (policy-wide).
    pub goal: f64,
    /// Completed jobs within the target.
    pub good: u64,
    /// Completed jobs over the target.
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

/// One tenant's latency decomposition at snapshot time.
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
    /// Shared plan cache counters.
    pub plan_cache: PlanCacheStats,
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
    /// [`MetricsSnapshot::latency`]; kept so
    /// [`MetricsSnapshot::since`] can diff windows.
    pub latency_hist: HistogramSnapshot,
    /// Raw engine-wide queue-delay histogram (ns).
    pub queue_delay_hist: HistogramSnapshot,
    /// Raw engine-wide service-time histogram (ns).
    pub service_hist: HistogramSnapshot,
    /// Per-tenant latency decomposition, sorted by tenant label.
    /// Anonymous (empty-label) jobs appear only in the engine-wide
    /// summaries.
    pub per_tenant: Vec<TenantLatency>,
    /// Per-tenant SLO standing (good/bad counts against each tenant's
    /// latency target), sorted by tenant label. Empty unless
    /// `ServeConfig::slo` gives tenants a target.
    pub slo: Vec<TenantSlo>,
}

impl MetricsSnapshot {
    /// Terminal outcomes delivered (completed + failed + cancelled) —
    /// the number the exactly-once smoke check compares to accepted.
    pub fn delivered(&self) -> u64 {
        self.completed + self.failed + self.cancelled
    }

    /// Append this snapshot as OpenMetrics families (engine job
    /// counters, cache hit/miss counters, the engine-wide and
    /// per-tenant latency histograms, and per-tenant SLO series) —
    /// the serving layer's contribution to a `/metrics` page, designed
    /// to plug into `spgemm_obs::http::ScrapeServer::start_with` as
    /// the extra-exposition hook. Families are prefixed
    /// `spgemm_serve_` and deliberately disjoint from the registry's
    /// gauge families (queue depth, cache entries/bytes live there —
    /// one read path, not two).
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
        if !self.slo.is_empty() {
            let fam = "spgemm_serve_slo_jobs";
            append_type(out, fam, "counter");
            for s in &self.slo {
                append_counter(
                    out,
                    fam,
                    &[("tenant", s.tenant.as_str()), ("outcome", "good")],
                    s.good,
                );
                append_counter(
                    out,
                    fam,
                    &[("tenant", s.tenant.as_str()), ("outcome", "bad")],
                    s.bad,
                );
            }
            let fam = "spgemm_serve_slo_target_ms";
            append_type(out, fam, "gauge");
            for s in &self.slo {
                append_gauge(out, fam, &[("tenant", s.tenant.as_str())], s.target_ms);
            }
            let fam = "spgemm_serve_slo_burn_rate";
            append_type(out, fam, "gauge");
            for s in &self.slo {
                append_gauge(out, fam, &[("tenant", s.tenant.as_str())], s.burn_rate());
            }
        }
    }

    /// The interval view between `prev` (an earlier snapshot of the
    /// same engine) and `self`: counters become per-window deltas,
    /// latency summaries and SLO counts are recomputed over only the
    /// window's samples (bucket-wise histogram differences, see
    /// [`HistogramSnapshot::since`]), and `throughput_jps` becomes
    /// the window rate. Gauges (`queue_depth`, cache `entries`) keep
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
                let lat = t.latency_hist.since(p.map_or(&empty, |p| &p.latency_hist));
                let q = t
                    .queue_delay_hist
                    .since(p.map_or(&empty, |p| &p.queue_delay_hist));
                let sv = t.service_hist.since(p.map_or(&empty, |p| &p.service_hist));
                TenantLatency {
                    tenant: t.tenant.clone(),
                    latency: LatencySummary::from_snapshot(&lat),
                    queue_delay: LatencySummary::from_snapshot(&q),
                    service: LatencySummary::from_snapshot(&sv),
                    latency_hist: lat,
                    queue_delay_hist: q,
                    service_hist: sv,
                }
            })
            .collect();
        let slo = self
            .slo
            .iter()
            .map(|s| {
                let p = prev.slo.iter().find(|p| p.tenant == s.tenant);
                TenantSlo {
                    tenant: s.tenant.clone(),
                    target_ms: s.target_ms,
                    goal: s.goal,
                    good: s.good.saturating_sub(p.map_or(0, |p| p.good)),
                    bad: s.bad.saturating_sub(p.map_or(0, |p| p.bad)),
                }
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
            plan_cache: self.plan_cache.since(&prev.plan_cache),
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
            slo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (total, queue, service) summaries of a recorder (test probe).
    fn summaries(rec: &LatencyRecorder) -> (LatencySummary, LatencySummary, LatencySummary) {
        let (t, q, s) = rec.raw_snapshots();
        (
            LatencySummary::from_snapshot(&t),
            LatencySummary::from_snapshot(&q),
            LatencySummary::from_snapshot(&s),
        )
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
        let (s, q, v) = summaries(&rec);
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
            [2, 5, 1],
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
        let m = Metrics::default();
        let (s, q, v) = summaries(&m.overall);
        for sum in [s, q, v] {
            assert_eq!(sum.count, 0);
            assert_eq!(sum.p99_ms, 0.0);
            assert_eq!(sum.max_ms, 0.0);
        }
    }

    #[test]
    fn per_tenant_decomposition_adds_up() {
        let m = Metrics::default();
        let rec = m.tenant_recorder("acme").unwrap();
        for i in 1..=50u64 {
            let queue = Duration::from_millis(i);
            let service = Duration::from_millis(2 * i);
            m.record_job(Some(&rec), queue + service, queue, service);
        }
        let snap = m.snapshot(
            [0, 0, 0],
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        );
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
        assert!(m.tenant_recorder("").is_none());
        m.record_job(
            None,
            Duration::from_millis(3),
            Duration::from_millis(1),
            Duration::from_millis(2),
        );
        let snap = m.snapshot(
            [0, 0, 0],
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        );
        assert!(snap.per_tenant.is_empty());
        assert_eq!(snap.latency.count, 1);
    }

    #[test]
    fn slo_cells_classify_and_snapshot() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(10)),
            per_tenant: vec![("strict".to_string(), Duration::from_millis(1))],
            goal: 0.9,
        });
        assert!(m.slo_cell("").is_none(), "anonymous jobs untracked");
        let lax = m.slo_cell("lax").unwrap();
        let strict = m.slo_cell("strict").unwrap();
        // 5 ms: within the 10 ms default, over the 1 ms override
        let five_ms = 5_000_000u64;
        for _ in 0..8 {
            lax.record(five_ms);
        }
        lax.record(50_000_000); // one breach
        strict.record(five_ms);
        strict.record(500_000);
        let snap = m.snapshot(
            [0, 0, 0],
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        );
        assert_eq!(snap.slo.len(), 2);
        let lax_row = snap.slo.iter().find(|s| s.tenant == "lax").unwrap();
        assert_eq!((lax_row.good, lax_row.bad), (8, 1));
        assert!((lax_row.target_ms - 10.0).abs() < 1e-9);
        // bad fraction 1/9 over a 0.1 budget ⇒ burn ≈ 1.11
        assert!((lax_row.burn_rate() - (1.0 / 9.0) / 0.1).abs() < 1e-9);
        let strict_row = snap.slo.iter().find(|s| s.tenant == "strict").unwrap();
        assert_eq!((strict_row.good, strict_row.bad), (1, 1));
        assert!((strict_row.target_ms - 1.0).abs() < 1e-9);
        assert!((strict_row.burn_rate() - 5.0).abs() < 1e-9);
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
            m.slo_cell(&format!("t-{i}")).unwrap();
        }
        let lax = m.slo_cell("lax-tail").expect("tracked beyond the cap");
        let strict = m.slo_cell("strict-tail").expect("tracked beyond the cap");
        let five_ms = 5_000_000u64;
        lax.record(five_ms); // within its 10 ms target
        strict.record(five_ms); // over its 1 ms target
        let snap = m.snapshot(
            [0, 0, 0],
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        );
        assert_eq!(snap.slo.len(), MAX_TENANTS + 1, "cap + overflow");
        let other = snap
            .slo
            .iter()
            .find(|s| s.tenant == OVERFLOW_TENANT)
            .expect("overflow bucket present");
        assert_eq!(
            (other.good, other.bad),
            (1, 1),
            "each tail tenant classified against its own target"
        );
    }

    #[test]
    fn no_policy_means_no_slo_rows() {
        let m = Metrics::default();
        assert!(m.slo_cell("anyone").is_none());
        let snap = m.snapshot(
            [0, 0, 0],
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        );
        assert!(snap.slo.is_empty());
    }

    #[test]
    fn since_of_identical_snapshots_is_zero() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(5)),
            ..SloPolicy::default()
        });
        m.accepted.store(7, Ordering::Relaxed);
        m.completed.store(7, Ordering::Relaxed);
        let rec = m.tenant_recorder("acme").unwrap();
        let slo = m.slo_cell("acme").unwrap();
        for i in 1..=7u64 {
            let d = Duration::from_millis(i);
            m.record_job(Some(&rec), d, d / 2, d / 2);
            slo.record(d.as_nanos() as u64);
        }
        let start = Instant::now();
        let snap = m.snapshot(
            [0, 0, 0],
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
        assert_eq!(d.plan_cache.entries, 2, "gauge keeps its value");
        assert_eq!(d.throughput_jps, 0.0);
        assert_eq!(d.per_tenant.len(), 1);
        assert_eq!(d.per_tenant[0].latency.count, 0);
        assert_eq!(d.slo.len(), 1);
        assert_eq!((d.slo[0].good, d.slo[0].bad), (0, 0));
        assert_eq!(d.slo[0].burn_rate(), 0.0);
    }

    #[test]
    fn since_isolates_the_window() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(5)),
            ..SloPolicy::default()
        });
        let rec = m.tenant_recorder("w").unwrap();
        let slo = m.slo_cell("w").unwrap();
        let job = |ms: u64| {
            let d = Duration::from_millis(ms);
            m.record_job(Some(&rec), d, d / 2, d / 2);
            slo.record(d.as_nanos() as u64);
            m.completed.fetch_add(1, Ordering::Relaxed);
        };
        let start = Instant::now();
        job(1);
        job(100); // slow outlier in the *first* window
        let prev = m.snapshot(
            [0, 0, 0],
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            start,
        );
        job(2);
        job(3);
        job(4);
        let cur = m.snapshot(
            [0, 0, 0],
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
        assert_eq!((w.slo[0].good, w.slo[0].bad), (3, 0));
        assert!(w.elapsed <= cur.elapsed);
    }

    #[test]
    fn openmetrics_exposition_is_valid_and_covers_tenants() {
        let m = Metrics::with_slo(SloPolicy {
            default_target: Some(Duration::from_millis(5)),
            ..SloPolicy::default()
        });
        let rec = m.tenant_recorder("acme \"prod\"\n").unwrap();
        let slo = m.slo_cell("acme \"prod\"\n").unwrap();
        for i in 1..=20u64 {
            let d = Duration::from_millis(i);
            m.record_job(Some(&rec), d, d / 2, d / 2);
            slo.record(d.as_nanos() as u64);
        }
        m.accepted.store(20, Ordering::Relaxed);
        m.completed.store(20, Ordering::Relaxed);
        let snap = m.snapshot(
            [1, 2, 3],
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
            let rec = m.tenant_recorder(&format!("tenant-{i}")).unwrap();
            m.record_job(
                Some(&rec),
                Duration::from_micros(10),
                Duration::from_micros(4),
                Duration::from_micros(6),
            );
        }
        let snap = m.snapshot(
            [0, 0, 0],
            PlanCacheStats::default(),
            ExprResultCacheStats::default(),
            Instant::now(),
        );
        assert_eq!(snap.per_tenant.len(), MAX_TENANTS + 1, "cap + overflow");
        let other = snap
            .per_tenant
            .iter()
            .find(|t| t.tenant == OVERFLOW_TENANT)
            .expect("overflow bucket present");
        assert_eq!(other.latency.count, 10, "tail tenants aggregate");
    }
}
