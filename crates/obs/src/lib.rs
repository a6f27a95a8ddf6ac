//! Stack-wide instrumentation for the SpGEMM workspace: span-based
//! phase timing, atomic counters and gauges, a bounded ring-buffer
//! event log, and request-scoped causal tracing ([`TraceCtx`]) with a
//! tail-sampling exemplar store, behind one process-global registry.
//! Log-bucketed [`Histogram`]s are owned by the subsystem that records
//! them (serve's per-tenant latency cells), not registered: they are
//! always on, and reach a `/metrics` page through the
//! [`http::ExtraExposition`] hook and [`openmetrics::append_histogram`].
//!
//! # Design constraints
//!
//! The paper's argument is made of phase-level breakdowns — symbolic
//! vs numeric cost, per-kernel profiles, accumulator behavior by row
//! length — so every hot layer of this workspace (plan, expr, dist,
//! serve) carries permanent instrumentation points. That is only
//! acceptable if the *disabled* path costs nothing:
//!
//! * **Zero overhead when disabled.** Every instrumentation entry
//!   point is an `#[inline]` function whose first action is one
//!   relaxed load of a process-global [`AtomicBool`]; when it reads
//!   `false` the function returns immediately, performing **zero heap
//!   allocations** and no clock reads (proven by the
//!   counting-allocator test in `tests/zero_alloc.rs`, the same
//!   technique as `plan_zero_alloc.rs` in `spgemm`).
//! * **No dependencies.** The crate is std-only; it can never pull a
//!   cost or a version conflict into the kernels it instruments.
//! * **Fixed footprint when enabled.** Histograms are log-bucketed
//!   arrays of atomics (no samples retained, see [`Histogram`]); the
//!   event log is a bounded ring that overwrites its oldest entry
//!   (see [`trace_events`]); per-callsite aggregates are three
//!   atomics; the active-trace table and the per-tenant exemplar
//!   store are preallocated fixed-size slabs ([`MAX_ACTIVE_TRACES`],
//!   [`EXEMPLARS_PER_GROUP`]). Nothing grows with job count.
//!
//! # Usage
//!
//! Callsites are `static`s so the hot path never hashes a name:
//!
//! ```
//! // a timed phase: the guard records on drop
//! let _g = spgemm_obs::span!("plan", "plan.numeric");
//!
//! // a counter
//! static CACHE_HITS: spgemm_obs::CounterSite =
//!     spgemm_obs::CounterSite::new("plan", "plan.cache_hits");
//! CACHE_HITS.incr();
//! ```
//!
//! Turn collection on with [`enable`], then export with
//! [`text_report`], [`json_snapshot`] or [`chrome_trace`] (the last
//! loads directly into `chrome://tracing` / Perfetto).
//!
//! ```
//! spgemm_obs::enable();
//! {
//!     let _g = spgemm_obs::span!("demo", "demo.work");
//! }
//! let trace = spgemm_obs::chrome_trace();
//! assert!(trace.contains("\"demo.work\""));
//! spgemm_obs::disable();
//! # spgemm_obs::reset();
//! ```

#![warn(missing_docs)]

mod export;
mod hist;
pub mod http;
pub mod openmetrics;
mod ring;
mod site;
mod trace;

pub use export::{
    chrome_trace, chrome_trace_for, counter_stats, coverage_by_site, gauge_stats, json_snapshot,
    span_coverage, span_stats, text_report, CounterStat, GaugeStat, SiteCoverage, SpanStat,
};
pub use hist::{bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot};
pub use hist::{NUM_BUCKETS, PRECISION};
pub use ring::{trace_events, trace_overwritten, EventKind, TraceEvent};
pub use site::{CounterSite, GaugeSite, SpanGuard, SpanSite};
pub use trace::{
    ctx_scope, current_ctx, exemplar_for, exemplars, finish_request, flow_out,
    roll_exemplar_window, trace_unsampled, CtxScope, ExemplarTrace, FlowLink, TraceCtx,
    EXEMPLARS_PER_GROUP, MAX_ACTIVE_TRACES, MAX_EXEMPLAR_GROUPS, MAX_TRACE_SPANS,
};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of ring-buffer trace events [`enable`] provisions when no
/// explicit capacity was requested (~3.7 MB).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Whether instrumentation is collecting. One relaxed atomic load;
/// every instrumentation entry point checks this first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start collecting spans, counters and gauges, provisioning the
/// trace ring at [`DEFAULT_TRACE_CAPACITY`] events if it has no
/// capacity yet. Idempotent.
pub fn enable() {
    enable_with_capacity(DEFAULT_TRACE_CAPACITY);
}

/// [`enable`] with an explicit trace-ring capacity (events). A
/// capacity of 0 keeps aggregates but records no trace events. An already-provisioned ring keeps its capacity.
pub fn enable_with_capacity(capacity: usize) {
    let _ = epoch();
    ring::provision(capacity);
    trace::provision();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop collecting. Collected data stays readable (reports, trace
/// export) until [`reset`]; spans already entered still record their
/// exit so the trace has no half-open intervals.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Zero every registered span/counter/gauge, clear the trace ring
/// (its capacity is kept), release every active-trace slot, and drop
/// all retained exemplars. Callsites stay registered.
pub fn reset() {
    site::reset_all();
    ring::clear();
    trace::reset_all();
}

/// Nanoseconds since the process-local trace epoch (first [`enable`]
/// or first call of this function). All [`TraceEvent`] timestamps are
/// on this clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Stable small integer identifying the calling thread in trace
/// events (assigned on first use, starting at 1).
pub fn current_tid() -> u64 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn ns_since_epoch(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Enter a span against a `static` callsite declared in place.
///
/// Both arguments must be string literals (`category`, `name`). The
/// expansion is a `static` [`SpanSite`] plus one [`SpanSite::enter`]
/// call; bind the returned guard (`let _g = ...`) so it lives to the
/// end of the phase — binding to `_` drops it immediately.
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {{
        static SITE: $crate::SpanSite = $crate::SpanSite::new($cat, $name);
        SITE.enter()
    }};
}

/// Serializes unit tests that touch the process-global enable flag,
/// registry, or trace ring (the harness runs tests in parallel).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_stable_and_distinct() {
        let here = current_tid();
        assert_eq!(here, current_tid());
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
