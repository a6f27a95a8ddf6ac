//! Static instrumentation callsites and the process-global registry.
//!
//! A callsite is a `static` ([`SpanSite`], [`CounterSite`],
//! [`GaugeSite`]) declared where the instrumented code lives, so the
//! hot path touches a known address instead of hashing a name. Each
//! site lazily registers its `&'static self` in a global list on first
//! use while enabled; the exporters iterate that list. Histograms are
//! not registry sites: a subsystem owns its [`crate::Histogram`]s and
//! exports them itself (serve's per-engine latency families reach
//! `/metrics` through the scrape endpoint's exposition hook).

use crate::ring::{self, TraceEvent};
use crate::trace::{self, OpenSpan};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub(crate) struct Registry {
    pub(crate) spans: Mutex<Vec<&'static SpanSite>>,
    pub(crate) counters: Mutex<Vec<&'static CounterSite>>,
    pub(crate) gauges: Mutex<Vec<&'static GaugeSite>>,
}

pub(crate) static REGISTRY: Registry = Registry {
    spans: Mutex::new(Vec::new()),
    counters: Mutex::new(Vec::new()),
    gauges: Mutex::new(Vec::new()),
};

/// Recovers from poisoning: a critical section pushes or reads whole sites.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Zero every registered site (registration is kept).
pub(crate) fn reset_all() {
    for s in lock(&REGISTRY.spans).iter() {
        s.count.store(0, Ordering::Relaxed);
        s.total_ns.store(0, Ordering::Relaxed);
        s.max_ns.store(0, Ordering::Relaxed);
    }
    for c in lock(&REGISTRY.counters).iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in lock(&REGISTRY.gauges).iter() {
        g.value.store(0, Ordering::Relaxed);
    }
}

/// A named, categorized timing callsite. Declare as a `static` (or
/// use the [`crate::span!`] macro); [`SpanSite::enter`] returns a
/// guard that records duration and a trace event on drop.
pub struct SpanSite {
    name: &'static str,
    cat: &'static str,
    registered: AtomicBool,
    pub(crate) count: AtomicU64,
    pub(crate) total_ns: AtomicU64,
    pub(crate) max_ns: AtomicU64,
}

impl SpanSite {
    /// A new callsite under `cat` (layer) named `name`.
    pub const fn new(cat: &'static str, name: &'static str) -> Self {
        SpanSite {
            name,
            cat,
            registered: AtomicBool::new(false),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Span name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Span category (layer).
    pub fn cat(&self) -> &'static str {
        self.cat
    }

    /// Enter the span. When instrumentation is disabled this is one
    /// relaxed load and an all-`None` guard: no clock read, no
    /// allocation, no registry traffic.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                active: None,
                traced: None,
            };
        }
        self.enter_enabled()
    }

    #[cold]
    fn enter_enabled(&'static self) -> SpanGuard {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&REGISTRY.spans).push(self);
        }
        SpanGuard {
            traced: trace::begin_span(),
            active: Some((self, Instant::now())),
        }
    }

    fn exit(&'static self, start: Instant, traced: Option<OpenSpan>) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(dur_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(dur_ns, Ordering::Relaxed);
        let ev = TraceEvent::untraced(
            self.name,
            self.cat,
            crate::current_tid(),
            crate::ns_since_epoch(start),
            dur_ns,
        );
        match traced {
            // joins the thread's active request trace: id-stamped and
            // recorded into both the ring and the trace's slot
            Some(open) => trace::end_span(open, ev),
            None => ring::push(ev),
        }
    }

    /// `(count, total_ns, max_ns)` aggregates recorded so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.total_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// RAII guard returned by [`SpanSite::enter`]; records on drop. Spans
/// that were open when instrumentation was disabled still record, so
/// traces have no half-open intervals.
#[must_use = "binding to `_` drops the guard immediately; use `let _g = ...`"]
pub struct SpanGuard {
    active: Option<(&'static SpanSite, Instant)>,
    traced: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((site, start)) = self.active.take() {
            site.exit(start, self.traced.take());
        }
    }
}

/// A named monotonic counter callsite. Declare as a `static`.
pub struct CounterSite {
    name: &'static str,
    cat: &'static str,
    registered: AtomicBool,
    pub(crate) value: AtomicU64,
}

impl CounterSite {
    /// A new counter under `cat` named `name`.
    pub const fn new(cat: &'static str, name: &'static str) -> Self {
        CounterSite {
            name,
            cat,
            registered: AtomicBool::new(false),
            value: AtomicU64::new(0),
        }
    }

    /// Counter name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Counter category (layer).
    pub fn cat(&self) -> &'static str {
        self.cat
    }

    /// Add `n`. When disabled: one relaxed load, nothing else.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.add_enabled(n);
    }

    /// Add 1 (subject to the enable flag, like [`CounterSite::add`]).
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    #[cold]
    fn add_enabled(&'static self, n: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&REGISTRY.counters).push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named instantaneous-value callsite: a signed level its owner
/// `set`s to an absolute reading (the `Auto` rule's footprint and L2
/// share, the exemplar store's group count). Declare as a `static`;
/// self-registers like [`SpanSite`] on first use while enabled, and
/// the disabled path is one relaxed load.
///
/// A gauge is process-global, so it holds one owner's level, read
/// whole: it only observes `set`s made while instrumentation is
/// enabled, and a level that moved while disabled is re-synced the
/// next time its owner calls `set`. State with several owners (a
/// serve engine's queue, store and caches) is reported from each
/// owner's own snapshot instead.
pub struct GaugeSite {
    name: &'static str,
    cat: &'static str,
    registered: AtomicBool,
    pub(crate) value: AtomicI64,
}

impl GaugeSite {
    /// A new gauge under `cat` named `name`.
    pub const fn new(cat: &'static str, name: &'static str) -> Self {
        GaugeSite {
            name,
            cat,
            registered: AtomicBool::new(false),
            value: AtomicI64::new(0),
        }
    }

    /// Gauge name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Gauge category (layer).
    pub fn cat(&self) -> &'static str {
        self.cat
    }

    /// Set the absolute level. When disabled: one relaxed load only.
    #[inline]
    pub fn set(&'static self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.set_enabled(v);
    }

    #[cold]
    fn set_enabled(&'static self, v: i64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&REGISTRY.gauges).push(self);
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPAN: SpanSite = SpanSite::new("test", "test.span");
    static CTR: CounterSite = CounterSite::new("test", "test.ctr");
    static GAUGE: GaugeSite = GaugeSite::new("test", "test.gauge");

    #[test]
    fn gauge_records_only_while_enabled() {
        let _l = crate::test_lock();
        crate::disable();
        crate::reset();
        GAUGE.set(7);
        assert_eq!(GAUGE.value(), 0, "disabled gauge must not move");

        crate::enable_with_capacity(16);
        GAUGE.set(10);
        assert_eq!(GAUGE.value(), 10);
        assert!(
            crate::gauge_stats()
                .iter()
                .any(|g| g.name == "test.gauge" && g.value == 10),
            "gauge must self-register on first enabled use"
        );
        crate::disable();
        crate::reset();
        assert_eq!(GAUGE.value(), 0);
    }

    #[test]
    fn sites_record_only_while_enabled() {
        let _l = crate::test_lock();
        crate::disable();
        crate::reset();
        drop(SPAN.enter());
        CTR.incr();
        assert_eq!(SPAN.totals().0, 0);
        assert_eq!(CTR.value(), 0);

        crate::enable_with_capacity(16);
        {
            let _g = SPAN.enter();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        CTR.add(3);
        crate::disable();

        let (count, total, max) = SPAN.totals();
        assert_eq!(count, 1);
        assert!(total >= 1_000_000, "slept ≥1ms: {total}ns");
        assert_eq!(max, total);
        assert_eq!(CTR.value(), 3);
        let ev = crate::trace_events();
        assert!(
            ev.iter()
                .any(|e| e.name == "test.span" && e.dur_ns >= 1_000_000),
            "{ev:?}"
        );
        crate::reset();
        assert_eq!(SPAN.totals(), (0, 0, 0));
        assert_eq!(CTR.value(), 0);
    }
}
