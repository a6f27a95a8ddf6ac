//! Bounded ring-buffer event log behind the trace exporters.
//!
//! Completed spans push one [`TraceEvent`] here. The buffer is
//! preallocated by [`crate::enable`]; once full it overwrites its
//! oldest entry and counts the overwrite, so tracing a long run costs
//! bounded memory and keeps the most recent window.

use std::sync::Mutex;

/// What one [`TraceEvent`] represents in the Chrome trace model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (`ph:"X"`).
    Complete,
    /// The sending half of a cross-thread flow link (`ph:"s"`).
    FlowStart,
    /// The receiving half of a cross-thread flow link (`ph:"f"`).
    FlowEnd,
}

/// One completed span occurrence (or flow-link half), on the
/// [`crate::now_ns`] clock.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Span name (e.g. `plan.numeric`).
    pub name: &'static str,
    /// Span category/layer (e.g. `plan`).
    pub cat: &'static str,
    /// Thread id from [`crate::current_tid`].
    pub tid: u64,
    /// Span start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Request trace this event belongs to
    /// ([`crate::TraceCtx::trace_id`]); 0 for events recorded outside
    /// any request scope.
    pub trace_id: u64,
    /// Process-unique id of this span (or flow link); 0 when
    /// untraced.
    pub span_id: u64,
    /// Span id of the enclosing traced span at emit time; 0 for trace
    /// roots and untraced events.
    pub parent_id: u64,
    /// Complete span vs flow-link half.
    pub kind: EventKind,
}

impl TraceEvent {
    /// A complete event with no request context (the shape every
    /// span recorded outside a [`crate::ctx_scope`] takes).
    pub const fn untraced(
        name: &'static str,
        cat: &'static str,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> Self {
        TraceEvent {
            name,
            cat,
            tid,
            start_ns,
            dur_ns,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            kind: EventKind::Complete,
        }
    }
}

struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next slot to overwrite once `buf.len() == cap`.
    next: usize,
    overwritten: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: Vec::new(),
    cap: 0,
    next: 0,
    overwritten: 0,
});

/// Recovers from poisoning: every critical section leaves a whole ring.
fn lock() -> std::sync::MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocate the ring if it has no capacity yet (keeps an existing
/// allocation and its contents).
pub(crate) fn provision(capacity: usize) {
    let mut r = lock();
    if r.cap == 0 && capacity > 0 {
        r.cap = capacity;
        r.buf.reserve_exact(capacity);
    }
}

pub(crate) fn push(ev: TraceEvent) {
    let mut r = lock();
    if r.cap == 0 {
        r.overwritten += 1;
        return;
    }
    if r.buf.len() < r.cap {
        r.buf.push(ev);
    } else {
        let i = r.next;
        r.buf[i] = ev;
        r.next = (i + 1) % r.cap;
        r.overwritten += 1;
    }
}

pub(crate) fn clear() {
    let mut r = lock();
    r.buf.clear();
    r.next = 0;
    r.overwritten = 0;
}

/// The retained trace events, oldest first (spans are logged on
/// exit, so the order is by span *end* time).
pub fn trace_events() -> Vec<TraceEvent> {
    let r = lock();
    if r.buf.len() < r.cap || r.next == 0 {
        r.buf.clone()
    } else {
        let mut out = Vec::with_capacity(r.buf.len());
        out.extend_from_slice(&r.buf[r.next..]);
        out.extend_from_slice(&r.buf[..r.next]);
        out
    }
}

/// Events evicted (or discarded for lack of a provisioned ring) since
/// the last [`crate::reset`].
pub fn trace_overwritten() -> u64 {
    lock().overwritten
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start_ns: u64) -> TraceEvent {
        TraceEvent::untraced("t", "test", 1, start_ns, 1)
    }

    #[test]
    fn wraps_oldest_first() {
        // the ring is process-global: serialize against other tests
        let _l = crate::test_lock();
        crate::disable();
        clear();
        let mut r = lock();
        if r.cap == 0 {
            r.cap = 4;
            r.buf.reserve_exact(4);
        }
        let cap = r.cap;
        drop(r);
        for i in 0..(cap as u64 + 2) {
            push(ev(i));
        }
        let got = trace_events();
        assert_eq!(got.len(), cap);
        let starts: Vec<u64> = got.iter().map(|e| e.start_ns).collect();
        let expect: Vec<u64> = (2..cap as u64 + 2).collect();
        assert_eq!(starts, expect, "oldest entries were overwritten");
        assert_eq!(trace_overwritten(), 2);
        clear();
        assert!(trace_events().is_empty());
    }
}
