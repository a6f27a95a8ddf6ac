//! Harness spans: one per call into a layer's public function,
//! recorded from the benchmark's own code (spans inside the program
//! are a later change). Kept in memory, written as a Chrome trace
//! when the run ends.
//!
//! Every harness call happens on the driving thread, so the tracer is
//! a thread-local; when it is off (`--trace 0`, where the end-to-end
//! numbers come from) entering a span is one branch.

use crate::json;
use std::cell::RefCell;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped. Bounds the
/// trace file (≈100 B per span) on the request-rate workload.
const MAX_SPANS: usize = 250_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`; the layer is the text before the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one op.
    pub op_id: u64,
    /// Chrome-trace track: 0 for sequential ops, the window slot for
    /// overlapping requests.
    pub track: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open stacked spans, innermost last.
    stack: Vec<usize>,
    next_op: u64,
    dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        next_op: 0,
        dropped: 0,
    });
}

/// Closes its span when dropped.
pub struct Guard {
    idx: Option<usize>,
    stacked: bool,
}

impl Guard {
    /// What entering a span returns while the tracer is off.
    const OFF: Guard = Guard {
        idx: None,
        stacked: false,
    };
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[idx].end_ns = t.epoch.elapsed().as_nanos() as u64;
            if self.stacked {
                let top = t.stack.pop();
                debug_assert_eq!(top, Some(idx), "span guards dropped out of order");
            }
        });
    }
}

impl Tracer {
    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        track: u32,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
            track,
        });
        Some(self.spans.len() - 1)
    }

    /// [`Tracer::push`] onto the stack of open spans.
    fn push_stacked(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        track: u32,
    ) -> Guard {
        let idx = self.push(name, parent, op_id, track);
        self.stack.extend(idx);
        Guard {
            idx,
            stacked: idx.is_some(),
        }
    }
}

/// Switch span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// A top-level span that starts a new op (fresh `op_id`).
pub fn op(name: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Guard::OFF;
        }
        t.next_op += 1;
        let op_id = t.next_op;
        t.push_stacked(name, None, op_id, 0)
    })
}

/// A span around one call into a layer, child of the innermost open
/// span and part of its op.
pub fn enter(name: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Guard::OFF;
        }
        let parent = t.stack.last().copied();
        let op_id = parent.map_or(0, |p| t.spans[p].op_id);
        let track = parent.map_or(0, |p| t.spans[p].track);
        t.push_stacked(name, parent, op_id, track)
    })
}

/// Open the span of a request that overlaps others in time (closed
/// loop with a window): a new op on its own `track`, not stacked, so
/// it stays open until [`close`]. Children attach via [`enter_under`].
pub fn open(name: &'static str, track: u32) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        t.next_op += 1;
        let op_id = t.next_op;
        t.push(name, None, op_id, track)
    })
}

/// A child span of the request span `parent` (from [`open`]).
pub fn enter_under(parent: Option<usize>, name: &'static str) -> Guard {
    let Some(p) = parent else {
        return Guard::OFF;
    };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (op_id, track) = (t.spans[p].op_id, t.spans[p].track);
        let idx = t.push(name, Some(p), op_id, track);
        Guard {
            idx,
            stacked: false,
        }
    })
}

/// Close a request span from [`open`].
pub fn close(id: Option<usize>) {
    let Some(idx) = id else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans[idx].end_ns = t.epoch.elapsed().as_nanos() as u64;
    });
}

/// Take every recorded span (and the count dropped for lack of room),
/// leaving the tracer empty.
pub fn take() -> (Vec<Span>, u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "take() with spans still open");
        let dropped = std::mem::take(&mut t.dropped);
        (std::mem::take(&mut t.spans), dropped)
    })
}

/// Self time of each span: its duration minus the part of its
/// interval that its child spans cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Spans that break the trace's shape: a child not inside its parent's
/// interval, or not sharing its `op_id`. Zero for a well-formed trace.
pub fn nesting_violations(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|s| {
            s.parent.is_some_and(|p| {
                let parent = &spans[p];
                s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.op_id != parent.op_id
            })
        })
        .count()
}

/// Total self time per layer, descending — the budget view of a trace.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_layer: Vec<(&'static str, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some(slot) => slot.1 += ns,
            None => by_layer.push((s.layer(), ns)),
        }
    }
    by_layer.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    by_layer
}

/// The spans as a Chrome / Perfetto trace (`ph: "X"` complete events,
/// microseconds; `args` carry `op_id`, `parent` and `self_us`).
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(i, (s, self_ns))| {
            let mut args = vec![
                ("span", json::number(i as f64)),
                ("op_id", json::number(s.op_id as f64)),
                ("self_us", json::number(self_ns as f64 / 1e3)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", json::number(p as f64)));
            }
            json::object([
                ("name", json::quote(s.name)),
                ("cat", json::quote(s.layer())),
                ("ph", json::quote("X")),
                ("ts", json::number(s.start_ns as f64 / 1e3)),
                ("dur", json::number((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", json::number(1.0)),
                ("tid", json::number(f64::from(s.track))),
                ("args", json::object(args)),
            ])
        });
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        events.collect::<Vec<_>>().join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
            track: 0,
        }
    }

    #[test]
    fn self_time_nested_and_sibling() {
        let spans = vec![
            span("op.x", 0, 100, None),
            span("plan.a", 10, 40, Some(0)),  // sibling 1
            span("plan.b", 50, 90, Some(0)),  // sibling 2
            span("core.c", 55, 70, Some(2)),  // nested in b
            span("core.d", 60, 80, Some(2)),  // overlaps c inside b
            span("plan.e", 95, 120, Some(0)), // runs past its parent
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 30 - 40 - 5);
        assert_eq!(st[1], 30);
        assert_eq!(st[2], 40 - 25, "children 55..70 and 60..80 cover 25");
        assert_eq!(st[3], 15);
        assert_eq!(st[4], 20);
        assert_eq!(st[5], 25);
        let layers = self_time_by_layer(&spans);
        assert_eq!(layers[0], ("plan", 30 + 15 + 25));
        assert_eq!(layers[1], ("core", 35));
        assert_eq!(layers[2], ("op", 25));
    }

    #[test]
    fn guards_nest_and_share_op_ids() {
        set_enabled(true);
        {
            let _op = op("op.test");
            let _a = enter("plan.outer");
            {
                let _b = enter("core.inner");
            }
        }
        let req = open("serve.request", 3);
        {
            let _s = enter_under(req, "serve.try_submit");
        }
        close(req);
        set_enabled(false);
        {
            let _ignored = op("op.off");
        }
        let (spans, dropped) = take();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[..3].iter().all(|s| s.op_id == spans[0].op_id));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].op_id, spans[3].op_id);
        assert_ne!(spans[3].op_id, spans[0].op_id);
        assert_eq!(spans[4].track, 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(nesting_violations(&spans), 0);
        let mut broken = spans.clone();
        broken[2].op_id += 1;
        broken[4].end_ns = broken[3].end_ns + 1;
        assert_eq!(nesting_violations(&broken), 2);
        let trace = chrome_trace(&spans);
        assert!(trace.contains("\"traceEvents\""));
        assert_eq!(trace.matches("\"ph\": \"X\"").count(), 5);
    }
}
