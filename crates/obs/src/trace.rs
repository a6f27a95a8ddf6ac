//! Request-scoped causal tracing: [`TraceCtx`] propagation,
//! cross-thread flow links, and the bounded tail-sampling exemplar
//! store.
//!
//! A request acquires a [`TraceCtx`] at its entry point
//! ([`TraceCtx::root`]), carries it across thread boundaries by value
//! (it is `Copy` and inert when collection is disabled), and installs
//! it on whatever thread currently works on the request with
//! [`ctx_scope`]. While a scope is installed, every [`crate::span!`]
//! callsite on that thread automatically joins the request's trace:
//! a span id is allocated per occurrence and parented to the
//! innermost open traced span, so the span *tree* falls out of
//! ordinary lexical nesting with no change at the callsites.
//!
//! Thread hops are stitched with flow links — [`flow_out`] on the
//! sending side, [`FlowLink::accept`] on the receiving side — which
//! export as Chrome flow events (`ph:"s"`/`ph:"f"`) so Perfetto draws
//! arrows between the threads of one request. Batching, where one
//! unit of work serves several requests, is linked with
//! [`TraceCtx::link_to`] (one flow edge per absorbed member).
//!
//! Traced events are recorded twice: into the global ring (like every
//! span) and into a fixed slot of the **active-trace table**. The
//! record path is lock-free — the writer registers its presence,
//! validates slot ownership, claims a buffer index with one
//! `fetch_add`, writes the event, and publishes it with a release
//! increment; harvest and slot recycling wait out registered writers
//! before touching the buffer. When the request finishes, [`finish_request`]
//! harvests the slot into the per-group (per-tenant) **exemplar
//! store** if the request ranks among the [`EXEMPLARS_PER_GROUP`]
//! slowest of the current window (overwrite-fastest), then frees the
//! slot. All buffers are preallocated by [`crate::enable`]; the
//! steady-state trace path never allocates.

use crate::ring::{self, EventKind, TraceEvent};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Concurrently-open traced requests the active table can hold.
/// Roots opened beyond this still trace into the ring, but cannot be
/// exemplar-sampled (counted by [`trace_unsampled`]).
pub const MAX_ACTIVE_TRACES: usize = 32;

/// Events retained per trace; later events are counted as dropped
/// ([`ExemplarTrace::dropped`]).
pub const MAX_TRACE_SPANS: usize = 512;

/// Slowest-request exemplars retained per group per window.
pub const EXEMPLARS_PER_GROUP: usize = 4;

/// Distinct exemplar groups (tenant labels). Requests finishing under
/// further labels release their trace without being retained.
pub const MAX_EXEMPLAR_GROUPS: usize = 64;

const NO_SLOT: u32 = u32::MAX;
/// Slot-ownership sentinel for a slot being initialized or harvested
/// (trace ids start at 1 and can never reach this).
const FINISHING: u64 = u64::MAX;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static UNSAMPLED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT: Cell<TraceCtx> = const { Cell::new(TraceCtx::INERT) };
}

/// Request identity carried across layers and threads: a 64-bit trace
/// id plus the id of the innermost open span on the propagating path.
///
/// `Copy` and 16 bytes — cheap enough to stash in jobs and channel
/// messages unconditionally. When collection is disabled (or the
/// context came from [`TraceCtx::INERT`]) every operation on it is a
/// no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    trace_id: u64,
    span_id: u64,
    slot: u32,
}

impl TraceCtx {
    /// The inactive context: propagating it costs nothing and records
    /// nothing.
    pub const INERT: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
        slot: NO_SLOT,
    };

    /// Open a new trace for a request entering the system.
    ///
    /// When collection is disabled this is a single relaxed atomic
    /// load returning [`TraceCtx::INERT`] — no allocation, no clock
    /// read, no id draw.
    #[inline]
    pub fn root() -> TraceCtx {
        if !crate::enabled() {
            return TraceCtx::INERT;
        }
        root_enabled()
    }

    /// Whether this context belongs to a live trace.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// The trace id (0 when inert). Matches
    /// [`TraceEvent::trace_id`] on every event of the trace.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Emit a causal edge from this context's trace into `to`'s trace
    /// — used when one unit of work absorbs another request, e.g. a
    /// batch leader executing on behalf of its members. Records a
    /// [`EventKind::FlowStart`] in `self`'s trace and a matching
    /// [`EventKind::FlowEnd`] (same flow id) in `to`'s trace. No-op
    /// if either side is inert.
    pub fn link_to(&self, to: &TraceCtx, name: &'static str) {
        if !self.is_active() || !to.is_active() {
            return;
        }
        let flow_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let tid = crate::current_tid();
        let now = crate::now_ns();
        sink(
            *self,
            TraceEvent {
                name,
                cat: "flow",
                tid,
                start_ns: now,
                dur_ns: 0,
                trace_id: self.trace_id,
                span_id: flow_id,
                parent_id: self.span_id,
                kind: EventKind::FlowStart,
            },
        );
        sink(
            *to,
            TraceEvent {
                name,
                cat: "flow",
                tid,
                start_ns: now,
                dur_ns: 0,
                trace_id: to.trace_id,
                span_id: flow_id,
                parent_id: to.span_id,
                kind: EventKind::FlowEnd,
            },
        );
    }
}

#[cold]
fn root_enabled() -> TraceCtx {
    let trace_id = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let mut slot = NO_SLOT;
    if let Some(table) = TABLE.get() {
        for (i, s) in table.iter().enumerate() {
            if s.trace_id
                .compare_exchange(0, FINISHING, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // Late writers of the previous generation may still be
                // between their presence announcement and the
                // ownership check (they will fail it and bail); drain
                // them before resetting the write cursor so none can
                // claim a pre-reset index.
                quiesce(s);
                s.widx.store(0, Ordering::Relaxed);
                s.published.store(0, Ordering::Relaxed);
                s.dropped.store(0, Ordering::Relaxed);
                s.root_span_id.store(span_id, Ordering::Relaxed);
                s.origin_tid.store(crate::current_tid(), Ordering::Relaxed);
                s.start_ns.store(crate::now_ns(), Ordering::Relaxed);
                // Publish ownership last: writers check `trace_id`
                // before touching the buffer.
                s.trace_id.store(trace_id, Ordering::Release);
                slot = i as u32;
                break;
            }
        }
    }
    if slot == NO_SLOT {
        UNSAMPLED.fetch_add(1, Ordering::Relaxed);
    }
    TraceCtx {
        trace_id,
        span_id,
        slot,
    }
}

/// Install `ctx` as the calling thread's current trace context for
/// the guard's lifetime; the previous context is restored on drop.
/// Every `span!` entered (and every [`flow_out`]) on this thread
/// while the scope is live joins `ctx`'s trace.
#[inline]
pub fn ctx_scope(ctx: TraceCtx) -> CtxScope {
    CtxScope {
        prev: CURRENT.with(|c| c.replace(ctx)),
    }
}

/// RAII guard returned by [`ctx_scope`].
#[must_use = "dropping the scope immediately uninstalls the context"]
pub struct CtxScope {
    prev: TraceCtx,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// The calling thread's current trace context ([`TraceCtx::INERT`]
/// outside any [`ctx_scope`]).
#[inline]
pub fn current_ctx() -> TraceCtx {
    CURRENT.with(Cell::get)
}

/// An open traced span occurrence: what the span site needs to
/// restore and stamp at exit.
pub(crate) struct OpenSpan {
    parent: TraceCtx,
    span_id: u64,
}

/// Called by `SpanSite::enter` on the enabled path: if the thread has
/// an active context, allocate a span id and make it the current
/// parent for spans nested below.
pub(crate) fn begin_span() -> Option<OpenSpan> {
    let parent = current_ctx();
    if !parent.is_active() {
        return None;
    }
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    CURRENT.with(|c| c.set(TraceCtx { span_id, ..parent }));
    Some(OpenSpan { parent, span_id })
}

/// Close an open traced span: restore the parent context, stamp the
/// trace/span/parent ids onto `ev`, and record it (ring + slot).
pub(crate) fn end_span(open: OpenSpan, mut ev: TraceEvent) {
    CURRENT.with(|c| c.set(open.parent));
    ev.trace_id = open.parent.trace_id;
    ev.span_id = open.span_id;
    ev.parent_id = open.parent.span_id;
    sink(open.parent, ev);
}

/// One half of a cross-thread causal edge. Created on the sending
/// thread by [`flow_out`], shipped with the message (it is `Copy`),
/// and closed on the receiving thread with [`FlowLink::accept`].
/// Inert links are free to ship and accept.
#[derive(Clone, Copy, Debug)]
pub struct FlowLink {
    trace_id: u64,
    flow_id: u64,
    slot: u32,
}

impl FlowLink {
    /// The inactive link: [`FlowLink::accept`] on it is a no-op.
    pub const INERT: FlowLink = FlowLink {
        trace_id: 0,
        flow_id: 0,
        slot: NO_SLOT,
    };

    /// Whether this link belongs to a live trace.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// Record the receiving half (`ph:"f"`) on the calling thread.
    /// The event is parented to the thread's current span when it
    /// already runs under the same trace (e.g. inside a gather span).
    pub fn accept(self, name: &'static str) {
        if !self.is_active() {
            return;
        }
        let here = current_ctx();
        let parent = if here.trace_id == self.trace_id {
            here.span_id
        } else {
            0
        };
        sink(
            TraceCtx {
                trace_id: self.trace_id,
                span_id: 0,
                slot: self.slot,
            },
            TraceEvent {
                name,
                cat: "flow",
                tid: crate::current_tid(),
                start_ns: crate::now_ns(),
                dur_ns: 0,
                trace_id: self.trace_id,
                span_id: self.flow_id,
                parent_id: parent,
                kind: EventKind::FlowEnd,
            },
        );
    }
}

/// Record the sending half (`ph:"s"`) of a cross-thread edge against
/// the calling thread's current context. Ship the returned link with
/// the message and [`FlowLink::accept`] it on the receiving thread.
/// Free (one TLS read) when the thread has no active context.
#[inline]
pub fn flow_out(name: &'static str) -> FlowLink {
    let ctx = current_ctx();
    if !ctx.is_active() {
        return FlowLink::INERT;
    }
    flow_out_enabled(ctx, name)
}

#[cold]
fn flow_out_enabled(ctx: TraceCtx, name: &'static str) -> FlowLink {
    let flow_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    sink(
        ctx,
        TraceEvent {
            name,
            cat: "flow",
            tid: crate::current_tid(),
            start_ns: crate::now_ns(),
            dur_ns: 0,
            trace_id: ctx.trace_id,
            span_id: flow_id,
            parent_id: ctx.span_id,
            kind: EventKind::FlowStart,
        },
    );
    FlowLink {
        trace_id: ctx.trace_id,
        flow_id,
        slot: ctx.slot,
    }
}

// ---------------------------------------------------------------------------
// Active-trace slot table (lock-free record path)
// ---------------------------------------------------------------------------

struct SlotCell(UnsafeCell<TraceEvent>);

// SAFETY: each cell is written only by the unique claimant of its
// index (handed out by `widx.fetch_add`) within one slot generation.
// Index uniqueness across generations holds because `widx` is only
// reset (and the buffer only read back) while `writers` is zero:
// every writer registers in `writers` *before* validating slot
// ownership, and both `finish_request` and `root_enabled` first move
// `trace_id` off the writers' expected value and then drain
// `writers` (see `quiesce`) before touching `widx` or `buf`.
unsafe impl Sync for SlotCell {}

struct ActiveSlot {
    /// 0 = free, [`FINISHING`] = being initialized/harvested, else
    /// the owning trace id.
    trace_id: AtomicU64,
    /// Writers currently between their presence announcement in
    /// [`record_slot`] and the end of their write (or their bail-out).
    /// Harvest and recycle drain this to zero before touching the
    /// buffer, so no stale writer can hold a pre-reset index across a
    /// generation change.
    writers: AtomicU32,
    /// Next buffer index to claim (may exceed the buffer length).
    widx: AtomicU32,
    /// Cells fully written (release-incremented after each write).
    published: AtomicU32,
    /// Events lost to buffer exhaustion.
    dropped: AtomicU32,
    root_span_id: AtomicU64,
    origin_tid: AtomicU64,
    start_ns: AtomicU64,
    buf: Box<[SlotCell]>,
}

static TABLE: OnceLock<Vec<ActiveSlot>> = OnceLock::new();

const INERT_EVENT: TraceEvent = TraceEvent::untraced("", "", 0, 0, 0);

/// Preallocate the active-trace table (idempotent; called by
/// [`crate::enable`]).
pub(crate) fn provision() {
    TABLE.get_or_init(|| {
        (0..MAX_ACTIVE_TRACES)
            .map(|_| ActiveSlot {
                trace_id: AtomicU64::new(0),
                writers: AtomicU32::new(0),
                widx: AtomicU32::new(0),
                published: AtomicU32::new(0),
                dropped: AtomicU32::new(0),
                root_span_id: AtomicU64::new(0),
                origin_tid: AtomicU64::new(0),
                start_ns: AtomicU64::new(0),
                buf: (0..MAX_TRACE_SPANS)
                    .map(|_| SlotCell(UnsafeCell::new(INERT_EVENT)))
                    .collect(),
            })
            .collect()
    });
}

/// Record `ev` into the global ring and, when `ctx` is slot-sampled,
/// into the trace's active slot.
fn sink(ctx: TraceCtx, ev: TraceEvent) {
    ring::push(ev);
    record_slot(ctx, ev);
}

fn record_slot(ctx: TraceCtx, ev: TraceEvent) {
    if ctx.slot == NO_SLOT {
        return;
    }
    let Some(table) = TABLE.get() else { return };
    let Some(slot) = table.get(ctx.slot as usize) else {
        return;
    };
    // Announce presence *before* validating ownership. Both sides are
    // SeqCst to close the store-buffer window against the harvester's
    // `trace_id` CAS + `writers` drain (`quiesce`): in the single
    // total order either this load sees the CAS'd-away `trace_id`
    // (and we bail), or the harvester's drain sees our increment (and
    // waits for the write below to complete before touching `buf`).
    slot.writers.fetch_add(1, Ordering::SeqCst);
    if slot.trace_id.load(Ordering::SeqCst) != ctx.trace_id {
        // trace already finished (or slot re-generationed)
        slot.writers.fetch_sub(1, Ordering::Release);
        return;
    }
    let i = slot.widx.fetch_add(1, Ordering::Relaxed) as usize;
    if i >= slot.buf.len() {
        slot.dropped.fetch_add(1, Ordering::Relaxed);
        slot.writers.fetch_sub(1, Ordering::Release);
        return;
    }
    // SAFETY: `fetch_add` hands index `i` to this thread exclusively
    // for this slot generation, and no generation change can happen
    // while we are registered in `writers` (harvest/recycle drain it
    // first), so `i` cannot be handed out again until this write is
    // done. The release decrement below orders the write before any
    // harvester that observes the drained counter.
    unsafe { *slot.buf[i].0.get() = ev };
    slot.published.fetch_add(1, Ordering::Release);
    slot.writers.fetch_sub(1, Ordering::Release);
}

/// Wait until no writer is registered on `slot`. Callers must first
/// move `trace_id` off the value in-flight writers expect (to
/// [`FINISHING`]) with a SeqCst RMW so no *new* writer can pass the
/// ownership check; after the drain, `widx`/`published`/`buf` are
/// quiescent and safe to read or reset.
fn quiesce(slot: &ActiveSlot) {
    let mut spins = 0u32;
    while slot.writers.load(Ordering::SeqCst) != 0 {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------------
// Exemplar store (tail sampling: keep-K-slowest per group per window)
// ---------------------------------------------------------------------------

struct ExemplarSlot {
    /// 0 = empty.
    trace_id: u64,
    total_ns: u64,
    service_ns: u64,
    dropped: u32,
    /// Reused buffer, preallocated to `MAX_TRACE_SPANS + 1` at group
    /// creation so steady-state retention never allocates.
    spans: Vec<TraceEvent>,
}

struct ExemplarStore {
    groups: Vec<(String, Vec<ExemplarSlot>)>,
}

static EXEMPLARS: Mutex<ExemplarStore> = Mutex::new(ExemplarStore { groups: Vec::new() });

/// Distinct exemplar groups currently retained (capped at
/// [`MAX_EXEMPLAR_GROUPS`]); published under the store lock.
static EXEMPLAR_GROUPS: crate::GaugeSite = crate::GaugeSite::new("obs", "obs.exemplar_groups");

/// Recovers from poisoning: a critical section replaces whole exemplars.
fn lock_exemplars() -> MutexGuard<'static, ExemplarStore> {
    EXEMPLARS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The exemplar slot a request with latency `total_ns` should occupy
/// in `group`, if it ranks: an empty slot first, else the fastest
/// retained exemplar — only when the new request is slower.
fn retention_slot<'a>(
    store: &'a mut ExemplarStore,
    group: &str,
    total_ns: u64,
) -> Option<&'a mut ExemplarSlot> {
    let gi = match store.groups.iter().position(|(g, _)| g == group) {
        Some(i) => i,
        None if store.groups.len() < MAX_EXEMPLAR_GROUPS => {
            let slots = (0..EXEMPLARS_PER_GROUP)
                .map(|_| ExemplarSlot {
                    trace_id: 0,
                    total_ns: 0,
                    service_ns: 0,
                    dropped: 0,
                    spans: Vec::with_capacity(MAX_TRACE_SPANS + 1),
                })
                .collect();
            store.groups.push((group.to_string(), slots));
            EXEMPLAR_GROUPS.set(store.groups.len() as i64);
            store.groups.len() - 1
        }
        None => return None, // group cardinality capped
    };
    let slots = &mut store.groups[gi].1;
    if let Some(i) = slots.iter().position(|s| s.trace_id == 0) {
        return Some(&mut slots[i]);
    }
    let fastest = (0..slots.len())
        .min_by_key(|&i| slots[i].total_ns)
        .expect("EXEMPLARS_PER_GROUP > 0");
    if total_ns > slots[fastest].total_ns {
        Some(&mut slots[fastest])
    } else {
        None
    }
}

/// Close a request's trace: harvest its recorded span tree, retain it
/// in `group`'s exemplar set if it ranks among the
/// [`EXEMPLARS_PER_GROUP`] slowest of the current window
/// (overwriting the fastest retained exemplar), synthesize the
/// `request` root envelope span, and free the active slot. Returns
/// whether the trace was retained.
///
/// Callers must invoke this **after** all of the trace's spans have
/// closed (the slot buffer is read back here) and at most once per
/// context; a second call on the same context is a no-op returning
/// `false`, as is any call on an inert or unsampled context.
pub fn finish_request(ctx: TraceCtx, group: &str, total_ns: u64, service_ns: u64) -> bool {
    if !ctx.is_active() || ctx.slot == NO_SLOT {
        return false;
    }
    let Some(table) = TABLE.get() else {
        return false;
    };
    let Some(slot) = table.get(ctx.slot as usize) else {
        return false;
    };
    // Take exclusive finish ownership; fails if already finished (or
    // the slot moved on to another trace).
    if slot
        .trace_id
        .compare_exchange(ctx.trace_id, FINISHING, Ordering::SeqCst, Ordering::Relaxed)
        .is_err()
    {
        return false;
    }
    // The CAS stops new writers at the ownership check; wait out the
    // ones already past it so every claimed in-range index is fully
    // written (and `published` is exact) before the buffer is read.
    quiesce(slot);
    let claimed = (slot.widx.load(Ordering::Relaxed) as usize).min(slot.buf.len());
    let published = slot.published.load(Ordering::Acquire) as usize;
    let n = claimed.min(published);
    let dropped = slot.dropped.load(Ordering::Relaxed);
    let root = TraceEvent {
        name: "request",
        cat: "trace",
        tid: slot.origin_tid.load(Ordering::Relaxed),
        start_ns: slot.start_ns.load(Ordering::Relaxed),
        dur_ns: total_ns,
        trace_id: ctx.trace_id,
        span_id: slot.root_span_id.load(Ordering::Relaxed),
        parent_id: 0,
        kind: EventKind::Complete,
    };
    ring::push(root);
    let retained = {
        let mut store = lock_exemplars();
        match retention_slot(&mut store, group, total_ns) {
            Some(ex) => {
                ex.trace_id = ctx.trace_id;
                ex.total_ns = total_ns;
                ex.service_ns = service_ns;
                ex.dropped = dropped;
                ex.spans.clear();
                for cell in &slot.buf[..n] {
                    // SAFETY: the quiesce above drained every writer
                    // registered against this generation, so all
                    // claimed in-range cells are fully written and no
                    // write is concurrent with this read. The trace-id
                    // filter below is defense in depth against an
                    // event an earlier generation left behind.
                    let ev = unsafe { *cell.0.get() };
                    if ev.trace_id == ctx.trace_id {
                        ex.spans.push(ev);
                    }
                }
                ex.spans.push(root);
                true
            }
            None => false,
        }
    };
    slot.trace_id.store(0, Ordering::Release);
    retained
}

/// A retained exemplar: the complete recorded span tree of one of the
/// slowest requests in its group's current window.
#[derive(Clone, Debug)]
pub struct ExemplarTrace {
    /// The group (tenant label) the request finished under.
    pub group: String,
    /// The trace id ([`TraceCtx::trace_id`]).
    pub trace_id: u64,
    /// End-to-end latency reported at finish, nanoseconds.
    pub total_ns: u64,
    /// Service-time component reported at finish, nanoseconds.
    pub service_ns: u64,
    /// Events that exceeded [`MAX_TRACE_SPANS`] and were not
    /// retained.
    pub dropped: u32,
    /// The recorded events — complete spans plus flow-link halves, in
    /// record order — ending with the synthesized `request` root
    /// span.
    pub spans: Vec<TraceEvent>,
}

impl ExemplarTrace {
    /// Structural well-formedness of the retained span tree: complete
    /// spans have unique ids, exactly one root exists (the `request`
    /// envelope), and every non-root parent id resolves to another
    /// retained complete span. Flow-link halves are exempt from the
    /// tree check (their pair may live in another trace). `Err`
    /// carries a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let complete = || self.spans.iter().filter(|e| e.kind == EventKind::Complete);
        let mut ids = HashSet::new();
        let mut roots = 0usize;
        for e in complete() {
            if !ids.insert(e.span_id) {
                return Err(format!("duplicate span id {} ({})", e.span_id, e.name));
            }
            if e.parent_id == 0 {
                roots += 1;
            }
        }
        if roots != 1 {
            return Err(format!("expected exactly 1 root span, found {roots}"));
        }
        for e in complete() {
            if e.parent_id != 0 && !ids.contains(&e.parent_id) {
                return Err(format!(
                    "span {} ({}) has unresolved parent {}",
                    e.span_id, e.name, e.parent_id
                ));
            }
        }
        Ok(())
    }

    /// Thread ids that recorded at least one event in this trace,
    /// sorted and deduplicated.
    pub fn tids(&self) -> Vec<u64> {
        let mut t: Vec<u64> = self.spans.iter().map(|e| e.tid).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// Every retained exemplar, grouped by label, slowest first within
/// each group.
pub fn exemplars() -> Vec<ExemplarTrace> {
    let store = lock_exemplars();
    let mut out = Vec::new();
    for (group, slots) in &store.groups {
        let mut rows: Vec<&ExemplarSlot> = slots.iter().filter(|s| s.trace_id != 0).collect();
        rows.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
        for s in rows {
            out.push(ExemplarTrace {
                group: group.clone(),
                trace_id: s.trace_id,
                total_ns: s.total_ns,
                service_ns: s.service_ns,
                dropped: s.dropped,
                spans: s.spans.clone(),
            });
        }
    }
    out
}

/// The retained exemplar with `trace_id`, if it is still in the
/// window.
pub fn exemplar_for(trace_id: u64) -> Option<ExemplarTrace> {
    exemplars().into_iter().find(|e| e.trace_id == trace_id)
}

/// Start a new exemplar window: drop every retained exemplar. Group
/// labels and their preallocated buffers are kept, so steady-state
/// window rolls do not allocate. In-flight traces are unaffected.
pub fn roll_exemplar_window() {
    let mut store = lock_exemplars();
    for (_, slots) in store.groups.iter_mut() {
        for s in slots.iter_mut() {
            s.trace_id = 0;
            s.total_ns = 0;
            s.service_ns = 0;
            s.dropped = 0;
            s.spans.clear();
        }
    }
}

/// Traces whose root was opened while every active-trace slot was
/// occupied — they still record into the ring, but could not be
/// exemplar-sampled.
pub fn trace_unsampled() -> u64 {
    UNSAMPLED.load(Ordering::Relaxed)
}

/// Test-support reset: release every slot, drop every exemplar group,
/// and zero the unsampled counter. Id counters keep advancing so
/// traces never collide across resets.
pub(crate) fn reset_all() {
    if let Some(table) = TABLE.get() {
        for s in table {
            // Same protocol as recycling: park the slot, drain any
            // in-flight writers, then reset and free.
            s.trace_id.store(FINISHING, Ordering::SeqCst);
            quiesce(s);
            s.widx.store(0, Ordering::Relaxed);
            s.published.store(0, Ordering::Relaxed);
            s.dropped.store(0, Ordering::Relaxed);
            s.trace_id.store(0, Ordering::Release);
        }
    }
    lock_exemplars().groups.clear();
    EXEMPLAR_GROUPS.set(0);
    UNSAMPLED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_root_is_inert() {
        let _l = crate::test_lock();
        crate::disable();
        let ctx = TraceCtx::root();
        assert!(!ctx.is_active());
        assert_eq!(ctx, TraceCtx::INERT);
        let _scope = ctx_scope(ctx);
        assert!(!current_ctx().is_active());
        let link = flow_out("t");
        assert!(!link.is_active());
        link.accept("t");
        assert!(!finish_request(ctx, "g", 1, 1));
    }

    #[test]
    fn spans_join_trace_and_finish_retains_slowest() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();

        static OUTER: crate::SpanSite = crate::SpanSite::new("test", "trace.outer");
        static INNER: crate::SpanSite = crate::SpanSite::new("test", "trace.inner");

        // (total_ns, retained?): first four fill empty slots, 400
        // overwrites the fastest retained (30), 10 does not rank
        for (total_ns, retained) in [
            (50u64, true),
            (200, true),
            (100, true),
            (30, true),
            (400, true),
            (10, false),
        ] {
            let ctx = TraceCtx::root();
            assert!(ctx.is_active());
            {
                let _scope = ctx_scope(ctx);
                let _o = OUTER.enter();
                let _i = INNER.enter();
            }
            assert_eq!(
                finish_request(ctx, "g", total_ns, total_ns / 2),
                retained,
                "request with total {total_ns}"
            );
            // double-finish is a no-op
            assert!(!finish_request(ctx, "g", total_ns, 0));
        }

        let ex = exemplars();
        assert_eq!(ex.len(), EXEMPLARS_PER_GROUP);
        let totals: Vec<u64> = ex.iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, vec![400, 200, 100, 50], "keep-K-slowest, sorted");
        for e in &ex {
            e.validate().expect("well-formed tree");
            assert_eq!(e.group, "g");
            let names: Vec<&str> = e.spans.iter().map(|s| s.name).collect();
            assert!(names.contains(&"trace.outer"));
            assert!(names.contains(&"trace.inner"));
            assert_eq!(names.last(), Some(&"request"));
            // inner parents to outer, outer to the root envelope
            let root = e.spans.iter().find(|s| s.name == "request").unwrap();
            let outer = e.spans.iter().find(|s| s.name == "trace.outer").unwrap();
            let inner = e.spans.iter().find(|s| s.name == "trace.inner").unwrap();
            assert_eq!(outer.parent_id, root.span_id);
            assert_eq!(inner.parent_id, outer.span_id);
        }
        assert!(exemplar_for(ex[0].trace_id).is_some());
        roll_exemplar_window();
        assert!(exemplars().is_empty());
        crate::reset();
        crate::disable();
    }

    #[test]
    fn concurrent_stale_writers_cannot_pollute_recycled_slots() {
        // Regression for the cross-generation race: writers holding a
        // stale TraceCtx race finish_request's harvest and
        // root_enabled's slot recycling. The writer-drain protocol
        // must keep every harvested event in its own generation (and
        // this test deadlocks if quiesce ever fails to drain).
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let stop = Arc::new(AtomicBool::new(false));
        // currently-open trace, packed as trace_id << 8 | slot
        let current = Arc::new(AtomicU64::new(0));

        let writers: Vec<_> = (0..3)
            .map(|w| {
                let stop = Arc::clone(&stop);
                let current = Arc::clone(&current);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let packed = current.load(Ordering::Relaxed);
                        if packed == 0 {
                            std::hint::spin_loop();
                            continue;
                        }
                        // may be stale by the time it is used — that
                        // is the point
                        let ctx = TraceCtx {
                            trace_id: packed >> 8,
                            span_id: 1,
                            slot: (packed & 0xff) as u32,
                        };
                        sink(
                            ctx,
                            TraceEvent {
                                name: "stale",
                                cat: "race",
                                tid: w as u64,
                                start_ns: 0,
                                dur_ns: 1,
                                trace_id: ctx.trace_id,
                                span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
                                parent_id: 0,
                                kind: EventKind::Complete,
                            },
                        );
                    }
                })
            })
            .collect();

        for i in 0..2000u64 {
            let ctx = TraceCtx::root();
            assert!(ctx.is_active(), "single root at a time always slots");
            current.store((ctx.trace_id << 8) | ctx.slot as u64, Ordering::Relaxed);
            finish_request(ctx, "race", 1000 + i, 1000);
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        for e in exemplars() {
            for s in &e.spans {
                assert_eq!(
                    s.trace_id, e.trace_id,
                    "harvest must never retain another generation's event"
                );
            }
        }
        crate::reset();
        crate::disable();
    }

    #[test]
    fn flow_links_pair_across_scopes() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        let ctx = TraceCtx::root();
        let link = {
            let _scope = ctx_scope(ctx);
            flow_out("hop")
        };
        assert!(link.is_active());
        link.accept("hop");
        assert!(finish_request(ctx, "flows", 1000, 1000));
        let ex = exemplar_for(ctx.trace_id()).expect("retained");
        let starts: Vec<&TraceEvent> = ex
            .spans
            .iter()
            .filter(|e| e.kind == EventKind::FlowStart)
            .collect();
        let ends: Vec<&TraceEvent> = ex
            .spans
            .iter()
            .filter(|e| e.kind == EventKind::FlowEnd)
            .collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(starts[0].span_id, ends[0].span_id, "same flow id");
        ex.validate().expect("flows exempt from tree check");
        crate::reset();
        crate::disable();
    }
}
