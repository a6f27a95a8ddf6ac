//! The zero-overhead-when-disabled proof for the instrumentation
//! layer: with the enable flag off, span enter/exit and counter adds
//! perform **zero** heap allocations. (The
//! time bound on the same fast path — one relaxed atomic load — is
//! `spgemm-obs --smoke`'s, a gated stamp rather than a `cargo test`
//! thread on a shared runner.)
//!
//! Same counting-`#[global_allocator]` technique as the plan layer's
//! `plan_zero_alloc.rs`: per-thread tallies, so the strict zero
//! assertion is immune to the harness running tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // const-init + no Drop: the TLS slot itself never allocates, so
    // the allocator hooks cannot recurse.
    static LOCAL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by the *calling* thread so far.
fn allocations() -> u64 {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

static SPAN: spgemm_obs::SpanSite = spgemm_obs::SpanSite::new("test", "test.disabled");
static CTR: spgemm_obs::CounterSite = spgemm_obs::CounterSite::new("test", "test.ctr");

#[test]
fn disabled_instrumentation_allocates_nothing() {
    assert!(!spgemm_obs::enabled(), "tests must start disabled");
    // Touch the thread-id TLS and warm every path once before
    // counting (first `current_tid` would be counted otherwise; the
    // disabled path never reaches it, but keep the accounting clean).
    let _ = spgemm_obs::current_tid();
    drop(SPAN.enter());

    let iters = 200_000u64;
    let before = allocations();
    for i in 0..iters {
        let _g = SPAN.enter();
        CTR.add(i);
        let _h = spgemm_obs::span!("test", "test.inline");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled span/counter path must not allocate"
    );
    // ...and must not have recorded anything either
    assert_eq!(SPAN.totals(), (0, 0, 0));
    assert_eq!(CTR.value(), 0);
}

#[test]
fn disabled_trace_ctx_propagation_allocates_nothing() {
    assert!(!spgemm_obs::enabled(), "tests must start disabled");
    // warm the thread-id and ctx TLS slots before counting
    let _ = spgemm_obs::current_tid();
    drop(spgemm_obs::ctx_scope(spgemm_obs::TraceCtx::INERT));

    let iters = 200_000u64;
    let before = allocations();
    for _ in 0..iters {
        // the full per-request propagation surface: root, scope
        // install, span under scope, flow out/accept, batch link,
        // finish
        let ctx = spgemm_obs::TraceCtx::root();
        let _scope = spgemm_obs::ctx_scope(ctx);
        let _g = SPAN.enter();
        let link = spgemm_obs::flow_out("test.hop");
        link.accept("test.hop");
        ctx.link_to(&ctx, "test.member");
        spgemm_obs::finish_request(ctx, "test", 1, 1);
        assert!(!ctx.is_active());
        assert!(!link.is_active());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled TraceCtx propagation must not allocate"
    );
    assert_eq!(SPAN.totals(), (0, 0, 0));
    assert!(spgemm_obs::exemplars().is_empty());
    assert_eq!(spgemm_obs::trace_unsampled(), 0);
}
