//! Steady-state allocation accounting for the plan executor — the
//! acceptance test for the Figure 4 claim: once a [`SpgemmPlan`] and
//! its reused output have warmed up, `execute_into` performs **zero**
//! heap allocations per multiply.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies allocations **per thread**: the strict zero assertion runs
//! on a single-thread pool (inline execution on the test thread, so
//! its thread-local count is exact and immune to the harness running
//! other tests concurrently), and a separate workspace-stats test
//! asserts pool-level reuse at higher thread counts.

use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, PlusTimes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

type P = PlusTimes<f64>;

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

/// A mid-sized banded matrix: every kernel takes its real code path
/// (multi-entry rows, collisions, accumulation).
fn banded(n: usize) -> Csr<f64> {
    let mut trips = Vec::new();
    for i in 0..n {
        for d in [0usize, 1, 3, 7] {
            let j = (i + d) % n;
            trips.push((i, j as ColIdx, 1.0 + (i * 31 + j) as f64 * 0.01));
        }
    }
    Csr::from_triplets(n, n, &trips).unwrap()
}

#[test]
fn execute_into_steady_state_allocates_nothing() {
    let a = banded(256);
    // Inline execution: exact accounting.
    let pool = Pool::new(1);
    // Every planned algorithm but the sequential oracle must reach the
    // allocation-free steady state; a planned Heap or Inspector is
    // two-phase from its bind like the rest.
    for (algo, order) in [
        (Algorithm::Hash, OutputOrder::Sorted),
        (Algorithm::Hash, OutputOrder::Unsorted),
        (Algorithm::HashVec, OutputOrder::Sorted),
        // The dense accumulator (`Auto` resolves to it here, at bind):
        // the bind's symbolic pass writes the column pattern — walking
        // the ten-entry sorted rows out of the bitmap — and every pass
        // after it, the ten measured ones included, is a replay on the
        // accumulators that pass built (asserted below).
        (Algorithm::Spa, OutputOrder::Sorted),
        (Algorithm::Auto, OutputOrder::Sorted),
        (Algorithm::Spa, OutputOrder::Unsorted),
        (Algorithm::Auto, OutputOrder::Unsorted),
        (Algorithm::Merge, OutputOrder::Sorted),
        (Algorithm::KkHash, OutputOrder::Sorted),
        (Algorithm::Ikj, OutputOrder::Sorted),
        (Algorithm::Heap, OutputOrder::Sorted),
        (Algorithm::Inspector, OutputOrder::Unsorted),
        (Algorithm::Inspector, OutputOrder::Sorted),
        // 256 columns < 2^16: the bucketed passes run over the
        // u16-compressed column-index copies.
        (Algorithm::RowClass, OutputOrder::Sorted),
        (Algorithm::RowClass, OutputOrder::Unsorted),
    ] {
        let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).unwrap();
        let mut c = Csr::<f64>::zero(0, 0);
        // Warm-up: size the output buffers and the pooled accumulators.
        for _ in 0..3 {
            plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
        }
        let nnz = c.nnz();
        assert!(nnz > 0);
        let replays = plan.algorithm() == Algorithm::Spa;
        assert_eq!(plan.replays(), replays, "{algo} {order:?}");
        let warm = plan.workspace_stats();

        let before = allocations();
        for _ in 0..10 {
            plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
        }
        let after = allocations();
        let now = plan.workspace_stats();
        assert_eq!(
            (now.created, now.reused),
            (warm.created, warm.reused + 10),
            "{algo} {order:?}: one pooled accumulator, reused by every pass"
        );
        assert_eq!(plan.replays(), replays, "{algo} {order:?}");
        assert_eq!(
            after - before,
            0,
            "{algo} {order:?}: steady-state execute_into must not allocate"
        );
        assert_eq!(c.nnz(), nnz, "{algo} {order:?}: result drifted");
    }
}

/// A matrix whose rows land in all four row classes of
/// [`spgemm::kgen`]: every entry points at a 4-entry row, so a row
/// with `e` entries costs exactly `4e` flops — 1 entry → tiny (4),
/// 4 → short (16), 10 → medium (40), 80 → dense (320 ≥
/// `dense_cutoff(512)` = 128).
fn all_classes(n: usize) -> Csr<f64> {
    assert_eq!(n, 512);
    let mut trips = Vec::new();
    for i in 0..n {
        let entries = match i % 4 {
            0 => 1,
            1 => 4,
            2 => 10,
            _ => 80,
        };
        for t in 0..entries {
            // columns drawn from the rows with 4 entries (i % 4 == 1)
            let j = ((i / 4 + t) % (n / 4)) * 4 + 1;
            trips.push((i, j as ColIdx, 1.0 + (i * 7 + t) as f64 * 0.01));
        }
    }
    Csr::from_triplets(n, n, &trips).unwrap()
}

/// RowClass steady state with every class queue occupied: the
/// insertion array, the clamped hash table, and the dense SPA (whose
/// sorted rows are walked out of its bitmap) all reach the
/// allocation-free regime together.
#[test]
fn rowclass_all_classes_steady_state_allocates_nothing() {
    let a = all_classes(512);
    let occ = spgemm::kgen::bucket_occupancy(&a, &a);
    assert!(
        occ.iter().all(|&c| c > 0),
        "fixture must occupy all four classes, got {occ:?}"
    );
    let pool = Pool::new(1);
    for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
        let plan = SpgemmPlan::<P>::new_in(&a, &a, Algorithm::RowClass, order, &pool).unwrap();
        let mut c = Csr::<f64>::zero(0, 0);
        for _ in 0..3 {
            plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
        }
        let nnz = c.nnz();
        let before = allocations();
        for _ in 0..10 {
            plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
        }
        assert_eq!(
            allocations() - before,
            0,
            "RowClass {order:?}: steady-state execute_into must not allocate"
        );
        assert_eq!(c.nnz(), nnz, "RowClass {order:?}: result drifted");
    }
}

/// RowClass steady state on a matrix too wide for u16 compression
/// (70 000 ≥ 2^16): the bucketed passes fall back to the operands'
/// native u32 indices and must still be allocation-free.
#[test]
fn rowclass_u32_index_path_steady_state_allocates_nothing() {
    let a = banded(70_000);
    let pool = Pool::new(1);
    let plan =
        SpgemmPlan::<P>::new_in(&a, &a, Algorithm::RowClass, OutputOrder::Sorted, &pool).unwrap();
    let mut c = Csr::<f64>::zero(0, 0);
    for _ in 0..2 {
        plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
    }
    let nnz = c.nnz();
    let before = allocations();
    for _ in 0..3 {
        plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
    }
    assert_eq!(
        allocations() - before,
        0,
        "RowClass u32 path: steady-state execute_into must not allocate"
    );
    assert_eq!(c.nnz(), nnz);
}

#[test]
fn workspace_pool_reuses_across_executions_multithreaded() {
    let a = banded(512);
    for nt in [2usize, 4] {
        let pool = Pool::new(nt);
        let plan =
            SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let mut c = Csr::<f64>::zero(0, 0);
        let executes = 10u64;
        for _ in 0..executes {
            plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
        }
        let st = plan.workspace_stats();
        assert!(
            st.created <= nt as u64,
            "nt={nt}: at most one accumulator per worker, got {st:?}"
        );
        // symbolic pass + `executes` numeric passes acquire per worker
        assert!(
            st.reused >= executes,
            "nt={nt}: numeric passes must reuse pooled accumulators, got {st:?}"
        );
        assert_eq!(st.acquisitions(), st.created + st.reused);
    }
}

#[test]
fn one_shot_multiply_through_plan_is_unchanged() {
    // The routed one-shot path must still produce valid results under
    // the counting allocator (sanity that instrumentation sees the
    // real code path, not a stub).
    let a = banded(64);
    let pool = Pool::new(2);
    let before = allocations();
    let c = spgemm::multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    assert!(allocations() > before, "one-shot multiplies do allocate");
    assert!(c.validate().is_ok());
    assert_eq!(c.nrows(), 64);
}
