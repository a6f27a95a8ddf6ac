//! Steady-state allocation accounting for the expression-plan
//! executor — the acceptance test for the fusion claim: once an
//! [`ExprPlan`] and its reused output have warmed up,
//! `execute_into` re-runs the *whole pipeline* (SpGEMM, transpose,
//! add, hadamard, fused element-wise epilogues, root copy) with
//! **zero** heap allocations for intermediates — also once the plan
//! has taken a row update.
//!
//! Same approach as `plan_zero_alloc.rs`: a counting
//! `#[global_allocator]` tallies allocations per thread and the strict
//! assertion runs on a single-thread pool (inline execution, exact
//! thread-local accounting).

use spgemm::expr::{ElemMap, ExprGraph, ExprPlan, NodeId};
use spgemm::Algorithm;
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, RowPatch};
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

fn allocations() -> u64 {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

/// Banded matrix: multi-entry rows, real accumulation in every node.
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

/// Every node kind in one DAG over one matrix and one vector input:
///   t  = Aᵀ              (cached counting sort, gather refill)
///   s  = A + t           (cached union structure, provenance refill)
///   sq = s · s           (SpgemmPlan execute_into)
///   h  = sq ∘ A          (cached intersection, provenance refill)
///   m  = |h|^2           (fused epilogue in h's buffer)
///   n  = normalize_cols  (materialized, cached colsum scratch)
///   r  = scale_rows(n)   (fused epilogue in n's buffer)
fn every_node_kind() -> (ExprGraph, NodeId) {
    let mut g = ExprGraph::new();
    let ia = g.input();
    let vf = g.vec_input();
    let t = g.transpose(ia);
    let s = g.add(ia, t);
    let sq = g.multiply(s, s);
    let h = g.hadamard(sq, ia);
    let m = g.map(h, ElemMap::AbsPow(2.0));
    let n = g.normalize_cols(m);
    let root = g.scale_rows(n, vf);
    (g, root)
}

#[test]
fn expr_execute_into_steady_state_allocates_nothing() {
    let a = banded(192);
    let rf: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 3) as f64).collect();
    let pool = Pool::new(1); // inline execution: exact accounting
    let (g, root) = every_node_kind();

    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[&rf], Algorithm::Hash, &pool).unwrap();
    assert_eq!(
        plan.fused_nodes(),
        2,
        "map and scale fuse; normalize materializes"
    );
    assert!(plan.fused_bytes_eliminated() > 0);

    let mut out = Csr::<f64>::zero(0, 0);
    // Warm-up: size the output and every pooled accumulator.
    for _ in 0..3 {
        plan.execute_into_in(&[&a], &[&rf], &mut out, &pool)
            .unwrap();
    }
    let nnz = out.nnz();
    assert!(nnz > 0);

    let before = allocations();
    for _ in 0..10 {
        plan.execute_into_in(&[&a], &[&rf], &mut out, &pool)
            .unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state expression execution must not allocate"
    );
    assert_eq!(out.nnz(), nnz, "result drifted");
    assert!(out.validate().is_ok());
}

/// A plan that took a structural row update refills without
/// allocating from its second execution on: the update rebuilt every
/// cached structure at the patched sizes.
#[test]
fn expr_execute_after_an_update_allocates_nothing() {
    let a = banded(192);
    let rf: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 3) as f64).collect();
    let pool = Pool::new(1);
    let (g, root) = every_node_kind();
    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[&rf], Algorithm::Hash, &pool).unwrap();
    let mut out = Csr::<f64>::zero(0, 0);
    plan.execute_into_in(&[&a], &[&rf], &mut out, &pool)
        .unwrap();

    let mut patch = RowPatch::new();
    patch.insert(5, 100, 2.5).delete(9, a.row_cols(9)[0]);
    let (a2, dirty) = a.apply_patch(&patch).unwrap();
    plan.update_in(&[&a2], &[&rf], 0, &a, &dirty, &pool)
        .unwrap();
    plan.execute_into_in(&[&a2], &[&rf], &mut out, &pool)
        .unwrap();
    let before = allocations();
    plan.execute_into_in(&[&a2], &[&rf], &mut out, &pool)
        .unwrap();
    assert_eq!(
        allocations() - before,
        0,
        "the second execution after an update must not allocate"
    );
    assert!(out.validate().is_ok());
}

/// The same pipeline with the multiply nodes running RowClass: the
/// bucketed passes (u16-compressed indices at 192 columns) must reach
/// the allocation-free steady state inside an expression plan too.
#[test]
fn expr_rowclass_steady_state_allocates_nothing() {
    let a = banded(192);
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let t = g.transpose(ia);
    let s = g.add(ia, t);
    let sq = g.multiply(s, s);
    let root = g.hadamard(sq, ia);

    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::RowClass, &pool).unwrap();
    let mut out = Csr::<f64>::zero(0, 0);
    for _ in 0..3 {
        plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
    }
    let nnz = out.nnz();
    assert!(nnz > 0);

    let before = allocations();
    for _ in 0..10 {
        plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state RowClass expression execution must not allocate"
    );
    assert_eq!(out.nnz(), nnz, "result drifted");
    assert!(out.validate().is_ok());
}

#[test]
fn expr_bind_does_allocate_and_results_stay_valid() {
    // Sanity that the instrumentation sees the real code path: the
    // bind pass must allocate (it builds every cached structure).
    let a = banded(64);
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let sq = g.multiply(ia, ia);
    let root = g.normalize_cols(sq);
    let before = allocations();
    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::Hash, &pool).unwrap();
    assert!(allocations() > before, "binding builds structures");
    let mut out = Csr::zero(0, 0);
    plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
    assert!(out.validate().is_ok());
    assert_eq!(out.nrows(), 64);
}
