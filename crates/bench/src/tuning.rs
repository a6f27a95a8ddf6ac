//! The paper's one-phase kernels — Heap (§4.2.3) and the MKL-inspector
//! stand-in — under one staging driver, [`one_phase`]: Figure 9's
//! subject (§5.3.1) and the Heap / "MKLinsp~1ph" columns of Figures
//! 11–17. No symbolic pass: each worker stages the rows it is handed,
//! the realized counts become the row pointers, and every staged run is
//! copied into place. The library runs both kernels two-phase, to the
//! same bits; this is the paper's trade, measured. The driver is generic
//! over
//!
//! * the row stager ([`RowStager`]): [`HeapKernel::stage_row`], or an
//!   [`InspectorRow`](crate::algos::inspector::InspectorRow) on the public linear-probing hash table;
//! * the row handout ([`RowSchedule`]): equal-row blocks (`static`),
//!   [`Schedule::DYNAMIC`] / [`Schedule::GUIDED`] claims, or the §4.1
//!   flop-balanced blocks of `exec_plan`;
//! * the staging memory ([`MemScheme`]): per worker, allocated and freed
//!   in the region, or §3.2's "single" scheme over the balanced blocks,
//!   allocated up front and freed by the master (the deallocation cost
//!   the paper blames for poor scaling).
//!
//! Figure 9's five series are `static`, `dynamic`, `guided`, `balanced
//! single` and `balanced parallel`; the last is what
//! `runner::time_multiply` times for Heap and Inspector.

use spgemm::algos::heap::HeapKernel;
use spgemm::exec_plan;
use spgemm_par::{scan::counts_to_offsets, unsync::SharedMutSlice, Pool, Schedule};
use spgemm_sparse::{ColIdx, Csr, Semiring, SparseError};
use std::ops::Range;
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;

/// How rows are handed to the workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowSchedule {
    /// Equal-rows contiguous blocks (OpenMP `schedule(static)`).
    Static,
    /// OpenMP `schedule(dynamic, 1)`-style row claiming.
    Dynamic,
    /// OpenMP `schedule(guided)`-style row claiming.
    Guided,
    /// The paper's flop-balanced contiguous partition (§4.1).
    FlopBalanced,
}

impl RowSchedule {
    /// Display name matching the Figure 9 legend.
    pub fn name(self) -> &'static str {
        match self {
            RowSchedule::Static => "static",
            RowSchedule::Dynamic => "dynamic",
            RowSchedule::Guided => "guided",
            RowSchedule::FlopBalanced => "balanced",
        }
    }
}

/// Temporary-memory scheme for the staged output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemScheme {
    /// Staging the master allocates up front, every worker's flop bound,
    /// and frees after the copy (§3.2 "single").
    Single,
    /// Thread-private staging allocated and freed inside the region
    /// ("parallel").
    Parallel,
}

impl MemScheme {
    /// Display name matching the Figure 9 legend.
    pub fn name(self) -> &'static str {
        match self {
            MemScheme::Single => "single",
            MemScheme::Parallel => "parallel",
        }
    }
}

/// A one-phase row kernel: appends row `i` of `A · B` to staging
/// buffers, with no symbolic pass to size it.
pub trait RowStager<S: Semiring> {
    /// The kernel's name in an unsorted-input error.
    const NAME: &'static str;
    /// Whether the kernel is a merge: it reads sorted operands only and
    /// emits ascending rows.
    const SORTED: bool;

    /// A stager for rows of at most `max_row_flop` terms into
    /// `ncols_b` columns.
    fn new(max_row_flop: usize, ncols_b: usize) -> Self;

    /// Append row `i`'s entries to `cols` / `vals`; return how many.
    fn stage_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut Vec<ColIdx>,
        vals: &mut Vec<S::Elem>,
    ) -> usize;
}

impl<S: Semiring> RowStager<S> for HeapKernel<S> {
    const NAME: &'static str = "Heap SpGEMM";
    const SORTED: bool = true;

    fn new(_: usize, _: usize) -> Self {
        HeapKernel::new()
    }

    fn stage_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut Vec<ColIdx>,
        vals: &mut Vec<S::Elem>,
    ) -> usize {
        HeapKernel::stage_row(self, a, b, i, cols, vals)
    }
}

/// What one worker staged: its rows' entries back to back, the row
/// ranges it was handed (in handout order) and each row's length.
struct Staged<E> {
    cols: Vec<ColIdx>,
    vals: Vec<E>,
    handed: Vec<Range<usize>>,
    lens: Vec<usize>,
}

/// Each worker's lock is taken by that worker only (and by the master
/// between the regions), in regions whose panic fails the whole call.
const OWN: &str = "a worker's staging is locked by one thread at a time";

/// `A · B` one-phase: the kernel `R` stages the rows `sched` hands
/// each worker into the memory `mem` names, then every staged run is
/// copied into place. Only the balanced blocks have a "single" scheme,
/// as in the paper's series: under the other handouts `mem` is
/// ignored and every worker stages into buffers of its own.
///
/// The output is `R`'s product bit for bit whatever the handout, the
/// scheme and the pool width: each row is one `stage_row`. It is
/// flagged sorted iff `R` is a merge ([`RowStager::SORTED`]).
///
/// # Errors
/// [`SparseError::Unsorted`] when a merge kernel is given an unsorted
/// operand.
///
/// # Panics
/// On `ncols(A) ≠ nrows(B)`, like `runner::time_multiply`.
pub fn one_phase<S: Semiring, R: RowStager<S>>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    pool: &Pool,
    sched: RowSchedule,
    mem: MemScheme,
) -> Result<Csr<S::Elem>, SparseError> {
    assert_eq!(a.ncols(), b.nrows(), "shape mismatch in multiply");
    if R::SORTED && !(a.is_sorted() && b.is_sorted()) {
        return Err(SparseError::Unsorted { op: R::NAME });
    }
    let (n, nt) = (a.nrows(), pool.nthreads());
    let stats = exec_plan(a, b, pool);
    let flops = |rows: Range<usize>| stats.row_flops[rows].iter().map(|&f| f as usize);
    let block = |wid: usize| match sched {
        RowSchedule::Static => Some(wid * n / nt..(wid + 1) * n / nt),
        RowSchedule::FlopBalanced => Some(stats.offsets[wid]..stats.offsets[wid + 1]),
        RowSchedule::Dynamic | RowSchedule::Guided => None,
    };
    // "single": the master allocates every worker's flop bound up front
    // and frees it after the copy; otherwise each worker grows its own
    // buffers in the region and frees them there.
    let single = sched == RowSchedule::FlopBalanced && mem == MemScheme::Single;
    let staged: Vec<Mutex<Option<Staged<S::Elem>>>> = (0..nt)
        .map(|wid| {
            let bound = block(wid)
                .filter(|_| single)
                .map_or(0, |rows| flops(rows).sum());
            Mutex::new(Some(Staged {
                cols: Vec::with_capacity(bound),
                vals: Vec::with_capacity(bound),
                handed: Vec::new(),
                lens: Vec::new(),
            }))
        })
        .collect();

    let next = AtomicUsize::new(0);
    pool.broadcast(|wid| {
        let mut slot = staged[wid].lock().expect(OWN);
        let w = slot.as_mut().expect("staged once per call");
        let mut fixed = block(wid);
        let widest = fixed.clone().unwrap_or(0..n);
        let mut stager = R::new(flops(widest).max().unwrap_or(0), b.ncols());
        // Pool::parallel_for's loop, inline so the staging stays
        // worker-local.
        let mut handout = || match sched {
            RowSchedule::Dynamic => Schedule::DYNAMIC.claim(&next, n, nt),
            RowSchedule::Guided => Schedule::GUIDED.claim(&next, n, nt),
            RowSchedule::Static | RowSchedule::FlopBalanced => fixed.take(),
        };
        while let Some(rows) = handout() {
            let flop = flops(rows.clone()).sum();
            w.cols.reserve(flop);
            w.vals.reserve(flop);
            for i in rows.clone() {
                let len = stager.stage_row(a, b, i, &mut w.cols, &mut w.vals);
                w.lens.push(len);
            }
            w.handed.push(rows);
        }
    });

    let mut counts = vec![0usize; n];
    for slot in &staged {
        let slot = slot.lock().expect(OWN);
        let w = slot.as_ref().expect("staged once per call");
        let rows = w.handed.iter().flat_map(|rows| rows.clone());
        for (i, &len) in rows.zip(&w.lens) {
            counts[i] = len;
        }
    }
    let rpts = counts_to_offsets(&counts);
    let mut cols = vec![0 as ColIdx; rpts[n]];
    let mut vals = vec![S::zero(); rpts[n]];
    let (cols_s, vals_s) = (
        SharedMutSlice::new(&mut cols),
        SharedMutSlice::new(&mut vals),
    );
    pool.broadcast(|wid| {
        let mut slot = staged[wid].lock().expect(OWN);
        let w = slot.as_ref().expect("staged once per call");
        let mut src = 0usize;
        for rows in &w.handed {
            let dst = rpts[rows.start]..rpts[rows.end];
            let len = dst.len();
            // SAFETY: every row was handed to exactly one worker, so the
            // destination windows of different workers are disjoint.
            unsafe {
                cols_s
                    .slice_mut(dst.clone())
                    .copy_from_slice(&w.cols[src..src + len]);
                vals_s
                    .slice_mut(dst)
                    .copy_from_slice(&w.vals[src..src + len]);
            }
            src += len;
        }
        if !single {
            slot.take();
        }
    });
    // "single" deallocation happens here, on the master — the cost the
    // paper measures in Figure 4.
    drop(staged);
    Ok(Csr::from_parts_unchecked(
        n,
        b.ncols(),
        rpts,
        cols,
        vals,
        R::SORTED,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::inspector::InspectorRow;
    use spgemm::algos::reference;
    use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
    use spgemm_gen::RmatKind;
    use spgemm_sparse::{approx_eq_f64, bits_eq_f64, PlusTimes};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    type P = PlusTimes<f64>;

    /// Every handout under every scheme: Fig 9's five series and the
    /// plain loops' "single" twins (which stage per worker).
    fn variants() -> impl Iterator<Item = (RowSchedule, MemScheme)> {
        use {MemScheme::*, RowSchedule::*};
        [Static, Dynamic, Guided, FlopBalanced]
            .into_iter()
            .flat_map(|s| [(s, Single), (s, Parallel)])
    }

    /// At 1–3 threads, every variant of both stagers is the library's
    /// two-phase product bit for bit — Heap's the planned `Heap`,
    /// Inspector's the planned `Hash` (unsorted and flagged so; once
    /// post-sorted, the sorted plan) — and so the oracle's.
    fn check_all_variants(a: &Csr<f64>) {
        let oracle = reference::multiply::<P>(a, a);
        for nt in [1usize, 2, 3] {
            let pool = Pool::new(nt);
            let planned = |algo, order| {
                let plan = SpgemmPlan::<P>::new_in(a, a, algo, order, &pool).unwrap();
                plan.execute_in(a, a, &pool).unwrap()
            };
            let heap = planned(Algorithm::Heap, OutputOrder::Sorted);
            let hash = planned(Algorithm::Hash, OutputOrder::Unsorted);
            let sorted_hash = planned(Algorithm::Hash, OutputOrder::Sorted);
            assert!(approx_eq_f64(&oracle, &heap, 1e-12), "nt={nt}");
            for (sched, mem) in variants() {
                let tag = format!("{}/{} nt={nt}", sched.name(), mem.name());
                let got = one_phase::<P, HeapKernel<P>>(a, a, &pool, sched, mem).unwrap();
                assert!(bits_eq_f64(&got, &heap) && got.is_sorted(), "heap {tag}");
                let mut got = one_phase::<P, InspectorRow<P>>(a, a, &pool, sched, mem).unwrap();
                assert!(
                    bits_eq_f64(&got, &hash) && !got.is_sorted(),
                    "inspector {tag}"
                );
                got.sort_rows();
                assert!(bits_eq_f64(&got, &sorted_hash), "sorted inspector {tag}");
            }
        }
    }

    #[test]
    fn all_variants_match_reference_small() {
        let a = Csr::from_triplets(
            6,
            6,
            &[
                (0, 1, 1.0),
                (0, 5, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (3, 3, 5.0),
                (4, 1, 6.0),
                (5, 4, 7.0),
                (5, 0, 8.0),
            ],
        )
        .unwrap();
        check_all_variants(&a);
        // ascending rows are still flagged unsorted by the Inspector
        check_all_variants(&Csr::identity(4));
        check_all_variants(&Csr::zero(4, 4));
    }

    #[test]
    fn all_variants_match_reference_rmat() {
        for (kind, scale) in [(RmatKind::G500, 7), (RmatKind::Er, 8)] {
            let a = spgemm_gen::rmat::generate_kind(kind, scale, 8, &mut spgemm_gen::rng(9));
            check_all_variants(&a);
        }
    }

    #[test]
    fn names_for_figure_legend() {
        assert_eq!(RowSchedule::FlopBalanced.name(), "balanced");
        assert_eq!(MemScheme::Single.name(), "single");
    }

    /// `(+, ×)` on `f64` whose `mul` panics when it meets [`TRAP`].
    struct Trap;
    const TRAP: f64 = 13.0;

    impl Semiring for Trap {
        type Elem = f64;
        fn zero() -> f64 {
            0.0
        }
        fn add(a: f64, b: f64) -> f64 {
            a + b
        }
        fn mul(a: f64, b: f64) -> f64 {
            assert!(a != TRAP, "trap");
            a * b
        }
    }

    /// A worker that panics mid-staging (every worker stages under a
    /// lock of the call's own; under the claiming handouts whichever
    /// worker claims a trapped row first) fails that call only: the next
    /// one-phase product on the same pool is exact, for both stagers and
    /// under every handout.
    #[test]
    fn a_worker_panic_mid_one_phase_pass_fails_one_call_only() {
        let pool = Pool::new(2);
        let a = spgemm_gen::rmat::generate_kind(RmatKind::Er, 8, 4, &mut spgemm_gen::rng(5));
        let trapped = a.map(|_| TRAP);
        for (sched, mem) in variants() {
            let heap = |m: &Csr<f64>| one_phase::<Trap, HeapKernel<Trap>>(m, m, &pool, sched, mem);
            let hash =
                |m: &Csr<f64>| one_phase::<Trap, InspectorRow<Trap>>(m, m, &pool, sched, mem);
            let expect = (heap(&a).unwrap(), hash(&a).unwrap());
            let tag = format!("{}/{}", sched.name(), mem.name());
            assert!(
                catch_unwind(AssertUnwindSafe(|| heap(&trapped))).is_err(),
                "{tag}"
            );
            assert!(
                catch_unwind(AssertUnwindSafe(|| hash(&trapped))).is_err(),
                "{tag}"
            );
            for round in 0..2 {
                assert!(
                    bits_eq_f64(&heap(&a).unwrap(), &expect.0),
                    "{tag} round {round}"
                );
                assert!(
                    bits_eq_f64(&hash(&a).unwrap(), &expect.1),
                    "{tag} round {round}"
                );
            }
        }
    }
}
