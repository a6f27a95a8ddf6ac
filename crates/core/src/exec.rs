//! The row-pass driver: the one implementation of every pass a
//! row-wise kernel runs.
//!
//! Every algorithm in this crate is a Gustavson row-wise SpGEMM
//! (Figure 1 of the paper) differing only in its per-row accumulator.
//! The orchestration around the accumulator — Figure 7 "with the
//! accumulator abstracted out" — lives here once, and every product
//! (planned, one-shot, RowClass, masked, patched row subset, serve
//! patch) runs it:
//!
//! 1. **Analysis** ([`plan`]) — per-row flop counts, then the
//!    flop-balanced contiguous row partition of §4.1 (`RowsToThreads`).
//! 2. **Acquisition** ([`Workers::acquire`]) — each worker draws its
//!    accumulator from a [`WorkspacePool`] slot *inside* the parallel
//!    region (the "parallel" memory scheme of §3.2), building it from
//!    the [`AccumReq`] of its rows on first use and growing/scrubbing
//!    it on every reuse.
//! 3. **Passes** — [`symbolic_pass`] (counts → scan → row pointers),
//!    [`numeric_pass`] (fill pre-sliced output) and, for the one-phase
//!    kernels, [`staged_pass`] (stage per thread, then copy into
//!    place). A patched product (`rebind_rows`, `execute_rows`, the
//!    serve patch) is the same two passes under a [`RowMask`]: same
//!    region, same partition, same pooled accumulators, but a worker
//!    runs only the dirty rows of its range and takes every clean
//!    row's count / bytes from the previous structure / product.
//!
//! A kernel is one [`RowAccumulator`] impl; nothing else in the crate
//! knows how to construct or size it.

use spgemm_par::{partition, scan, unsync::SharedMutSlice, Pool, WorkspacePool};
use spgemm_sparse::{ColIdx, Csr, DirtyRows, Semiring};
use std::ops::Range;

/// Work analysis for one multiply: per-row flop, the total, and the
/// balanced per-thread row ranges derived from them.
#[derive(Clone, Debug)]
pub struct MultiplyStats {
    /// `flop(c_i*)` for every output row.
    pub row_flops: Vec<u64>,
    /// Total scalar multiplications.
    pub total_flop: u64,
    /// `nthreads + 1` balanced row offsets (§4.1).
    pub offsets: Vec<usize>,
}

/// `flop(c_i*)` of one output row.
#[inline]
pub(crate) fn row_flop<A, B>(a: &Csr<A>, b: &Csr<B>, i: usize) -> u64 {
    a.row_cols(i)
        .iter()
        .map(|&k| b.row_nnz(k as usize) as u64)
        .sum()
}

/// Compute [`MultiplyStats`] for `A · B` on the given pool.
pub fn plan<A: Copy + Send + Sync, B: Copy + Send + Sync>(
    a: &Csr<A>,
    b: &Csr<B>,
    pool: &Pool,
) -> MultiplyStats {
    let mut stats = MultiplyStats {
        row_flops: vec![0u64; a.nrows()],
        total_flop: 0,
        offsets: Vec::new(),
    };
    scan::parallel_fill(pool, &mut stats.row_flops, |i| row_flop(a, b, i));
    stats.repartition(pool);
    stats
}

impl MultiplyStats {
    /// Re-derive the total and the balanced partition from
    /// `row_flops` (after [`plan`] filled them, or an incremental
    /// rebind edited some).
    pub(crate) fn repartition(&mut self, pool: &Pool) {
        let mut prefix = self.row_flops.clone();
        self.offsets = partition::balanced_offsets_in_place(&mut prefix, pool.nthreads(), pool);
        self.total_flop = prefix.last().copied().unwrap_or(0);
    }
}

/// What an accumulator must be able to hold before it runs a set of
/// rows: the quantities every kernel sizes itself from (§4.2.1: "The
/// upper limit of any thread's local hash table size is the maximum
/// number of flop per row within the rows assigned to it").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccumReq {
    /// Largest `flop(c_i*)` among the rows the accumulator will run.
    pub max_row_flop: usize,
    /// `ncols(A) == nrows(B)`.
    pub inner_dim: usize,
    /// Output width `ncols(B)`.
    pub ncols_b: usize,
}

/// A per-thread accumulator driving one output row at a time, parked
/// in a [`WorkspacePool`] between passes and executions — including
/// executions of *different* products after a plan rebind.
///
/// The pool's contract is clear-on-**acquire** (see
/// `spgemm_par::workspace`): whatever a previous execution left behind
/// — stale keys, a dirty touched-list, a table sized for a smaller
/// problem — is repaired by [`Workers::acquire`], which calls, in
/// order, on every reused acquisition:
///
/// 1. [`RowAccumulator::ensure`] — grow internal storage to meet the
///    new rows' [`AccumReq`] (never shrink). A hash table sized for
///    the old problem's rows would livelock (no empty slot) or index
///    out of bounds on a denser rebind.
/// 2. [`RowAccumulator::scrub`] — clear any per-row or per-matrix
///    state a previous (possibly panicked) execution may have left.
pub(crate) trait RowAccumulator<S: Semiring>: Send + Sized {
    /// Read-only state all workers of one product share beyond the
    /// operands: `()` for most kernels, the SIMD level for HashVec,
    /// the class queues for RowClass, the mask for the masked product.
    type Shared: Sync;

    /// A fresh accumulator able to run rows within `req` — the one
    /// place a kernel's constructor arguments are derived.
    fn build(req: &AccumReq, shared: &Self::Shared) -> Self;

    /// Grow internal storage to satisfy `req`; must be callable any
    /// number of times and never shrink.
    fn ensure(&mut self, req: &AccumReq);

    /// Drop all state left by previous rows/executions, keeping the
    /// allocations.
    fn scrub(&mut self);

    /// Count `nnz(c_i*)`.
    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize;

    /// Compute row `i` into `cols`/`vals` (pre-sliced to the symbolic
    /// count), honouring `sorted`.
    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        sorted: bool,
    );

    /// Worker `wid`'s share of the symbolic pass: count every row of
    /// `range` into `counts` (one slot per row of the range). Row by
    /// row unless the kernel reorders its rows (RowClass drains its
    /// class queues).
    fn symbolic_range(
        &mut self,
        _shared: &Self::Shared,
        _wid: usize,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        range: Range<usize>,
        counts: &mut [u64],
    ) {
        for (cnt, i) in counts.iter_mut().zip(range) {
            *cnt = self.symbolic_row(a, b, i) as u64;
        }
    }

    /// Worker `wid`'s share of the numeric pass: compute every row of
    /// `range` into the worker's window of the output, `cols`/`vals`
    /// covering `rpts[range.start]..rpts[range.end]`.
    #[allow(clippy::too_many_arguments)]
    fn numeric_range(
        &mut self,
        _shared: &Self::Shared,
        _wid: usize,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        range: Range<usize>,
        rpts: &[usize],
        sorted: bool,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
    ) {
        let base = rpts[range.start];
        for i in range {
            let span = rpts[i] - base..rpts[i + 1] - base;
            self.numeric_row(a, b, i, &mut cols[span.clone()], &mut vals[span], sorted);
        }
    }
}

/// A [`RowAccumulator`] that can also run one-phase: rows are appended
/// to thread-private staging vectors (no symbolic pass sizes them —
/// capacity is the thread's flop upper bound).
pub(crate) trait StagedRowKernel<S: Semiring>: RowAccumulator<S> {
    /// Append row `i`'s entries to the staging buffers; return how many
    /// were appended.
    fn stage_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut Vec<ColIdx>,
        vals: &mut Vec<S::Elem>,
    ) -> usize;
}

/// One kernel's pooled per-worker accumulators plus the read-only
/// state its workers share. Created lazily inside the first parallel
/// region and reused (clear-on-acquire) by every later pass and
/// execution.
pub(crate) struct Workers<S: Semiring, A: RowAccumulator<S>> {
    /// One slot per pool worker.
    pub slots: WorkspacePool<A>,
    /// See [`RowAccumulator::Shared`].
    pub shared: A::Shared,
}

impl<S: Semiring, A: RowAccumulator<S>> Workers<S, A> {
    /// Empty slots for a pool of `nthreads` workers.
    pub fn new(nthreads: usize, shared: A::Shared) -> Self {
        Workers {
            slots: WorkspacePool::with_threads(nthreads),
            shared,
        }
    }

    /// Hand `f` worker `wid`'s accumulator, built for `req` if the
    /// slot is empty and grown + scrubbed if it is being reused.
    fn acquire<R>(&self, wid: usize, req: &AccumReq, f: impl FnOnce(&mut A) -> R) -> R {
        self.slots.with(
            wid,
            || A::build(req, &self.shared),
            |acc, reused| {
                if reused {
                    acc.ensure(req);
                    acc.scrub();
                }
                f(acc)
            },
        )
    }

    /// Run `body(acc, wid, range)` on every worker the partition gives
    /// rows, with that worker's accumulator sized for its largest row.
    fn for_each_worker(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        stats: &MultiplyStats,
        pool: &Pool,
        body: impl Fn(&mut A, usize, Range<usize>) + Sync,
    ) {
        pool.parallel_ranges(&stats.offsets, |wid, range| {
            if range.is_empty() {
                return;
            }
            let max_row_flop = stats.row_flops[range.clone()].iter().max();
            let req = AccumReq {
                max_row_flop: max_row_flop.map_or(0, |&f| f as usize),
                inner_dim: a.ncols(),
                ncols_b: b.ncols(),
            };
            self.acquire(wid, &req, |acc| body(acc, wid, range));
        });
    }
}

/// The dirty mask of a patched product, `(dirty, prev)`: a masked pass
/// runs the accumulator on the rows in `dirty` only and takes every
/// other row from `prev` — the previous row pointers for
/// [`symbolic_pass`], the previous product for [`numeric_pass`]. Sound
/// because row `i` of a row-wise product is a pure function of `A[i]`
/// and the `B` rows it selects.
pub(crate) type RowMask<'a, P> = (&'a DirtyRows, &'a P);

/// Inclusive-scan per-row counts (stored at `counts[i + 1]`) into row
/// pointers; returns `(rpts, nnz)`.
fn scan_row_ptrs(pool: &Pool, mut counts: Vec<u64>) -> (Vec<usize>, usize) {
    let total = scan::parallel_inclusive_scan(pool, &mut counts) as usize;
    (counts.iter().map(|&x| x as usize).collect(), total)
}

/// Symbolic phase: per-row counts, then a scan into row pointers
/// (Figure 7 lines 1–8). Returns `(rpts, nnz)`. Under a `mask` only
/// its dirty rows are counted; the rest keep the count the previous
/// row pointers give them.
pub(crate) fn symbolic_pass<S: Semiring, A: RowAccumulator<S>>(
    w: &Workers<S, A>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    stats: &MultiplyStats,
    pool: &Pool,
    mask: Option<RowMask<'_, [usize]>>,
) -> (Vec<usize>, usize) {
    let mut counts = vec![0u64; a.nrows() + 1];
    {
        let counts_s = SharedMutSlice::new(&mut counts[1..]);
        w.for_each_worker(a, b, stats, pool, |acc, wid, range| {
            // SAFETY: the partition's ranges are disjoint, so each
            // worker owns the count slots of its rows.
            let counts = unsafe { counts_s.slice_mut(range.clone()) };
            let Some((dirty, prev)) = mask else {
                return acc.symbolic_range(&w.shared, wid, a, b, range, counts);
            };
            for (cnt, i) in counts.iter_mut().zip(range) {
                *cnt = if dirty.contains(i) {
                    acc.symbolic_row(a, b, i)
                } else {
                    prev[i + 1] - prev[i]
                } as u64;
            }
        });
    }
    scan_row_ptrs(pool, counts)
}

/// Numeric phase into pre-sliced output (Figure 7 lines 9–21): row `i`
/// lands at `rpts[i]..rpts[i + 1]` of `cols`/`vals`. Under a `mask`
/// only its dirty rows are computed; the rest are copied from the
/// previous product, whose clean rows the caller has checked to be
/// `rpts[i + 1] - rpts[i]` long.
#[allow(clippy::too_many_arguments)]
pub(crate) fn numeric_pass<S: Semiring, A: RowAccumulator<S>>(
    w: &Workers<S, A>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    stats: &MultiplyStats,
    rpts: &[usize],
    sorted: bool,
    pool: &Pool,
    cols: &mut [ColIdx],
    vals: &mut [S::Elem],
    mask: Option<RowMask<'_, Csr<S::Elem>>>,
) {
    let (cols_s, vals_s) = (SharedMutSlice::new(cols), SharedMutSlice::new(vals));
    w.for_each_worker(a, b, stats, pool, |acc, wid, range| {
        let window = rpts[range.start]..rpts[range.end];
        // SAFETY: the partition is contiguous and `rpts` monotone, so
        // the workers' output windows are disjoint.
        let (c, v) = unsafe { (cols_s.slice_mut(window.clone()), vals_s.slice_mut(window)) };
        let Some((dirty, prev)) = mask else {
            return acc.numeric_range(&w.shared, wid, a, b, range, rpts, sorted, c, v);
        };
        let base = rpts[range.start];
        for i in range {
            let span = rpts[i] - base..rpts[i + 1] - base;
            if dirty.contains(i) {
                acc.numeric_row(a, b, i, &mut c[span.clone()], &mut v[span], sorted);
            } else {
                c[span.clone()].copy_from_slice(prev.row_cols(i));
                v[span].copy_from_slice(prev.row_vals(i));
            }
        }
    });
}

/// A one-shot two-phase product on caller-supplied workers (symbolic →
/// allocate → numeric), for the products that are not an
/// [`crate::Algorithm`]: the masked product, HashVec at an explicit
/// SIMD level and — under a `mask` over the previous product — the
/// serve patch.
pub(crate) fn multiply_on<S: Semiring, A: RowAccumulator<S>>(
    w: &Workers<S, A>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    sorted: bool,
    pool: &Pool,
    mask: Option<RowMask<'_, Csr<S::Elem>>>,
) -> Csr<S::Elem> {
    let stats = plan(a, b, pool);
    let counted = mask.map(|(dirty, prev)| (dirty, prev.rpts()));
    let (rpts, nnz) = symbolic_pass(w, a, b, &stats, pool, counted);
    let mut cols = vec![0 as ColIdx; nnz];
    let mut vals = vec![S::zero(); nnz];
    numeric_pass(
        w, a, b, &stats, &rpts, sorted, pool, &mut cols, &mut vals, mask,
    );
    Csr::from_parts_unchecked(a.nrows(), b.ncols(), rpts, cols, vals, sorted)
}

/// The one-phase pass: stage per thread, scan the realized counts,
/// then copy each thread's staging block into place (§4.2.3's
/// "parallel approach for memory management" — the temporary lives
/// and dies inside the owning worker).
///
/// `sorted_output` describes what the kernel emits (Heap: true,
/// Inspector: false) and is recorded on the result.
pub(crate) fn staged_pass<S: Semiring, K: StagedRowKernel<S>>(
    w: &Workers<S, K>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    stats: &MultiplyStats,
    pool: &Pool,
    sorted_output: bool,
) -> Csr<S::Elem> {
    // Thread-private staging, allocated and filled inside the region.
    type Staged<E> = Vec<parking_lot::Mutex<(Vec<ColIdx>, Vec<E>)>>;
    let staged: Staged<S::Elem> = (0..pool.nthreads())
        .map(|_| parking_lot::Mutex::new((Vec::new(), Vec::new())))
        .collect();
    let mut counts = vec![0u64; a.nrows() + 1];
    {
        let counts_s = SharedMutSlice::new(&mut counts[1..]);
        w.for_each_worker(a, b, stats, pool, |kernel, wid, range| {
            let flop_bound = stats.row_flops[range.clone()].iter().sum::<u64>() as usize;
            // SAFETY: the partition's ranges are disjoint, so each
            // worker owns the count slots of its rows.
            let counts = unsafe { counts_s.slice_mut(range.clone()) };
            let mut slot = staged[wid].lock();
            let (cols, vals) = &mut *slot;
            cols.reserve(flop_bound);
            vals.reserve(flop_bound);
            for (cnt, i) in counts.iter_mut().zip(range) {
                *cnt = kernel.stage_row(a, b, i, cols, vals) as u64;
            }
        });
    }
    let (rpts, total) = scan_row_ptrs(pool, counts);

    let mut cols = vec![0 as ColIdx; total];
    let mut vals = vec![S::zero(); total];
    {
        let (cols_s, vals_s) = (
            SharedMutSlice::new(&mut cols[..]),
            SharedMutSlice::new(&mut vals[..]),
        );
        pool.parallel_ranges(&stats.offsets, |wid, range| {
            let slot = staged[wid].lock();
            let (scols, svals) = &*slot;
            let dst = rpts[range.start]..rpts[range.end];
            debug_assert_eq!(dst.len(), scols.len());
            // SAFETY: each thread's destination block is disjoint (the
            // row partition is contiguous and rpts is monotone).
            unsafe {
                cols_s.slice_mut(dst.clone()).copy_from_slice(scols);
                vals_s.slice_mut(dst).copy_from_slice(svals);
            }
        });
    }
    Csr::from_parts_unchecked(a.nrows(), b.ncols(), rpts, cols, vals, sorted_output)
}

/// `lowest_p2` from Figure 7: the smallest power of two *strictly
/// greater* than `x` (so a hash table sized this way always keeps at
/// least one empty slot).
#[inline]
pub(crate) fn lowest_p2_above(x: usize) -> usize {
    1usize << (usize::BITS - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::PlusTimes;

    #[test]
    fn lowest_p2_above_is_strictly_greater() {
        assert_eq!(lowest_p2_above(0), 1);
        assert_eq!(lowest_p2_above(1), 2);
        assert_eq!(lowest_p2_above(2), 4);
        assert_eq!(lowest_p2_above(3), 4);
        assert_eq!(lowest_p2_above(4), 8);
        assert_eq!(lowest_p2_above(1023), 1024);
        assert_eq!(lowest_p2_above(1024), 2048);
        for x in 0..500usize {
            let p = lowest_p2_above(x);
            assert!(p.is_power_of_two() && p > x);
            assert!(p / 2 <= x.max(1));
        }
    }

    #[test]
    fn plan_flop_matches_stats_crate() {
        let a = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
            .unwrap();
        let pool = Pool::new(2);
        let st = plan(&a, &a, &pool);
        assert_eq!(st.total_flop, spgemm_sparse::stats::flop(&a, &a));
        assert_eq!(st.offsets.len(), 3);
        assert_eq!(*st.offsets.last().unwrap(), 3);
        let _ = PlusTimes::<f64>::zero();
    }
}
