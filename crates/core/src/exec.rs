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
//! 3. **Passes** — exactly two: [`symbolic_pass`] (counts → scan →
//!    row pointers) and [`numeric_pass`] (fill pre-sliced output). A
//!    patched product (`rebind_rows`, `execute_rows`) is the same two
//!    passes under a [`RowMask`]: same region, same partition, same
//!    pooled accumulators, but a worker runs only the dirty rows of
//!    its range and takes every clean row's count / bytes from the
//!    previous structure / product. The dense kernel's symbolic pass
//!    (`algos::spa::emit_pass`) is the same [`count_rows`] frame
//!    writing each row's columns on the way: the pattern its numeric
//!    passes then replay.
//!
//! 4. **Rows** — one level down, the Gustavson loop `for k in A[i] {
//!    for j in B[k] { insert } }` is written once too:
//!    [`Operands::symbolic_row`] / [`Operands::numeric_row`], generic
//!    over a [`ColumnSet`] (what a row's columns are inserted into) and
//!    over the operands' column-index width. The linear-probing and
//!    SIMD-chunked tables, the chained map, the SPA, RowClass's
//!    insertion array and the mask-gated SPA are the column sets;
//!    every table-like kernel's `symbolic_row` / `numeric_row` is a
//!    call of the pair.
//!
//! A kernel is one [`RowAccumulator`] impl; nothing else in the crate
//! knows how to construct or size it. A kernel that probes with vector
//! instructions also names its [`RowAccumulator::simd_level`], and the
//! passes run its share of the rows through `simd::run_at` — the level
//! is bound once per worker per pass, for SIMD kernels only, and never
//! for the per-row calls under a dirty mask.

use crate::algos::simd::{self, CheckedLevel, LevelBody};
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

/// What one output row's columns are inserted into: the
/// accumulate / emit contract every table-like accumulator meets, and
/// all the row loop knows about it (Figure 7 "with the accumulator
/// abstracted out").
///
/// A set is **empty between rows**: [`ColumnSet::reset`] ends a
/// symbolic row, [`ColumnSet::extract_into`] a numeric one. Duplicate
/// columns accumulate in insertion order; distinct columns are emitted
/// in first-insertion order, or ascending when `sorted` — which is
/// what makes every implementation byte-identical to every other.
pub trait ColumnSet<S: Semiring> {
    /// Insert `col` (symbolic phase: membership only).
    fn insert_symbolic(&mut self, col: ColIdx);

    /// Accumulate `value` at `col`.
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem);

    /// Distinct columns inserted since the set was last empty.
    fn len(&self) -> usize;

    /// Whether nothing has been inserted since the set was last empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empty the set in `O(len)`, keeping its allocations.
    fn reset(&mut self);

    /// Emit the row into `cols` / `vals` (both [`ColumnSet::len`]
    /// long) and reset.
    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool);
}

/// The operands as the row loop reads them, each one's column indices
/// at whichever width its caller chose: the operand's own `u32`s, or
/// a plan-private gathered `u16` copy (only RowClass keeps one — see
/// `kgen::RowClassSpec`).
#[derive(Clone, Copy)]
pub(crate) struct Operands<'a, KA, KB, E> {
    a: &'a Csr<E>,
    /// `a.cols()`, possibly narrowed.
    a_cols: &'a [KA],
    pub b: &'a Csr<E>,
    /// `b.cols()`, possibly narrowed.
    b_cols: &'a [KB],
}

impl<'a, KA, KB, E> Operands<'a, KA, KB, E> {
    /// `a` and `b` read through the given column-index arrays.
    #[inline(always)]
    pub fn new(a: &'a Csr<E>, a_cols: &'a [KA], b: &'a Csr<E>, b_cols: &'a [KB]) -> Self {
        Operands {
            a,
            a_cols,
            b,
            b_cols,
        }
    }
}

impl<'a, E> Operands<'a, ColIdx, ColIdx, E> {
    /// `a` and `b` read through their own column indices.
    #[inline(always)]
    pub fn of(a: &'a Csr<E>, b: &'a Csr<E>) -> Self {
        Self::new(a, a.cols(), b, b.cols())
    }
}

/// The Gustavson row loop `for k in A[i] { for j in B[k] { insert } }`,
/// written once: every table-like kernel's row is one of these calls.
///
/// `inline(always)`, like every `insert_*` they reach: under a SIMD
/// level the whole chain must fold into the level-bound instance of
/// the worker's share (see `simd::run_at`). The `*_call` twins are the
/// same loops as calls, for a set with no vector probe to inline that
/// is run from a level-bound share: a loop nest compiled on its own
/// keeps its registers (folded into RowClass's drain with its eleven
/// siblings, the SPA loop reloaded `set` from the stack five times per
/// key).
impl<KA: Copy + Into<ColIdx>, KB: Copy + Into<ColIdx>, E: Copy> Operands<'_, KA, KB, E> {
    /// Insert every column of every `B` row that `A[i]` selects.
    #[inline(always)]
    pub fn insert_row<S: Semiring<Elem = E>>(self, set: &mut impl ColumnSet<S>, i: usize) {
        let (a_rpts, b_rpts) = (self.a.rpts(), self.b.rpts());
        for &ka in &self.a_cols[a_rpts[i]..a_rpts[i + 1]] {
            let k = ka.into() as usize;
            for &jb in &self.b_cols[b_rpts[k]..b_rpts[k + 1]] {
                set.insert_symbolic(jb.into());
            }
        }
    }

    /// The symbolic row: [`Self::insert_row`], return the distinct
    /// count, leave `set` empty.
    #[inline(always)]
    pub fn symbolic_row<S: Semiring<Elem = E>>(
        self,
        set: &mut impl ColumnSet<S>,
        i: usize,
    ) -> usize {
        self.insert_row(set, i);
        let n = set.len();
        set.reset();
        n
    }

    /// The numeric row, up to the emit: accumulate `a_ik · b_kj` into
    /// `set` in `k`-encounter order.
    #[inline(always)]
    pub fn accumulate_row<S: Semiring<Elem = E>>(self, set: &mut impl ColumnSet<S>, i: usize) {
        let (a_rpts, b_rpts, b_vals) = (self.a.rpts(), self.b.rpts(), self.b.vals());
        let aspan = a_rpts[i]..a_rpts[i + 1];
        for (&ka, &av) in self.a_cols[aspan.clone()].iter().zip(&self.a.vals()[aspan]) {
            let k = ka.into() as usize;
            let bspan = b_rpts[k]..b_rpts[k + 1];
            for (&jb, &bv) in self.b_cols[bspan.clone()].iter().zip(&b_vals[bspan]) {
                set.insert_numeric(jb.into(), S::mul(av, bv));
            }
        }
    }

    /// The numeric row: [`Self::accumulate_row`], then emit into the
    /// pre-sliced output, leaving `set` empty.
    #[inline(always)]
    pub fn numeric_row<S: Semiring<Elem = E>>(
        self,
        set: &mut impl ColumnSet<S>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [E],
        sorted: bool,
    ) {
        self.accumulate_row(set, i);
        set.extract_into(cols, vals, sorted);
    }

    /// [`Self::symbolic_row`] as a call.
    #[inline(never)]
    pub fn symbolic_row_call<S: Semiring<Elem = E>>(
        self,
        set: &mut impl ColumnSet<S>,
        i: usize,
    ) -> usize {
        self.symbolic_row(set, i)
    }

    /// [`Self::numeric_row`] as a call.
    #[inline(never)]
    pub fn numeric_row_call<S: Semiring<Elem = E>>(
        self,
        set: &mut impl ColumnSet<S>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [E],
        sorted: bool,
    ) {
        self.numeric_row(set, i, cols, vals, sorted)
    }
}

/// The one sorted emit of the hashed sets: gather `entries` into the
/// set's reusable `buf`, sort by column, write out. Columns are
/// distinct, so the unstable sort is deterministic.
pub(crate) fn emit_sorted<E: Copy>(
    buf: &mut Vec<(ColIdx, E)>,
    entries: impl Iterator<Item = (ColIdx, E)>,
    cols: &mut [ColIdx],
    vals: &mut [E],
) {
    buf.clear();
    buf.extend(entries);
    buf.sort_unstable_by_key(|&(c, _)| c);
    for (idx, &(c, v)) in buf.iter().enumerate() {
        cols[idx] = c;
        vals[idx] = v;
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
    /// operands: `()` for most kernels, the probe policy for the hash
    /// tables, the class queues for RowClass, the mask for the masked
    /// product.
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

    /// The SIMD level this kernel's probes run at, if it probes with
    /// vector instructions: the passes compile its `*_range` share
    /// under that level. `None` binds no target feature.
    fn simd_level(&self) -> Option<CheckedLevel> {
        None
    }

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

    /// The share's part of the symbolic pass: count every row of its
    /// range into `counts` (one slot per row of the range). Row by row
    /// unless the kernel reorders its rows (RowClass drains its class
    /// queues). `inline(always)`, as a SIMD kernel's row methods must
    /// be: see [`Operands`].
    #[inline(always)]
    fn symbolic_range(&mut self, share: Share<'_, S, Self>, counts: &mut [u64]) {
        for (cnt, i) in counts.iter_mut().zip(share.range) {
            *cnt = self.symbolic_row(share.a, share.b, i) as u64;
        }
    }

    /// The share's part of the numeric pass: compute every row of its
    /// range into the worker's window of the output.
    #[inline(always)]
    fn numeric_range(&mut self, share: Share<'_, S, Self>, mut out: Window<'_, S::Elem>) {
        let sorted = out.sorted;
        for i in share.range {
            let (cols, vals) = out.row(i);
            self.numeric_row(share.a, share.b, i, cols, vals, sorted);
        }
    }
}

/// One worker's share of a pass: its rows, the operands and the state
/// its kernel's workers share.
pub(crate) struct Share<'a, S: Semiring, A: RowAccumulator<S>> {
    /// See [`RowAccumulator::Shared`].
    pub shared: &'a A::Shared,
    /// The worker's index in the pool.
    pub wid: usize,
    pub a: &'a Csr<S::Elem>,
    pub b: &'a Csr<S::Elem>,
    /// The worker's contiguous rows.
    pub range: Range<usize>,
}

/// One worker's window of the output: `cols` / `vals` cover
/// `start..rpts[range.end]` of the product, `start = rpts[range.start]`.
pub(crate) struct Window<'a, E> {
    pub rpts: &'a [usize],
    pub start: usize,
    pub sorted: bool,
    pub cols: &'a mut [ColIdx],
    pub vals: &'a mut [E],
}

impl<E> Window<'_, E> {
    /// Row `i`'s slots, for `i` in the worker's range.
    #[inline(always)]
    pub fn row(&mut self, i: usize) -> (&mut [ColIdx], &mut [E]) {
        let span = self.rpts[i] - self.start..self.rpts[i + 1] - self.start;
        (&mut self.cols[span.clone()], &mut self.vals[span])
    }
}

// A share with its accumulator and output is what `simd::run_at`
// compiles under the kernel's SIMD level.
impl<S: Semiring, A: RowAccumulator<S>> LevelBody for (&mut A, Share<'_, S, A>, &mut [u64]) {
    #[inline(always)]
    fn run(self) {
        self.0.symbolic_range(self.1, self.2)
    }
}

impl<S: Semiring, A: RowAccumulator<S>> LevelBody
    for (&mut A, Share<'_, S, A>, Window<'_, S::Elem>)
{
    #[inline(always)]
    fn run(self) {
        self.0.numeric_range(self.1, self.2)
    }
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

    /// Run `body(acc, share)` on every worker the partition gives rows,
    /// with that worker's accumulator sized for its largest row.
    fn for_each_worker<'a>(
        &'a self,
        a: &'a Csr<S::Elem>,
        b: &'a Csr<S::Elem>,
        stats: &MultiplyStats,
        pool: &Pool,
        body: impl Fn(&mut A, Share<'a, S, A>) + Sync,
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
            let shared = &self.shared;
            let share = Share {
                shared,
                wid,
                a,
                b,
                range,
            };
            self.acquire(wid, &req, |acc| body(acc, share));
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

/// The frame of every symbolic pass: each worker fills the counts of
/// its range's rows (one slot per row) through `body`, then a scan turns
/// the counts into row pointers. Returns `(rpts, nnz)`.
pub(crate) fn count_rows<'a, S: Semiring, A: RowAccumulator<S>>(
    w: &'a Workers<S, A>,
    a: &'a Csr<S::Elem>,
    b: &'a Csr<S::Elem>,
    stats: &MultiplyStats,
    pool: &Pool,
    body: impl Fn(&mut A, Share<'a, S, A>, &mut [u64]) + Sync,
) -> (Vec<usize>, usize) {
    let mut counts = vec![0u64; a.nrows() + 1];
    {
        let counts_s = SharedMutSlice::new(&mut counts[1..]);
        w.for_each_worker(a, b, stats, pool, |acc, share| {
            // SAFETY: the partition's ranges are disjoint, so each
            // worker owns the count slots of its rows.
            let counts = unsafe { counts_s.slice_mut(share.range.clone()) };
            body(acc, share, counts)
        });
    }
    scan_row_ptrs(pool, counts)
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
    count_rows(w, a, b, stats, pool, |acc, share, counts| {
        let Some((dirty, prev)) = mask else {
            return simd::run_at(acc.simd_level(), (acc, share, counts));
        };
        for (cnt, i) in counts.iter_mut().zip(share.range) {
            *cnt = if dirty.contains(i) {
                acc.symbolic_row(a, b, i)
            } else {
                prev[i + 1] - prev[i]
            } as u64;
        }
    })
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
    w.for_each_worker(a, b, stats, pool, |acc, share| {
        let (start, end) = (rpts[share.range.start], rpts[share.range.end]);
        // SAFETY: the partition is contiguous and `rpts` monotone, so
        // the workers' output windows are disjoint.
        let (cols, vals) = unsafe { (cols_s.slice_mut(start..end), vals_s.slice_mut(start..end)) };
        let mut out = Window {
            rpts,
            start,
            sorted,
            cols,
            vals,
        };
        let Some((dirty, prev)) = mask else {
            return simd::run_at(acc.simd_level(), (acc, share, out));
        };
        for i in share.range {
            let (cols, vals) = out.row(i);
            if dirty.contains(i) {
                acc.numeric_row(a, b, i, cols, vals, sorted);
            } else {
                cols.copy_from_slice(prev.row_cols(i));
                vals.copy_from_slice(prev.row_vals(i));
            }
        }
    });
}

/// A one-shot two-phase product on caller-supplied workers (symbolic →
/// allocate → numeric), for the products that are not an
/// [`crate::Algorithm`]: the masked product and HashVec at an
/// explicit SIMD level.
pub(crate) fn multiply_on<S: Semiring, A: RowAccumulator<S>>(
    w: &Workers<S, A>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    sorted: bool,
    pool: &Pool,
) -> Csr<S::Elem> {
    let stats = plan(a, b, pool);
    let (rpts, nnz) = symbolic_pass(w, a, b, &stats, pool, None);
    let mut cols = vec![0 as ColIdx; nnz];
    let mut vals = vec![S::zero(); nnz];
    numeric_pass(
        w, a, b, &stats, &rpts, sorted, pool, &mut cols, &mut vals, None,
    );
    Csr::from_parts_unchecked(a.nrows(), b.ncols(), rpts, cols, vals, sorted)
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
    use crate::algos::hash::{HashAccumulator, Linear, Table};
    use crate::algos::hashvec::Chunked;
    use crate::algos::kkhash::KkHashAccumulator;
    use crate::algos::masked::{BitRows, MaskedSpa, PatternGate};
    use crate::algos::simd::SimdLevel;
    use crate::algos::spa::SpaAccumulator;
    use crate::kgen::{InsertionArray, SHORT_MAX_FLOP};
    use proptest::prelude::*;
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

    type P = PlusTimes<f64>;

    /// `(col, value bits)`, every NaN canonicalised (the sign and
    /// payload of a NaN sum are unspecified, as in `prop_plan.rs`).
    fn bits(cols: &[ColIdx], vals: &[f64]) -> Vec<(ColIdx, u64)> {
        let bits = vals
            .iter()
            .map(|v| if v.is_nan() { 0 } else { v.to_bits() });
        cols.iter().copied().zip(bits).collect()
    }

    /// What any [`ColumnSet`] must emit for `stream`: a linear-scan
    /// list, summed in insertion order.
    fn model(stream: &[(ColIdx, f64)], sorted: bool) -> Vec<(ColIdx, u64)> {
        let mut row: Vec<(ColIdx, f64)> = Vec::new();
        for &(col, v) in stream {
            match row.iter_mut().find(|(c, _)| *c == col) {
                Some((_, sum)) => *sum = P::add(*sum, v),
                None => row.push((col, v)),
            }
        }
        if sorted {
            row.sort_by_key(|&(c, _)| c);
        }
        let (cols, vals): (Vec<_>, Vec<_>) = row.into_iter().unzip();
        bits(&cols, &vals)
    }

    /// One row through `set` under the contract: a symbolic pass, then
    /// a numeric one, `open` called on the empty set before each.
    fn row_through<C: ColumnSet<P>>(
        set: &mut C,
        open: impl Fn(&mut C),
        stream: &[(ColIdx, f64)],
        sorted: bool,
    ) -> Vec<(ColIdx, u64)> {
        assert!(set.is_empty(), "empty between rows");
        open(set);
        for &(col, _) in stream {
            set.insert_symbolic(col);
        }
        let n = set.len();
        set.reset();
        assert!(set.is_empty(), "reset empties");
        open(set);
        for &(col, v) in stream {
            set.insert_numeric(col, v);
        }
        assert_eq!(set.len(), n, "symbolic and numeric counts agree");
        let (mut cols, mut vals) = (vec![0; n], vec![0.0; n]);
        set.extract_into(&mut cols, &mut vals, sorted);
        assert!(set.is_empty(), "extract empties");
        bits(&cols, &vals)
    }

    proptest! {
        /// The contract, differentially: every implementation emits
        /// what the model does — distinct columns in first-insertion
        /// order (ascending when sorted), duplicates summed in
        /// insertion order, bit for bit — on streams with duplicates,
        /// clustered hashes and NaN / ±0.0 / ±inf values, row after
        /// row on the same (reused) set. The dense sets' ordered emit
        /// walks a bitmap of 64-column words: streams reach columns
        /// 63 / 64 / 65 and the last one of a width that is 0, 1 or 63
        /// past a word boundary, short wide rows are sorted and long
        /// narrow ones walked in the same accumulator, the SPA runs
        /// its first row narrow and the rest after a `grow`, and the
        /// bitmap is zero after every emit and after a scrub. The
        /// replay's set is held to the model's *values*: it is handed
        /// the model's columns, as a plan's pattern hands them, and
        /// must gather the same bits along them — the seed law at work
        /// on the salted streams — and be all-seed again afterwards
        /// (each row runs twice through one unrefilled view).
        #[test]
        fn every_column_set_matches_the_model(
            tail in 0usize..3,
            rows in prop::collection::vec(
                (
                    0usize..4,
                    prop::collection::vec((0u32..48, -3.0f64..3.0, 0usize..16, 0usize..16), 0..160),
                ),
                1..4,
            ),
        ) {
            let ncols = 48 * 128 + [0, 1, 63][tail];
            let edges = [63, 64, 65, ncols as ColIdx - 1];
            let every_col = (0..ncols as ColIdx).collect();
            let all_ones = Csr::from_parts(1, ncols, vec![0, ncols], every_col, vec![1u8; ncols]);
            let all_ones = all_ones.unwrap();
            let mut linear = HashAccumulator::<P>::new(160, ncols, Linear);
            let mut chunked: Vec<_> = SimdLevel::supported()
                .map(|l| (l, Table::<P, _>::new(160, ncols, Chunked::new(l))))
                .collect();
            let mut chained = KkHashAccumulator::<P>::new(160, ncols);
            let mut spa: Option<SpaAccumulator<P>> = None;
            let mut gated = MaskedSpa::<P, PatternGate<u8>>::new(&all_ones, ncols);
            let bit_row = vec![!0u64; ncols.div_ceil(64)];
            let bit_rows = BitRows::new(&bit_row, bit_row.len());
            let mut bit_gated = MaskedSpa::<P, BitRows>::new(bit_rows, ncols);
            let mut lanes = InsertionArray::<P>::new();
            let req = AccumReq { max_row_flop: 160, inner_dim: 1, ncols_b: ncols };
            let mut replayed = SpaAccumulator::<P>::new(ncols);
            for (stride, picks) in rows {
                let salt = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
                let stride = [1, 7, 107, 128][stride];
                let stream: Vec<(ColIdx, f64)> = picks
                    .into_iter()
                    .map(|(c, v, special, edge)| {
                        let col = edges.get(edge).copied().unwrap_or(c * stride);
                        (col, salt.get(special).copied().unwrap_or(v))
                    })
                    .collect();
                // The first row's SPA is as narrow as the row allows.
                let widest = stream.iter().map(|&(c, _)| c as usize + 1).max().unwrap_or(1);
                let spa = spa.get_or_insert_with(|| SpaAccumulator::new(widest));
                for sorted in [false, true] {
                    let (s, expect) = (&stream[..], model(&stream, sorted));
                    prop_assert_eq!(row_through(&mut linear, |_| {}, s, sorted), &expect[..], "linear");
                    for (level, table) in &mut chunked {
                        prop_assert_eq!(row_through(table, |_| {}, s, sorted), &expect[..], "{:?}", level);
                    }
                    prop_assert_eq!(row_through(&mut chained, |_| {}, s, sorted), &expect[..], "chained");
                    prop_assert_eq!(row_through(spa, |_| {}, s, sorted), &expect[..], "spa");
                    prop_assert!(spa.bitmap_is_clear(), "spa bitmap after the emit");
                    let through_gate = row_through(&mut gated, |g| g.open_row(0), s, sorted);
                    prop_assert_eq!(through_gate, &expect[..], "gated spa");
                    prop_assert!(gated.spa().bitmap_is_clear(), "gated bitmap after the emit");
                    let through_bits = row_through(&mut bit_gated, |g| g.open_row(0), s, sorted);
                    prop_assert_eq!(through_bits, &expect[..], "bit-gated spa");
                    prop_assert!(bit_gated.spa().bitmap_is_clear(), "bit-gated bitmap after the emit");
                    if expect.len() <= SHORT_MAX_FLOP as usize {
                        prop_assert_eq!(row_through(&mut lanes, |_| {}, s, sorted), &expect[..], "lanes");
                    }
                    let mut replay = replayed.seeded();
                    for twice in 0..2 {
                        let mut cols: Vec<ColIdx> = expect.iter().map(|&(c, _)| c).collect();
                        let mut vals = vec![0.0; cols.len()];
                        for &(col, v) in s {
                            replay.insert_numeric(col, v);
                        }
                        replay.extract_into(&mut cols, &mut vals, sorted);
                        prop_assert_eq!(bits(&cols, &vals), &expect[..], "replay, row run {}", twice);
                    }
                }
                // A row abandoned before its emit, then the acquire path.
                gated.open_row(0);
                bit_gated.open_row(0);
                for &(col, v) in &stream {
                    spa.insert_numeric(col, v);
                    gated.insert_numeric(col, v);
                    bit_gated.insert_numeric(col, v);
                }
                spa.ensure(&req);
                spa.scrub();
                gated.scrub();
                bit_gated.scrub();
                prop_assert!(spa.is_empty() && spa.bitmap_is_clear(), "spa after scrub");
                prop_assert!(gated.is_empty() && gated.spa().bitmap_is_clear(), "gated after scrub");
                prop_assert!(bit_gated.is_empty() && bit_gated.spa().bitmap_is_clear(), "bit-gated after scrub");
            }
        }
    }
}
