//! SPA (sparse accumulator) SpGEMM — Gustavson's original accumulator
//! as formalized by Gilbert, Moler & Schreiber (§2 of the paper).
//!
//! Each thread owns a dense, `ncols(B)`-sized value array plus an
//! epoch-stamped occupancy array and a list of touched columns — the
//! `O(n · t)` memory the paper contrasts against hash (`O(flop)`) and
//! heap (`O(nnz(a_i*))`) accumulators. Rows reset in `O(touched)` by
//! bumping the epoch. Stands in for MKL in the unsorted comparisons.
//!
//! **Sorted output without sorting.** Sorting each output row is what
//! a hashed accumulator pays for sorted output (§5.4.4); a dense
//! accumulator's slots are already in column order, so its sorted emit
//! can be a walk instead. [`SpaAccumulator::extract_into`] keeps one
//! bit per output column (all zero between rows): it sets the touched
//! columns' bits, walks the 64-bit words from the row's lowest touched
//! word `lo` to its highest `hi` with `trailing_zeros`, and writes
//! `cols` / `vals` ascending, clearing each word as it is read. The
//! walk costs `hi − lo + 1` word reads however few bits are set, so it
//! is taken only when that span is at most the `n · log₂ n` of sorting
//! the row's `n` touched columns — a 250-entry row of an ER scale-11
//! ef-16 square spans 32 words against ≈ 2 000, a 16-entry row of a
//! scale-13 ef-4 one spans 128 against 64 and keeps `sort_unstable`.
//! On the two ef-16 cells of `bm`'s panel the per-row sort was
//! 37–40 % of the SPA's sorted time.
//!
//! **The replay set.** Everything above *discovers* a row's column
//! set; a reused plan computes the same set on every execution. Once a
//! plan has seen its product twice it keeps the column indices the
//! stamped pass emitted (a `Pattern`, see `SpgemmPlan`'s "numeric
//! replay") and runs its later passes over `ReplayAccumulator`: a
//! dense value array and nothing else. Its share of a pass first
//! copies its window of the pattern into the output `cols`; a row is
//! then a scatter — `vals[j] = add(vals[j], v)`, unconditionally — and
//! a gather along the row's own (pre-filled) `cols`, which is why
//! [`ColumnSet::extract_into`] *reads* `cols` there instead of writing
//! them: `out[idx] = vals[cols[idx]]`, and the slot goes back to the
//! seed. No stamp, no touched list, no bitmap, no sort, and sorted
//! output costs what unsorted does, because the order is the
//! pattern's.
//!
//! *The seed invariant*: between rows every slot holds
//! [`Semiring::seed`], the `e` with `add(e, x)` bit-identical to `x`.
//! The stamped pass stores a column's first product and adds the
//! rest; the replay adds all of them to the seed, in the same `k`
//! order — the same bits by the seed law (`S::zero()` would not do:
//! `0.0 + -0.0` is `+0.0`). A semiring without a seed never replays.
//! The gather restores the invariant for exactly the pattern's
//! columns, which are the row's columns as long as the operands have
//! the planned structure; `scrub` refills every slot, so an execution
//! that panicked mid-row or broke that contract cannot leak into the
//! next one (clear-on-acquire, as for every pooled accumulator).

use crate::exec::{AccumReq, ColumnSet, Operands, RowAccumulator, Share, Window};
use spgemm_obs as obs;
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Dense sparse-accumulator for one thread.
pub struct SpaAccumulator<S: Semiring> {
    /// `stamp[j] == epoch` ⇔ column `j` is occupied in the current row.
    stamp: Vec<u32>,
    /// Never 0, the stamp of a fresh slot.
    epoch: u32,
    vals: Vec<S::Elem>,
    touched: Vec<ColIdx>,
    /// One bit per output column, for the ordered emit; all zero
    /// between rows.
    bitmap: Vec<u64>,
}

impl<S: Semiring> SpaAccumulator<S> {
    /// Accumulator over `ncols_b` output columns.
    pub fn new(ncols_b: usize) -> Self {
        SpaAccumulator {
            stamp: vec![0; ncols_b],
            epoch: 1,
            vals: vec![S::zero(); ncols_b],
            touched: Vec::new(),
            bitmap: vec![0; ncols_b.div_ceil(64)],
        }
    }

    /// Widen to at least `ncols_b` output columns (never narrows).
    pub(crate) fn grow(&mut self, ncols_b: usize) {
        if ncols_b > self.stamp.len() {
            // Fresh slots stamped 0 read as unoccupied (epoch ≥ 1), so
            // growth needs no rescan.
            self.stamp.resize(ncols_b, 0);
            self.vals.resize(ncols_b, S::zero());
            self.bitmap.resize(ncols_b.div_ceil(64), 0);
        }
    }

    /// Whether every bit of the emit's bitmap is zero, as it must be
    /// between rows.
    #[cfg(test)]
    pub(crate) fn bitmap_is_clear(&self) -> bool {
        self.bitmap.iter().all(|&w| w == 0)
    }

    /// The ordered emit: the touched columns, ascending, through the
    /// bitmap words `lo..=hi`, which it leaves zero again.
    fn emit_ascending(&mut self, lo: usize, hi: usize, cols: &mut [ColIdx], vals: &mut [S::Elem]) {
        for &c in &self.touched {
            self.bitmap[c as usize >> 6] |= 1 << (c & 63);
        }
        let mut out = cols.iter_mut().zip(vals);
        for (w, word) in self.bitmap[lo..=hi].iter_mut().enumerate() {
            let base = (lo + w) << 6;
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let j = base | bits.trailing_zeros() as usize;
                let (col, val) = out.next().expect("one slot per touched column");
                *col = j as ColIdx;
                *val = self.vals[j];
                bits &= bits - 1;
            }
        }
    }
}

/// The span test of the ordered emit: walking `words` bitmap words
/// against the `n · log₂ n` of sorting `n` touched columns.
#[inline]
fn walk_beats_sort(n: usize, words: usize) -> bool {
    words <= n * n.ilog2() as usize
}

impl<S: Semiring> ColumnSet<S> for SpaAccumulator<S> {
    #[inline(always)]
    fn insert_symbolic(&mut self, col: ColIdx) {
        let j = col as usize;
        if self.stamp[j] != self.epoch {
            self.stamp[j] = self.epoch;
            self.touched.push(col);
        }
    }

    #[inline(always)]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let j = col as usize;
        if self.stamp[j] == self.epoch {
            self.vals[j] = S::add(self.vals[j], value);
        } else {
            self.stamp[j] = self.epoch;
            self.vals[j] = value;
            self.touched.push(col);
        }
    }

    fn len(&self) -> usize {
        self.touched.len()
    }

    /// O(1): bump the epoch.
    fn reset(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // epoch wrap: one full clear every 2^32 - 1 rows
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Sorted on request — touched order is insertion order otherwise.
    /// A sorted row whose touched words span no more than sorting it
    /// would cost is walked out of the bitmap instead (module docs).
    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.touched.len());
        // (One entry is in order already.)
        let n = self.touched.len();
        if sorted && n > 1 {
            let (lo, hi) = self
                .touched
                .iter()
                .fold((ColIdx::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
            let (lo, hi) = (lo as usize >> 6, hi as usize >> 6);
            if walk_beats_sort(n, hi - lo + 1) {
                self.emit_ascending(lo, hi, cols, vals);
                return self.reset();
            }
            self.touched.sort_unstable();
        }
        for (idx, &c) in self.touched.iter().enumerate() {
            cols[idx] = c;
            vals[idx] = self.vals[c as usize];
        }
        self.reset();
    }
}

impl<S: Semiring> RowAccumulator<S> for SpaAccumulator<S> {
    type Shared = ();

    fn build(req: &AccumReq, _: &()) -> Self {
        Self::new(req.ncols_b)
    }

    fn ensure(&mut self, req: &AccumReq) {
        self.grow(req.ncols_b);
    }

    fn scrub(&mut self) {
        self.reset();
        // An emit that panicked mid-walk may have left bits behind.
        self.bitmap.fill(0);
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        Operands::of(a, b).symbolic_row(self, i)
    }

    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        sorted: bool,
    ) {
        Operands::of(a, b).numeric_row(self, i, cols, vals, sorted);
    }
}

/// Bytes of column pattern held by live plans.
static PATTERN_BYTES: obs::GaugeSite = obs::GaugeSite::new("plan", "plan.replay.pattern_bytes");

/// A product's column indices, row after row at the symbolic row
/// pointers, exactly as a stamped numeric pass emitted them — two
/// bytes an entry wherever the output is at most 2¹⁶ columns wide
/// (every `bm` cell; a plan that replays holds one of these per
/// `nnz(C)` for as long as it stays bound).
pub(crate) enum Pattern {
    Narrow(Vec<u16>),
    Wide(Vec<ColIdx>),
}

impl Pattern {
    /// Keep `cols`, the column indices of a product `ncols_b` wide.
    pub fn capture(cols: &[ColIdx], ncols_b: usize) -> Self {
        let pattern = if ncols_b <= 1 << 16 {
            // Every index is below `ncols_b`: the narrowing is exact.
            Pattern::Narrow(cols.iter().map(|&c| c as u16).collect())
        } else {
            Pattern::Wide(cols.to_vec())
        };
        PATTERN_BYTES.add(pattern.bytes() as i64);
        pattern
    }

    /// Heap bytes held.
    pub fn bytes(&self) -> usize {
        match self {
            Pattern::Narrow(p) => std::mem::size_of_val(&p[..]),
            Pattern::Wide(p) => std::mem::size_of_val(&p[..]),
        }
    }

    /// Copy entries `start..start + cols.len()` into `cols`.
    fn fill(&self, start: usize, cols: &mut [ColIdx]) {
        let span = start..start + cols.len();
        match self {
            Pattern::Narrow(p) => {
                for (c, &j) in cols.iter_mut().zip(&p[span]) {
                    *c = j.into();
                }
            }
            Pattern::Wide(p) => cols.copy_from_slice(&p[span]),
        }
    }
}

impl Drop for Pattern {
    fn drop(&mut self) {
        PATTERN_BYTES.sub(self.bytes() as i64);
    }
}

/// The replay set (module docs): one thread's dense value array, every
/// slot at the seed between rows. Numeric passes only — the pattern it
/// replays *is* the symbolic result.
pub(crate) struct ReplayAccumulator<S: Semiring> {
    seed: S::Elem,
    vals: Vec<S::Elem>,
}

impl<S: Semiring> ColumnSet<S> for ReplayAccumulator<S> {
    fn insert_symbolic(&mut self, _: ColIdx) {
        unreachable!("the replay set runs numeric passes only");
    }

    #[inline(always)]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let j = col as usize;
        self.vals[j] = S::add(self.vals[j], value);
    }

    fn len(&self) -> usize {
        unreachable!("the replay set does not track its columns: the pattern names them");
    }

    /// `O(ncols(B))`: every slot back to the seed.
    fn reset(&mut self) {
        self.vals.fill(self.seed);
    }

    /// Gather along `cols`, which hold the row's pattern on entry;
    /// `sorted` is the pattern's own order already.
    #[inline(always)]
    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], _sorted: bool) {
        for (&c, out) in cols.iter().zip(vals) {
            *out = std::mem::replace(&mut self.vals[c as usize], self.seed);
        }
    }
}

impl<S: Semiring> RowAccumulator<S> for ReplayAccumulator<S> {
    type Shared = Pattern;

    fn build(req: &AccumReq, _: &Pattern) -> Self {
        let seed = S::seed().expect("a plan replays only under a seeded semiring");
        ReplayAccumulator {
            seed,
            vals: vec![seed; req.ncols_b],
        }
    }

    fn ensure(&mut self, req: &AccumReq) {
        if req.ncols_b > self.vals.len() {
            self.vals.resize(req.ncols_b, self.seed);
        }
    }

    fn scrub(&mut self) {
        self.reset();
    }

    fn symbolic_row(&mut self, _: &Csr<S::Elem>, _: &Csr<S::Elem>, _: usize) -> usize {
        unreachable!("the replay set runs numeric passes only");
    }

    /// `cols` must hold the row's pattern (see [`Self::numeric_range`]).
    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        sorted: bool,
    ) {
        Operands::of(a, b).numeric_row(self, i, cols, vals, sorted);
    }

    /// The worker's window of the pattern into the output `cols`, then
    /// its rows.
    #[inline(always)]
    fn numeric_range(&mut self, share: Share<'_, S, Self>, mut out: Window<'_, S::Elem>) {
        share.shared.fill(out.start, out.cols);
        let sorted = out.sorted;
        for i in share.range {
            let (cols, vals) = out.row(i);
            self.numeric_row(share.a, share.b, i, cols, vals, sorted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use crate::{multiply_in, Algorithm, OutputOrder};
    use spgemm_par::Pool;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    fn multiply<S: Semiring>(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        order: OutputOrder,
        pool: &Pool,
    ) -> Csr<S::Elem> {
        multiply_in::<S>(a, b, Algorithm::Spa, order, pool).unwrap()
    }

    #[test]
    fn accumulator_epoch_isolation() {
        let mut acc = SpaAccumulator::<P>::new(10);
        acc.insert_numeric(3, 1.0);
        acc.insert_numeric(3, 2.0);
        assert_eq!(acc.len(), 1);
        let mut c = vec![0; 1];
        let mut v = vec![0.0; 1];
        acc.extract_into(&mut c, &mut v, true);
        assert_eq!((c[0], v[0]), (3, 3.0));
        // next row must not see the previous row's value
        assert!(acc.is_empty(), "extract resets");
        acc.insert_numeric(3, 5.0);
        let mut c = vec![0; 1];
        let mut v = vec![0.0; 1];
        acc.extract_into(&mut c, &mut v, true);
        assert_eq!(v[0], 5.0, "stale value leaked across rows");
    }

    #[test]
    fn epoch_wrap_recovers() {
        let mut acc = SpaAccumulator::<P>::new(4);
        acc.epoch = u32::MAX - 1;
        acc.reset(); // -> MAX
        acc.insert_numeric(1, 1.0);
        acc.reset(); // wraps: full clear, epoch 1
        assert!(acc.is_empty());
        acc.insert_numeric(1, 9.0);
        let mut c = vec![0; 1];
        let mut v = vec![0.0; 1];
        acc.extract_into(&mut c, &mut v, true);
        assert_eq!(v[0], 9.0);
    }

    #[test]
    fn span_test_on_the_two_panel_rows() {
        // a 16-entry row of an ER scale-13 ef-4 square spans 128 words
        assert!(!walk_beats_sort(16, 128));
        // a 250-entry row of an ER scale-11 ef-16 square spans 32
        assert!(walk_beats_sort(250, 32));
        assert!(!walk_beats_sort(1, 1), "a single entry needs neither");
        assert!(walk_beats_sort(2, 2) && !walk_beats_sort(2, 3));
    }

    /// Both emits in one accumulator, row after row, across a `grow`:
    /// each row ascending with its own sums, the bitmap zero after
    /// every row and after a scrub of a half-built one.
    #[test]
    fn walked_and_sorted_rows_alternate_in_one_accumulator() {
        let emit = |acc: &mut SpaAccumulator<P>, row: &[ColIdx]| {
            for &c in row {
                acc.insert_numeric(c, c as f64);
                acc.insert_numeric(c, 0.5);
            }
            let (mut cols, mut vals) = (vec![0; row.len()], vec![0.0; row.len()]);
            acc.extract_into(&mut cols, &mut vals, true);
            let mut want = row.to_vec();
            want.sort_unstable();
            assert_eq!(cols, want);
            assert!(cols.iter().zip(&vals).all(|(&c, &v)| v == c as f64 + 0.5));
            assert!(acc.is_empty() && acc.bitmap_is_clear());
        };
        let mut acc = SpaAccumulator::<P>::new(8192);
        // 16 columns 512 apart, descending: 128 words, sorted.
        let sparse: Vec<ColIdx> = (0..16).rev().map(|k| k * 512 + 63).collect();
        // 250 columns of 2048..4096, scattered: 32 words, walked.
        let dense: Vec<ColIdx> = (0..250).map(|k| 2048 + (k * 1031) % 2048).collect();
        assert!(!walk_beats_sort(sparse.len(), 128) && walk_beats_sort(dense.len(), 32));
        for _ in 0..2 {
            emit(&mut acc, &sparse);
            emit(&mut acc, &dense);
        }
        acc.grow(8192 + 65);
        emit(&mut acc, &[8192 + 64, 8191, 8192, 64, 63, 65]);
        emit(&mut acc, &(8100..8192 + 65).rev().collect::<Vec<_>>());
        emit(&mut acc, &sparse);
        // a row abandoned before its emit
        acc.insert_numeric(8192 + 64, 1.0);
        acc.scrub();
        assert!(acc.is_empty() && acc.bitmap_is_clear());
        emit(&mut acc, &dense);
    }

    #[test]
    fn matches_reference() {
        let a = Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 3, 3.0),
                (2, 1, 4.0),
                (3, 0, 5.0),
                (3, 2, 6.0),
            ],
        )
        .unwrap();
        let expect = reference::multiply::<P>(&a, &a);
        for nt in [1usize, 2] {
            let pool = Pool::new(nt);
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let got = multiply::<P>(&a, &a, order, &pool);
                assert!(approx_eq_f64(&expect, &got, 1e-12), "nt={nt} {order:?}");
                assert!(got.validate().is_ok());
            }
        }
    }
}
