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
//! can be a walk instead. The SPA keeps one bit per output column (all
//! zero between rows): it sets the touched columns' bits, walks the
//! 64-bit words from the row's lowest touched word `lo` to its highest
//! `hi` with `trailing_zeros`, and emits ascending, clearing each word
//! as it is read. The walk costs `hi − lo + 1` word reads however few
//! bits are set, so it is taken only when that span is at most the
//! `n · log₂ n` of sorting the row's `n` touched columns — a 250-entry
//! row of an ER scale-11 ef-16 square spans 32 words against ≈ 2 000, a
//! 16-entry row of a scale-13 ef-4 one spans 128 against 64 and keeps
//! `sort_unstable`. On the two ef-16 cells of `bm`'s panel the per-row
//! sort was 37–40 % of the SPA's sorted time.
//!
//! **The symbolic pass writes the pattern.** A plan's symbolic pass
//! visits every `(i, j)` of the product to count it; `emit_pass` also
//! writes what it visited: each row's columns, in the order the numeric
//! pass would emit them (ascending through the same walk or sort when
//! sorted, first insertion otherwise), appended to the worker's
//! segment — `u16` entries while `ncols(B)` ≤ 2¹⁶. The segments,
//! one per worker of the partition, are the plan's `Pattern`
//! (`SpgemmPlan`'s "numeric replay"). Every bind emits into fresh
//! segments: a full rebind drops the previous pattern before it emits,
//! a row patch re-derives its dirty rows and copies every clean row
//! from the previous pattern.
//!
//! **Replay.** Given a pattern, the SPA's share of a numeric pass
//! copies its segment into its window of the output `cols`; a row is
//! then a scatter — `vals[j] = add(vals[j], v)`, unconditionally — and a
//! gather along the row's own (pre-filled) `cols`: `out[idx] =
//! vals[cols[idx]]`, and the slot goes back to the seed. No stamp, no
//! touched list, no bitmap, no sort, and sorted output costs what
//! unsorted does, because the order is the pattern's.
//!
//! *The seed invariant*: a replayed row finds every slot at
//! [`Semiring::seed`], the `e` with `add(e, x)` bit-identical to `x`.
//! The stamped pass stores a column's first product and adds the rest;
//! the replay adds all of them to the seed, in the same `k` order — the
//! same bits by the seed law (`S::zero()` would not do: `0.0 + -0.0` is
//! `+0.0`). A semiring without a seed never replays. The gather restores
//! the invariant for exactly the pattern's columns, which are the row's
//! columns as long as the operands have the planned structure; every
//! replay after any numeric pass of the same accumulator refills every
//! slot first, so a pass that panicked mid-row or broke that contract
//! cannot leak into the next one (clear-on-acquire, as for every pooled
//! accumulator).

use crate::exec::{self, AccumReq, ColumnSet, MultiplyStats, Operands, RowAccumulator, RowMask};
use crate::exec::{Share, Window, Workers};
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, DirtyRows, Semiring};
use std::sync::Mutex;

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
    /// [`Semiring::seed`] (`zero` for a semiring without one, which
    /// never replays).
    seed: S::Elem,
    /// Whether `vals` may hold anything but the seed: a fresh or grown
    /// array, any numeric pass. A replay refills it first.
    unseeded: bool,
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
            seed: S::seed().unwrap_or_else(S::zero),
            unseeded: true,
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
            self.unseeded = true;
        }
    }

    /// Whether every bit of the emit's bitmap is zero, as it must be
    /// between rows.
    #[cfg(test)]
    pub(crate) fn bitmap_is_clear(&self) -> bool {
        self.bitmap.iter().all(|&w| w == 0)
    }

    /// The replay's view of the value array, every slot at the seed:
    /// refilled first unless nothing has written it since it was last
    /// filled. Using the view counts as writing it.
    pub(crate) fn seeded(&mut self) -> Seeded<'_, S> {
        if std::mem::replace(&mut self.unseeded, true) {
            self.vals.fill(self.seed);
        }
        Seeded {
            vals: &mut self.vals,
            seed: self.seed,
        }
    }

    /// The emitting symbolic row: insert row `i`'s columns, then
    /// [`Self::emit_into`].
    #[inline(always)]
    fn emit_row<K: PatternIndex>(
        &mut self,
        ops: Operands<'_, ColIdx, ColIdx, S::Elem>,
        i: usize,
        sorted: bool,
        seg: &mut Vec<K>,
    ) -> usize {
        ops.insert_row(self, i);
        self.emit_into(sorted, seg)
    }

    /// Append the set's columns to `seg` in the order
    /// [`ColumnSet::extract_into`] would write them, return their count
    /// and leave the set empty.
    #[inline(always)]
    pub(crate) fn emit_into<K: PatternIndex>(&mut self, sorted: bool, seg: &mut Vec<K>) -> usize {
        let n = self.touched.len();
        if sorted {
            seg.reserve(n);
            in_order(&mut self.touched, &mut self.bitmap, true, |_, c| {
                seg.push(K::narrow(c))
            });
        } else {
            // A copy of the touched list vectorises where a push per
            // column does not.
            seg.extend(self.touched.iter().map(|&c| K::narrow(c)));
        }
        self.reset();
        n
    }

    /// The share's part of [`emit_pass`]: count every row of the range
    /// into `counts` and append its columns to `seg` — emitted for a
    /// dirty row (every row, without a `prior`), copied from the
    /// previous pattern for a clean one.
    fn emit_range<K: PatternIndex>(
        &mut self,
        share: Share<'_, S, Self>,
        counts: &mut [u64],
        sorted: bool,
        prior: Option<&Prior<'_>>,
        seg: &mut Vec<K>,
    ) {
        let ops = Operands::of(share.a, share.b);
        for (cnt, i) in counts.iter_mut().zip(share.range) {
            *cnt = match prior {
                Some(p) if !p.dirty.contains(i) => p.extend_row(i, seg),
                _ => self.emit_row(ops, i, sorted, seg),
            } as u64;
        }
    }
}

/// The span test of the ordered emit: walking `words` bitmap words
/// against the `n · log₂ n` of sorting `n` touched columns.
#[inline]
fn walk_beats_sort(n: usize, words: usize) -> bool {
    words <= n * n.ilog2() as usize
}

/// Hand `f` every touched column with its emit position: ascending when
/// `sorted` — walked out of `bitmap`, or sorted where the walk would
/// cost more (module docs) — in insertion order otherwise. Leaves
/// `bitmap` zero.
#[inline(always)]
fn in_order(
    touched: &mut [ColIdx],
    bitmap: &mut [u64],
    sorted: bool,
    mut f: impl FnMut(usize, ColIdx),
) {
    // (One entry is in order already.)
    let n = touched.len();
    if sorted && n > 1 {
        let (lo, hi) = touched
            .iter()
            .fold((ColIdx::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let (lo, hi) = (lo as usize >> 6, hi as usize >> 6);
        if walk_beats_sort(n, hi - lo + 1) {
            for &c in touched.iter() {
                bitmap[c as usize >> 6] |= 1 << (c & 63);
            }
            let mut idx = 0;
            for (w, word) in bitmap[lo..=hi].iter_mut().enumerate() {
                let base = (lo + w) << 6;
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    f(idx, (base | bits.trailing_zeros() as usize) as ColIdx);
                    idx += 1;
                    bits &= bits - 1;
                }
            }
            return;
        }
        touched.sort_unstable();
    }
    for (idx, &c) in touched.iter().enumerate() {
        f(idx, c);
    }
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
        let acc = &self.vals;
        in_order(&mut self.touched, &mut self.bitmap, sorted, |idx, c| {
            cols[idx] = c;
            vals[idx] = acc[c as usize];
        });
        self.reset();
    }
}

impl<S: Semiring> RowAccumulator<S> for SpaAccumulator<S> {
    /// The pattern of the plan's current binding, if it replays.
    type Shared = Option<Pattern>;

    fn build(req: &AccumReq, _: &Option<Pattern>) -> Self {
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
        self.unseeded = true;
        Operands::of(a, b).numeric_row(self, i, cols, vals, sorted);
    }

    /// A replay of the worker's pattern segment when the plan holds
    /// one, the stamped rows otherwise.
    #[inline(always)]
    fn numeric_range(&mut self, share: Share<'_, S, Self>, mut out: Window<'_, S::Elem>) {
        let (ops, sorted) = (Operands::of(share.a, share.b), out.sorted);
        let Some(pattern) = share.shared else {
            for i in share.range {
                let (cols, vals) = out.row(i);
                self.numeric_row(share.a, share.b, i, cols, vals, sorted);
            }
            return;
        };
        pattern.segments[share.wid].fill(out.cols);
        let mut set = self.seeded();
        for i in share.range {
            let (cols, vals) = out.row(i);
            ops.numeric_row(&mut set, i, cols, vals, sorted);
        }
    }
}

/// The replay's column set (module docs): a value array with every
/// slot at the seed between rows, and nothing else. Numeric rows only —
/// the pattern names the columns.
pub(crate) struct Seeded<'a, S: Semiring> {
    vals: &'a mut [S::Elem],
    seed: S::Elem,
}

impl<S: Semiring> ColumnSet<S> for Seeded<'_, S> {
    fn insert_symbolic(&mut self, _: ColIdx) {
        unreachable!("a replay runs numeric rows only");
    }

    #[inline(always)]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let j = col as usize;
        self.vals[j] = S::add(self.vals[j], value);
    }

    fn len(&self) -> usize {
        unreachable!("a replayed row does not track its columns: the pattern names them");
    }

    fn reset(&mut self) {
        unreachable!("a replayed row is emptied by its gather");
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

/// A pattern entry: `u16` while the output is at most 2¹⁶ columns wide
/// (every `bm` cell), `ColIdx` past that.
pub(crate) trait PatternIndex: Copy + Into<ColIdx> {
    /// `col`, which is below the output width.
    fn narrow(col: ColIdx) -> Self;
}

impl PatternIndex for u16 {
    #[inline(always)]
    fn narrow(col: ColIdx) -> u16 {
        col as u16
    }
}

impl PatternIndex for ColIdx {
    #[inline(always)]
    fn narrow(col: ColIdx) -> ColIdx {
        col
    }
}

/// One worker's rows of a product's column pattern, row after row, at
/// the narrowest entry width the output allows.
pub(crate) enum Segment {
    Narrow(Vec<u16>),
    Wide(Vec<ColIdx>),
}

impl Segment {
    /// An empty segment for an output `ncols_b` wide.
    fn new(ncols_b: usize) -> Segment {
        if ncols_b <= 1 << 16 {
            Segment::Narrow(Vec::new())
        } else {
            Segment::Wide(Vec::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            Segment::Narrow(p) => p.len(),
            Segment::Wide(p) => p.len(),
        }
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        match self {
            Segment::Narrow(p) => p.capacity() * std::mem::size_of::<u16>(),
            Segment::Wide(p) => p.capacity() * std::mem::size_of::<ColIdx>(),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Segment::Narrow(p) => p.shrink_to_fit(),
            Segment::Wide(p) => p.shrink_to_fit(),
        }
    }

    /// Entries `span` appended to `out`.
    fn extend<K: PatternIndex>(&self, span: std::ops::Range<usize>, out: &mut Vec<K>) {
        match self {
            Segment::Narrow(p) => out.extend(p[span].iter().map(|&c| K::narrow(c.into()))),
            Segment::Wide(p) => out.extend(p[span].iter().map(|&c| K::narrow(c))),
        }
    }

    /// The whole segment into `cols`, a worker's output window.
    fn fill(&self, cols: &mut [ColIdx]) {
        debug_assert_eq!(
            self.len(),
            cols.len(),
            "a segment spans its worker's window"
        );
        match self {
            Segment::Narrow(p) => {
                for (c, &j) in cols.iter_mut().zip(p) {
                    *c = j.into();
                }
            }
            Segment::Wide(p) => cols.copy_from_slice(p),
        }
    }
}

/// A bound plan's column pattern: the segments its symbolic pass
/// emitted, one per worker of the partition. Held until the plan's next
/// bind, which drops it before emitting (a full rebind) or copies its
/// clean rows (a row patch).
pub(crate) struct Pattern {
    segments: Vec<Segment>,
}

impl Pattern {
    /// Heap bytes held.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(Segment::bytes).sum()
    }
}

/// What a row-patch emit keeps: the previous binding's pattern, read at
/// its row pointers for every row outside `dirty`.
struct Prior<'p> {
    dirty: &'p DirtyRows,
    rpts: &'p [usize],
    pattern: &'p Pattern,
    /// Where each segment starts in the product, and its end.
    starts: Vec<usize>,
}

impl<'p> Prior<'p> {
    fn new(dirty: &'p DirtyRows, rpts: &'p [usize], pattern: &'p Pattern) -> Self {
        let starts = std::iter::once(0)
            .chain(pattern.segments.iter().scan(0, |end, s| {
                *end += s.len();
                Some(*end)
            }))
            .collect();
        Prior {
            dirty,
            rpts,
            pattern,
            starts,
        }
    }

    /// Append row `i`'s previous columns to `out`; return their count.
    fn extend_row<K: PatternIndex>(&self, i: usize, out: &mut Vec<K>) -> usize {
        let (at, n) = (self.rpts[i], self.rpts[i + 1] - self.rpts[i]);
        if n > 0 {
            // The last segment starting at or before `at`: a row is
            // never split, and an empty segment starts where the next
            // one does.
            let s = self.starts.partition_point(|&start| start <= at) - 1;
            let from = at - self.starts[s];
            self.pattern.segments[s].extend(from..from + n, out);
        }
        n
    }
}

/// The symbolic pass of a plan that replays: the ordinary count and
/// scan ([`exec::count_rows`]), each row's columns appended to its
/// worker's segment on the way, and the segments left in `w.shared` as
/// the binding's pattern. Returns `(rpts, nnz)`.
///
/// Every pass emits into fresh segments. A full pass drops the previous
/// pattern before it emits, so no long-lived segment is regrown above
/// the outputs freed since: a multi-MB segment at the top of the heap
/// keeps the allocator from returning what lies below it. Under a
/// `mask` (a row patch: `prev` are the previous row pointers) the dirty
/// rows are emitted and every clean row is copied from the previous
/// pattern.
pub(crate) fn emit_pass<S: Semiring>(
    w: &mut Workers<S, SpaAccumulator<S>>,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    stats: &MultiplyStats,
    pool: &Pool,
    sorted: bool,
    mask: Option<RowMask<'_, [usize]>>,
) -> (Vec<usize>, usize) {
    // A full pass drops the previous pattern here, before it emits.
    let kept = w.shared.take().filter(|_| mask.is_some());
    // (Without a previous pattern every row is emitted: a clean row's
    // columns are a function of the operands as much as a dirty one's.)
    let prior = mask
        .zip(kept.as_ref())
        .map(|((dirty, rpts), p)| Prior::new(dirty, rpts, p));
    let nworkers = stats.offsets.len() - 1;
    let mut segments: Vec<Segment> = (0..nworkers).map(|_| Segment::new(b.ncols())).collect();
    let (rpts, nnz) = {
        // One worker per segment: the locks are never contended, and a
        // panic fails the pass before a cell is read again.
        let cells: Vec<Mutex<&mut Segment>> = segments.iter_mut().map(Mutex::new).collect();
        let prior = prior.as_ref();
        exec::count_rows(
            w,
            a,
            b,
            stats,
            pool,
            |acc, share, counts| match &mut **cells[share.wid].lock().expect("own segment") {
                Segment::Narrow(seg) => acc.emit_range(share, counts, sorted, prior, seg),
                Segment::Wide(seg) => acc.emit_range(share, counts, sorted, prior, seg),
            },
        )
    };
    for (wid, seg) in segments.iter_mut().enumerate() {
        let rows = stats.offsets[wid]..stats.offsets[wid + 1];
        debug_assert_eq!(
            seg.len(),
            rpts[rows.end] - rpts[rows.start],
            "worker {wid}'s segment spans its rows"
        );
        seg.shrink_to_fit();
    }
    w.shared = Some(Pattern { segments });
    (rpts, nnz)
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
