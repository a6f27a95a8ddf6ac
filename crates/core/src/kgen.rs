//! Row-class specialized numeric kernels (`Algorithm::RowClass`).
//!
//! The paper's central finding is that no single accumulator wins:
//! the right kernel depends on row density (§5, figs 11–13). The
//! monolithic kernels in [`crate::algos`] pick one accumulator for
//! *every* row of a product; this module picks one *per row class*,
//! following Deveci et al.'s multi-level scheme (PAPERS.md):
//!
//! | class  | flop bound            | kernel                        |
//! |--------|-----------------------|-------------------------------|
//! | tiny   | ≤ 8                   | SIMD insertion array          |
//! | short  | ≤ 32                  | SIMD insertion array          |
//! | medium | < α·ncols(B)          | linear-probing hash table     |
//! | dense  | ≥ α·ncols(B) (α = ¼)  | dense SPA                     |
//!
//! Rows are classified from the per-row flop counts the inspector
//! already computes ([`crate::exec::plan`]) and grouped into per-class
//! work queues at plan-bind time, so the numeric phase runs each
//! bucket back-to-back with no per-row branching. The plan also keeps
//! *compressed column indices* — a plan-private gathered `u16` copy of
//! each operand's column array when its width fits (fig 14's
//! compression applied to speed: the hot inner loops move half the
//! index bytes) — without touching the shared [`Csr`].
//!
//! The accumulator is a class dispatch over three column sets
//! (`crate::algos::ColumnSet`) — its own insertion array, and the hash
//! table and SPA the monolithic kernels use — each row run through
//! the one row loop of `crate::exec`; the insertion array's vector
//! probe is why a worker's drain is compiled under the SIMD level
//! (`RowAccumulator::simd_level`).
//!
//! **Parity invariant**: every column set accumulates duplicate
//! columns in `k`-encounter order and emits distinct columns in
//! first-encounter order (unsorted) or ascending order (sorted), just
//! like the hash accumulator. RowClass output is therefore
//! byte-for-byte identical to [`crate::Algorithm::Hash`] — the
//! property the `prop_plan` and `delta_oracle` suites pin down.

use crate::algos::hash::{HashAccumulator, Linear};
use crate::algos::simd::{self, CheckedLevel, ChunkProbe, EMPTY};
use crate::algos::spa::SpaAccumulator;
use crate::exec::{row_flop, AccumReq, ColumnSet, MultiplyStats, Operands, RowAccumulator};
use crate::exec::{Share, Window};
use spgemm_obs as obs;
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Largest flop count classified [`RowClass::Tiny`].
pub const TINY_MAX_FLOP: u64 = 8;
/// Largest flop count classified [`RowClass::Short`]. Also the
/// capacity of the SIMD insertion array (a row with `flop ≤ 32` has at
/// most 32 distinct output columns), kept a multiple of every
/// [`simd::SimdLevel`] chunk width.
pub const SHORT_MAX_FLOP: u64 = 32;

/// Smallest flop count classified [`RowClass::Dense`] for an output of
/// `ncols_b` columns: a quarter of the output width (never below the
/// short-row bound). At that fill rate the `O(ncols(B))` dense SPA
/// array is already mostly touched, so direct indexing beats hashing.
pub fn dense_cutoff(ncols_b: usize) -> u64 {
    (ncols_b.div_ceil(4) as u64).max(SHORT_MAX_FLOP + 1)
}

/// The four row classes of the bucketed numeric phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowClass {
    /// `flop ≤ 8` — SIMD insertion array, insertion-sort emit.
    Tiny = 0,
    /// `flop ≤ 32` — SIMD insertion array.
    Short = 1,
    /// Everything between short and dense — hash accumulator.
    Medium = 2,
    /// `flop ≥ `[`dense_cutoff`] — dense SPA.
    Dense = 3,
}

impl RowClass {
    /// Classify a row by its flop count against output width
    /// `ncols_b`. Monotone in `flop`, which is what lets one
    /// accumulator sized for a worker's *largest* row serve every
    /// class that worker can encounter.
    #[inline]
    pub fn classify(flop: u64, ncols_b: usize) -> RowClass {
        if flop <= TINY_MAX_FLOP {
            RowClass::Tiny
        } else if flop <= SHORT_MAX_FLOP {
            RowClass::Short
        } else if flop >= dense_cutoff(ncols_b) {
            RowClass::Dense
        } else {
            RowClass::Medium
        }
    }

    /// Display name (bench output, metrics).
    pub fn name(self) -> &'static str {
        match self {
            RowClass::Tiny => "tiny",
            RowClass::Short => "short",
            RowClass::Medium => "medium",
            RowClass::Dense => "dense",
        }
    }
}

/// All classes in queue-processing order.
pub const CLASSES: [RowClass; 4] = [
    RowClass::Tiny,
    RowClass::Short,
    RowClass::Medium,
    RowClass::Dense,
];

/// Per-class row counts for `A · B`, classified exactly as a RowClass
/// plan would. Serial; used by the bench for bucket-occupancy stats.
pub fn bucket_occupancy<T: Copy>(a: &Csr<T>, b: &Csr<T>) -> [u64; 4] {
    let mut occ = [0u64; 4];
    for i in 0..a.nrows() {
        let flop = row_flop(a, b, i);
        occ[RowClass::classify(flop, b.ncols()) as usize] += 1;
    }
    occ
}

/// The plan-private side of a RowClass bind: per-worker per-class row
/// queues, bucket occupancy, and the compressed column-index copies.
/// Rebuilt on every (re)bind — all `O(nrows + nnz)`, a fraction of the
/// symbolic pass it precedes. (The default is the empty spec of a plan
/// that has not bound operands yet.)
#[derive(Default)]
pub(crate) struct RowClassSpec {
    /// `queues[w][class]` — the rows of worker `w`'s partition range in
    /// that class, ascending.
    queues: Vec<[Vec<u32>; 4]>,
    /// `A`'s column indices gathered to `u16` when `ncols(A) < 2¹⁶`
    /// (they index rows of `B`, i.e. the inner dimension).
    a16: Option<Vec<u16>>,
    /// `B`'s column indices gathered to `u16` when `ncols(B) < 2¹⁶`.
    b16: Option<Vec<u16>>,
}

/// The compression decision rule: a dimension fits `u16` iff it is
/// strictly below 2¹⁶ (every index is `< dim`).
fn fits_u16(dim: usize) -> bool {
    dim < (1 << 16)
}

impl RowClassSpec {
    /// Heap bytes of the queues and the index copies.
    pub(crate) fn bytes(&self) -> usize {
        let queues: usize = self.queues.iter().flatten().map(|q| 4 * q.len()).sum();
        let narrow = |c: &Option<Vec<u16>>| c.as_ref().map_or(0, |c| 2 * c.len());
        queues + narrow(&self.a16) + narrow(&self.b16)
    }

    /// Classify every row from the plan's flop counts, build the
    /// per-worker class queues, and gather the compressed index
    /// copies. Also publishes the `plan.rowclass.*` obs counters.
    pub(crate) fn build<A: Copy, B: Copy>(
        a: &Csr<A>,
        b: &Csr<B>,
        stats: &MultiplyStats,
    ) -> RowClassSpec {
        let ncols_b = b.ncols();
        let nworkers = stats.offsets.len().saturating_sub(1);
        let mut queues: Vec<[Vec<u32>; 4]> = (0..nworkers).map(|_| Default::default()).collect();
        let mut occupancy = [0u64; 4];
        for (w, wq) in queues.iter_mut().enumerate() {
            for i in stats.offsets[w]..stats.offsets[w + 1] {
                let class = RowClass::classify(stats.row_flops[i], ncols_b);
                wq[class as usize].push(i as u32);
                occupancy[class as usize] += 1;
            }
        }
        let gather = |cols: &[ColIdx]| cols.iter().map(|&c| c as u16).collect::<Vec<u16>>();
        let a16 = fits_u16(a.ncols()).then(|| gather(a.cols()));
        let b16 = fits_u16(ncols_b).then(|| gather(b.cols()));
        if obs::enabled() {
            static TINY: obs::CounterSite = obs::CounterSite::new("plan", "plan.rowclass.tiny");
            static SHORT: obs::CounterSite = obs::CounterSite::new("plan", "plan.rowclass.short");
            static MEDIUM: obs::CounterSite = obs::CounterSite::new("plan", "plan.rowclass.medium");
            static DENSE: obs::CounterSite = obs::CounterSite::new("plan", "plan.rowclass.dense");
            static COLS16: obs::CounterSite = obs::CounterSite::new("plan", "plan.rowclass.cols16");
            static COLS32: obs::CounterSite = obs::CounterSite::new("plan", "plan.rowclass.cols32");
            TINY.add(occupancy[RowClass::Tiny as usize]);
            SHORT.add(occupancy[RowClass::Short as usize]);
            MEDIUM.add(occupancy[RowClass::Medium as usize]);
            DENSE.add(occupancy[RowClass::Dense as usize]);
            for compressed in [a16.is_some(), b16.is_some()] {
                if compressed {
                    COLS16.incr();
                } else {
                    COLS32.incr();
                }
            }
        }
        RowClassSpec { queues, a16, b16 }
    }

    /// Rows per class across all workers.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> [u64; 4] {
        let mut occ = [0u64; 4];
        for wq in &self.queues {
            for (c, q) in wq.iter().enumerate() {
                occ[c] += q.len() as u64;
            }
        }
        occ
    }
}

/// The tiny/short-row accumulator: [`SHORT_MAX_FLOP`] lanes of keys
/// ([`EMPTY`] when free; occupied lanes a global prefix, in insertion
/// order) with a parallel value array. Probed by
/// [`simd::probe_prefix`] — a handful of vector compares, no hashing,
/// no table reset. Holds at most `SHORT_MAX_FLOP` distinct columns.
pub(crate) struct InsertionArray<S: Semiring> {
    level: CheckedLevel,
    keys: Vec<i32>,
    vals: Vec<S::Elem>,
    len: usize,
}

impl<S: Semiring> InsertionArray<S> {
    /// An empty array probed at [`simd::detect`]'s level.
    pub(crate) fn new() -> Self {
        InsertionArray {
            level: simd::detect().checked(),
            keys: vec![EMPTY; SHORT_MAX_FLOP as usize],
            vals: vec![S::zero(); SHORT_MAX_FLOP as usize],
            len: 0,
        }
    }

    /// The lane holding `col`, appending it at the first free lane if
    /// absent. Returns `(lane, inserted)`.
    #[inline(always)]
    fn probe_insert(&mut self, col: ColIdx) -> (usize, bool) {
        match simd::probe_prefix(self.level, &self.keys, col as i32) {
            ChunkProbe::Found(lane) => (lane, false),
            ChunkProbe::Empty(lane) => {
                debug_assert_eq!(lane, self.len, "occupied lanes must stay a prefix");
                self.keys[lane] = col as i32;
                self.len += 1;
                (lane, true)
            }
            ChunkProbe::Full => unreachable!("short-row flop bound guarantees a free lane"),
        }
    }
}

impl<S: Semiring> ColumnSet<S> for InsertionArray<S> {
    #[inline(always)]
    fn insert_symbolic(&mut self, col: ColIdx) {
        self.probe_insert(col);
    }

    #[inline(always)]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let (lane, inserted) = self.probe_insert(col);
        self.vals[lane] = if inserted {
            value
        } else {
            S::add(self.vals[lane], value)
        };
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Clear the occupied lanes only.
    #[inline]
    fn reset(&mut self) {
        self.keys[..self.len].fill(EMPTY);
        self.len = 0;
    }

    /// First-encounter order; insertion-sorted ascending when `sorted`.
    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.len);
        for idx in 0..self.len {
            cols[idx] = self.keys[idx] as ColIdx;
            vals[idx] = self.vals[idx];
        }
        if sorted {
            // Insertion sort — the right tool at ≤ 32 distinct
            // entries (tiny rows are ≤ 8, usually already nearly
            // ordered when B is sorted). Keys are distinct, so any
            // comparison sort yields the same byte-for-byte output as
            // the hash accumulator's sort_unstable.
            insertion_sort_pairs(cols, vals);
        }
        self.reset();
    }
}

/// In-place insertion sort of parallel `(cols, vals)` arrays by
/// column. Allocation-free; `cols` is duplicate-free here.
fn insertion_sort_pairs<E: Copy>(cols: &mut [ColIdx], vals: &mut [E]) {
    for i in 1..cols.len() {
        let (c, v) = (cols[i], vals[i]);
        let mut j = i;
        while j > 0 && cols[j - 1] > c {
            cols[j] = cols[j - 1];
            vals[j] = vals[j - 1];
            j -= 1;
        }
        cols[j] = c;
        vals[j] = v;
    }
}

/// The composite per-thread accumulator behind `Algorithm::RowClass`:
/// one column set per row class, dispatched by the row's class.
/// Implements the same `RowAccumulator` contract as the monolithic
/// accumulators, so the delta paths (`rebind_rows` / `execute_rows`)
/// drive it row-by-row unchanged — each recomputed row re-derives its
/// class from its current flop count.
pub struct RowClassAccumulator<S: Semiring> {
    /// Tiny and short rows.
    short: InsertionArray<S>,
    /// Medium rows: the ordinary linear-probing hash table, sized by
    /// the *medium* flop bound (strictly below [`dense_cutoff`]) — a
    /// smaller, more cache-resident table than a monolithic Hash plan
    /// would allocate when dense rows exist.
    hash: HashAccumulator<S>,
    /// Dense rows: the `O(ncols(B))` SPA, created only when the
    /// accumulator's requirements actually include a dense row.
    spa: Option<SpaAccumulator<S>>,
}

/// `req` narrowed to what the medium class's table must hold.
fn medium_req(req: &AccumReq) -> AccumReq {
    AccumReq {
        max_row_flop: (req.max_row_flop).min((dense_cutoff(req.ncols_b) - 1) as usize),
        ..*req
    }
}

impl<S: Semiring> RowClassAccumulator<S> {
    /// The SPA for a dense row, created on first need (steady-state
    /// executions of a plan with dense rows find it already built by
    /// the warm-up pass, so this never allocates there).
    fn spa_mut(&mut self, ncols_b: usize) -> &mut SpaAccumulator<S> {
        let spa = self.spa.get_or_insert_with(|| SpaAccumulator::new(ncols_b));
        spa.grow(ncols_b);
        spa
    }

    /// Count row `i`'s distinct output columns in its class's set.
    ///
    /// `inline(always)`: the insertion array's loop must fold into the
    /// level-bound instance of the worker's share so the vector probes
    /// inline (`simd::run_at`); the other two classes have no vector
    /// probe and run as calls.
    #[inline(always)]
    fn symbolic_row_idx<KA: Copy + Into<ColIdx>, KB: Copy + Into<ColIdx>>(
        &mut self,
        class: RowClass,
        ops: Operands<'_, KA, KB, S::Elem>,
        i: usize,
    ) -> usize {
        match class {
            RowClass::Tiny | RowClass::Short => ops.symbolic_row(&mut self.short, i),
            RowClass::Medium => ops.symbolic_row_call(&mut self.hash, i),
            RowClass::Dense => ops.symbolic_row_call(self.spa_mut(ops.b.ncols()), i),
        }
    }

    /// Compute row `i` into pre-sliced output in its class's set.
    /// (`inline(always)`: see [`Self::symbolic_row_idx`].)
    #[inline(always)]
    fn numeric_row_idx<KA: Copy + Into<ColIdx>, KB: Copy + Into<ColIdx>>(
        &mut self,
        class: RowClass,
        ops: Operands<'_, KA, KB, S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        sorted: bool,
    ) {
        match class {
            RowClass::Tiny | RowClass::Short => {
                ops.numeric_row(&mut self.short, i, cols, vals, sorted)
            }
            RowClass::Medium => ops.numeric_row_call(&mut self.hash, i, cols, vals, sorted),
            RowClass::Dense => {
                let spa = self.spa_mut(ops.b.ncols());
                ops.numeric_row_call(spa, i, cols, vals, sorted)
            }
        }
    }
}

/// Bind the four index-width combinations once per worker and pass,
/// handing the generic body the operands as `$ops`.
macro_rules! with_operands {
    ($share:expr, |$ops:ident| $body:expr) => {{
        let (a, b) = ($share.a, $share.b);
        match (&$share.shared.a16, &$share.shared.b16) {
            (Some(a16), Some(b16)) => {
                let $ops = Operands::new(a, &a16[..], b, &b16[..]);
                $body
            }
            (Some(a16), None) => {
                let $ops = Operands::new(a, &a16[..], b, b.cols());
                $body
            }
            (None, Some(b16)) => {
                let $ops = Operands::new(a, a.cols(), b, &b16[..]);
                $body
            }
            (None, None) => {
                let $ops = Operands::of(a, b);
                $body
            }
        }
    }};
}

impl<S: Semiring> RowAccumulator<S> for RowClassAccumulator<S> {
    /// The bind-time class queues and compressed indices the range
    /// methods drain.
    type Shared = RowClassSpec;

    fn build(req: &AccumReq, _: &RowClassSpec) -> Self {
        let mut acc = RowClassAccumulator {
            short: InsertionArray::new(),
            hash: HashAccumulator::build(&medium_req(req), &Linear),
            spa: None,
        };
        acc.ensure(req);
        acc
    }

    fn ensure(&mut self, req: &AccumReq) {
        self.hash.ensure(&medium_req(req));
        if RowClass::classify(req.max_row_flop as u64, req.ncols_b) == RowClass::Dense {
            // Pre-build the SPA here (the acquire path) so dense rows
            // never allocate inside the row loop of a steady state.
            self.spa_mut(req.ncols_b);
        }
    }

    fn scrub(&mut self) {
        self.short.reset();
        self.hash.scrub();
        if let Some(spa) = &mut self.spa {
            spa.scrub();
        }
    }

    /// The insertion array's: the one vector probe RowClass has.
    fn simd_level(&self) -> Option<CheckedLevel> {
        Some(self.short.level)
    }

    #[inline(always)]
    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        // Per-row class dispatch from the row's *current* flop count —
        // this is what lets `rebind_rows` re-count an edited row that
        // crossed a class boundary without any plan-level bookkeeping.
        let class = RowClass::classify(row_flop(a, b, i), b.ncols());
        self.symbolic_row_idx(class, Operands::of(a, b), i)
    }

    #[inline(always)]
    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        sorted: bool,
    ) {
        let class = RowClass::classify(row_flop(a, b, i), b.ncols());
        self.numeric_row_idx(class, Operands::of(a, b), i, cols, vals, sorted);
    }

    /// The bucketed symbolic share: drain the worker's class queues
    /// back to back (no per-row kernel branching) over the compressed
    /// column indices. `inline(always)` so the pass compiles the whole
    /// drain under the SIMD level.
    #[inline(always)]
    fn symbolic_range(&mut self, share: Share<'_, S, Self>, counts: &mut [u64]) {
        with_operands!(share, |ops| {
            for class in CLASSES {
                for &i in &share.shared.queues[share.wid][class as usize] {
                    let i = i as usize;
                    counts[i - share.range.start] = self.symbolic_row_idx(class, ops, i) as u64;
                }
            }
        })
    }

    /// The bucketed numeric share — see [`Self::symbolic_range`].
    #[inline(always)]
    fn numeric_range(&mut self, share: Share<'_, S, Self>, mut out: Window<'_, S::Elem>) {
        let sorted = out.sorted;
        with_operands!(share, |ops| {
            for class in CLASSES {
                for &i in &share.shared.queues[share.wid][class as usize] {
                    let (cols, vals) = out.row(i as usize);
                    self.numeric_row_idx(class, ops, i as usize, cols, vals, sorted);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_par::Pool;
    use spgemm_sparse::PlusTimes;

    type P = PlusTimes<f64>;

    #[test]
    fn classify_thresholds() {
        let n = 1000; // dense_cutoff = 250
        assert_eq!(dense_cutoff(n), 250);
        assert_eq!(RowClass::classify(0, n), RowClass::Tiny);
        assert_eq!(RowClass::classify(8, n), RowClass::Tiny);
        assert_eq!(RowClass::classify(9, n), RowClass::Short);
        assert_eq!(RowClass::classify(32, n), RowClass::Short);
        assert_eq!(RowClass::classify(33, n), RowClass::Medium);
        assert_eq!(RowClass::classify(249, n), RowClass::Medium);
        assert_eq!(RowClass::classify(250, n), RowClass::Dense);
        // narrow outputs: the dense cutoff never undercuts the short
        // bound, so the classes stay ordered by flop
        assert_eq!(dense_cutoff(40), 33);
        assert_eq!(RowClass::classify(33, 40), RowClass::Dense);
        for ncols in [1usize, 7, 40, 65, 100_000] {
            let mut last = RowClass::Tiny as usize;
            for flop in 0..400u64 {
                let c = RowClass::classify(flop, ncols) as usize;
                assert!(c >= last, "classify must be monotone in flop");
                last = c;
            }
        }
    }

    #[test]
    fn short_array_accumulates_in_k_encounter_order() {
        let mut acc = InsertionArray::<P>::new();
        for sorted in [false, true] {
            acc.insert_numeric(42, 1.0);
            acc.insert_numeric(7, 2.0);
            acc.insert_numeric(42, 3.0);
            assert_eq!(acc.len(), 2);
            let mut cols = vec![0; 2];
            let mut vals = vec![0.0; 2];
            acc.extract_into(&mut cols, &mut vals, sorted);
            if sorted {
                assert_eq!((cols, vals), (vec![7, 42], vec![2.0, 4.0]));
            } else {
                assert_eq!((cols, vals), (vec![42, 7], vec![4.0, 2.0]));
            }
            assert_eq!(acc.len(), 0, "extract resets");
        }
    }

    #[test]
    fn short_array_handles_full_capacity() {
        let mut acc = InsertionArray::<P>::new();
        for c in 0..SHORT_MAX_FLOP as u32 {
            acc.insert_numeric(c * 3, 1.0);
        }
        assert_eq!(acc.len(), SHORT_MAX_FLOP as usize);
        // duplicates at full load must still resolve (no livelock,
        // unlike a full hash table)
        for c in 0..SHORT_MAX_FLOP as u32 {
            acc.insert_numeric(c * 3, 1.0);
        }
        let mut cols = vec![0; 32];
        let mut vals = vec![0.0; 32];
        acc.extract_into(&mut cols, &mut vals, true);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        assert!(vals.iter().all(|&v| v == 2.0));
    }

    /// The parity invariant at the accumulator level: every class
    /// produces byte-for-byte the hash accumulator's output.
    #[test]
    fn every_class_matches_hash_accumulator_bitwise() {
        let mut seed = 0xC0FFEEu64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        // one matrix pair per class: row 0 of A drives the product
        let ncols = 200; // dense_cutoff = 50
        for &target_flop in &[4usize, 20, 40, 120] {
            let mut tri_a = Vec::new();
            let mut tri_b = Vec::new();
            // A row 0 with `target_flop / 4` entries; each consumed B
            // row has 4 entries -> flop = target
            let a_nnz = (target_flop / 4).max(1);
            for t in 0..a_nnz {
                tri_a.push((0usize, t as u32, 1.0 + t as f64));
            }
            for k in 0..a_nnz {
                for u in 0..4usize {
                    // overlapping columns across B rows force real
                    // accumulation (duplicate k-encounters)
                    tri_b.push((k, (next() % ncols) as u32, 0.5 + u as f64));
                }
            }
            tri_b.sort_by_key(|&(r, c, _)| (r, c));
            tri_b.dedup_by_key(|&mut (r, c, _)| (r, c));
            let a = Csr::from_triplets(1, a_nnz, &tri_a).unwrap();
            let b = Csr::from_triplets(a_nnz, ncols, &tri_b).unwrap();
            let flop = row_flop(&a, &b, 0);
            let class = RowClass::classify(flop, ncols);
            let mut hash = HashAccumulator::<P>::new(flop as usize, ncols, Linear);
            let req = AccumReq {
                max_row_flop: flop as usize,
                inner_dim: a_nnz,
                ncols_b: ncols,
            };
            let mut rc = RowClassAccumulator::<P>::build(&req, &RowClassSpec::default());
            let n = RowAccumulator::<P>::symbolic_row(&mut hash, &a, &b, 0);
            let n2 = RowAccumulator::<P>::symbolic_row(&mut rc, &a, &b, 0);
            assert_eq!(n, n2, "class {class:?} symbolic count");
            for sorted in [false, true] {
                let (mut c1, mut v1) = (vec![0; n], vec![0.0; n]);
                let (mut c2, mut v2) = (vec![0; n], vec![0.0; n]);
                RowAccumulator::<P>::numeric_row(&mut hash, &a, &b, 0, &mut c1, &mut v1, sorted);
                RowAccumulator::<P>::numeric_row(&mut rc, &a, &b, 0, &mut c2, &mut v2, sorted);
                assert_eq!(c1, c2, "class {class:?} sorted={sorted} cols");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&v1), bits(&v2), "class {class:?} sorted={sorted} vals");
            }
        }
    }

    #[test]
    fn spec_build_classifies_and_compresses() {
        // 40 columns: dense_cutoff = 33
        let n = 40;
        let mut tri = Vec::new();
        // row 0: empty (tiny). row 1: 2 entries over rows with 2 nnz
        // each (flop 4, tiny). row 2: flop 20 (short). row 3: all of a
        // 34-entry row (dense).
        for c in 0..34u32 {
            tri.push((3usize, c, 1.0));
        }
        tri.push((1, 4, 1.0));
        tri.push((1, 5, 1.0));
        for c in 10..20u32 {
            tri.push((2, c, 1.0));
        }
        let a = Csr::from_triplets(n, n, &tri).unwrap();
        let pool = Pool::new(2);
        let stats = crate::exec::plan(&a, &a, &pool);
        let spec = RowClassSpec::build(&a, &a, &stats);
        let occ = spec.occupancy();
        assert_eq!(occ.iter().sum::<u64>(), n as u64);
        assert!(occ[RowClass::Tiny as usize] >= 1);
        assert!(spec.a16.is_some() && spec.b16.is_some(), "40 < 2^16");
        assert_eq!(spec.a16.as_ref().unwrap().len(), a.nnz());
        // queues cover every row exactly once
        let mut seen = vec![false; n];
        for wq in &spec.queues {
            for q in wq {
                for &i in q {
                    assert!(!seen[i as usize]);
                    seen[i as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn occupancy_helper_matches_spec() {
        let a = Csr::from_triplets(6, 6, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (5, 5, 4.0)])
            .unwrap();
        let pool = Pool::new(2);
        let stats = crate::exec::plan(&a, &a, &pool);
        let spec = RowClassSpec::build(&a, &a, &stats);
        assert_eq!(bucket_occupancy(&a, &a), spec.occupancy());
    }
}
