//! Masked SpGEMM: `C = (A · B) ∘ M` computed *without materializing*
//! `A · B`.
//!
//! Triangle counting (§5.6) only ever reads the wedge product `L · U`
//! at the positions of the graph's own edges; masked SpGEMM exploits
//! that by rejecting every intermediate product that falls outside the
//! mask row, shrinking both the accumulator working set (≤ nnz(m_i*)
//! instead of flop(c_i*)) and the output. This is the natural
//! "future work" extension of the paper's kernels and matches the
//! masked primitives of the GraphBLAS ecosystem its applications come
//! from.
//!
//! One accumulator serves both masked products: a SPA behind a gate.
//! [`multiply_masked`] gates on a mask's pattern (`PatternGate`);
//! [`masked_pattern`], multi-source BFS's level step, gates on the rows
//! of a dense bitmap (`BitRows`) and emits the pattern only, in one
//! pass.

use crate::algos::spa::SpaAccumulator;
use crate::exec::{self, AccumReq, ColumnSet, Operands, RowAccumulator, Share, Workers};
use crate::OutputOrder;
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, OrAnd, Semiring, SparseError};
use std::sync::Mutex;

/// What admits a column into the open row of a [`MaskedSpa`].
pub(crate) trait Gate: Send {
    /// The read-only source every worker's gate reads.
    type Source: Copy + Sync;

    /// A gate over `source` for an output `ncols` wide.
    fn new(source: Self::Source, ncols: usize) -> Self;

    /// Widen to at least `ncols` output columns (never narrows).
    fn grow(&mut self, ncols: usize);

    /// Admit row `i`'s columns.
    fn open_row(&mut self, i: usize);

    /// Whether `col` is admitted into the open row.
    fn admits(&self, col: ColIdx) -> bool;

    /// Close the open row.
    fn close_row(&mut self);
}

/// A structural mask's gate: row `i` admits the columns `m_i*` stores.
pub(crate) struct PatternGate<'m, M> {
    mask: &'m Csr<M>,
    /// `allowed[j] == epoch` ⇔ `j ∈ m_i*` for the open row.
    allowed: Vec<u32>,
    /// Never 0, the stamp of a fresh slot.
    epoch: u32,
}

impl<'m, M: Copy + Send + Sync> Gate for PatternGate<'m, M> {
    type Source = &'m Csr<M>;

    fn new(mask: &'m Csr<M>, ncols: usize) -> Self {
        PatternGate {
            mask,
            allowed: vec![0; ncols],
            epoch: 1,
        }
    }

    fn grow(&mut self, ncols: usize) {
        if ncols > self.allowed.len() {
            // Fresh slots stamped 0 read as outside the mask
            // (epoch ≥ 1).
            self.allowed.resize(ncols, 0);
        }
    }

    fn open_row(&mut self, i: usize) {
        for &c in self.mask.row_cols(i) {
            self.allowed[c as usize] = self.epoch;
        }
    }

    #[inline(always)]
    fn admits(&self, col: ColIdx) -> bool {
        self.allowed[col as usize] == self.epoch
    }

    /// O(1): bump the epoch.
    fn close_row(&mut self) {
        if self.epoch == u32::MAX {
            self.allowed.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

/// A dense bitmap's gate: `words` `u64`s per row, row `i` admits
/// column `j` iff bit `j % 64` of word `i · words + j / 64` is set.
/// Nothing to stamp: opening a row is picking its words.
#[derive(Clone, Copy)]
pub(crate) struct BitRows<'m> {
    bits: &'m [u64],
    words: usize,
    /// The open row's words.
    row: &'m [u64],
}

impl<'m> BitRows<'m> {
    /// `bits` read as rows of `words` words each.
    pub(crate) fn new(bits: &'m [u64], words: usize) -> Self {
        BitRows {
            bits,
            words,
            row: &[],
        }
    }
}

impl Gate for BitRows<'_> {
    type Source = Self;

    fn new(rows: Self, _: usize) -> Self {
        rows
    }

    /// The bitmap's width is its caller's.
    fn grow(&mut self, _: usize) {}

    fn open_row(&mut self, i: usize) {
        self.row = &self.bits[i * self.words..(i + 1) * self.words];
    }

    #[inline(always)]
    fn admits(&self, col: ColIdx) -> bool {
        self.row[col as usize >> 6] >> (col & 63) & 1 != 0
    }

    fn close_row(&mut self) {}
}

/// A SPA behind a [`Gate`]: inserts outside the row
/// [`MaskedSpa::open_row`] admitted are rejected before they reach it.
pub(crate) struct MaskedSpa<S: Semiring, G> {
    gate: G,
    spa: SpaAccumulator<S>,
}

impl<S: Semiring, G: Gate> MaskedSpa<S, G> {
    pub(crate) fn new(source: G::Source, ncols: usize) -> Self {
        MaskedSpa {
            gate: G::new(source, ncols),
            spa: SpaAccumulator::new(ncols),
        }
    }

    /// Admit row `i`'s columns into the (empty) set.
    pub(crate) fn open_row(&mut self, i: usize) {
        self.gate.open_row(i);
    }

    /// The gated accumulator.
    #[cfg(test)]
    pub(crate) fn spa(&self) -> &SpaAccumulator<S> {
        &self.spa
    }
}

impl<S: Semiring> MaskedSpa<S, BitRows<'_>> {
    /// The share's part of [`masked_pattern`]'s pass: every row's
    /// admitted columns appended to `seg`, in emit order, and counted
    /// into `counts`. A row whose admit words are all zero is not
    /// walked. A row of one word — an output at most 64 columns wide,
    /// as a BFS batch of up to 64 sources is — accumulates in a
    /// register: each product ORs in its bit ANDed with the admit word,
    /// and the row is emitted ascending from it. (Through the gated
    /// SPA's stamps and touched list, `bm`'s 64-source BFS levels take
    /// twice as long.)
    fn pattern_range(
        &mut self,
        share: Share<'_, S, Self>,
        counts: &mut [u64],
        sorted: bool,
        seg: &mut Vec<ColIdx>,
    ) {
        let (a, b) = (share.a, share.b);
        for (cnt, i) in counts.iter_mut().zip(share.range) {
            self.open_row(i);
            *cnt = match *self.gate.row {
                _ if self.gate.row.iter().all(|&w| w == 0) => 0,
                [admit] => {
                    let mut row = 0u64;
                    for &k in a.row_cols(i) {
                        for &j in b.row_cols(k as usize) {
                            row |= admit & 1 << j;
                        }
                    }
                    let n = row.count_ones();
                    while row != 0 {
                        seg.push(row.trailing_zeros());
                        row &= row - 1;
                    }
                    n as usize
                }
                _ => {
                    Operands::of(a, b).insert_row(self, i);
                    self.spa.emit_into(sorted, seg)
                }
            } as u64;
        }
    }
}

impl<S: Semiring, G: Gate> ColumnSet<S> for MaskedSpa<S, G> {
    #[inline]
    fn insert_symbolic(&mut self, col: ColIdx) {
        if self.gate.admits(col) {
            self.spa.insert_symbolic(col);
        }
    }

    #[inline]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        // outside the gate: product rejected
        if self.gate.admits(col) {
            self.spa.insert_numeric(col, value);
        }
    }

    fn len(&self) -> usize {
        self.spa.len()
    }

    fn reset(&mut self) {
        self.spa.reset();
        self.gate.close_row();
    }

    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        self.spa.extract_into(cols, vals, sorted);
        self.gate.close_row();
    }
}

impl<S: Semiring, G: Gate> RowAccumulator<S> for MaskedSpa<S, G> {
    /// What every worker's gate reads: the mask, or the bitmap.
    type Shared = G::Source;

    fn build(req: &AccumReq, source: &G::Source) -> Self {
        Self::new(*source, req.ncols_b)
    }

    fn ensure(&mut self, req: &AccumReq) {
        self.gate.grow(req.ncols_b);
        self.spa.ensure(req);
    }

    fn scrub(&mut self) {
        self.reset();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        self.open_row(i);
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
        self.open_row(i);
        Operands::of(a, b).numeric_row(self, i, cols, vals, sorted);
    }
}

/// Masked SpGEMM: `C = (A · B) ∘ M` (structural mask — `M`'s values
/// are ignored, its pattern gates the output).
///
/// Entries of `A · B` outside `M`'s pattern are never accumulated, so
/// the cost is `O(flop)` probes but only `O(Σ nnz(m_i*))` accumulator
/// space and output. The mask must be shaped like the product.
pub fn multiply_masked<S: Semiring, M: Copy + Send + Sync>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    mask: &Csr<M>,
    order: OutputOrder,
    pool: &Pool,
) -> Result<Csr<S::Elem>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "multiply_masked",
        });
    }
    if mask.shape() != (a.nrows(), b.ncols()) {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows(), b.ncols()),
            right: mask.shape(),
            op: "multiply_masked (mask shape)",
        });
    }
    let w = Workers::<S, MaskedSpa<S, PatternGate<'_, M>>>::new(pool.nthreads(), mask);
    Ok(exec::multiply_on(&w, a, b, order.is_sorted(), pool))
}

/// Masked pattern product: `C = (A · B)⟨U⟩`, pattern only.
///
/// `(i, j)` is stored iff some `k` stores both `A[i,k]` and `B[k,j]`
/// and bit `j % 64` of word `i · ⌈ncols(B)/64⌉ + j / 64` of `admit` is
/// set: `admit` is a row-major bitmap over the product's shape, its
/// bits at or past `ncols(B)` ignored. Values are never read, and every
/// stored value is `true`. A product not admitted is rejected before
/// it reaches the accumulator, and a row whose admit words are all zero
/// is not walked.
///
/// One pass: each worker appends its rows' admitted columns to its own
/// segment while it counts them, and the joined segments are the
/// output — no numeric pass, no second walk over the flops. This is
/// multi-source BFS's level step, `F' = (Aᵀ · F)⟨unvisited⟩`.
pub fn masked_pattern(
    a: &Csr<bool>,
    b: &Csr<bool>,
    admit: &[u64],
    order: OutputOrder,
    pool: &Pool,
) -> Result<Csr<bool>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "masked_pattern",
        });
    }
    let words = b.ncols().div_ceil(64);
    if Some(admit.len()) != a.nrows().checked_mul(words) {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows(), words),
            right: (admit.len(), 1),
            op: "masked_pattern (admit: ⌈ncols(B)/64⌉ words per row of A)",
        });
    }
    let sorted = order.is_sorted();
    let w = Workers::<OrAnd, MaskedSpa<OrAnd, BitRows<'_>>>::new(
        pool.nthreads(),
        BitRows::new(admit, words),
    );
    let stats = exec::plan(a, b, pool);
    // The symbolic frame (`exec::count_rows`), each row's columns
    // appended to its worker's segment on the way, as `spa::emit_pass`
    // writes a plan's pattern.
    // Each worker locks its own segment; a panic fails the call first.
    const OWN_SEGMENT: &str = "a segment is locked by its own worker only";
    let segments: Vec<Mutex<Vec<ColIdx>>> =
        (0..pool.nthreads()).map(|_| Mutex::default()).collect();
    let (rpts, nnz) = exec::count_rows(&w, a, b, &stats, pool, |acc, share, counts| {
        let mut seg = segments[share.wid].lock().expect(OWN_SEGMENT);
        acc.pattern_range(share, counts, sorted, &mut seg);
    });
    // Worker order is row order.
    let mut cols = Vec::with_capacity(nnz);
    for seg in segments {
        cols.append(&mut seg.into_inner().expect(OWN_SEGMENT));
    }
    debug_assert_eq!(cols.len(), nnz, "the segments span the product");
    Ok(Csr::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        rpts,
        cols,
        vec![true; nnz],
        sorted,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use proptest::prelude::*;
    use spgemm_sparse::{approx_eq_f64, ops, PlusTimes};
    use std::collections::BTreeMap;

    type P = PlusTimes<f64>;

    #[test]
    fn equals_multiply_then_hadamard() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            7,
            6,
            &mut spgemm_gen::rng(1),
        );
        // mask: the matrix's own pattern (the triangle-counting shape)
        let mask = a.map(|_| 1.0f64);
        let pool = Pool::new(2);
        let masked = multiply_masked::<P, f64>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        let full = reference::multiply::<P>(&a, &a);
        let expect = ops::hadamard(&full, &mask).unwrap();
        // hadamard multiplies values by the mask's (all-one) values
        assert!(approx_eq_f64(&expect, &masked, 1e-9));
        assert!(masked.nnz() <= mask.nnz());
    }

    #[test]
    fn empty_mask_gives_empty_product() {
        let a = Csr::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]).unwrap();
        let mask = Csr::<u8>::zero(3, 3);
        let pool = Pool::new(1);
        let c = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn mask_wider_than_product_is_harmless() {
        // mask entries where the product is zero simply do not appear
        let a = Csr::from_triplets(2, 2, &[(0, 0, 2.0)]).unwrap();
        let mask = Csr::from_triplets(2, 2, &[(0, 0, 1u8), (1, 1, 1)]).unwrap();
        let pool = Pool::new(1);
        let c = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(&4.0));
    }

    #[test]
    fn shape_mismatches_rejected() {
        let a = Csr::<f64>::zero(2, 3);
        let b = Csr::<f64>::zero(3, 4);
        let pool = Pool::new(1);
        let bad_mask = Csr::<u8>::zero(2, 3);
        assert!(multiply_masked::<P, u8>(&a, &b, &bad_mask, OutputOrder::Sorted, &pool).is_err());
        let bad_b = Csr::<f64>::zero(5, 4);
        let mask = Csr::<u8>::zero(2, 4);
        assert!(multiply_masked::<P, u8>(&a, &bad_b, &mask, OutputOrder::Sorted, &pool).is_err());
    }

    #[test]
    fn unsorted_output_same_content() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::Er,
            6,
            4,
            &mut spgemm_gen::rng(2),
        );
        let mask = a.map(|_| 1u8);
        let pool = Pool::new(2);
        let s = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        let u = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Unsorted, &pool).unwrap();
        assert!(approx_eq_f64(&s, &u, 1e-12));
        assert!(s.is_sorted());
    }

    /// `(row, col, value)` triplets as a matrix, the last of a repeated
    /// coordinate kept.
    fn bool_matrix(nrows: usize, ncols: usize, entries: &[(usize, usize, bool)]) -> Csr<bool> {
        let unique: BTreeMap<(usize, usize), bool> = entries
            .iter()
            .map(|&(i, j, v)| ((i % nrows, j % ncols), v))
            .collect();
        let trips: Vec<_> = unique
            .into_iter()
            .map(|((i, j), v)| (i, j as ColIdx, v))
            .collect();
        Csr::from_triplets(nrows, ncols, &trips).unwrap()
    }

    /// The bitmap's admitted `(i, j)`, `j < ncols`, as a mask.
    fn bits_as_mask(admit: &[u64], nrows: usize, ncols: usize) -> Csr<bool> {
        let words = ncols.div_ceil(64);
        let trips: Vec<_> = (0..nrows)
            .flat_map(|i| (0..ncols).map(move |j| (i, j)))
            .filter(|&(i, j)| admit[i * words + j / 64] >> (j % 64) & 1 != 0)
            .map(|(i, j)| (i, j as ColIdx, true))
            .collect();
        Csr::from_triplets(nrows, ncols, &trips).unwrap()
    }

    /// Row `i`'s columns, ascending.
    fn sorted_row(m: &Csr<bool>, i: usize) -> Vec<ColIdx> {
        let mut row = m.row_cols(i).to_vec();
        row.sort_unstable();
        row
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `masked_pattern` is the pattern of `hadamard(A · B, U)` over
        /// `(∨, ∧)`, stored `false` operand entries counting as entries,
        /// for widths on and off the 64-bit word boundary with the tail
        /// bits of every row's last word set at random; admit rows are
        /// random, all zero or all ones, and `A` has empty rows. The
        /// bitmap gate emits exactly what the pattern gate does on the
        /// same pattern (the masked product's columns), sorted and
        /// unsorted, at 1–3 threads.
        #[test]
        fn masked_pattern_is_the_gated_reference(
            (n, k, width) in (1usize..24, 1usize..24, 0usize..7),
            a_entries in prop::collection::vec((0usize..24, 0usize..24, prop::bool::ANY), 0..60),
            b_entries in prop::collection::vec((0usize..24, 0usize..129, prop::bool::ANY), 0..150),
            words in prop::collection::vec((0..=u64::MAX, 0u8..4), 24 * 3),
        ) {
            let m = [1, 5, 63, 64, 65, 100, 129][width];
            let a = bool_matrix(n, k, &a_entries);
            let b = bool_matrix(k, m, &b_entries);
            let row_words = m.div_ceil(64);
            // Row `i` is all zero, all ones or random by `words[i].1`;
            // its last word's tail bits are set wherever its word's are.
            let admit: Vec<u64> = (0..n * row_words)
                .map(|w| match words[w / row_words].1 {
                    0 => 0,
                    1 => !0,
                    _ => words[w].0,
                })
                .collect();
            let mask = bits_as_mask(&admit, n, m);
            let expect = ops::hadamard(&reference::multiply::<OrAnd>(&a, &b), &mask).unwrap();
            for nt in 1..=3 {
                let pool = Pool::new(nt);
                for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                    let got = masked_pattern(&a, &b, &admit, order, &pool).unwrap();
                    prop_assert!(got.validate().is_ok());
                    prop_assert_eq!(got.shape(), (n, m));
                    prop_assert_eq!(got.is_sorted(), order.is_sorted());
                    prop_assert!(got.vals().iter().all(|&v| v));
                    for i in 0..n {
                        prop_assert_eq!(sorted_row(&got, i), expect.row_cols(i), "row {} at {} threads", i, nt);
                    }
                    let masked = multiply_masked::<OrAnd, bool>(&a, &b, &mask, order, &pool).unwrap();
                    prop_assert_eq!(got.rpts(), masked.rpts(), "bit gate vs pattern gate");
                    for i in 0..n {
                        prop_assert_eq!(sorted_row(&got, i), sorted_row(&masked, i), "row {}", i);
                    }
                }
            }
        }
    }

    #[test]
    fn masked_pattern_rejects_a_wrong_admit_length_or_shape() {
        let a = Csr::from_triplets(3, 2, &[(0, 1, true), (2, 0, true)]).unwrap();
        let b = Csr::from_triplets(2, 65, &[(0, 64, true), (1, 0, false)]).unwrap();
        let pool = Pool::new(2);
        // two words per row of A
        for len in [0, 3, 5, 7] {
            let admit = vec![!0u64; len];
            let r = masked_pattern(&a, &b, &admit, OutputOrder::Sorted, &pool);
            assert!(
                matches!(r, Err(SparseError::ShapeMismatch { .. })),
                "{len} words"
            );
        }
        let c = masked_pattern(&a, &b, &[!0u64; 6], OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(
            (c.row_cols(0), c.row_cols(1), c.row_cols(2)),
            (&[0][..], &[][..], &[64][..])
        );
        assert!(masked_pattern(&a, &a, &[0u64; 3], OutputOrder::Sorted, &pool).is_err());
        // an output with no columns takes no words
        let empty = Csr::<bool>::zero(2, 0);
        let c = masked_pattern(&a, &empty, &[], OutputOrder::Unsorted, &pool).unwrap();
        assert_eq!((c.shape(), c.nnz()), ((3, 0), 0));
    }
}
