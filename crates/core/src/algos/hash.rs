//! The open-addressing hash table of the two-phase hash SpGEMMs
//! (§4.2.1–4.2.2, Figures 7 & 8).
//!
//! One per-thread [`Table`] serves every hashed kernel; what differs
//! between them is the [`Probe`] policy it is built around, and
//! nothing else:
//!
//! * [`Linear`] — Figure 8a: the hash selects a slot, collisions step
//!   to the next slot. [`crate::Algorithm::Hash`] (which a planned
//!   `Inspector` runs), RowClass's medium class, and the one-phase
//!   Inspector row `spgemm-bench` stages.
//! * [`crate::algos::hashvec::Chunked`] — Figure 8b: the hash selects
//!   a register-wide chunk, one vector compare checks all its keys.
//!   [`crate::Algorithm::HashVec`].
//!
//! Shared by both:
//!
//! * table size is the smallest power of two strictly greater than
//!   `min(ncols(B), max flop of the thread's rows)`, allocated once
//!   per thread inside the parallel region and *reused* across rows
//!   (re-initialization touches only the slots used by the last row);
//! * the hash is `column · HASH_SCALE` masked to the bucket count, the
//!   paper's multiplicative scheme with its power-of-two modulus;
//! * empty slots hold [`EMPTY`], which is why column indices are
//!   `i32`-bound;
//! * symbolic phase inserts keys only; numeric phase accumulates
//!   values and finally emits the row — sorted by column on request,
//!   in insertion order otherwise (the §5.4.4 sort-skip).

use crate::algos::simd::{CheckedLevel, EMPTY};
use crate::exec::{self, AccumReq, ColumnSet, Operands, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// The multiplicative hashing constant of every hashed accumulator
/// (the reference implementation accompanying the paper, nsparse,
/// uses 107).
pub const HASH_SCALE: u32 = 107;

/// How a [`Table`] walks its slots for a key. A table-like kernel *is*
/// its probe: sizing, reset, emit and the row loop are shared.
pub trait Probe: Copy + Send + Sync {
    /// Slots per hash bucket (1 for a slot-granular probe, the chunk
    /// width for a chunked one); the table keeps a power-of-two number
    /// of buckets.
    fn width(&self) -> usize {
        1
    }

    /// Walk `keys` — `(mask + 1) · width()` slots, at least one of
    /// them [`EMPTY`] — for `col`, claiming the empty slot the walk
    /// ends at if it is absent. Returns `(slot, claimed)`.
    fn insert(&mut self, keys: &mut [i32], mask: u32, col: ColIdx) -> (usize, bool);

    /// The SIMD level `insert` runs vector code at, if any (see
    /// `RowAccumulator::simd_level`).
    fn level(&self) -> Option<CheckedLevel> {
        None
    }
}

/// Figure 8a's walk from `col`'s hashed slot, one slot at a time,
/// calling `step` once per slot inspected (the hook a counting probe,
/// such as the bench's collision-factor measurement, counts through).
#[inline(always)]
pub fn linear_insert(
    keys: &mut [i32],
    mask: u32,
    col: ColIdx,
    mut step: impl FnMut(),
) -> (usize, bool) {
    let mut h = col.wrapping_mul(HASH_SCALE) & mask;
    loop {
        step();
        let slot = h as usize;
        let k = keys[slot];
        if k == col as i32 {
            return (slot, false);
        }
        if k == EMPTY {
            keys[slot] = col as i32;
            return (slot, true);
        }
        h = (h + 1) & mask;
    }
}

/// Linear probing (Figure 8a).
#[derive(Clone, Copy, Debug, Default)]
pub struct Linear;

impl Probe for Linear {
    #[inline(always)]
    fn insert(&mut self, keys: &mut [i32], mask: u32, col: ColIdx) -> (usize, bool) {
        linear_insert(keys, mask, col, || {})
    }
}

/// An open-addressing hash accumulator for one thread, probed by `P`.
pub struct Table<S: Semiring, P> {
    keys: Vec<i32>,
    vals: Vec<S::Elem>,
    /// Slots filled by the current row, for O(row) re-initialization
    /// and insertion-order extraction.
    occupied: Vec<u32>,
    /// Bucket count − 1.
    mask: u32,
    probe: P,
    /// Scratch for sorted extraction.
    sort_buf: Vec<(ColIdx, S::Elem)>,
}

/// The linear-probing table of [`crate::Algorithm::Hash`].
pub type HashAccumulator<S> = Table<S, Linear>;

impl<S: Semiring, P: Probe> Table<S, P> {
    /// Table for rows of at most `max_row_flop` intermediate products
    /// into an output of `ncols_b` columns, probed by `probe`.
    pub fn new(max_row_flop: usize, ncols_b: usize, probe: P) -> Self {
        let mut table = Table {
            keys: Vec::new(),
            vals: Vec::new(),
            occupied: Vec::new(),
            mask: 0,
            probe,
            sort_buf: Vec::new(),
        };
        table.grow(max_row_flop, ncols_b);
        table
    }

    /// Size the table for rows within the given bounds; never shrinks
    /// (a bigger table stays correct and keeps the allocation
    /// amortized).
    fn grow(&mut self, max_row_flop: usize, ncols_b: usize) {
        // Figure 7 lines 10-12: size_t = min(Ncol, max flop), table is
        // the smallest 2^n strictly above it (≥1 slot always free),
        // and at least one bucket.
        let size_t = max_row_flop.min(ncols_b);
        let cap = exec::lowest_p2_above(size_t).max(self.probe.width());
        if cap > self.keys.len() {
            self.keys.clear();
            self.keys.resize(cap, EMPTY);
            self.vals.clear();
            self.vals.resize(cap, S::zero());
            self.mask = (cap / self.probe.width() - 1) as u32;
            self.occupied.clear();
            self.occupied.reserve(size_t);
        }
    }

    /// Current table capacity in keys (a power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// The probe policy (and whatever it recorded).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Find the slot for `col`, claiming one if absent. Returns
    /// `(slot, inserted)`.
    #[inline(always)]
    fn probe_insert(&mut self, col: ColIdx) -> (usize, bool) {
        let (slot, inserted) = self.probe.insert(&mut self.keys, self.mask, col);
        if inserted {
            self.occupied.push(slot as u32);
        }
        (slot, inserted)
    }
}

impl<S: Semiring, P: Probe> ColumnSet<S> for Table<S, P> {
    #[inline(always)]
    fn insert_symbolic(&mut self, col: ColIdx) {
        self.probe_insert(col);
    }

    #[inline(always)]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let (slot, inserted) = self.probe_insert(col);
        self.vals[slot] = if inserted {
            value
        } else {
            S::add(self.vals[slot], value)
        };
    }

    fn len(&self) -> usize {
        self.occupied.len()
    }

    /// Clear only the slots used by the current row (the paper's
    /// per-row re-initialization).
    fn reset(&mut self) {
        for &slot in &self.occupied {
            self.keys[slot as usize] = EMPTY;
        }
        self.occupied.clear();
    }

    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.occupied.len());
        let (keys, values) = (&self.keys, &self.vals);
        let entries = self.occupied.iter().map(|&slot| {
            let slot = slot as usize;
            (keys[slot] as ColIdx, values[slot])
        });
        if sorted {
            exec::emit_sorted(&mut self.sort_buf, entries, cols, vals);
        } else {
            for (idx, (c, v)) in entries.enumerate() {
                cols[idx] = c;
                vals[idx] = v;
            }
        }
        self.reset();
    }
}

impl<S: Semiring, P: Probe> RowAccumulator<S> for Table<S, P> {
    /// The probe policy every worker's table is built around.
    type Shared = P;

    fn build(req: &AccumReq, probe: &P) -> Self {
        Self::new(req.max_row_flop, req.ncols_b, *probe)
    }

    fn ensure(&mut self, req: &AccumReq) {
        self.grow(req.max_row_flop, req.ncols_b);
    }

    fn scrub(&mut self) {
        self.reset();
    }

    fn simd_level(&self) -> Option<CheckedLevel> {
        self.probe.level()
    }

    #[inline(always)]
    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        Operands::of(a, b).symbolic_row(self, i)
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
        Operands::of(a, b).numeric_row(self, i, cols, vals, sorted);
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
        multiply_in::<S>(a, b, Algorithm::Hash, order, pool).unwrap()
    }

    #[test]
    fn table_survives_full_load_without_livelock() {
        // capacity strictly above the insert count guarantees an empty
        // slot, so probing always terminates; verify at the boundary.
        let mut acc = HashAccumulator::<P>::new(16, 1000, Linear);
        let cap = acc.capacity();
        assert!(cap > 16);
        for c in 0..16u32 {
            acc.insert_numeric(c, 1.0);
        }
        assert_eq!(acc.len(), 16);
        // re-inserting existing keys must still terminate
        for c in 0..16u32 {
            acc.insert_numeric(c, 1.0);
        }
        assert_eq!(acc.len(), 16);
    }

    #[test]
    fn capacity_clamped_by_ncols() {
        let acc = HashAccumulator::<P>::new(1 << 20, 100, Linear);
        assert!(acc.capacity() <= 256, "min(Ncol, flop) bound applied");
    }

    #[test]
    fn reset_touches_only_occupied() {
        let mut acc = HashAccumulator::<P>::new(64, 1000, Linear);
        acc.insert_numeric(5, 1.0);
        acc.reset();
        assert!(acc.is_empty());
        // the table is fully reusable afterwards
        acc.insert_numeric(5, 2.0);
        let mut c = vec![0; 1];
        let mut v = vec![0.0; 1];
        acc.extract_into(&mut c, &mut v, true);
        assert_eq!(v, vec![2.0]);
    }

    fn check_against_reference(a: &Csr<f64>, b: &Csr<f64>) {
        let expect = reference::multiply::<P>(a, b);
        let pool = Pool::new(2);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let got = multiply::<P>(a, b, order, &pool);
            assert!(
                approx_eq_f64(&expect, &got, 1e-12),
                "order {order:?}\nexpect {expect:?}\ngot {got:?}"
            );
            if order.is_sorted() {
                assert!(got.is_sorted());
            }
            assert!(got.validate().is_ok());
        }
    }

    #[test]
    fn matches_reference_on_small_matrices() {
        let a = Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (2, 0, 4.0),
                (2, 2, 0.5),
                (3, 3, 3.0),
            ],
        )
        .unwrap();
        check_against_reference(&a, &a);
    }

    #[test]
    fn matches_reference_rectangular() {
        let a = Csr::from_triplets(3, 5, &[(0, 4, 1.0), (1, 0, 2.0), (2, 2, 3.0)]).unwrap();
        let b = Csr::from_triplets(5, 2, &[(0, 1, 1.0), (2, 0, 2.0), (4, 1, -1.0)]).unwrap();
        check_against_reference(&a, &b);
    }

    #[test]
    fn empty_rows_and_matrices() {
        let z = Csr::<f64>::zero(5, 5);
        check_against_reference(&z, &z);
        let a = Csr::from_triplets(5, 5, &[(2, 2, 1.0)]).unwrap();
        check_against_reference(&a, &z);
        check_against_reference(&z, &a);
    }

    #[test]
    fn unsorted_input_accepted() {
        // hash accepts any input order (Table 1: Any/Select)
        let a = Csr::from_parts(
            4,
            4,
            vec![0, 3, 4, 4, 6],
            vec![3, 0, 1, 2, 3, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        assert!(!a.is_sorted());
        let b = a.to_sorted();
        let pool = Pool::new(2);
        let c_unsorted_in = multiply::<P>(&a, &b, OutputOrder::Sorted, &pool);
        let c_sorted_in = multiply::<P>(&b, &b, OutputOrder::Sorted, &pool);
        assert!(approx_eq_f64(&c_unsorted_in, &c_sorted_in, 1e-12));
    }
}
