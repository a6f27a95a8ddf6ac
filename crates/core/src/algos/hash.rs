//! Two-phase hash-table SpGEMM (§4.2.1, Figures 7 & 8a).
//!
//! Per-thread open-addressing table with linear probing:
//!
//! * table size is the smallest power of two strictly greater than
//!   `min(ncols(B), max flop of the thread's rows)`, allocated once
//!   per thread inside the parallel region and *reused* across rows
//!   (re-initialization touches only the slots used by the last row);
//! * the hash is `column · HASH_SCALE` masked to the table size, the
//!   paper's multiplicative scheme with its power-of-two modulus;
//! * empty slots hold `-1`, which is why column indices are `i32`-bound;
//! * symbolic phase inserts keys only; numeric phase accumulates
//!   values and finally emits the row — sorted by column on request,
//!   in insertion order otherwise (the §5.4.4 sort-skip).

use crate::exec::{self, AccumReq, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// The multiplicative hashing constant. The reference implementation
/// accompanying the paper (nsparse) uses 107; the ablation bench
/// compares it against a golden-ratio constant.
pub const HASH_SCALE: u32 = 107;

/// Sentinel for an empty slot (column indices are non-negative).
const EMPTY: i32 = -1;

/// A linear-probing hash accumulator for one thread.
///
/// Exposed (as `pub`) so the accumulator microbenchmark can drive it
/// row-by-row outside the full kernel.
pub struct HashAccumulator<S: Semiring> {
    keys: Vec<i32>,
    vals: Vec<S::Elem>,
    /// Slots filled by the current row, for O(row) re-initialization
    /// and insertion-order extraction.
    occupied: Vec<u32>,
    mask: u32,
    /// Scratch for sorted extraction.
    sort_buf: Vec<(ColIdx, S::Elem)>,
    /// Lifetime probe counters backing [`HashAccumulator::collision_factor`]
    /// — the empirical `c` of the paper's Eq (2).
    probes: u64,
    accesses: u64,
}

impl<S: Semiring> HashAccumulator<S> {
    /// Table for rows of at most `max_row_flop` intermediate products
    /// into an output of `ncols_b` columns.
    pub fn new(max_row_flop: usize, ncols_b: usize) -> Self {
        // Figure 7 lines 10-12: size_t = min(Ncol, max flop), table is
        // the smallest 2^n strictly above it (≥1 slot always free).
        let size_t = max_row_flop.min(ncols_b);
        let cap = exec::lowest_p2_above(size_t);
        HashAccumulator {
            keys: vec![EMPTY; cap],
            vals: vec![S::zero(); cap],
            occupied: Vec::with_capacity(size_t.min(cap)),
            mask: (cap - 1) as u32,
            sort_buf: Vec::new(),
            probes: 0,
            accesses: 0,
        }
    }

    /// Current table capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of distinct keys inserted for the current row.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// Whether the current row is empty.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Find the slot for `col`, inserting it if absent. Returns
    /// `(slot, inserted)`.
    #[inline]
    pub fn probe_insert(&mut self, col: ColIdx) -> (usize, bool) {
        let mut h = col.wrapping_mul(HASH_SCALE) & self.mask;
        self.accesses += 1;
        loop {
            self.probes += 1;
            let slot = h as usize;
            let k = self.keys[slot];
            if k == col as i32 {
                return (slot, false);
            }
            if k == EMPTY {
                self.keys[slot] = col as i32;
                self.occupied.push(h);
                return (slot, true);
            }
            h = (h + 1) & self.mask; // linear probing (Figure 8a)
        }
    }

    /// Average probes per access since construction (or the last
    /// [`HashAccumulator::reset_stats`]) — the collision factor `c` of
    /// Eq (2). Exactly 1.0 when no probe ever collided.
    pub fn collision_factor(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.probes as f64 / self.accesses as f64
        }
    }

    /// Zero the probe counters.
    pub fn reset_stats(&mut self) {
        self.probes = 0;
        self.accesses = 0;
    }

    /// Symbolic insert: count-only.
    #[inline]
    pub fn insert_symbolic(&mut self, col: ColIdx) -> bool {
        self.probe_insert(col).1
    }

    /// Numeric insert: accumulate `value` at `col`.
    #[inline]
    pub fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let (slot, inserted) = self.probe_insert(col);
        self.vals[slot] = if inserted {
            value
        } else {
            S::add(self.vals[slot], value)
        };
    }

    /// Clear only the slots used by the current row, keeping the
    /// allocation (the paper's per-row re-initialization).
    pub fn reset(&mut self) {
        for &h in &self.occupied {
            self.keys[h as usize] = EMPTY;
        }
        self.occupied.clear();
    }

    /// Emit the accumulated row into `cols`/`vals` (whose length must
    /// equal [`HashAccumulator::len`]) and reset. `sorted` selects
    /// ascending-column order vs raw insertion order.
    pub fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.occupied.len());
        if sorted {
            self.sort_buf.clear();
            self.sort_buf.extend(
                self.occupied
                    .iter()
                    .map(|&h| (self.keys[h as usize] as ColIdx, self.vals[h as usize])),
            );
            self.sort_buf.sort_unstable_by_key(|&(c, _)| c);
            for (idx, &(c, v)) in self.sort_buf.iter().enumerate() {
                cols[idx] = c;
                vals[idx] = v;
            }
        } else {
            for (idx, &h) in self.occupied.iter().enumerate() {
                cols[idx] = self.keys[h as usize] as ColIdx;
                vals[idx] = self.vals[h as usize];
            }
        }
        self.reset();
    }

    /// Run one full row of `A · B` numerically (used by the staged
    /// one-phase Inspector kernel and the accumulator bench).
    #[inline]
    pub fn accumulate_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) {
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let kr = k as usize;
            for (&j, &bval) in b.row_cols(kr).iter().zip(b.row_vals(kr)) {
                self.insert_numeric(j, S::mul(aval, bval));
            }
        }
    }
}

impl<S: Semiring> RowAccumulator<S> for HashAccumulator<S> {
    type Shared = ();

    fn build(req: &AccumReq, _: &()) -> Self {
        Self::new(req.max_row_flop, req.ncols_b)
    }

    fn ensure(&mut self, req: &AccumReq) {
        let size_t = req.max_row_flop.min(req.ncols_b);
        let cap = exec::lowest_p2_above(size_t);
        if cap > self.keys.len() {
            // Rebuild at the larger size (never shrink: a bigger table
            // stays correct and keeps the allocation amortized).
            self.keys.clear();
            self.keys.resize(cap, EMPTY);
            self.vals.clear();
            self.vals.resize(cap, S::zero());
            self.mask = (cap - 1) as u32;
            self.occupied.clear();
        }
    }

    fn scrub(&mut self) {
        self.reset();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        for &k in a.row_cols(i) {
            for &j in b.row_cols(k as usize) {
                self.insert_symbolic(j);
            }
        }
        let n = self.occupied.len();
        self.reset();
        n
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
        self.accumulate_row(a, b, i);
        self.extract_into(cols, vals, sorted);
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
    fn accumulator_insert_and_extract_sorted() {
        let mut acc = HashAccumulator::<P>::new(8, 100);
        acc.insert_numeric(42, 1.0);
        acc.insert_numeric(7, 2.0);
        acc.insert_numeric(42, 3.0);
        assert_eq!(acc.len(), 2);
        let mut cols = vec![0; 2];
        let mut vals = vec![0.0; 2];
        acc.extract_into(&mut cols, &mut vals, true);
        assert_eq!(cols, vec![7, 42]);
        assert_eq!(vals, vec![2.0, 4.0]);
        assert!(acc.is_empty(), "extract resets");
    }

    #[test]
    fn accumulator_unsorted_preserves_insertion_order() {
        let mut acc = HashAccumulator::<P>::new(8, 100);
        for c in [9u32, 3, 77] {
            acc.insert_numeric(c, c as f64);
        }
        let mut cols = vec![0; 3];
        let mut vals = vec![0.0; 3];
        acc.extract_into(&mut cols, &mut vals, false);
        assert_eq!(cols, vec![9, 3, 77]);
        assert_eq!(vals, vec![9.0, 3.0, 77.0]);
    }

    #[test]
    fn table_survives_full_load_without_livelock() {
        // capacity strictly above the insert count guarantees an empty
        // slot, so probing always terminates; verify at the boundary.
        let mut acc = HashAccumulator::<P>::new(16, 1000);
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
        let acc = HashAccumulator::<P>::new(1 << 20, 100);
        assert!(acc.capacity() <= 256, "min(Ncol, flop) bound applied");
    }

    #[test]
    fn reset_touches_only_occupied() {
        let mut acc = HashAccumulator::<P>::new(64, 1000);
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

    #[test]
    fn collision_factor_tracks_probing() {
        let mut acc = HashAccumulator::<P>::new(64, 1 << 20);
        assert_eq!(acc.collision_factor(), 1.0, "no accesses yet");
        // distinct keys that all hash to different slots: with the
        // multiplicative hash and a 128-slot table, consecutive keys
        // spread — expect a factor near 1
        for k in 0..32u32 {
            acc.insert_symbolic(k);
        }
        let low = acc.collision_factor();
        assert!(low < 1.5, "spread keys should rarely collide: {low}");
        acc.reset();
        acc.reset_stats();
        // adversarial keys: all map to the same slot (multiples of
        // table_size / gcd pattern): k * 128 has the same low bits
        let cap = acc.capacity() as u32;
        for k in 0..32u32 {
            // HASH_SCALE is odd, so multiplying by cap-stride keys
            // keeps the masked hash constant
            acc.insert_symbolic(k * cap);
        }
        let high = acc.collision_factor();
        assert!(high > 4.0, "clustered keys must probe long chains: {high}");
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
