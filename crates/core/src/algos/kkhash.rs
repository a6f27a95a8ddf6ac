//! Chained-hash-map SpGEMM modeled on KokkosKernels' `kkmem`
//! accumulator (Deveci, Trott & Rajamanickam, IPDPSW 2017 — reference
//! \[14\] of the paper; evaluated with the `kkmem` option in §5).
//!
//! Unlike the open-addressing table of [`crate::algos::hash`], `kkmem`
//! resolves collisions by *separate chaining* into preallocated
//! arrays: `begins[bin]` heads a linked list threaded through
//! `nexts`, and inserted keys/values sit densely in insertion order —
//! which is why KokkosKernels naturally emits unsorted output
//! (Table 1: Any/Unsorted).

use crate::algos::hash::HASH_SCALE;
use crate::exec::{self, AccumReq, ColumnSet, Operands, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

const NIL: i32 = -1;

/// Chained hash accumulator for one thread.
pub struct KkHashAccumulator<S: Semiring> {
    /// Head of each bin's chain (index into `keys`/`nexts`), or `NIL`.
    begins: Vec<i32>,
    /// Next pointer per inserted entry.
    nexts: Vec<i32>,
    /// Inserted keys, dense in insertion order.
    keys: Vec<ColIdx>,
    vals: Vec<S::Elem>,
    /// Bins dirtied by the current row (for O(row) reset).
    used_bins: Vec<u32>,
    used: usize,
    bin_mask: u32,
    sort_buf: Vec<(ColIdx, S::Elem)>,
}

impl<S: Semiring> KkHashAccumulator<S> {
    /// Accumulator for rows with at most `max_row_flop` products into
    /// `ncols_b` columns.
    pub fn new(max_row_flop: usize, ncols_b: usize) -> Self {
        let cap = max_row_flop.min(ncols_b).max(1);
        let bins = exec::lowest_p2_above(cap / 2); // ~2 entries/bin target
        KkHashAccumulator {
            begins: vec![NIL; bins],
            nexts: vec![NIL; cap],
            keys: vec![0; cap],
            vals: vec![S::zero(); cap],
            used_bins: Vec::with_capacity(cap.min(bins)),
            used: 0,
            bin_mask: (bins - 1) as u32,
            sort_buf: Vec::new(),
        }
    }

    /// Find or insert `col`; returns `(entry_index, inserted)`.
    #[inline]
    fn probe_insert(&mut self, col: ColIdx) -> (usize, bool) {
        let bin = (col.wrapping_mul(HASH_SCALE) & self.bin_mask) as usize;
        let mut j = self.begins[bin];
        while j != NIL {
            let idx = j as usize;
            if self.keys[idx] == col {
                return (idx, false);
            }
            j = self.nexts[idx];
        }
        let idx = self.used;
        debug_assert!(idx < self.keys.len(), "kkmem capacity is the flop bound");
        self.keys[idx] = col;
        if self.begins[bin] == NIL {
            self.used_bins.push(bin as u32);
        }
        self.nexts[idx] = self.begins[bin];
        self.begins[bin] = idx as i32;
        self.used += 1;
        (idx, true)
    }
}

impl<S: Semiring> ColumnSet<S> for KkHashAccumulator<S> {
    #[inline]
    fn insert_symbolic(&mut self, col: ColIdx) {
        self.probe_insert(col);
    }

    #[inline]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let (idx, inserted) = self.probe_insert(col);
        self.vals[idx] = if inserted {
            value
        } else {
            S::add(self.vals[idx], value)
        };
    }

    fn len(&self) -> usize {
        self.used
    }

    fn reset(&mut self) {
        for &b in &self.used_bins {
            self.begins[b as usize] = NIL;
        }
        self.used_bins.clear();
        self.used = 0;
    }

    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.used);
        let (keys, values) = (&self.keys[..self.used], &self.vals[..self.used]);
        if sorted {
            let entries = keys.iter().copied().zip(values.iter().copied());
            exec::emit_sorted(&mut self.sort_buf, entries, cols, vals);
        } else {
            cols.copy_from_slice(keys);
            vals.copy_from_slice(values);
        }
        self.reset();
    }
}

impl<S: Semiring> RowAccumulator<S> for KkHashAccumulator<S> {
    type Shared = ();

    fn build(req: &AccumReq, _: &()) -> Self {
        Self::new(req.max_row_flop, req.ncols_b)
    }

    fn ensure(&mut self, req: &AccumReq) {
        let cap = req.max_row_flop.min(req.ncols_b).max(1);
        let bins = exec::lowest_p2_above(cap / 2);
        if cap > self.keys.len() || bins > self.begins.len() {
            let cap = cap.max(self.keys.len());
            let bins = bins.max(self.begins.len());
            self.begins.clear();
            self.begins.resize(bins, NIL);
            self.nexts.clear();
            self.nexts.resize(cap, NIL);
            self.keys.clear();
            self.keys.resize(cap, 0);
            self.vals.clear();
            self.vals.resize(cap, S::zero());
            self.bin_mask = (bins - 1) as u32;
            self.used_bins.clear();
            self.used = 0;
        }
    }

    fn scrub(&mut self) {
        self.reset();
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
        multiply_in::<S>(a, b, Algorithm::KkHash, order, pool).unwrap()
    }

    #[test]
    fn chains_resolve_collisions() {
        let mut acc = KkHashAccumulator::<P>::new(64, 10_000);
        // keys engineered into few bins
        let bins = acc.begins.len() as u32;
        for k in 0..32u32 {
            acc.insert_numeric(k * bins, 1.0);
        }
        assert_eq!(acc.len(), 32);
        for k in 0..32u32 {
            acc.insert_numeric(k * bins, 1.0);
        }
        assert_eq!(acc.len(), 32, "re-inserts accumulate, not duplicate");
        let mut cols = vec![0; 32];
        let mut vals = vec![0.0; 32];
        acc.extract_into(&mut cols, &mut vals, true);
        assert!(vals.iter().all(|&v| v == 2.0));
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reset_reuses_cleanly() {
        let mut acc = KkHashAccumulator::<P>::new(8, 100);
        acc.insert_numeric(5, 1.0);
        acc.insert_numeric(6, 2.0);
        acc.reset();
        assert!(acc.is_empty());
        acc.insert_numeric(5, 7.0);
        let mut c = vec![0; 1];
        let mut v = vec![0.0; 1];
        acc.extract_into(&mut c, &mut v, false);
        assert_eq!((c[0], v[0]), (5, 7.0));
    }

    #[test]
    fn matches_reference() {
        let a = Csr::from_triplets(
            5,
            5,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 4, 3.0),
                (2, 1, 4.0),
                (3, 3, 5.0),
                (4, 0, 6.0),
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

    #[test]
    fn capacity_exactly_at_flop_bound() {
        // a row whose flop equals its unique-column count fills the
        // dense arrays completely — the `used < cap` invariant holds
        // because capacity is the flop bound.
        let mut acc = KkHashAccumulator::<P>::new(4, 100);
        for k in 0..4u32 {
            acc.insert_numeric(k, 1.0);
        }
        assert_eq!(acc.len(), 4);
    }
}
