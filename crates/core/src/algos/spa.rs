//! SPA (sparse accumulator) SpGEMM — Gustavson's original accumulator
//! as formalized by Gilbert, Moler & Schreiber (§2 of the paper).
//!
//! Each thread owns a dense, `ncols(B)`-sized value array plus an
//! epoch-stamped occupancy array and a list of touched columns — the
//! `O(n · t)` memory the paper contrasts against hash (`O(flop)`) and
//! heap (`O(nnz(a_i*))`) accumulators. Rows reset in `O(touched)` by
//! bumping the epoch. Stands in for MKL in the unsorted comparisons.

use crate::exec::{AccumReq, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Dense sparse-accumulator for one thread.
pub struct SpaAccumulator<S: Semiring> {
    /// `stamp[j] == epoch` ⇔ column `j` is occupied in the current row.
    stamp: Vec<u32>,
    epoch: u32,
    vals: Vec<S::Elem>,
    touched: Vec<ColIdx>,
}

impl<S: Semiring> SpaAccumulator<S> {
    /// Accumulator over `ncols_b` output columns.
    pub fn new(ncols_b: usize) -> Self {
        SpaAccumulator {
            stamp: vec![0; ncols_b],
            epoch: 0,
            vals: vec![S::zero(); ncols_b],
            touched: Vec::new(),
        }
    }

    /// Begin a new row (O(1) — epoch bump).
    pub fn begin_row(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // epoch wrap: one full clear every 2^32 - 1 rows
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Distinct columns accumulated in the current row.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether the current row is empty so far.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Accumulate `value` into column `col`.
    #[inline]
    pub fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let j = col as usize;
        if self.stamp[j] == self.epoch {
            self.vals[j] = S::add(self.vals[j], value);
        } else {
            self.stamp[j] = self.epoch;
            self.vals[j] = value;
            self.touched.push(col);
        }
    }

    /// Mark column `col` (symbolic phase).
    #[inline]
    pub fn insert_symbolic(&mut self, col: ColIdx) {
        let j = col as usize;
        if self.stamp[j] != self.epoch {
            self.stamp[j] = self.epoch;
            self.touched.push(col);
        }
    }

    /// Emit the current row (sorted on request — touched order is
    /// insertion order otherwise).
    pub fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.touched.len());
        if sorted {
            self.touched.sort_unstable();
        }
        for (idx, &c) in self.touched.iter().enumerate() {
            cols[idx] = c;
            vals[idx] = self.vals[c as usize];
        }
    }
}

impl<S: Semiring> RowAccumulator<S> for SpaAccumulator<S> {
    type Shared = ();

    fn build(req: &AccumReq, _: &()) -> Self {
        Self::new(req.ncols_b)
    }

    fn ensure(&mut self, req: &AccumReq) {
        if req.ncols_b > self.stamp.len() {
            // Fresh slots stamped 0 read as unoccupied (epoch ≥ 1
            // after the first `begin_row`), so growth needs no rescan.
            self.stamp.resize(req.ncols_b, 0);
            self.vals.resize(req.ncols_b, S::zero());
        }
    }

    fn scrub(&mut self) {
        self.touched.clear();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        self.begin_row();
        for &k in a.row_cols(i) {
            for &j in b.row_cols(k as usize) {
                self.insert_symbolic(j);
            }
        }
        self.touched.len()
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
        self.begin_row();
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let kr = k as usize;
            for (&j, &bval) in b.row_cols(kr).iter().zip(b.row_vals(kr)) {
                self.insert_numeric(j, S::mul(aval, bval));
            }
        }
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
        multiply_in::<S>(a, b, Algorithm::Spa, order, pool).unwrap()
    }

    #[test]
    fn accumulator_epoch_isolation() {
        let mut acc = SpaAccumulator::<P>::new(10);
        acc.begin_row();
        acc.insert_numeric(3, 1.0);
        acc.insert_numeric(3, 2.0);
        assert_eq!(acc.len(), 1);
        let mut c = vec![0; 1];
        let mut v = vec![0.0; 1];
        acc.extract_into(&mut c, &mut v, true);
        assert_eq!((c[0], v[0]), (3, 3.0));
        // next row must not see the previous row's value
        acc.begin_row();
        assert!(acc.is_empty());
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
        acc.begin_row(); // -> MAX
        acc.insert_numeric(1, 1.0);
        acc.begin_row(); // wraps: full clear, epoch 1
        assert!(acc.is_empty());
        acc.insert_numeric(1, 9.0);
        let mut c = vec![0; 1];
        let mut v = vec![0.0; 1];
        acc.extract_into(&mut c, &mut v, true);
        assert_eq!(v[0], 9.0);
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

    #[test]
    fn unsorted_extraction_is_insertion_order() {
        let mut acc = SpaAccumulator::<P>::new(100);
        acc.begin_row();
        for c in [50u32, 2, 30] {
            acc.insert_numeric(c, c as f64);
        }
        let mut cols = vec![0; 3];
        let mut vals = vec![0.0; 3];
        acc.extract_into(&mut cols, &mut vals, false);
        assert_eq!(cols, vec![50, 2, 30]);
        assert_eq!(vals, vec![50.0, 2.0, 30.0]);
    }
}
