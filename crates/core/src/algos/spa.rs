//! SPA (sparse accumulator) SpGEMM — Gustavson's original accumulator
//! as formalized by Gilbert, Moler & Schreiber (§2 of the paper).
//!
//! Each thread owns a dense, `ncols(B)`-sized value array plus an
//! epoch-stamped occupancy array and a list of touched columns — the
//! `O(n · t)` memory the paper contrasts against hash (`O(flop)`) and
//! heap (`O(nnz(a_i*))`) accumulators. Rows reset in `O(touched)` by
//! bumping the epoch. Stands in for MKL in the unsorted comparisons.

use crate::exec::{AccumReq, ColumnSet, Operands, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Dense sparse-accumulator for one thread.
pub struct SpaAccumulator<S: Semiring> {
    /// `stamp[j] == epoch` ⇔ column `j` is occupied in the current row.
    stamp: Vec<u32>,
    /// Never 0, the stamp of a fresh slot.
    epoch: u32,
    vals: Vec<S::Elem>,
    touched: Vec<ColIdx>,
}

impl<S: Semiring> SpaAccumulator<S> {
    /// Accumulator over `ncols_b` output columns.
    pub fn new(ncols_b: usize) -> Self {
        SpaAccumulator {
            stamp: vec![0; ncols_b],
            epoch: 1,
            vals: vec![S::zero(); ncols_b],
            touched: Vec::new(),
        }
    }

    /// Widen to at least `ncols_b` output columns (never narrows).
    pub(crate) fn grow(&mut self, ncols_b: usize) {
        if ncols_b > self.stamp.len() {
            // Fresh slots stamped 0 read as unoccupied (epoch ≥ 1), so
            // growth needs no rescan.
            self.stamp.resize(ncols_b, 0);
            self.vals.resize(ncols_b, S::zero());
        }
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
    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.touched.len());
        if sorted {
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
