//! The IKJ baseline of Sulatycke & Ghose (IPPS/SPDP 1998) — the first
//! shared-memory parallel SpGEMM (§2 of the paper).
//!
//! Its signature property is the dense inner loop over `k`: for every
//! output row the algorithm scans *all* `n` potential columns of
//! `a_i*`, giving work `O(n² + flop)`. The paper includes it as the
//! historical baseline that is "only competitive when `flop ≥ n²`";
//! reproducing that crossover is the point of keeping the dense scan.

use crate::algos::spa::SpaAccumulator;
use crate::exec::{AccumReq, ColumnSet, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Per-thread state: a dense image of the current `A` row (the IKJ
/// dense-`k` scan) plus a SPA for the output row.
pub struct IkjKernel<S: Semiring> {
    /// `a_stamp[k] == epoch` ⇔ `a_ik ≠ 0` for the current row.
    a_stamp: Vec<u32>,
    a_dense: Vec<S::Elem>,
    epoch: u32,
    spa: SpaAccumulator<S>,
}

impl<S: Semiring> IkjKernel<S> {
    /// Kernel for inner dimension `inner_dim` and output width
    /// `ncols_b`.
    pub fn new(inner_dim: usize, ncols_b: usize) -> Self {
        IkjKernel {
            a_stamp: vec![0; inner_dim],
            a_dense: vec![S::zero(); inner_dim],
            epoch: 0,
            spa: SpaAccumulator::new(ncols_b),
        }
    }

    fn densify_a_row(&mut self, a: &Csr<S::Elem>, i: usize) {
        if self.epoch == u32::MAX {
            self.a_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for (&k, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            self.a_stamp[k as usize] = self.epoch;
            self.a_dense[k as usize] = v;
        }
    }
}

impl<S: Semiring> RowAccumulator<S> for IkjKernel<S> {
    type Shared = ();

    fn build(req: &AccumReq, _: &()) -> Self {
        Self::new(req.inner_dim, req.ncols_b)
    }

    fn ensure(&mut self, req: &AccumReq) {
        if req.inner_dim > self.a_stamp.len() {
            // New slots stamped 0 read as empty (epoch ≥ 1 after the
            // first `densify_a_row`).
            self.a_stamp.resize(req.inner_dim, 0);
            self.a_dense.resize(req.inner_dim, S::zero());
        }
        self.spa.ensure(req);
    }

    fn scrub(&mut self) {
        self.spa.scrub();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        self.densify_a_row(a, i);
        // The defining dense loop: scan every k.
        for k in 0..self.a_stamp.len() {
            if self.a_stamp[k] == self.epoch {
                for &j in b.row_cols(k) {
                    self.spa.insert_symbolic(j);
                }
            }
        }
        let n = self.spa.len();
        self.spa.reset();
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
        self.densify_a_row(a, i);
        for k in 0..self.a_stamp.len() {
            if self.a_stamp[k] == self.epoch {
                let aval = self.a_dense[k];
                for (&j, &bval) in b.row_cols(k).iter().zip(b.row_vals(k)) {
                    self.spa.insert_numeric(j, S::mul(aval, bval));
                }
            }
        }
        self.spa.extract_into(cols, vals, sorted);
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
        multiply_in::<S>(a, b, Algorithm::Ikj, order, pool).unwrap()
    }

    #[test]
    fn matches_reference() {
        let a = Csr::from_triplets(
            4,
            4,
            &[
                (0, 3, 1.0),
                (1, 0, 2.0),
                (1, 2, 3.0),
                (2, 2, 4.0),
                (3, 1, 5.0),
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
    fn rectangular() {
        let a = Csr::from_triplets(2, 6, &[(0, 5, 1.0), (1, 0, 2.0)]).unwrap();
        let b = Csr::from_triplets(6, 3, &[(0, 1, 3.0), (5, 2, 4.0)]).unwrap();
        let expect = reference::multiply::<P>(&a, &b);
        let got = multiply::<P>(&a, &b, OutputOrder::Sorted, &Pool::new(2));
        assert!(approx_eq_f64(&expect, &got, 1e-12));
    }

    #[test]
    fn epoch_wrap_in_densify() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let mut k = IkjKernel::<P>::new(2, 2);
        k.epoch = u32::MAX - 1;
        let mut cols = vec![0; 1];
        let mut vals = vec![0.0; 1];
        k.numeric_row(&a, &a, 0, &mut cols, &mut vals, true);
        k.numeric_row(&a, &a, 1, &mut cols, &mut vals, true); // wraps here
        assert_eq!((cols[0], vals[0]), (1, 4.0));
    }
}
