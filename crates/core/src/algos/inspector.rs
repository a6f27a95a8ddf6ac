//! One-phase hash SpGEMM without a symbolic pass — the MKL-inspector
//! stand-in (Table 1: one phase, any input, *unsorted* output).
//!
//! MKL's inspector-executor API performs a single pass and never sorts
//! its output; our stand-in reproduces that contract with the same
//! hash accumulator as [`crate::algos::hash`], staging rows into
//! thread-private flop-bound buffers instead of running symbolic
//! first. It trades the symbolic pass for the staging memory — the
//! same trade the paper's Figure 7 two-phase structure avoids — which
//! pays only once: one-shot products run it, while a plan of it is the
//! two-phase `Hash` kernel.

use crate::algos::hash::HashAccumulator;
use crate::exec::{ColumnSet, Operands, StagedRowKernel};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// The Inspector kernel *is* the hash accumulator, run one-phase:
/// accumulate a row, then append it to the staging buffers in
/// insertion order.
impl<S: Semiring> StagedRowKernel<S> for HashAccumulator<S> {
    fn stage_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut Vec<ColIdx>,
        vals: &mut Vec<S::Elem>,
    ) -> usize {
        Operands::of(a, b).accumulate_row(self, i);
        let n = self.len();
        let start = cols.len();
        cols.resize(start + n, 0);
        vals.resize(start + n, S::zero());
        self.extract_into(&mut cols[start..], &mut vals[start..], false);
        n
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

    fn multiply<S: Semiring>(a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) -> Csr<S::Elem> {
        multiply_in::<S>(a, b, Algorithm::Inspector, OutputOrder::Unsorted, pool).unwrap()
    }

    #[test]
    fn matches_reference_up_to_order() {
        let a = Csr::from_triplets(
            5,
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (1, 4, 3.0),
                (2, 0, 4.0),
                (3, 3, 5.0),
                (4, 1, 6.0),
            ],
        )
        .unwrap();
        let expect = reference::multiply::<P>(&a, &a);
        for nt in [1usize, 2, 4] {
            let pool = Pool::new(nt);
            let got = multiply::<P>(&a, &a, &pool);
            assert!(approx_eq_f64(&expect, &got, 1e-12), "nt={nt}");
            assert!(got.validate().is_ok());
        }
    }

    #[test]
    fn single_pass_handles_empty_output() {
        let z = Csr::<f64>::zero(4, 4);
        let got = multiply::<P>(&z, &z, &Pool::new(2));
        assert_eq!(got.nnz(), 0);
        assert!(got.validate().is_ok());
    }

    #[test]
    fn output_flagged_unsorted() {
        // even if rows happen to be ascending, the kernel does not
        // promise order, so the flag must be conservative
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let got = multiply::<P>(&a, &a, &Pool::new(1));
        assert!(!got.is_sorted());
    }
}
