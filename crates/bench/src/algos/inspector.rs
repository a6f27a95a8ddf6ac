//! The MKL-inspector stand-in (Table 1: one phase, any input,
//! *unsorted* output), as a row stager for [`crate::tuning::one_phase`].
//!
//! MKL's inspector-executor API performs a single pass and never sorts
//! its output. The stand-in stages each row through the library's
//! linear-probing hash table instead of running symbolic first: the
//! trade the paper's two-phase structure (Figure 7) avoids, and which
//! the library makes too, since a plan of it is the two-phase `Hash`
//! kernel.

use crate::tuning::RowStager;
use spgemm::algos::hash::{Linear, Table};
use spgemm::algos::ColumnSet;
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// The Inspector's row: `a_ik · b_kj` accumulated into the
/// linear-probing hash table in `k`-encounter order and emitted in
/// first-insertion order — the `ColumnSet` contract, so the row is the
/// `Hash` kernel's unsorted row bit for bit.
pub struct InspectorRow<S: Semiring>(Table<S, Linear>);

impl<S: Semiring> RowStager<S> for InspectorRow<S> {
    const NAME: &'static str = "Inspector";
    const SORTED: bool = false;

    fn new(max_row_flop: usize, ncols_b: usize) -> Self {
        InspectorRow(Table::new(max_row_flop, ncols_b, Linear))
    }

    fn stage_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut Vec<ColIdx>,
        vals: &mut Vec<S::Elem>,
    ) -> usize {
        let table = &mut self.0;
        for (&k, &av) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let k = k as usize;
            for (&j, &bv) in b.row_cols(k).iter().zip(b.row_vals(k)) {
                table.insert_numeric(j, S::mul(av, bv));
            }
        }
        let (n, start) = (table.len(), cols.len());
        cols.resize(start + n, 0);
        vals.resize(start + n, S::zero());
        table.extract_into(&mut cols[start..], &mut vals[start..], false);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::{one_phase, MemScheme, RowSchedule};
    use spgemm::algos::reference;
    use spgemm_par::Pool;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    /// The one-phase Inspector as the figures time it: flop-balanced
    /// blocks, thread-private staging.
    fn multiply(a: &Csr<f64>, pool: &Pool) -> Csr<f64> {
        let (sched, mem) = (RowSchedule::FlopBalanced, MemScheme::Parallel);
        one_phase::<P, InspectorRow<P>>(a, a, pool, sched, mem).unwrap()
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
            let got = multiply(&a, &Pool::new(nt));
            assert!(approx_eq_f64(&expect, &got, 1e-12), "nt={nt}");
            assert!(got.validate().is_ok());
        }
    }

    #[test]
    fn single_pass_handles_empty_output() {
        let got = multiply(&Csr::<f64>::zero(4, 4), &Pool::new(2));
        assert_eq!(got.nnz(), 0);
        assert!(got.validate().is_ok());
    }

    #[test]
    fn output_flagged_unsorted() {
        // even if rows happen to be ascending, the kernel does not
        // promise order, so the flag must be conservative
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        assert!(!multiply(&a, &Pool::new(1)).is_sorted());
    }
}
