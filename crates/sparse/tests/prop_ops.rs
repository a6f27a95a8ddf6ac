//! Property tests for the element-wise/structural ops the expression
//! layer composes: `add`, `hadamard`, `scale_rows` and `scale_cols`
//! against a dense oracle (including shape-mismatch and factor-length
//! error paths), and the transpose of unsorted input rows against that
//! of the sorted ones, byte for byte.

use proptest::prelude::*;
use spgemm_sparse::{bits_eq_f64, ops, ColIdx, Coo, Csr, SparseError};

/// A random sparse matrix with shape up to `max_dim`; values are small
/// integers cast to `f64`, so every sum/product in the oracles is
/// exactly representable and comparisons can be `==`.
fn arb_csr(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, -8i64..=8), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(nr, nc).unwrap();
            for (r, c, v) in trips {
                coo.push(r, c as ColIdx, v as f64).unwrap();
            }
            coo.into_csr_sum()
        })
    })
}

/// A pair of equal-shape random matrices.
fn arb_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(nr, nc)| {
        let one = move || {
            proptest::collection::vec((0..nr, 0..nc, -8i64..=8), 0..=max_nnz).prop_map(
                move |trips| {
                    let mut coo = Coo::new(nr, nc).unwrap();
                    for (r, c, v) in trips {
                        coo.push(r, c as ColIdx, v as f64).unwrap();
                    }
                    coo.into_csr_sum()
                },
            )
        };
        (one(), one())
    })
}

fn is_shape_mismatch<T>(r: &Result<T, SparseError>) -> bool {
    matches!(r, Err(SparseError::ShapeMismatch { .. }))
}

fn is_unsorted<T>(r: &Result<T, SparseError>) -> bool {
    matches!(r, Err(SparseError::Unsorted { .. }))
}

/// Unsort a matrix's rows by reversing each row's entries (keeps the
/// (row, col, val) content identical).
fn reversed_rows(a: &Csr<f64>) -> Csr<f64> {
    let mut rpts = vec![0usize];
    let mut cols = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    for i in 0..a.nrows() {
        cols.extend(a.row_cols(i).iter().rev());
        vals.extend(a.row_vals(i).iter().rev());
        rpts.push(cols.len());
    }
    Csr::from_parts(a.nrows(), a.ncols(), rpts, cols, vals).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpose_ignores_input_row_order(m in arb_csr(32, 300)) {
        // Unsorted *input* rows: the counting sort visits source rows in
        // order regardless, so the transpose is the sorted input's, bit
        // for bit.
        let t = ops::transpose(&reversed_rows(&m));
        prop_assert!(bits_eq_f64(&t, &ops::transpose(&m)));
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn add_matches_dense_oracle((a, b) in arb_pair(24, 160)) {
        let s = ops::add(&a, &b).unwrap();
        prop_assert!(s.validate().is_ok());
        prop_assert!(s.is_sorted());
        let (da, db, ds) = (a.to_dense(), b.to_dense(), s.to_dense());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                prop_assert_eq!(ds[i][j], da[i][j] + db[i][j], "({}, {})", i, j);
            }
        }
        // structural union, not numeric support: a zero sum of two
        // explicit entries stays stored.
        let union: std::collections::BTreeSet<(usize, u32)> = (0..a.nrows())
            .flat_map(|i| {
                a.row_cols(i).iter().chain(b.row_cols(i)).map(move |&c| (i, c)).collect::<Vec<_>>()
            })
            .collect();
        prop_assert_eq!(s.nnz(), union.len());
    }

    #[test]
    fn hadamard_matches_dense_oracle((a, b) in arb_pair(24, 160)) {
        let h = ops::hadamard(&a, &b).unwrap();
        prop_assert!(h.validate().is_ok());
        let (da, db) = (a.to_dense(), b.to_dense());
        // every stored entry is the product at an intersection...
        for i in 0..h.nrows() {
            for (&c, &v) in h.row_cols(i).iter().zip(h.row_vals(i)) {
                prop_assert!(a.get(i, c).is_some() && b.get(i, c).is_some());
                prop_assert_eq!(v, da[i][c as usize] * db[i][c as usize]);
            }
        }
        // ...and every intersection is stored.
        let inter = (0..a.nrows())
            .map(|i| a.row_cols(i).iter().filter(|&&c| b.get(i, c).is_some()).count())
            .sum::<usize>();
        prop_assert_eq!(h.nnz(), inter);
    }

    #[test]
    fn scaling_matches_dense_oracle(a in arb_csr(24, 160), seed in 0u64..1000) {
        let rf: Vec<f64> = (0..a.nrows()).map(|i| ((seed + i as u64) % 7) as f64 - 3.0).collect();
        let cf: Vec<f64> = (0..a.ncols()).map(|j| ((seed + 3 * j as u64) % 5) as f64 - 2.0).collect();
        let r = ops::scale_rows(&a, &rf).unwrap();
        let c = ops::scale_cols(&a, &cf).unwrap();
        prop_assert_eq!(r.rpts(), a.rpts());
        prop_assert_eq!(c.cols(), a.cols());
        let da = a.to_dense();
        let (dr, dc) = (r.to_dense(), c.to_dense());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                prop_assert_eq!(dr[i][j], da[i][j] * rf[i]);
                prop_assert_eq!(dc[i][j], da[i][j] * cf[j]);
            }
        }
    }

    #[test]
    fn binary_ops_reject_shape_mismatch(a in arb_csr(12, 40), b in arb_csr(12, 40)) {
        prop_assume!(a.shape() != b.shape());
        prop_assert!(is_shape_mismatch(&ops::add(&a, &b)));
        prop_assert!(is_shape_mismatch(&ops::hadamard(&a, &b)));
    }

    #[test]
    fn scaling_rejects_bad_factor_lengths(a in arb_csr(12, 40), extra in 1usize..4) {
        let short_r = vec![1.0; a.nrows().saturating_sub(1)];
        let long_r = vec![1.0; a.nrows() + extra];
        let short_c = vec![1.0; a.ncols().saturating_sub(1)];
        let long_c = vec![1.0; a.ncols() + extra];
        prop_assert!(is_shape_mismatch(&ops::scale_rows(&a, &short_r)));
        prop_assert!(is_shape_mismatch(&ops::scale_rows(&a, &long_r)));
        prop_assert!(is_shape_mismatch(&ops::scale_cols(&a, &short_c)));
        prop_assert!(is_shape_mismatch(&ops::scale_cols(&a, &long_c)));
    }

    #[test]
    fn sorted_contract_enforced((a, b) in arb_pair(12, 60)) {
        prop_assume!(a.nnz() > 0 && a.max_row_nnz() > 1);
        let u = reversed_rows(&a);
        prop_assume!(!u.is_sorted());
        prop_assert!(is_unsorted(&ops::add(&u, &b)));
        prop_assert!(is_unsorted(&ops::hadamard(&u, &b)));
    }

    #[test]
    fn normalize_columns_is_column_stochastic(a in arb_csr(20, 120)) {
        let pos = a.map(|v| v.abs() + 1.0); // strictly positive entries
        let n = ops::normalize_columns(&pos);
        prop_assert_eq!(n.rpts(), pos.rpts());
        let mut colsum = vec![0.0f64; n.ncols()];
        for i in 0..n.nrows() {
            for (&c, &v) in n.row_cols(i).iter().zip(n.row_vals(i)) {
                colsum[c as usize] += v;
            }
        }
        for (c, s) in colsum.iter().enumerate() {
            let entries = (0..n.nrows()).filter(|&i| n.get(i, c as u32).is_some()).count();
            if entries > 0 {
                prop_assert!((s - 1.0).abs() < 1e-12, "column {} sums to {}", c, s);
            }
        }
    }
}
