//! Property-based tests for the sparse substrate: CSR invariants,
//! transpose involution, permutation round-trips, and flop counting
//! against a naive model.

use proptest::prelude::*;
use spgemm_sparse::{approx_eq_f64, ops, stats, ColIdx, Coo, Csr};

/// Strategy: a random sparse matrix with shape up to `max_dim` and a
/// bounded number of (possibly duplicate) triplets.
fn arb_csr(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, -4.0f64..4.0), 0..=max_nnz).prop_map(
            move |trips| {
                let mut coo = Coo::new(nr, nc).unwrap();
                for (r, c, v) in trips {
                    coo.push(r, c as ColIdx, v).unwrap();
                }
                coo.into_csr_sum()
            },
        )
    })
}

/// Strategy: a random square matrix.
fn arb_square(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (2..=max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -4.0f64..4.0), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(n, n).unwrap();
            for (r, c, v) in trips {
                coo.push(r, c as ColIdx, v).unwrap();
            }
            coo.into_csr_sum()
        })
    })
}

fn arb_perm(n: usize) -> impl Strategy<Value = Vec<usize>> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut p: Vec<usize> = (0..n).collect();
        // Fisher-Yates with proptest's rng for shrink-stability
        for i in (1..n).rev() {
            let j = (rng.random::<u64>() as usize) % (i + 1);
            p.swap(i, j);
        }
        p
    })
}

/// The fingerprint `m`'s arrays hash to, through a rebuilt matrix that
/// has memoized nothing.
fn rehashed(m: &Csr<f64>) -> u64 {
    let (rpts, cols, vals) = (m.rpts().to_vec(), m.cols().to_vec(), m.vals().to_vec());
    let fresh = Csr::from_parts(m.nrows(), m.ncols(), rpts, cols, vals).unwrap();
    fresh.structure_fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a matrix remembered, its fingerprint is the hash of its
    /// arrays after every copying method and every mutator; each
    /// source is fingerprinted first, so a memo that should have been
    /// forgotten would show.
    #[test]
    fn fingerprint_memo_follows_every_copy_and_mutation(m in arb_csr(24, 100), shift in 1u32..8) {
        let (nr, nc) = m.shape();
        m.structure_fingerprint();
        let mut copies = vec![
            ("clone", m.clone()),
            ("map", m.map(|v| v * 2.0)),
            ("filter", m.filter(|_, c, _| c % 2 == 0)),
            ("to_sorted", m.to_sorted()),
            ("extract_rows", m.extract_rows(nr / 3..nr)),
            ("transpose", ops::transpose(&m)),
        ];
        let halves = m.split_col_ranges(&[0, nc / 2, nc]).unwrap();
        copies.extend(halves.into_iter().map(|part| ("split_col_ranges", part)));
        for (what, copy) in &copies {
            prop_assert_eq!(copy.structure_fingerprint(), rehashed(copy), "{}", what);
        }

        // Values only: the memo stays, and stays right.
        let mut x = m.clone();
        x.pattern_and_vals_mut().2.iter_mut().for_each(|v| *v = -*v);
        prop_assert_eq!(x.structure_fingerprint(), m.structure_fingerprint());
        prop_assert_eq!(x.structure_fingerprint(), rehashed(&x));

        // Columns moved in place at equal nnz.
        let mut x = m.clone();
        x.raw_parts_mut().1.iter_mut().for_each(|c| *c = (*c + shift) % nc as ColIdx);
        prop_assert_eq!(x.structure_fingerprint(), rehashed(&x), "raw_parts_mut");

        // Sorting an unsorted copy in place.
        let rev: Vec<ColIdx> = (0..nc as ColIdx).rev().collect();
        let mut x = ops::permute_cols(&m, &rev).unwrap();
        prop_assert_eq!(x.structure_fingerprint(), rehashed(&x), "permute_cols");
        x.sort_rows();
        prop_assert_eq!(x.structure_fingerprint(), rehashed(&x), "sort_rows");

        // An overwrite to nothing (a valid empty matrix of the
        // transpose's shape), then with the transpose's arrays.
        let t = ops::transpose(&m);
        let mut x = m.clone();
        x.prepare_overwrite(t.nrows(), t.ncols(), 0, 0.0, true);
        prop_assert_eq!(x.structure_fingerprint(), rehashed(&x), "prepare_overwrite");
        x.prepare_overwrite(t.nrows(), t.ncols(), t.nnz(), 0.0, true);
        let (rpts, cols, vals) = x.raw_parts_mut();
        rpts.copy_from_slice(t.rpts());
        cols.copy_from_slice(t.cols());
        vals.copy_from_slice(t.vals());
        prop_assert_eq!(x.structure_fingerprint(), t.structure_fingerprint());
    }

    #[test]
    fn coo_to_csr_always_valid(m in arb_csr(40, 200)) {
        prop_assert!(m.validate().is_ok());
        prop_assert!(m.is_sorted());
    }

    #[test]
    fn transpose_is_involution(m in arb_csr(40, 200)) {
        let t = ops::transpose(&m);
        prop_assert!(t.validate().is_ok());
        prop_assert_eq!(t.shape(), (m.ncols(), m.nrows()));
        prop_assert_eq!(t.nnz(), m.nnz());
        let tt = ops::transpose(&t);
        prop_assert!(approx_eq_f64(&m, &tt, 0.0));
    }

    #[test]
    fn transpose_moves_every_entry(m in arb_csr(20, 80)) {
        let t = ops::transpose(&m);
        for i in 0..m.nrows() {
            for (&c, &v) in m.row_cols(i).iter().zip(m.row_vals(i)) {
                prop_assert_eq!(t.get(c as usize, i as ColIdx), Some(&v));
            }
        }
    }

    #[test]
    fn sort_rows_preserves_content(m in arb_csr(40, 200)) {
        // permute columns to unsort, then sort back
        let n = m.ncols();
        let perm: Vec<ColIdx> = (0..n as ColIdx).rev().collect();
        let unsorted = ops::permute_cols(&m, &perm).unwrap();
        let mut sorted = unsorted.clone();
        sorted.sort_rows();
        prop_assert!(sorted.is_sorted());
        prop_assert!(sorted.validate().is_ok());
        prop_assert!(approx_eq_f64(&unsorted, &sorted, 0.0));
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_proxy(
        (m, seed) in arb_square(24, 120).prop_flat_map(|m| {
            let n = m.nrows();
            (Just(m), arb_perm(n))
        })
    ) {
        let p = ops::permute_symmetric(&m, &seed).unwrap();
        prop_assert_eq!(p.nnz(), m.nnz());
        // trace is invariant under symmetric permutation
        let trace = |x: &Csr<f64>| -> f64 {
            (0..x.nrows()).filter_map(|i| x.get(i, i as ColIdx)).sum()
        };
        prop_assert!((trace(&m) - trace(&p)).abs() < 1e-9);
    }

    #[test]
    fn split_lu_partitions_offdiagonal(m in arb_square(24, 120)) {
        let (l, u) = ops::split_lu(&m).unwrap();
        let diag = (0..m.nrows()).filter(|&i| m.get(i, i as ColIdx).is_some()).count();
        prop_assert_eq!(l.nnz() + u.nnz() + diag, m.nnz());
        prop_assert!(l.validate().is_ok());
        prop_assert!(u.validate().is_ok());
    }

    #[test]
    fn add_commutes(a in arb_square(16, 60), b in arb_square(16, 60)) {
        // force equal shapes by truncating to the smaller square
        if a.shape() == b.shape() {
            let ab = ops::add(&a, &b).unwrap();
            let ba = ops::add(&b, &a).unwrap();
            prop_assert!(approx_eq_f64(&ab, &ba, 1e-12));
        }
    }

    #[test]
    fn flop_matches_naive(m in arb_square(24, 120)) {
        let rf = stats::row_flops(&m, &m);
        let mut naive = vec![0u64; m.nrows()];
        for (i, n) in naive.iter_mut().enumerate() {
            for &k in m.row_cols(i) {
                *n += m.row_nnz(k as usize) as u64;
            }
        }
        prop_assert_eq!(rf, naive);
    }

    #[test]
    fn matrix_market_round_trips(m in arb_csr(24, 120)) {
        let mut buf = Vec::new();
        spgemm_sparse::io::write_matrix_market_to(&mut buf, &m).unwrap();
        let back = spgemm_sparse::io::read_matrix_market_from(buf.as_slice()).unwrap();
        prop_assert!(approx_eq_f64(&m, &back, 0.0));
    }
}
