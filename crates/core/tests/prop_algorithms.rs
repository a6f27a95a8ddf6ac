//! The central correctness property of the whole reproduction: every
//! SpGEMM algorithm, at every thread count, in both output orders,
//! over multiple semirings, computes the same product as the
//! sequential `BTreeMap` oracle.

use proptest::prelude::*;
use spgemm::{algos, cost, multiply_in, recipe, Algorithm, OutputOrder};
use spgemm_par::Pool;
use spgemm_sparse::{approx_eq_f64, ColIdx, Coo, Csr, OrAnd, PlusTimes};

type P = PlusTimes<f64>;

fn arb_square(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (2..=max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -3.0f64..3.0), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(n, n).unwrap();
            for (r, c, v) in trips {
                coo.push(r, c as ColIdx, v).unwrap();
            }
            coo.into_csr_sum()
        })
    })
}

fn arb_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (2..=max_dim, 2..=max_dim, 2..=max_dim).prop_flat_map(move |(m, k, n)| {
        let a = proptest::collection::vec((0..m, 0..k, -3.0f64..3.0), 0..=max_nnz).prop_map(
            move |trips| {
                let mut coo = Coo::new(m, k).unwrap();
                for (r, c, v) in trips {
                    coo.push(r, c as ColIdx, v).unwrap();
                }
                coo.into_csr_sum()
            },
        );
        let b = proptest::collection::vec((0..k, 0..n, -3.0f64..3.0), 0..=max_nnz).prop_map(
            move |trips| {
                let mut coo = Coo::new(k, n).unwrap();
                for (r, c, v) in trips {
                    coo.push(r, c as ColIdx, v).unwrap();
                }
                coo.into_csr_sum()
            },
        );
        (a, b)
    })
}

/// Every kernel but the oracle itself.
fn all_concrete() -> Vec<Algorithm> {
    let kernels = Algorithm::ALL.into_iter();
    kernels
        .filter(|&algo| algo != Algorithm::Reference)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_matches_oracle_on_squares(a in arb_square(28, 160)) {
        let expect = algos::reference::multiply::<P>(&a, &a);
        for nt in [1usize, 3] {
            let pool = Pool::new(nt);
            for algo in all_concrete() {
                for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                    let got = multiply_in::<P>(&a, &a, algo, order, &pool).unwrap();
                    prop_assert!(
                        approx_eq_f64(&expect, &got, 1e-9),
                        "{algo} nt={nt} {order:?}"
                    );
                    prop_assert!(got.validate().is_ok(), "{algo}");
                }
            }
        }
    }

    #[test]
    fn every_algorithm_matches_oracle_rectangular((a, b) in arb_pair(20, 120)) {
        let expect = algos::reference::multiply::<P>(&a, &b);
        let pool = Pool::new(2);
        for algo in all_concrete() {
            let got = multiply_in::<P>(&a, &b, algo, OutputOrder::Sorted, &pool).unwrap();
            prop_assert!(approx_eq_f64(&expect, &got, 1e-9), "{algo}");
        }
    }

    #[test]
    fn unsorted_inputs_accepted_by_any_input_kernels(a in arb_square(24, 140)) {
        // reverse-permute columns to unsort
        let n = a.ncols();
        let perm: Vec<ColIdx> = (0..n as ColIdx).rev().collect();
        let unsorted = spgemm_sparse::ops::permute_cols(&a, &perm).unwrap();
        let sorted_twin = unsorted.to_sorted();
        let expect = algos::reference::multiply::<P>(&sorted_twin, &sorted_twin);
        let pool = Pool::new(2);
        for algo in all_concrete().into_iter().filter(|algo| !algo.requires_sorted_inputs()) {
            let got = multiply_in::<P>(&unsorted, &unsorted, algo, OutputOrder::Sorted, &pool)
                .unwrap();
            prop_assert!(approx_eq_f64(&expect, &got, 1e-9), "{algo}");
        }
    }

    #[test]
    fn sorted_only_kernels_reject_unsorted(a in arb_square(12, 80)) {
        let n = a.ncols();
        let perm: Vec<ColIdx> = (0..n as ColIdx).rev().collect();
        let unsorted = spgemm_sparse::ops::permute_cols(&a, &perm).unwrap();
        prop_assume!(!unsorted.is_sorted());
        let pool = Pool::new(1);
        for algo in [Algorithm::Heap, Algorithm::Merge] {
            let r = multiply_in::<P>(&unsorted, &unsorted, algo, OutputOrder::Sorted, &pool);
            prop_assert!(r.is_err(), "{algo} must reject unsorted inputs");
        }
    }

    #[test]
    fn boolean_semiring_consistent_across_algorithms(a in arb_square(20, 120)) {
        let ab = a.map(|_| true);
        let expect = algos::reference::multiply::<OrAnd>(&ab, &ab);
        let pool = Pool::new(2);
        for algo in all_concrete() {
            let got = multiply_in::<OrAnd>(&ab, &ab, algo, OutputOrder::Sorted, &pool).unwrap();
            prop_assert!(got.eq_unordered(&expect), "{algo}");
        }
    }

    #[test]
    fn symbolic_count_equals_numeric_nnz(a in arb_square(24, 140)) {
        // two-phase kernels promise rpts built in symbolic == filled in
        // numeric; cross-validated via the oracle's nnz
        let expect = algos::reference::multiply::<P>(&a, &a);
        let pool = Pool::new(2);
        for algo in [Algorithm::Hash, Algorithm::HashVec, Algorithm::Spa, Algorithm::KkHash] {
            let got = multiply_in::<P>(&a, &a, algo, OutputOrder::Unsorted, &pool).unwrap();
            prop_assert_eq!(got.nnz(), expect.nnz(), "{}", algo);
            for i in 0..got.nrows() {
                prop_assert_eq!(got.row_nnz(i), expect.row_nnz(i), "{} row {}", algo, i);
            }
        }
    }

    #[test]
    fn auto_always_resolves_and_matches(a in arb_square(20, 120)) {
        let expect = algos::reference::multiply::<P>(&a, &a);
        let pool = Pool::new(2);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let got = multiply_in::<P>(&a, &a, Algorithm::Auto, order, &pool).unwrap();
            prop_assert!(approx_eq_f64(&expect, &got, 1e-9));
        }
    }

    /// `Auto`'s model on both sides of its footprint bound: with every
    /// accumulator fitting (`usize::MAX`) it picks the dense one, with
    /// none fitting (0) a sparse one, never an inadmissible one, the
    /// same one at every pool width — and the product is `Reference`'s,
    /// bit for bit where the pick sums in `Reference`'s order (Heap
    /// pops equal columns in heap order: same structure, values to
    /// rounding).
    #[test]
    fn auto_model_matches_oracle_on_both_sides_of_the_bound(a in arb_square(20, 120)) {
        let expect = algos::reference::multiply::<P>(&a, &a);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let ctx = recipe::auto_context(&a, &a, order);
            for (l2_share, dense) in [(usize::MAX, true), (0, false)] {
                let pick = cost::select(&ctx, l2_share);
                prop_assert!(recipe::pick_admissible(&ctx, pick), "{pick} {order:?}");
                prop_assert_eq!(pick == Algorithm::Spa, dense, "{} {:?}", pick, order);
                for nt in [1usize, 2, 3] {
                    let pool = Pool::new(nt);
                    let mut got = multiply_in::<P>(&a, &a, pick, order, &pool).unwrap();
                    got.sort_rows();
                    prop_assert_eq!(got.rpts(), expect.rpts(), "{} nt={}", pick, nt);
                    prop_assert_eq!(got.cols(), expect.cols(), "{} nt={}", pick, nt);
                    if pick == Algorithm::Heap {
                        prop_assert!(approx_eq_f64(&expect, &got, 1e-9), "Heap nt={nt}");
                    } else {
                        let bits = |m: &Csr<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(&got), bits(&expect), "{} {:?} nt={}", pick, order, nt);
                    }
                }
            }
        }
    }

    #[test]
    fn output_row_pointers_always_monotone(a in arb_square(24, 140)) {
        let pool = Pool::new(3);
        for algo in all_concrete() {
            let got = multiply_in::<P>(&a, &a, algo, OutputOrder::Sorted, &pool).unwrap();
            prop_assert!(got.rpts().windows(2).all(|w| w[0] <= w[1]), "{algo}");
            prop_assert_eq!(*got.rpts().last().unwrap(), got.nnz(), "{}", algo);
        }
    }
}

#[test]
fn shape_mismatch_rejected_at_api_boundary() {
    let a = Csr::<f64>::zero(3, 4);
    let b = Csr::<f64>::zero(3, 4);
    let pool = Pool::new(1);
    let r = multiply_in::<P>(&a, &b, Algorithm::Hash, OutputOrder::Sorted, &pool);
    assert!(r.is_err());
}

#[test]
fn generated_rmat_squares_match_oracle() {
    // a denser, more realistic workload than the proptest shrink space
    for kind in [spgemm_gen::RmatKind::Er, spgemm_gen::RmatKind::G500] {
        let a = spgemm_gen::rmat::generate_kind(kind, 8, 8, &mut spgemm_gen::rng(42));
        let expect = algos::reference::multiply::<P>(&a, &a);
        let pool = Pool::new(2);
        for algo in all_concrete() {
            let got = multiply_in::<P>(&a, &a, algo, OutputOrder::Sorted, &pool).unwrap();
            assert!(
                approx_eq_f64(&expect, &got, 1e-9),
                "{algo} on {kind:?} diverged from oracle"
            );
        }
    }
}
