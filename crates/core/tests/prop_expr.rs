//! Property tests for the expression-plan layer: compiled DAGs must
//! equal the hand-composed `ops` + `multiply_in` pipelines byte for
//! byte, fusion must be value-invisible, drift must rebind safely, and
//! the error paths must hold.

use proptest::prelude::*;
use spgemm::expr::{ElemMap, ExprGraph, ExprPlan};
use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, ops, ColIdx, Coo, Csr, PlusTimes, SparseError};

type P = PlusTimes<f64>;

/// Random square matrix with small-integer values (exact arithmetic).
fn arb_square(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (2..=max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -4i64..=4), 1..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(n, n).unwrap();
            for (r, c, v) in trips {
                coo.push(r, c as ColIdx, v as f64).unwrap();
            }
            coo.into_csr_sum()
        })
    })
}

/// Pair of equal-size square matrices.
fn arb_square_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (2..=max_dim).prop_flat_map(move |n| {
        let one = move || {
            proptest::collection::vec((0..n, 0..n, -4i64..=4), 1..=max_nnz).prop_map(move |trips| {
                let mut coo = Coo::new(n, n).unwrap();
                for (r, c, v) in trips {
                    coo.push(r, c as ColIdx, v as f64).unwrap();
                }
                coo.into_csr_sum()
            })
        };
        (one(), one())
    })
}

/// The unfused reference for the composite DAG below.
fn composite_reference(a: &Csr<f64>, b: &Csr<f64>, rf: &[f64], pool: &Pool) -> Csr<f64> {
    let t = ops::transpose(b);
    let s = ops::add(a, &t).unwrap();
    let prod = multiply_in::<P>(&s, b, Algorithm::Hash, OutputOrder::Sorted, pool).unwrap();
    let h = ops::hadamard(&prod, a).unwrap();
    let m = h.map(|v| v * 1.5);
    ops::scale_rows(&m, rf).unwrap()
}

/// Build the composite DAG: scale_rows(1.5 * ((A + Bᵀ)·B ∘ A), rf).
fn composite_graph() -> (ExprGraph, spgemm::expr::NodeId) {
    let mut g = ExprGraph::new();
    let a = g.input();
    let b = g.input();
    let rf = g.vec_input();
    let t = g.transpose(b);
    let s = g.add(a, t);
    let prod = g.multiply(s, b);
    let h = g.hadamard(prod, a);
    let m = g.map(h, ElemMap::Scale(1.5));
    let root = g.scale_rows(m, rf);
    (g, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn composite_dag_matches_manual_composition((a, b) in arb_square_pair(20, 80), nt in 1usize..=3) {
        let pool = Pool::new(nt);
        let rf: Vec<f64> = (0..a.nrows()).map(|i| (i % 5) as f64 - 2.0).collect();
        let (g, root) = composite_graph();
        let mut plan = ExprPlan::new_in(&g, root, &[&a, &b], &[&rf], Algorithm::Hash, &pool).unwrap();
        let expect = composite_reference(&a, &b, &rf, &pool);
        let mut out = Csr::zero(0, 0);
        for round in 0..3 {
            plan.execute_into_in(&[&a, &b], &[&rf], &mut out, &pool).unwrap();
            prop_assert!(bits_eq_f64(&out, &expect), "round {}", round);
            prop_assert!(out.validate().is_ok());
        }
        // Values drift under a fixed structure: still numeric-only.
        let a2 = a.map(|v| v * -0.5);
        let b2 = b.map(|v| v + 0.25);
        plan.execute_into_in(&[&a2, &b2], &[&rf], &mut out, &pool).unwrap();
        prop_assert!(bits_eq_f64(&out, &composite_reference(&a2, &b2, &rf, &pool)));
    }

    #[test]
    fn masked_multiply_matches_product_then_hadamard((a, mask) in arb_square_pair(18, 70)) {
        let pool = Pool::new(2);
        let mut g = ExprGraph::new();
        let ia = g.input();
        let im = g.input();
        let root = g.masked_multiply(ia, ia, im);
        let mut plan = ExprPlan::new_in(&g, root, &[&a, &mask], &[], Algorithm::Hash, &pool).unwrap();
        let mut out = Csr::zero(0, 0);
        plan.execute_into_in(&[&a, &mask], &[], &mut out, &pool).unwrap();
        let prod = multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let expect = ops::hadamard(&prod, &mask).unwrap();
        prop_assert!(bits_eq_f64(&out, &expect));
    }

    #[test]
    fn fusion_is_value_invisible(a in arb_square(18, 70)) {
        let pool = Pool::new(2);
        // Fused: the map's operand (the product) has one consumer.
        let mut gf = ExprGraph::new();
        let ia = gf.input();
        let sq = gf.multiply(ia, ia);
        let rootf = gf.map(sq, ElemMap::AbsPow(2.0));
        let mut fused = ExprPlan::new_in(&gf, rootf, &[&a], &[], Algorithm::Hash, &pool).unwrap();
        prop_assert_eq!(fused.fused_nodes(), 1);
        prop_assert!(fused.fused_bytes_eliminated() > 0 || a.nnz() == 0);
        // Unfused: an extra consumer of the product forces the map to
        // materialize its own copy.
        let mut gu = ExprGraph::new();
        let ia = gu.input();
        let sq = gu.multiply(ia, ia);
        let m = gu.map(sq, ElemMap::AbsPow(2.0));
        let rootu = gu.hadamard(m, sq);
        let mut unfused = ExprPlan::new_in(&gu, rootu, &[&a], &[], Algorithm::Hash, &pool).unwrap();
        prop_assert_eq!(unfused.fused_nodes(), 0);

        let mut of = Csr::zero(0, 0);
        let mut ou = Csr::zero(0, 0);
        fused.execute_into_in(&[&a], &[], &mut of, &pool).unwrap();
        unfused.execute_into_in(&[&a], &[], &mut ou, &pool).unwrap();
        // same map values: |A²|² on the product structure, the
        // squared magnitude written out rather than through `ElemMap`
        let sqm = multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let expect_f = sqm.map(|v| {
            let x = v.abs();
            x * x
        });
        prop_assert!(bits_eq_f64(&of, &expect_f));
        let expect_u = ops::hadamard(&expect_f, &sqm).unwrap();
        prop_assert!(bits_eq_f64(&ou, &expect_u));
    }

    #[test]
    fn cache_hits_on_stable_structure_and_rebinds_on_drift((a, b) in arb_square_pair(16, 60)) {
        prop_assume!(a.structure_fingerprint() != b.structure_fingerprint());
        let pool = Pool::new(2);
        let mut g = ExprGraph::new();
        let ia = g.input();
        let sq = g.multiply(ia, ia);
        let root = g.normalize_cols(sq);
        let mut out = Csr::zero(0, 0);
        let oracle = |m: &Csr<f64>| {
            let sq = multiply_in::<P>(m, m, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
            ops::normalize_columns(&sq)
        };
        // A caller's hit/rebind decision: `matches_inputs` → execute,
        // otherwise rebind and read the root the bind pass wrote.
        let mut plan = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::Hash, &pool).unwrap();
        plan.root_into(&mut out).unwrap();
        prop_assert!(bits_eq_f64(&out, &oracle(&a)));
        for _ in 0..2 {
            prop_assert!(plan.matches_inputs(&[&a]));
            plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
            prop_assert!(bits_eq_f64(&out, &oracle(&a)));
        }
        // drift to a different pattern and back
        for m in [&b, &a] {
            prop_assert!(!plan.matches_inputs(&[m]));
            plan.rebind_in(&[m], &[], &pool).unwrap();
            plan.root_into(&mut out).unwrap();
            prop_assert!(bits_eq_f64(&out, &oracle(m)));
        }
    }
}

#[test]
fn plan_rejects_binding_and_execution_mismatches() {
    let pool = Pool::new(2);
    let a = Csr::<f64>::identity(6);
    let (g, root) = composite_graph();
    let rf = vec![1.0; 6];
    // wrong input count
    assert!(matches!(
        ExprPlan::new_in(&g, root, &[&a], &[&rf], Algorithm::Hash, &pool),
        Err(SparseError::PlanMismatch { .. })
    ));
    // unsorted input
    let two_per_row =
        Csr::from_triplets(6, 6, &[(0, 0, 1.0), (0, 3, 2.0), (1, 1, 1.0), (1, 4, 2.0)]).unwrap();
    let unsorted = ops::permute_cols(&two_per_row, &[3, 2, 1, 0, 5, 4]).unwrap();
    assert!(!unsorted.is_sorted());
    assert!(matches!(
        ExprPlan::new_in(&g, root, &[&unsorted, &a], &[&rf], Algorithm::Hash, &pool),
        Err(SparseError::Unsorted { .. })
    ));
    // shape mismatch inside the DAG (add of 6x6 with 4x4ᵀ)
    let small = Csr::<f64>::identity(4);
    assert!(matches!(
        ExprPlan::new_in(&g, root, &[&a, &small], &[&rf], Algorithm::Hash, &pool),
        Err(SparseError::ShapeMismatch { .. })
    ));
    // bad vector length
    let short = vec![1.0; 3];
    assert!(matches!(
        ExprPlan::new_in(&g, root, &[&a, &a], &[&short], Algorithm::Hash, &pool),
        Err(SparseError::ShapeMismatch { .. })
    ));
    // execution drift without rebind
    let mut plan = ExprPlan::new_in(&g, root, &[&a, &a], &[&rf], Algorithm::Hash, &pool).unwrap();
    let denser = ops::add(&a, &ops::transpose(&Csr::<f64>::identity(6))).unwrap();
    let with_more = Csr::from_triplets(6, 6, &[(0, 0, 1.0), (1, 2, 3.0)]).unwrap();
    let mut out = Csr::zero(0, 0);
    assert!(matches!(
        plan.execute_into_in(&[&with_more, &a], &[&rf], &mut out, &pool),
        Err(SparseError::PlanMismatch { .. })
    ));
    let _ = denser;
    // wrong pool width
    let wide = Pool::new(3);
    assert!(matches!(
        plan.execute_into_in(&[&a, &a], &[&rf], &mut out, &wide),
        Err(SparseError::PlanMismatch { .. })
    ));
    // matches_inputs: values may change, structure may not
    assert!(plan.matches_inputs(&[&a.map(|v| v * 3.0), &a]));
    assert!(!plan.matches_inputs(&[&with_more, &a]));
    assert!(!plan.matches_inputs(&[&a]));
}

#[test]
fn rebind_keeps_multiply_workspaces() {
    let pool = Pool::new(2);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let root = g.multiply(ia, ia);
    let a = spgemm_gen::suite::uniform_matrix(40, 300, &mut spgemm_gen::rng(3));
    let b = spgemm_gen::suite::uniform_matrix(40, 280, &mut spgemm_gen::rng(4));
    let mut plan = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::Hash, &pool).unwrap();
    let mut out = Csr::zero(0, 0);
    plan.execute_into_in(&[&a], &[], &mut out, &pool).unwrap();
    let before = plan.workspace_stats();
    assert!(before.created >= 1);
    plan.rebind_in(&[&b], &[], &pool).unwrap();
    plan.execute_into_in(&[&b], &[], &mut out, &pool).unwrap();
    let after = plan.workspace_stats();
    assert_eq!(
        after.created, before.created,
        "rebinding must keep the pooled accumulators: {before:?} -> {after:?}"
    );
    assert!(after.reused > before.reused);
    let expect = multiply_in::<P>(&b, &b, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    assert!(bits_eq_f64(&out, &expect));
}

#[test]
fn dag_fingerprint_tracks_structure_and_kernel() {
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let root = g.multiply(ia, ia);
    let a = Csr::<f64>::identity(8);
    let b = Csr::from_triplets(8, 8, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
    let p1 = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::Hash, &pool).unwrap();
    let p2 = ExprPlan::new_in(
        &g,
        root,
        &[&a.map(|v| v * 2.0)],
        &[],
        Algorithm::Hash,
        &pool,
    )
    .unwrap();
    let p3 = ExprPlan::new_in(&g, root, &[&b], &[], Algorithm::Hash, &pool).unwrap();
    let p4 = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::Heap, &pool).unwrap();
    assert_eq!(p1.fingerprint(), p2.fingerprint(), "values don't matter");
    assert_ne!(p1.fingerprint(), p3.fingerprint(), "structure matters");
    assert_ne!(p1.fingerprint(), p4.fingerprint(), "kernel matters");
    assert_eq!(p1.node_fingerprints().len(), g.len());
}

#[test]
fn failed_rebind_poisons_the_plan_until_a_good_rebind() {
    // Regression: a failed rebind must not leave a half-rebound plan
    // that later "matches" the bad inputs and serves stale results.
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let ib = g.input();
    let root = g.add(ia, ib);
    let a = Csr::<f64>::identity(4);
    let mut plan = ExprPlan::new_in(&g, root, &[&a, &a], &[], Algorithm::Hash, &pool).unwrap();
    let mut out = Csr::zero(0, 0);
    plan.execute_into_in(&[&a, &a], &[], &mut out, &pool)
        .unwrap();
    // rebind with incompatible shapes: the Add node fails mid-bind
    let bigger = Csr::<f64>::identity(5);
    assert!(matches!(
        plan.rebind_in(&[&bigger, &a], &[], &pool),
        Err(SparseError::ShapeMismatch { .. })
    ));
    // the poisoned plan must not match anything or execute/publish
    assert!(!plan.matches_inputs(&[&bigger, &a]));
    assert!(!plan.matches_inputs(&[&a, &a]));
    assert!(matches!(
        plan.execute_into_in(&[&a, &a], &[], &mut out, &pool),
        Err(SparseError::PlanMismatch { .. })
    ));
    assert!(matches!(
        plan.root_into(&mut out),
        Err(SparseError::PlanMismatch { .. })
    ));
    // a successful rebind recovers the plan fully
    plan.rebind_in(&[&bigger, &bigger], &[], &pool).unwrap();
    assert!(plan.matches_inputs(&[&bigger, &bigger]));
    plan.execute_into_in(&[&bigger, &bigger], &[], &mut out, &pool)
        .unwrap();
    let expect = ops::add(&bigger, &bigger).unwrap();
    assert!(bits_eq_f64(&out, &expect));
}

#[test]
fn expr_cache_recovers_after_a_failed_rebind() {
    // Through a caller's hit/rebind decision: bad inputs fail the
    // match and their rebind errors, then the same bad inputs fail the
    // match AGAIN (no stale hit), and good inputs rebind and recover.
    let pool = Pool::new(1);
    let mut g = ExprGraph::new();
    let ia = g.input();
    let ib = g.input();
    let root = g.add(ia, ib);
    let a = Csr::<f64>::identity(4);
    let bigger = Csr::<f64>::identity(5);
    let mut plan = ExprPlan::new_in(&g, root, &[&a, &a], &[], Algorithm::Hash, &pool).unwrap();
    let mut out = Csr::zero(0, 0);
    for _ in 0..2 {
        assert!(!plan.matches_inputs(&[&bigger, &a]));
        assert!(matches!(
            plan.rebind_in(&[&bigger, &a], &[], &pool),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }
    assert!(
        !plan.matches_inputs(&[&a, &a]),
        "a failed rebind leaves the plan unbound"
    );
    plan.rebind_in(&[&a, &a], &[], &pool).unwrap();
    plan.root_into(&mut out).unwrap();
    let expect = ops::add(&a, &a).unwrap();
    assert!(bits_eq_f64(&out, &expect));
}
