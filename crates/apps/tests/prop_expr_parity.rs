//! Acceptance parity: the fused expression-plan pipelines behind the
//! app layers must produce **byte-identical** results to the unfused
//! hand-composed paths (one-shot `multiply_in` + `ops` per stage) —
//! proptested for the MCL step, the Galerkin `Pᵀ(AP)` triple product,
//! and the masked triangle wedge product.

use proptest::prelude::*;
use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_apps::{amg, mcl, triangles};
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, ops, ColIdx, Coo, Csr, PlusTimes};

type P = PlusTimes<f64>;

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr<f64>> {
    (3..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1i64..=4), 1..=max_m).prop_map(move |edges| {
            let mut coo = Coo::new(n, n).unwrap();
            for (u, v, w) in edges {
                coo.push(u, v as ColIdx, w as f64).unwrap();
            }
            coo.into_csr_sum()
        })
    })
}

/// The pre-expression MCL round: one-shot square, materialized
/// inflation, prune, renormalize.
fn mcl_step_unfused(a: &Csr<f64>, params: &mcl::MclParams, pool: &Pool) -> Csr<f64> {
    let expanded = multiply_in::<P>(a, a, params.algo, OutputOrder::Sorted, pool).unwrap();
    let inflated = mcl::inflate(&expanded, params.inflation);
    let pruned = inflated.filter(|_, _, v| v >= params.prune_threshold);
    mcl::normalize_columns(&pruned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mcl_step_matches_unfused_path(g in arb_graph(20, 80), nt in 1usize..=3) {
        let pool = Pool::new(nt);
        let params = mcl::MclParams::default();
        // a plausible MCL iterate: symmetric + loops + stochastic
        let sym = ops::symmetrize_simple(&g).unwrap();
        let with_loops = ops::add(&sym, &Csr::<f64>::identity(sym.nrows())).unwrap();
        let mut m = mcl::normalize_columns(&with_loops);
        let mut pipe = mcl::MclPipeline::new(&params);
        for round in 0..3 {
            let expect = mcl_step_unfused(&m, &params, &pool);
            let (got, _) = mcl::mcl_step(&m, &params, &mut pipe, &pool).unwrap();
            prop_assert!(bits_eq_f64(&got, &expect), "round {}", round);
            m = got;
        }
    }

    #[test]
    fn galerkin_plan_matches_unfused_triple_product(g in arb_graph(24, 100), step_scale in 1u32..6) {
        let pool = Pool::new(2);
        // symmetric positive-ish operator and a real aggregation
        let a = ops::add(
            &ops::symmetrize_simple(&g).unwrap(),
            &Csr::<f64>::identity(g.nrows()),
        )
        .unwrap();
        let agg = amg::greedy_aggregate(&a);
        let p = amg::prolongation_from_aggregates(&agg).unwrap();
        // `Auto` is the dense kernel at this size: its two product
        // nodes discover their column patterns over the build and the
        // first recoarsen, and replay them from the second one on.
        for algo in [Algorithm::Hash, Algorithm::Auto] {
            let mut plan = amg::GalerkinPlan::new(&a, &p, algo, &pool).unwrap();
            let expect = amg::galerkin_product(&a, &p, Algorithm::Hash, &pool).unwrap();
            prop_assert!(bits_eq_f64(plan.coarse(), &expect), "{}: initial coarse operator", algo);
            // value drift under the fixed stencil: numeric-only recoarsens
            for step in 0..4 {
                let scaled = a.map(|v| v * (1.0 + (step_scale + step) as f64 * 0.125));
                let expect = amg::galerkin_product(&scaled, &p, Algorithm::Hash, &pool).unwrap();
                let got = plan.recoarsen(&scaled, &pool).unwrap();
                prop_assert!(bits_eq_f64(got, &expect), "{}: recoarsen {}", algo, step);
            }
        }
    }

    #[test]
    fn triangle_count_matches_unfused_masked_product(g in arb_graph(18, 70)) {
        let pool = Pool::new(2);
        // the unfused pipeline, stage by stage, exactly as the counter
        // preprocesses
        let simple = ops::symmetrize_simple(&g.map(|_| 1.0)).unwrap();
        let simple = simple.map(|_| 1.0f64);
        let perm = ops::degree_ascending_permutation(&simple);
        let reordered = ops::permute_symmetric(&simple, &perm).unwrap();
        let (l, u) = ops::split_lu(&reordered).unwrap();
        let wedges = multiply_in::<P>(&l, &u, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let masked = ops::hadamard(&wedges, &reordered).unwrap();
        let unfused_total: f64 = masked.vals().iter().sum();
        let expect = (unfused_total / 2.0).round() as u64;

        let mut counter = triangles::TriangleCounter::new(&g, Algorithm::Hash, &pool).unwrap();
        for round in 0..3 {
            prop_assert_eq!(counter.count(&pool).unwrap(), expect, "round {}", round);
        }
        // and against brute force, for good measure
        prop_assert_eq!(expect, triangles::count_triangles_naive(&g).unwrap());
    }
}
