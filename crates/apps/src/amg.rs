//! Algebraic Multigrid Galerkin coarsening `A_c = Pᵀ A P` — the
//! canonical numeric SpGEMM consumer cited in the paper's introduction
//! (Ballard, Siefert & Hu: "Reducing communication costs for sparse
//! matrix multiplication within algebraic multigrid").
//!
//! We implement aggregation-based AMG: grid points are grouped into
//! aggregates; the prolongation `P` is the piecewise-constant
//! `n × n_c` indicator matrix of the aggregation; the coarse operator
//! is the triple product computed as two SpGEMMs (`Pᵀ · (A · P)`).

use spgemm::expr::{ExprGraph, ExprPlan};
use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_par::Pool;
use spgemm_sparse::{ops, ColIdx, Coo, Csr, PlusTimes, SparseError};

/// Piecewise-constant prolongation from an aggregate assignment:
/// `P[i][agg[i]] = 1`. `n_c` is `max(agg) + 1`.
pub fn prolongation_from_aggregates(agg: &[usize]) -> Result<Csr<f64>, SparseError> {
    let n = agg.len();
    let nc = agg.iter().copied().max().map_or(0, |m| m + 1);
    let mut coo = Coo::with_capacity(n, nc, n)?;
    for (i, &a) in agg.iter().enumerate() {
        coo.push(i, a as ColIdx, 1.0)?;
    }
    Ok(coo.into_csr_sum())
}

/// Greedy unsmoothed aggregation along the matrix graph: sweep the
/// vertices; an unaggregated vertex seeds a new aggregate containing
/// itself and its unaggregated neighbours (the classic root-node
/// scheme).
pub fn greedy_aggregate(a: &Csr<f64>) -> Vec<usize> {
    let n = a.nrows();
    let mut agg = vec![usize::MAX; n];
    let mut next = 0usize;
    for i in 0..n {
        if agg[i] != usize::MAX {
            continue;
        }
        agg[i] = next;
        for &j in a.row_cols(i) {
            let j = j as usize;
            if j != i && agg[j] == usize::MAX {
                agg[j] = next;
            }
        }
        next += 1;
    }
    agg
}

/// Galerkin triple product `Pᵀ A P` via two SpGEMMs.
pub fn galerkin_product(
    a: &Csr<f64>,
    p: &Csr<f64>,
    algo: Algorithm,
    pool: &Pool,
) -> Result<Csr<f64>, SparseError> {
    let ap = multiply_in::<PlusTimes<f64>>(a, p, algo, OutputOrder::Sorted, pool)?;
    let pt = ops::transpose(p);
    multiply_in::<PlusTimes<f64>>(&pt, &ap, algo, OutputOrder::Sorted, pool)
}

/// A reusable Galerkin triple product `Pᵀ A P` for a **fixed
/// aggregation**, compiled as one expression plan
/// (`multiply(transpose(P), multiply(A, P))` — see [`spgemm::expr`]):
/// both SpGEMMs are planned once, the transpose of `P` is a cached
/// structure refilled by a value gather, and every re-coarsening
/// (time-dependent coefficients, Jacobian refreshes — `A`'s values
/// change, its pattern does not) is a numeric-only re-execution into
/// reused storage, whose result is read in place from the plan's root.
/// This is the AMG re-setup loop the paper's introduction cites as a
/// primary SpGEMM consumer, with the Figure 4 allocation cost
/// amortized away.
pub struct GalerkinPlan {
    p: Csr<f64>,
    plan: ExprPlan,
}

impl GalerkinPlan {
    /// Plan `Pᵀ A P` for the structure of `a` and `p`, computing the
    /// initial coarse operator.
    pub fn new(
        a: &Csr<f64>,
        p: &Csr<f64>,
        algo: Algorithm,
        pool: &Pool,
    ) -> Result<Self, SparseError> {
        let mut g = ExprGraph::new();
        let ia = g.input();
        let ip = g.input();
        let ap = g.multiply(ia, ip);
        let pt = g.transpose(ip);
        let root = g.multiply(pt, ap);
        let plan = ExprPlan::new_in(&g, root, &[a, p], &[], algo, pool)?;
        Ok(GalerkinPlan { p: p.clone(), plan })
    }

    /// Recompute the coarse operator for new values of `a` (same
    /// sparsity pattern as planned): a numeric-only pipeline
    /// re-execution, no steady-state allocation. The result is the
    /// plan's root, borrowed in place (no copy).
    ///
    /// The pattern is verified by structure fingerprint, which `a`
    /// computes once and then remembers (so does the plan's copy of
    /// `P`): a matrix whose entries moved is rejected with
    /// [`SparseError::PlanMismatch`] rather than silently coarsened
    /// against stale row pointers.
    pub fn recoarsen(&mut self, a: &Csr<f64>, pool: &Pool) -> Result<&Csr<f64>, SparseError> {
        let drifted = self.plan.mismatched_inputs(&[a, &self.p]);
        if !drifted.is_empty() {
            let names: Vec<&str> = drifted
                .iter()
                .map(|&slot| if slot == 0 { "A" } else { "P" })
                .collect();
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "recoarsen: the sparsity pattern of {} differs from the planned one; \
                     build a new GalerkinPlan",
                    names.join(" and ")
                ),
            });
        }
        self.plan.execute_in(&[a, &self.p], &[], pool)?;
        Ok(self.coarse())
    }

    /// The current coarse operator: the plan's root, in place.
    ///
    /// # Panics
    ///
    /// After a [`GalerkinPlan::recoarsen`] that failed inside the
    /// pipeline, whose root may be half-written. (One rejected for a
    /// drifted pattern ran nothing and leaves the operator readable.)
    pub fn coarse(&self) -> &Csr<f64> {
        (self.plan.root()).expect("the root is a product node, bound unless an execution failed")
    }

    /// The prolongation this plan was built around.
    pub fn prolongation(&self) -> &Csr<f64> {
        &self.p
    }

    /// Aggregated workspace-reuse counters of the pipeline's SpGEMM
    /// nodes.
    pub fn workspace_stats(&self) -> spgemm_par::WorkspaceStats {
        self.plan.workspace_stats()
    }
}

/// One level of the AMG setup phase: aggregate, build `P`, coarsen.
/// Returns `(P, A_c)`.
pub fn coarsen_level(
    a: &Csr<f64>,
    algo: Algorithm,
    pool: &Pool,
) -> Result<(Csr<f64>, Csr<f64>), SparseError> {
    let agg = greedy_aggregate(a);
    let p = prolongation_from_aggregates(&agg)?;
    let ac = galerkin_product(a, &p, algo, pool)?;
    Ok((p, ac))
}

/// Build a full coarsening hierarchy until the operator is at most
/// `min_size` rows or `max_levels` is reached. Returns the operators
/// `[A_0, A_1, ...]` (finest first).
pub fn setup_hierarchy(
    a: Csr<f64>,
    min_size: usize,
    max_levels: usize,
    algo: Algorithm,
    pool: &Pool,
) -> Result<Vec<Csr<f64>>, SparseError> {
    let mut levels = vec![a];
    while levels.len() < max_levels {
        let fine = levels.last().expect("at least the fine level");
        if fine.nrows() <= min_size {
            break;
        }
        let (_, coarse) = coarsen_level(fine, algo, pool)?;
        if coarse.nrows() >= fine.nrows() {
            break; // aggregation stalled
        }
        levels.push(coarse);
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_gen::poisson::poisson2d;

    #[test]
    fn prolongation_columns_partition() {
        let agg = vec![0usize, 0, 1, 1, 2];
        let p = prolongation_from_aggregates(&agg).unwrap();
        assert_eq!(p.shape(), (5, 3));
        assert_eq!(p.nnz(), 5, "each fine point in exactly one aggregate");
        for (i, &a) in agg.iter().enumerate() {
            assert_eq!(p.get(i, a as u32), Some(&1.0));
        }
    }

    #[test]
    fn greedy_aggregation_covers_all_vertices() {
        let a = poisson2d(8);
        let agg = greedy_aggregate(&a);
        assert!(agg.iter().all(|&x| x != usize::MAX));
        let nagg = agg.iter().copied().max().unwrap() + 1;
        assert!(nagg < a.nrows(), "aggregation must coarsen");
        assert!(
            nagg >= a.nrows() / 6,
            "5-point stencil aggregates are ≤ 5+1 points"
        );
    }

    #[test]
    fn galerkin_preserves_nullspace_action() {
        // For the piecewise-constant P, row sums satisfy
        // (A_c · 1)_agg = Σ_{i ∈ agg} (A · 1)_i  — coarsening conserves
        // the operator's action on the constant vector.
        let a = poisson2d(6);
        let agg = greedy_aggregate(&a);
        let p = prolongation_from_aggregates(&agg).unwrap();
        let pool = Pool::new(2);
        let ac = galerkin_product(&a, &p, Algorithm::Hash, &pool).unwrap();

        let row_sum = |m: &Csr<f64>, i: usize| -> f64 { m.row_vals(i).iter().sum() };
        let nc = ac.nrows();
        let mut fine_sums = vec![0.0f64; nc];
        for i in 0..a.nrows() {
            fine_sums[agg[i]] += row_sum(&a, i);
        }
        for (c, &fine) in fine_sums.iter().enumerate() {
            assert!(
                (row_sum(&ac, c) - fine).abs() < 1e-9,
                "aggregate {c}: {} vs {}",
                row_sum(&ac, c),
                fine
            );
        }
    }

    #[test]
    fn galerkin_keeps_symmetry() {
        let a = poisson2d(5);
        let pool = Pool::new(2);
        let (_, ac) = coarsen_level(&a, Algorithm::Hash, &pool).unwrap();
        let act = ops::transpose(&ac);
        assert!(
            spgemm_sparse::approx_eq_f64(&ac, &act, 1e-12),
            "A_c must stay symmetric"
        );
    }

    #[test]
    fn hierarchy_shrinks_monotonically() {
        let a = poisson2d(12);
        let pool = Pool::new(2);
        let levels = setup_hierarchy(a, 8, 10, Algorithm::Hash, &pool).unwrap();
        assert!(
            levels.len() >= 3,
            "144 points should coarsen at least twice"
        );
        for w in levels.windows(2) {
            assert!(w[1].nrows() < w[0].nrows());
        }
        assert!(levels.last().unwrap().nrows() <= 20);
    }

    #[test]
    fn galerkin_plan_recoarsens_match_fresh_products() {
        let a = poisson2d(8);
        let agg = greedy_aggregate(&a);
        let p = prolongation_from_aggregates(&agg).unwrap();
        let pool = Pool::new(2);
        let mut plan = GalerkinPlan::new(&a, &p, Algorithm::Hash, &pool).unwrap();
        assert!(spgemm_sparse::approx_eq_f64(
            plan.coarse(),
            &galerkin_product(&a, &p, Algorithm::Hash, &pool).unwrap(),
            1e-12
        ));
        // "time steps": same stencil pattern, drifting coefficients
        for step in 1..=4 {
            let scaled = a.map(|v| v * (1.0 + step as f64 * 0.1));
            let expect = galerkin_product(&scaled, &p, Algorithm::Hash, &pool).unwrap();
            let got = plan.recoarsen(&scaled, &pool).unwrap();
            assert!(
                spgemm_sparse::approx_eq_f64(got, &expect, 1e-12),
                "step {step}"
            );
        }
        let st = plan.workspace_stats();
        assert!(
            st.reused >= 4,
            "recoarsening must reuse accumulators: {st:?}"
        );
        // a pattern change must be rejected, not silently coarsened —
        // and the error must say *which* operand drifted
        let moved = poisson2d(8).filter(|i, j, _| i != j as usize);
        match plan.recoarsen(&moved, &pool) {
            Err(SparseError::PlanMismatch { detail }) => {
                assert!(
                    detail.contains("pattern of A "),
                    "mismatch must name the drifted operand: {detail:?}"
                );
                assert!(
                    !detail.contains("and P"),
                    "P did not drift and must not be blamed: {detail:?}"
                );
            }
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
    }

    #[test]
    fn triple_product_matches_direct_composition() {
        // (PᵀAP) v == Pᵀ(A(Pv)) for a probe vector v
        let a = poisson2d(4);
        let agg = greedy_aggregate(&a);
        let p = prolongation_from_aggregates(&agg).unwrap();
        let pool = Pool::new(1);
        let ac = galerkin_product(&a, &p, Algorithm::Heap, &pool).unwrap();

        let matvec = |m: &Csr<f64>, v: &[f64]| -> Vec<f64> {
            (0..m.nrows())
                .map(|i| {
                    m.row_cols(i)
                        .iter()
                        .zip(m.row_vals(i))
                        .map(|(&c, &x)| x * v[c as usize])
                        .sum()
                })
                .collect()
        };
        let nc = ac.nrows();
        let probe: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let direct = matvec(&ac, &probe);
        // composed: Pv (fine), A(Pv), Pᵀ(...)
        let pv = matvec(&p, &probe);
        let apv = matvec(&a, &pv);
        let pt = ops::transpose(&p);
        let composed = matvec(&pt, &apv);
        for (d, c) in direct.iter().zip(&composed) {
            assert!((d - c).abs() < 1e-9, "{d} vs {c}");
        }
    }
}
