//! Integration tests of the application pipelines on generated data —
//! the workloads from the paper's §1/§5.5/§5.6 running on the real
//! kernel stack.

use spgemm::Algorithm;
use spgemm_apps::{amg, bfs, mcl, triangles};
use spgemm_gen::poisson::poisson2d;
use spgemm_par::Pool;

#[test]
fn bfs_agrees_across_kernels_and_threads() {
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 8, 8, &mut spgemm_gen::rng(1));
    let g = a.map(|_| true);
    let sources = [0usize, 17, 99];
    let seq: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| bfs::sequential_bfs(&g, s))
        .collect();
    for nt in [1usize, 3] {
        let pool = Pool::new(nt);
        for algo in [Algorithm::Hash, Algorithm::Spa, Algorithm::KkHash] {
            let l = bfs::multi_source_bfs(&g, &sources, algo, &pool).unwrap();
            for (si, lv) in seq.iter().enumerate() {
                for (v, &lvl) in lv.iter().enumerate() {
                    assert_eq!(l.level(v, si), lvl, "{algo} nt={nt} v={v}");
                }
            }
        }
    }
}

#[test]
fn triangle_counts_invariant_to_relabelling() {
    // counting must be invariant under symmetric permutation
    let a = spgemm_gen::suite::uniform_matrix(60, 500, &mut spgemm_gen::rng(2));
    let pool = Pool::new(2);
    let base = triangles::count_triangles(&a, Algorithm::Hash, &pool).unwrap();
    let perm = spgemm_gen::perm::random_permutation(60, &mut spgemm_gen::rng(3));
    let pa = spgemm_sparse::ops::permute_symmetric(&a, &perm).unwrap();
    let relabelled = triangles::count_triangles(&pa, Algorithm::Hash, &pool).unwrap();
    assert_eq!(base, relabelled);
}

#[test]
fn mcl_separates_rmat_components() {
    // two disjoint planted cliques must land in different clusters
    let mut trips = Vec::new();
    for block in 0..2usize {
        let base = block * 8;
        for u in 0..8usize {
            for v in 0..8usize {
                if u != v {
                    trips.push((base + u, (base + v) as u32, 1.0));
                }
            }
        }
    }
    let g = spgemm_sparse::Csr::from_triplets(16, 16, &trips).unwrap();
    let pool = Pool::new(2);
    let labels = mcl::cluster(&g, &mcl::MclParams::default(), &pool).unwrap();
    for u in 0..8 {
        assert_eq!(labels[u], labels[0]);
        assert_eq!(labels[8 + u], labels[8]);
    }
    assert_ne!(labels[0], labels[8]);
}

#[test]
fn amg_hierarchy_consistent_across_kernels() {
    let a = poisson2d(10);
    let pool = Pool::new(2);
    let h_hash = amg::setup_hierarchy(a.clone(), 8, 8, Algorithm::Hash, &pool).unwrap();
    let h_heap = amg::setup_hierarchy(a, 8, 8, Algorithm::Heap, &pool).unwrap();
    assert_eq!(h_hash.len(), h_heap.len());
    for (x, y) in h_hash.iter().zip(&h_heap) {
        assert!(spgemm_sparse::approx_eq_f64(x, &y.to_sorted(), 1e-9));
    }
}

#[test]
fn bfs_on_tall_skinny_matches_recipe_pick() {
    // the recipe's tall-skinny pick must produce identical BFS levels
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 8, 16, &mut spgemm_gen::rng(4));
    let g = a.map(|_| true);
    let pool = Pool::new(2);
    let auto = bfs::multi_source_bfs(&g, &[1, 2], Algorithm::Auto, &pool).unwrap();
    let hash = bfs::multi_source_bfs(&g, &[1, 2], Algorithm::Hash, &pool).unwrap();
    assert_eq!(auto, hash);
}

/// A matrix remembers its structure fingerprint, so a structure edit in
/// place must make it forget: after `raw_parts_mut` moves one entry of
/// a checked (memoized) operand at equal nnz, neither a Galerkin plan
/// nor an expression plan may take it for the structure it was bound
/// to.
#[test]
fn an_in_place_structure_edit_is_never_a_plan_hit() {
    use spgemm::expr::{ExprGraph, ExprPlan};
    use spgemm_sparse::SparseError;

    let pool = Pool::new(2);
    let mut a = poisson2d(8);
    let p = amg::prolongation_from_aggregates(&amg::greedy_aggregate(&a)).unwrap();
    let mut galerkin = amg::GalerkinPlan::new(&a, &p, Algorithm::Hash, &pool).unwrap();
    let mut g = ExprGraph::new();
    let input = g.input();
    let root = g.multiply(input, input);
    let expr = ExprPlan::new_in(&g, root, &[&a], &[], Algorithm::Hash, &pool).unwrap();
    galerkin.recoarsen(&a, &pool).unwrap();
    assert!(expr.matches_inputs(&[&a]), "checked, and memoized");

    // Row 0's last entry moves one column right: still sorted, same nnz.
    let n = a.ncols();
    let last = a.rpts()[1] - 1;
    assert!(a.cols()[last] as usize + 1 < n);
    let before = a.structure_fingerprint();
    a.raw_parts_mut().1[last] += 1;
    assert!(a.validate().is_ok() && a.is_sorted());
    assert_ne!(a.structure_fingerprint(), before);

    assert!(matches!(
        galerkin.recoarsen(&a, &pool),
        Err(SparseError::PlanMismatch { .. })
    ));
    assert!(!expr.matches_inputs(&[&a]));
}
