//! Property tests for the application layer: BFS against the queue
//! reference for every source on arbitrary and R-MAT digraphs,
//! triangle counts against brute force, and structural invariants of
//! the AMG hierarchy.

use proptest::prelude::*;
use spgemm::Algorithm;
use spgemm_apps::{amg, bfs, triangles};
use spgemm_gen::{rmat, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Coo, Csr};

fn arb_digraph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr<bool>> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=max_m).prop_map(move |edges| {
            let mut coo = Coo::new(n, n).unwrap();
            for (u, v) in edges {
                coo.push(u, v as ColIdx, true).unwrap();
            }
            coo.into_csr_sum()
        })
    })
}

/// A BFS input: an arbitrary digraph or an R-MAT G500 / ER one, with
/// a self loop at vertex 0 and every seventh stored edge `false`.
fn arb_bfs_graph() -> impl Strategy<Value = Csr<bool>> {
    (0usize..3, 3u32..8, 0u64..1 << 20, arb_digraph(40, 200)).prop_map(
        |(kind, scale, seed, arbitrary)| {
            let rmat = |kind| {
                let g = rmat::generate_kind(kind, scale, 4, &mut spgemm_gen::rng(seed));
                g.map(|_| true)
            };
            let g = match kind {
                0 => arbitrary,
                1 => rmat(RmatKind::G500),
                _ => rmat(RmatKind::Er),
            };
            let mut trips = vec![(0, 0, false)];
            for u in 0..g.nrows() {
                for &v in g.row_cols(u) {
                    trips.push((u, v, trips.len() % 7 != 0));
                }
            }
            Csr::from_triplets(g.nrows(), g.ncols(), &trips).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every source's levels equal the queue reference's, for source
    /// counts on both sides of the unvisited bitmap's 64-bit words,
    /// with repeated sources, at 1–3 threads. A stored `false` is an
    /// edge to both.
    #[test]
    fn bfs_levels_match_queue_reference(
        g in arb_bfs_graph(),
        count in 0usize..5,
        picks in prop::collection::vec(0usize..1 << 20, 129),
    ) {
        let n = g.nrows();
        let count = [1, 63, 64, 65, 129][count];
        let mut sources: Vec<usize> = picks[..count].iter().map(|&p| p % n).collect();
        sources[count - 1] = sources[0];
        let expect: Vec<Vec<u32>> = sources.iter().map(|&src| bfs::sequential_bfs(&g, src)).collect();
        for nt in 1..=3 {
            let pool = Pool::new(nt);
            let l = bfs::multi_source_bfs(&g, &sources, Algorithm::Auto, &pool).unwrap();
            prop_assert_eq!((l.nverts, l.nsources), (n, count));
            for (s, seq) in expect.iter().enumerate() {
                for (v, &lvl) in seq.iter().enumerate() {
                    prop_assert_eq!(l.level(v, s), lvl, "source #{} vertex {} at {} threads", s, v, nt);
                }
            }
        }
    }

    #[test]
    fn bfs_levels_are_lipschitz_along_edges(g in arb_digraph(25, 120)) {
        // for every edge u -> v: level(v) <= level(u) + 1 when u reached
        let pool = Pool::new(2);
        let l = bfs::multi_source_bfs(&g, &[0], Algorithm::Hash, &pool).unwrap();
        for u in 0..g.nrows() {
            let lu = l.level(u, 0);
            if lu == bfs::UNREACHED {
                continue;
            }
            for &v in g.row_cols(u) {
                let lv = l.level(v as usize, 0);
                prop_assert!(lv != bfs::UNREACHED && lv <= lu + 1,
                    "edge {}->{}: {} then {}", u, v, lu, lv);
            }
        }
    }

    #[test]
    fn triangle_count_matches_bruteforce(g in arb_digraph(16, 60)) {
        let gf = g.map(|_| 1.0f64);
        let pool = Pool::new(2);
        let fast = triangles::count_triangles(&gf, Algorithm::Hash, &pool).unwrap();
        let masked = triangles::count_triangles_masked(&gf, &pool).unwrap();
        let naive = triangles::count_triangles_naive(&gf).unwrap();
        prop_assert_eq!(fast, naive);
        prop_assert_eq!(masked, naive);
    }

    #[test]
    fn amg_levels_conserve_row_sums(k in 3usize..10) {
        // Galerkin with piecewise-constant P conserves total row sum
        let a = spgemm_gen::poisson::poisson2d(k);
        let total: f64 = a.vals().iter().sum();
        let pool = Pool::new(2);
        let levels = amg::setup_hierarchy(a, 4, 6, Algorithm::Hash, &pool).unwrap();
        for (d, op) in levels.iter().enumerate() {
            let s: f64 = op.vals().iter().sum();
            prop_assert!((s - total).abs() < 1e-6, "level {}: {} vs {}", d, s, total);
        }
    }
}
