//! Triangle counting via the paper's `L · U` pipeline (§5.6): degree
//! reordering, triangular split, SpGEMM, masked reduction.
//!
//! ```text
//! cargo run --release --example triangle_count -- [scale] [edge_factor]
//! ```

use spgemm::Algorithm;
use spgemm_apps::triangles;
use spgemm_gen::{rmat, RmatKind};
use spgemm_sparse::{stats, PlusTimes};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let ef: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    println!("generating G500 graph: scale {scale}, edge factor {ef}...");
    let g = rmat::generate_kind(RmatKind::G500, scale, ef, &mut spgemm_gen::rng(7));
    println!("graph: {} vertices, {} stored entries", g.nrows(), g.nnz());

    let pool = &spgemm_par::Pool::with_all_threads();
    // LxU products have low compression ratio; Table 4a recommends
    // Heap for CR <= 2 and Hash above — run both and compare.
    for algo in [Algorithm::Heap, Algorithm::Hash] {
        let t = std::time::Instant::now();
        let count = triangles::count_triangles(&g, algo, pool).expect("count");
        let secs = t.elapsed().as_secs_f64();
        println!("{algo:<6}: {count} triangles in {secs:.3}s");
    }

    // report the compression ratio of the wedge product for context
    let simple = spgemm_sparse::ops::symmetrize_simple(&g).expect("symmetrize");
    let (l, u) = spgemm_sparse::ops::split_lu(&simple).expect("split");
    let flop = stats::flop(&l, &u);
    let wedges = spgemm::multiply_in::<PlusTimes<f64>>(
        &l,
        &u,
        Algorithm::Hash,
        spgemm::OutputOrder::Sorted,
        pool,
    )
    .expect("wedges");
    println!(
        "L·U: flop {} / nnz {} -> compression ratio {:.2}",
        flop,
        wedges.nnz(),
        stats::compression_ratio(flop, wedges.nnz())
    );
}
