//! Multi-source BFS on an R-MAT graph — the square × tall-skinny
//! SpGEMM use case of §5.5 (betweenness centrality, Graph500-style
//! batched searches).
//!
//! ```text
//! cargo run --release --example multi_source_bfs -- [scale] [edge_factor] [sources]
//! ```

use spgemm::Algorithm;
use spgemm_apps::bfs;
use spgemm_gen::{rmat, RmatKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let ef: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let nsources: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);

    println!("generating G500 graph: scale {scale}, edge factor {ef}...");
    let a = rmat::generate_kind(RmatKind::G500, scale, ef, &mut spgemm_gen::rng(1));
    let graph = a.map(|_| true);
    println!("graph: {} vertices, {} edges", graph.nrows(), graph.nnz());

    // sources spread across the vertex id space
    let sources: Vec<usize> = (0..nsources)
        .map(|s| (s * graph.nrows()) / nsources)
        .collect();

    let pool = &spgemm_par::Pool::with_all_threads();
    let t = std::time::Instant::now();
    let levels = bfs::multi_source_bfs(&graph, &sources, Algorithm::Auto, pool).expect("bfs");
    let secs = t.elapsed().as_secs_f64();

    println!("ran {} simultaneous BFS in {:.3}s", sources.len(), secs);
    let mut reach: Vec<usize> = (0..sources.len())
        .map(|s| levels.reached_count(s))
        .collect();
    reach.sort_unstable();
    println!(
        "reachability: min {} / median {} / max {} of {} vertices",
        reach[0],
        reach[reach.len() / 2],
        reach[reach.len() - 1],
        graph.nrows()
    );

    // deepest level found from the first source
    let max_level = (0..graph.nrows())
        .map(|v| levels.level(v, 0))
        .filter(|&l| l != bfs::UNREACHED)
        .max()
        .unwrap_or(0);
    println!("eccentricity of source {}: {max_level}", sources[0]);
}
