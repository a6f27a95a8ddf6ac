//! AMG setup phase on a 2-D Poisson problem: repeated Galerkin triple
//! products `Pᵀ A P` — the numeric SpGEMM workload from the paper's
//! introduction.
//!
//! ```text
//! cargo run --release --example amg_galerkin -- [grid]
//! ```

use spgemm::Algorithm;
use spgemm_apps::amg;
use spgemm_gen::poisson::poisson2d;

fn main() {
    let grid: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);

    println!("5-point Laplacian on a {grid} x {grid} grid");
    let a = poisson2d(grid);
    println!("A_0: {} rows, {} nonzeros", a.nrows(), a.nnz());

    let pool = &spgemm_par::Pool::with_all_threads();
    let t = std::time::Instant::now();
    let levels = amg::setup_hierarchy(a, 64, 12, Algorithm::Hash, pool).expect("setup");
    let secs = t.elapsed().as_secs_f64();

    println!("built {}-level hierarchy in {:.3}s:", levels.len(), secs);
    for (d, op) in levels.iter().enumerate() {
        println!(
            "  level {d}: {:>8} rows, {:>9} nnz, avg row {:.2}",
            op.nrows(),
            op.nnz(),
            op.avg_row_nnz()
        );
    }
    let coarsening: f64 =
        levels[0].nrows() as f64 / levels.last().expect("non-empty").nrows() as f64;
    println!("total coarsening factor: {coarsening:.1}x");
}
