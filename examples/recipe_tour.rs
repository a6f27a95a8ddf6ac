//! Tour of the paper's recipe (Table 4): for a grid of scenarios,
//! show which algorithm the recipe picks and confirm it against a
//! timed shoot-out on this machine.
//!
//! ```text
//! cargo run --release --example recipe_tour -- [scale]
//! ```

use spgemm::{multiply_in, recipe, Algorithm, OutputOrder};
use spgemm_gen::{rmat, tallskinny, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{Csr, PlusTimes};
use std::time::Instant;

fn time_algo(
    a: &Csr<f64>,
    b: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
) -> Option<f64> {
    let t = Instant::now();
    multiply_in::<PlusTimes<f64>>(a, b, algo, order, pool).ok()?;
    Some(t.elapsed().as_secs_f64())
}

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let pool = Pool::with_all_threads();

    let contenders = [
        Algorithm::Hash,
        Algorithm::HashVec,
        Algorithm::Heap,
        Algorithm::Spa,
        Algorithm::Merge,
    ];

    println!("scenario grid at scale {scale} (see Table 4b of the paper)\n");
    println!(
        "{:<28} {:>9} {:>10} {:>10}",
        "scenario", "recipe", "fastest", "agree?"
    );

    for kind in [RmatKind::Er, RmatKind::G500] {
        for ef in [4usize, 16] {
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let a = rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(5));
                let pattern = recipe::classify_pattern(&a);
                let pick =
                    recipe::recommend_synthetic(recipe::OpKind::Square, pattern, ef as f64, order);
                // shoot-out
                let mut best = (f64::INFINITY, Algorithm::Hash);
                for algo in contenders {
                    if algo.requires_sorted_inputs() && order == OutputOrder::Unsorted {
                        continue; // sorted-only kernels can't skip the sort anyway
                    }
                    if let Some(t) = time_algo(&a, &a, algo, order, &pool) {
                        if t < best.0 {
                            best = (t, algo);
                        }
                    }
                }
                let name = format!(
                    "A²/{}/EF{}/{}",
                    kind.name(),
                    ef,
                    if order.is_sorted() {
                        "sorted"
                    } else {
                        "unsorted"
                    }
                );
                println!(
                    "{:<28} {:>9} {:>10} {:>10}",
                    name,
                    pick.name(),
                    best.1.name(),
                    if pick == best.1 { "yes" } else { "-" }
                );
            }
        }
    }

    // tall-skinny scenario
    let g = rmat::generate_kind(RmatKind::G500, scale, 16, &mut spgemm_gen::rng(6));
    let ts = tallskinny::tall_skinny(&g, 1 << (scale / 2), &mut spgemm_gen::rng(7))
        .expect("tall-skinny");
    let pick = recipe::recommend_synthetic(
        recipe::OpKind::TallSkinny,
        recipe::Pattern::Skewed,
        16.0,
        OutputOrder::Unsorted,
    );
    let mut best = (f64::INFINITY, Algorithm::Hash);
    for algo in [Algorithm::Hash, Algorithm::HashVec, Algorithm::Heap] {
        if let Some(t) = time_algo(&g, &ts, algo, OutputOrder::Unsorted, &pool) {
            if t < best.0 {
                best = (t, algo);
            }
        }
    }
    println!(
        "{:<28} {:>9} {:>10} {:>10}",
        "AxTallSkinny/G500/EF16",
        pick.name(),
        best.1.name(),
        if pick == best.1 { "yes" } else { "-" }
    );

    println!("\n('agree?' depends on this machine; the paper's recipe was fit on KNL)");
}
