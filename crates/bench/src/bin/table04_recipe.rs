//! Table 4: the empirical recipe — measure every scenario cell, name
//! the winner on this machine, and print it next to the paper's
//! recommendations and next to what `Algorithm::Auto`'s footprint rule
//! picks (with that pick's time over the winner's). `paper` is Table
//! 4b's pick for the cell's structure; `4a` is Table 4a's for its
//! measured compression ratio (`flop / nnz(C)`, from the roster's
//! measurements), as if it were a real-data input.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin table04_recipe \
//!     [--scale N] [--reps N] [--threads N] [--seed N]
//!     [--smoke]          # CI: scale 8, fails on an inadmissible pick or a parity mismatch only
//!     [--sweep LO..HI]   # the crossover table of ARCHITECTURE.md "Auto" instead of Table 4
//! ```
//!
//! `--sweep` runs ER and G500 squares at edge factor 8 (`--ef`) over
//! scales `LO..=HI`, both orders, through reused plans (numeric pass
//! only, minimum of `--reps`), and prints the dense accumulator's
//! footprint against the per-thread L2 share beside the SPA / Hash /
//! Heap times: where the SPA stops winning is where the rule must
//! flip. The `coll` column is the cell's measured Eq (2) collision
//! factor (`spgemm_bench::recipe::measure_collision_factor`), the
//! provenance of `cost::AUTO_COLLISION_FACTOR`.

use spgemm::{cost, recipe, Algorithm, OutputOrder, SpgemmPlan};
use spgemm_bench::recipe::{measure_collision_factor, recommend_real, recommend_synthetic, OpKind};
use spgemm_bench::{args::BenchArgs, panels};
use spgemm_gen::{rmat, tallskinny, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{Csr, PlusTimes};
use std::time::Instant;

type P = PlusTimes<f64>;

/// What the footprint rule picks for the cell. Exits non-zero on an
/// inadmissible pick or — under `--smoke`, where the sequential oracle
/// is affordable — when the pick's product differs from `Reference`:
/// the two things `--smoke` fails on.
fn auto_pick(
    a: &Csr<f64>,
    b: &Csr<f64>,
    order: OutputOrder,
    pool: &Pool,
    smoke: bool,
) -> Algorithm {
    let ctx = recipe::auto_context(a, b, order);
    let pick = recipe::static_select(&ctx);
    if !recipe::pick_admissible(&ctx, pick) {
        eprintln!("FAIL: Auto picked {pick}, inadmissible for {ctx:?}");
        std::process::exit(1);
    }
    if smoke {
        let got = spgemm::multiply_in::<P>(a, b, pick, order, pool).expect("admissible pick runs");
        let oracle = spgemm::algos::reference::multiply::<P>(a, b);
        if !spgemm_sparse::approx_eq_f64(&oracle, &got, 1e-9) {
            eprintln!("FAIL: {pick} ({order:?}) differs from Reference");
            std::process::exit(1);
        }
    }
    pick
}

/// How the table is run: on which pool, how many timed repetitions,
/// and whether every `Auto` pick is checked against `Reference`.
struct Run<'a> {
    pool: &'a Pool,
    reps: usize,
    smoke: bool,
}

#[allow(clippy::too_many_arguments)]
fn table_row(
    run: &Run<'_>,
    op: OpKind,
    pattern: &str,
    sparsity: &str,
    a: &Csr<f64>,
    b: &Csr<f64>,
    order: OutputOrder,
    paper: Algorithm,
) {
    use Algorithm::*;
    let roster = [Hash, HashVec, Heap, Spa, Merge, Inspector, KkHash];
    // One-shot measurements of every kernel that accepts the cell.
    let measured: Vec<_> = panels::time_roster(a, b, &roster, order, run.pool, run.reps)
        .into_iter()
        .filter_map(|(algo, m)| Some((algo, m.ok()?)))
        .collect();
    let times: Vec<(Algorithm, f64)> = measured.iter().map(|(algo, m)| (*algo, m.secs)).collect();
    let (winner, best) = times
        .iter()
        .copied()
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .expect("Hash accepts every cell");
    // Every accepted kernel computes the same product: one ratio.
    let cr = measured[0].1.compression_ratio();
    let auto = auto_pick(a, b, order, run.pool, run.smoke);
    let auto_secs = times
        .iter()
        .find(|(algo, _)| *algo == auto)
        .map_or(f64::NAN, |t| t.1);
    println!(
        "{:<12} {pattern:>8} {sparsity:>9} {:>10} {:>12} {:>12} {:>12} {:>12} {:>7.2}",
        match op {
            OpKind::TallSkinny => "TallSkinny",
            OpKind::Square | OpKind::LxU => "AxA",
        },
        if order.is_sorted() {
            "sorted"
        } else {
            "unsorted"
        },
        winner.name(),
        paper.name(),
        recommend_real(op, cr, order).name(),
        auto.name(),
        auto_secs / best,
    );
}

fn table(args: &BenchArgs, run: &Run<'_>, scale: u32) {
    println!("# table04b analogue: synthetic scenarios at scale {scale}; winner on this machine vs paper recipe vs Auto's footprint rule");
    println!(
        "{:<12} {:>8} {:>9} {:>10} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "op", "pattern", "sparsity", "order", "measured", "paper", "4a", "auto", "auto/best"
    );
    for kind in [RmatKind::Er, RmatKind::G500] {
        let pattern = if kind == RmatKind::Er {
            recipe::Pattern::Uniform
        } else {
            recipe::Pattern::Skewed
        };
        for ef in [4usize, 16] {
            let a = rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(args.seed));
            let (ua, ub) = panels::unsorted_twin(&a, &a, &mut spgemm_gen::rng(args.seed ^ 1));
            for (order, m, b) in [
                (OutputOrder::Sorted, &a, &a),
                (OutputOrder::Unsorted, &ua, &ub),
            ] {
                let paper = recommend_synthetic(OpKind::Square, pattern, ef as f64, order);
                table_row(
                    run,
                    OpKind::Square,
                    if pattern == recipe::Pattern::Uniform {
                        "uniform"
                    } else {
                        "skewed"
                    },
                    if ef <= 8 { "sparse" } else { "dense" },
                    m,
                    b,
                    order,
                    paper,
                );
            }
        }
    }

    // tall-skinny rows of Table 4b (paper measured the skewed column)
    let g = rmat::generate_kind(RmatKind::G500, scale, 16, &mut spgemm_gen::rng(args.seed));
    let ts = tallskinny::tall_skinny(&g, 1 << (scale / 2), &mut spgemm_gen::rng(args.seed ^ 2))
        .expect("tall-skinny");
    let (ug, uts) = panels::unsorted_twin(&g, &ts, &mut spgemm_gen::rng(args.seed ^ 1));
    for (order, a, b) in [
        (OutputOrder::Sorted, &g, &ts),
        (OutputOrder::Unsorted, &ug, &uts),
    ] {
        let op = OpKind::TallSkinny;
        let paper = recommend_synthetic(op, recipe::Pattern::Skewed, 16.0, order);
        table_row(run, op, "skewed", "dense", a, b, order, paper);
    }
    println!("# paper: Table 4b's KNL recipe; 4a: Table 4a's pick at the cell's measured compression ratio; measured: this machine, one-shot; auto: cost::select at this machine's L2 share, its time over the winner's");
}

/// Minimum seconds of `reps` numeric passes of a reused plan.
fn steady_min(
    a: &Csr<f64>,
    b: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
    reps: usize,
) -> Option<f64> {
    let plan = SpgemmPlan::<P>::new_in(a, b, algo, order, pool).ok()?;
    let mut c = plan.execute_in(a, b, pool).ok()?;
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            plan.execute_into_in(a, b, &mut c, pool)
                .expect("a bound plan executes");
            t.elapsed().as_secs_f64()
        })
        .min_by(f64::total_cmp)
}

fn sweep(args: &BenchArgs, pool: &Pool, lo: u32, hi: u32) {
    let ef = args.ef_or(8);
    println!(
        "# crossover sweep: A*A at edge factor {ef}, reused plans, min of {} numeric passes, ms",
        args.reps()
    );
    println!(
        "{:<5} {:>5} {:>9} {:>10} {:>9} {:>5} {:>9} {:>9} {:>9} {:>6} {:>7}",
        "kind",
        "scale",
        "order",
        "spa_KiB",
        "l2_KiB",
        "coll",
        "spa",
        "hash",
        "heap",
        "auto",
        "auto/best"
    );
    for scale in lo..=hi {
        for kind in [RmatKind::Er, RmatKind::G500] {
            let a = rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(args.seed));
            let (ua, ub) = panels::unsorted_twin(&a, &a, &mut spgemm_gen::rng(args.seed ^ 1));
            for (order, m, b) in [
                (OutputOrder::Sorted, &a, &a),
                (OutputOrder::Unsorted, &ua, &ub),
            ] {
                let ms = |algo| steady_min(m, b, algo, order, pool, args.reps()).map(|s| s * 1e3);
                let (spa, hash, heap) =
                    (ms(Algorithm::Spa), ms(Algorithm::Hash), ms(Algorithm::Heap));
                let auto = recipe::static_select(&recipe::auto_context(m, b, order));
                let auto_ms = match auto {
                    Algorithm::Spa => spa,
                    Algorithm::Heap => heap,
                    _ => hash,
                };
                let best = [spa, hash, heap]
                    .into_iter()
                    .flatten()
                    .min_by(f64::total_cmp);
                let cell = |t: Option<f64>| t.map_or("-".to_owned(), |t| format!("{t:.2}"));
                println!(
                    "{:<5} {scale:>5} {:>9} {:>10} {:>9} {:>5.2} {:>9} {:>9} {:>9} {:>6} {:>7.2}",
                    if kind == RmatKind::Er { "er" } else { "g500" },
                    if order.is_sorted() {
                        "sorted"
                    } else {
                        "unsorted"
                    },
                    cost::spa_footprint_bytes(m.ncols(), 8) >> 10,
                    cost::l2_share_bytes() >> 10,
                    measure_collision_factor::<P>(m, b),
                    cell(spa),
                    cell(hash),
                    cell(heap),
                    auto.name(),
                    auto_ms.zip(best).map_or(f64::NAN, |(a, b)| a / b),
                );
            }
        }
    }
}

fn main() {
    let mut sweep_range = None;
    let args = BenchArgs::parse_with("--sweep LO..HI", |flag, take| {
        flag == "--sweep" && {
            let v = take();
            let parsed = v
                .split_once("..")
                .and_then(|(lo, hi)| Some((lo.parse::<u32>().ok()?, hi.parse::<u32>().ok()?)));
            let Some(range) = parsed.filter(|(lo, hi)| lo <= hi) else {
                eprintln!("--sweep takes LO..HI (R-MAT scales, inclusive)");
                std::process::exit(2);
            };
            sweep_range = Some(range);
            true
        }
    });
    let smoke = args.smoke;
    let pool = args.pool();
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(pool.nthreads())
    );
    match sweep_range {
        Some((lo, hi)) if !smoke => sweep(&args, &pool, lo, hi),
        _ => {
            let run = Run {
                pool: &pool,
                reps: if smoke { 1 } else { args.reps() },
                smoke,
            };
            table(&args, &run, if smoke { 8 } else { args.scale_or(12) })
        }
    }
    if smoke {
        println!("smoke OK: every Auto pick admissible and equal to Reference");
    }
}
