//! `spgemm-dist` — sharded vs monolithic SpGEMM: shard-count ×
//! partition-shape sweep over R-MAT / Poisson / block-diagonal
//! inputs, reporting steady-state speedup and peak per-shard held
//! memory against the monolithic kernel.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin spgemm-dist -- \
//!     [--grids 1x1,2x1,4x1,2x2] [--threads-per-shard N] [--scale N] \
//!     [--ef N] [--reps N] [--seed N] [--quick]
//!     [--smoke]   # CI assertion run: sharded == monolithic Hash bit for
//!                 # bit, one plan hit per shard per repeat, 2x1 and
//!                 # 2x2 per-shard bytes < monolithic output footprint
//! ```
//!
//! The **monolithic baseline** plans under the shards' own kernel
//! policy, `DistConfig::default().algo` (`Auto`: the dense accumulator
//! wherever `B`'s width fits the L2 share), so `mono_ms` / `speedup`
//! compare like with like; the bit-identity oracle is a monolithic
//! `Hash` product.
//!
//! The **monolithic footprint** is accounted as the bytes of the
//! product's output arrays (`rpts`/`cols`/`vals`) — the storage the
//! single-node kernel must hold in one memory domain while building
//! `C`, and a deliberate *lower bound* (per-thread accumulators come
//! on top). Per-shard held memory counts what a shard holds beyond
//! its operand blocks: its window of `C`, plus its local block on
//! multi-column grids. On a 1-CPU container shard threads time-slice,
//! so the speedup column mostly shows overhead; the memory columns
//! are the point — each shard's share stays a grid-factor below the
//! monolithic footprint.

use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_bench::args::{self, BenchArgs};
use spgemm_dist::{csr_bytes, DistConfig, GridSpec, ShardRuntime};
use spgemm_membench::median_millis;
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, Csr, PlusTimes};
use std::time::Instant;

type P = PlusTimes<f64>;

/// The bench inputs: one high-skew graph, one regular stencil, one
/// shard-hostile block-diagonal (see `gen::suite::BlockSkew`).
fn inputs(scale: u32, ef: usize, seed: u64) -> Vec<(&'static str, Csr<f64>)> {
    let mut r = spgemm_gen::rng(seed);
    let n = 1usize << scale;
    vec![
        (
            "rmat-g500",
            spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, scale, ef, &mut r),
        ),
        (
            "poisson2d",
            spgemm_gen::poisson::poisson2d((n as f64).sqrt() as usize),
        ),
        (
            "blockdiag-skew",
            spgemm_gen::suite::block_diagonal(
                n,
                8,
                ef,
                spgemm_gen::suite::BlockSkew::HeadHeavy,
                &mut r,
            ),
        ),
    ]
}

struct MonoBaseline {
    steady_ms: f64,
    /// Output-array bytes: the single-domain allocation the monolithic
    /// kernel cannot avoid (a lower bound on its true footprint).
    footprint_bytes: u64,
}

/// Monolithic baseline: plan once under the shards' kernel policy,
/// execute `reps` times on `pool`.
fn monolithic(a: &Csr<f64>, pool: &Pool, reps: usize) -> MonoBaseline {
    let algo = DistConfig::default().algo;
    let plan =
        SpgemmPlan::<P>::new_in(a, a, algo, OutputOrder::Sorted, pool).expect("monolithic plan");
    let mut c = plan.execute_in(a, a, pool).expect("monolithic execute");
    let steady_ms = median_millis(reps, || {
        plan.execute_into_in(a, a, &mut c, pool)
            .expect("monolithic steady execute");
    });
    let footprint_bytes = csr_bytes(&c);
    MonoBaseline {
        steady_ms,
        footprint_bytes,
    }
}

/// The product every sharded one must equal bit for bit.
fn mono_hash(a: &Csr<f64>, pool: &Pool) -> Csr<f64> {
    spgemm::multiply_in::<P>(a, a, Algorithm::Hash, OutputOrder::Sorted, pool)
        .expect("monolithic Hash")
}

fn main() {
    let mut grids = Vec::new();
    let mut threads_per_shard = 1;
    let args = BenchArgs::parse_with("--grids LIST --threads-per-shard N", |flag, take| {
        match flag {
            "--grids" => {
                grids = take()
                    .split(',')
                    .map(|s| {
                        GridSpec::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!("bad grid {s:?} (expected RxC, e.g. 2x2)");
                            std::process::exit(2);
                        })
                    })
                    .collect()
            }
            "--threads-per-shard" => threads_per_shard = args::parse(&take(), flag),
            _ => return false,
        }
        true
    });
    if grids.is_empty() {
        grids = ["1x1", "2x1", "4x1", "2x2"]
            .iter()
            .map(|s| GridSpec::parse(s).expect("static grids parse"))
            .collect();
    }
    let scale = args
        .scale
        .unwrap_or(if args.quick || args.smoke { 8 } else { 11 });
    let ef = args.ef_or(8);
    let reps = if args.quick {
        args.reps().min(2)
    } else {
        args.reps()
    };
    let pool = args.pool();
    if args.smoke {
        smoke(scale, ef, args.seed, &pool);
        return;
    }
    println!(
        "# spgemm-dist: scale {} ef {} reps {} threads/shard {}",
        scale, ef, reps, threads_per_shard
    );
    println!(
        "{:<16} {:<6} {:>10} {:>10} {:>8} {:>14} {:>14} {:>7}",
        "matrix",
        "grid",
        "mono_ms",
        "dist_ms",
        "speedup",
        "mono_foot_KiB",
        "peak_shard_KiB",
        "ratio"
    );
    for (name, a) in inputs(scale, ef, args.seed) {
        let want = mono_hash(&a, &pool);
        for &grid in &grids {
            // A pool as wide as the whole shard fleet: fair total
            // parallelism.
            let fleet_wide = Pool::new(grid.shards() * threads_per_shard);
            let mono = monolithic(&a, &fleet_wide, reps);
            let rt = ShardRuntime::new(DistConfig {
                grid,
                threads_per_shard,
                ..DistConfig::default()
            });
            // Warm the shards' plans, check the result once.
            let (c, _) = rt.multiply_with_stats(&a, &a).expect("sharded product");
            assert!(
                bits_eq_f64(&c, &want),
                "{name} {grid}: sharded result diverged from monolithic Hash"
            );
            let mut last_peak = 0u64;
            let dist_ms = median_millis(reps, || {
                let (_, s) = rt.multiply_with_stats(&a, &a).expect("steady product");
                last_peak = s.max_peak_partial_bytes();
            });
            println!(
                "{:<16} {:<6} {:>10.2} {:>10.2} {:>8.2} {:>14.1} {:>14.1} {:>7.2}",
                name,
                grid.to_string(),
                mono.steady_ms,
                dist_ms,
                mono.steady_ms / dist_ms,
                mono.footprint_bytes as f64 / 1024.0,
                last_peak as f64 / 1024.0,
                last_peak as f64 / mono.footprint_bytes.max(1) as f64,
            );
        }
    }
}

/// CI smoke: a small R-MAT product on every grid must equal the
/// monolithic `Hash` product bit for bit, steady-state re-execution must be
/// one plan hit per shard and nothing else, and on the 2×1 and 2×2
/// grids every shard must hold less than the monolithic output
/// footprint. The monolithic products run on `pool` (`--threads`),
/// whose width the stamp records.
fn smoke(scale: u32, ef: usize, seed: u64, pool: &Pool) {
    let a = spgemm_gen::rmat::generate_kind(
        spgemm_gen::RmatKind::G500,
        scale,
        ef,
        &mut spgemm_gen::rng(seed),
    );
    let (want, mono) = (mono_hash(&a, pool), monolithic(&a, pool, 1));
    for grid in [
        GridSpec::new(1, 1),
        GridSpec::new(2, 1),
        GridSpec::new(2, 2),
    ] {
        let rt = ShardRuntime::new(DistConfig {
            grid,
            ..DistConfig::default()
        });
        let (c1, s1) = rt.multiply_with_stats(&a, &a).expect("sharded product");
        assert!(
            bits_eq_f64(&c1, &want),
            "{grid}: sharded != monolithic Hash"
        );
        let (c2, s2) = rt.multiply_with_stats(&a, &a).expect("steady product");
        assert!(bits_eq_f64(&c2, &want), "{grid}: steady run diverged");
        assert_eq!(
            s2.plan_rebuilds, s1.plan_rebuilds,
            "{grid}: steady-state re-execution recomputed symbolic work"
        );
        assert_eq!(
            s2.plan_hits - s1.plan_hits,
            grid.shards() as u64,
            "{grid}: every shard should hit its one plan"
        );
        if grid.shards() > 1 {
            let peak = s2.max_peak_partial_bytes();
            assert!(
                peak < mono.footprint_bytes,
                "{grid} peak shard bytes {peak} B not below monolithic footprint {} B",
                mono.footprint_bytes
            );
            println!(
                "smoke {grid}: peak shard bytes {:.1} KiB < monolithic footprint {:.1} KiB ({:.2}x)",
                peak as f64 / 1024.0,
                mono.footprint_bytes as f64 / 1024.0,
                peak as f64 / mono.footprint_bytes as f64
            );
        }
    }
    // Steady-state timing of the last (2×2) grid for the trajectory
    // stamp: one warm re-execution, plans already bound.
    let rt = ShardRuntime::new(DistConfig {
        grid: GridSpec::new(2, 2),
        ..DistConfig::default()
    });
    let _ = rt.multiply_with_stats(&a, &a).expect("warm product");
    let t = Instant::now();
    let (_, stats) = rt.multiply_with_stats(&a, &a).expect("timed product");
    let dist_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut stamp = spgemm_bench::perfjson::PerfReport::new("dist", pool.nthreads());
    stamp
        .metric("mono_steady_ms", mono.steady_ms)
        .metric("dist_2x2_steady_ms", dist_ms)
        .metric(
            "peak_shard_partial_bytes",
            stats.max_peak_partial_bytes() as f64,
        )
        .metric("mono_footprint_bytes", mono.footprint_bytes as f64);
    match stamp.write() {
        Ok(path) => println!("perf stamp: {}", path.display()),
        Err(e) => eprintln!("could not write perf stamp: {e}"),
    }
    println!(
        "smoke ok: sharded product is bit-identical to monolithic Hash on 1x1, 2x1, 2x2; \
         steady state is one plan hit per shard"
    );
}
