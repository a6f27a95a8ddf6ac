//! Figure 2: OpenMP-style scheduling cost vs iteration count.
//!
//! Paper series: {static, dynamic, guided} × {KNL, Haswell}. Here the
//! three policies run on this machine's pool; expect static ≪ dynamic
//! ≈ guided for small-work loops, converging as the loop grows.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin fig02_sched_cost [--threads N] [--reps N] [--quick]
//! ```

use spgemm_bench::args::BenchArgs;
use spgemm_membench::sched;

fn main() {
    let args = BenchArgs::parse();
    let pool = args.pool();
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(pool.nthreads())
    );
    println!(
        "# fig02: empty-loop scheduling cost (milliseconds, median of {} reps)",
        args.reps()
    );
    let (lo, hi) = if args.quick { (5, 10) } else { (5, 19) }; // paper: 2^5..2^19
    let series = sched::sweep(&pool, lo, hi, args.reps());
    println!("policy\titerations\tmillis");
    for (name, pts) in &series {
        for p in pts {
            println!("{name}\t{}\t{:.4}", p.iterations, p.millis);
        }
    }
    // the paper's headline comparison at the largest size
    let last = |name: &str| {
        series
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, pts)| pts.last())
            .map(|p| p.millis)
            .unwrap_or(f64::NAN)
    };
    println!(
        "# at 2^{hi} iterations: dynamic/static = {:.1}x, guided/static = {:.1}x",
        last("dynamic") / last("static"),
        last("guided") / last("static"),
    );
}
