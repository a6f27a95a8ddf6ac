//! Figure 9: Heap SpGEMM performance vs input scale under five
//! scheduling / memory-management configurations (§5.3.1).
//!
//! Paper series on G500, edge factor 16: static, dynamic, guided,
//! balanced-single, balanced-parallel. "Balanced parallel" (the §4.1
//! partition + §3.2 thread-private staging) should dominate, with
//! plain static suffering load imbalance on the skewed G500 rows and
//! balanced-single losing at large scales to master-side
//! (de)allocation.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin fig09_sched_spgemm [--scale N] [--ef N] [--reps N]
//! ```

use spgemm::algos::heap::HeapKernel;
use spgemm_bench::args::BenchArgs;
use spgemm_bench::tuning::{one_phase, MemScheme, RowSchedule};
use spgemm_gen::{rmat, RmatKind};
use spgemm_membench::median_millis;
use spgemm_sparse::{stats, PlusTimes};

type P = PlusTimes<f64>;

fn main() {
    let args = BenchArgs::parse();
    let pool = args.pool();
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(pool.nthreads())
    );
    let ef = args.ef_or(16);
    let max_scale = args.scale_or(13); // paper sweeps 6..18
    println!("# fig09: Heap SpGEMM (G500, EF {ef}) under scheduling variants, MFLOPS");
    println!("variant\tscale\tmflops");

    use {MemScheme::*, RowSchedule::*};
    let variants = [
        (Static, Parallel),
        (Dynamic, Parallel),
        (Guided, Parallel),
        (FlopBalanced, Single),
        (FlopBalanced, Parallel),
    ];

    for scale in 6..=max_scale {
        let a = rmat::generate_kind(RmatKind::G500, scale, ef, &mut spgemm_gen::rng(args.seed));
        let flop = stats::flop(&a, &a);
        for (sched, mem) in variants {
            let name = match sched {
                FlopBalanced => format!("{} {}", sched.name(), mem.name()),
                _ => sched.name().to_owned(),
            };
            let run = || {
                std::hint::black_box(
                    one_phase::<P, HeapKernel<P>>(&a, &a, &pool, sched, mem)
                        .expect("A*A of a sorted square"),
                );
            };
            run(); // warm-up
            let ms = median_millis(args.reps(), run);
            println!("{name}\t{scale}\t{:.1}", 2.0 * flop as f64 / ms / 1e3);
        }
    }
}
