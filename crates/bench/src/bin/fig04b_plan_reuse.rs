//! Figure 4 companion: what plan + workspace reuse buys on *repeated*
//! products — the MCL/AMG/BFS iteration pattern the paper's Figure 4
//! allocation-cost measurement motivates.
//!
//! For each kernel and output order, one R-MAT product is multiplied
//! `iters` times through one `SpgemmPlan`, next to the one-shot
//! product `runner::time_multiply` times (symbolic + numeric + fresh
//! accumulators + fresh output every time; for Heap the paper's
//! one-phase product, which stages rows instead of running the
//! symbolic pass):
//!
//! * **bind** — `SpgemmPlan::new_in`: the analysis and the symbolic
//!   pass, which every plan runs, Heap's too (only the one-phase
//!   one-shot skips it);
//! * **exec #1** — the first `execute_into_in`: sizes the output. A
//!   dense-kernel plan (`spa`, and `auto` wherever it resolves to it)
//!   already replays here the column pattern its bind's symbolic pass
//!   wrote;
//! * **exec #2** — numeric-only into the sized output;
//! * **steady** — the median of the executions after those: a replay
//!   of the pattern for the dense kernel (sorted costs what unsorted
//!   does), the stamped numeric pass for everyone else;
//! * **fresh** — the same steady state through `execute_in`, which
//!   allocates its output (Figure 4's cost, isolated). The dense
//!   kernel's exec #1 is printed beside it again below the table: both
//!   replay into a fresh output.
//!
//! Every execution's output is compared with the first one's, bit for
//! bit; `--smoke` (CI: scale 9, fails on a mismatch, never on a
//! timing) also writes the `BENCH_plan_reuse.json` stamp.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin fig04b_plan_reuse \
//!     [--threads N] [--scale N] [--ef N] [--reps N] [--quick] [--smoke]
//! ```

use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_bench::args::BenchArgs;
use spgemm_bench::perfjson::PerfReport;
use spgemm_bench::runner::time_multiply;
use spgemm_gen::{rmat, RmatKind};
use spgemm_membench::median_of;
use spgemm_sparse::{bits_eq_f64, Csr, PlusTimes};
use std::time::Instant;

type P = PlusTimes<f64>;

/// Milliseconds `f` took.
fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let mut args = BenchArgs::parse();
    args.quick |= args.smoke;
    let pool = args.pool();
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(pool.nthreads())
    );
    let scale = args.scale_or(13);
    let ef = args.ef_or(8);
    let iters = args.reps() * 10;
    let mut rng = spgemm_gen::rng(args.seed);
    let a = rmat::generate_kind(RmatKind::G500, scale, ef, &mut rng);
    println!(
        "# fig04b: repeated A*A (G500 scale {scale}, ef {ef}, nnz {}), {iters} steady iterations",
        a.nnz()
    );
    println!("# milliseconds; speedup = one-shot / steady");
    println!("algo\torder\toneshot_ms\tbind_ms\texec1_ms\texec2_ms\tsteady_ms\tfresh_ms\tspeedup");

    let mut stamp = PerfReport::new("plan_reuse", pool.nthreads());
    let mut drifted = Vec::new();
    let mut dense_first = Vec::new();
    for algo in [
        Algorithm::Hash,
        Algorithm::HashVec,
        Algorithm::Heap,
        Algorithm::Spa,
        Algorithm::KkHash,
        Algorithm::Auto,
    ] {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let oneshot = time_multiply(&a, &a, algo, order, &pool, iters.min(10))
                .expect("A*A of a sorted square")
                .secs
                * 1e3;

            let started = Instant::now();
            let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).expect("plan");
            let bind = started.elapsed().as_secs_f64() * 1e3;
            let mut c = Csr::<f64>::zero(0, 0);
            let run = |c: &mut Csr<f64>| {
                ms(|| {
                    plan.execute_into_in(&a, &a, c, &pool)
                        .expect("execute_into")
                })
            };
            let exec1 = run(&mut c);
            let first = c.clone();
            let mut same = true;
            let exec2 = run(&mut c);
            same &= bits_eq_f64(&c, &first);
            let steady = median_of(iters, || {
                let t = run(&mut c);
                same &= bits_eq_f64(&c, &first);
                t
            });
            let fresh = median_of(iters, || {
                let mut out = None;
                let t = ms(|| out = plan.execute_in(&a, &a, &pool).ok());
                same &= out.is_some_and(|out| bits_eq_f64(&out, &first));
                t
            });

            let tag = if order.is_sorted() {
                "sorted"
            } else {
                "unsorted"
            };
            if !same {
                drifted.push(format!("{} {tag}", algo.name()));
            }
            if plan.algorithm() == Algorithm::Spa {
                dense_first.push(format!("{} {tag} {exec1:.3} / {fresh:.3}", algo.name()));
            }
            println!(
                "{}\t{tag}\t{oneshot:.3}\t{bind:.3}\t{exec1:.3}\t{exec2:.3}\t{steady:.3}\t{fresh:.3}\t{:.2}x",
                algo.name(),
                oneshot / steady
            );
            let phases = [
                ("bind", bind),
                ("exec1", exec1),
                ("exec2", exec2),
                ("steady", steady),
            ];
            for (what, t) in phases {
                let kernel = algo.name().to_lowercase();
                stamp.metric(&format!("{kernel}_{tag}_{what}_ms"), t);
            }
        }
    }
    println!(
        "# a plan amortizes the symbolic phase, accumulator and output allocation; \
         from its first execution the dense kernel's plan also replays the column pattern \
         its bind wrote"
    );
    println!(
        "# dense kernel, exec #1 / fresh (ms): {}",
        dense_first.join(", ")
    );
    println!(
        "(every execution's output was compared bit for bit with its plan's first: {})",
        if drifted.is_empty() {
            "all equal".to_owned()
        } else {
            format!("DIVERGED on {}", drifted.join(", "))
        }
    );
    if args.smoke {
        assert!(
            drifted.is_empty(),
            "a reused plan's executions must be bit-identical: {drifted:?}"
        );
        match stamp.write() {
            Ok(path) => println!("perf stamp: {}", path.display()),
            Err(e) => eprintln!("could not write perf stamp: {e}"),
        }
        println!("smoke OK: every execution of every plan equals its first");
    }
}
