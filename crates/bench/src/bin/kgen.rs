//! `spgemm-kgen` — row-class specialized kernels (`Algorithm::RowClass`)
//! vs the monolithic kernels on the Figure 11 generator grid.
//!
//! For each generator cell (ER / G500 × edge factor) the harness holds
//! a bound plan per algorithm and times the steady-state
//! `execute_into` — the regime RowClass is built for, where the
//! bucketed work queues and compressed column indices are amortized
//! across executions. The rival roster is the paper's Figure 11
//! comparison panel for the chosen output order
//! ([`spgemm_bench::panels::roster`] — the same rosters
//! `figs 11`–`13` plot): sorted output is
//! compared against MKL~Merge, Heap, Hash, and HashVector; unsorted
//! against MKL~SPA, MKL-inspector, Kokkos~KkHash, Hash, and
//! HashVector. Reported per cell: ms/iter for RowClass and every
//! rival, the speedup of RowClass over the *best* rival, and the
//! row-class bucket occupancy (tiny/short/medium/dense — see
//! `spgemm::kgen`).
//!
//! Every cell's RowClass output is compared **byte-for-byte** against
//! the hash kernel's under both output orders — the keystone parity
//! invariant, re-asserted on bench-sized inputs.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin spgemm-kgen -- \
//!     [--scale N] [--ef N] [--reps N] [--seed N] [--quick]
//!     [--smoke]   # CI assertion run: RowClass == Hash byte-for-byte
//!                 # on every cell; writes the BENCH_kgen.json stamp
//! ```

use spgemm::{kgen, Algorithm, OutputOrder, SpgemmPlan};
use spgemm_bench::{args::BenchArgs, panels};
use spgemm_gen::RmatKind;
use spgemm_sparse::{bits_eq_f64, Csr, PlusTimes};
use std::time::Instant;

type P = PlusTimes<f64>;
type Plan = SpgemmPlan<P>;

/// Steady-state ms/iter for one bound plan, plus its output (for the
/// parity check). Two warm-up executions size every pooled buffer so
/// the timed loop runs the allocation-free regime.
fn time_steady(
    a: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
    reps: usize,
    pool: &spgemm_par::Pool,
) -> (f64, Csr<f64>) {
    let plan = Plan::new_in(a, a, algo, order, pool).expect("plan");
    let mut c = Csr::<f64>::zero(0, 0);
    for _ in 0..2 {
        plan.execute_into_in(a, a, &mut c, pool).expect("warm-up");
    }
    let start = Instant::now();
    for _ in 0..reps {
        plan.execute_into_in(a, a, &mut c, pool).expect("execute");
    }
    (start.elapsed().as_secs_f64() * 1e3 / reps as f64, c)
}

struct CellResult {
    label: String,
    rc_ms: f64,
    /// ms/iter per rival, parallel to the panel roster.
    rival_ms: Vec<f64>,
    /// ms/iter of the Hash rival (the perf-stamp reference point).
    hash_ms: f64,
    speedup_vs_best_mono: f64,
    occupancy: [u64; 4],
    parity_ok: bool,
}

fn run_cell(
    kind: RmatKind,
    scale: u32,
    ef: usize,
    order: OutputOrder,
    reps: usize,
    seed: u64,
    pool: &spgemm_par::Pool,
) -> CellResult {
    let a = spgemm_gen::rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(seed));
    let label = format!(
        "{}{}",
        match kind {
            RmatKind::Er => "er",
            RmatKind::G500 => "g500",
        },
        ef
    );
    let occupancy = kgen::bucket_occupancy(&a, &a);

    let (rc_ms, rc_out) = time_steady(&a, Algorithm::RowClass, order, reps, pool);
    let mut rival_ms = Vec::new();
    let mut hash_ms = f64::NAN;
    let mut parity_ok = true;
    let mut best_mono = f64::INFINITY;
    for &algo in panels::roster(order) {
        let (m, out) = time_steady(&a, algo, order, reps, pool);
        rival_ms.push(m);
        best_mono = best_mono.min(m);
        if algo == Algorithm::Hash {
            hash_ms = m;
            parity_ok &= bits_eq_f64(&rc_out, &out);
        }
    }
    // parity must hold under the other order too (first-encounter
    // emission vs ascending), checked once per cell without timing
    // pressure
    let other = if order.is_sorted() {
        OutputOrder::Unsorted
    } else {
        OutputOrder::Sorted
    };
    let (_, rc_u) = time_steady(&a, Algorithm::RowClass, other, 1, pool);
    let (_, hash_u) = time_steady(&a, Algorithm::Hash, other, 1, pool);
    parity_ok &= bits_eq_f64(&rc_u, &hash_u);

    CellResult {
        label,
        rc_ms,
        rival_ms,
        hash_ms,
        speedup_vs_best_mono: best_mono / rc_ms.max(1e-9),
        occupancy,
        parity_ok,
    }
}

fn main() {
    let mut order = OutputOrder::Sorted;
    let args = BenchArgs::parse_with("--order sorted|unsorted", |flag, take| {
        flag == "--order" && {
            order = match take().as_str() {
                "sorted" => OutputOrder::Sorted,
                "unsorted" => OutputOrder::Unsorted,
                other => {
                    eprintln!("bad --order {other:?} (sorted|unsorted)");
                    std::process::exit(2);
                }
            };
            true
        }
    });
    let scale = args
        .scale
        .unwrap_or(if args.quick || args.smoke { 10 } else { 13 });
    let reps = if args.quick {
        args.reps_or(30).min(8)
    } else {
        args.reps_or(30)
    };
    let pool = &args.pool();
    println!(
        "spgemm-kgen: row-class specialized kernels vs monolithic kernels \
         (A·A steady state, scale {} = {} rows, {} reps/cell, {} threads)",
        scale,
        1usize << scale,
        reps,
        pool.nthreads()
    );

    let efs: &[usize] = match args.ef {
        Some(ef) => &[ef][..],
        None if args.smoke => &[4, 16],
        None => &[4, 8, 16],
    };
    let mut cells = Vec::new();
    for kind in [RmatKind::Er, RmatKind::G500] {
        for &ef in efs {
            cells.push(run_cell(kind, scale, ef, order, reps, args.seed, pool));
        }
    }

    let sorted = order.is_sorted();
    let mut header = format!("\n{:<8} {:>12}", "cell", "RowClass");
    for &algo in panels::roster(order) {
        header.push_str(&format!(" {:>13}", panels::label(algo)));
    }
    header.push_str(&format!(" {:>9}   {}", "speedup", "rows by class t/s/m/d"));
    println!("{header}");
    for c in &cells {
        let [t, s, m, d] = c.occupancy;
        let mut line = format!("{:<8} {:>12.3}", c.label, c.rc_ms);
        for ms in &c.rival_ms {
            line.push_str(&format!(" {ms:>13.3}"));
        }
        line.push_str(&format!(
            " {:>8.2}x   {t}/{s}/{m}/{d}",
            c.speedup_vs_best_mono
        ));
        println!("{line}");
    }
    let best = cells
        .iter()
        .map(|c| c.speedup_vs_best_mono)
        .fold(0.0f64, f64::max);
    let all_parity = cells.iter().all(|c| c.parity_ok);
    println!(
        "\nbest RowClass speedup over the best monolithic panel kernel: {best:.2}x \
         (ms/iter, {} output)",
        if sorted { "sorted" } else { "unsorted" }
    );
    println!(
        "(every cell's RowClass output was compared byte-for-byte against \
         Hash under both orders: {})",
        if all_parity { "all equal" } else { "DIVERGED" }
    );

    if args.smoke {
        assert!(
            all_parity,
            "RowClass must match the hash kernel byte-for-byte on every cell"
        );
        let mut stamp = spgemm_bench::perfjson::PerfReport::new("kgen", pool.nthreads());
        for c in &cells {
            stamp.metric(&format!("rowclass_{}_ms", c.label), c.rc_ms);
            stamp.metric(&format!("hash_{}_ms", c.label), c.hash_ms);
        }
        stamp.metric("best_speedup", best);
        match stamp.write() {
            Ok(path) => println!("perf stamp: {}", path.display()),
            Err(e) => eprintln!("could not write perf stamp: {e}"),
        }
        println!("smoke OK: RowClass == Hash on every cell, best speedup {best:.2}x");
    }
}
