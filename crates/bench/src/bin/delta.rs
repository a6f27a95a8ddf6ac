//! `spgemm-delta` — incremental (delta-aware) plan maintenance vs
//! full rebinds on a dynamic-graph edit stream.
//!
//! The workload models a dynamic graph: an R-MAT base matrix takes a
//! stream of edit batches, each touching ~1% of its rows (alternating
//! between the left and right operand). Two maintainers race:
//!
//! * **incremental** — `Csr::apply_patch` →
//!   `SpgemmPlan::rebind_rows_in` (symbolic re-run for invalidated
//!   output rows only, row-pointer splice) → `SpgemmPlan::execute_rows_in`
//!   (numeric recompute of those rows, byte-copy of the rest);
//! * **full** — a fresh `SpgemmPlan::new_in` + `execute_in` per batch, the
//!   static-structure baseline.
//!
//! Reported: ms/batch for both maintainers, the speedup, and the mean
//! fraction of output rows the incremental path actually recomputed.
//! Every batch's incremental product is checked **byte-for-byte**
//! against the freshly built one — the differential-oracle contract
//! the `tests/` harness enforces, re-asserted here on bench-sized
//! inputs.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin spgemm-delta -- \
//!     [--scale N] [--ef N] [--reps N] [--seed N] [--quick]
//!     [--smoke]   # CI assertion run: incremental == full rebuild
//!                 # byte-for-byte and < 20% rows recomputed per batch
//! ```

use spgemm::{Algorithm, DirtyRows, OutputOrder, RowPatch, SpgemmPlan};
use spgemm_bench::args::BenchArgs;
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, PlusTimes};
use std::time::Instant;

type P = PlusTimes<f64>;
type Plan = SpgemmPlan<P>;

/// Deterministic edit batch `step`, touching `k` distinct rows with
/// one upsert each (a dynamic-graph tick: edge weight changes and new
/// edges, ~1% of rows per batch).
fn batch_patch(step: usize, k: usize, n: usize) -> RowPatch<f64> {
    let mut patch = RowPatch::new();
    for e in 0..k {
        // Stride by a unit coprime to n so the k rows are distinct.
        let row = (step * 131 + e * 97) % n;
        let col = ((step + 1) * 53 + e * 41) % n;
        patch.insert(row, col as u32, 0.5 + (step * k + e) as f64 * 1e-3);
    }
    patch
}

struct Totals {
    inc_ms: f64,
    full_ms: f64,
    recomputed: u64,
    rows_seen: u64,
    bytes_ok: bool,
}

fn run_stream(scale: u32, ef: usize, batches: usize, seed: u64, pool: &Pool) -> Totals {
    let mut rng = spgemm_gen::rng(seed);
    let mut a = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, scale, ef, &mut rng);
    let mut b = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, scale, ef, &mut rng);
    let n = a.nrows();
    let edits = (n / 100).max(1); // ~1% of rows per batch
    let mut plan = Plan::new_in(&a, &b, Algorithm::Hash, OutputOrder::Sorted, pool).expect("plan");
    let mut c = plan.execute_in(&a, &b, pool).expect("execute");

    let mut t = Totals {
        inc_ms: 0.0,
        full_ms: 0.0,
        recomputed: 0,
        rows_seen: 0,
        bytes_ok: true,
    };
    for step in 0..batches {
        let patch = batch_patch(step, edits, n);
        let on_a = step % 2 == 0;

        let start = Instant::now();
        let (dirty_a, dirty_b);
        if on_a {
            let (next, dirty) = a.apply_patch(&patch).expect("patch a");
            a = next;
            dirty_a = dirty;
            dirty_b = DirtyRows::new(b.nrows());
        } else {
            let (next, dirty) = b.apply_patch(&patch).expect("patch b");
            b = next;
            dirty_b = dirty;
            dirty_a = DirtyRows::new(a.nrows());
        }
        let out = plan
            .rebind_rows_in(&a, &b, &dirty_a, &dirty_b, pool)
            .expect("rebind_rows");
        plan.execute_rows_in(&a, &b, &out, &mut c, pool)
            .expect("execute_rows");
        t.inc_ms += start.elapsed().as_secs_f64() * 1e3;
        t.recomputed += out.count() as u64;
        t.rows_seen += n as u64;

        let start = Instant::now();
        let fresh = Plan::new_in(&a, &b, Algorithm::Hash, OutputOrder::Sorted, pool)
            .expect("fresh plan")
            .execute_in(&a, &b, pool)
            .expect("fresh execute");
        t.full_ms += start.elapsed().as_secs_f64() * 1e3;

        t.bytes_ok &= bits_eq_f64(&c, &fresh);
        std::hint::black_box(&fresh);
    }
    t
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args
        .scale
        .unwrap_or(if args.quick || args.smoke { 9 } else { 12 });
    let ef = args.ef_or(8);
    let reps = args.reps_or(12);
    let batches = if args.quick { reps.min(4) } else { reps };
    let pool = &args.pool();
    let n = 1usize << scale;
    println!(
        "spgemm-delta: incremental plan maintenance vs full rebinds \
         (scale {} = {} rows, ef {}, {} batches of ~{} edits, {} threads)",
        scale,
        n,
        ef,
        batches,
        (n / 100).max(1),
        pool.nthreads()
    );
    let t = run_stream(scale, ef, batches, args.seed, pool);
    let reps = batches as f64;
    let frac = t.recomputed as f64 / t.rows_seen.max(1) as f64;
    println!(
        "{:<28} {:>12} {:>12} {:>9} {:>16}",
        "maintainer", "ms/batch", "ms total", "speedup", "rows recomputed"
    );
    println!(
        "{:<28} {:>12.3} {:>12.1} {:>9} {:>15.2}%",
        "incremental (rebind_rows)",
        t.inc_ms / reps,
        t.inc_ms,
        "",
        frac * 100.0
    );
    println!(
        "{:<28} {:>12.3} {:>12.1} {:>8.2}x {:>15.2}%",
        "full rebuild (new plan)",
        t.full_ms / reps,
        t.full_ms,
        t.full_ms / t.inc_ms.max(1e-9),
        100.0
    );
    println!(
        "\n(every batch's incremental product was compared byte-for-byte \
         against a fresh plan: {})",
        if t.bytes_ok { "all equal" } else { "DIVERGED" }
    );

    if args.smoke {
        assert!(
            t.bytes_ok,
            "incremental maintenance must match full rebuilds byte-for-byte"
        );
        assert!(
            frac < 0.20,
            "a ~1% edit stream must recompute < 20% of rows, got {:.1}%",
            frac * 100.0
        );
        assert!(
            t.inc_ms < t.full_ms,
            "incremental maintenance must beat full rebuilds on a 1% edit \
             stream ({:.1} ms vs {:.1} ms)",
            t.inc_ms,
            t.full_ms
        );
        let mut stamp = spgemm_bench::perfjson::PerfReport::new("delta", pool.nthreads());
        stamp
            .metric("incremental_batch_ms", t.inc_ms / reps)
            .metric("full_rebuild_batch_ms", t.full_ms / reps)
            .metric("rows_recomputed_frac", frac);
        match stamp.write() {
            Ok(path) => println!("perf stamp: {}", path.display()),
            Err(e) => eprintln!("could not write perf stamp: {e}"),
        }
        println!(
            "smoke OK: incremental == full rebuild on every batch, \
             {:.1}% rows recomputed, {:.2}x speedup",
            frac * 100.0,
            t.full_ms / t.inc_ms.max(1e-9)
        );
    }
}
