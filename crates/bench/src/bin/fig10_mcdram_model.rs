//! Figure 10: predicted MCDRAM (Cache-mode) speedup vs edge factor.
//!
//! Paper series on G500 scale 15: Heap, Hash, HashVec, Hash
//! (unsorted), HashVec (unsorted); speedups between ~0.9× (Heap at
//! EF 64, where its working set overflows MCDRAM) and ~1.4×. With no
//! MCDRAM present, each kernel is *measured* on DDR here and its
//! Cache-mode time *predicted* by the memory model from the kernel's
//! analytic stanza profile (`spgemm_membench::memmodel`).
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin fig10_mcdram_model [--scale N] [--reps N]
//! ```

use spgemm::{Algorithm, OutputOrder};
use spgemm_bench::{args::BenchArgs, runner};
use spgemm_gen::{rmat, RmatKind};
use spgemm_membench::memmodel::{
    accumulator_profile, b_access_profile, AccessProfile, MemoryModel,
};
use spgemm_sparse::stats;

/// Cache capacity per thread used to judge accumulator residency
/// (L2-class, the paper's KNL has 1 MB per tile).
const CACHE_BYTES: usize = 1 << 20;

fn main() {
    let args = BenchArgs::parse();
    let pool = args.pool();
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(pool.nthreads())
    );
    let scale = args.scale_or(12); // paper: 15
    println!("# fig10: modeled Cache-mode speedup vs edge factor (G500 scale {scale})");
    println!("series\tedge_factor\tspeedup");
    // calibrate the DDR side of the model on this machine's measured
    // wide-stanza bandwidth so memory-time predictions are realistic
    let ddr_peak = spgemm_membench::stanza::stanza_bandwidth(
        &pool,
        1 << 26,
        1 << 14,
        1 << 26,
        spgemm_membench::stanza::Mode::Read,
    );
    let model = MemoryModel::default().with_measured_ddr(ddr_peak);
    println!("# calibrated DDR peak: {ddr_peak:.1} GB/s");

    let panels: [(&str, Algorithm, OutputOrder); 5] = [
        ("Heap", Algorithm::Heap, OutputOrder::Sorted),
        ("Hash", Algorithm::Hash, OutputOrder::Sorted),
        ("HashVec", Algorithm::HashVec, OutputOrder::Sorted),
        ("Hash (unsorted)", Algorithm::Hash, OutputOrder::Unsorted),
        (
            "HashVec (unsorted)",
            Algorithm::HashVec,
            OutputOrder::Unsorted,
        ),
    ];

    for ef_log in 2..=6 {
        // paper: edge factors 4..64
        let ef = 1usize << ef_log;
        if args.quick && ef > 16 {
            break;
        }
        let a = rmat::generate_kind(RmatKind::G500, scale, ef, &mut spgemm_gen::rng(args.seed));
        let flop = stats::flop(&a, &a);
        let rf = stats::row_flops(&a, &a);
        let max_row_flop = rf.iter().copied().max().unwrap_or(0) as usize;
        let b_profile = b_access_profile(&a, &a);
        for (name, algo, order) in panels {
            let m = match runner::time_multiply(&a, &a, algo, order, &pool, args.reps()) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("skipping {name} at EF {ef}: {e}");
                    continue;
                }
            };
            // accumulator working set per thread
            let working = match algo {
                // heap stages the whole output (one-phase): flop-bound
                Algorithm::Heap => flop as usize / pool.nthreads().max(1) * 12,
                // hash family: pow2 table over the largest row
                _ => max_row_flop.next_power_of_two() * 12,
            };
            let mut profile = AccessProfile::default();
            for b in &b_profile.buckets {
                profile.add(b.stanza_bytes, b.bytes);
            }
            for b in accumulator_profile(flop, working, CACHE_BYTES).buckets {
                profile.add(b.stanza_bytes, b.bytes);
            }
            let speedup = model.predict_speedup(m.secs, &profile);
            println!("{name}\t{ef}\t{speedup:.3}");
        }
    }
    println!("# speedups are model predictions; DDR times are measured on this machine");
}
