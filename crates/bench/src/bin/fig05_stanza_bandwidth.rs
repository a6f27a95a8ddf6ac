//! Figure 5: random-stanza bandwidth, DDR measured vs MCDRAM-as-cache
//! modeled.
//!
//! The "DDR only" series is a real measurement on this machine; the
//! "MCDRAM as Cache" series applies the paper-calibrated two-level
//! model (`spgemm_membench::memmodel`) on top of the measured DDR
//! curve — reproducing the figure's shape: no benefit below ~64 B
//! stanzas, 3.4× at wide stanzas.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin fig05_stanza_bandwidth [--threads N] [--quick]
//! ```

use spgemm_bench::args::BenchArgs;
use spgemm_membench::{memmodel::MemoryModel, stanza};

fn main() {
    let args = BenchArgs::parse();
    let pool = args.pool();
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(pool.nthreads())
    );
    let (array, traffic, hi) = if args.quick {
        (1usize << 22, 1usize << 22, 10)
    } else {
        (1usize << 28, 1usize << 27, 14) // 256 MiB array; paper sweeps to 2^14 B
    };
    println!("# fig05: stanza bandwidth; array {} MiB", array >> 20);
    println!("series\tstanza_bytes\tgbytes_per_sec");
    let pts = stanza::sweep(&pool, array, traffic, 3, hi, stanza::Mode::Read);
    // calibrate the model's DDR peak on the widest measured stanza
    let peak = pts.last().map(|p| p.gbytes_per_sec).unwrap_or(10.0);
    let model = MemoryModel::default().with_measured_ddr(peak);
    for p in &pts {
        println!(
            "DDR-only(measured)\t{}\t{:.2}",
            p.stanza_bytes, p.gbytes_per_sec
        );
    }
    for p in &pts {
        // modeled curve = measured DDR point × paper ratio at that stanza
        let modeled = p.gbytes_per_sec * model.cache_mode_ratio(p.stanza_bytes as f64);
        println!(
            "MCDRAM-as-cache(modeled)\t{}\t{:.2}",
            p.stanza_bytes, modeled
        );
    }
    println!(
        "# model endpoints: ratio(64B) = {:.2}, ratio(8KiB) = {:.2} (paper: 1.0 / 3.4)",
        model.cache_mode_ratio(64.0),
        model.cache_mode_ratio(8192.0)
    );
}
