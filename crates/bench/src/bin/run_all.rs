//! Run every figure/table binary in sequence (the full evaluation),
//! forwarding common flags. Useful for regenerating the complete
//! paper evaluation in one command:
//!
//! ```text
//! cargo build --release -p spgemm-bench
//! cargo run --release -p spgemm-bench --bin run_all -- --quick
//! ```

use std::process::Command;

/// Each entry is a binary and the arguments that go before the
/// forwarded flags.
const BINARIES: &[&str] = &[
    "fig02_sched_cost",
    "fig04_dealloc_cost",
    "fig04b_plan_reuse",
    "fig05_stanza_bandwidth",
    "fig09_sched_spgemm",
    "fig10_mcdram_model",
    "figs all",
    "table02_matrix_stats",
    "table04_recipe",
    "spgemm-dist",
    "spgemm-expr",
    "spgemm-obs",
    "spgemm-delta",
    "spgemm-kgen",
];

fn main() {
    let forward: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("binary directory");
    let mut failed = Vec::new();
    for entry in BINARIES {
        let mut words = entry.split_whitespace();
        let bin = words.next().expect("a binary name");
        let path = dir.join(bin);
        if !path.exists() {
            eprintln!("== {bin}: not built (run `cargo build --release -p spgemm-bench` first)");
            failed.push(*entry);
            continue;
        }
        println!("\n================= {entry} =================");
        let status = Command::new(&path).args(words).args(&forward).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("== {entry} exited with {s}");
                failed.push(*entry);
            }
            Err(e) => {
                eprintln!("== {entry} failed to launch: {e}");
                failed.push(*entry);
            }
        }
    }
    if failed.is_empty() {
        println!("\nall {} experiments completed", BINARIES.len());
    } else {
        eprintln!("\nfailed: {failed:?}");
        std::process::exit(1);
    }
}
