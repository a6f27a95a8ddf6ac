//! `spgemm-regress` — the bench perf-trajectory gate: compare a
//! fresh `BENCH_<name>.json` stamp against a committed baseline and
//! fail on step-function timing regressions.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin spgemm-regress -- \
//!     --baseline baselines/BENCH_obs.json \
//!     [--current BENCH_obs.json]   # default: ./BENCH_<basename>
//!     [--warn 0.5] [--fail 1.5]    # relative tolerances
//! ```
//!
//! Exit status: 0 when every timing is within the fail tolerance and
//! no baseline metric went missing (warnings print but do not fail);
//! 1 on regression; 2 on usage or file errors.

use spgemm_bench::args::{self, BenchArgs};
use spgemm_bench::json;
use spgemm_bench::perfjson;
use spgemm_bench::regress::{compare, render, RegressConfig};
use std::path::PathBuf;

fn load(path: &PathBuf) -> json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {}: {e}", path.display());
        std::process::exit(2);
    })
}

fn main() {
    let (mut baseline, mut current) = (None::<PathBuf>, None::<PathBuf>);
    let mut cfg = RegressConfig::default();
    BenchArgs::parse_with(
        "--baseline PATH [--current PATH] [--warn F] [--fail F]",
        |flag, take| {
            match flag {
                "--baseline" => baseline = Some(take().into()),
                "--current" => current = Some(take().into()),
                "--warn" => cfg.warn = args::parse(&take(), flag),
                "--fail" => cfg.fail = args::parse(&take(), flag),
                _ => return false,
            }
            true
        },
    );
    let baseline_path = baseline.unwrap_or_else(|| {
        eprintln!("--baseline PATH is required");
        std::process::exit(2);
    });
    // Default current stamp: the baseline's file name in the bench
    // output directory (where the smoke run just wrote it).
    let current_path = current.unwrap_or_else(|| {
        let dir = std::env::var(perfjson::DIR_ENV).unwrap_or_else(|_| ".".to_string());
        let name = baseline_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| {
                eprintln!("--baseline has no file name; pass --current");
                std::process::exit(2);
            });
        PathBuf::from(dir).join(name)
    });
    let baseline = load(&baseline_path);
    let current = load(&current_path);
    let report = match compare(&baseline, &current, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("regress: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "spgemm-regress: {} vs {}",
        baseline_path.display(),
        current_path.display()
    );
    print!("{}", render(&report, cfg));
    if report.failures() > 0 {
        std::process::exit(1);
    }
}
