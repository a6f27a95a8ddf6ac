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

use spgemm_bench::json;
use spgemm_bench::perfjson;
use spgemm_bench::regress::{compare, render, RegressConfig};
use std::path::PathBuf;

struct Args {
    baseline: PathBuf,
    current: Option<PathBuf>,
    cfg: RegressConfig,
}

fn parse_args() -> Args {
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut cfg = RegressConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        let tol = |s: String, what: &str| -> f64 {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad {what} tolerance {s:?}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(take("--baseline").into()),
            "--current" => current = Some(take("--current").into()),
            "--warn" => cfg.warn = tol(take("--warn"), "--warn"),
            "--fail" => cfg.fail = tol(take("--fail"), "--fail"),
            "--help" | "-h" => {
                eprintln!("flags: --baseline PATH [--current PATH] [--warn F] [--fail F]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let baseline = baseline.unwrap_or_else(|| {
        eprintln!("--baseline PATH is required");
        std::process::exit(2);
    });
    Args {
        baseline,
        current,
        cfg,
    }
}

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
    let args = parse_args();
    // Default current stamp: the baseline's file name in the bench
    // output directory (where the smoke run just wrote it).
    let current_path = args.current.clone().unwrap_or_else(|| {
        let dir = std::env::var(perfjson::DIR_ENV).unwrap_or_else(|_| ".".to_string());
        let name = args
            .baseline
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| {
                eprintln!("--baseline has no file name; pass --current");
                std::process::exit(2);
            });
        PathBuf::from(dir).join(name)
    });
    let baseline = load(&args.baseline);
    let current = load(&current_path);
    let report = match compare(&baseline, &current, args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("regress: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "spgemm-regress: {} vs {}",
        args.baseline.display(),
        current_path.display()
    );
    print!("{}", render(&report, args.cfg));
    if report.failures() > 0 {
        std::process::exit(1);
    }
}
