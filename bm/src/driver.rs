//! The multi-run modes. Each run is a child process of this same
//! binary (`current_exe`), so `peak_rss_mb` is per run and one run's
//! heap does not shape the next one's.

use crate::catalog::{self, Better, EndToEndDef};
use crate::{stats, RunCfg};
use std::process::Command;

/// One child run's end-to-end values, by metric name, and whether it
/// exited cleanly.
struct ChildRun {
    ok: bool,
    values: Vec<(String, f64)>,
}

/// Run `cfg` in a child and parse the `name value unit n=…` lines it
/// prints; `echo` forwards the child's output.
fn child(cfg: &RunCfg, echo: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.traced { "1" } else { "0" }]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end and collects its stdout;
    // stderr is inherited so op failures stay visible.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn bm child");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut values = Vec::new();
    for line in text.lines() {
        if echo && !line.starts_with('{') {
            println!("{} {line}", cfg.workload);
        }
        let mut words = line.split_whitespace();
        if let (Some(name), Some(value)) = (words.next(), words.next()) {
            if catalog::unit_of(name).is_some() {
                values.push((name.to_owned(), value.parse().unwrap_or(f64::NAN)));
            }
        }
    }
    ChildRun {
        ok: out.status.success(),
        values,
    }
}

/// `bm --all`: every workload once, one child each; prints every
/// metric by name with unit and sample count; `false` if any run
/// failed a correctness check.
pub fn all(cfg: &RunCfg) -> bool {
    let mut ok = true;
    for workload in catalog::workload_names() {
        let run = child(
            &RunCfg {
                workload: workload.to_owned(),
                ..cfg.clone()
            },
            true,
        );
        if !run.ok {
            println!("{workload} FAILED (ops failed or an output check mismatched)");
        }
        ok &= run.ok;
    }
    ok
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(def: &EndToEndDef, first: f64, second: f64) -> f64 {
    match def.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs per workload in one A/A set: the driver's procedure.
const AA_RUNS: usize = 10;

/// `bm --aa`: the driver's acceptance procedure on this one binary.
/// `sets` times: `AA_RUNS` runs per workload, each with another seed,
/// workloads interleaved. Per metric × workload the spread (distance
/// between the quartiles over the median, as Python's
/// `statistics.quantiles(n=4)` gives them) must stay within the
/// metric's bound — `setup_s` excepted — and no later set's median may
/// be worse than the first's by more than the bound.
pub fn aa(cfg: &RunCfg, sets: usize) -> bool {
    let workloads = catalog::workload_names();
    // values[set][workload][metric] = one value per run
    let mut values =
        vec![vec![vec![Vec::<f64>::new(); catalog::END_TO_END.len()]; workloads.len()]; sets];
    let mut ok = true;
    for (set, per_set) in values.iter_mut().enumerate() {
        for i in 0..AA_RUNS {
            for (w, workload) in workloads.iter().enumerate() {
                let run = child(
                    &RunCfg {
                        workload: (*workload).to_owned(),
                        seed: cfg.seed + i as u64,
                        ..cfg.clone()
                    },
                    false,
                );
                if !run.ok {
                    println!("set {set} run {i} {workload}: FAILED");
                    ok = false;
                }
                for (m, def) in catalog::END_TO_END.iter().enumerate() {
                    let v = run
                        .values
                        .iter()
                        .find(|(n, _)| n == def.name)
                        .map_or(f64::NAN, |(_, v)| *v);
                    per_set[w][m].push(v);
                }
                println!("# set {set} run {i} {workload} done");
            }
        }
    }
    println!(
        "workload metric bound | per set: median spread | worst median shift vs set 0 | verdict"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for (m, def) in catalog::END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| stats::median(&set[w][m])).collect();
            let spreads: Vec<f64> = values
                .iter()
                .map(|set| stats::iqr_spread(&set[w][m]))
                .collect();
            let shift = medians[1..]
                .iter()
                .map(|&later| worsening(def, medians[0], later))
                .fold(0.0, f64::max);
            let spread_ok = def.name == "setup_s" || spreads.iter().all(|&s| s <= def.bound);
            let verdict = spread_ok && shift <= def.bound && medians.iter().all(|v| v.is_finite());
            ok &= verdict;
            let per_set: Vec<String> = medians
                .iter()
                .zip(&spreads)
                .map(|(med, s)| format!("{med:.4} {s:.3}"))
                .collect();
            println!(
                "{workload} {} {} | {} | {shift:.3} | {}",
                def.name,
                def.bound,
                per_set.join(" | "),
                if verdict { "ok" } else { "VIOLATION" }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        let lower = &catalog::END_TO_END[1];
        let higher = catalog::END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(worsening(lower, 100.0, 90.0) < 0.0);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 110.0) < 0.0);
    }
}
