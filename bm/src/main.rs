//! `bm` — the repo benchmark: four workloads, seven end-to-end
//! metrics, per-layer probes and a traced run. See `README.md` in
//! this directory and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! bm --workload <name> --seed <u64> --seconds <s> --trace <0|1>   one run (the contract)
//! bm --all [--trace 1]       every workload once, each in a child process
//! bm --aa [--sets 2]         A/A: the driver's acceptance procedure on this binary
//! bm --list                  every workload and metric name
//! bm --emit-benchmark-json   the text of BENCHMARK.json
//! ```
//! `--quick` shrinks every run to smoke size.

mod alloc;
mod catalog;
mod driver;
mod harness;
mod json;
mod probes;
mod span;
mod speed;
mod stats;
mod workloads;

use harness::{Metric, Samples, Workload};
use std::process::ExitCode;
use workloads::{
    a2_panel::A2Panel, dist_large::DistLarge, graph_apps::GraphApps, serve_mix::ServeMix,
};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// What one run reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// Ops that failed plus output checks that mismatched.
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Report {
    /// Every output check passed, no op failed, every metric is a
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result line.
    pub fn json_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let unit = catalog::unit_of(&m.name).expect("reported metric is in the catalogue");
            (
                m.name.as_str(),
                json::object([
                    ("value", json::number(m.value)),
                    ("unit", json::quote(unit)),
                ]),
            )
        });
        json::object([
            ("correct", self.correct().to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::object(metrics)),
        ])
    }

    fn print(&self) {
        for m in &self.metrics {
            let unit = catalog::unit_of(&m.name).expect("reported metric is in the catalogue");
            // A percentile with fewer than ten samples beyond it is
            // printed (every metric is, every run) but flagged.
            let quantile = [("_p50", 0.5), ("_p90", 0.9), ("_p99", 0.99)]
                .into_iter()
                .find(|(tail, _)| m.name.contains(tail));
            let thin = quantile.is_some_and(|(_, q)| !stats::percentile_supported(m.samples, q));
            let note = if thin {
                " (fewer than ten samples beyond: indicative)"
            } else {
                ""
            };
            println!(
                "{} {} {unit} n={}{note}",
                m.name,
                json::number(m.value),
                m.samples
            );
        }
        println!("ops_attempted {}", self.attempted);
        println!("ops_failed {}", self.failed);
        for f in &self.check_failures {
            println!("check_failed {f}");
        }
    }
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("bm")
        .join(format!("trace-{workload}.json"))
}

fn run_one<W: Workload>(cfg: &RunCfg) -> Report {
    let threads = harness::thread_budget();
    println!(
        "# bm {} seed={} seconds={} trace={} quick={} T={threads} (available_parallelism {})",
        W::NAME,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        cfg.quick,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (samples, metrics): (Samples, Vec<Metric>) = if cfg.traced {
        let pool = spgemm_par::Pool::new(threads);
        let gbps_start = probes::stanza_gbps(&pool, cfg.quick);
        // The probes need most of a traced run; the workload's own
        // phase gets the rest of the same time budget.
        let (mut w, mut samples, spans, spans_dropped) =
            harness::run_traced::<W>(cfg.seed, cfg.seconds * 0.3, cfg.quick);
        let misnested = span::nesting_violations(&spans);
        if misnested > 0 {
            samples.check_failures.push(format!(
                "{misnested} harness spans are outside their parent or its op"
            ));
        }
        write_trace(W::NAME, &spans, spans_dropped);
        let mut metrics = harness::workload_scoped(&samples, threads);
        let ctx = probes::Ctx {
            seed: cfg.seed,
            quick: cfg.quick,
            threads,
            reps: if cfg.quick { 2 } else { 7 },
            gbps: gbps_start,
        };
        metrics.extend(probes::run_all(&mut w, &ctx));
        drop(w);
        metrics.push(Metric::new(
            "obs.trace_dropped",
            spgemm_obs::trace_overwritten() as f64,
            1,
        ));
        metrics.push(Metric::new("membench.stanza_gbps_start", gbps_start, 1));
        metrics.push(Metric::new(
            "membench.stanza_gbps_end",
            probes::stanza_gbps(&pool, cfg.quick),
            1,
        ));
        (samples, in_catalogue_order(metrics))
    } else {
        let samples = harness::run_untraced::<W>(cfg.seed, cfg.seconds, cfg.quick);
        let metrics = harness::end_to_end(&samples);
        (samples, metrics)
    };
    Report {
        metrics,
        attempted: samples.tally.attempted,
        failed: samples.tally.failed + samples.check_failures.len() as u64,
        check_failures: samples.check_failures,
    }
}

/// `metrics` in the catalogue's per-layer order; panics if the two
/// name sets differ (a harness bug: the catalogue and the probes
/// disagree).
fn in_catalogue_order(mut metrics: Vec<Metric>) -> Vec<Metric> {
    let ordered: Vec<Metric> = catalog::per_layer()
        .iter()
        .map(|def| {
            let at = metrics
                .iter()
                .position(|m| m.name == def.name)
                .unwrap_or_else(|| panic!("metric {} not measured", def.name));
            metrics.swap_remove(at)
        })
        .collect();
    assert!(
        metrics.is_empty(),
        "measured but not in the catalogue: {:?}",
        metrics[0].name
    );
    ordered
}

fn write_trace(workload: &str, spans: &[span::Span], dropped: u64) {
    let path = trace_path(workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, span::chrome_trace(spans)));
    match written {
        Ok(()) => println!(
            "# trace: {} spans ({dropped} dropped) -> {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    let total: u64 = span::self_time_by_layer(spans)
        .iter()
        .map(|(_, ns)| ns)
        .sum();
    for (layer, ns) in span::self_time_by_layer(spans) {
        println!(
            "# self time {layer}: {:.1} ms ({:.1} %)",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}

/// Run the workload `cfg` names in this process.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    match cfg.workload.as_str() {
        A2Panel::NAME => Ok(run_one::<A2Panel>(cfg)),
        GraphApps::NAME => Ok(run_one::<GraphApps>(cfg)),
        DistLarge::NAME => Ok(run_one::<DistLarge>(cfg)),
        ServeMix::NAME => Ok(run_one::<ServeMix>(cfg)),
        other => Err(format!(
            "unknown workload {other:?}; one of {:?}",
            catalog::workload_names()
        )),
    }
}

enum Mode {
    One,
    All,
    Aa,
    List,
    EmitJson,
}

struct Cli {
    mode: Mode,
    cfg: RunCfg,
    sets: usize,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::One,
        cfg: RunCfg {
            workload: String::new(),
            seed: catalog::DEFAULT_SEED,
            seconds: f64::from(catalog::RUN_SECONDS),
            traced: false,
            quick: false,
        },
        sets: 2,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        fn number<T: std::str::FromStr>(what: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{what}: bad number {text:?}"))
        }
        match flag.as_str() {
            "--workload" => cli.cfg.workload = value("--workload")?,
            "--seed" => cli.cfg.seed = number("--seed", value("--seed")?)?,
            "--seconds" => cli.cfg.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => cli.cfg.traced = number::<u8>("--trace", value("--trace")?)? != 0,
            "--quick" => cli.cfg.quick = true,
            "--sets" => cli.sets = number("--sets", value("--sets")?)?,
            "--all" => cli.mode = Mode::All,
            "--aa" => cli.mode = Mode::Aa,
            "--list" => cli.mode = Mode::List,
            "--emit-benchmark-json" => cli.mode = Mode::EmitJson,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(cli.cfg.seconds.is_finite() && cli.cfg.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if cli.sets < 1 {
        return Err("--sets must be at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bm: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.mode {
        Mode::List => {
            print!("{}", catalog::list());
            true
        }
        Mode::EmitJson => {
            print!("{}", catalog::benchmark_json());
            true
        }
        Mode::All => driver::all(&cli.cfg),
        Mode::Aa => driver::aa(&cli.cfg, cli.sets),
        Mode::One => match run(&cli.cfg) {
            Ok(report) => {
                report.print();
                println!("{}", report.json_line());
                report.correct()
            }
            Err(e) => {
                eprintln!("bm: {e}");
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: &str, traced: bool) -> RunCfg {
        RunCfg {
            workload: workload.to_owned(),
            seed: catalog::DEFAULT_SEED,
            seconds: 0.0,
            traced,
            quick: true,
        }
    }

    /// The harness cannot rot without `cargo test` noticing: all four
    /// workloads, untraced and traced, at smoke size. One test, because
    /// the runs share process-global state (obs switch, allocator
    /// counter).
    #[test]
    fn quick_runs_report_every_metric_and_no_failure() {
        let layer_names: Vec<&String> = catalog::per_layer().iter().map(|m| &m.name).collect();
        for workload in catalog::workload_names() {
            let untraced = run(&cfg(workload, false)).expect("known workload");
            assert_eq!(untraced.failed, 0, "{workload}");
            assert_eq!(untraced.check_failures, Vec::<String>::new(), "{workload}");
            assert!(untraced.attempted >= 1);
            let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                catalog::END_TO_END
                    .iter()
                    .map(|m| m.name)
                    .collect::<Vec<_>>()
            );
            for m in &untraced.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{workload} {} = {}",
                    m.name,
                    m.value
                );
            }
            assert!(untraced.correct());
            assert!(untraced
                .json_line()
                .starts_with("{\"correct\": true, \"attempted\": "));

            let traced = run(&cfg(workload, true)).expect("known workload");
            assert_eq!(traced.failed, 0, "{workload} traced");
            assert_eq!(
                traced.check_failures,
                Vec::<String>::new(),
                "{workload} traced"
            );
            let names: Vec<&String> = traced.metrics.iter().map(|m| &m.name).collect();
            assert_eq!(names, layer_names);
            for m in &traced.metrics {
                assert!(m.value.is_finite(), "{workload} {} = {}", m.name, m.value);
            }
            let trace = std::fs::read_to_string(trace_path(workload)).expect("trace file written");
            assert!(trace.contains("\"traceEvents\"") && trace.contains(&format!("op.{workload}")));
        }
    }

    #[test]
    fn unknown_workload_and_flags_are_refused() {
        assert!(run(&cfg("nope", false)).is_err());
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--sets", "0"]).is_err());
        let cli = parse(&[
            "--workload",
            "a2_panel",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (
                cli.cfg.workload.as_str(),
                cli.cfg.seed,
                cli.cfg.seconds,
                cli.cfg.traced
            ),
            ("a2_panel", 7, 3.0, true)
        );
    }
}
