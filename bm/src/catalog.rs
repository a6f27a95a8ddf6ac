//! The benchmark's names in one place: workloads, end-to-end metrics
//! with their bounds, and every per-layer metric with its layer and
//! the end-to-end metric (on which workload) it is expected to move.
//! `BENCHMARK.json` is generated from here (`bm --emit-benchmark-json`)
//! and a test keeps the committed file equal to it.

use crate::json;
use crate::workloads::{a2_panel, dist_large, graph_apps, serve_mix};

/// Seconds one run measures (`run_seconds` of the contract). With
/// three set-ups and the output checks a run takes about 31 s; the
/// driver's 4 + 22 × 4 runs and two builds then fit its 3420 s.
pub const RUN_SECONDS: u32 = 26;
/// Seed used when none is given (the paper's publication date).
pub const DEFAULT_SEED: u64 = 20180804;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bm/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["bm"];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "a2_panel",
        why: "Six Fig-11 A*A cells through reused plans: kernel- and par-bound, every layer above plan is bypassed, so kernel changes must show here and plan/expr/serve/dist changes must not.",
    },
    WorkloadDef {
        name: "graph_apps",
        why: "MCL, AMG re-coarsening, multi-source BFS, triangle counting and row-patch streams: expr-, rebind-, sparse-ops- and apps-bound, the same kernels used as masked, boolean and row-subset calls.",
    },
    WorkloadDef {
        name: "dist_large",
        why: "Two large A*A products on a persistent shard runtime: dist-bound (broadcast, per-stage plan caches, merge, gather), shard overhead is most of the op and the output is the largest.",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "Closed loop, window 8, over one ServeEngine: hot products, expression jobs, row updates and one-shot jobs, so queueing, batching and caches decide latency and writes sit beside reads.",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; also what two runs of
    /// the same code must agree within.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEndDef; 7] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "input generation + registration + plan/engine/runtime construction + warm-up ops; median of the run's set-ups",
    },
    EndToEndDef {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall time of a steady-state op at T threads",
    },
    EndToEndDef {
        name: "op_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "90th percentile of the same samples (at least ten samples beyond it)",
    },
    EndToEndDef {
        name: "op_ms_p50_t1",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median of the same op on the 1-thread configuration, the plain single-threaded baseline",
    },
    EndToEndDef {
        name: "cold_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median of the same op done cold (nothing reused) at T threads, the paper's one-shot measure",
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "steady ops completed per second of the T-thread blocks",
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        what: "peak resident set (VmHWM) of the run, before the output checks",
    },
];

/// `(workload, end-to-end metric)` a per-layer metric should move.
pub type Moves = &'static [(&'static str, &'static str)];

pub struct LayerDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The repo module the metric belongs to.
    pub layer: &'static str,
    pub moves: Moves,
}

const CORE_MOVES: Moves = &[
    ("a2_panel", "op_ms_p50"),
    ("a2_panel", "op_ms_p50_t1"),
    ("graph_apps", "op_ms_p50"),
    ("serve_mix", "op_ms_p50"),
    ("serve_mix", "ops_per_s"),
];
const PLAN_MOVES: Moves = &[
    ("a2_panel", "cold_ms_p50"),
    ("graph_apps", "op_ms_p50"),
    ("serve_mix", "cold_ms_p50"),
];
const PAR_MOVES: Moves = &[
    ("serve_mix", "op_ms_p50"),
    ("graph_apps", "op_ms_p50"),
    ("a2_panel", "cold_ms_p50"),
    ("dist_large", "peak_rss_mb"),
];
const SPARSE_MOVES: Moves = &[
    ("graph_apps", "op_ms_p50"),
    ("serve_mix", "cold_ms_p50"),
    ("serve_mix", "op_ms_p90"),
];
const EXPR_MOVES: Moves = &[
    ("graph_apps", "op_ms_p50"),
    ("graph_apps", "cold_ms_p50"),
    ("serve_mix", "op_ms_p50"),
];
const DELTA_MOVES: Moves = &[("graph_apps", "op_ms_p50"), ("serve_mix", "op_ms_p90")];
const APPS_MOVES: Moves = &[("graph_apps", "op_ms_p50")];
const APPS_BIND_MOVES: Moves = &[("graph_apps", "cold_ms_p50")];
const DIST_MOVES: Moves = &[
    ("dist_large", "op_ms_p50"),
    ("dist_large", "op_ms_p90"),
    ("dist_large", "cold_ms_p50"),
    ("dist_large", "peak_rss_mb"),
];
const SERVE_MOVES: Moves = &[
    ("serve_mix", "op_ms_p50"),
    ("serve_mix", "op_ms_p90"),
    ("serve_mix", "ops_per_s"),
    ("serve_mix", "cold_ms_p50"),
];
/// Measured with tracing on or about the machine: nothing end to end.
const NONE: Moves = &[];

/// Algorithms timed per cell: the paper's panel for the cell's order
/// plus `RowClass`; `ikj` only where `O(n²)` is affordable.
pub fn panel(cell: &str) -> Vec<&'static str> {
    let mut algos = if cell.ends_with('s') {
        vec!["hash", "hashvec", "heap", "merge", "rowclass"]
    } else {
        vec!["hash", "hashvec", "spa", "inspector", "kkhash", "rowclass"]
    };
    if cell.starts_with("er16") {
        algos.push("ikj");
    }
    algos
}

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> &'static [LayerDef] {
    static ALL: std::sync::OnceLock<Vec<LayerDef>> = std::sync::OnceLock::new();
    ALL.get_or_init(build_per_layer)
}

fn build_per_layer() -> Vec<LayerDef> {
    use Better::{Higher, Lower};
    let mut out: Vec<LayerDef> = Vec::new();
    let mut add = |name: String, unit, better, layer, moves| {
        out.push(LayerDef {
            name,
            unit,
            better,
            layer,
            moves,
        })
    };
    for cell in a2_panel::CELLS {
        for algo in panel(cell) {
            add(
                format!("core.numeric_ms.{cell}.{algo}"),
                "ms",
                Lower,
                "core",
                CORE_MOVES,
            );
        }
    }
    for cell in a2_panel::CELLS {
        add(
            format!("core.mflops.{cell}"),
            "MFLOPS",
            Higher,
            "core",
            CORE_MOVES,
        );
    }
    for cell in a2_panel::CELLS {
        add(
            format!("core.auto_regret.{cell}"),
            "ratio",
            Lower,
            "core",
            CORE_MOVES,
        );
    }
    for cell in a2_panel::CELLS.iter().filter(|c| c.ends_with('s')) {
        add(
            format!("core.flop_per_byte.{cell}"),
            "flop/B",
            Higher,
            "core",
            CORE_MOVES,
        );
        add(
            format!("core.bw_frac.{cell}"),
            "ratio",
            Higher,
            "core",
            CORE_MOVES,
        );
    }
    for cell in a2_panel::CELLS {
        add(
            format!("plan.bind_ms.{cell}"),
            "ms",
            Lower,
            "plan",
            PLAN_MOVES,
        );
    }
    add("plan.rebind_ms".into(), "ms", Lower, "plan", PLAN_MOVES);
    add(
        "plan.cache_hit_overhead_us".into(),
        "us",
        Lower,
        "plan",
        PLAN_MOVES,
    );
    add("par.broadcast_us".into(), "us", Lower, "par", PAR_MOVES);
    add(
        "par.alloc_bytes_per_op".into(),
        "B",
        Lower,
        "par",
        PAR_MOVES,
    );
    add("par.scaling_eff".into(), "ratio", Higher, "par", PAR_MOVES);
    for name in ["transpose_ms", "apply_patch_ms", "fingerprint_ms"] {
        add(
            format!("sparse.{name}"),
            "ms",
            Lower,
            "sparse",
            SPARSE_MOVES,
        );
    }
    add("expr.bind_ms.mcl".into(), "ms", Lower, "expr", EXPR_MOVES);
    add("expr.exec_ms.mcl".into(), "ms", Lower, "expr", EXPR_MOVES);
    add(
        "expr.overhead_ratio".into(),
        "ratio",
        Lower,
        "expr",
        EXPR_MOVES,
    );
    add(
        "expr.fused_bytes_eliminated".into(),
        "B",
        Higher,
        "expr",
        EXPR_MOVES,
    );
    add(
        "expr.mcl_rebuilds".into(),
        "count",
        Lower,
        "expr",
        EXPR_MOVES,
    );
    add("delta.batch_ms".into(), "ms", Lower, "delta", DELTA_MOVES);
    add(
        "delta.full_rebuild_ms".into(),
        "ms",
        Lower,
        "delta",
        DELTA_MOVES,
    );
    add(
        "delta.rows_recomputed_frac".into(),
        "ratio",
        Lower,
        "delta",
        DELTA_MOVES,
    );
    for stage in graph_apps::STAGES {
        add(format!("apps.{stage}_ms"), "ms", Lower, "apps", APPS_MOVES);
    }
    add(
        "apps.amg_bind_ms".into(),
        "ms",
        Lower,
        "apps",
        APPS_BIND_MOVES,
    );
    add(
        "apps.tri_bind_ms".into(),
        "ms",
        Lower,
        "apps",
        APPS_BIND_MOVES,
    );
    for what in ["steady_ms", "mono_ms"] {
        for input in dist_large::INPUTS {
            add(
                format!("dist.{what}.{input}"),
                "ms",
                Lower,
                "dist",
                DIST_MOVES,
            );
        }
    }
    for input in dist_large::INPUTS {
        add(
            format!("dist.overhead_ratio.{input}"),
            "ratio",
            Lower,
            "dist",
            DIST_MOVES,
        );
    }
    add(
        "dist.overhead_ratio_1x1".into(),
        "ratio",
        Lower,
        "dist",
        DIST_MOVES,
    );
    add("dist.spawn_ms".into(), "ms", Lower, "dist", DIST_MOVES);
    add(
        "dist.peak_shard_partial_bytes".into(),
        "B",
        Lower,
        "dist",
        DIST_MOVES,
    );
    add(
        "dist.mono_footprint_bytes".into(),
        "B",
        Lower,
        "dist",
        DIST_MOVES,
    );
    add(
        "dist.compute_imbalance".into(),
        "ratio",
        Lower,
        "dist",
        DIST_MOVES,
    );
    add(
        "dist.plan_hits_per_product".into(),
        "count",
        Higher,
        "dist",
        DIST_MOVES,
    );
    for class in serve_mix::CLASSES {
        add(
            format!("serve.{class}_ms_p50"),
            "ms",
            Lower,
            "serve",
            SERVE_MOVES,
        );
    }
    add(
        "serve.latency_ms_p99".into(),
        "ms",
        Lower,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.queue_delay_ms_p50".into(),
        "ms",
        Lower,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.service_ms_p50".into(),
        "ms",
        Lower,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.plan_cache_hit_rate".into(),
        "ratio",
        Higher,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.avg_batch".into(),
        "count",
        Higher,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.expr_result_hit_rate".into(),
        "ratio",
        Higher,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.expr_results_patched".into(),
        "count",
        Higher,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.rejected".into(),
        "count",
        Lower,
        "serve",
        SERVE_MOVES,
    );
    add(
        "serve.overhead_ratio".into(),
        "ratio",
        Lower,
        "serve",
        SERVE_MOVES,
    );
    add(
        "obs.traced_overhead_frac".into(),
        "ratio",
        Lower,
        "obs",
        NONE,
    );
    add("obs.trace_dropped".into(), "count", Lower, "obs", NONE);
    add(
        "membench.stanza_gbps_start".into(),
        "GB/s",
        Higher,
        "membench",
        NONE,
    );
    add(
        "membench.stanza_gbps_end".into(),
        "GB/s",
        Higher,
        "membench",
        NONE,
    );
    out
}

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| per_layer().iter().find(|m| m.name == name).map(|m| m.unit))
}

/// What `bm --list` prints: every name of the benchmark, one a line.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {}\n", w.name));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {} bound={} -- {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    for m in per_layer() {
        let moves: Vec<String> = m.moves.iter().map(|(w, e)| format!("{w}:{e}")).collect();
        out.push_str(&format!(
            "per_layer {} {} {} layer={} moves={}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            moves.join(",")
        ));
    }
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| json::array(items.iter().map(|s| json::quote(s)));
    let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| json::object([("name", json::quote(w.name)), ("why", json::quote(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            json::object([
                ("name", json::quote(m.name)),
                ("unit", json::quote(m.unit)),
                ("better", json::quote(m.better.as_str())),
                ("bound", json::number(m.bound)),
            ])
        })
        .collect();
    let per_layer = per_layer()
        .iter()
        .map(|m| {
            json::object([
                ("name", json::quote(&m.name)),
                ("unit", json::quote(m.unit)),
                ("better", json::quote(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        RUN_SECONDS,
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        let layer = per_layer();
        let mut names: Vec<&str> = workload_names();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layer.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(layer.iter().all(|m| unit_ok(m.unit)), "bad per-layer unit");
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && name_ok("9a.b_c-d"));
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let layer = per_layer();
        assert!((1..=128).contains(&layer.len()));
        assert_eq!(layer.len(), 111);
        assert!(
            WORKLOADS
                .iter()
                .all(|w| w.why.len() <= 200 && !w.why.contains('\n')),
            "why too long"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        assert!(benchmark_json().len() <= 64 * 1024);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
    }

    #[test]
    fn every_moves_target_exists() {
        for m in per_layer() {
            for (workload, metric) in m.moves {
                assert!(
                    workload_names().contains(workload),
                    "{}: workload {workload}",
                    m.name
                );
                assert!(
                    END_TO_END.iter().any(|e| e.name == *metric),
                    "{}: metric {metric}",
                    m.name
                );
            }
            assert!(
                m.name.starts_with(m.layer),
                "{} is not in layer {}",
                m.name,
                m.layer
            );
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `bm --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn list_names_every_entry_of_benchmark_json() {
        let listed = list();
        let file = benchmark_json();
        let names_in_file = file.matches("{\"name\": ").count();
        assert_eq!(listed.lines().count(), names_in_file);
        for line in listed.lines() {
            let name = line.split_whitespace().nth(1).expect("kind then name");
            assert!(
                file.contains(&format!("{{\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
    }
}
