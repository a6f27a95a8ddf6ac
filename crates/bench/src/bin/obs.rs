//! `spgemm-obs` — the instrumentation harness: proves the disabled
//! path costs nothing, then enables tracing over a mixed MCL + serve
//! workload and checks that the collected trace actually decomposes
//! the run.
//!
//! Five parts:
//!
//! 1. **Disabled overhead.** With collection off, a span enter/exit is
//!    one relaxed atomic load; this part times a million of them and
//!    reports ns/op (`--smoke` asserts it stays far under a
//!    microsecond). A plan-reuse loop (the fig04b shape) is timed with
//!    collection off and on to show the enabled cost in context.
//! 2. **MCL trace.** Runs MCL rounds under tracing and computes the
//!    driver-thread span coverage of the run window — the share of
//!    wall time the trace explains through `mcl.*`, `expr.*` and
//!    `plan.*` phases (`--smoke` asserts ≥ 95%).
//! 3. **Serve decomposition.** Drives a multi-tenant serve engine and
//!    checks the per-tenant latency split: queue delay + service time
//!    must reassemble total latency, and every tenant gets its own
//!    p50/p99.
//! 4. **Request tracing + SLO.** Submits a mixed workload where one
//!    product job routes through the shard fleet, then inspects the
//!    retained tail exemplar: its span tree must connect submission,
//!    worker and shard threads through flow links, cover ≥ 95% of the
//!    measured service window, and the per-tenant SLO counters must
//!    account for every completed job.
//! 5. **Telemetry export.** Four concurrent scrapers validate every
//!    `/metrics` page while a serve workload runs, and at quiesce the
//!    page's serve gauges must equal the engine's own snapshot.
//!
//! The Chrome-format trace is written to `--trace PATH` (default: a
//! file under the system temp dir) and loads directly into
//! `chrome://tracing` or Perfetto; the slowest traced request's own
//! span tree is written next to it as `*-exemplar.json`.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin spgemm-obs -- \
//!     [--scale N] [--ef N] [--reps N] [--seed N] [--quick]
//!     [--trace PATH] [--json PATH]
//!     [--smoke]   # CI assertion run
//! ```

use spgemm::expr::{ExprGraph, ExprSpec};
use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_apps::mcl::{mcl_step, MclParams, MclPipeline};
use spgemm_bench::{args::BenchArgs, envinfo};
use spgemm_dist::GridSpec;
use spgemm_obs as obs;
use spgemm_serve::{
    DistRouting, ExprRequest, Priority, ProductRequest, ServeConfig, ServeEngine, SloPolicy,
};
use spgemm_sparse::{ops, Csr, PlusTimes};
use std::path::PathBuf;
use std::time::{Duration, Instant};

type P = PlusTimes<f64>;

/// The MCL input: symmetrized R-MAT graph with self-loops,
/// column-normalized (same preparation as the `spgemm-expr` bench).
fn mcl_matrix(scale: u32, ef: usize, seed: u64) -> Csr<f64> {
    let mut rng = spgemm_gen::rng(seed);
    let g = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, scale, ef, &mut rng);
    let sym = ops::symmetrize_simple(&g).expect("square");
    let with_loops = ops::add(&sym, &Csr::<f64>::identity(sym.nrows())).expect("shapes");
    ops::normalize_columns(&with_loops)
}

/// Part 1: the disabled fast path, measured two ways — the bare span
/// enter/exit, and a whole plan-reuse loop (which carries span
/// callsites in its symbolic/numeric phases) off vs on.
fn disabled_overhead(a: &Csr<f64>, reps: usize, pool: &spgemm_par::Pool) -> (f64, f64, f64) {
    assert!(!obs::enabled(), "part 1 must run with collection off");

    // Bare callsite cost when disabled: one relaxed load.
    const ITERS: u64 = 1_000_000;
    let t = Instant::now();
    for _ in 0..ITERS {
        let _g = obs::span!("bench", "bench.disabled_probe");
    }
    let span_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;

    // Plan-reuse loop (fig04b shape: symbolic once, numeric per rep),
    // collection off...
    let plan =
        SpgemmPlan::<P>::new_in(a, a, Algorithm::Hash, OutputOrder::Sorted, pool).expect("plan");
    let mut c = Csr::zero(0, 0);
    plan.execute_into_in(a, a, &mut c, pool).expect("warm");
    let t = Instant::now();
    for _ in 0..reps {
        plan.execute_into_in(a, a, &mut c, pool).expect("execute");
    }
    let off_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

    // ...and on (trace ring capacity 0: aggregates only, the cost of
    // the clock reads and atomics without ring traffic).
    obs::enable_with_capacity(0);
    let t = Instant::now();
    for _ in 0..reps {
        plan.execute_into_in(a, a, &mut c, pool).expect("execute");
    }
    let on_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
    obs::disable();
    obs::reset();

    (span_ns, off_ms, on_ms)
}

struct MclTrace {
    rounds: usize,
    wall_ms: f64,
    coverage: f64,
    events: usize,
    overwritten: u64,
}

/// Part 2: MCL rounds under tracing; coverage of the run window on
/// the driver thread.
fn traced_mcl(a: &Csr<f64>, reps: usize, pool: &spgemm_par::Pool) -> MclTrace {
    let params = MclParams::default();
    let mut pipe = MclPipeline::new(&params);

    obs::enable();
    let tid = obs::current_tid();
    let window_start = obs::now_ns();
    let t = Instant::now();
    let mut m = a.clone();
    let mut rounds = 0usize;
    for _ in 0..reps {
        // Top-level round phase; the expr/plan/mcl layers nest their
        // own spans inside it.
        let _g = obs::span!("bench", "mcl.round");
        let (next, delta) = mcl_step(&m, &params, &mut pipe, pool).expect("mcl step");
        m = next;
        rounds += 1;
        if delta < params.tolerance {
            break;
        }
    }
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let window_end = obs::now_ns();
    obs::disable();

    let events = obs::trace_events();
    let coverage = obs::span_coverage(&events, tid, window_start, window_end);
    MclTrace {
        rounds,
        wall_ms,
        coverage,
        events: events.len(),
        overwritten: obs::trace_overwritten(),
    }
}

/// Part 3: a mixed-tenant serve run; returns the engine's final
/// snapshot. Tracing stays on so serve spans land in the same trace.
fn serve_workload(seed: u64, smoke: bool) -> spgemm_serve::MetricsSnapshot {
    obs::enable();
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // Three tenants with different matrix sizes → visibly different
    // latency profiles.
    let mut rng = spgemm_gen::rng(seed ^ 0x5e12);
    let scales: &[(&str, u32)] = &[("mcl", 8), ("amg", 7), ("adhoc", 6)];
    for &(tenant, scale) in scales {
        let g = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, scale, 8, &mut rng);
        let sym = ops::symmetrize_simple(&g).expect("square");
        engine.store().insert(format!("{tenant}/m"), sym);
    }

    let per_tenant = if smoke { 12 } else { 40 };
    let mut handles = Vec::new();
    for round in 0..per_tenant {
        for &(tenant, _) in scales {
            let name = format!("{tenant}/m");
            let req =
                ProductRequest::new(&name, &name)
                    .tenant(tenant)
                    .priority(if round % 4 == 0 {
                        Priority::High
                    } else {
                        Priority::Normal
                    });
            match engine.try_submit(req) {
                Ok(h) => handles.push(h),
                Err(e) => panic!("submit failed for {tenant}: {e:?}"),
            }
        }
    }
    for h in &handles {
        h.wait().expect("job result");
    }
    let snap = engine.shutdown();
    obs::disable();
    snap
}

/// What part 4 measured: the dist-routed request's retained exemplar
/// and how well its span tree explains the measured service window.
struct DistTraceReport {
    snap: spgemm_serve::MetricsSnapshot,
    exemplar: obs::ExemplarTrace,
    /// Span coverage of the service window on the executing worker's
    /// thread (the `serve.batch` tid), envelope excluded.
    coverage: f64,
    /// Distinct thread ids among the exemplar's spans.
    tids: usize,
    /// Flow pairs whose start and end landed on different threads.
    cross_thread_flows: usize,
    /// Tid hosting the `serve.batch` span (coverage diagnostics).
    batch_tid: u64,
    /// Service window the coverage was computed over.
    window: (u64, u64),
}

/// Part 4: one product job that crosses the dist thresholds (tenant
/// "mcl", SLO-tracked) next to plain monolithic
/// products (tenant "adhoc"); returns the engine snapshot and the
/// dist-routed request's exemplar trace.
fn traced_dist_serve(seed: u64) -> DistTraceReport {
    obs::enable();
    // Fresh exemplar window: parts 2–3 must not occupy retention.
    obs::roll_exemplar_window();

    let mut rng = spgemm_gen::rng(seed ^ 0xd157);
    let big = {
        let g = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 9, 8, &mut rng);
        ops::symmetrize_simple(&g).expect("square")
    };
    let small = {
        let g = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 6, 8, &mut rng);
        ops::symmetrize_simple(&g).expect("square")
    };
    // Threshold between the two: big·big routes (2·nnz ≥ nnz + 1),
    // small·small stays monolithic.
    let min_operand_nnz = big.nnz() + 1;
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        dist: Some(DistRouting {
            grid: GridSpec::new(2, 1),
            threads_per_shard: 1,
            min_operand_nnz,
            min_flop: None,
        }),
        slo: SloPolicy {
            default_target: Some(Duration::from_millis(25)),
            per_tenant: vec![("mcl".into(), Duration::from_millis(250))],
            goal: 0.99,
        },
        ..ServeConfig::default()
    });
    engine.store().insert("mcl/big", big);
    engine.store().insert("adhoc/small", small);

    // The dist-routed product: A² over the big graph.
    let dist_job = engine
        .try_submit(
            ProductRequest::new("mcl/big", "mcl/big")
                .algo(Algorithm::Hash)
                .tenant("mcl")
                .priority(Priority::High),
        )
        .expect("submit dist product job");
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(
            engine
                .try_submit(ProductRequest::new("adhoc/small", "adhoc/small").tenant("adhoc"))
                .expect("submit adhoc product"),
        );
    }
    dist_job.wait().expect("dist job result");
    for h in &handles {
        h.wait().expect("adhoc job result");
    }
    let snap = engine.shutdown();
    obs::disable();

    let exemplar = obs::exemplars()
        .into_iter()
        .find(|e| e.group == "mcl")
        .expect("the dist-routed request is its tenant's slowest (only) exemplar");

    // Coverage of the measured service window [completion − service,
    // completion] on the worker thread that executed the batch. The
    // synthesized "request" envelope spans the whole request by
    // construction, so it is excluded — only real phase spans count.
    let root = exemplar
        .spans
        .iter()
        .find(|s| s.name == "request")
        .expect("envelope span");
    let w1 = root.start_ns + root.dur_ns;
    let w0 = w1.saturating_sub(exemplar.service_ns.max(1));
    let batch_tid = exemplar
        .spans
        .iter()
        .find(|s| s.name == "serve.batch")
        .map(|s| s.tid)
        .expect("serve.batch span retained");
    let body: Vec<obs::TraceEvent> = exemplar
        .spans
        .iter()
        .filter(|s| s.name != "request")
        .copied()
        .collect();
    let coverage = obs::span_coverage(&body, batch_tid, w0, w1);
    let tids = exemplar.tids().len();
    let cross_thread_flows = exemplar
        .spans
        .iter()
        .filter(|s| s.kind == obs::EventKind::FlowStart)
        .filter(|s| {
            exemplar.spans.iter().any(|e| {
                e.kind == obs::EventKind::FlowEnd && e.span_id == s.span_id && e.tid != s.tid
            })
        })
        .count();
    DistTraceReport {
        snap,
        exemplar,
        coverage,
        tids,
        cross_thread_flows,
        batch_tid,
        window: (w0, w1),
    }
}

/// What part 5 measured: the scrape endpoint over a live serve
/// workload.
struct TelemetryReport {
    /// Pages served to the 4 concurrent scrapers, all validated.
    pages: usize,
    /// Connections the endpoint answered 200.
    served: u64,
    /// A page scraped at quiesce, and the engine's snapshot taken
    /// after it (its serve gauges are asserted against the snapshot).
    quiet_page: String,
    snap: spgemm_serve::MetricsSnapshot,
}

/// The serve level series a snapshot puts on its page, as the sample
/// lines the page must carry.
fn serve_gauge_lines(s: &spgemm_serve::MetricsSnapshot) -> Vec<String> {
    let lanes = ["high", "normal", "low"]
        .into_iter()
        .zip(s.queue_depth_per_lane);
    let mut lines: Vec<String> = lanes
        .map(|(lane, d)| format!("spgemm_serve_queue_depth{{lane=\"{lane}\"}} {d}"))
        .collect();
    for (cache, n) in [
        ("plan", s.plan_cache.entries),
        ("expr_results", s.expr_results.entries),
    ] {
        lines.push(format!(
            "spgemm_serve_cache_entries{{cache=\"{cache}\"}} {n}"
        ));
    }
    lines.push(format!("spgemm_serve_workers_busy {}", s.workers_busy));
    lines.push(format!("spgemm_serve_store_names {}", s.store_names));
    lines.push(format!(
        "spgemm_serve_store_approx_bytes {}",
        s.store_approx_bytes
    ));
    lines.push(format!(
        "spgemm_serve_plan_cache_idle_bytes {}",
        s.plan_cache_idle_bytes
    ));
    lines
}

/// Part 5: telemetry export. Serves `/metrics` (registry families +
/// the engine snapshot's serve families) to 4 concurrent scrapers
/// while jobs flow, then scrapes one page at quiesce and takes the
/// engine's own `MetricsSnapshot` for its serve gauges to be checked
/// against. Parts 2–4's engines are gone; nothing of theirs can reach
/// this engine's families.
fn telemetry_export(seed: u64) -> TelemetryReport {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    obs::enable();

    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let mut rng = spgemm_gen::rng(seed ^ 0x7e1e);
    let g = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 7, 8, &mut rng);
    let sym = ops::symmetrize_simple(&g).expect("square");
    engine.store().insert("telemetry/m", sym);

    // The scrape endpoint: registry families plus the serve layer's
    // per-tenant families through the extra-exposition hook.
    let exposition_engine = Arc::clone(&engine);
    let mut server = obs::http::ScrapeServer::start_with(
        obs::http::ScrapeConfig::default(),
        Some(Box::new(move |out: &mut String| {
            exposition_engine.metrics().openmetrics_into(out)
        })),
    )
    .expect("bind scrape endpoint on 127.0.0.1:0");
    let addr = server.addr();

    // 4 concurrent scrapers validating every page while jobs flow.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<std::thread::JoinHandle<usize>> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut pages = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) =
                        obs::http::http_get(addr, "/metrics").expect("scrape /metrics");
                    assert_eq!(status, 200, "scrape status");
                    obs::openmetrics::validate(&body)
                        .expect("mid-load /metrics page must be valid OpenMetrics");
                    pages += 1;
                }
                pages
            })
        })
        .collect();

    // The workload under scrape load: products plus one expression
    // job so the expr-results gauge has something to reconcile.
    let spec = {
        let mut g = ExprGraph::new();
        let a = g.input();
        let root = g.multiply(a, a);
        ExprSpec::new(g, root)
    };
    let expr_handle = engine
        .try_submit_expr(ExprRequest::new(spec, ["telemetry/m"]).tenant("telemetry"))
        .expect("submit expr job");
    let mut handles = Vec::new();
    for _ in 0..24 {
        handles.push(
            engine
                .try_submit(ProductRequest::new("telemetry/m", "telemetry/m").tenant("telemetry"))
                .expect("submit product"),
        );
    }
    for h in &handles {
        h.wait().expect("job result");
    }
    expr_handle.wait().expect("expr result");

    stop.store(true, Ordering::Relaxed);
    let pages: usize = scrapers
        .into_iter()
        .map(|s| s.join().expect("scraper thread"))
        .sum();

    // Quiesce. A worker stops counting itself busy a few instructions
    // after the last job handle wakes, so poll that to zero first.
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.metrics().workers_busy != 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let (status, quiet_page) = obs::http::http_get(addr, "/metrics").expect("scrape at quiesce");
    assert_eq!(status, 200, "scrape status at quiesce");
    let snap = engine.metrics();
    server.shutdown();
    obs::disable();

    TelemetryReport {
        pages,
        served: server.served(),
        quiet_page,
        snap,
    }
}

fn fmt_summary(s: &spgemm_serve::LatencySummary) -> String {
    format!(
        "n={:<4} mean {:>8.3} ms  p50 {:>8.3}  p99 {:>8.3}  max {:>8.3}",
        s.count, s.mean_ms, s.p50_ms, s.p99_ms, s.max_ms
    )
}

fn main() {
    let (mut trace_out, mut json) = (None::<PathBuf>, None::<PathBuf>);
    let args = BenchArgs::parse_with("--trace PATH --json PATH", |flag, take| {
        match flag {
            "--trace" => trace_out = Some(take().into()),
            "--json" => json = Some(take().into()),
            _ => return false,
        }
        true
    });
    let quick = args.quick || args.smoke;
    let scale = args.scale.unwrap_or(if quick { 8 } else { 11 });
    let ef = args.ef_or(8);
    let reps = args.reps_or(if quick { 6 } else { 12 });
    let pool = &args.pool();
    println!(
        "spgemm-obs: tracing + metrics harness (scale {}, ef {}, reps {}, {} threads)",
        scale,
        ef,
        reps,
        pool.nthreads()
    );
    print!("{}", envinfo::environment_banner(pool.nthreads()));

    let a = mcl_matrix(scale, ef, args.seed);
    println!(
        "\nworkload: MCL on {}x{} column-stochastic graph, {} nnz",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    // --- part 1: disabled path ---
    let (span_ns, off_ms, on_ms) = disabled_overhead(&a, reps, pool);
    println!("\n[1] disabled-path overhead");
    println!("    span enter/exit, collection off: {span_ns:.2} ns/op");
    println!("    plan-reuse loop, collection off: {off_ms:.3} ms/iter");
    println!(
        "    plan-reuse loop, aggregates on:  {on_ms:.3} ms/iter  ({:+.1}%)",
        (on_ms / off_ms - 1.0) * 100.0
    );

    // --- part 2: traced MCL ---
    let mcl = traced_mcl(&a, reps, pool);
    println!("\n[2] traced MCL run");
    println!(
        "    {} rounds in {:.1} ms, {} trace events ({} overwritten)",
        mcl.rounds, mcl.wall_ms, mcl.events, mcl.overwritten
    );
    println!(
        "    driver-thread span coverage of the run window: {:.1}%",
        mcl.coverage * 100.0
    );

    // --- part 3: serve decomposition (spans land in the same trace) ---
    let snap = serve_workload(args.seed, args.smoke);
    println!("\n[3] serve latency decomposition");
    println!("    total    {}", fmt_summary(&snap.latency));
    println!("    queued   {}", fmt_summary(&snap.queue_delay));
    println!("    service  {}", fmt_summary(&snap.service));
    for t in &snap.per_tenant {
        println!("    tenant {:<8} {}", t.tenant, fmt_summary(&t.latency));
    }

    // --- part 4: request tracing + SLO over a dist-routed workload ---
    let dist = traced_dist_serve(args.seed);
    println!("\n[4] request tracing + SLO (dist-routed product job)");
    println!(
        "    exemplar trace {} ({}): {} spans over {} threads, {} cross-thread flow links",
        dist.exemplar.trace_id,
        dist.exemplar.group,
        dist.exemplar.spans.len(),
        dist.tids,
        dist.cross_thread_flows
    );
    println!(
        "    total {:.3} ms (service {:.3} ms), service-window coverage {:.1}%",
        dist.exemplar.total_ns as f64 / 1e6,
        dist.exemplar.service_ns as f64 / 1e6,
        dist.coverage * 100.0
    );
    for (tenant, slo) in dist.snap.slo_rows() {
        println!(
            "    slo {:<8} target {:>7.1} ms  good {:>3}  bad {:>3}  burn {:.2}",
            tenant,
            slo.target_ms,
            slo.good,
            slo.bad,
            slo.burn_rate()
        );
    }

    // --- exports ---
    println!("\n{}", obs::text_report());
    let trace = obs::chrome_trace();
    let trace_path =
        trace_out.unwrap_or_else(|| std::env::temp_dir().join("spgemm-obs-trace.json"));
    match std::fs::write(&trace_path, &trace) {
        Ok(()) => println!(
            "chrome trace: {} ({} KiB) — load in chrome://tracing or Perfetto",
            trace_path.display(),
            trace.len() / 1024
        ),
        Err(e) => eprintln!("could not write trace to {}: {e}", trace_path.display()),
    }
    // The slowest traced request's own span tree, Perfetto-loadable —
    // the artifact behind the README's "trace one slow request" story.
    let exemplar_trace =
        obs::chrome_trace_for(dist.exemplar.trace_id).expect("retained exemplar is exportable");
    let exemplar_path = trace_path.with_file_name(match trace_path.file_stem() {
        Some(stem) => format!("{}-exemplar.json", stem.to_string_lossy()),
        None => "spgemm-obs-exemplar.json".into(),
    });
    match std::fs::write(&exemplar_path, &exemplar_trace) {
        Ok(()) => println!(
            "exemplar trace (slowest {} request, trace {}): {}",
            dist.exemplar.group,
            dist.exemplar.trace_id,
            exemplar_path.display()
        ),
        Err(e) => eprintln!(
            "could not write exemplar trace to {}: {e}",
            exemplar_path.display()
        ),
    }
    // --- part 5: telemetry export (scrape endpoint) ---
    let tel = telemetry_export(args.seed);
    println!("\n[5] telemetry export");
    println!(
        "    /metrics: {} pages validated by 4 concurrent scrapers ({} served total)",
        tel.pages, tel.served
    );

    if let Some(path) = &json {
        let slo_json: Vec<String> = dist
            .snap
            .slo_rows()
            .map(|(tenant, s)| {
                format!(
                    "{{\"tenant\":\"{}\",\"target_ms\":{:.3},\"goal\":{},\
                     \"good\":{},\"bad\":{},\"burn_rate\":{:.4}}}",
                    tenant,
                    s.target_ms,
                    s.goal,
                    s.good,
                    s.bad,
                    s.burn_rate()
                )
            })
            .collect();
        let json = format!(
            "{{\"env\":{},\"mcl\":{{\"rounds\":{},\"wall_ms\":{:.3},\
             \"coverage\":{:.4},\"events\":{}}},\
             \"serve\":{{\"completed\":{},\"tenants\":{}}},\
             \"trace\":{{\"trace_id\":{},\"spans\":{},\"tids\":{},\
             \"cross_thread_flows\":{},\"coverage\":{:.4}}},\
             \"slo\":[{}]}}\n",
            envinfo::envinfo_json(pool.nthreads()),
            mcl.rounds,
            mcl.wall_ms,
            mcl.coverage,
            mcl.events,
            snap.completed,
            snap.per_tenant.len(),
            dist.exemplar.trace_id,
            dist.exemplar.spans.len(),
            dist.tids,
            dist.cross_thread_flows,
            dist.coverage,
            slo_json.join(",")
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("json summary: {}", path.display()),
            Err(e) => eprintln!("could not write json to {}: {e}", path.display()),
        }
    }

    if args.smoke {
        // Disabled path: far under a microsecond per callsite (the
        // real bound is single-digit ns; 250 leaves room for noisy
        // shared runners).
        assert!(
            span_ns < 250.0,
            "disabled span enter/exit too expensive: {span_ns:.1} ns/op"
        );
        // Trace must decompose the MCL window.
        assert!(
            mcl.overwritten == 0,
            "smoke trace must fit the ring ({} overwritten)",
            mcl.overwritten
        );
        assert!(
            mcl.coverage >= 0.95,
            "trace coverage {:.1}% < 95% of the MCL window",
            mcl.coverage * 100.0
        );
        // Serve: exactly-once delivery, full decomposition, per-tenant
        // quantiles.
        assert_eq!(snap.duplicate_completions, 0, "duplicate completions");
        assert_eq!(snap.failed, 0, "failed jobs");
        let sum = snap.queue_delay.mean_ms + snap.service.mean_ms;
        assert!(
            (snap.latency.mean_ms - sum).abs() <= 1e-6 + snap.latency.mean_ms * 1e-3,
            "queue ({:.4}) + service ({:.4}) must reassemble total ({:.4})",
            snap.queue_delay.mean_ms,
            snap.service.mean_ms,
            snap.latency.mean_ms
        );
        assert_eq!(snap.per_tenant.len(), 3, "one row per tenant");
        for t in &snap.per_tenant {
            assert!(t.latency.count > 0, "{}: empty tenant row", t.tenant);
            assert!(t.latency.p50_ms > 0.0, "{}: zero p50", t.tenant);
            assert!(
                t.latency.p99_ms >= t.latency.p50_ms,
                "{}: p99 < p50",
                t.tenant
            );
        }
        // The trace export must be well-formed Chrome JSON with the
        // serve spans in it.
        assert!(trace.starts_with("{\"traceEvents\":[") && trace.ends_with("]}"));
        assert!(trace.contains("\"serve.batch\""), "serve spans missing");
        assert!(trace.contains("\"mcl.round\""), "mcl spans missing");
        // Part 4: the dist-routed request must yield one connected
        // cross-thread trace...
        assert!(dist.snap.dist_routed >= 1, "product job did not route");
        dist.exemplar
            .validate()
            .expect("exemplar span tree well-formed");
        assert!(
            dist.tids >= 2,
            "exemplar spans span {} thread(s); need submission/worker/shards",
            dist.tids
        );
        assert!(dist.cross_thread_flows >= 1, "no flow link crosses threads");
        assert_eq!(dist.exemplar.dropped, 0, "exemplar lost spans");
        if dist.coverage < 0.95 {
            // name which phase lost coverage before failing
            let body: Vec<obs::TraceEvent> = dist
                .exemplar
                .spans
                .iter()
                .filter(|s| s.name != "request")
                .copied()
                .collect();
            for sc in obs::coverage_by_site(&body, dist.batch_tid, dist.window.0, dist.window.1) {
                eprintln!(
                    "    site {}/{}: {:.1}% ({} ns)",
                    sc.cat,
                    sc.name,
                    sc.fraction * 100.0,
                    sc.covered_ns
                );
            }
            panic!(
                "exemplar covers {:.1}% < 95% of the service window",
                dist.coverage * 100.0
            );
        }
        // ...its export must carry paired flow events...
        assert!(exemplar_trace.contains("\"ph\":\"s\""), "flow starts");
        assert!(exemplar_trace.contains("\"ph\":\"f\""), "flow ends");
        // ...and the SLO ledger must account for every completed job.
        assert!(dist.snap.slo_rows().next().is_some(), "no SLO rows");
        let tracked: u64 = dist.snap.slo_rows().map(|(_, s)| s.good + s.bad).sum();
        assert_eq!(
            tracked, dist.snap.completed,
            "SLO good+bad must equal completed jobs"
        );
        for (tenant, slo) in dist.snap.slo_rows() {
            assert!(slo.burn_rate().is_finite(), "{tenant}: burn rate");
        }
        // Part 5: the scrape endpoint must have served valid pages to
        // every concurrent scraper while the workload ran...
        assert!(
            tel.pages >= 4,
            "only {} pages scraped; every scraper should land at least one",
            tel.pages
        );
        assert!(tel.served >= tel.pages as u64, "served < validated pages");
        // ...and at quiesce the page's serve gauges must be the
        // engine's own snapshot, with no worker busy.
        obs::openmetrics::validate(&tel.quiet_page).expect("quiesced /metrics page must be valid");
        assert_eq!(tel.snap.workers_busy, 0, "workers busy at quiesce");
        for line in serve_gauge_lines(&tel.snap) {
            assert!(
                tel.quiet_page.lines().any(|l| l == line),
                "{line:?} missing from the quiesced page:\n{}",
                tel.quiet_page
            );
        }
        println!(
            "smoke OK: disabled path {span_ns:.1} ns/op, coverage {:.1}%, \
             queue+service == total across {} tenants, dist trace over \
             {} threads at {:.1}% service coverage, SLO tracks {}/{} jobs, \
             {} scraped pages valid",
            mcl.coverage * 100.0,
            snap.per_tenant.len(),
            dist.tids,
            dist.coverage * 100.0,
            tracked,
            dist.snap.completed,
            tel.pages
        );
    }

    // --- perf trajectory stamp (BENCH_obs.json) ---
    if args.smoke || json.is_some() {
        let mut stamp = spgemm_bench::perfjson::PerfReport::new("obs", pool.nthreads());
        stamp
            .metric("disabled_span_ns", span_ns)
            .metric("plan_loop_off_ms", off_ms)
            .metric("plan_loop_on_ms", on_ms)
            .metric("mcl_wall_ms", mcl.wall_ms)
            .metric("mcl_coverage", mcl.coverage)
            .metric("serve_completed", snap.completed as f64)
            .metric("scrape_pages", tel.pages as f64);
        match stamp.write() {
            Ok(path) => println!("perf stamp: {}", path.display()),
            Err(e) => eprintln!("could not write perf stamp: {e}"),
        }
        if args.smoke {
            // The gate must at least pass against the stamp it just
            // wrote (identity compare — exercises parse + compare).
            let doc = spgemm_bench::json::parse(&stamp.to_json()).expect("own stamp parses");
            let report = spgemm_bench::regress::compare(
                &doc,
                &doc,
                spgemm_bench::regress::RegressConfig::default(),
            )
            .expect("self-compare");
            assert_eq!(report.failures(), 0, "regress must pass against itself");
        }
    }
}
