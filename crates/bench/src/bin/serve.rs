//! `spgemm-serve` — synthetic multi-tenant traffic against the
//! serving engine (`spgemm-serve` crate).
//!
//! Three tenant families generate load concurrently:
//!
//! * **mcl** — MCL-style A² chains: repeated squares of one stored
//!   R-MAT graph whose *values* are re-registered (inflation-style
//!   rescale) every few jobs while the structure stays put — the
//!   plan-cache steady state;
//! * **amg** — Galerkin triple products `Pᵀ(AP)` over a fixed Poisson
//!   operator and restriction: two chained products per round, both
//!   structure-stable after the first round;
//! * **oneshot** — a fresh random structure per request: never hits
//!   the plan cache, modelling cold tenants.
//!
//! Modes:
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin spgemm-serve -- \
//!     [--workers 1,2,4] [--threads-per-worker N] [--jobs N] \
//!     [--rate JOBS_PER_SEC] [--scale N] [--ef N] [--seed N] [--quick]
//!     [--compare]   # cache on vs off (cold plan per job): speedup
//!     [--smoke]     # tiny assertion run for CI (exactly-once + hit rate)
//! ```
//!
//! The default mode sweeps worker counts and prints one row per count:
//! throughput, p50/p99 latency, plan-cache hit rate, shed submissions.

use spgemm::Algorithm;
use spgemm_bench::args::{self, BenchArgs};
use spgemm_serve::{
    MetricsSnapshot, Priority, ProductRequest, ServeConfig, ServeEngine, ServeError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The generated load: tenant inputs and the job budget.
struct Traffic {
    threads_per_worker: usize,
    jobs: usize,
    /// Open-loop jobs per second across tenants; 0 submits at full speed.
    rate: f64,
    scale: u32,
    ef: usize,
    seed: u64,
}

/// Submit with bounded retries on backpressure; sheds (drops the
/// request) after `max_retries` and reports it.
fn submit_with_retry(
    engine: &ServeEngine,
    req: ProductRequest,
    shed: &AtomicU64,
    retries: &AtomicU64,
) -> Option<spgemm_serve::JobHandle> {
    for _ in 0..10_000 {
        match engine.try_submit(req.clone()) {
            Ok(h) => return Some(h),
            Err(ServeError::Overloaded { .. }) => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("submission failed: {e}"),
        }
    }
    shed.fetch_add(1, Ordering::Relaxed);
    None
}

struct RunOutcome {
    snapshot: MetricsSnapshot,
    wall: Duration,
    handles_ok: u64,
    handles_err: u64,
    retries: u64,
    shed: u64,
}

/// One traffic run: tenants submit `jobs` products total against an
/// engine with `workers` workers; returns the drained metrics.
fn run_traffic(load: &Traffic, workers: usize, cache_plans: usize) -> RunOutcome {
    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers,
        threads_per_worker: load.threads_per_worker,
        queue_capacity: 512,
        plan_cache_plans: cache_plans,
        ..ServeConfig::default()
    }));
    let mut rng = spgemm_gen::rng(load.seed);

    // mcl tenant: one stable graph.
    let g =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, load.scale, load.ef, &mut rng);
    engine.store().insert("mcl/g", g.clone());
    // amg tenant: Poisson operator + tall-skinny restriction.
    let k = ((1usize << load.scale) as f64).sqrt() as usize;
    let a = spgemm_gen::poisson::poisson2d(k);
    let p = spgemm_gen::tallskinny::tall_skinny(&a, (a.ncols() / 4).max(1), &mut rng)
        .expect("restriction shape");
    let pt = spgemm_sparse::ops::transpose(&p);
    engine.store().insert("amg/a", a);
    engine.store().insert("amg/p", p);
    engine.store().insert("amg/pt", pt);

    // Job budget split: 60% mcl squares, 25% amg (rounds of 2), 15% one-shot.
    let mcl_jobs = load.jobs * 60 / 100;
    let amg_rounds = load.jobs * 25 / 100 / 2;
    let oneshot_jobs = load.jobs - mcl_jobs - 2 * amg_rounds;
    let pace = |share: f64| -> Option<Duration> {
        (load.rate > 0.0).then(|| Duration::from_secs_f64(1.0 / (load.rate * share)))
    };

    let retries = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut tenants = Vec::new();

    {
        let (engine, retries, shed) = (engine.clone(), retries.clone(), shed.clone());
        let pace = pace(0.6);
        tenants.push(std::thread::spawn(move || {
            let mut handles = Vec::new();
            for i in 0..mcl_jobs {
                if i > 0 && i % 10 == 0 {
                    // Inflation-style value rescale: same structure,
                    // new values — the fingerprint (and plan) survive.
                    let fresh = g.map(|v| v * 1.001);
                    engine.store().insert("mcl/g", fresh);
                }
                let req = ProductRequest::new("mcl/g", "mcl/g")
                    .algo(Algorithm::Hash)
                    .tenant("mcl");
                handles.extend(submit_with_retry(&engine, req, &shed, &retries));
                if let Some(d) = pace {
                    std::thread::sleep(d);
                }
            }
            handles
        }));
    }
    {
        let (engine, retries, shed) = (engine.clone(), retries.clone(), shed.clone());
        let pace = pace(0.25);
        tenants.push(std::thread::spawn(move || {
            let mut handles = Vec::new();
            for _ in 0..amg_rounds {
                let req = ProductRequest::new("amg/a", "amg/p")
                    .priority(Priority::High)
                    .tenant("amg");
                let Some(h1) = submit_with_retry(&engine, req, &shed, &retries) else {
                    continue;
                };
                let ap = match h1.wait() {
                    Ok(ap) => ap,
                    Err(_) => {
                        handles.push(h1);
                        continue;
                    }
                };
                engine.store().insert("amg/ap", (*ap).clone());
                handles.push(h1);
                let req = ProductRequest::new("amg/pt", "amg/ap")
                    .priority(Priority::High)
                    .tenant("amg");
                if let Some(h2) = submit_with_retry(&engine, req, &shed, &retries) {
                    let _ = h2.wait();
                    handles.push(h2);
                }
                if let Some(d) = pace {
                    std::thread::sleep(d);
                }
            }
            handles
        }));
    }
    {
        let (engine, retries, shed) = (engine.clone(), retries.clone(), shed.clone());
        let pace = pace(0.15);
        let (scale, seed) = (load.scale.saturating_sub(2).max(4), load.seed);
        tenants.push(std::thread::spawn(move || {
            let mut rng = spgemm_gen::rng(seed ^ 0x1e_5407);
            let mut handles = Vec::new();
            for _ in 0..oneshot_jobs {
                let m =
                    spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, scale, 4, &mut rng);
                engine.store().insert("oneshot/tmp", m);
                let req = ProductRequest::new("oneshot/tmp", "oneshot/tmp")
                    .priority(Priority::Low)
                    .tenant("oneshot");
                handles.extend(submit_with_retry(&engine, req, &shed, &retries));
                if let Some(d) = pace {
                    std::thread::sleep(d);
                }
            }
            handles
        }));
    }

    let mut handles = Vec::new();
    for t in tenants {
        handles.extend(t.join().expect("tenant thread panicked"));
    }
    let (mut ok, mut err) = (0u64, 0u64);
    for h in &handles {
        match h.wait() {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    let wall = started.elapsed();
    let engine = Arc::into_inner(engine).expect("tenants joined");
    RunOutcome {
        snapshot: engine.shutdown(),
        wall,
        handles_ok: ok,
        handles_err: err,
        retries: retries.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
    }
}

/// The `--compare` workload: throughput under saturation. Four
/// "repeat" tenants (distinct stable structures — so hot keys can
/// spread across workers), one AMG pair of stable products, and a
/// 15% one-shot tail. Everything is submitted up front (the queue is
/// sized for it), then drained; wall time measures pure service
/// throughput with no pacing or chained waits on the critical path.
fn run_saturated(load: &Traffic, workers: usize, cache_plans: usize) -> RunOutcome {
    let engine = ServeEngine::new(ServeConfig {
        workers,
        threads_per_worker: load.threads_per_worker,
        queue_capacity: load.jobs + 16,
        plan_cache_plans: cache_plans,
        ..ServeConfig::default()
    });
    let mut rng = spgemm_gen::rng(load.seed);
    const REPEAT_TENANTS: usize = 4;
    for t in 0..REPEAT_TENANTS {
        let g = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            load.scale,
            load.ef,
            &mut rng,
        );
        engine.store().insert(format!("repeat{t}/g"), g);
    }
    let oneshot_jobs = load.jobs * 15 / 100;
    let repeat_jobs = load.jobs - oneshot_jobs;
    let oneshot_scale = load.scale.saturating_sub(2).max(4);
    for i in 0..oneshot_jobs {
        let m =
            spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, oneshot_scale, 4, &mut rng);
        engine.store().insert(format!("oneshot/{i}"), m);
    }

    let started = Instant::now();
    let mut handles = Vec::with_capacity(load.jobs);
    for i in 0..repeat_jobs {
        let name = format!("repeat{}/g", i % REPEAT_TENANTS);
        // HashVector: the paper's flagship kernel, and the one whose
        // symbolic phase and SIMD-probed tables profit most from reuse.
        let req = ProductRequest::new(name.clone(), name)
            .algo(Algorithm::HashVec)
            .tenant("repeat");
        handles.push(engine.try_submit(req).expect("queue sized for full load"));
    }
    for i in 0..oneshot_jobs {
        let name = format!("oneshot/{i}");
        let req = ProductRequest::new(name.clone(), name)
            .algo(Algorithm::Hash)
            .priority(Priority::Low)
            .tenant("oneshot");
        handles.push(engine.try_submit(req).expect("queue sized for full load"));
    }
    let (mut ok, mut err) = (0u64, 0u64);
    for h in &handles {
        match h.wait() {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    let wall = started.elapsed();
    RunOutcome {
        snapshot: engine.shutdown(),
        wall,
        handles_ok: ok,
        handles_err: err,
        retries: 0,
        shed: 0,
    }
}

fn main() {
    let (mut workers, mut compare) = (Vec::new(), false);
    let (mut threads_per_worker, mut jobs, mut rate) = (1, None, 0.0);
    let bench = BenchArgs::parse_with(
        "--workers LIST --threads-per-worker N --jobs N --rate JOBS_PER_SEC --compare",
        |flag, take| {
            match flag {
                "--workers" => {
                    workers = take()
                        .split(',')
                        .map(|w| args::parse(w.trim(), flag))
                        .collect()
                }
                "--threads-per-worker" => threads_per_worker = args::parse(&take(), flag),
                "--jobs" => jobs = Some(args::parse(&take(), flag)),
                "--rate" => rate = args::parse(&take(), flag),
                "--compare" => compare = true,
                _ => return false,
            }
            true
        },
    );
    let quick = bench.quick || bench.smoke;
    let load = &Traffic {
        threads_per_worker,
        jobs: jobs.unwrap_or(if quick { 200 } else { 600 }),
        rate,
        scale: bench.scale.unwrap_or(if quick { 7 } else { 9 }),
        ef: bench.ef_or(8),
        seed: bench.seed,
    };
    if workers.is_empty() {
        workers = if quick {
            vec![2]
        } else {
            let hw = spgemm_par::hardware_threads();
            [1, 2, 4].into_iter().filter(|&w| w <= hw).collect()
        };
    }
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(load.threads_per_worker)
    );
    println!(
        "# spgemm-serve: mixed tenants (mcl A² / amg PᵀAP / oneshot), {} jobs, scale {}, ef {}",
        load.jobs, load.scale, load.ef
    );

    if bench.smoke {
        let out = run_traffic(load, 2, ServeConfig::default().plan_cache_plans);
        let m = &out.snapshot;
        println!(
            "smoke: accepted {} delivered {} ok {} err {} dup {} hit_rate {:.1}%",
            m.accepted,
            m.delivered(),
            out.handles_ok,
            out.handles_err,
            m.duplicate_completions,
            m.plan_cache.hit_rate() * 100.0
        );
        assert_eq!(out.shed, 0, "smoke load must be fully accepted");
        assert_eq!(m.delivered(), m.accepted, "a response per accepted job");
        assert_eq!(
            out.handles_ok + out.handles_err,
            m.accepted,
            "every handle resolved"
        );
        assert_eq!(out.handles_err, 0, "no failures expected");
        assert_eq!(m.duplicate_completions, 0, "no duplicated responses");
        assert!(
            m.plan_cache.hit_rate() > 0.5,
            "stable tenant patterns must hit >50%: {:?}",
            m.plan_cache
        );
        let mut stamp = spgemm_bench::perfjson::PerfReport::new("serve", load.threads_per_worker);
        stamp
            .metric("wall_ms", out.wall.as_secs_f64() * 1e3)
            .metric("p50_ms", m.latency.p50_ms)
            .metric("p99_ms", m.latency.p99_ms)
            .metric("jobs_completed", m.completed as f64)
            .metric("plan_cache_hit_rate", m.plan_cache.hit_rate());
        match stamp.write() {
            Ok(path) => println!("perf stamp: {}", path.display()),
            Err(e) => eprintln!("could not write perf stamp: {e}"),
        }
        println!("SMOKE OK");
        return;
    }

    if compare {
        let workers = workers[0];
        println!("# compare: shared plan cache on vs off (cold plan per job), {workers} workers");
        println!("# saturated mixed repeated-product workload: submit all, then drain");
        // Warm both modes once to even out first-touch effects.
        let _ = run_saturated(load, workers, ServeConfig::default().plan_cache_plans);
        let on = run_saturated(load, workers, ServeConfig::default().plan_cache_plans);
        let off = run_saturated(load, workers, 0);
        let speedup = off.wall.as_secs_f64() / on.wall.as_secs_f64();
        println!("mode\twall_s\tthroughput_jps\tp50_ms\tp99_ms\thit_rate");
        for (label, o) in [("cache", &on), ("cold", &off)] {
            println!(
                "{label}\t{:.3}\t{:.1}\t{:.3}\t{:.3}\t{:.1}%",
                o.wall.as_secs_f64(),
                o.snapshot.completed as f64 / o.wall.as_secs_f64(),
                o.snapshot.latency.p50_ms,
                o.snapshot.latency.p99_ms,
                o.snapshot.plan_cache.hit_rate() * 100.0
            );
        }
        println!("plan_cache_speedup\t{speedup:.2}x");
        return;
    }

    println!("workers\tthroughput_jps\tp50_ms\tp99_ms\tmax_ms\thit_rate\tbatch_avg\tretries\tshed");
    for &w in &workers {
        let out = run_traffic(load, w, ServeConfig::default().plan_cache_plans);
        let m = &out.snapshot;
        let batch_avg = if m.batches > 0 {
            m.batched_jobs as f64 / m.batches as f64
        } else {
            0.0
        };
        println!(
            "{w}\t{:.1}\t{:.3}\t{:.3}\t{:.3}\t{:.1}%\t{:.2}\t{}\t{}",
            m.completed as f64 / out.wall.as_secs_f64(),
            m.latency.p50_ms,
            m.latency.p99_ms,
            m.latency.max_ms,
            m.plan_cache.hit_rate() * 100.0,
            batch_avg,
            out.retries,
            out.shed
        );
        assert_eq!(m.delivered(), m.accepted, "lost responses at {w} workers");
        assert_eq!(m.duplicate_completions, 0);
    }
    println!("# open-loop when --rate is set; otherwise tenants submit at full speed with retry-on-overload");
}
