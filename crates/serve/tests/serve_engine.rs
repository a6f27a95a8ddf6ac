//! End-to-end tests of the serving engine: correctness under
//! concurrency, queue semantics observable from outside, plan-cache
//! behaviour, and the exactly-once delivery invariant.

use spgemm::{Algorithm, OutputOrder};
use spgemm_dist::GridSpec;
use spgemm_serve::{DistRouting, Priority, ProductRequest, ServeConfig, ServeEngine, ServeError};
use spgemm_sparse::{approx_eq_f64, bits_eq_f64, Csr, PlusTimes};

type P = PlusTimes<f64>;

fn rmat(scale: u32, ef: usize, seed: u64) -> Csr<f64> {
    let mut rng = spgemm_gen::rng(seed);
    spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, scale, ef, &mut rng)
}

#[test]
fn products_match_reference_across_algorithms() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let a = rmat(6, 4, 1);
    let expect = spgemm::algos::reference::multiply::<P>(&a, &a);
    engine.store().insert("a", a);
    let mut handles = Vec::new();
    for algo in [
        Algorithm::Auto,
        Algorithm::Hash,
        Algorithm::HashVec,
        Algorithm::Heap,
        Algorithm::Spa,
        Algorithm::KkHash,
    ] {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            handles.push((
                algo,
                order,
                engine
                    .try_submit(ProductRequest::new("a", "a").algo(algo).order(order))
                    .unwrap(),
            ));
        }
    }
    for (algo, order, h) in handles {
        let mut c = (*h.wait().unwrap_or_else(|e| panic!("{algo} {order:?}: {e}"))).clone();
        if !c.is_sorted() {
            c.sort_rows();
        }
        assert!(approx_eq_f64(&expect, &c, 1e-12), "{algo} {order:?}");
    }
    let m = engine.shutdown();
    assert_eq!(m.completed, 12);
    assert_eq!(m.failed + m.cancelled + m.duplicate_completions, 0);
}

#[test]
fn submit_rejects_unknown_names_and_bad_shapes() {
    let engine = ServeEngine::new(ServeConfig::default());
    engine.store().insert("sq", Csr::<f64>::identity(4));
    engine.store().insert("wide", Csr::<f64>::zero(4, 7));
    match engine.try_submit(ProductRequest::new("sq", "missing")) {
        Err(ServeError::UnknownMatrix { name }) => assert_eq!(name, "missing"),
        other => panic!("expected UnknownMatrix, got {other:?}"),
    }
    assert!(matches!(
        engine.try_submit(ProductRequest::new("wide", "sq")),
        Err(ServeError::Sparse(_))
    ));
    let m = engine.shutdown();
    assert_eq!(m.rejected, 2);
    assert_eq!(m.accepted, 0);
}

#[test]
fn sortedness_contract_fails_the_job_not_the_engine() {
    // Heap requires sorted inputs; an unsorted operand must fail that
    // job cleanly and leave the engine serving.
    let engine = ServeEngine::new(ServeConfig::default());
    let mut rng = spgemm_gen::rng(7);
    let a = spgemm_gen::perm::randomize_columns(&rmat(5, 4, 3), &mut rng);
    assert!(!a.is_sorted());
    engine.store().insert("a", a);
    let bad = engine
        .try_submit(ProductRequest::new("a", "a").algo(Algorithm::Heap))
        .unwrap();
    assert!(matches!(bad.wait(), Err(ServeError::Sparse(_))));
    let ok = engine
        .try_submit(ProductRequest::new("a", "a").algo(Algorithm::Hash))
        .unwrap();
    assert!(ok.wait().is_ok());
    let m = engine.shutdown();
    assert_eq!((m.failed, m.completed), (1, 1));
}

#[test]
fn repeated_pattern_hits_shared_cache_and_tracks_new_values() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let a = rmat(6, 4, 11);
    engine.store().insert("a", a.clone());
    for _ in 0..10 {
        engine
            .try_submit(ProductRequest::new("a", "a").algo(Algorithm::Hash))
            .unwrap()
            .wait()
            .unwrap();
    }
    // Same structure, new values: fingerprint unchanged, so the plan
    // is reused numeric-only — and the numbers must be the new ones.
    let scaled = a.map(|v| v * -2.0);
    let expect = spgemm::algos::reference::multiply::<P>(&scaled, &scaled);
    engine.store().insert("a", scaled);
    let c = engine
        .try_submit(ProductRequest::new("a", "a").algo(Algorithm::Hash))
        .unwrap()
        .wait()
        .unwrap();
    assert!(approx_eq_f64(&expect, &c, 1e-12));
    let m = engine.shutdown();
    assert_eq!(m.completed, 11);
    assert!(
        m.plan_cache.hit_rate() > 0.5,
        "stable pattern must mostly hit: {:?}",
        m.plan_cache
    );
    assert_eq!(m.plan_cache.misses, 1, "one symbolic build total");
}

/// A hot product requested as `Auto` runs on one cached plan
/// instance (one worker): every job, the first included, replays the
/// column pattern the plan's bind captured — and every response, under
/// either order and across a change of values, has `Reference`'s bits.
#[test]
fn hot_auto_product_is_bit_exact_across_the_plans_capture() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let a = rmat(7, 6, 12).map(|v| if v < 0.1 { -0.0 } else { v });
    for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
        for job in 0..4 {
            let now = a.map(|v| v * (1.0 - job as f64));
            let expect = spgemm::algos::reference::multiply::<P>(&now, &now);
            engine.store().insert("hot", now);
            let request = ProductRequest::new("hot", "hot").algo(Algorithm::Auto);
            let c = engine
                .try_submit(request.order(order))
                .unwrap()
                .wait()
                .unwrap();
            let mut c = Csr::clone(&c);
            c.sort_rows();
            let bits = |m: &Csr<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!((c.rpts(), c.cols()), (expect.rpts(), expect.cols()));
            assert_eq!(bits(&c), bits(&expect), "{order:?} job {job}");
        }
    }
    let m = engine.shutdown();
    assert_eq!(m.plan_cache.misses, 2, "one plan per order");
    assert_eq!(m.plan_cache.hits, 6);
}

#[test]
fn cancellation_and_shutdown_deliver_every_job_exactly_once() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        queue_capacity: 4096,
        ..ServeConfig::default()
    });
    engine.store().insert("a", rmat(7, 8, 5));
    let handles: Vec<_> = (0..300)
        .map(|i| {
            engine
                .try_submit(
                    ProductRequest::new("a", "a")
                        .algo(Algorithm::Hash)
                        .priority(if i % 3 == 0 {
                            Priority::High
                        } else {
                            Priority::Low
                        }),
                )
                .unwrap()
        })
        .collect();
    // Cancel every third job; some are already running or done — for
    // those cancel() reports false and the normal result stands.
    let mut cancelled_won = 0u64;
    for h in handles.iter().skip(1).step_by(3) {
        if h.cancel() {
            cancelled_won += 1;
        }
    }
    let mut ok = 0u64;
    let mut cancelled_seen = 0u64;
    for h in &handles {
        match h.wait() {
            Ok(c) => {
                assert!(c.nnz() > 0);
                ok += 1;
            }
            Err(ServeError::Cancelled) => cancelled_seen += 1,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    assert_eq!(cancelled_seen, cancelled_won, "cancel() wins iff Cancelled");
    let m = engine.shutdown();
    assert_eq!(m.accepted, 300);
    assert_eq!(m.delivered(), 300, "every accepted job resolved");
    assert_eq!(m.completed, ok);
    assert_eq!(m.cancelled, cancelled_seen);
    assert_eq!(m.duplicate_completions, 0);
    assert_eq!(m.queue_depth, 0, "drained");
}

#[test]
fn overload_sheds_rather_than_blocks() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    engine.store().insert("a", rmat(8, 8, 9));
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..200 {
        match engine.try_submit(ProductRequest::new("a", "a").algo(Algorithm::Hash)) {
            Ok(h) => accepted.push(h),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(rejected > 0, "a 1-worker engine cannot absorb 200 bursts");
    for h in &accepted {
        h.wait().unwrap();
    }
    let m = engine.shutdown();
    assert_eq!(m.accepted as usize, accepted.len());
    assert_eq!(m.rejected, rejected);
    assert_eq!(m.delivered(), m.accepted);
}

#[test]
fn disabled_cache_still_serves_correctly() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        plan_cache_plans: 0,
        ..ServeConfig::default()
    });
    let a = rmat(5, 4, 21);
    let expect = spgemm::algos::reference::multiply::<P>(&a, &a);
    engine.store().insert("a", a);
    for _ in 0..6 {
        let c = engine
            .try_submit(ProductRequest::new("a", "a").algo(Algorithm::Hash))
            .unwrap()
            .wait()
            .unwrap();
        assert!(approx_eq_f64(&expect, &c, 1e-12));
    }
    let m = engine.shutdown();
    assert_eq!(m.completed, 6);
    assert_eq!(m.plan_cache.hits, 0, "cache disabled");
}

#[test]
fn oversized_jobs_route_to_the_shared_shard_backend() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        dist: Some(DistRouting {
            grid: GridSpec::new(2, 2),
            threads_per_shard: 1,
            // Low threshold: the scale-7 matrix crosses it, the
            // scale-4 one stays on the plan path.
            min_operand_nnz: 500,
            min_flop: None,
        }),
        ..ServeConfig::default()
    });
    assert_eq!(engine.metrics().dist_held_bytes, 0, "nothing kept yet");
    let big = rmat(7, 6, 77);
    let small = rmat(4, 3, 78);
    assert!(big.nnz() + big.nnz() >= 500);
    assert!(small.nnz() + small.nnz() < 500);
    let expect_big = spgemm::algos::reference::multiply::<P>(&big, &big);
    let expect_small = spgemm::algos::reference::multiply::<P>(&small, &small);
    engine.store().insert("big", big);
    engine.store().insert("small", small);
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let name = if i % 2 == 0 { "big" } else { "small" };
            (
                i,
                engine.try_submit(ProductRequest::new(name, name)).unwrap(),
            )
        })
        .collect();
    for (i, h) in handles {
        let c = h.wait().unwrap();
        let expect = if i % 2 == 0 {
            &expect_big
        } else {
            &expect_small
        };
        assert!(approx_eq_f64(expect, &c, 1e-12), "job {i}");
    }
    assert!(
        engine.metrics().dist_held_bytes > 0,
        "the big product's shard plans and layout stay kept"
    );
    let m = engine.shutdown();
    assert_eq!(m.completed, 6);
    assert_eq!(m.dist_routed, 3, "only the big products route");
    assert_eq!(m.duplicate_completions, 0);
}

#[test]
fn flop_threshold_alone_can_route() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 1,
        dist: Some(DistRouting {
            grid: GridSpec::new(2, 1),
            threads_per_shard: 1,
            min_operand_nnz: usize::MAX, // nnz test never fires
            min_flop: Some(1),           // any non-empty product routes
        }),
        ..ServeConfig::default()
    });
    let a = rmat(5, 4, 9);
    let expect = spgemm::algos::reference::multiply::<P>(&a, &a);
    engine.store().insert("a", a);
    let c = engine
        .try_submit(ProductRequest::new("a", "a"))
        .unwrap()
        .wait()
        .unwrap();
    assert!(approx_eq_f64(&expect, &c, 1e-12));
    let m = engine.shutdown();
    assert_eq!(m.dist_routed, 1);
}

#[test]
fn multi_worker_parallel_execution_pools() {
    // Workers with 2-thread pools share plans (same width) and stay
    // correct.
    let engine = ServeEngine::new(ServeConfig {
        workers: 3,
        threads_per_worker: 2,
        ..ServeConfig::default()
    });
    let a = rmat(6, 6, 31);
    let expect = spgemm::algos::reference::multiply::<P>(&a, &a);
    engine.store().insert("a", a);
    let handles: Vec<_> = (0..60)
        .map(|_| {
            engine
                .try_submit(ProductRequest::new("a", "a").algo(Algorithm::Hash))
                .unwrap()
        })
        .collect();
    for h in handles {
        assert!(approx_eq_f64(&expect, &h.wait().unwrap(), 1e-12));
    }
    let m = engine.shutdown();
    assert_eq!(m.completed, 60);
    assert!(m.plan_cache.hit_rate() > 0.9, "{:?}", m.plan_cache);
}

// ---------------------------------------------------------------
// Expression jobs
// ---------------------------------------------------------------

mod expr_jobs {
    use super::*;
    use spgemm::expr::{ElemMap, ExprGraph, ExprSpec};
    use spgemm::multiply_in;
    use spgemm_par::Pool;
    use spgemm_serve::ExprRequest;
    use spgemm_sparse::ops;

    /// normalize_cols(|A·A|^2) — the MCL expansion+inflation DAG.
    fn mcl_spec() -> ExprSpec {
        let mut g = ExprGraph::new();
        let a = g.input();
        let sq = g.multiply(a, a);
        let inf = g.map(sq, ElemMap::AbsPow(2.0));
        let root = g.normalize_cols(inf);
        ExprSpec::new(g, root)
    }

    #[test]
    fn expr_pipeline_matches_local_composition() {
        let engine = ServeEngine::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let a = rmat(6, 4, 7);
        let pool = Pool::new(1);
        let sq = multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        // `|v|^2` is the squared magnitude, written out here
        let expect = ops::normalize_columns(&sq.map(|v| {
            let x = v.abs();
            x * x
        }));
        engine.store().insert("a", a);
        let job = engine
            .try_submit_expr(ExprRequest::new(mcl_spec(), ["a"]).algo(Algorithm::Hash))
            .unwrap();
        let got = job.wait().unwrap();
        assert!(
            bits_eq_f64(&got, &expect),
            "expr result must equal composition"
        );
        let m = engine.shutdown();
        assert_eq!(m.expr_jobs, 1);
        assert_eq!(
            m.expr_nodes_computed, 3,
            "the three interior nodes compute; the input leaf is served \
             from its snapshot, not the cache"
        );
        assert_eq!(m.failed, 0);
    }

    #[test]
    fn identical_expr_jobs_share_the_cached_root() {
        let engine = ServeEngine::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        engine.store().insert("a", rmat(6, 4, 3));
        let first = engine
            .try_submit_expr(ExprRequest::new(mcl_spec(), ["a"]).algo(Algorithm::Hash))
            .unwrap();
        let r1 = first.wait().unwrap();
        let computed_after_first = engine.metrics().expr_nodes_computed;
        let second = engine
            .try_submit_expr(ExprRequest::new(mcl_spec(), ["a"]).algo(Algorithm::Hash))
            .unwrap();
        let r2 = second.wait().unwrap();
        assert!(bits_eq_f64(&r1, &r2));
        let m = engine.shutdown();
        assert_eq!(
            m.expr_nodes_computed, computed_after_first,
            "the repeat run must be served entirely from the result cache"
        );
        assert!(m.expr_results.hits >= 1, "{:?}", m.expr_results);
        assert_eq!(m.expr_jobs, 2);
    }

    #[test]
    fn reregistration_changes_leaf_identity() {
        let engine = ServeEngine::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let a = rmat(6, 4, 11);
        engine.store().insert("a", a.clone());
        let first = engine
            .try_submit_expr(ExprRequest::new(mcl_spec(), ["a"]).algo(Algorithm::Hash))
            .unwrap();
        let r1 = first.wait().unwrap();
        // same structure, different values: the cached results must
        // NOT be reused (version bump changes every node fingerprint)
        engine.store().insert("a", a.map(|v| v * 3.0));
        let computed = engine.metrics().expr_nodes_computed;
        let second = engine
            .try_submit_expr(ExprRequest::new(mcl_spec(), ["a"]).algo(Algorithm::Hash))
            .unwrap();
        let r2 = second.wait().unwrap();
        let m = engine.shutdown();
        assert!(m.expr_nodes_computed > computed, "recompute on new values");
        // normalize_cols(|(3A)²|²) ≠ guaranteed equal; just sanity:
        assert_eq!(r1.shape(), r2.shape());
        assert_eq!(m.failed, 0);
    }

    #[test]
    fn expr_submission_rejects_bad_requests() {
        let engine = ServeEngine::new(ServeConfig::default());
        engine.store().insert("a", Csr::<f64>::identity(8));
        // unknown input name
        assert!(matches!(
            engine.try_submit_expr(ExprRequest::new(mcl_spec(), ["nope"])),
            Err(ServeError::UnknownMatrix { .. })
        ));
        // wrong input count
        assert!(matches!(
            engine.try_submit_expr(ExprRequest::new(mcl_spec(), ["a", "a"])),
            Err(ServeError::Sparse(_))
        ));
        // vector-input graphs unsupported
        let vec_spec = {
            let mut g = ExprGraph::new();
            let a = g.input();
            let v = g.vec_input();
            let root = g.scale_rows(a, v);
            ExprSpec::new(g, root)
        };
        assert!(matches!(
            engine.try_submit_expr(ExprRequest::new(vec_spec, ["a"])),
            Err(ServeError::Sparse(
                spgemm_sparse::SparseError::Unsupported { .. }
            ))
        ));
        let m = engine.shutdown();
        assert_eq!(m.accepted, 0);
        assert_eq!(m.rejected, 3);
    }
}

mod tracing_and_slo {
    use super::*;
    use spgemm_obs as obs;
    use spgemm_serve::SloPolicy;
    use std::time::Duration;

    /// End-to-end: every accepted job opens a trace at submission that
    /// the worker joins, the slowest requests per tenant are retained
    /// as exportable exemplars, and the SLO tracker classifies every
    /// completion against the policy's targets.
    #[test]
    fn traces_follow_jobs_and_slo_accounts_every_completion() {
        obs::enable();
        let engine = ServeEngine::new(ServeConfig {
            workers: 2,
            slo: SloPolicy {
                // Unmissable default and unmeetable override make the
                // good/bad split deterministic.
                default_target: Some(Duration::from_secs(3600)),
                per_tenant: vec![("slo-probe-bad".into(), Duration::from_nanos(1))],
                goal: 0.9,
            },
            ..ServeConfig::default()
        });
        engine.store().insert("tr/a", rmat(5, 4, 77));

        // Sequential submits: at most one active-trace slot is held at
        // a time, so sampling survives slot pressure from tests running
        // in parallel in this binary.
        for i in 0..4 {
            let tenant = if i % 2 == 0 {
                "slo-probe-good"
            } else {
                "slo-probe-bad"
            };
            engine
                .try_submit(ProductRequest::new("tr/a", "tr/a").tenant(tenant))
                .unwrap()
                .wait()
                .unwrap();
        }
        let snap = engine.shutdown();
        obs::disable();

        let slo_of = |tenant: &str| snap.slo_rows().find(|(t, _)| *t == tenant).map(|(_, s)| s);
        let good = slo_of("slo-probe-good").expect("slo row for default-target tenant");
        assert_eq!((good.good, good.bad), (2, 0));
        assert!((good.target_ms - 3_600_000.0).abs() < 1e-6);
        assert_eq!(good.burn_rate(), 0.0);
        let bad = slo_of("slo-probe-bad").expect("slo row for per-tenant override");
        assert_eq!((bad.good, bad.bad), (0, 2));
        assert!((bad.bad_fraction() - 1.0).abs() < 1e-12);
        assert!(
            bad.burn_rate() > 1.0,
            "blown budget must burn faster than the goal allows"
        );
        let tracked: u64 = snap.slo_rows().map(|(_, s)| s.good + s.bad).sum();
        assert_eq!(tracked, snap.completed, "every completion is classified");

        // The slowest requests per tenant retained complete span trees.
        // (Tolerate total sampling-slot exhaustion from parallel tests;
        // trace_unsampled() accounts for it.)
        let ex: Vec<_> = obs::exemplars()
            .into_iter()
            .filter(|e| e.group.starts_with("slo-probe"))
            .collect();
        if ex.is_empty() {
            assert!(
                obs::trace_unsampled() > 0,
                "no exemplar retained and no slot exhaustion recorded: traces were lost"
            );
            return;
        }
        for e in &ex {
            e.validate()
                .expect("retained trace must be a well-formed span tree");
            assert!(
                e.spans.iter().any(|s| s.name == "serve.submit"),
                "submission-side span in trace"
            );
            assert!(
                e.spans.iter().any(|s| s.name == "serve.batch"),
                "worker-side span in trace"
            );
            assert!(e.total_ns >= e.service_ns);
            let json = obs::chrome_trace_for(e.trace_id)
                .expect("exemplar exports as a Chrome/Perfetto trace");
            assert!(json.contains("serve.batch"));
        }
    }

    /// `MetricsSnapshot::since` over a block of jobs reports exactly
    /// that block — the window diff the benchmark's serve probes read —
    /// and a tenant first seen inside the window diffs against empty,
    /// so all of its samples and SLO counts land in the window.
    #[test]
    fn since_reports_exactly_the_jobs_of_the_window() {
        let engine = ServeEngine::new(ServeConfig {
            workers: 2,
            slo: SloPolicy {
                default_target: Some(Duration::from_secs(3600)),
                ..SloPolicy::default()
            },
            ..ServeConfig::default()
        });
        engine.store().insert("w/a", rmat(5, 4, 5));
        let run = |tenants: &[&str]| {
            let handles: Vec<_> = tenants
                .iter()
                .map(|&t| {
                    engine
                        .try_submit(ProductRequest::new("w/a", "w/a").tenant(t))
                        .unwrap()
                })
                .collect();
            for h in handles {
                h.wait().unwrap();
            }
        };
        run(&["old", "old", "old"]);
        let prev = engine.metrics();
        run(&["old", "new", "old", "new", "old", "old"]);
        let cur = engine.metrics();
        let w = cur.since(&prev);
        engine.shutdown();

        let n = 6;
        assert_eq!(w.accepted, n);
        assert_eq!(w.completed, n);
        assert_eq!(w.batched_jobs, n);
        assert_eq!(w.latency.count, n);
        assert_eq!(w.queue_delay.count, n);
        assert_eq!(w.service.count, n);
        for (tenant, jobs) in [("old", 4), ("new", 2)] {
            let t = w.per_tenant.iter().find(|t| t.tenant == tenant).unwrap();
            let counts = (t.latency.count, t.queue_delay.count, t.service.count);
            assert_eq!(counts, (jobs, jobs, jobs), "{tenant}");
            let s = t.slo.as_ref().unwrap();
            assert_eq!((s.good, s.bad), (jobs, 0), "{tenant}");
        }
        assert!(prev.per_tenant.iter().all(|t| t.tenant != "new"));
    }
}
