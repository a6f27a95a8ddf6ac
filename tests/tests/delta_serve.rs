//! Streaming row updates through the serving engine: concurrent
//! submitters racing `try_submit_row_update` against multiply jobs
//! (every job result oracle-checked against a reconstructed version
//! history), patch-vs-re-registration equivalence, and expression
//! jobs advancing their cached evaluator through row updates, with
//! the metrics accounting.

use spgemm::{multiply_in, Algorithm, OutputOrder, RowPatch};
use spgemm_par::Pool;
use spgemm_serve::{ExprRequest, ProductRequest, ServeConfig, ServeEngine};
use spgemm_sparse::{bits_eq_f64, Csr, PlusTimes};

/// The sorted one-shot product a served job must equal, on a pool of
/// its own.
fn sorted_product(a: &Csr<f64>, b: &Csr<f64>, algo: Algorithm) -> Csr<f64> {
    let pool = Pool::new(2);
    multiply_in::<PlusTimes<f64>>(a, b, algo, OutputOrder::Sorted, &pool).unwrap()
}

fn rmat(scale: u32, ef: usize, seed: u64) -> Csr<f64> {
    spgemm_gen::rmat::generate_kind(
        spgemm_gen::RmatKind::Er,
        scale,
        ef,
        &mut spgemm_gen::rng(seed),
    )
}

/// The (deterministic) patch submitter thread `t` applies at `step`:
/// threads edit disjoint row classes (`row % 4 == t`), so any
/// interleaving of the serialized updates converges to the same
/// matrix, and the receipt order reconstructs every intermediate
/// version exactly.
fn patch_for(t: usize, step: usize) -> RowPatch<f64> {
    let row = t + 4 * step;
    let mut p = RowPatch::new();
    p.insert(
        row,
        ((7 * step + t) % 32) as u32,
        1.0 + (t * 10 + step) as f64,
    );
    p
}

#[test]
fn concurrent_updates_and_products_match_some_version() {
    const THREADS: usize = 4;
    const STEPS: usize = 4;
    let a0 = rmat(5, 4, 91); // 32x32
    let b = rmat(5, 4, 92);
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    engine.store().insert("a", a0.clone());
    engine.store().insert("b", b.clone());

    // Each submitter interleaves row updates with product submissions.
    let mut log: Vec<(u64, usize, usize)> = Vec::new(); // (new_version, t, step)
    let mut handles = Vec::new();
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                s.spawn(move || {
                    let mut receipts = Vec::new();
                    let mut jobs = Vec::new();
                    for step in 0..STEPS {
                        let r = engine
                            .try_submit_row_update("a", &patch_for(t, step))
                            .expect("row update");
                        assert_eq!(r.rows_dirtied, 1);
                        assert!(r.new_version > r.old_version);
                        receipts.push((r.new_version, t, step));
                        jobs.push(
                            engine
                                .try_submit(ProductRequest::new("a", "b").algo(Algorithm::Hash))
                                .expect("submit product"),
                        );
                    }
                    (receipts, jobs)
                })
            })
            .collect();
        for j in joins {
            let (receipts, jobs) = j.join().expect("submitter");
            log.extend(receipts);
            handles.extend(jobs);
        }
    });

    // Updates serialize inside the engine, so sorting the receipts by
    // version replays the exact global history of "a".
    log.sort_unstable();
    let mut versions = vec![a0.clone()];
    let mut cur = a0;
    for &(_, t, step) in &log {
        let (next, _) = cur.apply_patch(&patch_for(t, step)).expect("replay");
        versions.push(next.clone());
        cur = next;
    }
    assert!(
        bits_eq_f64(engine.store().get("a").unwrap().csr(), &cur),
        "store must converge to the replayed history"
    );

    // Oracle: every product is the Hash product of *some* snapshot in
    // the history (never a torn or stale-mixed matrix).
    let oracles: Vec<Csr<f64>> = versions
        .iter()
        .map(|v| sorted_product(v, &b, Algorithm::Hash))
        .collect();
    for (k, h) in handles.into_iter().enumerate() {
        let c = h.wait().expect("job result");
        assert!(
            oracles.iter().any(|want| bits_eq_f64(&c, want)),
            "job {k} matches no version of the history"
        );
    }

    let m = engine.shutdown();
    assert_eq!(m.row_updates, (THREADS * STEPS) as u64);
    assert_eq!(m.rows_dirtied, (THREADS * STEPS) as u64);
    assert_eq!(m.completed, (THREADS * STEPS) as u64);
    assert_eq!(m.duplicate_completions, 0);
}

#[test]
fn patch_and_reregistration_are_equivalent() {
    let base = rmat(5, 4, 17);
    let mut patch = RowPatch::new();
    patch
        .insert(3, 9, 2.5)
        .delete(4, base.row_cols(4)[0])
        .insert(8, 0, -1.0);
    let (patched_local, _) = base.apply_patch(&patch).unwrap();

    let engine = ServeEngine::new(ServeConfig::default());
    engine.store().insert("p", base.clone());
    engine.store().insert("r", patched_local.clone());
    let receipt = engine.try_submit_row_update("p", &patch).unwrap();
    assert_eq!(receipt.rows_dirtied, 3);

    // The stored matrix after the streaming update is byte-identical
    // to registering the patched matrix wholesale...
    assert!(bits_eq_f64(
        engine.store().get("p").unwrap().csr(),
        &patched_local
    ));

    // ...and products against either registration agree bitwise.
    let via_patch = engine
        .try_submit(ProductRequest::new("p", "p").algo(Algorithm::Hash))
        .unwrap()
        .wait()
        .unwrap();
    let via_rereg = engine
        .try_submit(ProductRequest::new("r", "r").algo(Algorithm::Hash))
        .unwrap()
        .wait()
        .unwrap();
    assert!(bits_eq_f64(&via_patch, &via_rereg));
    engine.shutdown();
}

/// Under a concrete kernel and under `Auto`.
#[test]
fn expr_results_are_patched_in_place_and_counted() {
    for algo in [Algorithm::Hash, Algorithm::Auto] {
        expr_result_is_patched_in_place_and_counted(algo);
    }
}

fn expr_result_is_patched_in_place_and_counted(algo: Algorithm) {
    use spgemm::expr::{ExprGraph, ExprSpec};

    let a = rmat(5, 4, 61);
    let b = rmat(5, 4, 62);
    let engine = ServeEngine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    engine.store().insert("a", a.clone());
    engine.store().insert("b", b.clone());

    let mut g = ExprGraph::new();
    let sa = g.input();
    let sb = g.input();
    let root = g.multiply(sa, sb);
    let spec = ExprSpec::new(g, root);

    // First evaluation binds the evaluator.
    let r1 = engine
        .try_submit_expr(ExprRequest::new(spec.clone(), ["a", "b"]).algo(algo))
        .unwrap()
        .wait()
        .unwrap();
    assert!(bits_eq_f64(&r1, &sorted_product(&a, &b, algo)));

    // Row-update A, then resubmit: the evaluator is one version
    // behind and must be advanced, not rebound.
    let mut patch = RowPatch::new();
    patch.insert(6, 11, 3.75).insert(20, 2, -0.5);
    let receipt = engine.try_submit_row_update("a", &patch).unwrap();
    assert_eq!(receipt.rows_dirtied, 2);
    let a2 = engine.store().get("a").unwrap().csr().clone();

    let r2 = engine
        .try_submit_expr(ExprRequest::new(spec.clone(), ["a", "b"]).algo(algo))
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        bits_eq_f64(&r2, &sorted_product(&a2, &b, algo)),
        "{algo}: patched-in-place result must equal a from-scratch evaluation"
    );

    let m = engine.shutdown();
    assert_eq!(m.row_updates, 1);
    assert_eq!(m.rows_dirtied, 2);
    assert!(
        m.expr_results_patched >= 1,
        "{algo}: the second evaluation must advance the evaluator: {m:?}"
    );
    assert_eq!(m.expr_jobs, 2);
}

#[test]
fn unknown_name_and_bad_patch_leave_the_store_untouched() {
    let engine = ServeEngine::new(ServeConfig::default());
    let mut p = RowPatch::new();
    p.insert(0, 0, 1.0);
    assert!(engine.try_submit_row_update("ghost", &p).is_err());

    engine.store().insert("m", Csr::<f64>::identity(4));
    let v0 = engine.store().get("m").unwrap().version();
    let mut bad = RowPatch::new();
    bad.insert(99, 0, 1.0); // row out of bounds
    assert!(engine.try_submit_row_update("m", &bad).is_err());
    assert_eq!(
        engine.store().get("m").unwrap().version(),
        v0,
        "a rejected patch must not register a new version"
    );
    let m = engine.shutdown();
    assert_eq!(m.row_updates, 0);
    assert_eq!(m.rows_dirtied, 0);
}

/// The update `step` of the stream below makes to `m`: an upsert and a
/// fresh entry salted with NaN / ±0.0, and a delete, over rows that
/// move with the step.
fn salted_patch(m: &Csr<f64>, step: usize) -> RowPatch<f64> {
    let n = m.nrows();
    let salt = [f64::NAN, -0.0, 0.0, 1.5 + step as f64];
    let mut p = RowPatch::new();
    p.insert(
        (3 * step + 1) % n,
        ((5 * step + 2) % n) as u32,
        salt[step % 4],
    );
    p.insert(
        (7 * step + 4) % n,
        ((step + 9) % n) as u32,
        salt[(step + 1) % 4],
    );
    let r = (11 * step + 6) % n;
    if let Some(&c) = m.row_cols(r).last() {
        p.delete(r, c);
    }
    p
}

/// Expression jobs interleaved with row updates, through every node
/// kind a pipeline here holds: (i) the MCL step, and (ii) a two-input
/// graph whose only `Multiply` has a non-leaf operand. Each job waits
/// for the one before, so the pooled evaluator is exactly one update
/// behind every job after the first (patched), level with the repeat
/// after it (a hit), and bound once; every result is bit-equal to a
/// fresh `ExprPlan` bound on that job's own snapshot — at 1 and 2
/// workers, under `Hash` and `Auto`.
#[test]
fn serve_patches_every_node_kind() {
    use spgemm::expr::{ElemMap, ExprGraph, ExprPlan, ExprSpec};

    const UPDATES: usize = 8;
    let mcl = {
        let mut g = ExprGraph::new();
        let a = g.input();
        let sq = g.multiply(a, a);
        let inflated = g.map(sq, ElemMap::AbsPow(2.0));
        let root = g.normalize_cols(inflated);
        ExprSpec::new(g, root)
    };
    let mixed = {
        let mut g = ExprGraph::new();
        let (a, b) = (g.input(), g.input());
        let at = g.transpose(a);
        let prod = g.multiply(at, b);
        let masked = g.hadamard(prod, a);
        let root = g.add(masked, b);
        ExprSpec::new(g, root)
    };
    let pool = Pool::with_all_threads();
    for workers in [1, 2] {
        for algo in [Algorithm::Hash, Algorithm::Auto] {
            for (label, spec, names) in [("mcl", &mcl, &["a"][..]), ("mixed", &mixed, &["a", "b"])]
            {
                let ctx = format!("{label} {algo} workers={workers}");
                let engine = ServeEngine::new(ServeConfig {
                    workers,
                    ..ServeConfig::default()
                });
                engine.store().insert("a", rmat(5, 4, 71));
                engine.store().insert("b", rmat(5, 4, 72));
                let run = |job: usize| {
                    let snapshot: Vec<Csr<f64>> = names
                        .iter()
                        .map(|n| engine.store().get(n).unwrap().csr().clone())
                        .collect();
                    let got = engine
                        .try_submit_expr(ExprRequest::new(spec.clone(), names.to_vec()).algo(algo))
                        .unwrap()
                        .wait()
                        .unwrap();
                    let inputs: Vec<&Csr<f64>> = snapshot.iter().collect();
                    let fresh = ExprPlan::new_in(&spec.graph, spec.root, &inputs, &[], algo, &pool)
                        .unwrap();
                    let mut want = Csr::zero(0, 0);
                    fresh.root_into(&mut want).unwrap();
                    assert!(bits_eq_f64(&got, &want), "{ctx}: job {job}");
                };
                run(0);
                for step in 0..UPDATES {
                    let name = names[step % names.len()];
                    let cur = engine.store().get(name).unwrap();
                    engine
                        .try_submit_row_update(name, &salted_patch(cur.csr(), step))
                        .unwrap();
                    run(2 * step + 1);
                    run(2 * step + 2);
                }
                let m = engine.shutdown();
                assert_eq!(m.failed, 0, "{ctx}");
                assert_eq!(m.row_updates, UPDATES as u64, "{ctx}");
                assert_eq!(m.expr_results_patched, UPDATES as u64, "{ctx}: {m:?}");
                let counts = (m.expr_results.hits, m.expr_results.misses);
                assert_eq!(counts, (UPDATES as u64, 1), "{ctx}");
            }
        }
    }
}

/// An expression whose root is its input node is served the stored
/// matrix, bit for bit — from the evaluator's bind and after each row
/// update advances it.
#[test]
fn bare_input_root_serves_the_stored_matrix() {
    use spgemm::expr::{ExprGraph, ExprSpec};

    let engine = ServeEngine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    engine.store().insert("a", rmat(5, 4, 81));
    let mut g = ExprGraph::new();
    let root = g.input();
    let spec = ExprSpec::new(g, root);
    for step in 0..3 {
        let got = engine
            .try_submit_expr(ExprRequest::new(spec.clone(), ["a"]))
            .unwrap()
            .wait()
            .unwrap();
        let stored = engine.store().get("a").unwrap();
        assert!(bits_eq_f64(&got, stored.csr()), "job {step}");
        engine
            .try_submit_row_update("a", &salted_patch(stored.csr(), step))
            .unwrap();
    }
    let m = engine.shutdown();
    assert_eq!(m.failed, 0);
    assert_eq!(m.expr_results_patched, 2, "{m:?}");
}
