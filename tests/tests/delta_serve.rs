//! Streaming row updates through the serving engine: concurrent
//! submitters racing `try_submit_row_update` against multiply jobs
//! (every job result oracle-checked against a reconstructed version
//! history), patch-vs-re-registration equivalence, and the cached
//! expression result patch-in-place path with its metrics accounting.

use spgemm::{multiply_f64, Algorithm, OutputOrder, RowPatch};
use spgemm_serve::{ExprRequest, ProductRequest, ServeConfig, ServeEngine};
use spgemm_sparse::{bits_eq_f64, Csr};

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
        .map(|v| multiply_f64(v, &b, Algorithm::Hash, OutputOrder::Sorted).unwrap())
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

/// Under a concrete kernel of the ascending-`k` family, and under
/// `Auto` — which names one of them for a 32-column product whatever
/// the operands hold, so the cached product may be patched too.
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

    // First evaluation computes and caches the product.
    let r1 = engine
        .try_submit_expr(ExprRequest::new(spec.clone(), ["a", "b"]).algo(algo))
        .unwrap()
        .wait()
        .unwrap();
    assert!(bits_eq_f64(
        &r1,
        &multiply_f64(&a, &b, algo, OutputOrder::Sorted).unwrap()
    ));

    // Row-update A, then resubmit: the node fingerprint misses, but
    // the engine must recover the old cached product and patch it.
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
        bits_eq_f64(
            &r2,
            &multiply_f64(&a2, &b, algo, OutputOrder::Sorted).unwrap()
        ),
        "{algo}: patched-in-place result must equal a from-scratch evaluation"
    );

    let m = engine.shutdown();
    assert_eq!(m.row_updates, 1);
    assert_eq!(m.rows_dirtied, 2);
    assert!(
        m.expr_results_patched >= 1,
        "{algo}: the second evaluation must be served by patch-in-place: {m:?}"
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
