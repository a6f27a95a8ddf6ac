//! Concurrency contracts across the stack: compile-time `Send`/`Sync`
//! assertions for every type the serving layer shares between
//! threads, and stress tests hammering one shared plan cache with
//! concurrent rebinds across disjoint sparsity patterns — the reuse
//! bug class the pooled accumulators must survive.

use spgemm::{Algorithm, OutputOrder, PlanCache, SpgemmPlan};
use spgemm_par::{Pool, WorkspacePool};
use spgemm_serve::{
    JobHandle, MatrixStore, ProductRequest, ServeConfig, ServeEngine, StoredMatrix,
};
use spgemm_sparse::{approx_eq_f64, Csr, PlusTimes};
use std::sync::{Arc, Mutex};

type P = PlusTimes<f64>;

/// Compile-time assertions: if any of these types loses `Send`/`Sync`
/// (say a future refactor introduces an `Rc` or a raw pointer without
/// the right bounds), this test file stops compiling.
#[test]
fn shared_types_are_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    fn send<T: Send>() {}

    // The data plane shared through Arcs.
    send_sync::<Csr<f64>>();
    send_sync::<Csr<u32>>();
    // Plans are shared between serve workers behind slot mutexes.
    send_sync::<SpgemmPlan<P>>();
    send_sync::<PlanCache<P>>();
    // Pooled per-thread workspaces cross the pool's worker threads.
    send_sync::<WorkspacePool<Vec<f64>>>();
    send_sync::<Pool>();
    // The serving layer's shared surface.
    send_sync::<ServeEngine>();
    send_sync::<MatrixStore>();
    send_sync::<StoredMatrix>();
    send_sync::<JobHandle>();
    send::<ProductRequest>();
}

/// Four structurally disjoint square patterns of the same shape —
/// same dims, different fingerprints — so every switch between them
/// forces a rebind (or a distinct cache entry) while the pooled
/// accumulators carry over.
fn disjoint_patterns(n: usize) -> Vec<Csr<f64>> {
    let band = |offset: usize| -> Csr<f64> {
        let mut triplets: Vec<(usize, u32, f64)> = Vec::new();
        for i in 0..n {
            triplets.push((i, ((i + offset) % n) as u32, 1.0 + i as f64));
            triplets.push((i, ((i + 2 * offset + 1) % n) as u32, 0.5));
        }
        Csr::from_triplets(n, n, &triplets).unwrap()
    };
    let pats = vec![band(1), band(3), band(7), band(11)];
    let mut fps: Vec<u64> = pats.iter().map(|p| p.structure_fingerprint()).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), 4, "patterns must be structurally distinct");
    pats
}

/// One `PlanCache` shared behind a mutex, four threads interleaving
/// disjoint patterns: every multiply must stay correct through the
/// storm of rebinds (the cache keeps its pooled accumulators across
/// every one of them).
#[test]
fn shared_plan_cache_survives_concurrent_rebinds() {
    let patterns = Arc::new(disjoint_patterns(64));
    let expected: Arc<Vec<Csr<f64>>> = Arc::new(
        patterns
            .iter()
            .map(|a| spgemm::algos::reference::multiply::<P>(a, a))
            .collect(),
    );
    let cache = Arc::new(Mutex::new(PlanCache::<P>::new(
        Algorithm::Hash,
        OutputOrder::Sorted,
    )));
    let pool = Arc::new(Pool::new(2));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let (patterns, expected, cache, pool) = (
                Arc::clone(&patterns),
                Arc::clone(&expected),
                Arc::clone(&cache),
                Arc::clone(&pool),
            );
            std::thread::spawn(move || {
                for round in 0..30 {
                    let idx = (t + round) % patterns.len();
                    let a = &patterns[idx];
                    let c = cache.lock().unwrap().multiply_in(a, a, &pool).unwrap();
                    assert!(
                        approx_eq_f64(&expected[idx], &c, 1e-12),
                        "thread {t} round {round} pattern {idx}"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = cache.lock().unwrap().stats();
    assert_eq!(stats.hits + stats.rebuilds, 120);
    assert!(stats.rebuilds > 4, "interleaved patterns force rebinds");
}

/// The serve engine under the same storm, with a plan cache smaller
/// than the pattern population so entries are evicted and rebuilt
/// while other workers still execute them: multiple submitter
/// threads, every result checked against the reference oracle.
#[test]
fn serve_engine_stress_disjoint_patterns_tiny_cache() {
    let patterns = disjoint_patterns(48);
    let expected: Vec<Csr<f64>> = patterns
        .iter()
        .map(|a| spgemm::algos::reference::multiply::<P>(a, a))
        .collect();
    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers: 3,
        threads_per_worker: 2,
        plan_cache_plans: 2, // half the live patterns: constant eviction
        queue_capacity: 4096,
        ..ServeConfig::default()
    }));
    for (i, p) in patterns.iter().enumerate() {
        engine.store().insert(format!("p{i}"), p.clone());
    }
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut handles = Vec::new();
                for round in 0..40 {
                    let idx = (t + round) % 4;
                    let h = engine
                        .try_submit(
                            ProductRequest::new(format!("p{idx}"), format!("p{idx}"))
                                .algo(Algorithm::Hash)
                                .tenant(format!("t{t}")),
                        )
                        .expect("queue sized for the full load");
                    handles.push((idx, h));
                }
                handles
            })
        })
        .collect();
    let mut all = Vec::new();
    for s in submitters {
        all.extend(s.join().unwrap());
    }
    for (idx, h) in &all {
        let c = h.wait().unwrap();
        assert!(approx_eq_f64(&expected[*idx], &c, 1e-12), "pattern {idx}");
    }
    let engine = Arc::into_inner(engine).expect("all submitters joined");
    let m = engine.shutdown();
    assert_eq!(m.completed, 160);
    assert_eq!(m.duplicate_completions, 0);
    assert!(
        m.plan_cache.evictions > 0,
        "4 patterns through 2 slots must evict: {:?}",
        m.plan_cache
    );
}
