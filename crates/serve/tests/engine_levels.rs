//! Each engine reports its queue, worker, store and cache levels from
//! its own structures: two engines in one process, built while
//! collection is off and read with it on and off again, each see only
//! what they hold, on the snapshot and on its `/metrics` families
//! alike. This file toggles the process-global obs switch, which is
//! why it lives alone in its own test binary.

use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_serve::{MetricsSnapshot, ProductRequest, ServeConfig, ServeEngine};
use spgemm_sparse::{csr_bytes, Csr, PlusTimes};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn rmat(scale: u32, seed: u64) -> Csr<f64> {
    let mut rng = spgemm_gen::rng(seed);
    spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, scale, 4, &mut rng)
}

/// One worker of width 1: every key pools exactly one plan.
fn engine() -> ServeEngine {
    ServeEngine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
}

/// Run `name · name` (`Auto`, sorted) to completion.
fn square(engine: &ServeEngine, name: &str) {
    let req = ProductRequest::new(name, name);
    engine.try_submit(req).unwrap().wait().unwrap();
}

/// The engine's snapshot once its worker is back in the queue (a
/// waiter wakes a few instructions before the worker stops counting
/// itself busy).
fn quiet(engine: &ServeEngine) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = engine.metrics();
        if m.workers_busy == 0 || Instant::now() > deadline {
            return m;
        }
        std::thread::yield_now();
    }
}

/// The `spgemm_serve_*` gauge series of an exposition page, as
/// `series → value`.
fn serve_gauges(page: &str) -> BTreeMap<String, f64> {
    let gauges: Vec<&str> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" gauge"))
        .filter(|fam| fam.starts_with("spgemm_serve_"))
        .collect();
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let fam = series.split('{').next().unwrap_or(series);
            gauges.contains(&fam)
        })
        .map(|(series, v)| (series.to_string(), v.parse().unwrap()))
        .collect()
}

/// The gauge series a snapshot should put on its page.
fn expected_gauges(m: &MetricsSnapshot) -> BTreeMap<String, f64> {
    let lanes = ["high", "normal", "low"]
        .into_iter()
        .zip(m.queue_depth_per_lane);
    let mut want: BTreeMap<String, f64> = lanes
        .map(|(l, d)| {
            (
                format!("spgemm_serve_queue_depth{{lane=\"{l}\"}}"),
                d as f64,
            )
        })
        .collect();
    for (cache, n) in [
        ("plan", m.plan_cache.entries),
        ("expr_results", m.expr_results.entries),
    ] {
        want.insert(
            format!("spgemm_serve_cache_entries{{cache=\"{cache}\"}}"),
            n as f64,
        );
    }
    for (fam, v) in [
        ("spgemm_serve_workers_busy", m.workers_busy as f64),
        ("spgemm_serve_store_names", m.store_names as f64),
        (
            "spgemm_serve_store_approx_bytes",
            m.store_approx_bytes as f64,
        ),
        (
            "spgemm_serve_plan_cache_idle_bytes",
            m.plan_cache_idle_bytes as f64,
        ),
        ("spgemm_serve_dist_held_bytes", m.dist_held_bytes as f64),
    ] {
        want.insert(fam.to_string(), v);
    }
    want
}

/// What one engine should hold: its names, and the operands of the
/// one plan each of its cached keys pools.
struct Holds<'a> {
    names: &'a [(&'a str, &'a Csr<f64>)],
    keys: &'a [&'a Csr<f64>],
}

/// The engine's snapshot and page agree with each other and with what
/// it holds — nothing of the other engine's leaks into either.
fn check(engine: &ServeEngine, holds: &Holds, case: &str) {
    let m = quiet(engine);
    assert_eq!(m.workers_busy, 0, "{case}: busy at quiesce");
    assert_eq!(m.queue_depth_per_lane, [0, 0, 0], "{case}");
    let mut names = engine.store().names();
    names.sort();
    let held: Vec<&str> = holds.names.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, held, "{case}");
    assert_eq!(m.store_names, held.len(), "{case}: names");
    let bytes: u64 = holds.names.iter().map(|(_, m)| csr_bytes(m)).sum();
    assert_eq!(m.store_approx_bytes, bytes, "{case}: store bytes");
    assert_eq!(m.plan_cache.entries, holds.keys.len(), "{case}: keys");
    let pool = Pool::new(1);
    let plan_bytes = |a: &&Csr<f64>| {
        let (algo, order) = (Algorithm::Auto, OutputOrder::Sorted);
        let plan = SpgemmPlan::<PlusTimes<f64>>::new_in(a, a, algo, order, &pool).unwrap();
        plan.owned_bytes() as u64
    };
    let idle: u64 = holds.keys.iter().map(plan_bytes).sum();
    assert_eq!(m.plan_cache_idle_bytes, idle, "{case}: idle plan bytes");
    assert_eq!(m.dist_held_bytes, 0, "{case}: no dist runtime");

    let mut page = String::new();
    m.openmetrics_into(&mut page);
    page.push_str("# EOF\n");
    spgemm_obs::openmetrics::validate(&page).unwrap_or_else(|e| panic!("{case}: {e}\n{page}"));
    assert_eq!(serve_gauges(&page), expected_gauges(&m), "{case}:\n{page}");
}

#[test]
fn two_engines_report_their_own_levels_with_obs_on_and_off() {
    spgemm_obs::disable();
    let m: Vec<Csr<f64>> = (0..8).map(|i| rmat(5 + (i % 3) as u32, i)).collect();
    // Both stores filled while collection is off.
    let (a, b) = (engine(), engine());
    for i in 0..4 {
        a.store().insert(format!("a{i}"), m[i].clone());
        b.store().insert(format!("b{i}"), m[4 + i].clone());
    }

    spgemm_obs::enable();
    assert!(a.store().remove("a3"));
    for name in ["a0", "a1", "a2", "a0"] {
        square(&a, name);
    }
    for _ in 0..3 {
        square(&b, "b0");
    }
    let holds_a = Holds {
        names: &[("a0", &m[0]), ("a1", &m[1]), ("a2", &m[2])],
        keys: &[&m[0], &m[1], &m[2]],
    };
    let holds_b = Holds {
        names: &[("b0", &m[4]), ("b1", &m[5]), ("b2", &m[6]), ("b3", &m[7])],
        keys: &[&m[4]],
    };
    check(&a, &holds_a, "a, obs on");
    check(&b, &holds_b, "b, obs on");

    spgemm_obs::disable();
    assert!(b.store().remove("b3"));
    square(&b, "b1");
    let holds_b = Holds {
        names: &[("b0", &m[4]), ("b1", &m[5]), ("b2", &m[6])],
        keys: &[&m[4], &m[5]],
    };
    check(&a, &holds_a, "a, obs off");
    check(&b, &holds_b, "b, obs off");
}
