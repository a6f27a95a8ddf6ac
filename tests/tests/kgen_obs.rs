//! The RowClass bind publishes its bucket occupancy and
//! compressed-index selection through the obs registry, `Auto` its
//! picks, and a replaying plan its captures and passes, so all are
//! visible on the `/metrics` scrape page. This file enables the
//! process-global obs switch, which is why it lives alone in its own
//! test binary.

use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_sparse::{Csr, PlusTimes};
use std::sync::Mutex;

type Plan = SpgemmPlan<PlusTimes<f64>>;

/// Every dense-kernel bind touches the replay counters: the tests that
/// bind one take turns, so each reads the counters as only it moved
/// them.
static DENSE_BINDS: Mutex<()> = Mutex::new(());

/// The value of `series` on the scrape `page` (0 before its first
/// sample).
fn sample(page: &str, series: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

/// A square matrix whose self-product populates every row class:
/// row groups of 1/4/10/80 entries over 512 columns give flop counts
/// of 4–320 against `dense_cutoff(512) = 128`.
fn all_classes(n: usize) -> Csr<f64> {
    let mut tri = Vec::new();
    for i in 0..n {
        let nnz = [1usize, 4, 10, 80][i % 4];
        for t in 0..nnz {
            let j = ((i / 4 + t) % (n / 4)) * 4 + 1;
            tri.push((i, j as u32, 1.0 + (i + t) as f64));
        }
    }
    Csr::from_triplets(n, n, &tri).expect("valid triplets")
}

#[test]
fn rowclass_plan_counters_reach_the_scrape_page() {
    spgemm_obs::enable();
    let a = all_classes(512);
    let pool = Pool::new(2);
    let _plan = Plan::new_in(&a, &a, Algorithm::RowClass, OutputOrder::Sorted, &pool)
        .expect("RowClass plan");

    let page = spgemm_obs::openmetrics::render();
    // `plan.rowclass.tiny` renders as `spgemm_plan_rowclass_tiny`
    // (sanitize + NAME_PREFIX); 512 columns < 2^16, so the bind also
    // picks the compressed u16 index copies for both operands.
    for name in [
        "spgemm_plan_rowclass_tiny",
        "spgemm_plan_rowclass_short",
        "spgemm_plan_rowclass_medium",
        "spgemm_plan_rowclass_dense",
        "spgemm_plan_rowclass_cols16",
    ] {
        assert!(page.contains(name), "{name} missing from scrape:\n{page}");
    }
    assert!(page.ends_with("# EOF\n"), "scrape page must be terminated");
}

/// Every `Auto` resolution is counted under the kernel it picked, with
/// the dense accumulator's footprint and the L2 share it was held
/// against as gauges — and the pick is the same at every pool width.
#[test]
fn auto_resolutions_reach_the_scrape_page() {
    let _turn = DENSE_BINDS.lock().unwrap_or_else(|e| e.into_inner());
    spgemm_obs::enable();
    let a = all_classes(512);
    for nt in 1..=3 {
        let plan = Plan::new_in(&a, &a, Algorithm::Auto, OutputOrder::Sorted, &Pool::new(nt))
            .expect("Auto plan");
        assert_eq!(plan.algorithm(), Algorithm::Spa, "{nt} threads");
    }
    let page = spgemm_obs::openmetrics::render();
    let footprint = spgemm::cost::spa_footprint_bytes(512, 8);
    for line in [
        "spgemm_plan_auto_spa_total{cat=\"plan\"} 3".to_owned(),
        format!("spgemm_plan_auto_spa_footprint_bytes{{cat=\"plan\"}} {footprint}"),
        format!(
            "spgemm_plan_auto_l2_share_bytes{{cat=\"plan\"}} {}",
            spgemm::cost::l2_share_bytes()
        ),
    ] {
        assert!(
            page.contains(&line),
            "{line:?} missing from scrape:\n{page}"
        );
    }
}

/// A dense-kernel plan captures its column pattern at bind and replays
/// it from its first execution: one capture and three replayed passes
/// on the scrape page, the pattern's bytes (`u16` entries at this
/// width) in the plan's own `owned_bytes` — and a rebind to an empty
/// product gives the bytes back.
#[test]
fn replay_counters_reach_the_scrape_page_and_a_rebind_zeroes_the_gauge() {
    let _turn = DENSE_BINDS.lock().unwrap_or_else(|e| e.into_inner());
    spgemm_obs::enable();
    let captures = "spgemm_plan_replay_captures_total{cat=\"plan\"}";
    let passes = "spgemm_plan_replay_passes_total{cat=\"plan\"}";
    let before = spgemm_obs::openmetrics::render();
    let a = all_classes(512);
    let pool = Pool::new(2);
    let mut plan = Plan::new_in(&a, &a, Algorithm::Spa, OutputOrder::Unsorted, &pool).unwrap();
    let mut c = Csr::zero(0, 0);
    for _ in 0..3 {
        plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
    }
    let page = spgemm_obs::openmetrics::render();
    assert_eq!(sample(&page, captures) - sample(&before, captures), 1);
    assert_eq!(sample(&page, passes) - sample(&before, passes), 3);
    // Past the pattern, a plan holds its analysis (per-row flops, the
    // partition's offsets) and row pointers, 8 B per entry.
    let analysis = |rows: usize| 8 * (rows + (pool.nthreads() + 1) + (rows + 1));
    assert_eq!(plan.owned_bytes(), analysis(512) + 2 * c.nnz());
    plan.rebind_in(&Csr::zero(512, 512), &Csr::zero(512, 512), &pool)
        .unwrap();
    assert_eq!(plan.owned_bytes(), analysis(512), "no pattern entries");
    let page = spgemm_obs::openmetrics::render();
    assert_eq!(sample(&page, captures) - sample(&before, captures), 2);
}
