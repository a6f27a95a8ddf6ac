//! The RowClass bind publishes its bucket occupancy and
//! compressed-index selection through the obs registry, `Auto` its
//! picks, and a replaying plan its captures, passes and pattern bytes,
//! so all are visible on the `/metrics` scrape page. This file enables the
//! process-global obs switch, which is why it lives alone in its own
//! test binary.

use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_sparse::{Csr, PlusTimes};

type Plan = SpgemmPlan<PlusTimes<f64>>;

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

/// A dense-kernel plan's third execution is a replay of the column
/// pattern its second one left: one capture, one replayed pass and the
/// pattern's bytes (`u16` entries at this width) on the scrape page —
/// and a rebind gives the bytes back. (No other test of this binary
/// executes a plan, so the sites read exactly.)
#[test]
fn replay_counters_reach_the_scrape_page_and_a_rebind_zeroes_the_gauge() {
    spgemm_obs::enable();
    let a = all_classes(512);
    let pool = Pool::new(2);
    let mut plan = Plan::new_in(&a, &a, Algorithm::Spa, OutputOrder::Unsorted, &pool).unwrap();
    let mut c = Csr::zero(0, 0);
    for _ in 0..3 {
        plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
    }
    let page = spgemm_obs::openmetrics::render();
    for line in [
        "spgemm_plan_replay_captures_total{cat=\"plan\"} 1".to_owned(),
        "spgemm_plan_replay_passes_total{cat=\"plan\"} 1".to_owned(),
        format!(
            "spgemm_plan_replay_pattern_bytes{{cat=\"plan\"}} {}",
            2 * c.nnz()
        ),
    ] {
        assert!(
            page.contains(&line),
            "{line:?} missing from scrape:\n{page}"
        );
    }
    plan.rebind_in(&a, &a, &pool).unwrap();
    let page = spgemm_obs::openmetrics::render();
    let zero = "spgemm_plan_replay_pattern_bytes{cat=\"plan\"} 0";
    assert!(page.contains(zero), "{zero:?} missing from scrape:\n{page}");
}
