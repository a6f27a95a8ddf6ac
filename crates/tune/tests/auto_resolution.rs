//! End-to-end coverage of the `Algorithm::Auto` resolution contract:
//!
//! * with a calibrated profile installed, `Auto` resolves through the
//!   [`TunedSelector`] for in-grid inputs;
//! * with no profile, `Auto` is exactly the footprint rule
//!   (`recipe::static_select` = `cost::select` at the machine's L2
//!   share) — Table 4 stays pinned as the table, off `Auto`'s path;
//! * both paths are exercised over the representative scenarios —
//!   square, `L · U`, and tall-skinny, each sorted and unsorted.
//!
//! The auto-hook is process-global, so every test serializes on one
//! lock and restores the empty-hook state before releasing it.

use spgemm::recipe::{self, auto_context};
use spgemm::{Algorithm, OutputOrder};
use spgemm_gen::{perm, rmat, tallskinny, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{ops, Csr};
use spgemm_tune::{CalibrationConfig, TunedSelector};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn hook_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The representative input roster: (label, A, B) covering square,
/// L·U, and tall-skinny, in sorted and unsorted variants. Sizes match
/// the quick calibration grid (scale 6 → 64 rows) so the tuned
/// selector is in-bounds.
fn roster() -> Vec<(&'static str, Csr<f64>, Csr<f64>)> {
    let mut rng = spgemm_gen::rng(42);
    let a = rmat::generate_kind(RmatKind::G500, 6, 4, &mut rng);
    let au = perm::randomize_columns(&a, &mut rng);
    let sym = ops::symmetrize_simple(&a).unwrap();
    let (l, u) = ops::split_lu(&sym).unwrap();
    let lu_u = perm::randomize_columns(&l, &mut rng);
    let uu = perm::randomize_columns(&u, &mut rng);
    let ts = tallskinny::tall_skinny(&a, 4, &mut rng).unwrap();
    let tsu = perm::randomize_columns(&ts, &mut rng);
    vec![
        ("square-sorted", a.clone(), a.clone()),
        ("square-unsorted", au.clone(), au),
        ("lxu-sorted", l, u),
        ("lxu-unsorted", lu_u, uu),
        ("tall-skinny-sorted", a, ts),
        (
            "tall-skinny-unsorted",
            rmat::generate_kind(RmatKind::G500, 6, 4, &mut rng),
            tsu,
        ),
    ]
}

#[test]
fn without_profile_auto_is_exactly_the_static_recipe() {
    let _guard = hook_lock();
    recipe::clear_auto_hook();
    for (label, a, b) in roster() {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let ctx = auto_context(&a, &b, order);
            assert_eq!(
                recipe::auto_select(&a, &b, order),
                recipe::static_select(&ctx),
                "{label} {order:?}"
            );
        }
    }
}

#[test]
fn static_recipe_picks_expected_table4_algorithms() {
    // Pin the concrete Table-4b cells for the roster so a regression
    // in either auto_context or the table is visible. The G500 scale-6
    // ef-4 generator measures an edge factor ≤ 8, so Table 4b's
    // "sparse" column applies to the square cases whichever way the
    // pattern classifies.
    let roster = roster();
    let cell = |i: usize, order| {
        let ctx = auto_context(&roster[i].1, &roster[i].2, order);
        recipe::recommend_synthetic(ctx.op, ctx.pattern, ctx.edge_factor, ctx.order)
    };
    // square: sparse skewed → Heap (sorted out), HashVec (unsorted)
    for i in [0, 1] {
        assert_eq!(cell(i, OutputOrder::Sorted), Algorithm::Heap);
        assert_eq!(cell(i, OutputOrder::Unsorted), Algorithm::HashVec);
    }
    // tall-skinny sorted, skewed sparse → Hash both ways (Table 4b)
    assert_eq!(cell(4, OutputOrder::Sorted), Algorithm::Hash);
    assert_eq!(cell(4, OutputOrder::Unsorted), Algorithm::Hash);
}

#[test]
fn static_select_picks_what_the_footprint_rule_says() {
    let _guard = hook_lock();
    recipe::clear_auto_hook();
    // 64 output columns at most: the dense accumulator is under 1 KiB
    // and fits any L2 share, so every roster cell resolves to the SPA;
    // with nothing fitting (a share of 0) the same contexts fall to
    // the equations — Hash, or Heap where its contract holds.
    for (label, a, b) in roster() {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let ctx = auto_context(&a, &b, order);
            assert_eq!(
                recipe::auto_select(&a, &b, order),
                Algorithm::Spa,
                "{label} {order:?}"
            );
            let sparse = spgemm::cost::select(&ctx, 0);
            assert!(recipe::pick_admissible(&ctx, sparse), "{label} {order:?}");
            assert!(
                matches!(sparse, Algorithm::Hash | Algorithm::Heap),
                "{label} {order:?}: {sparse}"
            );
            if !ctx.sorted_inputs || !order.is_sorted() {
                assert_eq!(sparse, Algorithm::Hash, "{label} {order:?}");
            }
        }
    }
}

#[test]
fn with_profile_auto_resolves_through_the_tuned_selector() {
    let _guard = hook_lock();
    let pool = Pool::new(2);
    let profile = spgemm_tune::calibrate(&CalibrationConfig::quick(), &pool);
    let selector = TunedSelector::new(profile);
    selector.install();

    let mut consulted = 0usize;
    for (label, a, b) in roster() {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let ctx = auto_context(&a, &b, order);
            let auto_pick = recipe::auto_select(&a, &b, order);
            match selector.select(&ctx) {
                Some(tuned_pick) => {
                    consulted += 1;
                    assert_eq!(
                        auto_pick, tuned_pick,
                        "{label} {order:?} must use the profile"
                    );
                }
                None => {
                    assert_eq!(
                        auto_pick,
                        recipe::static_select(&ctx),
                        "{label} {order:?} outside grid must fall back"
                    );
                }
            }
        }
    }
    // The quick calibration covers the square and tall-skinny cells of
    // this roster; if nothing consulted the profile the test is vacuous.
    assert!(consulted >= 6, "profile consulted only {consulted} times");
    spgemm_tune::uninstall();
    assert!(!spgemm_tune::installed());
}

#[test]
fn out_of_grid_input_falls_back_even_with_profile() {
    let _guard = hook_lock();
    let pool = Pool::new(1);
    // Calibrated at 64 rows; a 4096-row input is 64× larger — outside
    // the ×4 margin, so Auto must take the static path.
    let profile = spgemm_tune::calibrate(&CalibrationConfig::quick(), &pool);
    let selector = TunedSelector::new(profile);
    selector.install();
    let mut rng = spgemm_gen::rng(7);
    let big = rmat::generate_kind(RmatKind::Er, 12, 4, &mut rng);
    let ctx = auto_context(&big, &big, OutputOrder::Sorted);
    assert_eq!(
        selector.select(&ctx),
        None,
        "must be outside the calibrated grid"
    );
    assert_eq!(
        recipe::auto_select(&big, &big, OutputOrder::Sorted),
        recipe::static_select(&ctx)
    );
    spgemm_tune::uninstall();
}

#[test]
fn multiply_with_auto_works_under_both_regimes() {
    let _guard = hook_lock();
    let pool = Pool::new(2);
    let mut rng = spgemm_gen::rng(3);
    let a = rmat::generate_kind(RmatKind::Er, 6, 4, &mut rng);
    let reference = spgemm::multiply_in::<spgemm_sparse::PlusTimes<f64>>(
        &a,
        &a,
        Algorithm::Reference,
        OutputOrder::Sorted,
        &pool,
    )
    .unwrap();

    recipe::clear_auto_hook();
    let static_c = spgemm::multiply_in::<spgemm_sparse::PlusTimes<f64>>(
        &a,
        &a,
        Algorithm::Auto,
        OutputOrder::Sorted,
        &pool,
    )
    .unwrap();
    assert!(spgemm_sparse::approx_eq_f64(&reference, &static_c, 1e-12));

    let profile = spgemm_tune::calibrate(&CalibrationConfig::quick(), &pool);
    TunedSelector::new(profile).install();
    let tuned_c = spgemm::multiply_in::<spgemm_sparse::PlusTimes<f64>>(
        &a,
        &a,
        Algorithm::Auto,
        OutputOrder::Sorted,
        &pool,
    )
    .unwrap();
    assert!(spgemm_sparse::approx_eq_f64(&reference, &tuned_c, 1e-12));
    spgemm_tune::uninstall();
}

#[test]
fn saved_profile_round_trips_through_the_store() {
    let _guard = hook_lock();
    let pool = Pool::new(1);
    let mut profile = spgemm_tune::calibrate(&CalibrationConfig::quick(), &pool);
    // Pin the persistence key fields so the test controls the path.
    profile.hostname = "itest-host".into();
    let dir = std::env::temp_dir().join(format!("spgemm-tune-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    std::fs::write(&path, profile.to_json()).unwrap();
    let back = spgemm_tune::store::load_from(&path).unwrap();
    assert_eq!(back, profile);
    // identical decisions over the whole roster
    let a = TunedSelector::new(profile);
    let b = TunedSelector::new(back);
    for (label, x, y) in roster() {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let ctx = auto_context(&x, &y, order);
            assert_eq!(a.select(&ctx), b.select(&ctx), "{label} {order:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
