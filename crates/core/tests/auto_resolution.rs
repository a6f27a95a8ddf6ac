//! The `Algorithm::Auto` resolution contract over the representative
//! scenarios — square, `L · U` and tall-skinny, each sorted and
//! unsorted: `Auto` is exactly the footprint rule
//! (`recipe::static_select` = `cost::select` at the machine's L2
//! share), and a product requested as `Auto` is the reference product.

use spgemm::recipe::{self, auto_context};
use spgemm::{Algorithm, OutputOrder};
use spgemm_gen::{perm, rmat, tallskinny, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{ops, Csr, PlusTimes};

/// The representative input roster: (label, A, B) covering square,
/// L·U, and tall-skinny, in sorted and unsorted variants, at 64 rows.
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
fn static_select_picks_what_the_footprint_rule_says() {
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
fn multiply_with_auto_matches_reference() {
    let pool = Pool::new(2);
    let a = rmat::generate_kind(RmatKind::Er, 6, 4, &mut spgemm_gen::rng(3));
    let product = |algo| {
        spgemm::multiply_in::<PlusTimes<f64>>(&a, &a, algo, OutputOrder::Sorted, &pool).unwrap()
    };
    let reference = product(Algorithm::Reference);
    let auto = product(Algorithm::Auto);
    assert!(spgemm_sparse::approx_eq_f64(&reference, &auto, 1e-12));
}
