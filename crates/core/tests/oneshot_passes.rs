//! Which passes a product runs, read from the `plan.*` spans: a one-shot
//! Heap or Inspector product is one staged pass and no symbolic pass; a
//! plan of either runs its symbolic pass at the bind and a numeric pass
//! per execution, to the same bits. One test, alone in its binary,
//! because span counts are process-wide.

use spgemm::{multiply_in, Algorithm, OutputOrder, SpgemmPlan};
use spgemm_obs as obs;
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, PlusTimes};

type P = PlusTimes<f64>;

/// `(staged, symbolic, numeric)` plan passes completed since the last
/// reset.
fn passes() -> (u64, u64, u64) {
    let count = |name| {
        let spans = obs::span_stats();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    };
    (
        count("plan.staged"),
        count("plan.symbolic"),
        count("plan.numeric"),
    )
}

#[test]
fn oneshot_heap_and_inspector_run_one_staged_pass_and_no_symbolic_pass() {
    let mut rng = spgemm_gen::rng(3);
    let a = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 8, 6, &mut rng);
    let pool = Pool::new(2);
    obs::enable();
    for algo in [Algorithm::Heap, Algorithm::Inspector] {
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            obs::reset();
            let oneshot = multiply_in::<P>(&a, &a, algo, order, &pool).unwrap();
            assert_eq!(passes(), (1, 0, 0), "{algo} {order:?}: one-shot");

            obs::reset();
            let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).unwrap();
            assert_eq!(passes(), (0, 1, 0), "{algo} {order:?}: bind");
            let planned = plan.execute_in(&a, &a, &pool).unwrap();
            assert_eq!(passes(), (0, 1, 1), "{algo} {order:?}: execution");
            assert_eq!(plan.algorithm(), algo);
            assert!(bits_eq_f64(&oneshot, &planned), "{algo} {order:?}");
        }
    }
    obs::disable();
}
