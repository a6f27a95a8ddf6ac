//! Which passes a product runs, read from the `plan.*` spans: a one-shot
//! `multiply_in` of every kernel but the `Reference` oracle is a
//! throwaway plan — one symbolic pass, then one numeric pass — and
//! equals that kernel's plan bit for bit, in both orders. One test,
//! alone in its binary, because span counts are process-wide.

use spgemm::{multiply_in, Algorithm, OutputOrder, SpgemmPlan};
use spgemm_obs as obs;
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, PlusTimes};

type P = PlusTimes<f64>;

/// `(symbolic, numeric)` plan passes completed since the last reset.
fn passes() -> (u64, u64) {
    let count = |name| {
        let spans = obs::span_stats();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    };
    (count("plan.symbolic"), count("plan.numeric"))
}

#[test]
fn every_oneshot_runs_one_symbolic_and_one_numeric_pass() {
    let mut rng = spgemm_gen::rng(3);
    let a = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 8, 6, &mut rng);
    let pool = Pool::new(2);
    obs::enable();
    for algo in Algorithm::ALL {
        if algo == Algorithm::Reference {
            continue;
        }
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            obs::reset();
            let oneshot = multiply_in::<P>(&a, &a, algo, order, &pool).unwrap();
            assert_eq!(passes(), (1, 1), "{algo} {order:?}: one-shot");

            obs::reset();
            let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).unwrap();
            assert_eq!(passes(), (1, 0), "{algo} {order:?}: bind");
            let planned = plan.execute_in(&a, &a, &pool).unwrap();
            assert_eq!(passes(), (1, 1), "{algo} {order:?}: execution");
            assert_eq!(plan.algorithm(), algo);
            assert!(bits_eq_f64(&oneshot, &planned), "{algo} {order:?}");
        }
    }
    obs::disable();
}
