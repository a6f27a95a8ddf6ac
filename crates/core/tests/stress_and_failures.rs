//! Stress and failure-injection tests for the kernel stack: repeated
//! multiplies on shared pools, degenerate shapes, adversarial
//! structures, and contract violations.

use spgemm::{multiply_in, Algorithm, OutputOrder, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_sparse::{
    approx_eq_f64, bits_eq_f64, ColIdx, Coo, Csr, PlusTimes, Semiring, SparseError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};

type P = PlusTimes<f64>;

#[test]
fn repeated_multiplies_on_one_pool_are_stable() {
    let pool = Pool::new(3);
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 8, 8, &mut spgemm_gen::rng(1));
    let first = multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    for round in 0..50 {
        let again = multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(first, again, "round {round}: nondeterminism detected");
    }
}

#[test]
fn alternating_algorithms_share_a_pool() {
    let pool = Pool::new(2);
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, 8, 6, &mut spgemm_gen::rng(2));
    let oracle = spgemm::algos::reference::multiply::<P>(&a, &a);
    for round in 0..30 {
        let algo = [
            Algorithm::Hash,
            Algorithm::Heap,
            Algorithm::Merge,
            Algorithm::KkHash,
        ][round % 4];
        let c = multiply_in::<P>(&a, &a, algo, OutputOrder::Sorted, &pool).unwrap();
        assert!(approx_eq_f64(&oracle, &c, 1e-9), "round {round} ({algo})");
    }
}

#[test]
fn degenerate_shapes() {
    let pool = Pool::new(2);
    // 1x1
    let one = Csr::from_triplets(1, 1, &[(0, 0, 3.0)]).unwrap();
    for algo in [Algorithm::Hash, Algorithm::Heap, Algorithm::Spa] {
        let c = multiply_in::<P>(&one, &one, algo, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.get(0, 0), Some(&9.0), "{algo}");
    }
    // 0xN and Nx0
    let tall = Csr::<f64>::zero(5, 0);
    let wide = Csr::<f64>::zero(0, 5);
    let c = multiply_in::<P>(&tall, &wide, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    assert_eq!(c.shape(), (5, 5));
    assert_eq!(c.nnz(), 0);
    // inner dimension zero but outer nonzero
    let c = multiply_in::<P>(&wide, &tall, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    assert_eq!(c.shape(), (0, 0));
}

#[test]
fn single_dense_row_into_dense_column() {
    // one row of A containing every column; B a dense column — the
    // maximal-fan-in accumulation with a single output entry
    let n = 512usize;
    let a_trips: Vec<(usize, ColIdx, f64)> = (0..n).map(|k| (0, k as u32, 1.0)).collect();
    let a = Csr::from_triplets(1, n, &a_trips).unwrap();
    let b_trips: Vec<(usize, ColIdx, f64)> = (0..n).map(|k| (k, 0, 2.0)).collect();
    let b = Csr::from_triplets(n, 1, &b_trips).unwrap();
    let pool = Pool::new(2);
    for algo in [
        Algorithm::Hash,
        Algorithm::HashVec,
        Algorithm::Heap,
        Algorithm::Spa,
        Algorithm::Merge,
        Algorithm::KkHash,
        Algorithm::Inspector,
    ] {
        let c = multiply_in::<P>(&a, &b, algo, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.nnz(), 1, "{algo}");
        assert_eq!(c.get(0, 0), Some(&(2.0 * n as f64)), "{algo}");
    }
}

#[test]
fn pathological_hash_keys_still_correct() {
    // columns spaced by large powers of two cluster in low-bit-masked
    // hash tables — correctness must survive worst-case probing
    let n = 1 << 14;
    let stride = 1 << 9;
    let cols: Vec<ColIdx> = (0..24u32).map(|k| k * stride).collect();
    let mut coo = Coo::new(4, n).unwrap();
    for (i, &c) in cols.iter().enumerate() {
        coo.push(i % 4, c, 1.0).unwrap();
    }
    // B maps every clustered column back onto the same few outputs
    let mut bcoo = Coo::new(n, 8).unwrap();
    for &c in &cols {
        bcoo.push(c as usize, c % 8, 1.0).unwrap();
    }
    let a = coo.into_csr_sum();
    let b = bcoo.into_csr_sum();
    let oracle = spgemm::algos::reference::multiply::<P>(&a, &b);
    let pool = Pool::new(2);
    for algo in [Algorithm::Hash, Algorithm::HashVec, Algorithm::KkHash] {
        let c = multiply_in::<P>(&a, &b, algo, OutputOrder::Sorted, &pool).unwrap();
        assert!(approx_eq_f64(&oracle, &c, 1e-12), "{algo}");
    }
}

#[test]
fn contract_violations_reported_not_panicked() {
    let pool = Pool::new(1);
    let a = Csr::<f64>::zero(3, 4);
    let b = Csr::<f64>::zero(5, 3);
    let r = multiply_in::<P>(&a, &b, Algorithm::Hash, OutputOrder::Sorted, &pool);
    assert!(matches!(r, Err(SparseError::ShapeMismatch { .. })));

    // a multi-entry row is required: single-entry rows remain sorted
    // under any column relabelling
    let sorted = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 1, 2.0), (1, 2, 1.0)]).unwrap();
    let unsorted = spgemm_sparse::ops::permute_cols(&sorted, &[2, 1, 0]).unwrap();
    assert!(!unsorted.is_sorted());
    for algo in [Algorithm::Heap, Algorithm::Merge] {
        let r = multiply_in::<P>(&unsorted, &unsorted, algo, OutputOrder::Sorted, &pool);
        assert!(matches!(r, Err(SparseError::Unsorted { .. })), "{algo}");
    }
}

#[test]
fn oversubscribed_pool_correctness() {
    // many more workers than cores: scheduling still covers all rows
    let pool = Pool::new(16);
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 9, 8, &mut spgemm_gen::rng(4));
    let oracle = spgemm::algos::reference::multiply::<P>(&a, &a);
    for algo in [Algorithm::Hash, Algorithm::Heap, Algorithm::Inspector] {
        let c = multiply_in::<P>(&a, &a, algo, OutputOrder::Sorted, &pool).unwrap();
        assert!(approx_eq_f64(&oracle, &c, 1e-9), "{algo}");
    }
}

#[test]
fn wide_value_types_and_semirings() {
    use spgemm_sparse::MaxTimes;
    // max-times over probabilities: widest-path one step
    let a =
        Csr::from_triplets(3, 3, &[(0, 1, 0.5), (0, 2, 0.9), (1, 2, 0.8), (2, 0, 1.0)]).unwrap();
    let pool = Pool::new(2);
    let c = multiply_in::<MaxTimes>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    let oracle = spgemm::algos::reference::multiply::<MaxTimes>(&a, &a);
    assert!(c.eq_unordered_by(&oracle, |x, y| (x - y).abs() < 1e-12));
    // path 0->2->0 gives (0,0) = max over k of a0k * ak0 = 0.9 * 1.0
    assert_eq!(c.get(0, 0), Some(&0.9));
}

#[test]
fn u64_counting_semiring_exact() {
    use spgemm_sparse::PlusTimes;
    // counting walks of length 2 in a small functional graph: exact
    // integer arithmetic end-to-end
    let a = Csr::from_triplets(4, 4, &[(0, 1, 1u64), (1, 2, 1), (2, 3, 1), (3, 0, 1)]).unwrap();
    let pool = Pool::new(2);
    let c =
        multiply_in::<PlusTimes<u64>>(&a, &a, Algorithm::Heap, OutputOrder::Sorted, &pool).unwrap();
    assert_eq!(c.nnz(), 4);
    assert_eq!(c.get(0, 2), Some(&1));
    assert_eq!(c.get(3, 1), Some(&1));
}

/// A G500 square salted with `-0.0` / NaN / ±inf, and a dense-kernel
/// plan of its square that has run `passes` times — replays of the
/// column pattern its bind wrote, every one.
fn warmed_plan<S: Semiring<Elem = f64>>(
    passes: usize,
    pool: &Pool,
) -> (Csr<f64>, SpgemmPlan<S>, Csr<f64>) {
    let kind = spgemm_gen::RmatKind::G500;
    let a = spgemm_gen::rmat::generate_kind(kind, 8, 8, &mut spgemm_gen::rng(22));
    let salt = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let (cols, n) = (a.cols().to_vec(), a.ncols());
    let vals = a.vals().iter().enumerate().map(|(at, &v)| match at % 11 {
        0 => salt[at / 11 % 4],
        _ => v,
    });
    let a = Csr::from_parts(n, n, a.rpts().to_vec(), cols, vals.collect()).unwrap();
    let plan = SpgemmPlan::<S>::new_in(&a, &a, Algorithm::Spa, OutputOrder::Sorted, pool).unwrap();
    let mut c = Csr::zero(0, 0);
    for _ in 0..passes {
        plan.execute_into_in(&a, &a, &mut c, pool).unwrap();
    }
    assert!(plan.replays());
    (a, plan, c)
}

/// Operands of the planned shape and `nnz` but another structure are a
/// contract violation the per-execute checks cannot see. A replaying
/// plan scatters them into slots its pattern never gathers: the call
/// returns *a* matrix (or panics) without touching memory it does not
/// own, and the residue is gone from the next execution — the
/// accumulator refills every slot with the seed before a replay that
/// follows any numeric pass.
#[test]
fn a_structure_swap_under_a_replaying_plan_does_not_leak_into_the_next_execution() {
    for nt in [1usize, 2] {
        let pool = Pool::new(nt);
        let (a, plan, expect) = warmed_plan::<P>(3, &pool);
        let relabel: Vec<ColIdx> = (0..a.ncols() as ColIdx).rev().collect();
        let swapped = spgemm_sparse::ops::permute_cols(&a, &relabel).unwrap();
        assert_eq!((swapped.shape(), swapped.nnz()), (a.shape(), a.nnz()));
        assert_ne!(swapped.structure_fingerprint(), a.structure_fingerprint());
        let passes = |plan: &SpgemmPlan<P>| plan.workspace_stats().acquisitions();
        let before = passes(&plan);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            plan.execute_in(&swapped, &swapped, &pool)
        }));
        assert!(plan.replays(), "the violating pass was a replay");
        assert!(passes(&plan) > before, "the violating pass ran");
        let got = plan.execute_in(&a, &a, &pool).unwrap();
        assert!(bits_eq_f64(&got, &expect), "nt={nt}");
    }
}

/// `(+, ×)` on `f64` whose `mul` panics on a spawned pool worker when
/// the fuse burns down to zero (a negative fuse is inert).
struct Tripwire;
static FUSE: AtomicI64 = AtomicI64::new(-1);
thread_local! {
    static IS_CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Semiring for Tripwire {
    type Elem = f64;
    fn zero() -> f64 {
        0.0
    }
    fn seed() -> Option<f64> {
        P::seed()
    }
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    fn mul(a: f64, b: f64) -> f64 {
        if !IS_CALLER.get() && FUSE.load(Ordering::Relaxed) >= 0 {
            assert!(FUSE.fetch_sub(1, Ordering::Relaxed) != 0, "tripwire");
        }
        a * b
    }
}

/// A worker that panics in the middle of a replayed pass fails that
/// call only: the panic surfaces on the caller, the pool and the plan
/// survive, and the half-scattered row the worker abandoned is scrubbed
/// before its accumulator runs again.
#[test]
fn a_worker_panic_mid_replay_fails_one_call_only() {
    IS_CALLER.set(true);
    let pool = Pool::new(2);
    let (a, plan, expect) = warmed_plan::<Tripwire>(3, &pool);
    // Worker 1 owns about half of the flops: a fuse of a tenth of them
    // burns out well inside its share, partway through some row.
    let flops = plan.stats().total_flop as i64;
    FUSE.store(flops / 10, Ordering::Relaxed);
    let mut c = expect.clone();
    let failed = catch_unwind(AssertUnwindSafe(|| {
        plan.execute_into_in(&a, &a, &mut c, &pool)
    }));
    let fuse_left = FUSE.swap(-1, Ordering::Relaxed);
    assert!(
        failed.is_err() && fuse_left < 0,
        "the tripwire fired on worker 1"
    );
    for round in 0..2 {
        plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
        assert!(bits_eq_f64(&c, &expect), "round {round} after the panic");
    }
    assert!(plan.replays(), "still replaying");
}

/// `(+, ×)` on `f64` whose `mul` panics on a spawned pool worker when
/// it meets [`TRAP`]: no state shared with [`Tripwire`]'s tests.
struct Trap;
const TRAP: f64 = 13.0;

impl Semiring for Trap {
    type Elem = f64;
    fn zero() -> f64 {
        0.0
    }
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    fn mul(a: f64, b: f64) -> f64 {
        assert!(IS_CALLER.get() || a != TRAP, "trap");
        a * b
    }
}

/// A worker that panics inside a one-shot product's numeric pass (Heap's
/// throwaway plan: its symbolic merge reads no values, so the trap
/// springs in the numeric one) fails that call only: the next product
/// on the same pool is exact.
#[test]
fn a_worker_panic_mid_numeric_pass_fails_one_call_only() {
    IS_CALLER.set(true);
    let pool = Pool::new(2);
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, 8, 4, &mut spgemm_gen::rng(5));
    let trapped = a.map(|_| TRAP);
    let heap =
        |m: &Csr<f64>| multiply_in::<Trap>(m, m, Algorithm::Heap, OutputOrder::Sorted, &pool);
    let expect = heap(&a).unwrap();
    let failed = catch_unwind(AssertUnwindSafe(|| heap(&trapped)));
    assert!(failed.is_err(), "worker 1 met the trap");
    for round in 0..2 {
        let got = heap(&a).unwrap();
        assert!(bits_eq_f64(&got, &expect), "round {round} after the panic");
    }
}

/// Two threads executing one `&SpgemmPlan` on a shared pool, released
/// together round after round from the plan's first pass on — so their
/// replays of the pattern the bind captured interleave from the first —
/// both read exact products every time.
#[test]
fn two_threads_share_one_plan_across_the_capture() {
    let pool = Pool::new(2);
    let (a, _, expect) = warmed_plan::<P>(1, &pool);
    let plan =
        SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Auto, OutputOrder::Sorted, &pool).unwrap();
    let gate = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2 {
            let (plan, a, pool, gate, expect) = (&plan, &a, &pool, &gate, &expect);
            s.spawn(move || {
                let mut c = Csr::zero(0, 0);
                for round in 0..6 {
                    gate.wait();
                    plan.execute_into_in(a, a, &mut c, pool).unwrap();
                    assert!(bits_eq_f64(&c, expect), "thread {t} round {round}");
                }
            });
        }
    });
    assert!(plan.replays() && plan.workspace_stats().acquisitions() >= 12);
}
