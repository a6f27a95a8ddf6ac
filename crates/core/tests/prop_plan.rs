//! Single-driver parity properties. Every product runs the one
//! row-pass driver of `spgemm::exec`; these pin down that every
//! *route* into it — the one-shot `multiply_in` (a throwaway plan), a
//! plan's first and later (numeric-only) executions, RowClass's
//! bucketed passes, the masked product and a plan's dirty-masked
//! recompute — produces the same bytes (NaN
//! payloads aside, see `bits_eq`), on inputs that include NaN, ±0.0
//! and ±inf, and that repeated executions are deterministic — including
//! a dense-kernel plan's, every one of which replays the column pattern
//! its bind emitted.

use proptest::prelude::*;
use spgemm::{algos, multiply_in, multiply_masked};
use spgemm::{Algorithm, DirtyRows, OutputOrder, PlanCache, RowPatch, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, ops, ColIdx, Coo, Csr, MaxTimes, OrAnd, PlusTimes, Semiring};

type P = PlusTimes<f64>;

/// The kernels that sum each output column in ascending-`k` (operand
/// storage) order and emit first-encounter or ascending columns: for
/// sorted operands their outputs are bit-identical to one another
/// under both orders, and to `Reference` when sorted.
const ASCENDING_K: [Algorithm; 6] = [
    Algorithm::Hash,
    Algorithm::HashVec,
    Algorithm::Spa,
    Algorithm::KkHash,
    Algorithm::Ikj,
    Algorithm::RowClass,
];

/// The one-shot route: a throwaway plan, fresh accumulators.
fn oneshot(
    a: &Csr<f64>,
    b: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
) -> Csr<f64> {
    multiply_in::<P>(a, b, algo, order, pool).unwrap()
}

/// Same shape, sortedness and structure, and values equal under `eq`.
fn same_by<E: Copy>(a: &Csr<E>, b: &Csr<E>, eq: impl Fn(E, E) -> bool) -> bool {
    a.shape() == b.shape()
        && a.is_sorted() == b.is_sorted()
        && a.rpts() == b.rpts()
        && a.cols() == b.cols()
        && a.vals().iter().zip(b.vals()).all(|(&x, &y)| eq(x, y))
}

/// [`bits_eq_f64`]'s value rule as a [`same_by`] predicate: value
/// **bits**, any NaN matching any NaN (seen in release builds:
/// `0x7ff8…` from RowClass's insertion array where Hash gives
/// `0xfff8…`).
fn f64_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Square matrices whose values are mostly ordinary reals with NaN,
/// ±0.0 and ±inf mixed in (so infinities of both signs, stored zeros
/// and NaNs meet inside one output sum).
fn arb_square(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (2..=max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -3.0f64..3.0, 0u8..16), 0..=max_nnz).prop_map(
            move |trips| {
                let mut coo = Coo::new(n, n).unwrap();
                for (r, c, v, special) in trips {
                    let v = match special {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => 0.0,
                        3 => f64::INFINITY,
                        4 => f64::NEG_INFINITY,
                        _ => v,
                    };
                    coo.push(r, c as ColIdx, v).unwrap();
                }
                coo.into_csr_sum()
            },
        )
    })
}

/// `a` as wrapping `u64` counts, its NaNs and infinities at the top of
/// the range.
fn as_counts(a: &Csr<f64>) -> Csr<u64> {
    a.map(|v| match v {
        v if v.is_nan() => u64::MAX,
        v if v.is_infinite() => 1 << 63,
        v => (v * 1000.0) as i64 as u64,
    })
}

/// One plan of `a · a` per `{Spa, Auto} × order × {1, 2, 3}` threads,
/// executed five times through its three entry points, every one a
/// replay of the pattern the bind emitted. Every output has the bits of
/// the first and — rows sorted — of `Reference`, and the pool counters
/// say the replays ran on the accumulators the symbolic pass built.
fn replay_parity<S: Semiring>(
    a: &Csr<S::Elem>,
    eq: fn(S::Elem, S::Elem) -> bool,
) -> Result<(), TestCaseError> {
    let oracle = algos::reference::multiply::<S>(a, a);
    let n = a.nrows();
    for nt in 1..=3usize {
        let pool = Pool::new(nt);
        for algo in [Algorithm::Spa, Algorithm::Auto] {
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let at = format!("{algo} {order:?} nt={nt}");
                let plan = SpgemmPlan::<S>::new_in(a, a, algo, order, &pool).unwrap();
                prop_assert_eq!(plan.algorithm(), Algorithm::Spa);
                prop_assert!(plan.replays(), "{}: the bind emits the pattern", at);
                let bound = plan.workspace_stats();
                let first = plan.execute_in(a, a, &pool).unwrap();
                let mut ascending = first.clone();
                ascending.sort_rows();
                prop_assert!(same_by(&ascending, &oracle, eq), "{} vs reference", at);

                let mut c = Csr::zero(0, 0);
                plan.execute_into_in(a, a, &mut c, &pool).unwrap();
                prop_assert!(same_by(&c, &first, eq), "{} (second, reused output)", at);

                let (mut cols, mut vals) = (vec![0; first.nnz()], vec![S::zero(); first.nnz()]);
                plan.execute_into_slices_in(a, a, &mut cols, &mut vals, &pool)
                    .unwrap();
                let rpts = first.rpts().to_vec();
                let third = Csr::from_parts_unchecked(n, n, rpts, cols, vals, first.is_sorted());
                prop_assert!(same_by(&third, &first, eq), "{} (third, into slices)", at);
                let fourth = plan.execute_in(a, a, &pool).unwrap();
                prop_assert!(
                    same_by(&fourth, &first, eq),
                    "{} (fourth, fresh output)",
                    at
                );
                plan.execute_into_in(a, a, &mut c, &pool).unwrap();
                prop_assert!(same_by(&c, &first, eq), "{} (fifth, reused output)", at);

                let now = plan.workspace_stats();
                prop_assert_eq!(now.created, bound.created, "{}: a second pool", at);
                prop_assert!(
                    now.reused >= bound.reused + 5,
                    "{}: five passes, {:?} after {:?}",
                    at,
                    now,
                    bound
                );
                prop_assert!(plan.replays(), "{}: still replaying", at);
            }
        }
    }
    Ok(())
}

/// `(+, ×)` over `u64` whose seed is *not* an identity: `add(MARK, x)`
/// sets the top bit of a small `x`. Never a semiring to compute with —
/// the probe of which pass ran: a replay lands every column's first
/// product on the seed and so marks every value it writes, the stamped
/// pass marks none.
struct Marked;
const MARK: u64 = 1 << 63;

impl Semiring for Marked {
    type Elem = u64;
    fn zero() -> u64 {
        0
    }
    fn seed() -> Option<u64> {
        Some(MARK)
    }
    fn add(a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }
    fn mul(a: u64, b: u64) -> u64 {
        a.wrapping_mul(b)
    }
}

/// One-shot `multiply_in` of `a · a` through the dense kernel, named
/// and through `Auto`, against one-shot Hash: the same bits at
/// `{1, 2, 3}` threads in both orders.
fn oneshot_parity<S: Semiring>(
    a: &Csr<S::Elem>,
    eq: fn(S::Elem, S::Elem) -> bool,
) -> Result<(), TestCaseError> {
    for nt in 1..=3usize {
        let pool = Pool::new(nt);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let hash = multiply_in::<S>(a, a, Algorithm::Hash, order, &pool).unwrap();
            for algo in [Algorithm::Spa, Algorithm::Auto] {
                let got = multiply_in::<S>(a, a, algo, order, &pool).unwrap();
                prop_assert!(same_by(&got, &hash, eq), "{} {:?} nt={}", algo, order, nt);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Numeric replay is byte-identical to the stamped pass it
    /// replaces, on every semiring with a seed: salted `f64` under
    /// `(+, ×)` and `(max, ×)`, wrapping `u64`, and `bool`.
    #[test]
    fn replay_has_the_stamped_bits_on_every_seeded_semiring(a in arb_square(24, 140)) {
        replay_parity::<P>(&a, f64_bits)?;
        replay_parity::<MaxTimes>(&a, f64_bits)?;
        replay_parity::<PlusTimes<u64>>(&as_counts(&a), |x, y| x == y)?;
        replay_parity::<OrAnd>(&a.map(|v| v > 0.0), |x, y| x == y)?;
    }

    /// A one-shot product through the dense kernel (`Spa`, or `Auto`
    /// resolving to it) replays the pattern its throwaway plan's bind
    /// emitted — every value of a [`Marked`] product carries the mark —
    /// and has Hash's bits on all four seeded semirings, at 1–3 threads
    /// in both orders.
    #[test]
    fn oneshot_dense_products_replay_with_the_stamped_bits(a in arb_square(24, 140)) {
        let ones = a.map(|_| 1u64);
        for nt in 1..=3usize {
            let pool = Pool::new(nt);
            for algo in [Algorithm::Spa, Algorithm::Auto] {
                for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                    let c = multiply_in::<Marked>(&ones, &ones, algo, order, &pool).unwrap();
                    let marked = c.vals().iter().all(|&v| v & MARK != 0);
                    prop_assert!(marked, "{} {:?} nt={}: a stamped pass ran", algo, order, nt);
                }
            }
        }
        oneshot_parity::<P>(&a, f64_bits)?;
        oneshot_parity::<MaxTimes>(&a, f64_bits)?;
        oneshot_parity::<PlusTimes<u64>>(&as_counts(&a), |x, y| x == y)?;
        oneshot_parity::<OrAnd>(&a.map(|v| v > 0.0), |x, y| x == y)?;
    }

    /// A full rebind and a row patch, each in the middle of a replaying
    /// sequence: the rebind re-emits the pattern of the *new* product,
    /// the row patch re-emits its dirty rows, and both keep the plan
    /// replaying.
    #[test]
    fn rebinds_drop_the_pattern_mid_sequence(
        a in arb_square(20, 120),
        b in arb_square(20, 120),
    ) {
        let pool = Pool::new(2);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let mut plan = SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Auto, order, &pool).unwrap();
            let three_more = |plan: &SpgemmPlan<P>, m: &Csr<f64>, what: &str| {
                let expect = oneshot(m, m, Algorithm::Hash, order, &pool);
                for round in 0..3 {
                    let got = plan.execute_in(m, m, &pool).unwrap();
                    prop_assert!(bits_eq_f64(&got, &expect), "{} {:?} round {}", what, order, round);
                }
                prop_assert!(plan.replays(), "{} {:?}: replaying", what, order);
                Ok(())
            };
            three_more(&plan, &a, "bound")?;

            plan.rebind_in(&b, &b, &pool).unwrap();
            prop_assert!(plan.replays(), "a rebind re-emits the pattern");
            three_more(&plan, &b, "rebound")?;

            let mut c = plan.execute_in(&b, &b, &pool).unwrap();
            let mut patch = RowPatch::new();
            patch.insert(0, 0, 2.5);
            patch.insert(b.nrows() - 1, 1, -0.0);
            let (b2, dirty) = b.apply_patch(&patch).unwrap();
            let out = plan.rebind_rows_in(&b2, &b2, &dirty, &dirty, &pool).unwrap();
            prop_assert!(plan.replays(), "a row patch keeps the plan replaying");
            plan.execute_rows_in(&b2, &b2, &out, &mut c, &pool).unwrap();
            let expect = oneshot(&b2, &b2, Algorithm::Hash, order, &pool);
            prop_assert!(bits_eq_f64(&c, &expect), "spliced {:?}", order);
            three_more(&plan, &b2, "row-patched")?;
        }
    }

    #[test]
    fn every_route_into_the_driver_agrees_bit_for_bit(a in arb_square(24, 140)) {
        let oracle = algos::reference::multiply::<P>(&a, &a);
        let mask = a.map(|_| 1.0f64);
        for nt in [1usize, 3] {
            let pool = Pool::new(nt);
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let hash = oneshot(&a, &a, Algorithm::Hash, order, &pool);
                for algo in Algorithm::ALL {
                    let expect = oneshot(&a, &a, algo, order, &pool);
                    let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).unwrap();
                    // first execution (the one-shot is a throwaway
                    // plan's bind and first execution)
                    let first = plan.execute_in(&a, &a, &pool).unwrap();
                    prop_assert!(bits_eq_f64(&expect, &first), "{} {:?} nt={} (first)", algo, order, nt);
                    // steady-state numeric-only execution
                    let second = plan.execute_in(&a, &a, &pool).unwrap();
                    prop_assert!(bits_eq_f64(&expect, &second), "{} {:?} nt={} (second)", algo, order, nt);
                    if ASCENDING_K.contains(&algo) {
                        prop_assert!(bits_eq_f64(&expect, &hash), "{} vs hash, {:?} nt={}", algo, order, nt);
                    }
                }
                // The masked product gates the same sums: the full
                // product restricted to the mask (an all-ones mask, so
                // hadamard leaves the value bits alone).
                let mut masked = multiply_masked::<P, f64>(&a, &a, &mask, order, &pool).unwrap();
                if !order.is_sorted() {
                    masked.sort_rows();
                }
                let sorted_hash = oneshot(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool);
                let gated = ops::hadamard(&sorted_hash, &mask).unwrap();
                prop_assert!(bits_eq_f64(&masked, &gated), "masked {:?} nt={}", order, nt);
            }
            let hash = oneshot(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool);
            prop_assert!(bits_eq_f64(&hash, &oracle), "sorted hash vs reference, nt={}", nt);
            // A plan recomputes rows through the driver's masked
            // passes, on this width: all of them from nothing, or a
            // few on top of the product they belong to.
            let n = a.nrows();
            let plan = SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
            let mut from_nothing = Csr::zero(n, n);
            plan.execute_rows_in(&a, &a, &DirtyRows::all(n), &mut from_nothing, &pool).unwrap();
            prop_assert!(bits_eq_f64(&from_nothing, &hash), "recompute all rows, nt={}", nt);
            let mut patched = hash.clone();
            let some = DirtyRows::from_rows(n, (0..n).step_by(3));
            plan.execute_rows_in(&a, &a, &some, &mut patched, &pool).unwrap();
            prop_assert!(bits_eq_f64(&patched, &hash), "recompute every third row, nt={}", nt);
        }
    }

    #[test]
    fn repeated_execute_into_is_deterministic(a in arb_square(20, 120)) {
        let pool = Pool::new(2);
        for algo in Algorithm::ALL {
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).unwrap();
                let mut c = Csr::<f64>::zero(0, 0);
                plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
                let baseline = c.clone();
                for round in 0..3 {
                    plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
                    prop_assert!(bits_eq_f64(&baseline, &c), "{} {:?} round {}", algo, order, round);
                }
            }
        }
    }

    /// The RowClass keystone invariant, stated directly: across
    /// structure drift (one plan rebound over a random sequence of
    /// operands) its output is byte-for-byte the hash kernel's under
    /// both output orders, and byte-for-byte Reference's when sorted.
    /// This is what lets a caller swap RowClass in for Hash sight unseen.
    #[test]
    fn rowclass_parity_across_drift_and_rebind(
        a in arb_square(20, 120),
        b in arb_square(20, 120),
        c in arb_square(20, 120),
    ) {
        let pool = Pool::new(2);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let mut plan =
                SpgemmPlan::<P>::new_in(&a, &a, Algorithm::RowClass, order, &pool).unwrap();
            for m in [&a, &b, &c, &a, &c] {
                plan.rebind_in(m, m, &pool).unwrap();
                let got = plan.execute_in(m, m, &pool).unwrap();
                let hash = oneshot(m, m, Algorithm::Hash, order, &pool);
                prop_assert!(bits_eq_f64(&got, &hash), "vs hash, {:?}", order);
                if order.is_sorted() {
                    let oracle = algos::reference::multiply::<P>(m, m);
                    prop_assert!(bits_eq_f64(&got, &oracle), "vs reference");
                }
            }
        }
    }

    #[test]
    fn plan_cache_tracks_multiply_across_structure_drift(
        a in arb_square(16, 60),
        b in arb_square(16, 60),
    ) {
        // A cache fed a sequence of differently-structured operands
        // must agree with the one-shot path on every step.
        let pool = Pool::new(2);
        let mut cache = PlanCache::<P>::new(Algorithm::Hash, OutputOrder::Sorted);
        for m in [&a, &a, &b, &a, &b, &b] {
            let expect = oneshot(m, m, Algorithm::Hash, OutputOrder::Sorted, &pool);
            let got = cache.multiply_in(m, m, &pool).unwrap();
            prop_assert!(bits_eq_f64(&expect, &got));
        }
        let st = cache.stats();
        prop_assert_eq!(st.hits + st.rebuilds, 6);
        prop_assert!(st.rebuilds <= 4, "at most one rebuild per structure change: {:?}", st);
    }
}

/// The latent-reuse-bug regression: one plan rebound across matrices
/// with *disjoint* patterns (and growing dimensions/densities) must
/// keep producing correct results. Before accumulators re-validated
/// their capacity on acquisition, a pooled hash table sized for the
/// first (sparse) operand would livelock or index out of bounds on the
/// denser rebind, and stale accumulator state could leak entries of
/// the first product into the second.
#[test]
fn rebind_across_disjoint_patterns_regression() {
    // Matrix 1: tiny rows in the lower-left corner of a 12x12.
    let m1 = Csr::from_triplets(12, 12, &[(9, 0, 1.0), (10, 1, 2.0), (11, 2, 3.0)]).unwrap();
    // Matrix 2: disjoint, much denser pattern in the upper-right of a
    // larger 40x40 — per-row flop far above anything planned for m1.
    let mut trips = Vec::new();
    for i in 0..20usize {
        for j in 20..40u32 {
            if (i + j as usize).is_multiple_of(2) {
                trips.push((i, j, (i as f64 + 1.0) * 0.5));
            }
        }
        for j in 0..20u32 {
            trips.push((20 + i, j, 1.0 + j as f64 * 0.25));
        }
    }
    let m2 = Csr::from_triplets(40, 40, &trips).unwrap();

    for nt in [1usize, 2, 4] {
        let pool = Pool::new(nt);
        for algo in Algorithm::ALL {
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let mut plan = SpgemmPlan::<P>::new_in(&m1, &m1, algo, order, &pool).unwrap();
                let got1 = plan.execute_in(&m1, &m1, &pool).unwrap();
                assert_eq!(
                    got1,
                    oneshot(&m1, &m1, algo, order, &pool),
                    "{algo} {order:?} pre-rebind"
                );

                plan.rebind_in(&m2, &m2, &pool).unwrap();
                let got2 = plan.execute_in(&m2, &m2, &pool).unwrap();
                assert_eq!(
                    got2,
                    oneshot(&m2, &m2, algo, order, &pool),
                    "{algo} {order:?} post-rebind nt={nt}"
                );

                // and back down: shrinking must also stay correct
                plan.rebind_in(&m1, &m1, &pool).unwrap();
                let got3 = plan.execute_in(&m1, &m1, &pool).unwrap();
                assert_eq!(got3, got1, "{algo} {order:?} rebind back");
            }
        }
    }
}

/// Rebinding a rectangular plan to wider outputs grows the dense
/// accumulators (SPA / IKJ) and the chained hash arrays.
#[test]
fn rebind_grows_output_width() {
    let a1 = Csr::from_triplets(3, 4, &[(0, 0, 1.0), (1, 3, 2.0), (2, 1, 3.0)]).unwrap();
    let b1 = Csr::from_triplets(4, 5, &[(0, 4, 1.0), (1, 0, 2.0), (3, 2, 3.0)]).unwrap();
    let a2 =
        Csr::from_triplets(6, 8, &[(0, 7, 1.0), (2, 0, 2.0), (3, 4, 1.5), (5, 1, -1.0)]).unwrap();
    let mut trips = Vec::new();
    for i in 0..8usize {
        for j in 0..30u32 {
            if (i * 31 + j as usize).is_multiple_of(3) {
                trips.push((i, j, 0.5 + j as f64));
            }
        }
    }
    let b2 = Csr::from_triplets(8, 30, &trips).unwrap();

    let pool = Pool::new(2);
    for algo in Algorithm::ALL {
        let mut plan = SpgemmPlan::<P>::new_in(&a1, &b1, algo, OutputOrder::Sorted, &pool).unwrap();
        let got1 = plan.execute_in(&a1, &b1, &pool).unwrap();
        assert_eq!(
            got1,
            oneshot(&a1, &b1, algo, OutputOrder::Sorted, &pool),
            "{algo} narrow"
        );
        plan.rebind_in(&a2, &b2, &pool).unwrap();
        let got2 = plan.execute_in(&a2, &b2, &pool).unwrap();
        assert_eq!(
            got2,
            oneshot(&a2, &b2, algo, OutputOrder::Sorted, &pool),
            "{algo} wide"
        );
    }
}

/// Operands for the `u16` boundary tests, `A` 4 × `inner` and `B`
/// `inner` × `width`: an entry in the last column of both, and one row
/// of `A` per RowClass class — B's heavy rows (512 entries) make A's
/// last row dense; its light rows hold five entries, one in the shared
/// column 5 so sums accumulate across `k`.
fn boundary_operands(inner: usize, width: usize) -> (Csr<f64>, Csr<f64>) {
    let heavy: Vec<usize> = (0..40).map(|t| 7 + t * 1601).collect();
    let light: Vec<usize> = (1..=3).chain((0..30).map(|t| 10 + t * 13)).collect();
    let last = inner - 1;
    let value = |k: usize, j: usize| 0.25 * ((k + j) % 9) as f64 - 1.0;
    let mut b = Coo::new(inner, width).unwrap();
    for &k in &heavy {
        for u in 0..512 {
            let j = (k + u * 127) % width;
            b.push(k, j as ColIdx, value(k, j)).unwrap();
        }
    }
    for &k in light.iter().chain([&last]) {
        for j in (0..4).map(|u| (k * 31 + u * 8191) % width).chain([5]) {
            b.push(k, j as ColIdx, value(k, j)).unwrap();
        }
    }
    b.push(last, (width - 1) as ColIdx, 3.5).unwrap();
    // A: one row per class, each ending in the last column.
    let rows = [&[][..], &light[..3], &light[3..], &heavy[..]];
    let mut a = Coo::new(rows.len(), inner).unwrap();
    for (i, ks) in rows.iter().enumerate() {
        for &k in ks.iter().chain([&last]) {
            a.push(i, k as ColIdx, value(i, k) + 2.0).unwrap();
        }
    }
    (a.into_csr_sum(), b.into_csr_sum())
}

/// RowClass at the compression boundary: a dimension of 65 535 gets
/// the plan's `u16` index copy, 65 536 does not, and at 65 537 the
/// last index would no longer fit one. With each width on either side
/// (all four index-width instances of the drains), RowClass stays
/// bit-identical to Hash.
#[test]
fn rowclass_matches_hash_at_the_u16_boundary() {
    let pool = Pool::new(2);
    for inner in [65_535usize, 65_536, 65_537] {
        for width in [65_535usize, 65_536, 65_537] {
            let (a, b) = boundary_operands(inner, width);
            let occupancy = spgemm::kgen::bucket_occupancy(&a, &b);
            assert_eq!(occupancy, [1; 4], "one row per class: {inner} x {width}");
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let hash = oneshot(&a, &b, Algorithm::Hash, order, &pool);
                let got = oneshot(&a, &b, Algorithm::RowClass, order, &pool);
                assert!(bits_eq_f64(&got, &hash), "{inner} x {width} {order:?}");
                let corner = hash.get(0, (width - 1) as ColIdx);
                assert!(corner.is_some(), "last row of B reaches the last column");
            }
        }
    }
}

/// Bytes a dense-kernel plan of `a · b` holds beyond what any
/// two-phase plan of the same operands does (its analysis and row
/// pointers): the column pattern, right after the bind that wrote it.
fn pattern_bytes(plan: &SpgemmPlan<P>, a: &Csr<f64>, b: &Csr<f64>, pool: &Pool) -> usize {
    let order = plan.output_order();
    let hash = SpgemmPlan::<P>::new_in(a, b, Algorithm::Hash, order, pool).unwrap();
    plan.owned_bytes() - hash.owned_bytes()
}

/// The replay pattern at its width switch: `u16` entries up to an
/// output 65 536 columns wide (the last index is 65 535), `u32` from
/// 65 537 on. Either side of it, four executions of a dense-kernel
/// plan — every one a replay — are bit-identical to Hash, the last
/// column included, and from the bind on a pattern entry costs exactly
/// two bytes or four: the segments keep no spare capacity.
#[test]
fn replay_matches_hash_at_the_u16_boundary() {
    let pool = Pool::new(2);
    for width in [65_535usize, 65_536, 65_537] {
        let (a, b) = boundary_operands(65_536, width);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let hash = oneshot(&a, &b, Algorithm::Hash, order, &pool);
            assert!(hash.get(0, (width - 1) as ColIdx).is_some());
            let plan = SpgemmPlan::<P>::new_in(&a, &b, Algorithm::Spa, order, &pool).unwrap();
            let entry = if width <= 65_536 { 2 } else { 4 };
            let bound = pattern_bytes(&plan, &a, &b, &pool);
            assert_eq!(bound, entry * hash.nnz(), "{width} {order:?}");
            for round in 0..4 {
                let got = plan.execute_in(&a, &b, &pool).unwrap();
                assert!(bits_eq_f64(&got, &hash), "{width} {order:?} round {round}");
            }
            assert!(plan.replays());
            assert_eq!(pattern_bytes(&plan, &a, &b, &pool), bound, "{width}");
        }
    }
}

/// A dense square of ones squares to `flop / nnz(C)` = its order, 96:
/// the symbolic pass visits 96 columns per entry it keeps. Whatever the
/// emit reserved on the way, the bound pattern holds exactly `nnz(C)`
/// entries at every pool width — after the bind, after a rebind that
/// drops that pattern and emits a much smaller product into fresh
/// segments, and after a row patch — and replays to Hash's bits.
#[test]
fn a_high_compression_pattern_holds_one_entry_per_output_entry() {
    let n = 96;
    let ones: Vec<_> = (0..n * n)
        .map(|x| (x / n, (x % n) as ColIdx, 1.0))
        .collect();
    let dense = Csr::from_triplets(n, n, &ones).unwrap();
    let band: Vec<_> = (0..n).map(|i| (i, ((i * 7) % n) as ColIdx, 0.5)).collect();
    let sparse = Csr::from_triplets(n, n, &band).unwrap();
    for nt in 1..=3 {
        let pool = Pool::new(nt);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let mut plan =
                SpgemmPlan::<P>::new_in(&dense, &dense, Algorithm::Spa, order, &pool).unwrap();
            let flop = plan.stats().total_flop as usize;
            let nnz = plan.symbolic_nnz();
            assert!(flop >= 64 * nnz, "{flop} flops for {nnz} entries");
            assert_eq!(pattern_bytes(&plan, &dense, &dense, &pool), 2 * nnz);
            let got = plan.execute_in(&dense, &dense, &pool).unwrap();
            let hash = oneshot(&dense, &dense, Algorithm::Hash, order, &pool);
            assert!(bits_eq_f64(&got, &hash), "dense {order:?} nt={nt}");

            plan.rebind_in(&sparse, &sparse, &pool).unwrap();
            let nnz = plan.symbolic_nnz();
            assert_eq!(pattern_bytes(&plan, &sparse, &sparse, &pool), 2 * nnz);

            let mut c = plan.execute_in(&sparse, &sparse, &pool).unwrap();
            let mut patch = RowPatch::new();
            patch.insert(1, 2, 4.0);
            let (patched, dirty) = sparse.apply_patch(&patch).unwrap();
            let out = plan
                .rebind_rows_in(&patched, &patched, &dirty, &dirty, &pool)
                .unwrap();
            let nnz = plan.symbolic_nnz();
            assert_eq!(pattern_bytes(&plan, &patched, &patched, &pool), 2 * nnz);
            plan.execute_rows_in(&patched, &patched, &out, &mut c, &pool)
                .unwrap();
            let hash = oneshot(&patched, &patched, Algorithm::Hash, order, &pool);
            assert!(bits_eq_f64(&c, &hash), "patched {order:?} nt={nt}");
            let replayed = plan.execute_in(&patched, &patched, &pool).unwrap();
            assert!(bits_eq_f64(&replayed, &hash), "replayed {order:?} nt={nt}");
        }
    }
}

/// A semiring without a seed never replays: `(min, +)` has no `e` with
/// `min(e, x) = x` in `u32` short of reserving a value, so its plan
/// stays on the stamped pass, execution after execution.
#[test]
fn a_seedless_semiring_stays_on_the_stamped_pass() {
    struct MinPlus;
    impl Semiring for MinPlus {
        type Elem = u32;
        fn zero() -> u32 {
            u32::MAX
        }
        fn add(a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn mul(a: u32, b: u32) -> u32 {
            a.saturating_add(b)
        }
    }
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, 7, 6, &mut spgemm_gen::rng(5));
    let a = a.map(|v| (v * 100.0) as u32);
    let pool = Pool::new(2);
    let oracle = algos::reference::multiply::<MinPlus>(&a, &a);
    let plan =
        SpgemmPlan::<MinPlus>::new_in(&a, &a, Algorithm::Spa, OutputOrder::Sorted, &pool).unwrap();
    let mut acquisitions = plan.workspace_stats().acquisitions();
    for round in 0..4 {
        assert_eq!(
            plan.execute_in(&a, &a, &pool).unwrap(),
            oracle,
            "round {round}"
        );
        assert!(!plan.replays(), "round {round}");
        let now = plan.workspace_stats().acquisitions();
        assert!(
            now > acquisitions,
            "round {round}: the stamped accumulators ran"
        );
        acquisitions = now;
    }
}

/// HashVec at an explicit level is the one call that reaches the
/// level-bound range bodies at a level other than `detect()`'s. On an
/// input with rows longer than one chunk and tables of several chunks,
/// salted with NaN / -0.0 / inf, every level the CPU supports is
/// bit-identical to Hash under both orders at 1 and 3 threads.
#[test]
fn hashvec_at_every_level_is_bit_identical_to_hash() {
    use algos::simd::SimdLevel;
    let kind = spgemm_gen::RmatKind::G500;
    let a = spgemm_gen::rmat::generate_kind(kind, 8, 8, &mut spgemm_gen::rng(20));
    let salt = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    let salted = std::cell::Cell::new(0usize);
    let a = a.map(|v| {
        salted.set(salted.get() + 1);
        let n = salted.get();
        if n.is_multiple_of(13) {
            salt[n / 13 % 4]
        } else {
            v
        }
    });
    assert!((0..a.nrows()).any(|i| a.row_nnz(i) > 16));
    for nt in [1usize, 3] {
        let pool = Pool::new(nt);
        for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
            let hash = oneshot(&a, &a, Algorithm::Hash, order, &pool);
            for level in SimdLevel::supported() {
                let got = algos::hashvec::multiply_with_level::<P>(&a, &a, order, &pool, level);
                assert!(bits_eq_f64(&got, &hash), "{level:?} {order:?} nt={nt}");
            }
        }
    }
}

/// An `Auto` plan repairs a row patch in place only while a fresh bind
/// would pick its kernel. `B` is wider than the dense accumulator's
/// uniform L2 bound but within the skewed one, so the pick reads `A`'s
/// row skew: a patch that makes one row of a uniform `A` long (values
/// salted with NaN and ±0.0) moves a fresh bind from Heap / Hash to the
/// SPA, and the patch back moves it home — the patched plan follows
/// both times, kernel and bytes.
#[test]
fn auto_follows_a_row_patch_that_changes_its_pick() {
    use spgemm::cost;
    let share = cost::l2_share_bytes();
    let width = 2 * share / 12;
    let footprint = cost::spa_footprint_bytes(width, 8);
    assert!(
        share < footprint && footprint <= cost::SKEW_FOOTPRINT_FACTOR * share,
        "fixture precondition: {footprint} B against a {share} B share"
    );
    let n = 64usize;
    let a_entries: Vec<_> = (0..n)
        .flat_map(|i| {
            [
                (i, i as u32, 1.0 + i as f64),
                (i, ((i + 17) % n) as u32, 0.5),
            ]
        })
        .collect();
    let b_entries: Vec<_> = (0..n)
        .flat_map(|k| {
            let j = k * 7919 % width;
            [
                (k, j as u32, 2.0),
                (k, ((j + width / 2) % width) as u32, -0.0),
            ]
        })
        .collect();
    let a0 = Csr::from_triplets(n, n, &a_entries).unwrap();
    let b = Csr::from_triplets(n, width, &b_entries).unwrap();
    let mut long = RowPatch::new();
    let mut back = RowPatch::new();
    for c in (0..n as u32).filter(|&c| a0.get(5, c).is_none()) {
        let v = match c % 3 {
            0 => -0.0,
            1 => f64::NAN,
            _ => 1.0 + c as f64,
        };
        long.insert(5, c, v);
        back.delete(5, c);
    }
    let (a1, dirty1) = a0.apply_patch(&long).unwrap();
    let (a2, dirty2) = a1.apply_patch(&back).unwrap();
    assert_eq!(a2, a0, "fixture precondition");
    let pool = Pool::new(2);
    let auto = |a: &Csr<f64>| {
        SpgemmPlan::<P>::new_in(a, &b, Algorithm::Auto, OutputOrder::Sorted, &pool).unwrap()
    };
    let mut plan = auto(&a0);
    let home = plan.algorithm();
    assert!(
        matches!(home, Algorithm::Heap | Algorithm::Hash),
        "fixture precondition: uniform A resolves to {home}"
    );
    assert_eq!(
        auto(&a1).algorithm(),
        Algorithm::Spa,
        "fixture precondition"
    );
    let mut c = plan.execute_in(&a0, &b, &pool).unwrap();
    let clean = DirtyRows::new(n);
    for (ctx, a, dirty) in [("long row", &a1, dirty1), ("back", &a2, dirty2)] {
        let out = plan.rebind_rows_in(a, &b, &dirty, &clean, &pool).unwrap();
        plan.execute_rows_in(a, &b, &out, &mut c, &pool).unwrap();
        let fresh = auto(a);
        assert_eq!(plan.algorithm(), fresh.algorithm(), "{ctx}");
        let want = fresh.execute_in(a, &b, &pool).unwrap();
        assert!(bits_eq_f64(&c, &want), "{ctx}");
    }
    assert_eq!(plan.algorithm(), home);
}
