//! The differential oracle for incremental SpGEMM: random edit
//! streams drive `Csr::apply_patch` → `SpgemmPlan::rebind_rows_in` →
//! `SpgemmPlan::execute_rows_in`, and at **every** step the incrementally
//! maintained product must be *byte-for-byte* identical (row pointers,
//! column indices, and value bits) to a plan built and executed from
//! scratch on the patched operands. No tolerance, no sorting slack —
//! if any kernel's incremental path ever diverges from its full path
//! by a single bit, these tests fail. Edit values include NaN, ±0.0
//! and ±inf, a step may patch both operands at once, and every stream
//! runs on pools of 1, 2 and 3 threads: the row-subset passes are the
//! ordinary parallel passes under a dirty mask, and 3 workers over 32
//! rows leaves some with no dirty row and some with nothing else.

use proptest::prelude::*;
use spgemm::{Algorithm, DirtyRows, OutputOrder, RowPatch, SpgemmPlan};
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, Csr, PlusTimes};

type P = PlusTimes<f64>;
type Plan = SpgemmPlan<P>;

/// Every kernel the workspace ships (Auto excluded: it resolves per
/// structure and is covered through the kernels it resolves to).
const ALL: &[Algorithm] = &[
    Algorithm::Hash,
    Algorithm::HashVec,
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Merge,
    Algorithm::Inspector,
    Algorithm::KkHash,
    Algorithm::Ikj,
    Algorithm::RowClass,
    Algorithm::Reference,
];

/// Kernels whose input contract admits unsorted operands.
const UNSORTED_INPUT_OK: &[Algorithm] = &[
    Algorithm::Hash,
    Algorithm::HashVec,
    Algorithm::Spa,
    Algorithm::Inspector,
    Algorithm::KkHash,
    Algorithm::Ikj,
    Algorithm::RowClass,
    Algorithm::Reference,
];

fn assert_bits_eq(got: &Csr<f64>, want: &Csr<f64>, ctx: &str) {
    assert!(
        bits_eq_f64(got, want),
        "{ctx}: incremental product diverged from the fresh-plan oracle \
         (got {}x{} nnz={}, want {}x{} nnz={})",
        got.nrows(),
        got.ncols(),
        got.nnz(),
        want.nrows(),
        want.ncols(),
        want.nnz()
    );
}

/// A base matrix with deliberately unsorted rows: rotate every
/// multi-entry row by one so the stored order is wrong but the set of
/// entries is unchanged.
fn scramble(m: &Csr<f64>) -> Csr<f64> {
    let mut rpts = Vec::with_capacity(m.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::with_capacity(m.nnz());
    let mut vals = Vec::with_capacity(m.nnz());
    for i in 0..m.nrows() {
        let (rc, rv) = (m.row_cols(i), m.row_vals(i));
        if rc.len() > 1 {
            cols.extend_from_slice(&rc[1..]);
            cols.push(rc[0]);
            vals.extend_from_slice(&rv[1..]);
            vals.push(rv[0]);
        } else {
            cols.extend_from_slice(rc);
            vals.extend_from_slice(rv);
        }
        rpts.push(cols.len());
    }
    Csr::from_parts_unchecked(m.nrows(), m.ncols(), rpts, cols, vals, false)
}

fn rmat(scale: u32, ef: usize, seed: u64) -> Csr<f64> {
    spgemm_gen::rmat::generate_kind(
        spgemm_gen::RmatKind::G500,
        scale,
        ef,
        &mut spgemm_gen::rng(seed),
    )
}

/// One scripted edit: which operand(s), which row/col, and what to do.
#[derive(Clone, Debug)]
struct Edit {
    side: u8, // 0 = A, 1 = B, 2 = both; B is edited at (col, row)
    row: usize,
    col: usize,
    kind: u8, // 0 = insert/upsert, 1 = delete, 2 = value-only upsert
    val: f64,
}

/// Mostly ordinary reals, salted with the values whose sums depend on
/// order and sign (as `prop_plan.rs`'s `arb_square`).
fn edit_value() -> impl Strategy<Value = f64> {
    (-4.0f64..4.0, 0u8..16).prop_map(|(v, special)| match special {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        _ => v,
    })
}

fn edit_strategy(n: usize) -> impl Strategy<Value = Edit> {
    (0u8..3, 0..n, 0..n, 0u8..3, edit_value()).prop_map(|(side, row, col, kind, val)| Edit {
        side,
        row,
        col,
        kind,
        val,
    })
}

/// Drive one edit stream through one (algorithm, order, sorted-base)
/// configuration on pools of 1, 2 and 3 threads, asserting oracle
/// equality after every step.
fn run_stream(algo: Algorithm, order: OutputOrder, sorted_base: bool, edits: &[Edit], seed: u64) {
    for nt in 1..=3 {
        run_stream_on(&Pool::new(nt), algo, order, sorted_base, edits, seed);
    }
}

fn run_stream_on(
    pool: &Pool,
    algo: Algorithm,
    order: OutputOrder,
    sorted_base: bool,
    edits: &[Edit],
    seed: u64,
) {
    let base = rmat(5, 4, seed);
    let base = if sorted_base { base } else { scramble(&base) };
    let mut a = base.clone();
    let mut b = {
        // A distinct right operand so A- and B-side edits exercise
        // different dependency paths (direct rows vs consumer rows).
        let other = rmat(5, 4, seed.wrapping_add(101));
        if sorted_base {
            other
        } else {
            scramble(&other)
        }
    };
    let mut plan = Plan::new_in(&a, &b, algo, order, pool).expect("plan");
    let mut c = plan.execute_in(&a, &b, pool).expect("execute");
    for (step, edit) in edits.iter().enumerate() {
        let patch_at = |row: usize, col: usize| {
            let mut patch = RowPatch::new();
            match edit.kind {
                0 | 2 => patch.insert(row, col as u32, edit.val),
                _ => patch.delete(row, col as u32),
            };
            patch
        };
        let mut dirty_a = DirtyRows::new(a.nrows());
        let mut dirty_b = DirtyRows::new(b.nrows());
        if edit.side != 1 {
            (a, dirty_a) = a
                .apply_patch(&patch_at(edit.row, edit.col))
                .expect("patch a");
        }
        if edit.side != 0 {
            (b, dirty_b) = b
                .apply_patch(&patch_at(edit.col, edit.row))
                .expect("patch b");
        }
        let out = plan
            .rebind_rows_in(&a, &b, &dirty_a, &dirty_b, pool)
            .expect("rebind_rows");
        plan.execute_rows_in(&a, &b, &out, &mut c, pool)
            .expect("execute_rows");
        let fresh = Plan::new_in(&a, &b, algo, order, pool)
            .expect("fresh plan")
            .execute_in(&a, &b, pool)
            .expect("fresh execute");
        let nt = pool.nthreads();
        assert_bits_eq(
            &c,
            &fresh,
            &format!("step {step} ({algo:?}/{order:?}, sorted_base={sorted_base}, nt={nt})"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline oracle: random interleaved A/B edit streams across
    /// every kernel, sorted output, sorted base.
    #[test]
    fn edit_streams_match_fresh_plans_sorted(
        seed in 0u64..500,
        edits in prop::collection::vec(edit_strategy(32), 1..10),
    ) {
        for &algo in ALL {
            run_stream(algo, OutputOrder::Sorted, true, &edits, seed);
        }
    }

    /// Unsorted output contract over a sorted base.
    #[test]
    fn edit_streams_match_fresh_plans_unsorted_output(
        seed in 0u64..500,
        edits in prop::collection::vec(edit_strategy(32), 1..8),
    ) {
        for &algo in ALL {
            run_stream(algo, OutputOrder::Unsorted, true, &edits, seed);
        }
    }

    /// Unsorted *operands* (storage order scrambled) through every
    /// kernel that accepts them, both output contracts.
    #[test]
    fn edit_streams_match_fresh_plans_unsorted_base(
        seed in 0u64..500,
        edits in prop::collection::vec(edit_strategy(32), 1..8),
    ) {
        for &algo in UNSORTED_INPUT_OK {
            run_stream(algo, OutputOrder::Unsorted, false, &edits, seed);
            run_stream(algo, OutputOrder::Sorted, false, &edits, seed);
        }
    }
}

/// Adversarial: a patch that empties rows entirely (and later refills
/// one) must splice zero-length rows without disturbing neighbours.
#[test]
fn emptied_and_refilled_rows_stay_byte_exact() {
    let pool = Pool::new(2);
    for &algo in ALL {
        let a = rmat(5, 4, 7);
        let b = rmat(5, 4, 8);
        let mut plan = Plan::new_in(&a, &b, algo, OutputOrder::Sorted, &pool).unwrap();
        let mut c = plan.execute_in(&a, &b, &pool).unwrap();
        // Empty row 3 of A completely.
        let mut wipe = RowPatch::new();
        for &col in a.row_cols(3) {
            wipe.delete(3, col);
        }
        let (a2, dirty) = a.apply_patch(&wipe).unwrap();
        assert_eq!(a2.row_nnz(3), 0);
        let none = DirtyRows::new(b.nrows());
        let out = plan.rebind_rows_in(&a2, &b, &dirty, &none, &pool).unwrap();
        plan.execute_rows_in(&a2, &b, &out, &mut c, &pool).unwrap();
        let fresh = Plan::new_in(&a2, &b, algo, OutputOrder::Sorted, &pool)
            .unwrap()
            .execute_in(&a2, &b, &pool)
            .unwrap();
        assert_bits_eq(&c, &fresh, &format!("emptied row ({algo:?})"));
        // Refill it with a different pattern.
        let mut refill = RowPatch::new();
        refill
            .insert(3, 0, 1.5)
            .insert(3, 17, -2.0)
            .insert(3, 30, 0.25);
        let (a3, dirty) = a2.apply_patch(&refill).unwrap();
        let out = plan.rebind_rows_in(&a3, &b, &dirty, &none, &pool).unwrap();
        plan.execute_rows_in(&a3, &b, &out, &mut c, &pool).unwrap();
        let fresh = Plan::new_in(&a3, &b, algo, OutputOrder::Sorted, &pool)
            .unwrap()
            .execute_in(&a3, &b, &pool)
            .unwrap();
        assert_bits_eq(&c, &fresh, &format!("refilled row ({algo:?})"));
    }
}

/// Adversarial: one row grows from a couple of entries to a dense-ish
/// stripe, pushing its flop count far past what the pooled accumulator
/// was originally sized for — `ensure` must regrow, never truncate.
#[test]
fn row_growing_past_accumulator_class_stays_byte_exact() {
    let pool = Pool::new(1);
    for &algo in ALL {
        let n = 64;
        let a = Csr::<f64>::identity(n);
        let b = rmat(6, 6, 21);
        let mut plan = Plan::new_in(&a, &b, algo, OutputOrder::Sorted, &pool).unwrap();
        let mut c = plan.execute_in(&a, &b, &pool).unwrap();
        // Row 5 of A grows from 1 entry (identity) to most of the row.
        let mut grow = RowPatch::new();
        for j in (0..n).step_by(2) {
            grow.insert(5, j as u32, 0.5 + j as f64);
        }
        let (a2, dirty) = a.apply_patch(&grow).unwrap();
        let none = DirtyRows::new(b.nrows());
        let out = plan.rebind_rows_in(&a2, &b, &dirty, &none, &pool).unwrap();
        assert!(out.contains(5));
        plan.execute_rows_in(&a2, &b, &out, &mut c, &pool).unwrap();
        let fresh = Plan::new_in(&a2, &b, algo, OutputOrder::Sorted, &pool)
            .unwrap()
            .execute_in(&a2, &b, &pool)
            .unwrap();
        assert_bits_eq(&c, &fresh, &format!("grown row ({algo:?})"));
    }
}

/// Adversarial, RowClass-specific: one row ping-pongs across the
/// tiny → dense class boundary (flop count from ~1 to far past
/// `kgen::dense_cutoff` and back) under `rebind_rows`. The per-row
/// recompute path re-derives the row's class from its *current* flop
/// count on every call, and the rebuilt bucket spec must agree — the
/// incremental product stays byte-identical to a fresh plan at every
/// step. Hash rides along as the control kernel.
#[test]
fn row_crossing_class_boundaries_stays_byte_exact() {
    let pool = Pool::new(1);
    for algo in [Algorithm::RowClass, Algorithm::Hash] {
        let n = 64; // dense_cutoff(64) = 33 flops
        let a = Csr::<f64>::identity(n);
        let b = rmat(6, 6, 21);
        let mut plan = Plan::new_in(&a, &b, algo, OutputOrder::Sorted, &pool).unwrap();
        let mut c = plan.execute_in(&a, &b, &pool).unwrap();
        let none = DirtyRows::new(b.nrows());

        // tiny → dense: row 5 grows from 1 entry to half the row, so
        // its flop count jumps from nnz(B row 5) to several hundred.
        let mut grow = RowPatch::new();
        for j in (0..n).step_by(2) {
            grow.insert(5, j as u32, 0.5 + j as f64);
        }
        let (a2, dirty) = a.apply_patch(&grow).unwrap();
        let out = plan.rebind_rows_in(&a2, &b, &dirty, &none, &pool).unwrap();
        assert!(out.contains(5));
        plan.execute_rows_in(&a2, &b, &out, &mut c, &pool).unwrap();
        let fresh = Plan::new_in(&a2, &b, algo, OutputOrder::Sorted, &pool)
            .unwrap()
            .execute_in(&a2, &b, &pool)
            .unwrap();
        assert_bits_eq(&c, &fresh, &format!("tiny->dense ({algo:?})"));

        // dense → tiny: delete everything but one entry again.
        let mut shrink = RowPatch::new();
        for &col in a2.row_cols(5) {
            if col != 5 {
                shrink.delete(5, col);
            }
        }
        let (a3, dirty) = a2.apply_patch(&shrink).unwrap();
        let out = plan.rebind_rows_in(&a3, &b, &dirty, &none, &pool).unwrap();
        plan.execute_rows_in(&a3, &b, &out, &mut c, &pool).unwrap();
        let fresh = Plan::new_in(&a3, &b, algo, OutputOrder::Sorted, &pool)
            .unwrap()
            .execute_in(&a3, &b, &pool)
            .unwrap();
        assert_bits_eq(&c, &fresh, &format!("dense->tiny ({algo:?})"));
    }
}

/// Adversarial: a patch touching every row (dirty = all) must still be
/// byte-exact — the degenerate case where "incremental" recomputes
/// everything.
#[test]
fn dirty_all_rows_stays_byte_exact() {
    let pool = Pool::new(2);
    for &algo in ALL {
        let a = rmat(5, 4, 33);
        let b = rmat(5, 4, 34);
        let mut plan = Plan::new_in(&a, &b, algo, OutputOrder::Sorted, &pool).unwrap();
        let mut c = plan.execute_in(&a, &b, &pool).unwrap();
        let mut patch = RowPatch::new();
        for i in 0..a.nrows() {
            patch.insert(i, (i % a.ncols()) as u32, i as f64 + 0.5);
        }
        let (a2, dirty) = a.apply_patch(&patch).unwrap();
        assert_eq!(dirty.count(), a.nrows(), "every row is dirty");
        let none = DirtyRows::new(b.nrows());
        let out = plan.rebind_rows_in(&a2, &b, &dirty, &none, &pool).unwrap();
        plan.execute_rows_in(&a2, &b, &out, &mut c, &pool).unwrap();
        let fresh = Plan::new_in(&a2, &b, algo, OutputOrder::Sorted, &pool)
            .unwrap()
            .execute_in(&a2, &b, &pool)
            .unwrap();
        assert_bits_eq(&c, &fresh, &format!("dirty=all ({algo:?})"));
    }
}

/// B-side edits must invalidate exactly the consumer rows: a row of B
/// nobody references leaves the dirty set empty (and the product
/// unchanged).
#[test]
fn unconsumed_b_row_edit_recomputes_nothing() {
    let pool = Pool::new(1);
    let n = 16;
    // A references only columns 0..8, so editing B rows 8.. is free.
    let a = Csr::from_triplets(
        n,
        n,
        &(0..n)
            .map(|i| (i, (i % 8) as u32, 1.0 + i as f64))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let b = rmat(4, 4, 55);
    let mut plan = Plan::new_in(&a, &b, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
    let mut c = plan.execute_in(&a, &b, &pool).unwrap();
    let before = c.clone();
    let mut patch = RowPatch::new();
    patch.insert(12, 3, 9.0);
    let (b2, dirty_b) = b.apply_patch(&patch).unwrap();
    let none = DirtyRows::new(a.nrows());
    let out = plan
        .rebind_rows_in(&a, &b2, &none, &dirty_b, &pool)
        .unwrap();
    assert!(out.is_empty(), "no output row consumes B row 12");
    plan.execute_rows_in(&a, &b2, &out, &mut c, &pool).unwrap();
    assert_bits_eq(&c, &before, "unconsumed edit");
}

/// A cached product that is not the plan's previous output — here a
/// clean row lost an entry — is rejected with `PlanMismatch`, and the
/// check runs before the pass: `c` comes back untouched.
#[test]
fn stale_cached_product_is_rejected_before_anything_is_written() {
    let a = rmat(5, 4, 7);
    let b = rmat(5, 4, 8);
    let mut patch = RowPatch::new();
    patch.insert(3, 9, 2.5);
    let (a2, dirty) = a.apply_patch(&patch).unwrap();
    let none = DirtyRows::new(b.nrows());
    for nt in 1..=3 {
        let pool = Pool::new(nt);
        let mut plan = Plan::new_in(&a, &b, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let c = plan.execute_in(&a, &b, &pool).unwrap();
        let out = plan.rebind_rows_in(&a2, &b, &dirty, &none, &pool).unwrap();
        let clean = (0..c.nrows())
            .rev()
            .find(|&i| !out.contains(i) && c.row_nnz(i) > 0)
            .expect("a clean non-empty row");
        let mut drop_one = RowPatch::new();
        drop_one.delete(clean, c.row_cols(clean)[0]);
        let (stale, _) = c.apply_patch(&drop_one).unwrap();
        let mut got = stale.clone();
        let err = plan.execute_rows_in(&a2, &b, &out, &mut got, &pool);
        assert!(
            matches!(err, Err(spgemm_sparse::SparseError::PlanMismatch { .. })),
            "nt={nt}: {err:?}"
        );
        assert_bits_eq(&got, &stale, "rejected product");
    }
}

/// One 1 % batch: upserts in 10 of the 1024 rows of `m`.
fn one_percent_patch(m: &Csr<f64>, batch: u64) -> RowPatch<f64> {
    let mut rng = spgemm_gen::rng(900 + batch);
    let rows = spgemm_gen::perm::random_permutation(m.nrows(), &mut rng);
    let mut patch = RowPatch::new();
    for (k, &row) in rows.iter().take(m.nrows() / 100).enumerate() {
        patch.insert(row, ((row * 7 + k) % m.ncols()) as u32, 0.25 + k as f64);
    }
    patch
}

/// An `Auto` plan is row-patched incrementally from the first batch
/// on — it keeps the kernel it resolved to instead of re-resolving —
/// and stays byte-identical to a fresh `Auto` product, across a reset
/// to the base operands too.
#[test]
fn auto_plans_patch_incrementally_from_the_first_batch() {
    let rmat_of =
        |kind, seed| spgemm_gen::rmat::generate_kind(kind, 10, 8, &mut spgemm_gen::rng(seed));
    let a0 = rmat_of(spgemm_gen::RmatKind::G500, 61);
    let b0 = rmat_of(spgemm_gen::RmatKind::Er, 62);
    for nt in 1..=3 {
        let pool = Pool::new(nt);
        let auto = |a: &Csr<f64>, b: &Csr<f64>| {
            Plan::new_in(a, b, Algorithm::Auto, OutputOrder::Sorted, &pool).expect("plan")
        };
        let mut plan = auto(&a0, &b0);
        for stream in 0..2 {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            let mut c = plan.execute_in(&a, &b, &pool).expect("base product");
            for batch in 0..4u64 {
                let mut dirty_a = DirtyRows::new(a.nrows());
                let mut dirty_b = DirtyRows::new(b.nrows());
                if batch % 2 == 0 {
                    (a, dirty_a) = a.apply_patch(&one_percent_patch(&a, batch)).unwrap();
                } else {
                    (b, dirty_b) = b.apply_patch(&one_percent_patch(&b, batch)).unwrap();
                }
                let out = plan
                    .rebind_rows_in(&a, &b, &dirty_a, &dirty_b, &pool)
                    .expect("rebind_rows");
                assert!(
                    out.count() < a.nrows(),
                    "nt={nt} stream {stream} batch {batch}: {} of {} rows invalidated",
                    out.count(),
                    a.nrows()
                );
                plan.execute_rows_in(&a, &b, &out, &mut c, &pool)
                    .expect("execute_rows");
                let fresh = auto(&a, &b).execute_in(&a, &b, &pool).expect("fresh");
                assert_bits_eq(&c, &fresh, &format!("Auto, nt={nt}, batch {batch}"));
            }
            // back to the base operands, as a caller replaying edits does
            plan.rebind_in(&a0, &b0, &pool).expect("reset");
        }
    }
}

/// A Heap plan knows its row structure from its bind, so an `Auto` plan
/// that resolved to Heap stays Heap and patches incrementally from the
/// first batch on — across full rebinds too. The operands are ones the
/// footprint rule sends to Heap on any machine: sorted, two entries per
/// row of `A` and four per row of a `B` with 2²² columns — a 50.9 MB
/// dense accumulator, and Eq (1) at `log₂ 2` per flop under Eq (2)
/// plus its sort.
#[test]
fn heap_auto_plans_patch_incrementally_from_the_first_batch() {
    let (n, width) = (64usize, 1usize << 22);
    let a_entries: Vec<_> = (0..n)
        .flat_map(|i| {
            [
                (i, i as u32, 1.0 + i as f64),
                (i, ((i + 17) % n) as u32, 0.5),
            ]
        })
        .collect();
    let b_entries: Vec<_> = (0..n)
        .flat_map(|k| (0..4).map(move |j| (k, (k * 4099 + j * (width / 4)) as u32, 2.0 + j as f64)))
        .collect();
    let a0 = Csr::from_triplets(n, n, &a_entries).unwrap();
    let b0 = Csr::from_triplets(n, width, &b_entries).unwrap();
    let pool = Pool::new(2);
    let product = |a: &Csr<f64>, algo| {
        Plan::new_in(a, &b0, algo, OutputOrder::Sorted, &pool)
            .and_then(|p| p.execute_in(a, &b0, &pool))
            .expect("product")
    };
    let mut plan = Plan::new_in(&a0, &b0, Algorithm::Auto, OutputOrder::Sorted, &pool).unwrap();
    assert_eq!(plan.algorithm(), Algorithm::Heap, "fixture precondition");
    // Not executed yet: the bind alone gives the plan rows to patch.
    let mut c = product(&a0, Algorithm::Heap);
    let none = DirtyRows::new(b0.nrows());
    for stream in 0..3 {
        let mut patch = RowPatch::new();
        patch.insert(5 + stream, 9, 1.5);
        let (a, dirty) = a0.apply_patch(&patch).unwrap();
        let out = plan.rebind_rows_in(&a, &b0, &dirty, &none, &pool).unwrap();
        assert!(out.count() < a.nrows(), "stream {stream}: incremental");
        assert_eq!(plan.algorithm(), Algorithm::Heap, "stream {stream}");
        plan.execute_rows_in(&a, &b0, &out, &mut c, &pool).unwrap();
        assert_bits_eq(
            &c,
            &product(&a, Algorithm::Heap),
            &format!("stream {stream}"),
        );
        // Back to the base operands: `Auto` resolves to Heap again.
        plan.rebind_in(&a0, &b0, &pool).unwrap();
        assert_eq!(plan.algorithm(), Algorithm::Heap, "stream {stream} reset");
        c = plan.execute_in(&a0, &b0, &pool).unwrap();
    }
}
