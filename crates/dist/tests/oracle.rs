//! Oracle tests: the sharded product must be **bit-identical** to the
//! monolithic `Hash` product — every output entry is accumulated by
//! exactly one shard in the same ascending-`k` order, and the default
//! shards' dense accumulator starts every slot at the seed — for every
//! shard kernel (the default and `Hash`) × grid × shard width × output
//! order, on real-valued inputs that include NaN, ±0.0 and ±inf,
//! across structurally **disjoint** sparsity patterns and a non-square
//! `A·B` pushed through one runtime (the drift that forces plan
//! rebinds and layout rebuilds and would expose any stale reuse), and
//! across more structures than the runtime keeps (evictions rebind).

mod common;

use common::{assert_bit_identical, mono_hash, spiced};
use spgemm::{Algorithm, OutputOrder};
use spgemm_dist::{DistConfig, GridSpec, ShardRuntime, CACHED_STRUCTURES};
use spgemm_gen::{rmat::generate_kind, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{approx_eq_f64, Csr, PlusTimes};

const GRIDS: [(usize, usize); 5] = [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)];

/// `m` with its columns rotated by a third of the width: same row
/// pointers, same nnz, different pattern.
fn shift_columns(m: &Csr<f64>) -> Csr<f64> {
    let n = m.ncols() as u32;
    let perm: Vec<u32> = (0..n).map(|j| (j + n / 3) % n).collect();
    let shifted = spgemm_sparse::ops::permute_cols(m, &perm).unwrap();
    shifted.to_sorted()
}

#[test]
fn every_grid_width_and_order_is_bit_identical_to_monolithic_hash() {
    // Pairwise different structure classes: band, power-law, grid
    // stencil, and a shifted band (same nnz budget, other columns).
    let mut r = spgemm_gen::rng(20260728);
    let squares = [
        spgemm_gen::suite::band_matrix(96, 7, &mut r),
        generate_kind(RmatKind::G500, 7, 6, &mut r),
        spgemm_gen::poisson::poisson2d(10),
        shift_columns(&spgemm_gen::suite::band_matrix(96, 7, &mut r)),
    ];
    let mut inputs: Vec<_> = squares.iter().map(|m| (spiced(m), spiced(m))).collect();
    // 70x128 · 128x90 with A ≠ B (row cuts from one matrix, column
    // blocks from another), twice: new layout, then the cached one.
    let wide = shift_columns(&spgemm_gen::suite::band_matrix(128, 9, &mut r));
    let b = spiced(&wide.split_col_ranges(&[0, 90, 128]).unwrap()[0]);
    let rect = (spiced(&squares[1].extract_rows(0..70)), b);
    inputs.extend([rect.clone(), rect]);
    let oracles: Vec<Csr<f64>> = inputs.iter().map(|(a, b)| mono_hash(a, b)).collect();
    assert_eq!(oracles[4].shape(), (70, 90));
    let reaches_output = |p: fn(&f64) -> bool| oracles.iter().any(|c| c.vals().iter().any(p));
    assert!(reaches_output(|v| v.is_nan()) && reaches_output(|v| v.is_infinite()));
    assert!(reaches_output(|v| *v == 0.0 && v.is_sign_negative()));
    // The default shards and `Hash` shards alike.
    for algo in [DistConfig::default().algo, Algorithm::Hash] {
        for (rows, cols) in GRIDS {
            for threads_per_shard in [1, 2] {
                for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                    let grid = GridSpec::new(rows, cols);
                    let cfg = DistConfig {
                        grid,
                        threads_per_shard,
                        algo,
                        order,
                    };
                    let rt = ShardRuntime::new(cfg);
                    for (round, ((a, b), want)) in inputs.iter().zip(&oracles).enumerate() {
                        let what = format!(
                            "{algo} {grid} width {threads_per_shard} {order:?} round {round}"
                        );
                        let mut c = rt.multiply(a, b).unwrap_or_else(|e| panic!("{what}: {e}"));
                        if order == OutputOrder::Unsorted {
                            c.sort_rows();
                        }
                        assert_bit_identical(&c, want, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn default_shards_replay_every_steady_product() {
    // Every shard plan of a steady product is a numeric replay of the
    // pattern its bind wrote: at least one replayed pass per shard (the
    // counter is process-wide, so the other tests' passes only add).
    let a = spiced(&generate_kind(
        RmatKind::G500,
        7,
        6,
        &mut spgemm_gen::rng(41),
    ));
    let want = mono_hash(&a, &a);
    spgemm_obs::enable();
    let passes = || {
        spgemm_obs::counter_stats()
            .iter()
            .find(|c| c.name == "plan.replay.passes")
            .map_or(0, |c| c.value)
    };
    for (rows, cols) in GRIDS {
        let grid = GridSpec::new(rows, cols);
        let rt = ShardRuntime::new(DistConfig {
            grid,
            ..DistConfig::default()
        });
        rt.multiply(&a, &a).unwrap();
        for repeat in 1..=2 {
            let before = passes();
            let c = rt.multiply(&a, &a).unwrap();
            let what = format!("grid {grid} repeat {repeat}");
            assert!(
                passes() - before >= grid.shards() as u64,
                "{what}: replayed"
            );
            assert_bit_identical(&c, &want, &what);
        }
    }
}

#[test]
fn one_phase_kernels_first_and_second_product() {
    // Inspector drives the hash accumulator, so the bit contract (and
    // the hostile values) carry over. Heap pops equal columns in heap
    // order, which a column block changes: bit parity holds against
    // monolithic Heap on single-column grids, closeness on the rest.
    let plain = generate_kind(RmatKind::G500, 7, 6, &mut spgemm_gen::rng(5));
    let pool = Pool::new(2);
    for (algo, a) in [
        (Algorithm::Heap, plain.clone()),
        (Algorithm::Inspector, spiced(&plain)),
    ] {
        let same_kernel =
            spgemm::multiply_in::<PlusTimes<f64>>(&a, &a, algo, OutputOrder::Sorted, &pool)
                .unwrap();
        for (rows, cols) in GRIDS {
            let grid = GridSpec::new(rows, cols);
            let rt = ShardRuntime::new(DistConfig {
                grid,
                algo,
                ..DistConfig::default()
            });
            let what = format!("{algo:?} grid {grid}");
            let (first, s1) = rt.multiply_with_stats(&a, &a).unwrap();
            let (second, s2) = rt.multiply_with_stats(&a, &a).unwrap();
            assert_bit_identical(&second, &first, &format!("{what}: second vs first"));
            if algo == Algorithm::Inspector {
                assert_bit_identical(&first, &mono_hash(&a, &a), &what);
            } else if cols == 1 {
                assert_bit_identical(&first, &same_kernel, &what);
            } else {
                assert!(approx_eq_f64(&first, &same_kernel, 1e-12), "{what}");
            }
            assert_eq!(
                s2.plan_rebuilds, s1.plan_rebuilds,
                "{what}: rebuilds frozen"
            );
            assert_eq!(s2.plan_hits - s1.plan_hits, grid.shards() as u64, "{what}");
        }
    }
}

#[test]
fn drift_at_equal_nnz_rebuilds_the_layout_and_steady_state_only_hits() {
    // A → A' → A through one runtime, where A' has A's row pointers
    // and nnz but other columns: the product's row pointers differ, so
    // a layout that A' took from A would put rows in the wrong
    // windows. The return to A finds A's layout and plans kept: only
    // hits, and still A's bits. Then repeats of A: rebuilds frozen,
    // exactly `shards` plan hits each.
    let a = spiced(&generate_kind(
        RmatKind::G500,
        7,
        6,
        &mut spgemm_gen::rng(77),
    ));
    let drifted = shift_columns(&a);
    assert_eq!(a.rpts(), drifted.rpts(), "the drift keeps nnz per row");
    assert_ne!(a.cols(), drifted.cols());
    let (want_a, want_d) = (mono_hash(&a, &a), mono_hash(&drifted, &drifted));
    assert_ne!(want_a.rpts(), want_d.rpts(), "the layouts must differ");
    for grid in [GridSpec::new(2, 1), GridSpec::new(2, 2)] {
        let rt = ShardRuntime::new(DistConfig {
            grid,
            ..DistConfig::default()
        });
        let shards = grid.shards() as u64;
        for (round, (m, want)) in [(&a, &want_a), (&drifted, &want_d), (&a, &want_a)]
            .into_iter()
            .enumerate()
        {
            let (c, s) = rt.multiply_with_stats(m, m).unwrap();
            assert_bit_identical(&c, want, &format!("grid {grid} drift round {round}"));
            let (rebuilds, hits) = [(1, 0), (2, 0), (2, 1)][round];
            assert_eq!(
                (s.plan_rebuilds, s.plan_hits),
                (rebuilds * shards, hits * shards),
                "grid {grid} round {round}: a new structure binds, a kept one hits"
            );
        }
        for repeat in 1..=3u64 {
            let (c, s) = rt.multiply_with_stats(&a, &a).unwrap();
            assert_bit_identical(&c, &want_a, &format!("grid {grid} repeat {repeat}"));
            assert_eq!(
                (s.plan_rebuilds, s.plan_hits),
                (2 * shards, (repeat + 1) * shards)
            );
        }
    }
}

#[test]
fn more_structures_than_kept_evict_least_recently_used_and_stay_exact() {
    // One more structure than the runtime keeps, cycled twice: plain
    // LRU misses every product (each evicts the one needed next, and
    // its slot's plans are rebound), then the most recent
    // `CACHED_STRUCTURES` are revisited newest-first (all hits), the
    // evicted one comes back (a miss), and so does the one it evicted —
    // the least recently *used*, not the oldest kept (a miss again).
    // The counters must follow a model LRU product by product, and
    // every product carry `Hash`'s bits — a slot rebound to another
    // structure that kept a stale pattern or layout would not.
    let mut r = spgemm_gen::rng(20261020);
    let structures: Vec<Csr<f64>> = (0..=CACHED_STRUCTURES)
        .map(|i| match i % 3 {
            0 => spiced(&generate_kind(RmatKind::G500, 6, 4 + i, &mut r)),
            1 => spiced(&spgemm_gen::suite::band_matrix(64 + i, 3 + i, &mut r)),
            _ => spiced(&shift_columns(&generate_kind(RmatKind::Er, 6, 3, &mut r))),
        })
        .collect();
    let oracles: Vec<Csr<f64>> = structures.iter().map(|m| mono_hash(m, m)).collect();
    let n = structures.len();
    let mut order: Vec<usize> = (0..2 * n).map(|i| i % n).collect();
    order.extend((1..n).rev().chain([0, n - 1]));
    for grid in [
        GridSpec::new(1, 1),
        GridSpec::new(2, 1),
        GridSpec::new(2, 2),
    ] {
        let rt = ShardRuntime::new(DistConfig {
            grid,
            ..DistConfig::default()
        });
        let shards = grid.shards() as u64;
        // Most recently used first.
        let mut model: Vec<usize> = Vec::new();
        let (mut rebuilds, mut hits) = (0, 0);
        for (step, &i) in order.iter().enumerate() {
            match model.iter().position(|&kept| kept == i) {
                Some(at) => {
                    model.remove(at);
                    hits += shards;
                }
                None => {
                    model.truncate(CACHED_STRUCTURES - 1);
                    rebuilds += shards;
                }
            }
            model.insert(0, i);
            let (c, s) = rt
                .multiply_with_stats(&structures[i], &structures[i])
                .unwrap();
            let what = format!("grid {grid} step {step} (structure {i})");
            assert_bit_identical(&c, &oracles[i], &what);
            assert_eq!((s.plan_rebuilds, s.plan_hits), (rebuilds, hits), "{what}");
        }
        assert_eq!(
            rebuilds,
            (2 * n as u64 + 2) * shards,
            "every cycle step and both returns missed"
        );
        assert_eq!(hits, (n as u64 - 1) * shards, "the kept ones hit");
    }
}
