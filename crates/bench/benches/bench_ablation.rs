//! Ablations of the design choices ARCHITECTURE.md describes:
//!
//! * sort-skip: sorted vs unsorted output on the same kernel (§5.4.4);
//! * SIMD level: HashVector probing at scalar / AVX2 / AVX-512;
//! * phases: two-phase Hash vs one-phase Inspector (same accumulator);
//! * partition: flop-balanced offsets vs equal-rows static split.

use criterion::{criterion_group, criterion_main, Criterion};
use spgemm::algos::simd::{self, SimdLevel};
use spgemm::tuning::{heap_multiply_tuned, MemScheme, RowSchedule};
use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_par::Pool;
use spgemm_sparse::PlusTimes;
use std::time::Duration;

type P = PlusTimes<f64>;

fn ablation_sort_skip(c: &mut Criterion) {
    let pool = Pool::with_all_threads();
    let a = spgemm_gen::rmat::generate_kind(
        spgemm_gen::RmatKind::G500,
        10,
        16,
        &mut spgemm_gen::rng(1),
    );
    let mut g = c.benchmark_group("ablation_sort_skip");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
        g.bench_function(format!("hash_{order:?}"), |b| {
            b.iter(|| multiply_in::<P>(&a, &a, Algorithm::Hash, order, &pool).unwrap())
        });
    }
    g.finish();
}

fn ablation_simd_level(c: &mut Criterion) {
    let pool = Pool::with_all_threads();
    let a = spgemm_gen::rmat::generate_kind(
        spgemm_gen::RmatKind::G500,
        10,
        16,
        &mut spgemm_gen::rng(2),
    );
    let mut levels = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            levels.push(SimdLevel::Avx512);
        }
    }
    let mut g = c.benchmark_group("ablation_simd_level");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for level in levels {
        g.bench_function(level.name(), |b| {
            b.iter(|| {
                spgemm::algos::hashvec::multiply_with_level::<P>(
                    &a,
                    &a,
                    OutputOrder::Sorted,
                    &pool,
                    level,
                )
            })
        });
    }
    let _ = simd::detect();
    g.finish();
}

fn ablation_phases(c: &mut Criterion) {
    let pool = Pool::with_all_threads();
    let a =
        spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::Er, 10, 16, &mut spgemm_gen::rng(3));
    let mut g = c.benchmark_group("ablation_phases");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("two_phase_hash_unsorted", |b| {
        b.iter(|| multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Unsorted, &pool).unwrap())
    });
    g.bench_function("one_phase_inspector", |b| {
        b.iter(|| {
            multiply_in::<P>(&a, &a, Algorithm::Inspector, OutputOrder::Unsorted, &pool).unwrap()
        })
    });
    g.finish();
}

fn ablation_partition(c: &mut Criterion) {
    let pool = Pool::with_all_threads();
    // skewed input makes the partition matter
    let a = spgemm_gen::rmat::generate_kind(
        spgemm_gen::RmatKind::G500,
        10,
        16,
        &mut spgemm_gen::rng(4),
    );
    let mut g = c.benchmark_group("ablation_partition");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("heap_equal_rows", |b| {
        b.iter(|| heap_multiply_tuned::<P>(&a, &a, &pool, RowSchedule::Static, MemScheme::Parallel))
    });
    g.bench_function("heap_flop_balanced", |b| {
        b.iter(|| {
            heap_multiply_tuned::<P>(
                &a,
                &a,
                &pool,
                RowSchedule::FlopBalanced,
                MemScheme::Parallel,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_sort_skip,
    ablation_simd_level,
    ablation_phases,
    ablation_partition
);
criterion_main!(benches);
