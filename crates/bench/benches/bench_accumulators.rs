//! Accumulator-level microbenchmarks: raw insert/extract throughput
//! of each accumulator data structure, isolated from the kernel
//! drivers — the direct measure of §4.2's design choices.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use spgemm::algos::hash::{HashAccumulator, Linear};
use spgemm::algos::hashvec::{Chunked, HashVecAccumulator};
use spgemm::algos::simd;
use spgemm::algos::{kkhash::KkHashAccumulator, spa::SpaAccumulator, ColumnSet};
use spgemm_sparse::PlusTimes;
use std::time::Duration;

type P = PlusTimes<f64>;

/// Pseudo-random column streams with controllable duplication (the
/// compression-ratio analogue at accumulator level).
fn key_stream(n: usize, distinct: usize, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize % distinct) as u32
        })
        .collect()
}

/// One row through `acc` per iteration: insert the stream, emit
/// sorted.
fn bench_set(g: &mut BenchmarkGroup<'_>, id: &str, keys: &[u32], mut acc: impl ColumnSet<P>) {
    g.bench_with_input(BenchmarkId::new(id, keys.len()), keys, |b, keys| {
        let mut cols = vec![0u32; keys.len()];
        let mut vals = vec![0.0f64; keys.len()];
        b.iter(|| {
            for &k in keys {
                acc.insert_numeric(k, 1.0);
            }
            let n = acc.len();
            acc.extract_into(&mut cols[..n], &mut vals[..n], true);
            n
        })
    });
}

fn bench_insert_extract(c: &mut Criterion) {
    const N: usize = 4096;
    let ncols = 1 << 20;
    for (label, distinct) in [("cr1", N), ("cr8", N / 8)] {
        let keys = key_stream(N, distinct, 0x5eed);
        let mut g = c.benchmark_group(format!("accumulate_{label}"));
        g.sample_size(20).measurement_time(Duration::from_secs(2));
        let chunked = Chunked::new(simd::detect());
        let hash = HashAccumulator::<P>::new(N, ncols, Linear);
        let hashvec = HashVecAccumulator::<P>::new(N, ncols, chunked);
        bench_set(&mut g, "hash", &keys, hash);
        bench_set(&mut g, "hashvec", &keys, hashvec);
        bench_set(&mut g, "kkhash", &keys, KkHashAccumulator::new(N, ncols));
        bench_set(&mut g, "spa", &keys, SpaAccumulator::new(ncols));
        g.finish();
    }
}

criterion_group!(benches, bench_insert_extract);
criterion_main!(benches);
