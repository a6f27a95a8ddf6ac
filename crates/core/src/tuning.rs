//! Scheduling / memory-management variants of Heap SpGEMM, for the
//! Figure 9 experiment ("Advantage of Performance Optimization on
//! KNL for SpGEMM", §5.3.1).
//!
//! The paper compares five configurations of the same one-phase heap
//! kernel:
//!
//! * `static` / `dynamic` / `guided` — plain OpenMP row loops;
//! * `balanced single` — the §4.1 flop-balanced partition with one
//!   master-allocated staging buffer ("single" memory scheme, whose
//!   deallocation cost §3.2 blames for poor scaling);
//! * `balanced parallel` — flop-balanced partition with thread-private
//!   staging allocated inside the region (the production
//!   configuration: a one-shot `Algorithm::Heap` product).
//!
//! Contiguous blocks with the "parallel" scheme — `static` and
//! `balanced parallel` — are the production staged pass over
//! equal-row or flop-balanced offsets. Only the alternatives the paper
//! measures *against* keep loops of their own: the "single" scheme and
//! `dynamic` / `guided` row claiming. Library users want
//! [`crate::multiply_in`].

use crate::algos::heap::HeapKernel;
use crate::exec::{self, MultiplyStats, StagedRowKernel, Workers};
use spgemm_par::{scan, unsync::SharedMutSlice, Pool, Schedule};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Row-scheduling policy for the tuned heap multiply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowSchedule {
    /// Equal-rows contiguous blocks (OpenMP `schedule(static)`).
    Static,
    /// OpenMP `schedule(dynamic, 1)`-style row claiming.
    Dynamic,
    /// OpenMP `schedule(guided)`-style row claiming.
    Guided,
    /// The paper's flop-balanced contiguous partition (§4.1).
    FlopBalanced,
}

impl RowSchedule {
    /// Display name matching the Figure 9 legend.
    pub fn name(self) -> &'static str {
        match self {
            RowSchedule::Static => "static",
            RowSchedule::Dynamic => "dynamic",
            RowSchedule::Guided => "guided",
            RowSchedule::FlopBalanced => "balanced",
        }
    }
}

/// Temporary-memory scheme for the staged output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemScheme {
    /// One master-allocated staging buffer sized by the total flop
    /// bound; freed on the master after the copy (§3.2 "single").
    Single,
    /// Thread-private staging allocated inside the region ("parallel").
    Parallel,
}

impl MemScheme {
    /// Display name matching the Figure 9 legend.
    pub fn name(self) -> &'static str {
        match self {
            MemScheme::Single => "single",
            MemScheme::Parallel => "parallel",
        }
    }
}

/// Heap SpGEMM under an explicit scheduling and memory configuration.
///
/// `Dynamic`/`Guided` schedules imply per-worker staging (`Parallel`):
/// their row assignment is not contiguous, so a single pre-sliced
/// buffer cannot be handed out up front — the same reason the paper's
/// "single" series only appears with balanced scheduling.
pub fn heap_multiply_tuned<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    pool: &Pool,
    sched: RowSchedule,
    mem: MemScheme,
) -> Csr<S::Elem> {
    assert!(
        a.is_sorted() && b.is_sorted(),
        "heap requires sorted inputs"
    );
    match sched {
        RowSchedule::Dynamic => claimed_heap::<S>(a, b, pool, Schedule::Dynamic { chunk: 1 }),
        RowSchedule::Guided => claimed_heap::<S>(a, b, pool, Schedule::Guided { min_chunk: 1 }),
        RowSchedule::Static | RowSchedule::FlopBalanced => {
            let mut stats = exec::plan(a, b, pool);
            if sched == RowSchedule::Static {
                let (n, nt) = (a.nrows(), pool.nthreads());
                stats.offsets = (0..=nt).map(|t| t * n / nt).collect();
            }
            match mem {
                MemScheme::Parallel => {
                    let workers = Workers::<S, HeapKernel<S>>::new(pool.nthreads(), ());
                    exec::staged_pass(&workers, a, b, &stats, pool, true)
                }
                MemScheme::Single => single_heap::<S>(a, b, pool, &stats),
            }
        }
    }
}

/// The "single" scheme over the contiguous blocks of `stats.offsets`:
/// each worker packs its rows into its flop-prefix slice of one
/// master buffer, then copies them into place.
fn single_heap<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    pool: &Pool,
    stats: &MultiplyStats,
) -> Csr<S::Elem> {
    let n = a.nrows();
    // flop prefix over rows for staging bounds
    let mut flop_prefix = vec![0u64; n + 1];
    for i in 0..n {
        flop_prefix[i + 1] = flop_prefix[i] + stats.row_flops[i];
    }

    let mut counts64 = vec![0u64; n + 1];
    // master-side allocation of the full flop bound (the cost the
    // paper's "single" series pays)
    let bound = flop_prefix[n] as usize;
    let mut single_cols: Vec<ColIdx> = vec![0; bound];
    let mut single_vals: Vec<S::Elem> = vec![S::zero(); bound];
    let single_cols_s = SharedMutSlice::new(&mut single_cols[..]);
    let single_vals_s = SharedMutSlice::new(&mut single_vals[..]);
    {
        let cnt = SharedMutSlice::new(&mut counts64[..]);
        pool.parallel_ranges(&stats.offsets, |_, range| {
            if range.is_empty() {
                return;
            }
            let mut kernel = HeapKernel::<S>::new();
            // write into the worker's disjoint slice of the master
            // buffer, rows packed back-to-back
            let base = flop_prefix[range.start] as usize;
            let end = flop_prefix[range.end] as usize;
            // SAFETY: flop-prefix slices are disjoint per range.
            let cols = unsafe { single_cols_s.slice_mut(base..end) };
            let vals = unsafe { single_vals_s.slice_mut(base..end) };
            let mut tmp_c: Vec<ColIdx> = Vec::new();
            let mut tmp_v: Vec<S::Elem> = Vec::new();
            let mut written = 0usize;
            for i in range {
                tmp_c.clear();
                tmp_v.clear();
                let c = kernel.stage_row(a, b, i, &mut tmp_c, &mut tmp_v);
                cols[written..written + c].copy_from_slice(&tmp_c);
                vals[written..written + c].copy_from_slice(&tmp_v);
                written += c;
                // SAFETY: each row staged by exactly one thread.
                unsafe { cnt.write(i + 1, c as u64) };
            }
        });
    }

    let total = scan::parallel_inclusive_scan(pool, &mut counts64) as usize;
    let rpts: Vec<usize> = counts64.iter().map(|&x| x as usize).collect();
    let mut cols = vec![0 as ColIdx; total];
    let mut vals = vec![S::zero(); total];
    {
        let cols_s = SharedMutSlice::new(&mut cols[..]);
        let vals_s = SharedMutSlice::new(&mut vals[..]);
        let rpts_ref = &rpts;
        pool.parallel_ranges(&stats.offsets, |_, range| {
            if range.is_empty() {
                return;
            }
            let dst = rpts_ref[range.start]..rpts_ref[range.end];
            let base = flop_prefix[range.start] as usize;
            let len = dst.len();
            // SAFETY: sources and destinations disjoint per thread.
            unsafe {
                let src_c = single_cols_s.slice_mut(base..base + len);
                let src_v = single_vals_s.slice_mut(base..base + len);
                cols_s.slice_mut(dst.clone()).copy_from_slice(src_c);
                vals_s.slice_mut(dst).copy_from_slice(src_v);
            }
        });
    }
    // "single" deallocation happens here, on the master — the cost the
    // paper measures in Figure 4.
    drop(single_cols);
    drop(single_vals);
    Csr::from_parts_unchecked(n, b.ncols(), rpts, cols, vals, true)
}

/// Dynamic/guided path: rows claimed from a shared counter; each
/// worker stages rows in claim order with a replay log.
fn claimed_heap<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    pool: &Pool,
    sched: Schedule,
) -> Csr<S::Elem> {
    let n = a.nrows();
    let nt = pool.nthreads();
    let mut counts64 = vec![0u64; n + 1];
    // (staging cols, staging vals, log of (row, len))
    type Slot<E> = (Vec<ColIdx>, Vec<E>, Vec<(u32, u32)>);
    let staged: Vec<parking_lot::Mutex<Slot<S::Elem>>> = (0..nt)
        .map(|_| parking_lot::Mutex::new((Vec::new(), Vec::new(), Vec::new())))
        .collect();
    {
        let cnt = SharedMutSlice::new(&mut counts64[..]);
        let next = std::sync::atomic::AtomicUsize::new(0);
        pool.broadcast(|wid| {
            let mut kernel = HeapKernel::<S>::new();
            let mut slot = staged[wid].lock();
            let (cols, vals, log) = &mut *slot;
            cols.clear();
            vals.clear();
            log.clear();
            // Pool::parallel_for's claim loop, inline so the staging
            // stays worker-local.
            while let Some(rows) = sched.claim(&next, n, nt) {
                for i in rows {
                    let c = kernel.stage_row(a, b, i, cols, vals);
                    log.push((i as u32, c as u32));
                    // SAFETY: each row claimed exactly once across workers.
                    unsafe { cnt.write(i + 1, c as u64) };
                }
            }
        });
    }
    let total = scan::parallel_inclusive_scan(pool, &mut counts64) as usize;
    let rpts: Vec<usize> = counts64.iter().map(|&x| x as usize).collect();
    let mut cols = vec![0 as ColIdx; total];
    let mut vals = vec![S::zero(); total];
    {
        let cols_s = SharedMutSlice::new(&mut cols[..]);
        let vals_s = SharedMutSlice::new(&mut vals[..]);
        let rpts_ref = &rpts;
        pool.broadcast(|wid| {
            let slot = staged[wid].lock();
            let (scols, svals, log) = &*slot;
            let mut src = 0usize;
            for &(row, len) in log {
                let len = len as usize;
                let dst = rpts_ref[row as usize]..rpts_ref[row as usize] + len;
                // SAFETY: rows are uniquely owned by their claiming worker.
                unsafe {
                    cols_s
                        .slice_mut(dst.clone())
                        .copy_from_slice(&scols[src..src + len]);
                    vals_s
                        .slice_mut(dst)
                        .copy_from_slice(&svals[src..src + len]);
                }
                src += len;
            }
        });
    }
    Csr::from_parts_unchecked(n, b.ncols(), rpts, cols, vals, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    fn check_all_variants(a: &Csr<f64>) {
        let expect = reference::multiply::<P>(a, a);
        for nt in [1usize, 2, 3] {
            let pool = Pool::new(nt);
            for sched in [
                RowSchedule::Static,
                RowSchedule::Dynamic,
                RowSchedule::Guided,
                RowSchedule::FlopBalanced,
            ] {
                for mem in [MemScheme::Single, MemScheme::Parallel] {
                    // dynamic/guided ignore the mem scheme (always parallel)
                    let got = heap_multiply_tuned::<P>(a, a, &pool, sched, mem);
                    assert!(
                        approx_eq_f64(&expect, &got, 1e-12),
                        "{}/{} nt={nt}",
                        sched.name(),
                        mem.name()
                    );
                    assert!(got.is_sorted());
                    assert!(got.validate().is_ok());
                }
            }
        }
    }

    #[test]
    fn all_variants_match_reference_small() {
        let a = Csr::from_triplets(
            6,
            6,
            &[
                (0, 1, 1.0),
                (0, 5, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (3, 3, 5.0),
                (4, 1, 6.0),
                (5, 4, 7.0),
                (5, 0, 8.0),
            ],
        )
        .unwrap();
        check_all_variants(&a);
    }

    #[test]
    fn all_variants_match_reference_rmat() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            7,
            8,
            &mut spgemm_gen::rng(9),
        );
        check_all_variants(&a);
    }

    #[test]
    fn names_for_figure_legend() {
        assert_eq!(RowSchedule::FlopBalanced.name(), "balanced");
        assert_eq!(MemScheme::Single.name(), "single");
    }
}
