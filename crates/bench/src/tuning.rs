//! Figure 9 (§5.3.1, "Advantage of Performance Optimization on KNL
//! for SpGEMM"): the one-phase Heap kernel ([`HeapKernel::stage_row`]
//! per row) under five scheduling / memory configurations:
//!
//! * `static` / `dynamic` / `guided` — plain OpenMP row loops: each
//!   worker stages the rows it is handed (one fixed equal-row block, or
//!   chunks claimed through [`Schedule::claim`]) into buffers of its
//!   own, then copies them into place;
//! * `balanced single` — the §4.1 flop-balanced partition staging into
//!   one master-allocated buffer (§3.2's "single" scheme, whose
//!   deallocation cost the paper blames for poor scaling);
//! * `balanced parallel` — the production configuration: a one-shot
//!   `Algorithm::Heap` product, staging thread-private.

use spgemm::algos::heap::HeapKernel;
use spgemm::{exec_plan, multiply_in, Algorithm, OutputOrder};
use spgemm_par::{scan::counts_to_offsets, unsync::SharedMutSlice, Pool, Schedule};
use spgemm_sparse::{ColIdx, Csr, Semiring};
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;

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
/// Only the balanced schedule has a "single" scheme, as in the paper's
/// series: the plain loops always stage per worker (`mem` is ignored).
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
    match (sched, mem) {
        (RowSchedule::FlopBalanced, MemScheme::Parallel) => {
            multiply_in::<S>(a, b, Algorithm::Heap, OutputOrder::Sorted, pool)
                .expect("sorted operands of matching shapes")
        }
        (RowSchedule::FlopBalanced, MemScheme::Single) => single_heap::<S>(a, b, pool),
        _ => worker_staged_heap::<S>(a, b, pool, sched),
    }
}

/// Each worker's lock is taken by that worker only, in a region whose
/// panic fails the whole call.
const OWN: &str = "a worker's part is locked by that worker only";

/// `v` cut at the non-decreasing `ends` (the last one `v.len()`): one
/// part per worker.
fn parts<'a, T>(mut v: &'a mut [T], ends: &[usize]) -> Vec<&'a mut [T]> {
    let mut at = 0;
    (ends.iter())
        .map(|&end| {
            let (part, rest) = std::mem::take(&mut v).split_at_mut(end - at);
            (v, at) = (rest, end);
            part
        })
        .collect()
}

/// The "single" scheme over the flop-balanced blocks: each worker packs
/// its rows into its flop-prefix part of one master buffer, then copies
/// them into place.
fn single_heap<S: Semiring>(a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) -> Csr<S::Elem> {
    let stats = exec_plan(a, b, pool);
    let (n, offsets) = (a.nrows(), &stats.offsets);
    let mut flop_prefix = vec![0usize; n + 1];
    for i in 0..n {
        flop_prefix[i + 1] = flop_prefix[i] + stats.row_flops[i] as usize;
    }
    let ends =
        |prefix: &[usize]| -> Vec<usize> { offsets[1..].iter().map(|&r| prefix[r]).collect() };
    // master-side allocation of the full flop bound (the cost the
    // paper's "single" series pays)
    let mut single_cols = vec![0 as ColIdx; flop_prefix[n]];
    let mut single_vals = vec![S::zero(); flop_prefix[n]];
    let mut counts = vec![0usize; n];
    let staged = ends(&flop_prefix);
    let staging: Vec<_> = (parts(&mut single_cols, &staged).into_iter())
        .zip(parts(&mut single_vals, &staged))
        .zip(parts(&mut counts, &offsets[1..]))
        .map(Mutex::new)
        .collect();
    pool.parallel_ranges(offsets, |wid, range| {
        let mut kernel = HeapKernel::<S>::new();
        let ((cols, vals), counts) = &mut *staging[wid].lock().expect(OWN);
        let (mut row_c, mut row_v, mut written) = (Vec::new(), Vec::new(), 0);
        for (cnt, i) in counts.iter_mut().zip(range) {
            row_c.clear();
            row_v.clear();
            *cnt = kernel.stage_row(a, b, i, &mut row_c, &mut row_v);
            cols[written..written + *cnt].copy_from_slice(&row_c);
            vals[written..written + *cnt].copy_from_slice(&row_v);
            written += *cnt;
        }
    });

    let rpts = counts_to_offsets(&counts);
    let mut cols = vec![0 as ColIdx; rpts[n]];
    let mut vals = vec![S::zero(); rpts[n]];
    let placed = ends(&rpts);
    let dst: Vec<_> = (parts(&mut cols, &placed).into_iter())
        .zip(parts(&mut vals, &placed))
        .map(Mutex::new)
        .collect();
    pool.parallel_ranges(offsets, |wid, range| {
        let (cols, vals) = &mut *dst[wid].lock().expect(OWN);
        let src = flop_prefix[range.start]..flop_prefix[range.start] + cols.len();
        cols.copy_from_slice(&single_cols[src.clone()]);
        vals.copy_from_slice(&single_vals[src]);
    });
    // "single" deallocation happens here, on the master — the cost the
    // paper measures in Figure 4.
    drop(single_cols);
    drop(single_vals);
    Csr::from_parts_unchecked(n, b.ncols(), rpts, cols, vals, true)
}

/// The plain OpenMP loops: each worker stages the rows it is handed —
/// its fixed equal-row block under `Static`, chunks claimed from a
/// shared counter under `Dynamic` / `Guided` — in handout order with a
/// log of `(row, len)`, then copies them into place.
fn worker_staged_heap<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    pool: &Pool,
    sched: RowSchedule,
) -> Csr<S::Elem> {
    let (n, nt) = (a.nrows(), pool.nthreads());
    type Slot<E> = (Vec<ColIdx>, Vec<E>, Vec<(u32, u32)>);
    let mut staged: Vec<Mutex<Slot<S::Elem>>> = (0..nt).map(|_| Mutex::default()).collect();
    let next = AtomicUsize::new(0);
    pool.broadcast(|wid| {
        let mut kernel = HeapKernel::<S>::new();
        let (cols, vals, log) = &mut *staged[wid].lock().expect(OWN);
        let mut block = Some(wid * n / nt..(wid + 1) * n / nt);
        // Pool::parallel_for's loop, inline so the staging stays
        // worker-local.
        let mut handout = || match sched {
            RowSchedule::Dynamic => Schedule::DYNAMIC.claim(&next, n, nt),
            RowSchedule::Guided => Schedule::GUIDED.claim(&next, n, nt),
            RowSchedule::Static | RowSchedule::FlopBalanced => block.take(),
        };
        while let Some(rows) = handout() {
            for i in rows {
                let c = kernel.stage_row(a, b, i, cols, vals);
                log.push((i as u32, c as u32));
            }
        }
    });
    let mut counts = vec![0usize; n];
    for slot in &mut staged {
        for &(row, len) in &slot.get_mut().expect(OWN).2 {
            counts[row as usize] = len as usize;
        }
    }
    let rpts = counts_to_offsets(&counts);
    let mut cols = vec![0 as ColIdx; rpts[n]];
    let mut vals = vec![S::zero(); rpts[n]];
    let (cols_s, vals_s) = (
        SharedMutSlice::new(&mut cols),
        SharedMutSlice::new(&mut vals),
    );
    pool.broadcast(|wid| {
        let (scols, svals, log) = &*staged[wid].lock().expect(OWN);
        let mut src = 0usize;
        for &(row, len) in log {
            let (row, len) = (row as usize, len as usize);
            let dst = rpts[row]..rpts[row] + len;
            // SAFETY: every row was handed to exactly one worker, so the
            // destination windows of different workers are disjoint.
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
    Csr::from_parts_unchecked(n, b.ncols(), rpts, cols, vals, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm::algos::reference;
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
