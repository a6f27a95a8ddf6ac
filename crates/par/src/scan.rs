//! Sequential and parallel prefix sums.
//!
//! Both the flop-balanced partitioner (§4.1: "then do prefix sum") and
//! the symbolic→numeric hand-off of every two-phase kernel (per-row
//! counts → row pointers) reduce to prefix sums over machine integers.

use crate::{Pool, Schedule};

/// In-place *inclusive* prefix sum: `v[i] ← Σ_{j ≤ i} v[j]`. Returns
/// the total (the last element, or 0 for an empty slice).
pub fn inclusive_scan_in_place(v: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for x in v.iter_mut() {
        acc += *x;
        *x = acc;
    }
    acc
}

/// Exclusive prefix sum of `counts` into a fresh `counts.len() + 1`
/// vector whose last element is the total — exactly the shape of a CSR
/// row-pointer array built from per-row entry counts.
pub fn counts_to_offsets(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

/// Pool-parallel inclusive prefix sum (three-pass block scan). Falls
/// back to the sequential scan for small inputs where the barrier cost
/// exceeds the work.
pub fn parallel_inclusive_scan(pool: &Pool, v: &mut [u64]) -> u64 {
    const SEQ_CUTOFF: usize = 1 << 14;
    let n = v.len();
    let nt = pool.nthreads();
    if nt == 1 || n < SEQ_CUTOFF {
        return inclusive_scan_in_place(v);
    }
    // Pass 1: each worker scans its static block locally.
    // Each worker stores its own total once; a panic fails the call.
    const STORED: &str = "a block total is only ever stored";
    let block_totals: Vec<std::sync::Mutex<u64>> =
        (0..nt).map(|_| std::sync::Mutex::new(0)).collect();
    {
        let slice = crate::unsync::SharedMutSlice::new(v);
        pool.broadcast(|wid| {
            let r = crate::schedule::static_block(n, wid, nt);
            // SAFETY: static blocks are disjoint per worker.
            let block = unsafe { slice.slice_mut(r) };
            *block_totals[wid].lock().expect(STORED) = inclusive_scan_in_place(block);
        });
    }
    // Pass 2: exclusive scan of block totals (tiny, sequential).
    let mut carry = vec![0u64; nt];
    let mut acc = 0u64;
    for (c, t) in carry.iter_mut().zip(&block_totals) {
        *c = acc;
        acc += *t.lock().expect(STORED);
    }
    // Pass 3: rebase each block by its carry.
    {
        let slice = crate::unsync::SharedMutSlice::new(v);
        pool.broadcast(|wid| {
            let add = carry[wid];
            if add == 0 {
                return;
            }
            let r = crate::schedule::static_block(n, wid, nt);
            // SAFETY: same disjoint blocks as pass 1.
            let block = unsafe { slice.slice_mut(r) };
            for x in block {
                *x += add;
            }
        });
    }
    acc
}

/// Pool-parallel element-wise fill of `out[i] = f(i)`; a convenience
/// used when building per-row work estimates.
pub fn parallel_fill<T: Send + Sync>(pool: &Pool, out: &mut [T], f: impl Fn(usize) -> T + Sync) {
    let n = out.len();
    let slice = crate::unsync::SharedMutSlice::new(out);
    pool.parallel_for(n, Schedule::Static, |i| {
        // SAFETY: `parallel_for` visits each index exactly once.
        unsafe { slice.write(i, f(i)) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusive_scan_basics() {
        let mut v = vec![1u64, 2, 3, 4];
        assert_eq!(inclusive_scan_in_place(&mut v), 10);
        assert_eq!(v, vec![1, 3, 6, 10]);
        let mut empty: Vec<u64> = vec![];
        assert_eq!(inclusive_scan_in_place(&mut empty), 0);
    }

    #[test]
    fn counts_to_offsets_shapes_rpts() {
        assert_eq!(counts_to_offsets(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(counts_to_offsets(&[]), vec![0]);
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let pool = Pool::new(4);
        for n in [0usize, 1, 100, (1 << 14) + 17, 100_000] {
            let base: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % 11).collect();
            let mut seq = base.clone();
            let t_seq = inclusive_scan_in_place(&mut seq);
            let mut par = base.clone();
            let t_par = parallel_inclusive_scan(&pool, &mut par);
            assert_eq!(t_seq, t_par, "totals for n={n}");
            assert_eq!(seq, par, "scans for n={n}");
        }
    }

    #[test]
    fn parallel_fill_writes_every_slot() {
        let pool = Pool::new(3);
        let mut v = vec![0u64; 1000];
        parallel_fill(&pool, &mut v, |i| i as u64 * 3);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }
}
