//! Loop scheduling policies, mirroring OpenMP's `schedule` clause.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How the iterations of a [`crate::Pool::parallel_for`] loop are
/// distributed over workers.
///
/// These reproduce the three OpenMP policies the paper benchmarks in
/// §3.1 (Figure 2) plus explicit per-thread offsets for the
/// flop-balanced assignment of §4.1:
///
/// * `Static` — iterations split into one contiguous block per thread
///   up front; near-zero runtime overhead, no load balancing.
/// * `Dynamic { chunk }` — threads repeatedly claim the next `chunk`
///   iterations from a shared atomic counter; balances load at the
///   cost of one atomic RMW per chunk.
/// * `Guided { min_chunk }` — like dynamic but the claimed chunk is
///   `remaining / nthreads`, shrinking exponentially and never below
///   `min_chunk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous block of `⌈n / nthreads⌉` iterations per thread.
    Static,
    /// First-come-first-served chunks of the given size (OpenMP
    /// `schedule(dynamic, chunk)`; OpenMP's default chunk is 1).
    Dynamic {
        /// Iterations claimed per atomic fetch.
        chunk: usize,
    },
    /// Exponentially shrinking chunks (OpenMP `schedule(guided)`).
    Guided {
        /// Lower bound on the chunk size.
        min_chunk: usize,
    },
}

impl Schedule {
    /// OpenMP-default dynamic scheduling (`chunk = 1`).
    pub const DYNAMIC: Schedule = Schedule::Dynamic { chunk: 1 };
    /// OpenMP-default guided scheduling (`min_chunk = 1`).
    pub const GUIDED: Schedule = Schedule::Guided { min_chunk: 1 };

    /// Claim the next chunk of `0..n` from the counter `next` that all
    /// `nthreads` workers of one region share (it starts at 0). Returns
    /// `None` once the iterations are exhausted; across the workers the
    /// claimed chunks cover `0..n` exactly once. This is the claim loop
    /// of [`crate::Pool::parallel_for`], exposed so a region that keeps
    /// worker-local state between iterations can claim the same way.
    ///
    /// # Panics
    ///
    /// On [`Schedule::Static`], whose blocks are fixed per worker and
    /// never claimed.
    #[inline]
    pub fn claim(&self, next: &AtomicUsize, n: usize, nthreads: usize) -> Option<Range<usize>> {
        let (start, end) = match *self {
            Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                (start, start.saturating_add(chunk).min(n))
            }
            Schedule::Guided { min_chunk } => {
                // Claim `max(min_chunk, remaining / nthreads)` iterations
                // with a CAS so the shrinking chunk size is computed
                // against a consistent `remaining`.
                let mut cur = next.load(Ordering::Relaxed);
                loop {
                    if cur >= n {
                        return None;
                    }
                    let chunk = ((n - cur) / nthreads).max(min_chunk.max(1));
                    match next.compare_exchange_weak(
                        cur,
                        cur + chunk,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break (cur, (cur + chunk).min(n)),
                        Err(seen) => cur = seen,
                    }
                }
            }
            Schedule::Static => panic!("static blocks are fixed per worker, not claimed"),
        };
        (start < n).then_some(start..end)
    }
}

/// The contiguous iteration block worker `wid` of `nthreads` receives
/// under static scheduling of `n` iterations. Blocks differ in size by
/// at most one and cover `0..n` exactly.
#[inline]
pub(crate) fn static_block(n: usize, wid: usize, nthreads: usize) -> std::ops::Range<usize> {
    debug_assert!(wid < nthreads);
    let base = n / nthreads;
    let extra = n % nthreads;
    // The first `extra` workers get `base + 1` iterations.
    let start = wid * base + wid.min(extra);
    let len = base + usize::from(wid < extra);
    start..(start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_blocks_cover_exactly() {
        for n in [0usize, 1, 2, 5, 64, 100, 101] {
            for t in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![false; n];
                let mut prev_end = 0;
                for w in 0..t {
                    let r = static_block(n, w, t);
                    assert_eq!(r.start, prev_end, "blocks contiguous (n={n}, t={t})");
                    prev_end = r.end;
                    for i in r {
                        assert!(!covered[i]);
                        covered[i] = true;
                    }
                }
                assert_eq!(prev_end, n);
                assert!(covered.iter().all(|&c| c));
            }
        }
    }

    #[test]
    fn static_blocks_balanced_within_one() {
        let sizes: Vec<usize> = (0..7).map(|w| static_block(100, w, 7).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn schedule_constants() {
        assert_eq!(Schedule::DYNAMIC, Schedule::Dynamic { chunk: 1 });
        assert_eq!(Schedule::GUIDED, Schedule::Guided { min_chunk: 1 });
    }
}
