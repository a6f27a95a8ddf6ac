//! Allocation / touch / deallocation cost, "single" vs "parallel"
//! (Figures 3 & 4 of the paper).
//!
//! The "single" scheme allocates one buffer of the full size on the
//! calling thread; the "parallel" scheme (Figure 3) has every worker
//! allocate, touch, and free `total / nthreads` privately. The paper's
//! KNL result — parallel deallocation of large buffers is order-of-
//! magnitude cheaper — motivates the thread-private scratch design
//! used by every kernel in this repository. A third, "pooled" scheme
//! measures what reuse via [`spgemm_par::WorkspacePool`] buys over
//! repeated parallel allocation.

use spgemm_par::{Pool, WorkspacePool};
use std::sync::Mutex;
use std::time::Instant;

/// Phase timings in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocTimings {
    /// Reserve the address space (malloc).
    pub alloc_ms: f64,
    /// First write to every page.
    pub touch_ms: f64,
    /// Free (the paper's Figure 4 quantity).
    pub dealloc_ms: f64,
}

/// "Single" scheme: one thread, one buffer of `total_bytes`.
pub fn measure_single(total_bytes: usize) -> AllocTimings {
    let t0 = Instant::now();
    let mut v: Vec<u8> = Vec::with_capacity(total_bytes);
    let t1 = Instant::now();
    v.resize(total_bytes, 1);
    std::hint::black_box(v.as_ptr());
    let t2 = Instant::now();
    drop(v);
    let t3 = Instant::now();
    AllocTimings {
        alloc_ms: (t1 - t0).as_secs_f64() * 1e3,
        touch_ms: (t2 - t1).as_secs_f64() * 1e3,
        dealloc_ms: (t3 - t2).as_secs_f64() * 1e3,
    }
}

/// "Parallel" scheme (Figure 3): every worker allocates, touches, and
/// frees its `total_bytes / nthreads` share inside the parallel
/// region. Phases are separated by region barriers and timed on the
/// caller.
pub fn measure_parallel(pool: &Pool, total_bytes: usize) -> AllocTimings {
    let nt = pool.nthreads();
    let each = total_bytes / nt.max(1);
    // Each worker locks its own slot; a panic fails the call first.
    const OWN_SLOT: &str = "a slot is locked by its own worker only";
    let slots: Vec<Mutex<Option<Vec<u8>>>> = (0..nt).map(|_| Mutex::new(None)).collect();

    let t0 = Instant::now();
    pool.broadcast(|wid| {
        *slots[wid].lock().expect(OWN_SLOT) = Some(Vec::with_capacity(each));
    });
    let t1 = Instant::now();
    pool.broadcast(|wid| {
        let mut g = slots[wid].lock().expect(OWN_SLOT);
        let v = g.as_mut().expect("allocated in previous phase");
        v.resize(each, 1);
        std::hint::black_box(v.as_ptr());
    });
    let t2 = Instant::now();
    pool.broadcast(|wid| {
        drop(slots[wid].lock().expect(OWN_SLOT).take());
    });
    let t3 = Instant::now();
    AllocTimings {
        alloc_ms: (t1 - t0).as_secs_f64() * 1e3,
        touch_ms: (t2 - t1).as_secs_f64() * 1e3,
        dealloc_ms: (t3 - t2).as_secs_f64() * 1e3,
    }
}

/// "Pooled" scheme: the parallel scheme amortized through reusable
/// thread-private buffers — after the first call, allocation and
/// deallocation cost approaches zero. Returns timings of the *second*
/// use (steady state).
pub fn measure_pooled(pool: &Pool, total_bytes: usize) -> AllocTimings {
    let nt = pool.nthreads();
    let each = total_bytes / nt.max(1);
    let scratch = WorkspacePool::<Vec<u8>>::for_pool(pool);
    // warmup: first use pays the real allocation
    pool.broadcast(|wid| {
        scratch.with(wid, Vec::new, |b, _| b.resize(each, 1));
    });
    let t0 = Instant::now();
    pool.broadcast(|wid| {
        scratch.with(wid, Vec::new, |b, _| {
            b.clear();
            b.resize(each, 1); // no allocation: capacity retained
            std::hint::black_box(b.as_ptr());
        });
    });
    let t1 = Instant::now();
    AllocTimings {
        alloc_ms: 0.0,
        touch_ms: (t1 - t0).as_secs_f64() * 1e3,
        dealloc_ms: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_timings_nonnegative_and_touch_dominates_tiny_alloc() {
        let t = measure_single(1 << 22); // 4 MiB
        assert!(t.alloc_ms >= 0.0 && t.touch_ms >= 0.0 && t.dealloc_ms >= 0.0);
        assert!(t.touch_ms > 0.0, "writing 4 MiB takes measurable time");
    }

    #[test]
    fn parallel_scheme_covers_full_size() {
        let pool = Pool::new(2);
        let t = measure_parallel(&pool, 1 << 22);
        assert!(t.touch_ms > 0.0);
    }

    #[test]
    fn pooled_steady_state_reports_zero_alloc() {
        let pool = Pool::new(2);
        let t = measure_pooled(&pool, 1 << 20);
        assert_eq!(t.alloc_ms, 0.0);
        assert_eq!(t.dealloc_ms, 0.0);
    }
}
