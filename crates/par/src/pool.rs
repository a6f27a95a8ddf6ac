//! Persistent worker pool executing parallel regions.
//!
//! The pool mirrors the OpenMP execution model the paper's kernels are
//! written against: a fixed team of threads that all enter the same
//! *parallel region* (here a closure receiving the worker id), with
//! the calling thread participating as worker 0. Workers park between
//! regions, so repeated regions pay only a wake/notify — this is what
//! lets Figure 2's scheduling-cost measurements see the scheduler, not
//! thread spawning.
//!
//! # Panics in a region
//!
//! A panic in the body — on a spawned worker or on the calling thread —
//! never skips the region's barrier: every worker still finishes (or
//! unwinds out of) its call before [`Pool::broadcast`] returns control,
//! so nothing the body borrows is used after the caller's frame is
//! gone. `broadcast` then resumes the caller's own panic, or else the
//! first one a worker hit, on the calling thread. No worker thread
//! dies, and the pool runs the next region as usual.

use crate::schedule::{static_block, Schedule};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A fixed-size team of worker threads executing parallel regions.
///
/// Dropping the pool shuts the workers down and joins them.
pub struct Pool {
    shared: Option<Arc<Shared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    nthreads: usize,
    /// Serializes whole regions so a pool shared between caller threads
    /// is safe: one region at a time.
    region: Mutex<()>,
}

struct Shared {
    /// Recovers from poisoning: no body runs under it; plain stores.
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

struct State {
    /// Type-erased pointer to the current region body (valid for the
    /// duration of the owning `broadcast` call only).
    job: Option<JobRef>,
    /// Incremented for every published region so parked workers can
    /// tell "new job" from spurious wakeups.
    epoch: u64,
    /// Workers (excluding the caller) still inside the current region.
    active: usize,
    /// The first panic a spawned worker hit in the current region, kept
    /// for `broadcast` to resume on the calling thread.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// Lifetime-erased reference to the region body. See the SAFETY
/// discussion in [`Pool::broadcast`] for why sending it across threads
/// and calling it there is sound.
#[derive(Clone, Copy)]
struct JobRef(&'static (dyn Fn(usize) + Sync));

impl Pool {
    /// Create a pool running regions on `nthreads` threads (the
    /// calling thread plus `nthreads - 1` spawned workers).
    ///
    /// `nthreads == 1` degenerates to inline execution with no spawned
    /// threads and no synchronization, so single-thread baselines in
    /// the benchmarks measure pure kernel time.
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        if nthreads == 1 {
            return Pool {
                shared: None,
                handles: Vec::new(),
                nthreads,
                region: Mutex::new(()),
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(nthreads - 1);
        for wid in 1..nthreads {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("spgemm-worker-{wid}"))
                    .spawn(move || worker_loop(&shared, wid))
                    .expect("failed to spawn pool worker"),
            );
        }
        Pool {
            shared: Some(shared),
            handles,
            nthreads,
            region: Mutex::new(()),
        }
    }

    /// A pool using every hardware thread.
    pub fn with_all_threads() -> Self {
        Pool::new(crate::hardware_threads())
    }

    /// Number of workers (including the calling thread).
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Execute `body(wid)` once on every worker, `wid ∈ 0..nthreads`,
    /// with the caller participating as worker 0. Returns after *all*
    /// workers finish — a full OpenMP-style parallel region with
    /// implicit barrier.
    ///
    /// # Panics
    /// If `body` panics on any worker, after the barrier (module docs:
    /// "Panics in a region"). The pool stays usable.
    pub fn broadcast(&self, body: impl Fn(usize) + Sync) {
        let Some(shared) = &self.shared else {
            body(0);
            return;
        };
        // A panicked region poisons this; it guards no data, and that
        // region already passed its barrier.
        let _region = self.region.lock().unwrap_or_else(PoisonError::into_inner);
        // Erase the closure's lifetime for the workers. SAFETY: we
        // block below until `active == 0`, i.e. every worker has
        // finished calling through this reference, before `body` can be
        // dropped — on the unwinding path too, because the caller's own
        // call runs under `catch_unwind` and a worker decrements
        // `active` whether its call returned or panicked; the pointee
        // is `Sync` so concurrent calls are fine.
        let wide: &(dyn Fn(usize) + Sync) = &body;
        let job = JobRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(wide)
        });
        {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            debug_assert!(st.job.is_none(), "nested broadcast on the same pool");
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.nthreads - 1;
            shared.work_cv.notify_all();
        }
        // The caller is worker 0.
        let mine = catch_unwind(AssertUnwindSafe(|| body(0)));
        let parked = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            while st.active > 0 {
                st = (shared.done_cv.wait(st)).unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(payload) = mine.err().or(parked) {
            resume_unwind(payload);
        }
    }

    /// Run `body(i)` for every `i in 0..n` under the given
    /// [`Schedule`]. This is the `#pragma omp parallel for
    /// schedule(...)` of the paper's Figures 2 and 9.
    pub fn parallel_for(&self, n: usize, sched: Schedule, body: impl Fn(usize) + Sync) {
        match sched {
            Schedule::Static => {
                let nt = self.nthreads;
                self.broadcast(|wid| {
                    for i in static_block(n, wid, nt) {
                        body(i);
                    }
                });
            }
            Schedule::Dynamic { .. } | Schedule::Guided { .. } => {
                let nt = self.nthreads;
                let next = AtomicUsize::new(0);
                self.broadcast(|_| {
                    while let Some(chunk) = sched.claim(&next, n, nt) {
                        for i in chunk {
                            body(i);
                        }
                    }
                });
            }
        }
    }

    /// Run `body(t, offsets[t]..offsets[t+1])` on each worker `t`:
    /// static scheduling with *caller-chosen* block boundaries. This is
    /// how kernels consume the flop-balanced partition of §4.1.
    ///
    /// `offsets` must have `nthreads() + 1` non-decreasing entries.
    pub fn parallel_ranges(
        &self,
        offsets: &[usize],
        body: impl Fn(usize, std::ops::Range<usize>) + Sync,
    ) {
        assert_eq!(
            offsets.len(),
            self.nthreads + 1,
            "offsets must have nthreads + 1 entries"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        self.broadcast(|wid| body(wid, offsets[wid]..offsets[wid + 1]));
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            {
                let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                st.shutdown = true;
                shared.work_cv.notify_all();
            }
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(shared: &Shared, wid: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = (shared.work_cv.wait(st)).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // `broadcast` keeps the pointee alive until `active` reaches 0,
        // which happens strictly after this call returns or unwinds.
        let outcome = catch_unwind(AssertUnwindSafe(|| (job.0)(wid)));
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn broadcast_runs_every_worker_once() {
        for nt in [1usize, 2, 4] {
            let pool = Pool::new(nt);
            let hits = AtomicUsize::new(0);
            let wid_mask = AtomicUsize::new(0);
            pool.broadcast(|wid| {
                hits.fetch_add(1, Ordering::SeqCst);
                wid_mask.fetch_or(1 << wid, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), nt);
            assert_eq!(wid_mask.load(Ordering::SeqCst), (1 << nt) - 1);
        }
    }

    #[test]
    fn broadcast_reusable_many_times() {
        let pool = Pool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 300);
    }

    fn check_cover(nt: usize, n: usize, sched: Schedule) {
        let pool = Pool::new(nt);
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, sched, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "iteration {i} under {sched:?} x{nt}"
            );
        }
    }

    #[test]
    fn parallel_for_covers_every_iteration_exactly_once() {
        for nt in [1usize, 2, 4] {
            for n in [0usize, 1, 7, 64, 1000] {
                check_cover(nt, n, Schedule::Static);
                check_cover(nt, n, Schedule::Dynamic { chunk: 1 });
                check_cover(nt, n, Schedule::Dynamic { chunk: 8 });
                check_cover(nt, n, Schedule::Guided { min_chunk: 1 });
                check_cover(nt, n, Schedule::Guided { min_chunk: 4 });
            }
        }
    }

    #[test]
    fn parallel_for_sums_correctly() {
        let pool = Pool::new(4);
        let sum = AtomicU64::new(0);
        pool.parallel_for(1000, Schedule::GUIDED, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 999 * 1000 / 2);
    }

    #[test]
    fn parallel_ranges_passes_exact_blocks() {
        let pool = Pool::new(3);
        let offsets = vec![0usize, 5, 5, 12];
        let seen = Mutex::new(vec![None; 3]);
        pool.parallel_ranges(&offsets, |wid, r| {
            seen.lock().unwrap()[wid] = Some(r);
        });
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0], Some(0..5));
        assert_eq!(seen[1], Some(5..5));
        assert_eq!(seen[2], Some(5..12));
    }

    #[test]
    #[should_panic(expected = "nthreads + 1")]
    fn parallel_ranges_rejects_bad_offsets() {
        let pool = Pool::new(2);
        pool.parallel_ranges(&[0, 1], |_, _| {});
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.nthreads(), 1);
        let tid = std::thread::current().id();
        pool.broadcast(|wid| {
            assert_eq!(wid, 0);
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    #[test]
    fn pool_drop_joins_cleanly() {
        for _ in 0..10 {
            let pool = Pool::new(4);
            pool.broadcast(|_| {});
            drop(pool);
        }
    }

    /// Run `f` on a thread of its own and fail, instead of hanging the
    /// suite, when it does not finish.
    fn watched<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        std::thread::spawn(move || tx.send(f()));
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("HANG: region did not return within 5 s"),
            Err(RecvTimeoutError::Disconnected) => panic!("the watched thread panicked"),
        }
    }

    /// Whether `region` panicked with `message`.
    fn panics_with(region: impl FnOnce(), message: &str) -> bool {
        let caught = catch_unwind(AssertUnwindSafe(region));
        caught.is_err_and(|payload| crate::panic_text(payload).contains(message))
    }

    fn assert_runs_a_normal_region(pool: &Pool) {
        let hits = AtomicUsize::new(0);
        pool.broadcast(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), pool.nthreads());
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_survives() {
        watched(|| {
            let pool = Pool::new(3);
            let region = || pool.broadcast(|wid| assert_ne!(wid, 1, "worker fault"));
            assert!(panics_with(region, "worker fault"));
            assert_runs_a_normal_region(&pool);
        });
    }

    /// A panicked region poisons the region lock; the next still runs.
    #[test]
    fn a_panicked_region_leaves_the_region_lock_usable() {
        watched(|| {
            let pool = Arc::new(Pool::new(2));
            let region = || pool.parallel_for(8, Schedule::DYNAMIC, |i| assert_ne!(i, 5, "fault"));
            assert!(panics_with(region, "fault"));
            let other = Arc::clone(&pool);
            std::thread::spawn(move || assert_runs_a_normal_region(&other))
                .join()
                .expect("a second caller runs a region");
        });
    }

    #[test]
    fn caller_panic_waits_for_the_workers_before_unwinding() {
        // Both workers are inside the body when the caller panics (the
        // barrier forces it) and stay there until released — which the
        // test does only after `broadcast` is back, so a `broadcast`
        // that unwinds past its barrier is caught with both still
        // inside. One that waits sees them leave when `GRACE` runs out.
        const GRACE: Duration = Duration::from_millis(200);
        type Release = (Mutex<bool>, Condvar);
        // Everything by argument: a worker waiting in here reads its
        // own frame, not the region closure.
        fn linger(inside: &AtomicUsize, all_entered: &std::sync::Barrier, release: &Release) {
            inside.fetch_add(1, Ordering::SeqCst);
            all_entered.wait();
            let (released, release_cv) = release;
            let held = released.lock().unwrap();
            drop(release_cv.wait_timeout_while(held, GRACE, |released| !*released));
            inside.fetch_sub(1, Ordering::SeqCst);
        }
        let still_inside = watched(|| {
            let pool = Pool::new(3);
            let inside = AtomicUsize::new(0);
            let all_entered = std::sync::Barrier::new(3);
            let release: Release = Default::default();
            let region = || {
                pool.broadcast(|wid| {
                    if wid == 0 {
                        all_entered.wait();
                        panic!("caller fault");
                    }
                    linger(&inside, &all_entered, &release);
                })
            };
            assert!(panics_with(region, "caller fault"));
            let still_inside = inside.load(Ordering::SeqCst);
            *release.0.lock().unwrap() = true;
            release.1.notify_all();
            while inside.load(Ordering::SeqCst) > 0 {
                std::thread::yield_now(); // this frame must outlive them
            }
            if still_inside == 0 {
                assert_runs_a_normal_region(&pool);
            }
            still_inside
        });
        assert_eq!(still_inside, 0, "workers still inside the region body");
    }

    #[test]
    fn mutation_through_mutex_is_visible_after_region() {
        let pool = Pool::new(4);
        let data = Mutex::new(vec![0u32; 16]);
        pool.parallel_for(16, Schedule::Static, |i| {
            data.lock().unwrap()[i] = i as u32 * 2;
        });
        let d = data.lock().unwrap();
        assert!(d.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }
}
