//! Pooled per-worker workspaces — the steady-state form of the
//! paper's "parallel" memory scheme (§3.2, Figure 3).
//!
//! The paper's KNL measurements show "single" deallocation of large
//! buffers costing >100 ms, while per-thread ("parallel")
//! allocation/deallocation of the same total is far cheaper; its
//! kernels therefore (a) compute each thread's requirement up front,
//! (b) allocate inside the parallel region, and (c) *reuse* the buffer
//! across rows. [`WorkspacePool`] packages (b)–(c) for *arbitrary*
//! reusable objects (plain buffers, hash tables, dense sparse
//! accumulators, heap buffers) that survive parallel regions, and
//! instruments the reuse so callers can assert that repeated
//! executions hit the pool instead of the allocator — the Figure 4
//! cost the paper shows dominating repeated products. The raw
//! single-vs-parallel experiment itself lives in `spgemm-membench`.
//!
//! # Clearing policy: clear on acquire, not on release
//!
//! A workspace is returned to its slot in whatever state the closure
//! left it — including a dirty, half-filled state if the closure
//! panicked. Relying on "everyone cleans up before releasing" is
//! exactly the latent-state-leak bug class this module exists to
//! prevent: a panic, an early return, or one forgotten reset path
//! silently corrupts the *next* execution that reuses the buffer.
//! Callers must therefore treat every acquired workspace as dirty and
//! re-validate it **after acquiring** (the `reused` flag passed to the
//! closure says whether there is anything to clear). The SpGEMM plan
//! layer does this through its accumulators' `ensure`/`scrub` hooks.

use crate::Pool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, TryLockError};

/// Reuse counters for one [`WorkspacePool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Workspaces constructed because a slot was empty.
    pub created: u64,
    /// Acquisitions served by an existing workspace (no allocation).
    pub reused: u64,
}

impl WorkspaceStats {
    /// Total acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.created + self.reused
    }
}

/// Workspace constructions across every pool (rising = slots
/// still warming up or pools churning; flat = steady-state reuse).
static SLOTS_CREATED: spgemm_obs::CounterSite =
    spgemm_obs::CounterSite::new("par", "par.workspace.slots_created");
/// Acquisitions served without construction, across every pool.
static SLOTS_REUSED: spgemm_obs::CounterSite =
    spgemm_obs::CounterSite::new("par", "par.workspace.slots_reused");

/// A pool of per-worker reusable workspaces, indexed by worker id.
///
/// Each worker may only acquire its own slot during a parallel region,
/// which keeps the per-slot `Mutex` uncontended; it exists to make the
/// container `Sync` without `unsafe`. Workspaces are created lazily by
/// the caller-supplied constructor on first acquisition and then live
/// until [`WorkspacePool::clear`] or drop — across arbitrarily many
/// parallel regions, which is what makes repeated plan executions
/// allocation-free in steady state.
///
/// ```
/// use spgemm_par::{Pool, WorkspacePool};
///
/// let pool = Pool::new(2);
/// let ws: WorkspacePool<Vec<u64>> = WorkspacePool::for_pool(&pool);
/// for _ in 0..3 {
///     pool.broadcast(|wid| {
///         ws.with(wid, || Vec::with_capacity(1024), |buf, _reused| {
///             buf.clear(); // clear on acquire
///             buf.push(wid as u64);
///         });
///     });
/// }
/// let stats = ws.stats();
/// assert_eq!(stats.created, 2, "one construction per worker");
/// assert_eq!(stats.reused, 4, "every later region reuses");
/// ```
pub struct WorkspacePool<T> {
    slots: Vec<Padded<Mutex<Option<T>>>>,
    created: AtomicU64,
    reused: AtomicU64,
}

/// One slot per 128 bytes: neighbouring workers' locks never share a
/// cache line, nor an adjacent-line prefetch pair.
#[repr(align(128))]
struct Padded<T>(T);

impl<T> WorkspacePool<T> {
    /// A pool with one slot per worker of `pool`.
    pub fn for_pool(pool: &Pool) -> Self {
        Self::with_threads(pool.nthreads())
    }

    /// A pool with `nthreads` slots.
    pub fn with_threads(nthreads: usize) -> Self {
        WorkspacePool {
            slots: (0..nthreads).map(|_| Padded(Mutex::new(None))).collect(),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Number of worker slots.
    pub fn nthreads(&self) -> usize {
        self.slots.len()
    }

    /// Acquire worker `wid`'s workspace for the duration of `f`,
    /// constructing it with `make` if the slot is empty.
    ///
    /// `f` additionally receives `reused`: `true` when the workspace
    /// was left by a previous acquisition and may hold stale state the
    /// caller must clear (see the module docs on clear-on-acquire).
    /// Panics if the slot is already borrowed, which would mean two
    /// workers shared a `wid` — a pool bug.
    pub fn with<R>(
        &self,
        wid: usize,
        make: impl FnOnce() -> T,
        f: impl FnOnce(&mut T, bool) -> R,
    ) -> R {
        // A panicked closure's workspace is dirty: clear-on-acquire.
        let mut guard = match self.slots[wid].0.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                panic!("WorkspacePool slot borrowed by two workers at once")
            }
        };
        let reused = guard.is_some();
        let ws = match guard.as_mut() {
            Some(ws) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                SLOTS_REUSED.incr();
                ws
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                SLOTS_CREATED.incr();
                guard.insert(make())
            }
        };
        f(ws, reused)
    }

    /// Current reuse counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }

    /// Drop every pooled workspace (slots stay; the next acquisition
    /// re-creates). Counters are preserved.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s.0.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn creates_once_per_worker_then_reuses() {
        let pool = Pool::new(3);
        let ws: WorkspacePool<Vec<u8>> = WorkspacePool::for_pool(&pool);
        assert_eq!(ws.nthreads(), 3);
        for round in 0..5 {
            pool.broadcast(|wid| {
                ws.with(
                    wid,
                    || Vec::with_capacity(64),
                    |buf, reused| {
                        assert_eq!(reused, round > 0, "wid {wid} round {round}");
                        buf.push(wid as u8);
                    },
                );
            });
        }
        let st = ws.stats();
        assert_eq!(st.created, 3);
        assert_eq!(st.reused, 12);
        assert_eq!(st.acquisitions(), 15);
    }

    #[test]
    fn dirty_state_survives_release_and_is_flagged() {
        // The pool does NOT clear on release: the second acquisition
        // must see both the stale contents and reused == true.
        let ws: WorkspacePool<Vec<u32>> = WorkspacePool::with_threads(1);
        ws.with(0, Vec::new, |buf, _| buf.extend([1, 2, 3]));
        ws.with(0, Vec::new, |buf, reused| {
            assert!(reused);
            assert_eq!(buf, &[1, 2, 3], "release leaves state in place");
        });
    }

    /// A panicked closure's slot is handed out again, dirty and `reused`.
    #[test]
    fn a_panic_in_the_closure_leaves_the_slot_usable() {
        let ws: WorkspacePool<Vec<u32>> = WorkspacePool::with_threads(1);
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ws.with(0, Vec::new, |buf, _| {
                buf.push(1);
                panic!("fault");
            })
        }));
        assert!(fault.is_err());
        ws.with(0, Vec::new, |buf, reused| assert!(reused && buf == &[1]));
    }

    #[test]
    fn capacity_survives_reuse() {
        let ws: WorkspacePool<Vec<u64>> = WorkspacePool::with_threads(1);
        let p1 = ws.with(
            0,
            || Vec::with_capacity(4096),
            |buf, _| {
                buf.resize(4096, 0);
                buf.as_ptr() as usize
            },
        );
        let p2 = ws.with(0, Vec::new, |buf, _| {
            buf.clear();
            buf.as_ptr() as usize
        });
        assert_eq!(p1, p2, "no reallocation across acquisitions");
    }

    #[test]
    fn clear_drops_workspaces_but_keeps_counters() {
        let mut ws: WorkspacePool<Vec<u8>> = WorkspacePool::with_threads(2);
        ws.with(0, || vec![1], |_, _| ());
        let before = ws.stats();
        ws.clear();
        assert_eq!(ws.stats(), before);
        ws.with(0, Vec::new, |buf, reused| {
            assert!(!reused, "cleared slot constructs anew");
            assert!(buf.is_empty());
        });
        assert_eq!(ws.stats().created, 2);
    }

    #[test]
    fn make_runs_lazily_only_for_touched_slots() {
        let ws: WorkspacePool<u32> = WorkspacePool::with_threads(4);
        let makes = AtomicUsize::new(0);
        ws.with(
            2,
            || {
                makes.fetch_add(1, Ordering::SeqCst);
                7
            },
            |v, _| assert_eq!(*v, 7),
        );
        assert_eq!(makes.load(Ordering::SeqCst), 1);
        assert_eq!(ws.stats().created, 1, "untouched slots stay empty");
    }
}
