//! Parallel runtime for the SpGEMM reproduction.
//!
//! The paper's architecture work (§3, §4.1) is about *how* the loop
//! over output rows is scheduled and *where* temporary memory is
//! allocated, not about the arithmetic. Rust has no OpenMP, and rayon's
//! work-stealing matches none of the three OpenMP policies the paper
//! measures, so this crate implements the runtime the paper assumes:
//!
//! * [`Pool`] — a persistent pool of parked worker threads executing
//!   *parallel regions* ([`Pool::broadcast`]) and *scheduled loops*
//!   ([`Pool::parallel_for`]) under [`Schedule::Static`],
//!   [`Schedule::Dynamic`] or [`Schedule::Guided`] — the subjects of
//!   the paper's Figure 2 and Figure 9. There is no process-global
//!   pool: as in the paper's §3 runs, every region runs on a team the
//!   caller creates, sizes and passes.
//! * [`partition`] — the flop-balanced row partitioner of §4.1
//!   (Figure 6): per-row work estimates, a prefix sum, and a
//!   lower-bound binary search give each thread an equal-work block of
//!   *contiguous* rows, keeping static scheduling's low overhead.
//! * [`scan`] — sequential and pool-parallel prefix sums (used both by
//!   the partitioner and to build output row pointers).
//! * [`workspace`] — [`WorkspacePool`], pooled per-worker workspaces
//!   with reuse instrumentation: the "parallel" memory-management
//!   scheme of §3.2 (Figure 3) — each worker allocates, reuses, and
//!   frees only its own memory — in its steady-state (allocation-free)
//!   form, used by the SpGEMM plan layer to reuse accumulators across
//!   repeated products (the Figure 4 cost).
//! * [`unsync`] — a guarded escape hatch ([`unsync::SharedMutSlice`])
//!   for the disjoint-writes idiom every CSR-producing kernel needs
//!   (each thread fills its own precomputed slice of the output).

#![warn(missing_docs)]

pub mod partition;
mod pool;
pub mod scan;
mod schedule;
pub mod unsync;
pub mod workspace;

pub use pool::Pool;
pub use schedule::Schedule;
pub use workspace::{WorkspacePool, WorkspaceStats};

/// Render a `catch_unwind` payload as a human-readable string — the
/// shared helper of every layer that contains worker panics (the
/// serving engine's per-job net, the shard runtime's per-product net).
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Number of hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
