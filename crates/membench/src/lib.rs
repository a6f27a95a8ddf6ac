//! Microbenchmarks from Section 3 of the paper, plus the MCDRAM
//! memory model used where the hardware itself is unavailable.
//!
//! * [`sched`] — OpenMP-style scheduling cost (Figure 2): time an
//!   empty parallel loop under static/dynamic/guided policies.
//! * [`alloc`] — memory allocation/touch/deallocation cost, "single"
//!   vs "parallel" schemes (Figures 3 & 4).
//! * [`stanza`] — the stanza access-pattern bandwidth benchmark
//!   (Figure 5): contiguous blocks of varying length fetched from
//!   random locations.
//! * [`memmodel`] — a two-level bandwidth model calibrated on the
//!   paper's Figure 5 shape, standing in for physical MCDRAM when
//!   predicting Cache-mode speedups (Figure 10); ARCHITECTURE.md
//!   "Paper → code" maps both figures.

#![warn(missing_docs)]

pub mod alloc;
pub mod memmodel;
pub mod sched;
pub mod stanza;

use std::time::Instant;

/// Median of `reps` (at least one) samples drawn from `sample`.
pub fn median_of(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..reps.max(1)).map(|_| sample()).collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall-clock milliseconds of `reps` runs of `f`. Nothing is
/// run untimed: a caller that wants a warm-up runs `f` once first.
pub fn median_millis(reps: usize, mut f: impl FnMut()) -> f64 {
    median_of(reps, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_millis_is_positive_and_sane() {
        let ms = median_millis(3, || {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        assert!(ms >= 0.0);
        assert!(ms < 1_000.0, "10k adds should not take a second: {ms} ms");
    }

    #[test]
    fn median_resists_one_outlier() {
        let mut calls = 0u32;
        let ms = median_millis(5, || {
            calls += 1;
            if calls == 2 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        assert!(ms < 30.0, "median should discard the single slow rep: {ms}");
    }
}
