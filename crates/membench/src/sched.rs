//! Scheduling-cost microbenchmark (Figure 2).
//!
//! "…running \[a\] simple program, which only repeats loop iterations
//! without doing anything in the loop. We measure the time during loop
//! iterations" — the loop body is an opaque no-op, so the measured
//! time is the scheduler's bookkeeping: block arithmetic for static,
//! one atomic RMW per chunk for dynamic, a CAS with shrinking chunks
//! for guided.

use spgemm_par::{Pool, Schedule};

/// One measured point of the Figure 2 sweep.
#[derive(Clone, Copy, Debug)]
pub struct SchedPoint {
    /// Loop trip count.
    pub iterations: usize,
    /// Median milliseconds for the whole loop.
    pub millis: f64,
}

/// Time an empty `parallel_for` of `iterations` under `sched`.
pub fn scheduling_cost(pool: &Pool, iterations: usize, sched: Schedule, reps: usize) -> f64 {
    let run = || {
        pool.parallel_for(iterations, sched, |i| {
            std::hint::black_box(i);
        })
    };
    run(); // warm-up
    crate::median_millis(reps, run)
}

/// The full Figure 2 sweep: `iterations = 2^lo .. 2^hi` for the three
/// policies. Returns `(policy name, points)` series.
pub fn sweep(pool: &Pool, lo: u32, hi: u32, reps: usize) -> Vec<(&'static str, Vec<SchedPoint>)> {
    let policies: [(&'static str, Schedule); 3] = [
        ("static", Schedule::Static),
        ("dynamic", Schedule::DYNAMIC),
        ("guided", Schedule::GUIDED),
    ];
    policies
        .iter()
        .map(|&(name, sched)| {
            let pts = (lo..=hi)
                .map(|s| {
                    let iters = 1usize << s;
                    SchedPoint {
                        iterations: iters,
                        millis: scheduling_cost(pool, iters, sched, reps),
                    }
                })
                .collect();
            (name, pts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape() {
        let pool = Pool::new(2);
        let series = sweep(&pool, 5, 8, 2);
        assert_eq!(series.len(), 3);
        for (name, pts) in &series {
            assert_eq!(pts.len(), 4, "{name}");
            assert_eq!(pts[0].iterations, 32);
            assert_eq!(pts[3].iterations, 256);
            assert!(pts.iter().all(|p| p.millis >= 0.0));
        }
    }

    #[test]
    fn dynamic_chunk1_costs_more_than_static_at_scale() {
        // The qualitative Figure 2 claim. Measured at a size where the
        // per-iteration atomic clearly dominates; allow equality slack
        // for noisy CI machines.
        let pool = Pool::new(2);
        let st = scheduling_cost(&pool, 1 << 16, Schedule::Static, 3);
        let dy = scheduling_cost(&pool, 1 << 16, Schedule::DYNAMIC, 3);
        assert!(
            dy >= st * 0.8,
            "dynamic ({dy} ms) should not beat static ({st} ms) by much on an empty loop"
        );
    }
}
