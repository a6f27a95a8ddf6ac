//! The quiet-machine gate.
//!
//! The box this benchmark is grown on is a small KVM guest with
//! neighbours: its clock has two levels 28 % apart and its shared
//! cache and memory are contended in spells that last from a second
//! to minutes (README, "Noise profile"). A run's op times are then a
//! mixture of a quiet cluster and slower ones, and the median and
//! above all the 90th percentile of a mixture jump as the mix
//! crosses one half or one tenth — that, not the program, was most of
//! the run-to-run spread.
//!
//! So the harness reads the machine's state between *chunks* of ops
//! with [`probe`] — a fixed kernel of its own (`std` threads, integer
//! arithmetic and loads from its own table; nothing of the program
//! under test) whose time depends on clock, sibling hyper-thread and
//! cache contention alike — files every chunk under the slower of the
//! readings before and after it, and reports each phase over its
//! [`quietest`] chunks. What is reported is still plain wall time of
//! the program's ops: those that ran while the machine was quietest.
//! On recorded runs this halves the spread of `op_ms_p50` and
//! `op_ms_p90` between runs (README has the numbers).

use std::sync::OnceLock;
use std::time::Instant;

/// 4 MiB of `u64`: past the 2 MiB private L2 of the reference box,
/// inside its shared L3, so a neighbour's cache traffic shows.
const TABLE_WORDS: usize = 1 << 19;

/// Iterations of four independent gathers each: about 1 ms on the
/// reference box, long against timer resolution, short against an op.
const GATHERS: usize = 100_000;

/// Share of a phase's chunks that is reported.
const KEEP_SHARE: f64 = 0.25;

/// A phase reports at least this many samples (more chunks are taken,
/// next-quietest first, until it does).
const MIN_KEPT: usize = 10;

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| (0..TABLE_WORDS as u64).collect())
}

fn gather_ms(table: &[u64]) -> f64 {
    const MUL: u64 = 6_364_136_223_846_793_005;
    let mask = table.len() - 1;
    let t = Instant::now();
    let mut at = std::hint::black_box([1u64, 2, 3, 4]);
    let mut sum = 0u64;
    for _ in 0..GATHERS {
        for (lane, x) in at.iter_mut().enumerate() {
            *x = x.wrapping_mul(MUL).wrapping_add(2 * lane as u64 + 1);
            sum = sum.wrapping_add(table[(*x >> 33) as usize & mask]);
        }
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// One reading: ms the slowest of `threads` concurrent threads (this
/// one included) takes for the fixed kernel.
pub fn probe(threads: usize) -> f64 {
    let table = table();
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(|| gather_ms(table))).collect();
        let own = gather_ms(table);
        others
            .into_iter()
            .map(|h| h.join().expect("speed probe thread"))
            .fold(own, f64::max)
    })
}

/// Indices of the chunks a phase reports, given each chunk's reading
/// and sample count: the quietest [`KEEP_SHARE`] of them, and
/// next-quietest ones until [`MIN_KEPT`] samples.
pub fn quietest(chunks: &[(f64, usize)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    order.sort_by(|&a, &b| chunks[a].0.total_cmp(&chunks[b].0));
    let share = (chunks.len() as f64 * KEEP_SHARE).ceil() as usize;
    let mut samples = 0;
    let mut keep = Vec::new();
    for (rank, i) in order.into_iter().enumerate() {
        if rank >= share && samples >= MIN_KEPT {
            break;
        }
        samples += chunks[i].1;
        keep.push(i);
    }
    keep.sort_unstable();
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_a_positive_time_at_any_width() {
        for threads in [1, 2, 4] {
            let ms = probe(threads);
            assert!(ms.is_finite() && ms > 0.0, "{threads}: {ms}");
        }
    }

    #[test]
    fn gate_keeps_the_quietest_quarter() {
        let chunks: Vec<(f64, usize)> = [1.3, 1.0, 1.5, 1.1, 1.6, 1.2, 1.4, 1.7]
            .into_iter()
            .map(|ms| (ms, 20))
            .collect();
        assert_eq!(quietest(&chunks), vec![1, 3]);
    }

    #[test]
    fn gate_takes_more_chunks_until_ten_samples() {
        let chunks = [(1.30, 4), (1.00, 4), (1.50, 4), (1.28, 4)];
        // A quarter is one chunk of 4 samples: 1.28 and 1.30 join, 1.50 does not.
        assert_eq!(quietest(&chunks), vec![0, 1, 3]);
        assert_eq!(quietest(&[(2.0, 1), (1.0, 1)]), vec![0, 1]);
        assert_eq!(quietest(&[]), Vec::<usize>::new());
    }
}
