//! What every workload implements, and the two run procedures built
//! on it: the untraced run that yields the end-to-end metrics and the
//! traced run that yields the workload-scoped per-layer ones.
//!
//! A run is a sequence of *blocks*; a block interleaves the three
//! phases (steady ops at `T` threads, steady ops at one thread, cold
//! ops) so that the machine's drift hits all of them alike instead of
//! whichever phase happened to run last. Each phase runs in *chunks*
//! of ops with a machine-state probe between them, and only the
//! chunks that ran while the machine was quietest are reported
//! (`speed.rs` says why).

use crate::{alloc, probes, span, speed, stats};
use std::time::Instant;

/// Which of the two configurations built in set-up an op runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Width {
    /// Pool / engine / runtime of width `T`.
    Wide,
    /// The plain single-threaded baseline.
    Narrow,
}

impl Width {
    /// The configuration of this width out of a workload's two.
    pub fn pick<T>(self, wide: T, narrow: T) -> T {
        match self {
            Width::Wide => wide,
            Width::Narrow => narrow,
        }
    }
}

/// Ops per phase in one block, and how many of them run between two
/// machine-speed probes.
#[derive(Clone, Copy, Debug)]
pub struct BlockShape {
    pub wide: usize,
    pub narrow: usize,
    pub cold: usize,
    pub chunk: usize,
}

/// Ops attempted and failed (any `Err`, a refusal, or a failed
/// check), and the wall time the phase was busy with them — the sum
/// of op times for sequential ops, the whole window for overlapping
/// requests. Untimed housekeeping between ops is in neither.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub busy_s: f64,
}

impl Tally {
    /// Ops that completed.
    pub fn done(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_s += other.busy_s;
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Generate inputs from `seed`, register them, build both thread
    /// configurations and warm them up — everything `setup_s` covers.
    fn setup(seed: u64, quick: bool, threads: usize) -> Self;

    fn block_shape(quick: bool) -> BlockShape;

    /// Run `n` steady-state ops on `width`, pushing each successful
    /// op's wall time (ms) to `sink`.
    fn steady(&mut self, width: Width, n: usize, sink: &mut Vec<f64>) -> Tally;

    /// Run `n` cold ops (nothing reused) at `T` threads.
    fn cold(&mut self, n: usize, sink: &mut Vec<f64>) -> Tally;

    /// Output checks, outside every timed region: one message per
    /// mismatch, empty when all outputs are correct.
    fn check(&mut self) -> Vec<String>;

    /// The per-layer probes of the layers this workload is bound by
    /// (traced run only), on this set-up.
    fn probes(&mut self, ctx: &probes::Ctx, out: &mut Vec<Metric>);
}

/// Run `n` sequential ops, each reporting its own time in ms; an op
/// that returns `Err` counts as failed and contributes no sample.
pub fn sequential_ops(
    n: usize,
    sink: &mut Vec<f64>,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..n {
        tally.attempted += 1;
        match op() {
            Ok(ms) => {
                sink.push(ms);
                tally.busy_s += ms / 1e3;
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("op failed: {e}");
            }
        }
    }
    tally
}

/// [`sequential_ops`] for ops whose whole body is the timed region.
pub fn timed_ops(
    n: usize,
    sink: &mut Vec<f64>,
    mut op: impl FnMut() -> Result<(), String>,
) -> Tally {
    sequential_ops(n, sink, || {
        let t = Instant::now();
        op().map(|()| t.elapsed().as_secs_f64() * 1e3)
    })
}

/// The harness thread budget: nothing it starts uses more runnable
/// threads than this.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Ops that ran between two speed probes.
#[derive(Debug)]
struct Chunk {
    /// The slower of the readings before and after, ms.
    probe_ms: f64,
    ms: Vec<f64>,
    tally: Tally,
}

/// One phase's chunks over the whole run.
#[derive(Debug, Default)]
pub struct Phase {
    chunks: Vec<Chunk>,
}

impl Phase {
    /// Op times and tally of the quietest chunks, and how many ops
    /// ran in all.
    pub fn kept(&self) -> (Vec<f64>, Tally, u64) {
        let readings: Vec<(f64, usize)> = self
            .chunks
            .iter()
            .map(|c| (c.probe_ms, c.ms.len()))
            .collect();
        let (mut ms, mut tally) = (Vec::new(), Tally::default());
        for i in speed::quietest(&readings) {
            ms.extend_from_slice(&self.chunks[i].ms);
            tally.add(self.chunks[i].tally);
        }
        let ran = self.chunks.iter().map(|c| c.tally.attempted).sum();
        (ms, tally, ran)
    }
}

/// The speed probe and its latest reading.
struct Gauge {
    threads: usize,
    last_ms: f64,
}

impl Gauge {
    fn new(threads: usize) -> Self {
        Gauge {
            threads,
            last_ms: speed::probe(threads),
        }
    }

    /// Run one chunk of `phase` and probe after it; the reading
    /// before it is the previous chunk's.
    fn chunk(&mut self, phase: &mut Phase, ops: impl FnOnce(&mut Vec<f64>) -> Tally) -> Tally {
        let before = self.last_ms;
        let mut ms = Vec::new();
        let tally = ops(&mut ms);
        self.last_ms = speed::probe(self.threads);
        phase.chunks.push(Chunk {
            probe_ms: before.max(self.last_ms),
            ms,
            tally,
        });
        tally
    }
}

/// `n` ops as chunk sizes of at most `chunk`.
fn chunks(n: usize, chunk: usize) -> impl Iterator<Item = usize> {
    (0..n).step_by(chunk).map(move |at| chunk.min(n - at))
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub wide: Phase,
    pub narrow: Phase,
    pub cold: Phase,
    /// Steady `T`-thread ops with obs and harness spans on (traced run).
    pub traced: Phase,
    /// Heap bytes requested during the untraced `T`-thread chunks, and
    /// the ops they completed (traced run only; counts, so ungated).
    pub wide_alloc_bytes: u64,
    pub wide_alloc_ops: u64,
    pub tally: Tally,
    pub check_failures: Vec<String>,
    pub peak_rss_mb: f64,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Steady samples a full run must pool, so that `op_ms_p90` can have
/// ten samples beyond it.
const MIN_STEADY_SAMPLES: usize = 100;

fn min_blocks(shape: BlockShape, quick: bool) -> usize {
    if quick {
        2
    } else {
        MIN_STEADY_SAMPLES.div_ceil(shape.wide)
    }
}

/// The untraced run: `SETUPS` set-ups (the last is kept), then blocks
/// until `seconds` have passed, then the output checks.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64, quick: bool) -> Samples {
    let threads = thread_budget();
    let mut s = Samples::default();
    let mut w = None;
    for _ in 0..if quick { 1 } else { SETUPS } {
        drop(w.take()); // one live set-up at a time, so peak RSS is one set-up's
        let t = Instant::now();
        w = Some(W::setup(seed, quick, threads));
        s.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let shape = W::block_shape(quick);
    let mut gauge = Gauge::new(threads);
    let start = Instant::now();
    let mut blocks = 0;
    while blocks < min_blocks(shape, quick) || start.elapsed().as_secs_f64() < seconds {
        for n in chunks(shape.wide, shape.chunk) {
            let tally = gauge.chunk(&mut s.wide, |ms| w.steady(Width::Wide, n, ms));
            s.tally.add(tally);
        }
        for n in chunks(shape.narrow, shape.chunk) {
            let tally = gauge.chunk(&mut s.narrow, |ms| w.steady(Width::Narrow, n, ms));
            s.tally.add(tally);
        }
        for n in chunks(shape.cold, shape.chunk) {
            let tally = gauge.chunk(&mut s.cold, |ms| w.cold(n, ms));
            s.tally.add(tally);
        }
        blocks += 1;
    }
    // Before the checks: their reference products are not the
    // program's memory.
    s.peak_rss_mb = peak_rss_mb();
    s.check_failures = w.check();
    s
}

/// The traced run's own phase: steady chunks run alternately with
/// `spgemm_obs` and the harness spans on, and with both off and the
/// allocator counting — adjacent in time, so drift cancels in
/// `obs.traced_overhead_frac` — and which kind goes first alternates
/// per block. Cold ops are traced so they appear in the trace file.
pub fn run_traced<W: Workload>(
    seed: u64,
    seconds: f64,
    quick: bool,
) -> (W, Samples, Vec<span::Span>, u64) {
    let threads = thread_budget();
    let mut s = Samples::default();
    let t = Instant::now();
    let mut w = W::setup(seed, quick, threads);
    s.setup_s.push(t.elapsed().as_secs_f64());
    let shape = W::block_shape(quick);
    let mut gauge = Gauge::new(threads);
    let start = Instant::now();
    let mut blocks = 0;
    // Two blocks, so each ordering of the chunks runs at least once.
    while blocks < 2 || start.elapsed().as_secs_f64() < seconds {
        for (i, n) in chunks(shape.wide, shape.chunk).enumerate() {
            let tally = if (i + blocks) % 2 == 0 {
                gauge.chunk(&mut s.traced, |ms| {
                    with_tracing(|| w.steady(Width::Wide, n, ms))
                })
            } else {
                let mut bytes = 0;
                let tally = gauge.chunk(&mut s.wide, |ms| {
                    let (tally, counted) = alloc::counted(|| w.steady(Width::Wide, n, ms));
                    bytes = counted;
                    tally
                });
                s.wide_alloc_bytes += bytes;
                s.wide_alloc_ops += tally.done();
                tally
            };
            s.tally.add(tally);
        }
        for n in chunks(shape.narrow, shape.chunk) {
            let tally = gauge.chunk(&mut s.narrow, |ms| w.steady(Width::Narrow, n, ms));
            s.tally.add(tally);
        }
        for n in chunks(shape.cold, shape.chunk) {
            let tally = gauge.chunk(&mut s.cold, |ms| with_tracing(|| w.cold(n, ms)));
            s.tally.add(tally);
        }
        blocks += 1;
    }
    s.check_failures = w.check();
    let (spans, dropped) = span::take();
    (w, s, spans, dropped)
}

fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
    spgemm_obs::enable();
    span::set_enabled(true);
    let r = f();
    span::set_enabled(false);
    spgemm_obs::disable();
    r
}

/// This process's peak resident set (`VmHWM`), MB. `NaN` where
/// `/proc` does not provide it, which fails the run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric: value, and the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            samples,
        }
    }
}

/// The seven end-to-end metrics of `s`; prints what the quiet-machine
/// gate kept of each phase.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    let (wide, wide_tally, wide_ran) = s.wide.kept();
    let (narrow, _, narrow_ran) = s.narrow.kept();
    let (cold, _, cold_ran) = s.cold.kept();
    println!(
        "# quiet-machine gate: reporting {} of {wide_ran} steady ops at T, {} of {narrow_ran} at 1 thread, {} of {cold_ran} cold",
        wide.len(),
        narrow.len(),
        cold.len()
    );
    let wide = stats::sorted(wide);
    vec![
        Metric::new("setup_s", stats::median(&s.setup_s), s.setup_s.len()),
        Metric::new("op_ms_p50", stats::quantile_sorted(&wide, 0.5), wide.len()),
        Metric::new("op_ms_p90", stats::quantile_sorted(&wide, 0.9), wide.len()),
        Metric::new("op_ms_p50_t1", stats::median(&narrow), narrow.len()),
        Metric::new("cold_ms_p50", stats::median(&cold), cold.len()),
        Metric::new(
            "ops_per_s",
            wide_tally.done() as f64 / wide_tally.busy_s,
            wide_tally.done() as usize,
        ),
        Metric::new("peak_rss_mb", s.peak_rss_mb, 1),
    ]
}

/// The per-layer metrics that are about the workload being run.
pub fn workload_scoped(s: &Samples, threads: usize) -> Vec<Metric> {
    let (wide, _, _) = s.wide.kept();
    let (narrow, _, _) = s.narrow.kept();
    let (traced, _, _) = s.traced.kept();
    let p50 = stats::median(&wide);
    vec![
        Metric::new(
            "par.alloc_bytes_per_op",
            s.wide_alloc_bytes as f64 / s.wide_alloc_ops as f64,
            s.wide_alloc_ops as usize,
        ),
        Metric::new(
            "par.scaling_eff",
            stats::median(&narrow) / (threads as f64 * p50),
            narrow.len(),
        ),
        Metric::new(
            "obs.traced_overhead_frac",
            stats::median(&traced) / p50 - 1.0,
            traced.len(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_ops_counts_failures_without_samples() {
        let mut sink = Vec::new();
        let mut i = 0;
        let tally = timed_ops(5, &mut sink, || {
            i += 1;
            if i == 3 {
                Err("boom".into())
            } else {
                Ok(())
            }
        });
        assert_eq!((tally.attempted, tally.failed), (5, 1));
        assert_eq!(sink.len(), 4);
        assert!((tally.busy_s - sink.iter().sum::<f64>() / 1e3).abs() < 1e-12);
    }

    #[test]
    fn full_runs_pool_a_hundred_steady_samples() {
        for wide in [7, 10, 12, 400] {
            let shape = BlockShape {
                wide,
                narrow: 1,
                cold: 1,
                chunk: 1,
            };
            assert!(min_blocks(shape, false) * wide >= MIN_STEADY_SAMPLES);
        }
    }

    #[test]
    fn chunks_cover_the_phase() {
        assert_eq!(chunks(10, 1).count(), 10);
        assert_eq!(chunks(130, 100).collect::<Vec<_>>(), vec![100, 30]);
        assert_eq!(chunks(4, 20).collect::<Vec<_>>(), vec![4]);
        assert_eq!(chunks(0, 5).count(), 0);
    }

    #[test]
    fn gauge_files_chunks_under_the_slower_neighbouring_probe() {
        let mut gauge = Gauge::new(1);
        let mut phase = Phase::default();
        gauge.last_ms = f64::MAX; // the probe before the chunk read "very slow"
        let tally = gauge.chunk(&mut phase, |ms| {
            ms.push(3.0);
            Tally {
                attempted: 1,
                failed: 0,
                busy_s: 0.003,
            }
        });
        assert_eq!(tally.attempted, 1);
        assert_eq!(phase.chunks[0].probe_ms, f64::MAX);
        assert!(gauge.last_ms < f64::MAX);
        // The only chunk is kept whatever its reading: a phase always reports.
        let (ms, kept, ran) = phase.kept();
        assert_eq!((ms, kept.attempted, ran), (vec![3.0], 1, 1));
    }

    #[test]
    fn peak_rss_reads() {
        let mb = peak_rss_mb();
        assert!(mb.is_finite() && mb > 1.0, "{mb}");
    }
}
