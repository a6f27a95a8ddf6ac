//! Log-bucketed, fixed-footprint histogram over `u64` values.
//!
//! The bucketing is HDR-style log-linear: values below `2^(P+1)` get
//! one bucket each (exact), and every octave above that is split into
//! `2^P` linear sub-buckets, so the relative width of any bucket is
//! at most `2^-P`. With [`PRECISION`] `P = 4` that is a 6.25% bound
//! on quantile error, over the full `u64` range, in
//! [`NUM_BUCKETS`] = 976 buckets (~7.8 KB of atomics per histogram).
//! Recording is wait-free (one `fetch_add` per field); nothing is
//! ever dropped and memory never grows.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket precision: each octave is split into `2^PRECISION`
/// linear buckets, bounding relative bucket width by `2^-PRECISION`.
pub const PRECISION: u32 = 4;

const SUB: usize = 1 << PRECISION;
const MASK: u64 = (SUB as u64) - 1;

/// Total bucket count for the full `u64` range at [`PRECISION`].
pub const NUM_BUCKETS: usize = ((64 - PRECISION as usize) << PRECISION) + SUB;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB) as u64 {
        // values 0..2^(P+1) are exact: one bucket each
        v as usize
    } else {
        let m = 63 - v.leading_zeros(); // highest set bit, ≥ P+1
        let shift = m - PRECISION;
        let sub = ((v >> shift) & MASK) as usize;
        ((shift as usize) << PRECISION) + sub + SUB
    }
}

/// Smallest value mapping to bucket `i` (the bucket's lower bound).
#[inline]
pub fn bucket_low(i: usize) -> u64 {
    if i < 2 * SUB {
        i as u64
    } else {
        let u = i - SUB;
        let e = (u >> PRECISION) as u32;
        let sub = (u & MASK as usize) as u64;
        (SUB as u64 + sub) << e
    }
}

/// Largest value mapping to bucket `i` (inclusive upper bound).
#[inline]
pub fn bucket_high(i: usize) -> u64 {
    if i + 1 < NUM_BUCKETS {
        bucket_low(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// Concurrent log-bucketed histogram. Recording is lock-free and
/// allocation-free; the footprint is fixed at construction
/// (~7.8 KB). See the module docs for the error bound.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram. `const`, so it can back a `static` site as
    /// well as a heap-allocated per-tenant instance.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Wait-free; never drops a sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state out for quantile queries. Concurrent
    /// writers may land between field reads; once writers quiesce the
    /// snapshot is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and aggregate.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time copy of a [`Histogram`], supporting quantile and
/// mean queries.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (wraps after `u64::MAX`).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket holding that rank, clamped into `[min, max]` — so the
    /// result is never below the true quantile and overshoots it by
    /// at most a factor `2^-PRECISION` (6.25%). `quantile(1.0)`
    /// returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean (exact; the sum is tracked outside the
    /// buckets). 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The interval histogram between `prev` (an earlier snapshot of
    /// the same histogram) and `self`: bucket counts, `count` and
    /// `sum` are exact saturating differences. `min`/`max` are
    /// *approximate* for the window — a histogram does not retain
    /// per-sample order, so they are reconstructed from the bounds of
    /// the first/last bucket that gained samples, clamped into
    /// `[self.min, self.max]`. `since` of an identical snapshot is
    /// exactly empty.
    pub fn since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c.saturating_sub(prev.counts.get(i).copied().unwrap_or(0)))
            .collect();
        let count = self.count.saturating_sub(prev.count);
        let (min, max) = if count == 0 {
            (0, 0)
        } else {
            let first = counts.iter().position(|&c| c > 0);
            let last = counts.iter().rposition(|&c| c > 0);
            match (first, last) {
                (Some(f), Some(l)) => (
                    bucket_low(f).clamp(self.min, self.max),
                    bucket_high(l).clamp(self.min, self.max),
                ),
                // racing snapshot fields: fall back to cumulative
                _ => (self.min, self.max),
            }
        };
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.saturating_sub(prev.sum),
            min,
            max,
        }
    }

    /// Merge `other` into `self` bucket-wise, as if both histograms'
    /// samples had been recorded into one. Used by the OpenMetrics
    /// renderer to aggregate same-named sites registered from
    /// different code locations into a single family.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        // lows are strictly increasing and index/low round-trip
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let low = bucket_low(i);
            if let Some(p) = prev {
                assert!(low > p, "bucket {i} low {low} after {p}");
            }
            prev = Some(low);
            assert_eq!(bucket_index(low), i, "low of bucket {i}");
            assert_eq!(bucket_index(bucket_high(i)), i, "high of bucket {i}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in 2 * SUB..NUM_BUCKETS {
            let low = bucket_low(i);
            let width = bucket_high(i) - low;
            // width/low ≤ 2^-P (width is low >> P, possibly minus 1)
            assert!(
                (width as f64) / (low as f64) <= 1.0 / (SUB as f64) + 1e-12,
                "bucket {i}: low {low} width {width}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 32);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 31);
        assert_eq!(s.quantile(1.0), 31);
        assert!((s.mean() - 15.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        // synthetic data with a known exact distribution: 1..=100_000
        let h = Histogram::new();
        let n = 100_000u64;
        for v in 1..=n {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, n);
        for &q in &[0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let exact = ((q * n as f64).ceil() as u64).clamp(1, n);
            let approx = s.quantile(q);
            assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            let bound = exact as f64 * (1.0 / SUB as f64) + 1.0;
            assert!(
                (approx - exact) as f64 <= bound,
                "q={q}: approx {approx} exact {exact} bound {bound}"
            );
        }
        assert_eq!(s.quantile(1.0), n, "max is exact");
        assert!((s.mean() - (n + 1) as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn since_of_identical_snapshot_is_zero() {
        let h = Histogram::new();
        for v in [3u64, 17, 4096, 99_999] {
            h.record(v);
        }
        let s = h.snapshot();
        let d = s.since(&s.clone());
        assert_eq!(d.count, 0);
        assert_eq!(d.sum, 0);
        assert_eq!(d.min, 0);
        assert_eq!(d.max, 0);
        assert!(d.nonzero_buckets().is_empty());
        assert_eq!(d.quantile(0.99), 0);
    }

    #[test]
    fn since_isolates_the_window() {
        let h = Histogram::new();
        h.record(10);
        h.record(1_000_000);
        let prev = h.snapshot();
        for v in [200u64, 300, 400] {
            h.record(v);
        }
        let d = h.snapshot().since(&prev);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 900);
        // min/max reconstructed from the buckets that gained samples:
        // within one bucket width of the true window extrema
        assert!(d.min <= 200 && d.min >= 10, "window min {}", d.min);
        assert!(d.max >= 400 && d.max <= 427, "window max {}", d.max);
        assert!((d.mean() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn since_misordered_degrades_to_empty() {
        // prev newer than self: every field must saturate to an empty
        // window consistently (no wrapped sum alongside a zero count)
        let h = Histogram::new();
        h.record(100);
        let old = h.snapshot();
        h.record(200);
        let new = h.snapshot();
        let d = old.since(&new);
        assert_eq!(d.count, 0);
        assert_eq!(d.sum, 0);
        assert_eq!((d.min, d.max), (0, 0));
        assert!(d.nonzero_buckets().is_empty());
    }

    #[test]
    fn reset_empties() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.quantile(0.5), 0);
    }
}
