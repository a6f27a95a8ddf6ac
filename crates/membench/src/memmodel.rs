//! Two-level memory model standing in for MCDRAM (ARCHITECTURE.md
//! "Paper → code", the Fig 5 row).
//!
//! This container has no MCDRAM, so the "MCDRAM as Cache" series of
//! Figure 5 and the Cache-vs-Flat speedups of Figure 10 cannot be
//! *measured*. They can be *modeled*: the paper's own Figure 5 gives
//! the shape — ≈3.4× peak bandwidth at wide stanzas, no benefit at
//! 8–64-byte stanzas (latency-bound regime), a smooth transition in
//! between. The model below reproduces exactly that curve and applies
//! it to the stanza profile of a real SpGEMM run (which *is* measured
//! on this machine) to predict the Cache-mode speedup.

use spgemm_sparse::Csr;

/// Bandwidth model for DDR and modeled-MCDRAM as a function of stanza
/// length.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    /// DDR peak bandwidth (GB/s) at wide stanzas. Calibrate with
    /// [`crate::stanza::stanza_bandwidth`] or use the paper default.
    pub ddr_peak_gbs: f64,
    /// MCDRAM peak over DDR peak; the paper measures "over 3.4×".
    pub mcdram_ratio: f64,
    /// Stanza length (bytes) below which MCDRAM gives no benefit
    /// (Figure 5: "when the stanza length is small, there is little
    /// benefit"); the paper's curves separate past ~64 B.
    pub latency_floor_bytes: f64,
    /// Stanza length (bytes) at which the MCDRAM ratio saturates
    /// (Figure 5 separates fully by a few KiB).
    pub saturation_bytes: f64,
    /// Half-saturation stanza length (bytes) of the DDR curve itself
    /// (both memories lose bandwidth on tiny stanzas).
    pub ddr_half_bytes: f64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        // Paper Figure 5: DDR ~90 GB/s class on KNL, MCDRAM 3.4x,
        // benefit visible from ~64 B, saturated by ~4 KiB.
        MemoryModel {
            ddr_peak_gbs: 90.0,
            mcdram_ratio: 3.4,
            latency_floor_bytes: 64.0,
            saturation_bytes: 4096.0,
            ddr_half_bytes: 64.0,
        }
    }
}

impl MemoryModel {
    /// Replace the DDR peak with a measured value (GB/s).
    pub fn with_measured_ddr(mut self, gbs: f64) -> Self {
        self.ddr_peak_gbs = gbs.max(0.1);
        self
    }

    /// DDR bandwidth (GB/s) at the given stanza length: a saturating
    /// curve `peak · s / (s + s_half)` matching the measured shape of
    /// random fine-grained access.
    pub fn ddr_bandwidth(&self, stanza_bytes: f64) -> f64 {
        let s = stanza_bytes.max(8.0);
        self.ddr_peak_gbs * s / (s + self.ddr_half_bytes)
    }

    /// Modeled MCDRAM-as-cache bandwidth at the given stanza length:
    /// the DDR curve times a ratio that interpolates log-linearly from
    /// 1.0 at the latency floor to `mcdram_ratio` at saturation.
    pub fn mcdram_bandwidth(&self, stanza_bytes: f64) -> f64 {
        self.ddr_bandwidth(stanza_bytes) * self.cache_mode_ratio(stanza_bytes)
    }

    /// The stanza-dependent MCDRAM/DDR ratio described above.
    pub fn cache_mode_ratio(&self, stanza_bytes: f64) -> f64 {
        let s = stanza_bytes.max(8.0);
        if s <= self.latency_floor_bytes {
            return 1.0;
        }
        if s >= self.saturation_bytes {
            return self.mcdram_ratio;
        }
        let t = (s.ln() - self.latency_floor_bytes.ln())
            / (self.saturation_bytes.ln() - self.latency_floor_bytes.ln());
        1.0 + t * (self.mcdram_ratio - 1.0)
    }

    /// Time (seconds) to move the given access profile through DDR.
    pub fn ddr_time(&self, profile: &AccessProfile) -> f64 {
        profile
            .buckets
            .iter()
            .map(|b| b.bytes as f64 / (self.ddr_bandwidth(b.stanza_bytes as f64) * 1e9))
            .sum()
    }

    /// Time (seconds) to move the profile through modeled MCDRAM.
    pub fn mcdram_time(&self, profile: &AccessProfile) -> f64 {
        profile
            .buckets
            .iter()
            .map(|b| b.bytes as f64 / (self.mcdram_bandwidth(b.stanza_bytes as f64) * 1e9))
            .sum()
    }

    /// Predict the Cache-mode speedup of a kernel whose *measured* DDR
    /// wall time is `measured_secs` and whose memory traffic is
    /// `profile`: the compute share `max(0, measured − t_mem_ddr)` is
    /// unchanged, the memory share scales by the model.
    pub fn predict_speedup(&self, measured_secs: f64, profile: &AccessProfile) -> f64 {
        let t_ddr = self.ddr_time(profile).min(measured_secs);
        let compute = (measured_secs - t_ddr).max(0.0);
        let t_mcd = self.mcdram_time(profile);
        measured_secs / (compute + t_mcd)
    }
}

/// A histogram of memory traffic by stanza length (power-of-two
/// buckets).
#[derive(Clone, Debug, Default)]
pub struct AccessProfile {
    /// Traffic buckets, ascending in stanza length.
    pub buckets: Vec<Bucket>,
}

/// One histogram bucket.
#[derive(Clone, Copy, Debug)]
pub struct Bucket {
    /// Representative stanza length (bytes).
    pub stanza_bytes: usize,
    /// Total bytes moved at this stanza length.
    pub bytes: u64,
}

impl AccessProfile {
    /// Total traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.buckets.iter().map(|b| b.bytes).sum()
    }

    /// Add `bytes` of traffic at `stanza_bytes` granularity (bucketed
    /// to the nearest power of two).
    pub fn add(&mut self, stanza_bytes: usize, bytes: u64) {
        let bucket = stanza_bytes.max(8).next_power_of_two();
        match self
            .buckets
            .binary_search_by_key(&bucket, |b| b.stanza_bytes)
        {
            Ok(i) => self.buckets[i].bytes += bytes,
            Err(i) => self.buckets.insert(
                i,
                Bucket {
                    stanza_bytes: bucket,
                    bytes,
                },
            ),
        }
    }
}

/// Entry size of a CSR element (4-byte column + 8-byte value), the
/// stanza unit of B-row accesses.
pub const CSR_ENTRY_BYTES: usize = 12;

/// Build the *B-row access profile* of `A · B` analytically: every
/// nonzero `a_ik` streams the `nnz(b_k*)` entries of row `k` of `B` —
/// a stanza of `nnz(b_k*) · 12` bytes from an effectively random
/// location (§3.3's "stanza-like memory access pattern").
pub fn b_access_profile<T, U>(a: &Csr<T>, b: &Csr<U>) -> AccessProfile
where
    T: Copy + Send + Sync,
    U: Copy + Send + Sync,
{
    let mut p = AccessProfile::default();
    for i in 0..a.nrows() {
        for &k in a.row_cols(i) {
            let len = b.row_nnz(k as usize);
            if len > 0 {
                p.add(len * CSR_ENTRY_BYTES, (len * CSR_ENTRY_BYTES) as u64);
            }
        }
    }
    p
}

/// Accumulator-traffic model: the extra fine-grained traffic of an
/// accumulator whose working set does **not** fit in cache. Heap
/// accumulation touches one ~16-byte entry per product; hash tables
/// smaller than `cache_bytes` are considered cache-resident and add
/// nothing (the paper's explanation for heap's missing MCDRAM
/// benefit).
pub fn accumulator_profile(
    flop: u64,
    working_set_bytes: usize,
    cache_bytes: usize,
) -> AccessProfile {
    let mut p = AccessProfile::default();
    if working_set_bytes > cache_bytes {
        p.add(16, flop.saturating_mul(16));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_matches_paper_endpoints() {
        let m = MemoryModel::default();
        assert_eq!(
            m.cache_mode_ratio(8.0),
            1.0,
            "8 B random access: no benefit"
        );
        assert_eq!(m.cache_mode_ratio(64.0), 1.0);
        assert!(
            (m.cache_mode_ratio(8192.0) - 3.4).abs() < 1e-9,
            "saturated at 3.4x"
        );
        let mid = m.cache_mode_ratio(512.0);
        assert!(mid > 1.0 && mid < 3.4, "transition region: {mid}");
    }

    #[test]
    fn bandwidth_monotone_in_stanza() {
        let m = MemoryModel::default();
        let mut prev = 0.0;
        for s in [8.0, 64.0, 512.0, 4096.0, 65536.0] {
            let bw = m.mcdram_bandwidth(s);
            assert!(bw >= prev, "stanza {s}: {bw} < {prev}");
            prev = bw;
        }
    }

    #[test]
    fn profile_bucketing_merges() {
        let mut p = AccessProfile::default();
        p.add(100, 1000); // -> 128 bucket
        p.add(120, 500); // -> 128 bucket
        p.add(8, 64);
        assert_eq!(p.buckets.len(), 2);
        assert_eq!(p.total_bytes(), 1564);
        assert!(p
            .buckets
            .windows(2)
            .all(|w| w[0].stanza_bytes < w[1].stanza_bytes));
    }

    #[test]
    fn speedup_bounded_by_ratio_and_one() {
        let m = MemoryModel::default();
        let mut wide = AccessProfile::default();
        wide.add(1 << 16, 1 << 30); // 1 GiB of wide stanzas
        let t_ddr = m.ddr_time(&wide);
        // fully memory bound: speedup approaches the ratio
        let s = m.predict_speedup(t_ddr, &wide);
        assert!(s > 3.0 && s <= 3.5, "memory-bound speedup {s}");
        // fully compute bound: speedup approaches 1
        let s = m.predict_speedup(t_ddr * 100.0, &wide);
        assert!(s < 1.05, "compute-bound speedup {s}");
    }

    #[test]
    fn fine_grained_profile_gets_no_speedup() {
        let m = MemoryModel::default();
        let mut fine = AccessProfile::default();
        fine.add(8, 1 << 28);
        let t = m.ddr_time(&fine);
        let s = m.predict_speedup(t, &fine);
        assert!((s - 1.0).abs() < 1e-9, "8 B stanzas: {s}");
    }

    #[test]
    fn b_profile_counts_all_traffic() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]).unwrap();
        let p = b_access_profile(&a, &a);
        // row 0 reads B rows 0 (2 entries) and 1 (1 entry); row 1 reads B row 1.
        assert_eq!(p.total_bytes(), (2 + 1 + 1) as u64 * CSR_ENTRY_BYTES as u64);
    }

    #[test]
    fn accumulator_profile_cache_resident_is_empty() {
        let p = accumulator_profile(1_000_000, 1 << 10, 1 << 20);
        assert_eq!(p.total_bytes(), 0);
        let p = accumulator_profile(1_000_000, 1 << 22, 1 << 20);
        assert_eq!(p.total_bytes(), 16_000_000);
    }
}
