//! SIMD chunk probing (§4.2.2, Figure 8b) and the one place a SIMD
//! level is bound to code.
//!
//! A chunked table is organized as power-of-two *chunks* of 32-bit
//! keys, one vector register wide: 16 lanes under AVX-512, 8 under
//! AVX2, and an 8-lane scalar emulation everywhere else (used in tests
//! and on non-x86 targets — identical semantics, no intrinsics).
//!
//! A probe compares the whole chunk against the sought key with one
//! vector comparison (Ross, ICDE 2007); a miss then compares against
//! the [`EMPTY`] marker to find the insertion point. Because
//! insertions always take the *first* empty lane, occupied lanes form
//! a prefix of each chunk, exactly as the paper describes ("new
//! element is pushed into the table in order from the beginning").
//!
//! Every `#[target_feature]` function of the crate lives here, behind
//! one check: a [`CheckedLevel`] holds only a level the running CPU
//! supports, and it is all that [`probe_chunk`], [`probe_prefix`] and
//! `run_at` accept — a [`SimdLevel`] the CPU lacks cannot reach
//! vector code from safe code.
//!
//! `run_at` is the level *binding*. A `#[target_feature]` function
//! cannot inline into a caller compiled without the feature, so a
//! vector probe called from ordinary code costs a call per probed key.
//! Compiling a worker's whole share of a pass under the feature — one
//! generic `LevelBody`, one instance per level — lets the probe inline
//! into the row loop. The body is a struct with an `#[inline(always)]`
//! method because a closure is a function of its own, compiled without
//! the feature, and stays out of line.

/// The empty key slot / lane: the one sentinel the hash tables, the
/// insertion array and the vector probes share (column indices are
/// non-negative, which is why they are `i32`-bound).
pub const EMPTY: i32 = -1;

/// Result of probing one chunk for a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkProbe {
    /// Key present at this lane.
    Found(usize),
    /// Key absent; first empty lane (insertion point).
    Empty(usize),
    /// Key absent and the chunk is full — continue to the next chunk
    /// (linear probing at chunk granularity).
    Full,
}

/// Instruction set used for probing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// 16-lane AVX-512F probing (KNL / Skylake-X and later).
    Avx512,
    /// 8-lane AVX2 probing (Haswell and later).
    Avx2,
    /// 8-lane portable scalar emulation.
    Scalar,
}

impl SimdLevel {
    /// Every level, widest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Avx512, SimdLevel::Avx2, SimdLevel::Scalar];

    /// Keys per chunk at this level.
    #[inline]
    pub fn width(self) -> usize {
        match self {
            SimdLevel::Avx512 => 16,
            SimdLevel::Avx2 | SimdLevel::Scalar => 8,
        }
    }

    /// Display name for benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Scalar => "scalar",
        }
    }

    /// Whether the running CPU executes this level's instructions
    /// (cached by the standard library's feature-detection macro).
    pub fn is_supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            SimdLevel::Scalar => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The levels the running CPU supports, widest first.
    pub fn supported() -> impl Iterator<Item = SimdLevel> {
        Self::ALL.into_iter().filter(|l| l.is_supported())
    }

    /// The check every requested level passes once, where it enters:
    /// `self` if the CPU supports it, otherwise [`detect`]'s level — a
    /// request the hardware cannot honour degrades, it never faults.
    pub fn checked(self) -> CheckedLevel {
        CheckedLevel(if self.is_supported() { self } else { detect() })
    }
}

/// The widest level the running CPU supports.
pub fn detect() -> SimdLevel {
    let best = SimdLevel::supported().next();
    best.expect("Scalar is always supported")
}

/// A [`SimdLevel`] the running CPU supports. Only
/// [`SimdLevel::checked`] constructs one, so holding it is the proof
/// the `unsafe` calls below rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckedLevel(SimdLevel);

impl CheckedLevel {
    /// The level that was checked.
    #[inline]
    pub fn get(self) -> SimdLevel {
        self.0
    }
}

/// Chunk `chunk` of `keys` as `W` lanes (bounds-checked).
#[inline(always)]
fn lanes<const W: usize>(keys: &[i32], chunk: usize) -> &[i32; W] {
    let lanes = keys[chunk * W..].first_chunk::<W>();
    lanes.expect("keys hold a whole number of chunks")
}

/// Probe chunk `chunk` of `keys` — lanes `chunk · w..(chunk + 1) · w`
/// for `w = level.get().width()` — for `key`; lanes are reported
/// relative to the chunk. Panics if `keys` is shorter than that.
///
/// `key` must be non-negative (a column index) and the chunk's
/// occupied lanes must precede its [`EMPTY`] lanes.
#[inline(always)]
pub fn probe_chunk(level: CheckedLevel, keys: &[i32], chunk: usize, key: i32) -> ChunkProbe {
    debug_assert!(key >= 0);
    match level.0 {
        // SAFETY (both arms): a `CheckedLevel` holds only a level
        // `is_supported` accepted, so the CPU has the arm's feature.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { probe16_avx512(lanes(keys, chunk), key) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { probe8_avx2(lanes(keys, chunk), key) },
        _ => probe_scalar(lanes::<8>(keys, chunk), key),
    }
}

/// Probe a flat *insertion array* for `key`: `keys` is a whole number
/// of chunks and its occupied lanes form one global prefix (the kgen
/// short-row accumulator appends at the first empty lane, so chunk
/// `c` only holds keys once chunks `0..c` are full). Returns the
/// global lane index. This reuses the hash-probe vector comparison
/// for a plain linear membership scan — for rows with at most a few
/// dozen distinct columns the whole search is a handful of vector
/// compares with no hashing, no modulo, and no table reset.
///
/// `ChunkProbe::Full` means every lane of `keys` is occupied and the
/// key is absent — the caller sized the array too small.
#[inline(always)]
pub fn probe_prefix(level: CheckedLevel, keys: &[i32], key: i32) -> ChunkProbe {
    let w = level.0.width();
    debug_assert_eq!(keys.len() % w, 0);
    for chunk in 0..keys.len() / w {
        match probe_chunk(level, keys, chunk, key) {
            ChunkProbe::Found(lane) => return ChunkProbe::Found(chunk * w + lane),
            ChunkProbe::Empty(lane) => return ChunkProbe::Empty(chunk * w + lane),
            ChunkProbe::Full => {}
        }
    }
    ChunkProbe::Full
}

/// Portable probe with identical semantics to the vector paths (any
/// width — the scan is flat).
#[inline]
pub fn probe_scalar(chunk: &[i32], key: i32) -> ChunkProbe {
    for (i, &k) in chunk.iter().enumerate() {
        if k == key {
            return ChunkProbe::Found(i);
        }
        if k == EMPTY {
            // occupied lanes are a prefix: the first empty lane is the
            // insertion point and the key cannot appear later.
            return ChunkProbe::Empty(i);
        }
    }
    ChunkProbe::Full
}

/// AVX-512F probe over 16 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn probe16_avx512(lanes: &[i32; 16], key: i32) -> ChunkProbe {
    use std::arch::x86_64::*;
    // SAFETY: `lanes` is 16 readable `i32`s and the load is unaligned.
    let v = unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) };
    let eq = _mm512_cmpeq_epi32_mask(v, _mm512_set1_epi32(key));
    if eq != 0 {
        return ChunkProbe::Found(eq.trailing_zeros() as usize);
    }
    let empty = _mm512_cmpeq_epi32_mask(v, _mm512_set1_epi32(EMPTY));
    if empty != 0 {
        // __builtin_ctz of the comparison mask, as in the paper.
        ChunkProbe::Empty(empty.trailing_zeros() as usize)
    } else {
        ChunkProbe::Full
    }
}

/// AVX2 probe over 8 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn probe8_avx2(lanes: &[i32; 8], key: i32) -> ChunkProbe {
    use std::arch::x86_64::*;
    // SAFETY: `lanes` is 8 readable `i32`s and the load is unaligned.
    let v = unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) };
    let eq = _mm256_cmpeq_epi32(v, _mm256_set1_epi32(key));
    let eq_mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
    if eq_mask != 0 {
        return ChunkProbe::Found(eq_mask.trailing_zeros() as usize);
    }
    let empty = _mm256_cmpeq_epi32(v, _mm256_set1_epi32(EMPTY));
    let empty_mask = _mm256_movemask_ps(_mm256_castsi256_ps(empty)) as u32;
    if empty_mask != 0 {
        ChunkProbe::Empty(empty_mask.trailing_zeros() as usize)
    } else {
        ChunkProbe::Full
    }
}

/// A worker's share of a pass, handed to [`run_at`] as a value. `run`
/// must be `#[inline(always)]`, as must everything between it and the
/// probes, or the vector code stays a call away.
pub(crate) trait LevelBody {
    /// Run the share.
    fn run(self);
}

/// `body` compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<B: LevelBody>(body: B) {
    body.run()
}

/// `body` compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<B: LevelBody>(body: B) {
    body.run()
}

/// `body` compiled with no target feature: a function of its own like
/// the two above, so the row loops are register-allocated alone
/// rather than inside the pass's closure.
#[inline(never)]
fn run_plain<B: LevelBody>(body: B) {
    body.run()
}

/// Run `body` in the instance compiled for `level` — the crate's one
/// level dispatch, paid once per worker per pass. No level (or
/// `Scalar`) binds no target feature.
#[inline]
pub(crate) fn run_at<B: LevelBody>(level: Option<CheckedLevel>, body: B) {
    debug_assert!(level.is_none_or(|l| l.0.is_supported()));
    match level.map(CheckedLevel::get) {
        // SAFETY (both arms): as in `probe_chunk`.
        #[cfg(target_arch = "x86_64")]
        Some(SimdLevel::Avx512) => unsafe { run_avx512(body) },
        #[cfg(target_arch = "x86_64")]
        Some(SimdLevel::Avx2) => unsafe { run_avx2(body) },
        _ => run_plain(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels_available() -> Vec<CheckedLevel> {
        SimdLevel::supported().map(SimdLevel::checked).collect()
    }

    fn chunk_of(level: CheckedLevel, occupied: &[i32]) -> Vec<i32> {
        let mut c = vec![EMPTY; level.get().width()];
        c[..occupied.len()].copy_from_slice(occupied);
        c
    }

    #[test]
    fn found_in_every_lane() {
        for level in levels_available() {
            let w = level.get().width();
            let full: Vec<i32> = (0..w as i32).map(|x| x * 10).collect();
            for lane in 0..w {
                let got = probe_chunk(level, &full, 0, (lane as i32) * 10);
                assert_eq!(got, ChunkProbe::Found(lane), "{level:?} lane {lane}");
            }
        }
    }

    #[test]
    fn empty_lane_located() {
        for level in levels_available() {
            for occ in 0..level.get().width() {
                let occupied: Vec<i32> = (0..occ as i32).map(|x| x + 100).collect();
                let chunk = chunk_of(level, &occupied);
                let got = probe_chunk(level, &chunk, 0, 7);
                assert_eq!(got, ChunkProbe::Empty(occ), "{level:?} occ {occ}");
            }
        }
    }

    #[test]
    fn full_chunk_reported() {
        for level in levels_available() {
            let w = level.get().width();
            let full: Vec<i32> = (0..w as i32).collect();
            assert_eq!(
                probe_chunk(level, &full, 0, 999),
                ChunkProbe::Full,
                "{level:?}"
            );
        }
    }

    #[test]
    fn vector_paths_agree_with_scalar() {
        // exhaustive-ish cross-validation on random chunks, probing the
        // second of two chunks so the chunk offset is exercised too
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as i32
        };
        for level in levels_available() {
            if level.get() == SimdLevel::Scalar {
                continue;
            }
            let w = level.get().width();
            for _ in 0..2000 {
                let occ = (next() as usize) % (w + 1);
                let mut keys = vec![EMPTY; 2 * w];
                for slot in keys[w..].iter_mut().take(occ) {
                    *slot = next().abs() % 64;
                }
                let key = next().abs() % 64;
                // scalar emulation at the same width is the oracle
                let expect = probe_scalar(&keys[w..], key);
                let got = probe_chunk(level, &keys, 1, key);
                assert_eq!(got, expect, "{level:?} keys {keys:?} key {key}");
            }
        }
    }

    #[test]
    fn prefix_probe_spans_chunks() {
        for level in levels_available() {
            let w = level.get().width();
            // two full chunks plus a partial third
            let occ = 2 * w + 3;
            let mut keys = vec![EMPTY; 4 * w];
            for (i, k) in keys.iter_mut().take(occ).enumerate() {
                *k = (i as i32) * 7;
            }
            for i in 0..occ {
                assert_eq!(
                    probe_prefix(level, &keys, (i as i32) * 7),
                    ChunkProbe::Found(i),
                    "{level:?} idx {i}"
                );
            }
            assert_eq!(probe_prefix(level, &keys, 5), ChunkProbe::Empty(occ));
            // a completely full array reports Full
            let full: Vec<i32> = (0..(2 * w) as i32).collect();
            assert_eq!(probe_prefix(level, &full, 999), ChunkProbe::Full);
        }
    }

    #[test]
    fn detect_returns_a_supported_level() {
        let l = detect().checked();
        assert_eq!(l.get(), detect());
        // whatever it picks must actually probe correctly
        let chunk = chunk_of(l, &[5, 9]);
        assert_eq!(probe_chunk(l, &chunk, 0, 9), ChunkProbe::Found(1));
        assert_eq!(probe_chunk(l, &chunk, 0, 4), ChunkProbe::Empty(2));
    }

    #[test]
    fn unsupported_level_degrades_to_the_detected_one() {
        for level in SimdLevel::ALL {
            let expect = if level.is_supported() {
                level
            } else {
                detect()
            };
            assert_eq!(level.checked().get(), expect, "{level:?}");
            assert!(level.checked().get().is_supported());
        }
    }

    #[test]
    #[should_panic(expected = "whole number of chunks")]
    fn short_key_array_panics_instead_of_reading_past_it() {
        let level = detect().checked();
        probe_chunk(level, &[EMPTY; 4], 0, 1);
    }

    #[test]
    fn widths() {
        assert_eq!(SimdLevel::Avx512.width(), 16);
        assert_eq!(SimdLevel::Avx2.width(), 8);
        assert_eq!(SimdLevel::Scalar.width(), 8);
    }
}
