//! Synthetic stand-ins for the 26 SuiteSparse matrices of Table 2.
//!
//! The paper's real-matrix experiments (Figs 14, 15, 17) sweep the
//! SuiteSparse collection. That collection cannot be downloaded in
//! this environment, so each matrix is replaced by a synthetic
//! stand-in that preserves the properties those figures actually
//! exercise: the dimension and nnz budget (scaled by a common divisor
//! to fit the machine) and a structure class chosen by the matrix's
//! provenance, which is what determines its SpGEMM *compression
//! ratio* — the x-axis of all three figures:
//!
//! * [`MatrixClass::Band`] — FEM/structural matrices (`cant`, `pwtk`,
//!   `pdb1HYS`, ...): clustered contiguous rows ⇒ heavy accumulation ⇒
//!   high compression ratio;
//! * [`MatrixClass::Grid`] — stencil/mesh matrices (`mc2depi`,
//!   `delaunay_n24`, ...): regular low-degree ⇒ CR ≈ 2;
//! * [`MatrixClass::Uniform`] — quasi-random structures (`cage12`,
//!   economics / combinatorics matrices): CR slightly above 1;
//! * [`MatrixClass::PowerLaw`] — graphs (`patents_main`, `wb-edu`,
//!   `webbase-1M`, `scircuit`): skewed degrees, CR near 1, the
//!   load-imbalance stressor.
//!
//! When the real collection *is* available, the bench binaries accept
//! `--suitesparse DIR` and load `.mtx` files instead (see
//! `spgemm-sparse::io`); the stand-ins keep the harness runnable
//! anywhere.

use crate::{poisson, rmat, Rng};
use rand::Rng as _;
use spgemm_sparse::{ColIdx, Coo, Csr};

/// Structure class of a stand-in (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixClass {
    /// Contiguous band of `width` entries per row around the diagonal.
    Band,
    /// 2-D five-point stencil on a `⌊√n⌋ × ⌊√n⌋` grid.
    Grid,
    /// Uniformly random coordinates (Erdős–Rényi).
    Uniform,
    /// R-MAT G500 power-law structure (dimension rounded to a power of
    /// two).
    PowerLaw,
}

/// One row of the paper's Table 2, plus the structure class we assign.
#[derive(Clone, Copy, Debug)]
pub struct StandinSpec {
    /// SuiteSparse matrix name.
    pub name: &'static str,
    /// Rows/columns, in millions (paper's `n`).
    pub n_millions: f64,
    /// Stored entries, in millions (paper's `nnz(A)`).
    pub nnz_millions: f64,
    /// Paper-reported `flop(A²)`, in millions (for comparisons against
    /// the paper; not used for generation).
    pub flop_sq_millions: f64,
    /// Paper-reported `nnz(A²)`, in millions.
    pub nnz_sq_millions: f64,
    /// Structure class used for generation.
    pub class: MatrixClass,
}

/// The 26 matrices of Table 2 with their paper-reported statistics.
pub const TABLE2: [StandinSpec; 26] = [
    StandinSpec {
        name: "2cubes_sphere",
        n_millions: 0.101,
        nnz_millions: 1.65,
        flop_sq_millions: 27.45,
        nnz_sq_millions: 8.97,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "cage12",
        n_millions: 0.130,
        nnz_millions: 2.03,
        flop_sq_millions: 34.61,
        nnz_sq_millions: 15.23,
        class: MatrixClass::Uniform,
    },
    StandinSpec {
        name: "cage15",
        n_millions: 5.155,
        nnz_millions: 99.20,
        flop_sq_millions: 2078.63,
        nnz_sq_millions: 929.02,
        class: MatrixClass::Uniform,
    },
    StandinSpec {
        name: "cant",
        n_millions: 0.062,
        nnz_millions: 4.01,
        flop_sq_millions: 269.49,
        nnz_sq_millions: 17.44,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "conf5_4-8x8-05",
        n_millions: 0.049,
        nnz_millions: 1.92,
        flop_sq_millions: 74.76,
        nnz_sq_millions: 10.91,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "consph",
        n_millions: 0.083,
        nnz_millions: 6.01,
        flop_sq_millions: 463.85,
        nnz_sq_millions: 26.54,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "cop20k_A",
        n_millions: 0.121,
        nnz_millions: 2.62,
        flop_sq_millions: 79.88,
        nnz_sq_millions: 18.71,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "delaunay_n24",
        n_millions: 16.777,
        nnz_millions: 100.66,
        flop_sq_millions: 633.91,
        nnz_sq_millions: 347.32,
        class: MatrixClass::Grid,
    },
    StandinSpec {
        name: "filter3D",
        n_millions: 0.106,
        nnz_millions: 2.71,
        flop_sq_millions: 85.96,
        nnz_sq_millions: 20.16,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "hood",
        n_millions: 0.221,
        nnz_millions: 10.77,
        flop_sq_millions: 562.03,
        nnz_sq_millions: 34.24,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "m133-b3",
        n_millions: 0.200,
        nnz_millions: 0.80,
        flop_sq_millions: 3.20,
        nnz_sq_millions: 3.18,
        class: MatrixClass::Uniform,
    },
    StandinSpec {
        name: "mac_econ_fwd500",
        n_millions: 0.207,
        nnz_millions: 1.27,
        flop_sq_millions: 7.56,
        nnz_sq_millions: 6.70,
        class: MatrixClass::Uniform,
    },
    StandinSpec {
        name: "majorbasis",
        n_millions: 0.160,
        nnz_millions: 1.75,
        flop_sq_millions: 19.18,
        nnz_sq_millions: 8.24,
        class: MatrixClass::Grid,
    },
    StandinSpec {
        name: "mario002",
        n_millions: 0.390,
        nnz_millions: 2.10,
        flop_sq_millions: 12.83,
        nnz_sq_millions: 6.45,
        class: MatrixClass::Grid,
    },
    StandinSpec {
        name: "mc2depi",
        n_millions: 0.526,
        nnz_millions: 2.10,
        flop_sq_millions: 8.39,
        nnz_sq_millions: 5.25,
        class: MatrixClass::Grid,
    },
    StandinSpec {
        name: "mono_500Hz",
        n_millions: 0.169,
        nnz_millions: 5.04,
        flop_sq_millions: 204.03,
        nnz_sq_millions: 41.38,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "offshore",
        n_millions: 0.260,
        nnz_millions: 4.24,
        flop_sq_millions: 71.34,
        nnz_sq_millions: 23.36,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "patents_main",
        n_millions: 0.241,
        nnz_millions: 0.56,
        flop_sq_millions: 2.60,
        nnz_sq_millions: 2.28,
        class: MatrixClass::PowerLaw,
    },
    StandinSpec {
        name: "pdb1HYS",
        n_millions: 0.036,
        nnz_millions: 4.34,
        flop_sq_millions: 555.32,
        nnz_sq_millions: 19.59,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "poisson3Da",
        n_millions: 0.014,
        nnz_millions: 0.35,
        flop_sq_millions: 11.77,
        nnz_sq_millions: 2.96,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "pwtk",
        n_millions: 0.218,
        nnz_millions: 11.63,
        flop_sq_millions: 626.05,
        nnz_sq_millions: 32.77,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "rma10",
        n_millions: 0.047,
        nnz_millions: 2.37,
        flop_sq_millions: 156.48,
        nnz_sq_millions: 7.90,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "scircuit",
        n_millions: 0.171,
        nnz_millions: 0.96,
        flop_sq_millions: 8.68,
        nnz_sq_millions: 5.22,
        class: MatrixClass::PowerLaw,
    },
    StandinSpec {
        name: "shipsec1",
        n_millions: 0.141,
        nnz_millions: 7.81,
        flop_sq_millions: 450.64,
        nnz_sq_millions: 24.09,
        class: MatrixClass::Band,
    },
    StandinSpec {
        name: "wb-edu",
        n_millions: 9.846,
        nnz_millions: 57.16,
        flop_sq_millions: 1559.58,
        nnz_sq_millions: 630.08,
        class: MatrixClass::PowerLaw,
    },
    StandinSpec {
        name: "webbase-1M",
        n_millions: 1.000,
        nnz_millions: 3.11,
        flop_sq_millions: 69.52,
        nnz_sq_millions: 51.11,
        class: MatrixClass::PowerLaw,
    },
];

impl StandinSpec {
    /// Average stored entries per row in the original matrix.
    pub fn avg_degree(&self) -> f64 {
        self.nnz_millions / self.n_millions
    }

    /// Paper-reported compression ratio `flop(A²) / nnz(A²)`.
    pub fn paper_compression_ratio(&self) -> f64 {
        self.flop_sq_millions / self.nnz_sq_millions
    }
}

/// Generate the stand-in for `spec` with dimensions scaled down by
/// `divisor` (1 = full Table 2 size). The average degree — and hence
/// the compression-ratio class — is preserved under scaling.
pub fn generate_standin(spec: &StandinSpec, divisor: usize, rng: &mut Rng) -> Csr<f64> {
    let divisor = divisor.max(1) as f64;
    let n = ((spec.n_millions * 1e6 / divisor) as usize).max(1 << 10);
    let degree = spec.avg_degree().max(1.0);
    match spec.class {
        MatrixClass::Band => band_matrix(n, degree.round() as usize, rng),
        MatrixClass::Grid => {
            let k = (n as f64).sqrt() as usize;
            poisson::poisson2d(k.max(4))
        }
        MatrixClass::Uniform => uniform_matrix(n, (n as f64 * degree) as usize, rng),
        MatrixClass::PowerLaw => {
            let scale = (n as f64).log2().round().max(10.0) as u32;
            rmat::generate_kind(rmat::RmatKind::G500, scale, degree.ceil() as usize, rng)
        }
    }
}

/// Generate all 26 stand-ins. `divisor` scales every dimension;
/// the paper's full sizes need ~16 GB and hours on this class of
/// machine, `divisor = 16` runs the whole suite in minutes.
pub fn standin_suite(divisor: usize, seed: u64) -> Vec<(&'static str, Csr<f64>)> {
    TABLE2
        .iter()
        .map(|spec| {
            let mut r = crate::rng(seed ^ fxhash(spec.name));
            (spec.name, generate_standin(spec, divisor, &mut r))
        })
        .collect()
}

/// A banded matrix: each row holds a contiguous block of `width`
/// entries centred on the diagonal (clipped at the borders), the
/// classic FEM profile. Values are uniform in `(0, 1]`.
pub fn band_matrix(n: usize, width: usize, rng: &mut Rng) -> Csr<f64> {
    let width = width.clamp(1, n);
    let mut coo = Coo::with_capacity(n, n, n * width).expect("dimensions in range");
    for i in 0..n {
        let lo = i.saturating_sub(width / 2).min(n - width);
        for c in lo..lo + width {
            coo.push(i, c as ColIdx, rng.random::<f64>().max(f64::MIN_POSITIVE))
                .unwrap();
        }
    }
    coo.into_csr_sum()
}

/// Block-size distribution of [`block_diagonal`].
///
/// The two variants bracket the shard runtime's load-balance space:
/// `Uniform` is shard-*friendly* (any contiguous row split lands near
/// the block boundaries and every shard gets similar work), while
/// `HeadHeavy` is shard-*hostile* (work piles into the leading rows
/// and columns, so row-count splits — and uniform grids — misbalance
/// badly and only flop-weighted cut selection recovers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockSkew {
    /// Equal-sized diagonal blocks.
    Uniform,
    /// Geometrically shrinking blocks: the first holds about half the
    /// rows, the second a quarter, and so on.
    HeadHeavy,
}

/// Block boundaries for `nblocks` blocks over `n` rows under `skew`.
pub fn block_cuts(n: usize, nblocks: usize, skew: BlockSkew) -> Vec<usize> {
    let nblocks = nblocks.clamp(1, n.max(1));
    let mut cuts = Vec::with_capacity(nblocks + 1);
    cuts.push(0usize);
    match skew {
        BlockSkew::Uniform => {
            for b in 1..nblocks {
                cuts.push(b * n / nblocks);
            }
        }
        BlockSkew::HeadHeavy => {
            let mut start = 0usize;
            for b in 1..nblocks {
                // Halve the remainder each step, keeping ≥ 1 row per
                // remaining block.
                let remaining_blocks = nblocks - b + 1;
                let take = ((n - start) / 2)
                    .max(1)
                    .min(n - start - (remaining_blocks - 1));
                start += take;
                cuts.push(start);
            }
        }
    }
    cuts.push(n);
    cuts
}

/// A block-diagonal matrix: `nblocks` square diagonal blocks, each
/// internally banded. Structure class of coupled-subsystem matrices
/// (multiphysics couplings, DBCSR-style block workloads); with
/// [`BlockSkew`] it doubles as the shard runtime's balance stressor.
///
/// `width` is the band width of an *average-sized* block; each
/// block's actual width scales with its row count, so under
/// [`BlockSkew::HeadHeavy`] the oversized head block is also
/// proportionally denser — flops (∝ width²) pile into the leading
/// rows quadratically, the genuinely shard-hostile profile. Values
/// are uniform in `(0, 1]`; rows come out sorted.
pub fn block_diagonal(
    n: usize,
    nblocks: usize,
    width: usize,
    skew: BlockSkew,
    rng: &mut Rng,
) -> Csr<f64> {
    let cuts = block_cuts(n, nblocks, skew);
    let width = width.max(1);
    let nblocks = cuts.len() - 1;
    let mut coo = Coo::with_capacity(n, n, 2 * n * width).expect("dimensions in range");
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let bw = (width * (hi - lo) * nblocks / n.max(1)).max(1).min(hi - lo);
        for i in lo..hi {
            let start = i.saturating_sub(bw / 2).clamp(lo, hi - bw);
            for c in start..start + bw {
                coo.push(i, c as ColIdx, rng.random::<f64>().max(f64::MIN_POSITIVE))
                    .unwrap();
            }
        }
    }
    coo.into_csr_sum()
}

/// A uniform Erdős–Rényi matrix with `m` sampled coordinates
/// (duplicates merged, so realized nnz is slightly lower).
pub fn uniform_matrix(n: usize, m: usize, rng: &mut Rng) -> Csr<f64> {
    let mut coo = Coo::with_capacity(n, n, m).expect("dimensions in range");
    for _ in 0..m {
        let r = rng.random_range(0..n);
        let c = rng.random_range(0..n) as ColIdx;
        coo.push(r, c, rng.random::<f64>().max(f64::MIN_POSITIVE))
            .unwrap();
    }
    coo.into_csr_sum()
}

/// Tiny deterministic string hash for per-matrix seed derivation.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_row_count() {
        assert_eq!(TABLE2.len(), 26);
        // spot-check two entries against the paper's table
        let pdb = TABLE2.iter().find(|s| s.name == "pdb1HYS").unwrap();
        assert!((pdb.paper_compression_ratio() - 28.35).abs() < 0.1);
        let web = TABLE2.iter().find(|s| s.name == "webbase-1M").unwrap();
        assert!(web.paper_compression_ratio() < 1.5);
    }

    #[test]
    fn band_matrix_width_respected() {
        let m = band_matrix(100, 9, &mut crate::rng(1));
        assert_eq!(m.shape(), (100, 100));
        for i in 0..100 {
            assert_eq!(m.row_nnz(i), 9, "row {i}");
            let cols = m.row_cols(i);
            let span = (cols[cols.len() - 1] - cols[0]) as usize;
            assert!(span < 9, "row {i} not contiguous");
        }
    }

    #[test]
    fn band_matrix_degenerate_widths() {
        let m = band_matrix(10, 1, &mut crate::rng(1));
        assert_eq!(m.nnz(), 10);
        let m = band_matrix(10, 100, &mut crate::rng(1));
        assert_eq!(m.nnz(), 100, "width clamps to n");
    }

    #[test]
    fn block_cuts_cover_and_skew() {
        let u = block_cuts(100, 4, BlockSkew::Uniform);
        assert_eq!(u, vec![0, 25, 50, 75, 100]);
        let h = block_cuts(100, 4, BlockSkew::HeadHeavy);
        assert_eq!(h.first(), Some(&0));
        assert_eq!(h.last(), Some(&100));
        assert!(h.windows(2).all(|w| w[0] < w[1]), "{h:?}");
        assert_eq!(h[1], 50, "head block takes half");
        // Degenerate: more blocks than rows, single block.
        let tiny = block_cuts(3, 8, BlockSkew::HeadHeavy);
        assert_eq!(*tiny.last().unwrap(), 3);
        assert_eq!(block_cuts(10, 1, BlockSkew::Uniform), vec![0, 10]);
    }

    #[test]
    fn block_diagonal_stays_inside_blocks() {
        for skew in [BlockSkew::Uniform, BlockSkew::HeadHeavy] {
            let n = 64;
            let m = block_diagonal(n, 4, 5, skew, &mut crate::rng(11));
            assert_eq!(m.shape(), (n, n));
            assert!(m.validate().is_ok());
            assert!(m.is_sorted());
            let cuts = block_cuts(n, 4, skew);
            for i in 0..n {
                let b = cuts.partition_point(|&c| c <= i) - 1;
                for &c in m.row_cols(i) {
                    assert!(
                        (cuts[b]..cuts[b + 1]).contains(&(c as usize)),
                        "{skew:?}: entry ({i}, {c}) escapes block {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn head_heavy_concentrates_work_and_uniform_balances_it() {
        let n = 256;
        let hostile = block_diagonal(n, 4, 9, BlockSkew::HeadHeavy, &mut crate::rng(5));
        let friendly = block_diagonal(n, 4, 9, BlockSkew::Uniform, &mut crate::rng(5));
        // Work (flops of A²) landing in the first quarter of the rows.
        let head_share = |m: &Csr<f64>| {
            let w = spgemm_sparse::stats::row_flops(m, m);
            let head: u64 = w[..n / 4].iter().sum();
            head as f64 / w.iter().sum::<u64>().max(1) as f64
        };
        let hostile_share = head_share(&hostile);
        let friendly_share = head_share(&friendly);
        assert!(hostile_share > 0.4, "head-heavy head share {hostile_share}");
        assert!(
            (friendly_share - 0.25).abs() < 0.1,
            "uniform head share {friendly_share}"
        );
        // Deterministic under a fixed seed.
        let again = block_diagonal(n, 4, 9, BlockSkew::HeadHeavy, &mut crate::rng(5));
        assert_eq!(hostile, again);
    }

    #[test]
    fn uniform_matrix_budget() {
        let m = uniform_matrix(500, 5000, &mut crate::rng(3));
        assert!(m.nnz() <= 5000);
        assert!(m.nnz() > 4500, "dedup removes only a few percent");
    }

    #[test]
    fn standins_deterministic_and_valid() {
        let a = generate_standin(&TABLE2[0], 64, &mut crate::rng(5));
        let b = generate_standin(&TABLE2[0], 64, &mut crate::rng(5));
        assert_eq!(a, b);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn classes_produce_distinct_compression_regimes() {
        use spgemm_sparse::stats;
        let mut r = crate::rng(7);
        // Band: high CR proxy (flop per nnz of A); PowerLaw: skewed.
        let band = band_matrix(2000, 40, &mut r);
        let pl = rmat::generate_kind(rmat::RmatKind::G500, 11, 8, &mut r);
        let band_cr_proxy = stats::flop(&band, &band) as f64 / band.nnz() as f64;
        let pl_cr_proxy = stats::flop(&pl, &pl) as f64 / pl.nnz() as f64;
        assert!(band_cr_proxy > 30.0, "band flop/nnz {band_cr_proxy}");
        let band_cv = stats::structure_stats(&band).row_cv;
        let pl_cv = stats::structure_stats(&pl).row_cv;
        assert!(
            pl_cv > 5.0 * band_cv.max(0.01),
            "powerlaw skew {pl_cv} vs band {band_cv}"
        );
        let _ = pl_cr_proxy;
    }

    #[test]
    fn suite_generation_small_divisor_smoke() {
        // Huge divisor => every matrix collapses to the 1024-row floor;
        // fast enough for CI and still exercises every class.
        let suite = standin_suite(100_000, 42);
        assert_eq!(suite.len(), 26);
        for (name, m) in &suite {
            assert!(m.validate().is_ok(), "{name}");
            assert!(m.nnz() > 0, "{name} empty");
            assert!(m.is_sorted(), "{name}");
        }
    }
}
