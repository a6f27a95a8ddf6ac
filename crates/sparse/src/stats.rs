//! Structural analysis: flop counting and compression ratios.
//!
//! The paper measures SpGEMM work in `flop` — the number of non-trivial
//! scalar multiplications `a_ik · b_kj` with both operands stored
//! (§2). `flop` is computable from the two structures alone in
//! `O(nnz(A))`, which is what makes the flop-balanced scheduler of §4.1
//! cheap, and `flop / nnz(C)` is the *compression ratio* that organizes
//! the real-matrix evaluation (§5.4.4, Figs 14/15/17).

use crate::Csr;

/// Number of scalar multiplications required by `A · B`, per row of the
/// output: `flop(c_i*) = Σ_{k ∈ a_i*} nnz(b_k*)`.
///
/// Panics if the inner dimensions disagree (programmer error — callers
/// validate shapes at the API boundary).
pub fn row_flops<T: Copy + Send + Sync, U: Copy + Send + Sync>(a: &Csr<T>, b: &Csr<U>) -> Vec<u64> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "row_flops: inner dimensions {} vs {}",
        a.ncols(),
        b.nrows()
    );
    let brpts = b.rpts();
    (0..a.nrows())
        .map(|i| {
            a.row_cols(i)
                .iter()
                .map(|&k| (brpts[k as usize + 1] - brpts[k as usize]) as u64)
                .sum()
        })
        .collect()
}

/// Total `flop` of `A · B` (the sum of [`row_flops`]).
pub fn flop<T: Copy + Send + Sync, U: Copy + Send + Sync>(a: &Csr<T>, b: &Csr<U>) -> u64 {
    assert_eq!(a.ncols(), b.nrows());
    let brpts = b.rpts();
    a.cols()
        .iter()
        .map(|&k| (brpts[k as usize + 1] - brpts[k as usize]) as u64)
        .sum()
}

/// Per-column stored-entry counts — the weight vector a column
/// partition balances (the sharded runtime's column cuts of `B`).
pub fn column_nnz<T>(m: &Csr<T>) -> Vec<u64> {
    let mut counts = vec![0u64; m.ncols()];
    for &c in m.cols() {
        counts[c as usize] += 1;
    }
    counts
}

/// Compression ratio `flop / nnz(C)` given a known output size.
/// Values near 1 mean almost every intermediate product survives as its
/// own output entry (graph-like inputs); large values mean heavy
/// accumulation (regular/FEM-like inputs).
pub fn compression_ratio(flop: u64, nnz_c: usize) -> f64 {
    if nnz_c == 0 {
        0.0
    } else {
        flop as f64 / nnz_c as f64
    }
}

/// Descriptive statistics of a matrix structure, in the shape of the
/// paper's Table 2 (counts reported in raw units, not millions).
#[derive(Clone, Debug, PartialEq)]
pub struct StructureStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored entries.
    pub nnz: usize,
    /// Mean entries per row.
    pub avg_row_nnz: f64,
    /// Largest row.
    pub max_row_nnz: usize,
    /// Coefficient of variation of row sizes (std/mean) — the skew
    /// indicator separating "uniform" from "skewed" in Table 4b.
    pub row_cv: f64,
}

/// Compute [`StructureStats`].
pub fn structure_stats<T: Copy + Send + Sync>(a: &Csr<T>) -> StructureStats {
    let n = a.nrows();
    let nnz = a.nnz();
    let mean = if n == 0 { 0.0 } else { nnz as f64 / n as f64 };
    let mut var = 0.0f64;
    let mut max = 0usize;
    for i in 0..n {
        let d = a.row_nnz(i);
        max = max.max(d);
        let diff = d as f64 - mean;
        var += diff * diff;
    }
    let row_cv = if n == 0 || mean == 0.0 {
        0.0
    } else {
        (var / n as f64).sqrt() / mean
    };
    StructureStats {
        nrows: n,
        ncols: a.ncols(),
        nnz,
        avg_row_nnz: mean,
        max_row_nnz: max,
        row_cv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Csr<f64> {
        // [ x x . ]
        // [ . . x ]
        Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap()
    }

    fn b() -> Csr<f64> {
        // [ x . ]
        // [ x x ]
        // [ . x ]
        Csr::from_triplets(3, 2, &[(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 1, 1.0)]).unwrap()
    }

    #[test]
    fn row_flops_counts_b_row_sizes() {
        let rf = row_flops(&a(), &b());
        // row 0 touches B rows 0 (1 nnz) and 1 (2 nnz) -> 3
        // row 1 touches B row 2 (1 nnz) -> 1
        assert_eq!(rf, vec![3, 1]);
        assert_eq!(flop(&a(), &b()), 4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn row_flops_panics_on_shape_mismatch() {
        let _ = row_flops(&b(), &b());
    }

    #[test]
    fn flop_of_empty_is_zero() {
        let z = Csr::<f64>::zero(4, 4);
        assert_eq!(flop(&z, &z), 0);
        assert_eq!(row_flops(&z, &z), vec![0; 4]);
    }

    #[test]
    fn column_nnz_counts() {
        assert_eq!(column_nnz(&b()), vec![2, 2]);
        assert_eq!(column_nnz(&a()), vec![1, 1, 1]);
        assert_eq!(column_nnz(&Csr::<f64>::zero(3, 2)), vec![0, 0]);
    }

    #[test]
    fn compression_ratio_basics() {
        assert_eq!(compression_ratio(100, 50), 2.0);
        assert_eq!(compression_ratio(0, 0), 0.0);
        assert_eq!(compression_ratio(7, 7), 1.0);
    }

    #[test]
    fn structure_stats_on_sample() {
        let s = structure_stats(&a());
        assert_eq!(s.nnz, 3);
        assert_eq!(s.max_row_nnz, 2);
        assert!((s.avg_row_nnz - 1.5).abs() < 1e-12);
        assert!(s.row_cv > 0.0);

        let uniform = Csr::<f64>::identity(5);
        let su = structure_stats(&uniform);
        assert_eq!(su.row_cv, 0.0, "identity has perfectly uniform rows");
    }
}
