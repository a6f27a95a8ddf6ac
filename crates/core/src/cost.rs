//! Analytic cost model for accumulator selection (§4.2.4).
//!
//! The paper estimates the two main accumulators as
//!
//! * Eq (1): `T_heap = Σ_i flop(c_i*) · log₂ nnz(a_i*)`
//! * Eq (2): `T_hash = flop · c + Σ_i nnz(c_i*) · log₂ nnz(c_i*)`
//!
//! where `c` is the average number of probes per hash access (the
//! *collision factor*; `c = 1` means no collisions) and the second
//! term of Eq (2) is the per-row output sort, dropped for unsorted
//! output. "Hash tends to win when `nnz(c_i*)` or
//! `flop(c_i*)/nnz(c_i*)` is large" — i.e. dense or regular inputs —
//! which is exactly what Table 4 encodes empirically.

use crate::algos::hash::{linear_insert, Probe, Table};
use crate::exec::Operands;
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Cost estimates (in abstract operation counts) for one multiply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Eq (1): heap accumulation cost.
    pub heap: f64,
    /// Eq (2) with the sort term: hash producing sorted output.
    pub hash_sorted: f64,
    /// Eq (2) without the sort term: hash producing unsorted output.
    pub hash_unsorted: f64,
    /// Total scalar multiplications.
    pub flop: u64,
}

impl CostEstimate {
    /// The cheaper of heap vs hash for the requested output order.
    pub fn prefers_hash(&self, sorted_output: bool) -> bool {
        let hash = if sorted_output {
            self.hash_sorted
        } else {
            self.hash_unsorted
        };
        hash <= self.heap
    }
}

#[inline]
fn log2_ceil(x: u64) -> f64 {
    if x <= 1 {
        // a 1-element heap/sort still does ~1 operation per item
        1.0
    } else {
        (x as f64).log2()
    }
}

/// Evaluate Eqs (1)–(2) given the *known* output structure (exact
/// per-row `nnz(c_i*)`). Useful post-hoc and in tests.
pub fn estimate_exact<A, B, C>(
    a: &Csr<A>,
    b: &Csr<B>,
    c: &Csr<C>,
    collision_factor: f64,
) -> CostEstimate
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync,
{
    let row_flops = spgemm_sparse::stats::row_flops(a, b);
    let flop: u64 = row_flops.iter().sum();
    let mut heap = 0.0f64;
    let mut sort = 0.0f64;
    for (i, &rf) in row_flops.iter().enumerate() {
        heap += rf as f64 * log2_ceil(a.row_nnz(i) as u64);
        let nnz_ci = c.row_nnz(i) as u64;
        sort += nnz_ci as f64 * log2_ceil(nnz_ci);
    }
    let probe = flop as f64 * collision_factor;
    CostEstimate {
        heap,
        hash_sorted: probe + sort,
        hash_unsorted: probe,
        flop,
    }
}

/// Evaluate Eqs (1)–(2) *a priori*, before the output structure is
/// known, approximating `nnz(c_i*) ≈ min(flop(c_i*) / 2, ncols)` — the
/// compression-ratio-2 midpoint that separates Table 4a's regimes.
pub fn estimate_apriori<A, B>(a: &Csr<A>, b: &Csr<B>, collision_factor: f64) -> CostEstimate
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
{
    let row_flops = spgemm_sparse::stats::row_flops(a, b);
    let flop: u64 = row_flops.iter().sum();
    let mut heap = 0.0f64;
    let mut sort = 0.0f64;
    for (i, &rf) in row_flops.iter().enumerate() {
        heap += rf as f64 * log2_ceil(a.row_nnz(i) as u64);
        let est_nnz = ((rf / 2).min(b.ncols() as u64)).max(u64::from(rf > 0));
        sort += est_nnz as f64 * log2_ceil(est_nnz);
    }
    let probe = flop as f64 * collision_factor;
    CostEstimate {
        heap,
        hash_sorted: probe + sort,
        hash_unsorted: probe,
        flop,
    }
}

/// Figure 8a's linear probe, counting: the probe policy behind
/// [`measure_collision_factor`] and its only user — production tables
/// carry no counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CountingLinear {
    /// Slots inspected.
    probes: u64,
    /// Keys looked up.
    accesses: u64,
}

impl CountingLinear {
    /// Average probes per access — the collision factor `c` of Eq (2).
    /// Exactly 1.0 when no probe ever collided.
    pub(crate) fn collision_factor(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.probes as f64 / self.accesses as f64
        }
    }
}

impl Probe for CountingLinear {
    #[inline]
    fn insert(&mut self, keys: &mut [i32], mask: u32, col: ColIdx) -> (usize, bool) {
        self.accesses += 1;
        linear_insert(keys, mask, col, || self.probes += 1)
    }
}

/// Empirically measure the collision factor `c` of Eq (2) for
/// `A · B`: run a sequential symbolic pass through a hash table whose
/// probe counts, and report probes per access.
///
/// On the paper's inputs this sits close to 1 (the multiply-and-mask
/// hash with a strictly-oversized power-of-two table collides rarely);
/// the ablation bench uses it to relate Eq (2) to measurements.
pub fn measure_collision_factor<S: Semiring>(a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> f64 {
    let row_flops = spgemm_sparse::stats::row_flops(a, b);
    let max_flop = row_flops.iter().copied().max().unwrap_or(0) as usize;
    let mut table = Table::<S, _>::new(max_flop, b.ncols(), CountingLinear::default());
    for i in 0..a.nrows() {
        Operands::of(a, b).symbolic_row(&mut table, i);
    }
    table.probe().collision_factor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_gen::{rmat, suite, RmatKind};

    #[test]
    fn log2_ceil_monotone() {
        assert_eq!(log2_ceil(0), 1.0);
        assert_eq!(log2_ceil(1), 1.0);
        assert_eq!(log2_ceil(2), 1.0);
        assert!(log2_ceil(1024) > log2_ceil(512));
    }

    #[test]
    fn unsorted_hash_never_dearer_than_sorted() {
        let a = rmat::generate_kind(RmatKind::Er, 8, 8, &mut spgemm_gen::rng(1));
        let e = estimate_apriori(&a, &a, 1.2);
        assert!(e.hash_unsorted <= e.hash_sorted);
        assert!(e.flop > 0);
    }

    #[test]
    fn dense_regular_inputs_prefer_hash() {
        // A banded matrix has large flop(c_i*)/nnz(c_i*): Eq (1) pays
        // log(nnz(a_i*)) on every one of its many collapsing products,
        // while Eq (2)'s sort term only pays on the few survivors.
        // (The exact estimate sees the real nnz(C); the a-priori one
        // deliberately over-estimates it at CR = 2.)
        let band = suite::band_matrix(512, 32, &mut spgemm_gen::rng(2));
        let c = crate::algos::reference::multiply::<spgemm_sparse::PlusTimes<f64>>(&band, &band);
        let e = estimate_exact(&band, &band, &c, 1.0);
        assert!(
            e.prefers_hash(true),
            "band: hash {h} vs heap {p}",
            h = e.hash_sorted,
            p = e.heap
        );
    }

    #[test]
    fn exact_estimate_uses_output_structure() {
        let a = rmat::generate_kind(RmatKind::Er, 7, 4, &mut spgemm_gen::rng(3));
        let c = crate::algos::reference::multiply::<spgemm_sparse::PlusTimes<f64>>(&a, &a);
        let exact = estimate_exact(&a, &a, &c, 1.0);
        let apriori = estimate_apriori(&a, &a, 1.0);
        assert_eq!(exact.flop, apriori.flop);
        assert_eq!(exact.heap, apriori.heap);
        // sort terms differ because nnz(c) is estimated in apriori
        assert!(exact.hash_sorted > exact.hash_unsorted);
    }

    #[test]
    fn measured_collision_factor_is_small_on_rmat() {
        let a = rmat::generate_kind(RmatKind::G500, 9, 8, &mut spgemm_gen::rng(5));
        let c = measure_collision_factor::<spgemm_sparse::PlusTimes<f64>>(&a, &a);
        assert!(c >= 1.0, "by definition");
        assert!(c < 2.0, "oversized pow2 table keeps probing cheap: c = {c}");
    }

    #[test]
    fn collision_factor_scales_probe_cost() {
        let a = rmat::generate_kind(RmatKind::Er, 7, 4, &mut spgemm_gen::rng(4));
        let e1 = estimate_apriori(&a, &a, 1.0);
        let e2 = estimate_apriori(&a, &a, 2.0);
        assert!((e2.hash_unsorted - 2.0 * e1.hash_unsorted).abs() < 1e-6);
    }
}
