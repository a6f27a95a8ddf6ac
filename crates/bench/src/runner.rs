//! Timed multiplies and MFLOPS accounting.
//!
//! The paper reports MFLOPS computed from `flop`, the number of
//! non-trivial scalar multiplications (Table 2 lists `flop(A²)`), with
//! each multiply-add counted as two floating-point operations:
//! `MFLOPS = 2 · flop / time / 10⁶`.

use crate::algos::inspector::InspectorRow;
use crate::tuning::{one_phase, MemScheme, RowSchedule};
use spgemm::algos::heap::HeapKernel;
use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_membench::median_millis;
use spgemm_par::Pool;
use spgemm_sparse::{stats, Csr, PlusTimes, SparseError};

/// Result of one timed kernel configuration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median seconds across repetitions.
    pub secs: f64,
    /// `flop` of the product.
    pub flop: u64,
    /// Output nonzeros.
    pub nnz_out: usize,
}

impl Measurement {
    /// `2 · flop / time`, in MFLOPS.
    pub fn mflops(&self) -> f64 {
        if self.secs <= 0.0 {
            0.0
        } else {
            2.0 * self.flop as f64 / self.secs / 1e6
        }
    }

    /// Compression ratio `flop / nnz(C)` of this product.
    pub fn compression_ratio(&self) -> f64 {
        stats::compression_ratio(self.flop, self.nnz_out)
    }
}

type P = PlusTimes<f64>;

/// `C = A · B` as the paper ran `algo`: Heap and Inspector one-phase
/// ([`one_phase`] over the flop-balanced blocks, staging thread-private;
/// Inspector's rows post-sorted when `Sorted` is asked), every other
/// kernel through the library's one-shot `multiply_in`.
fn paper_multiply(
    a: &Csr<f64>,
    b: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
) -> Result<Csr<f64>, SparseError> {
    let (sched, mem) = (RowSchedule::FlopBalanced, MemScheme::Parallel);
    let mut c = match algo {
        Algorithm::Heap => one_phase::<P, HeapKernel<P>>(a, b, pool, sched, mem)?,
        Algorithm::Inspector => one_phase::<P, InspectorRow<P>>(a, b, pool, sched, mem)?,
        _ => return multiply_in::<P>(a, b, algo, order, pool),
    };
    if order.is_sorted() {
        c.sort_rows(); // Inspector's rows; Heap's are sorted
    }
    Ok(c)
}

/// Run `C = A · B` `reps` times (after one warmup), reporting the
/// median. Heap and Inspector run one-phase, as the paper's kernels
/// do. Returns `Err` for contract violations (operands whose shapes do
/// not chain, a sorted-only kernel on unsorted input) so panels can
/// skip invalid combinations.
pub fn time_multiply(
    a: &Csr<f64>,
    b: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
    reps: usize,
) -> Result<Measurement, SparseError> {
    if a.ncols() != b.nrows() {
        let (left, right, op) = (a.shape(), b.shape(), "time_multiply");
        return Err(SparseError::ShapeMismatch { left, right, op });
    }
    let flop = stats::flop(a, b);
    // warmup + validity check
    let c = paper_multiply(a, b, algo, order, pool)?;
    let nnz_out = c.nnz();
    drop(c);
    let ms = median_millis(reps, || {
        let c = paper_multiply(a, b, algo, order, pool)
            .expect("the warm-up run accepted these operands");
        std::hint::black_box(c.nnz());
    });
    Ok(Measurement {
        secs: ms / 1e3,
        flop,
        nnz_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_math() {
        let m = Measurement {
            secs: 0.5,
            flop: 1_000_000,
            nnz_out: 250_000,
        };
        assert!((m.mflops() - 4.0).abs() < 1e-9);
        assert!((m.compression_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn time_multiply_runs_and_reports() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::Er,
            7,
            4,
            &mut spgemm_gen::rng(1),
        );
        let pool = Pool::new(2);
        let m = time_multiply(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool, 2).unwrap();
        assert!(m.secs > 0.0);
        assert_eq!(m.flop, spgemm_sparse::stats::flop(&a, &a));
        assert!(m.nnz_out > 0);
        assert!(m.mflops() > 0.0);
    }

    #[test]
    fn contract_violation_surfaces_as_error() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::Er,
            6,
            4,
            &mut spgemm_gen::rng(2),
        );
        let (ua, ub) = crate::panels::unsorted_twin(&a, &a, &mut spgemm_gen::rng(3));
        let pool = Pool::new(1);
        let r = time_multiply(&ua, &ub, Algorithm::Heap, OutputOrder::Sorted, &pool, 1);
        assert!(matches!(r, Err(SparseError::Unsorted { .. })));
        let tall = Csr::<f64>::identity(a.nrows() + 1);
        for algo in [Algorithm::Heap, Algorithm::Inspector, Algorithm::Hash] {
            let r = time_multiply(&a, &tall, algo, OutputOrder::Sorted, &pool, 1);
            assert!(
                matches!(r, Err(SparseError::ShapeMismatch { .. })),
                "{algo:?}"
            );
        }
    }
}
