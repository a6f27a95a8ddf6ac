//! Masked SpGEMM: `C = (A · B) ∘ M` computed *without materializing*
//! `A · B`.
//!
//! Triangle counting (§5.6) only ever reads the wedge product `L · U`
//! at the positions of the graph's own edges; masked SpGEMM exploits
//! that by rejecting every intermediate product that falls outside the
//! mask row, shrinking both the accumulator working set (≤ nnz(m_i*)
//! instead of flop(c_i*)) and the output. This is the natural
//! "future work" extension of the paper's kernels and matches the
//! masked primitives of the GraphBLAS ecosystem its applications come
//! from.

use crate::algos::spa::SpaAccumulator;
use crate::exec::{self, AccumReq, ColumnSet, Operands, RowAccumulator, Workers};
use crate::OutputOrder;
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, Semiring, SparseError};

/// A SPA gated on the mask row: inserts outside the row
/// [`MaskedSpa::open_row`] admitted are rejected before they reach it.
pub(crate) struct MaskedSpa<'m, S: Semiring, M: Copy + Send + Sync> {
    mask: &'m Csr<M>,
    /// `allowed[j] == epoch` ⇔ `j ∈ m_i*` for the current row.
    allowed: Vec<u32>,
    /// Never 0, the stamp of a fresh slot.
    epoch: u32,
    spa: SpaAccumulator<S>,
}

impl<'m, S: Semiring, M: Copy + Send + Sync> MaskedSpa<'m, S, M> {
    pub(crate) fn new(mask: &'m Csr<M>, ncols: usize) -> Self {
        MaskedSpa {
            mask,
            allowed: vec![0; ncols],
            epoch: 1,
            spa: SpaAccumulator::new(ncols),
        }
    }

    /// Admit mask row `i`'s columns into the (empty) set.
    pub(crate) fn open_row(&mut self, i: usize) {
        for &c in self.mask.row_cols(i) {
            self.allowed[c as usize] = self.epoch;
        }
    }

    /// The gated accumulator.
    #[cfg(test)]
    pub(crate) fn spa(&self) -> &SpaAccumulator<S> {
        &self.spa
    }

    /// Close the mask row in O(1): bump the epoch.
    fn close_row(&mut self) {
        if self.epoch == u32::MAX {
            self.allowed.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

impl<S: Semiring, M: Copy + Send + Sync> ColumnSet<S> for MaskedSpa<'_, S, M> {
    #[inline]
    fn insert_symbolic(&mut self, col: ColIdx) {
        if self.allowed[col as usize] == self.epoch {
            self.spa.insert_symbolic(col);
        }
    }

    #[inline]
    fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        // outside the mask: product rejected
        if self.allowed[col as usize] == self.epoch {
            self.spa.insert_numeric(col, value);
        }
    }

    fn len(&self) -> usize {
        self.spa.len()
    }

    fn reset(&mut self) {
        self.spa.reset();
        self.close_row();
    }

    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        self.spa.extract_into(cols, vals, sorted);
        self.close_row();
    }
}

impl<'m, S: Semiring, M: Copy + Send + Sync> RowAccumulator<S> for MaskedSpa<'m, S, M> {
    /// The mask every worker's accumulator gates on.
    type Shared = &'m Csr<M>;

    fn build(req: &AccumReq, mask: &&'m Csr<M>) -> Self {
        Self::new(mask, req.ncols_b)
    }

    fn ensure(&mut self, req: &AccumReq) {
        if req.ncols_b > self.allowed.len() {
            // Fresh slots stamped 0 read as outside the mask
            // (epoch ≥ 1).
            self.allowed.resize(req.ncols_b, 0);
        }
        self.spa.ensure(req);
    }

    fn scrub(&mut self) {
        self.reset();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        self.open_row(i);
        Operands::of(a, b).symbolic_row(self, i)
    }

    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        sorted: bool,
    ) {
        self.open_row(i);
        Operands::of(a, b).numeric_row(self, i, cols, vals, sorted);
    }
}

/// Masked SpGEMM: `C = (A · B) ∘ M` (structural mask — `M`'s values
/// are ignored, its pattern gates the output).
///
/// Entries of `A · B` outside `M`'s pattern are never accumulated, so
/// the cost is `O(flop)` probes but only `O(Σ nnz(m_i*))` accumulator
/// space and output. The mask must be shaped like the product.
pub fn multiply_masked<S: Semiring, M: Copy + Send + Sync>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    mask: &Csr<M>,
    order: OutputOrder,
    pool: &Pool,
) -> Result<Csr<S::Elem>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "multiply_masked",
        });
    }
    if mask.shape() != (a.nrows(), b.ncols()) {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows(), b.ncols()),
            right: mask.shape(),
            op: "multiply_masked (mask shape)",
        });
    }
    let w = Workers::<S, MaskedSpa<'_, S, M>>::new(pool.nthreads(), mask);
    Ok(exec::multiply_on(&w, a, b, order.is_sorted(), pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use spgemm_sparse::{approx_eq_f64, ops, PlusTimes};

    type P = PlusTimes<f64>;

    #[test]
    fn equals_multiply_then_hadamard() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            7,
            6,
            &mut spgemm_gen::rng(1),
        );
        // mask: the matrix's own pattern (the triangle-counting shape)
        let mask = a.map(|_| 1.0f64);
        let pool = Pool::new(2);
        let masked = multiply_masked::<P, f64>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        let full = reference::multiply::<P>(&a, &a);
        let expect = ops::hadamard(&full, &mask).unwrap();
        // hadamard multiplies values by the mask's (all-one) values
        assert!(approx_eq_f64(&expect, &masked, 1e-9));
        assert!(masked.nnz() <= mask.nnz());
    }

    #[test]
    fn empty_mask_gives_empty_product() {
        let a = Csr::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]).unwrap();
        let mask = Csr::<u8>::zero(3, 3);
        let pool = Pool::new(1);
        let c = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn mask_wider_than_product_is_harmless() {
        // mask entries where the product is zero simply do not appear
        let a = Csr::from_triplets(2, 2, &[(0, 0, 2.0)]).unwrap();
        let mask = Csr::from_triplets(2, 2, &[(0, 0, 1u8), (1, 1, 1)]).unwrap();
        let pool = Pool::new(1);
        let c = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(&4.0));
    }

    #[test]
    fn shape_mismatches_rejected() {
        let a = Csr::<f64>::zero(2, 3);
        let b = Csr::<f64>::zero(3, 4);
        let pool = Pool::new(1);
        let bad_mask = Csr::<u8>::zero(2, 3);
        assert!(multiply_masked::<P, u8>(&a, &b, &bad_mask, OutputOrder::Sorted, &pool).is_err());
        let bad_b = Csr::<f64>::zero(5, 4);
        let mask = Csr::<u8>::zero(2, 4);
        assert!(multiply_masked::<P, u8>(&a, &bad_b, &mask, OutputOrder::Sorted, &pool).is_err());
    }

    #[test]
    fn unsorted_output_same_content() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::Er,
            6,
            4,
            &mut spgemm_gen::rng(2),
        );
        let mask = a.map(|_| 1u8);
        let pool = Pool::new(2);
        let s = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Sorted, &pool).unwrap();
        let u = multiply_masked::<P, u8>(&a, &a, &mask, OutputOrder::Unsorted, &pool).unwrap();
        assert!(approx_eq_f64(&s, &u, 1e-12));
        assert!(s.is_sorted());
    }
}
