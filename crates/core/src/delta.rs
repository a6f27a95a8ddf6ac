//! Row-granular incremental SpGEMM: the machinery behind
//! [`SpgemmPlan::rebind_rows`](crate::SpgemmPlan::rebind_rows).
//!
//! The paper's inspector–executor split assumes a static structure;
//! dynamic-graph workloads break that assumption a few rows at a time.
//! Because every kernel here is a Gustavson *row-wise* product, output
//! row `i` depends only on row `A[i]` and the rows `B[k]` for
//! `k ∈ A[i]` — so a structural edit confined to a known set of input
//! rows invalidates a computable set of *output* rows and nothing
//! else:
//!
//! ```text
//! out_dirty = dirty(A)  ∪  { i : A[i] ∩ dirty(B) ≠ ∅ }
//! ```
//!
//! The second term needs a reverse column→consumer-row view of `A`;
//! that is [`ConsumerIndex`], built once and patched per edit. The
//! plan layer uses it to re-run the symbolic phase for `out_dirty`
//! only and splice the result into the cached row pointers; the
//! numeric layer recomputes those rows and copies the rest
//! (see `SpgemmPlan::execute_rows`). `spgemm::expr`'s
//! [`DeltaPlan`] chains per-node transfer functions on top so a k-row
//! edit flows through a whole pipeline recomputing `O(k · fanout)`
//! rows, and `spgemm-serve` patches its cross-tenant result cache with
//! [`recompute_product_rows`]. All three recompute a row with a
//! kernel's own accumulator through the row-subset entry of the one
//! row-pass driver (`crate::exec`) — there is no second accumulator
//! whose bytes could drift from a full evaluation's.
//!
//! Every incremental path is **byte-for-byte identical** to a
//! from-scratch rebind — the extraction order of every accumulator is
//! a pure per-row function of the operands, independent of pooled
//! capacity — and the `tests/` differential-oracle harness enforces
//! exactly that.

use crate::algos::hash::HashAccumulator;
use crate::exec::{self, RowAccumulator, Workers};
use spgemm_sparse::{ColIdx, Csr, PlusTimes};

pub use crate::expr::{DeltaPlan, DeltaReport, NodeDelta};
pub use spgemm_sparse::delta::{DirtyRows, RowPatch};

/// Reverse column→consumer-row index of a matrix `A`: for every inner
/// column `k`, the ascending list of rows `i` with `k ∈ A[i]`.
///
/// This answers the dirty-propagation question "which output rows of
/// `A · B` consume a dirty row of `B`?" in time proportional to the
/// answer. The index carries a snapshot of `A`'s row patterns so that
/// [`ConsumerIndex::update_rows`] can retire stale reverse entries
/// without access to the pre-edit matrix.
#[derive(Clone, Debug)]
pub struct ConsumerIndex {
    /// `consumers[k]` = sorted rows `i` with `k ∈ A[i]`.
    consumers: Vec<Vec<u32>>,
    /// Snapshot of each row's column pattern (storage order).
    rows: Vec<Vec<ColIdx>>,
}

impl ConsumerIndex {
    /// Build the index from `a` (`O(nnz(A))`).
    pub fn build<T>(a: &Csr<T>) -> Self {
        let mut consumers = vec![Vec::new(); a.ncols()];
        let mut rows = Vec::with_capacity(a.nrows());
        for i in 0..a.nrows() {
            for &k in a.row_cols(i) {
                consumers[k as usize].push(i as u32);
            }
            rows.push(a.row_cols(i).to_vec());
        }
        ConsumerIndex { consumers, rows }
    }

    /// Number of rows of the indexed matrix.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Re-index the rows in `dirty` against the post-edit matrix
    /// `a_new` (all other rows are unchanged by contract, which is
    /// what makes the index exact across a patch).
    ///
    /// # Panics
    /// If `a_new`'s shape differs from the indexed matrix's.
    pub fn update_rows<T>(&mut self, a_new: &Csr<T>, dirty: &DirtyRows) {
        assert_eq!(
            (a_new.nrows(), a_new.ncols()),
            (self.rows.len(), self.consumers.len()),
            "ConsumerIndex::update_rows: shape changed; rebuild instead"
        );
        for i in dirty.iter() {
            for &k in &self.rows[i] {
                let list = &mut self.consumers[k as usize];
                if let Ok(pos) = list.binary_search(&(i as u32)) {
                    list.remove(pos);
                }
            }
            for &k in a_new.row_cols(i) {
                let list = &mut self.consumers[k as usize];
                if let Err(pos) = list.binary_search(&(i as u32)) {
                    list.insert(pos, i as u32);
                }
            }
            self.rows[i] = a_new.row_cols(i).to_vec();
        }
    }

    /// The rows of `A` that consume inner column `k`.
    pub fn consumers_of(&self, k: usize) -> &[u32] {
        &self.consumers[k]
    }

    /// Output rows of `A · B` invalidated by the given input dirty
    /// sets: `dirty_a ∪ { i : A[i] ∩ dirty_b ≠ ∅ }`. The index must
    /// already reflect the *post-edit* `A` (clean rows are identical
    /// in both versions, so the reverse scan over the new patterns is
    /// exact).
    ///
    /// # Panics
    /// If the dirty universes don't match the indexed shape.
    pub fn out_dirty(&self, dirty_a: &DirtyRows, dirty_b: &DirtyRows) -> DirtyRows {
        assert_eq!(dirty_a.nrows(), self.rows.len(), "dirty_a universe");
        assert_eq!(dirty_b.nrows(), self.consumers.len(), "dirty_b universe");
        let mut out = dirty_a.clone();
        for k in dirty_b.iter() {
            for &i in &self.consumers[k] {
                out.insert(i as usize);
            }
        }
        out
    }
}

/// Replace the rows in `patched` of `old` with freshly computed rows
/// of the sorted product `A · B`, leaving every other row's bytes
/// untouched.
///
/// Each row is the hash accumulator's ordinary symbolic + numeric row
/// through the serial row-subset entry of the shared driver
/// (`exec::Workers::with_rows`), so it is bit-identical to
/// [`crate::Algorithm::Hash`]'s sorted output by construction — and,
/// for *sorted* operands, to the rest of the ascending-`k` family
/// (HashVec, SPA, KkHash, IKJ, RowClass), whose per-column sums run in
/// the same order. `spgemm-serve` uses this to patch cached products
/// in place instead of discarding them on every upstream row update.
///
/// # Panics
/// Debug-asserts that operands are sorted and shapes line up; the
/// caller (an engine that planned the product) has already validated
/// them.
pub fn recompute_product_rows(
    a: &Csr<f64>,
    b: &Csr<f64>,
    patched: &DirtyRows,
    old: &Csr<f64>,
) -> Csr<f64> {
    debug_assert!(a.is_sorted() && b.is_sorted());
    debug_assert_eq!(a.ncols(), b.nrows());
    debug_assert_eq!((old.nrows(), old.ncols()), (a.nrows(), b.ncols()));
    debug_assert_eq!(patched.nrows(), a.nrows());

    type Acc = HashAccumulator<PlusTimes<f64>>;
    let flops = patched.iter().map(|i| exec::row_flop(a, b, i));
    let rows: Vec<_> = Workers::<_, Acc>::new(1, ()).with_rows(a, b, flops, |acc| {
        patched
            .iter()
            .map(|i| {
                let n = acc.symbolic_row(a, b, i);
                let (mut cols, mut vals) = (vec![0 as ColIdx; n], vec![0.0f64; n]);
                acc.numeric_row(a, b, i, &mut cols, &mut vals, true);
                (i, cols, vals)
            })
            .collect()
    });
    splice_rows(old, &rows)
}

/// Rebuild `old` with the listed rows replaced (rows ascending; each
/// entry is `(row, cols, vals)`), preserving the sorted flag.
pub(crate) fn splice_rows<T: Copy>(old: &Csr<T>, rows: &[(usize, Vec<ColIdx>, Vec<T>)]) -> Csr<T> {
    let delta: isize = rows
        .iter()
        .map(|&(i, ref c, _)| c.len() as isize - old.row_nnz(i) as isize)
        .sum();
    let new_nnz = (old.nnz() as isize + delta) as usize;
    let mut rpts = Vec::with_capacity(old.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::with_capacity(new_nnz);
    let mut vals = Vec::with_capacity(new_nnz);
    let mut next = 0usize;
    for i in 0..old.nrows() {
        if next < rows.len() && rows[next].0 == i {
            cols.extend_from_slice(&rows[next].1);
            vals.extend_from_slice(&rows[next].2);
            next += 1;
        } else {
            cols.extend_from_slice(old.row_cols(i));
            vals.extend_from_slice(old.row_vals(i));
        }
        rpts.push(cols.len());
    }
    debug_assert_eq!(next, rows.len(), "spliced rows must be ascending");
    Csr::from_parts_unchecked(old.nrows(), old.ncols(), rpts, cols, vals, old.is_sorted())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 3, 5.0),
                (3, 2, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn consumer_index_inverts_the_pattern() {
        let a = sample();
        let idx = ConsumerIndex::build(&a);
        assert_eq!(idx.consumers_of(0), &[0, 2]);
        assert_eq!(idx.consumers_of(1), &[1]);
        assert_eq!(idx.consumers_of(2), &[0, 3]);
        assert_eq!(idx.consumers_of(3), &[2]);
    }

    #[test]
    fn consumer_index_update_matches_rebuild() {
        let a = sample();
        let mut idx = ConsumerIndex::build(&a);
        let mut p = RowPatch::new();
        p.delete(0, 2).insert(0, 3, 9.0).insert(1, 0, 1.0);
        let (a2, dirty) = a.apply_patch(&p).unwrap();
        idx.update_rows(&a2, &dirty);
        let fresh = ConsumerIndex::build(&a2);
        for k in 0..a2.ncols() {
            assert_eq!(idx.consumers_of(k), fresh.consumers_of(k), "col {k}");
        }
    }

    #[test]
    fn out_dirty_unions_direct_and_reverse_hits() {
        let a = sample();
        let idx = ConsumerIndex::build(&a);
        let dirty_a = DirtyRows::from_rows(4, [1]);
        let dirty_b = DirtyRows::from_rows(4, [2]); // consumed by rows 0, 3
        let out = idx.out_dirty(&dirty_a, &dirty_b);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    /// Bit-for-bit against the full `Hash` product — the serve patch's
    /// contract. The `[[-1.0]] · [[0.0]]` input is the signed-zero
    /// case a private accumulator once got wrong (it seeded the column
    /// with `+0.0` and added, yielding `+0.0` where every kernel
    /// assigns the first product, `-0.0`); the R-MAT pair is the
    /// `delta_oracle` suite's.
    #[test]
    fn recompute_product_rows_patches_exactly() {
        let rmat = |seed| {
            spgemm_gen::rmat::generate_kind(
                spgemm_gen::RmatKind::G500,
                5,
                4,
                &mut spgemm_gen::rng(seed),
            )
        };
        let neg_one = Csr::from_triplets(1, 1, &[(0, 0, -1.0)]).unwrap();
        let stored_zero = Csr::from_triplets(1, 1, &[(0, 0, 0.0)]).unwrap();
        let cases = [
            (sample(), sample(), vec![0usize, 2]),
            (neg_one, stored_zero, vec![0]),
            (rmat(7), rmat(8), (0..32).step_by(3).collect()),
        ];
        let pool = spgemm_par::Pool::new(2);
        for (a, b, rows) in cases {
            let full = crate::multiply_in::<PlusTimes<f64>>(
                &a,
                &b,
                crate::Algorithm::Hash,
                crate::OutputOrder::Sorted,
                &pool,
            )
            .unwrap();
            // Perturb the rows of the cached product, then ask for them back.
            let broken_rows: Vec<_> = rows
                .iter()
                .map(|&i| (i, vec![0 as ColIdx], vec![99.0]))
                .collect();
            let broken = splice_rows(&full, &broken_rows);
            let patched = DirtyRows::from_rows(a.nrows(), rows);
            let fixed = recompute_product_rows(&a, &b, &patched, &broken);
            assert_eq!((fixed.rpts(), fixed.cols()), (full.rpts(), full.cols()));
            let bits = |m: &Csr<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fixed), bits(&full));
        }
    }
}
