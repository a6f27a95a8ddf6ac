//! Row-granular incremental SpGEMM: the machinery behind
//! [`SpgemmPlan::rebind_rows_in`](crate::SpgemmPlan::rebind_rows_in).
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
//! That is the one invalidation rule, and [`rows_touching`] is the one
//! function that evaluates it: a stateless scan of `A`'s pattern,
//! early exit per row, no index kept between edits. The plan layer
//! then runs the ordinary symbolic and numeric passes of `crate::exec`
//! **under `out_dirty` as a mask** — same parallel region, same
//! flop-balanced partition, same pooled accumulators; a worker counts
//! / computes the dirty rows of its range and takes every clean row
//! from the previous structure / product (see
//! `SpgemmPlan::execute_rows`). [`crate::expr::ExprPlan::update_in`]
//! chains per-node transfer functions on top so a k-row edit flows
//! through a whole pipeline recomputing `O(k · fanout)` product rows
//! ([`DeltaReport`]); `spgemm-serve`'s expression jobs run on cached
//! `ExprPlan`s, so this is the only incremental product path — there
//! is no second driver whose bytes could drift from a full
//! evaluation's.
//!
//! Every incremental path is **byte-for-byte identical** to a
//! from-scratch rebind — the extraction order of every accumulator is
//! a pure per-row function of the operands, independent of pooled
//! capacity and of which worker runs the row — and the `tests/`
//! differential-oracle harness enforces exactly that.

use spgemm_sparse::{ColIdx, Csr};

pub use crate::expr::DeltaReport;
pub use spgemm_sparse::delta::{DirtyRows, RowPatch};

/// `seed` plus every row of `m` whose pattern meets `dirty_cols`: the
/// invalidation rule of a row-wise product (`m = A`, `dirty_cols` the
/// dirty rows of `B`, `seed` the dirty rows of `A`) and of any other
/// per-row function of selected columns (`NormalizeCols`). `m` must be
/// the *post-edit* matrix — its clean rows are identical in both
/// versions and its dirty ones are in `seed` already.
///
/// # Panics
/// If `seed` / `dirty_cols` are not sets over `m`'s rows / columns.
pub fn rows_touching<T>(m: &Csr<T>, dirty_cols: &DirtyRows, seed: DirtyRows) -> DirtyRows {
    assert_eq!(
        (seed.nrows(), dirty_cols.nrows()),
        m.shape(),
        "rows_touching: the sets must be over m's rows and columns"
    );
    let mut out = seed;
    if dirty_cols.is_empty() {
        return out;
    }
    let hit = |&k: &ColIdx| dirty_cols.contains(k as usize);
    for i in 0..m.nrows() {
        if !out.contains(i) && m.row_cols(i).iter().any(hit) {
            out.insert(i);
        }
    }
    out
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
    fn out_dirty_unions_direct_and_reverse_hits() {
        let a = sample();
        let dirty_a = DirtyRows::from_rows(4, [1]);
        let dirty_b = DirtyRows::from_rows(4, [2]); // consumed by rows 0, 3
        let out = rows_touching(&a, &dirty_b, dirty_a.clone());
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        // Nothing dirty on the column side: the seed, untouched.
        assert_eq!(
            rows_touching(&a, &DirtyRows::new(4), dirty_a.clone()),
            dirty_a
        );
    }

    /// Stateless means there is nothing to keep in step with an edit:
    /// on the patched matrix the answer is the brute-force one, for
    /// every single dirty column.
    #[test]
    fn rows_touching_after_an_edit_matches_brute_force() {
        let mut p = RowPatch::new();
        p.delete(0, 2).insert(0, 3, 9.0).insert(1, 0, 1.0);
        let (a2, dirty_a) = sample().apply_patch(&p).unwrap();
        for k in 0..4 {
            let out = rows_touching(&a2, &DirtyRows::from_rows(4, [k]), dirty_a.clone());
            let holds_k = |i: usize| a2.row_cols(i).contains(&(k as ColIdx));
            let want: Vec<_> = (0..4)
                .filter(|&i| dirty_a.contains(i) || holds_k(i))
                .collect();
            assert_eq!(out.iter().collect::<Vec<_>>(), want, "col {k}");
        }
    }
}
