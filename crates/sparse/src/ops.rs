//! Structural operations on CSR matrices.
//!
//! These are the substrate operations the paper's workloads need around
//! the SpGEMM kernel itself: transposition (AMG's `Pᵀ A P`), random
//! column permutation (the unsorted-input experiments of §5.1 permute
//! column indices), degree reordering and triangular splitting (the
//! triangle-counting pipeline of §5.6), column selection (tall-skinny
//! frontier matrices of §5.5), element-wise addition, and masked
//! reduction.
//!
//! Every operation here is serial: it runs on the calling thread and
//! starts no other, so a caller that sizes a pool knows where all of
//! its work ran. The transpose is one counting sort. A row-slab
//! parallel version on two threads lost to it on every input below 130k
//! nonzeros and won only on edge-factor-16 R-MAT graphs above that (its
//! per-slab `ncols + 1` pointer arrays add memory traffic to a scatter
//! already bound by it); none of the benchmark's workloads transposes
//! such a graph.

use crate::{ColIdx, Csr, Scalar, SparseError};

/// Transpose via per-column counting sort: `O(nnz + ncols)`, output
/// rows sorted whatever the input's row order.
pub fn transpose<T: Copy + Send + Sync>(a: &Csr<T>) -> Csr<T> {
    let (rpts, cols, val_order) = transpose_structure(a);
    let avals = a.vals();
    let vals: Vec<T> = val_order.iter().map(|&idx| avals[idx]).collect();
    // Source rows are visited in increasing order, so each output row's
    // column indices (= source row ids) are strictly increasing,
    // provided the input had at most one entry per (row, col) — which
    // is a `Csr` invariant.
    Csr::from_parts_unchecked(a.ncols(), a.nrows(), rpts, cols, vals, true)
}

/// The structural half of a transpose: output row pointers, output
/// column indices, and the permutation `val_order` such that
/// `out.vals[k] = a.vals[val_order[k]]`. Splitting structure from the
/// value gather lets callers that transpose the *same pattern*
/// repeatedly (the expression-plan layer's cached `Transpose` nodes)
/// pay the counting sort once and refill values numeric-only.
pub fn transpose_structure<T: Copy + Send + Sync>(
    a: &Csr<T>,
) -> (Vec<usize>, Vec<ColIdx>, Vec<usize>) {
    let (nrows, ncols) = a.shape();
    let mut rpts = vec![0usize; ncols + 1];
    for &c in a.cols() {
        rpts[c as usize + 1] += 1;
    }
    for i in 0..ncols {
        rpts[i + 1] += rpts[i];
    }
    let nnz = a.nnz();
    let mut cols = vec![0 as ColIdx; nnz];
    let mut val_order = vec![0usize; nnz];
    let mut cursor = rpts.clone();
    for i in 0..nrows {
        let r = a.row_range(i);
        for (off, &c) in a.cols()[r.clone()].iter().enumerate() {
            let p = cursor[c as usize];
            cols[p] = i as ColIdx;
            val_order[p] = r.start + off;
            cursor[c as usize] += 1;
        }
    }
    (rpts, cols, val_order)
}

/// Apply a column permutation: entry `(i, j)` moves to `(i, perm[j])`.
///
/// This is how the paper produces unsorted inputs ("the column indices
/// of input matrices are randomly permuted", §5.1): the structure is
/// relabelled in place and rows are intentionally **not** re-sorted.
/// The result's sorted flag reflects the actual post-permutation order.
pub fn permute_cols<T: Copy + Send + Sync>(
    a: &Csr<T>,
    perm: &[ColIdx],
) -> Result<Csr<T>, SparseError> {
    if perm.len() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: (perm.len(), 0),
            op: "permute_cols",
        });
    }
    debug_assert!(is_permutation(perm));
    let cols: Vec<ColIdx> = a.cols().iter().map(|&c| perm[c as usize]).collect();
    Csr::from_parts(
        a.nrows(),
        a.ncols(),
        a.rpts().to_vec(),
        cols,
        a.vals().to_vec(),
    )
}

/// Apply a row permutation: row `i` of the input becomes row
/// `perm[i]` of the output. Sortedness of rows is preserved.
pub fn permute_rows<T: Copy + Send + Sync>(
    a: &Csr<T>,
    perm: &[usize],
) -> Result<Csr<T>, SparseError> {
    if perm.len() != a.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: (perm.len(), 0),
            op: "permute_rows",
        });
    }
    // inverse: output row r comes from input row inv[r]
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    debug_assert!(
        inv.iter().all(|&x| x != usize::MAX),
        "perm is not a permutation"
    );
    let mut rpts = Vec::with_capacity(a.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    for &src in inv.iter().take(a.nrows()) {
        cols.extend_from_slice(a.row_cols(src));
        vals.extend_from_slice(a.row_vals(src));
        rpts.push(cols.len());
    }
    Ok(Csr::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        rpts,
        cols,
        vals,
        a.is_sorted(),
    ))
}

/// Symmetric permutation `P A Pᵀ`: vertex `i` is relabelled to
/// `perm[i]` on both axes. Used by the triangle-counting preprocessing
/// (rows reordered by increasing degree, §5.6). Rows of the result are
/// re-sorted.
pub fn permute_symmetric<T: Copy + Send + Sync>(
    a: &Csr<T>,
    perm: &[usize],
) -> Result<Csr<T>, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
            op: "permute_symmetric (square required)",
        });
    }
    let col_perm: Vec<ColIdx> = perm.iter().map(|&p| p as ColIdx).collect();
    let mut m = permute_cols(a, &col_perm)?;
    m = permute_rows(&m, perm)?;
    m.sort_rows();
    Ok(m)
}

/// Permutation ordering rows by ascending stored-entry count (degree),
/// ties broken by original index for determinism. Returns `perm` with
/// the meaning of [`permute_rows`]: `perm[i]` is the new id of old row
/// `i`.
pub fn degree_ascending_permutation<T: Copy + Send + Sync>(a: &Csr<T>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..a.nrows()).collect();
    order.sort_by_key(|&i| (a.row_nnz(i), i));
    let mut perm = vec![0usize; a.nrows()];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id] = new_id;
    }
    perm
}

/// Split a square matrix into strictly-lower and strictly-upper
/// triangular parts, `A = L + D + U` with the diagonal discarded.
/// The triangle-counting pipeline computes `L · U` (§5.6).
pub fn split_lu<T: Copy + Send + Sync>(a: &Csr<T>) -> Result<(Csr<T>, Csr<T>), SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
            op: "split_lu (square required)",
        });
    }
    let n = a.nrows();
    let mut l_rpts = Vec::with_capacity(n + 1);
    let mut u_rpts = Vec::with_capacity(n + 1);
    l_rpts.push(0usize);
    u_rpts.push(0usize);
    let mut l_cols = Vec::new();
    let mut l_vals = Vec::new();
    let mut u_cols = Vec::new();
    let mut u_vals = Vec::new();
    for i in 0..n {
        for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            use std::cmp::Ordering::*;
            match (c as usize).cmp(&i) {
                Less => {
                    l_cols.push(c);
                    l_vals.push(v);
                }
                Greater => {
                    u_cols.push(c);
                    u_vals.push(v);
                }
                Equal => {}
            }
        }
        l_rpts.push(l_cols.len());
        u_rpts.push(u_cols.len());
    }
    let sorted = a.is_sorted();
    Ok((
        Csr::from_parts_unchecked(n, n, l_rpts, l_cols, l_vals, sorted),
        Csr::from_parts_unchecked(n, n, u_rpts, u_cols, u_vals, sorted),
    ))
}

/// Restrict to a subset of columns, relabelling them `0..k` in the
/// order given by the (deduplicated, ascending) `selection`. Produces
/// the tall-skinny right-hand operand of §5.5 when applied to a graph's
/// own columns. Requires sorted input so the output stays sorted.
pub fn select_columns<T: Copy + Send + Sync>(
    a: &Csr<T>,
    selection: &[ColIdx],
) -> Result<Csr<T>, SparseError> {
    if !a.is_sorted() {
        return Err(SparseError::Unsorted {
            op: "select_columns",
        });
    }
    debug_assert!(
        selection.windows(2).all(|w| w[0] < w[1]),
        "selection must be ascending"
    );
    let mut map = vec![ColIdx::MAX; a.ncols()];
    for (new_id, &old) in selection.iter().enumerate() {
        if old as usize >= a.ncols() {
            return Err(SparseError::ColumnOutOfBounds {
                row: 0,
                col: old,
                ncols: a.ncols(),
            });
        }
        map[old as usize] = new_id as ColIdx;
    }
    let mut rpts = Vec::with_capacity(a.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let m = map[c as usize];
            if m != ColIdx::MAX {
                cols.push(m);
                vals.push(v);
            }
        }
        rpts.push(cols.len());
    }
    Ok(Csr::from_parts_unchecked(
        a.nrows(),
        selection.len(),
        rpts,
        cols,
        vals,
        true,
    ))
}

/// The two-cursor merge of two ascending column lists — the one
/// sorted-row merge every element-wise operation is written over.
/// `visit(col, p, q)` is called once per distinct column, in ascending
/// order, with the position holding it in `a` (`p`) and in `b` (`q`);
/// at least one is `Some`. Union, intersection or difference is what
/// the caller does with a one-sided hit.
#[inline]
pub fn merge_sorted_rows(
    a: &[ColIdx],
    b: &[ColIdx],
    mut visit: impl FnMut(ColIdx, Option<usize>, Option<usize>),
) {
    let (mut p, mut q) = (0usize, 0usize);
    while p < a.len() && q < b.len() {
        use std::cmp::Ordering::*;
        match a[p].cmp(&b[q]) {
            Less => {
                visit(a[p], Some(p), None);
                p += 1;
            }
            Greater => {
                visit(b[q], None, Some(q));
                q += 1;
            }
            Equal => {
                visit(a[p], Some(p), Some(q));
                p += 1;
                q += 1;
            }
        }
    }
    while p < a.len() {
        visit(a[p], Some(p), None);
        p += 1;
    }
    while q < b.len() {
        visit(b[q], None, Some(q));
        q += 1;
    }
}

/// Element-wise sum `A + B` of equal-shaped, sorted matrices by
/// per-row merging. Entries summing to the additive identity are kept
/// (structural union), matching the convention of the SpGEMM kernels.
pub fn add<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>, SparseError> {
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "add",
        });
    }
    if !a.is_sorted() || !b.is_sorted() {
        return Err(SparseError::Unsorted { op: "add" });
    }
    let mut rpts = Vec::with_capacity(a.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::with_capacity(a.nnz() + b.nnz());
    let mut vals = Vec::with_capacity(a.nnz() + b.nnz());
    for i in 0..a.nrows() {
        let (av, bv) = (a.row_vals(i), b.row_vals(i));
        merge_sorted_rows(a.row_cols(i), b.row_cols(i), |col, p, q| {
            cols.push(col);
            vals.push(match (p, q) {
                (Some(p), Some(q)) => av[p].add(bv[q]),
                (Some(p), None) => av[p],
                (None, q) => bv[q.expect("a merge hit has a side")],
            });
        });
        rpts.push(cols.len());
    }
    Ok(Csr::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        rpts,
        cols,
        vals,
        true,
    ))
}

/// Make a pattern symmetric: `A ∨ Aᵀ` structurally, values combined by
/// [`Scalar::add`] where both sides are present. Diagonal entries are
/// removed (simple-graph convention used by the triangle counter).
pub fn symmetrize_simple<T: Scalar>(a: &Csr<T>) -> Result<Csr<T>, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
            op: "symmetrize_simple (square required)",
        });
    }
    // A transpose's rows come out sorted whatever the input's row
    // order; only `add` needs sorted operands.
    let at = transpose(a);
    let sum = if a.is_sorted() {
        add(a, &at)?
    } else {
        add(&a.to_sorted(), &at)?
    };
    Ok(sum.filter(|i, c, _| i != c as usize))
}

/// Scale row `i` by `factors[i]` (diagonal left-multiplication
/// `D · A`).
pub fn scale_rows<T: Scalar>(a: &Csr<T>, factors: &[T]) -> Result<Csr<T>, SparseError> {
    if factors.len() != a.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: (factors.len(), 0),
            op: "scale_rows",
        });
    }
    let (nr, nc, rpts, cols, mut vals, sorted) = a.clone().into_parts();
    for i in 0..nr {
        let f = factors[i];
        for v in &mut vals[rpts[i]..rpts[i + 1]] {
            *v = v.mul(f);
        }
    }
    Ok(Csr::from_parts_unchecked(nr, nc, rpts, cols, vals, sorted))
}

/// Scale column `j` by `factors[j]` (diagonal right-multiplication
/// `A · D`).
pub fn scale_cols<T: Scalar>(a: &Csr<T>, factors: &[T]) -> Result<Csr<T>, SparseError> {
    if factors.len() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: (factors.len(), 0),
            op: "scale_cols",
        });
    }
    let (nr, nc, rpts, cols, mut vals, sorted) = a.clone().into_parts();
    for (v, &c) in vals.iter_mut().zip(&cols) {
        *v = v.mul(factors[c as usize]);
    }
    Ok(Csr::from_parts_unchecked(nr, nc, rpts, cols, vals, sorted))
}

/// Element-wise (Hadamard) product `A ∘ B`: entries present in both
/// operands, multiplied. Both inputs sorted; output sorted. Triangle
/// counting's masked reduction is `sum(hadamard(B, mask))`.
pub fn hadamard<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>, SparseError> {
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "hadamard",
        });
    }
    if !a.is_sorted() || !b.is_sorted() {
        return Err(SparseError::Unsorted { op: "hadamard" });
    }
    let mut rpts = Vec::with_capacity(a.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        let (av, bv) = (a.row_vals(i), b.row_vals(i));
        merge_sorted_rows(a.row_cols(i), b.row_cols(i), |col, p, q| {
            if let (Some(p), Some(q)) = (p, q) {
                cols.push(col);
                vals.push(av[p].mul(bv[q]));
            }
        });
        rpts.push(cols.len());
    }
    Ok(Csr::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        rpts,
        cols,
        vals,
        true,
    ))
}

/// Normalize each column of `a` to sum 1 (column-stochastic), leaving
/// all-zero columns untouched. This is MCL's renormalization step
/// (matrices here are row-major, so it is the "transposed" problem:
/// each column's entries are scattered across rows). Structure is
/// unchanged; only values move.
pub fn normalize_columns(a: &Csr<f64>) -> Csr<f64> {
    let (nr, nc, rpts, cols, mut vals, sorted) = a.clone().into_parts();
    let mut colsum = Vec::new();
    normalize_columns_values(nc, &cols, &mut vals, &mut colsum);
    Csr::from_parts_unchecked(nr, nc, rpts, cols, vals, sorted)
}

/// The in-place value pass of [`normalize_columns`], over raw CSR
/// arrays: sum each column (in storage order) into `colsum` — which is
/// cleared and resized, so a caller-retained scratch makes repeated
/// calls allocation-free — then divide every entry by its column's
/// sum, skipping zero-sum columns. Exposed separately so an
/// expression plan (`spgemm::expr`) can renormalize its own reused
/// buffer in place, byte-for-byte like the matrix-level function.
pub fn normalize_columns_values(
    ncols: usize,
    cols: &[ColIdx],
    vals: &mut [f64],
    colsum: &mut Vec<f64>,
) {
    colsum.clear();
    colsum.resize(ncols, 0.0);
    for (&c, &v) in cols.iter().zip(vals.iter()) {
        colsum[c as usize] += v;
    }
    for (v, &c) in vals.iter_mut().zip(cols) {
        let s = colsum[c as usize];
        if s != 0.0 {
            *v /= s;
        }
    }
}

fn is_permutation(perm: &[ColIdx]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p as usize >= perm.len() || seen[p as usize] {
            return false;
        }
        seen[p as usize] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::approx_eq_f64;

    fn sample() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 5 6 ]
        Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (2, 2, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        let at = transpose(&a);
        assert!(at.is_sorted());
        assert_eq!(at.get(0, 2), Some(&4.0));
        assert_eq!(at.get(2, 0), Some(&2.0));
        let att = transpose(&at);
        assert!(approx_eq_f64(&a, &att, 0.0));
    }

    #[test]
    fn transpose_rectangular() {
        let a = Csr::from_triplets(2, 4, &[(0, 3, 1.0), (1, 0, 2.0)]).unwrap();
        let at = transpose(&a);
        assert_eq!(at.shape(), (4, 2));
        assert_eq!(at.get(3, 0), Some(&1.0));
        assert_eq!(at.get(0, 1), Some(&2.0));
        assert!(at.validate().is_ok());
    }

    #[test]
    fn permute_cols_relabels_without_sorting() {
        let a = sample();
        // reverse the columns
        let perm = vec![2u32, 1, 0];
        let p = permute_cols(&a, &perm).unwrap();
        assert_eq!(p.get(0, 2), Some(&1.0));
        assert_eq!(p.get(0, 0), Some(&2.0));
        // row 0 was [0, 2] -> [2, 0]: no longer ascending
        assert!(!p.is_sorted());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn permute_rows_moves_rows() {
        let a = sample();
        let perm = vec![1usize, 2, 0]; // old row 0 -> new row 1, etc.
        let p = permute_rows(&a, &perm).unwrap();
        assert_eq!(p.get(1, 0), Some(&1.0));
        assert_eq!(p.get(2, 1), Some(&3.0));
        assert_eq!(p.get(0, 2), Some(&6.0));
        assert!(p.is_sorted());
    }

    #[test]
    fn symmetric_permutation_preserves_graph() {
        let a = sample();
        let perm = vec![2usize, 0, 1];
        let p = permute_symmetric(&a, &perm).unwrap();
        // entry (i, j) must appear at (perm[i], perm[j])
        for i in 0..3 {
            for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                assert_eq!(p.get(perm[i], perm[c as usize] as u32), Some(&v));
            }
        }
        assert_eq!(p.nnz(), a.nnz());
    }

    #[test]
    fn degree_permutation_orders_by_row_nnz() {
        let a = sample(); // degrees: 2, 1, 3
        let perm = degree_ascending_permutation(&a);
        // old row 1 (degree 1) must become new row 0, old row 2 -> last.
        assert_eq!(perm[1], 0);
        assert_eq!(perm[2], 2);
        assert_eq!(perm[0], 1);
        let p = permute_symmetric(&a, &perm).unwrap();
        let degs: Vec<usize> = (0..3).map(|i| p.row_nnz(i)).collect();
        assert!(degs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn split_lu_excludes_diagonal() {
        let a = sample();
        let (l, u) = split_lu(&a).unwrap();
        assert_eq!(l.nnz(), 2); // (2,0), (2,1)
        assert_eq!(u.nnz(), 1); // (0,2)
        assert_eq!(l.get(2, 0), Some(&4.0));
        assert_eq!(u.get(0, 2), Some(&2.0));
        for i in 0..3 {
            assert!(l.row_cols(i).iter().all(|&c| (c as usize) < i));
            assert!(u.row_cols(i).iter().all(|&c| (c as usize) > i));
        }
    }

    #[test]
    fn select_columns_relabels() {
        let a = sample();
        let s = select_columns(&a, &[0, 2]).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.get(0, 0), Some(&1.0));
        assert_eq!(s.get(0, 1), Some(&2.0));
        assert_eq!(s.get(1, 0), None); // column 1 dropped
        assert_eq!(s.get(2, 1), Some(&6.0));
        assert!(s.is_sorted());
    }

    #[test]
    fn add_merges_rows() {
        let a = sample();
        let i = Csr::<f64>::identity(3);
        let s = add(&a, &i).unwrap();
        assert_eq!(s.get(0, 0), Some(&2.0));
        assert_eq!(s.get(1, 1), Some(&4.0));
        assert_eq!(s.get(2, 2), Some(&7.0));
        assert_eq!(s.get(0, 2), Some(&2.0));
        // union structure: row0 {0,2}, row1 {1}, row2 {0,1,2}
        assert_eq!(s.nnz(), 6);
        assert!(s.is_sorted());
    }

    #[test]
    fn add_shape_mismatch_rejected() {
        let a = sample();
        let b = Csr::<f64>::zero(2, 3);
        assert!(matches!(
            add(&a, &b),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn symmetrize_simple_produces_symmetric_hollow() {
        let a = Csr::from_triplets(3, 3, &[(0, 1, 1.0), (1, 1, 9.0), (2, 0, 2.0)]).unwrap();
        let s = symmetrize_simple(&a).unwrap();
        assert_eq!(s.get(0, 1), Some(&1.0));
        assert_eq!(s.get(1, 0), Some(&1.0));
        assert_eq!(s.get(2, 0), Some(&2.0));
        assert_eq!(s.get(0, 2), Some(&2.0));
        assert_eq!(s.get(1, 1), None, "diagonal removed");
        assert_eq!(s.nnz(), 4);

        // Unsorted input rows give the sorted input's bits.
        let b = Csr::from_triplets(
            3,
            3,
            &[
                (0, 1, 1.5),
                (0, 2, -0.0),
                (1, 0, 3.0),
                (1, 1, 9.0),
                (1, 2, 2.0),
                (2, 1, f64::NAN),
            ],
        )
        .unwrap();
        let reversed = Csr::from_parts(
            3,
            3,
            b.rpts().to_vec(),
            vec![2, 1, 2, 1, 0, 1],
            vec![-0.0, 1.5, 2.0, 9.0, 3.0, f64::NAN],
        )
        .unwrap();
        assert!(!reversed.is_sorted());
        let want = symmetrize_simple(&b).unwrap();
        assert!(crate::bits_eq_f64(
            &symmetrize_simple(&reversed).unwrap(),
            &want
        ));
    }

    #[test]
    fn scaling_rows_and_cols() {
        let a = sample();
        let r = scale_rows(&a, &[2.0, 3.0, 0.5]).unwrap();
        assert_eq!(r.get(0, 0), Some(&2.0));
        assert_eq!(r.get(1, 1), Some(&9.0));
        assert_eq!(r.get(2, 2), Some(&3.0));
        let c = scale_cols(&a, &[0.0, 1.0, 10.0]).unwrap();
        assert_eq!(c.get(0, 0), Some(&0.0));
        assert_eq!(c.get(0, 2), Some(&20.0));
        assert_eq!(c.get(2, 1), Some(&5.0));
        assert!(scale_rows(&a, &[1.0]).is_err());
        assert!(scale_cols(&a, &[1.0]).is_err());
    }

    #[test]
    fn hadamard_intersects_structures() {
        let a = sample();
        let i = Csr::<f64>::identity(3);
        let h = hadamard(&a, &i).unwrap();
        assert_eq!(h.nnz(), 3, "only the diagonal survives");
        assert_eq!(h.get(0, 0), Some(&1.0));
        assert_eq!(h.get(1, 1), Some(&3.0));
        assert_eq!(h.get(0, 2), None);
    }

    #[test]
    fn unsorted_inputs_rejected_where_required() {
        let a = sample();
        let perm = vec![2u32, 1, 0];
        let unsorted = permute_cols(&a, &perm).unwrap();
        assert!(matches!(
            add(&unsorted, &unsorted),
            Err(SparseError::Unsorted { .. })
        ));
        assert!(matches!(
            select_columns(&unsorted, &[0]),
            Err(SparseError::Unsorted { .. })
        ));
    }
}
