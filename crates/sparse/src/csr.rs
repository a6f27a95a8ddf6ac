//! Compressed Sparse Row storage.
//!
//! The CSR format is the lingua franca of the paper (§2): row pointers
//! `rpts` of length `nrows + 1`, column indices `cols` of length `nnz`,
//! and values `vals` of length `nnz`. Whether the column indices within
//! each row are sorted is *not* part of the format — the paper shows
//! large performance differences between the two conventions — so
//! [`Csr`] carries an explicit, verified `sorted` flag.

use crate::{ColIdx, SparseError, MAX_DIM};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

/// A sparse matrix in Compressed Sparse Row format.
///
/// Invariants (checked by [`Csr::from_parts`] and [`Csr::validate`]):
///
/// * `rpts.len() == nrows + 1`, `rpts[0] == 0`, `rpts` is
///   non-decreasing, and `rpts[nrows] == cols.len() == vals.len()`;
/// * every column index is `< ncols`;
/// * if `sorted` is true, the indices within each row are strictly
///   increasing (which also implies no duplicate entries per row).
///
/// Unsorted matrices may still contain at most one entry per
/// `(row, col)` pair; all constructors in this crate guarantee that and
/// the SpGEMM kernels preserve it.
#[derive(Clone, PartialEq)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    rpts: Vec<usize>,
    cols: Vec<ColIdx>,
    vals: Vec<T>,
    sorted: bool,
    fingerprint: FingerprintMemo,
}

/// The memo of [`Csr::structure_fingerprint`], 0 while not computed.
/// A clone copies it and equality ignores it: it is a function of the
/// structure, not part of the matrix. Loads and stores are `Relaxed`:
/// the value publishes no other data, and threads racing to fill it
/// store the same hash.
#[derive(Default)]
struct FingerprintMemo(AtomicU64);

impl Clone for FingerprintMemo {
    fn clone(&self) -> Self {
        FingerprintMemo(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl PartialEq for FingerprintMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T: Debug> Debug for Csr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Csr {}x{} nnz={} ({})",
            self.nrows,
            self.ncols,
            self.nnz(),
            if self.sorted { "sorted" } else { "unsorted" }
        )?;
        // Print at most the first few rows to keep assertion output usable.
        for i in 0..self.nrows.min(8) {
            write!(f, "  row {i}:")?;
            for (c, v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                write!(f, " ({c}, {v:?})")?;
            }
            writeln!(f)?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ... ({} more rows)", self.nrows - 8)?;
        }
        Ok(())
    }
}

/// A borrowed view of one matrix row: parallel slices of column indices
/// and values.
#[derive(Clone, Copy, Debug)]
pub struct RowView<'a, T> {
    /// Column indices of the row's stored entries.
    pub cols: &'a [ColIdx],
    /// Values of the row's stored entries, parallel to `cols`.
    pub vals: &'a [T],
}

impl<'a, T> RowView<'a, T> {
    /// Number of stored entries in the row.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Iterate `(column, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ColIdx, &'a T)> + '_ {
        self.cols.iter().copied().zip(self.vals.iter())
    }
}

impl<T> Csr<T> {
    /// An empty (all-zero) matrix of the given shape.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            rpts: vec![0; nrows + 1],
            cols: Vec::new(),
            vals: Vec::new(),
            sorted: true,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// Build from raw CSR arrays, validating every invariant.
    ///
    /// `sorted` is detected, not trusted: the flag on the result is set
    /// iff every row is strictly increasing.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rpts: Vec<usize>,
        cols: Vec<ColIdx>,
        vals: Vec<T>,
    ) -> Result<Self, SparseError> {
        if ncols > MAX_DIM || nrows > MAX_DIM {
            return Err(SparseError::DimensionTooLarge {
                dim: ncols.max(nrows),
            });
        }
        if cols.len() != vals.len() {
            return Err(SparseError::LengthMismatch {
                cols: cols.len(),
                vals: vals.len(),
            });
        }
        if rpts.len() != nrows + 1 {
            return Err(SparseError::BadRowPointers {
                detail: format!("rpts.len() = {} but nrows + 1 = {}", rpts.len(), nrows + 1),
            });
        }
        if rpts[0] != 0 {
            return Err(SparseError::BadRowPointers {
                detail: format!("rpts[0] = {} (must be 0)", rpts[0]),
            });
        }
        if *rpts.last().unwrap() != cols.len() {
            return Err(SparseError::BadRowPointers {
                detail: format!(
                    "rpts[nrows] = {} but nnz = {}",
                    rpts.last().unwrap(),
                    cols.len()
                ),
            });
        }
        for w in rpts.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::BadRowPointers {
                    detail: "row pointers decrease".to_string(),
                });
            }
        }
        for i in 0..nrows {
            for &c in &cols[rpts[i]..rpts[i + 1]] {
                if (c as usize) >= ncols {
                    return Err(SparseError::ColumnOutOfBounds {
                        row: i,
                        col: c,
                        ncols,
                    });
                }
            }
        }
        let mut m = Csr {
            nrows,
            ncols,
            rpts,
            cols,
            vals,
            sorted: false,
            fingerprint: FingerprintMemo::default(),
        };
        m.sorted = m.detect_sorted();
        Ok(m)
    }

    /// Build from raw CSR arrays without validation.
    ///
    /// The caller asserts all [`Csr`] invariants, including the
    /// correctness of `sorted`. Intended for kernel output paths where
    /// the invariants hold by construction; `debug_assert`s re-check in
    /// debug builds.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rpts: Vec<usize>,
        cols: Vec<ColIdx>,
        vals: Vec<T>,
        sorted: bool,
    ) -> Self {
        let m = Csr {
            nrows,
            ncols,
            rpts,
            cols,
            vals,
            sorted,
            fingerprint: FingerprintMemo::default(),
        };
        debug_assert!(m.validate().is_ok(), "from_parts_unchecked: invalid CSR");
        debug_assert!(
            !sorted || m.detect_sorted(),
            "from_parts_unchecked: sorted flag wrong"
        );
        m
    }

    /// Build from `(row, col, value)` triplets. Duplicate coordinates
    /// are combined by *last write wins*; use [`crate::Coo`] for
    /// additive combination. Rows come out sorted.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, ColIdx, T)],
    ) -> Result<Self, SparseError>
    where
        T: Copy + Send + Sync + PartialEq,
    {
        let mut coo = crate::Coo::with_capacity(nrows, ncols, triplets.len())?;
        for &(r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        Ok(coo.into_csr_last_wins())
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self
    where
        T: crate::Scalar,
    {
        let rpts = (0..=n).collect();
        let cols = (0..n as ColIdx).collect();
        let vals = vec![T::ONE; n];
        Csr {
            nrows: n,
            ncols: n,
            rpts,
            cols,
            vals,
            sorted: true,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Whether every row is strictly increasing in column index.
    /// This is the *verified* flag, not a hint.
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn rpts(&self) -> &[usize] {
        &self.rpts
    }

    /// Column-index array (`nnz` entries).
    #[inline]
    pub fn cols(&self) -> &[ColIdx] {
        &self.cols
    }

    /// Value array (`nnz` entries).
    #[inline]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// FNV-1a fingerprint of the matrix's sparsity *structure*: shape,
    /// nnz, row pointers and column indices — values excluded. Two
    /// matrices with the same fingerprint share a structure for
    /// planning purposes (`spgemm`'s plan cache keys on it), so a
    /// matrix whose values change but whose pattern is stable keeps its
    /// fingerprint.
    ///
    /// The first call hashes the structure, `O(nnz)`; the matrix
    /// remembers the result, so every later call on it — or on a
    /// clone or [`Csr::map`] of it — is `O(1)`. Every method that can
    /// rewrite the structure ([`Csr::raw_parts_mut`],
    /// [`Csr::prepare_overwrite`], [`Csr::sort_rows`]) forgets it;
    /// [`Csr::pattern_and_vals_mut`] rewrites values only and keeps it.
    pub fn structure_fingerprint(&self) -> u64 {
        match self.fingerprint.0.load(Ordering::Relaxed) {
            0 => {
                let h = self.hash_structure();
                self.fingerprint.0.store(h, Ordering::Relaxed);
                h
            }
            h => h,
        }
    }

    /// The hash behind [`Csr::structure_fingerprint`]. (A structure
    /// that hashes to 0 is simply hashed again on every call.)
    fn hash_structure(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
        let mut h = OFFSET;
        h = mix(h, self.nrows as u64);
        h = mix(h, self.ncols as u64);
        h = mix(h, self.nnz() as u64);
        for &r in &self.rpts {
            h = mix(h, r as u64);
        }
        for &c in &self.cols {
            h = mix(h, c as u64);
        }
        h
    }

    /// Forget the memoized fingerprint: the structure may change.
    fn forget_fingerprint(&mut self) {
        *self.fingerprint.0.get_mut() = 0;
    }

    /// Half-open range of entry positions of row `i`.
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.rpts[i]..self.rpts[i + 1]
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rpts[i + 1] - self.rpts[i]
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[ColIdx] {
        &self.cols[self.row_range(i)]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[T] {
        &self.vals[self.row_range(i)]
    }

    /// Borrowed view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> RowView<'_, T> {
        let r = self.row_range(i);
        RowView {
            cols: &self.cols[r.clone()],
            vals: &self.vals[r],
        }
    }

    /// Look up the value at `(row, col)`, or `None` if absent. Uses
    /// binary search on sorted rows, linear scan otherwise.
    pub fn get(&self, row: usize, col: ColIdx) -> Option<&T> {
        let r = self.row_range(row);
        let cols = &self.cols[r.clone()];
        let off = if self.sorted {
            cols.binary_search(&col).ok()?
        } else {
            cols.iter().position(|&c| c == col)?
        };
        Some(&self.vals[r.start + off])
    }

    /// Fraction of entries stored: `nnz / (nrows * ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
        }
    }

    /// Average number of stored entries per row (the generators' "edge
    /// factor" measured on the realized matrix).
    pub fn avg_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Largest number of stored entries in any row.
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }

    /// Re-check every structural invariant; see the type-level docs.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.rpts.len() != self.nrows + 1 {
            return Err(SparseError::BadRowPointers {
                detail: format!("rpts.len() = {}, nrows = {}", self.rpts.len(), self.nrows),
            });
        }
        if self.rpts[0] != 0 || *self.rpts.last().unwrap() != self.cols.len() {
            return Err(SparseError::BadRowPointers {
                detail: "endpoints do not bracket nnz".to_string(),
            });
        }
        if self.cols.len() != self.vals.len() {
            return Err(SparseError::LengthMismatch {
                cols: self.cols.len(),
                vals: self.vals.len(),
            });
        }
        for w in self.rpts.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::BadRowPointers {
                    detail: "row pointers decrease".to_string(),
                });
            }
        }
        for i in 0..self.nrows {
            for &c in self.row_cols(i) {
                if (c as usize) >= self.ncols {
                    return Err(SparseError::ColumnOutOfBounds {
                        row: i,
                        col: c,
                        ncols: self.ncols,
                    });
                }
            }
        }
        if self.sorted && !self.detect_sorted() {
            return Err(SparseError::Unsorted {
                op: "validate (sorted flag set)",
            });
        }
        Ok(())
    }

    fn detect_sorted(&self) -> bool {
        (0..self.nrows).all(|i| self.row_cols(i).windows(2).all(|w| w[0] < w[1]))
    }

    /// Sort each row by column index (values carried along), in place,
    /// one row at a time through a row-sized scratch. No-op when
    /// already sorted.
    pub fn sort_rows(&mut self)
    where
        T: Copy,
    {
        if self.sorted {
            return;
        }
        self.forget_fingerprint();
        let mut row: Vec<(ColIdx, T)> = Vec::new();
        for i in 0..self.nrows {
            let r = self.rpts[i]..self.rpts[i + 1];
            let (cols, vals) = (&mut self.cols[r.clone()], &mut self.vals[r]);
            row.clear();
            row.extend(cols.iter().copied().zip(vals.iter().copied()));
            // Column indices are unique within a row, so the unstable
            // sort's order is the only ascending one.
            row.sort_unstable_by_key(|&(c, _)| c);
            for ((c, v), &(sc, sv)) in cols.iter_mut().zip(vals.iter_mut()).zip(&row) {
                *c = sc;
                *v = sv;
            }
        }
        self.sorted = true;
        debug_assert!(self.detect_sorted());
    }

    /// A sorted copy: a full clone, whose rows are sorted unless they
    /// already were.
    pub fn to_sorted(&self) -> Self
    where
        T: Copy,
    {
        let mut c = self.clone();
        c.sort_rows();
        c
    }

    /// Apply `f` to every stored value, preserving structure.
    pub fn map<U>(&self, f: impl Fn(T) -> U) -> Csr<U>
    where
        T: Copy,
    {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rpts: self.rpts.clone(),
            cols: self.cols.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
            sorted: self.sorted,
            fingerprint: self.fingerprint.clone(),
        }
    }

    /// Drop stored entries failing the predicate (structure changes,
    /// sortedness preserved). Used by MCL-style pruning.
    pub fn filter(&self, keep: impl Fn(usize, ColIdx, T) -> bool) -> Csr<T>
    where
        T: Copy,
    {
        let mut rpts = Vec::with_capacity(self.nrows + 1);
        rpts.push(0usize);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..self.nrows {
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                if keep(i, c, v) {
                    cols.push(c);
                    vals.push(v);
                }
            }
            rpts.push(cols.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rpts,
            cols,
            vals,
            sorted: self.sorted,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// Structural + numeric equality ignoring within-row entry order.
    /// This is the right comparison between sorted and unsorted kernel
    /// outputs.
    pub fn eq_unordered(&self, other: &Csr<T>) -> bool
    where
        T: PartialEq + Ord,
    {
        self.eq_unordered_by(other, |a, b| a == b)
    }

    /// Like [`Csr::eq_unordered`] but with a custom value comparison
    /// (e.g. approximate float equality).
    pub fn eq_unordered_by(&self, other: &Csr<T>, eq: impl Fn(&T, &T) -> bool) -> bool {
        if self.shape() != other.shape() || self.nnz() != other.nnz() {
            return false;
        }
        for i in 0..self.nrows {
            let mut a: Vec<(ColIdx, &T)> = self
                .row_cols(i)
                .iter()
                .copied()
                .zip(self.row_vals(i))
                .collect();
            let mut b: Vec<(ColIdx, &T)> = other
                .row_cols(i)
                .iter()
                .copied()
                .zip(other.row_vals(i))
                .collect();
            if a.len() != b.len() {
                return false;
            }
            a.sort_unstable_by_key(|&(c, _)| c);
            b.sort_unstable_by_key(|&(c, _)| c);
            for ((ca, va), (cb, vb)) in a.iter().zip(&b) {
                if ca != cb || !eq(va, vb) {
                    return false;
                }
            }
        }
        true
    }

    /// Reshape this matrix in place for a full overwrite, reusing the
    /// existing allocations (buffers only grow, never reallocate when
    /// capacity suffices).
    ///
    /// After the call the matrix has the requested shape, `nnz` stored
    /// entries (columns zeroed, values set to `fill`), an all-zero
    /// row-pointer array, and the given `sorted` flag — i.e. it is
    /// *structurally invalid* until the caller rewrites `rpts`, `cols`
    /// and `vals` through [`Csr::raw_parts_mut`]. This is the
    /// output-reuse path of kernels that know their exact output
    /// structure in advance (`spgemm`'s plan executor); everyone else
    /// should build matrices through the checked constructors.
    ///
    /// ```
    /// let mut c = spgemm_sparse::Csr::<f64>::zero(2, 2);
    /// c.prepare_overwrite(1, 3, 2, 0.0, true);
    /// {
    ///     let (rpts, cols, vals) = c.raw_parts_mut();
    ///     rpts.copy_from_slice(&[0, 2]);
    ///     cols.copy_from_slice(&[0, 2]);
    ///     vals.copy_from_slice(&[1.0, 2.0]);
    /// }
    /// assert!(c.validate().is_ok());
    /// assert_eq!(c.get(0, 2), Some(&2.0));
    /// ```
    pub fn prepare_overwrite(
        &mut self,
        nrows: usize,
        ncols: usize,
        nnz: usize,
        fill: T,
        sorted: bool,
    ) where
        T: Copy,
    {
        self.forget_fingerprint();
        self.nrows = nrows;
        self.ncols = ncols;
        self.sorted = sorted;
        self.rpts.clear();
        self.rpts.resize(nrows + 1, 0);
        self.cols.clear();
        self.cols.resize(nnz, 0);
        self.vals.clear();
        self.vals.resize(nnz, fill);
    }

    /// Mutable views of the raw CSR arrays `(rpts, cols, vals)`, for
    /// in-place rewriting after [`Csr::prepare_overwrite`].
    ///
    /// Lengths are fixed (`nrows + 1` / `nnz` / `nnz`); the *contents*
    /// are the caller's responsibility — writing an inconsistent
    /// structure leaves the matrix invalid (no undefined behaviour,
    /// but reads will be wrong). [`Csr::validate`] re-checks every
    /// invariant. The memoized [`Csr::structure_fingerprint`] is
    /// forgotten: use [`Csr::pattern_and_vals_mut`] to rewrite values
    /// only.
    pub fn raw_parts_mut(&mut self) -> (&mut [usize], &mut [ColIdx], &mut [T]) {
        self.forget_fingerprint();
        (&mut self.rpts, &mut self.cols, &mut self.vals)
    }

    /// The row pointers and column indices, read-only, beside the
    /// mutable values: for rewriting values in place (a numeric refill)
    /// while the structure — and so the memoized
    /// [`Csr::structure_fingerprint`] — stays as it is.
    pub fn pattern_and_vals_mut(&mut self) -> (&[usize], &[ColIdx], &mut [T]) {
        (&self.rpts, &self.cols, &mut self.vals)
    }

    /// Copy of the row range `rows` as its own matrix (column space
    /// unchanged). Building block of the 1D row partition used by the
    /// sharded runtime (`spgemm-dist`).
    pub fn extract_rows(&self, rows: std::ops::Range<usize>) -> Csr<T>
    where
        T: Copy,
    {
        assert!(
            rows.start <= rows.end && rows.end <= self.nrows,
            "extract_rows: range {rows:?} out of bounds for {} rows",
            self.nrows
        );
        let base = self.rpts[rows.start];
        let end = self.rpts[rows.end];
        let rpts = self.rpts[rows.clone()]
            .iter()
            .chain(std::iter::once(&end))
            .map(|&r| r - base)
            .collect();
        Csr {
            nrows: rows.len(),
            ncols: self.ncols,
            rpts,
            cols: self.cols[base..end].to_vec(),
            vals: self.vals[base..end].to_vec(),
            sorted: self.sorted || rows.is_empty(),
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// Split into column-range sub-matrices in one pass: part `p`
    /// holds exactly the entries whose column lies in
    /// `cuts[p]..cuts[p + 1]`, with columns rebased so each part is a
    /// standalone `(nrows × (cuts[p+1] - cuts[p]))` matrix. Within each
    /// row, entries keep their relative order (sorted rows stay
    /// sorted). `cuts` must be non-decreasing and span `0..=ncols`.
    ///
    /// This is the operand-localization primitive of the sharded
    /// runtime: `A`'s row block is split at `B`'s row cuts so each
    /// stage's local product has matching inner dimensions.
    pub fn split_col_ranges(&self, cuts: &[usize]) -> Result<Vec<Csr<T>>, SparseError>
    where
        T: Copy,
    {
        validate_cuts(cuts, self.ncols, "split_col_ranges")?;
        let nparts = cuts.len() - 1;
        let mut parts: Vec<(Vec<usize>, Vec<ColIdx>, Vec<T>)> = (0..nparts)
            .map(|_| (Vec::with_capacity(self.nrows + 1), Vec::new(), Vec::new()))
            .collect();
        for p in parts.iter_mut() {
            p.0.push(0);
        }
        for i in 0..self.nrows {
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                // The part whose half-open range contains `c`: the
                // last cut `<= c` starts it.
                let p = cuts.partition_point(|&cut| cut <= c as usize) - 1;
                parts[p].1.push(c - cuts[p] as ColIdx);
                parts[p].2.push(v);
            }
            for p in parts.iter_mut() {
                p.0.push(p.1.len());
            }
        }
        Ok(parts
            .into_iter()
            .enumerate()
            .map(|(p, (rpts, cols, vals))| Csr {
                nrows: self.nrows,
                ncols: cuts[p + 1] - cuts[p],
                rpts,
                cols,
                vals,
                sorted: self.sorted,
                fingerprint: FingerprintMemo::default(),
            })
            .collect())
    }

    /// Consume into raw parts `(nrows, ncols, rpts, cols, vals, sorted)`.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<ColIdx>, Vec<T>, bool) {
        (
            self.nrows,
            self.ncols,
            self.rpts,
            self.cols,
            self.vals,
            self.sorted,
        )
    }

    /// Dense representation, for tests and tiny examples only.
    pub fn to_dense(&self) -> Vec<Vec<T>>
    where
        T: crate::Scalar,
    {
        let mut d = vec![vec![T::ZERO; self.ncols]; self.nrows];
        for (i, row) in d.iter_mut().enumerate() {
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                row[c as usize] = v;
            }
        }
        d
    }
}

/// Check that `cuts` is a valid partition of `0..dim`: at least two
/// entries, starting at 0, ending at `dim`, non-decreasing (empty
/// parts are allowed — degenerate weight vectors produce them).
pub(crate) fn validate_cuts(cuts: &[usize], dim: usize, op: &str) -> Result<(), SparseError> {
    if cuts.len() < 2 || cuts[0] != 0 || *cuts.last().unwrap() != dim {
        return Err(SparseError::BadPartition {
            detail: format!("{op}: cuts {cuts:?} must span 0..={dim}"),
        });
    }
    if cuts.windows(2).any(|w| w[1] < w[0]) {
        return Err(SparseError::BadPartition {
            detail: format!("{op}: cuts {cuts:?} decrease"),
        });
    }
    Ok(())
}

/// Approximate heap footprint of a CSR's arrays (row pointers +
/// column indices + values) — the unit of every layer's memory
/// accounting.
pub fn csr_bytes<T>(m: &Csr<T>) -> u64 {
    (std::mem::size_of_val(m.rpts())
        + std::mem::size_of_val(m.cols())
        + std::mem::size_of_val(m.vals())) as u64
}

/// Approximate comparison of two `f64` matrices up to entry order, with
/// relative tolerance `rel` — SpGEMM kernels accumulate in
/// data-dependent order, so exact float equality across algorithms is
/// not guaranteed.
pub fn approx_eq_f64(a: &Csr<f64>, b: &Csr<f64>, rel: f64) -> bool {
    a.eq_unordered_by(b, |x, y| {
        let scale = x.abs().max(y.abs()).max(1.0);
        (x - y).abs() <= rel * scale
    })
}

/// Bit-for-bit equality of two `f64` matrices: shape, the sortedness
/// flag, row pointers, stored column order and value **bits** — `==`
/// on `f64` would equate ±0.0 and reject NaN == NaN. Any NaN matches
/// any NaN: IEEE 754 leaves the sign and payload of a NaN *result*
/// unspecified and the compiler may commute an addition's operands, so
/// two kernels doing the same sums in the same order can still differ
/// there. Signed zeros and infinities match exactly. This is the
/// parity contract every kernel, plan, incremental and sharded path is
/// held to against its oracle.
pub fn bits_eq_f64(a: &Csr<f64>, b: &Csr<f64>) -> bool {
    a.shape() == b.shape()
        && a.is_sorted() == b.is_sorted()
        && a.rpts() == b.rpts()
        && a.cols() == b.cols()
        && a.vals()
            .iter()
            .zip(b.vals())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        Csr::from_parts(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![1, 3, 0, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn structure_fingerprint_tracks_pattern_not_values() {
        let m = sample();
        let scaled = m.map(|v| v * -3.0);
        assert_eq!(m.structure_fingerprint(), scaled.structure_fingerprint());
        // Moving one entry to a different column changes the pattern.
        let moved = Csr::from_parts(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![1, 3, 0, 2, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        assert_ne!(m.structure_fingerprint(), moved.structure_fingerprint());
        // Same nnz spread across different rows changes it too.
        let shifted =
            Csr::from_parts(3, 4, vec![0, 3, 3, 5], vec![0, 1, 3, 2, 3], vec![1.0; 5]).unwrap();
        assert_ne!(m.structure_fingerprint(), shifted.structure_fingerprint());
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nnz(), 5);
        assert!(m.is_sorted());
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_cols(2), &[0, 2, 3]);
        assert_eq!(m.row_vals(0), &[1.0, 2.0]);
        assert_eq!(m.get(0, 3), Some(&2.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.row(2).nnz(), 3);
    }

    #[test]
    fn rejects_bad_row_pointers() {
        let e = Csr::<f64>::from_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::BadRowPointers { .. })));

        let e = Csr::<f64>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::BadRowPointers { .. })));

        let e = Csr::<f64>::from_parts(1, 2, vec![1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::BadRowPointers { .. })));
    }

    #[test]
    fn rejects_out_of_bounds_column() {
        let e = Csr::<f64>::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(
            e,
            Err(SparseError::ColumnOutOfBounds { col: 5, .. })
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        let e = Csr::<f64>::from_parts(1, 2, vec![0, 1], vec![0], vec![]);
        assert!(matches!(e, Err(SparseError::LengthMismatch { .. })));
    }

    #[test]
    fn detects_unsorted_rows() {
        let m = Csr::from_parts(1, 4, vec![0, 3], vec![2, 0, 3], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(!m.is_sorted());
        let mut s = m.clone();
        s.sort_rows();
        assert!(s.is_sorted());
        assert_eq!(s.row_cols(0), &[0, 2, 3]);
        assert_eq!(s.row_vals(0), &[2.0, 1.0, 3.0]);
        assert!(approx_eq_f64(&m, &s, 0.0));
    }

    #[test]
    fn bits_eq_separates_signed_zeros_and_matches_any_nan() {
        let with = |vals: Vec<f64>| Csr::from_parts(1, 4, vec![0, 2], vec![0, 2], vals).unwrap();
        let m = with(vec![1.0, f64::NAN]);
        assert!(bits_eq_f64(&m, &m.clone()), "NaN matches itself");
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 1 << 63 | 1);
        assert!(other_nan.is_nan() && other_nan.to_bits() != f64::NAN.to_bits());
        assert!(bits_eq_f64(&m, &with(vec![1.0, other_nan])), "any NaN");
        assert!(!bits_eq_f64(&m, &with(vec![1.0, f64::INFINITY])));
        assert!(!bits_eq_f64(&with(vec![0.0, 1.0]), &with(vec![-0.0, 1.0])));
        assert!(bits_eq_f64(&with(vec![-0.0, 1.0]), &with(vec![-0.0, 1.0])));
        // Shape, structure and the sortedness flag all count.
        let wider = Csr::from_parts(1, 5, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).unwrap();
        let taller = Csr::from_parts(2, 4, vec![0, 2, 2], vec![0, 2], vec![1.0, 2.0]).unwrap();
        let base = with(vec![1.0, 2.0]);
        assert!(!bits_eq_f64(&base, &wider));
        assert!(!bits_eq_f64(&base, &taller));
        let moved = Csr::from_parts(1, 4, vec![0, 2], vec![0, 3], vec![1.0, 2.0]).unwrap();
        assert!(!bits_eq_f64(&base, &moved));
        let (nr, nc, rpts, cols, vals, _) = base.clone().into_parts();
        let flagged = Csr::from_parts_unchecked(nr, nc, rpts, cols, vals, false);
        assert!(!bits_eq_f64(&base, &flagged), "sortedness flag");
    }

    #[test]
    fn zero_and_identity() {
        let z = Csr::<f64>::zero(3, 5);
        assert_eq!(z.nnz(), 0);
        assert!(z.validate().is_ok());
        let i = Csr::<f64>::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2), Some(&1.0));
        assert_eq!(i.get(2, 3), None);
    }

    #[test]
    fn from_triplets_sorts_and_last_wins() {
        let m = Csr::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0), (1, 1, 3.0), (0, 2, 9.0)])
            .unwrap();
        assert!(m.is_sorted());
        assert_eq!(m.get(0, 2), Some(&9.0), "last write wins");
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn map_and_filter() {
        let m = sample();
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.get(0, 1), Some(&2.0));
        assert_eq!(doubled.nnz(), m.nnz());

        let big = m.filter(|_, _, v| v >= 3.0);
        assert_eq!(big.nnz(), 3);
        assert!(big.validate().is_ok());
        assert!(big.is_sorted());
    }

    #[test]
    fn eq_unordered_ignores_order_only() {
        let a = Csr::from_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).unwrap();
        let b = Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![2.0, 1.0]).unwrap();
        assert!(approx_eq_f64(&a, &b, 0.0));
        let c = Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![2.0, 1.5]).unwrap();
        assert!(!approx_eq_f64(&a, &c, 1e-12));
    }

    #[test]
    fn to_dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[0][1], 1.0);
        assert_eq!(d[1], vec![0.0; 4]);
        assert_eq!(d[2][3], 5.0);
    }

    #[test]
    fn density_and_degree_stats() {
        let m = sample();
        assert!((m.density() - 5.0 / 12.0).abs() < 1e-12);
        assert!((m.avg_row_nnz() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.max_row_nnz(), 3);
    }

    #[test]
    fn validate_catches_lying_sorted_flag() {
        let m = Csr {
            nrows: 1,
            ncols: 4,
            rpts: vec![0, 2],
            cols: vec![3, 1],
            vals: vec![1.0, 2.0],
            sorted: true,
            fingerprint: FingerprintMemo::default(),
        };
        assert!(matches!(m.validate(), Err(SparseError::Unsorted { .. })));
    }

    #[test]
    fn prepare_overwrite_reuses_capacity() {
        let mut c = sample();
        // Grow once to establish capacity, then shrink: no realloc.
        c.prepare_overwrite(4, 4, 8, 0.0, false);
        let (rp, cp, vp) = {
            let (r, cl, v) = c.raw_parts_mut();
            (
                r.as_ptr() as usize,
                cl.as_ptr() as usize,
                v.as_ptr() as usize,
            )
        };
        c.prepare_overwrite(2, 3, 3, 0.0, true);
        {
            let (rpts, cols, vals) = c.raw_parts_mut();
            assert_eq!((rpts.as_ptr() as usize, rpts.len()), (rp, 3));
            assert_eq!((cols.as_ptr() as usize, cols.len()), (cp, 3));
            assert_eq!((vals.as_ptr() as usize, vals.len()), (vp, 3));
            rpts.copy_from_slice(&[0, 1, 3]);
            cols.copy_from_slice(&[2, 0, 1]);
            vals.copy_from_slice(&[1.0, 2.0, 3.0]);
        }
        assert!(c.validate().is_ok());
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.get(1, 1), Some(&3.0));
    }

    #[test]
    fn extract_rows_keeps_the_column_space() {
        let m = sample(); // 3x4: row0 {1:1, 3:2}, row1 {}, row2 {0:3, 2:4, 3:5}
        let top = m.extract_rows(0..2);
        assert_eq!(top.shape(), (2, 4));
        assert_eq!(top.nnz(), 2);
        assert_eq!(top.get(0, 3), Some(&2.0));
        assert!(top.is_sorted());
        let empty = m.extract_rows(1..1);
        assert_eq!(empty.shape(), (0, 4));
        // The full range is the matrix itself.
        assert_eq!(m.extract_rows(0..3), m);
    }

    #[test]
    fn split_col_ranges_localizes_and_rejects_bad_cuts() {
        let m = sample();
        let parts = m.split_col_ranges(&[0, 2, 4]).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].shape(), (3, 2));
        assert_eq!(parts[1].shape(), (3, 2));
        assert_eq!(parts[0].nnz() + parts[1].nnz(), m.nnz());
        assert_eq!(parts[1].get(0, 1), Some(&2.0), "entry (0,3) localized");
        assert!(m.split_col_ranges(&[0, 5]).is_err());
        assert!(m.split_col_ranges(&[1, 4]).is_err());
        assert!(m.split_col_ranges(&[0, 3, 2, 4]).is_err());
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = Csr::<f64>::zero(0, 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.avg_row_nnz(), 0.0);
        assert_eq!(m.max_row_nnz(), 0);
        assert!(m.validate().is_ok());
    }
}
