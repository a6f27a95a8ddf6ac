//! Algorithm and output-order selection.

/// The SpGEMM algorithm to run; see the crate-level table for each
/// entry's paper counterpart and contracts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Two-phase hash-table SpGEMM (§4.2.1) — the paper's workhorse.
    Hash,
    /// Hash SpGEMM with SIMD-vectorized probing (§4.2.2).
    HashVec,
    /// Heap SpGEMM (§4.2.3); requires sorted inputs and always emits
    /// sorted output. Two-phase here, one-shot or planned: the
    /// symbolic pass counts each row's columns with the same heap merge
    /// the numeric pass runs. The paper's one-phase form
    /// (`HeapKernel::stage_row` per row) is `spgemm-bench`'s.
    Heap,
    /// Dense sparse-accumulator SpGEMM (Gustavson/Gilbert); stands in
    /// for MKL in unsorted comparisons.
    Spa,
    /// Iterative sorted-row-merging SpGEMM (ViennaCL-style); stands in
    /// for MKL in sorted comparisons. Requires sorted inputs.
    Merge,
    /// Stands in for MKL-inspector: hash SpGEMM without a symbolic
    /// pass, unsorted natively. That one-phase form is `spgemm-bench`'s
    /// comparator; here, one-shot or planned, it runs as the two-phase
    /// [`Algorithm::Hash`] kernel, whose rows come out in the same
    /// first-insertion order with the same sums.
    Inspector,
    /// Chained-hash-map SpGEMM after KokkosKernels' `kkmem`.
    KkHash,
    /// The IKJ baseline of Sulatycke & Ghose — `O(n² + flop)`; for
    /// small matrices and the background comparison only.
    Ikj,
    /// Row-class specialized kernels ([`crate::kgen`]): rows are
    /// bucketed by flop count at plan-bind time (tiny/short/medium/
    /// dense) and the numeric phase dispatches each bucket to a
    /// specialized accumulator — a SIMD insertion array for tiny and
    /// short rows, the hash table for medium rows, and a dense SPA for
    /// heavy rows — over plan-private u16-compressed column indices
    /// when the dimensions fit. Byte-for-byte identical output to
    /// [`Algorithm::Hash`].
    RowClass,
    /// Sequential `BTreeMap` oracle (tests, tiny inputs).
    Reference,
    /// Pick from the input structure by the accumulator-footprint rule
    /// of [`crate::cost::select`]: the dense accumulator while it fits
    /// a thread's L2 share, else Heap or Hash by the paper's Eq (1) /
    /// Eq (2).
    Auto,
}

impl Algorithm {
    /// Every concrete algorithm (everything but `Auto`), in the order
    /// the evaluation harness reports them.
    pub const ALL: [Algorithm; 10] = [
        Algorithm::Hash,
        Algorithm::HashVec,
        Algorithm::Heap,
        Algorithm::Spa,
        Algorithm::Merge,
        Algorithm::Inspector,
        Algorithm::KkHash,
        Algorithm::Ikj,
        Algorithm::RowClass,
        Algorithm::Reference,
    ];

    /// Short display name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Hash => "Hash",
            Algorithm::HashVec => "HashVec",
            Algorithm::Heap => "Heap",
            Algorithm::Spa => "SPA",
            Algorithm::Merge => "Merge",
            Algorithm::Inspector => "Inspector",
            Algorithm::KkHash => "KkHash",
            Algorithm::Ikj => "IKJ",
            Algorithm::RowClass => "RowClass",
            Algorithm::Reference => "Reference",
            Algorithm::Auto => "Auto",
        }
    }

    /// Whether the algorithm needs both inputs sorted by column.
    pub fn requires_sorted_inputs(self) -> bool {
        matches!(self, Algorithm::Heap | Algorithm::Merge)
    }

    /// Whether the algorithm's kernel produces sorted rows natively
    /// when asked. Inspector does not: its one-phase pass emits rows
    /// in accumulator order, which is why Table 4a only recommends it
    /// for unsorted outputs. An explicit `Inspector`+`Sorted` request
    /// is still honoured — here by the `Hash` kernel's sorted emit, in
    /// `spgemm-bench`'s one-phase form by a post-sort — but Table 4a
    /// never names it for sorted output: the extra sort forfeits
    /// exactly the work its one-phase design skips.
    /// RowClass honours sorted output because *every* class kernel
    /// does (insertion array, hash table, and SPA all emit ascending
    /// rows on request) — if a future class kernel cannot, this must
    /// become `false` for RowClass too.
    pub fn honours_sorted_output(self) -> bool {
        !matches!(self, Algorithm::Inspector)
    }

    /// Whether the algorithm can honour `OutputOrder::Unsorted` with a
    /// genuine sort-skip (the §5.4.4 optimization). Heap/Merge/
    /// Reference produce sorted output for free; Inspector is unsorted
    /// natively.
    pub fn supports_sort_skip(self) -> bool {
        matches!(
            self,
            Algorithm::Hash
                | Algorithm::HashVec
                | Algorithm::Spa
                | Algorithm::KkHash
                | Algorithm::Ikj
                | Algorithm::RowClass
                | Algorithm::Inspector
        )
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the output rows must be sorted by column index.
///
/// The paper's headline §5.4.4 finding is that skipping the per-row
/// output sort is worth a harmonic-mean 1.58–1.68× across SuiteSparse;
/// kernels that can, honour `Unsorted` by emitting rows in accumulator
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OutputOrder {
    /// Rows ascending in column index (required by consumers that
    /// merge or binary-search rows).
    Sorted,
    /// Rows in whatever order the accumulator produces.
    Unsorted,
}

impl OutputOrder {
    /// `true` for [`OutputOrder::Sorted`].
    pub fn is_sorted(self) -> bool {
        matches!(self, OutputOrder::Sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn contracts() {
        assert!(Algorithm::Heap.requires_sorted_inputs());
        assert!(Algorithm::Merge.requires_sorted_inputs());
        assert!(!Algorithm::Hash.requires_sorted_inputs());
        assert!(!Algorithm::Inspector.honours_sorted_output());
        assert!(Algorithm::Hash.honours_sorted_output());
        assert!(Algorithm::Heap.honours_sorted_output());
        assert!(Algorithm::Hash.supports_sort_skip());
        assert!(!Algorithm::Heap.supports_sort_skip());
        assert!(!Algorithm::RowClass.requires_sorted_inputs());
        assert!(Algorithm::RowClass.honours_sorted_output());
        assert!(Algorithm::RowClass.supports_sort_skip());
        assert!(OutputOrder::Sorted.is_sorted());
        assert!(!OutputOrder::Unsorted.is_sorted());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", Algorithm::HashVec), "HashVec");
    }
}
