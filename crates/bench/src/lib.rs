//! Benchmark harness regenerating every table and figure of the
//! paper's evaluation (§5). One binary per experiment lives in
//! `src/bin/`; this library holds the shared machinery:
//!
//! * [`args`] — the common command-line knobs (`--scale`, `--ef`,
//!   `--threads`, `--reps`, `--divisor`, `--suitesparse`, `--quick`);
//! * [`envinfo`] — the Table 3 environment banner every binary prints;
//! * [`runner`] — timed multiplies and MFLOPS accounting;
//! * [`profiles`] — Dolan–Moré performance profiles (Figure 15);
//! * [`suites`] — the SuiteSparse stand-in catalog (or real `.mtx`
//!   files when `--suitesparse DIR` is given);
//! * [`perfjson`] / [`regress`] / [`json`] — the `BENCH_*.json` stamp
//!   writer, the regression gate over two stamps, and the JSON reader
//!   the gate parses them with.
//!
//! Defaults are scaled to finish on a small container; every binary
//! accepts overrides to approach the paper's full sizes on bigger
//! hardware. EXPERIMENTS.md records the shape comparison against the
//! paper for each figure.

#![warn(missing_docs)]

pub mod args;
pub mod envinfo;
pub mod json;
pub mod perfjson;
pub mod profiles;
pub mod regress;
pub mod runner;
pub mod suites;

/// The algorithm roster of a "sorted" comparison panel, in the order
/// the paper's figures list them: MKL(≈Merge), Heap, Hash, HashVector.
pub fn sorted_panel() -> Vec<spgemm::Algorithm> {
    use spgemm::Algorithm::*;
    vec![Merge, Heap, Hash, HashVec]
}

/// The "unsorted" comparison panel: MKL(≈SPA), MKL-inspector,
/// Kokkos(≈KkHash), Hash, HashVector.
pub fn unsorted_panel() -> Vec<spgemm::Algorithm> {
    use spgemm::Algorithm::*;
    vec![Spa, Inspector, KkHash, Hash, HashVec]
}

/// Paper-facing display name for an algorithm within a panel: the
/// stand-ins are labelled with both names to stay honest about the
/// substitution (see DESIGN.md §2).
pub fn panel_label(algo: spgemm::Algorithm, sorted: bool) -> &'static str {
    use spgemm::Algorithm::*;
    match (algo, sorted) {
        (Merge, _) => "MKL~Merge",
        (Spa, _) => "MKL~SPA",
        (Inspector, _) => "MKLinsp~1ph",
        (KkHash, _) => "Kokkos~KkHash",
        (Hash, _) => "Hash",
        (HashVec, _) => "HashVec",
        (Heap, _) => "Heap",
        (Ikj, _) => "IKJ",
        (RowClass, _) => "RowClass",
        (Reference, _) => "Reference",
        (Auto, _) => "Auto",
    }
}
