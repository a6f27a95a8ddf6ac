//! Benchmark harness regenerating every table and figure of the
//! paper's evaluation (§5). The binaries live in `src/bin/` (one per
//! experiment, and one `figs` for the kernel Figures 11–17); this
//! library holds the shared machinery:
//!
//! * [`args`] — the one flag reader: the common knobs (`--scale`,
//!   `--ef`, `--threads`, `--reps`, `--divisor`, `--seed`,
//!   `--suitesparse`, `--quick`, `--smoke`) and a hook for each
//!   binary's own flags;
//! * [`envinfo`] — the Table 3 environment banner every binary prints;
//! * [`runner`] — timed multiplies (medians from
//!   `spgemm_membench::median_millis`) and MFLOPS accounting;
//! * [`panels`] — the §5.1 sorted / unsorted comparison panels and the
//!   unsorted twin of a cell, behind Figures 11–17 and Table 4;
//! * [`profiles`] — Dolan–Moré performance profiles (Figure 15);
//! * [`recipe`] — the paper's Table 4 and the measured hash collision
//!   factor, which `table04_recipe` prints beside `Auto`'s picks;
//! * [`suites`] — the SuiteSparse stand-in catalog (or real `.mtx`
//!   files when `--suitesparse DIR` is given);
//! * [`tuning`] — the paper's one-phase Heap and Inspector under one
//!   staging driver: Figure 9's scheduling / memory variants, and what
//!   [`runner`] times for those two kernels;
//! * [`algos::inspector`] — the MKL-inspector stand-in's row stager;
//! * [`perfjson`] / [`regress`] / [`json`] — the `BENCH_*.json` stamp
//!   writer, the regression gate over two stamps, and the JSON reader
//!   the gate parses them with.
//!
//! Defaults are scaled to finish on a small container; every binary
//! accepts overrides to approach the paper's full sizes on bigger
//! hardware. ARCHITECTURE.md "Paper → code" maps each figure to the
//! binary that regenerates it.

#![warn(missing_docs)]

/// Comparator kernels the library does not run.
pub mod algos {
    pub mod inspector;
}
pub mod args;
pub mod envinfo;
pub mod json;
pub mod panels;
pub mod perfjson;
pub mod profiles;
pub mod recipe;
pub mod regress;
pub mod runner;
pub mod suites;
pub mod tuning;
