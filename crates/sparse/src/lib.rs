//! Sparse matrix substrate for the SpGEMM reproduction of
//! Nagasaka, Matsuoka, Azad & Buluç, *"High-performance sparse
//! matrix-matrix products on Intel KNL and multicore architectures"*
//! (ICPP 2018).
//!
//! This crate provides everything the SpGEMM kernels and the evaluation
//! harness need from a sparse-matrix library:
//!
//! * [`Csr`] — Compressed Sparse Row storage with explicit tracking of
//!   whether rows are sorted by column index. The paper's evaluation
//!   hinges on the sorted/unsorted distinction (§2, Table 1), so
//!   sortedness is a first-class, checked property here rather than an
//!   implicit convention.
//! * [`Coo`] — triplet storage used for construction and I/O.
//! * [`ops`] — transpose, permutation, triangular splitting, degree
//!   reordering, element-wise addition and masked reductions: the
//!   structural operations required by the paper's use cases
//!   (triangle counting §5.6, tall-skinny BFS §5.5).
//! * [`stats`] — structural analysis: `flop` counting (the number of
//!   non-trivial scalar multiplications, the paper's work measure),
//!   per-row flop vectors used by the load balancer of §4.1, and
//!   compression-ratio helpers for §5.4.4.
//! * [`io`] — Matrix Market reading/writing so the harness can run on
//!   the real SuiteSparse collection when available.
//! * [`Scalar`] / [`Semiring`] — the element algebra. Kernels are
//!   generic over a semiring so that graph workloads (boolean BFS,
//!   counting) reuse the exact same code paths as numeric ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csr;
pub mod delta;
mod error;
pub mod io;
pub mod ops;
mod scalar;
mod semiring;
pub mod stats;

pub use coo::Coo;
pub use csr::{approx_eq_f64, bits_eq_f64, csr_bytes, Csr, RowView};
pub use delta::{DirtyRows, RowPatch};
pub use error::SparseError;
pub use scalar::Scalar;
pub use semiring::{MaxTimes, OrAnd, PlusTimes, Semiring};

/// Column-index type used throughout the project.
///
/// The paper's vectorized hash probing (§4.2.2) represents keys as
/// 32-bit integers so that 8 (AVX2) or 16 (AVX-512) of them fit in one
/// vector register; we adopt the same representation globally. Matrices
/// are therefore limited to `i32::MAX` columns, comfortably above the
/// paper's largest inputs (scale 24, i.e. 2^24 columns).
pub type ColIdx = u32;

/// Maximum representable column count (hash tables reserve `-1` as the
/// empty-slot marker, so indices must fit in an `i32`).
pub const MAX_DIM: usize = i32::MAX as usize;
