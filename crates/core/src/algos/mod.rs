//! The SpGEMM algorithm implementations.
//!
//! Each submodule is one accumulator strategy — a `RowAccumulator`
//! impl — plugged into the single row-pass driver of `crate::exec`;
//! see the crate-level table for the mapping to the paper's codes.
//! The table-like ones are [`ColumnSet`]s, so their rows run the one
//! Gustavson loop of `crate::exec`: [`hash::Table`] under its two
//! probes ([`hash::Linear`], [`hashvec::Chunked`]), the chained map,
//! the SPA and the mask-gated SPA (and, in `crate::kgen`, RowClass's
//! insertion array). Heap and Merge are not sets; IKJ keeps its
//! dense-`k` scan around a SPA. A kernel runs through
//! [`crate::multiply_in`] / [`crate::SpgemmPlan`]; the only
//! free-standing products here are the oracle
//! ([`reference::multiply`]), HashVec at an explicit SIMD level
//! ([`hashvec::multiply_with_level`]) and the masked product.

pub use crate::exec::ColumnSet;

pub mod hash;
pub mod hashvec;
pub mod heap;
pub mod ikj;
pub mod kkhash;
pub mod masked;
pub mod merge;
pub mod reference;
pub mod simd;
pub mod spa;
