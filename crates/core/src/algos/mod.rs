//! The SpGEMM algorithm implementations.
//!
//! Each submodule is one accumulator strategy — a `RowAccumulator`
//! impl — plugged into the single row-pass driver of `crate::exec`;
//! see the crate-level table for the mapping to the paper's codes. A
//! kernel runs through [`crate::multiply_in`] / [`crate::SpgemmPlan`];
//! the only free-standing products here are the oracle
//! ([`reference::multiply`]), HashVec at an explicit SIMD level
//! ([`hashvec::multiply_with_level`]) and the masked product.

pub mod hash;
pub mod hashvec;
pub mod heap;
pub mod ikj;
pub mod inspector;
pub mod kkhash;
pub mod masked;
pub mod merge;
pub mod reference;
pub mod simd;
pub mod spa;
