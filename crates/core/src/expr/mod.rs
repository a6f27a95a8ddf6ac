//! Expression-graph plans: fuse multi-op sparse pipelines.
//!
//! The paper's real workloads are never a single product — MCL is
//! normalize → A² → inflate → prune, AMG coarsening is `Pᵀ(A·P)`,
//! triangle counting is a masked `L·U` — yet a plain SpGEMM API plans
//! and caches one `C = A · B` at a time. This module closes that gap:
//!
//! * [`ExprGraph`] — a small DAG IR over matrix ops (multiply, masked
//!   multiply, transpose, add, Hadamard, row/column scaling,
//!   element-wise maps, column normalization) whose nodes reference
//!   unbound input *slots*.
//! * [`ExprPlan`] — the one evaluator: binds a graph to concrete
//!   operands once, refills it numeric-only with **zero intermediate
//!   allocations**, rebinds on drift ([`ExprPlan::matches_inputs`]
//!   tells the two apart) and carries a few-row edit of one input
//!   through every node with [`ExprPlan::update_in`] ([`DeltaReport`]).
//!
//! The application pipelines in `spgemm-apps` (`mcl`, `amg`,
//! `triangles`) are thin wrappers over expression plans, and
//! `spgemm-serve` runs whole graphs as jobs (`ExprRequest`) on cached
//! plans, advanced through row updates.

mod delta;
mod graph;
mod plan;

pub use delta::DeltaReport;
pub use graph::{fnv64, ElemMap, ExprGraph, ExprOp, ExprSpec, NodeId, VecId};
pub use plan::ExprPlan;
