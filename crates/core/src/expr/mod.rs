//! Expression-graph plans: fuse multi-op sparse pipelines.
//!
//! The paper's real workloads are never a single product — MCL is
//! normalize → A² → inflate → prune, AMG coarsening is `Pᵀ(A·P)`,
//! triangle counting is a masked `L·U` — yet a plain SpGEMM API plans
//! and caches one `C = A · B` at a time, materializing every
//! intermediate and re-stitching the surrounding element-wise ops by
//! hand. This module closes that gap with a two-piece design:
//!
//! * [`ExprGraph`] — a small DAG IR over matrix ops: [`Multiply`],
//!   masked multiply, [`Transpose`], [`Add`], [`Hadamard`],
//!   [`ScaleRows`]/[`ScaleCols`], element-wise [`Map`] (inflation) and
//!   [`NormalizeCols`] (MCL renormalization). Nodes are appended in
//!   topological order and reference unbound input *slots*.
//! * [`ExprPlan`] — the inspector–executor compiler: binds the graph
//!   to concrete operands once (per-node [`crate::SpgemmPlan`]s,
//!   cached transpose/merge structures, pooled intermediate buffers,
//!   and epilogue **fusion** of single-consumer element-wise nodes
//!   into their producer's numeric phase), then re-executes the whole
//!   pipeline numeric-only with **zero intermediate allocations** in
//!   steady state. [`ExprCache`] layers input fingerprinting on top
//!   for pipelines whose pattern drifts between rounds.
//!
//! The application pipelines in `spgemm-apps` (`mcl`, `amg`,
//! `triangles`) are thin wrappers over shared expression plans, and
//! `spgemm-serve` accepts whole graphs as jobs (`ExprRequest`) and
//! runs them on cached [`DeltaPlan`]s, advanced through row updates.
//!
//! [`Multiply`]: ExprGraph::multiply
//! [`Transpose`]: ExprGraph::transpose
//! [`Add`]: ExprGraph::add
//! [`Hadamard`]: ExprGraph::hadamard
//! [`ScaleRows`]: ExprGraph::scale_rows
//! [`ScaleCols`]: ExprGraph::scale_cols
//! [`Map`]: ExprGraph::map
//! [`NormalizeCols`]: ExprGraph::normalize_cols

mod delta;
mod graph;
mod plan;

pub use delta::{touched_cols, DeltaPlan, DeltaReport, NodeDelta};
pub use graph::{fnv64, ElemMap, ExprGraph, ExprOp, ExprSpec, NodeId, VecId};
pub use plan::{ExprCache, ExprCacheStats, ExprPlan};
