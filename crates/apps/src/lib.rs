//! Application workloads built on the SpGEMM kernels — the use cases
//! that motivate the paper (§1) and shape its evaluation:
//!
//! * [`bfs`] — multi-source breadth-first search as square ×
//!   tall-skinny boolean SpGEMM (§5.5);
//! * [`triangles`] — triangle counting via `L · U` with degree
//!   reordering and a masked reduction (§5.6, after Azad et al.);
//! * [`mcl`] — one Markov-clustering iteration (expansion = `A²`,
//!   inflation, pruning), after HipMCL;
//! * [`amg`] — an aggregation-based Algebraic Multigrid Galerkin
//!   coarsening `Pᵀ A P`, the classic numeric SpGEMM consumer.
//!
//! Each module has a sequential reference implementation used by its
//! tests, so the SpGEMM formulation is verified against first
//! principles, not against itself.

#![warn(missing_docs)]

pub mod amg;
pub mod bfs;
pub mod mcl;
pub mod triangles;
