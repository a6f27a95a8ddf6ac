//! Sharded SpGEMM over block-partitioned matrices.
//!
//! Everything below this crate executes `C = A · B` as one monolithic
//! product: one CSR per operand, one workspace pool, one plan.
//! [`ShardRuntime`] runs the same product on an `R × C` grid of
//! long-lived shards (see [`GridSpec`]) — the workers of one persistent
//! `spgemm_par::Pool` — by lifting the paper's two-phase scheme
//! (Fig. 7) from threads to shards:
//!
//! * shard `(r, c)` computes `A[r, :] · B[:, c]` — a flop-balanced row
//!   block times an nnz-balanced column block — through **one** cached
//!   [`spgemm::PlanCache`], so iterative workloads (MCL A² chains, AMG
//!   `PᵀAP`) re-execute **numeric-only per shard** once their
//!   structure stabilizes ([`DistStats::plan_hits`] counts it);
//! * on a new operand structure one fork-join region sizes every row:
//!   the shards leave per-row counts, whose prefix sum is `C`'s row
//!   pointers, cached next to the cuts;
//! * in steady state a product is one allocation of `C` plus one
//!   region — a numeric pass per shard written **directly into that
//!   shard's disjoint window of `C`**, the submitting thread computing
//!   shard 0's — with no partial products, no merge and no gather
//!   copy. The default shard kernel is `Auto`: a block whose output
//!   width fits the L2 share runs the dense accumulator and replays the
//!   column pattern its bind wrote, and the result is bit-identical to
//!   the monolithic `Hash` product wherever blocks resolve to the SPA
//!   or `Hash`.
//!
//! There are no stage partials because there is one address space:
//! chunking `B` (Deveci et al.) pays only when fast memory is short,
//! since every chunk re-touches the partial `C`, and the paper's §3.2 /
//! Fig. 4 put the cost of a bandwidth-bound SpGEMM in allocation and
//! extra passes over `C`, not flops. `spgemm-serve` routes oversized
//! jobs here (`ServeConfig::dist`); the `spgemm-dist` bench binary
//! compares grids against the monolithic kernel.
//!
//! ```
//! use spgemm_dist::{DistConfig, GridSpec, ShardRuntime};
//! use spgemm_sparse::Csr;
//!
//! let rt = ShardRuntime::new(DistConfig {
//!     grid: GridSpec::new(2, 2),
//!     ..DistConfig::default()
//! });
//! let a = Csr::<f64>::identity(64);
//! let c = rt.multiply(&a, &a).unwrap();
//! assert_eq!(c.nnz(), 64);
//! ```

#![warn(missing_docs)]

mod error;
mod runtime;

pub use error::DistError;
pub use runtime::{DistConfig, DistStats, GridSpec, ProductStats, ShardRuntime};
pub use spgemm_sparse::csr_bytes;
