//! In-process multi-tenant SpGEMM serving.
//!
//! Everything below `spgemm-serve` is a *library for one caller*: the
//! inspector–executor plan ([`spgemm::SpgemmPlan`]) and its pooled
//! workspaces amortize symbolic work and allocations — the paper's
//! Figure 4 insight — only within a single driver loop. This crate
//! turns that amortization into a shared, concurrent resource, the
//! way kernel-handle libraries (Deveci et al.'s multi-threaded SpGEMM
//! handles) and block-product engines (DBCSR) separate reusable
//! preparation from execution:
//!
//! * a [`MatrixStore`] of named, fingerprinted, immutable matrices —
//!   the `O(nnz)` structure fingerprint is paid **once at
//!   registration**, never per request;
//! * a bounded, prioritized submission queue whose
//!   [`ServeEngine::try_submit`] never blocks: a full queue is the
//!   backpressure signal ([`ServeError::Overloaded`]);
//! * worker threads that **batch** same-structure requests popped
//!   from the queue and execute them numeric-only under one plan;
//! * a shared, concurrency-safe **plan cache** keyed by operand
//!   fingerprints + kernel options, so repeated products — across
//!   tenants and across workers — reuse symbolic phases and pooled
//!   accumulators;
//! * [`JobHandle`]s (wait / poll / cancel) and [`MetricsSnapshot`]
//!   (p50/p99 latency, throughput, plan-cache hit rate, and the
//!   engine's levels — per-lane queue depths, busy workers, store
//!   names and bytes, cache keys, the plan cache's idle bytes — read
//!   from its own structures at snapshot time, so engines sharing a
//!   process never see each other's);
//! * optional **sharded routing** ([`ServeConfig::dist`]): product
//!   jobs crossing a configurable nnz/flop threshold execute on a
//!   shared `spgemm_dist::ShardRuntime` instead of one worker's
//!   monolithic plan path ([`MetricsSnapshot::dist_routed`] counts
//!   them);
//! * **expression jobs** ([`ExprRequest`]): whole
//!   [`spgemm::expr::ExprGraph`] pipelines (MCL rounds, Galerkin
//!   triple products, masked wedge counts) run on a cached evaluator —
//!   a [`spgemm::expr::ExprPlan`] keyed by the graph, its input
//!   names and the kernel, shared across tenants and pooled like
//!   plans (up to 128 pipelines, [`MetricsSnapshot::expr_results`]);
//!   identical jobs batch onto one evaluation;
//! * **streaming row updates**
//!   ([`ServeEngine::try_submit_row_update`]): registered matrices
//!   accept row-granular [`spgemm::delta::RowPatch`]es; the engine
//!   tracks which rows each update dirtied, and the next expression
//!   job on the new version **advances** the evaluator of the old one
//!   through every node — recomputing only the invalidated rows,
//!   byte-for-byte equal to a full re-evaluation
//!   ([`MetricsSnapshot::expr_results_patched`] counts the saves);
//! * **request tracing and SLO tracking**: every accepted job opens a
//!   `spgemm_obs` trace context at submission that follows it across
//!   the queue, the executing worker, and (for routed products) the
//!   shard fleet's threads, so the slowest requests per tenant retain
//!   complete cross-thread span trees exportable as Chrome/Perfetto
//!   traces ([`spgemm_obs::chrome_trace_for`]); per-tenant latency
//!   objectives ([`ServeConfig::slo`]) classify completions good/bad
//!   and surface error-budget burn rates;
//! * **one telemetry cell per tenant**: a completed job records its
//!   queue/service/total latency and its SLO outcome once, into its
//!   tenant's cell (64 named tenants, the tail under
//!   [`OVERFLOW_TENANT`], anonymous jobs in one lock-free cell). A
//!   snapshot has one [`TenantLatency`] row per named cell, SLO
//!   standing included, and engine-wide summaries that are the sum of
//!   all cells; [`MetricsSnapshot::since`] diffs two snapshots into a
//!   window.
//!
//! The `spgemm-serve` binary in `spgemm-bench` drives the engine with
//! an open-loop synthetic traffic generator (MCL-style A² chains, AMG
//! triple products, one-shot products) and reports latency and
//! throughput against worker count and plan-cache policy.
//!
//! # Quick tour
//!
//! ```
//! use spgemm_serve::{Priority, ProductRequest, ServeConfig, ServeEngine};
//! use spgemm_sparse::Csr;
//!
//! let engine = ServeEngine::new(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! });
//!
//! // Tenants register matrices once...
//! engine.store().insert("mcl/graph", Csr::<f64>::identity(64));
//!
//! // ...then submit products against them by name.
//! let job = engine
//!     .try_submit(
//!         ProductRequest::new("mcl/graph", "mcl/graph")
//!             .priority(Priority::High)
//!             .tenant("mcl"),
//!     )
//!     .unwrap();
//! let c = job.wait().unwrap();
//! assert_eq!(c.nnz(), 64);
//!
//! // Repeated same-structure products hit the shared plan cache.
//! for _ in 0..8 {
//!     engine
//!         .try_submit(ProductRequest::new("mcl/graph", "mcl/graph"))
//!         .unwrap()
//!         .wait()
//!         .unwrap();
//! }
//! let m = engine.shutdown();
//! assert_eq!(m.completed, 9);
//! assert!(m.plan_cache.hit_rate() > 0.5);
//! ```

#![warn(missing_docs)]

mod delta;
mod engine;
mod error;
mod expr_results;
mod job;
mod metrics;
mod plan_cache;
mod queue;
mod store;

pub use delta::RowUpdateReceipt;
pub use engine::{DistRouting, ServeConfig, ServeEngine};
pub use error::ServeError;
pub use expr_results::ExprResultCacheStats;
pub use job::{ExprRequest, JobHandle, JobOutput, JobResult, Priority, ProductRequest};
pub use metrics::{
    LatencySummary, MetricsSnapshot, SloPolicy, TenantLatency, TenantSlo, OVERFLOW_TENANT,
};
pub use plan_cache::{PlanCacheStats, PlanKey};
pub use store::{MatrixStore, StoredMatrix};
