//! SpGEMM kernels for multicore x86, reproducing Nagasaka, Matsuoka,
//! Azad & Buluç, *"High-performance sparse matrix-matrix products on
//! Intel KNL and multicore architectures"* (ICPP 2018).
//!
//! The crate provides every algorithm the paper develops or compares
//! against, behind one entry point:
//!
//! ```
//! use spgemm::{multiply_in, Algorithm, OutputOrder};
//! use spgemm_par::Pool;
//! use spgemm_sparse::{Csr, PlusTimes};
//!
//! let pool = Pool::new(2);
//! let a = Csr::<f64>::identity(4);
//! let c = multiply_in::<PlusTimes<f64>>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool)
//!     .unwrap();
//! assert_eq!(c.nnz(), 4);
//! ```
//!
//! # Algorithms
//!
//! | [`Algorithm`] | paper code | phases | accumulator | input / output order |
//! |---------------|-----------|--------|-------------|----------------------|
//! | `Hash`        | Hash (§4.2.1) | 2 | the hash table, linear probe (Fig. 8a) | any / selectable |
//! | `HashVec`     | HashVector (§4.2.2) | 2 | the same table, SIMD chunk probe (Fig. 8b) | any / selectable |
//! | `Heap`        | Heap (§4.2.3) | 2 (its one-phase form: `spgemm-bench`) | column-indexed binary heap | sorted / sorted |
//! | `Spa`         | MKL stand-in (unsorted runs); what `Auto` runs while it fits the L2 ([`cost::select`]) | 2 | dense sparse accumulator, sorted rows walked out of a bitmap | any / selectable |
//! | `Merge`       | MKL stand-in (sorted runs) | 2 | iterative sorted-row merging | sorted / sorted |
//! | `Inspector`   | MKL-inspector stand-in | 2, as `Hash` (its one-phase form: `spgemm-bench`) | the hash table (linear probe) | any / selectable |
//! | `KkHash`      | KokkosKernels `kkmem` stand-in | 2 | chained (linked-list) hash map | any / selectable |
//! | `Ikj`         | Sulatycke–Ghose IKJ (§2) | 2 | dense row scan + SPA | any / selectable |
//! | `RowClass`    | per-row-class selection ([`kgen`]) | 2 | SIMD insertion array / hash table / SPA by row class | any / selectable |
//! | `Reference`   | correctness oracle | 1 | `BTreeMap`, sequential | any / sorted |
//!
//! All kernels share the architecture-specific machinery the paper
//! identifies as decisive (§3–4): the flop-balanced static row
//! partition (`RowsToThreads`), thread-private hash/heap/scratch
//! storage allocated inside the parallel region, and output buffers
//! written through pre-computed disjoint slices. That machinery is one
//! row-pass driver (`exec`: one symbolic and one numeric pass) into
//! which each kernel plugs as a per-row accumulator;
//! planned and one-shot products, RowClass, the masked product and
//! — under a dirty-row mask — the row-subset paths all run it. One
//! level down the Gustavson row loop is written once too, over a
//! column set ([`algos::ColumnSet`]: the accumulate / emit contract
//! the hash table, chained map, SPA, insertion array and gated SPA
//! meet) — a table-like kernel is its column set, a hash kernel just
//! its probe ([`algos::hash::Probe`]) — and a kernel that probes with
//! vector instructions has its workers' row loops compiled under its
//! SIMD level ([`algos::simd`]).
//!
//! Kernels are generic over a [`spgemm_sparse::Semiring`], so boolean
//! BFS and counting workloads run through the identical code paths as
//! `f64` arithmetic (see `spgemm-apps`).
//!
//! The crate holds what the plan / expr / delta / dist / serve / apps
//! stack runs. What only the paper's evaluation measures — the
//! one-phase Heap and Inspector products (Fig. 9's schedules and the
//! Figs. 11–17 columns), Table 4, the measured hash collision factor —
//! lives in `spgemm-bench`.

#![warn(missing_docs)]

/// Bump the `plan`-category counter `<prefix><algorithm name>`: one
/// static site per algorithm, shared by the execution census
/// (`plan.exec.*`) and `Auto`'s resolution census (`plan.auto.*`).
/// The caller has checked `obs::enabled()`.
macro_rules! count_algorithm {
    ($prefix:literal, $algo:expr) => {{
        macro_rules! site {
            ($name:literal) => {{
                static SITE: spgemm_obs::CounterSite =
                    spgemm_obs::CounterSite::new("plan", concat!($prefix, $name));
                SITE.incr()
            }};
        }
        match $algo {
            $crate::Algorithm::Hash => site!("hash"),
            $crate::Algorithm::HashVec => site!("hashvec"),
            $crate::Algorithm::Heap => site!("heap"),
            $crate::Algorithm::Spa => site!("spa"),
            $crate::Algorithm::Merge => site!("merge"),
            $crate::Algorithm::Inspector => site!("inspector"),
            $crate::Algorithm::KkHash => site!("kkhash"),
            $crate::Algorithm::Ikj => site!("ikj"),
            $crate::Algorithm::RowClass => site!("rowclass"),
            $crate::Algorithm::Reference => site!("reference"),
            // plans always carry a resolved kernel and `Auto` never
            // resolves to itself; count it rather than panic if either
            // ever breaks
            $crate::Algorithm::Auto => site!("auto"),
        }
    }};
}
pub(crate) use count_algorithm;

pub mod algos;
pub mod cost;
pub mod delta;
mod exec;
pub mod expr;
pub mod kgen;
mod options;
pub mod plan;
pub mod recipe;

pub use delta::{DirtyRows, RowPatch};
pub use exec::{plan as exec_plan, MultiplyStats};
pub use options::{Algorithm, OutputOrder};
pub use plan::{PlanCache, PlanCacheStats, SpgemmPlan};

use spgemm_par::Pool;
use spgemm_sparse::{Csr, Semiring, SparseError};

/// Multiply `C = A · B` over semiring `S`. Every parallel region of the
/// product runs on `pool`, which the caller owns and sizes.
///
/// Validates shapes and each algorithm's input-sortedness contract
/// (see the table in the crate docs); `Algorithm::Auto` resolves
/// through [`recipe::auto_select`]: the accumulator-footprint rule
/// ([`cost::select`]) at this machine's L2 share.
///
/// Internally the `Reference` oracle runs as is; every other
/// algorithm is [`SpgemmPlan::new_in`] followed by one
/// [`SpgemmPlan::execute_in`] — the inspector–executor split with the
/// plan thrown away, so the product equals the plan's bit for bit. Callers that repeat a product over a fixed (or
/// slowly drifting) sparsity structure should hold the plan (or a
/// [`PlanCache`]) instead and amortize the symbolic phase and all
/// accumulator allocations across executions.
pub fn multiply_in<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
) -> Result<Csr<S::Elem>, SparseError> {
    plan::multiply_oneshot::<S>(a, b, algo, order, pool)
}

/// Masked SpGEMM `C = (A · B) ∘ M` without materializing `A · B` —
/// see [`algos::masked::multiply_masked`].
pub use algos::masked::multiply_masked;

/// Masked pattern product `C = (A · B)⟨U⟩` under a dense bitmap, one
/// pass — see [`algos::masked::masked_pattern`].
pub use algos::masked::masked_pattern;
