//! Inspector–executor SpGEMM: [`SpgemmPlan`] and [`PlanCache`].
//!
//! The paper's fastest kernels are two-phase — a symbolic pass sizes
//! each output row, a numeric pass fills exactly-allocated storage —
//! and its Figure 4 shows allocation/deallocation dominating runtime
//! when products repeat, as they do in MCL expansion, AMG re-setup
//! and multi-round graph algorithms. A [`SpgemmPlan`] factors a
//! multiply accordingly:
//!
//! * **Plan once** (`SpgemmPlan::new`): per-row flop counts, the
//!   flop-balanced row partition of §4.1, the resolved algorithm, and
//!   — for two-phase kernels — the symbolic pass producing the output
//!   row pointers.
//! * **Execute many** (`execute` / `execute_into`): numeric-only
//!   passes over matrices with the *same sparsity structure*. All
//!   per-thread accumulators live in a
//!   [`spgemm_par::WorkspacePool`] owned by the plan, so the steady
//!   state performs **zero heap allocations** when writing into a
//!   reused output via [`SpgemmPlan::execute_into`].
//!
//! **Numeric replay.** The symbolic pass visits every `(i, j)` of the
//! product to size `C`. On the dense kernel (`Spa`, named or through
//! `Auto`) over a semiring with a [`Semiring::seed`] it also *writes*
//! what it visits: each row's columns in emit order, into per-worker
//! segments that are the plan's *pattern* (`u16` entries when
//! `ncols(B) ≤ 65 536`, `ColIdx` otherwise: `nnz(C)` × 2 or 4 bytes,
//! counted by [`SpgemmPlan::owned_bytes`]). Every full numeric pass of
//! such a plan — from the first, and under every entry point
//! (`execute_in`, `execute_into_in`, `execute_into_slices_in`, hence
//! one-shot `multiply_in`, expression nodes, serve's cached plans and
//! dist shards that ask for `Spa` / `Auto`) — replays it: copy the
//! pattern into the output, then per row a branch-free scatter and a
//! gather along the row's own columns. No stamp, no touched list, no
//! bitmap, no sort; the `k`-order of every sum and the emit order are
//! the stamped pass's, so the output is byte-identical by construction
//! (`algos::spa`).
//!
//! Every bind emits — [`SpgemmPlan::new`], [`SpgemmPlan::rebind`] and
//! with it every [`PlanCache`] / `ExprCache` rebind, reusing the
//! previous binding's buffers — and [`SpgemmPlan::rebind_rows`] emits
//! its dirty rows and copies the clean ones from the old pattern, so a
//! row-patched plan keeps replaying. What never replays: plans that
//! name any other kernel (they keep measuring that kernel), a semiring
//! without a seed, and the dirty rows of `execute_rows`, which the
//! stamped accumulator recomputes. There is no switch: the rule is
//! "dense kernel, seeded semiring".
//!
//! One-phase kernels (`Heap`, `Inspector`) have no symbolic pass to
//! front-load; their first execution runs the staged one-phase pass
//! and *captures* the row pointers it discovers, so one-shot use costs
//! one pass while later executions become numeric-only like everyone
//! else's.
//!
//! [`PlanCache`] layers structure fingerprinting on top for workloads
//! whose pattern *drifts* (MCL prunes entries every round): it reuses
//! the plan verbatim while the pattern matches and rebinds — keeping
//! the pooled accumulators — when it changes.
//!
//! The one-shot [`crate::multiply_in`] is itself `Plan::new` +
//! `execute`, and every pass a plan runs — symbolic, numeric, staged,
//! and the same symbolic / numeric passes under a dirty mask for
//! `rebind_rows` / `execute_rows` — is the single implementation in
//! `crate::exec`; the plan only decides *which* accumulator type the
//! passes are instantiated with.

use crate::algos::hash::{HashAccumulator, Linear};
use crate::algos::hashvec::{Chunked, HashVecAccumulator};
use crate::algos::heap::HeapKernel;
use crate::algos::ikj::IkjKernel;
use crate::algos::kkhash::KkHashAccumulator;
use crate::algos::merge::MergeAccumulator;
use crate::algos::simd;
use crate::algos::spa::{self, Pattern, SpaAccumulator};
use crate::delta::{rows_touching, DirtyRows};
use crate::exec::{self, MultiplyStats, RowMask, Workers};
use crate::kgen::{RowClassAccumulator, RowClassSpec};
use crate::{recipe, Algorithm, OutputOrder};
use parking_lot::Mutex;
use spgemm_obs as obs;
use spgemm_par::{Pool, WorkspaceStats};
use spgemm_sparse::{ColIdx, Csr, Semiring, SparseError};
use std::sync::Arc;

/// Structure fingerprints (shape, row pointers, column indices —
/// values excluded) of both operands, hashing the shared structure
/// only once when `a` and `b` are the same matrix (the `A · A` case of
/// MCL expansion and squaring benchmarks).
fn signatures<T>(a: &Csr<T>, b: &Csr<T>) -> (u64, u64) {
    let a_sig = a.structure_fingerprint();
    let b_sig = if std::ptr::eq(a, b) {
        a_sig
    } else {
        b.structure_fingerprint()
    };
    (a_sig, b_sig)
}

/// The symbolic phase's result: output row pointers and total nnz.
struct SymbolicPlan {
    rpts: Vec<usize>,
    nnz: usize,
}

/// Per-algorithm pooled workers: each variant instantiates
/// [`Workers`] — and through it every pass of `crate::exec` — with
/// that kernel's accumulator type.
enum PlanKernel<S: Semiring> {
    Hash(Workers<S, HashAccumulator<S>>),
    HashVec(Workers<S, HashVecAccumulator<S>>),
    Heap(Workers<S, HeapKernel<S>>),
    Spa(Workers<S, SpaAccumulator<S>>),
    Merge(Workers<S, MergeAccumulator<S>>),
    /// The hash accumulator run one-phase (`algos::inspector`).
    Inspector(Workers<S, HashAccumulator<S>>),
    KkHash(Workers<S, KkHashAccumulator<S>>),
    Ikj(Workers<S, IkjKernel<S>>),
    RowClass(Workers<S, RowClassAccumulator<S>>),
    Reference,
}

impl<S: Semiring> PlanKernel<S> {
    fn new(algo: Algorithm, nthreads: usize) -> Self {
        match algo {
            Algorithm::Hash => PlanKernel::Hash(Workers::new(nthreads, Linear)),
            Algorithm::HashVec => {
                PlanKernel::HashVec(Workers::new(nthreads, Chunked::new(simd::detect())))
            }
            Algorithm::Heap => PlanKernel::Heap(Workers::new(nthreads, ())),
            // The pattern is emitted with the operands.
            Algorithm::Spa => PlanKernel::Spa(Workers::new(nthreads, None)),
            Algorithm::Merge => PlanKernel::Merge(Workers::new(nthreads, ())),
            Algorithm::Inspector => PlanKernel::Inspector(Workers::new(nthreads, Linear)),
            Algorithm::KkHash => PlanKernel::KkHash(Workers::new(nthreads, ())),
            Algorithm::Ikj => PlanKernel::Ikj(Workers::new(nthreads, ())),
            // The class queues are bound with the operands.
            Algorithm::RowClass => {
                PlanKernel::RowClass(Workers::new(nthreads, RowClassSpec::default()))
            }
            Algorithm::Reference => PlanKernel::Reference,
            Algorithm::Auto => unreachable!("Auto resolved before kernel construction"),
        }
    }
}

/// Static dispatch over the kernel variants: `$body` is instantiated
/// once per accumulator type with that variant's [`Workers`] bound to
/// `$w` — the one enum dispatch a pass pays. (`Reference` is handled
/// by the execute paths before any kernel dispatch; the staged first
/// run has its own two-variant match because only Heap/Inspector
/// implement `StagedRowKernel`.)
macro_rules! with_kernel {
    ($plan:expr, |$w:ident| $body:expr) => {
        match &$plan.kernel {
            PlanKernel::Hash($w) | PlanKernel::Inspector($w) => $body,
            PlanKernel::HashVec($w) => $body,
            PlanKernel::Heap($w) => $body,
            PlanKernel::Spa($w) => $body,
            PlanKernel::Merge($w) => $body,
            PlanKernel::KkHash($w) => $body,
            PlanKernel::Ikj($w) => $body,
            PlanKernel::RowClass($w) => $body,
            PlanKernel::Reference => unreachable!("Reference handled before kernel dispatch"),
        }
    };
}

/// Outcome of resolving the symbolic state for one execution.
enum FirstRun<E> {
    /// A deferred (one-phase) plan ran its staged first execution; the
    /// product is already materialized.
    Done(Csr<E>),
    /// Row pointers are known; run the numeric pass.
    Ready(Arc<SymbolicPlan>),
}

/// Patterns emitted (one per emitting bind) / full passes replayed,
/// over every plan (counted while `obs` is enabled, like
/// `plan.exec.*`).
static REPLAY_CAPTURES: obs::CounterSite = obs::CounterSite::new("plan", "plan.replay.captures");
static REPLAY_PASSES: obs::CounterSite = obs::CounterSite::new("plan", "plan.replay.passes");

/// A reusable two-phase execution plan for `C = A · B` over a fixed
/// sparsity structure.
///
/// Create once from the operands' structure, then run
/// [`SpgemmPlan::execute`] (fresh output) or
/// [`SpgemmPlan::execute_into`] (reused output, allocation-free in
/// steady state) any number of times with matrices whose *values* may
/// change but whose *structure* must match the planned one. Use
/// [`SpgemmPlan::rebind`] or a [`PlanCache`] when the structure
/// changes.
///
/// ```
/// use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
/// use spgemm_sparse::{Csr, PlusTimes};
///
/// let a = Csr::<f64>::identity(8);
/// let plan = SpgemmPlan::<PlusTimes<f64>>::new(&a, &a, Algorithm::Hash, OutputOrder::Sorted)?;
/// assert_eq!(plan.symbolic_nnz(), Some(8));
///
/// let mut c = plan.execute(&a, &a)?;
/// for _ in 0..10 {
///     plan.execute_into(&a, &a, &mut c)?; // numeric-only re-multiplies
/// }
/// assert_eq!(c.nnz(), 8);
/// # Ok::<(), spgemm_sparse::SparseError>(())
/// ```
pub struct SpgemmPlan<S: Semiring> {
    /// What the caller asked for (kept so [`SpgemmPlan::rebind`] can
    /// re-resolve `Auto` against the new structure).
    requested: Algorithm,
    /// The resolved, concrete algorithm.
    algo: Algorithm,
    /// Set by the first [`SpgemmPlan::rebind_rows`]: from then on
    /// `Auto` resolves among two-phase kernels only (a one-phase plan
    /// has no row structure to patch until it has run).
    row_patched: bool,
    order: OutputOrder,
    /// `(nrows(A), ncols(A) == nrows(B), ncols(B))`.
    dims: (usize, usize, usize),
    a_nnz: usize,
    b_nnz: usize,
    /// `(signature(A), signature(B))` of the planned structure.
    /// `None` for throwaway plans built by the one-shot `multiply_in`
    /// path, which never fingerprint-checks — computing the `O(nnz)`
    /// hashes there would tax every ordinary multiply.
    sigs: Option<(u64, u64)>,
    stats: MultiplyStats,
    nthreads: usize,
    /// `None` while a one-phase plan's symbolic structure is still
    /// deferred to its first execution.
    symbolic: Mutex<Option<Arc<SymbolicPlan>>>,
    kernel: PlanKernel<S>,
}

impl<S: Semiring> SpgemmPlan<S> {
    /// Plan `A · B` on the process-global pool.
    pub fn new(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        order: OutputOrder,
    ) -> Result<Self, SparseError> {
        Self::new_in(a, b, algo, order, spgemm_par::global_pool())
    }

    /// Plan `A · B` on an explicit pool. The plan is bound to the
    /// pool's thread count; executions must use a pool of the same
    /// width (usually the same pool).
    pub fn new_in(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        order: OutputOrder,
        pool: &Pool,
    ) -> Result<Self, SparseError> {
        Self::build(a, b, algo, order, pool, true)
    }

    /// A plan for exactly one execution: skips the structure
    /// fingerprint ([`SpgemmPlan::matches_structure`] will always
    /// report `false`). This is what the one-shot [`crate::multiply_in`]
    /// uses internally.
    pub(crate) fn new_oneshot(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        order: OutputOrder,
        pool: &Pool,
    ) -> Result<Self, SparseError> {
        Self::build(a, b, algo, order, pool, false)
    }

    fn build(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        order: OutputOrder,
        pool: &Pool,
        fingerprint: bool,
    ) -> Result<Self, SparseError> {
        let (resolved, stats) = Self::analyze(a, b, algo, order, pool, false)?;
        let mut plan = SpgemmPlan {
            requested: algo,
            algo: resolved,
            row_patched: false,
            order,
            dims: (a.nrows(), a.ncols(), b.ncols()),
            a_nnz: a.nnz(),
            b_nnz: b.nnz(),
            sigs: fingerprint.then(|| signatures(a, b)),
            stats,
            nthreads: pool.nthreads(),
            symbolic: Mutex::new(None),
            kernel: PlanKernel::new(resolved, pool.nthreads()),
        };
        plan.bind_kernel(a, b, pool);
        Ok(plan)
    }

    /// Bind the kernel to the operands' structure once `stats` is
    /// current: RowClass's class queues, then the symbolic phase
    /// (unless this kernel defers it to its first execution), which
    /// writes the dense kernel's pattern.
    fn bind_kernel(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) {
        self.bind_row_classes(a, b);
        let sym =
            (!defers_symbolic(self.algo)).then(|| Arc::new(self.run_symbolic(a, b, pool, None)));
        *self.symbolic.get_mut() = sym;
    }

    /// RowClass plans only: re-derive the per-class work queues and
    /// re-gather the compressed column indices from `stats`.
    fn bind_row_classes(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) {
        if let PlanKernel::RowClass(w) = &mut self.kernel {
            w.shared = RowClassSpec::build(a, b, &self.stats);
        }
    }

    /// Validate shapes/contracts, analyze the work and resolve `Auto`
    /// (which reads the analysis); shared by [`SpgemmPlan::new_in`] and
    /// [`SpgemmPlan::rebind_in`]. With `two_phase_only`, an `Auto` that
    /// would defer its symbolic phase takes `Hash` instead — the
    /// model's other sparse accumulator, admissible everywhere.
    fn analyze(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        order: OutputOrder,
        pool: &Pool,
        two_phase_only: bool,
    ) -> Result<(Algorithm, MultiplyStats), SparseError> {
        let _g = obs::span!("plan", "plan.analyze");
        if a.ncols() != b.nrows() {
            return Err(SparseError::ShapeMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "multiply",
            });
        }
        // The sequential Reference oracle never consults the work
        // analysis; skip the parallel flop-counting pass it would pay
        // on every oracle multiply.
        let stats = if algo == Algorithm::Reference {
            MultiplyStats {
                row_flops: Vec::new(),
                total_flop: 0,
                offsets: vec![0; pool.nthreads() + 1],
            }
        } else {
            exec::plan(a, b, pool)
        };
        let resolved = match algo {
            Algorithm::Auto => {
                let ctx = recipe::auto_context_from(a, b, order, &stats.row_flops);
                match recipe::resolve(&ctx) {
                    pick if two_phase_only && defers_symbolic(pick) => Algorithm::Hash,
                    pick => pick,
                }
            }
            other => other,
        };
        if resolved.requires_sorted_inputs() && (!a.is_sorted() || !b.is_sorted()) {
            return Err(SparseError::Unsorted {
                op: match resolved {
                    Algorithm::Heap => "Heap SpGEMM",
                    _ => "Merge SpGEMM",
                },
            });
        }
        Ok((resolved, stats))
    }

    /// Re-plan for a *different* structure while keeping the pooled
    /// per-thread workspaces (which re-validate and grow on their next
    /// acquisition — see `exec::RowAccumulator`). This is the
    /// allocation-amortizing path for workloads whose pattern drifts
    /// between products; [`PlanCache`] calls it automatically.
    pub fn rebind(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> Result<(), SparseError> {
        self.rebind_in(a, b, spgemm_par::global_pool())
    }

    /// [`SpgemmPlan::rebind`] on an explicit pool.
    pub fn rebind_in(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        let _g = obs::span!("plan", "plan.rebind");
        let (resolved, stats) =
            Self::analyze(a, b, self.requested, self.order, pool, self.row_patched)?;
        if resolved != self.algo || pool.nthreads() != self.nthreads {
            // The workspace pool holds the wrong accumulator type (or
            // the wrong number of slots); rebuild it.
            self.kernel = PlanKernel::new(resolved, pool.nthreads());
            self.algo = resolved;
            self.nthreads = pool.nthreads();
        }
        self.stats = stats;
        self.dims = (a.nrows(), a.ncols(), b.ncols());
        self.a_nnz = a.nnz();
        self.b_nnz = b.nnz();
        // Rebinding implies reuse intent: always fingerprint.
        self.sigs = Some(signatures(a, b));
        self.bind_kernel(a, b, pool);
        Ok(())
    }

    /// Incremental rebind after a row-granular edit of the operands:
    /// re-run the symbolic phase for **only** the output rows whose
    /// inputs changed — the ordinary symbolic pass on the whole pool,
    /// masked so every other row keeps its cached count — and return
    /// the invalidated output-row set, the argument
    /// [`SpgemmPlan::execute_rows`] expects next.
    ///
    /// `dirty_a` / `dirty_b` name the rows of the *new* `a` / `b`
    /// that differ (structurally or in values) from the operands the
    /// plan is currently bound to — exactly what
    /// [`Csr::apply_patch`](spgemm_sparse::Csr::apply_patch) returns.
    /// Rows outside the dirty sets must match the bound version
    /// byte-for-byte; that contract is what makes the splice exact.
    /// Output rows are invalidated per the row-wise dependency
    /// `out = dirty_a ∪ {i : A[i] ∩ dirty_b ≠ ∅}` ([`rows_touching`]: a
    /// stateless scan of the new `a`; the plan keeps no per-edit state).
    ///
    /// Falls back to a full [`SpgemmPlan::rebind`] — returning
    /// `DirtyRows::all` — whenever incremental repair is impossible:
    /// shape changes, the sequential `Reference` oracle, a pool-width
    /// change, or a one-phase plan whose first (staged) execution
    /// hasn't happened yet. Either way the plan afterwards is
    /// indistinguishable from one rebound from scratch — with one
    /// exception that only shortens later edits: an `Auto` plan keeps
    /// its resolved kernel across row patches, and once it has been
    /// row-patched every full rebind resolves `Auto` among two-phase
    /// kernels (`Hash` where the model would say `Heap`), so a
    /// one-phase pick costs one full batch, not one per rebind.
    ///
    /// ```
    /// use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
    /// use spgemm_sparse::{Csr, PlusTimes, RowPatch};
    ///
    /// let a = Csr::<f64>::identity(100);
    /// let mut plan =
    ///     SpgemmPlan::<PlusTimes<f64>>::new(&a, &a, Algorithm::Hash, OutputOrder::Sorted)?;
    /// let mut c = plan.execute(&a, &a)?;
    ///
    /// let mut patch = RowPatch::new();
    /// patch.insert(7, 3, 2.0);
    /// let (a2, dirty) = a.apply_patch(&patch)?;
    ///
    /// let out = plan.rebind_rows(&a2, &a2, &dirty, &dirty)?;
    /// assert_eq!(out.count(), 1, "only output row 7 consumes the edit");
    /// plan.execute_rows(&a2, &a2, &out, &mut c)?;
    /// assert_eq!(c.get(7, 3), Some(&4.0));
    /// # Ok::<(), spgemm_sparse::SparseError>(())
    /// ```
    pub fn rebind_rows(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        dirty_a: &DirtyRows,
        dirty_b: &DirtyRows,
    ) -> Result<DirtyRows, SparseError> {
        self.rebind_rows_in(a, b, dirty_a, dirty_b, spgemm_par::global_pool())
    }

    /// [`SpgemmPlan::rebind_rows`] on an explicit pool.
    pub fn rebind_rows_in(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        dirty_a: &DirtyRows,
        dirty_b: &DirtyRows,
        pool: &Pool,
    ) -> Result<DirtyRows, SparseError> {
        let _g = obs::span!("delta", "delta.rebind_rows");
        if dirty_a.nrows() != a.nrows() || dirty_b.nrows() != b.nrows() {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "rebind_rows: dirty universes ({}, {}) don't match operand rows ({}, {})",
                    dirty_a.nrows(),
                    dirty_b.nrows(),
                    a.nrows(),
                    b.nrows()
                ),
            });
        }
        self.row_patched = true;
        // An `Auto` plan keeps the kernel it resolved to: what the
        // dense-accumulator rule reads (dimensions, element size, L2
        // share) is invariant under a row patch, and re-deriving the
        // flop statistics of the other branch is a full analysis.
        let incremental = self.sigs.is_some()
            && self.dims == (a.nrows(), a.ncols(), b.ncols())
            && a.ncols() == b.nrows()
            && self.algo != Algorithm::Reference
            && pool.nthreads() == self.nthreads
            && self.symbolic.get_mut().is_some();
        if !incremental {
            self.rebind_in(a, b, pool)?;
            return Ok(DirtyRows::all(a.nrows()));
        }
        if self.algo.requires_sorted_inputs() && (!a.is_sorted() || !b.is_sorted()) {
            return Err(SparseError::Unsorted {
                op: match self.algo {
                    Algorithm::Heap => "Heap SpGEMM",
                    _ => "Merge SpGEMM",
                },
            });
        }

        let out_dirty = rows_touching(a, dirty_b, dirty_a.clone());

        // Per-row flops change exactly on the invalidated rows (a
        // clean row's A pattern and consumed B row sizes are both
        // unchanged); the partition is then re-derived the same way
        // `exec::plan` does, so it matches a fresh plan's.
        for i in out_dirty.iter() {
            self.stats.row_flops[i] = exec::row_flop(a, b, i);
        }
        self.stats.repartition(pool);
        // RowClass: edited rows may have crossed a class boundary and
        // the partition may have shifted (`O(nrows + nnz)` — cheaper
        // than the `O(nnz)` re-analysis a full rebind pays, and the
        // per-row re-counts below stay incremental).
        self.bind_row_classes(a, b);

        // The symbolic pass under the mask: invalidated rows are
        // re-counted (and re-emitted) by the kernel, clean rows keep
        // their cached count (and pattern).
        let old_sym = self
            .symbolic
            .get_mut()
            .take()
            .expect("incremental gate checked symbolic presence");
        let sym = self.run_symbolic(a, b, pool, Some((&out_dirty, &old_sym.rpts[..])));
        *self.symbolic.get_mut() = Some(Arc::new(sym));

        self.a_nnz = a.nnz();
        self.b_nnz = b.nnz();
        self.sigs = Some(signatures(a, b));
        if obs::enabled() {
            static RESYM: obs::CounterSite =
                obs::CounterSite::new("delta", "delta.rows_resymbolized");
            RESYM.add(out_dirty.count() as u64);
        }
        Ok(out_dirty)
    }

    /// Recompute **only** the rows in `dirty` of the product, reusing
    /// every clean row's bytes from `c` (the product of the previous
    /// execution), and store the spliced result back into `c`.
    ///
    /// Companion to [`SpgemmPlan::rebind_rows`]: pass the dirty set it
    /// returned, with `c` holding the pre-edit product. The result is
    /// byte-for-byte what a full [`SpgemmPlan::execute`] would produce
    /// — it is the ordinary numeric pass on the whole pool under
    /// `dirty` as a mask: each worker computes the dirty rows of its
    /// range with the kernel's per-row numeric path and copies the
    /// clean ones (their inputs are untouched by contract). A `c`
    /// whose clean rows don't have the planned lengths is rejected
    /// with [`SparseError::PlanMismatch`] before anything is written.
    pub fn execute_rows(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        dirty: &DirtyRows,
        c: &mut Csr<S::Elem>,
    ) -> Result<(), SparseError> {
        self.execute_rows_in(a, b, dirty, c, spgemm_par::global_pool())
    }

    /// [`SpgemmPlan::execute_rows`] on an explicit pool.
    pub fn execute_rows_in(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        dirty: &DirtyRows,
        c: &mut Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        let _g = obs::span!("delta", "delta.execute_rows");
        self.check(a, b, pool)?;
        if dirty.nrows() != self.dims.0 {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "execute_rows: dirty universe {} doesn't match output rows {}",
                    dirty.nrows(),
                    self.dims.0
                ),
            });
        }
        if matches!(self.kernel, PlanKernel::Reference) {
            *c = crate::algos::reference::multiply::<S>(a, b);
            return Ok(());
        }
        let Some(sym) = self.symbolic.lock().as_ref().map(Arc::clone) else {
            // One-phase plan before its staged first run: nothing
            // cached to splice against, so execute in full.
            return self.execute_into_in(a, b, c, pool);
        };
        let (m, _, n) = self.dims;
        let sorted = self.output_is_sorted();
        let full = dirty.count() == m;
        if !full && (c.nrows() != m || c.ncols() != n || c.is_sorted() != sorted) {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "execute_rows: cached product is {}x{} (sorted: {}) but the plan \
                     produces {}x{} (sorted: {})",
                    c.nrows(),
                    c.ncols(),
                    c.is_sorted(),
                    m,
                    n,
                    sorted
                ),
            });
        }
        let planned_nnz = |i: usize| sym.rpts[i + 1] - sym.rpts[i];
        if let Some(i) = (0..m).find(|&i| !dirty.contains(i) && c.row_nnz(i) != planned_nnz(i)) {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "execute_rows: clean row {i} has {} entries in the cached \
                     product but {} in the plan; the cached product is stale",
                    c.row_nnz(i),
                    planned_nnz(i)
                ),
            });
        }
        // With every row dirty there is nothing to keep: the full pass.
        let mask = (!full).then_some((dirty, &*c));
        let mut cols = vec![0 as ColIdx; sym.nnz];
        let mut vals = vec![S::zero(); sym.nnz];
        self.run_numeric(a, b, &sym.rpts, pool, &mut cols, &mut vals, mask);
        *c = Csr::from_parts_unchecked(m, n, sym.rpts.to_vec(), cols, vals, sorted);
        if obs::enabled() {
            static RECOMP: obs::CounterSite =
                obs::CounterSite::new("delta", "delta.rows_recomputed");
            RECOMP.add(dirty.count() as u64);
        }
        Ok(())
    }

    /// The resolved, concrete algorithm this plan runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algo
    }

    /// The requested output order.
    pub fn output_order(&self) -> OutputOrder {
        self.order
    }

    /// The work analysis backing the plan's row partition (empty for
    /// the sequential `Reference` oracle, which has no partition).
    pub fn stats(&self) -> &MultiplyStats {
        &self.stats
    }

    /// Worker-thread count the plan (and its workspaces) is sized for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// `nnz(C)` once known: immediately for two-phase algorithms,
    /// after the first execution for one-phase ones (`None` before).
    pub fn symbolic_nnz(&self) -> Option<usize> {
        self.symbolic.lock().as_ref().map(|s| s.nnz)
    }

    /// The product's row pointers once known (same availability as
    /// [`SpgemmPlan::symbolic_nnz`]) — where
    /// [`SpgemmPlan::execute_into_slices_in`] places each row.
    pub fn symbolic_row_ptrs(&self) -> Option<Vec<usize>> {
        self.symbolic.lock().as_ref().map(|s| s.rpts.clone())
    }

    /// Reuse counters of the pooled per-thread accumulators. In steady
    /// state `created` stays at the number of workers that ran while
    /// `reused` grows with every phase — the pool-level statement of
    /// "zero allocations per execute".
    pub fn workspace_stats(&self) -> WorkspaceStats {
        if matches!(self.kernel, PlanKernel::Reference) {
            return WorkspaceStats::default();
        }
        with_kernel!(self, |w| w.slots.stats())
    }

    /// Whether the plan's full numeric passes replay its column pattern
    /// (module docs): the dense kernel over a seeded semiring, once
    /// bound.
    #[doc(hidden)]
    pub fn replays(&self) -> bool {
        matches!(&self.kernel, PlanKernel::Spa(w) if w.shared.is_some())
    }

    /// Heap bytes of what the plan holds about its product, beyond the
    /// pooled accumulators: the work analysis (per-row flops, the
    /// partition), the row pointers once known, RowClass's queues and
    /// index copies, and — if it replays — the column pattern at its
    /// width. What a plan cache charges an idle plan.
    pub fn owned_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let stats = size_of_val(&self.stats.row_flops[..]) + size_of_val(&self.stats.offsets[..]);
        let rpts = self
            .symbolic
            .lock()
            .as_ref()
            .map_or(0, |sym| size_of_val(&sym.rpts[..]));
        let kernel = match &self.kernel {
            PlanKernel::RowClass(w) => w.shared.bytes(),
            PlanKernel::Spa(w) => w.shared.as_ref().map_or(0, Pattern::bytes),
            _ => 0,
        };
        stats + rpts + kernel
    }

    /// Whether `(a, b)` share the exact sparsity structure this plan
    /// was built for (shape, nnz and FNV fingerprint of row pointers +
    /// column indices — values are free to differ). Always `false` for
    /// plans built without a fingerprint (the internal one-shot path).
    pub fn matches_structure(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> bool {
        let Some((planned_a, planned_b)) = self.sigs else {
            return false;
        };
        if self.dims != (a.nrows(), a.ncols(), b.ncols())
            || self.a_nnz != a.nnz()
            || self.b_nnz != b.nnz()
        {
            return false;
        }
        let (a_sig, b_sig) = signatures(a, b);
        planned_a == a_sig && planned_b == b_sig
    }

    /// Cheap per-execute guards: shapes, nnz, input-sortedness
    /// contracts, pool width. The full structural fingerprint is *not*
    /// recomputed here (that would cost `O(nnz)` per execute and eat
    /// the amortization the plan exists to provide); callers that
    /// substitute operands between executes should gate on
    /// [`SpgemmPlan::matches_structure`] or use a [`PlanCache`].
    fn check(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) -> Result<(), SparseError> {
        if self.dims != (a.nrows(), a.ncols(), b.ncols()) || a.ncols() != b.nrows() {
            return Err(SparseError::ShapeMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "plan execute",
            });
        }
        if self.a_nnz != a.nnz() || self.b_nnz != b.nnz() {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "operand nnz ({}, {}) differ from planned ({}, {}); rebind the plan",
                    a.nnz(),
                    b.nnz(),
                    self.a_nnz,
                    self.b_nnz
                ),
            });
        }
        if self.algo.requires_sorted_inputs() && (!a.is_sorted() || !b.is_sorted()) {
            return Err(SparseError::Unsorted {
                op: match self.algo {
                    Algorithm::Heap => "Heap SpGEMM",
                    _ => "Merge SpGEMM",
                },
            });
        }
        if pool.nthreads() != self.nthreads {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "plan sized for {} threads but pool has {}",
                    self.nthreads,
                    pool.nthreads()
                ),
            });
        }
        Ok(())
    }

    /// The sorted-flag (and per-row extraction order) of this plan's
    /// outputs: kernels with inherently sorted output ignore the
    /// request, everyone else honours it.
    fn output_is_sorted(&self) -> bool {
        match self.algo {
            Algorithm::Heap | Algorithm::Merge | Algorithm::Reference => true,
            _ => self.order.is_sorted(),
        }
    }

    /// Numeric-only multiply into a fresh output matrix (global pool).
    pub fn execute(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> Result<Csr<S::Elem>, SparseError> {
        self.execute_in(a, b, spgemm_par::global_pool())
    }

    /// [`SpgemmPlan::execute`] on an explicit pool.
    pub fn execute_in(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<Csr<S::Elem>, SparseError> {
        self.check(a, b, pool)?;
        if matches!(self.kernel, PlanKernel::Reference) {
            return Ok(crate::algos::reference::multiply::<S>(a, b));
        }
        match self.symbolic_state(a, b, pool) {
            FirstRun::Done(c) => Ok(self.finish_first(c)),
            FirstRun::Ready(sym) => {
                let (m, _, n) = self.dims;
                let mut cols = vec![0 as ColIdx; sym.nnz];
                let mut vals = vec![S::zero(); sym.nnz];
                self.run_numeric(a, b, &sym.rpts, pool, &mut cols, &mut vals, None);
                Ok(Csr::from_parts_unchecked(
                    m,
                    n,
                    sym.rpts.clone(),
                    cols,
                    vals,
                    self.output_is_sorted(),
                ))
            }
        }
    }

    /// Numeric-only multiply into a reused output matrix (global
    /// pool). See [`SpgemmPlan::execute_into_in`].
    pub fn execute_into(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        c: &mut Csr<S::Elem>,
    ) -> Result<(), SparseError> {
        self.execute_into_in(a, b, c, spgemm_par::global_pool())
    }

    /// Numeric-only multiply overwriting `c` in place, reusing its
    /// allocations. After a warm-up execution has sized `c`'s buffers
    /// (and the pooled accumulators), this path performs **zero heap
    /// allocations** for every two-phase algorithm — the steady state
    /// of the paper's Figure 4 "parallel + reuse" scheme.
    pub fn execute_into_in(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        c: &mut Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        self.check(a, b, pool)?;
        if matches!(self.kernel, PlanKernel::Reference) {
            *c = crate::algos::reference::multiply::<S>(a, b);
            return Ok(());
        }
        match self.symbolic_state(a, b, pool) {
            FirstRun::Done(done) => {
                *c = self.finish_first(done);
            }
            FirstRun::Ready(sym) => {
                let (m, _, n) = self.dims;
                let sorted = self.output_is_sorted();
                c.prepare_overwrite(m, n, sym.nnz, S::zero(), sorted);
                let (rpts_mut, cols_mut, vals_mut) = c.raw_parts_mut();
                rpts_mut.copy_from_slice(&sym.rpts);
                self.numeric_into_slices(a, b, &sym, cols_mut, vals_mut, pool)?;
                debug_assert!(c.validate().is_ok(), "planned numeric pass built bad CSR");
            }
        }
        Ok(())
    }

    /// Numeric-only multiply into caller-owned output arrays: row `i`
    /// of the product lands at `rpts[i]..rpts[i + 1]` of `cols` /
    /// `vals`, with `rpts` = [`SpgemmPlan::symbolic_row_ptrs`], and
    /// both slices must be exactly [`SpgemmPlan::symbolic_nnz`] long.
    /// This is the numeric pass under [`SpgemmPlan::execute_into_in`],
    /// for callers that own a window of a larger output (the shard
    /// runtime writes each shard's rows straight into the final `C`).
    ///
    /// Fails with [`SparseError::PlanMismatch`] while the row
    /// structure is not known yet — a one-phase plan before its first
    /// execution, or the `Reference` oracle, which never has one.
    pub fn execute_into_slices_in(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        self.check(a, b, pool)?;
        let sym = self.symbolic.lock().as_ref().map(Arc::clone);
        let Some(sym) = sym else {
            return Err(SparseError::PlanMismatch {
                detail: "execute_into_slices: the plan's row structure is not known yet \
                         (one-phase plan before its first execution)"
                    .into(),
            });
        };
        self.numeric_into_slices(a, b, &sym, cols, vals, pool)
    }

    /// Length-checked numeric pass into `cols` / `vals` at the
    /// symbolic row pointers.
    fn numeric_into_slices(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        sym: &SymbolicPlan,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        if cols.len() != sym.nnz || vals.len() != sym.nnz {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "output slices hold ({}, {}) entries but the plan produces {}",
                    cols.len(),
                    vals.len(),
                    sym.nnz
                ),
            });
        }
        self.run_numeric(a, b, &sym.rpts, pool, cols, vals, None);
        Ok(())
    }

    /// Get the symbolic structure, running the deferred staged first
    /// execution if this is a one-phase plan's first use.
    fn symbolic_state(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) -> FirstRun<S::Elem> {
        let mut guard = self.symbolic.lock();
        if let Some(sym) = guard.as_ref() {
            return FirstRun::Ready(Arc::clone(sym));
        }
        let c = self.run_staged(a, b, pool);
        *guard = Some(Arc::new(SymbolicPlan {
            rpts: c.rpts().to_vec(),
            nnz: c.nnz(),
        }));
        FirstRun::Done(c)
    }

    /// Post-process a staged first run: Inspector's one-phase kernel
    /// is inherently unsorted, so honour an explicit `Sorted` request
    /// by paying the sort, exactly as the one-shot path always has.
    fn finish_first(&self, mut c: Csr<S::Elem>) -> Csr<S::Elem> {
        if matches!(self.algo, Algorithm::Inspector) && self.order.is_sorted() {
            c.sort_rows();
        }
        c
    }

    /// The symbolic pass over the planned partition (under `mask`,
    /// only its dirty rows are re-counted). The dense kernel over a
    /// seeded semiring also emits its pattern.
    fn run_symbolic(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
        mask: Option<RowMask<'_, [usize]>>,
    ) -> SymbolicPlan {
        let _g = obs::span!("plan", "plan.symbolic");
        let sorted = self.output_is_sorted();
        if let (PlanKernel::Spa(w), Some(_)) = (&mut self.kernel, S::seed()) {
            REPLAY_CAPTURES.incr();
            let (rpts, nnz) = spa::emit_pass(w, a, b, &self.stats, pool, sorted, mask);
            return SymbolicPlan { rpts, nnz };
        }
        let stats = &self.stats;
        let (rpts, nnz) = with_kernel!(self, |w| exec::symbolic_pass(w, a, b, stats, pool, mask));
        SymbolicPlan { rpts, nnz }
    }

    /// The numeric pass into pre-sliced output (under `mask`, only its
    /// dirty rows are computed; the rest are copied). A full pass of a
    /// plan that holds its pattern is a replay.
    #[allow(clippy::too_many_arguments)]
    fn run_numeric(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        rpts: &[usize],
        pool: &Pool,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        mask: Option<RowMask<'_, Csr<S::Elem>>>,
    ) {
        let _g = obs::span!("plan", "plan.numeric");
        count_execute(self.algo);
        if mask.is_none() && self.replays() {
            REPLAY_PASSES.incr();
        }
        let (stats, sorted) = (&self.stats, self.output_is_sorted());
        with_kernel!(self, |w| exec::numeric_pass(
            w, a, b, stats, rpts, sorted, pool, cols, vals, mask
        ));
    }

    /// One-phase staged first execution (Heap / Inspector), drawing
    /// its per-thread kernels from the plan's workers so later numeric
    /// passes reuse them.
    fn run_staged(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) -> Csr<S::Elem> {
        let _g = obs::span!("plan", "plan.staged");
        count_execute(self.algo);
        match &self.kernel {
            PlanKernel::Heap(w) => exec::staged_pass(w, a, b, &self.stats, pool, true),
            PlanKernel::Inspector(w) => exec::staged_pass(w, a, b, &self.stats, pool, false),
            _ => unreachable!("only one-phase kernels defer their first run"),
        }
    }
}

/// Whether `algo` runs one-phase: no symbolic pass at bind (it would
/// pay a second pass it is designed to skip); the row structure is
/// captured by the first execution — never, for the sequential oracle.
fn defers_symbolic(algo: Algorithm) -> bool {
    matches!(
        algo,
        Algorithm::Heap | Algorithm::Inspector | Algorithm::Reference
    )
}

/// Per-algorithm execution counters (`plan/plan.exec.*`): one bump
/// per numeric or staged pass, keyed by the plan's *resolved* kernel
/// — the runtime census behind per-kernel profiles (paper fig15).
fn count_execute(algo: Algorithm) {
    if obs::enabled() {
        crate::count_algorithm!("plan.exec.", algo);
    }
}

/// Counters of one [`PlanCache`]'s reuse behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Multiplies served by the cached plan unchanged (structure
    /// matched: numeric-only execution).
    pub hits: u64,
    /// Multiplies that had to (re)build the symbolic plan — the first
    /// call plus every structure change. Pooled accumulators survive
    /// rebuilds.
    pub rebuilds: u64,
}

/// A single-entry plan cache for iterative workloads whose operand
/// structure *may* change between products (MCL pruning, adaptive
/// methods). Each multiply fingerprints the operands: a match executes
/// the cached plan numeric-only; a miss rebinds the plan — keeping its
/// pooled per-thread accumulators — and re-runs symbolic once.
///
/// ```
/// use spgemm::{Algorithm, OutputOrder, PlanCache};
/// use spgemm_sparse::{Csr, PlusTimes};
///
/// let a = Csr::<f64>::identity(6);
/// let mut cache = PlanCache::<PlusTimes<f64>>::new(Algorithm::Hash, OutputOrder::Sorted);
/// for _ in 0..3 {
///     let c = cache.multiply(&a, &a)?;
///     assert_eq!(c.nnz(), 6);
/// }
/// assert_eq!(cache.stats().rebuilds, 1);
/// assert_eq!(cache.stats().hits, 2);
/// # Ok::<(), spgemm_sparse::SparseError>(())
/// ```
pub struct PlanCache<S: Semiring> {
    algo: Algorithm,
    order: OutputOrder,
    plan: Option<SpgemmPlan<S>>,
    stats: PlanCacheStats,
}

impl<S: Semiring> PlanCache<S> {
    /// An empty cache that will plan with `algo` / `order`.
    pub fn new(algo: Algorithm, order: OutputOrder) -> Self {
        PlanCache {
            algo,
            order,
            plan: None,
            stats: PlanCacheStats::default(),
        }
    }

    /// The plan for `(a, b)`: the cached one when the structure
    /// matches, otherwise a rebind (or first build).
    pub fn plan_for(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<&SpgemmPlan<S>, SparseError> {
        let reusable = self
            .plan
            .as_ref()
            .is_some_and(|p| p.nthreads() == pool.nthreads() && p.matches_structure(a, b));
        if reusable {
            self.stats.hits += 1;
        } else {
            self.stats.rebuilds += 1;
            match self.plan.as_mut() {
                Some(p) => p.rebind_in(a, b, pool)?,
                None => self.plan = Some(SpgemmPlan::new_in(a, b, self.algo, self.order, pool)?),
            }
        }
        Ok(self.plan.as_ref().expect("plan installed above"))
    }

    /// The cached plan as it stands — no fingerprinting, no counting.
    pub fn cached(&self) -> Option<&SpgemmPlan<S>> {
        self.plan.as_ref()
    }

    /// Multiply through the cache on an explicit pool.
    pub fn multiply_in(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<Csr<S::Elem>, SparseError> {
        self.plan_for(a, b, pool)?.execute_in(a, b, pool)
    }

    /// Multiply through the cache on the process-global pool.
    pub fn multiply(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
    ) -> Result<Csr<S::Elem>, SparseError> {
        self.multiply_in(a, b, spgemm_par::global_pool())
    }

    /// Hit/rebuild counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    fn sample() -> Csr<f64> {
        Csr::from_triplets(
            5,
            5,
            &[
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (2, 0, 4.0),
                (2, 2, 0.5),
                (3, 4, 3.0),
                (4, 1, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn plan_matches_oneshot_for_every_algorithm() {
        let a = sample();
        let pool = Pool::new(2);
        for algo in Algorithm::ALL {
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).unwrap();
                let expect = crate::multiply_in::<P>(&a, &a, algo, order, &pool).unwrap();
                for round in 0..3 {
                    let got = plan.execute_in(&a, &a, &pool).unwrap();
                    assert_eq!(expect, got, "{algo} {order:?} round {round}");
                }
            }
        }
    }

    #[test]
    fn execute_into_reuses_and_stays_correct() {
        let a = sample();
        let pool = Pool::new(3);
        let plan =
            SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let expect = reference::multiply::<P>(&a, &a);
        let mut c = Csr::<f64>::zero(0, 0);
        for _ in 0..4 {
            plan.execute_into_in(&a, &a, &mut c, &pool).unwrap();
            assert!(approx_eq_f64(&expect, &c, 1e-12));
            assert!(c.validate().is_ok());
        }
        let st = plan.workspace_stats();
        assert!(st.created <= 3, "one accumulator per worker: {st:?}");
        assert!(st.reused >= 3, "later passes must reuse: {st:?}");
    }

    #[test]
    fn symbolic_nnz_eager_vs_deferred() {
        let a = sample();
        let pool = Pool::new(2);
        let eager =
            SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        assert!(eager.symbolic_nnz().is_some());
        let one_phase =
            SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Heap, OutputOrder::Sorted, &pool).unwrap();
        assert_eq!(one_phase.symbolic_nnz(), None, "deferred until first run");
        let c = one_phase.execute_in(&a, &a, &pool).unwrap();
        assert_eq!(one_phase.symbolic_nnz(), Some(c.nnz()));
    }

    #[test]
    fn execute_into_slices_matches_execute_and_checks_its_contract() {
        let a = sample();
        let pool = Pool::new(2);
        for algo in [Algorithm::Hash, Algorithm::Spa, Algorithm::Heap] {
            let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, OutputOrder::Sorted, &pool).unwrap();
            if algo == Algorithm::Heap {
                // One-phase: no row structure before the first run.
                let early = plan.execute_into_slices_in(&a, &a, &mut [], &mut [], &pool);
                assert!(matches!(early, Err(SparseError::PlanMismatch { .. })));
            }
            let want = plan.execute_in(&a, &a, &pool).unwrap();
            assert_eq!(plan.symbolic_row_ptrs().as_deref(), Some(want.rpts()));
            let (mut cols, mut vals) = (vec![0; want.nnz()], vec![f64::NAN; want.nnz()]);
            plan.execute_into_slices_in(&a, &a, &mut cols, &mut vals, &pool)
                .unwrap();
            assert_eq!(
                (cols.as_slice(), vals.as_slice()),
                (want.cols(), want.vals())
            );
            let short = plan.execute_into_slices_in(&a, &a, &mut cols[1..], &mut vals, &pool);
            assert!(matches!(short, Err(SparseError::PlanMismatch { .. })));
        }
    }

    #[test]
    fn plan_rejects_mismatched_operands() {
        let a = sample();
        let pool = Pool::new(2);
        let plan =
            SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let wrong_shape = Csr::<f64>::identity(4);
        assert!(matches!(
            plan.execute_in(&wrong_shape, &wrong_shape, &pool),
            Err(SparseError::ShapeMismatch { .. })
        ));
        let wrong_nnz = Csr::<f64>::identity(5);
        assert!(matches!(
            plan.execute_in(&wrong_nnz, &wrong_nnz, &pool),
            Err(SparseError::PlanMismatch { .. })
        ));
        let other_pool = Pool::new(4);
        assert!(matches!(
            plan.execute_in(&a, &a, &other_pool),
            Err(SparseError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn values_may_change_under_fixed_structure() {
        let a = sample();
        let pool = Pool::new(2);
        let plan =
            SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
        let scaled = a.map(|v| v * -2.5);
        let got = plan.execute_in(&scaled, &scaled, &pool).unwrap();
        let expect = reference::multiply::<P>(&scaled, &scaled);
        assert!(approx_eq_f64(&expect, &got, 1e-12));
    }

    #[test]
    fn matches_structure_ignores_values_only() {
        let a = sample();
        let plan = SpgemmPlan::<P>::new(&a, &a, Algorithm::Hash, OutputOrder::Sorted).unwrap();
        let scaled = a.map(|v| v * 2.0);
        assert!(plan.matches_structure(&scaled, &scaled));
        let b = a.filter(|_, _, v| v > 0.0);
        assert!(!plan.matches_structure(&b, &b));
    }

    #[test]
    fn cache_hits_on_stable_structure_and_rebinds_on_change() {
        let pool = Pool::new(2);
        let mut cache = PlanCache::<P>::new(Algorithm::Hash, OutputOrder::Sorted);
        let a = sample();
        for _ in 0..3 {
            let got = cache.multiply_in(&a, &a, &pool).unwrap();
            assert!(approx_eq_f64(
                &reference::multiply::<P>(&a, &a),
                &got,
                1e-12
            ));
        }
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 2,
                rebuilds: 1
            }
        );
        // disjoint pattern: forces a rebind, workspaces carry over
        let b = Csr::from_triplets(5, 5, &[(0, 4, 1.0), (4, 0, 1.0), (2, 3, 7.0)]).unwrap();
        let got = cache.multiply_in(&b, &b, &pool).unwrap();
        assert!(approx_eq_f64(
            &reference::multiply::<P>(&b, &b),
            &got,
            1e-12
        ));
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 2,
                rebuilds: 2
            }
        );
    }
}
