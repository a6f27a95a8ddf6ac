//! Inspector–executor SpGEMM: [`SpgemmPlan`] and [`PlanCache`].
//!
//! The paper's fastest kernels are two-phase — a symbolic pass sizes
//! each output row, a numeric pass fills exactly-allocated storage —
//! and its Figure 4 shows allocation/deallocation dominating runtime
//! when products repeat, as they do in MCL expansion, AMG re-setup
//! and multi-round graph algorithms. A [`SpgemmPlan`] factors a
//! multiply accordingly:
//!
//! * **Plan once** (`SpgemmPlan::new_in`): per-row flop counts, the
//!   flop-balanced row partition of §4.1, the resolved algorithm, and
//!   the symbolic pass producing the output row pointers. A plan is
//!   fully bound when built, whatever its kernel: a bound plan is
//!   immutable under `&self`, and its executions take no lock.
//! * **Execute many** (`execute_in` / `execute_into_in`): numeric-only
//!   passes over matrices with the *same sparsity structure*. All
//!   per-thread accumulators live in a
//!   [`spgemm_par::WorkspacePool`] owned by the plan, so the steady
//!   state performs **zero heap allocations** when writing into a
//!   reused output via [`SpgemmPlan::execute_into_in`].
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
//! dist shards, which default to `Auto`) — replays it: copy the
//! pattern into the output, then per row a branch-free scatter and a
//! gather along the row's own columns. No stamp, no touched list, no
//! bitmap, no sort; the `k`-order of every sum and the emit order are
//! the stamped pass's, so the output is byte-identical by construction
//! (`algos::spa`).
//!
//! Every bind emits — [`SpgemmPlan::new_in`], [`SpgemmPlan::rebind_in`] and
//! with it every [`PlanCache`] / `ExprPlan` rebind, into fresh
//! segments once the previous pattern is dropped — and
//! [`SpgemmPlan::rebind_rows_in`] emits
//! its dirty rows and copies the clean ones from the old pattern, so a
//! row-patched plan keeps replaying. What never replays: plans that
//! name any other kernel (they keep measuring that kernel), a semiring
//! without a seed, and the dirty rows of `execute_rows`, which the
//! stamped accumulator recomputes. There is no switch: the rule is
//! "dense kernel, seeded semiring".
//!
//! Every kernel is two-phase here, the paper's one-phase ones too:
//! Heap's symbolic pass is its heap merge counting columns, and a
//! planned `Inspector` is the `Hash` kernel (its
//! [`SpgemmPlan::algorithm`] still says `Inspector`). A one-shot
//! [`crate::multiply_in`] is a throwaway plan and one execution
//! (`multiply_oneshot`), so it equals the plan's product bit for bit.
//! Staging rows into flop-bound per-thread buffers instead of running
//! the symbolic pass (§4.2.3's one-phase trade) is a measurement of the
//! paper's, not a path of the stack: `spgemm-bench`'s Fig. 9 driver
//! runs it. The sequential `Reference` oracle has no symbolic pass:
//! its plan binds the row pointers of one oracle run.
//!
//! [`PlanCache`] layers structure fingerprinting on top for workloads
//! whose pattern *drifts* (MCL prunes entries every round): it reuses
//! the plan verbatim while the pattern matches and rebinds — keeping
//! the pooled accumulators — when it changes.
//!
//! Every pass a plan runs — symbolic, numeric, and the same two under a
//! dirty mask for `rebind_rows` / `execute_rows` — is the single
//! implementation in `crate::exec`; the plan only decides *which*
//! accumulator type the passes are instantiated with.

use crate::algos::hash::{HashAccumulator, Linear};
use crate::algos::hashvec::{Chunked, HashVecAccumulator};
use crate::algos::heap::HeapKernel;
use crate::algos::ikj::IkjKernel;
use crate::algos::kkhash::KkHashAccumulator;
use crate::algos::merge::MergeAccumulator;
use crate::algos::spa::{self, Pattern, SpaAccumulator};
use crate::algos::{reference, simd};
use crate::delta::{rows_touching, DirtyRows};
use crate::exec::{self, MultiplyStats, RowMask, Workers};
use crate::kgen::{RowClassAccumulator, RowClassSpec};
use crate::{recipe, Algorithm, OutputOrder};
use spgemm_obs as obs;
use spgemm_par::{Pool, WorkspaceStats};
use spgemm_sparse::{ColIdx, Csr, Semiring, SparseError};

/// Structure fingerprints (shape, row pointers, column indices —
/// values excluded) of both operands. Each matrix memoizes its own, so
/// `A · A` and every product on operands already checked hash nothing.
fn signatures<T>(a: &Csr<T>, b: &Csr<T>) -> (u64, u64) {
    (a.structure_fingerprint(), b.structure_fingerprint())
}

/// The symbolic phase's result: output row pointers and total nnz.
#[derive(Default)]
struct SymbolicPlan {
    rpts: Vec<usize>,
    nnz: usize,
}

/// Per-algorithm pooled workers: each variant instantiates
/// [`Workers`] — and through it every pass of `crate::exec` — with
/// that kernel's accumulator type.
enum PlanKernel<S: Semiring> {
    /// Also a planned `Inspector`: the same table, run two-phase.
    Hash(Workers<S, HashAccumulator<S>>),
    HashVec(Workers<S, HashVecAccumulator<S>>),
    Heap(Workers<S, HeapKernel<S>>),
    Spa(Workers<S, SpaAccumulator<S>>),
    Merge(Workers<S, MergeAccumulator<S>>),
    KkHash(Workers<S, KkHashAccumulator<S>>),
    Ikj(Workers<S, IkjKernel<S>>),
    RowClass(Workers<S, RowClassAccumulator<S>>),
    Reference,
}

impl<S: Semiring> PlanKernel<S> {
    fn new(algo: Algorithm, nthreads: usize) -> Self {
        match algo {
            Algorithm::Hash | Algorithm::Inspector => {
                PlanKernel::Hash(Workers::new(nthreads, Linear))
            }
            Algorithm::HashVec => {
                PlanKernel::HashVec(Workers::new(nthreads, Chunked::new(simd::detect())))
            }
            Algorithm::Heap => PlanKernel::Heap(Workers::new(nthreads, ())),
            // The pattern is emitted with the operands.
            Algorithm::Spa => PlanKernel::Spa(Workers::new(nthreads, None)),
            Algorithm::Merge => PlanKernel::Merge(Workers::new(nthreads, ())),
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
/// by the passes before any kernel dispatch.)
macro_rules! with_kernel {
    ($plan:expr, |$w:ident| $body:expr) => {
        match &$plan.kernel {
            PlanKernel::Hash($w) => $body,
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

/// Patterns emitted (one per emitting bind) / full passes replayed,
/// over every plan (counted while `obs` is enabled, like
/// `plan.exec.*`).
static REPLAY_CAPTURES: obs::CounterSite = obs::CounterSite::new("plan", "plan.replay.captures");
static REPLAY_PASSES: obs::CounterSite = obs::CounterSite::new("plan", "plan.replay.passes");

/// A reusable two-phase execution plan for `C = A · B` over a fixed
/// sparsity structure.
///
/// Create once from the operands' structure on a caller-owned
/// [`Pool`], then run [`SpgemmPlan::execute_in`] (fresh output) or
/// [`SpgemmPlan::execute_into_in`] (reused output, allocation-free in
/// steady state) any number of times with matrices whose *values* may
/// change but whose *structure* must match the planned one. Use
/// [`SpgemmPlan::rebind_in`] or a [`PlanCache`] when the structure
/// changes.
///
/// ```
/// use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
/// use spgemm_par::Pool;
/// use spgemm_sparse::{Csr, PlusTimes};
///
/// let pool = Pool::new(2);
/// let a = Csr::<f64>::identity(8);
/// let plan =
///     SpgemmPlan::<PlusTimes<f64>>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool)?;
/// assert_eq!(plan.symbolic_nnz(), 8);
///
/// let mut c = plan.execute_in(&a, &a, &pool)?;
/// for _ in 0..10 {
///     plan.execute_into_in(&a, &a, &mut c, &pool)?; // numeric-only re-multiplies
/// }
/// assert_eq!(c.nnz(), 8);
/// # Ok::<(), spgemm_sparse::SparseError>(())
/// ```
pub struct SpgemmPlan<S: Semiring> {
    /// What the caller asked for (kept so [`SpgemmPlan::rebind_in`] can
    /// re-resolve `Auto` against the new structure).
    requested: Algorithm,
    /// The resolved, concrete algorithm.
    algo: Algorithm,
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
    symbolic: SymbolicPlan,
    kernel: PlanKernel<S>,
}

impl<S: Semiring> SpgemmPlan<S> {
    /// Plan `A · B` on `pool`. The plan is bound to the
    /// pool's thread count; executions must use a pool of the same
    /// width (usually the same pool).
    pub fn new_in(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        order: OutputOrder,
        pool: &Pool,
    ) -> Result<Self, SparseError> {
        let analysis = Self::analyze(a, b, algo, order, pool)?;
        Ok(Self::build(a, b, algo, analysis, order, pool, true))
    }

    /// Bind a plan of `algo` from its [`SpgemmPlan::analyze`] result.
    /// Without `fingerprint` the plan is for exactly one execution
    /// ([`SpgemmPlan::matches_structure`] will always report `false`).
    fn build(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        (resolved, stats): (Algorithm, MultiplyStats),
        order: OutputOrder,
        pool: &Pool,
        fingerprint: bool,
    ) -> Self {
        let mut plan = SpgemmPlan {
            requested: algo,
            algo: resolved,
            order,
            dims: (a.nrows(), a.ncols(), b.ncols()),
            a_nnz: a.nnz(),
            b_nnz: b.nnz(),
            sigs: fingerprint.then(|| signatures(a, b)),
            stats,
            nthreads: pool.nthreads(),
            symbolic: SymbolicPlan::default(),
            kernel: PlanKernel::new(resolved, pool.nthreads()),
        };
        plan.bind_kernel(a, b, pool);
        plan
    }

    /// Bind the kernel to the operands' structure once `stats` is
    /// current: RowClass's class queues, then the symbolic phase, which
    /// writes the dense kernel's pattern.
    fn bind_kernel(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) {
        self.bind_row_classes(a, b);
        self.symbolic = self.run_symbolic(a, b, pool, None);
    }

    /// RowClass plans only: re-derive the per-class work queues and
    /// re-gather the compressed column indices from `stats`.
    fn bind_row_classes(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) {
        if let PlanKernel::RowClass(w) = &mut self.kernel {
            w.shared = RowClassSpec::build(a, b, &self.stats);
        }
    }

    /// Validate shapes/contracts, analyze the work and resolve `Auto`
    /// (which reads the analysis); shared by [`SpgemmPlan::new_in`],
    /// [`SpgemmPlan::rebind_in`] and [`multiply_oneshot`].
    fn analyze(
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        algo: Algorithm,
        order: OutputOrder,
        pool: &Pool,
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
                recipe::resolve(&recipe::auto_context_from(a, b, order, &stats.row_flops))
            }
            other => other,
        };
        check_sorted_inputs(resolved, a, b)?;
        Ok((resolved, stats))
    }

    /// Re-plan for a *different* structure while keeping the pooled
    /// per-thread workspaces (which re-validate and grow on their next
    /// acquisition — see `exec::RowAccumulator`). This is the
    /// allocation-amortizing path for workloads whose pattern drifts
    /// between products; [`PlanCache`] calls it automatically.
    pub fn rebind_in(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        let _g = obs::span!("plan", "plan.rebind");
        let (resolved, stats) = Self::analyze(a, b, self.requested, self.order, pool)?;
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
    /// [`SpgemmPlan::execute_rows_in`] expects next.
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
    /// Falls back to a full [`SpgemmPlan::rebind_in`] — returning
    /// `DirtyRows::all` — whenever incremental repair is impossible:
    /// shape changes, the sequential `Reference` oracle, a pool-width
    /// change, or an `Auto` plan whose kernel a fresh bind on the
    /// patched operands would not pick (the footprint rule reads row
    /// skew and flop counts past the L2 share; within it, where
    /// [`recipe::entry_independent_pick`] names the kernel, nothing is
    /// re-read). Either way the plan afterwards is indistinguishable
    /// from one rebound from scratch.
    ///
    /// ```
    /// use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
    /// use spgemm_par::Pool;
    /// use spgemm_sparse::{Csr, PlusTimes, RowPatch};
    ///
    /// let pool = Pool::new(2);
    /// let a = Csr::<f64>::identity(100);
    /// let mut plan = SpgemmPlan::<PlusTimes<f64>>::new_in(
    ///     &a,
    ///     &a,
    ///     Algorithm::Hash,
    ///     OutputOrder::Sorted,
    ///     &pool,
    /// )?;
    /// let mut c = plan.execute_in(&a, &a, &pool)?;
    ///
    /// let mut patch = RowPatch::new();
    /// patch.insert(7, 3, 2.0);
    /// let (a2, dirty) = a.apply_patch(&patch)?;
    ///
    /// let out = plan.rebind_rows_in(&a2, &a2, &dirty, &dirty, &pool)?;
    /// assert_eq!(out.count(), 1, "only output row 7 consumes the edit");
    /// plan.execute_rows_in(&a2, &a2, &out, &mut c, &pool)?;
    /// assert_eq!(c.get(7, 3), Some(&4.0));
    /// # Ok::<(), spgemm_sparse::SparseError>(())
    /// ```
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
        let incremental = self.sigs.is_some()
            && self.dims == (a.nrows(), a.ncols(), b.ncols())
            && a.ncols() == b.nrows()
            && self.algo != Algorithm::Reference
            && pool.nthreads() == self.nthreads
            && self.keeps_auto_pick(a, b, dirty_a, dirty_b);
        if !incremental {
            self.rebind_in(a, b, pool)?;
            return Ok(DirtyRows::all(a.nrows()));
        }
        check_sorted_inputs(self.algo, a, b)?;

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
        let old = std::mem::take(&mut self.symbolic);
        self.symbolic = self.run_symbolic(a, b, pool, Some((&out_dirty, &old.rpts[..])));

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

    /// Whether a fresh bind on the patched operands would resolve to
    /// this plan's kernel: always for a named kernel and for an `Auto`
    /// plan whose kernel [`recipe::entry_independent_pick`] names;
    /// otherwise the footprint rule is re-read on the patched rows'
    /// flop counts (`O(nrows)`, against the full analysis's
    /// `O(nnz(A))`).
    fn keeps_auto_pick(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        dirty_a: &DirtyRows,
        dirty_b: &DirtyRows,
    ) -> bool {
        let elem_bytes = std::mem::size_of::<S::Elem>();
        if self.requested != Algorithm::Auto
            || recipe::entry_independent_pick(b.ncols(), elem_bytes) == Some(self.algo)
        {
            return true;
        }
        let mut row_flops = self.stats.row_flops.clone();
        for i in rows_touching(a, dirty_b, dirty_a.clone()).iter() {
            row_flops[i] = exec::row_flop(a, b, i);
        }
        let ctx = recipe::auto_context_from(a, b, self.order, &row_flops);
        recipe::static_select(&ctx) == self.algo
    }

    /// Recompute **only** the rows in `dirty` of the product, reusing
    /// every clean row's bytes from `c` (the product of the previous
    /// execution), and store the spliced result back into `c`.
    ///
    /// Companion to [`SpgemmPlan::rebind_rows_in`]: pass the dirty set it
    /// returned, with `c` holding the pre-edit product. The result is
    /// byte-for-byte what a full [`SpgemmPlan::execute_in`] would produce
    /// — it is the ordinary numeric pass on the whole pool under
    /// `dirty` as a mask: each worker computes the dirty rows of its
    /// range with the kernel's per-row numeric path and copies the
    /// clean ones (their inputs are untouched by contract). A `c`
    /// whose clean rows don't have the planned lengths is rejected
    /// with [`SparseError::PlanMismatch`] before anything is written.
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
        let sym = &self.symbolic;
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
        self.run_numeric(a, b, pool, &mut cols, &mut vals, mask);
        *c = Csr::from_parts_unchecked(m, n, sym.rpts.clone(), cols, vals, sorted);
        if obs::enabled() {
            static RECOMP: obs::CounterSite =
                obs::CounterSite::new("delta", "delta.rows_recomputed");
            RECOMP.add(dirty.count() as u64);
        }
        Ok(())
    }

    /// The resolved, concrete algorithm this plan runs (a planned
    /// `Inspector` runs it as the `Hash` kernel).
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

    /// `nnz(C)`, known from the bind.
    pub fn symbolic_nnz(&self) -> usize {
        self.symbolic.nnz
    }

    /// The product's row pointers, known from the bind — where
    /// [`SpgemmPlan::execute_into_slices_in`] places each row.
    pub fn symbolic_row_ptrs(&self) -> &[usize] {
        &self.symbolic.rpts
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
    /// partition), the row pointers, RowClass's queues and index copies,
    /// and — if it replays — the column pattern at its width. What a
    /// plan cache charges an idle plan.
    pub fn owned_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let stats = size_of_val(&self.stats.row_flops[..]) + size_of_val(&self.stats.offsets[..]);
        let rpts = size_of_val(&self.symbolic.rpts[..]);
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
        check_sorted_inputs(self.algo, a, b)?;
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

    /// Numeric-only multiply into a fresh output matrix.
    pub fn execute_in(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<Csr<S::Elem>, SparseError> {
        self.check(a, b, pool)?;
        let (m, _, n) = self.dims;
        let sym = &self.symbolic;
        let mut cols = vec![0 as ColIdx; sym.nnz];
        let mut vals = vec![S::zero(); sym.nnz];
        self.run_numeric(a, b, pool, &mut cols, &mut vals, None);
        let rpts = sym.rpts.clone();
        let sorted = self.output_is_sorted();
        Ok(Csr::from_parts_unchecked(m, n, rpts, cols, vals, sorted))
    }

    /// Numeric-only multiply overwriting `c` in place, reusing its
    /// allocations. After a warm-up execution has sized `c`'s buffers
    /// (and the pooled accumulators), this path performs **zero heap
    /// allocations** for every algorithm but the `Reference` oracle —
    /// the steady state of the paper's Figure 4 "parallel + reuse"
    /// scheme.
    pub fn execute_into_in(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        c: &mut Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        self.check(a, b, pool)?;
        let (m, _, n) = self.dims;
        c.prepare_overwrite(m, n, self.symbolic.nnz, S::zero(), self.output_is_sorted());
        let (rpts, cols, vals) = c.raw_parts_mut();
        rpts.copy_from_slice(&self.symbolic.rpts);
        self.run_numeric(a, b, pool, cols, vals, None);
        debug_assert!(c.validate().is_ok(), "planned numeric pass built bad CSR");
        Ok(())
    }

    /// Numeric-only multiply into caller-owned output arrays: row `i`
    /// of the product lands at `rpts[i]..rpts[i + 1]` of `cols` /
    /// `vals`, with `rpts` = [`SpgemmPlan::symbolic_row_ptrs`], and
    /// both slices must be exactly [`SpgemmPlan::symbolic_nnz`] long
    /// ([`SparseError::PlanMismatch`] otherwise). This is the numeric
    /// pass under [`SpgemmPlan::execute_into_in`], for callers that own
    /// a window of a larger output (the shard runtime writes each
    /// shard's rows straight into the final `C`).
    pub fn execute_into_slices_in(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        self.check(a, b, pool)?;
        let nnz = self.symbolic.nnz;
        if cols.len() != nnz || vals.len() != nnz {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "output slices hold ({}, {}) entries but the plan produces {nnz}",
                    cols.len(),
                    vals.len(),
                ),
            });
        }
        self.run_numeric(a, b, pool, cols, vals, None);
        Ok(())
    }

    /// The symbolic pass over the planned partition (under `mask`,
    /// only its dirty rows are re-counted). The dense kernel over a
    /// seeded semiring also emits its pattern; the sequential oracle,
    /// which has no symbolic pass, binds the row pointers of one run.
    fn run_symbolic(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
        mask: Option<RowMask<'_, [usize]>>,
    ) -> SymbolicPlan {
        let _g = obs::span!("plan", "plan.symbolic");
        if matches!(self.kernel, PlanKernel::Reference) {
            let (_, _, rpts, cols, ..) = reference::multiply::<S>(a, b).into_parts();
            let nnz = cols.len();
            return SymbolicPlan { rpts, nnz };
        }
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

    /// The numeric pass into output pre-sliced at the symbolic row
    /// pointers (under `mask`, only its dirty rows are computed; the
    /// rest are copied). A full pass of a plan that holds its pattern is
    /// a replay; the sequential oracle runs whole.
    fn run_numeric(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        mask: Option<RowMask<'_, Csr<S::Elem>>>,
    ) {
        let _g = obs::span!("plan", "plan.numeric");
        count_execute(self.algo);
        if matches!(self.kernel, PlanKernel::Reference) {
            let c = reference::multiply::<S>(a, b);
            cols.copy_from_slice(c.cols());
            vals.copy_from_slice(c.vals());
            return;
        }
        if mask.is_none() && self.replays() {
            REPLAY_PASSES.incr();
        }
        let (stats, rpts, sorted) = (&self.stats, &self.symbolic.rpts, self.output_is_sorted());
        with_kernel!(self, |w| exec::numeric_pass(
            w, a, b, stats, rpts, sorted, pool, cols, vals, mask
        ));
    }
}

/// The one-shot product `A · B` behind [`crate::multiply_in`]: the
/// sequential oracle runs as is; every kernel runs through a throwaway
/// plan — analysis, symbolic pass, one numeric pass — which skips the
/// fingerprint (and, for the dense kernel, still emits and replays).
pub(crate) fn multiply_oneshot<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
) -> Result<Csr<S::Elem>, SparseError> {
    let (resolved, stats) = SpgemmPlan::<S>::analyze(a, b, algo, order, pool)?;
    match resolved {
        Algorithm::Reference => Ok(reference::multiply::<S>(a, b)),
        _ => SpgemmPlan::<S>::build(a, b, algo, (resolved, stats), order, pool, false)
            .execute_in(a, b, pool),
    }
}

/// `algo`'s input contract: Heap and Merge read sorted rows only.
fn check_sorted_inputs<E>(algo: Algorithm, a: &Csr<E>, b: &Csr<E>) -> Result<(), SparseError> {
    if algo.requires_sorted_inputs() && (!a.is_sorted() || !b.is_sorted()) {
        return Err(SparseError::Unsorted {
            op: match algo {
                Algorithm::Heap => "Heap SpGEMM",
                _ => "Merge SpGEMM",
            },
        });
    }
    Ok(())
}

/// Per-algorithm execution counters (`plan/plan.exec.*`): one bump
/// per numeric pass, keyed by the plan's *resolved* kernel
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
/// use spgemm_par::Pool;
/// use spgemm_sparse::{Csr, PlusTimes};
///
/// let pool = Pool::new(2);
/// let a = Csr::<f64>::identity(6);
/// let mut cache = PlanCache::<PlusTimes<f64>>::new(Algorithm::Hash, OutputOrder::Sorted);
/// for _ in 0..3 {
///     let c = cache.multiply_in(&a, &a, &pool)?;
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

    /// Multiply through the cache on `pool`.
    pub fn multiply_in(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        pool: &Pool,
    ) -> Result<Csr<S::Elem>, SparseError> {
        self.plan_for(a, b, pool)?.execute_in(a, b, pool)
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
    fn every_plan_knows_its_rows_at_bind() {
        let a = sample();
        let pool = Pool::new(2);
        for algo in Algorithm::ALL {
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, order, &pool).unwrap();
                let (nnz, rpts) = (plan.symbolic_nnz(), plan.symbolic_row_ptrs().to_vec());
                let c = plan.execute_in(&a, &a, &pool).unwrap();
                assert_eq!((nnz, &rpts[..]), (c.nnz(), c.rpts()), "{algo} {order:?}");
            }
        }
    }

    #[test]
    fn execute_into_slices_matches_execute_and_checks_its_contract() {
        let a = sample();
        let pool = Pool::new(2);
        let algos = [
            Algorithm::Hash,
            Algorithm::Spa,
            Algorithm::Heap,
            Algorithm::Inspector,
            Algorithm::Reference,
        ];
        for algo in algos {
            let plan = SpgemmPlan::<P>::new_in(&a, &a, algo, OutputOrder::Sorted, &pool).unwrap();
            // Fresh plans, one-phase kernels' too, write straight into slices.
            let nnz = plan.symbolic_nnz();
            let (mut cols, mut vals) = (vec![0; nnz], vec![f64::NAN; nnz]);
            plan.execute_into_slices_in(&a, &a, &mut cols, &mut vals, &pool)
                .unwrap();
            let want = plan.execute_in(&a, &a, &pool).unwrap();
            assert_eq!(plan.symbolic_row_ptrs(), want.rpts());
            assert_eq!(
                (cols.as_slice(), vals.as_slice()),
                (want.cols(), want.vals())
            );
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
        let pool = Pool::new(2);
        let plan =
            SpgemmPlan::<P>::new_in(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).unwrap();
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
