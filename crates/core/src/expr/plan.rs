//! Compiling an [`ExprGraph`] into a reusable [`ExprPlan`].
//!
//! The plan is the inspector–executor split of [`crate::SpgemmPlan`]
//! lifted to whole pipelines:
//!
//! * **Bind once** ([`ExprPlan::new_in`]): walk the DAG in topological
//!   order against concrete inputs, building per-`Multiply` cached
//!   [`SpgemmPlan`]s (each owning its pooled per-thread accumulators),
//!   cached transpose structures (row pointers, column indices and the
//!   value-gather permutation), cached merge/intersection *provenance*
//!   for `Add`/`Hadamard` (per output entry, the source indices into
//!   each operand's value array), and one reused output buffer per
//!   materialized node. Row-local element-wise nodes (`Map`,
//!   `ScaleRows`/`ScaleCols`) whose operand has no other consumer are
//!   **fused**: they run as an in-place epilogue on the producing
//!   node's buffer and materialize nothing. `NormalizeCols` always
//!   materializes: its column sums need its operand's unnormalised
//!   values.
//! * **Execute many** ([`ExprPlan::execute_in`], read the result in
//!   place through [`ExprPlan::root`]; [`ExprPlan::execute_into_in`]
//!   adds a copy into a caller's matrix): with inputs of
//!   the *same structure* (values free to change), every node is a
//!   numeric-only refill of its cached buffer — `Multiply` via
//!   [`SpgemmPlan::execute_into_in`], `Transpose` via the cached
//!   gather permutation, `Add`/`Hadamard` via the cached provenance
//!   arrays, unary maps via copy-and-transform (or in place when
//!   fused). Steady state performs **zero heap allocations** for
//!   intermediates (see `crates/core/tests/expr_zero_alloc.rs`).
//! * **Update rows** ([`ExprPlan::update_in`], `expr/delta.rs`): a
//!   few-row edit of one input flows through the DAG, recomputing only
//!   the dirty rows of every product and rebuilding the other nodes'
//!   cached structures, so the next execution is numeric-only again.
//! * **Rebind on drift** ([`ExprPlan::rebind_in`]): when the input
//!   pattern changes, cached structures are recomputed while every
//!   `Multiply` node keeps its pooled accumulators
//!   ([`SpgemmPlan::rebind_in`]). [`ExprPlan::matches_inputs`]
//!   compares the inputs' structure fingerprints to tell the two cases
//!   apart, like [`crate::PlanCache`] does for single products; a
//!   matrix remembers its fingerprint, so re-checking the same inputs
//!   hashes nothing. Value refills write through
//!   [`Csr::pattern_and_vals_mut`], so a buffer keeps its fingerprint
//!   too.

use crate::expr::graph::{fnv64 as fnv, ElemMap, ExprGraph, ExprOp, NodeId};
use crate::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_obs as obs;
use spgemm_par::{Pool, WorkspaceStats};
use spgemm_sparse::{csr_bytes, ops, Csr, DirtyRows, PlusTimes, SparseError};

/// The semiring the expression layer runs: ordinary `f64` arithmetic,
/// the setting of every pipeline the paper cites (MCL, AMG, triangle
/// counting over `f64` wedge counts).
type P = PlusTimes<f64>;

/// Absent-operand sentinel in [`NodeState::Merge`] provenance arrays.
const ABSENT: usize = usize::MAX;

/// Where a node's current value lives.
#[derive(Clone, Copy, Debug)]
pub(super) enum ValueLoc {
    /// The `slot`-th external input matrix.
    Input(usize),
    /// The buffer of node `k` (the node itself, or — for fused
    /// element-wise nodes — the producer whose buffer they rewrite).
    Buf(usize),
}

/// What an element-wise unary node does to its target values.
pub(super) enum UnaryKind {
    ScaleRows(usize),
    ScaleCols(usize),
    Map(ElemMap),
    /// Carries the reused column-sum scratch.
    NormalizeCols(Vec<f64>),
}

/// Per-node cached execution state.
pub(super) enum NodeState {
    /// An input, or a node the root does not need: nothing to run.
    Idle,
    Multiply {
        a: ValueLoc,
        b: ValueLoc,
        /// Boxed: a plan is an order of magnitude larger than any
        /// other node's state, and most nodes are not multiplies.
        plan: Box<SpgemmPlan<P>>,
    },
    Transpose {
        a: ValueLoc,
        /// `out.vals[k] = operand.vals[val_order[k]]`.
        val_order: Vec<usize>,
    },
    /// `Add` (structural union) or `Hadamard` (`intersect`).
    Merge {
        a: ValueLoc,
        b: ValueLoc,
        /// Index into the operand's value array, [`ABSENT`] when the
        /// output entry has no source on that side (union only).
        a_src: Vec<usize>,
        b_src: Vec<usize>,
        intersect: bool,
    },
    Unary {
        a: ValueLoc,
        kind: UnaryKind,
        /// Fused: rewrite the producer's buffer in place (the node's
        /// value *is* that buffer). Unfused: copy into an own buffer.
        fused: bool,
    },
}

/// A compiled, reusable execution plan for one expression DAG over a
/// fixed family of input structures.
///
/// ```
/// use spgemm::expr::{ElemMap, ExprGraph, ExprPlan};
/// use spgemm::Algorithm;
/// use spgemm_par::Pool;
/// use spgemm_sparse::Csr;
///
/// // normalize_cols(|A·A|^2) — an MCL expansion+inflation step.
/// let mut g = ExprGraph::new();
/// let a = g.input();
/// let sq = g.multiply(a, a);
/// let inf = g.map(sq, ElemMap::AbsPow(2.0));
/// let root = g.normalize_cols(inf);
///
/// let m = Csr::<f64>::identity(16);
/// let pool = Pool::new(2);
/// let mut plan = ExprPlan::new_in(&g, root, &[&m], &[], Algorithm::Hash, &pool)?;
/// assert_eq!(plan.fused_nodes(), 1, "the map fuses into the product");
/// // Two buffers of the square's structure: the inflated product and
/// // its renormalized copy.
/// assert!(plan.intermediate_bytes() >= 2 * plan.fused_bytes_eliminated());
///
/// let mut out = Csr::<f64>::zero(0, 0);
/// for _ in 0..4 {
///     plan.execute_into_in(&[&m], &[], &mut out, &pool)?; // numeric-only
/// }
/// assert_eq!(out.nnz(), 16);
/// # Ok::<(), spgemm_sparse::SparseError>(())
/// ```
pub struct ExprPlan {
    pub(super) graph: ExprGraph,
    root: usize,
    algo: Algorithm,
    nthreads: usize,
    /// `(nrows, ncols, nnz)` of each input at bind time.
    pub(super) input_shapes: Vec<(usize, usize, usize)>,
    /// Structure fingerprints of each input at bind time.
    pub(super) input_sigs: Vec<u64>,
    /// Length of each vector input at bind time.
    vec_lens: Vec<usize>,
    pub(super) needed: Vec<bool>,
    pub(super) states: Vec<NodeState>,
    /// One (possibly unused) value buffer per node.
    pub(super) bufs: Vec<Csr<f64>>,
    pub(super) value_of: Vec<ValueLoc>,
    /// Whether the last bind, update or execution pass completed. A
    /// failed [`ExprPlan::rebind_in`], [`ExprPlan::update_in`] or
    /// [`ExprPlan::execute_in`] leaves node states or buffers
    /// half-written: until a later rebind succeeds, the plan refuses to
    /// execute, [`ExprPlan::root`] is `None` and
    /// [`ExprPlan::matches_inputs`] reports `false` (so callers take the
    /// rebind path, never the stale-hit path).
    pub(super) bound: bool,
}

/// `(nrows, ncols, nnz)`: what the per-call guards compare.
pub(super) fn dims(m: &Csr<f64>) -> (usize, usize, usize) {
    (m.nrows(), m.ncols(), m.nnz())
}

pub(super) fn resolve<'a>(
    loc: ValueLoc,
    inputs: &[&'a Csr<f64>],
    head: &'a [Csr<f64>],
) -> &'a Csr<f64> {
    match loc {
        ValueLoc::Input(s) => inputs[s],
        ValueLoc::Buf(k) => &head[k],
    }
}

/// Overwrite `out` with a copy of `src`, reusing `out`'s allocations.
fn write_csr(src: &Csr<f64>, out: &mut Csr<f64>) {
    out.prepare_overwrite(src.nrows(), src.ncols(), src.nnz(), 0.0, src.is_sorted());
    let (rp, cl, vl) = out.raw_parts_mut();
    rp.copy_from_slice(src.rpts());
    cl.copy_from_slice(src.cols());
    vl.copy_from_slice(src.vals());
}

/// Apply an element-wise unary transform to `target`'s values in
/// place: every row, or only `rows` (a row update re-applying a fused,
/// row-local epilogue to the rows it recomputed). `vecs` supplies
/// scaling factors.
pub(super) fn apply_unary(
    kind: &mut UnaryKind,
    target: &mut Csr<f64>,
    vecs: &[&[f64]],
    rows: Option<&DirtyRows>,
) -> Result<(), SparseError> {
    let (nrows, ncols) = target.shape();
    let factors = match *kind {
        UnaryKind::ScaleRows(slot) => Some((vecs[slot].len(), nrows, "expr scale_rows")),
        UnaryKind::ScaleCols(slot) => Some((vecs[slot].len(), ncols, "expr scale_cols")),
        _ => None,
    };
    if let Some((len, _, op)) = factors.filter(|&(len, want, _)| len != want) {
        let (left, right) = ((nrows, ncols), (len, 0));
        return Err(SparseError::ShapeMismatch { left, right, op });
    }
    let (rp, cl, vl) = target.pattern_and_vals_mut();
    if let UnaryKind::NormalizeCols(colsum) = kind {
        debug_assert!(rows.is_none(), "column sums are not row-local");
        ops::normalize_columns_values(ncols, cl, vl, colsum);
        return Ok(());
    }
    let kind = &*kind;
    let mut row = |i: usize| {
        let r = rp[i]..rp[i + 1];
        let (cols, vals) = (&cl[r.clone()], &mut vl[r]);
        match *kind {
            UnaryKind::Map(f) => vals.iter_mut().for_each(|v| *v = f.apply(*v)),
            UnaryKind::ScaleRows(slot) => vals.iter_mut().for_each(|v| *v *= vecs[slot][i]),
            UnaryKind::ScaleCols(slot) => {
                for (v, &c) in vals.iter_mut().zip(cols) {
                    *v *= vecs[slot][c as usize];
                }
            }
            UnaryKind::NormalizeCols(_) => unreachable!("handled above"),
        }
    };
    match rows {
        Some(rows) => rows.iter().for_each(&mut row),
        None => (0..nrows).for_each(&mut row),
    }
    Ok(())
}

impl ExprPlan {
    /// Compile `graph` rooted at `root` against concrete operands: the
    /// bind pass plans every reachable node, sizes every buffer, and
    /// materializes the pipeline's values once. `algo` selects the
    /// SpGEMM kernel of every `Multiply` node (`Auto` resolves per
    /// node from its operands' structure); multiply outputs are always
    /// sorted, and all matrix inputs must be sorted.
    pub fn new_in(
        graph: &ExprGraph,
        root: NodeId,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        algo: Algorithm,
        pool: &Pool,
    ) -> Result<Self, SparseError> {
        let needed = graph.reachable(root);
        let consumers = graph.consumer_counts(&needed);
        // Value placement + fusion: a row-local unary node whose operand
        // is a materialized buffer nobody else reads rewrites that
        // buffer in place and owns no buffer of its own.
        let mut value_of: Vec<ValueLoc> = Vec::with_capacity(graph.len());
        for (i, op) in graph.nodes().iter().enumerate() {
            let operand = op
                .operands()
                .0
                .map(|a| (value_of[a.index()], consumers[a.index()]));
            value_of.push(match (op, operand) {
                (ExprOp::Input { slot }, _) if needed[i] => ValueLoc::Input(*slot),
                (op, Some((ValueLoc::Buf(owner), 1))) if needed[i] && op.is_row_local_unary() => {
                    ValueLoc::Buf(owner)
                }
                _ => ValueLoc::Buf(i),
            });
        }
        let mut plan = ExprPlan {
            graph: graph.clone(),
            root: root.index(),
            algo,
            nthreads: 0,
            input_shapes: Vec::new(),
            input_sigs: Vec::new(),
            vec_lens: Vec::new(),
            needed,
            states: (0..graph.len()).map(|_| NodeState::Idle).collect(),
            bufs: (0..graph.len()).map(|_| Csr::zero(0, 0)).collect(),
            value_of,
            bound: false,
        };
        plan.rebind_in(inputs, vecs, pool)?;
        Ok(plan)
    }

    fn validate_binding(
        graph: &ExprGraph,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
    ) -> Result<(), SparseError> {
        let (declared, got) = (
            (graph.num_inputs(), graph.num_vec_inputs()),
            (inputs.len(), vecs.len()),
        );
        if declared != got {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "expression graph declares {declared:?} (matrix, vector) inputs; got {got:?}"
                ),
            });
        }
        if inputs.iter().any(|m| !m.is_sorted()) {
            return Err(SparseError::Unsorted { op: "expr plan" });
        }
        Ok(())
    }

    /// Re-plan for inputs whose *structure* changed, keeping every
    /// `Multiply` node's pooled per-thread accumulators and every
    /// buffer's allocation where capacities allow. Values are
    /// recomputed as part of rebinding.
    pub fn rebind_in(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        Self::validate_binding(&self.graph, inputs, vecs)?;
        self.input_shapes = inputs.iter().map(|m| dims(m)).collect();
        self.input_sigs = inputs.iter().map(|m| m.structure_fingerprint()).collect();
        self.vec_lens = vecs.iter().map(|v| v.len()).collect();
        self.nthreads = pool.nthreads();
        // Half-rebound states must never serve a hit or execute: mark
        // the plan unbound until the bind pass completes.
        self.bound = false;
        let _g = obs::span!("expr", "expr.bind");
        for i in 0..self.graph.len() {
            self.bind_node(i, inputs, vecs, pool)?;
        }
        self.bound = true;
        // Fusion-savings census: how many elementwise nodes this bind
        // folded into their producers, and the buffer bytes that
        // never materialized because of it.
        if obs::enabled() {
            static FUSED_NODES: obs::CounterSite =
                obs::CounterSite::new("expr", "expr.fused_nodes");
            static FUSED_BYTES: obs::CounterSite =
                obs::CounterSite::new("expr", "expr.fused_bytes_eliminated");
            FUSED_NODES.add(self.fused_nodes() as u64);
            FUSED_BYTES.add(self.fused_bytes_eliminated() as u64);
        }
        Ok(())
    }

    /// (Re)build node `i`'s cached structure from its operands' current
    /// values and materialize its value (an unneeded node is skipped).
    /// An existing `Multiply` plan is rebound in place so its workspace
    /// pool survives.
    pub(super) fn bind_node(
        &mut self,
        i: usize,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        let op = self.graph.nodes()[i];
        let (head, tail) = self.bufs.split_at_mut(i);
        let me = &mut tail[0];
        let state = match op {
            _ if !self.needed[i] => NodeState::Idle,
            ExprOp::Input { .. } => NodeState::Idle,
            ExprOp::Multiply { a, b } => {
                let (va, vb) = (self.value_of[a.index()], self.value_of[b.index()]);
                let (ar, br) = (resolve(va, inputs, head), resolve(vb, inputs, head));
                let plan = match std::mem::replace(&mut self.states[i], NodeState::Idle) {
                    NodeState::Multiply { plan: mut p, .. } => {
                        p.rebind_in(ar, br, pool)?;
                        p
                    }
                    _ => Box::new(SpgemmPlan::new_in(
                        ar,
                        br,
                        self.algo,
                        OutputOrder::Sorted,
                        pool,
                    )?),
                };
                plan.execute_into_in(ar, br, me, pool)?;
                NodeState::Multiply { a: va, b: vb, plan }
            }
            ExprOp::Transpose { a } => {
                let va = self.value_of[a.index()];
                let ar = resolve(va, inputs, head);
                let (rpts, cols, val_order) = ops::transpose_structure(ar);
                let vals = val_order.iter().map(|&s| ar.vals()[s]).collect();
                *me = Csr::from_parts_unchecked(ar.ncols(), ar.nrows(), rpts, cols, vals, true);
                NodeState::Transpose { a: va, val_order }
            }
            ExprOp::Add { a, b } | ExprOp::Hadamard { a, b } => {
                let intersect = matches!(op, ExprOp::Hadamard { .. });
                let (va, vb) = (self.value_of[a.index()], self.value_of[b.index()]);
                let (ar, br) = (resolve(va, inputs, head), resolve(vb, inputs, head));
                let (a_src, b_src) = bind_merge(ar, br, me, intersect)?;
                NodeState::Merge {
                    a: va,
                    b: vb,
                    a_src,
                    b_src,
                    intersect,
                }
            }
            ExprOp::ScaleRows { a, v } => {
                self.bind_unary(i, a, UnaryKind::ScaleRows(v.index()), inputs, vecs)?
            }
            ExprOp::ScaleCols { a, v } => {
                self.bind_unary(i, a, UnaryKind::ScaleCols(v.index()), inputs, vecs)?
            }
            ExprOp::Map { a, f } => self.bind_unary(i, a, UnaryKind::Map(f), inputs, vecs)?,
            ExprOp::NormalizeCols { a } => {
                self.bind_unary(i, a, UnaryKind::NormalizeCols(Vec::new()), inputs, vecs)?
            }
        };
        self.states[i] = state;
        Ok(())
    }

    /// Bind one element-wise unary node: in place on the owner buffer
    /// when fused, copy-then-transform into its own buffer otherwise.
    fn bind_unary(
        &mut self,
        i: usize,
        a: NodeId,
        mut kind: UnaryKind,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
    ) -> Result<NodeState, SparseError> {
        let va = self.value_of[a.index()];
        let fused = matches!(self.value_of[i], ValueLoc::Buf(owner) if owner != i);
        if let (true, ValueLoc::Buf(owner)) = (fused, va) {
            apply_unary(&mut kind, &mut self.bufs[owner], vecs, None)?;
        } else {
            let (head, tail) = self.bufs.split_at_mut(i);
            let me = &mut tail[0];
            write_csr(resolve(va, inputs, head), me);
            apply_unary(&mut kind, me, vecs, None)?;
        }
        Ok(NodeState::Unary { a: va, kind, fused })
    }

    /// Numeric-only re-execution of the whole pipeline, reusing every
    /// cached structure, pooled accumulator and intermediate buffer:
    /// with same-structure inputs (values free to differ) this performs
    /// **zero heap allocations**. Read the result in place with
    /// [`ExprPlan::root`]. An error from the per-call guards changes
    /// nothing; one from further in leaves the plan unbound, like a
    /// failed rebind.
    pub fn execute_in(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        self.check(inputs, vecs, pool, None)?;
        self.bound = false;
        self.run_numeric(inputs, vecs, pool)?;
        self.bound = true;
        Ok(())
    }

    /// [`ExprPlan::execute_in`], then a copy of the root into `out`
    /// (reusing `out`'s allocations: with a warmed `out`, still zero
    /// heap allocations).
    pub fn execute_into_in(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        out: &mut Csr<f64>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        self.execute_in(inputs, vecs, pool)?;
        write_csr(resolve(self.value_of[self.root], inputs, &self.bufs), out);
        Ok(())
    }

    /// The root value computed by the most recent bind, update or
    /// execution, read in place. `None` when the root is a bare input
    /// node (read the input directly) and while the plan is unbound
    /// after a failed pass, so a half-written root is never served.
    pub fn root(&self) -> Option<&Csr<f64>> {
        match self.value_of[self.root] {
            ValueLoc::Buf(k) if self.bound => Some(&self.bufs[k]),
            _ => None,
        }
    }

    /// Copy [`ExprPlan::root`] into `out` without re-running anything.
    /// Errors where that is `None`.
    pub fn root_into(&self, out: &mut Csr<f64>) -> Result<(), SparseError> {
        if let Some(root) = self.root() {
            write_csr(root, out);
            return Ok(());
        }
        let detail = if !self.bound {
            "expression plan is unbound after a failed pass; its root value is stale"
        } else {
            "expression root is a bare input; read it directly"
        };
        Err(SparseError::PlanMismatch {
            detail: detail.into(),
        })
    }

    /// The input slot the root is when it is a bare input node — whose
    /// value [`ExprPlan::root_into`] leaves to the caller's inputs.
    pub fn root_input(&self) -> Option<usize> {
        match self.value_of[self.root] {
            ValueLoc::Input(slot) => Some(slot),
            ValueLoc::Buf(_) => None,
        }
    }

    /// Cheap per-call guards (shapes, nnz, sortedness, vector lengths,
    /// pool width), skipping the shape of the `moved` slot an update
    /// brings in. Full structural fingerprints are *not* recomputed
    /// here — that is [`ExprPlan::matches_inputs`]'s job, which callers
    /// run before choosing between an execution and a rebind.
    pub(super) fn check(
        &self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
        moved: Option<usize>,
    ) -> Result<(), SparseError> {
        let mismatch = |detail: String| Err(SparseError::PlanMismatch { detail });
        if !self.bound {
            return mismatch(
                "expression plan is unbound after a failed pass; \
                             rebind it (or rebuild) before executing"
                    .into(),
            );
        }
        Self::validate_binding(&self.graph, inputs, vecs)?;
        let mut shapes = inputs.iter().zip(&self.input_shapes).enumerate();
        if let Some((k, (m, planned))) =
            shapes.find(|(k, (m, p))| Some(*k) != moved && dims(m) != **p)
        {
            return mismatch(format!(
                "input {k}: (rows, cols, nnz) {:?} differs from planned {planned:?}; \
                 rebind the expression plan",
                dims(m)
            ));
        }
        let mut lens = vecs.iter().zip(&self.vec_lens).enumerate();
        if let Some((k, (v, planned))) = lens.find(|(_, (v, p))| v.len() != **p) {
            return mismatch(format!(
                "vector input {k}: length {} differs from planned {planned}",
                v.len()
            ));
        }
        if pool.nthreads() != self.nthreads {
            return mismatch(format!(
                "expression plan sized for {} threads but pool has {}",
                self.nthreads,
                pool.nthreads()
            ));
        }
        Ok(())
    }

    /// Numeric refill of every reachable node, in topological order.
    fn run_numeric(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        for i in 0..self.graph.len() {
            let (head, tail) = self.bufs.split_at_mut(i);
            match &mut self.states[i] {
                NodeState::Idle => {}
                NodeState::Multiply { a, b, plan } => {
                    let _g = obs::span!("expr", "expr.multiply");
                    let (ar, br) = (resolve(*a, inputs, head), resolve(*b, inputs, head));
                    plan.execute_into_in(ar, br, &mut tail[0], pool)?;
                }
                NodeState::Transpose { a, val_order } => {
                    let _g = obs::span!("expr", "expr.transpose");
                    let av = resolve(*a, inputs, head).vals();
                    let vl = tail[0].pattern_and_vals_mut().2;
                    for (dst, &s) in vl.iter_mut().zip(&*val_order) {
                        *dst = av[s];
                    }
                }
                NodeState::Merge {
                    a,
                    b,
                    a_src,
                    b_src,
                    intersect,
                } => {
                    let _g = obs::span!("expr", "expr.merge");
                    let (av, bv) = (
                        resolve(*a, inputs, head).vals(),
                        resolve(*b, inputs, head).vals(),
                    );
                    let vl = tail[0].pattern_and_vals_mut().2;
                    let src = vl.iter_mut().zip(a_src.iter().zip(&*b_src));
                    if *intersect {
                        src.for_each(|(dst, (&sa, &sb))| *dst = av[sa] * bv[sb]);
                    } else {
                        src.for_each(|(dst, (&sa, &sb))| {
                            *dst = match (sa, sb) {
                                (ABSENT, _) => bv[sb],
                                (_, ABSENT) => av[sa],
                                _ => av[sa] + bv[sb],
                            }
                        });
                    }
                }
                NodeState::Unary { a, kind, fused } => {
                    let _g = obs::span!("expr", "expr.unary");
                    if *fused {
                        let ValueLoc::Buf(owner) = *a else {
                            unreachable!("fused unary over an input")
                        };
                        apply_unary(kind, &mut head[owner], vecs, None)?;
                    } else {
                        let me = &mut tail[0];
                        let src = resolve(*a, inputs, head);
                        me.pattern_and_vals_mut().2.copy_from_slice(src.vals());
                        apply_unary(kind, me, vecs, None)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether `inputs` carry exactly the structures this plan was
    /// bound to (shape, nnz and structure fingerprint per input; values
    /// are free to differ). `O(1)` per input whose fingerprint is
    /// memoized, `O(nnz)` the first time a matrix is checked.
    pub fn matches_inputs(&self, inputs: &[&Csr<f64>]) -> bool {
        self.mismatched_inputs(inputs).is_empty()
    }

    /// The input slots whose structures drifted from what this plan
    /// was bound to — empty exactly when
    /// [`ExprPlan::matches_inputs`] is `true`. An unbound plan or a
    /// wrong input *count* reports every slot. Callers use this to
    /// name the offending operand in a `PlanMismatch` instead of
    /// reporting a generic drift.
    pub fn mismatched_inputs(&self, inputs: &[&Csr<f64>]) -> Vec<usize> {
        if !self.bound || inputs.len() != self.input_shapes.len() {
            return (0..self.input_shapes.len().max(inputs.len())).collect();
        }
        inputs
            .iter()
            .enumerate()
            .filter(|(slot, m)| {
                dims(m) != self.input_shapes[*slot]
                    || m.structure_fingerprint() != self.input_sigs[*slot]
            })
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Worker-thread count the plan is sized for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Whole-DAG structure fingerprint: the root node's computation
    /// fingerprint over the bound input structures.
    pub fn fingerprint(&self) -> u64 {
        let root = self.node_fingerprints()[self.root];
        fnv(&[root, self.graph.len() as u64])
    }

    /// Per-node computation fingerprints over the bound structures
    /// (see [`ExprGraph::node_fingerprints`]).
    pub fn node_fingerprints(&self) -> Vec<u64> {
        let sigs = &self.input_sigs;
        (self.graph).node_fingerprints(|slot| sigs[slot], self.algo as u64)
    }

    /// Number of element-wise nodes fused into their producer's
    /// numeric phase (they materialize nothing).
    pub fn fused_nodes(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, NodeState::Unary { fused: true, .. }))
            .count()
    }

    /// Bytes of intermediate CSR storage the fused nodes would have
    /// materialized as standalone copies (what epilogue fusion
    /// eliminates): for each fused node, the byte size of the buffer
    /// it rewrites in place.
    pub fn fused_bytes_eliminated(&self) -> usize {
        self.states
            .iter()
            .filter_map(|s| match s {
                NodeState::Unary {
                    fused: true,
                    a: ValueLoc::Buf(owner),
                    ..
                } => Some(csr_bytes(&self.bufs[*owner]) as usize),
                _ => None,
            })
            .sum()
    }

    /// Bytes of CSR storage held by materialized intermediate buffers
    /// (every non-input node with its own buffer, including the root).
    pub fn intermediate_bytes(&self) -> usize {
        self.bufs.iter().map(|m| csr_bytes(m) as usize).sum()
    }

    /// Aggregated workspace-reuse counters over every `Multiply`
    /// node's pooled accumulators.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        let mut total = WorkspaceStats::default();
        for s in &self.states {
            if let NodeState::Multiply { plan, .. } = s {
                let st = plan.workspace_stats();
                total.created += st.created;
                total.reused += st.reused;
            }
        }
        total
    }
}

/// Build an `Add` (structural union) or, with `intersect`, a
/// `Hadamard` node's cached structure and provenance into `me`, over
/// the same [`ops::merge_sorted_rows`] walk as [`ops::add`] /
/// [`ops::hadamard`].
fn bind_merge(
    a: &Csr<f64>,
    b: &Csr<f64>,
    me: &mut Csr<f64>,
    intersect: bool,
) -> Result<(Vec<usize>, Vec<usize>), SparseError> {
    let op = if intersect {
        "expr hadamard"
    } else {
        "expr add"
    };
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op,
        });
    }
    if !a.is_sorted() || !b.is_sorted() {
        return Err(SparseError::Unsorted { op });
    }
    let mut rpts = Vec::with_capacity(a.nrows() + 1);
    rpts.push(0usize);
    let cap = if intersect { 0 } else { a.nnz() + b.nnz() };
    let (mut cols, mut vals) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    let (mut a_src, mut b_src) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    for i in 0..a.nrows() {
        let (ra, rb) = (a.row_range(i), b.row_range(i));
        let (av, bv) = (a.row_vals(i), b.row_vals(i));
        ops::merge_sorted_rows(a.row_cols(i), b.row_cols(i), |col, p, q| {
            vals.push(match (p, q) {
                (Some(p), Some(q)) if intersect => av[p] * bv[q],
                (Some(p), Some(q)) => av[p] + bv[q],
                _ if intersect => return,
                (Some(p), None) => av[p],
                (None, q) => bv[q.expect("a merge hit has a side")],
            });
            cols.push(col);
            a_src.push(p.map_or(ABSENT, |p| ra.start + p));
            b_src.push(q.map_or(ABSENT, |q| rb.start + q));
        });
        rpts.push(cols.len());
    }
    *me = Csr::from_parts_unchecked(a.nrows(), a.ncols(), rpts, cols, vals, true);
    Ok((a_src, b_src))
}
