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
//!   materialized node. Element-wise unary nodes (`Map`,
//!   `ScaleRows`/`ScaleCols`, `NormalizeCols`) whose operand has no
//!   other consumer are **fused**: they run as an in-place epilogue on
//!   the producing node's buffer and materialize nothing.
//! * **Execute many** ([`ExprPlan::execute_into_in`]): with inputs of
//!   the *same structure* (values free to change), every node is a
//!   numeric-only refill of its cached buffer — `Multiply` via
//!   [`SpgemmPlan::execute_into_in`], `Transpose` via the cached
//!   gather permutation, `Add`/`Hadamard` via the cached provenance
//!   arrays, unary maps via copy-and-transform (or in place when
//!   fused). Steady state performs **zero heap allocations** for
//!   intermediates (see `crates/core/tests/expr_zero_alloc.rs`).
//! * **Rebind on drift** ([`ExprPlan::rebind_in`]): when the input
//!   pattern changes, cached structures are recomputed while every
//!   `Multiply` node keeps its pooled accumulators
//!   ([`SpgemmPlan::rebind_in`]). [`ExprCache`] automates the
//!   hit/rebind decision by fingerprinting the inputs, like
//!   [`crate::PlanCache`] does for single products.

use crate::expr::graph::{fnv64 as fnv, ElemMap, ExprGraph, ExprOp, NodeId};
use crate::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_obs as obs;
use spgemm_par::{Pool, WorkspaceStats};
use spgemm_sparse::{csr_bytes, ops, Csr, PlusTimes, SparseError};

/// The semiring the expression layer runs: ordinary `f64` arithmetic,
/// the setting of every pipeline the paper cites (MCL, AMG, triangle
/// counting over `f64` wedge counts).
type P = PlusTimes<f64>;

/// Absent-operand sentinel in [`NodeState::Add`] provenance arrays.
const ABSENT: usize = usize::MAX;

/// Where a node's current value lives.
#[derive(Clone, Copy, Debug)]
enum ValueLoc {
    /// The `slot`-th external input matrix.
    Input(usize),
    /// The buffer of node `k` (the node itself, or — for fused
    /// element-wise nodes — the producer whose buffer they rewrite).
    Buf(usize),
}

/// What an element-wise unary node does to its target values.
enum UnaryKind {
    ScaleRows(usize),
    ScaleCols(usize),
    Map(ElemMap),
    /// Carries the reused column-sum scratch.
    NormalizeCols(Vec<f64>),
}

/// Per-node cached execution state.
enum NodeState {
    /// Unreachable from the root: never touched.
    Skipped,
    Input,
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
    Add {
        a: ValueLoc,
        b: ValueLoc,
        /// Index into the operand's value array, [`ABSENT`] when the
        /// output entry has no source on that side.
        a_src: Vec<usize>,
        b_src: Vec<usize>,
    },
    Hadamard {
        a: ValueLoc,
        b: ValueLoc,
        /// Intersection provenance: both always present.
        a_idx: Vec<usize>,
        b_idx: Vec<usize>,
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
/// assert_eq!(plan.fused_nodes(), 2, "map and normalize fuse into the product");
///
/// let mut out = Csr::<f64>::zero(0, 0);
/// for _ in 0..4 {
///     plan.execute_into_in(&[&m], &[], &mut out, &pool)?; // numeric-only
/// }
/// assert_eq!(out.nnz(), 16);
/// # Ok::<(), spgemm_sparse::SparseError>(())
/// ```
pub struct ExprPlan {
    graph: ExprGraph,
    root: usize,
    algo: Algorithm,
    nthreads: usize,
    /// `(nrows, ncols, nnz)` of each input at bind time.
    input_shapes: Vec<(usize, usize, usize)>,
    /// Structure fingerprints of each input at bind time.
    input_sigs: Vec<u64>,
    /// Length of each vector input at bind time.
    vec_lens: Vec<usize>,
    /// Per-node computation fingerprints over the bound structures.
    node_fps: Vec<u64>,
    /// Whole-DAG structure fingerprint.
    dag_fp: u64,
    needed: Vec<bool>,
    states: Vec<NodeState>,
    /// One (possibly unused) value buffer per node.
    bufs: Vec<Csr<f64>>,
    value_of: Vec<ValueLoc>,
    /// Whether the last bind pass completed. A failed
    /// [`ExprPlan::rebind_in`] leaves node states half-rebound:
    /// until a later rebind succeeds, the plan refuses to execute and
    /// [`ExprPlan::matches_inputs`] reports `false` (so caches take
    /// the rebind path, never the stale-hit path).
    bound: bool,
}

fn resolve<'a>(loc: ValueLoc, inputs: &[&'a Csr<f64>], head: &'a [Csr<f64>]) -> &'a Csr<f64> {
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
/// place. `vecs` supplies scaling factors; lengths were validated at
/// bind time.
fn apply_unary(
    kind: &mut UnaryKind,
    target: &mut Csr<f64>,
    vecs: &[&[f64]],
) -> Result<(), SparseError> {
    match kind {
        UnaryKind::Map(f) => {
            let f = *f;
            for v in target.raw_parts_mut().2 {
                *v = f.apply(*v);
            }
        }
        UnaryKind::ScaleRows(slot) => {
            let factors = vecs[*slot];
            if factors.len() != target.nrows() {
                return Err(SparseError::ShapeMismatch {
                    left: target.shape(),
                    right: (factors.len(), 0),
                    op: "expr scale_rows",
                });
            }
            let nrows = target.nrows();
            let (rp, _, vl) = target.raw_parts_mut();
            for i in 0..nrows {
                let f = factors[i];
                for v in &mut vl[rp[i]..rp[i + 1]] {
                    *v *= f;
                }
            }
        }
        UnaryKind::ScaleCols(slot) => {
            let factors = vecs[*slot];
            if factors.len() != target.ncols() {
                return Err(SparseError::ShapeMismatch {
                    left: target.shape(),
                    right: (factors.len(), 0),
                    op: "expr scale_cols",
                });
            }
            let (_, cl, vl) = target.raw_parts_mut();
            for (v, &c) in vl.iter_mut().zip(cl.iter()) {
                *v *= factors[c as usize];
            }
        }
        UnaryKind::NormalizeCols(colsum) => {
            let ncols = target.ncols();
            let (_, cl, vl) = target.raw_parts_mut();
            ops::normalize_columns_values(ncols, cl, vl, colsum);
        }
    }
    Ok(())
}

impl ExprPlan {
    /// Compile `graph` rooted at `root` against concrete operands on
    /// the process-global pool. See [`ExprPlan::new_in`].
    pub fn new(
        graph: &ExprGraph,
        root: NodeId,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        algo: Algorithm,
    ) -> Result<Self, SparseError> {
        Self::new_in(graph, root, inputs, vecs, algo, spgemm_par::global_pool())
    }

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
        assert!(root.index() < graph.len(), "root from another graph");
        Self::validate_binding(graph, inputs, vecs)?;
        let needed = graph.reachable(root);
        let consumers = graph.consumer_counts(&needed);
        // Value placement + fusion: an element-wise unary node whose
        // operand is a materialized buffer nobody else reads rewrites
        // that buffer in place and owns no buffer of its own.
        let mut value_of: Vec<ValueLoc> = Vec::with_capacity(graph.len());
        for (i, op) in graph.nodes().iter().enumerate() {
            let loc = if !needed[i] {
                ValueLoc::Buf(i)
            } else {
                match op {
                    ExprOp::Input { slot } => ValueLoc::Input(*slot),
                    op if op.is_elementwise_unary() => {
                        let a = op.operands().0.expect("unary has an operand").index();
                        match value_of[a] {
                            ValueLoc::Buf(owner) if consumers[a] == 1 => ValueLoc::Buf(owner),
                            _ => ValueLoc::Buf(i),
                        }
                    }
                    _ => ValueLoc::Buf(i),
                }
            };
            value_of.push(loc);
        }
        let input_sigs: Vec<u64> = inputs.iter().map(|m| m.structure_fingerprint()).collect();
        let node_fps = graph.node_fingerprints(|slot| input_sigs[slot], algo as u64);
        let dag_fp = fnv(&[node_fps[root.index()], graph.len() as u64]);
        let mut plan = ExprPlan {
            graph: graph.clone(),
            root: root.index(),
            algo,
            nthreads: pool.nthreads(),
            input_shapes: inputs
                .iter()
                .map(|m| (m.nrows(), m.ncols(), m.nnz()))
                .collect(),
            input_sigs,
            vec_lens: vecs.iter().map(|v| v.len()).collect(),
            node_fps,
            dag_fp,
            needed,
            states: std::iter::repeat_with(|| NodeState::Skipped)
                .take(graph.len())
                .collect(),
            bufs: std::iter::repeat_with(|| Csr::zero(0, 0))
                .take(graph.len())
                .collect(),
            value_of,
            bound: false,
        };
        plan.bind(inputs, vecs, pool)?;
        plan.bound = true;
        Ok(plan)
    }

    fn validate_binding(
        graph: &ExprGraph,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
    ) -> Result<(), SparseError> {
        if inputs.len() != graph.num_inputs() || vecs.len() != graph.num_vec_inputs() {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "expression graph declares {} matrix and {} vector inputs; \
                     got {} and {}",
                    graph.num_inputs(),
                    graph.num_vec_inputs(),
                    inputs.len(),
                    vecs.len()
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
        self.input_shapes = inputs
            .iter()
            .map(|m| (m.nrows(), m.ncols(), m.nnz()))
            .collect();
        self.input_sigs = inputs.iter().map(|m| m.structure_fingerprint()).collect();
        self.vec_lens = vecs.iter().map(|v| v.len()).collect();
        self.node_fps = self
            .graph
            .node_fingerprints(|slot| self.input_sigs[slot], self.algo as u64);
        self.dag_fp = fnv(&[self.node_fps[self.root], self.graph.len() as u64]);
        self.nthreads = pool.nthreads();
        // Half-rebound states must never serve a hit or execute: mark
        // the plan unbound until the bind pass completes.
        self.bound = false;
        self.bind(inputs, vecs, pool)?;
        self.bound = true;
        Ok(())
    }

    /// The bind pass: (re)build every reachable node's cached
    /// structure and materialize its value. Existing `Multiply` plans
    /// are rebound in place so their workspace pools survive.
    fn bind(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<(), SparseError> {
        let _g = obs::span!("expr", "expr.bind");
        let algo = self.algo;
        for i in 0..self.graph.len() {
            if !self.needed[i] {
                self.states[i] = NodeState::Skipped;
                continue;
            }
            let op = self.graph.nodes()[i];
            let (head, tail) = self.bufs.split_at_mut(i);
            let me = &mut tail[0];
            let prev = std::mem::replace(&mut self.states[i], NodeState::Skipped);
            let state = match op {
                ExprOp::Input { .. } => NodeState::Input,
                ExprOp::Multiply { a, b } => {
                    let (va, vb) = (self.value_of[a.index()], self.value_of[b.index()]);
                    let (ar, br) = (resolve(va, inputs, head), resolve(vb, inputs, head));
                    let plan = match prev {
                        NodeState::Multiply { plan: mut p, .. } => {
                            p.rebind_in(ar, br, pool)?;
                            p
                        }
                        _ => Box::new(SpgemmPlan::new_in(ar, br, algo, OutputOrder::Sorted, pool)?),
                    };
                    plan.execute_into_in(ar, br, me, pool)?;
                    NodeState::Multiply { a: va, b: vb, plan }
                }
                ExprOp::Transpose { a } => {
                    let va = self.value_of[a.index()];
                    let ar = resolve(va, inputs, head);
                    let (rpts, cols, val_order) = ops::transpose_structure(ar);
                    me.prepare_overwrite(ar.ncols(), ar.nrows(), val_order.len(), 0.0, true);
                    let (rp, cl, vl) = me.raw_parts_mut();
                    rp.copy_from_slice(&rpts);
                    cl.copy_from_slice(&cols);
                    let av = ar.vals();
                    for (dst, &s) in vl.iter_mut().zip(&val_order) {
                        *dst = av[s];
                    }
                    NodeState::Transpose { a: va, val_order }
                }
                ExprOp::Add { a, b } => {
                    let (va, vb) = (self.value_of[a.index()], self.value_of[b.index()]);
                    let (ar, br) = (resolve(va, inputs, head), resolve(vb, inputs, head));
                    let (a_src, b_src) = bind_add(ar, br, me)?;
                    NodeState::Add {
                        a: va,
                        b: vb,
                        a_src,
                        b_src,
                    }
                }
                ExprOp::Hadamard { a, b } => {
                    let (va, vb) = (self.value_of[a.index()], self.value_of[b.index()]);
                    let (ar, br) = (resolve(va, inputs, head), resolve(vb, inputs, head));
                    let (a_idx, b_idx) = bind_hadamard(ar, br, me)?;
                    NodeState::Hadamard {
                        a: va,
                        b: vb,
                        a_idx,
                        b_idx,
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
                    let colsum = match prev {
                        NodeState::Unary {
                            kind: UnaryKind::NormalizeCols(cs),
                            ..
                        } => cs,
                        _ => Vec::new(),
                    };
                    self.bind_unary(i, a, UnaryKind::NormalizeCols(colsum), inputs, vecs)?
                }
            };
            self.states[i] = state;
        }
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
        let fused = match (self.value_of[i], va) {
            (ValueLoc::Buf(mine), ValueLoc::Buf(theirs)) => mine == theirs && mine != i,
            _ => false,
        };
        if fused {
            let ValueLoc::Buf(owner) = va else {
                unreachable!()
            };
            apply_unary(&mut kind, &mut self.bufs[owner], vecs)?;
        } else {
            let (head, tail) = self.bufs.split_at_mut(i);
            let me = &mut tail[0];
            write_csr(resolve(va, inputs, head), me);
            apply_unary(&mut kind, me, vecs)?;
        }
        Ok(NodeState::Unary { a: va, kind, fused })
    }

    /// The numeric-only pass plus the root copy: the steady-state
    /// executor (global pool).
    pub fn execute_into(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        out: &mut Csr<f64>,
    ) -> Result<(), SparseError> {
        self.execute_into_in(inputs, vecs, out, spgemm_par::global_pool())
    }

    /// Numeric-only re-execution of the whole pipeline into `out`,
    /// reusing every cached structure, pooled accumulator and
    /// intermediate buffer: with same-structure inputs (values free to
    /// differ) and a warmed `out`, this performs **zero heap
    /// allocations**.
    pub fn execute_into_in(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        out: &mut Csr<f64>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        self.check(inputs, vecs, pool)?;
        self.run_numeric(inputs, vecs, pool)?;
        let src = match self.value_of[self.root] {
            ValueLoc::Input(s) => inputs[s],
            ValueLoc::Buf(k) => &self.bufs[k],
        };
        write_csr(src, out);
        Ok(())
    }

    /// [`ExprPlan::execute_into_in`] into a fresh matrix.
    pub fn execute_in(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<Csr<f64>, SparseError> {
        let mut out = Csr::zero(0, 0);
        self.execute_into_in(inputs, vecs, &mut out, pool)?;
        Ok(out)
    }

    /// Copy the root value computed by the most recent bind/execute
    /// into `out` without re-running anything. Errors if the root is a
    /// bare input node (read the input directly instead).
    pub fn root_into(&self, out: &mut Csr<f64>) -> Result<(), SparseError> {
        if !self.bound {
            return Err(SparseError::PlanMismatch {
                detail: "expression plan is unbound after a failed rebind; \
                         its root value is stale"
                    .into(),
            });
        }
        match self.value_of[self.root] {
            ValueLoc::Buf(k) => {
                write_csr(&self.bufs[k], out);
                Ok(())
            }
            ValueLoc::Input(_) => Err(SparseError::PlanMismatch {
                detail: "expression root is a bare input; read it directly".into(),
            }),
        }
    }

    /// Cheap per-execute guards (shapes, nnz, sortedness, vector
    /// lengths, pool width). Full structural fingerprints are *not*
    /// recomputed here — that is [`ExprPlan::matches_inputs`]'s job,
    /// which [`ExprCache`] calls per multiply.
    fn check(&self, inputs: &[&Csr<f64>], vecs: &[&[f64]], pool: &Pool) -> Result<(), SparseError> {
        if !self.bound {
            return Err(SparseError::PlanMismatch {
                detail: "expression plan is unbound after a failed rebind; \
                         rebind it (or rebuild) before executing"
                    .into(),
            });
        }
        Self::validate_binding(&self.graph, inputs, vecs)?;
        for (k, (m, planned)) in inputs.iter().zip(&self.input_shapes).enumerate() {
            if (m.nrows(), m.ncols(), m.nnz()) != *planned {
                return Err(SparseError::PlanMismatch {
                    detail: format!(
                        "input {k}: {}x{} nnz={} differs from planned {}x{} nnz={}; \
                         rebind the expression plan",
                        m.nrows(),
                        m.ncols(),
                        m.nnz(),
                        planned.0,
                        planned.1,
                        planned.2
                    ),
                });
            }
        }
        for (k, (v, planned)) in vecs.iter().zip(&self.vec_lens).enumerate() {
            if v.len() != *planned {
                return Err(SparseError::PlanMismatch {
                    detail: format!(
                        "vector input {k}: length {} differs from planned {planned}",
                        v.len()
                    ),
                });
            }
        }
        if pool.nthreads() != self.nthreads {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "expression plan sized for {} threads but pool has {}",
                    self.nthreads,
                    pool.nthreads()
                ),
            });
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
                NodeState::Skipped | NodeState::Input => {}
                NodeState::Multiply { a, b, plan } => {
                    let _g = obs::span!("expr", "expr.multiply");
                    let (ar, br) = (resolve(*a, inputs, head), resolve(*b, inputs, head));
                    plan.execute_into_in(ar, br, &mut tail[0], pool)?;
                }
                NodeState::Transpose { a, val_order } => {
                    let _g = obs::span!("expr", "expr.transpose");
                    let av = resolve(*a, inputs, head).vals();
                    for (dst, &s) in tail[0].raw_parts_mut().2.iter_mut().zip(&*val_order) {
                        *dst = av[s];
                    }
                }
                NodeState::Add { a, b, a_src, b_src } => {
                    let _g = obs::span!("expr", "expr.add");
                    let (av, bv) = (
                        resolve(*a, inputs, head).vals(),
                        resolve(*b, inputs, head).vals(),
                    );
                    let vl = tail[0].raw_parts_mut().2;
                    for (k, dst) in vl.iter_mut().enumerate() {
                        let (sa, sb) = (a_src[k], b_src[k]);
                        *dst = if sa == ABSENT {
                            bv[sb]
                        } else if sb == ABSENT {
                            av[sa]
                        } else {
                            av[sa] + bv[sb]
                        };
                    }
                }
                NodeState::Hadamard { a, b, a_idx, b_idx } => {
                    let _g = obs::span!("expr", "expr.hadamard");
                    let (av, bv) = (
                        resolve(*a, inputs, head).vals(),
                        resolve(*b, inputs, head).vals(),
                    );
                    let vl = tail[0].raw_parts_mut().2;
                    for (k, dst) in vl.iter_mut().enumerate() {
                        *dst = av[a_idx[k]] * bv[b_idx[k]];
                    }
                }
                NodeState::Unary { a, kind, fused } => {
                    let _g = obs::span!("expr", "expr.unary");
                    if *fused {
                        let ValueLoc::Buf(owner) = *a else {
                            unreachable!("fused unary over an input")
                        };
                        apply_unary(kind, &mut head[owner], vecs)?;
                    } else {
                        let me = &mut tail[0];
                        let src = resolve(*a, inputs, head);
                        me.raw_parts_mut().2.copy_from_slice(src.vals());
                        apply_unary(kind, me, vecs)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether `inputs` carry exactly the structures this plan was
    /// bound to (shape, nnz and full structure fingerprint per input —
    /// `O(nnz)`; values are free to differ).
    pub fn matches_inputs(&self, inputs: &[&Csr<f64>]) -> bool {
        self.bound
            && inputs.len() == self.input_shapes.len()
            && inputs
                .iter()
                .zip(&self.input_shapes)
                .all(|(m, planned)| (m.nrows(), m.ncols(), m.nnz()) == *planned)
            && inputs
                .iter()
                .zip(&self.input_sigs)
                .all(|(m, sig)| m.structure_fingerprint() == *sig)
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
                (m.nrows(), m.ncols(), m.nnz()) != self.input_shapes[*slot]
                    || m.structure_fingerprint() != self.input_sigs[*slot]
            })
            .map(|(slot, _)| slot)
            .collect()
    }

    /// The kernel every `Multiply` node was requested with.
    pub fn algorithm(&self) -> Algorithm {
        self.algo
    }

    /// Worker-thread count the plan is sized for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Whole-DAG structure fingerprint: the root node's computation
    /// fingerprint over the bound input structures.
    pub fn fingerprint(&self) -> u64 {
        self.dag_fp
    }

    /// Per-node computation fingerprints over the bound structures
    /// (see [`ExprGraph::node_fingerprints`]).
    pub fn node_fingerprints(&self) -> &[u64] {
        &self.node_fps
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

/// Build an `Add` node's cached structure + provenance into `me`.
fn bind_add(
    a: &Csr<f64>,
    b: &Csr<f64>,
    me: &mut Csr<f64>,
) -> Result<(Vec<usize>, Vec<usize>), SparseError> {
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "expr add",
        });
    }
    if !a.is_sorted() || !b.is_sorted() {
        return Err(SparseError::Unsorted { op: "expr add" });
    }
    let mut rpts = Vec::with_capacity(a.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::with_capacity(a.nnz() + b.nnz());
    let mut vals = Vec::with_capacity(a.nnz() + b.nnz());
    let mut a_src = Vec::with_capacity(a.nnz() + b.nnz());
    let mut b_src = Vec::with_capacity(a.nnz() + b.nnz());
    for i in 0..a.nrows() {
        let (ra, rb) = (a.row_range(i), b.row_range(i));
        let (av, bv) = (a.row_vals(i), b.row_vals(i));
        ops::merge_sorted_rows(a.row_cols(i), b.row_cols(i), |col, p, q| {
            cols.push(col);
            vals.push(match (p, q) {
                (Some(p), Some(q)) => av[p] + bv[q],
                (Some(p), None) => av[p],
                (None, q) => bv[q.expect("a merge hit has a side")],
            });
            a_src.push(p.map_or(ABSENT, |p| ra.start + p));
            b_src.push(q.map_or(ABSENT, |q| rb.start + q));
        });
        rpts.push(cols.len());
    }
    *me = Csr::from_parts_unchecked(a.nrows(), a.ncols(), rpts, cols, vals, true);
    Ok((a_src, b_src))
}

/// Build a `Hadamard` node's cached structure + provenance into `me`.
fn bind_hadamard(
    a: &Csr<f64>,
    b: &Csr<f64>,
    me: &mut Csr<f64>,
) -> Result<(Vec<usize>, Vec<usize>), SparseError> {
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "expr hadamard",
        });
    }
    if !a.is_sorted() || !b.is_sorted() {
        return Err(SparseError::Unsorted {
            op: "expr hadamard",
        });
    }
    let mut rpts = Vec::with_capacity(a.nrows() + 1);
    rpts.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    let mut a_idx = Vec::new();
    let mut b_idx = Vec::new();
    for i in 0..a.nrows() {
        let (ra, rb) = (a.row_range(i), b.row_range(i));
        let (av, bv) = (a.row_vals(i), b.row_vals(i));
        ops::merge_sorted_rows(a.row_cols(i), b.row_cols(i), |col, p, q| {
            if let (Some(p), Some(q)) = (p, q) {
                cols.push(col);
                vals.push(av[p] * bv[q]);
                a_idx.push(ra.start + p);
                b_idx.push(rb.start + q);
            }
        });
        rpts.push(cols.len());
    }
    *me = Csr::from_parts_unchecked(a.nrows(), a.ncols(), rpts, cols, vals, true);
    Ok((a_idx, b_idx))
}

/// Counters of one [`ExprCache`]'s reuse behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExprCacheStats {
    /// Executions served numeric-only by the cached plan (input
    /// structures matched).
    pub hits: u64,
    /// Executions that had to (re)bind the plan — the first call plus
    /// every input-structure change. `Multiply` workspace pools
    /// survive rebinds.
    pub rebuilds: u64,
}

/// A single-entry expression-plan cache for iterative pipelines whose
/// input structure *may* drift between rounds (MCL pruning): each
/// execution fingerprints the inputs; a match runs the cached plan
/// numeric-only, a mismatch rebinds it (keeping pooled accumulators
/// and buffers) — [`crate::PlanCache`] lifted to whole DAGs.
pub struct ExprCache {
    graph: ExprGraph,
    root: NodeId,
    algo: Algorithm,
    plan: Option<ExprPlan>,
    stats: ExprCacheStats,
}

impl ExprCache {
    /// An empty cache that will compile `graph` at `root` with `algo`.
    pub fn new(graph: ExprGraph, root: NodeId, algo: Algorithm) -> Self {
        assert!(root.index() < graph.len(), "root from another graph");
        ExprCache {
            graph,
            root,
            algo,
            plan: None,
            stats: ExprCacheStats::default(),
        }
    }

    /// Execute the pipeline into `out` through the cache on an
    /// explicit pool: a structure match is a numeric-only hit, a
    /// mismatch rebinds.
    pub fn execute_into_in(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        out: &mut Csr<f64>,
        pool: &Pool,
    ) -> Result<(), SparseError> {
        let reusable = self
            .plan
            .as_ref()
            .is_some_and(|p| p.nthreads() == pool.nthreads() && p.matches_inputs(inputs));
        if reusable {
            self.stats.hits += 1;
            return self
                .plan
                .as_mut()
                .expect("checked above")
                .execute_into_in(inputs, vecs, out, pool);
        }
        self.stats.rebuilds += 1;
        match self.plan.as_mut() {
            Some(p) => p.rebind_in(inputs, vecs, pool)?,
            None => {
                self.plan = Some(ExprPlan::new_in(
                    &self.graph,
                    self.root,
                    inputs,
                    vecs,
                    self.algo,
                    pool,
                )?)
            }
        }
        // Binding materialized the values already; just publish the
        // root (bare-input roots read straight from the inputs).
        let plan = self.plan.as_ref().expect("installed above");
        match plan.root_into(out) {
            Ok(()) => Ok(()),
            Err(_) => {
                let ExprOp::Input { slot } = self.graph.nodes()[self.root.index()] else {
                    unreachable!("root_into only fails for input roots")
                };
                write_csr(inputs[slot], out);
                Ok(())
            }
        }
    }

    /// [`ExprCache::execute_into_in`] on the process-global pool.
    pub fn execute_into(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        out: &mut Csr<f64>,
    ) -> Result<(), SparseError> {
        self.execute_into_in(inputs, vecs, out, spgemm_par::global_pool())
    }

    /// Hit/rebuild counters.
    pub fn stats(&self) -> ExprCacheStats {
        self.stats
    }

    /// The cached plan, once one exists.
    pub fn plan(&self) -> Option<&ExprPlan> {
        self.plan.as_ref()
    }
}
