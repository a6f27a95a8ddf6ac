//! Delta propagation through expression DAGs: [`DeltaPlan`].
//!
//! [`crate::expr::ExprPlan`] re-executes a whole pipeline when any
//! input changes. For dynamic-graph workloads the change is a handful
//! of rows, and every node kind admits a *dirty-set transfer
//! function* mapping input deltas to output deltas:
//!
//! | node | rows out | cols out |
//! |------|----------|----------|
//! | `Multiply` | `rows(A) ∪ rows of A touching rows(B)` ([`rows_touching`]) | changed entries' columns |
//! | `Transpose` | `cols(child)` | `rows(child)` |
//! | `Add` / `Hadamard` | union of operand rows | union of operand cols |
//! | `ScaleRows` / `ScaleCols` / `Map` | pass-through | pass-through |
//! | `NormalizeCols` | `rows(child) ∪ rows of child touching cols(child)` ([`rows_touching`]) | `cols(child)` |
//!
//! A [`DeltaPlan`] holds every needed node's value (and per-`Multiply`
//! [`SpgemmPlan`]s); [`DeltaPlan::update_in`] takes one input slot's
//! new value with the rows that may differ (what
//! [`Csr::apply_patch`] returns) and walks the DAG once, recomputing
//! **only** each node's dirty rows and splicing them into the cached
//! value — so a k-row edit costs `O(k · fanout)` recomputed rows
//! instead of the whole pipeline. Every spliced value is byte-for-byte
//! what [`DeltaPlan::bind`] would produce from scratch on the new
//! inputs; the `tests/` differential oracle pins exactly that. Node
//! values are shared `Arc`s, so a reader (`spgemm-serve`'s expression
//! jobs, which run on cached `DeltaPlan`s) takes one without a copy.

use crate::delta::{rows_touching, splice_rows, DirtyRows};
use crate::expr::{ExprGraph, ExprOp, NodeId};
use crate::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_obs as obs;
use spgemm_par::Pool;
use spgemm_sparse::{ops, ColIdx, Csr, PlusTimes, SparseError};
use std::sync::Arc;

/// The dirty footprint of one node's value: which rows changed, and
/// which columns hold at least one changed entry. Both are sound
/// over-approximations (supersets of the truly-changed sets).
#[derive(Clone, Debug)]
pub struct NodeDelta {
    /// Rows of the node's value that may differ from before the edit.
    pub rows: DirtyRows,
    /// Columns holding at least one changed entry.
    pub cols: DirtyRows,
}

/// What one [`DeltaPlan::update_in`] recomputed, against the size of the
/// pipeline — the "k-row edit touches O(k·fanout) rows" claim in
/// numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Rows recomputed across all non-input nodes this update.
    pub rows_recomputed: usize,
    /// Total rows across all non-input nodes (the full-recompute
    /// cost this update avoided paying).
    pub rows_total: usize,
}

impl DeltaReport {
    /// `rows_recomputed / rows_total` (0 for an empty pipeline).
    pub fn fraction(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            self.rows_recomputed as f64 / self.rows_total as f64
        }
    }
}

/// The columns in `rows` where `old` and `new` differ (structurally
/// or in value bits). Both matrices must be sorted and equal-shaped;
/// rows outside `rows` are assumed identical (not inspected).
pub fn touched_cols(old: &Csr<f64>, new: &Csr<f64>, rows: &DirtyRows) -> DirtyRows {
    debug_assert_eq!(old.shape(), new.shape());
    debug_assert!(old.is_sorted() && new.is_sorted());
    let mut cols = DirtyRows::new(old.ncols());
    for i in rows.iter() {
        let (ov, nv) = (old.row_vals(i), new.row_vals(i));
        ops::merge_sorted_rows(old.row_cols(i), new.row_cols(i), |col, p, q| {
            if p.map(|p| ov[p].to_bits()) != q.map(|q| nv[q].to_bits()) {
                cols.insert(col as usize);
            }
        });
    }
    cols
}

/// An incrementally-updatable evaluation of one expression DAG.
///
/// Unlike the fused [`crate::expr::ExprPlan`], a `DeltaPlan`
/// materializes every needed node's value — that is the state delta
/// propagation splices into. Bind once with [`DeltaPlan::bind`], then
/// hand input slots their new values with [`DeltaPlan::update_in`];
/// the root (and every intermediate) is kept current at the cost of
/// the dirty rows only.
///
/// ```
/// use spgemm::delta::DeltaPlan;
/// use spgemm::expr::{ElemMap, ExprGraph};
/// use spgemm::Algorithm;
/// use spgemm_sparse::{Csr, RowPatch};
///
/// let mut g = ExprGraph::new();
/// let a = g.input();
/// let sq = g.multiply(a, a);
/// let root = g.normalize_cols(sq);
///
/// let m = Csr::<f64>::identity(64);
/// let mut plan = DeltaPlan::bind(&g, root, Algorithm::Hash, &[&m], &[])?;
///
/// let mut patch = RowPatch::new();
/// patch.insert(3, 9, 0.5);
/// let (m2, dirty) = m.apply_patch(&patch)?;
/// let report = plan.update_in(0, &m2, &dirty, spgemm_par::global_pool())?;
/// assert!(report.rows_recomputed < report.rows_total / 2);
/// assert!(plan.root().get(3, 9).is_some());
/// # Ok::<(), spgemm_sparse::SparseError>(())
/// ```
pub struct DeltaPlan {
    graph: ExprGraph,
    root: NodeId,
    algo: Algorithm,
    needed: Vec<bool>,
    inputs: Vec<Arc<Csr<f64>>>,
    vecs: Vec<Vec<f64>>,
    outs: Vec<Option<Arc<Csr<f64>>>>,
    plans: Vec<Option<SpgemmPlan<PlusTimes<f64>>>>,
}

impl DeltaPlan {
    /// Bind `graph`'s `root` against concrete inputs on the global
    /// pool, fully evaluating every needed node.
    pub fn bind(
        graph: &ExprGraph,
        root: NodeId,
        algo: Algorithm,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
    ) -> Result<Self, SparseError> {
        Self::bind_in(graph, root, algo, inputs, vecs, spgemm_par::global_pool())
    }

    /// [`DeltaPlan::bind`] on an explicit pool.
    pub fn bind_in(
        graph: &ExprGraph,
        root: NodeId,
        algo: Algorithm,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<Self, SparseError> {
        if inputs.len() != graph.num_inputs() || vecs.len() != graph.num_vec_inputs() {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "DeltaPlan::bind: got {} inputs / {} vectors, graph declares {} / {}",
                    inputs.len(),
                    vecs.len(),
                    graph.num_inputs(),
                    graph.num_vec_inputs()
                ),
            });
        }
        if inputs.iter().any(|m| !m.is_sorted()) {
            return Err(SparseError::Unsorted {
                op: "DeltaPlan::bind",
            });
        }
        let mut plan = DeltaPlan {
            graph: graph.clone(),
            root,
            algo,
            needed: graph.reachable(root),
            inputs: inputs.iter().map(|m| Arc::new((*m).clone())).collect(),
            vecs: vecs.iter().map(|v| v.to_vec()).collect(),
            outs: vec![None; graph.len()],
            plans: (0..graph.len()).map(|_| None).collect(),
        };
        for idx in 0..plan.graph.len() {
            if !plan.needed[idx] {
                continue;
            }
            let value = plan.eval_node(idx, pool)?;
            plan.outs[idx] = Some(value);
        }
        Ok(plan)
    }

    /// Fully evaluate node `idx` (operands already evaluated).
    fn eval_node(&mut self, idx: usize, pool: &Pool) -> Result<Arc<Csr<f64>>, SparseError> {
        fn out(outs: &[Option<Arc<Csr<f64>>>], id: NodeId) -> &Csr<f64> {
            outs[id.index()].as_ref().expect("topological order")
        }
        Ok(Arc::new(match self.graph.nodes()[idx] {
            ExprOp::Input { slot } => return Ok(Arc::clone(&self.inputs[slot])),
            ExprOp::Multiply { a, b } => {
                let (av, bv) = (out(&self.outs, a), out(&self.outs, b));
                let plan = SpgemmPlan::<PlusTimes<f64>>::new_in(
                    av,
                    bv,
                    self.algo,
                    OutputOrder::Sorted,
                    pool,
                )?;
                let c = plan.execute_in(av, bv, pool)?;
                self.plans[idx] = Some(plan);
                c
            }
            ExprOp::Transpose { a } => ops::transpose_in(out(&self.outs, a), pool),
            ExprOp::Add { a, b } => ops::add(out(&self.outs, a), out(&self.outs, b))?,
            ExprOp::Hadamard { a, b } => ops::hadamard(out(&self.outs, a), out(&self.outs, b))?,
            ExprOp::ScaleRows { a, v } => {
                ops::scale_rows(out(&self.outs, a), &self.vecs[v.index()])?
            }
            ExprOp::ScaleCols { a, v } => {
                ops::scale_cols(out(&self.outs, a), &self.vecs[v.index()])?
            }
            ExprOp::Map { a, f } => out(&self.outs, a).map(|v| f.apply(v)),
            ExprOp::NormalizeCols { a } => ops::normalize_columns(out(&self.outs, a)),
        }))
    }

    /// The root node's current value, shared: clone the `Arc` to keep
    /// it past the next update.
    pub fn root(&self) -> &Arc<Csr<f64>> {
        self.value(self.root).expect("root is always needed")
    }

    /// A needed node's current value (`None` for unneeded nodes).
    pub fn value(&self, node: NodeId) -> Option<&Arc<Csr<f64>>> {
        self.outs[node.index()].as_ref()
    }

    /// The current value of input slot `slot`.
    pub fn input(&self, slot: usize) -> &Csr<f64> {
        &self.inputs[slot]
    }

    /// Replace input slot `slot` with `new_input` and propagate the
    /// delta through the DAG on `pool`, recomputing only dirty rows of
    /// each node. `dirty` names the rows of `new_input` that may differ
    /// from the slot's current value — what
    /// [`Csr::apply_patch`] returns; any superset is fine, rows outside
    /// it must match byte for byte. Every node's value afterwards is
    /// byte-for-byte what a fresh [`DeltaPlan::bind`] on the new inputs
    /// would hold.
    ///
    /// A slot out of range, a `new_input` of another shape or unsorted,
    /// or a `dirty` set over another row count is rejected before
    /// anything changes. An error from further in (a node's operands
    /// no longer fitting) leaves the nodes before it updated and the
    /// rest stale: a plan whose update returned `Err` must be dropped,
    /// not updated or read again.
    pub fn update_in(
        &mut self,
        slot: usize,
        new_input: &Csr<f64>,
        dirty: &DirtyRows,
        pool: &Pool,
    ) -> Result<DeltaReport, SparseError> {
        let _g = obs::span!("delta", "delta.expr_update");
        let Some(old) = self.inputs.get(slot) else {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "DeltaPlan::update_in: slot {slot} out of {} inputs",
                    self.inputs.len()
                ),
            });
        };
        if new_input.shape() != old.shape() || dirty.nrows() != old.nrows() {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "DeltaPlan::update_in: slot {slot} is {:?}; got a {:?} input over {} dirty rows",
                    old.shape(),
                    new_input.shape(),
                    dirty.nrows()
                ),
            });
        }
        if !new_input.is_sorted() {
            return Err(SparseError::Unsorted {
                op: "DeltaPlan::update_in",
            });
        }
        let base_cols = touched_cols(old, new_input, dirty);
        self.inputs[slot] = Arc::new(new_input.clone());

        let mut deltas: Vec<Option<NodeDelta>> = vec![None; self.graph.len()];
        let mut report = DeltaReport::default();
        for idx in 0..self.graph.len() {
            if !self.needed[idx] {
                continue;
            }
            let op = self.graph.nodes()[idx];
            if !matches!(op, ExprOp::Input { .. }) {
                report.rows_total += self.outs[idx].as_ref().expect("bound").nrows();
            }
            let delta = self.propagate_node(idx, op, slot, dirty, &base_cols, &deltas, pool)?;
            if let Some(d) = &delta {
                if !matches!(op, ExprOp::Input { .. }) {
                    report.rows_recomputed += d.rows.count();
                }
            }
            deltas[idx] = delta;
        }
        if obs::enabled() {
            static ROWS: obs::CounterSite =
                obs::CounterSite::new("delta", "delta.expr_rows_recomputed");
            ROWS.add(report.rows_recomputed as u64);
        }
        Ok(report)
    }

    /// Recompute node `idx`'s dirty rows per its transfer function and
    /// return the node's output delta (`None` if untouched).
    #[allow(clippy::too_many_arguments)]
    fn propagate_node(
        &mut self,
        idx: usize,
        op: ExprOp,
        edited_slot: usize,
        input_rows: &DirtyRows,
        input_cols: &DirtyRows,
        deltas: &[Option<NodeDelta>],
        pool: &Pool,
    ) -> Result<Option<NodeDelta>, SparseError> {
        let d = |id: NodeId| deltas[id.index()].as_ref();
        match op {
            ExprOp::Input { slot } => {
                if slot != edited_slot {
                    return Ok(None);
                }
                self.outs[idx] = Some(Arc::clone(&self.inputs[slot]));
                Ok(Some(NodeDelta {
                    rows: input_rows.clone(),
                    cols: input_cols.clone(),
                }))
            }
            ExprOp::Multiply { a, b } => {
                let (da, db) = (d(a), d(b));
                if da.is_none() && db.is_none() {
                    return Ok(None);
                }
                let old = self.outs[idx].take().expect("bound");
                let (out_rows, c) = {
                    let av = self.outs[a.index()].as_ref().expect("topological order");
                    let bv = self.outs[b.index()].as_ref().expect("topological order");
                    let dirty_a = da
                        .map(|x| x.rows.clone())
                        .unwrap_or_else(|| DirtyRows::new(av.nrows()));
                    let dirty_b = db
                        .map(|x| x.rows.clone())
                        .unwrap_or_else(|| DirtyRows::new(bv.nrows()));
                    let plan = self.plans[idx].as_mut().expect("bound Multiply node");
                    let out_rows = plan.rebind_rows_in(av, bv, &dirty_a, &dirty_b, pool)?;
                    let mut c = Csr::clone(&old);
                    plan.execute_rows_in(av, bv, &out_rows, &mut c, pool)?;
                    (out_rows, c)
                };
                let cols = touched_cols(&old, &c, &out_rows);
                self.outs[idx] = Some(Arc::new(c));
                Ok(Some(NodeDelta {
                    rows: out_rows,
                    cols,
                }))
            }
            ExprOp::Transpose { a } => {
                let Some(da) = d(a) else { return Ok(None) };
                let av = self.outs[a.index()].as_ref().expect("topological order");
                // A transpose relocates every entry; recompute in full
                // (and report it honestly) — but the *delta* it hands
                // downstream is the exact rows↔cols swap.
                let delta = NodeDelta {
                    rows: da.cols.clone(),
                    cols: da.rows.clone(),
                };
                self.outs[idx] = Some(Arc::new(ops::transpose_in(av, pool)));
                Ok(Some(delta))
            }
            ExprOp::Add { a, b } => self.recompute_merge(idx, a, b, deltas, false),
            ExprOp::Hadamard { a, b } => self.recompute_merge(idx, a, b, deltas, true),
            ExprOp::ScaleRows { a, v } => {
                let factors = &self.vecs[v.index()];
                Ok(d(a).map(|da| {
                    remap_rows(&mut self.outs, idx, a, &da.rows, |i, _, x| x * factors[i]);
                    da.clone()
                }))
            }
            ExprOp::ScaleCols { a, v } => {
                let factors = &self.vecs[v.index()];
                Ok(d(a).map(|da| {
                    remap_rows(&mut self.outs, idx, a, &da.rows, |_, c, x| {
                        x * factors[c as usize]
                    });
                    da.clone()
                }))
            }
            ExprOp::Map { a, f } => Ok(d(a).map(|da| {
                remap_rows(&mut self.outs, idx, a, &da.rows, |_, _, x| f.apply(x));
                da.clone()
            })),
            ExprOp::NormalizeCols { a } => {
                let Some(da) = d(a) else { return Ok(None) };
                let av = self.outs[a.index()].as_ref().expect("topological order");
                // A dirty column's sum changes, so every row holding
                // that column renormalizes — not just the edited rows.
                let rows = rows_touching(av, &da.cols, da.rows.clone());
                // Column sums are recomputed from scratch in storage
                // order — clean columns sum identical bytes, dirty
                // ones get their fresh divisor — so every spliced
                // value matches `ops::normalize_columns` bit-for-bit.
                let mut colsum = vec![0.0f64; av.ncols()];
                for (&c, &x) in av.cols().iter().zip(av.vals()) {
                    colsum[c as usize] += x;
                }
                remap_rows(&mut self.outs, idx, a, &rows, |_, c, x| {
                    let s = colsum[c as usize];
                    if s != 0.0 {
                        x / s
                    } else {
                        x
                    }
                });
                Ok(Some(NodeDelta {
                    rows,
                    cols: da.cols.clone(),
                }))
            }
        }
    }

    /// Recompute the dirty rows of an `Add` (`intersect == false`) or
    /// `Hadamard` (`intersect == true`) node over the same
    /// [`ops::merge_sorted_rows`] walk as [`ops::add`] /
    /// [`ops::hadamard`], so the bytes agree by construction.
    fn recompute_merge(
        &mut self,
        idx: usize,
        a: NodeId,
        b: NodeId,
        deltas: &[Option<NodeDelta>],
        intersect: bool,
    ) -> Result<Option<NodeDelta>, SparseError> {
        let delta = match (deltas[a.index()].as_ref(), deltas[b.index()].as_ref()) {
            (None, None) => return Ok(None),
            (Some(d), None) | (None, Some(d)) => d.clone(),
            (Some(da), Some(db)) => {
                let mut d = da.clone();
                d.rows.union_with(&db.rows);
                d.cols.union_with(&db.cols);
                d
            }
        };
        let av = self.outs[a.index()].as_ref().expect("topological order");
        let bv = self.outs[b.index()].as_ref().expect("topological order");
        let old = self.outs[idx].as_ref().expect("bound node");
        let new = splice_rows(old, &delta.rows, |i, cols, vals| {
            let (avals, bvals) = (av.row_vals(i), bv.row_vals(i));
            ops::merge_sorted_rows(av.row_cols(i), bv.row_cols(i), |col, p, q| {
                let x = match (p.map(|p| avals[p]), q.map(|q| bvals[q])) {
                    (Some(x), Some(y)) if intersect => x * y,
                    (Some(x), Some(y)) => x + y,
                    (Some(x), None) | (None, Some(x)) if !intersect => x,
                    _ => return,
                };
                cols.push(col);
                vals.push(x);
            });
        });
        self.outs[idx] = Some(Arc::new(new));
        Ok(Some(delta))
    }
}

/// Recompute `rows` of the element-wise node `idx` over operand `a`
/// and splice them into its cached value: each row keeps the operand
/// row's columns, its values mapped by `f(row, col, value)`.
fn remap_rows(
    outs: &mut [Option<Arc<Csr<f64>>>],
    idx: usize,
    a: NodeId,
    rows: &DirtyRows,
    f: impl Fn(usize, ColIdx, f64) -> f64,
) {
    let av = outs[a.index()].as_ref().expect("topological order");
    let old = outs[idx].as_ref().expect("bound node");
    let new = splice_rows(old, rows, |i, cols, vals| {
        cols.extend_from_slice(av.row_cols(i));
        let entries = av.row_cols(i).iter().zip(av.row_vals(i));
        vals.extend(entries.map(|(&c, &x)| f(i, c, x)));
    });
    outs[idx] = Some(Arc::new(new));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::RowPatch;
    use crate::expr::ElemMap;

    fn ring(n: usize) -> Csr<f64> {
        let triples: Vec<_> = (0..n)
            .map(|i| (i, ((i + 1) % n) as ColIdx, 1.0 + i as f64))
            .collect();
        Csr::from_triplets(n, n, &triples).unwrap()
    }

    #[test]
    fn touched_cols_flags_exact_differences() {
        let a = ring(6);
        let mut p = RowPatch::new();
        p.insert(2, 0, 7.0).update(2, 3, 9.0).delete(4, 5);
        let (b, dirty) = a.apply_patch(&p).unwrap();
        let cols = touched_cols(&a, &b, &dirty);
        assert_eq!(cols.iter().collect::<Vec<_>>(), vec![0, 3, 5]);
    }

    #[test]
    fn update_matches_fresh_bind_on_a_pipeline() {
        let mut g = ExprGraph::new();
        let a = g.input();
        let sq = g.multiply(a, a);
        let inflated = g.map(sq, ElemMap::AbsPow(2.0));
        let root = g.normalize_cols(inflated);

        let m = ring(32);
        let mut plan = DeltaPlan::bind(&g, root, Algorithm::Hash, &[&m], &[]).unwrap();

        let mut patch = RowPatch::new();
        patch.insert(5, 20, 0.25).delete(9, 10);
        let (m2, dirty) = m.apply_patch(&patch).unwrap();
        let report = plan.update_in(0, &m2, &dirty, &Pool::new(2)).unwrap();
        assert!(report.rows_recomputed < report.rows_total);

        let fresh =
            DeltaPlan::bind(&g, root, Algorithm::Hash, &[&plan.input(0).clone()], &[]).unwrap();
        assert_eq!(plan.root(), fresh.root());
    }

    #[test]
    fn untouched_branches_propagate_no_delta() {
        // root = (A·A) + B; editing B must not recompute the product.
        let mut g = ExprGraph::new();
        let a = g.input();
        let b = g.input();
        let sq = g.multiply(a, a);
        let root = g.add(sq, b);

        let ma = ring(16);
        let mb = Csr::<f64>::identity(16);
        let mut plan = DeltaPlan::bind(&g, root, Algorithm::Hash, &[&ma, &mb], &[]).unwrap();
        let mut patch = RowPatch::new();
        patch.insert(3, 3, 5.0);
        let (mb2, dirty) = mb.apply_patch(&patch).unwrap();
        let report = plan.update_in(1, &mb2, &dirty, &Pool::new(1)).unwrap();
        // one row of Add recomputed; the 16-row Multiply untouched
        assert_eq!(report.rows_recomputed, 1);
        assert_eq!(report.rows_total, 32);
    }

    /// What no patch of the bound input can produce is refused before
    /// any node moves.
    #[test]
    fn update_rejects_inputs_no_patch_produces() {
        let mut g = ExprGraph::new();
        let a = g.input();
        let root = g.transpose(a);
        let m = ring(8);
        let mut plan = DeltaPlan::bind(&g, root, Algorithm::Hash, &[&m], &[]).unwrap();
        let pool = Pool::new(1);
        let all = DirtyRows::all(8);
        let mut rpts = vec![2usize; 9];
        rpts[0] = 0;
        let unsorted = Csr::from_parts(8, 8, rpts, vec![3, 1], vec![1.0, 2.0]).unwrap();
        assert!(!unsorted.is_sorted(), "fixture precondition");
        assert!(plan.update_in(1, &m, &all, &pool).is_err(), "slot");
        let wider = Csr::<f64>::zero(8, 9);
        assert!(plan.update_in(0, &wider, &all, &pool).is_err(), "shape");
        let nine = DirtyRows::all(9);
        assert!(plan.update_in(0, &m, &nine, &pool).is_err(), "dirty set");
        assert!(plan.update_in(0, &unsorted, &all, &pool).is_err(), "order");
        assert_eq!(**plan.root(), ops::transpose(&m));
    }
}
