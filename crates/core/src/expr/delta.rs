//! Row updates through a bound [`ExprPlan`]: [`ExprPlan::update_in`].
//!
//! For dynamic-graph workloads an input changes a handful of rows at a
//! time, and every node kind admits a *dirty-set transfer function*
//! mapping its operands' deltas to its own:
//!
//! | node | rows out | cols out | the plan's work |
//! |------|----------|----------|-----------------|
//! | `Multiply` | `rows(A) ∪ rows of A touching rows(B)` ([`rows_touching`]) | changed entries' columns | those rows only |
//! | `Transpose` | `cols(child)` | `rows(child)` | structure rebuilt |
//! | `Add` / `Hadamard` | union of operand rows | union of operand cols | provenance rebuilt |
//! | `ScaleRows` / `ScaleCols` / `Map` | pass-through | pass-through | fused: with its owner; else rebuilt |
//! | `NormalizeCols` | `rows(child) ∪ rows of child touching cols(child)` ([`rows_touching`]) | `cols(child)` | rebuilt |
//!
//! A `Multiply` recomputes only its dirty rows in its own buffer
//! ([`crate::SpgemmPlan::rebind_rows_in`] +
//! [`crate::SpgemmPlan::execute_rows_in`]); the row-local epilogues fused
//! into that buffer then rewrite just those rows — which is why only
//! row-local nodes fuse. Every other node rebuilds its cached refill
//! state from its operands, so the next
//! [`ExprPlan::execute_into_in`] is still a numeric-only refill. The
//! plan after an update is byte-for-byte the one a fresh
//! [`ExprPlan::new_in`] on the new inputs would hold; the `tests/`
//! differential oracle pins exactly that.

use super::plan::{apply_unary, dims, resolve, NodeState, ValueLoc};
use crate::delta::{rows_touching, DirtyRows};
use crate::expr::{ExprOp, ExprPlan, NodeId};
use spgemm_obs as obs;
use spgemm_par::Pool;
use spgemm_sparse::{ops, Csr, SparseError};

/// The dirty footprint of one node's value: which rows changed, and
/// which columns hold at least one changed entry. Both are sound
/// over-approximations (supersets of the truly-changed sets).
#[derive(Clone, Debug)]
struct NodeDelta {
    rows: DirtyRows,
    cols: DirtyRows,
}

/// What one [`ExprPlan::update_in`] recomputed, against the size of the
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
/// rows outside `rows` are not inspected.
fn touched_cols(old: &Csr<f64>, new: &Csr<f64>, rows: &DirtyRows) -> DirtyRows {
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

impl ExprPlan {
    /// Bring the plan to new inputs that differ from the bound ones in
    /// input slot `slot` only, recomputing just the dirty rows of each
    /// node on `pool`. `inputs` and `vecs` are what
    /// [`ExprPlan::execute_into_in`] takes, with `inputs[slot]` already
    /// at its new value and `vecs` as last executed; `old` is the
    /// slot's previous value and `dirty` the rows of `inputs[slot]`
    /// that may differ from it — what [`Csr::apply_patch`] returns; any
    /// superset is fine, rows outside it must match byte for byte.
    /// Afterwards every node, the root and the input fingerprints are
    /// byte-for-byte what a fresh [`ExprPlan::new_in`] on `inputs`
    /// holds, so [`ExprPlan::matches_inputs`] accepts them and the next
    /// [`ExprPlan::execute_into_in`] is a numeric-only refill.
    ///
    /// A slot out of range, an `old` of another shape or entry count
    /// than the bound value, a new value of another shape or unsorted, another slot or vector
    /// off its bound shape, a `dirty` set over another row count or a
    /// pool of another width is rejected before anything changes. An
    /// error from further in leaves the plan unbound: it refuses to
    /// execute until a [`ExprPlan::rebind_in`] succeeds.
    ///
    /// ```
    /// use spgemm::expr::{ExprGraph, ExprPlan};
    /// use spgemm::Algorithm;
    /// use spgemm_par::Pool;
    /// use spgemm_sparse::{Csr, RowPatch};
    ///
    /// let mut g = ExprGraph::new();
    /// let a = g.input();
    /// let sq = g.multiply(a, a);
    /// let root = g.normalize_cols(sq);
    ///
    /// let pool = &Pool::new(2);
    /// let m = Csr::<f64>::identity(64);
    /// let mut plan = ExprPlan::new_in(&g, root, &[&m], &[], Algorithm::Hash, pool)?;
    ///
    /// let mut patch = RowPatch::new();
    /// patch.insert(3, 9, 0.5);
    /// let (m2, dirty) = m.apply_patch(&patch)?;
    /// let report = plan.update_in(&[&m2], &[], 0, &m, &dirty, pool)?;
    /// assert!(report.rows_recomputed < report.rows_total / 2);
    /// assert!(plan.matches_inputs(&[&m2]));
    /// let mut root_value = Csr::zero(0, 0);
    /// plan.root_into(&mut root_value)?;
    /// assert!(root_value.get(3, 9).is_some());
    /// # Ok::<(), spgemm_sparse::SparseError>(())
    /// ```
    pub fn update_in(
        &mut self,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        slot: usize,
        old: &Csr<f64>,
        dirty: &DirtyRows,
        pool: &Pool,
    ) -> Result<DeltaReport, SparseError> {
        let _g = obs::span!("delta", "delta.expr_update");
        let planned = self.input_shapes.get(slot).copied();
        let new_shape = inputs.get(slot).map(|m| m.shape());
        let (old_dims, nrows) = (dims(old), dirty.nrows());
        if planned != Some(old_dims) || new_shape != Some(old.shape()) || nrows != old.nrows() {
            return Err(SparseError::PlanMismatch {
                detail: format!(
                    "ExprPlan::update_in: slot {slot} is bound as {planned:?}; got an old \
                     value {old_dims:?}, a new one {new_shape:?} and {nrows} dirty rows"
                ),
            });
        }
        self.check(inputs, vecs, pool, Some(slot))?;
        let new = inputs[slot];
        let edit = NodeDelta {
            cols: touched_cols(old, new, dirty),
            rows: dirty.clone(),
        };

        self.bound = false;
        let mut deltas: Vec<Option<NodeDelta>> = vec![None; self.graph.len()];
        let mut report = DeltaReport::default();
        for i in 0..self.graph.len() {
            let op = self.graph.nodes()[i];
            deltas[i] = match op {
                _ if !self.needed[i] => None,
                ExprOp::Input { slot: s } => (s == slot).then(|| edit.clone()),
                _ => {
                    report.rows_total += resolve(self.value_of[i], inputs, &self.bufs).nrows();
                    let delta = self.update_node(i, op, &deltas, inputs, vecs, pool)?;
                    report.rows_recomputed += delta.as_ref().map_or(0, |d| d.rows.count());
                    delta
                }
            };
        }
        self.input_shapes[slot] = dims(new);
        self.input_sigs[slot] = new.structure_fingerprint();
        self.bound = true;
        if obs::enabled() {
            static ROWS: obs::CounterSite =
                obs::CounterSite::new("delta", "delta.expr_rows_recomputed");
            ROWS.add(report.rows_recomputed as u64);
        }
        Ok(report)
    }

    /// Bring node `i` up to date per its transfer function and return
    /// its output delta (`None` if no operand moved).
    fn update_node(
        &mut self,
        i: usize,
        op: ExprOp,
        deltas: &[Option<NodeDelta>],
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<Option<NodeDelta>, SparseError> {
        let d = |id: Option<NodeId>| id.and_then(|id| deltas[id.index()].as_ref());
        let (a, b) = op.operands();
        let (da, db) = (d(a), d(b));
        if da.is_none() && db.is_none() {
            return Ok(None);
        } else if let ExprOp::Multiply { .. } = op {
            return self.patch_product(i, da, db, inputs, vecs, pool).map(Some);
        }
        let mut delta = da.or(db).expect("an operand moved").clone();
        if let (Some(_), Some(y)) = (da, db) {
            delta.rows.union_with(&y.rows);
            delta.cols.union_with(&y.cols);
        }
        let delta = match op {
            // Rewritten with its owner's rows when the owner updated.
            _ if matches!(self.value_of[i], ValueLoc::Buf(owner) if owner != i) => {
                return Ok(Some(delta))
            }
            // A transpose relocates every entry (its structure is
            // rebuilt in full), but the delta it hands downstream is
            // the exact rows ↔ cols swap.
            ExprOp::Transpose { .. } => NodeDelta {
                rows: delta.cols,
                cols: delta.rows,
            },
            // A dirty column's sum changes, so every row holding that
            // column renormalizes — not just the edited rows.
            ExprOp::NormalizeCols { a } => {
                let av = resolve(self.value_of[a.index()], inputs, &self.bufs);
                NodeDelta {
                    rows: rows_touching(av, &delta.cols, delta.rows),
                    cols: delta.cols,
                }
            }
            _ => delta,
        };
        self.bind_node(i, inputs, vecs, pool)?;
        for j in self.epilogues_of(i) {
            self.bind_node(j, inputs, vecs, pool)?;
        }
        Ok(Some(delta))
    }

    /// Recompute the dirty rows of `Multiply` node `i` in its buffer,
    /// re-apply the epilogues fused into it on just those rows, and
    /// return the rows with the columns whose final values moved.
    fn patch_product(
        &mut self,
        i: usize,
        da: Option<&NodeDelta>,
        db: Option<&NodeDelta>,
        inputs: &[&Csr<f64>],
        vecs: &[&[f64]],
        pool: &Pool,
    ) -> Result<NodeDelta, SparseError> {
        let (head, tail) = self.bufs.split_at_mut(i);
        let me = &mut tail[0];
        let NodeState::Multiply { a, b, plan } = &mut self.states[i] else {
            unreachable!("a Multiply node holds a product plan")
        };
        let (ar, br) = (resolve(*a, inputs, head), resolve(*b, inputs, head));
        let (clean_a, clean_b) = (DirtyRows::new(ar.nrows()), DirtyRows::new(br.nrows()));
        let dirty_a = da.map_or(&clean_a, |x| &x.rows);
        let dirty_b = db.map_or(&clean_b, |x| &x.rows);
        let rows = plan.rebind_rows_in(ar, br, dirty_a, dirty_b, pool)?;
        // The rows about to be overwritten, every other row empty: all
        // `touched_cols` reads of the previous value.
        let before = me.filter(|r, _, _| rows.contains(r));
        plan.execute_rows_in(ar, br, &rows, me, pool)?;
        for j in self.epilogues_of(i) {
            let NodeState::Unary { kind, .. } = &mut self.states[j] else {
                unreachable!("only unary nodes fuse")
            };
            apply_unary(kind, &mut self.bufs[i], vecs, Some(&rows))?;
        }
        let cols = touched_cols(&before, &self.bufs[i], &rows);
        Ok(NodeDelta { rows, cols })
    }

    /// The fused epilogues rewriting node `i`'s buffer, in node order.
    fn epilogues_of(&self, i: usize) -> Vec<usize> {
        (i + 1..self.graph.len())
            .filter(|&j| matches!(self.value_of[j], ValueLoc::Buf(owner) if owner == i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::RowPatch;
    use crate::expr::{ElemMap, ExprGraph};
    use crate::Algorithm;
    use spgemm_sparse::ColIdx;

    fn ring(n: usize) -> Csr<f64> {
        let triples: Vec<_> = (0..n)
            .map(|i| (i, ((i + 1) % n) as ColIdx, 1.0 + i as f64))
            .collect();
        Csr::from_triplets(n, n, &triples).unwrap()
    }

    fn root_of(plan: &ExprPlan) -> Csr<f64> {
        let mut out = Csr::zero(0, 0);
        plan.root_into(&mut out).unwrap();
        out
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

        let (m, pool) = (ring(32), Pool::new(2));
        let mut plan = ExprPlan::new_in(&g, root, &[&m], &[], Algorithm::Hash, &pool).unwrap();

        let mut patch = RowPatch::new();
        patch.insert(5, 20, 0.25).delete(9, 10);
        let (m2, dirty) = m.apply_patch(&patch).unwrap();
        let report = plan.update_in(&[&m2], &[], 0, &m, &dirty, &pool).unwrap();
        assert!(report.rows_recomputed < report.rows_total);

        let fresh = ExprPlan::new_in(&g, root, &[&m2], &[], Algorithm::Hash, &pool).unwrap();
        assert_eq!(root_of(&plan), root_of(&fresh));
    }

    #[test]
    fn untouched_branches_propagate_no_delta() {
        // root = (A·A) + B; editing B must not recompute the product.
        let mut g = ExprGraph::new();
        let a = g.input();
        let b = g.input();
        let sq = g.multiply(a, a);
        let root = g.add(sq, b);

        let (ma, mb, pool) = (ring(16), Csr::<f64>::identity(16), Pool::new(1));
        let mut plan =
            ExprPlan::new_in(&g, root, &[&ma, &mb], &[], Algorithm::Hash, &pool).unwrap();
        let mut patch = RowPatch::new();
        patch.insert(3, 3, 5.0);
        let (mb2, dirty) = mb.apply_patch(&patch).unwrap();
        let report = plan
            .update_in(&[&ma, &mb2], &[], 1, &mb, &dirty, &pool)
            .unwrap();
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
        let pool = Pool::new(1);
        let mut plan = ExprPlan::new_in(&g, root, &[&m], &[], Algorithm::Hash, &pool).unwrap();
        let all = DirtyRows::all(8);
        let mut rpts = vec![2usize; 9];
        rpts[0] = 0;
        let unsorted = Csr::from_parts(8, 8, rpts, vec![3, 1], vec![1.0, 2.0]).unwrap();
        assert!(!unsorted.is_sorted(), "fixture precondition");
        assert!(
            plan.update_in(&[&m], &[], 1, &m, &all, &pool).is_err(),
            "slot"
        );
        let wider = Csr::<f64>::zero(8, 9);
        assert!(
            plan.update_in(&[&wider], &[], 0, &m, &all, &pool).is_err(),
            "shape"
        );
        let nine = DirtyRows::all(9);
        assert!(
            plan.update_in(&[&m], &[], 0, &m, &nine, &pool).is_err(),
            "dirty set"
        );
        assert!(
            plan.update_in(&[&unsorted], &[], 0, &m, &all, &pool)
                .is_err(),
            "order"
        );
        let other = Csr::<f64>::zero(8, 8);
        assert!(
            plan.update_in(&[&m], &[], 0, &other, &all, &pool).is_err(),
            "old"
        );
        assert!(
            plan.update_in(&[&m], &[], 0, &m, &all, &Pool::new(2))
                .is_err(),
            "width"
        );
        assert_eq!(root_of(&plan), ops::transpose(&m));
        assert!(plan.matches_inputs(&[&m]));
    }
}
