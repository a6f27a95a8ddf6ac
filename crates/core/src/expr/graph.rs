//! The expression-graph IR: a small append-only DAG of matrix ops.
//!
//! An [`ExprGraph`] is *unbound* — it names input slots, not matrices
//! — so one graph describes a whole family of pipelines (every MCL
//! iteration, every AMG re-coarsening). Binding happens when an
//! [`crate::expr::ExprPlan`] compiles the graph against concrete
//! operands.
//!
//! Node ids are indices into an append-only node list, so a node's
//! operands always precede it: the node order **is** a topological
//! order, and the plan executes it front to back.

use std::sync::Arc;

/// Handle to a node of one [`ExprGraph`]. Only valid for the graph
/// that created it (checked on use).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node's position in the graph's topological order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a dense-vector input slot (scaling factors) of one
/// [`ExprGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VecId(pub(crate) u32);

impl VecId {
    /// The vector slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A named element-wise value map, applied entry-by-entry without
/// touching the structure. Named (rather than an arbitrary closure) so
/// node fingerprints — and therefore cross-tenant result caching in
/// `spgemm-serve` — stay well-defined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ElemMap {
    /// `|v|^r` — MCL's inflation power. `r = 2` is computed as
    /// `|v|·|v|` (one correctly rounded product); every other exponent
    /// through `powf`.
    AbsPow(f64),
    /// `v * s`.
    Scale(f64),
    /// `v + s`.
    Shift(f64),
}

impl ElemMap {
    /// Apply the map to one value.
    #[inline]
    pub fn apply(&self, v: f64) -> f64 {
        match *self {
            ElemMap::AbsPow(2.0) => {
                let x = v.abs();
                x * x
            }
            ElemMap::AbsPow(r) => v.abs().powf(r),
            ElemMap::Scale(s) => v * s,
            ElemMap::Shift(s) => v + s,
        }
    }

    /// `(variant tag, parameter bits)` for fingerprinting.
    fn fp_words(&self) -> (u64, u64) {
        match *self {
            ElemMap::AbsPow(r) => (1, r.to_bits()),
            ElemMap::Scale(s) => (2, s.to_bits()),
            ElemMap::Shift(s) => (3, s.to_bits()),
        }
    }
}

/// One node of the DAG. All matrix operands are [`NodeId`]s that
/// precede the node; vector operands are [`VecId`] input slots bound
/// at execution.
#[derive(Clone, Copy, Debug)]
pub enum ExprOp {
    /// Leaf: the `slot`-th matrix passed to plan/execute calls.
    Input {
        /// Position in the `inputs` array.
        slot: usize,
    },
    /// `A · B` (SpGEMM, sorted output).
    Multiply {
        /// Left operand.
        a: NodeId,
        /// Right operand.
        b: NodeId,
    },
    /// `Aᵀ`.
    Transpose {
        /// Operand.
        a: NodeId,
    },
    /// `A + B` (structural union; equal shapes).
    Add {
        /// Left operand.
        a: NodeId,
        /// Right operand.
        b: NodeId,
    },
    /// `A ∘ B` (element-wise product on the structural intersection).
    Hadamard {
        /// Left operand.
        a: NodeId,
        /// Right operand.
        b: NodeId,
    },
    /// `diag(v) · A` — scale row `i` by `v[i]`.
    ScaleRows {
        /// Operand.
        a: NodeId,
        /// Factor vector slot (length `nrows`).
        v: VecId,
    },
    /// `A · diag(v)` — scale column `j` by `v[j]`.
    ScaleCols {
        /// Operand.
        a: NodeId,
        /// Factor vector slot (length `ncols`).
        v: VecId,
    },
    /// Element-wise value map (structure unchanged).
    Map {
        /// Operand.
        a: NodeId,
        /// The map.
        f: ElemMap,
    },
    /// Column-stochastic renormalization (MCL; structure unchanged,
    /// zero-sum columns untouched).
    NormalizeCols {
        /// Operand.
        a: NodeId,
    },
}

impl ExprOp {
    /// Matrix operands of the node (0–2 of them).
    pub(crate) fn operands(&self) -> (Option<NodeId>, Option<NodeId>) {
        match *self {
            ExprOp::Input { .. } => (None, None),
            ExprOp::Multiply { a, b } | ExprOp::Add { a, b } | ExprOp::Hadamard { a, b } => {
                (Some(a), Some(b))
            }
            ExprOp::Transpose { a }
            | ExprOp::ScaleRows { a, .. }
            | ExprOp::ScaleCols { a, .. }
            | ExprOp::Map { a, .. }
            | ExprOp::NormalizeCols { a } => (Some(a), None),
        }
    }

    /// The matrix operands, in order.
    pub(crate) fn operand_list(&self) -> impl Iterator<Item = NodeId> {
        let (a, b) = self.operands();
        a.into_iter().chain(b)
    }

    /// Whether the op rewrites each stored value from its own row
    /// alone (structure — and therefore buffer layout — identical to
    /// its operand's). These are the fusion candidates: applied as an
    /// epilogue inside the producing node's buffer when nothing else
    /// consumes it, and re-applied to just the recomputed rows when a
    /// row update patches that buffer. `NormalizeCols` is not one: its
    /// column sums read every row of its operand's unnormalised values.
    pub(crate) fn is_row_local_unary(&self) -> bool {
        matches!(
            self,
            ExprOp::ScaleRows { .. } | ExprOp::ScaleCols { .. } | ExprOp::Map { .. }
        )
    }
}

/// The DAG itself: build with the method-per-op API, then compile with
/// [`crate::expr::ExprPlan`].
///
/// ```
/// use spgemm::expr::{ElemMap, ExprGraph};
///
/// // MCL expansion + inflation: normalize_cols(|A·A|^r)
/// let mut g = ExprGraph::new();
/// let a = g.input();
/// let sq = g.multiply(a, a);
/// let inflated = g.map(sq, ElemMap::AbsPow(2.0));
/// let root = g.normalize_cols(inflated);
/// assert_eq!(g.len(), 4);
/// assert_eq!(root.index(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExprGraph {
    nodes: Vec<ExprOp>,
    inputs: usize,
    vec_inputs: usize,
}

impl ExprGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ExprGraph::default()
    }

    fn push(&mut self, op: ExprOp) -> NodeId {
        for x in op.operand_list() {
            assert!(
                x.index() < self.nodes.len(),
                "operand NodeId from another graph"
            );
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph too large"));
        self.nodes.push(op);
        id
    }

    /// Declare the next matrix input slot.
    pub fn input(&mut self) -> NodeId {
        let slot = self.inputs;
        self.inputs += 1;
        self.push(ExprOp::Input { slot })
    }

    /// Declare the next dense-vector input slot (for
    /// [`ExprGraph::scale_rows`] / [`ExprGraph::scale_cols`]).
    pub fn vec_input(&mut self) -> VecId {
        let slot = self.vec_inputs;
        self.vec_inputs += 1;
        VecId(u32::try_from(slot).expect("graph too large"))
    }

    /// `a · b`.
    pub fn multiply(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(ExprOp::Multiply { a, b })
    }

    /// `(a · b) ∘ mask` — the masked product. Compiled as the
    /// product followed by a Hadamard with the mask, so the product
    /// subexpression is shared with any other consumer and the mask
    /// application is a cached-structure, numeric-only node like every
    /// other element-wise op. (The returned id is the masked node;
    /// the intermediate product node exists in the graph.)
    pub fn masked_multiply(&mut self, a: NodeId, b: NodeId, mask: NodeId) -> NodeId {
        let product = self.multiply(a, b);
        self.hadamard(product, mask)
    }

    /// `aᵀ`.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        self.push(ExprOp::Transpose { a })
    }

    /// `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(ExprOp::Add { a, b })
    }

    /// `a ∘ b`.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(ExprOp::Hadamard { a, b })
    }

    /// `diag(v) · a`.
    pub fn scale_rows(&mut self, a: NodeId, v: VecId) -> NodeId {
        self.check_vec(v);
        self.push(ExprOp::ScaleRows { a, v })
    }

    /// `a · diag(v)`.
    pub fn scale_cols(&mut self, a: NodeId, v: VecId) -> NodeId {
        self.check_vec(v);
        self.push(ExprOp::ScaleCols { a, v })
    }

    fn check_vec(&self, v: VecId) {
        assert!(
            v.index() < self.vec_inputs,
            "VecId from another graph (slot {} of {} declared)",
            v.index(),
            self.vec_inputs
        );
    }

    /// Element-wise `f(a)`.
    pub fn map(&mut self, a: NodeId, f: ElemMap) -> NodeId {
        self.push(ExprOp::Map { a, f })
    }

    /// Column-stochastic renormalization of `a`.
    pub fn normalize_cols(&mut self, a: NodeId) -> NodeId {
        self.push(ExprOp::NormalizeCols { a })
    }

    /// The nodes, in topological (= construction) order.
    pub fn nodes(&self) -> &[ExprOp] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of matrix input slots declared.
    pub fn num_inputs(&self) -> usize {
        self.inputs
    }

    /// Number of dense-vector input slots declared.
    pub fn num_vec_inputs(&self) -> usize {
        self.vec_inputs
    }

    /// Which nodes `root` transitively depends on (including itself).
    pub fn reachable(&self, root: NodeId) -> Vec<bool> {
        assert!(root.index() < self.nodes.len(), "root from another graph");
        let mut needed = vec![false; self.nodes.len()];
        needed[root.index()] = true;
        // Operands precede their consumers, so one reverse sweep
        // propagates the whole closure.
        for i in (0..self.nodes.len()).rev() {
            if needed[i] {
                for x in self.nodes[i].operand_list() {
                    needed[x.index()] = true;
                }
            }
        }
        needed
    }

    /// How many *needed* nodes consume each node's value. A node with
    /// exactly one consumer and an element-wise-unary consumer is a
    /// fusion opportunity.
    pub(crate) fn consumer_counts(&self, needed: &[bool]) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for (op, _) in self.nodes.iter().zip(needed).filter(|(_, &n)| n) {
            for x in op.operand_list() {
                counts[x.index()] += 1;
            }
        }
        counts
    }

    /// How many non-input nodes `root` depends on, itself included:
    /// the nodes a full evaluation of `root` computes.
    pub fn interior_nodes(&self, root: NodeId) -> usize {
        let needed = self.reachable(root);
        (self.nodes.iter().zip(needed))
            .filter(|&(op, needed)| needed && !matches!(op, ExprOp::Input { .. }))
            .count()
    }

    /// Per-node fingerprints: a 64-bit identity of each node's
    /// *computation* — op kind, op parameters, operand fingerprints,
    /// and the caller-supplied leaf fingerprint of each input slot.
    /// `multiply_salt` is mixed into every `Multiply` node; pass the
    /// kernel/options identity there, since different kernels produce
    /// different value *bytes* for the same product.
    ///
    /// With structural leaf fingerprints this identifies each node's
    /// sparsity pattern lineage (what [`crate::expr::ExprPlan`] caches
    /// on); with value-identity leaves (e.g. a store's registration
    /// version) it identifies the node's *result*, which is what
    /// `spgemm-serve` batches identical expression jobs on; with the
    /// slot index as the leaf it identifies the pipeline itself, which
    /// is what serve's cached evaluators are keyed on.
    pub fn node_fingerprints(
        &self,
        leaf_fp: impl Fn(usize) -> u64,
        multiply_salt: u64,
    ) -> Vec<u64> {
        let mut fps = Vec::with_capacity(self.nodes.len());
        for op in &self.nodes {
            let fp = match *op {
                ExprOp::Input { slot } => fnv64(&[0x01, leaf_fp(slot)]),
                ExprOp::Multiply { a, b } => {
                    fnv64(&[0x02, multiply_salt, fps[a.index()], fps[b.index()]])
                }
                ExprOp::Transpose { a } => fnv64(&[0x03, fps[a.index()]]),
                ExprOp::Add { a, b } => fnv64(&[0x04, fps[a.index()], fps[b.index()]]),
                ExprOp::Hadamard { a, b } => fnv64(&[0x05, fps[a.index()], fps[b.index()]]),
                ExprOp::ScaleRows { a, v } => fnv64(&[0x06, fps[a.index()], v.index() as u64]),
                ExprOp::ScaleCols { a, v } => fnv64(&[0x07, fps[a.index()], v.index() as u64]),
                ExprOp::Map { a, f } => {
                    let (tag, bits) = f.fp_words();
                    fnv64(&[0x08, fps[a.index()], tag, bits])
                }
                ExprOp::NormalizeCols { a } => fnv64(&[0x09, fps[a.index()]]),
            };
            fps.push(fp);
        }
        fps
    }
}

/// A shared, immutable graph plus its designated output node — the
/// unit `spgemm-serve`'s expression jobs carry.
#[derive(Clone, Debug)]
pub struct ExprSpec {
    /// The DAG.
    pub graph: Arc<ExprGraph>,
    /// The node whose value the pipeline returns.
    pub root: NodeId,
}

impl ExprSpec {
    /// Wrap a finished graph and its output node.
    pub fn new(graph: ExprGraph, root: NodeId) -> Self {
        assert!(root.index() < graph.len(), "root from another graph");
        ExprSpec {
            graph: Arc::new(graph),
            root,
        }
    }
}

/// FNV-1a over a word sequence (byte-wise, like
/// [`spgemm_sparse::Csr::structure_fingerprint`]) — the mixer behind
/// every expression fingerprint. Public so consumers composing keys
/// *from* node fingerprints (e.g. `spgemm-serve`'s batch keys) stay
/// bit-identical with the layer that produced them.
pub fn fnv64(words: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `AbsPow(2.0)` is the square of the magnitude, bit for bit (any
    /// NaN matching any NaN, as in `bits_eq_f64`), on the values where
    /// a power function and a product could part ways; other exponents
    /// stay on `powf`.
    #[test]
    fn abs_pow_two_is_the_squared_magnitude() {
        let tiny = f64::from_bits(1); // the smallest subnormal
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE,
            1e-160,
            1e160,
            -1.5,
            0.1,
            f64::MAX,
        ];
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let three = std::hint::black_box(3.0f64);
        for v in values.map(std::hint::black_box) {
            let x = v.abs();
            let got = ElemMap::AbsPow(2.0).apply(v);
            assert!(same(got, x * x), "AbsPow(2) of {v:e}: {got:e}");
            let got = ElemMap::AbsPow(3.0).apply(v);
            assert!(same(got, x.powf(three)), "AbsPow(3) of {v:e}: {got:e}");
        }
    }

    #[test]
    fn ids_are_topologically_ordered() {
        let mut g = ExprGraph::new();
        let a = g.input();
        let b = g.input();
        let ab = g.multiply(a, b);
        let t = g.transpose(b);
        let s = g.add(ab, t);
        assert!(a.index() < ab.index() && b.index() < ab.index());
        assert!(t.index() < s.index());
        assert_eq!(g.num_inputs(), 2);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn masked_multiply_desugars_to_product_plus_hadamard() {
        let mut g = ExprGraph::new();
        let a = g.input();
        let m = g.input();
        let masked = g.masked_multiply(a, a, m);
        assert_eq!(g.len(), 4);
        assert!(matches!(g.nodes()[masked.index()], ExprOp::Hadamard { .. }));
        assert!(matches!(
            g.nodes()[masked.index() - 1],
            ExprOp::Multiply { .. }
        ));
    }

    #[test]
    fn reachability_and_consumers() {
        let mut g = ExprGraph::new();
        let a = g.input();
        let sq = g.multiply(a, a);
        let dead = g.transpose(a); // not reachable from root
        let root = g.map(sq, ElemMap::Scale(2.0));
        let needed = g.reachable(root);
        assert!(needed[a.index()] && needed[sq.index()] && needed[root.index()]);
        assert!(!needed[dead.index()]);
        let consumers = g.consumer_counts(&needed);
        assert_eq!(consumers[sq.index()], 1, "map is the only consumer");
        assert_eq!(consumers[a.index()], 2, "a feeds the multiply twice");
        assert_eq!(consumers[dead.index()], 0);
    }

    #[test]
    #[should_panic(expected = "VecId from another graph")]
    fn foreign_vec_id_is_rejected() {
        let mut g1 = ExprGraph::new();
        let v = g1.vec_input();
        let mut g2 = ExprGraph::new();
        let a = g2.input();
        let _ = g2.scale_rows(a, v); // g2 declared no vec inputs
    }

    #[test]
    fn fingerprints_separate_ops_params_and_leaves() {
        let build = |r: f64| {
            let mut g = ExprGraph::new();
            let a = g.input();
            let sq = g.multiply(a, a);
            g.map(sq, ElemMap::AbsPow(r));
            g
        };
        let g1 = build(2.0);
        let g2 = build(3.0);
        let f1 = g1.node_fingerprints(|_| 7, 0);
        let f2 = g2.node_fingerprints(|_| 7, 0);
        assert_eq!(f1[0], f2[0], "same leaf");
        assert_eq!(f1[1], f2[1], "same product");
        assert_ne!(f1[2], f2[2], "inflation exponent differs");
        // leaf identity flows through
        let f3 = g1.node_fingerprints(|_| 8, 0);
        assert_ne!(f1[1], f3[1]);
        // kernel salt reaches products but not leaves
        let f4 = g1.node_fingerprints(|_| 7, 1);
        assert_eq!(f1[0], f4[0]);
        assert_ne!(f1[1], f4[1]);
    }
}
