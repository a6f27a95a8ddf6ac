//! The four workloads. Each drives its layers from outside, through
//! public functions only, and wraps every such call in a harness span.

pub mod a2_panel;
pub mod dist_large;
pub mod graph_apps;
pub mod serve_mix;

use spgemm::expr::{ElemMap, ExprGraph, NodeId};
use spgemm_sparse::{Csr, PlusTimes};

/// The generator for input or schedule number `tag` of a run seeded
/// `seed`: one independent stream per tag. The program under test
/// never sees it — only generated inputs.
pub fn rng_for(seed: u64, tag: u64) -> spgemm_gen::Rng {
    spgemm_gen::rng(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// The semiring every workload but BFS multiplies over.
pub type P = PlusTimes<f64>;

/// Byte-for-byte equality: shape, structure, and value bit patterns.
pub fn bits_eq(a: &Csr<f64>, b: &Csr<f64>) -> bool {
    a.shape() == b.shape()
        && a.rpts() == b.rpts()
        && a.cols() == b.cols()
        && a.vals().len() == b.vals().len()
        && a.vals()
            .iter()
            .zip(b.vals())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `Err` with the layer error rendered, for `timed_ops`.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The DAG of one MCL round, `normalize_cols(|A·A|^r)` — what
/// `spgemm_apps::mcl::MclPipeline` compiles.
pub fn mcl_step_graph(inflation: f64) -> (ExprGraph, NodeId) {
    let mut g = ExprGraph::new();
    let a = g.input();
    let sq = g.multiply(a, a);
    let inflated = g.map(sq, ElemMap::AbsPow(inflation));
    let root = g.normalize_cols(inflated);
    (g, root)
}
