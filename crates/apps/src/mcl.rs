//! Markov clustering (MCL) iteration — the paper's opening example of
//! an SpGEMM-bound application ("Markov clustering … requires A² for
//! a given doubly-stochastic similarity matrix", §5.4), after HipMCL
//! (Azad et al., 2018).
//!
//! One iteration is: **expansion** (`A ← A²`, the SpGEMM), then
//! **inflation** (elementwise power `r` and column renormalization),
//! then **pruning** of near-zero entries to keep the matrix sparse.
//! Iterated to convergence, columns concentrate onto "attractor" rows
//! that identify clusters.
//!
//! Expansion *and* inflation run as one expression plan
//! ([`spgemm::expr`]): the pipeline `normalize_cols(|A·A|^r)`
//! compiles to a single SpGEMM whose epilogue applies the inflation
//! power in place — the raw square is never materialized separately —
//! followed by the column renormalization into the plan's one other
//! buffer. The plan lives in a [`MclPipeline`] across rounds: while
//! pruning still changes the pattern, each round rebinds the plan
//! (keeping the pooled per-thread accumulators — the Figure 4
//! allocation cost is paid once, not per round), and once the pattern
//! stabilizes near convergence every further expansion is a
//! numeric-only plan hit.
//!
//! The rest of a round is linear and reads the plan's root in place:
//! pruning copies the surviving entries into the round's one new
//! matrix, which is renormalized where it lies, and the change metric
//! merges each row of the old and new matrices. Inflation has one
//! definition, [`ElemMap::AbsPow`], which both the fused epilogue and
//! [`inflate`] apply (at the default `r = 2`, the squared magnitude).

use spgemm::expr::{ElemMap, ExprGraph, ExprPlan, NodeId};
use spgemm::Algorithm;
use spgemm_obs as obs;
use spgemm_par::Pool;
use spgemm_sparse::{ops, Csr, SparseError};

/// MCL hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct MclParams {
    /// Inflation exponent `r` (HipMCL default: 2).
    pub inflation: f64,
    /// Entries below this (after renormalization) are pruned.
    pub prune_threshold: f64,
    /// Maximum number of expansion/inflation rounds.
    pub max_iters: usize,
    /// Convergence: stop when the largest entry change is below this.
    pub tolerance: f64,
    /// SpGEMM kernel for expansion (default [`Algorithm::Auto`]: the
    /// dense accumulator while `A`'s width fits the L2 share, whose
    /// plan replays the pattern its bind wrote, with `Hash`'s bits).
    pub algo: Algorithm,
}

impl Default for MclParams {
    fn default() -> Self {
        MclParams {
            inflation: 2.0,
            prune_threshold: 1e-4,
            max_iters: 32,
            tolerance: 1e-6,
            algo: Algorithm::Auto,
        }
    }
}

/// Normalize columns to sum 1 (column-stochastic). Matrices here are
/// row-major, so this transposes the problem: normalize each column's
/// entries across rows. (Thin wrapper over
/// [`spgemm_sparse::ops::normalize_columns`], whose value pass the
/// expression plan's `NormalizeCols` node shares.)
pub fn normalize_columns(a: &Csr<f64>) -> Csr<f64> {
    ops::normalize_columns(a)
}

/// Inflation: elementwise power `r` ([`ElemMap::AbsPow`], the fused
/// pipeline's epilogue), then column renormalization.
pub fn inflate(a: &Csr<f64>, r: f64) -> Csr<f64> {
    let power = ElemMap::AbsPow(r);
    normalize_columns(&a.map(|v| power.apply(v)))
}

/// What the expression plan did for one MCL round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MclRound {
    /// The round's pattern matched the cached plan: expansion +
    /// inflation ran numeric-only.
    Reused,
    /// The pattern drifted (pruning changed the structure): the plan
    /// was rebound, keeping its pooled accumulators.
    Rebuilt,
}

/// Counters of how an [`MclPipeline`]'s expression plan served its
/// rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MclPlanStats {
    /// Rounds run numeric-only by the plan (the input structure
    /// matched).
    pub hits: u64,
    /// Rounds that (re)bound the plan — the first plus every pattern
    /// change. `Multiply` workspace pools survive rebinds.
    pub rebuilds: u64,
}

/// Per-run plan-reuse report of [`cluster_with_stats`].
#[derive(Clone, Debug, Default)]
pub struct MclStats {
    /// Aggregate expression-plan counters.
    pub expr: MclPlanStats,
    /// Per-iteration record, in round order.
    pub rounds: Vec<MclRound>,
}

/// The fused expansion+inflation pipeline MCL threads through its
/// rounds: the graph `normalize_cols(|A·A|^r)` and its expression plan
/// once the first round binds one, whose root holds each round's
/// expansion.
pub struct MclPipeline {
    graph: ExprGraph,
    root: NodeId,
    plan: Option<ExprPlan>,
    stats: MclPlanStats,
    /// The inflation exponent and kernel baked into the compiled DAG.
    inflation: f64,
    algo: Algorithm,
}

impl MclPipeline {
    /// Build the pipeline for the given parameters. The inflation
    /// exponent and kernel are baked into the compiled DAG; running a
    /// step with *different* values is an error, not a silent
    /// fallback (nothing is planned until the first round binds a
    /// concrete matrix).
    pub fn new(params: &MclParams) -> Self {
        let mut g = ExprGraph::new();
        let a = g.input();
        let sq = g.multiply(a, a);
        let inf = g.map(sq, ElemMap::AbsPow(params.inflation));
        let root = g.normalize_cols(inf);
        MclPipeline {
            graph: g,
            root,
            plan: None,
            stats: MclPlanStats::default(),
            inflation: params.inflation,
            algo: params.algo,
        }
    }

    /// Expression-plan counters so far.
    pub fn stats(&self) -> MclPlanStats {
        self.stats
    }

    /// The compiled plan, once the first round has bound one.
    pub fn plan(&self) -> Option<&ExprPlan> {
        self.plan.as_ref()
    }

    /// Expansion + inflation of `a`, read in place from the plan's
    /// root: a numeric-only execution while `a`'s structure matches the
    /// plan's, a (re)bind — whose pass materializes the values —
    /// otherwise.
    fn expand(&mut self, a: &Csr<f64>, pool: &Pool) -> Result<&Csr<f64>, SparseError> {
        match &mut self.plan {
            Some(p) if p.nthreads() == pool.nthreads() && p.matches_inputs(&[a]) => {
                self.stats.hits += 1;
                p.execute_in(&[a], &[], pool)?;
            }
            Some(p) => {
                self.stats.rebuilds += 1;
                p.rebind_in(&[a], &[], pool)?;
            }
            None => {
                self.stats.rebuilds += 1;
                let p = ExprPlan::new_in(&self.graph, self.root, &[a], &[], self.algo, pool)?;
                self.plan = Some(p);
            }
        }
        let plan = self.plan.as_ref().expect("bound above");
        Ok((plan.root()).expect("the root is a materialized node of a plan that just ran"))
    }
}

/// The round's tail, in one new matrix: the entries of `expanded` at
/// or above `threshold`, each column renormalized to sum 1 — the
/// values of `normalize_columns(&expanded.filter(..))`, bit for bit
/// (the pruned copy's columns are summed in storage order, as there).
fn prune_and_normalize(expanded: &Csr<f64>, threshold: f64) -> Csr<f64> {
    let mut next = expanded.filter(|_, _, v| v >= threshold);
    let ncols = next.ncols();
    let (_, cols, vals) = next.pattern_and_vals_mut();
    ops::normalize_columns_values(ncols, cols, vals, &mut Vec::new());
    next
}

/// `max |new − old|` over the union of two equal-shaped matrices'
/// sorted structures, an entry absent from one side counting as 0:
/// each row pair merged once.
fn max_change(old: &Csr<f64>, new: &Csr<f64>) -> f64 {
    debug_assert!(old.shape() == new.shape() && old.is_sorted() && new.is_sorted());
    let mut delta = 0.0f64;
    for i in 0..old.nrows() {
        let (ov, nv) = (old.row_vals(i), new.row_vals(i));
        ops::merge_sorted_rows(old.row_cols(i), new.row_cols(i), |_, p, q| {
            let change = match (p, q) {
                (Some(p), Some(q)) => nv[q] - ov[p],
                (Some(p), None) => ov[p],
                (None, q) => nv[q.expect("a merge hit has a side")],
            };
            delta = delta.max(change.abs());
        });
    }
    delta
}

/// One MCL round: fused expansion+inflation, then pruning and
/// renormalization. Returns the new matrix and the max absolute entry
/// change (on the shared structure).
///
/// The expansion plan lives in `pipe` so repeated rounds amortize the
/// symbolic phase and accumulator allocations; build it once with
/// [`MclPipeline::new`] and keep it across rounds.
pub fn mcl_step(
    a: &Csr<f64>,
    params: &MclParams,
    pipe: &mut MclPipeline,
    pool: &Pool,
) -> Result<(Csr<f64>, f64), SparseError> {
    // The pipeline compiled `params.inflation` and `params.algo` into
    // its DAG; a drifting inflation schedule needs a new pipeline,
    // not a silently stale epilogue.
    if params.inflation.to_bits() != pipe.inflation.to_bits() || params.algo != pipe.algo {
        return Err(SparseError::PlanMismatch {
            detail: format!(
                "mcl_step params (inflation {}, algo {}) differ from the \
                 pipeline's compiled (inflation {}, algo {}); build a new \
                 MclPipeline for the new parameters",
                params.inflation, params.algo, pipe.inflation, pipe.algo
            ),
        });
    }
    // expansion + inflation in one fused plan execution (the expr
    // layer traces its own bind/multiply/unary phases)
    let expanded = pipe.expand(a, pool)?;
    let renorm = {
        let _g = obs::span!("mcl", "mcl.prune");
        prune_and_normalize(expanded, params.prune_threshold)
    };
    // change metric: max |new - old| over the union of structures
    let _g = obs::span!("mcl", "mcl.delta");
    let delta = max_change(a, &renorm);
    Ok((renorm, delta))
}

/// Run MCL to convergence; returns the cluster assignment per node.
///
/// The input is made symmetric, given self-loops (standard MCL
/// regularization), and column-normalized before iterating. Clusters
/// are extracted by assigning each column to its attractor (the row
/// holding its maximum).
pub fn cluster(
    graph: &Csr<f64>,
    params: &MclParams,
    pool: &Pool,
) -> Result<Vec<usize>, SparseError> {
    cluster_with_stats(graph, params, pool).map(|(labels, _)| labels)
}

/// [`cluster`], additionally reporting how the fused expansion plan
/// behaved: aggregate hit/rebuild counters plus the per-iteration
/// record ([`MclStats::rounds`]) — once the pattern converges, the
/// tail of the record is all [`MclRound::Reused`].
pub fn cluster_with_stats(
    graph: &Csr<f64>,
    params: &MclParams,
    pool: &Pool,
) -> Result<(Vec<usize>, MclStats), SparseError> {
    let sym = ops::symmetrize_simple(graph)?;
    // Self-loops at each column's max weight (the MCL regularization
    // HipMCL uses): keeps loop strength proportional to the vertex's
    // edges so inflation does not collapse pairs into singletons.
    let n = sym.nrows();
    let mut colmax = vec![0.0f64; n];
    for i in 0..n {
        for (&c, &v) in sym.row_cols(i).iter().zip(sym.row_vals(i)) {
            let m = &mut colmax[c as usize];
            if v.abs() > *m {
                *m = v.abs();
            }
        }
    }
    let loop_trips: Vec<(usize, u32, f64)> =
        (0..n).map(|i| (i, i as u32, colmax[i].max(1.0))).collect();
    let loops = Csr::from_triplets(n, n, &loop_trips)?;
    let with_loops = ops::add(&sym, &loops)?;
    let mut m = normalize_columns(&with_loops);
    let mut pipe = MclPipeline::new(params);
    let mut rounds = Vec::new();
    for _ in 0..params.max_iters {
        let before = pipe.stats().rebuilds;
        let (next, delta) = mcl_step(&m, params, &mut pipe, pool)?;
        rounds.push(if pipe.stats().rebuilds > before {
            MclRound::Rebuilt
        } else {
            MclRound::Reused
        });
        m = next;
        if delta < params.tolerance {
            break;
        }
    }
    // attractor per column = argmax row
    let n = m.nrows();
    let mut best = vec![(0.0f64, usize::MAX); n]; // per column: (val, row)
    for i in 0..n {
        for (&c, &v) in m.row_cols(i).iter().zip(m.row_vals(i)) {
            let e = &mut best[c as usize];
            if v > e.0 {
                *e = (v, i);
            }
        }
    }
    // canonicalize attractor ids to 0..k
    let mut label_of_attractor = std::collections::HashMap::new();
    let mut labels = vec![0usize; n];
    for (col, &(_, attractor)) in best.iter().enumerate() {
        let a = if attractor == usize::MAX {
            col
        } else {
            attractor
        };
        let next_id = label_of_attractor.len();
        let id = *label_of_attractor.entry(a).or_insert(next_id);
        labels[col] = id;
    }
    Ok((
        labels,
        MclStats {
            expr: pipe.stats(),
            rounds,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The change metric as it was computed before the row merge: a
    /// `Csr::get` lookup per entry, both ways.
    fn max_change_by_lookup(old: &Csr<f64>, new: &Csr<f64>) -> f64 {
        let mut delta = 0.0f64;
        for i in 0..new.nrows() {
            for (&c, &v) in new.row_cols(i).iter().zip(new.row_vals(i)) {
                let was = old.get(i, c).copied().unwrap_or(0.0);
                delta = delta.max((v - was).abs());
            }
            for (&c, &v) in old.row_cols(i).iter().zip(old.row_vals(i)) {
                if new.get(i, c).is_none() {
                    delta = delta.max(v.abs());
                }
            }
        }
        delta
    }

    /// An `n × n` matrix of the given `(row, col, value kind)` entries,
    /// with every entry of row `dead` below the default prune threshold.
    fn matrix(n: usize, entries: &[(usize, usize, usize)], dead: usize) -> Csr<f64> {
        const VALUES: [f64; 7] = [1e-6, 5e-5, 1e-4, 0.3, 1.0, 2.5, -0.75];
        let trips: Vec<(usize, u32, f64)> = (entries.iter())
            .map(|&(r, c, k)| (r, c as u32, if r == dead { 1e-6 } else { VALUES[k] }))
            .collect();
        Csr::from_triplets(n, n, &trips).unwrap()
    }

    fn arb_pair() -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
        (1usize..=12).prop_flat_map(|n| {
            let entries = || proptest::collection::vec((0..n, 0..n, 0usize..7), 0..=4 * n);
            (entries(), entries(), 0..n)
                .prop_map(move |(x, y, dead)| (matrix(n, &x, n), matrix(n, &y, dead)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The round's tail — prune + renormalize in one copy, then the
        /// merged change metric — equals the two-copy
        /// `normalize_columns(filter(..))` and the per-entry lookup
        /// metric bit for bit, rows pruned empty included.
        #[test]
        fn round_tail_matches_the_two_copy_lookup_form((old, expanded) in arb_pair()) {
            let t = MclParams::default().prune_threshold;
            let next = prune_and_normalize(&expanded, t);
            let expect = normalize_columns(&expanded.filter(|_, _, v| v >= t));
            prop_assert!(spgemm_sparse::bits_eq_f64(&next, &expect));
            for (a, b) in [(&old, &next), (&next, &old), (&old, &expanded)] {
                let (got, want) = (max_change(a, b), max_change_by_lookup(a, b));
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    fn two_cliques() -> Csr<f64> {
        // vertices 0-2 and 3-5 each fully connected; one weak bridge 2-3
        let mut trips = vec![];
        for &(u, v) in &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            trips.push((u as usize, v as u32, 1.0));
            trips.push((v as usize, u as u32, 1.0));
        }
        trips.push((2, 3, 0.1));
        trips.push((3, 2, 0.1));
        Csr::from_triplets(6, 6, &trips).unwrap()
    }

    #[test]
    fn normalize_columns_makes_stochastic() {
        let m = normalize_columns(&two_cliques());
        let mut colsum = [0.0; 6];
        for i in 0..6 {
            for (&c, &v) in m.row_cols(i).iter().zip(m.row_vals(i)) {
                colsum[c as usize] += v;
            }
        }
        for (c, s) in colsum.iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-12, "column {c} sums to {s}");
        }
    }

    #[test]
    fn inflation_sharpens_columns() {
        let m = normalize_columns(&two_cliques());
        let inf = inflate(&m, 2.0);
        // inflation increases the max entry of each column (or keeps
        // it, for already-concentrated columns)
        let col_max = |x: &Csr<f64>, c: u32| -> f64 {
            (0..x.nrows())
                .filter_map(|i| x.get(i, c))
                .fold(0.0f64, |a, &b| a.max(b))
        };
        for c in 0..6u32 {
            assert!(col_max(&inf, c) >= col_max(&m, c) - 1e-12, "column {c}");
        }
    }

    #[test]
    fn separates_two_cliques() {
        let pool = Pool::new(2);
        let labels = cluster(&two_cliques(), &MclParams::default(), &pool).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3], "weakly-bridged cliques must separate");
    }

    #[test]
    fn converges_on_disconnected_components() {
        let g = Csr::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
            .unwrap();
        let pool = Pool::new(1);
        let labels = cluster(&g, &MclParams::default(), &pool).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn cluster_expr_plan_reuses_once_pattern_stabilizes() {
        let pool = Pool::new(2);
        let (labels, stats) =
            cluster_with_stats(&two_cliques(), &MclParams::default(), &pool).unwrap();
        assert_eq!(labels.len(), 6);
        assert!(
            stats.expr.rebuilds >= 1,
            "first round always binds: {stats:?}"
        );
        assert!(
            stats.expr.hits >= 1,
            "a converging MCL run must reach a stable pattern and hit the plan: {stats:?}"
        );
        assert_eq!(
            stats.rounds.len() as u64,
            stats.expr.hits + stats.expr.rebuilds,
            "per-round record covers every iteration: {stats:?}"
        );
        assert_eq!(stats.rounds[0], MclRound::Rebuilt, "round 0 binds");
        // once the pattern stabilizes, the plan serves a long
        // numeric-only streak (pruning may still perturb the very
        // last round as columns collapse onto their attractors)
        let longest_streak = stats
            .rounds
            .iter()
            .fold((0usize, 0usize), |(best, cur), r| match r {
                MclRound::Reused => (best.max(cur + 1), cur + 1),
                MclRound::Rebuilt => (best, 0),
            })
            .0;
        assert!(
            longest_streak >= 3,
            "stable pattern must yield a numeric-only streak: {stats:?}"
        );
    }

    /// The default kernel's expansions have `Hash`'s bits, so every
    /// prune decision, every round's plan verdict and every label match
    /// — on a G500 scale-9 ef-8 graph over eight rounds, at one thread
    /// and two.
    #[test]
    fn default_kernel_clusters_exactly_as_hash() {
        let graph = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            9,
            8,
            &mut spgemm_gen::rng(20180804),
        );
        let auto = MclParams {
            max_iters: 8,
            ..MclParams::default()
        };
        assert_eq!(auto.algo, Algorithm::Auto);
        let hash = MclParams {
            algo: Algorithm::Hash,
            ..auto
        };
        for nt in [1, 2] {
            let pool = Pool::new(nt);
            let (want, want_stats) = cluster_with_stats(&graph, &hash, &pool).unwrap();
            let (got, got_stats) = cluster_with_stats(&graph, &auto, &pool).unwrap();
            assert_eq!(got, want, "labels at {nt} threads");
            assert_eq!(
                got_stats.rounds, want_stats.rounds,
                "rounds at {nt} threads"
            );
        }
    }

    #[test]
    fn mcl_step_keeps_matrix_stochastic_and_sparse() {
        let pool = Pool::new(2);
        let params = MclParams::default();
        let mut pipe = MclPipeline::new(&params);
        let m = normalize_columns(&ops::add(&two_cliques(), &Csr::<f64>::identity(6)).unwrap());
        let (next, delta) = mcl_step(&m, &params, &mut pipe, &pool).unwrap();
        assert!(delta > 0.0);
        assert!(next.nnz() > 0);
        let mut colsum = vec![0.0; 6];
        for i in 0..6 {
            for (&c, &v) in next.row_cols(i).iter().zip(next.row_vals(i)) {
                assert!(v >= 0.0);
                colsum[c as usize] += v;
            }
        }
        for s in colsum {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mcl_step_rejects_params_the_pipeline_was_not_built_for() {
        let pool = Pool::new(1);
        let params = MclParams::default();
        let mut pipe = MclPipeline::new(&params);
        let m = normalize_columns(&two_cliques());
        mcl_step(&m, &params, &mut pipe, &pool).unwrap();
        // an inflation schedule must rebuild the pipeline, not
        // silently run the old epilogue
        let drifted = MclParams {
            inflation: 3.0,
            ..params
        };
        assert!(matches!(
            mcl_step(&m, &drifted, &mut pipe, &pool),
            Err(SparseError::PlanMismatch { .. })
        ));
        let mut pipe2 = MclPipeline::new(&drifted);
        mcl_step(&m, &drifted, &mut pipe2, &pool).unwrap();
    }

    #[test]
    fn pipeline_fuses_inflation_into_the_expansion() {
        let pool = Pool::new(2);
        let params = MclParams::default();
        let mut pipe = MclPipeline::new(&params);
        let m = normalize_columns(&two_cliques());
        mcl_step(&m, &params, &mut pipe, &pool).unwrap();
        let plan = pipe.plan().expect("bound by the first step");
        assert_eq!(
            plan.fused_nodes(),
            1,
            "the inflation power fuses into A²; the renormalization materializes"
        );
        assert!(plan.fused_bytes_eliminated() > 0);
        assert!(
            plan.intermediate_bytes() >= 2 * plan.fused_bytes_eliminated(),
            "two buffers of A²'s structure: the inflated square and its renormalized copy"
        );
    }
}
