//! Expression evaluators: the cached [`ExprPlan`]s expression jobs run
//! on, each with the stored inputs it was computed from and its root,
//! pooled in a [`SlotCache`] keyed by the pipeline — graph, input
//! names, kernel ([`EvalKey`]) — so tenants submitting the same
//! pipeline share them. Per job:
//!
//! * an evaluator already at the job's input versions serves its root
//!   `Arc` — a **hit**;
//! * one behind, where every input that moved has a [`DeltaTracker`]
//!   window reaching back to the evaluator's version, is advanced with
//!   [`ExprPlan::update_in`] once per moved input, recomputing only
//!   the dirtied rows of every product
//!   ([`crate::MetricsSnapshot::expr_results_patched`]);
//! * otherwise the job binds a new evaluator — a **miss**, adding the
//!   graph's interior nodes to
//!   [`crate::MetricsSnapshot::expr_nodes_computed`].
//!
//! A job never moves an evaluator backward: one older than any pooled
//! evaluator drops the evaluator it used. An evaluator is out of its
//! slot while a worker advances it, so a panic or an error drops it; a
//! half-updated one is never pooled.

use crate::delta::DeltaTracker;
use crate::metrics::Metrics;
use crate::plan_cache::SlotCache;
use crate::queue::ExprJob;
use crate::store::StoredMatrix;
use spgemm::expr::ExprPlan;
use spgemm::Algorithm;
use spgemm_par::Pool;
use spgemm_sparse::{Csr, SparseError};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Counters of the evaluator cache: `hits` are jobs served by an
/// evaluator already at their input versions, `misses` jobs that bound
/// one, `entries` the live keys.
pub type ExprResultCacheStats = crate::plan_cache::PlanCacheStats;

/// What an evaluator is cached under: the pipeline — its root's
/// lineage fingerprint with input *slots* as leaves — the store names
/// bound to the slots, and the kernel.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct EvalKey {
    pub(crate) graph: u64,
    pub(crate) inputs: Vec<String>,
    pub(crate) algo: Algorithm,
}

/// An [`ExprPlan`], the stored inputs it was computed from (their
/// versions, and the old value an update hands the plan), and its
/// root.
pub(crate) struct Evaluator {
    plan: ExprPlan,
    inputs: Vec<Arc<StoredMatrix>>,
    root: Arc<Csr<f64>>,
}

impl Evaluator {
    /// Evaluate `job` in full, counting the nodes it computes.
    fn bind(job: &ExprJob, metrics: &Metrics, pool: &Pool) -> Result<Self, SparseError> {
        let (graph, root) = (&job.spec.graph, job.spec.root);
        let computed = graph.interior_nodes(root) as u64;
        metrics
            .expr_nodes_computed
            .fetch_add(computed, Ordering::Relaxed);
        let inputs: Vec<&Csr<f64>> = job.inputs.iter().map(|m| m.csr()).collect();
        let plan = ExprPlan::new_in(graph, root, &inputs, &[], job.key.algo, pool)?;
        let mut ev = Evaluator {
            plan,
            inputs: job.inputs.clone(),
            root: Arc::new(Csr::zero(0, 0)),
        };
        ev.refresh_root()?;
        Ok(ev)
    }

    /// Store versions of the inputs the evaluator was computed from.
    fn versions(&self) -> Vec<u64> {
        self.inputs.iter().map(|m| m.version()).collect()
    }

    /// Publish the plan's root: copied into the previous root's
    /// allocation when no reader still holds it, or served straight
    /// from the store when the root is a bare input.
    fn refresh_root(&mut self) -> Result<(), SparseError> {
        if let Some(slot) = self.plan.root_input() {
            self.root = self.inputs[slot].csr_arc();
            return Ok(());
        }
        match Arc::get_mut(&mut self.root) {
            Some(root) => self.plan.root_into(root),
            None => {
                let mut root = Csr::zero(0, 0);
                self.plan.root_into(&mut root)?;
                self.root = Arc::new(root);
                Ok(())
            }
        }
    }

    /// Checkout rank for a job at `versions`: 0 at them, 1 behind in
    /// some input, `None` ahead in any (never moved backward).
    fn rank(&self, versions: &[u64]) -> Option<u32> {
        let own = self.versions();
        let ahead = own.iter().zip(versions).any(|(own, job)| own > job);
        (!ahead).then(|| u32::from(own != versions))
    }

    /// The evaluator brought to `versions` through the row updates
    /// since its own; `None` — it is dropped — when an input that moved
    /// has no tracker window reaching back to this evaluator's version,
    /// or an update fails.
    fn advance(
        mut self,
        job: &ExprJob,
        versions: &[u64],
        deltas: &DeltaTracker,
        pool: &Pool,
    ) -> Option<Self> {
        let own = self.versions();
        let moved: Vec<usize> = (0..versions.len())
            .filter(|&s| own[s] != versions[s])
            .collect();
        let mut windows = Vec::with_capacity(moved.len());
        for &s in &moved {
            match deltas.applicable(job.inputs[s].name(), versions[s]) {
                Some(rec) if rec.from_version <= own[s] => windows.push(rec.dirty),
                _ => return None,
            }
        }
        for (&s, dirty) in moved.iter().zip(&windows) {
            let old = std::mem::replace(&mut self.inputs[s], Arc::clone(&job.inputs[s]));
            let inputs: Vec<&Csr<f64>> = self.inputs.iter().map(|m| m.csr()).collect();
            self.plan
                .update_in(&inputs, &[], s, old.csr(), dirty, pool)
                .ok()?;
        }
        self.refresh_root().ok()?;
        Some(self)
    }
}

/// The evaluator cache.
pub(crate) type EvaluatorCache = SlotCache<EvalKey, Evaluator>;

/// One expression job's root: hit, advance or bind (module docs).
pub(crate) fn evaluate(
    cache: &EvaluatorCache,
    deltas: &DeltaTracker,
    metrics: &Metrics,
    job: &ExprJob,
    pool: &Pool,
) -> Result<Arc<Csr<f64>>, SparseError> {
    let versions: Vec<u64> = job.inputs.iter().map(|m| m.version()).collect();
    let slot = cache.slot(job.key.clone());
    let mut newer = false;
    let found = slot.checkout(|ev| {
        let rank = ev.rank(&versions);
        newer |= rank.is_none();
        rank
    });
    let current = match found {
        Some(ev) if ev.versions() == versions => {
            cache.note_hits(1);
            Some(ev)
        }
        Some(ev) => ev.advance(job, &versions, deltas, pool).inspect(|_| {
            metrics.expr_results_patched.fetch_add(1, Ordering::Relaxed);
        }),
        None => None,
    };
    let ev = match current {
        Some(ev) => ev,
        None => {
            cache.note_misses(1);
            Evaluator::bind(job, metrics, pool)?
        }
    };
    let root = Arc::clone(&ev.root);
    if !newer {
        slot.checkin(ev);
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MatrixStore;
    use spgemm::expr::{ExprGraph, ExprSpec};

    /// A job at version v reaching an evaluator already at v + 1 gets
    /// the v result from an evaluator of its own, which it drops: the
    /// next v + 1 job still finds the pooled one, a hit.
    #[test]
    fn a_stale_job_binds_its_own_and_leaves_the_pool_alone() {
        let mut g = ExprGraph::new();
        let a = g.input();
        let root = g.multiply(a, a);
        let spec = ExprSpec::new(g, root);
        let store = MatrixStore::new();
        let v0 = store.insert("a", Csr::identity(16));
        let v1 = store.insert("a", Csr::<f64>::identity(16).map(|_| -0.0));
        let (cache, deltas, metrics) = (
            EvaluatorCache::new(4),
            DeltaTracker::default(),
            Metrics::default(),
        );
        let eval = |m: &Arc<StoredMatrix>| {
            let job = ExprJob {
                spec: spec.clone(),
                inputs: vec![Arc::clone(m)],
                key: EvalKey {
                    graph: 0,
                    inputs: vec!["a".into()],
                    algo: Algorithm::Hash,
                },
            };
            evaluate(&cache, &deltas, &metrics, &job, &Pool::new(1)).unwrap()
        };
        let newest = eval(&v1);
        assert!(spgemm_sparse::bits_eq_f64(&eval(&v0), v0.csr()), "I·I = I");
        assert!(
            Arc::ptr_eq(&newest, &eval(&v1)),
            "served by the pooled evaluator"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }
}
