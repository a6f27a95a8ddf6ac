//! `dist_large` — `dist`-bound: broadcast, per-stage plan caches,
//! k-way merge, gather. Two `A·A` products on a persistent
//! `ShardRuntime`; shard overhead is most of the op (the sharded
//! product is several times the monolithic one), and the output is
//! the largest in the benchmark, so `peak_rss_mb` means something
//! here. ROADMAP's "dist: make it pay or fold it into the plan" is
//! judged on this workload.

use super::{fail, rng_for, P};
use crate::harness::{timed_ops, BlockShape, Metric, Tally, Width, Workload};
use crate::{probes, span};
use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_dist::{DistConfig, GridSpec, ShardRuntime};
use spgemm_gen::{poisson::poisson2d, rmat, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{approx_eq_f64, Csr};

/// Input tokens in op order.
pub const INPUTS: [&str; 2] = ["g13", "poisson"];

/// The shard grid for a thread budget: one single-threaded shard per
/// budgeted thread, so the fleet never exceeds the budget.
pub fn grid_for(threads: usize) -> GridSpec {
    match threads {
        0 | 1 => GridSpec::new(1, 1),
        2 | 3 => GridSpec::new(2, 1),
        _ => GridSpec::new(2, 2),
    }
}

pub fn runtime(grid: GridSpec) -> ShardRuntime {
    let _s = span::enter("dist.ShardRuntime::new");
    ShardRuntime::new(DistConfig {
        grid,
        threads_per_shard: 1,
        ..DistConfig::default()
    })
}

pub struct DistLarge {
    /// `[g13, poisson]`.
    pub inputs: Vec<Csr<f64>>,
    pub grid: GridSpec,
    pub wide: ShardRuntime,
    pub narrow: ShardRuntime,
}

impl DistLarge {
    pub fn multiply_all(rt: &ShardRuntime, inputs: &[Csr<f64>]) -> Result<Vec<Csr<f64>>, String> {
        inputs
            .iter()
            .zip(INPUTS)
            .map(|(a, token)| {
                let _s = span::enter("dist.ShardRuntime::multiply");
                rt.multiply(a, a).map_err(fail(token))
            })
            .collect()
    }
}

impl Workload for DistLarge {
    const NAME: &'static str = "dist_large";

    fn setup(seed: u64, quick: bool, threads: usize) -> Self {
        let (scale, k) = if quick { (8, 24) } else { (13, 256) };
        let inputs = vec![
            rmat::generate_kind(RmatKind::G500, scale, 8, &mut rng_for(seed, 0x301)),
            poisson2d(k),
        ];
        let grid = grid_for(threads);
        let wide = runtime(grid);
        let narrow = runtime(GridSpec::new(1, 1));
        // Warm-up: the first product builds every per-stage plan.
        for rt in [&wide, &narrow] {
            Self::multiply_all(rt, &inputs).expect("dist_large warm-up");
        }
        DistLarge {
            inputs,
            grid,
            wide,
            narrow,
        }
    }

    fn block_shape(quick: bool) -> BlockShape {
        if quick {
            BlockShape {
                wide: 4,
                narrow: 2,
                cold: 1,
                chunk: 1,
            }
        } else {
            BlockShape {
                wide: 10,
                narrow: 4,
                cold: 2,
                chunk: 1,
            }
        }
    }

    /// Op = `ShardRuntime::multiply` of both inputs on the persistent
    /// runtime (plan caches hit, shards alive).
    fn steady(&mut self, width: Width, n: usize, sink: &mut Vec<f64>) -> Tally {
        let rt = width.pick(&self.wide, &self.narrow);
        let inputs = &self.inputs;
        timed_ops(n, sink, || {
            let _op = span::op("op.dist_large");
            let outs = Self::multiply_all(rt, inputs)?;
            std::hint::black_box(outs.len());
            Ok(())
        })
    }

    /// Cold op = spawn a fleet, first product of both inputs, join it.
    fn cold(&mut self, n: usize, sink: &mut Vec<f64>) -> Tally {
        let (inputs, grid) = (&self.inputs, self.grid);
        timed_ops(n, sink, || {
            let _op = span::op("op.dist_large.cold");
            let rt = runtime(grid);
            let outs = Self::multiply_all(&rt, inputs)?;
            std::hint::black_box(outs.len());
            let _s = span::enter("dist.ShardRuntime::drop");
            drop(rt);
            Ok(())
        })
    }

    /// One more product of each input on each runtime (the harness
    /// keeps no outputs during the run, so peak RSS is the program's)
    /// against the monolithic `Hash` product: the same structure
    /// exactly and values to 1e-9 — stage partials are merged, so sums
    /// associate differently than in one pass.
    fn check(&mut self) -> Vec<String> {
        let pool = Pool::new(1);
        let mut bad = Vec::new();
        for (a, token) in self.inputs.iter().zip(INPUTS) {
            let mono = multiply_in::<P>(a, a, Algorithm::Hash, OutputOrder::Sorted, &pool)
                .expect("monolithic product");
            for (rt, label) in [(&self.wide, "T"), (&self.narrow, "1")] {
                let same = rt
                    .multiply(a, a)
                    .is_ok_and(|c| approx_eq_f64(&c, &mono, 1e-9));
                if !same {
                    bad.push(format!("dist_large {token} on the {label}-thread runtime differs from monolithic Hash"));
                }
            }
        }
        bad
    }

    fn probes(&mut self, ctx: &probes::Ctx, out: &mut Vec<Metric>) {
        probes::dist_probes(self, ctx, out);
    }
}
