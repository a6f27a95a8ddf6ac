//! `graph_apps` — `expr`-, plan-rebind-, `sparse::ops`- and
//! `apps`-bound: the paper's "representative graph algorithm" use
//! cases. The same kernels `a2_panel` runs as `A²` are used here as
//! boolean-semiring, masked, tall-skinny and row-subset calls, and
//! inspector / symbolic / rebind and element-wise ops do most of the
//! work; writes (row patches) sit beside reads.
//!
//! Op = one pass of five stages:
//!
//! | stage | call | input |
//! |---|---|---|
//! | `mcl` | `mcl::cluster_with_stats`, 8 rounds — every round rebinds the fused `ExprCache` plan | G500 scale 9 ef 8 |
//! | `amg` | 4 × `GalerkinPlan::recoarsen`, values rescaled between calls | `poisson2d(256)`, greedy aggregates |
//! | `bfs` | `bfs::multi_source_bfs`, 64 sources — one-shot `OrAnd` products per level (§5.5) | symmetrized G500 scale 12 ef 16 |
//! | `tri` | `TriangleCounter::count`, steady (§5.6) | G500 scale 12 ef 8 |
//! | `delta` | 8 × (`apply_patch` → `rebind_rows_in` → `execute_rows_in`), 1 % of rows each | G500 × ER scale 12 ef 8 |

use super::{bits_eq, fail, rng_for, P};
use crate::harness::{sequential_ops, BlockShape, Metric, Tally, Width, Workload};
use crate::{probes, span};
use rand::Rng;
use spgemm::{Algorithm, DirtyRows, OutputOrder, RowPatch, SpgemmPlan};
use spgemm_apps::amg::{greedy_aggregate, prolongation_from_aggregates, GalerkinPlan};
use spgemm_apps::bfs::{multi_source_bfs, sequential_bfs, BfsLevels};
use spgemm_apps::mcl::{cluster_with_stats, MclParams, MclStats};
use spgemm_apps::triangles::{count_triangles_naive, TriangleCounter};
use spgemm_gen::{poisson::poisson2d, rmat, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{ops, Csr};
use std::time::Instant;

pub const STAGES: [&str; 5] = ["mcl", "amg", "bfs", "tri", "delta"];

struct Sizes {
    mcl_scale: u32,
    poisson_k: usize,
    graph_scale: u32,
    bfs_sources: usize,
    delta_batches: usize,
}

const FULL: Sizes = Sizes {
    mcl_scale: 9,
    poisson_k: 256,
    graph_scale: 12,
    bfs_sources: 64,
    delta_batches: 8,
};
const QUICK: Sizes = Sizes {
    mcl_scale: 7,
    poisson_k: 24,
    graph_scale: 8,
    bfs_sources: 8,
    delta_batches: 4,
};

/// Everything generated from the seed; shared by both sides.
pub struct Inputs {
    pub mcl_graph: Csr<f64>,
    pub mcl_params: MclParams,
    /// `poisson2d` with its values rescaled four ways (same pattern).
    pub amg_a: Vec<Csr<f64>>,
    pub amg_p: Csr<f64>,
    pub bfs_graph: Csr<bool>,
    pub bfs_sources: Vec<usize>,
    pub tri_graph: Csr<f64>,
    /// Scale-8 graph small enough for the brute-force triangle oracle.
    tri_twin: Csr<f64>,
    pub delta_a: Csr<f64>,
    pub delta_b: Csr<f64>,
    /// `(edits the left operand?, patch)`, applied in order from the
    /// base operands by every op.
    pub patches: Vec<(bool, RowPatch<f64>)>,
}

impl Inputs {
    fn generate(seed: u64, sz: &Sizes) -> Self {
        let gen =
            |kind, scale, ef, tag| rmat::generate_kind(kind, scale, ef, &mut rng_for(seed, tag));
        let poisson = poisson2d(sz.poisson_k);
        let amg_p =
            prolongation_from_aggregates(&greedy_aggregate(&poisson)).expect("aggregates in range");
        let bfs_base = gen(RmatKind::G500, sz.graph_scale, 16, 0x202);
        let n = bfs_base.nrows();
        let mut draw = rng_for(seed, 0x203);
        let mut bfs_sources: Vec<usize> = Vec::with_capacity(sz.bfs_sources);
        while bfs_sources.len() < sz.bfs_sources {
            let v = draw.random_range(0..n);
            if !bfs_sources.contains(&v) {
                bfs_sources.push(v);
            }
        }
        // ~1 % of rows per batch, one upsert each, alternating operands
        // (a dynamic-graph tick: re-weighted and new edges).
        let rows_per_batch = (n / 100).max(1);
        let patches = (0..sz.delta_batches)
            .map(|step| {
                let mut patch = RowPatch::new();
                let mut rows = Vec::with_capacity(rows_per_batch);
                while rows.len() < rows_per_batch {
                    let r = draw.random_range(0..n);
                    if !rows.contains(&r) {
                        rows.push(r);
                        patch.insert(
                            r,
                            draw.random_range(0..n) as u32,
                            0.5 + draw.random_range(0..1000u32) as f64 * 1e-3,
                        );
                    }
                }
                (step % 2 == 0, patch)
            })
            .collect();
        Inputs {
            mcl_graph: gen(RmatKind::G500, sz.mcl_scale, 8, 0x201),
            mcl_params: MclParams {
                max_iters: 8,
                ..MclParams::default()
            },
            amg_a: (0..4)
                .map(|k| poisson.map(|v| v * (1.0 + 0.25 * k as f64)))
                .collect(),
            amg_p,
            bfs_graph: ops::symmetrize_simple(&bfs_base)
                .expect("square graph")
                .map(|_| true),
            bfs_sources,
            tri_graph: gen(RmatKind::G500, sz.graph_scale, 8, 0x204),
            tri_twin: gen(RmatKind::G500, sz.graph_scale.min(8), 8, 0x205),
            delta_a: gen(RmatKind::G500, sz.graph_scale, 8, 0x206),
            delta_b: gen(RmatKind::Er, sz.graph_scale, 8, 0x207),
            patches,
        }
    }
}

/// The reusable state of one thread configuration.
pub struct Side {
    pub pool: Pool,
    galerkin: GalerkinPlan,
    triangles: TriangleCounter,
    delta_plan: SpgemmPlan<P>,
    /// Product of the base operands; the delta stage starts from a
    /// copy of it.
    delta_c0: Csr<f64>,
    // Last outputs, for the checks.
    mcl_labels: Vec<usize>,
    pub mcl_stats: MclStats,
    bfs_levels: Option<BfsLevels>,
    tri_count: u64,
}

impl Side {
    fn new(inp: &Inputs, threads: usize) -> Result<Self, String> {
        let pool = Pool::new(threads);
        let delta_plan = new_delta_plan(inp, &pool)?;
        let delta_c0 = delta_plan
            .execute_in(&inp.delta_a, &inp.delta_b, &pool)
            .map_err(fail("delta base product"))?;
        Ok(Side {
            galerkin: new_galerkin(inp, &pool)?,
            triangles: new_triangles(inp, &pool)?,
            delta_plan,
            delta_c0,
            mcl_labels: Vec::new(),
            mcl_stats: MclStats::default(),
            bfs_levels: None,
            tri_count: 0,
            pool,
        })
    }
}

pub fn new_galerkin(inp: &Inputs, pool: &Pool) -> Result<GalerkinPlan, String> {
    let _s = span::enter("apps.GalerkinPlan::new");
    GalerkinPlan::new(&inp.amg_a[0], &inp.amg_p, Algorithm::Auto, pool)
        .map_err(fail("GalerkinPlan::new"))
}

pub fn new_triangles(inp: &Inputs, pool: &Pool) -> Result<TriangleCounter, String> {
    let _s = span::enter("apps.TriangleCounter::new");
    TriangleCounter::new(&inp.tri_graph, Algorithm::Auto, pool)
        .map_err(fail("TriangleCounter::new"))
}

fn new_delta_plan(inp: &Inputs, pool: &Pool) -> Result<SpgemmPlan<P>, String> {
    let _s = span::enter("plan.new_in");
    SpgemmPlan::new_in(
        &inp.delta_a,
        &inp.delta_b,
        Algorithm::Auto,
        OutputOrder::Sorted,
        pool,
    )
    .map_err(fail("delta plan"))
}

/// The edited operands and maintained product after the delta stage.
pub struct DeltaEnd {
    pub a: Csr<f64>,
    pub b: Csr<f64>,
    pub c: Csr<f64>,
    /// Output rows recomputed over all batches, of `batches × nrows`.
    pub rows_recomputed: usize,
}

/// The delta stage from the base operands: `plan` must be bound to
/// them and `c` hold their product.
pub fn delta_stage(
    inp: &Inputs,
    plan: &mut SpgemmPlan<P>,
    mut c: Csr<f64>,
    pool: &Pool,
) -> Result<DeltaEnd, String> {
    let (mut a, mut b) = (None::<Csr<f64>>, None::<Csr<f64>>);
    let mut rows_recomputed = 0;
    for (on_a, patch) in &inp.patches {
        let (cur_a, cur_b) = (
            a.as_ref().unwrap_or(&inp.delta_a),
            b.as_ref().unwrap_or(&inp.delta_b),
        );
        let (next, dirty) = {
            let _s = span::enter("sparse.apply_patch");
            if *on_a { cur_a } else { cur_b }
                .apply_patch(patch)
                .map_err(fail("apply_patch"))?
        };
        let clean = DirtyRows::new(dirty.nrows());
        let (dirty_a, dirty_b) = if *on_a {
            (&dirty, &clean)
        } else {
            (&clean, &dirty)
        };
        if *on_a {
            a = Some(next);
        } else {
            b = Some(next);
        }
        let (cur_a, cur_b) = (
            a.as_ref().unwrap_or(&inp.delta_a),
            b.as_ref().unwrap_or(&inp.delta_b),
        );
        let out = {
            let _s = span::enter("delta.rebind_rows_in");
            plan.rebind_rows_in(cur_a, cur_b, dirty_a, dirty_b, pool)
                .map_err(fail("rebind_rows_in"))?
        };
        let _s = span::enter("delta.execute_rows_in");
        plan.execute_rows_in(cur_a, cur_b, &out, &mut c, pool)
            .map_err(fail("execute_rows_in"))?;
        rows_recomputed += out.count();
    }
    Ok(DeltaEnd {
        a: a.unwrap_or_else(|| inp.delta_a.clone()),
        b: b.unwrap_or_else(|| inp.delta_b.clone()),
        c,
        rows_recomputed,
    })
}

pub struct GraphApps {
    pub inputs: Inputs,
    pub wide: Side,
    pub narrow: Side,
}

impl GraphApps {
    /// One pass; returns the five stage times in ms (their sum is the
    /// op). A cold pass builds the Galerkin plan, the triangle counter
    /// and the delta plan inside their stages' timed regions; MCL and
    /// BFS build everything per call anyway.
    pub fn pass(&mut self, width: Width, cold: bool) -> Result<[f64; 5], String> {
        let inp = &self.inputs;
        let side = width.pick(&mut self.wide, &mut self.narrow);
        let pool = &side.pool;
        let mut ms = [0.0; 5];
        let _op = span::op(if cold {
            "op.graph_apps.cold"
        } else {
            "op.graph_apps"
        });

        let t = Instant::now();
        {
            let _s = span::enter("apps.mcl.cluster_with_stats");
            let (labels, stats) =
                cluster_with_stats(&inp.mcl_graph, &inp.mcl_params, pool).map_err(fail("mcl"))?;
            side.mcl_labels = labels;
            side.mcl_stats = stats;
        }
        ms[0] = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        {
            let mut fresh;
            let galerkin = if cold {
                fresh = new_galerkin(inp, pool)?;
                &mut fresh
            } else {
                &mut side.galerkin
            };
            for a in &inp.amg_a {
                let _s = span::enter("apps.GalerkinPlan::recoarsen");
                let coarse = galerkin.recoarsen(a, pool).map_err(fail("recoarsen"))?;
                std::hint::black_box(coarse.nnz());
            }
        }
        ms[1] = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        {
            let _s = span::enter("apps.bfs.multi_source_bfs");
            side.bfs_levels = Some(
                multi_source_bfs(&inp.bfs_graph, &inp.bfs_sources, Algorithm::Auto, pool)
                    .map_err(fail("bfs"))?,
            );
        }
        ms[2] = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        {
            let mut fresh;
            let counter = if cold {
                fresh = new_triangles(inp, pool)?;
                &mut fresh
            } else {
                &mut side.triangles
            };
            let _s = span::enter("apps.TriangleCounter::count");
            side.tri_count = counter.count(pool).map_err(fail("triangle count"))?;
        }
        ms[3] = t.elapsed().as_secs_f64() * 1e3;

        if cold {
            let t = Instant::now();
            let mut plan = new_delta_plan(inp, pool)?;
            let c0 = {
                let _s = span::enter("plan.execute_in");
                plan.execute_in(&inp.delta_a, &inp.delta_b, pool)
                    .map_err(fail("delta base product"))?
            };
            delta_stage(inp, &mut plan, c0, pool)?;
            ms[4] = t.elapsed().as_secs_f64() * 1e3;
        } else {
            ms[4] = delta_steady(inp, side)?.1;
        }
        Ok(ms)
    }

    /// The steady delta stage alone, on `width`'s plan.
    pub fn delta_once(&mut self, width: Width) -> Result<DeltaEnd, String> {
        let side = width.pick(&mut self.wide, &mut self.narrow);
        delta_steady(&self.inputs, side).map(|(end, _)| end)
    }
}

/// The delta stage on the side's long-lived plan, and its time in ms.
/// Copying the base product in and re-binding the plan to the base
/// operands afterwards are untimed: every op then edits the same
/// matrices, so the op is stationary.
fn delta_steady(inp: &Inputs, side: &mut Side) -> Result<(DeltaEnd, f64), String> {
    let c0 = side.delta_c0.clone();
    let t = Instant::now();
    let end = delta_stage(inp, &mut side.delta_plan, c0, &side.pool)?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    side.delta_plan
        .rebind_in(&inp.delta_a, &inp.delta_b, &side.pool)
        .map_err(fail("delta reset"))?;
    Ok((end, ms))
}

impl Workload for GraphApps {
    const NAME: &'static str = "graph_apps";

    fn setup(seed: u64, quick: bool, threads: usize) -> Self {
        let inputs = Inputs::generate(seed, if quick { &QUICK } else { &FULL });
        let wide = Side::new(&inputs, threads).expect("graph_apps set-up");
        let narrow = Side::new(&inputs, 1).expect("graph_apps set-up");
        let mut w = GraphApps {
            inputs,
            wide,
            narrow,
        };
        for width in [Width::Wide, Width::Narrow] {
            w.pass(width, false).expect("graph_apps warm-up");
        }
        w
    }

    fn block_shape(quick: bool) -> BlockShape {
        if quick {
            BlockShape {
                wide: 2,
                narrow: 1,
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

    fn steady(&mut self, width: Width, n: usize, sink: &mut Vec<f64>) -> Tally {
        sequential_ops(n, sink, || {
            self.pass(width, false).map(|ms| ms.iter().sum())
        })
    }

    fn cold(&mut self, n: usize, sink: &mut Vec<f64>) -> Tally {
        sequential_ops(n, sink, || {
            self.pass(Width::Wide, true).map(|ms| ms.iter().sum())
        })
    }

    fn check(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        let inp = &self.inputs;
        if self.wide.mcl_labels.is_empty() || self.wide.mcl_labels != self.narrow.mcl_labels {
            bad.push("graph_apps mcl: labels differ between T and 1 threads".to_owned());
        }
        for (side, label) in [(&self.wide, "T"), (&self.narrow, "1")] {
            let source = inp.bfs_sources[0];
            let expect = sequential_bfs(&inp.bfs_graph, source);
            let same = side
                .bfs_levels
                .as_ref()
                .is_some_and(|l| (0..l.nverts).all(|v| l.level(v, 0) == expect[v]));
            if !same {
                bad.push(format!(
                    "graph_apps bfs at {label} threads differs from sequential_bfs"
                ));
            }
        }
        if self.wide.tri_count != self.narrow.tri_count {
            bad.push("graph_apps tri: counts differ between T and 1 threads".to_owned());
        }
        let twin = TriangleCounter::new(&inp.tri_twin, Algorithm::Auto, &self.wide.pool)
            .and_then(|mut c| c.count(&self.wide.pool));
        if twin.ok() != count_triangles_naive(&inp.tri_twin).ok() {
            bad.push("graph_apps tri: scale-8 twin differs from count_triangles_naive".to_owned());
        }
        for (side, label) in [(&mut self.wide, "T"), (&mut self.narrow, "1")] {
            let verdict = delta_steady(inp, side).and_then(|(end, _)| {
                let fresh = SpgemmPlan::<P>::new_in(
                    &end.a,
                    &end.b,
                    Algorithm::Auto,
                    OutputOrder::Sorted,
                    &side.pool,
                )
                .and_then(|p| p.execute_in(&end.a, &end.b, &side.pool))
                .map_err(fail("fresh delta plan"))?;
                Ok(bits_eq(&end.c, &fresh))
            });
            if verdict != Ok(true) {
                bad.push(format!(
                    "graph_apps delta at {label} threads differs from a fresh plan: {verdict:?}"
                ));
            }
        }
        bad
    }

    fn probes(&mut self, ctx: &probes::Ctx, out: &mut Vec<Metric>) {
        probes::graph_probes(self, ctx, out);
    }
}
