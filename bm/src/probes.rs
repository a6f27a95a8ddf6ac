//! Per-layer probes of the traced run: each layer's public functions
//! timed (or counted) on the set-up of the workload that owns the
//! layer — `a2_panel` for core/plan/par/sparse, `graph_apps` for
//! apps/expr/delta, `dist_large` for dist, `serve_mix` for serve.
//! The contract wants every per-layer metric from every traced run,
//! so a run probes its own workload on the set-up it already has and
//! builds the other three for the same seed; the probe values do not
//! depend on which workload the run names. Only
//! `par.alloc_bytes_per_op`, `par.scaling_eff` and
//! `obs.traced_overhead_frac` are about the run's workload itself.
//!
//! Byte figures here are *computed* from array sizes, never measured;
//! `core.bw_frac.*` divides by a stanza bandwidth measured in this
//! same run.

use crate::catalog;
use crate::harness::{Metric, Width, Workload};
use crate::stats;
use crate::workloads::a2_panel::A2Panel;
use crate::workloads::dist_large::{self, DistLarge};
use crate::workloads::graph_apps::{self, GraphApps};
use crate::workloads::serve_mix::{self, OpKind, ServeMix};
use crate::workloads::{mcl_step_graph, P};
use spgemm::expr::{ExprGraph, ExprPlan};
use spgemm::{Algorithm, OutputOrder, PlanCache, SpgemmPlan};
use spgemm_dist::GridSpec;
use spgemm_membench::stanza;
use spgemm_par::Pool;
use spgemm_sparse::{ops, Csr};
use std::time::Instant;

/// What every probe group needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub quick: bool,
    pub threads: usize,
    /// Timings per median.
    pub reps: usize,
    /// Stanza bandwidth measured at the start of this run, GB/s.
    pub gbps: f64,
}

/// Milliseconds `f` takes.
fn time_ms<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` timings of `f`, ms.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| time_ms(&mut f)).collect();
    stats::median(&times)
}

fn algorithm(token: &str) -> Algorithm {
    match token {
        "hash" => Algorithm::Hash,
        "hashvec" => Algorithm::HashVec,
        "heap" => Algorithm::Heap,
        "merge" => Algorithm::Merge,
        "spa" => Algorithm::Spa,
        "inspector" => Algorithm::Inspector,
        "kkhash" => Algorithm::KkHash,
        "ikj" => Algorithm::Ikj,
        "rowclass" => Algorithm::RowClass,
        other => panic!("no algorithm token {other:?} in the catalogue"),
    }
}

/// Steady `execute_into_in` median of `a · b` under a fresh plan, and
/// the product.
fn numeric_ms(
    a: &Csr<f64>,
    b: &Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
    pool: &Pool,
    reps: usize,
) -> (f64, Csr<f64>) {
    let plan = SpgemmPlan::<P>::new_in(a, b, algo, order, pool).expect("probe plan");
    let mut c = plan.execute_in(a, b, pool).expect("probe warm-up");
    let ms = median_ms(reps, || {
        plan.execute_into_in(a, b, &mut c, pool)
            .expect("probe execute")
    });
    (ms, c)
}

/// The cache size the bandwidth array is sized against: the largest
/// cache `cpu0` reports in sysfs, bytes (32 MiB where sysfs has none).
pub fn last_level_cache_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            Some(b'G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        best = best.max(digits.parse::<usize>().unwrap_or(0).saturating_mul(mult));
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Stanza read bandwidth at `T` threads, GB/s: 8 KiB stanzas from an
/// array four times the last-level cache (capped at 2 GiB so a
/// hypervisor's fantasy cache size cannot exhaust memory). Prints
/// both sizes.
pub fn stanza_gbps(pool: &Pool, quick: bool) -> f64 {
    let llc = last_level_cache_bytes();
    let array = if quick {
        8 << 20
    } else {
        (4 * llc).clamp(64 << 20, 2 << 30)
    };
    let gbps = stanza::stanza_bandwidth(pool, array, 8 << 10, array / 2, stanza::Mode::Read);
    println!(
        "# membench: last-level cache {} MiB, array {} MiB, 8 KiB stanzas, {} threads: {gbps:.2} GB/s",
        llc >> 20,
        array >> 20,
        pool.nthreads()
    );
    gbps
}

fn one_multiply_graph() -> (ExprGraph, spgemm::expr::NodeId) {
    let mut g = ExprGraph::new();
    let a = g.input();
    let root = g.multiply(a, a);
    (g, root)
}

/// `core`, `plan`, the `sparse` structure ops, `expr.overhead_ratio`
/// and `par.broadcast_us`, on the `a2_panel` cells.
pub fn kernel_probes(w: &A2Panel, ctx: &Ctx, out: &mut Vec<Metric>) {
    let (reps, gbps) = (ctx.reps, ctx.gbps);
    let pool = &w.wide.pool;
    let cells = &w.cells;
    for cell in cells {
        let token = cell.token;
        let flop = spgemm_sparse::stats::flop(&cell.a, &cell.b) as f64;
        let on_cell = |algo| numeric_ms(&cell.a, &cell.b, algo, cell.order, pool, reps);
        let (auto_ms, c) = on_cell(Algorithm::Auto);
        let nnz_c = c.nnz();
        drop(c);
        let mut best = f64::INFINITY;
        for algo in catalog::panel(token) {
            let (ms, _) = on_cell(algorithm(algo));
            best = best.min(ms);
            out.push(Metric::new(
                format!("core.numeric_ms.{token}.{algo}"),
                ms,
                reps,
            ));
        }
        out.push(Metric::new(
            format!("core.mflops.{token}"),
            2.0 * flop / (auto_ms / 1e3) / 1e6,
            reps,
        ));
        out.push(Metric::new(
            format!("core.auto_regret.{token}"),
            auto_ms / best,
            reps,
        ));
        if cell.order == OutputOrder::Sorted {
            // 12 B per stored entry (4 B column + 8 B value): A read
            // once, one B entry read per flop, C written once.
            let bytes = 12.0 * (cell.a.nnz() as f64 + flop + nnz_c as f64);
            out.push(Metric::new(
                format!("core.flop_per_byte.{token}"),
                2.0 * flop / bytes,
                1,
            ));
            out.push(Metric::new(
                format!("core.bw_frac.{token}"),
                bytes / (auto_ms / 1e3) / 1e9 / gbps,
                reps,
            ));
        }
        let bind = median_ms(reps.div_ceil(2), || {
            SpgemmPlan::<P>::new_in(&cell.a, &cell.b, Algorithm::Auto, cell.order, pool)
                .expect("probe bind")
        });
        out.push(Metric::new(
            format!("plan.bind_ms.{token}"),
            bind,
            reps.div_ceil(2),
        ));
    }
    let cell = |token: &str| cells.iter().find(|c| c.token == token).expect("cell token");

    let g16s = cell("g16s");
    let mut plan = SpgemmPlan::<P>::new_in(&g16s.a, &g16s.b, Algorithm::Auto, g16s.order, pool)
        .expect("probe plan");
    let rebind = median_ms(reps.div_ceil(2), || {
        plan.rebind_in(&g16s.a, &g16s.b, pool)
            .expect("probe rebind")
    });
    out.push(Metric::new("plan.rebind_ms", rebind, reps.div_ceil(2)));

    let er4s = cell("er4s");
    let mut cache = PlanCache::<P>::new(Algorithm::Auto, er4s.order);
    let direct = SpgemmPlan::<P>::new_in(&er4s.a, &er4s.b, Algorithm::Auto, er4s.order, pool)
        .expect("probe plan");
    let mut c = cache
        .multiply_in(&er4s.a, &er4s.b, pool)
        .expect("probe cache fill");
    let (mut hit, mut exec) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        hit.push(time_ms(|| {
            cache
                .multiply_in(&er4s.a, &er4s.b, pool)
                .expect("probe cache hit")
        }));
        exec.push(time_ms(|| {
            direct
                .execute_into_in(&er4s.a, &er4s.b, &mut c, pool)
                .expect("probe execute")
        }));
    }
    out.push(Metric::new(
        "plan.cache_hit_overhead_us",
        (stats::median(&hit) - stats::median(&exec)) * 1e3,
        reps,
    ));

    out.push(Metric::new(
        "sparse.transpose_ms",
        median_ms(reps, || ops::transpose(&g16s.a)),
        reps,
    ));
    out.push(Metric::new(
        "sparse.fingerprint_ms",
        median_ms(reps, || g16s.a.structure_fingerprint()),
        reps,
    ));

    let (graph, root) = one_multiply_graph();
    let mut expr = ExprPlan::new_in(&graph, root, &[&g16s.a], &[], Algorithm::Auto, pool)
        .expect("probe expr plan");
    let mut out_expr = Csr::zero(0, 0);
    let mut out_plan = plan
        .execute_in(&g16s.a, &g16s.b, pool)
        .expect("probe warm-up");
    let (mut via_expr, mut via_plan) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        via_expr.push(time_ms(|| {
            expr.execute_into_in(&[&g16s.a], &[], &mut out_expr, pool)
                .expect("probe expr")
        }));
        via_plan.push(time_ms(|| {
            plan.execute_into_in(&g16s.a, &g16s.b, &mut out_plan, pool)
                .expect("probe execute")
        }));
    }
    out.push(Metric::new(
        "expr.overhead_ratio",
        stats::median(&via_expr) / stats::median(&via_plan),
        reps,
    ));

    let calls = reps * 200;
    let broadcast = median_ms(calls, || pool.broadcast(|_| {})) * 1e3;
    out.push(Metric::new("par.broadcast_us", broadcast, calls));
}

/// `apps`, `delta`, the MCL expression plan and `sparse.apply_patch`,
/// on the `graph_apps` inputs.
pub fn graph_probes(w: &mut GraphApps, ctx: &Ctx, out: &mut Vec<Metric>) {
    let reps = ctx.reps;
    let passes: Vec<[f64; 5]> = (0..reps.div_ceil(2))
        .map(|_| w.pass(Width::Wide, false).expect("probe pass"))
        .collect();
    let stage = |i: usize| stats::median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>());
    for (i, name) in graph_apps::STAGES.iter().enumerate() {
        out.push(Metric::new(
            format!("apps.{name}_ms"),
            stage(i),
            passes.len(),
        ));
    }
    let pool = &w.wide.pool;
    let inp = &w.inputs;
    let binds = reps.div_ceil(3);
    out.push(Metric::new(
        "apps.amg_bind_ms",
        median_ms(binds, || {
            graph_apps::new_galerkin(inp, pool).expect("probe Galerkin bind")
        }),
        binds,
    ));
    out.push(Metric::new(
        "apps.tri_bind_ms",
        median_ms(binds, || {
            graph_apps::new_triangles(inp, pool).expect("probe triangle bind")
        }),
        binds,
    ));

    // The DAG `MclPipeline` compiles, on a column-stochastic matrix
    // of the MCL graph's pattern.
    let m = ops::normalize_columns(&ops::symmetrize_simple(&inp.mcl_graph).expect("square graph"));
    let (g, root) = mcl_step_graph(inp.mcl_params.inflation);
    let algo = inp.mcl_params.algo;
    let bind = median_ms(reps.div_ceil(2), || {
        ExprPlan::new_in(&g, root, &[&m], &[], algo, pool).expect("probe mcl bind")
    });
    out.push(Metric::new("expr.bind_ms.mcl", bind, reps.div_ceil(2)));
    let mut plan = ExprPlan::new_in(&g, root, &[&m], &[], algo, pool).expect("probe mcl bind");
    let mut result = Csr::zero(0, 0);
    let exec = median_ms(reps, || {
        plan.execute_into_in(&[&m], &[], &mut result, pool)
            .expect("probe mcl exec")
    });
    out.push(Metric::new("expr.exec_ms.mcl", exec, reps));
    out.push(Metric::new(
        "expr.fused_bytes_eliminated",
        plan.fused_bytes_eliminated() as f64,
        1,
    ));
    out.push(Metric::new(
        "expr.mcl_rebuilds",
        w.wide.mcl_stats.expr.rebuilds as f64,
        1,
    ));

    let batches = inp.patches.len();
    out.push(Metric::new(
        "delta.batch_ms",
        stage(4) / batches as f64,
        passes.len(),
    ));
    out.push(Metric::new(
        "sparse.apply_patch_ms",
        median_ms(reps, || {
            inp.delta_a
                .apply_patch(&inp.patches[0].1)
                .expect("probe patch")
        }),
        reps,
    ));
    let end = w.delta_once(Width::Wide).expect("probe delta stage");
    let pool = &w.wide.pool;
    let rebuild = median_ms(reps.div_ceil(2), || {
        SpgemmPlan::<P>::new_in(&end.a, &end.b, Algorithm::Auto, OutputOrder::Sorted, pool)
            .and_then(|p| p.execute_in(&end.a, &end.b, pool))
            .expect("probe full rebuild")
    });
    out.push(Metric::new(
        "delta.full_rebuild_ms",
        rebuild,
        reps.div_ceil(2),
    ));
    out.push(Metric::new(
        "delta.rows_recomputed_frac",
        end.rows_recomputed as f64 / (batches * end.a.nrows()) as f64,
        batches,
    ));
}

/// `dist`, on the `dist_large` inputs.
pub fn dist_probes(w: &DistLarge, ctx: &Ctx, out: &mut Vec<Metric>) {
    let reps = ctx.reps.div_ceil(2);
    let mono_ms = |a: &Csr<f64>, pool: &Pool| {
        let (ms, c) = numeric_ms(a, a, Algorithm::Hash, OutputOrder::Sorted, pool, reps);
        (ms, spgemm_dist::csr_bytes(&c))
    };
    let pool = Pool::new(ctx.threads);
    for (a, token) in w.inputs.iter().zip(dist_large::INPUTS) {
        let steady = median_ms(reps, || {
            w.wide.multiply(a, a).expect("probe sharded product")
        });
        let (mono, bytes) = mono_ms(a, &pool);
        out.push(Metric::new(format!("dist.steady_ms.{token}"), steady, reps));
        out.push(Metric::new(format!("dist.mono_ms.{token}"), mono, reps));
        out.push(Metric::new(
            format!("dist.overhead_ratio.{token}"),
            steady / mono,
            reps,
        ));
        if token == "g13" {
            out.push(Metric::new("dist.mono_footprint_bytes", bytes as f64, 1));
        }
    }
    let g13 = &w.inputs[0];
    let single = median_ms(reps, || {
        w.narrow.multiply(g13, g13).expect("probe 1x1 product")
    });
    out.push(Metric::new(
        "dist.overhead_ratio_1x1",
        single / mono_ms(g13, &Pool::new(1)).0,
        reps,
    ));
    out.push(Metric::new(
        "dist.spawn_ms",
        median_ms(reps, || drop(dist_large::runtime(w.grid))),
        reps,
    ));
    let (_, before) = w
        .wide
        .multiply_with_stats(g13, g13)
        .expect("probe sharded product");
    let (_, stats) = w
        .wide
        .multiply_with_stats(g13, g13)
        .expect("probe sharded product");
    out.push(Metric::new(
        "dist.peak_shard_partial_bytes",
        stats.max_peak_partial_bytes() as f64,
        1,
    ));
    out.push(Metric::new(
        "dist.compute_imbalance",
        stats.compute_imbalance(),
        1,
    ));
    out.push(Metric::new(
        "dist.plan_hits_per_product",
        (stats.plan_hits - before.plan_hits) as f64,
        1,
    ));
    debug_assert_eq!(w.narrow.grid(), GridSpec::new(1, 1));
}

/// `serve`, on a short `serve_mix` run of its own. The engine's
/// counters are read as the difference of two snapshots taken right
/// around the window-8 blocks, so neither set-up's warm-up jobs nor
/// the window-1 jobs of the overhead probe below are in them.
pub fn serve_probes(w: &mut ServeMix, ctx: &Ctx, out: &mut Vec<Metric>) {
    let shape = ServeMix::block_shape(ctx.quick);
    let before = w.wide.engine.metrics();
    let class_before = w.class_ms.each_ref().map(Vec::len);
    let mut all = Vec::new();
    for _ in 0..ctx.reps.div_ceil(2) {
        let tally = w.steady(Width::Wide, shape.wide, &mut all);
        assert_eq!(tally.failed, 0, "serve probe ops failed");
    }
    let m = w.wide.engine.metrics().since(&before);
    for ((class, samples), skip) in serve_mix::CLASSES.iter().zip(&w.class_ms).zip(class_before) {
        let samples = &samples[skip..];
        out.push(Metric::new(
            format!("serve.{class}_ms_p50"),
            stats::median(samples),
            samples.len(),
        ));
    }
    let sorted = stats::sorted(all);
    out.push(Metric::new(
        "serve.latency_ms_p99",
        stats::quantile_sorted(&sorted, 0.99),
        sorted.len(),
    ));
    out.push(Metric::new(
        "serve.queue_delay_ms_p50",
        m.queue_delay.p50_ms,
        m.queue_delay.count as usize,
    ));
    out.push(Metric::new(
        "serve.service_ms_p50",
        m.service.p50_ms,
        m.service.count as usize,
    ));
    out.push(Metric::new(
        "serve.plan_cache_hit_rate",
        m.plan_cache.hit_rate(),
        (m.plan_cache.hits + m.plan_cache.misses) as usize,
    ));
    out.push(Metric::new(
        "serve.avg_batch",
        m.batched_jobs as f64 / m.batches.max(1) as f64,
        m.batches as usize,
    ));
    out.push(Metric::new(
        "serve.expr_result_hit_rate",
        m.expr_results.hit_rate(),
        (m.expr_results.hits + m.expr_results.misses) as usize,
    ));
    out.push(Metric::new(
        "serve.expr_results_patched",
        m.expr_results_patched as f64,
        m.expr_jobs as usize,
    ));
    out.push(Metric::new(
        "serve.rejected",
        m.rejected as f64,
        (m.accepted + m.rejected) as usize,
    ));

    let alone = shape.wide / 2;
    let mut through_engine = Vec::new();
    w.drive(
        Width::Wide,
        std::iter::repeat_n(OpKind::Hot(0), alone),
        1,
        &mut through_engine,
    );
    let a = w
        .wide
        .engine
        .store()
        .get("g0")
        .expect("hot tenant registered")
        .csr_arc();
    let (direct, _) = numeric_ms(
        &a,
        &a,
        Algorithm::Auto,
        OutputOrder::Sorted,
        &Pool::new(1),
        alone,
    );
    println!(
        "# serve: hot job alone {:.3} ms, direct execute_into_in {direct:.3} ms",
        stats::median(&through_engine)
    );
    out.push(Metric::new(
        "serve.overhead_ratio",
        stats::median(&through_engine) / direct,
        alone,
    ));
}

/// Every probe group: the run's own workload on the set-up it
/// already has, the other three on set-ups built here.
pub fn run_all<W: Workload>(own: &mut W, ctx: &Ctx) -> Vec<Metric> {
    fn other<O: Workload, W: Workload>(ctx: &Ctx, out: &mut Vec<Metric>) {
        if O::NAME != W::NAME {
            O::setup(ctx.seed, ctx.quick, ctx.threads).probes(ctx, out);
        }
    }
    let mut out = Vec::new();
    own.probes(ctx, &mut out);
    other::<A2Panel, W>(ctx, &mut out);
    other::<GraphApps, W>(ctx, &mut out);
    other::<DistLarge, W>(ctx, &mut out);
    other::<ServeMix, W>(ctx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::a2_panel;

    #[test]
    fn cache_size_is_read_or_defaulted() {
        assert!(last_level_cache_bytes() >= 1 << 20);
    }

    #[test]
    fn every_catalogue_algorithm_token_maps() {
        for cell in a2_panel::CELLS {
            for token in catalog::panel(cell) {
                let algo = algorithm(token);
                assert_eq!(algo.name().to_lowercase(), token);
                if cell.ends_with('u') {
                    assert!(
                        !algo.requires_sorted_inputs(),
                        "{token} cannot run the unsorted cell {cell}"
                    );
                }
            }
        }
    }
}
