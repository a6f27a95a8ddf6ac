//! `spgemm-expr` — fused expression-plan pipelines vs the unfused
//! stage-by-stage composition, on the two pipeline shapes the paper's
//! applications actually run:
//!
//! * **MCL** expansion+inflation: `normalize_cols(|A·A|^r)` — the
//!   fused plan applies inflation and renormalization as in-place
//!   epilogues of the square's numeric phase, materializing *no*
//!   intermediate; the unfused baseline materializes the raw square
//!   and the inflated copy every round.
//! * **AMG** Galerkin coarsening: `Pᵀ(A·P)` — the fused plan caches
//!   the transpose structure (numeric-only gather per round) and both
//!   SpGEMM plans; the baseline re-transposes and re-plans per round.
//!
//! Reported per workload: steady-state ms/iter fused vs unfused, the
//! intermediate-materialization bytes **eliminated by fusion**, and
//! the bytes still materialized (buffers the plan reuses in place).
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin spgemm-expr -- \
//!     [--scale N] [--ef N] [--grid N] [--reps N] [--seed N] [--quick]
//!     [--smoke]   # CI assertion run: fused == unfused byte-for-byte
//!                 # on both DAGs + one bind, every steady iteration a
//!                 # numeric-only execution of the same plan
//! ```

use spgemm::expr::{ElemMap, ExprGraph, ExprPlan, NodeId};
use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_apps::amg;
use spgemm_bench::args::{self, BenchArgs};
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, ops, Csr, PlusTimes};
use std::time::Instant;

type P = PlusTimes<f64>;

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

/// One pipeline under test: its DAG, inputs, and the unfused
/// stage-by-stage baseline.
struct Workload {
    name: &'static str,
    graph: ExprGraph,
    root: NodeId,
    inputs: Vec<Csr<f64>>,
    baseline: fn(&[&Csr<f64>], &Pool) -> Csr<f64>,
}

fn mcl_workload(scale: u32, ef: usize, seed: u64) -> Workload {
    let mut rng = spgemm_gen::rng(seed);
    let g = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, scale, ef, &mut rng);
    let sym = ops::symmetrize_simple(&g).expect("square");
    let with_loops = ops::add(&sym, &Csr::<f64>::identity(sym.nrows())).expect("shapes");
    let m = ops::normalize_columns(&with_loops);
    let mut graph = ExprGraph::new();
    let a = graph.input();
    let sq = graph.multiply(a, a);
    let inf = graph.map(sq, ElemMap::AbsPow(2.0));
    let root = graph.normalize_cols(inf);
    Workload {
        name: "mcl  norm(|A·A|^2)",
        graph,
        root,
        inputs: vec![m],
        baseline: |inputs, pool| {
            let a = inputs[0];
            let sq = multiply_in::<P>(a, a, Algorithm::Hash, OutputOrder::Sorted, pool)
                .expect("multiply");
            // `|v|^2` is the squared magnitude, written out here
            // rather than through `ElemMap`.
            ops::normalize_columns(&sq.map(|v| {
                let x = v.abs();
                x * x
            }))
        },
    }
}

fn amg_workload(grid: usize) -> Workload {
    let a = spgemm_gen::poisson::poisson2d(grid);
    let agg = amg::greedy_aggregate(&a);
    let p = amg::prolongation_from_aggregates(&agg).expect("aggregates");
    let mut graph = ExprGraph::new();
    let ia = graph.input();
    let ip = graph.input();
    let ap = graph.multiply(ia, ip);
    let pt = graph.transpose(ip);
    let root = graph.multiply(pt, ap);
    Workload {
        name: "amg  Pᵀ(A·P)    ",
        graph,
        root,
        inputs: vec![a, p],
        baseline: |inputs, pool| {
            let (a, p) = (inputs[0], inputs[1]);
            let ap =
                multiply_in::<P>(a, p, Algorithm::Hash, OutputOrder::Sorted, pool).expect("A·P");
            let pt = ops::transpose(p);
            multiply_in::<P>(&pt, &ap, Algorithm::Hash, OutputOrder::Sorted, pool).expect("PᵀAP")
        },
    }
}

struct Row {
    name: &'static str,
    fused_ms: f64,
    unfused_ms: f64,
    eliminated: usize,
    materialized: usize,
    hits: u64,
    bytes_ok: bool,
}

fn run_workload(w: &Workload, reps: usize, pool: &Pool) -> Row {
    let inputs: Vec<&Csr<f64>> = w.inputs.iter().collect();
    // one bind, then warm
    let mut plan =
        ExprPlan::new_in(&w.graph, w.root, &inputs, &[], Algorithm::Hash, pool).expect("bind");
    let mut out = Csr::zero(0, 0);
    plan.execute_into_in(&inputs, &[], &mut out, pool)
        .expect("warm");
    // Every steady iteration checks the inputs still match the bound
    // structures before its numeric-only execution, as a caller
    // deciding between an execution and a rebind would.
    let mut hits = 0u64;
    let t = Instant::now();
    for _ in 0..reps {
        if plan.matches_inputs(&inputs) {
            plan.execute_into_in(&inputs, &[], &mut out, pool)
                .expect("steady execute");
            hits += 1;
        }
    }
    let fused_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

    let expect = (w.baseline)(&inputs, pool);
    let bytes_ok = bits_eq_f64(&out, &expect);

    let t = Instant::now();
    for _ in 0..reps {
        let got = (w.baseline)(&inputs, pool);
        std::hint::black_box(&got);
    }
    let unfused_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

    Row {
        name: w.name,
        fused_ms,
        unfused_ms,
        eliminated: plan.fused_bytes_eliminated(),
        materialized: plan.intermediate_bytes(),
        hits,
        bytes_ok,
    }
}

fn main() {
    let mut grid = None;
    let args = BenchArgs::parse_with("--grid N", |flag, take| {
        flag == "--grid" && {
            grid = Some(args::parse(&take(), flag));
            true
        }
    });
    let quick = args.quick || args.smoke;
    let scale = args.scale.unwrap_or(if quick { 8 } else { 11 });
    let ef = args.ef_or(8);
    let grid = grid.unwrap_or(if quick { 16 } else { 48 });
    let reps = if args.quick {
        args.reps_or(10).min(4)
    } else {
        args.reps_or(10)
    };
    let pool = &args.pool();
    println!(
        "spgemm-expr: fused expression plans vs unfused composition \
         (scale {}, ef {}, grid {}, reps {}, {} threads)",
        scale,
        ef,
        grid,
        reps,
        pool.nthreads()
    );
    let workloads = [mcl_workload(scale, ef, args.seed), amg_workload(grid)];
    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>12} {:>12} {:>16}",
        "pipeline", "fused ms", "unfused", "speedup", "elim KiB", "kept KiB", "steady hits"
    );
    let mut rows = Vec::new();
    for w in &workloads {
        let row = run_workload(w, reps, pool);
        println!(
            "{:<20} {:>10.3} {:>10.3} {:>7.2}x {:>12.1} {:>12.1} {:>16}  {}",
            row.name,
            row.fused_ms,
            row.unfused_ms,
            row.unfused_ms / row.fused_ms.max(1e-9),
            kib(row.eliminated),
            kib(row.materialized),
            row.hits,
            if row.bytes_ok {
                "bytes=="
            } else {
                "BYTES DIFFER"
            },
        );
        rows.push(row);
    }
    println!(
        "\n(elim KiB = intermediate materialization eliminated by epilogue \
         fusion; kept KiB = buffers the plan still holds and refills in \
         place; one bind, then every steady iteration matches the bound \
         structures and runs numeric-only)"
    );

    if args.smoke {
        for row in &rows {
            assert!(
                row.bytes_ok,
                "{}: fused result must equal the unfused composition byte-for-byte",
                row.name
            );
            assert_eq!(
                row.hits, reps as u64,
                "{}: every steady iteration must match the one bind and run numeric-only",
                row.name
            );
        }
        let mcl = &rows[0];
        assert!(
            mcl.eliminated > 0,
            "MCL inflation+renormalization must fuse away its intermediates"
        );
        let mut stamp = spgemm_bench::perfjson::PerfReport::new("expr", pool.nthreads());
        for row in &rows {
            // First token of the display name ("mcl", "amg") — the
            // rest is typography, not a metric key.
            let key = row.name.split_whitespace().next().unwrap_or("row");
            stamp
                .metric(&format!("{key}_fused_ms"), row.fused_ms)
                .metric(&format!("{key}_unfused_ms"), row.unfused_ms)
                .metric(&format!("{key}_eliminated_bytes"), row.eliminated as f64);
        }
        match stamp.write() {
            Ok(path) => println!("perf stamp: {}", path.display()),
            Err(e) => eprintln!("could not write perf stamp: {e}"),
        }
        println!("smoke OK: fused == unfused on both DAGs, one bind, every steady iteration a hit");
    }
}
