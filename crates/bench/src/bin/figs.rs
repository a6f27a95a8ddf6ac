//! Figures 11–17: the paper's kernel comparisons, one preset each.
//!
//! ```text
//! cargo run --release -p spgemm-bench --bin figs -- <11|12|13|14|15|16|17|all> \
//!     [--scale N] [--ef N] [--reps N] [--threads N] [--divisor N] [--suitesparse DIR] [--quick]
//! ```
//!
//! A preset only generates its inputs and names its x column:
//! [`panels::run`] times the sorted panel on each cell and the unsorted
//! panel on the cell's [`panels::unsorted_twin`] (§5.1).
//!
//! * `11` — MFLOPS vs edge factor 4/8/16 at scale 13 (paper: 16).
//! * `12` — MFLOPS vs scale 8..=13 (G500: ..=12) at edge factor 16;
//!   merge-like codes should win small uniform inputs, hash kernels
//!   large ones, and G500's skew hurt load-oblivious codes (§5.4.2).
//! * `13` — strong scaling at scale 12 (paper: 16) on 1, 2, 4, … up to
//!   4× the hardware threads: linear to the core count, then flat.
//! * `14` — A² over the Table 2 suite (stand-ins unless
//!   `--suitesparse DIR`) vs compression ratio, then §5.4.4's
//!   harmonic-mean speedup of unsorted over sorted output (paper: MKL
//!   1.58×, Hash 1.63×, HashVec 1.68×).
//! * `15` — Dolan–Moré profiles over the same suite (§5.4.5; paper:
//!   sorted Hash best on ~70% and always within 1.6×).
//! * `16` — square G500 at scales 12 and 13 (paper: 18–20) × up to
//!   four tall-skinny operands of even short-side scale (§5.5).
//! * `17` — `L · U` after §5.6's preprocessing over the suite, sorted
//!   panel only (paper: Heap wins the low-compression-ratio inputs).
//!
//! `--quick` caps every scale at 9 and raises the suite divisor to 512.

use spgemm::{Algorithm, OutputOrder};
use spgemm_bench::panels::{self, label, Row};
use spgemm_bench::runner::{self, Measurement};
use spgemm_bench::{args::BenchArgs, profiles, suites};
use spgemm_gen::{rmat, tallskinny, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::Csr;
use std::fmt::Display;

/// A figure: prints its header and its rows.
type Preset = fn(&BenchArgs, &Pool);

const FIGURES: [(&str, Preset); 7] = [
    ("11", fig11),
    ("12", fig12),
    ("13", fig13),
    ("14", fig14),
    ("15", fig15),
    ("16", fig16),
    ("17", fig17),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let figure = argv.next().unwrap_or_default();
    let usage = "usage: figs <11|12|13|14|15|16|17|all> [flags]; `figs 11 --help` lists the flags";
    if matches!(figure.as_str(), "-h" | "--help") {
        println!("{usage}");
        return;
    }
    let args = BenchArgs::from_iter(argv, "", |_, _| false);
    let chosen: Vec<_> = FIGURES
        .iter()
        .filter(|(id, _)| figure == "all" || figure == *id)
        .collect();
    if chosen.is_empty() {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let pool = args.pool();
    print!(
        "{}",
        spgemm_bench::envinfo::environment_banner(pool.nthreads())
    );
    for (_, figure) in chosen {
        figure(&args, &pool);
    }
}

/// Both panels on the cell `a · b`: the unsorted one on its twin,
/// drawn from the run's seed.
fn both_panels(a: &Csr<f64>, b: &Csr<f64>, args: &BenchArgs, pool: &Pool) -> Vec<Row> {
    let twin = panels::unsorted_twin(a, b, &mut spgemm_gen::rng(args.seed ^ 0xff));
    panels::run(a, b, Some(&twin), pool, args.reps())
}

/// The rows that measured, in order; the kernels that rejected `cell`
/// are reported on stderr.
fn measured<'a>(
    rows: &'a [Row],
    cell: &'a str,
) -> impl Iterator<Item = (&'a Row, &'a Measurement)> {
    rows.iter().filter_map(move |r| match &r.result {
        Ok(m) => Some((r, m)),
        Err(e) => {
            let panel = panels::name(r.panel);
            eprintln!("skip {} ({panel}) on {cell}: {e}", label(r.algo));
            None
        }
    })
}

/// Print `rows` as `lead  panel  algorithm  x  mflops` lines.
fn print_series(lead: impl Display, x: impl Display, rows: &[Row]) {
    for (r, m) in measured(rows, &format!("{lead} {x}")) {
        println!(
            "{lead}\t{}\t{}\t{x}\t{:.1}",
            panels::name(r.panel),
            label(r.algo),
            m.mflops()
        );
    }
}

/// The square matrices of the Table 2 suite at this run's divisor.
fn suite(args: &BenchArgs) -> (usize, Vec<suites::Problem>) {
    let divisor = if args.quick {
        args.divisor.max(512)
    } else {
        args.divisor
    };
    let mut suite = suites::load(args.suitesparse.as_deref(), divisor, args.seed);
    suite.retain(|p| {
        let square = p.matrix.nrows() == p.matrix.ncols();
        if !square {
            eprintln!("skip {}: not square", p.name);
        }
        square
    });
    (divisor, suite)
}

fn fig11(args: &BenchArgs, pool: &Pool) {
    let scale = args.scale_or(13);
    println!("# fig11: MFLOPS vs edge factor at scale {scale}");
    println!("pattern\tpanel\talgorithm\tedge_factor\tmflops");
    for kind in [RmatKind::Er, RmatKind::G500] {
        for ef in [4usize, 8, 16] {
            let a = rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(args.seed));
            print_series(kind.name(), ef, &both_panels(&a, &a, args, pool));
        }
    }
}

fn fig12(args: &BenchArgs, pool: &Pool) {
    let ef = args.ef_or(16);
    let max_er = args.scale_or(13);
    let max_g500 = max_er.saturating_sub(1).max(8);
    println!("# fig12: MFLOPS vs scale (edge factor {ef})");
    println!("pattern\tpanel\talgorithm\tscale\tmflops");
    for (kind, max_scale) in [(RmatKind::Er, max_er), (RmatKind::G500, max_g500)] {
        for scale in 8..=max_scale {
            let a = rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(args.seed));
            print_series(kind.name(), scale, &both_panels(&a, &a, args, pool));
        }
    }
}

fn fig13(args: &BenchArgs, _: &Pool) {
    let scale = args.scale_or(12);
    let ef = args.ef_or(16);
    println!("# fig13: strong scaling (scale {scale}, EF {ef})");
    println!("pattern\tpanel\talgorithm\tthreads\tmflops");
    let most = 4 * spgemm_par::hardware_threads();
    for kind in [RmatKind::Er, RmatKind::G500] {
        let a = rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(args.seed));
        for nt in (0..).map(|i| 1 << i).take_while(|&nt| nt <= most) {
            print_series(kind.name(), nt, &both_panels(&a, &a, args, &Pool::new(nt)));
        }
    }
}

fn fig14(args: &BenchArgs, pool: &Pool) {
    let (divisor, suite) = suite(args);
    println!(
        "# fig14: A^2 over the Table 2 suite (divisor {divisor}); MFLOPS vs compression ratio"
    );
    println!("panel\talgorithm\tmatrix\tcompression_ratio\tmflops");
    for p in &suite {
        for (r, m) in measured(&both_panels(&p.matrix, &p.matrix, args, pool), &p.name) {
            println!(
                "{}\t{}\t{}\t{:.2}\t{:.1}",
                panels::name(r.panel),
                label(r.algo),
                p.name,
                m.compression_ratio(),
                m.mflops()
            );
        }
    }
    // §5.4.4: the time saved by skipping the output sort, on sorted
    // inputs, for the kernels that emit both orders.
    println!("# harmonic-mean speedup of unsorted over sorted (paper: MKL 1.58x, Hash 1.63x, HashVec 1.68x):");
    for algo in [Algorithm::Hash, Algorithm::HashVec, Algorithm::Spa] {
        let time = |a, order| runner::time_multiply(a, a, algo, order, pool, args.reps());
        let ratios: Vec<f64> = suite
            .iter()
            .filter_map(|p| {
                let s = time(&p.matrix, OutputOrder::Sorted).ok()?;
                Some(s.secs / time(&p.matrix, OutputOrder::Unsorted).ok()?.secs)
            })
            .collect();
        let hmean = ratios.len() as f64 / ratios.iter().map(|x| 1.0 / x).sum::<f64>();
        println!(
            "#   {}: {hmean:.2}x over {} matrices",
            label(algo),
            ratios.len()
        );
    }
}

fn fig15(args: &BenchArgs, pool: &Pool) {
    let (divisor, suite) = suite(args);
    println!(
        "# fig15: performance profiles over {} matrices (divisor {divisor})",
        suite.len()
    );
    let cells: Vec<Vec<Row>> = suite
        .iter()
        .map(|p| both_panels(&p.matrix, &p.matrix, args, pool))
        .collect();
    for panel in [OutputOrder::Sorted, OutputOrder::Unsorted] {
        let name = panels::name(panel);
        let labels: Vec<&str> = panels::roster(panel).iter().map(|&a| label(a)).collect();
        let mut times = vec![Vec::new(); labels.len()];
        for rows in &cells {
            let secs = rows.iter().filter(|r| r.panel == panel);
            for (t, r) in times.iter_mut().zip(secs) {
                t.push(r.result.as_ref().ok().map(|m| m.secs));
            }
        }
        let prof = profiles::build(&times);
        println!("panel\talgorithm\ttheta\tfraction");
        for (s, label) in labels.iter().enumerate() {
            for theta in profiles::default_thetas() {
                let f = prof.fraction_within(s, theta);
                println!("{name}\t{label}\t{theta:.1}\t{f:.3}");
            }
        }
        for (s, label) in labels.iter().enumerate() {
            println!(
                "# {name}: {label}: best on {:.0}% of problems, within 1.6x on {:.0}%",
                prof.fraction_within(s, 1.0) * 100.0,
                prof.fraction_within(s, 1.6) * 100.0
            );
        }
    }
}

fn fig16(args: &BenchArgs, pool: &Pool) {
    let long_max = args.scale_or(13);
    let ef = args.ef_or(16);
    println!("# fig16: square x tall-skinny (G500, EF {ef})");
    println!("long_scale\tpanel\talgorithm\tshort_scale\tmflops");
    for long in [long_max.saturating_sub(1), long_max] {
        let a = rmat::generate_kind(RmatKind::G500, long, ef, &mut spgemm_gen::rng(args.seed));
        // The paper's short scales 10/12/14/16 under long 18..20 are
        // the four even scales below long − 2; same spacing here.
        let shorts: Vec<u32> = (4..=long.saturating_sub(2)).step_by(2).collect();
        for &short in &shorts[shorts.len().saturating_sub(4)..] {
            let mut rng = spgemm_gen::rng(args.seed ^ short as u64);
            let ts = tallskinny::tall_skinny(&a, 1 << short, &mut rng).expect("tall-skinny sample");
            print_series(long, short, &both_panels(&a, &ts, args, pool));
        }
    }
}

fn fig17(args: &BenchArgs, pool: &Pool) {
    let (divisor, suite) = suite(args);
    println!("# fig17: L*U (triangle counting) over the suite (divisor {divisor})");
    println!("algorithm\tmatrix\tcompression_ratio\tmflops");
    for p in &suite {
        let (_, l, u) = spgemm_apps::triangles::lu_operands(&p.matrix).expect("a square matrix");
        for (r, m) in measured(&panels::run(&l, &u, None, pool, args.reps()), &p.name) {
            let cr = m.compression_ratio();
            println!("{}\t{}\t{cr:.2}\t{:.1}", label(r.algo), p.name, m.mflops());
        }
    }
}
