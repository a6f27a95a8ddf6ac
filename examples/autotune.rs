//! Calibrate-then-multiply: build a machine profile with `spgemm-tune`
//! and watch `Algorithm::Auto` switch from its built-in footprint rule
//! to the tuned selector.
//!
//! ```text
//! cargo run --release -p spgemm-examples --example autotune [scale]
//! ```

use spgemm::recipe::{auto_context, static_select};
use spgemm::{cost, multiply_f64, Algorithm, OutputOrder};
use spgemm_gen::{perm, rmat, RmatKind};
use spgemm_par::Pool;
use spgemm_tune::{CalibrationConfig, TunedSelector};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let pool = Pool::with_all_threads();

    // Inputs: a skewed square multiply, sorted and shuffled.
    let mut rng = spgemm_gen::rng(1);
    let a = rmat::generate_kind(RmatKind::G500, scale, 16, &mut rng);
    let au = perm::randomize_columns(&a, &mut rng);
    println!(
        "input: G500 R-MAT, {} rows, {} nnz (and a column-shuffled copy)\n",
        a.nrows(),
        a.nnz()
    );

    // 1. Before calibration: Auto is the footprint rule — the dense
    //    accumulator while it fits one thread's share of the L2.
    println!(
        "dense accumulator: {} bytes per thread, L2 share {} bytes",
        cost::spa_footprint_bytes(a.ncols(), std::mem::size_of::<f64>()),
        cost::l2_share_bytes()
    );
    for (label, m) in [("sorted", &a), ("shuffled", &au)] {
        let ctx = auto_context(m, m, OutputOrder::Sorted);
        let pick = static_select(&ctx);
        assert_eq!(pick, cost::select(&ctx, cost::l2_share_bytes()));
        println!(
            "footprint rule picks {:<8} for the {label} input",
            pick.name()
        );
    }

    // 2. Calibrate: time the whole roster on a generated grid sized
    //    like this input, then install the winner table.
    println!("\ncalibrating (scale {scale}, every algorithm, this machine)...");
    let cfg = CalibrationConfig {
        scale,
        reps: 2,
        ..Default::default()
    };
    let profile = spgemm_tune::calibrate(&cfg, &pool);
    println!(
        "measured {} cells; hash collision factor c = {:.4}",
        profile.cells.len(),
        profile.collision_factor
    );
    let selector = TunedSelector::new(profile);
    selector.install();

    // 3. After calibration: Auto consults the profile.
    println!();
    for (label, m) in [("sorted", &a), ("shuffled", &au)] {
        let ctx = auto_context(m, m, OutputOrder::Sorted);
        match selector.select(&ctx) {
            Some(pick) => println!(
                "tuned selector picks {:<8} for the {label} input",
                pick.name()
            ),
            None => println!("tuned selector declines the {label} input (outside grid)"),
        }
    }

    // 4. The multiply itself is a one-liner either way.
    let c = multiply_f64(&a, &a, Algorithm::Auto, OutputOrder::Sorted).expect("valid multiply");
    println!("\nC = A^2 done: {} rows, {} nnz", c.nrows(), c.nnz());

    // In a long-running service you would skip the inline sweep and do
    // `spgemm_tune::init_from_saved(threads)` at startup instead,
    // after a one-time `cargo run -p spgemm-bench --bin tune`.
    spgemm_tune::uninstall();
}
