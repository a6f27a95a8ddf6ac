//! Quickstart: build two sparse matrices, multiply them with every
//! algorithm, and verify they agree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spgemm::{multiply_in, Algorithm, OutputOrder};
use spgemm_par::Pool;
use spgemm_sparse::{stats, Csr, PlusTimes};

/// `f64` matrices over the ordinary `(+, ×)` arithmetic.
type P = PlusTimes<f64>;

fn main() {
    // Every parallel region runs on a pool the caller owns and sizes.
    let pool = Pool::with_all_threads();

    // A small graph-ish matrix built from triplets (rows come out
    // sorted and deduplicated).
    let a = Csr::from_triplets(
        4,
        4,
        &[
            (0, 1, 1.0),
            (0, 2, 2.0),
            (1, 2, 3.0),
            (2, 0, 4.0),
            (2, 3, 5.0),
            (3, 3, 6.0),
        ],
    )
    .expect("valid triplets");

    println!("A: {} x {}, {} nonzeros", a.nrows(), a.ncols(), a.nnz());
    println!("flop(A^2) = {}\n", stats::flop(&a, &a));

    // The paper's workhorse: hash SpGEMM with sorted output.
    let c =
        multiply_in::<P>(&a, &a, Algorithm::Hash, OutputOrder::Sorted, &pool).expect("multiply");
    println!("C = A^2 has {} nonzeros:", c.nnz());
    for i in 0..c.nrows() {
        let entries: Vec<String> = c
            .row_cols(i)
            .iter()
            .zip(c.row_vals(i))
            .map(|(col, v)| format!("({col}, {v})"))
            .collect();
        println!("  row {i}: {}", entries.join(" "));
    }

    // Every other algorithm gives the same product.
    println!("\ncross-checking all algorithms:");
    for algo in [
        Algorithm::Hash,
        Algorithm::HashVec,
        Algorithm::Heap,
        Algorithm::Spa,
        Algorithm::Merge,
        Algorithm::Inspector,
        Algorithm::KkHash,
        Algorithm::Ikj,
    ] {
        let got = multiply_in::<P>(&a, &a, algo, OutputOrder::Sorted, &pool).expect("multiply");
        let same = spgemm_sparse::approx_eq_f64(&c, &got, 1e-12);
        println!("  {algo:<10} -> {} nnz, matches: {same}", got.nnz());
        assert!(same);
    }

    // Auto picks by accumulator footprint against this machine's L2
    // share (`spgemm::cost::select`).
    let auto =
        multiply_in::<P>(&a, &a, Algorithm::Auto, OutputOrder::Unsorted, &pool).expect("multiply");
    println!(
        "\nAuto-selected kernel produced {} nnz (unsorted output)",
        auto.nnz()
    );
}
