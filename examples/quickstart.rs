//! Quickstart: build two sparse matrices, multiply them with every
//! algorithm, and verify they agree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spgemm::{multiply_f64, Algorithm, OutputOrder};
use spgemm_sparse::{stats, Csr};

fn main() {
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
    let c = multiply_f64(&a, &a, Algorithm::Hash, OutputOrder::Sorted).expect("multiply");
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
        let got = multiply_f64(&a, &a, algo, OutputOrder::Sorted).expect("multiply");
        let same = spgemm_sparse::approx_eq_f64(&c, &got, 1e-12);
        println!("  {algo:<10} -> {} nnz, matches: {same}", got.nnz());
        assert!(same);
    }

    // Auto selection consults the paper's recipe (Table 4).
    let auto = multiply_f64(&a, &a, Algorithm::Auto, OutputOrder::Unsorted).expect("multiply");
    println!(
        "\nAuto-selected kernel produced {} nnz (unsorted output)",
        auto.nnz()
    );
}
