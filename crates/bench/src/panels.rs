//! The §5.1 comparison protocol behind Figures 11–17 and Table 4.
//!
//! Every kernel figure times two panels per cell: the *sorted* panel
//! {MKL~Merge, Heap, Hash, HashVec} on the cell's sorted operands with
//! sorted output, and the *unsorted* panel {MKL~SPA, MKL-inspector,
//! Kokkos~KkHash, Hash, HashVec} on the cell's unsorted twin with
//! unsorted output ("the column indices of input matrices are randomly
//! permuted"). The twin is the same product from unsorted operands, so
//! both panels compute `a · b`.

use crate::runner::{self, Measurement};
use spgemm::{Algorithm, OutputOrder};
use spgemm_par::Pool;
use spgemm_sparse::{ops, Csr, SparseError};

/// A panel's kernels, in the order the paper's figures list them:
/// MKL(≈Merge), Heap, Hash, HashVector for sorted output; MKL(≈SPA),
/// MKL-inspector, Kokkos(≈KkHash), Hash, HashVector for unsorted.
pub fn roster(order: OutputOrder) -> &'static [Algorithm] {
    use Algorithm::*;
    match order {
        OutputOrder::Sorted => &[Merge, Heap, Hash, HashVec],
        OutputOrder::Unsorted => &[Spa, Inspector, KkHash, Hash, HashVec],
    }
}

/// A panel's name in the figures' `panel` column.
pub fn name(order: OutputOrder) -> &'static str {
    match order {
        OutputOrder::Sorted => "sorted",
        OutputOrder::Unsorted => "unsorted",
    }
}

/// Paper-facing display name for a kernel: the stand-ins are labelled
/// with both names to stay honest about the substitution (see
/// ARCHITECTURE.md "Paper → code").
pub fn label(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::Merge => "MKL~Merge",
        Algorithm::Spa => "MKL~SPA",
        Algorithm::Inspector => "MKLinsp~1ph",
        Algorithm::KkHash => "Kokkos~KkHash",
        other => other.name(),
    }
}

/// The unsorted twin of the cell `a · b` (§5.1): A's columns relabelled
/// by a random permutation `p` and B's rows permuted by the same `p`.
/// The twin's product is `a · b` from a left operand whose rows are no
/// longer ascending.
pub fn unsorted_twin(
    a: &Csr<f64>,
    b: &Csr<f64>,
    rng: &mut spgemm_gen::Rng,
) -> (Csr<f64>, Csr<f64>) {
    let p = spgemm_gen::perm::random_col_permutation(a.ncols(), rng);
    let ua = ops::permute_cols(a, &p).expect("permutation has the right length");
    let rows: Vec<usize> = p.iter().map(|&x| x as usize).collect();
    let ub = ops::permute_rows(b, &rows).expect("A's columns index B's rows");
    (ua, ub)
}

/// One timed kernel of a panel; `Err` when the kernel rejects the cell.
#[derive(Debug)]
pub struct Row {
    /// The panel the kernel ran in, by its output order.
    pub panel: OutputOrder,
    /// The kernel.
    pub algo: Algorithm,
    /// Its measurement.
    pub result: Result<Measurement, SparseError>,
}

/// Time every kernel of `roster` on `a · b` in `order`.
pub fn time_roster(
    a: &Csr<f64>,
    b: &Csr<f64>,
    roster: &[Algorithm],
    order: OutputOrder,
    pool: &Pool,
    reps: usize,
) -> Vec<(Algorithm, Result<Measurement, SparseError>)> {
    roster
        .iter()
        .map(|&algo| (algo, runner::time_multiply(a, b, algo, order, pool, reps)))
        .collect()
}

/// Time the sorted panel on the cell `a · b` and, given the cell's
/// [`unsorted_twin`], the unsorted panel on the twin.
pub fn run(
    a: &Csr<f64>,
    b: &Csr<f64>,
    twin: Option<&(Csr<f64>, Csr<f64>)>,
    pool: &Pool,
    reps: usize,
) -> Vec<Row> {
    let sides = std::iter::once((OutputOrder::Sorted, a, b))
        .chain(twin.map(|(ua, ub)| (OutputOrder::Unsorted, ua, ub)));
    sides
        .flat_map(|(panel, a, b)| {
            time_roster(a, b, roster(panel), panel, pool, reps)
                .into_iter()
                .map(move |(algo, result)| Row {
                    panel,
                    algo,
                    result,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_gen::{rmat, tallskinny, RmatKind};
    use spgemm_sparse::{bits_eq_f64, PlusTimes};

    fn hash_sorted(a: &Csr<f64>, b: &Csr<f64>, pool: &Pool) -> Csr<f64> {
        spgemm::multiply_in::<PlusTimes<f64>>(a, b, Algorithm::Hash, OutputOrder::Sorted, pool)
            .expect("Hash accepts any input")
    }

    #[test]
    fn the_twin_is_the_same_product_from_an_unsorted_left_operand() {
        let er = rmat::generate_kind(RmatKind::Er, 8, 8, &mut spgemm_gen::rng(1));
        let g500 = rmat::generate_kind(RmatKind::G500, 8, 8, &mut spgemm_gen::rng(2));
        let ts = tallskinny::tall_skinny(&g500, 16, &mut spgemm_gen::rng(3)).unwrap();
        for (name, a, b) in [("er", &er, &er), ("g500", &g500, &g500), ("ts", &g500, &ts)] {
            let (ua, ub) = unsorted_twin(a, b, &mut spgemm_gen::rng(4));
            assert!(
                a.is_sorted() && !ua.is_sorted(),
                "{name}: twin's A is unsorted"
            );
            for threads in 1..=3 {
                let pool = Pool::new(threads);
                assert!(
                    bits_eq_f64(&hash_sorted(a, b, &pool), &hash_sorted(&ua, &ub, &pool)),
                    "{name} at {threads} threads: the twin computes a different product"
                );
            }
        }
    }

    #[test]
    fn run_times_each_roster_on_its_side() {
        let a = rmat::generate_kind(RmatKind::Er, 6, 4, &mut spgemm_gen::rng(5));
        let twin = unsorted_twin(&a, &a, &mut spgemm_gen::rng(6));
        let pool = Pool::new(2);
        let rows = run(&a, &a, Some(&twin), &pool, 1);
        let kernels: Vec<_> = rows.iter().map(|r| (r.panel, r.algo)).collect();
        let expected: Vec<_> = [OutputOrder::Sorted, OutputOrder::Unsorted]
            .into_iter()
            .flat_map(|p| roster(p).iter().map(move |&k| (p, k)))
            .collect();
        assert_eq!(kernels, expected);
        let nnz = rows[0].result.as_ref().unwrap().nnz_out;
        assert!(rows
            .iter()
            .all(|r| r.result.as_ref().is_ok_and(|m| m.nnz_out == nnz)));
        assert_eq!(
            run(&a, &a, None, &pool, 1).len(),
            roster(OutputOrder::Sorted).len()
        );
    }
}
