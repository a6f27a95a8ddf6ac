//! Markov clustering of a planted-partition graph — the A² workload
//! the paper cites as a primary SpGEMM consumer (HipMCL).
//!
//! ```text
//! cargo run --release --example markov_cluster -- [clusters] [per_cluster]
//! ```

use rand::Rng as _;
use spgemm_apps::mcl::{cluster, MclParams};
use spgemm_sparse::{ColIdx, Coo, Csr};

/// Planted partition: `k` groups of `m` vertices; intra-group edge
/// probability high, inter-group low.
fn planted(k: usize, m: usize, seed: u64) -> (Csr<f64>, Vec<usize>) {
    let n = k * m;
    let mut rng = spgemm_gen::rng(seed);
    let mut coo = Coo::new(n, n).expect("size ok");
    for u in 0..n {
        for v in (u + 1)..n {
            let same = u / m == v / m;
            let p = if same { 0.6 } else { 0.02 };
            if rng.random::<f64>() < p {
                coo.push(u, v as ColIdx, 1.0).unwrap();
                coo.push(v, u as ColIdx, 1.0).unwrap();
            }
        }
    }
    let truth: Vec<usize> = (0..n).map(|v| v / m).collect();
    (coo.into_csr_sum(), truth)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);

    println!("planted-partition graph: {k} clusters x {m} vertices");
    let (g, truth) = planted(k, m, 2024);
    println!("{} vertices, {} edges", g.nrows(), g.nnz() / 2);

    let pool = &spgemm_par::Pool::with_all_threads();
    let t = std::time::Instant::now();
    let labels = cluster(&g, &MclParams::default(), pool).expect("mcl");
    println!("MCL converged in {:.3}s", t.elapsed().as_secs_f64());

    let found = labels.iter().copied().max().unwrap_or(0) + 1;
    println!("found {found} clusters (truth: {k})");

    // pair-counting accuracy (Rand index)
    let n = labels.len();
    let mut agree = 0u64;
    let mut total = 0u64;
    for u in 0..n {
        for v in (u + 1)..n {
            total += 1;
            let same_found = labels[u] == labels[v];
            let same_truth = truth[u] == truth[v];
            if same_found == same_truth {
                agree += 1;
            }
        }
    }
    println!(
        "Rand index vs planted truth: {:.4}",
        agree as f64 / total as f64
    );
}
