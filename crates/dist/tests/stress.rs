//! Concurrency stress: one shared [`ShardRuntime`] hammered by
//! multiple submitter threads. Products serialize on the fleet's
//! internal lock; every submitter must get exactly its own, correct
//! result — bit for bit — even as the plans rebind and the layout is
//! rebuilt between the interleaved structures.

mod common;

use common::{assert_bit_identical, mono_hash, spiced};
use spgemm_dist::{DistConfig, GridSpec, ShardRuntime};
use spgemm_sparse::Csr;
use std::sync::Arc;

#[test]
fn shared_runtime_under_concurrent_submitters() {
    // Four structurally distinct inputs and their oracle squares.
    let inputs: Vec<Arc<Csr<f64>>> = (0..4)
        .map(|i| {
            Arc::new(spiced(&spgemm_gen::rmat::generate_kind(
                if i % 2 == 0 {
                    spgemm_gen::RmatKind::Er
                } else {
                    spgemm_gen::RmatKind::G500
                },
                6,
                3 + i,
                &mut spgemm_gen::rng(100 + i as u64),
            )))
        })
        .collect();
    let oracles: Vec<Arc<Csr<f64>>> = inputs.iter().map(|a| Arc::new(mono_hash(a, a))).collect();

    let rt = Arc::new(ShardRuntime::new(DistConfig {
        grid: GridSpec::new(2, 2),
        ..DistConfig::default()
    }));

    let submitters: Vec<_> = (0..4usize)
        .map(|t| {
            let rt = Arc::clone(&rt);
            let inputs = inputs.clone();
            let oracles = oracles.clone();
            std::thread::spawn(move || {
                // Each submitter walks the inputs in a different
                // rotation so structures interleave maximally.
                for round in 0..6 {
                    let i = (t + round) % inputs.len();
                    let c = rt.multiply(&inputs[i], &inputs[i]).unwrap();
                    assert_bit_identical(
                        &c,
                        &oracles[i],
                        &format!("submitter {t} round {round} input {i}"),
                    );
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter panicked");
    }
    let stats = rt.stats();
    assert_eq!(stats.products, 24, "every submission executed");
}
