//! Fleet lifecycle: `ShardRuntime::new` starts exactly the documented
//! threads and dropping the runtime joins every one of them. The test
//! is alone in its file, so no other test's threads come and go in the
//! process while it counts.
#![cfg(target_os = "linux")]

use spgemm_dist::{DistConfig, GridSpec, ShardRuntime};
use spgemm_gen::{poisson::poisson2d, rmat::generate_kind, RmatKind};
use std::time::{Duration, Instant};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let count = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"));
    count.expect("a Threads: line").trim().parse().unwrap()
}

#[test]
fn new_two_products_drop_leaves_no_thread_behind() {
    // The `dist_large` cold-op shape: a fresh fleet, the first product
    // of two structures, drop.
    let inputs = [
        generate_kind(RmatKind::G500, 6, 4, &mut spgemm_gen::rng(3)),
        poisson2d(8),
    ];
    let cfg = DistConfig {
        grid: GridSpec::new(2, 2),
        threads_per_shard: 2,
        ..DistConfig::default()
    };
    let before = process_threads();
    for round in 0..50 {
        let rt = ShardRuntime::new(cfg);
        // 3 fleet workers (the submitter is the fourth) + 1 per shard pool
        assert_eq!(process_threads(), before + 3 + 4, "round {round}");
        for a in &inputs {
            assert_eq!(rt.multiply(a, a).unwrap().nrows(), a.nrows());
        }
        drop(rt);
        // A joined thread leaves the kernel's count a moment after its
        // join returns; a leaked one never does.
        let deadline = Instant::now() + Duration::from_secs(5);
        while process_threads() != before && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(process_threads(), before, "round {round}: threads leaked");
    }
}
