//! Property tests: a Matrix Market `real general` write ↔ read is
//! lossless. Rust's shortest-round-trip float formatting makes the
//! round trip bit-exact, so comparisons are full `Csr` equality, not
//! approximate.

use proptest::prelude::*;
use spgemm_sparse::io::{read_matrix_market_from, write_matrix_market_to};
use spgemm_sparse::Csr;

/// A value mixing magnitudes (1e-30 .. 1e18), plus exact small numbers.
fn value_strategy() -> impl Strategy<Value = f64> {
    (0u32..1000, -30i32..19).prop_map(|(mant, exp)| {
        let mant = mant as f64 + 1.0; // non-zero
        mant * 10f64.powi(exp)
    })
}

fn triplets_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, u32, f64)>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(nr, nc)| {
        let entries = prop::collection::vec((0..nr, 0..nc as u32, value_strategy()), 0..24);
        (Just(nr), Just(nc), entries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn general_real_round_trips_bit_exact((nr, nc, trips) in triplets_strategy()) {
        let m = Csr::from_triplets(nr, nc, &trips).unwrap();
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &m).unwrap();
        let back = read_matrix_market_from(buf.as_slice()).unwrap();
        prop_assert_eq!(back, m);
    }
}
