//! Property tests: for arbitrary generator inputs, grids and shard
//! widths, the sharded product under the default shard kernel is
//! **bit-identical** to the monolithic `Hash` product on real values
//! salted with NaN, ±0.0 and ±inf.

mod common;

use common::{assert_bit_identical, mono_hash, spiced};
use proptest::prelude::*;
use spgemm_dist::{DistConfig, GridSpec, ShardRuntime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_is_bit_identical_to_monolithic_hash(
        scale in 5u32..7,
        ef in 1usize..6,
        seed in 0u64..1000,
        grid_rows in 1usize..4,
        grid_cols in 1usize..3,
        threads in 1usize..3,
        skew in prop::bool::ANY,
    ) {
        let kind = if skew { spgemm_gen::RmatKind::G500 } else { spgemm_gen::RmatKind::Er };
        let a = spiced(&spgemm_gen::rmat::generate_kind(kind, scale, ef, &mut spgemm_gen::rng(seed)));
        let rt = ShardRuntime::new(DistConfig {
            grid: GridSpec::new(grid_rows, grid_cols),
            threads_per_shard: threads,
            ..DistConfig::default()
        });
        let c = rt.multiply(&a, &a).unwrap();
        assert_bit_identical(&c, &mono_hash(&a, &a), "square");
    }

    #[test]
    fn rectangular_chain_is_bit_identical(
        seed in 0u64..1000,
        grid_rows in 1usize..4,
        grid_cols in 1usize..3,
    ) {
        // A (square, power-law) times a tall-skinny block — the §5.5
        // shape — through row-only grids (direct window writes) and
        // row- and column-sharded ones (local block).
        let a = spiced(&spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500, 6, 4, &mut spgemm_gen::rng(seed)));
        let b = spiced(
            &spgemm_gen::tallskinny::tall_skinny(&a, 9, &mut spgemm_gen::rng(seed ^ 1)).unwrap());
        let rt = ShardRuntime::new(DistConfig {
            grid: GridSpec::new(grid_rows, grid_cols),
            ..DistConfig::default()
        });
        assert_bit_identical(&rt.multiply(&a, &b).unwrap(), &mono_hash(&a, &b), "rectangular");
    }
}
