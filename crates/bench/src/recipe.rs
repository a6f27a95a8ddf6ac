//! The paper's recipe (§5.7, Table 4) as a reproduction target, and
//! the collision-factor probe behind `cost::AUTO_COLLISION_FACTOR` —
//! both measurements `table04_recipe` prints next to what
//! `Algorithm::Auto` picks. Neither is on `Auto`'s path: `Auto` is
//! `spgemm::cost::select`, a rule of the machine (`spgemm::recipe`
//! says why).
//!
//! Table 4a (real data, keyed on compression ratio CR = flop/nnz(C)):
//!
//! |            | high CR (> 2)   | low CR (≤ 2) |
//! |------------|-----------------|---------------|
//! | A·A sorted | Hash            | Hash          |
//! | A·A unsorted | MKL-inspector | Hash          |
//! | L·U sorted | Hash            | Heap          |
//!
//! Table 4b (synthetic data, keyed on edge factor EF and skew):
//!
//! |                    | sparse (EF ≤ 8) |         | dense (EF > 8) |        |
//! |--------------------|---------|--------|---------|--------|
//! |                    | uniform | skewed | uniform | skewed |
//! | A·A sorted         | Heap    | Heap   | Heap    | Hash   |
//! | A·A unsorted       | HashVec | HashVec| HashVec | Hash   |
//! | tall-skinny sorted | —       | Hash   | —       | HashVec|
//! | tall-skinny unsorted | —     | Hash   | —       | Hash   |
//!
//! (Dashes: combinations the paper did not measure; we fall back to
//! the skewed column, which its tall-skinny experiments used.)

use spgemm::algos::hash::{linear_insert, Probe, Table};
use spgemm::algos::ColumnSet;
use spgemm::recipe::Pattern;
use spgemm::{Algorithm, OutputOrder};
use spgemm_sparse::{stats, ColIdx, Csr, Semiring};

/// The multiplication scenario, following the paper's use cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Squaring / general square × square (§5.4).
    Square,
    /// Triangle-counting `L · U` (§5.6).
    LxU,
    /// Square × tall-skinny (§5.5).
    TallSkinny,
}

/// Edge-factor threshold separating Table 4b's "sparse" and "dense"
/// columns.
pub const DENSE_EDGE_FACTOR: f64 = 8.0;

/// Compression-ratio threshold separating Table 4a's regimes.
pub const HIGH_CR: f64 = 2.0;

/// Table 4b: recommendation for synthetic/structural inputs.
pub fn recommend_synthetic(
    op: OpKind,
    pattern: Pattern,
    edge_factor: f64,
    order: OutputOrder,
) -> Algorithm {
    let dense = edge_factor > DENSE_EDGE_FACTOR;
    match (op, order) {
        (OpKind::Square | OpKind::LxU, OutputOrder::Sorted) => {
            if dense && pattern == Pattern::Skewed {
                Algorithm::Hash
            } else {
                Algorithm::Heap
            }
        }
        (OpKind::Square | OpKind::LxU, OutputOrder::Unsorted) => {
            if dense && pattern == Pattern::Skewed {
                Algorithm::Hash
            } else {
                Algorithm::HashVec
            }
        }
        (OpKind::TallSkinny, OutputOrder::Sorted) => {
            if dense {
                Algorithm::HashVec
            } else {
                Algorithm::Hash
            }
        }
        (OpKind::TallSkinny, OutputOrder::Unsorted) => Algorithm::Hash,
    }
}

/// Table 4a: recommendation for real-world inputs with a known (or
/// estimated) compression ratio.
pub fn recommend_real(op: OpKind, compression_ratio: f64, order: OutputOrder) -> Algorithm {
    match (op, order) {
        (OpKind::LxU, OutputOrder::Sorted) if compression_ratio <= HIGH_CR => Algorithm::Heap,
        (_, OutputOrder::Unsorted) if compression_ratio > HIGH_CR => Algorithm::Inspector,
        _ => Algorithm::Hash,
    }
}

/// Figure 8a's linear probe, counting: production tables carry no
/// counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingLinear {
    /// Slots inspected.
    probes: u64,
    /// Keys looked up.
    accesses: u64,
}

impl CountingLinear {
    /// Average probes per access — the collision factor `c` of Eq (2).
    /// Exactly 1.0 when no probe ever collided.
    pub fn collision_factor(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.probes as f64 / self.accesses as f64
        }
    }
}

impl Probe for CountingLinear {
    #[inline]
    fn insert(&mut self, keys: &mut [i32], mask: u32, col: ColIdx) -> (usize, bool) {
        self.accesses += 1;
        linear_insert(keys, mask, col, || self.probes += 1)
    }
}

/// Empirically measure the collision factor `c` of Eq (2) for
/// `A · B`: run a sequential symbolic pass through one hash table
/// sized as a worker's would be, whose probe counts, and report probes
/// per access.
///
/// On the paper's inputs this sits close to 1 (the multiply-and-mask
/// hash with a strictly-oversized power-of-two table collides rarely).
/// `table04_recipe --sweep` prints it per cell (the `coll` column):
/// that is where `spgemm::cost::AUTO_COLLISION_FACTOR` is read from.
pub fn measure_collision_factor<S: Semiring>(a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> f64 {
    let row_flops = stats::row_flops(a, b);
    let max_flop = row_flops.iter().copied().max().unwrap_or(0) as usize;
    let mut table = Table::<S, _>::new(max_flop, b.ncols(), CountingLinear::default());
    for i in 0..a.nrows() {
        for &k in a.row_cols(i) {
            for &j in b.row_cols(k as usize) {
                ColumnSet::<S>::insert_symbolic(&mut table, j);
            }
        }
        ColumnSet::<S>::reset(&mut table);
    }
    table.probe().collision_factor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm::recipe::auto_context;
    use spgemm_gen::{rmat, tallskinny, RmatKind};
    use spgemm_sparse::PlusTimes;

    type P = PlusTimes<f64>;

    #[test]
    fn table_4b_spot_checks() {
        use Algorithm::*;
        use OutputOrder::*;
        // dense skewed A·A: Hash both ways (paper: "Hash / Hash")
        assert_eq!(
            recommend_synthetic(OpKind::Square, Pattern::Skewed, 16.0, Sorted),
            Hash
        );
        assert_eq!(
            recommend_synthetic(OpKind::Square, Pattern::Skewed, 16.0, Unsorted),
            Hash
        );
        // uniform A·A sorted: Heap at either density
        for ef in [4.0, 16.0] {
            assert_eq!(
                recommend_synthetic(OpKind::Square, Pattern::Uniform, ef, Sorted),
                Heap
            );
        }
        // sparse anything unsorted: HashVec
        assert_eq!(
            recommend_synthetic(OpKind::Square, Pattern::Uniform, 4.0, Unsorted),
            HashVec
        );
        // tall-skinny dense sorted: HashVec; unsorted: Hash
        assert_eq!(
            recommend_synthetic(OpKind::TallSkinny, Pattern::Skewed, 16.0, Sorted),
            HashVec
        );
        assert_eq!(
            recommend_synthetic(OpKind::TallSkinny, Pattern::Skewed, 16.0, Unsorted),
            Hash
        );
    }

    #[test]
    fn table_4a_spot_checks() {
        use Algorithm::*;
        use OutputOrder::*;
        assert_eq!(recommend_real(OpKind::Square, 10.0, Sorted), Hash);
        assert_eq!(recommend_real(OpKind::Square, 1.5, Sorted), Hash);
        assert_eq!(recommend_real(OpKind::Square, 10.0, Unsorted), Inspector);
        assert_eq!(recommend_real(OpKind::Square, 1.5, Unsorted), Hash);
        assert_eq!(recommend_real(OpKind::LxU, 1.5, Sorted), Heap);
        assert_eq!(recommend_real(OpKind::LxU, 10.0, Sorted), Hash);
    }

    #[test]
    fn static_recipe_picks_expected_table4_algorithms() {
        // Pin the concrete Table-4b cells for a 64-row roster so a
        // regression in the table is visible: (op, edge factor, A, B).
        // The G500 scale-6 ef-4 generator is in Table 4b's "sparse"
        // column whichever way its pattern classifies.
        let mut rng = spgemm_gen::rng(42);
        let a = rmat::generate_kind(RmatKind::G500, 6, 4, &mut rng);
        let (au, bu) = crate::panels::unsorted_twin(&a, &a, &mut rng);
        let ts = tallskinny::tall_skinny(&a, 4, &mut rng).unwrap();
        let roster = [
            (OpKind::Square, 4.0, a.clone(), a.clone()),
            (OpKind::Square, 4.0, au, bu),
            (OpKind::TallSkinny, 4.0, a, ts),
        ];
        let cell = |i: usize, order| {
            let (op, ef, a, b) = &roster[i];
            recommend_synthetic(*op, auto_context(a, b, order).pattern, *ef, order)
        };
        // square: sparse skewed → Heap (sorted out), HashVec (unsorted)
        for i in [0, 1] {
            assert_eq!(cell(i, OutputOrder::Sorted), Algorithm::Heap);
            assert_eq!(cell(i, OutputOrder::Unsorted), Algorithm::HashVec);
        }
        // tall-skinny sorted, skewed sparse → Hash both ways (Table 4b)
        assert_eq!(cell(2, OutputOrder::Sorted), Algorithm::Hash);
        assert_eq!(cell(2, OutputOrder::Unsorted), Algorithm::Hash);
    }

    #[test]
    fn collision_factor_tracks_probing() {
        let mut acc = Table::<P, _>::new(64, 1 << 20, CountingLinear::default());
        assert_eq!(acc.probe().collision_factor(), 1.0, "no accesses yet");
        // distinct keys that all hash to different slots: with the
        // multiplicative hash and a 128-slot table, consecutive keys
        // spread — expect a factor near 1
        for k in 0..32u32 {
            acc.insert_symbolic(k);
        }
        let low = acc.probe().collision_factor();
        assert!(low < 1.5, "spread keys should rarely collide: {low}");
        // adversarial keys in a fresh table: all map to the same slot
        // (HASH_SCALE is odd, so multiplying by cap-stride keys keeps
        // the masked hash constant)
        let mut acc = Table::<P, _>::new(64, 1 << 20, CountingLinear::default());
        let cap = acc.capacity() as u32;
        for k in 0..32u32 {
            acc.insert_symbolic(k * cap);
        }
        let high = acc.probe().collision_factor();
        assert!(high > 4.0, "clustered keys must probe long chains: {high}");
    }

    #[test]
    fn measured_collision_factor_is_small_on_rmat() {
        let a = rmat::generate_kind(RmatKind::G500, 9, 8, &mut spgemm_gen::rng(5));
        let c = measure_collision_factor::<P>(&a, &a);
        assert!(c >= 1.0, "by definition");
        assert!(c < 2.0, "oversized pow2 table keeps probing cheap: c = {c}");
    }
}
