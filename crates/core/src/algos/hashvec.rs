//! HashVector SpGEMM: hash probing vectorized with AVX-512/AVX2
//! (§4.2.2, Figure 8b).
//!
//! The table of [`crate::algos::hash`] with nothing changed but the
//! probe: the table is chunked one vector register wide and probed
//! with the primitives of [`crate::algos::simd`]. The hash selects a
//! *chunk*; a vector comparison checks all of its keys at once;
//! insertion takes the first empty lane; a full chunk advances to the
//! next (linear probing at chunk granularity). Fewer probe steps per
//! collision, a few more instructions per step — the paper's
//! Haswell/KNL trade-off.

use crate::algos::hash::{Probe, Table, HASH_SCALE};
use crate::algos::simd::{self, CheckedLevel, ChunkProbe, SimdLevel};
use crate::exec::{self, Workers};
use crate::OutputOrder;
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Chunked probing (Figure 8b) at one SIMD level.
#[derive(Clone, Copy, Debug)]
pub struct Chunked {
    level: CheckedLevel,
}

impl Chunked {
    /// Probe at `level` — or, if the running CPU does not support it,
    /// at [`simd::detect`]'s level ([`SimdLevel::checked`]).
    pub fn new(level: SimdLevel) -> Self {
        Chunked {
            level: level.checked(),
        }
    }
}

impl Probe for Chunked {
    fn width(&self) -> usize {
        self.level.get().width()
    }

    #[inline(always)]
    fn insert(&mut self, keys: &mut [i32], mask: u32, col: ColIdx) -> (usize, bool) {
        let width = self.level.get().width();
        let mut chunk = col.wrapping_mul(HASH_SCALE) & mask;
        loop {
            let base = chunk as usize * width;
            match simd::probe_chunk(self.level, keys, chunk as usize, col as i32) {
                ChunkProbe::Found(lane) => return (base + lane, false),
                ChunkProbe::Empty(lane) => {
                    keys[base + lane] = col as i32;
                    return (base + lane, true);
                }
                ChunkProbe::Full => chunk = (chunk + 1) & mask,
            }
        }
    }

    fn level(&self) -> Option<CheckedLevel> {
        Some(self.level)
    }
}

/// The chunked, SIMD-probed table of [`crate::Algorithm::HashVec`].
pub type HashVecAccumulator<S> = Table<S, Chunked>;

/// HashVector SpGEMM with an explicit SIMD level (the per-level parity
/// tests);
/// [`crate::Algorithm::HashVec`] runs at [`simd::detect`]'s. A level
/// the CPU lacks runs at the detected one instead — see
/// [`Chunked::new`].
pub fn multiply_with_level<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    order: OutputOrder,
    pool: &Pool,
    level: SimdLevel,
) -> Csr<S::Elem> {
    let workers = Workers::<S, HashVecAccumulator<S>>::new(pool.nthreads(), Chunked::new(level));
    exec::multiply_on(&workers, a, b, order.is_sorted(), pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use crate::exec::ColumnSet;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    fn table_at(max_row_flop: usize, ncols_b: usize, level: SimdLevel) -> HashVecAccumulator<P> {
        Table::new(max_row_flop, ncols_b, Chunked::new(level))
    }

    #[test]
    fn capacity_is_chunk_aligned_pow2() {
        for level in SimdLevel::supported() {
            let acc = table_at(5, 1000, level);
            assert_eq!(acc.capacity() % level.width(), 0);
            assert!(acc.capacity().is_power_of_two());
            assert!(acc.capacity() > 5);
        }
    }

    #[test]
    fn collision_heavy_inserts_survive_chunk_overflow() {
        for level in SimdLevel::supported() {
            // enough keys to overflow several chunks
            let mut acc = table_at(64, 10_000, level);
            for c in 0..64u32 {
                acc.insert_numeric(c * 128, 1.0); // same low bits → clustered chunks
            }
            assert_eq!(acc.len(), 64, "{level:?}");
            let mut cols = vec![0; 64];
            let mut vals = vec![0.0; 64];
            acc.extract_into(&mut cols, &mut vals, true);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn matches_reference_all_levels() {
        let a = Csr::from_triplets(
            5,
            5,
            &[
                (0, 0, 1.0),
                (0, 4, 2.0),
                (1, 2, 3.0),
                (2, 1, -1.0),
                (2, 3, 4.0),
                (3, 0, 5.0),
                (4, 4, 0.5),
            ],
        )
        .unwrap();
        let expect = reference::multiply::<P>(&a, &a);
        let pool = Pool::new(2);
        for level in SimdLevel::supported() {
            for order in [OutputOrder::Sorted, OutputOrder::Unsorted] {
                let got = multiply_with_level::<P>(&a, &a, order, &pool, level);
                assert!(approx_eq_f64(&expect, &got, 1e-12), "{level:?} {order:?}");
                assert!(got.validate().is_ok());
            }
        }
    }

    #[test]
    fn default_level_multiply_works() {
        let a = Csr::from_triplets(3, 3, &[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]).unwrap();
        let pool = Pool::new(1);
        let c = crate::multiply_in::<P>(
            &a,
            &a,
            crate::Algorithm::HashVec,
            OutputOrder::Sorted,
            &pool,
        )
        .unwrap();
        let expect = reference::multiply::<P>(&a, &a);
        assert!(approx_eq_f64(&expect, &c, 1e-12));
    }
}
