//! HashVector SpGEMM: hash probing vectorized with AVX-512/AVX2
//! (§4.2.2, Figure 8b).
//!
//! Identical structure to [`crate::algos::hash`] except the table is
//! chunked one vector register wide and probed with the primitives of
//! [`crate::algos::simd`]: the hash selects a *chunk*; a vector
//! comparison checks all of its keys at once; insertion takes the
//! first empty lane; a full chunk advances to the next (linear probing
//! at chunk granularity). Fewer probe steps per collision, a few more
//! instructions per step — the paper's Haswell/KNL trade-off.

use crate::algos::simd::{self, ChunkProbe, SimdLevel};
use crate::exec::{self, AccumReq, RowAccumulator, Workers};
use crate::OutputOrder;
use spgemm_par::Pool;
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Chunk-selection hash constant (same multiplicative scheme as the
/// scalar kernel).
const HASH_SCALE: u32 = 107;

/// A chunked, SIMD-probed hash accumulator for one thread.
pub struct HashVecAccumulator<S: Semiring> {
    keys: Vec<i32>,
    vals: Vec<S::Elem>,
    /// Flat slot indices filled by the current row.
    occupied: Vec<u32>,
    chunk_mask: u32,
    level: SimdLevel,
    width: usize,
    sort_buf: Vec<(ColIdx, S::Elem)>,
}

impl<S: Semiring> HashVecAccumulator<S> {
    /// Accumulator for rows of at most `max_row_flop` products into
    /// `ncols_b` output columns, probing with `level`.
    pub fn with_level(max_row_flop: usize, ncols_b: usize, level: SimdLevel) -> Self {
        let width = level.width();
        let size_t = max_row_flop.min(ncols_b);
        // capacity: smallest power-of-two multiple of the chunk width
        // strictly above size_t (same "always one free slot" rule).
        let cap = exec::lowest_p2_above(size_t).max(width);
        let nchunks = cap / width;
        HashVecAccumulator {
            keys: vec![-1; cap],
            vals: vec![S::zero(); cap],
            occupied: Vec::with_capacity(size_t.min(cap)),
            chunk_mask: (nchunks - 1) as u32,
            level,
            width,
            sort_buf: Vec::new(),
        }
    }

    /// Accumulator probing at the best level the CPU supports.
    pub fn new(max_row_flop: usize, ncols_b: usize) -> Self {
        Self::with_level(max_row_flop, ncols_b, simd::detect())
    }

    /// Table capacity in keys.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Distinct keys inserted for the current row.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// Whether the current row has no entries yet.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// The SIMD level in use.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Find or insert `col`; returns `(flat_slot, inserted)`.
    #[inline]
    pub fn probe_insert(&mut self, col: ColIdx) -> (usize, bool) {
        let mut chunk = col.wrapping_mul(HASH_SCALE) & self.chunk_mask;
        loop {
            let base = chunk as usize * self.width;
            let lanes = &self.keys[base..base + self.width];
            match simd::probe_chunk(self.level, lanes, col as i32) {
                ChunkProbe::Found(lane) => return (base + lane, false),
                ChunkProbe::Empty(lane) => {
                    let slot = base + lane;
                    self.keys[slot] = col as i32;
                    self.occupied.push(slot as u32);
                    return (slot, true);
                }
                ChunkProbe::Full => chunk = (chunk + 1) & self.chunk_mask,
            }
        }
    }

    /// Symbolic insert (count-only).
    #[inline]
    pub fn insert_symbolic(&mut self, col: ColIdx) -> bool {
        self.probe_insert(col).1
    }

    /// Numeric insert: accumulate `value` at `col`.
    #[inline]
    pub fn insert_numeric(&mut self, col: ColIdx, value: S::Elem) {
        let (slot, inserted) = self.probe_insert(col);
        self.vals[slot] = if inserted {
            value
        } else {
            S::add(self.vals[slot], value)
        };
    }

    /// Clear the current row's slots, keeping the allocation.
    pub fn reset(&mut self) {
        for &s in &self.occupied {
            self.keys[s as usize] = -1;
        }
        self.occupied.clear();
    }

    /// Emit the accumulated row and reset; see
    /// [`crate::algos::hash::HashAccumulator::extract_into`].
    pub fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [S::Elem], sorted: bool) {
        debug_assert_eq!(cols.len(), self.occupied.len());
        if sorted {
            self.sort_buf.clear();
            self.sort_buf.extend(
                self.occupied
                    .iter()
                    .map(|&s| (self.keys[s as usize] as ColIdx, self.vals[s as usize])),
            );
            self.sort_buf.sort_unstable_by_key(|&(c, _)| c);
            for (idx, &(c, v)) in self.sort_buf.iter().enumerate() {
                cols[idx] = c;
                vals[idx] = v;
            }
        } else {
            for (idx, &s) in self.occupied.iter().enumerate() {
                cols[idx] = self.keys[s as usize] as ColIdx;
                vals[idx] = self.vals[s as usize];
            }
        }
        self.reset();
    }
}

impl<S: Semiring> RowAccumulator<S> for HashVecAccumulator<S> {
    /// The probing level every worker's table is chunked for.
    type Shared = SimdLevel;

    fn build(req: &AccumReq, level: &SimdLevel) -> Self {
        Self::with_level(req.max_row_flop, req.ncols_b, *level)
    }

    fn ensure(&mut self, req: &AccumReq) {
        let size_t = req.max_row_flop.min(req.ncols_b);
        let cap = exec::lowest_p2_above(size_t).max(self.width);
        if cap > self.keys.len() {
            self.keys.clear();
            self.keys.resize(cap, -1);
            self.vals.clear();
            self.vals.resize(cap, S::zero());
            self.chunk_mask = (cap / self.width - 1) as u32;
            self.occupied.clear();
        }
    }

    fn scrub(&mut self) {
        self.reset();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        for &k in a.row_cols(i) {
            for &j in b.row_cols(k as usize) {
                self.insert_symbolic(j);
            }
        }
        let n = self.occupied.len();
        self.reset();
        n
    }

    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        sorted: bool,
    ) {
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let kr = k as usize;
            for (&j, &bval) in b.row_cols(kr).iter().zip(b.row_vals(kr)) {
                self.insert_numeric(j, S::mul(aval, bval));
            }
        }
        self.extract_into(cols, vals, sorted);
    }
}

/// HashVector SpGEMM with an explicit SIMD level (tests, ablations);
/// [`crate::Algorithm::HashVec`] runs at [`simd::detect`]'s.
pub fn multiply_with_level<S: Semiring>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    order: OutputOrder,
    pool: &Pool,
    level: SimdLevel,
) -> Csr<S::Elem> {
    let workers = Workers::<S, HashVecAccumulator<S>>::new(pool.nthreads(), level);
    exec::multiply_on(&workers, a, b, order.is_sorted(), pool, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    fn levels() -> Vec<SimdLevel> {
        let mut v = vec![SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(SimdLevel::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                v.push(SimdLevel::Avx512);
            }
        }
        v
    }

    #[test]
    fn accumulator_roundtrip_all_levels() {
        for level in levels() {
            let mut acc = HashVecAccumulator::<P>::with_level(32, 1000, level);
            for c in [500u32, 3, 500, 77, 3] {
                acc.insert_numeric(c, 1.0);
            }
            assert_eq!(acc.len(), 3, "{level:?}");
            let mut cols = vec![0; 3];
            let mut vals = vec![0.0; 3];
            acc.extract_into(&mut cols, &mut vals, true);
            assert_eq!(cols, vec![3, 77, 500], "{level:?}");
            assert_eq!(vals, vec![2.0, 1.0, 2.0], "{level:?}");
        }
    }

    #[test]
    fn capacity_is_chunk_aligned_pow2() {
        for level in levels() {
            let acc = HashVecAccumulator::<P>::with_level(5, 1000, level);
            assert_eq!(acc.capacity() % level.width(), 0);
            assert!(acc.capacity().is_power_of_two());
            assert!(acc.capacity() > 5);
        }
    }

    #[test]
    fn collision_heavy_inserts_survive_chunk_overflow() {
        for level in levels() {
            // enough keys to overflow several chunks
            let mut acc = HashVecAccumulator::<P>::with_level(64, 10_000, level);
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
        for level in levels() {
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
