//! Shared by the dist integration tests: hostile real-valued inputs
//! and the bit-for-bit comparison the sharded contract is stated in.
#![allow(dead_code)] // each test binary uses its own subset

use spgemm::{Algorithm, OutputOrder};
use spgemm_par::Pool;
use spgemm_sparse::{Csr, PlusTimes};

/// `m` with every few entries replaced by NaN, ±0.0 or ±inf and a
/// scattering of sign flips (so infinities of both signs meet in one
/// sum); the rest keep the generator's real values.
pub fn spiced(m: &Csr<f64>) -> Csr<f64> {
    let (nrows, ncols, rpts, cols, mut vals, _) = m.clone().into_parts();
    for (i, v) in vals.iter_mut().enumerate() {
        *v = match i % 37 {
            3 => f64::NAN,
            8 => -0.0,
            13 => 0.0,
            21 => f64::INFINITY,
            30 => f64::NEG_INFINITY,
            k if k % 5 == 0 => -*v,
            _ => *v,
        };
    }
    Csr::from_parts(nrows, ncols, rpts, cols, vals).unwrap()
}

/// The monolithic product the sharded one must reproduce.
pub fn mono_hash(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
    let pool = Pool::new(2);
    spgemm::multiply_in::<PlusTimes<f64>>(a, b, Algorithm::Hash, OutputOrder::Sorted, &pool)
        .unwrap()
}

/// Same shape, same structure, same value **bits** (NaN payloads and
/// zero signs included).
pub fn assert_bit_identical(got: &Csr<f64>, want: &Csr<f64>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(got.rpts(), want.rpts(), "{what}: row pointers");
    assert_eq!(got.cols(), want.cols(), "{what}: column indices");
    let bits = |m: &Csr<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
}
