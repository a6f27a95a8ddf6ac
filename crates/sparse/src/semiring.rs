//! Semiring abstraction over matrix elements.
//!
//! The paper evaluates SpGEMM both as a numeric kernel (A², AMG) and as
//! a graph primitive (multi-source BFS, triangle counting). Those
//! workloads differ only in the element algebra, so every kernel in the
//! `spgemm` crate is generic over a [`Semiring`]; this module provides
//! the three algebras the evaluation needs.

use crate::Scalar;
use std::fmt::Debug;
use std::marker::PhantomData;

/// An algebraic semiring `(Elem, add, mul, zero)` driving SpGEMM.
///
/// `add` must be commutative and associative with identity `zero`, and
/// `mul(zero, x) == zero` — the kernels rely on both to reorder the
/// accumulation of intermediate products freely (Gustavson's algorithm
/// produces them in data-dependent order).
pub trait Semiring: Send + Sync + 'static {
    /// Element type stored in the matrices.
    type Elem: Copy + Send + Sync + PartialEq + Debug + 'static;

    /// The implicit value of absent entries: the additive identity *in
    /// value*. It need not be one in bits — `0.0 + -0.0` is `+0.0`
    /// under `PlusTimes<f64>` — so code that must reproduce a sum
    /// exactly starts from [`Semiring::seed`], never from `zero`.
    fn zero() -> Self::Elem;

    /// An `e` with `add(e, x)` bit-identical to `x` for every `x` (any
    /// NaN for a NaN), if the algebra has one: `-0.0` for IEEE floats
    /// under `(+, ×)`, `0` for the integers, `false` for `(∨, ∧)`,
    /// `-inf` for `(max, ×)`. A dense accumulator whose slots hold the
    /// seed between rows can `add` into them unconditionally and still
    /// produce the bits of "first product stored, the rest added" —
    /// which is what a plan's numeric replay does. `None` (the
    /// default) keeps a semiring on the accumulators that track slot
    /// occupancy.
    #[inline]
    fn seed() -> Option<Self::Elem> {
        None
    }

    /// Semiring addition (accumulation of intermediate products).
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Semiring multiplication (scalar product of matched entries).
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;
}

/// The conventional arithmetic semiring `(+, ×)` over a [`Scalar`].
///
/// `PlusTimes<f64>` is what the paper benchmarks; all numeric figures
/// (11–14, 16, 17) use it.
pub struct PlusTimes<T>(PhantomData<T>);

impl<T: Scalar> Semiring for PlusTimes<T> {
    type Elem = T;
    #[inline]
    fn zero() -> T {
        T::ZERO
    }
    #[inline]
    fn seed() -> Option<T> {
        Some(T::SEED)
    }
    #[inline]
    fn add(a: T, b: T) -> T {
        a.add(b)
    }
    #[inline]
    fn mul(a: T, b: T) -> T {
        a.mul(b)
    }
}

/// The boolean semiring `(∨, ∧)` used for reachability: one SpGEMM step
/// over `OrAnd` advances every BFS frontier of a multi-source search
/// (§5.5 of the paper frames this as square × tall-skinny).
pub struct OrAnd;

impl Semiring for OrAnd {
    type Elem = bool;
    #[inline]
    fn zero() -> bool {
        false
    }
    #[inline]
    fn seed() -> Option<bool> {
        Some(false)
    }
    #[inline]
    fn add(a: bool, b: bool) -> bool {
        a | b
    }
    #[inline]
    fn mul(a: bool, b: bool) -> bool {
        a & b
    }
}

/// The `(max, ×)` semiring over non-negative reals; useful for
/// best-path / peer-pressure-style clustering workloads cited in the
/// paper's introduction. Included to exercise non-standard `add` in
/// tests (it is idempotent but not invertible).
pub struct MaxTimes;

impl Semiring for MaxTimes {
    type Elem = f64;
    #[inline]
    fn zero() -> f64 {
        0.0
    }
    /// `-inf >= x` only for `x == -inf`, so `add` returns `x` itself.
    #[inline]
    fn seed() -> Option<f64> {
        Some(f64::NEG_INFINITY)
    }
    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        if a >= b {
            a
        } else {
            b
        }
    }
    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_matches_scalar() {
        assert_eq!(<PlusTimes<f64>>::add(2.0, 3.0), 5.0);
        assert_eq!(<PlusTimes<f64>>::mul(2.0, 3.0), 6.0);
        assert_eq!(<PlusTimes<u64>>::zero(), 0);
    }

    #[test]
    fn or_and_absorbs() {
        assert!(!OrAnd::mul(OrAnd::zero(), true));
        assert!(OrAnd::add(true, false));
        // idempotent addition: a + a == a
        assert!(OrAnd::add(true, true));
    }

    #[test]
    fn max_times_identities() {
        assert_eq!(MaxTimes::add(MaxTimes::zero(), 3.5), 3.5);
        assert_eq!(MaxTimes::mul(0.0, 7.0), 0.0);
        assert_eq!(MaxTimes::add(2.0, 9.0), 9.0);
    }

    /// The seed law: `add(seed, x)` has `x`'s bits (any NaN for a NaN)
    /// — and `zero` does not, which is why the seed exists.
    fn seed_law<S: Semiring>(salts: &[S::Elem], same_bits: impl Fn(S::Elem, S::Elem) -> bool) {
        let seed = S::seed().expect("every semiring of this crate has a seed");
        for &x in salts {
            let got = S::add(seed, x);
            assert!(same_bits(got, x), "add(seed, {x:?}) = {got:?}");
        }
    }

    #[test]
    fn seed_is_a_bit_exact_additive_identity() {
        let f64_bits = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let f32_bits = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let f64_salts = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1), // smallest subnormal
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.5,
            -2.25,
        ];
        let f32_salts = f64_salts.map(|x| x as f32);
        seed_law::<PlusTimes<f64>>(&f64_salts, f64_bits);
        seed_law::<PlusTimes<f32>>(&f32_salts, f32_bits);
        seed_law::<PlusTimes<f32>>(&[f32::from_bits(1), f32::MAX, f32::MIN], f32_bits);
        seed_law::<MaxTimes>(&f64_salts, f64_bits);
        seed_law::<PlusTimes<i32>>(&[0, 1, -1, i32::MIN, i32::MAX], |a, b| a == b);
        seed_law::<PlusTimes<i64>>(&[0, 1, -1, i64::MIN, i64::MAX], |a, b| a == b);
        seed_law::<PlusTimes<u32>>(&[0, 1, u32::MAX], |a, b| a == b);
        seed_law::<PlusTimes<u64>>(&[0, 1, u64::MAX], |a, b| a == b);
        seed_law::<OrAnd>(&[false, true], |a, b| a == b);
        // `zero` is an identity in value only.
        let z = <PlusTimes<f64>>::add(<PlusTimes<f64>>::zero(), -0.0);
        assert_eq!(z.to_bits(), 0.0f64.to_bits(), "0.0 + -0.0 is +0.0");
    }

    #[test]
    fn seed_defaults_to_none() {
        struct MinPlus;
        impl Semiring for MinPlus {
            type Elem = u32;
            fn zero() -> u32 {
                u32::MAX
            }
            fn add(a: u32, b: u32) -> u32 {
                a.min(b)
            }
            fn mul(a: u32, b: u32) -> u32 {
                a.saturating_add(b)
            }
        }
        assert_eq!(MinPlus::seed(), None);
    }
}
