//! Element types storable in sparse matrices.

use std::fmt::Debug;

/// A numeric element type usable as matrix values.
///
/// This is deliberately minimal: the SpGEMM kernels only ever need
/// copyable values with an additive identity, addition, and
/// multiplication (the conventional `(+, ×)` semiring; other semirings
/// are expressed through [`crate::Semiring`]). All methods are expected
/// to be cheap and branch-free for primitive types.
pub trait Scalar: Copy + Send + Sync + PartialEq + Debug + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// A value `e` with `e.add(x)` bit-identical to `x` for every `x`
    /// (any NaN for a NaN): what a dense accumulator slot can hold
    /// between rows so that the first `add` into it needs no "is this
    /// slot fresh" test. `ZERO` for the integers and `bool`; `-0.0`
    /// for IEEE floats, because `0.0 + -0.0` is `+0.0` — `ZERO` there
    /// is an identity in value but not in bits.
    const SEED: Self;

    /// Addition in the conventional arithmetic of the type.
    #[must_use]
    fn add(self, other: Self) -> Self;

    /// Multiplication in the conventional arithmetic of the type.
    #[must_use]
    fn mul(self, other: Self) -> Self;

    /// Whether the value equals the additive identity.
    #[inline]
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }
}

macro_rules! impl_scalar_num {
    ($($t:ty),* $(,)?) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0 as $t;
            const ONE: Self = 1 as $t;
            const SEED: Self = -0.0;
            #[inline]
            fn add(self, other: Self) -> Self { self + other }
            #[inline]
            fn mul(self, other: Self) -> Self { self * other }
        }
    )*};
}

impl_scalar_num!(f32, f64);

macro_rules! impl_scalar_int {
    ($($t:ty),* $(,)?) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const SEED: Self = 0;
            // Integer matrices are used for counting (e.g. wedges in
            // triangle counting); wrapping keeps release/debug behaviour
            // identical if a synthetic workload overflows.
            #[inline]
            fn add(self, other: Self) -> Self { self.wrapping_add(other) }
            #[inline]
            fn mul(self, other: Self) -> Self { self.wrapping_mul(other) }
        }
    )*};
}

impl_scalar_int!(i32, i64, u32, u64);

impl Scalar for bool {
    const ZERO: Self = false;
    const ONE: Self = true;
    const SEED: Self = false;
    /// Boolean "addition" is disjunction, matching the `(∨, ∧)`
    /// semiring used for reachability / BFS workloads.
    #[inline]
    fn add(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn mul(self, other: Self) -> Self {
        self & other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axioms<T: Scalar>(a: T, b: T) {
        assert_eq!(T::ZERO.add(a), a);
        assert_eq!(a.mul(T::ONE), a);
        assert_eq!(a.mul(T::ZERO), T::ZERO);
        assert_eq!(a.add(b), b.add(a));
        assert!(T::ZERO.is_zero());
    }

    #[test]
    fn f64_axioms() {
        axioms(2.5f64, -1.25);
    }

    #[test]
    fn u64_axioms_and_wrapping() {
        axioms(7u64, 9);
        assert_eq!(u64::MAX.add(1), 0, "integer add wraps by contract");
    }

    #[test]
    fn bool_is_or_and() {
        axioms(true, false);
        assert!(true.add(false));
        assert!(!true.mul(false));
        assert!(true.add(true), "saturating, not xor");
    }
}
