//! The `Count` abstraction the matching DPs are generic over.

/// An unsigned counter type suitable for the embedding-counting dynamic
/// programs.
///
/// The DPs only ever *add* counts, *subtract* a smaller count from a larger
/// one (Theorem 2: `δ(T[i]) = |M^T| − |M^{T∖i}|`), compare them, and test for
/// zero — so that is the whole interface. Implementations:
/// [`BigCount`](crate::BigCount) (exact), [`Sat64`](crate::Sat64) and
/// [`Sat128`](crate::Sat128) (saturating).
pub trait Count: Clone + Ord + std::fmt::Debug + std::fmt::Display + Send + 'static {
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity (DP base case `P₀ʲ = 1`).
    fn one() -> Self;

    /// Whether this count is zero.
    fn is_zero(&self) -> bool;

    /// In-place addition: `self += other`. Saturating implementations clamp
    /// at their maximum.
    fn add_assign(&mut self, other: &Self);

    /// Saturating subtraction: `max(self − other, 0)`.
    ///
    /// In exact arithmetic the DP identities guarantee `other ≤ self`
    /// wherever this is called; the saturating contract makes fixed-width
    /// implementations total.
    fn saturating_sub(&self, other: &Self) -> Self;

    /// Multiplication: `self · other`. Needed only by the forward–backward
    /// `δ` optimisation, which combines prefix-embedding and
    /// suffix-embedding counts multiplicatively. Saturating implementations
    /// clamp at their maximum.
    fn mul(&self, other: &Self) -> Self;

    /// Conversion from a machine integer.
    fn from_u64(v: u64) -> Self;

    /// Lossy conversion for reporting/plotting (may round; `+∞`-free).
    fn to_f64(&self) -> f64;

    /// Whether this value has hit a representation ceiling and is therefore
    /// a lower bound rather than an exact count. Always `false` for exact
    /// implementations.
    fn is_saturated(&self) -> bool {
        false
    }

    /// Convenience: `self + other` by value.
    fn add(&self, other: &Self) -> Self {
        let mut r = self.clone();
        r.add_assign(other);
        r
    }
}

/// Plain `u64` as a `Count` — **panics on overflow** (debug) / wraps
/// (release). Only suitable for tests and inputs known to be tiny; prefer
/// [`Sat64`](crate::Sat64) everywhere else. Provided because it makes
/// property-test oracles trivial to write.
impl Count for u64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
    fn add_assign(&mut self, other: &Self) {
        *self += *other;
    }
    fn saturating_sub(&self, other: &Self) -> Self {
        u64::saturating_sub(*self, *other)
    }
    fn mul(&self, other: &Self) -> Self {
        *self * *other
    }
    fn from_u64(v: u64) -> Self {
        v
    }
    fn to_f64(&self) -> f64 {
        *self as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_count_basics() {
        let a = <u64 as Count>::from_u64(5);
        let b = <u64 as Count>::from_u64(3);
        assert_eq!(Count::add(&a, &b), 8);
        assert_eq!(Count::mul(&a, &b), 15);
        assert_eq!(Count::saturating_sub(&b, &a), 0);
        assert_eq!(Count::saturating_sub(&a, &b), 2);
        assert!(<u64 as Count>::zero().is_zero());
        assert!(!<u64 as Count>::one().is_zero());
        assert!(!a.is_saturated());
        assert_eq!(a.to_f64(), 5.0);
    }
}
