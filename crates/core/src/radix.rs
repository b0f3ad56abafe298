//! The reduced-radix digit representation the vector kernels operate on.
//!
//! KNC's IMCI vector unit has no add-with-carry, so PhiOpenSSL-style code
//! cannot use full 32-bit digits: partial products must accumulate in
//! 64-bit lanes without overflowing between explicit normalization points.
//! Storing `DIGIT_BITS = 27`-bit digits makes every lane product at most
//! 2^54, so even a 4096-bit operand (152 digits) accumulates
//! `2 · 152 · 2^54 < 2^63` per column across a full Montgomery pass —
//! comfortably inside a `u64` lane. (28-bit digits would overflow at 4096
//! bits: `2 · 147 · 2^56 > 2^64`.)
//!
//! Digits are stored little-endian in `u64` slots (pre-widened, the layout
//! the vector loads want), padded to a multiple of the 8-lane vector width.

use phi_backend::{ModeledKnc, VectorBackend};
use phi_bigint::BigUint;
use phi_simd::count::OpClass;
use std::cmp::Ordering;

/// Bits per reduced-radix digit.
pub const DIGIT_BITS: u32 = 27;

/// Mask of one digit.
pub const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// 64-bit lanes per 512-bit vector.
pub const LANES: usize = 8;

/// A non-negative integer in reduced-radix vector form.
///
/// Invariants: every digit is `< 2^27`; `digits.len()` is a non-zero
/// multiple of [`LANES`]. The length is fixed by the owning context, so
/// values of the same context can be combined without reallocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecNum {
    pub(crate) digits: Vec<u64>,
}

/// Round `n` up to a multiple of the vector width.
pub(crate) fn pad_to_lanes(n: usize) -> usize {
    n.div_ceil(LANES).max(1) * LANES
}

impl VecNum {
    /// The zero value with capacity for `ndigits` digits (padded).
    pub fn zero(ndigits: usize) -> Self {
        VecNum {
            digits: vec![0; pad_to_lanes(ndigits)],
        }
    }

    /// Convert from a big integer, which must fit in `ndigits` digits.
    ///
    /// Charged to the modeled counters as the scalar digit-slicing pass
    /// the real library performs when entering the vector domain (3 ALU +
    /// 1 store per digit).
    pub fn from_biguint(a: &BigUint, ndigits: usize) -> Self {
        Self::from_biguint_on::<ModeledKnc>(a, ndigits)
    }

    /// [`from_biguint`](Self::from_biguint), charged to backend `B`.
    pub(crate) fn from_biguint_on<B: VectorBackend>(a: &BigUint, ndigits: usize) -> Self {
        assert!(
            a.bit_length() as usize <= ndigits * DIGIT_BITS as usize,
            "value of {} bits does not fit in {} digits",
            a.bit_length(),
            ndigits
        );
        let padded = pad_to_lanes(ndigits);
        let mut digits = vec![0u64; padded];
        for (i, d) in digits.iter_mut().enumerate().take(ndigits) {
            *d = a.extract_bits(i as u32 * DIGIT_BITS, DIGIT_BITS);
        }
        B::record(OpClass::SAlu, 3 * ndigits as u64);
        B::record(OpClass::SMem, ndigits as u64);
        VecNum { digits }
    }

    /// Convert back to a big integer (the symmetric exit pass), charged
    /// to the modeled counters.
    pub fn to_biguint(&self) -> BigUint {
        self.to_biguint_on::<ModeledKnc>()
    }

    /// [`to_biguint`](Self::to_biguint), charged to backend `B`.
    pub(crate) fn to_biguint_on<B: VectorBackend>(&self) -> BigUint {
        let total_bits = self.digits.len() * DIGIT_BITS as usize;
        let limbs = total_bits.div_ceil(64) + 1;
        let mut out = vec![0u64; limbs];
        for (i, &d) in self.digits.iter().enumerate() {
            debug_assert!(d <= DIGIT_MASK, "digit {i} out of range");
            let bit = i * DIGIT_BITS as usize;
            let limb = bit / 64;
            let off = (bit % 64) as u32;
            out[limb] |= d << off;
            if off > 64 - DIGIT_BITS {
                out[limb + 1] |= d >> (64 - off);
            }
        }
        B::record(OpClass::SAlu, 3 * self.digits.len() as u64);
        B::record(OpClass::SMem, self.digits.len() as u64);
        BigUint::from_limbs(out)
    }

    /// Wrap an existing digit vector without conversion charges (kernel
    /// internal; digits must already be reduced-radix and lane-padded).
    pub(crate) fn from_digits_unchecked(digits: Vec<u64>) -> Self {
        debug_assert!(digits.len() % LANES == 0);
        debug_assert!(digits.iter().all(|&d| d <= DIGIT_MASK));
        VecNum { digits }
    }

    /// Number of digit slots (always a multiple of [`LANES`]).
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// True if the slot count is zero (never for context-built values).
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// True if the represented value is zero.
    pub fn is_zero_value(&self) -> bool {
        self.digits.iter().all(|&d| d == 0)
    }

    /// Borrow the digit slots.
    pub fn digits(&self) -> &[u64] {
        &self.digits
    }

    /// Read one digit.
    #[inline]
    pub fn digit(&self, i: usize) -> u64 {
        self.digits[i]
    }

    /// Compare two same-length digit vectors numerically. Uncounted host
    /// code: kernels charge it with their conditional subtraction.
    pub fn cmp_digits(&self, other: &VecNum) -> Ordering {
        debug_assert_eq!(self.digits.len(), other.digits.len());
        for (a, b) in self.digits.iter().rev().zip(other.digits.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// In-place borrowed subtraction `self -= other`; requires
    /// `self >= other`. Uncounted host code: kernels charge it with their
    /// conditional subtraction.
    pub fn sub_assign_digits(&mut self, other: &VecNum) {
        debug_assert_eq!(self.digits.len(), other.digits.len());
        let mut borrow = 0u64;
        for (a, &b) in self.digits.iter_mut().zip(other.digits.iter()) {
            let v = a.wrapping_sub(b).wrapping_sub(borrow);
            // Digits are < 2^27, so a genuine difference is < 2^27 while an
            // underflow wraps near 2^64; the sign bit is the borrow. Since
            // 2^64 ≡ 0 (mod 2^27), masking folds the wrapped value onto the
            // correct borrowed digit.
            borrow = v >> 63;
            *a = v & DIGIT_MASK;
        }
        debug_assert_eq!(borrow, 0, "sub_assign_digits underflow");
    }

    /// The final conditional subtraction of a Montgomery product:
    /// `self -= n` when `self >= n`. Charged to `B` as a compare pass (1
    /// ALU per digit) plus, when taken, the scalar borrow chain (2 ALU
    /// per digit).
    pub(crate) fn cond_sub<B: VectorBackend>(&mut self, n: &VecNum) {
        let len = self.digits.len() as u64;
        B::record(OpClass::SAlu, len);
        if self.cmp_digits(n) != Ordering::Less {
            B::record(OpClass::SAlu, 2 * len);
            self.sub_assign_digits(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_rounds_up_to_lanes() {
        assert_eq!(pad_to_lanes(1), 8);
        assert_eq!(pad_to_lanes(8), 8);
        assert_eq!(pad_to_lanes(9), 16);
        assert_eq!(pad_to_lanes(0), 8);
        assert_eq!(VecNum::zero(9).len(), 16);
    }

    #[test]
    fn roundtrip_small_values() {
        for v in [0u64, 1, 2, DIGIT_MASK, DIGIT_MASK + 1, u64::MAX] {
            let n = BigUint::from(v);
            let vn = VecNum::from_biguint(&n, 8);
            assert_eq!(vn.to_biguint(), n, "v = {v}");
        }
    }

    #[test]
    fn roundtrip_wide_values() {
        let n =
            BigUint::from_hex("deadbeefcafebabe0123456789abcdef0fedcba9876543210123456789abcdef")
                .unwrap();
        let ndigits = (n.bit_length().div_ceil(DIGIT_BITS)) as usize;
        let vn = VecNum::from_biguint(&n, ndigits);
        assert_eq!(vn.to_biguint(), n);
        // All digits within range.
        assert!(vn.digits().iter().all(|&d| d <= DIGIT_MASK));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_biguint_overflow_panics() {
        let n = BigUint::power_of_two(28 * 27); // needs 29 digits
        VecNum::from_biguint(&n, 28);
    }

    #[test]
    fn digit_extraction_is_little_endian() {
        // value = 5 + 7·2^27
        let n = &BigUint::from(5u64) + &(&BigUint::from(7u64) * &BigUint::power_of_two(27));
        let vn = VecNum::from_biguint(&n, 8);
        assert_eq!(vn.digit(0), 5);
        assert_eq!(vn.digit(1), 7);
        assert_eq!(vn.digit(2), 0);
    }

    #[test]
    fn zero_detection() {
        assert!(VecNum::zero(8).is_zero_value());
        let one = VecNum::from_biguint(&BigUint::one(), 8);
        assert!(!one.is_zero_value());
    }

    #[test]
    fn cmp_digits_orders_numerically() {
        use std::cmp::Ordering;
        let a = VecNum::from_biguint(&BigUint::from(100u64), 8);
        let b = VecNum::from_biguint(&BigUint::from(200u64), 8);
        assert_eq!(a.cmp_digits(&b), Ordering::Less);
        assert_eq!(b.cmp_digits(&a), Ordering::Greater);
        assert_eq!(a.cmp_digits(&a.clone()), Ordering::Equal);
        // Order decided by a high digit.
        let big = VecNum::from_biguint(&BigUint::power_of_two(100), 8);
        let small = VecNum::from_biguint(&(&BigUint::power_of_two(100) - &BigUint::one()), 8);
        assert_eq!(small.cmp_digits(&big), Ordering::Less);
    }

    #[test]
    fn sub_assign_digits_matches_biguint() {
        let av = BigUint::from_hex("123456789abcdef0123456789").unwrap();
        let bv = BigUint::from_hex("0fedcba987654321").unwrap();
        let mut a = VecNum::from_biguint(&av, 16);
        let b = VecNum::from_biguint(&bv, 16);
        a.sub_assign_digits(&b);
        assert_eq!(a.to_biguint(), &av - &bv);
        // Digits stay in range after borrows.
        assert!(a.digits().iter().all(|&d| d <= DIGIT_MASK));
    }

    #[test]
    fn sub_assign_digits_borrow_chain() {
        // 2^108 - 1 requires borrowing across several digits.
        let av = BigUint::power_of_two(108);
        let mut a = VecNum::from_biguint(&av, 16);
        let b = VecNum::from_biguint(&BigUint::one(), 16);
        a.sub_assign_digits(&b);
        assert_eq!(a.to_biguint(), &av - &BigUint::one());
    }

    #[test]
    fn conversion_records_scalar_ops() {
        phi_simd::count::reset();
        let (_, d) = phi_simd::count::measure(|| {
            let v = VecNum::from_biguint(&BigUint::from(42u64), 8);
            v.to_biguint()
        });
        assert!(d.get(OpClass::SAlu) > 0);
        assert!(d.get(OpClass::SMem) > 0);
        assert_eq!(d.get(OpClass::VMul), 0);
    }
}
