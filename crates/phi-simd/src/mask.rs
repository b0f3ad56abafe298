//! Write-mask registers, modeled after KNC's `k0..k7`.
//!
//! IMCI made every vector instruction maskable; the PhiOpenSSL kernels use
//! masks for conditional subtraction and constant-time table gathers.

#![allow(clippy::should_implement_trait)] // kand/kor/knot mirror the mask ISA

use crate::count::{record, OpClass};

/// A 16-lane write mask (one bit per 32-bit lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mask16(pub u16);

/// An 8-lane write mask (one bit per 64-bit lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mask8(pub u8);

impl Mask16 {
    /// All lanes enabled.
    #[inline]
    pub fn all() -> Self {
        record(OpClass::VMask, 1);
        Mask16(u16::MAX)
    }

    /// No lanes enabled.
    #[inline]
    pub fn none() -> Self {
        record(OpClass::VMask, 1);
        Mask16(0)
    }

    /// Mask with exactly the first `n` lanes enabled.
    #[inline]
    pub fn first(n: usize) -> Self {
        assert!(n <= 16);
        record(OpClass::VMask, 1);
        if n == 16 {
            Mask16(u16::MAX)
        } else {
            Mask16((1u16 << n) - 1)
        }
    }

    /// Build from a per-lane predicate (models a vector compare).
    #[inline]
    pub fn from_fn(f: impl Fn(usize) -> bool) -> Self {
        record(OpClass::VMask, 1);
        let mut bits = 0u16;
        for i in 0..16 {
            if f(i) {
                bits |= 1 << i;
            }
        }
        Mask16(bits)
    }

    /// Lane `i` enabled?
    #[inline]
    pub fn lane(self, i: usize) -> bool {
        debug_assert!(i < 16);
        (self.0 >> i) & 1 == 1
    }

    /// Bitwise AND of masks (`kand`).
    #[inline]
    pub fn and(self, other: Self) -> Self {
        record(OpClass::VMask, 1);
        Mask16(self.0 & other.0)
    }

    /// Bitwise OR of masks (`kor`).
    #[inline]
    pub fn or(self, other: Self) -> Self {
        record(OpClass::VMask, 1);
        Mask16(self.0 | other.0)
    }

    /// Complement (`knot`).
    #[inline]
    pub fn not(self) -> Self {
        record(OpClass::VMask, 1);
        Mask16(!self.0)
    }

    /// Number of enabled lanes.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no lane is enabled (`kortestz`).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Mask8 {
    /// All lanes enabled.
    #[inline]
    pub fn all() -> Self {
        record(OpClass::VMask, 1);
        Mask8(u8::MAX)
    }

    /// No lanes enabled.
    #[inline]
    pub fn none() -> Self {
        record(OpClass::VMask, 1);
        Mask8(0)
    }

    /// Mask with exactly the first `n` lanes enabled.
    #[inline]
    pub fn first(n: usize) -> Self {
        assert!(n <= 8);
        record(OpClass::VMask, 1);
        if n == 8 {
            Mask8(u8::MAX)
        } else {
            Mask8((1u8 << n) - 1)
        }
    }

    /// Build from a per-lane predicate.
    #[inline]
    pub fn from_fn(f: impl Fn(usize) -> bool) -> Self {
        record(OpClass::VMask, 1);
        let mut bits = 0u8;
        for i in 0..8 {
            if f(i) {
                bits |= 1 << i;
            }
        }
        Mask8(bits)
    }

    /// Lane `i` enabled?
    #[inline]
    pub fn lane(self, i: usize) -> bool {
        debug_assert!(i < 8);
        (self.0 >> i) & 1 == 1
    }

    /// Bitwise AND.
    #[inline]
    pub fn and(self, other: Self) -> Self {
        record(OpClass::VMask, 1);
        Mask8(self.0 & other.0)
    }

    /// Complement.
    #[inline]
    pub fn not(self) -> Self {
        record(OpClass::VMask, 1);
        Mask8(!self.0)
    }

    /// Number of enabled lanes.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no lane is enabled.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_lanes() {
        let m = Mask16::first(3);
        assert!(m.lane(0) && m.lane(1) && m.lane(2));
        assert!(!m.lane(3));
        assert_eq!(m.count(), 3);
        assert_eq!(Mask16::first(16), Mask16::all());
        assert_eq!(Mask16::first(0), Mask16::none());
    }

    #[test]
    fn from_fn_even_lanes() {
        let m = Mask16::from_fn(|i| i % 2 == 0);
        assert_eq!(m.count(), 8);
        assert!(m.lane(0) && !m.lane(1));
    }

    #[test]
    fn boolean_algebra() {
        let a = Mask16::first(8);
        let b = a.not();
        assert!(a.and(b).is_empty());
        assert_eq!(a.or(b), Mask16::all());
    }

    #[test]
    fn mask8_basics() {
        let m = Mask8::first(5);
        assert_eq!(m.count(), 5);
        assert!(m.lane(4) && !m.lane(5));
        assert_eq!(Mask8::first(8), Mask8::all());
        assert!(Mask8::none().is_empty());
        assert_eq!(Mask8::from_fn(|i| i == 7).0, 0x80);
    }

    #[test]
    fn mask_ops_are_counted() {
        crate::count::reset();
        let (_, d) = crate::count::measure(|| {
            let a = Mask16::all();
            let b = Mask16::none();
            let _ = a.and(b);
        });
        assert_eq!(d.get(OpClass::VMask), 3);
    }
}
