//! [`ModeledKnc`]: the trait implementation over the `phi-simd` register
//! model. Every method delegates to the corresponding inherent method,
//! so instruction counting is bit- and count-identical to calling the
//! model directly — the refactor to backend-generic kernels changes
//! nothing about the modeled channel.

use crate::traits::{LaneMask8, Vector32, Vector64, VectorBackend};
use phi_simd::count::{record, record_all, OpClass, OpCounts};
use phi_simd::{Mask8, U32x16, U64x8};

/// The software-modeled KNC (IMCI) backend — the repo's historical and
/// default execution mode, with deterministic per-op instruction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeledKnc;

impl LaneMask8 for Mask8 {
    #[inline]
    fn all() -> Self {
        Mask8::all()
    }
    #[inline]
    fn none() -> Self {
        Mask8::none()
    }
    #[inline]
    fn lane(self, i: usize) -> bool {
        Mask8::lane(self, i)
    }
}

impl Vector64 for U64x8 {
    type Mask = Mask8;

    #[inline]
    fn zero() -> Self {
        U64x8::zero()
    }
    #[inline]
    fn splat(v: u64) -> Self {
        U64x8::splat(v)
    }
    #[inline]
    fn load(src: &[u64]) -> Self {
        U64x8::load(src)
    }
    #[inline]
    fn store(self, dst: &mut [u64]) {
        U64x8::store(self, dst)
    }
    #[inline]
    fn from_lanes(lanes: [u64; 8]) -> Self {
        U64x8::from_lanes(lanes)
    }
    #[inline]
    fn from_slice_folded(src: &[u64]) -> Self {
        U64x8::from_slice_folded(src)
    }
    #[inline]
    fn to_lanes(self) -> [u64; 8] {
        U64x8::to_lanes(self)
    }
    #[inline]
    fn lane(self, i: usize) -> u64 {
        U64x8::lane(self, i)
    }
    #[inline]
    fn with_lane(self, i: usize, v: u64) -> Self {
        U64x8::with_lane(self, i, v)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        U64x8::add(self, rhs)
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        U64x8::sub(self, rhs)
    }
    #[inline]
    fn and(self, rhs: Self) -> Self {
        U64x8::and(self, rhs)
    }
    #[inline]
    fn shr(self, n: u32) -> Self {
        U64x8::shr(self, n)
    }
    #[inline]
    fn shl(self, n: u32) -> Self {
        U64x8::shl(self, n)
    }
    #[inline]
    fn fma32(self, a: Self, b: Self) -> Self {
        U64x8::fma32(self, a, b)
    }
    #[inline]
    fn blend(self, mask: Mask8, other: Self) -> Self {
        U64x8::blend(self, mask, other)
    }
    #[inline]
    fn shift_lanes_down(self, fill: u64) -> Self {
        U64x8::shift_lanes_down(self, fill)
    }
}

impl Vector32 for U32x16 {
    type Wide = U64x8;

    #[inline]
    fn from_lanes(lanes: [u32; 16]) -> Self {
        U32x16::from_lanes(lanes)
    }
    #[inline]
    fn to_lanes(self) -> [u32; 16] {
        U32x16::to_lanes(self)
    }
    #[inline]
    fn lane(self, i: usize) -> u32 {
        U32x16::lane(self, i)
    }
    #[inline]
    fn widen_lo(self) -> U64x8 {
        U32x16::widen_lo(self)
    }
    #[inline]
    fn widen_hi(self) -> U64x8 {
        U32x16::widen_hi(self)
    }
}

impl VectorBackend for ModeledKnc {
    const NAME: &'static str = "modeled-knc";
    type V64 = U64x8;
    type V32 = U32x16;
    type M8 = Mask8;

    #[inline]
    fn record(class: OpClass, n: u64) {
        record(class, n);
    }

    #[inline]
    fn record_all(counts: &OpCounts) {
        record_all(counts);
    }
}
