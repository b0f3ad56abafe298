//! [`NativeX86`]: the real-hardware backend.
//!
//! Lane types are plain arrays, and every lane operation — including
//! the widening 32×32→64 multiply-accumulate
//! [`fma32`](crate::Vector64::fma32) the kernels are built from — is a
//! portable lane loop. LLVM lowers those loops to the best SIMD the build
//! targets (`vpmuludq`/`vpaddq` on zmm under
//! `RUSTFLAGS="-C target-cpu=native"`) while keeping all eight lanes in
//! registers across the surrounding vector ops. Hand-written
//! `core::arch` lowerings (AVX2, AVX-512F, AVX-512 IFMA) measured
//! 0.4–0.9× of this loop per op: a `#[target_feature]` function cannot
//! inline into callers compiled without that feature, and even inlined
//! intrinsics fence the lanes through memory at every op boundary.

#![allow(clippy::needless_range_loop)] // explicit lane indices read as lane semantics

use crate::traits::{LaneMask8, Vector32, Vector64, VectorBackend};
use phi_simd::count::{OpClass, OpCounts};

/// The native execution backend: host SIMD, no instruction accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NativeX86;

/// Eight 64-bit lanes as a plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NV64(pub [u64; 8]);

/// Sixteen 32-bit lanes as a plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NV32(pub [u32; 16]);

/// An 8-lane bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NMask8(pub u8);

impl LaneMask8 for NMask8 {
    #[inline(always)]
    fn all() -> Self {
        NMask8(u8::MAX)
    }
    #[inline(always)]
    fn none() -> Self {
        NMask8(0)
    }
    #[inline(always)]
    fn lane(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }
}

impl Vector64 for NV64 {
    type Mask = NMask8;

    #[inline(always)]
    fn zero() -> Self {
        NV64([0; 8])
    }
    #[inline(always)]
    fn splat(v: u64) -> Self {
        NV64([v; 8])
    }
    #[inline(always)]
    fn load(src: &[u64]) -> Self {
        Self::from_slice_folded(src)
    }
    #[inline(always)]
    fn store(self, dst: &mut [u64]) {
        let n = dst.len().min(8);
        dst[..n].copy_from_slice(&self.0[..n]);
    }
    #[inline(always)]
    fn from_lanes(lanes: [u64; 8]) -> Self {
        NV64(lanes)
    }
    #[inline(always)]
    fn from_slice_folded(src: &[u64]) -> Self {
        let mut lanes = [0u64; 8];
        let n = src.len().min(8);
        lanes[..n].copy_from_slice(&src[..n]);
        NV64(lanes)
    }
    #[inline(always)]
    fn to_lanes(self) -> [u64; 8] {
        self.0
    }
    #[inline(always)]
    fn lane(self, i: usize) -> u64 {
        self.0[i]
    }
    #[inline(always)]
    fn with_lane(mut self, i: usize, v: u64) -> Self {
        self.0[i] = v;
        self
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_add(rhs.0[i]);
        }
        NV64(out)
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_sub(rhs.0[i]);
        }
        NV64(out)
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] & rhs.0[i];
        }
        NV64(out)
    }
    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] >> n;
        }
        NV64(out)
    }
    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] << n;
        }
        NV64(out)
    }
    #[inline(always)]
    fn fma32(self, a: Self, b: Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            // Zero-extended 32-bit operands lower to one widening
            // multiply per lane pair (`pmuludq`).
            let p = (a.0[i] as u32 as u64) * (b.0[i] as u32 as u64);
            out[i] = self.0[i].wrapping_add(p);
        }
        NV64(out)
    }
    #[inline(always)]
    fn blend(self, mask: NMask8, other: Self) -> Self {
        let mut out = self.0;
        for i in 0..8 {
            if mask.lane(i) {
                out[i] = other.0[i];
            }
        }
        NV64(out)
    }
    #[inline(always)]
    fn shift_lanes_down(self, fill: u64) -> Self {
        // Built as one array literal: the sub-slice copy this replaces
        // made the 1024-bit CIOS row loop ~1.7× slower.
        let l = self.0;
        NV64([l[1], l[2], l[3], l[4], l[5], l[6], l[7], fill])
    }
}

impl Vector32 for NV32 {
    type Wide = NV64;

    #[inline(always)]
    fn from_lanes(lanes: [u32; 16]) -> Self {
        NV32(lanes)
    }
    #[inline(always)]
    fn to_lanes(self) -> [u32; 16] {
        self.0
    }
    #[inline(always)]
    fn lane(self, i: usize) -> u32 {
        self.0[i]
    }
    #[inline(always)]
    fn widen_lo(self) -> NV64 {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] as u64;
        }
        NV64(out)
    }
    #[inline(always)]
    fn widen_hi(self) -> NV64 {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i + 8] as u64;
        }
        NV64(out)
    }
}

impl VectorBackend for NativeX86 {
    const NAME: &'static str = "native-x86";
    type V64 = NV64;
    type V32 = NV32;
    type M8 = NMask8;

    #[inline(always)]
    fn record(_class: OpClass, _n: u64) {}

    #[inline(always)]
    fn record_all(_counts: &OpCounts) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma32_matches_contract() {
        let acc = NV64([10u64; 8]);
        let a = NV64([(1u64 << 35) | 3; 8]); // low 32 bits = 3
        let b = NV64([4u64; 8]);
        assert_eq!(acc.fma32(a, b).0, [22u64; 8]);
        // Full 32×32 products wrap into the 64-bit accumulator.
        let max = NV64([u32::MAX as u64; 8]);
        let want = (u32::MAX as u64) * (u32::MAX as u64);
        assert_eq!(NV64::zero().fma32(max, max).0, [want; 8]);
    }

    #[test]
    fn native_vector_ops_match_lane_semantics() {
        let a = NV64([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.shift_lanes_down(99).0, [2, 3, 4, 5, 6, 7, 8, 99]);
        assert_eq!(a.with_lane(0, 42).lane(0), 42);
        assert_eq!(NV64::splat(u64::MAX).add(NV64::splat(1)), NV64::zero());
        assert_eq!(a.shl(1).shr(1), a);
        let m = NMask8(0b0000_1111);
        let blended = NV64::splat(1).blend(m, NV64::splat(2));
        assert_eq!(blended.0, [2, 2, 2, 2, 1, 1, 1, 1]);
        let v32 = NV32::from_lanes(std::array::from_fn(|i| i as u32));
        assert_eq!(v32.widen_lo().0, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(v32.widen_hi().0, [8, 9, 10, 11, 12, 13, 14, 15]);
    }
}
