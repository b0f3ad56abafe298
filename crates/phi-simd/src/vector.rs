//! 512-bit vector register models.
//!
//! [`U32x16`] models a `zmm` register holding sixteen 32-bit lanes (KNC's
//! native integer shape); [`U64x8`] models the eight-lane 64-bit view used
//! for product accumulation. Lane arithmetic is wrapping, like the
//! hardware. Every method that corresponds to one issued IMCI instruction
//! records exactly one operation in its class; pure register plumbing
//! (constructors from arrays, lane reads in scalar code) is free.
//!
//! The widening multiply-accumulate [`U64x8::fma32`] is the workhorse: it
//! models the `vpmadd`-family 32×32→64 multiply-add that PhiOpenSSL's
//! reduced-radix kernels are built from.

#![allow(clippy::should_implement_trait)] // methods mirror IMCI mnemonics (add/sub/shl/shr)
#![allow(clippy::needless_range_loop)] // explicit lane indices read as lane semantics

use crate::count::{record, OpClass};
use crate::mask::{Mask16, Mask8};

/// Sixteen 32-bit lanes of a 512-bit register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct U32x16(pub [u32; 16]);

/// Eight 64-bit lanes of a 512-bit register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct U64x8(pub [u64; 8]);

impl U32x16 {
    /// All lanes zero (register clear; free).
    #[inline]
    pub fn zero() -> Self {
        U32x16([0; 16])
    }

    /// Construct from a lane array (free register plumbing; see
    /// [`U64x8::from_lanes`] for the folded-operand convention).
    #[inline]
    pub fn from_lanes(lanes: [u32; 16]) -> Self {
        U32x16(lanes)
    }

    /// The lane array (free).
    #[inline]
    pub fn to_lanes(self) -> [u32; 16] {
        self.0
    }

    /// Broadcast one value to all lanes (`vpbroadcastd`).
    #[inline]
    pub fn splat(v: u32) -> Self {
        record(OpClass::VPerm, 1);
        U32x16([v; 16])
    }

    /// Load 16 lanes from a slice (`vmovdqa32`). Shorter slices are
    /// zero-padded (modeling a masked load).
    #[inline]
    pub fn load(src: &[u32]) -> Self {
        record(OpClass::VMem, 1);
        let mut lanes = [0u32; 16];
        let n = src.len().min(16);
        lanes[..n].copy_from_slice(&src[..n]);
        U32x16(lanes)
    }

    /// Store all 16 lanes to a slice prefix (`vmovdqa32`).
    #[inline]
    pub fn store(self, dst: &mut [u32]) {
        record(OpClass::VMem, 1);
        let n = dst.len().min(16);
        dst[..n].copy_from_slice(&self.0[..n]);
    }

    /// Read one lane (scalar extract; free in the model — the kernels only
    /// do this outside counted hot loops).
    #[inline]
    pub fn lane(self, i: usize) -> u32 {
        self.0[i]
    }

    /// Lane-wise wrapping addition (`vpaddd`).
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i].wrapping_add(rhs.0[i]);
        }
        U32x16(out)
    }

    /// Lane-wise wrapping subtraction (`vpsubd`).
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i].wrapping_sub(rhs.0[i]);
        }
        U32x16(out)
    }

    /// Lane-wise low 32 bits of the product (`vpmulld`).
    #[inline]
    pub fn mul_lo(self, rhs: Self) -> Self {
        record(OpClass::VMul, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i].wrapping_mul(rhs.0[i]);
        }
        U32x16(out)
    }

    /// Lane-wise AND (`vpandd`).
    #[inline]
    pub fn and(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i] & rhs.0[i];
        }
        U32x16(out)
    }

    /// Lane-wise OR (`vpord`).
    #[inline]
    pub fn or(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i] | rhs.0[i];
        }
        U32x16(out)
    }

    /// Lane-wise XOR (`vpxord`).
    #[inline]
    pub fn xor(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i] ^ rhs.0[i];
        }
        U32x16(out)
    }

    /// Lane-wise logical right shift by an immediate (`vpsrld`).
    #[inline]
    pub fn shr(self, n: u32) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i] >> n;
        }
        U32x16(out)
    }

    /// Lane-wise left shift by an immediate (`vpslld`).
    #[inline]
    pub fn shl(self, n: u32) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[i] << n;
        }
        U32x16(out)
    }

    /// Masked blend: lane i of the result is `other` where the mask is set,
    /// else `self` (a masked `vmovdqa32`).
    #[inline]
    pub fn blend(self, mask: Mask16, other: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = self.0;
        for i in 0..16 {
            if mask.lane(i) {
                out[i] = other.0[i];
            }
        }
        U32x16(out)
    }

    /// Full lane permute by index vector (`vpermd`); indices are taken
    /// modulo 16 like the hardware.
    #[inline]
    pub fn permute(self, idx: [u8; 16]) -> Self {
        record(OpClass::VPerm, 1);
        let mut out = [0u32; 16];
        for i in 0..16 {
            out[i] = self.0[(idx[i] & 0xF) as usize];
        }
        U32x16(out)
    }

    /// Lane-wise equality compare into a mask (`vpcmpeqd`).
    #[inline]
    pub fn cmp_eq(self, rhs: Self) -> Mask16 {
        // from_fn records the VMask op.
        Mask16::from_fn(|i| self.0[i] == rhs.0[i])
    }

    /// Lane-wise unsigned less-than compare (`vpcmpltud`).
    #[inline]
    pub fn cmp_lt(self, rhs: Self) -> Mask16 {
        Mask16::from_fn(|i| self.0[i] < rhs.0[i])
    }

    /// Zero-extend the low eight lanes to 64 bits (`vpmovzxdq`-shaped
    /// swizzle).
    #[inline]
    pub fn widen_lo(self) -> U64x8 {
        record(OpClass::VPerm, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] as u64;
        }
        U64x8(out)
    }

    /// Zero-extend the high eight lanes to 64 bits.
    #[inline]
    pub fn widen_hi(self) -> U64x8 {
        record(OpClass::VPerm, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i + 8] as u64;
        }
        U64x8(out)
    }
}

impl U64x8 {
    /// All lanes zero (free).
    #[inline]
    pub fn zero() -> Self {
        U64x8([0; 8])
    }

    /// Construct from a lane array (free register plumbing).
    ///
    /// Kernels use this when the memory traffic is accounted elsewhere —
    /// KNC folds one memory source operand into arithmetic instructions, so
    /// an operand consumed by [`U64x8::fma32`] does not cost a separate
    /// load. Use [`U64x8::load`] when an explicit load instruction would be
    /// issued (e.g. table gathers).
    #[inline]
    pub fn from_lanes(lanes: [u64; 8]) -> Self {
        U64x8(lanes)
    }

    /// Construct from a slice prefix without charging a load (see
    /// [`U64x8::from_lanes`] for when this is legitimate).
    #[inline]
    pub fn from_slice_folded(src: &[u64]) -> Self {
        let mut lanes = [0u64; 8];
        let n = src.len().min(8);
        lanes[..n].copy_from_slice(&src[..n]);
        U64x8(lanes)
    }

    /// The lane array (free).
    #[inline]
    pub fn to_lanes(self) -> [u64; 8] {
        self.0
    }

    /// Broadcast one value to all lanes (`vpbroadcastq`).
    #[inline]
    pub fn splat(v: u64) -> Self {
        record(OpClass::VPerm, 1);
        U64x8([v; 8])
    }

    /// Load 8 lanes from a slice (zero-padded masked load).
    #[inline]
    pub fn load(src: &[u64]) -> Self {
        record(OpClass::VMem, 1);
        let mut lanes = [0u64; 8];
        let n = src.len().min(8);
        lanes[..n].copy_from_slice(&src[..n]);
        U64x8(lanes)
    }

    /// Store all 8 lanes to a slice prefix.
    #[inline]
    pub fn store(self, dst: &mut [u64]) {
        record(OpClass::VMem, 1);
        let n = dst.len().min(8);
        dst[..n].copy_from_slice(&self.0[..n]);
    }

    /// Read one lane (free).
    #[inline]
    pub fn lane(self, i: usize) -> u64 {
        self.0[i]
    }

    /// Replace one lane (free register plumbing, used at loop edges).
    #[inline]
    pub fn with_lane(mut self, i: usize, v: u64) -> Self {
        self.0[i] = v;
        self
    }

    /// Lane-wise wrapping addition (`vpaddq`).
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_add(rhs.0[i]);
        }
        U64x8(out)
    }

    /// Lane-wise wrapping subtraction (`vpsubq`).
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_sub(rhs.0[i]);
        }
        U64x8(out)
    }

    /// Lane-wise AND (`vpandq`).
    #[inline]
    pub fn and(self, rhs: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] & rhs.0[i];
        }
        U64x8(out)
    }

    /// Lane-wise logical right shift by an immediate (`vpsrlq`).
    #[inline]
    pub fn shr(self, n: u32) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] >> n;
        }
        U64x8(out)
    }

    /// Lane-wise left shift by an immediate (`vpsllq`).
    #[inline]
    pub fn shl(self, n: u32) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] << n;
        }
        U64x8(out)
    }

    /// Widening multiply-accumulate: `self + a * b` lane-wise, where the
    /// products are taken over the **low 32 bits** of each lane of `a` and
    /// `b` (`vpmuludq`/`vpmadd`-shaped). One issued instruction.
    ///
    /// The reduced-radix kernels guarantee the accumulation cannot wrap;
    /// a debug assertion checks that contract.
    #[inline]
    pub fn fma32(self, a: Self, b: Self) -> Self {
        record(OpClass::VMul, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            let p = (a.0[i] & 0xFFFF_FFFF).wrapping_mul(b.0[i] & 0xFFFF_FFFF);
            let (s, overflow) = self.0[i].overflowing_add(p);
            debug_assert!(!overflow, "fma32 accumulator overflow in lane {i}");
            out[i] = s;
        }
        U64x8(out)
    }

    /// Masked blend (lane from `other` where mask set).
    #[inline]
    pub fn blend(self, mask: Mask8, other: Self) -> Self {
        record(OpClass::VAlu, 1);
        let mut out = self.0;
        for i in 0..8 {
            if mask.lane(i) {
                out[i] = other.0[i];
            }
        }
        U64x8(out)
    }

    /// Shift all lanes one position toward lane 0, inserting `fill` in the
    /// top lane (`valignq`-shaped). Used by the Montgomery digit shift.
    #[inline]
    pub fn shift_lanes_down(self, fill: u64) -> Self {
        record(OpClass::VPerm, 1);
        let mut out = [0u64; 8];
        out[..7].copy_from_slice(&self.0[1..]);
        out[7] = fill;
        U64x8(out)
    }

    /// Lane-wise equality compare into a mask.
    #[inline]
    pub fn cmp_eq(self, rhs: Self) -> Mask8 {
        Mask8::from_fn(|i| self.0[i] == rhs.0[i])
    }

    /// Lane-wise unsigned less-than compare.
    #[inline]
    pub fn cmp_lt(self, rhs: Self) -> Mask8 {
        Mask8::from_fn(|i| self.0[i] < rhs.0[i])
    }

    /// Pack the low 32 bits of each lane of `lo` and `hi` into one
    /// [`U32x16`] (`vpmovqd`+insert-shaped swizzle).
    #[inline]
    pub fn pack(lo: Self, hi: Self) -> U32x16 {
        record(OpClass::VPerm, 1);
        let mut out = [0u32; 16];
        for i in 0..8 {
            out[i] = lo.0[i] as u32;
            out[i + 8] = hi.0[i] as u32;
        }
        U32x16(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count;

    fn seq16() -> U32x16 {
        let mut a = [0u32; 16];
        for (i, v) in a.iter_mut().enumerate() {
            *v = i as u32;
        }
        U32x16(a)
    }

    #[test]
    fn splat_and_lane() {
        let v = U32x16::splat(7);
        for i in 0..16 {
            assert_eq!(v.lane(i), 7);
        }
        assert_eq!(U64x8::splat(9).lane(3), 9);
    }

    #[test]
    fn load_pads_with_zero() {
        let v = U32x16::load(&[1, 2, 3]);
        assert_eq!(v.lane(0), 1);
        assert_eq!(v.lane(2), 3);
        assert_eq!(v.lane(3), 0);
        let w = U64x8::load(&[5]);
        assert_eq!(w.lane(0), 5);
        assert_eq!(w.lane(7), 0);
    }

    #[test]
    fn store_partial() {
        let mut buf = [0u32; 5];
        seq16().store(&mut buf);
        assert_eq!(buf, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn lanewise_arith_wraps() {
        let a = U32x16::splat(u32::MAX);
        let b = U32x16::splat(1);
        assert_eq!(a.add(b), U32x16::zero());
        assert_eq!(U32x16::zero().sub(b), a);
        let c = U64x8::splat(u64::MAX).add(U64x8::splat(1));
        assert_eq!(c, U64x8::zero());
    }

    #[test]
    fn mul_lo_truncates() {
        let a = U32x16::splat(0x1_0001);
        let b = U32x16::splat(0x1_0000);
        // 0x10001 * 0x10000 = 0x1_0001_0000 -> low 32 = 0x0001_0000
        assert_eq!(a.mul_lo(b), U32x16::splat(0x0001_0000));
    }

    #[test]
    fn logic_and_shift() {
        let a = U32x16::splat(0b1100);
        let b = U32x16::splat(0b1010);
        assert_eq!(a.and(b), U32x16::splat(0b1000));
        assert_eq!(a.or(b), U32x16::splat(0b1110));
        assert_eq!(a.xor(b), U32x16::splat(0b0110));
        assert_eq!(a.shr(2), U32x16::splat(0b11));
        assert_eq!(a.shl(1), U32x16::splat(0b11000));
    }

    #[test]
    fn blend_uses_mask() {
        let a = U32x16::splat(1);
        let b = U32x16::splat(2);
        let m = Mask16::first(4);
        let c = a.blend(m, b);
        assert_eq!(c.lane(0), 2);
        assert_eq!(c.lane(3), 2);
        assert_eq!(c.lane(4), 1);
    }

    #[test]
    fn permute_reverses() {
        let mut idx = [0u8; 16];
        for (i, v) in idx.iter_mut().enumerate() {
            *v = 15 - i as u8;
        }
        let r = seq16().permute(idx);
        for i in 0..16 {
            assert_eq!(r.lane(i), 15 - i as u32);
        }
    }

    #[test]
    fn permute_indices_wrap_mod_16() {
        let r = seq16().permute([16u8; 16]); // 16 & 0xF == 0
        assert_eq!(r, U32x16::zero());
    }

    #[test]
    fn compares() {
        let a = seq16();
        let b = U32x16::splat(8);
        assert_eq!(a.cmp_lt(b).count(), 8);
        assert_eq!(a.cmp_eq(b).count(), 1);
        let c = U64x8::load(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.cmp_lt(U64x8::splat(4)).count(), 3);
        assert_eq!(c.cmp_eq(U64x8::splat(4)).count(), 1);
    }

    #[test]
    fn widen_halves() {
        let v = seq16();
        let lo = v.widen_lo();
        let hi = v.widen_hi();
        for i in 0..8 {
            assert_eq!(lo.lane(i), i as u64);
            assert_eq!(hi.lane(i), (i + 8) as u64);
        }
    }

    #[test]
    fn pack_inverts_widen() {
        let v = seq16();
        let packed = U64x8::pack(v.widen_lo(), v.widen_hi());
        assert_eq!(packed, v);
    }

    #[test]
    fn fma32_multiplies_low_halves() {
        let acc = U64x8::splat(10);
        let a = U64x8::splat((1 << 35) | 3); // low 32 bits = 3
        let b = U64x8::splat(4);
        let r = acc.fma32(a, b);
        assert_eq!(r, U64x8::splat(22));
    }

    #[test]
    fn fma32_max_28bit_products() {
        // The kernel contract: 28-bit digits, accumulator stays < 2^64.
        let d = (1u64 << 28) - 1;
        let acc = U64x8::splat(u64::MAX - d * d);
        let r = acc.fma32(U64x8::splat(d), U64x8::splat(d));
        assert_eq!(r, U64x8::splat(u64::MAX));
    }

    #[test]
    fn shift_lanes_down_behaviour() {
        let v = U64x8::load(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let s = v.shift_lanes_down(99);
        assert_eq!(s, U64x8::load(&[2, 3, 4, 5, 6, 7, 8, 99]));
    }

    #[test]
    fn instruction_counting_per_op() {
        count::reset();
        let ((), d) = count::measure(|| {
            let a = U32x16::splat(1); // VPerm
            let b = U32x16::load(&[1, 2, 3]); // VMem
            let c = a.add(b); // VAlu
            let _ = c.mul_lo(a); // VMul
            let acc = U64x8::zero(); // free
            let _ = acc.fma32(U64x8::splat(2), U64x8::splat(3)); // 2 VPerm + VMul
        });
        assert_eq!(d.get(OpClass::VPerm), 3);
        assert_eq!(d.get(OpClass::VMem), 1);
        assert_eq!(d.get(OpClass::VAlu), 1);
        assert_eq!(d.get(OpClass::VMul), 2);
    }
}
