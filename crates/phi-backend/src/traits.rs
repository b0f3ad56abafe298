//! The [`VectorBackend`] trait family: the exact lane-operation surface
//! the PhiOpenSSL kernels use, abstracted so the same kernel source runs
//! against the modeled-KNC register model or real host SIMD.
//!
//! The method set mirrors the inherent API of `phi_simd::{U64x8, U32x16,
//! Mask8}` one-for-one, so the generic kernels read identically to the
//! original modeled code. Methods that model one issued IMCI instruction
//! on the modeled backend (splat, load/store, fma32, blend, …) are plain
//! lane arithmetic on the native backend; the "free register plumbing"
//! constructors (`from_lanes`, `from_slice_folded`, `lane`, `with_lane`)
//! are free on both.

use phi_simd::count::{OpClass, OpCounts};
use std::fmt::Debug;

/// An 8-lane write mask (one bit per 64-bit lane), used by the
/// constant-time table gather.
pub trait LaneMask8: Copy + Clone + Debug + Sized {
    /// All lanes enabled.
    fn all() -> Self;
    /// No lanes enabled.
    fn none() -> Self;
    /// Lane `i` enabled?
    fn lane(self, i: usize) -> bool;
}

/// Eight 64-bit lanes of a 512-bit register — the accumulator shape of
/// every PhiOpenSSL kernel.
pub trait Vector64: Copy + Clone + Debug + PartialEq + Sized {
    /// The mask type this vector blends under.
    type Mask: LaneMask8;

    /// All lanes zero (free).
    fn zero() -> Self;
    /// Broadcast one value to all lanes (`vpbroadcastq`).
    fn splat(v: u64) -> Self;
    /// Load 8 lanes from a slice (zero-padded masked load).
    fn load(src: &[u64]) -> Self;
    /// Store all 8 lanes to a slice prefix.
    fn store(self, dst: &mut [u64]);
    /// Construct from a lane array (free register plumbing).
    fn from_lanes(lanes: [u64; 8]) -> Self;
    /// Construct from a slice prefix without charging a load — for
    /// operands that fold into arithmetic instructions KNC-style.
    fn from_slice_folded(src: &[u64]) -> Self;
    /// The lane array (free).
    fn to_lanes(self) -> [u64; 8];
    /// Read one lane (free).
    fn lane(self, i: usize) -> u64;
    /// Replace one lane (free register plumbing, used at loop edges).
    fn with_lane(self, i: usize, v: u64) -> Self;
    /// Lane-wise wrapping addition (`vpaddq`).
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise wrapping subtraction (`vpsubq`).
    fn sub(self, rhs: Self) -> Self;
    /// Lane-wise AND (`vpandq`).
    fn and(self, rhs: Self) -> Self;
    /// Lane-wise logical right shift by an immediate (`vpsrlq`).
    fn shr(self, n: u32) -> Self;
    /// Lane-wise left shift by an immediate (`vpsllq`).
    fn shl(self, n: u32) -> Self;
    /// Widening multiply-accumulate: `self + a·b` lane-wise over the
    /// **low 32 bits** of each lane of `a` and `b` — the `vpmadd`-shaped
    /// workhorse of the reduced-radix kernels.
    fn fma32(self, a: Self, b: Self) -> Self;
    /// Masked blend (lane from `other` where the mask is set).
    fn blend(self, mask: Self::Mask, other: Self) -> Self;
    /// Shift all lanes one position toward lane 0, inserting `fill` in
    /// the top lane (`valignq`-shaped).
    fn shift_lanes_down(self, fill: u64) -> Self;
}

/// Sixteen 32-bit lanes of a 512-bit register — the transposed layout of
/// the 16-way batched kernels.
pub trait Vector32: Copy + Clone + Debug + PartialEq + Sized {
    /// The 64-bit view the halves widen into.
    type Wide: Vector64;

    /// Construct from a lane array (free register plumbing).
    fn from_lanes(lanes: [u32; 16]) -> Self;
    /// The lane array (free).
    fn to_lanes(self) -> [u32; 16];
    /// Read one lane (free).
    fn lane(self, i: usize) -> u32;
    /// Zero-extend the low eight lanes to 64 bits (swizzle).
    fn widen_lo(self) -> Self::Wide;
    /// Zero-extend the high eight lanes to 64 bits.
    fn widen_hi(self) -> Self::Wide;
}

/// One vector execution backend: a coherent set of register types plus
/// the instruction-accounting hook.
///
/// The modeled backend ([`ModeledKnc`](crate::ModeledKnc)) maps these
/// onto the `phi-simd` register model, where every vector method and
/// every [`record`](VectorBackend::record) call increments the
/// thread-local KNC instruction counters. The native backend
/// ([`NativeX86`](crate::NativeX86)) maps them onto host SIMD and makes
/// `record` a no-op, so kernels pay zero accounting overhead at native
/// speed.
pub trait VectorBackend: 'static {
    /// Short stable name, e.g. `"modeled-knc"`.
    const NAME: &'static str;
    /// The 8×64-bit register type.
    type V64: Vector64<Mask = Self::M8>;
    /// The 16×32-bit register type.
    type V32: Vector32<Wide = Self::V64>;
    /// The 8-lane write-mask type.
    type M8: LaneMask8;

    /// Record `n` operations of `class` — scalar glue charges and
    /// explicit memory-traffic charges the kernels account for outside
    /// the vector methods themselves.
    fn record(class: OpClass, n: u64);

    /// Record a whole per-call charge at once — for kernels that run
    /// their body on uncounted lanes and charge a closed form of their
    /// shape instead of counting each instruction.
    fn record_all(counts: &OpCounts);
}
