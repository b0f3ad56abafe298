//! Generated Montgomery kernels: the executable form of a
//! [`KernelParams`] point, and the only 16-lane kernel for ladders that
//! share one modulus.
//!
//! Given a [`KernelParams`], [`GenMontCtx`] builds a Montgomery context
//! in radix `2^r` and runs the 16-lane batched fixed-window ladder with
//! either the classic separated full reduction or the truncated-separated
//! reduction (Didier et al., arXiv 2410.18129), at a parameterized
//! column-loop unroll factor. The paper's lane-per-operation kernel is
//! one point of this space, [`KernelParams::static_defaults`]: radix
//! 2^27, window 5, truncated reduction, unroll 8. [`crate::BatchMont`]
//! and the static [`crate::BatchCrtEngine`] run that point; the tuning
//! table picks others.
//!
//! Two modeling conventions hold at every point:
//!
//! * **Loop control is charged.** Generated code is emitted as
//!   parameterized loops, not straight-line code; every column loop
//!   charges one scalar op per `unroll`-sized block
//!   (`ceil(iters/unroll)` [`OpClass::SAlu`]), which is exactly the
//!   trade `phi-tune` searches.
//! * **Batched domain entry/exit.** The ladder enters the Montgomery
//!   domain through one 16-lane multiplication by a broadcast R²
//!   instead of sixteen single-lane conversions, and exits the same way.
//!
//! Every admissible parameter point is **bit-identical** to the scalar
//! oracle; the `kernel-params` conformance family and the tests below
//! prove it across adversarial moduli, and the column-sum bound
//! justifying each radix is enforced by [`KernelParams::validate`]
//! before a kernel ever runs.

#![allow(clippy::needless_range_loop)] // explicit column indices read as kernel semantics

use crate::batch::BATCH_WIDTH;
use crate::library::MontVariant;
use crate::params::{KernelParams, ParamError};
use crate::vmont::VMontCtx;
use phi_backend::{with_backend, ResolvedBackend, Vector64, VectorBackend};
use phi_bigint::{BigIntError, BigUint};
use phi_mont::MontEngine;
use phi_simd::count::{record, OpClass};
use std::fmt;

/// A 16-lane column as two 8-lane u64 halves (lanes 0..8 and 8..16).
type Pair<B> = (<B as VectorBackend>::V64, <B as VectorBackend>::V64);

/// Why a generated context could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenMontError {
    /// The modulus was rejected (even or zero).
    Modulus(BigIntError),
    /// The parameter point was rejected for this modulus size.
    Params(ParamError),
}

impl fmt::Display for GenMontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenMontError::Modulus(e) => write!(f, "generated kernel modulus rejected: {e:?}"),
            GenMontError::Params(e) => write!(f, "generated kernel parameters rejected: {e}"),
        }
    }
}

impl std::error::Error for GenMontError {}

impl From<ParamError> for GenMontError {
    fn from(e: ParamError) -> Self {
        GenMontError::Params(e)
    }
}

/// Sixteen same-shaped values in radix-`2^r` digit-major layout:
/// `cols[d][j]` holds digit `d` of lane `j`, carried as `u64` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenBatch {
    cols: Vec<[u64; BATCH_WIDTH]>,
}

impl GenBatch {
    /// Digit slots per lane.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True if the batch has no digit slots.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// A generated Montgomery context: one odd modulus, one
/// [`KernelParams`] point, one backend.
#[derive(Debug, Clone)]
pub struct GenMontCtx {
    n: BigUint,
    params: KernelParams,
    /// Significant digit count at this radix.
    k: usize,
    /// Bits per digit (cached copy of `params.radix_bits`).
    r: u32,
    /// Mask of one digit.
    mask: u64,
    n_digits: Vec<u64>,
    /// `N' = -n⁻¹ mod R`, full width.
    nprime_digits: Vec<u64>,
    /// `R² mod n` — the batched domain-entry multiplier.
    rr_digits: Vec<u64>,
    /// `R mod n` — the Montgomery representation of 1.
    one_mont_digits: Vec<u64>,
    backend: ResolvedBackend,
}

impl GenMontCtx {
    /// Build a context for the odd modulus `n` at the given parameter
    /// point. Rejects parameters the modulus size cannot run (the
    /// column-sum admissibility bound) before any kernel executes.
    pub fn new(
        n: &BigUint,
        params: KernelParams,
        backend: ResolvedBackend,
    ) -> Result<Self, GenMontError> {
        params.validate(n.bit_length())?;
        if n.is_zero() || n.is_even() {
            return Err(GenMontError::Modulus(BigIntError::EvenModulus));
        }
        let _span = phi_trace::span(phi_trace::Scope::CtxSetup);
        phi_simd::count::record_ctx_setup();
        let r = params.radix_bits;
        let k = n.bit_length().div_ceil(r) as usize;
        let r_bits = k as u32 * r;
        let big_r = BigUint::power_of_two(r_bits);
        let nprime = &big_r - &n.inverse_mod_pow2(r_bits);
        let rr = &BigUint::power_of_two(2 * r_bits) % n;
        let one_mont = &big_r % n;
        let mask = (1u64 << r) - 1;
        Ok(GenMontCtx {
            n_digits: decompose(n, r, k),
            nprime_digits: decompose(&nprime, r, k),
            rr_digits: decompose(&rr, r, k),
            one_mont_digits: decompose(&one_mont, r, k),
            n: n.clone(),
            params,
            k,
            r,
            mask,
            backend,
        })
    }

    /// A radix-2^27 context over a [`VMontCtx`]'s modulus, reusing its
    /// precomputed `n`, `N'` and `R²` (both use `R = 2^(27k)`). Records
    /// no modeled ops and no context setup, so wrapping a context for
    /// batched use is free. Unlike [`new`](Self::new) it accepts
    /// single-digit moduli, where the truncated variant runs the classic
    /// reduction.
    pub(crate) fn from_vmont(ctx: &VMontCtx, params: KernelParams) -> Self {
        debug_assert_eq!(params.radix_bits, crate::radix::DIGIT_BITS);
        debug_assert_ne!(params.variant, MontVariant::Auto);
        let k = ctx.digits();
        let r = params.radix_bits;
        let one_mont = &BigUint::power_of_two(k as u32 * r) % ctx.modulus();
        GenMontCtx {
            n: ctx.modulus().clone(),
            params,
            k,
            r,
            mask: (1u64 << r) - 1,
            n_digits: ctx.n_digits()[..k].to_vec(),
            nprime_digits: ctx.nprime_digits()[..k].to_vec(),
            rr_digits: ctx.rr_vec().digits()[..k].to_vec(),
            one_mont_digits: slice_digits(&one_mont, r, k),
            backend: ctx.backend(),
        }
    }

    /// The parameter point this context executes.
    pub fn params(&self) -> &KernelParams {
        &self.params
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Significant digits of the modulus at this radix.
    pub fn digits(&self) -> usize {
        self.k
    }

    /// The backend this context's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.backend
    }

    /// Loop-control charge for one generated loop of `iters` iterations:
    /// one scalar test-and-branch per `unroll`-sized block.
    fn ctl<B: VectorBackend>(&self, iters: usize) {
        B::record(
            OpClass::SAlu,
            (iters as u64).div_ceil(self.params.unroll as u64),
        );
    }

    /// Transpose sixteen residues (reduced mod `n` if needed) into the
    /// digit-major batch layout. Charged as the in-register 16×16
    /// transpose network (~4 swizzles per produced column) plus the
    /// host-side digit slicing.
    pub fn to_batch(&self, values: &[BigUint]) -> GenBatch {
        assert_eq!(values.len(), BATCH_WIDTH, "need exactly 16 values");
        with_backend!(self.backend, B => self.to_batch_impl::<B>(values))
    }

    fn to_batch_impl<B: VectorBackend>(&self, values: &[BigUint]) -> GenBatch {
        let digit_vecs: Vec<Vec<u64>> = values
            .iter()
            .map(|v| {
                let reduced = if v < &self.n { v.clone() } else { v % &self.n };
                decompose(&reduced, self.r, self.k)
            })
            .collect();
        let mut cols = Vec::with_capacity(self.k);
        for d in 0..self.k {
            let mut lanes = [0u64; BATCH_WIDTH];
            for (j, dv) in digit_vecs.iter().enumerate() {
                lanes[j] = dv[d];
            }
            B::record(OpClass::VPerm, 4);
            cols.push(lanes);
        }
        GenBatch { cols }
    }

    /// Transpose a batch back to sixteen big integers.
    pub fn from_batch(&self, b: &GenBatch) -> Vec<BigUint> {
        with_backend!(self.backend, B => self.unbatch_impl::<B>(b))
    }

    fn unbatch_impl<B: VectorBackend>(&self, b: &GenBatch) -> Vec<BigUint> {
        debug_assert_eq!(b.len(), self.k);
        let mut lanes_digits = vec![vec![0u64; self.k]; BATCH_WIDTH];
        for (d, col) in b.cols.iter().enumerate() {
            B::record(OpClass::VPerm, 4);
            for j in 0..BATCH_WIDTH {
                lanes_digits[j][d] = col[j];
            }
        }
        lanes_digits
            .iter()
            .map(|dv| recompose(dv, self.r))
            .collect()
    }

    /// Broadcast one digit vector to all sixteen lanes (one `vpbroadcast`
    /// per column — the generated ladder's R²/one-batch constructor).
    fn splat_batch<B: VectorBackend>(&self, digits: &[u64]) -> GenBatch {
        debug_assert_eq!(digits.len(), self.k);
        let cols = digits
            .iter()
            .map(|&d| {
                B::record(OpClass::VPerm, 1);
                [d; BATCH_WIDTH]
            })
            .collect();
        GenBatch { cols }
    }

    /// Enter the Montgomery domain batched: one 16-lane multiplication of
    /// the raw residues by the broadcast R².
    pub fn enter_mont_16(&self, values: &[BigUint]) -> GenBatch {
        assert_eq!(values.len(), BATCH_WIDTH, "need exactly 16 values");
        with_backend!(self.backend, B => self.enter_mont_impl::<B>(values))
    }

    fn enter_mont_impl<B: VectorBackend>(&self, values: &[BigUint]) -> GenBatch {
        let raw = self.to_batch_impl::<B>(values);
        let rr_b = self.splat_batch::<B>(&self.rr_digits);
        self.mont_mul_16_generic::<B>(&raw, &rr_b)
    }

    /// Sixteen Montgomery products at once (operands in batch layout,
    /// values `< n`).
    pub fn mont_mul_16(&self, a: &GenBatch, b: &GenBatch) -> GenBatch {
        with_backend!(self.backend, B => self.mont_mul_16_generic::<B>(a, b))
    }

    /// Sixteen Montgomery squarings, halving the product triangle.
    pub fn mont_sqr_16(&self, a: &GenBatch) -> GenBatch {
        with_backend!(self.backend, B => self.mont_sqr_16_generic::<B>(a))
    }

    fn mont_mul_16_generic<B: VectorBackend>(&self, a: &GenBatch, b: &GenBatch) -> GenBatch {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        debug_assert_eq!(a.len(), self.k);
        debug_assert_eq!(b.len(), self.k);
        let aw = widen::<B>(a);
        let bw = widen::<B>(b);
        let traw = self.raw_product::<B>(&aw, &bw);
        self.reduce::<B>(&traw)
    }

    fn mont_sqr_16_generic<B: VectorBackend>(&self, a: &GenBatch) -> GenBatch {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        debug_assert_eq!(a.len(), self.k);
        let aw = widen::<B>(a);
        let traw = self.raw_square::<B>(&aw);
        self.reduce::<B>(&traw)
    }

    /// Comba column scan of the raw product `T = a·b`: `2k-1` raw
    /// columns, each accumulated in registers and stored once. The
    /// admissibility bound keeps every column sum below `2^63`.
    fn raw_product<B: VectorBackend>(&self, aw: &[Pair<B>], bw: &[Pair<B>]) -> Vec<Pair<B>> {
        let k = self.k;
        let mut cols = Vec::with_capacity(2 * k - 1);
        self.ctl::<B>(2 * k - 1);
        for c in 0..(2 * k - 1) {
            let mut lo = B::V64::zero();
            let mut hi = B::V64::zero();
            let first = (c + 1).saturating_sub(k);
            let last = c.min(k - 1);
            self.ctl::<B>(last + 1 - first);
            for i in first..=last {
                let j = c - i;
                lo = lo.fma32(aw[i].0, bw[j].0);
                hi = hi.fma32(aw[i].1, bw[j].1);
            }
            B::record(OpClass::VMem, 2);
            cols.push((lo, hi));
        }
        cols
    }

    /// Comba column scan of the raw square `T = a²` using the `2·aᵢ·aⱼ`
    /// symmetry. The doubled digits need `r + 1 ≤ 32` bits, guaranteed by
    /// the radix range cap.
    fn raw_square<B: VectorBackend>(&self, aw: &[Pair<B>]) -> Vec<Pair<B>> {
        let k = self.k;
        let a2: Vec<Pair<B>> = aw.iter().map(|p| (p.0.add(p.0), p.1.add(p.1))).collect();
        let mut cols = Vec::with_capacity(2 * k - 1);
        self.ctl::<B>(k); // doubling pass
        self.ctl::<B>(2 * k - 1);
        for c in 0..(2 * k - 1) {
            let mut lo = B::V64::zero();
            let mut hi = B::V64::zero();
            let first = (c + 1).saturating_sub(k);
            let last = c.div_ceil(2);
            self.ctl::<B>(last - first);
            for i in first..last {
                let j = c - i;
                lo = lo.fma32(a2[i].0, aw[j].0);
                hi = hi.fma32(a2[i].1, aw[j].1);
            }
            if c % 2 == 0 {
                let i = c / 2;
                lo = lo.fma32(aw[i].0, aw[i].0);
                hi = hi.fma32(aw[i].1, aw[i].1);
            }
            B::record(OpClass::VMem, 2);
            cols.push((lo, hi));
        }
        cols
    }

    /// Carry-normalize raw column sums into `out_len` `r`-bit digit
    /// pairs, returning the digits and the final carry pair.
    fn normalize<B: VectorBackend>(
        &self,
        cols: &[Pair<B>],
        out_len: usize,
        maskv: B::V64,
    ) -> (Vec<Pair<B>>, Pair<B>) {
        let mut out = Vec::with_capacity(out_len);
        let mut carry = (B::V64::zero(), B::V64::zero());
        self.ctl::<B>(out_len);
        for idx in 0..out_len {
            let (rlo, rhi) = if idx < cols.len() {
                cols[idx]
            } else {
                (B::V64::zero(), B::V64::zero())
            };
            let vlo = rlo.add(carry.0);
            let vhi = rhi.add(carry.1);
            out.push((vlo.and(maskv), vhi.and(maskv)));
            carry = (vlo.shr(self.r), vhi.shr(self.r));
            B::record(OpClass::VMem, 2);
        }
        (out, carry)
    }

    /// `m = (T_lo · N') mod R`: the low product triangle of the
    /// normalized digits of `T` against the full-width `N'`, shared by
    /// both reduction variants.
    fn m_digits<B: VectorBackend>(&self, t: &[Pair<B>], maskv: B::V64) -> Vec<Pair<B>> {
        let k = self.k;
        let np: Vec<B::V64> = self
            .nprime_digits
            .iter()
            .map(|&d| B::V64::splat(d))
            .collect();
        let mut mraw = Vec::with_capacity(k);
        self.ctl::<B>(k);
        for c in 0..k {
            let mut lo = B::V64::zero();
            let mut hi = B::V64::zero();
            self.ctl::<B>(c + 1);
            for i in 0..=c {
                lo = lo.fma32(t[i].0, np[c - i]);
                hi = hi.fma32(t[i].1, np[c - i]);
            }
            B::record(OpClass::VMem, 2);
            mraw.push((lo, hi));
        }
        let (m, _dropped) = self.normalize::<B>(&mraw, k, maskv);
        m
    }

    /// Dispatch on the reduction variant. A single-digit modulus has no
    /// boundary column `s_{k-2}`, so the truncated variant runs the
    /// classic reduction there.
    fn reduce<B: VectorBackend>(&self, traw: &[Pair<B>]) -> GenBatch {
        match self.params.variant {
            MontVariant::Truncated if self.k >= 2 => self.reduce_truncated::<B>(traw),
            MontVariant::Truncated | MontVariant::Classic => self.reduce_classic::<B>(traw),
            MontVariant::Auto => unreachable!("validate() rejects Auto"),
        }
    }

    /// Truncated separated reduction of the `2k-1` raw comba columns of
    /// `T`:
    ///
    /// 1. normalize `T` and form `m = (T mod R)·N' mod R` from the low
    ///    product triangle only;
    /// 2. form only the **high** anti-triangle of `m·n` plus the two
    ///    boundary columns `s_{k-2}, s_{k-1}` — the low columns are never
    ///    formed;
    /// 3. recover the elided low part exactly: with
    ///    `D̂ = T_lo + s_{k-2}β^{k-2} + s_{k-1}β^{k-1}`, the elided
    ///    remainder is below `(k-1)β^{k-1} < R` (for `k - 1 < β = 2^r`,
    ///    true at every admissible point), and `D = D̂ + E` is divisible
    ///    by `R`, so `D/R = floor(D̂/R) + [D̂ mod R ≠ 0]`.
    ///
    /// `U = T_hi + S_hi + D/R = (T + m·n)/R < 2n`; the shared conditional
    /// subtraction makes it bit-identical to the classic reduction.
    fn reduce_truncated<B: VectorBackend>(&self, traw: &[Pair<B>]) -> GenBatch {
        let k = self.k;
        let kk = k + 1;
        let r = self.r;
        let maskv = B::V64::splat(self.mask);

        let (t, t_carry) = self.normalize::<B>(traw, 2 * k, maskv);
        assert_zero_pair::<B>(&t_carry, "carry out of T normalization");

        let m = self.m_digits::<B>(&t, maskv);

        // Boundary columns s_{k-2}, s_{k-1} of m·n and the correction
        // C = floor(D̂/R) + [D̂ mod R ≠ 0], fully lane-parallel.
        let ns: Vec<B::V64> = self.n_digits.iter().map(|&d| B::V64::splat(d)).collect();
        let s_km2 = self.boundary_column::<B>(&m, &ns, k - 2);
        let s_km1 = self.boundary_column::<B>(&m, &ns, k - 1);
        let biasv = B::V64::splat((1u64 << 63) - 1);
        let corr = {
            let mut halves = [B::V64::zero(); 2];
            let x = [t[k - 2].0.add(s_km2.0), t[k - 2].1.add(s_km2.1)];
            let y = [t[k - 1].0.add(s_km1.0), t[k - 1].1.add(s_km1.1)];
            for h in 0..2 {
                let x0 = x[h].and(maskv);
                let z = y[h].add(x[h].shr(r));
                let mut w = x0.add(z.and(maskv));
                self.ctl::<B>(k.saturating_sub(2));
                for c in 0..k.saturating_sub(2) {
                    w = w.add(if h == 0 { t[c].0 } else { t[c].1 });
                }
                let flag = w.add(biasv).shr(63);
                halves[h] = z.shr(r).add(flag);
            }
            (halves[0], halves[1])
        };

        // U = T_hi + S_hi + C: seed with the high digits of T and the
        // correction, then add the anti-triangle rows of m·n (i + j ≥ k).
        let mut ucols: Vec<Pair<B>> = (0..kk)
            .map(|c| {
                if c < k {
                    t[k + c]
                } else {
                    (B::V64::zero(), B::V64::zero())
                }
            })
            .collect();
        ucols[0] = (ucols[0].0.add(corr.0), ucols[0].1.add(corr.1));
        self.ctl::<B>(k.saturating_sub(1));
        for c in k..(2 * k - 1) {
            let (mut lo, mut hi) = ucols[c - k];
            self.ctl::<B>(k - (c + 1 - k));
            for i in (c + 1 - k)..k {
                let j = c - i;
                lo = lo.fma32(m[i].0, ns[j]);
                hi = hi.fma32(m[i].1, ns[j]);
            }
            B::record(OpClass::VMem, 2);
            ucols[c - k] = (lo, hi);
        }

        let (ud, u_carry) = self.normalize::<B>(&ucols, kk, maskv);
        assert_zero_pair::<B>(&u_carry, "carry out of U normalization");
        self.cond_sub_pack::<B>(&ud)
    }

    /// Classic *separated* reduction: the full product `S = m·n` (every
    /// column, no truncation), then `U = (T + S) / R` — the division is
    /// exact, so the low `k` columns of the normalized sum are zero and
    /// `U` is simply the high digits. Costs ~`k²/2` more lane products
    /// than the truncated form; it is `MontVariant::Classic`'s kernel and
    /// the only reduction a single-digit modulus can run.
    fn reduce_classic<B: VectorBackend>(&self, traw: &[Pair<B>]) -> GenBatch {
        let k = self.k;
        let maskv = B::V64::splat(self.mask);

        let (t, t_carry) = self.normalize::<B>(traw, 2 * k, maskv);
        assert_zero_pair::<B>(&t_carry, "carry out of T normalization");

        let m = self.m_digits::<B>(&t, maskv);

        // Full comba scan of S = m·n, summed column-wise with the digits
        // of T. Column sums stay below 2(k+1)·2^(2r) < 2^64 under the
        // admissibility bound.
        let ns: Vec<B::V64> = self.n_digits.iter().map(|&d| B::V64::splat(d)).collect();
        let mut ucols = Vec::with_capacity(2 * k);
        self.ctl::<B>(2 * k - 1);
        for c in 0..(2 * k - 1) {
            let mut lo = t[c].0;
            let mut hi = t[c].1;
            let first = (c + 1).saturating_sub(k);
            let last = c.min(k - 1);
            self.ctl::<B>(last + 1 - first);
            for i in first..=last {
                let j = c - i;
                lo = lo.fma32(m[i].0, ns[j]);
                hi = hi.fma32(m[i].1, ns[j]);
            }
            B::record(OpClass::VMem, 2);
            ucols.push((lo, hi));
        }
        ucols.push(t[2 * k - 1]);

        // T + m·n is divisible by R: normalize over 2k+1 digits, check
        // the low k digits vanish, and keep the high k+1 as U < 2n.
        let (full, f_carry) = self.normalize::<B>(&ucols, 2 * k + 1, maskv);
        assert_zero_pair::<B>(&f_carry, "carry out of T+S normalization");
        for low in &full[..k] {
            assert_zero_pair::<B>(low, "low digits of the exact division");
        }
        self.cond_sub_pack::<B>(&full[k..])
    }

    /// Exact raw column sum `s_c` of `m·n` for one boundary column.
    fn boundary_column<B: VectorBackend>(&self, m: &[Pair<B>], ns: &[B::V64], c: usize) -> Pair<B> {
        let mut lo = B::V64::zero();
        let mut hi = B::V64::zero();
        self.ctl::<B>(c + 1);
        for i in 0..=c {
            lo = lo.fma32(m[i].0, ns[c - i]);
            hi = hi.fma32(m[i].1, ns[c - i]);
        }
        (lo, hi)
    }

    /// Lane-parallel conditional subtraction of `n` from the `k+1`
    /// normalized digits `ud` (value `< 2n`), packed back into the
    /// `k`-column batch layout. Shared epilogue of both reductions.
    fn cond_sub_pack<B: VectorBackend>(&self, ud: &[Pair<B>]) -> GenBatch {
        let k = self.k;
        let kk = k + 1;
        debug_assert_eq!(ud.len(), kk);
        let maskv = B::V64::splat(self.mask);
        let nall: Vec<B::V64> = self
            .n_digits
            .iter()
            .map(|&d| B::V64::splat(d))
            .chain(std::iter::once(B::V64::zero()))
            .collect();
        let mut diff = Vec::with_capacity(kk);
        let mut borrow = (B::V64::zero(), B::V64::zero());
        self.ctl::<B>(kk);
        for c in 0..kk {
            let vlo = ud[c].0.sub(nall[c]).sub(borrow.0);
            let vhi = ud[c].1.sub(nall[c]).sub(borrow.1);
            borrow = (vlo.shr(63), vhi.shr(63));
            diff.push((vlo.and(maskv), vhi.and(maskv)));
            B::record(OpClass::VMem, 2);
        }
        let keep = (B::V64::zero().sub(borrow.0), B::V64::zero().sub(borrow.1));

        let mut cols = Vec::with_capacity(k);
        self.ctl::<B>(kk);
        for c in 0..kk {
            let lo = diff[c].0.add(ud[c].0.sub(diff[c].0).and(keep.0));
            let hi = diff[c].1.add(ud[c].1.sub(diff[c].1).and(keep.1));
            if c == k {
                // The result is < n < β^k: the top digit must be zero.
                assert_zero_pair::<B>(&(lo, hi), "top digit of the reduced result");
                continue;
            }
            let llo = lo.to_lanes();
            let lhi = hi.to_lanes();
            let mut lanes = [0u64; BATCH_WIDTH];
            for j in 0..8 {
                debug_assert!(llo[j] <= self.mask && lhi[j] <= self.mask);
                lanes[j] = llo[j];
                lanes[8 + j] = lhi[j];
            }
            B::record(OpClass::VPerm, 2);
            cols.push(lanes);
        }
        GenBatch { cols }
    }

    /// Sixteen exponentiations `base[j]^exp mod n` with one shared
    /// exponent through the generated fixed-window ladder, at this
    /// context's window width. Bit-identical to the scalar oracle.
    pub fn mod_exp_16(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        self.mod_exp_16_window(bases, exp, self.params.window)
    }

    /// [`mod_exp_16`](Self::mod_exp_16) at an explicit window width.
    pub(crate) fn mod_exp_16_window(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        window: u32,
    ) -> Vec<BigUint> {
        assert_eq!(bases.len(), BATCH_WIDTH);
        assert!((1..=7).contains(&window));
        with_backend!(self.backend, B => self.mod_exp_16_generic::<B>(bases, exp, window))
    }

    fn mod_exp_16_generic<B: VectorBackend>(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        window: u32,
    ) -> Vec<BigUint> {
        let _span = phi_trace::span(phi_trace::Scope::BatchExp);
        if self.n.is_one() {
            return vec![BigUint::zero(); BATCH_WIDTH];
        }
        if exp.is_zero() {
            return vec![BigUint::one(); BATCH_WIDTH];
        }

        let base_m = self.enter_mont_impl::<B>(bases);

        // table[v] = batch of base^v in the Montgomery domain.
        let one_b = self.splat_batch::<B>(&self.one_mont_digits);
        let table_len = 1usize << window;
        let mut table = Vec::with_capacity(table_len);
        table.push(one_b);
        for v in 1..table_len {
            let prev: &GenBatch = &table[v - 1];
            table.push(self.mont_mul_16_generic::<B>(prev, &base_m));
        }

        let bits = exp.bit_length();
        let windows = bits.div_ceil(window);
        let mut acc = table[0].clone();
        for win in (0..windows).rev() {
            for _ in 0..window {
                acc = self.mont_sqr_16_generic::<B>(&acc);
            }
            let lo = win * window;
            let width = window.min(bits - lo);
            let val = exp.extract_bits(lo, width) as usize;
            B::record(OpClass::SAlu, 4);
            B::record(OpClass::VMem, 2 * ((self.k + 1) as u64).div_ceil(8));
            acc = self.mont_mul_16_generic::<B>(&acc, &table[val]);
        }

        // Batched domain exit: one 16-lane multiply by the broadcast 1.
        let mut one_digits = vec![0u64; self.k];
        one_digits[0] = 1;
        let one_raw = self.splat_batch::<B>(&one_digits);
        let out = self.mont_mul_16_generic::<B>(&acc, &one_raw);
        self.unbatch_impl::<B>(&out)
    }

    /// Sixteen power-equality checks at once: `out[j] = (base[j]^exp ≡
    /// expected[j] (mod n))`, with one shared exponent.
    ///
    /// This is the release check of the verified offload path (DESIGN.md
    /// §3.14): `m^e ≡ c (mod n)` over a whole flush in one batched
    /// ladder. Three things keep it cheaper than
    /// [`mod_exp_16`](Self::mod_exp_16):
    ///
    /// * plain square-and-multiply over the exponent's actual bits — for
    ///   a sparse public exponent like 65537 that is 16 squarings plus
    ///   one multiplication, where a fixed-window ladder would multiply
    ///   on every window;
    /// * batched domain entry: `base` and `expected` each enter the
    ///   Montgomery domain through one 16-lane multiplication by R²;
    /// * the comparison happens *in* the Montgomery domain (x ↦ x·R is
    ///   injective mod n), digit column by digit column, so there is no
    ///   domain exit at all.
    ///
    /// Both sides are reduced mod `n` on entry, so a caller that must
    /// reject unreduced values checks them itself. Lanes padded with
    /// `base = expected = 0` compare equal. The caller wraps the call in
    /// whatever trace scope fits (the resilient runtime uses
    /// `Scope::Verify`); no span is opened here.
    pub fn pow_eq_16(&self, bases: &[BigUint], exp: &BigUint, expected: &[BigUint]) -> Vec<bool> {
        assert_eq!(bases.len(), BATCH_WIDTH);
        assert_eq!(expected.len(), BATCH_WIDTH);
        assert!(!exp.is_zero(), "a power check needs a nonzero exponent");
        with_backend!(self.backend, B => self.pow_eq_16_generic::<B>(bases, exp, expected))
    }

    fn pow_eq_16_generic<B: VectorBackend>(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        expected: &[BigUint],
    ) -> Vec<bool> {
        let base_m = self.enter_mont_impl::<B>(bases);
        let mut acc = base_m.clone();
        let bits = exp.bit_length();
        for i in (0..bits - 1).rev() {
            acc = self.mont_sqr_16_generic::<B>(&acc);
            if exp.extract_bits(i, 1) == 1 {
                acc = self.mont_mul_16_generic::<B>(&acc, &base_m);
            }
        }
        let want_m = self.enter_mont_impl::<B>(expected);
        // One lane-wise compare-and-accumulate per digit column.
        let mut equal = [true; BATCH_WIDTH];
        for (got, want) in acc.cols.iter().zip(&want_m.cols) {
            B::record(OpClass::VAlu, 2);
            for j in 0..BATCH_WIDTH {
                equal[j] &= got[j] == want[j];
            }
        }
        equal.to_vec()
    }
}

/// Widen a batch's columns into u64 half-pairs (free register plumbing;
/// the kernels charge their own stores).
fn widen<B: VectorBackend>(b: &GenBatch) -> Vec<Pair<B>> {
    b.cols
        .iter()
        .map(|c| {
            let lo: [u64; 8] = c[..8].try_into().expect("8 lanes");
            let hi: [u64; 8] = c[8..].try_into().expect("8 lanes");
            (B::V64::from_lanes(lo), B::V64::from_lanes(hi))
        })
        .collect()
}

#[cfg(debug_assertions)]
fn assert_zero_pair<B: VectorBackend>(p: &Pair<B>, what: &str) {
    debug_assert!(
        p.0.to_lanes().iter().all(|&x| x == 0) && p.1.to_lanes().iter().all(|&x| x == 0),
        "{what} must be zero"
    );
}

#[cfg(not(debug_assertions))]
fn assert_zero_pair<B: VectorBackend>(_p: &Pair<B>, _what: &str) {}

/// Slice a value into `len` radix-`2^r` digits (host-side entry pass,
/// charged like [`crate::radix::VecNum::from_biguint`]).
fn decompose(a: &BigUint, r: u32, len: usize) -> Vec<u64> {
    record(OpClass::SAlu, 3 * len as u64);
    record(OpClass::SMem, len as u64);
    slice_digits(a, r, len)
}

/// [`decompose`] without the charge, for constants derived outside any
/// kernel.
fn slice_digits(a: &BigUint, r: u32, len: usize) -> Vec<u64> {
    debug_assert!(
        a.bit_length() as usize <= len * r as usize,
        "value of {} bits does not fit in {len} radix-2^{r} digits",
        a.bit_length()
    );
    (0..len).map(|i| a.extract_bits(i as u32 * r, r)).collect()
}

/// Pack radix-`2^r` digits back into a big integer (the symmetric exit
/// pass, generalizing [`crate::radix::VecNum::to_biguint`] over `r`).
fn recompose(digits: &[u64], r: u32) -> BigUint {
    let total_bits = digits.len() * r as usize;
    let limbs = total_bits.div_ceil(64) + 1;
    let mut out = vec![0u64; limbs];
    for (i, &d) in digits.iter().enumerate() {
        debug_assert!(d < (1u64 << r), "digit {i} out of range");
        let bit = i * r as usize;
        let limb = bit / 64;
        let off = (bit % 64) as u32;
        out[limb] |= d << off;
        if off > 64 - r {
            out[limb + 1] |= d >> (64 - off);
        }
    }
    record(OpClass::SAlu, 3 * digits.len() as u64);
    record(OpClass::SMem, digits.len() as u64);
    BigUint::from_limbs(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchMont;
    use crate::vmont::VMontCtx;
    use phi_simd::count;

    fn n256() -> BigUint {
        BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
            .unwrap()
    }

    fn params(radix: u32, variant: MontVariant, unroll: u32, window: u32) -> KernelParams {
        KernelParams {
            radix_bits: radix,
            window,
            variant,
            unroll,
            occupancy: 16,
        }
    }

    fn sixteen(n: &BigUint, seed: u64) -> Vec<BigUint> {
        let mut state = seed;
        (0..BATCH_WIDTH)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                &(&BigUint::from(state) * &BigUint::from(state ^ 0xF00D)) % n
            })
            .collect()
    }

    #[test]
    fn digit_roundtrip_across_radices() {
        let v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef0fedcba987654321").unwrap();
        for r in [26u32, 27, 28, 29, 31] {
            let k = v.bit_length().div_ceil(r) as usize;
            let d = decompose(&v, r, k);
            assert!(d.iter().all(|&x| x < (1u64 << r)), "r = {r}");
            assert_eq!(recompose(&d, r), v, "r = {r}");
        }
    }

    #[test]
    fn generated_exp_matches_oracle_across_the_space() {
        let n = n256();
        let exp = BigUint::from_hex("deadbeefcafebabe").unwrap();
        let bases = sixteen(&n, 7);
        let want: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&exp, &n)).collect();
        for radix in KernelParams::admissible_radices(n.bit_length()) {
            for variant in [MontVariant::Classic, MontVariant::Truncated] {
                for unroll in [1u32, 8] {
                    let p = params(radix, variant, unroll, 5);
                    let ctx =
                        GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
                    assert_eq!(
                        ctx.mod_exp_16(&bases, &exp),
                        want,
                        "radix {radix}, {variant:?}, unroll {unroll}"
                    );
                }
            }
        }
    }

    #[test]
    fn generated_mul_and_sqr_match_the_classic_batch_kernel() {
        // Adversarial dense-top moduli: every high digit saturated.
        for n in [
            n256(),
            &BigUint::power_of_two(512) - &BigUint::from(237u64),
            &BigUint::power_of_two(300) - &BigUint::from(153u64),
        ] {
            let vctx = VMontCtx::new(&n).unwrap();
            let classic = BatchMont::new(&vctx);
            let a = sixteen(&n, 1);
            let b = sixteen(&n, 2);
            let exp = BigUint::from_hex("f00dface").unwrap();
            let want = classic.mod_exp_16(&a, &exp, 4);
            for radix in KernelParams::admissible_radices(n.bit_length()) {
                let p = params(radix, MontVariant::Truncated, 4, 4);
                let ctx = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
                assert_eq!(ctx.mod_exp_16(&a, &exp), want, "radix {radix}");
                // Kernel-level cross-check through the batched entry.
                let am = ctx.enter_mont_16(&a);
                let bm = ctx.enter_mont_16(&b);
                let prod = ctx.from_batch(&ctx.mont_mul_16(&am, &bm));
                let sq = ctx.from_batch(&ctx.mont_sqr_16(&am));
                for j in 0..BATCH_WIDTH {
                    // a·b·R (both entries carry one R) — compare against
                    // the oracle product carried into the domain.
                    let want_p = &(&a[j] * &b[j]) % &n;
                    let want_s = &(&a[j] * &a[j]) % &n;
                    let r_bits = ctx.digits() as u32 * radix;
                    let r_mod = &BigUint::power_of_two(r_bits) % &n;
                    assert_eq!(prod[j], &(&want_p * &r_mod) % &n, "mul lane {j}");
                    assert_eq!(sq[j], &(&want_s * &r_mod) % &n, "sqr lane {j}");
                }
            }
        }
    }

    #[test]
    fn extreme_lanes_hit_the_correction_boundary() {
        let n = &BigUint::power_of_two(256) - &BigUint::from(189u64);
        let exp = BigUint::from_hex("deadbeef").unwrap();
        let vals: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| match j % 4 {
                0 => BigUint::zero(),
                1 => BigUint::one(),
                2 => &n - &BigUint::one(),
                _ => BigUint::from(j as u64 * 0x1234_5678 + 3),
            })
            .collect();
        let want: Vec<BigUint> = vals.iter().map(|b| b.mod_exp(&exp, &n)).collect();
        for variant in [MontVariant::Classic, MontVariant::Truncated] {
            let p = params(29, variant, 2, 3);
            let ctx = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
            assert_eq!(ctx.mod_exp_16(&vals, &exp), want, "{variant:?}");
        }
    }

    #[test]
    fn edge_exponents_and_modulus_one() {
        let n = n256();
        let p = params(28, MontVariant::Truncated, 4, 5);
        let ctx = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
        let bases = sixteen(&n, 9);
        let zeros = ctx.mod_exp_16(&bases, &BigUint::zero());
        assert!(zeros.iter().all(|v| v.is_one()));
        let ones = ctx.mod_exp_16(&bases, &BigUint::one());
        assert_eq!(ones, bases);
    }

    #[test]
    fn rejects_inadmissible_points_and_bad_moduli() {
        let n = n256();
        assert!(matches!(
            GenMontCtx::new(
                &n,
                params(30, MontVariant::Truncated, 1, 5),
                phi_backend::ResolvedBackend::ModeledKnc
            ),
            Err(GenMontError::Params(ParamError::RadixInadmissible { .. }))
        ));
        assert!(matches!(
            GenMontCtx::new(
                &BigUint::power_of_two(256),
                params(27, MontVariant::Truncated, 1, 5),
                phi_backend::ResolvedBackend::ModeledKnc
            ),
            Err(GenMontError::Modulus(BigIntError::EvenModulus))
        ));
        assert!(matches!(
            GenMontCtx::new(
                &BigUint::from(101u64),
                params(27, MontVariant::Truncated, 1, 5),
                phi_backend::ResolvedBackend::ModeledKnc
            ),
            Err(GenMontError::Params(ParamError::ModulusTooSmall(7)))
        ));
        assert!(GenMontError::Params(ParamError::Window(9))
            .to_string()
            .contains("window"));
    }

    #[test]
    fn native_backend_matches_modeled_bit_for_bit() {
        let n = n256();
        let exp = BigUint::from_hex("0123456789abcdef").unwrap();
        let bases = sixteen(&n, 21);
        let p = params(29, MontVariant::Truncated, 8, 5);
        let m = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
        let nat = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::NativeX86).unwrap();
        assert_eq!(m.mod_exp_16(&bases, &exp), nat.mod_exp_16(&bases, &exp));
    }

    #[test]
    fn unroll_reduces_loop_control_cost_monotonically() {
        let n = n256();
        let exp = BigUint::from_hex("ffffffffffffffff").unwrap();
        let bases = sixteen(&n, 3);
        let model = phi_simd::CostModel::knc();
        let mut prev = f64::INFINITY;
        let mut results = None;
        for unroll in crate::params::UNROLL_FACTORS {
            let p = params(29, MontVariant::Truncated, unroll, 5);
            let ctx = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
            count::reset();
            let (got, d) = count::measure(|| ctx.mod_exp_16(&bases, &exp));
            let cycles = model.issue_cycles(&d);
            assert!(
                cycles < prev,
                "unroll {unroll} must cost less than the previous factor"
            );
            prev = cycles;
            if let Some(ref want) = results {
                assert_eq!(&got, want, "unroll changes cost, never bits");
            } else {
                results = Some(got);
            }
        }
    }

    #[test]
    fn wider_radix_beats_the_static_defaults_at_256_bits() {
        // The headline claim the tuner banks on: at a 256-bit modulus
        // (the 512-bit key's CRT half), radix 2^29 needs 9 digits where
        // 2^27 needs 10, so its ladder beats the static point's.
        let n = n256();
        let exp = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let bases = sixteen(&n, 13);
        let vctx = VMontCtx::new(&n).unwrap();
        let static_ladder = BatchMont::with_variant(&vctx, MontVariant::Truncated);
        let p = params(29, MontVariant::Truncated, 8, 5);
        let gctx = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
        count::reset();
        let (ws, ds) = count::measure(|| static_ladder.mod_exp_16(&bases, &exp, 5));
        let (wg, dg) = count::measure(|| gctx.mod_exp_16(&bases, &exp));
        assert_eq!(ws, wg, "results must stay bit-identical");
        let model = phi_simd::CostModel::knc();
        let (cs, cg) = (model.issue_cycles(&ds), model.issue_cycles(&dg));
        assert!(
            cg < cs,
            "generated radix-29 must win: static {cs} cycles, generated {cg} cycles"
        );
    }

    #[test]
    fn counts_are_deterministic() {
        let n = n256();
        let p = params(28, MontVariant::Truncated, 2, 4);
        let ctx = GenMontCtx::new(&n, p, phi_backend::ResolvedBackend::ModeledKnc).unwrap();
        let bases = sixteen(&n, 5);
        let exp = BigUint::from_hex("abcdef").unwrap();
        count::reset();
        let (_, d1) = count::measure(|| ctx.mod_exp_16(&bases, &exp));
        let (_, d2) = count::measure(|| ctx.mod_exp_16(&bases, &exp));
        assert_eq!(d1, d2);
    }
}
