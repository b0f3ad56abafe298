//! Vectorized Montgomery multiplication — the heart of PhiOpenSSL.
//!
//! The kernel is CIOS with the reduction interleaved per row: rows walk the
//! digits of `a` in scalar code while each row's two multiply-accumulate
//! passes (`+ aᵢ·B` and `+ q·N`) run across all columns in 512-bit vector
//! FMAs, sixteen digit-products per issued instruction (two 8-lane
//! [`fma32`](phi_simd::U64x8::fma32) halves per 16-digit chunk pair — here
//! one `U64x8` covers 8 pre-widened digits, so a `⌈K/8⌉`-chunk loop covers
//! the row).
//!
//! Where the scalar baselines issue `2k` dependent 64×64 multiplies per
//! row, this kernel issues `2·⌈K/8⌉` vector FMAs plus two broadcasts — the
//! structural advantage the paper's speedups come from.
//!
//! The kernel's modeled op counts depend only on the modulus shape
//! `(k, kk)`, never on the operands. The row loop therefore always runs on
//! uncounted host lanes and the modeled backend charges the closed form
//! (`row_charge`) once per call; a unit test checks that charge against
//! the same body instantiated on the per-op counted backend.

use crate::radix::{pad_to_lanes, VecNum, DIGIT_BITS, DIGIT_MASK, LANES};
use phi_backend::{with_backend, NativeX86, ResolvedBackend, Vector64, VectorBackend};
use phi_bigint::{BigIntError, BigUint};
use phi_mont::MontEngine;
use phi_simd::count::{OpClass, OpCounts};

/// Scalar glue charged per CIOS row: extracting the low accumulator lane,
/// forming `q`, the carry shift and carry add, and loop bookkeeping. These
/// are dependent scalar ops on KNC's in-order pipe and are the main
/// non-vector cost of the kernel (a calibration constant, see
/// EXPERIMENTS.md §Calibration).
pub const ROW_GLUE_SALU: u64 = 13;

/// Modeled KNC ops of one pass of the row loop and normalization for a
/// `k`-digit modulus padded to `kk` columns (`kk / 8` vector chunks).
///
/// Per row: `2·chunks` FMAs, two broadcasts plus `chunks` column shifts,
/// the `q` multiply and [`ROW_GLUE_SALU`] glue ops; then one normalizing
/// pass of three scalar ops and a store per column.
fn row_charge(k: usize, kk: usize) -> OpCounts {
    let (k, kk, chunks) = (k as u64, kk as u64, (kk / LANES) as u64);
    let mut c = OpCounts::zero();
    c.set(OpClass::VMul, 2 * k * chunks);
    c.set(OpClass::VPerm, k * (2 + chunks));
    c.set(OpClass::SMul32, k);
    c.set(OpClass::SAlu, ROW_GLUE_SALU * k + 3 * kk);
    c.set(OpClass::SMem, kk);
    c
}

/// Inverse of odd `x` modulo 2^27 (Newton; 3 → 6 → 12 → 24 → 48 bits).
fn inv_mod_digit(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x;
    for _ in 0..4 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv))) & DIGIT_MASK;
    }
    debug_assert_eq!(x.wrapping_mul(inv) & DIGIT_MASK, 1);
    inv
}

/// `a` in `kk`-slot digit form, charged to `backend`.
fn digits_on(backend: ResolvedBackend, a: &BigUint, kk: usize) -> VecNum {
    with_backend!(backend, B => VecNum::from_biguint_on::<B>(a, kk))
}

/// A vectorized Montgomery context for one odd modulus.
///
/// The Montgomery radix is `R = 2^(27·k)` where `k` is the digit count of
/// the modulus — one reduction row per digit, exactly like word-level CIOS
/// but with 27-bit rows.
#[derive(Debug, Clone)]
pub struct VMontCtx {
    n: BigUint,
    /// Significant digit count (rows per multiplication).
    k: usize,
    /// Padded digit count (columns; multiple of 8, ≥ k+1).
    kk: usize,
    /// `kk / 8` — vector chunks per column pass.
    chunks: usize,
    n_digits: Vec<u64>,
    n_vec: VecNum,
    /// `-n⁻¹ mod 2^27`.
    n0_inv: u64,
    /// `N' = -n⁻¹ mod R` in padded digit form (the generated batch
    /// kernels multiply by the full-width inverse instead of
    /// digit-by-digit).
    nprime_digits: Vec<u64>,
    /// `R² mod n` in vector form, for entering the domain.
    rr_vec: VecNum,
    r_bits: u32,
    /// [`row_charge`] of this shape, charged once per product.
    row_charge: OpCounts,
    /// Which vector backend the kernels run on.
    backend: ResolvedBackend,
}

impl VMontCtx {
    /// Build a context for the odd modulus `n` on the process-default
    /// backend (the modeled-KNC backend unless overridden; see
    /// [`phi_backend::process_default`]).
    pub fn new(n: &BigUint) -> Result<Self, BigIntError> {
        Self::with_backend(n, phi_backend::process_default().resolve())
    }

    /// Build a context for the odd modulus `n` on an explicit backend.
    pub fn with_backend(n: &BigUint, backend: ResolvedBackend) -> Result<Self, BigIntError> {
        if n.is_zero() || n.is_even() {
            return Err(BigIntError::EvenModulus);
        }
        let _span = phi_trace::span(phi_trace::Scope::CtxSetup);
        phi_simd::count::record_ctx_setup();
        let k = n.bit_length().div_ceil(DIGIT_BITS) as usize;
        // One extra digit so the pre-subtraction value (< 2n) always fits.
        let kk = pad_to_lanes(k + 1);
        let r_bits = k as u32 * DIGIT_BITS;
        let n_vec = digits_on(backend, n, kk);
        let n0_inv = (1u64 << DIGIT_BITS) - inv_mod_digit(n.limbs()[0] & DIGIT_MASK);
        let rr = &BigUint::power_of_two(2 * r_bits) % n;
        let rr_vec = digits_on(backend, &rr, kk);
        // N' = -n⁻¹ mod R for the batch kernels. n is odd, so the inverse
        // exists and is odd; R - inv never wraps.
        let r = BigUint::power_of_two(r_bits);
        let inv = n.inverse_mod_pow2(r_bits);
        let nprime_digits = digits_on(backend, &(&r - &inv), kk).digits().to_vec();
        Ok(VMontCtx {
            n: n.clone(),
            k,
            kk,
            chunks: kk / LANES,
            n_digits: n_vec.digits().to_vec(),
            n_vec,
            n0_inv,
            nprime_digits,
            rr_vec,
            r_bits,
            row_charge: row_charge(k, kk),
            backend,
        })
    }

    /// The backend this context's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.backend
    }

    /// Significant digits of the modulus (reduction rows per multiply).
    pub fn digits(&self) -> usize {
        self.k
    }

    /// Padded digit slots (columns).
    pub fn padded_digits(&self) -> usize {
        self.kk
    }

    /// `-n⁻¹ mod 2^27`.
    pub fn n0_inv(&self) -> u64 {
        self.n0_inv
    }

    /// The modulus in padded digit form (shared with the batched kernel).
    pub fn n_digits(&self) -> &[u64] {
        &self.n_digits
    }

    /// `N' = -n⁻¹ mod R` in padded digit form (batch kernel input).
    pub(crate) fn nprime_digits(&self) -> &[u64] {
        &self.nprime_digits
    }

    /// `R² mod n` in vector form (shared with the batch kernels).
    pub(crate) fn rr_vec(&self) -> &VecNum {
        &self.rr_vec
    }

    /// The zero value shaped for this context.
    pub fn zero_vec(&self) -> VecNum {
        VecNum::zero(self.kk)
    }

    /// Convert a residue into this context's digit form (no domain
    /// change), charged to this context's backend.
    pub fn to_vec_form(&self, a: &BigUint) -> VecNum {
        if a < &self.n {
            digits_on(self.backend, a, self.kk)
        } else {
            digits_on(self.backend, &(a % &self.n), self.kk)
        }
    }

    /// Leave digit form (no domain change), charged to this context's
    /// backend.
    fn exit_vec_form(&self, a: &VecNum) -> BigUint {
        with_backend!(self.backend, B => a.to_biguint_on::<B>())
    }

    /// Enter the Montgomery domain: `a·R mod n` in vector form.
    pub fn to_mont_vec(&self, a: &BigUint) -> VecNum {
        let av = self.to_vec_form(a);
        self.mont_mul_vec(&av, &self.rr_vec)
    }

    /// Leave the Montgomery domain and digit form.
    pub fn from_mont_vec(&self, a: &VecNum) -> BigUint {
        let mut one = self.zero_vec();
        one.digits[0] = 1;
        self.exit_vec_form(&self.mont_mul_vec(a, &one))
    }

    /// The Montgomery representation of 1.
    pub fn one_mont_vec(&self) -> VecNum {
        let r = &BigUint::power_of_two(self.r_bits) % &self.n;
        digits_on(self.backend, &r, self.kk)
    }

    /// Vectorized Montgomery product `a·b·R⁻¹ mod n`.
    ///
    /// Inputs must be context-shaped and numerically `< n`; the output is
    /// reduced to `[0, n)`.
    pub fn mont_mul_vec(&self, a: &VecNum, b: &VecNum) -> VecNum {
        with_backend!(self.backend, B => self.mont_mul_generic::<B>(a, b))
    }

    /// Backend-generic body of [`mont_mul_vec`](Self::mont_mul_vec) —
    /// generic callers (exponentiation, batching) use this directly so a
    /// single dispatch covers a whole exponentiation.
    ///
    /// The rows run on uncounted lanes whatever `B` is; `B` is charged the
    /// closed-form [`row_charge`] of the call instead, inside the same
    /// span, so modeled counts are those of the per-op counted body.
    pub(crate) fn mont_mul_generic<B: VectorBackend>(&self, a: &VecNum, b: &VecNum) -> VecNum {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        let mut out = self.mont_rows::<NativeX86>(a, b);
        B::record_all(&self.row_charge);
        // `out < 2n`: one conditional subtraction reaches `[0, n)`.
        out.cond_sub::<B>(&self.n_vec);
        out
    }

    /// The conditional subtraction of [`mont_mul_generic`], charged to
    /// this context's backend (the per-op reference the closed-form
    /// charge is tested against).
    #[cfg(test)]
    fn reduce_once(&self, t: &mut VecNum) {
        with_backend!(self.backend, B => t.cond_sub::<B>(&self.n_vec))
    }

    /// The CIOS row loop and normalization: `a·b·R⁻¹` in `[0, 2n)`, in
    /// proper digits. Records exactly [`row_charge`] on a counting `B`.
    fn mont_rows<B: VectorBackend>(&self, a: &VecNum, b: &VecNum) -> VecNum {
        debug_assert_eq!(a.len(), self.kk);
        debug_assert_eq!(b.len(), self.kk);
        let chunks = self.chunks;

        // One buffer per call: the column accumulators, then the `chunks`
        // vectors of `b` and of `n`, loaded once for all rows. Loads fold
        // into the FMAs as memory sources on KNC and are free in the
        // model, so hoisting them changes no count.
        let mut regs = Vec::with_capacity(3 * chunks);
        regs.resize(chunks, B::V64::zero());
        regs.extend(b.digits.chunks_exact(LANES).map(B::V64::from_slice_folded));
        regs.extend(
            self.n_digits
                .chunks_exact(LANES)
                .map(B::V64::from_slice_folded),
        );
        let (acc, operands) = regs.split_at_mut(chunks);
        let (b_vecs, n_vecs) = operands.split_at(chunks);

        for i in 0..self.k {
            let ai = a.digit(i);

            // acc += a_i * B : one broadcast + `chunks` FMAs.
            let av = B::V64::splat(ai);
            for (slot, &b_chunk) in acc.iter_mut().zip(b_vecs) {
                *slot = slot.fma32(av, b_chunk);
            }

            // q = (t₀ · n₀') mod 2^27 — scalar, on the critical path.
            let t0 = acc[0].lane(0);
            let q = ((t0 & DIGIT_MASK).wrapping_mul(self.n0_inv)) & DIGIT_MASK;
            B::record(OpClass::SMul32, 1);

            // acc += q * N : clears the low digit.
            let qv = B::V64::splat(q);
            for (slot, &n_chunk) in acc.iter_mut().zip(n_vecs) {
                *slot = slot.fma32(qv, n_chunk);
            }
            debug_assert_eq!(acc[0].lane(0) & DIGIT_MASK, 0, "row {i} not reduced");

            // Divide by the radix: shift columns down one digit, feeding the
            // cleared digit's carry into the new column 0.
            let carry = acc[0].lane(0) >> DIGIT_BITS;
            for c in 0..chunks {
                let fill = if c + 1 < chunks {
                    acc[c + 1].lane(0)
                } else {
                    0
                };
                acc[c] = acc[c].shift_lanes_down(fill);
            }
            let l0 = acc[0].lane(0);
            acc[0] = acc[0].with_lane(0, l0 + carry);

            B::record(OpClass::SAlu, ROW_GLUE_SALU);
        }

        // Normalize the redundant columns into proper 27-bit digits.
        let mut out = VecNum::zero(self.kk);
        let mut carry = 0u64;
        for (digits, column) in out.digits.chunks_exact_mut(LANES).zip(acc.iter()) {
            for (digit, lane) in digits.iter_mut().zip(column.to_lanes()) {
                let v = lane + carry;
                *digit = v & DIGIT_MASK;
                carry = v >> DIGIT_BITS;
            }
        }
        debug_assert_eq!(carry, 0, "result exceeded the padded width");
        B::record(OpClass::SAlu, 3 * self.kk as u64);
        B::record(OpClass::SMem, self.kk as u64);
        out
    }

    /// Montgomery squaring through the multiplication kernel. The dedicated
    /// half-product squaring is [`mont_sqr_sos`](crate::vsqr::mont_sqr_sos),
    /// kept as the E10 ablation: its memory-resident accumulator costs more
    /// modeled cycles than the squares it saves.
    pub fn mont_sqr_vec(&self, a: &VecNum) -> VecNum {
        self.mont_mul_vec(a, a)
    }
}

impl MontEngine for VMontCtx {
    fn modulus(&self) -> &BigUint {
        &self.n
    }

    fn r_bits(&self) -> u32 {
        self.r_bits
    }

    fn to_mont(&self, a: &BigUint) -> BigUint {
        self.exit_vec_form(&self.to_mont_vec(a))
    }

    fn from_mont(&self, a: &BigUint) -> BigUint {
        self.from_mont_vec(&digits_on(self.backend, a, self.kk))
    }

    fn one_mont(&self) -> BigUint {
        &BigUint::power_of_two(self.r_bits) % &self.n
    }

    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let av = digits_on(self.backend, a, self.kk);
        let bv = digits_on(self.backend, b, self.kk);
        self.exit_vec_form(&self.mont_mul_vec(&av, &bv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_backend::ModeledKnc;
    use phi_simd::count;

    fn n256() -> BigUint {
        BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
            .unwrap()
    }

    #[test]
    fn inv_mod_digit_identity() {
        for x in [1u64, 3, 0x7ffffff, 0x1234567 | 1] {
            assert_eq!(x.wrapping_mul(inv_mod_digit(x)) & DIGIT_MASK, 1);
        }
    }

    #[test]
    fn rejects_even_modulus() {
        assert!(VMontCtx::new(&BigUint::from(8u64)).is_err());
        assert!(VMontCtx::new(&BigUint::zero()).is_err());
    }

    #[test]
    fn shape_for_common_sizes() {
        for (bits, hexdigits) in [(512u32, 128usize), (1024, 256), (2048, 512), (4096, 1024)] {
            let n = &BigUint::power_of_two(bits) - &BigUint::from(0x61u64);
            assert_eq!(n.to_hex().len(), hexdigits);
            let ctx = VMontCtx::new(&n).unwrap();
            assert_eq!(ctx.digits(), bits.div_ceil(DIGIT_BITS) as usize);
            assert!(ctx.padded_digits() > ctx.digits());
            assert_eq!(ctx.padded_digits() % LANES, 0);
        }
    }

    #[test]
    fn roundtrip_small_modulus() {
        let n = BigUint::from(97u64);
        let ctx = VMontCtx::new(&n).unwrap();
        for v in 0u64..97 {
            let a = BigUint::from(v);
            let m = ctx.to_mont_vec(&a);
            assert_eq!(ctx.from_mont_vec(&m).to_u64(), Some(v), "v = {v}");
        }
    }

    #[test]
    fn mont_mul_matches_oracle_256() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap();
        let b = BigUint::from_hex("fedcba9876543210fedcba9876543210fedcba98").unwrap();
        let got = ctx.from_mont_vec(&ctx.mont_mul_vec(&ctx.to_mont_vec(&a), &ctx.to_mont_vec(&b)));
        assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn mont_mul_matches_scalar_kernels() {
        let n = n256();
        let vctx = VMontCtx::new(&n).unwrap();
        let sctx = phi_mont::MontCtx64::new(&n).unwrap();
        let a = BigUint::from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa").unwrap();
        let b = BigUint::from_hex("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb").unwrap();
        // Different Montgomery radices — compare plain-domain results.
        let pv =
            vctx.from_mont_vec(&vctx.mont_mul_vec(&vctx.to_mont_vec(&a), &vctx.to_mont_vec(&b)));
        let ps = sctx.from_mont(&sctx.mont_mul(&sctx.to_mont(&a), &sctx.to_mont(&b)));
        assert_eq!(pv, ps);
    }

    #[test]
    fn near_modulus_operands_trigger_subtraction() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let max = &n - &BigUint::one();
        let mm = ctx.to_mont_vec(&max);
        let sq = ctx.from_mont_vec(&ctx.mont_mul_vec(&mm, &mm));
        assert!(sq.is_one(), "(n-1)^2 ≡ 1 (mod n)");
    }

    #[test]
    fn large_4096_bit_modulus_no_overflow() {
        // The digit-width analysis in `radix` must hold at the largest
        // paper size; the counted instantiation's fma32 debug assertions
        // (exercised at every size by `row_charge_matches_per_op_counting`)
        // catch any overflow.
        let n = &BigUint::power_of_two(4096) - &BigUint::from(0x11Du64); // odd
        assert!(n.is_odd());
        let ctx = VMontCtx::new(&n).unwrap();
        let a = &BigUint::power_of_two(4095) - &BigUint::from(12345u64);
        let b = &BigUint::power_of_two(4095) - &BigUint::from(67890u64);
        let got = ctx.from_mont_vec(&ctx.mont_mul_vec(&ctx.to_mont_vec(&a), &ctx.to_mont_vec(&b)));
        assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn mont_engine_impl_roundtrips() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let a = BigUint::from(123456789u64);
        assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a);
        let one = ctx.one_mont();
        let am = ctx.to_mont(&a);
        assert_eq!(ctx.mont_mul(&am, &one), am);
    }

    #[test]
    fn vector_ops_dominate_the_count() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let a = ctx.to_mont_vec(&BigUint::from(3u64));
        let b = ctx.to_mont_vec(&BigUint::from(5u64));
        count::reset();
        let (_, d) = count::measure(|| ctx.mont_mul_vec(&a, &b));
        // k rows × 2·chunks FMAs.
        let k = ctx.digits() as u64;
        let chunks = (ctx.padded_digits() / LANES) as u64;
        assert_eq!(d.get(OpClass::VMul), 2 * k * chunks);
        // Broadcasts (2/row) + column shifts (chunks/row).
        assert_eq!(d.get(OpClass::VPerm), k * (2 + chunks));
        assert_eq!(d.get(OpClass::SMul64), 0);
        assert_eq!(d.get(OpClass::SMul32), k);
    }

    /// A `k`-digit odd modulus (`2^(27k) - 97`, or the dense-top
    /// `2^(27k - 1) + 2^(27k - 2) + 1` when `dense`).
    fn modulus_of_digits(k: usize, dense: bool) -> BigUint {
        let bits = k as u32 * DIGIT_BITS;
        if dense {
            &(&BigUint::power_of_two(bits - 1) + &BigUint::power_of_two(bits - 2)) + &BigUint::one()
        } else {
            &BigUint::power_of_two(bits) - &BigUint::from(97u64)
        }
    }

    #[test]
    fn row_charge_matches_per_op_counting() {
        // Every digit count from 1 up to a 4096-bit modulus (k = 152), so
        // every kk = pad_to_lanes(k + 1) boundary (k ≡ 7 and 0 mod 8) is
        // crossed, plus the exact 4096-bit modulus.
        let mut moduli: Vec<BigUint> = (1..=152)
            .flat_map(|k| [modulus_of_digits(k, false), modulus_of_digits(k, true)])
            .collect();
        moduli.push(&BigUint::power_of_two(4096) - &BigUint::from(0x11Du64));
        for n in &moduli {
            let ctx = VMontCtx::new(n).unwrap();
            let (k, kk) = (ctx.digits(), ctx.padded_digits());
            assert_eq!(kk, pad_to_lanes(k + 1));
            let max = ctx.to_vec_form(&(n - &BigUint::one()));
            let mid = ctx.to_vec_form(&(n >> 1));
            let small = ctx.to_vec_form(&BigUint::from(0x5a5a5u64));
            for (a, b) in [(&max, &max), (&mid, &max), (&small, &mid), (&max, &small)] {
                let (mut counted, per_op) = count::measure(|| ctx.mont_rows::<ModeledKnc>(a, b));
                assert_eq!(per_op, ctx.row_charge, "k = {k}, kk = {kk}");
                assert_eq!(counted, ctx.mont_rows::<NativeX86>(a, b), "k = {k}");

                // The charged path returns the counted body's digits after
                // the conditional subtraction, and records the same ops.
                let (charged, total) = count::measure(|| ctx.mont_mul_vec(a, b));
                let ((), sub) = count::measure(|| ctx.reduce_once(&mut counted));
                assert_eq!(charged, counted, "k = {k}");
                let mut want = per_op;
                want.accumulate(&sub);
                assert_eq!(total, want, "k = {k}");
            }
        }
    }

    #[test]
    fn native_backend_matches_modeled_bit_for_bit() {
        let n = n256();
        let modeled = VMontCtx::new(&n).unwrap();
        let native = VMontCtx::with_backend(&n, ResolvedBackend::NativeX86).unwrap();
        assert_eq!(native.backend(), ResolvedBackend::NativeX86);
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap();
        let b = &n - &BigUint::one();
        let rm = modeled.from_mont_vec(
            &modeled.mont_mul_vec(&modeled.to_mont_vec(&a), &modeled.to_mont_vec(&b)),
        );
        let rn = native
            .from_mont_vec(&native.mont_mul_vec(&native.to_mont_vec(&a), &native.to_mont_vec(&b)));
        assert_eq!(rm, rn);

        // The native kernel, its conditional subtraction and the domain
        // conversions record nothing into the modeled counters.
        count::reset();
        let (am, d) = count::measure(|| native.to_mont_vec(&a));
        assert_eq!(d, OpCounts::zero(), "to_mont_vec");
        let (bm, d) = count::measure(|| native.to_mont_vec(&b));
        assert_eq!(d, OpCounts::zero(), "to_mont_vec");
        for (x, y) in [(&am, &am), (&am, &bm), (&bm, &bm)] {
            let (_, d) = count::measure(|| native.mont_mul_vec(x, y));
            assert_eq!(d, OpCounts::zero(), "mont_mul_vec");
        }
        let (back, d) = count::measure(|| native.from_mont_vec(&am));
        assert_eq!(d, OpCounts::zero(), "from_mont_vec");
        assert_eq!(back, a);
    }

    #[test]
    fn nprime_matches_euclid_on_random_moduli() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9E17);
        for bits in [512u32, 1024, 2048] {
            for _ in 0..3 {
                let mut n = BigUint::random_bits(&mut rng, bits);
                if n.is_even() {
                    n = &n + &BigUint::one();
                }
                let ctx = VMontCtx::new(&n).unwrap();
                let r = BigUint::power_of_two(ctx.digits() as u32 * DIGIT_BITS);
                let euclid = &r - &n.mod_inverse(&r).unwrap();
                let want = VecNum::from_biguint(&euclid, ctx.padded_digits());
                assert_eq!(ctx.nprime_digits(), want.digits(), "{bits} bits");
            }
        }
    }

    #[test]
    fn counts_are_deterministic() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let a = ctx.to_mont_vec(&BigUint::from(7u64));
        count::reset();
        let (_, d1) = count::measure(|| ctx.mont_mul_vec(&a, &a));
        let (_, d2) = count::measure(|| ctx.mont_mul_vec(&a, &a));
        assert_eq!(d1, d2);
    }
}
