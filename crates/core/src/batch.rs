//! Sixteen-way batched Montgomery arithmetic — the second vectorization
//! axis.
//!
//! Instead of spreading one multiplication's columns across lanes
//! (the [`vmont`](crate::vmont) kernel), a batch kernel runs **sixteen
//! independent multiplications**, one per lane, against a shared
//! modulus (the natural shape of a busy RSA server: many handshakes, one
//! private key). Digit `d` of operation `j` lives in lane `j` of the
//! digit-`d` vector (a transposed, digit-major layout).
//!
//! The payoff over the intra-operand kernel is that the per-row scalar
//! glue — quotient computation, carry handling — also vectorizes: there is
//! no broadcast and no scalar multiply on the critical path. The cost is a
//! transpose at the batch boundary. Experiment E8 quantifies the trade.
//!
//! [`BatchMont`] is a handle on the generated kernel ([`GenMontCtx`]) at
//! the paper's static parameter point; [`Batch16`] is the packed layout
//! the per-lane-modulus [`MultiBatchMont`](crate::MultiBatchMont) kernel
//! runs on.

use crate::genmont::GenMontCtx;
use crate::library::MontVariant;
use crate::params::KernelParams;
use crate::radix::{VecNum, DIGIT_MASK};
use crate::vmont::VMontCtx;
use phi_backend::{with_backend, VectorBackend};
use phi_bigint::BigUint;
use phi_simd::count::OpClass;
use phi_simd::U32x16;

/// Operations per batch (one per 32-bit lane of a 512-bit register).
pub const BATCH_WIDTH: usize = 16;

/// Sixteen same-shaped values in transposed (digit-major) layout:
/// `cols[d]` holds digit `d` of every operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch16 {
    cols: Vec<U32x16>,
}

impl Batch16 {
    /// Transpose sixteen context-shaped values into batch layout.
    ///
    /// Charged as the in-register 16×16 transpose networks the real kernel
    /// runs at batch boundaries (~4 swizzles per produced vector).
    pub fn transpose_from(values: &[VecNum]) -> Self {
        with_backend!(phi_backend::process_default().resolve(),
            B => Self::transpose_from_impl::<B>(values))
    }

    pub(crate) fn transpose_from_impl<B: VectorBackend>(values: &[VecNum]) -> Self {
        assert_eq!(values.len(), BATCH_WIDTH, "need exactly 16 values");
        let len = values[0].len();
        assert!(
            values.iter().all(|v| v.len() == len),
            "batch values must share one shape"
        );
        let mut cols = Vec::with_capacity(len);
        for d in 0..len {
            let mut lanes = [0u32; 16];
            for (j, v) in values.iter().enumerate() {
                debug_assert!(v.digit(d) <= DIGIT_MASK);
                lanes[j] = v.digit(d) as u32;
            }
            cols.push(U32x16::from_lanes(lanes));
            B::record(OpClass::VPerm, 4);
        }
        Batch16 { cols }
    }

    /// Transpose back to sixteen individual values.
    pub fn transpose_out(&self) -> Vec<VecNum> {
        with_backend!(phi_backend::process_default().resolve(),
            B => self.transpose_out_impl::<B>())
    }

    pub(crate) fn transpose_out_impl<B: VectorBackend>(&self) -> Vec<VecNum> {
        let len = self.cols.len();
        let mut out = vec![VecNum::zero(len); BATCH_WIDTH];
        for (d, col) in self.cols.iter().enumerate() {
            B::record(OpClass::VPerm, 4);
            for (j, v) in out.iter_mut().enumerate() {
                v.digits_mut()[d] = col.lane(j) as u64;
            }
        }
        out
    }

    /// Digit slots per operation.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// The transposed digit columns (kernel internal).
    pub(crate) fn cols(&self) -> &[U32x16] {
        &self.cols
    }

    /// True if the batch has no digit slots.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// The batched Montgomery engine for one shared modulus: a handle on the
/// radix-2^27 generated kernel at [`KernelParams::static_defaults`],
/// built from a [`VMontCtx`]'s precomputed constants.
#[derive(Debug, Clone)]
pub struct BatchMont {
    kernel: GenMontCtx,
    variant: MontVariant,
}

impl BatchMont {
    /// Wrap a vector context for batched use with the classic separated
    /// reduction (E8 and the conformance batch family measure this path
    /// explicitly).
    pub fn new(ctx: &VMontCtx) -> Self {
        Self::with_variant(ctx, MontVariant::Classic)
    }

    /// Wrap a vector context with an explicit reduction variant:
    /// `Truncated` and `Auto` run the truncated reduction, `Classic` the
    /// classic one (bit-identical results). Records no modeled ops and
    /// no context setup.
    pub fn with_variant(ctx: &VMontCtx, variant: MontVariant) -> Self {
        let params = KernelParams {
            variant: variant.reduction(),
            ..KernelParams::static_defaults()
        };
        BatchMont {
            kernel: GenMontCtx::from_vmont(ctx, params),
            variant,
        }
    }

    /// The generated kernel this handle runs (for direct 16-lane
    /// multiplies in its [`GenBatch`](crate::genmont::GenBatch) layout).
    pub fn kernel(&self) -> &GenMontCtx {
        &self.kernel
    }

    /// The reduction variant this handle was built with.
    pub fn variant(&self) -> MontVariant {
        self.variant
    }

    /// Sixteen exponentiations `base[j]^exp mod n` with one shared exponent
    /// (the RSA-server shape: one private key, many ciphertexts), using the
    /// fixed-window ladder.
    pub fn mod_exp_16(&self, bases: &[BigUint], exp: &BigUint, window: u32) -> Vec<BigUint> {
        self.kernel.mod_exp_16_window(bases, exp, window)
    }

    /// Sixteen power-equality checks at once; see
    /// [`GenMontCtx::pow_eq_16`].
    pub fn pow_eq_16(&self, bases: &[BigUint], exp: &BigUint, expected: &[BigUint]) -> Vec<bool> {
        self.kernel.pow_eq_16(bases, exp, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_mont::MontEngine;
    use phi_simd::count;

    fn ctx256() -> VMontCtx {
        VMontCtx::new(
            &BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
                .unwrap(),
        )
        .unwrap()
    }

    fn sixteen_values(ctx: &VMontCtx, seed: u64) -> (Vec<BigUint>, Vec<VecNum>) {
        let n = ctx.modulus().clone();
        let mut plain = Vec::new();
        let mut vecs = Vec::new();
        let mut state = seed;
        for _ in 0..BATCH_WIDTH {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = &BigUint::from(state) * &BigUint::from(state ^ 0xABCD) % &n;
            vecs.push(ctx.to_vec_form(&v));
            plain.push(v);
        }
        (plain, vecs)
    }

    /// Sixteen Montgomery products through a handle's kernel, out of the
    /// batch layout (still in the Montgomery domain of `R = 2^(27k)`).
    fn mul16(bm: &BatchMont, a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
        let k = bm.kernel();
        k.from_batch(&k.mont_mul_16(&k.to_batch(a), &k.to_batch(b)))
    }

    fn sqr16(bm: &BatchMont, a: &[BigUint]) -> Vec<BigUint> {
        let k = bm.kernel();
        k.from_batch(&k.mont_sqr_16(&k.to_batch(a)))
    }

    fn both_variants(ctx: &VMontCtx) -> (BatchMont, BatchMont) {
        (
            BatchMont::with_variant(ctx, MontVariant::Classic),
            BatchMont::with_variant(ctx, MontVariant::Truncated),
        )
    }

    #[test]
    fn transpose_roundtrip() {
        let ctx = ctx256();
        let (_, vecs) = sixteen_values(&ctx, 42);
        let b = Batch16::transpose_from(&vecs);
        assert_eq!(b.transpose_out(), vecs);
    }

    #[test]
    #[should_panic(expected = "exactly 16")]
    fn transpose_requires_sixteen() {
        let ctx = ctx256();
        let v = vec![ctx.zero_vec(); 3];
        Batch16::transpose_from(&v);
    }

    #[test]
    fn building_a_handle_records_nothing() {
        // The verified service builds one per flush and the benchmark
        // replays that check: construction must stay off both channels.
        let ctx = ctx256();
        let ((), setups) = count::measure_ctx_setups(|| {
            let (_, ops) = count::measure(|| BatchMont::with_variant(&ctx, MontVariant::Auto));
            assert_eq!(ops, count::OpCounts::default());
        });
        assert_eq!(setups, 0);
    }

    #[test]
    fn batched_mul_matches_single_kernel() {
        let ctx = ctx256();
        let (ap, av) = sixteen_values(&ctx, 1);
        let (bp, bv) = sixteen_values(&ctx, 2);
        for bm in [
            BatchMont::new(&ctx),
            BatchMont::with_variant(&ctx, MontVariant::Auto),
        ] {
            let got = mul16(&bm, &ap, &bp);
            for j in 0..BATCH_WIDTH {
                let want = ctx.mont_mul_vec(&av[j], &bv[j]).to_biguint();
                assert_eq!(got[j], want, "{:?} lane {j}", bm.variant());
            }
        }
    }

    #[test]
    fn truncated_mul_matches_classic_batch() {
        for n in [
            ctx256().modulus().clone(),
            &BigUint::power_of_two(1024) - &BigUint::from(0x11Du64),
            // top-limb-dense modulus: every high digit saturated
            &BigUint::power_of_two(512) - &BigUint::from(237u64),
        ] {
            let ctx = VMontCtx::new(&n).unwrap();
            let (classic, truncated) = both_variants(&ctx);
            let (a, _) = sixteen_values(&ctx, 1);
            let (b, _) = sixteen_values(&ctx, 2);
            assert_eq!(
                mul16(&truncated, &a, &b),
                mul16(&classic, &a, &b),
                "bits = {}",
                n.bit_length()
            );
            // The dedicated squaring answers the same question.
            assert_eq!(sqr16(&truncated, &a), mul16(&classic, &a, &a));
        }
    }

    #[test]
    fn extreme_lanes_hit_the_correction_boundary() {
        // 0, 1, n-1 and R mod n lanes: zero lanes exercise the
        // round_up = 0 branch, n-1 lanes the conditional subtract.
        let n = &BigUint::power_of_two(256) - &BigUint::from(189u64);
        let ctx = VMontCtx::new(&n).unwrap();
        let (classic, truncated) = both_variants(&ctx);
        let vals: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| match j % 4 {
                0 => BigUint::zero(),
                1 => BigUint::one(),
                2 => &n - &BigUint::one(),
                _ => ctx.one_mont(),
            })
            .collect();
        let want: Vec<BigUint> = vals
            .iter()
            .map(|v| {
                let vv = ctx.to_vec_form(v);
                ctx.mont_mul_vec(&vv, &vv).to_biguint()
            })
            .collect();
        assert_eq!(mul16(&classic, &vals, &vals), want);
        assert_eq!(mul16(&truncated, &vals, &vals), want);
        assert_eq!(sqr16(&truncated, &vals), want);
    }

    #[test]
    fn small_modulus_falls_back_to_classic() {
        // k = 1: the boundary column s_{k-2} does not exist; the
        // truncated variant must run the classic reduction.
        let n = BigUint::from(97u64);
        let ctx = VMontCtx::new(&n).unwrap();
        assert!(ctx.digits() < 2);
        let (classic, truncated) = both_variants(&ctx);
        let vals: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| BigUint::from(j as u64 * 7 + 1))
            .collect();
        assert_eq!(
            mul16(&truncated, &vals, &vals),
            mul16(&classic, &vals, &vals)
        );
        let exp = BigUint::from(65537u64);
        let got = truncated.mod_exp_16(&vals, &exp, 5);
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], vals[j].mod_exp(&exp, &n), "lane {j}");
        }
    }

    #[test]
    fn pow_eq_16_accepts_true_powers_and_rejects_flips() {
        let ctx = ctx256();
        let bm = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let n = ctx.modulus().clone();
        let e = BigUint::from(65537u64);
        let (bases, _) = sixteen_values(&ctx, 7);
        let mut expected: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&e, &n)).collect();
        assert_eq!(
            bm.pow_eq_16(&bases, &e, &expected),
            vec![true; BATCH_WIDTH],
            "honest powers accepted"
        );
        // Flip three lanes; only those verdicts flip with them.
        for lane in [0usize, 7, 15] {
            expected[lane] = &(&expected[lane] + &BigUint::one()) % &n;
        }
        let verdicts = bm.pow_eq_16(&bases, &e, &expected);
        for (lane, ok) in verdicts.iter().enumerate() {
            assert_eq!(*ok, ![0, 7, 15].contains(&lane), "lane {lane}");
        }
    }

    #[test]
    fn pow_eq_16_padding_lanes_compare_equal() {
        let ctx = ctx256();
        let bm = BatchMont::new(&ctx);
        let n = ctx.modulus().clone();
        let e = BigUint::from(65537u64);
        // A partially occupied flush: three live lanes, thirteen padded
        // with base = expected = 0 (the verified-release shape).
        let mut bases = vec![BigUint::zero(); BATCH_WIDTH];
        let mut expected = vec![BigUint::zero(); BATCH_WIDTH];
        for (lane, seed) in [(0usize, 3u64), (1, 99), (2, 1234)] {
            bases[lane] = &BigUint::from(seed) % &n;
            expected[lane] = bases[lane].mod_exp(&e, &n);
        }
        assert_eq!(bm.pow_eq_16(&bases, &e, &expected), vec![true; BATCH_WIDTH]);
    }

    #[test]
    fn pow_eq_16_is_cheaper_than_the_window_ladder() {
        // The point of the specialized check: at a sparse public
        // exponent it must cost well under the generic fixed-window
        // exponentiation that the batch passes it guards are made of.
        let ctx = ctx256();
        let bm = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let n = ctx.modulus().clone();
        let e = BigUint::from(65537u64);
        let (bases, _) = sixteen_values(&ctx, 11);
        let expected: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&e, &n)).collect();
        let (_, check) = count::measure(|| bm.pow_eq_16(&bases, &e, &expected));
        let (_, ladder) = count::measure(|| bm.mod_exp_16(&bases, &e, 1));
        assert!(
            check.total_vector_ops() < ladder.total_vector_ops(),
            "specialized check {} vector ops vs window ladder {}",
            check.total_vector_ops(),
            ladder.total_vector_ops()
        );
    }

    #[test]
    fn batched_exp_matches_oracle() {
        let ctx = ctx256();
        let n = ctx.modulus().clone();
        let (plain, _) = sixteen_values(&ctx, 7);
        let exp = BigUint::from_hex("deadbeefcafebabe").unwrap();
        let (classic, truncated) = both_variants(&ctx);
        for bm in [classic, truncated] {
            let got = bm.mod_exp_16(&plain, &exp, 5);
            for j in 0..BATCH_WIDTH {
                assert_eq!(
                    got[j],
                    plain[j].mod_exp(&exp, &n),
                    "{:?} lane {j}",
                    bm.variant()
                );
            }
        }
    }

    #[test]
    fn batched_exp_edge_exponents() {
        let ctx = ctx256();
        let bm = BatchMont::new(&ctx);
        let (plain, _) = sixteen_values(&ctx, 9);
        let zeros = bm.mod_exp_16(&plain, &BigUint::zero(), 5);
        assert!(zeros.iter().all(|v| v.is_one()));
        let ones = bm.mod_exp_16(&plain, &BigUint::one(), 5);
        assert_eq!(ones, plain);
    }

    #[test]
    fn batched_exp_native_matches_modeled() {
        let ctx = ctx256();
        let nctx =
            VMontCtx::with_backend(ctx.modulus(), phi_backend::ResolvedBackend::NativeX86).unwrap();
        let (plain, _) = sixteen_values(&ctx, 21);
        let exp = BigUint::from_hex("deadbeefcafebabe").unwrap();
        for variant in [MontVariant::Classic, MontVariant::Truncated] {
            assert_eq!(
                BatchMont::with_variant(&ctx, variant).mod_exp_16(&plain, &exp, 5),
                BatchMont::with_variant(&nctx, variant).mod_exp_16(&plain, &exp, 5),
                "{variant:?}"
            );
        }
    }

    #[test]
    fn truncated_beats_classic_in_weighted_vector_ops() {
        // The truncated exponentiation ladder (squarings dominate) must
        // record fewer modeled cycles than the classic one.
        let n = &BigUint::power_of_two(1024) - &BigUint::from(0x11Du64);
        let ctx = VMontCtx::new(&n).unwrap();
        let (classic, truncated) = both_variants(&ctx);
        let bases: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| &BigUint::from(j as u64 * 999 + 7) % &n)
            .collect();
        let exp = BigUint::from_hex("ffffffffffffffff").unwrap();
        count::reset();
        let (rc, dc) = count::measure(|| classic.mod_exp_16(&bases, &exp, 5));
        let (rt, dt) = count::measure(|| truncated.mod_exp_16(&bases, &exp, 5));
        assert_eq!(rc, rt, "results must stay bit-identical");
        let model = phi_simd::CostModel::knc();
        let (cc, ct) = (model.issue_cycles(&dc), model.issue_cycles(&dt));
        assert!(
            ct < cc,
            "truncated must win: classic {cc} cycles, truncated {ct} cycles"
        );
    }

    #[test]
    fn batch_beats_sixteen_singles_in_vector_ops() {
        let ctx = ctx256();
        let bm = BatchMont::new(&ctx);
        let (ap, av) = sixteen_values(&ctx, 11);
        let (bp, bv) = sixteen_values(&ctx, 12);
        let k = bm.kernel();
        let (ab, bb) = (k.to_batch(&ap), k.to_batch(&bp));
        count::reset();
        let (_, d_batch) = count::measure(|| k.mont_mul_16(&ab, &bb));
        let (_, d_single) = count::measure(|| {
            for j in 0..BATCH_WIDTH {
                let _ = ctx.mont_mul_vec(&av[j], &bv[j]);
            }
        });
        // No scalar multiplies on the batched critical path…
        assert_eq!(d_batch.get(OpClass::SMul32), 0);
        assert!(d_single.get(OpClass::SMul32) > 0);
        // …and fewer broadcast/permute slots.
        assert!(d_batch.get(OpClass::VPerm) < d_single.get(OpClass::VPerm));
    }

    #[test]
    fn counts_are_deterministic() {
        let ctx = ctx256();
        let bm = BatchMont::with_variant(&ctx, MontVariant::Truncated);
        let (plain, _) = sixteen_values(&ctx, 5);
        let exp = BigUint::from_hex("abcdef").unwrap();
        count::reset();
        let (_, d1) = count::measure(|| bm.mod_exp_16(&plain, &exp, 5));
        let (_, d2) = count::measure(|| bm.mod_exp_16(&plain, &exp, 5));
        assert_eq!(d1, d2);
    }
}
