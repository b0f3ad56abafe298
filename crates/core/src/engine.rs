//! The batched CRT engine: the card-side service loop of the paper's
//! deployment — sixteen RSA private operations per pass, each half of the
//! CRT running through the 16-way lane-batched Montgomery ladder.
//!
//! For a server with one private key, every request shares `(p, q, dp,
//! dq, qInv)`, so a batch of ciphertexts is exactly the shape the
//! generated 16-lane kernel ([`GenMontCtx`]) wants: the two half-size
//! exponentiations run with one shared exponent each, and only the
//! Garner recombination is per-lane.

use crate::batch::BATCH_WIDTH;
use crate::crt::CrtKey;
use crate::genmont::GenMontCtx;
use crate::library::{MontVariant, PhiConfig};
use crate::params::KernelParams;
use crate::tuning::{Tuning, TuningTable};
use crate::vexp::DEFAULT_WINDOW;
use crate::vmont::VMontCtx;
use crate::vmul::big_mul_with_backend;
use phi_backend::ResolvedBackend;
use phi_bigint::{BigIntError, BigUint};

/// A reusable engine executing RSA private operations sixteen at a time.
pub struct BatchCrtEngine {
    ctx_p: VMontCtx,
    ctx_q: VMontCtx,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    n: BigUint,
    window: u32,
    variant: MontVariant,
    tuning: Tuning,
    /// The batch ladders' generated kernels, one per CRT half: the
    /// static point, or a committed table winner when `tuned`.
    kern_p: GenMontCtx,
    kern_q: GenMontCtx,
    tuned: bool,
}

impl BatchCrtEngine {
    /// Build from CRT key material and a validated [`PhiConfig`] — the
    /// blessed construction path: window width and vector backend both
    /// flow from the config (build one with `PhiConfig::builder()`).
    pub fn with_config(key: &CrtKey, config: &PhiConfig) -> Result<Self, BigIntError> {
        let engine = Self::from_parts_with_backend(
            key.modulus().clone(),
            key.dp().clone(),
            key.dq().clone(),
            key.qinv().clone(),
            key.p_modulus().clone(),
            key.q_modulus().clone(),
            config.backend.resolve(),
        )?;
        Ok(engine
            .with_window(config.window)
            .with_variant(config.mont_variant)
            .with_tuning(config.tuning))
    }

    /// Build from CRT key material on the process-default backend.
    ///
    /// Migration note: prefer [`with_config`](Self::with_config), which
    /// routes the window width and backend selection through the
    /// validated `PhiConfig::builder()` path instead of per-call setters.
    #[doc(hidden)]
    pub fn new(key: &CrtKey) -> Result<Self, BigIntError> {
        Self::from_parts(
            key.modulus().clone(),
            key.dp().clone(),
            key.dq().clone(),
            key.qinv().clone(),
            key.p_modulus().clone(),
            key.q_modulus().clone(),
        )
    }

    /// Build from raw components (`n = p·q` is trusted, not recomputed).
    ///
    /// Migration note: prefer [`with_config`](Self::with_config) with a
    /// [`CrtKey`]; raw-component construction bypasses config validation.
    #[doc(hidden)]
    pub fn from_parts(
        n: BigUint,
        dp: BigUint,
        dq: BigUint,
        qinv: BigUint,
        p: BigUint,
        q: BigUint,
    ) -> Result<Self, BigIntError> {
        Self::from_parts_with_backend(
            n,
            dp,
            dq,
            qinv,
            p,
            q,
            phi_backend::process_default().resolve(),
        )
    }

    /// Raw-component construction on an explicit backend (service-layer
    /// plumbing; end users should go through [`with_config`](Self::with_config)).
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_with_backend(
        n: BigUint,
        dp: BigUint,
        dq: BigUint,
        qinv: BigUint,
        p: BigUint,
        q: BigUint,
        backend: ResolvedBackend,
    ) -> Result<Self, BigIntError> {
        let ctx_p = VMontCtx::with_backend(&p, backend)?;
        let ctx_q = VMontCtx::with_backend(&q, backend)?;
        let point = Self::static_point(DEFAULT_WINDOW, MontVariant::Auto);
        Ok(BatchCrtEngine {
            kern_p: GenMontCtx::from_vmont(&ctx_p, point),
            kern_q: GenMontCtx::from_vmont(&ctx_q, point),
            ctx_p,
            ctx_q,
            p,
            q,
            dp,
            dq,
            qinv,
            n,
            window: DEFAULT_WINDOW,
            variant: MontVariant::Auto,
            tuning: Tuning::Static,
            tuned: false,
        })
    }

    fn static_point(window: u32, variant: MontVariant) -> KernelParams {
        KernelParams {
            window,
            variant: variant.reduction(),
            ..KernelParams::static_defaults()
        }
    }

    /// Point both halves at the static kernel for the current window and
    /// variant (free: the kernels reuse the half contexts' constants).
    fn use_static_point(&mut self) {
        let point = Self::static_point(self.window, self.variant);
        self.kern_p = GenMontCtx::from_vmont(&self.ctx_p, point);
        self.kern_q = GenMontCtx::from_vmont(&self.ctx_q, point);
        self.tuned = false;
    }

    /// Override the fixed-window width of the static kernel (a tuned
    /// kernel keeps its table window).
    pub fn with_window(mut self, window: u32) -> Self {
        assert!((1..=7).contains(&window));
        self.window = window;
        if !self.tuned {
            self.use_static_point();
        }
        self
    }

    /// Override the static kernel's Montgomery reduction (default `Auto`,
    /// the truncated reduction; a tuned kernel keeps its table variant).
    pub fn with_variant(mut self, variant: MontVariant) -> Self {
        self.variant = variant;
        if !self.tuned {
            self.use_static_point();
        }
        self
    }

    /// The reduction variant the static kernel runs.
    pub fn variant(&self) -> MontVariant {
        self.variant
    }

    /// Select the tuning policy (default [`Tuning::Static`]: the static
    /// parameter point at this engine's window and variant). Under
    /// [`Tuning::Table`]/[`Tuning::Auto`], a committed `generated` winner
    /// for this key size builds the half-size kernels the batch ladders
    /// run; entries inapplicable to the concrete halves fall back to the
    /// static point.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self.use_static_point();
        let backend = self.backend();
        let params = TuningTable::committed().params_for_modulus(
            tuning,
            self.n.bit_length(),
            backend.name(),
        );
        if let Some(params) = params {
            // Both halves must admit the point to keep the two CRT
            // ladders on the same kernel.
            if let (Ok(gp), Ok(gq)) = (
                GenMontCtx::new(&self.p, params, backend),
                GenMontCtx::new(&self.q, params, backend),
            ) {
                self.kern_p = gp;
                self.kern_q = gq;
                self.tuned = true;
            }
        }
        self
    }

    /// The active tuning policy.
    pub fn tuning(&self) -> Tuning {
        self.tuning
    }

    /// Whether the batch ladders currently run a table-selected kernel
    /// rather than the static point.
    pub fn tuned_kernel_active(&self) -> bool {
        self.tuned
    }

    /// The backend this engine's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.ctx_p.backend()
    }

    /// The public modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Execute `c^d mod n` for exactly [`BATCH_WIDTH`] ciphertexts.
    pub fn private_op_16(&self, cts: &[BigUint]) -> Vec<BigUint> {
        assert_eq!(cts.len(), BATCH_WIDTH, "need exactly {BATCH_WIDTH} inputs");
        // Two shared-exponent batched ladders (every kernel choice is
        // bit-identical — only the modeled cycle count moves)…
        let m1 = self.kern_p.mod_exp_16(cts, &self.dp);
        let m2 = self.kern_q.mod_exp_16(cts, &self.dq);
        // …then per-lane Garner recombination.
        let _span = phi_trace::span(phi_trace::Scope::CrtRecombine);
        let qinv_mont = self.ctx_p.to_mont_vec(&self.qinv);
        m1.iter()
            .zip(m2.iter())
            .map(|(m1, m2)| {
                let diff = m1.mod_sub(m2, &self.p);
                let h = self
                    .ctx_p
                    .mont_mul_vec(&qinv_mont, &self.ctx_p.to_vec_form(&diff))
                    .to_biguint();
                m2 + &big_mul_with_backend(&h, &self.q, self.backend())
            })
            .collect()
    }

    /// Execute 1..=[`BATCH_WIDTH`] operations through one full-width
    /// batch pass, masking the dead lanes.
    ///
    /// Dead lanes are padded with the ciphertext 1 (whose private op is
    /// again 1, a valid residue for every key) and their results
    /// discarded. The pass costs the same as a full batch regardless of
    /// occupancy — the lane ladder always runs all sixteen lanes — which
    /// is exactly the trade the deadline-driven service layer makes: pay
    /// full width now rather than park the requests longer.
    pub fn private_op_masked(&self, cts: &[BigUint]) -> Vec<BigUint> {
        assert!(
            !cts.is_empty() && cts.len() <= BATCH_WIDTH,
            "need 1..={BATCH_WIDTH} inputs, got {}",
            cts.len()
        );
        if cts.len() == BATCH_WIDTH {
            return self.private_op_16(cts);
        }
        let mut padded = cts.to_vec();
        padded.resize(BATCH_WIDTH, BigUint::one());
        let mut out = self.private_op_16(&padded);
        out.truncate(cts.len());
        out
    }

    /// Execute an arbitrary number of operations, running full batches
    /// through the lane engine and the remainder through single-lane CRT.
    pub fn private_op_many(&self, cts: &[BigUint]) -> Vec<BigUint> {
        let mut out = Vec::with_capacity(cts.len());
        let mut chunks = cts.chunks_exact(BATCH_WIDTH);
        for chunk in &mut chunks {
            out.extend(self.private_op_16(chunk));
        }
        for c in chunks.remainder() {
            out.push(self.private_op_single(c));
        }
        out
    }

    /// One operation through the single-op intra-operand kernel.
    pub fn private_op_single(&self, c: &BigUint) -> BigUint {
        use crate::vexp::{exp_fixed_window_vec, TableLookup};
        let half = |ctx: &VMontCtx, d: &BigUint| {
            let r = exp_fixed_window_vec(
                ctx,
                &ctx.to_mont_vec(c),
                d,
                self.window,
                TableLookup::Direct,
            );
            ctx.from_mont_vec(&r)
        };
        let (m1, m2) = (half(&self.ctx_p, &self.dp), half(&self.ctx_q, &self.dq));
        let _span = phi_trace::span(phi_trace::Scope::CrtRecombine);
        let diff = m1.mod_sub(&m2, &self.p);
        let qinv_mont = self.ctx_p.to_mont_vec(&self.qinv);
        let h = self
            .ctx_p
            .mont_mul_vec(&qinv_mont, &self.ctx_p.to_vec_form(&diff))
            .to_biguint();
        &m2 + &big_mul_with_backend(&h, &self.q, self.backend())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vexp::TableLookup;
    use phi_simd::count::{self, OpClass};

    fn demo() -> (BatchCrtEngine, CrtKey, BigUint, BigUint) {
        let p = BigUint::from_hex("ffffffffffffffc5").unwrap(); // 2^64-59
        let q = BigUint::from_hex("7fffffffffffffe7").unwrap(); // 2^63-25
        let e = BigUint::from(65537u64);
        let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
        let d = e.mod_inverse(&phi).unwrap();
        let key = CrtKey::new(&p, &q, &d).unwrap();
        let engine = BatchCrtEngine::new(&key).unwrap();
        (engine, key, e, d)
    }

    fn ciphertexts(n: &BigUint, e: &BigUint, count: usize) -> (Vec<BigUint>, Vec<BigUint>) {
        let msgs: Vec<BigUint> = (0..count as u64)
            .map(|i| &BigUint::from(0x1234_5678u64 + i * 7919) % n)
            .collect();
        let cts = msgs.iter().map(|m| m.mod_exp(e, n)).collect();
        (msgs, cts)
    }

    #[test]
    fn batch_of_16_decrypts_correctly() {
        let (engine, _, e, _) = demo();
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(engine.private_op_16(&cts), msgs);
    }

    #[test]
    fn batch_matches_single_lane_path() {
        let (engine, key, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        let batch = engine.private_op_16(&cts);
        for (i, c) in cts.iter().enumerate() {
            assert_eq!(batch[i], engine.private_op_single(c), "lane {i}");
            assert_eq!(
                batch[i],
                key.private_op(c, 5, TableLookup::Direct),
                "vs CrtKey {i}"
            );
        }
    }

    #[test]
    fn many_handles_partial_batches() {
        let (engine, _, e, _) = demo();
        for count in [1usize, 15, 16, 17, 40] {
            let (msgs, cts) = ciphertexts(engine.modulus(), &e, count);
            assert_eq!(engine.private_op_many(&cts), msgs, "count {count}");
        }
        assert!(engine.private_op_many(&[]).is_empty());
    }

    #[test]
    fn batch_is_cheaper_per_op_than_singles() {
        let (engine, _, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        count::reset();
        let (_, batched) = count::measure(|| engine.private_op_16(&cts));
        let (_, singles) = count::measure(|| {
            cts.iter()
                .map(|c| engine.private_op_single(c))
                .collect::<Vec<_>>()
        });
        let model = phi_simd::CostModel::knc();
        assert!(
            model.issue_cycles(&batched) < model.issue_cycles(&singles),
            "batched {} !< singles {}",
            model.issue_cycles(&batched),
            model.issue_cycles(&singles)
        );
        // And it never touches the scalar multiplier in the ladders.
        let _ = batched.get(OpClass::SMul64);
    }

    #[test]
    fn masked_batch_matches_full_occupancy_semantics() {
        let (engine, _, e, _) = demo();
        for live in [1usize, 2, 7, 15] {
            let (msgs, cts) = ciphertexts(engine.modulus(), &e, live);
            assert_eq!(engine.private_op_masked(&cts), msgs, "live {live}");
        }
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(engine.private_op_masked(&cts), msgs);
    }

    #[test]
    fn masked_batch_costs_full_width() {
        let (engine, _, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        count::reset();
        let (_, full) = count::measure(|| engine.private_op_16(&cts));
        let (_, masked) = count::measure(|| engine.private_op_masked(&cts[..3]));
        // Dead lanes still execute: a 3-live-lane pass issues the same
        // vector work as a full one (ciphertext values change the windowed
        // multiply pattern slightly; vector multiplies dominate and match).
        assert_eq!(masked.get(OpClass::VMul), full.get(OpClass::VMul));
    }

    #[test]
    #[should_panic(expected = "need 1..=16")]
    fn masked_batch_rejects_oversize() {
        let (engine, _, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH + 1);
        engine.private_op_masked(&cts);
    }

    #[test]
    fn window_override_still_correct() {
        let (engine, _, e, _) = demo();
        let engine = engine.with_window(3);
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(engine.private_op_16(&cts), msgs);
    }

    #[test]
    fn with_config_honors_window_and_backend() {
        let (engine, key, e, _) = demo();
        let config = crate::library::PhiConfig::builder()
            .window(3)
            .unwrap()
            .build();
        let cfg_engine = BatchCrtEngine::with_config(&key, &config).unwrap();
        assert_eq!(cfg_engine.backend(), ResolvedBackend::ModeledKnc);
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(cfg_engine.private_op_16(&cts), msgs);
    }

    #[test]
    fn tuned_table_dispatch_stays_bit_identical() {
        let (engine, key, e, _) = demo();
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        let want = engine.private_op_16(&cts);
        assert_eq!(want, msgs);
        // The demo key rounds up to the 512-bit table cell, whose
        // generated winner admits the tiny halves — the tuned engine
        // must dispatch it and stay bit-identical.
        let tuned = BatchCrtEngine::new(&key)
            .unwrap()
            .with_tuning(Tuning::Table);
        assert_eq!(tuned.tuning(), Tuning::Table);
        assert!(tuned.tuned_kernel_active());
        assert_eq!(tuned.private_op_16(&cts), want);
        assert_eq!(tuned.private_op_masked(&cts[..5]), msgs[..5]);
        // Static never consults the table.
        let s = BatchCrtEngine::new(&key)
            .unwrap()
            .with_tuning(Tuning::Static);
        assert!(!s.tuned_kernel_active());
        assert_eq!(s.private_op_16(&cts), want);
        // And the config path threads the policy through.
        let config = crate::library::PhiConfig::builder()
            .tuning(Tuning::Auto)
            .build();
        let cfg = BatchCrtEngine::with_config(&key, &config).unwrap();
        assert_eq!(cfg.tuning(), Tuning::Auto);
        assert_eq!(cfg.private_op_16(&cts), want);
    }

    #[test]
    fn native_engine_matches_modeled_bit_for_bit() {
        if !phi_backend::CpuFeatures::detect().avx2 {
            return; // no native tier on this host
        }
        let (engine, key, e, _) = demo();
        let native = BatchCrtEngine::from_parts_with_backend(
            key.modulus().clone(),
            key.dp().clone(),
            key.dq().clone(),
            key.qinv().clone(),
            key.p_modulus().clone(),
            key.q_modulus().clone(),
            ResolvedBackend::NativeX86,
        )
        .unwrap();
        assert_eq!(native.backend(), ResolvedBackend::NativeX86);
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(native.private_op_16(&cts), engine.private_op_16(&cts));
        assert_eq!(
            native.private_op_single(&cts[0]),
            engine.private_op_single(&cts[0])
        );
    }
}
