//! Per-layer timing: a call-timing `Libcrypto` wrapper for use inside
//! handshakes, and direct probes of each layer's public entry points at
//! the workload's key.

use crate::fixture::Fixture;
use crate::report::{median, Outcome};
use phi_bigint::{BigIntError, BigUint};
use phi_mont::{ExpPolicy, ExpStrategy, Libcrypto, ModulusSession, MontEngine, OpensslBaseline};
use phi_rsa::RsaOps;
use phi_simd::cost::CostModel;
use phi_simd::count::{self, OpCounts};
use phiopenssl::{BatchCrtEngine, BatchMont, MontVariant, PhiConfig, PhiLibrary, VMontCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Modeled single-thread KNC cycles of counted work.
pub fn cycles(ops: &OpCounts) -> f64 {
    CostModel::knc().single_thread_cycles(ops)
}

/// Modeled single-thread KNC seconds of counted work.
pub fn modeled_seconds(ops: &OpCounts) -> f64 {
    CostModel::knc().single_thread_seconds(ops)
}

/// Wall time one side of a handshake spent inside its library, split
/// into Montgomery session set-up and arithmetic.
#[derive(Default)]
pub struct LibTime {
    setup: AtomicU64,
    compute: AtomicU64,
}

impl LibTime {
    fn add(acc: &AtomicU64, since: Instant) {
        acc.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// `(setup, compute)` in seconds.
    pub fn seconds(&self) -> (f64, f64) {
        let s = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 * 1e-9;
        (s(&self.setup), s(&self.compute))
    }
}

/// A [`Libcrypto`] that forwards to `inner` and adds the wall time of
/// its session set-ups and its arithmetic to a [`LibTime`].
pub struct Timed {
    inner: Box<dyn Libcrypto>,
    time: Arc<LibTime>,
}

impl Timed {
    pub fn new(inner: Box<dyn Libcrypto>, time: Arc<LibTime>) -> Self {
        Timed { inner, time }
    }
}

/// Engine view of a wrapped session, so the timed session keeps the
/// inner library's Montgomery engine for direct domain work.
struct SessionEngine(Arc<ModulusSession>);

impl MontEngine for SessionEngine {
    fn modulus(&self) -> &BigUint {
        self.0.engine().modulus()
    }
    fn r_bits(&self) -> u32 {
        self.0.engine().r_bits()
    }
    fn to_mont(&self, a: &BigUint) -> BigUint {
        self.0.engine().to_mont(a)
    }
    fn from_mont(&self, a: &BigUint) -> BigUint {
        self.0.engine().from_mont(a)
    }
    fn one_mont(&self) -> BigUint {
        self.0.engine().one_mont()
    }
    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.0.engine().mont_mul(a, b)
    }
    fn mont_sqr(&self, a: &BigUint) -> BigUint {
        self.0.engine().mont_sqr(a)
    }
}

impl Libcrypto for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn big_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let t = Instant::now();
        let r = self.inner.big_mul(a, b);
        LibTime::add(&self.time.compute, t);
        r
    }

    fn make_engine(&self, n: &BigUint) -> Result<Box<dyn MontEngine + Send + Sync>, BigIntError> {
        self.inner.make_engine(n)
    }

    fn strategy_for(&self, bits: u32) -> ExpStrategy {
        self.inner.strategy_for(bits)
    }

    fn with_modulus(&self, n: &BigUint) -> Result<ModulusSession, BigIntError> {
        let t = Instant::now();
        let session = Arc::new(self.inner.with_modulus(n)?);
        LibTime::add(&self.time.setup, t);
        let (inner, time) = (Arc::clone(&session), Arc::clone(&self.time));
        Ok(ModulusSession::new(
            self.inner.name(),
            Box::new(SessionEngine(session)),
            ExpPolicy::Custom(Box::new(move |base, exp| {
                let t = Instant::now();
                let r = inner.mod_exp(base, exp);
                LibTime::add(&time.compute, t);
                r
            })),
        ))
    }
}

/// Seconds per call of `f`, one sample per call.
fn samples<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// The card engine exactly as `RsaBatchService::new_fleet` builds it
/// from `phi`, for replaying service flushes and probing the kernel.
pub fn card_engine(fx: &Fixture, phi: &PhiConfig) -> BatchCrtEngine {
    let k = &fx.key;
    BatchCrtEngine::from_parts_with_backend(
        k.public().n().clone(),
        k.dp().clone(),
        k.dq().clone(),
        k.qinv().clone(),
        k.p().clone(),
        k.q().clone(),
        phi.backend.resolve(),
    )
    .expect("fixture key builds an engine")
    .with_window(phi.window)
    .with_variant(phi.mont_variant)
    .with_tuning(phi.tuning)
}

/// The verified service's release check on up to sixteen `(c, m)`
/// pairs, shaped like its integrity hook (one `BatchMont` per check).
pub fn release_check(ctx: &VMontCtx, e: &BigUint, pairs: &[(BigUint, BigUint)]) -> Vec<bool> {
    let mont = BatchMont::with_variant(ctx, MontVariant::Auto);
    let mut bases = vec![BigUint::zero(); 16];
    let mut expected = vec![BigUint::zero(); 16];
    for (lane, (m, c)) in pairs.iter().enumerate() {
        bases[lane] = m.clone();
        expected[lane] = c.clone();
    }
    let mut verdicts = mont.pow_eq_16(&bases, e, &expected);
    verdicts.truncate(pairs.len());
    verdicts
}

/// Time and count the public entry points of `core` and `hash` at the
/// fixture key, and check `rsa` and `mont`; `card` is the service's
/// kernel config.
/// Returns the op counts per batched request (kernel plus release
/// check) for the `simd.*` metrics.
pub fn probe(fx: &Fixture, card: &PhiConfig, out: &mut Outcome) -> OpCounts {
    let key = &fx.key;
    let (m0, c0) = fx.pair(0);
    let half = c0.rem_ref(key.p()).expect("prime modulus is nonzero");

    // core: one vectorized Montgomery product at the CRT half width.
    let ctx_p = VMontCtx::new(key.p()).expect("odd prime");
    let (a, b) = (ctx_p.to_mont_vec(&half), ctx_p.to_mont_vec(m0));
    const CHUNK: usize = 200;
    let per_chunk = samples(15, || {
        for _ in 0..CHUNK {
            std::hint::black_box(ctx_p.mont_mul_vec(&a, &b));
        }
    });
    out.push(
        "core.vmont_mul_ns",
        median(&per_chunk) / CHUNK as f64 * 1e9,
        "ns",
    );
    let (_, ops) = count::measure(|| ctx_p.mont_mul_vec(&a, &b));
    out.push("core.vmont_mul_cycles", cycles(&ops), "cycles");

    // core: the single-op fixed-window ladder over one CRT half.
    let session = PhiLibrary::default()
        .with_modulus(key.p())
        .expect("odd prime");
    let expect_half = session.mod_exp(&half, key.dp());
    let t = samples(5, || session.mod_exp(&half, key.dp()));
    out.push("core.modexp_ms", median(&t) * 1e3, "ms");
    let (r, ops) = count::measure(|| session.mod_exp(&half, key.dp()));
    out.check(r == expect_half, || {
        "core modexp is not deterministic".into()
    });
    out.push("core.modexp_cycles", cycles(&ops), "cycles");

    // core: the 16-lane batch CRT pass and the batched release check.
    let engine = card_engine(fx, card);
    let lanes: Vec<(BigUint, BigUint)> = (0..16).map(|i| fx.pair(i).clone()).collect();
    let cts: Vec<BigUint> = lanes.iter().map(|(_, c)| c.clone()).collect();
    let t = samples(3, || engine.private_op_masked(&cts));
    out.push("core.batch16_ms", median(&t) * 1e3, "ms");
    let (ms, batch_ops) = count::measure(|| engine.private_op_masked(&cts));
    out.check(lanes.iter().map(|(m, _)| m).eq(ms.iter()), || {
        "batch16 probe returned a wrong plaintext".into()
    });
    out.push("core.batch16_cycles", cycles(&batch_ops), "cycles");
    let ctx_n = VMontCtx::new(key.public().n()).expect("odd modulus");
    let e = key.public().e();
    let t = samples(5, || release_check(&ctx_n, e, &lanes));
    out.push("core.pow_eq16_ms", median(&t) * 1e3, "ms");
    let (verdicts, check_ops) = count::measure(|| release_check(&ctx_n, e, &lanes));
    out.check(verdicts.iter().all(|&ok| ok), || {
        "pow_eq_16 rejected a correct plaintext".into()
    });
    out.push("core.pow_eq16_cycles", cycles(&check_ops), "cycles");

    // rsa and mont: answers, and the private op's modeled cost on a warm
    // session cache; their times are taken inside handshakes
    // (`tls::ssl_layer`).
    let ops = RsaOps::new(Box::new(PhiLibrary::default()));
    let m = ops.private_op(key, c0);
    out.check(matches!(&m, Ok(m) if m == m0), || {
        "rsa private op returned a wrong plaintext".into()
    });
    let (_, rsa_ops) = count::measure(|| ops.private_op(key, c0));
    out.push("rsa.private_op_cycles", cycles(&rsa_ops), "cycles");
    let client = RsaOps::new(Box::new(OpensslBaseline));
    let c = client.public_op(key.public(), m0);
    out.check(matches!(&c, Ok(c) if c == c0), || {
        "public op returned a wrong ciphertext".into()
    });

    // hash: the PRF work of one full handshake.
    out.push("hash.prf_us", prf_seconds_per_handshake() * 1e6, "us");

    let mut per_req = batch_ops;
    per_req.accumulate(&check_ops);
    per_req
}

/// Median wall seconds of the PRF calls one full handshake makes: the
/// master secret on each side, plus each side's own and its peer's
/// Finished verify data.
pub fn prf_seconds_per_handshake() -> f64 {
    use phi_hash::prf;
    let (pre, cr, sr, transcript_hash) = ([3u8; 48], [1u8; 32], [2u8; 32], [7u8; 32]);
    let t = samples(101, || {
        let mut master = Vec::new();
        for _ in 0..2 {
            master = prf::master_secret(&pre, &cr, &sr);
        }
        for label in [b"client finished", b"server finished"] {
            for _ in 0..2 {
                std::hint::black_box(prf::prf_tls12(&master, label, &transcript_hash, 12));
            }
        }
    });
    median(&t)
}
