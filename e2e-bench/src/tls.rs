//! `tls-2048`: closed-loop full RSA handshakes, one server/client pair
//! per connection, on the paper's single-op server path.

use crate::fixture::{self, parse_key, Fixture};
use crate::layers::{self, modeled_seconds, LibTime, Timed};
use crate::report::{mean, median, Outcome, SETUP_REPS};
use crate::service;
use phi_mont::{Libcrypto, OpensslBaseline};
use phi_rsa::{RsaOps, RsaPrivateKey};
use phi_simd::count::{self, OpCounts};
use phi_ssl::driver::drive_handshake;
use phi_ssl::{Client, Server};
use phiopenssl::PhiLibrary;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BITS: u32 = 2048;
/// Handshakes whose modeled cost is read: a seed-fixed set, so
/// `modeled_us_per_req` repeats bit-for-bit at a fixed seed.
pub const MODELED_PREFIX: usize = 16;
/// A handshake slower than this does not count toward `goodput_frac`.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// Seconds inside the server's and the client's library, each as
/// `(session set-up, arithmetic)`.
type LibSplit = [(f64, f64); 2];

/// One handshake as the client thread saw it.
struct Hs {
    wall: f64,
    /// Completed with both sides agreeing on the master secret.
    ok: bool,
    /// Completed, but the two sides derived different master secrets.
    wrong: bool,
    flights: usize,
    ops: OpCounts,
    /// Wall seconds inside the libraries (timed handshakes only).
    lib: Option<LibSplit>,
    /// Gap between the previous handshake's end and this one's start.
    late: f64,
}

fn lib(inner: Box<dyn Libcrypto>, timer: Option<&Arc<LibTime>>) -> RsaOps {
    match timer {
        Some(time) => RsaOps::new(Box::new(Timed::new(inner, Arc::clone(time)))),
        None => RsaOps::new(inner),
    }
}

/// One full handshake with fresh per-connection state; checks that both
/// sides derived the same master secret.
fn handshake(key: &RsaPrivateKey, rng: &mut StdRng, timed: bool) -> Hs {
    let timers = timed.then(|| (Arc::new(LibTime::default()), Arc::new(LibTime::default())));
    let start = Instant::now();
    let ((completed, ok, flights), ops) = count::measure(|| {
        let server_ops = lib(
            Box::new(PhiLibrary::default()),
            timers.as_ref().map(|t| &t.0),
        );
        let client_ops = lib(Box::new(OpensslBaseline), timers.as_ref().map(|t| &t.1));
        let mut server = Server::new(rng, key.clone(), server_ops);
        let mut client = Client::new(rng, client_ops);
        match drive_handshake(rng, &mut server, &mut client) {
            Ok(o) => {
                let agreed = !o.master_secret.is_empty()
                    && server.master_secret() == client.master_secret()
                    && o.master_secret == client.master_secret();
                (true, agreed, o.flights)
            }
            Err(_) => (false, false, 0),
        }
    });
    let wall = start.elapsed().as_secs_f64();
    Hs {
        wall,
        ok,
        wrong: completed && !ok,
        flights,
        ops,
        lib: timers.map(|(server, client)| [server.seconds(), client.seconds()]),
        late: 0.0,
    }
}

struct Loop {
    /// Handshakes in issue order.
    hs: Vec<Hs>,
    elapsed: f64,
}

/// A closed loop on this thread until `window` has passed and at least
/// `min` handshakes ran; with `alternate`, every other handshake runs
/// with the timing wrapper so traced and untraced ones interleave.
fn run_loop(key: &RsaPrivateKey, seed: u64, window: Duration, min: usize, alternate: bool) -> Loop {
    let start = Instant::now();
    let mut rng = fixture::rng(seed, 0x75);
    let mut hs: Vec<Hs> = Vec::new();
    let mut prev_end = start;
    while hs.len() < min || start.elapsed() < window {
        let late = prev_end.elapsed().as_secs_f64();
        let mut h = handshake(key, &mut rng, alternate && hs.len() % 2 == 1);
        prev_end = Instant::now();
        h.late = late;
        hs.push(h);
    }
    Loop {
        hs,
        elapsed: start.elapsed().as_secs_f64(),
    }
}

/// Key bytes to ready-to-serve: parse, then one warm-up handshake.
fn setup_once(fx: &Fixture, seed: u64) -> (RsaPrivateKey, f64, bool) {
    let t = Instant::now();
    let key = parse_key(&fx.pem);
    let mut rng = fixture::rng(seed, 0x5E);
    let ok = handshake(&key, &mut rng, false).ok;
    (key, t.elapsed().as_secs_f64(), ok)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let fx = Fixture::new(seed, BITS, 16);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut setup = |out: &mut Outcome| {
        let (key, secs, ok) = setup_once(&fx, seed);
        out.check(ok, || "warm-up handshake failed".into());
        setups.push(secs);
        key
    };
    let mut key = setup(&mut out);
    for _ in 1..SETUP_REPS / 2 {
        key = setup(&mut out);
    }

    let window = Duration::from_secs_f64(seconds);
    // One client thread, one fewer than the reference host's two cores:
    // with two, every other process preempted a handshake and the tail
    // measured co-tenant scheduling rather than the code.
    let lp = run_loop(&key, seed, window, MODELED_PREFIX, trace);
    for _ in SETUP_REPS / 2..SETUP_REPS {
        setup(&mut out);
    }
    let all = &lp.hs;
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|h| !h.ok).count() as u64;
    out.wrong = all.iter().filter(|h| h.wrong).count() as u64;

    // Modeled cost is read on the client thread, where both sides of
    // each handshake ran; only the seed-fixed prefix is summed.
    let prefix = &all[..MODELED_PREFIX];
    let modeled_s: f64 = prefix.iter().map(|h| modeled_seconds(&h.ops)).sum();
    let modeled_us = modeled_s / prefix.len() as f64 * 1e6;

    if trace {
        let card = service::card_config();
        layers::probe(&fx, &card, &mut out);
        ssl_layer(&lp, &mut out);
        let n = prefix.len() as f64;
        let vec_ops: u64 = prefix.iter().map(|h| h.ops.total_vector_ops()).sum();
        let scalar_ops: u64 = prefix.iter().map(|h| h.ops.total_scalar_ops()).sum();
        out.push("simd.vec_ops_per_req", vec_ops as f64 / n, "ops/req");
        out.push("simd.scalar_ops_per_req", scalar_ops as f64 / n, "ops/req");
        let late: Vec<f64> = all.iter().map(|h| h.late * 1e3).collect();
        service::gen_layer(&late, &mut out);
        // The runtime layer is idle on this path; its figures come from
        // a short saturated sample of the verified service at this key.
        service::rt_sample(&fx, &mut out);
    } else {
        let lat: Vec<f64> = all.iter().map(|h| h.wall * 1e3).collect();
        let good = all
            .iter()
            .filter(|h| h.ok && h.wall * 1e3 <= LATENCY_LIMIT_MS)
            .count();
        out.push("throughput_per_s", all.len() as f64 / lp.elapsed, "1/s");
        out.push("latency_mean_ms", mean(&lat), "ms");
        out.push("goodput_frac", good as f64 / all.len() as f64, "frac");
        out.push("modeled_us_per_req", modeled_us, "us");
        out.push("setup_s", median(&setups), "s");
    }
    out
}

/// `rsa`/`mont` times, `ssl.*` and `trace.*` from a loop that
/// alternated timed and untimed handshakes: each timed handshake splits
/// into the server's arithmetic (the private op), both sides' session
/// set-up, the client's arithmetic (the public op), the PRF (probed, in
/// `out` already) and what remains, the `ssl` layer's own time.
fn ssl_layer(lp: &Loop, out: &mut Outcome) {
    let prf_ms = out.get("hash.prf_us").expect("hash probe ran") * 1e-3;
    let ms = |f: &dyn Fn(&Hs, LibSplit) -> f64| -> f64 {
        let v: Vec<f64> = lp
            .hs
            .iter()
            .filter_map(|h| h.lib.map(|l| f(h, l) * 1e3))
            .collect();
        median(&v)
    };
    let private_op = ms(&|_, [srv, _]| srv.1);
    let ctx_setup = ms(&|_, [srv, cli]| srv.0 + cli.0);
    let public_op = ms(&|_, [_, cli]| cli.1);
    let ssl_self = ms(&|h, [srv, cli]| h.wall - srv.0 - srv.1 - cli.0 - cli.1) - prf_ms;
    let timed = ms(&|h, _| h.wall);
    let untimed: Vec<f64> = lp
        .hs
        .iter()
        .filter(|h| h.lib.is_none())
        .map(|h| h.wall * 1e3)
        .collect();
    out.push("rsa.private_op_ms", private_op, "ms");
    out.push("rsa.ctx_setup_ms", ctx_setup, "ms");
    out.push("mont.public_op_ms", public_op, "ms");
    out.push("ssl.self_ms", ssl_self, "ms");
    let flights: Vec<f64> = lp.hs.iter().map(|h| h.flights as f64).collect();
    out.push("ssl.flights_per_hs", mean(&flights), "count");
    out.push("trace.overhead_ms", timed - median(&untimed), "ms");
    let parts = private_op + ctx_setup + public_op + prf_ms + ssl_self;
    out.push("trace.accounting_gap_ms", (timed - parts).abs(), "ms");
}

/// `ssl.*` and `trace.*` for a workload whose request path has no
/// handshake: a short single-thread sample of handshakes at its key.
pub fn ssl_sample(fx: &Fixture, seed: u64, out: &mut Outcome) {
    let key = parse_key(&fx.pem);
    let lp = run_loop(&key, seed, Duration::ZERO, 8, true);
    out.check(lp.hs.iter().all(|h| h.ok), || {
        "sampled handshake failed".into()
    });
    ssl_layer(&lp, out);
}
