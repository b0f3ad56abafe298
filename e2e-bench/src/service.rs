//! `offload-1024` (open loop, Poisson arrivals) and `batch-2048`
//! (saturated closed loop) on one verified single-card offload service.

use crate::fixture::{self, parse_key, Fixture};
use crate::layers::{self, modeled_seconds};
use crate::report::{mean, median, pct, Outcome, SETUP_REPS};
use crate::tls;
use phi_bigint::BigUint;
use phi_rsa::{RsaBatchService, RsaPrivateKey, RsaTicket};
use phi_rt::service::{FlushReason, ServiceConfig};
use phi_rt::{FlushRecord, ResilienceConfig, ResilienceReport};
use phi_simd::cost::CostModel;
use phi_simd::count;
use phiopenssl::{FleetConfig, PhiConfig, Tuning, VMontCtx};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

pub const OFFLOAD_BITS: u32 = 1024;
pub const BATCH_BITS: u32 = 2048;
/// Open-loop arrival rate: a fixed absolute number, about a sixth of
/// the saturated capacity of the seed code's verified 1024-bit service
/// on the reference host in its slow phase (16 lanes per ~25 ms pass).
/// It never scales with measured capacity.
pub const OFFLOAD_RATE_PER_S: f64 = 100.0;
/// Flush deadline of the open loop's service: four times the slow
/// phase's pass, so the worker is idle when a deadline falls due and
/// each flush holds the requests the seed's schedule put in its window.
/// Occupancy, and with it `modeled_us_per_req`, then does not follow
/// host speed.
pub const OFFLOAD_MAX_WAIT_S: f64 = 100e-3;
/// Latency limits for `goodput_frac`.
pub const OFFLOAD_LATENCY_LIMIT_MS: f64 = 250.0;
pub const BATCH_LATENCY_LIMIT_MS: f64 = 2000.0;
/// A request issued later than this behind its schedule counts as the
/// generator falling behind.
pub const GEN_LATE_LIMIT_MS: f64 = 2.0;
/// Full batches the saturated loop keeps outstanding.
const BATCHES_IN_FLIGHT: usize = 3;
/// Full flushes whose modeled cost `batch-2048` reads: a seed-fixed set.
const MODELED_FLUSHES: usize = 4;
const WIDTH: usize = 16;
const POOL: usize = 256;

/// The card configuration both service workloads run: one verified
/// card, kernels from the committed tuning table.
pub fn card_config() -> PhiConfig {
    PhiConfig::builder()
        .fleet(FleetConfig {
            cards: 1,
            ..FleetConfig::default()
        })
        .expect("one card is a valid fleet")
        .verified()
        .tuning(Tuning::Table)
        .build()
}

/// The default resilience policy with flush deadline `max_wait` and
/// room for 16 batches instead of 4: at the open loop's rate a host
/// stall of up to ~2 s then queues rather than rejects. The saturated
/// loop never parks more than 3.
fn resilience(max_wait: f64) -> ResilienceConfig {
    let mut config = ResilienceConfig::default();
    config.service.queue_cap = 16 * WIDTH;
    config.service.max_wait = max_wait;
    config
}

fn start(key: &RsaPrivateKey, max_wait: f64) -> RsaBatchService {
    RsaBatchService::new_fleet(key, &card_config(), resilience(max_wait), Vec::new())
        .expect("fixture key starts a service")
}

/// The saturated loops keep the service's default deadline: their
/// flushes fill before it falls due.
fn default_max_wait() -> f64 {
    ServiceConfig::default().max_wait
}

/// The service's ledgers once they cover `resolved` requests: a ticket
/// resolves inside its flush, before the flush is recorded.
fn settled(svc: &RsaBatchService, resolved: usize) -> ResilienceReport {
    loop {
        let r = svc
            .resilience_report()
            .expect("fleet services are resilient");
        if r.resolved_ops() >= resolved as u64 {
            return r;
        }
        thread::yield_now();
    }
}

fn served(reqs: &[Req]) -> usize {
    reqs.iter().filter(|r| r.done.is_some()).count()
}

/// How late each request was issued behind its due time, in ms.
fn lateness_ms(reqs: &[Req]) -> Vec<f64> {
    reqs.iter()
        .map(|r| (r.issued - r.due).as_secs_f64() * 1e3)
        .collect()
}

/// One request from issue to resolution.
struct Req {
    idx: usize,
    /// When the request should have been issued (schedule, or the
    /// completion that freed its slot in the closed loop).
    due: Instant,
    issued: Instant,
    /// Resolution time; `None` if it was rejected or errored.
    done: Option<Instant>,
    /// Resolved to the fixture's message.
    ok: bool,
    /// Resolved to a different plaintext.
    wrong: bool,
}

impl Req {
    fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due).as_secs_f64() * 1e3)
    }
}

/// Wait for a submitted request (`None`: it was rejected) and check its
/// plaintext against the fixture's known message.
fn resolve(fx: &Fixture, idx: usize, due: Instant, issued: Instant, t: Option<RsaTicket>) -> Req {
    let res = t.map(RsaTicket::wait);
    let done = Instant::now();
    Req {
        idx,
        due,
        issued,
        done: matches!(res, Some(Ok(_))).then_some(done),
        ok: matches!(&res, Some(Ok(m)) if *m == fx.pair(idx).0),
        wrong: matches!(&res, Some(Ok(m)) if *m != fx.pair(idx).0),
    }
}

fn submit(svc: &RsaBatchService, fx: &Fixture, idx: usize) -> Option<RsaTicket> {
    svc.submit(fx.pair(idx).1.clone()).ok()
}

/// Key bytes to ready-to-serve, `reps` times: parse, start the service
/// (engine, Montgomery contexts, tuning lookup, host fallback, release
/// check), then one full warm-up batch. Keeps the last service.
fn setup(
    fx: &Fixture,
    reps: usize,
    max_wait: f64,
    times: &mut Vec<f64>,
    out: &mut Outcome,
) -> RsaBatchService {
    let mut last: Option<RsaBatchService> = None;
    for _ in 0..reps {
        if let Some(old) = last.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let svc = start(&parse_key(&fx.pem), max_wait);
        let warm: Vec<_> = (0..WIDTH).map(|i| (i, submit(&svc, fx, i))).collect();
        let good = warm
            .into_iter()
            .map(|(i, ticket)| resolve(fx, i, t, t, ticket))
            .filter(|r| r.ok)
            .count();
        times.push(t.elapsed().as_secs_f64());
        out.check(good == WIDTH, || "warm-up batch failed".into());
        last = Some(svc);
    }
    last.expect("at least one set-up")
}

/// Service telemetry between two report snapshots.
struct Window {
    flushes: Vec<FlushRecord>,
    card_s: f64,
    verify_s: f64,
    host_s: f64,
    rejected: u64,
    retries: u64,
    host_ops: u64,
}

impl Window {
    fn between(a: &ResilienceReport, b: &ResilienceReport) -> Window {
        let flushes = b.service.flushes[a.service.flushes.len()..].to_vec();
        Window {
            card_s: flushes.iter().map(|f| f.modeled_seconds).sum(),
            flushes,
            verify_s: b.verify_modeled_seconds - a.verify_modeled_seconds,
            host_s: b.host_modeled_seconds - a.host_modeled_seconds,
            rejected: b.service.rejected - a.service.rejected,
            retries: b.retries - a.retries,
            host_ops: b.host_fallback_ops - a.host_fallback_ops,
        }
    }

    fn ops(&self) -> u64 {
        self.flushes.iter().map(|f| f.occupancy as u64).sum::<u64>() + self.host_ops
    }

    /// Modeled single-thread KNC µs per resolved request.
    fn modeled_us_per_op(&self) -> f64 {
        (self.card_s + self.verify_s + self.host_s) / self.ops() as f64 * 1e6
    }
}

/// `rt.*` from a window and the requests it served, in issue order.
fn rt_layer(w: &Window, reqs: &[Req], out: &mut Outcome) {
    // Flushes are FIFO and full-or-deadline, so the accepted requests
    // map onto the flush records in order; queue wait is sojourn minus
    // the wall time of the pass that carried the request.
    let served: Vec<&Req> = reqs.iter().filter(|r| r.done.is_some()).collect();
    let mut waits = Vec::with_capacity(served.len());
    let mut it = served.iter();
    for f in &w.flushes {
        for r in it.by_ref().take(f.occupancy) {
            let sojourn = (r.done.expect("served") - r.issued).as_secs_f64();
            waits.push((sojourn - f.wall_seconds).max(0.0) * 1e3);
        }
    }
    out.check(waits.len() == served.len(), || {
        format!(
            "{} served requests but flush records hold {}",
            served.len(),
            waits.len()
        )
    });
    out.push("rt.queue_wait_p50_ms", median(&waits), "ms");
    out.push("rt.queue_wait_p99_ms", pct(&waits, 0.99), "ms");
    let occ: Vec<f64> = w.flushes.iter().map(|f| f.occupancy_fraction()).collect();
    out.push("rt.occupancy", mean(&occ), "frac");
    let deadline = w
        .flushes
        .iter()
        .filter(|f| f.reason == FlushReason::Deadline)
        .count();
    out.push(
        "rt.deadline_flush_frac",
        deadline as f64 / w.flushes.len() as f64,
        "frac",
    );
    let walls: Vec<f64> = w.flushes.iter().map(|f| f.wall_seconds * 1e3).collect();
    out.push("rt.flush_wall_ms", median(&walls), "ms");
    out.push("rt.modeled_us_per_op", w.modeled_us_per_op(), "us");
    out.push(
        "rt.verify_share",
        w.verify_s / (w.card_s + w.verify_s),
        "frac",
    );
    out.push("rt.rejected", w.rejected as f64, "count");
    out.push("rt.retries", w.retries as f64, "count");
    out.push("rt.host_fallback_ops", w.host_ops as f64, "count");
}

/// `gen.*` from each request's lateness behind its due time, in ms.
pub fn gen_layer(late: &[f64], out: &mut Outcome) {
    let behind = late.iter().filter(|&&l| l > GEN_LATE_LIMIT_MS).count();
    out.push("gen.late_p99_ms", pct(late, 0.99), "ms");
    out.push("gen.behind_frac", behind as f64 / late.len() as f64, "frac");
}

/// Every per-layer figure that is not on a service path's own record:
/// the layer probes, a handshake sample and the op mix per request.
fn probe_layers(fx: &Fixture, seed: u64, out: &mut Outcome) {
    let per_batch = layers::probe(fx, &card_config(), out);
    tls::ssl_sample(fx, seed, out);
    let lanes = WIDTH as f64;
    out.push(
        "simd.vec_ops_per_req",
        per_batch.total_vector_ops() as f64 / lanes,
        "ops/req",
    );
    out.push(
        "simd.scalar_ops_per_req",
        per_batch.total_scalar_ops() as f64 / lanes,
        "ops/req",
    );
}

fn e2e(out: &mut Outcome, reqs: &[Req], elapsed: f64, limit_ms: f64) {
    let lat: Vec<f64> = reqs.iter().filter_map(Req::latency_ms).collect();
    let good = reqs
        .iter()
        .filter(|r| r.ok && r.latency_ms().is_some_and(|l| l <= limit_ms))
        .count();
    out.push("throughput_per_s", lat.len() as f64 / elapsed, "1/s");
    out.push("latency_mean_ms", mean(&lat), "ms");
    out.push("goodput_frac", good as f64 / reqs.len() as f64, "frac");
}

fn tally(out: &mut Outcome, reqs: &[Req]) {
    out.attempted += reqs.len() as u64;
    out.failed += reqs.iter().filter(|r| !r.ok).count() as u64;
    out.wrong += reqs.iter().filter(|r| r.wrong).count() as u64;
}

/// Seed-fixed Poisson arrival offsets (seconds) over `seconds`.
fn poisson_schedule(seed: u64, seconds: f64) -> Vec<f64> {
    use rand::Rng;
    let mut r = fixture::rng(seed, 0xA221);
    let mut t = 0.0;
    let mut at = Vec::new();
    loop {
        // Uniform in (0, 1] from the top 53 bits.
        let u = ((r.gen::<u64>() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / OFFLOAD_RATE_PER_S;
        if t >= seconds {
            return at;
        }
        at.push(t);
    }
}

pub fn run_offload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let fx = Fixture::new(seed, OFFLOAD_BITS, POOL);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let svc = setup(
        &fx,
        SETUP_REPS / 2,
        OFFLOAD_MAX_WAIT_S,
        &mut setups,
        &mut out,
    );
    let schedule = poisson_schedule(seed, seconds);
    let before = settled(&svc, WIDTH);

    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Option<RsaTicket>)>();
    let reqs: Vec<Req> = thread::scope(|s| {
        let fx = &fx;
        let waiter = s.spawn(move || {
            rx.into_iter()
                .map(|(idx, due, issued, ticket)| resolve(fx, idx, due, issued, ticket))
                .collect()
        });
        for (idx, &at) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(at);
            // Yield instead of sleeping: a parked thread on an idle
            // virtual CPU can wake milliseconds late.
            while Instant::now() < due {
                thread::yield_now();
            }
            let issued = Instant::now();
            let ticket = submit(&svc, fx, idx);
            tx.send((idx, due, issued, ticket)).expect("waiter alive");
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    let elapsed = reqs
        .iter()
        .filter_map(|r| r.done)
        .max()
        .map_or(seconds, |d| (d - start).as_secs_f64());
    let w = Window::between(&before, &settled(&svc, WIDTH + served(&reqs)));
    svc.shutdown();
    setup(
        &fx,
        SETUP_REPS / 2,
        OFFLOAD_MAX_WAIT_S,
        &mut setups,
        &mut out,
    )
    .shutdown();
    tally(&mut out, &reqs);
    debug_assert!(reqs.iter().enumerate().all(|(i, r)| r.idx == i));

    let late = lateness_ms(&reqs);
    let late_p99 = pct(&late, 0.99);
    if late_p99 > GEN_LATE_LIMIT_MS {
        eprintln!(
            "WARNING: open-loop generator fell behind its schedule \
             (late p99 {late_p99:.3} ms > {GEN_LATE_LIMIT_MS} ms); \
             latencies of this run understate queueing"
        );
    }
    if trace {
        rt_layer(&w, &reqs, &mut out);
        gen_layer(&late, &mut out);
        probe_layers(&fx, seed, &mut out);
    } else {
        e2e(&mut out, &reqs, elapsed, OFFLOAD_LATENCY_LIMIT_MS);
        // The deadline, not host speed, sets occupancy (see
        // `OFFLOAD_MAX_WAIT_S`), so this follows the seed's schedule.
        out.push("modeled_us_per_req", w.modeled_us_per_op(), "us");
        out.push("setup_s", median(&setups), "s");
    }
    out
}

/// Saturated closed loop: up to `BATCHES_IN_FLIGHT` full batches
/// outstanding; each resolved batch frees its slot for the next. Runs
/// until `window` has passed and at least `min_batches` (≥ 1) batches
/// were issued. Request indices start at `first`.
fn closed_loop(
    svc: &RsaBatchService,
    fx: &Fixture,
    window: Duration,
    min_batches: usize,
    first: usize,
) -> (Vec<Req>, f64) {
    let start = Instant::now();
    let mut next = first;
    let mut issue = |due: Instant| -> Vec<(usize, Instant, Instant, Option<RsaTicket>)> {
        let batch = (next..next + WIDTH)
            .map(|idx| {
                let issued = Instant::now();
                (idx, due, issued, submit(svc, fx, idx))
            })
            .collect();
        next += WIDTH;
        batch
    };
    let mut inflight: VecDeque<_> = (0..BATCHES_IN_FLIGHT.min(min_batches))
        .map(|_| issue(start))
        .collect();
    let mut issued_batches = inflight.len();
    let mut reqs = Vec::new();
    while let Some(batch) = inflight.pop_front() {
        for (idx, due, issued, ticket) in batch {
            reqs.push(resolve(fx, idx, due, issued, ticket));
        }
        if issued_batches < min_batches || start.elapsed() < window {
            inflight.push_back(issue(Instant::now()));
            issued_batches += 1;
        }
    }
    (reqs, start.elapsed().as_secs_f64())
}

pub fn run_batch(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let fx = Fixture::new(seed, BATCH_BITS, POOL);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let svc = setup(
        &fx,
        SETUP_REPS / 2,
        default_max_wait(),
        &mut setups,
        &mut out,
    );

    // The modeled figure: a seed-fixed run of full flushes, read from
    // the service's own flush records and release-check ledger.
    let a = settled(&svc, WIDTH);
    let (prefix, _) = closed_loop(&svc, &fx, Duration::ZERO, MODELED_FLUSHES, 0);
    let b = settled(&svc, WIDTH + served(&prefix));
    let pw = Window::between(&a, &b);
    tally(&mut out, &prefix);
    out.check(
        pw.flushes.len() == MODELED_FLUSHES
            && pw
                .flushes
                .iter()
                .all(|f| f.occupancy == WIDTH && f.reason == FlushReason::Full),
        || {
            let shape: Vec<_> = pw.flushes.iter().map(|f| (f.reason, f.occupancy)).collect();
            format!("modeled prefix did not run as full flushes: {shape:?}")
        },
    );
    let modeled_us = pw.modeled_us_per_op();
    cross_check(&fx, &pw, &prefix, &mut out);

    let (reqs, elapsed) = closed_loop(
        &svc,
        &fx,
        Duration::from_secs_f64(seconds),
        BATCHES_IN_FLIGHT,
        prefix.len(),
    );
    let w = Window::between(&b, &settled(&svc, WIDTH + served(&prefix) + served(&reqs)));
    svc.shutdown();
    setup(
        &fx,
        SETUP_REPS / 2,
        default_max_wait(),
        &mut setups,
        &mut out,
    )
    .shutdown();
    tally(&mut out, &reqs);
    if trace {
        rt_layer(&w, &reqs, &mut out);
        gen_layer(&lateness_ms(&reqs), &mut out);
        probe_layers(&fx, seed, &mut out);
        // The kernel probe ran on the first prefix flush's lanes.
        let lane_cycles = (out.get("core.batch16_cycles").expect("probed")
            + out.get("core.pow_eq16_cycles").expect("probed"))
            / WIDTH as f64;
        let probe_us = lane_cycles / CostModel::knc().machine().clock_hz * 1e6;
        out.check((probe_us - modeled_us).abs() <= 1e-4 * modeled_us, || {
            format!("modeled {modeled_us} us/req but kernel probes give {probe_us}")
        });
    } else {
        e2e(&mut out, &reqs, elapsed, BATCH_LATENCY_LIMIT_MS);
        out.push("modeled_us_per_req", modeled_us, "us");
        out.push("setup_s", median(&setups), "s");
    }
    out
}

/// Cross-thread accounting check: the modeled cost the service worker
/// recorded for the prefix flushes must equal the batch kernel plus the
/// release check replayed on this thread over the same lanes.
fn cross_check(fx: &Fixture, pw: &Window, prefix: &[Req], out: &mut Outcome) {
    let engine = layers::card_engine(fx, &card_config());
    let ctx = VMontCtx::new(fx.key.public().n()).expect("odd modulus");
    let mut replay = 0.0;
    for lanes in prefix.chunks(WIDTH) {
        let pairs: Vec<(BigUint, BigUint)> = lanes.iter().map(|r| fx.pair(r.idx).clone()).collect();
        let cts: Vec<BigUint> = pairs.iter().map(|(_, c)| c.clone()).collect();
        let (_, card) = count::measure(|| engine.private_op_masked(&cts));
        let (_, check) =
            count::measure(|| layers::release_check(&ctx, fx.key.public().e(), &pairs));
        replay += modeled_seconds(&card) + modeled_seconds(&check);
    }
    let replay_us = replay / prefix.len() as f64 * 1e6;
    let recorded_us = pw.modeled_us_per_op();
    out.check(
        (replay_us - recorded_us).abs() <= 1e-9 * recorded_us,
        || format!("service records {recorded_us} modeled us/op, replay gives {replay_us}"),
    );
}

/// `rt.*` for a workload with no service on its request path: a short
/// saturated sample of the verified service at its key.
pub fn rt_sample(fx: &Fixture, out: &mut Outcome) {
    let svc = start(&parse_key(&fx.pem), default_max_wait());
    let (warm, _) = closed_loop(&svc, fx, Duration::ZERO, 1, 0);
    let a = settled(&svc, served(&warm));
    let (reqs, _) = closed_loop(&svc, fx, Duration::ZERO, 4, warm.len());
    let w = Window::between(&a, &settled(&svc, served(&warm) + served(&reqs)));
    svc.shutdown();
    out.check(warm.iter().chain(&reqs).all(|r| r.ok), || {
        "sampled service returned a wrong plaintext".into()
    });
    rt_layer(&w, &reqs, out);
}
