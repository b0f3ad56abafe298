//! End-to-end and per-layer benchmark of the PhiOpenSSL stack.
//!
//! ```text
//! phi-e2e-bench --workload <tls-2048|offload-1024|batch-2048>
//!               --seed <n> --seconds <s> --trace <0|1>
//! phi-e2e-bench --selftest [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run prints a human summary on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--selftest` checks that modeled figures
//! repeat bit-for-bit at a fixed seed. See README.md for every workload
//! and metric, and for why `BENCHMARK.json` lists only `tls-2048` and
//! `offload-1024`.

mod fixture;
mod layers;
mod report;
mod service;
mod tls;

use report::Outcome;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["tls-2048", "offload-1024", "batch-2048"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    Some(match workload {
        "tls-2048" => tls::run(seed, seconds, trace),
        "offload-1024" => service::run_offload(seed, seconds, trace),
        "batch-2048" => service::run_batch(seed, seconds, trace),
        _ => return None,
    })
}

/// Same seed twice must give bit-identical modeled figures on the two
/// workloads whose modeled cost does not follow host speed; a second
/// seed must stay within `modeled_us_per_req`'s bound.
fn selftest(seed: u64, seconds: f64) -> bool {
    /// The bound of `modeled_us_per_req` in BENCHMARK.json.
    const BOUND: f64 = 0.25;
    let mut pass = true;
    for workload in ["tls-2048", "batch-2048"] {
        let modeled = |s| {
            let out = run(workload, s, seconds, false).expect("known workload");
            if !out.correct() {
                eprintln!(
                    "{workload} seed {s}: run not correct: {:?}",
                    out.check_failures
                );
            }
            (
                out.correct(),
                out.get("modeled_us_per_req").expect("reported"),
            )
        };
        let (ok_a, a) = modeled(seed);
        let (ok_b, b) = modeled(seed);
        let (ok_c, c) = modeled(seed + 1);
        let same = a.to_bits() == b.to_bits();
        let near = ((c - a) / a).abs() <= BOUND;
        eprintln!(
            "{workload}: seed {seed} -> {a} and {b} ({}); seed {} -> {c} ({:+.4}%, {})",
            if same { "bit-identical" } else { "DIFFER" },
            seed + 1,
            (c - a) / a * 100.0,
            if near { "within bound" } else { "OUT OF BOUND" },
        );
        pass &= ok_a && ok_b && ok_c && same && near;
    }
    pass
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        let pass = selftest(args.seed, args.seconds);
        eprintln!("selftest {}", if pass { "passed" } else { "FAILED" });
        return if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload is required ({})", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    let Some(out) = run(&workload, args.seed, args.seconds, args.trace) else {
        eprintln!(
            "error: unknown workload {workload} ({})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!("{workload} seed {} on {cores} host cores", args.seed);
    for m in &out.metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.check_failures {
        eprintln!("CHECK FAILED: {f}");
    }
    eprintln!(
        "attempted {} failed {} failed_frac {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", out.to_json_line());
    ExitCode::SUCCESS
}
