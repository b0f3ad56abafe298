//! The result line and the sample statistics every workload shares.

use phi_trace::json::Value;
use phi_trace::stats::percentile;

/// Set-ups per run, half before the measured window and half after it,
/// so that `setup_s`, their median, spans more than one phase of host
/// speed.
pub const SETUP_REPS: usize = 8;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run hands back: request counts, the correctness verdict and
/// the metrics of the channel that was asked for.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests offered (handshakes started, ciphertexts submitted).
    pub attempted: u64,
    /// Requests that errored, were rejected or returned a wrong answer.
    pub failed: u64,
    /// Requests that returned a wrong answer (a subset of `failed`).
    pub wrong: u64,
    /// Self-checks that failed (accounting, determinism, generator).
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed self-check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Every answer returned was right and every self-check held. A
    /// rejected or errored request is a failure, not a wrong output.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.check_failures.is_empty()
    }

    /// The single JSON object the run prints as its last line.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_string_compact()
    }
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=1).
pub fn pct(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}
