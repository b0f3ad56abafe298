//! # phi-rt
//!
//! The execution model of the Xeon Phi card for the PhiOpenSSL
//! reproduction: a thread pool with *simulated* core/SMT placement
//! ([`pool`]), the host↔device offload cost model ([`offload`]), and
//! the one offload executor: [`FleetScheduler`] ([`fleet`]) runs N ≥ 1
//! modeled cards, each aggregating requests in a deadline-driven
//! [`Collector`] ([`service`]) and executing flushes through the
//! resilient loop ([`resilient`]: retries, breaker, host fallback and
//! optional verify-on-release via [`verify`]). Telemetry lands in one
//! [`FleetReport`] ([`stats`] holds its per-card parts).
//!
//! Real KNC cards expose 240 hardware threads over 60 in-order cores and
//! are fed over PCIe. This crate runs the work for real on host threads
//! (so results are correct and wall-clock is measurable) while tracking the
//! per-thread instruction counts that the KNC cost model turns into
//! *modeled* card throughput under a chosen affinity
//! ([`AffinityPolicy::Compact`] / [`AffinityPolicy::Scatter`]) — the thread
//! scaling experiment E5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod offload;
pub mod pool;
pub mod resilient;
pub mod service;
pub mod stats;
pub mod verify;

pub use fleet::{
    key_fingerprint, CardSetup, FleetConfig, FleetReport, FleetRouter, FleetScheduler,
    RoutingPolicy,
};
pub use offload::{OffloadBatcher, OffloadModel};
pub use pool::{AffinityPolicy, BatchReport, PhiPool};
pub use resilient::{OffloadError, ResilienceConfig, ResilientHandle};
pub use service::{Batch, Collector, FlushReason, ServiceConfig, SubmitError, Ticket, BATCH_WIDTH};
pub use stats::{FlushRecord, ResilienceReport, ServiceReport, Summary};
pub use verify::{IntegrityHooks, LaneQuarantine, QuarantineConfig};
