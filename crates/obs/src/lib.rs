//! # pythia-obs
//!
//! The workspace's telemetry core: hand-rolled and dependency-free so any
//! crate can use it without cycles (this crate depends on nothing, not
//! even the vendored shims).
//!
//! The pieces, and who uses them:
//!
//! * [`metrics`] — monotonic [`metrics::Counter`]s, [`metrics::Gauge`]s,
//!   and log2-bucketed [`metrics::Histogram`]s with p50/p95/p99
//!   summaries, grouped under an explicit [`metrics::Registry`] that is
//!   *threaded through call sites* — there are no globals anywhere in
//!   this crate. `pythia-serve` registers every service number here:
//!   scheduler and connection events, state gauges, per-route request
//!   latency, cell queue-wait/execution, and journal fsync instruments.
//! * [`window`] — a windowed time-series recorder: fixed-width windows
//!   along a monotonic position axis (e.g. retired instructions), each
//!   emitting one row of named samples. `pythia-sim` drives one per core
//!   for `pythia-cli run --telemetry-json`.
//! * [`logger`] — a leveled structured logger emitting one JSON object
//!   per line (`ts`, `level`, `target`, `msg`, then fields).
//!   `pythia-serve` routes its diagnostics through it.
//! * [`prom`] — Prometheus text exposition: [`prom::render`] over a
//!   [`metrics::Registry`] (its only input) and a [`prom::lint`]
//!   checker used by tests and CI to validate `GET /metrics?format=prom`.
//!
//! Telemetry is strictly observational: nothing in this crate feeds back
//! into simulation state, and the workspace pins `SimReport`s
//! byte-identical with telemetry on vs. off.

pub mod logger;
pub mod metrics;
pub mod prom;
pub mod window;

pub use logger::{Level, Logger};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use window::{WindowRecorder, WindowRow};
