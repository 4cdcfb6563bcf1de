//! # pythia-stats
//!
//! Metrics and reporting for the Pythia reproduction: the performance /
//! coverage / overprediction formulas of Appendix A.6, aggregation helpers
//! (geometric means, per-suite grouping), and plain-text table / series
//! renderers used by the experiment harness to print paper-shaped output.

pub mod json;
pub mod metrics;
pub mod report;

pub use json::Json;
pub use metrics::{geomean, speedup, Metrics};
pub use report::{ascii_series, Table};
