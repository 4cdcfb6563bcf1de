//! # pythia-workloads
//!
//! Deterministic synthetic workload-trace generators for the Pythia
//! reproduction.
//!
//! The paper evaluates on Pin/championship traces of SPEC CPU2006/2017,
//! PARSEC 2.1, Ligra and Cloudsuite (Table 6) — traces we cannot
//! redistribute or regenerate. Following the substitution policy in
//! DESIGN.md, this crate generates traces that exercise the *pattern
//! classes* those suites exhibit, because prefetcher behaviour (who covers
//! what, who overpredicts) is a function of the access patterns:
//!
//! * [`PatternKind::Stream`] — `libquantum`/`bwaves`-like unit-stride sweeps
//! * [`PatternKind::Stride`] — constant multi-line strides (`milc`-like)
//! * [`PatternKind::PageVisit`] — a PC touches a fixed set of offsets per
//!   page (the `GemsFDTD` {+23}/{+11} case study of §6.5)
//! * [`PatternKind::SpatialFootprint`] — recurring region footprints keyed
//!   by trigger PC (SMS/Bingo-friendly; `sphinx3`, `canneal`, `facesim`)
//! * [`PatternKind::DeltaChain`] — repeating delta sequences inside pages
//!   (SPP-friendly)
//! * [`PatternKind::IrregularGraph`] — frontier-driven CSR traversal with
//!   sequential index reads and random neighbour reads (Ligra-like,
//!   bandwidth-hungry)
//! * [`PatternKind::PointerChase`] — dependent-load chains (`mcf`,
//!   `omnetpp`)
//! * [`PatternKind::CloudMix`] — large-footprint, low-locality server
//!   traffic (Cloudsuite)
//! * [`PatternKind::Phased`] — phase-alternating combinations to exercise
//!   online adaptation
//!
//! [`suites`] names ~50 workloads across the five suites (Table 6) plus the
//! unseen CVP-2-like categories of §6.4, and [`mixes`] builds the
//! homogeneous/heterogeneous multi-programmed mixes of §5.1. [`profiles`]
//! packages the generators into the named `expected` / `stress` /
//! `adversarial` robustness profiles with derived per-trace seeds and
//! streamed JSON summary stats.
//!
//! Traces stream: [`TraceSpec::stream`] / [`Workload::source`] yield
//! records on demand as `pythia_sim::trace::TraceSource`s, so simulated
//! workload length is bounded by time, not RAM; `generate(n)`/`trace(n)`
//! are the collecting conveniences.

pub mod generators;
pub mod profiles;
pub mod suites;

pub use generators::{PatternKind, TraceSpec, TraceStream};
pub use profiles::{derive_seed, profile_stats, trace_stats, Profile, CAMPAIGN_SEED};
pub use suites::{all_suites, mixes, suite, Suite, Workload};
