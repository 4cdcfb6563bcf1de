//! # pythia-sweep
//!
//! The declarative experiment-campaign engine behind every figure/table
//! harness of the Pythia reproduction.
//!
//! The paper's evaluation is ~20 figures and tables, each a grid of
//! *(workloads × prefetchers × system configurations × seeds)* simulations
//! followed by an aggregation (geomeans per suite, pivots per bandwidth
//! point, ...). Instead of 22 hand-rolled serial loops, a harness describes
//! its grid once as a [`SweepSpec`]:
//!
//! * [`WorkUnit`] — a single workload or an `n`-core mix,
//! * [`PrefetcherSpec`] — a registry prefetcher name or an inline
//!   [`pythia_core::PythiaConfig`] variant (for ablations and DSE),
//! * [`ConfigPoint`] — a labelled system configuration plus warmup/measure
//!   budgets (the swept axis of the Fig. 8 sensitivity studies),
//! * a baseline prefetcher every cell is compared against (Appendix A.6).
//!
//! There is one path from a spec to a result — plan → execute → merge:
//! [`plan_campaign`] expands the grid (one panel or several) into
//! independent simulation jobs plus the table of output rows, the jobs run
//! — in any order, anywhere — and [`CampaignPlan::merge_cells`] turns
//! their reports into a [`SweepResult`]: one typed [`CellResult`] per grid
//! cell, in a deterministic grid order that is **independent of the
//! worker thread count and of execution order** (the determinism tests pin
//! parallel == serial == shuffled, byte for byte). [`run`] and
//! [`engine::run_all`] are that path on the
//! [`pythia::runner::run_parallel`] worker pool — the in-process stand-in
//! for the paper's slurm fan-out (§A.5); `pythia-serve` drives the same
//! plan one cell at a time.
//!
//! Results render as markdown ([`SweepResult::to_markdown`]), JSON
//! ([`SweepResult::to_json`] — the `BENCH_*.json` data source) and CSV
//! ([`SweepResult::to_csv`]), and aggregate through the combinators in
//! [`agg`] ([`SweepResult::pivot`], [`SweepResult::aggregate`],
//! [`SweepResult::weighted_coverage`]).
//!
//! # Example
//!
//! ```rust
//! use pythia_sweep::{ConfigPoint, Key, SweepSpec, Value};
//! use pythia_workloads::all_suites;
//!
//! let pool = all_suites();
//! let spec = SweepSpec::new("demo")
//!     .with_workloads(pool.iter().filter(|w| w.name.contains("mcf")).cloned())
//!     .with_prefetchers(&["stride"])
//!     .with_config(ConfigPoint::single_core("base", 1_000, 4_000));
//! let result = pythia_sweep::run(&spec, 2).expect("valid spec");
//! let table = result.pivot(Key::Unit, Key::Prefetcher, Value::Speedup);
//! assert!(!table.is_empty());
//! ```

//!
//! Campaigns are **content-addressable**: [`codec`] gives every spec one
//! canonical serialized form plus an FNV-1a digest, and [`store`] maps
//! digests to result artifacts (files, or the heap), so identical
//! campaigns cost one simulation — the engine under `pythia-serve` and
//! the one-shot `pythia-cli sweep --cache-dir` path.

pub mod agg;
pub mod codec;
pub mod engine;
pub mod result;
pub mod spec;
pub mod store;

pub use agg::{Key, Value};
pub use codec::Campaign;
pub use engine::{plan_campaign, run, CampaignPlan, CellJob};
pub use result::{CellResult, RawSummary, SweepResult};
pub use spec::{ConfigPoint, PrefetcherKind, PrefetcherSpec, SweepSpec, WorkUnit};
pub use store::{run_campaign, ResultStore, StoreStats};
