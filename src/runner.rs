//! High-level experiment runner: build a system, attach prefetchers by
//! name, and run the paper's warmup/measure methodology.
//!
//! This is the API the examples, the integration tests and the
//! `pythia-sweep` experiment-campaign engine are written against. The
//! figure registry in `pythia-bench` declares grids as
//! `pythia_sweep::SweepSpec`s that expand into
//! [`run_sources`]/[`run_sources_with`] jobs executed on [`run_parallel`]
//! (the in-process stand-in for the paper's slurm fan-out, §A.5), so
//! regenerating the whole evaluation is an embarrassingly parallel,
//! machine-checkable operation.
//!
//! Simulations are fed by `pythia_sim::trace::TraceSource` streams —
//! workload generators ([`pythia_workloads::Workload::source`]) or trace
//! files (`pythia_sim::trace::FileTraceSource`) — so no path in the
//! runner ever materializes a full trace; peak memory is independent of
//! trace length.
//!
//! For a grid over workloads, prefetchers or configurations — and for
//! JSON/CSV artifacts — reach for `pythia-sweep`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pythia_core::{Pythia, PythiaConfig};
use pythia_prefetchers::{multi::Multi, registry, stride::StridePrefetcher};
use pythia_sim::config::SystemConfig;
use pythia_sim::prefetch::Prefetcher;
use pythia_sim::stats::SimReport;
use pythia_sim::system::System;
use pythia_sim::trace::TraceSource;
use pythia_workloads::Workload;

/// The Pythia variants, by name; every other name is a registry baseline.
///
/// * `"pythia"` — the Table 2 configuration with the re-derived learning
///   rate ([`PythiaConfig::tuned`])
/// * `"pythia_strict"` — §6.6.1 reward customization
/// * `"pythia_bw_oblivious"` — §6.3.3 ablation
/// * `"stride+pythia"` — the multi-level configuration of §6.2.4
const VARIANTS: &[(&str, registry::Constructor)] = &[
    ("pythia", |seed| pythia(PythiaConfig::tuned(), seed)),
    ("pythia_strict", |seed| pythia(PythiaConfig::strict(), seed)),
    ("pythia_bw_oblivious", |seed| {
        pythia(PythiaConfig::bandwidth_oblivious(), seed)
    }),
    ("stride+pythia", |seed| {
        Box::new(Multi::new(vec![
            Box::new(StridePrefetcher::default()),
            pythia(PythiaConfig::tuned(), seed),
        ]))
    }),
];

fn pythia(config: PythiaConfig, seed: u64) -> Box<dyn Prefetcher> {
    Box::new(Pythia::new(config.with_seed(seed)))
}

/// Every name [`build_prefetcher`] accepts: the registry's baselines, then
/// the Pythia variants (the list `pythia-cli list` prints).
pub fn prefetcher_names() -> impl Iterator<Item = &'static str> {
    registry::available().chain(VARIANTS.iter().map(|&(name, _)| name))
}

/// Builds any prefetcher in the workspace by name: every baseline from
/// [`pythia_prefetchers::registry`] plus the Pythia variants.
///
/// Returns `None` for unknown names; see [`prefetcher_names`].
pub fn build_prefetcher(name: &str, seed: u64) -> Option<Box<dyn Prefetcher>> {
    let variant = VARIANTS.iter().find(|&&(n, _)| n == name);
    variant.map_or_else(|| registry::build(name, seed), |(_, make)| Some(make(seed)))
}

/// Warmup/measure instruction budgets (the paper's §5 methodology scaled to
/// synthetic traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// System configuration.
    pub system: SystemConfig,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
}

impl RunSpec {
    /// Single-core default: 50 K warmup + 200 K measured (the paper uses
    /// 100 M + 500 M on real traces; the synthetic patterns reach steady
    /// state much sooner).
    pub fn single_core() -> Self {
        Self {
            system: SystemConfig::single_core(),
            warmup: 50_000,
            measure: 200_000,
        }
    }

    /// `n`-core default with the Table 5 channel scaling.
    pub fn multi_core(n: usize) -> Self {
        Self {
            system: SystemConfig::with_cores(n),
            warmup: 25_000,
            measure: 100_000,
        }
    }

    /// Overrides the system configuration.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Overrides the instruction budgets.
    pub fn with_budget(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Trace length covering the whole run (warmup + measured phase) —
    /// the length [`run_workload`] streams per core.
    pub fn trace_len(&self) -> usize {
        (self.warmup + self.measure) as usize
    }
}

/// Runs one workload on a single-core (or the spec's) system with the named
/// prefetcher, streaming the trace on demand.
///
/// # Panics
///
/// Panics if `prefetcher` is unknown (see [`build_prefetcher`]).
pub fn run_workload(workload: &Workload, prefetcher: &str, spec: &RunSpec) -> SimReport {
    assert_eq!(
        spec.system.cores, 1,
        "run_workload is single-core; use run_sources"
    );
    run_sources(vec![workload.source(spec.trace_len())], prefetcher, spec)
}

/// Runs raw trace sources (one per core) with the named prefetcher.
/// Sources can be streaming generators ([`Workload::source`]), trace
/// files (`pythia_sim::trace::FileTraceSource`), or in-memory traces
/// (`pythia_sim::trace::VecSource`).
pub fn run_sources(
    sources: Vec<Box<dyn TraceSource>>,
    prefetcher: &str,
    spec: &RunSpec,
) -> SimReport {
    let mut system = build_system(sources, prefetcher, spec);
    system.run(spec.warmup, spec.measure)
}

/// The system [`run_sources`] runs: the named prefetcher on every core,
/// seeded per core. Public so that a caller can do more than run it —
/// run it through `pythia_sim::system::run_windowed` instead of
/// [`System::run`] (`pythia-cli run --telemetry-json`), drive it with
/// [`System::advance`], or hold the clock around `run` alone
/// (`pythia-perf`'s `sim_step` ladder).
///
/// # Panics
///
/// Panics on an unknown prefetcher name.
pub fn build_system(
    sources: Vec<Box<dyn TraceSource>>,
    prefetcher: &str,
    spec: &RunSpec,
) -> System {
    let name = prefetcher.to_string();
    System::with_prefetchers(spec.system, sources, move |core| {
        build_prefetcher(&name, 0x517e_a5e5 ^ core as u64)
            .unwrap_or_else(|| panic!("unknown prefetcher {name:?}"))
    })
}

/// Runs raw trace sources with per-core prefetchers built by `factory`.
pub fn run_sources_with(
    sources: Vec<Box<dyn TraceSource>>,
    spec: &RunSpec,
    factory: impl Fn(usize) -> Box<dyn Prefetcher>,
) -> SimReport {
    let mut system = System::with_prefetchers(spec.system, sources, factory);
    system.run(spec.warmup, spec.measure)
}

/// Runs `jobs` closures on up to `threads` worker threads and returns their
/// results in input order. Each job is an independent simulation, so the
/// experiment harness parallelizes across (workload × prefetcher) pairs —
/// the in-process stand-in for the paper's slurm fan-out (§A.5).
pub fn run_parallel<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send>>, threads: usize) -> Vec<T> {
    assert!(threads > 0, "need at least one worker thread");
    let n = jobs.len();
    let jobs: Vec<_> = jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Workers claim jobs in input order through one shared index. It
    // publishes nothing (each job and result sits behind its own lock, and
    // the scope joins every worker), so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let job = job.lock().expect("no poisoned workers").take();
                let value = job.expect("each job is claimed once")();
                *results[i].lock().expect("no poisoned workers") = Some(value);
            });
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("no poisoned workers")
                .expect("every job ran")
        })
        .collect()
}
