//! Campaign planning, execution and merging: the one path from a spec to
//! a result.
//!
//! [`plan_campaign`] is the only code that knows grid order. It walks the
//! panels once, emitting the independent simulations ([`CellJob`]s, in a
//! flat order, each distinct one once) and, beside them, every output row
//! with the flat index of the report it summarizes and of the baseline it
//! is compared against.
//! Executing the jobs in any order, on any number of threads or processes,
//! and handing the reports to [`CampaignPlan::merge_cells`] gives the same
//! bytes. [`run`] and [`run_all`] are that sequence on the
//! [`run_parallel`] pool; `pythia-serve` runs the same plan one cell at a
//! time across tenants.
//!
//! Jobs carry *lazy* trace-source factories: a job owns only the (cheap)
//! workload specs and opens streaming [`TraceSource`]s inside the worker,
//! so neither the queue nor any worker ever holds a materialized trace and
//! per-job peak memory is independent of trace length.

use std::collections::HashMap;

use pythia::runner::{run_parallel, run_sources, run_sources_with};
use pythia_core::Pythia;
use pythia_sim::stats::{SimReport, Throughput};
use pythia_sim::trace::TraceSource;
use pythia_stats::metrics;

use crate::codec::fnv1a_64;
use crate::result::{CellResult, RawSummary, SweepResult};
use crate::spec::{ConfigPoint, PrefetcherKind, PrefetcherSpec, SweepSpec, WorkUnit};

/// Runs one simulation for a grid coordinate, streaming every trace.
fn simulate(unit: &WorkUnit, kind: &PrefetcherKind, config: &ConfigPoint, seed: u64) -> SimReport {
    let spec = config.run_spec();
    let len = (config.warmup + config.measure) as usize;
    let sources: Vec<Box<dyn TraceSource>> = unit
        .workloads
        .iter()
        .map(|w| {
            let mut w = w.clone();
            w.spec.seed = w.spec.seed.wrapping_add(seed);
            w.source(len)
        })
        .collect();
    match kind {
        PrefetcherKind::Named(name) => run_sources(sources, name, &spec),
        PrefetcherKind::Pythia(cfg) => {
            let cfg = cfg.clone();
            run_sources_with(sources, &spec, move |_core| {
                Box::new(Pythia::new(cfg.clone()))
            })
        }
    }
}

/// Executes a sweep across `threads` worker threads and returns its typed
/// result.
///
/// Every simulation in the grid — baselines included — is an independent
/// job on the shared [`run_parallel`] pool; results come back in grid order
/// regardless of scheduling, so the output is byte-identical for any thread
/// count (including 1).
///
/// # Errors
///
/// Returns the first [`SweepSpec::validate`] error, or the
/// [`CampaignPlan::merge_cells`] error of a baseline that saw no LLC load
/// miss.
pub fn run(spec: &SweepSpec, threads: usize) -> Result<SweepResult, String> {
    run_all(&spec.name, std::slice::from_ref(spec), threads)
}

/// Runs several sweeps (e.g. the panels of one figure) as one campaign
/// named `name`: every panel's baselines and cells fan out over `threads`
/// workers as one batch, and a simulation several rows need runs once —
/// Fig. 9's two panels share their baselines and their Pythia cells, for
/// example.
///
/// # Errors
///
/// As [`run`], for the first panel that fails.
pub fn run_all(name: &str, specs: &[SweepSpec], threads: usize) -> Result<SweepResult, String> {
    let plan = plan_campaign(name, specs)?;
    let jobs = (plan.jobs.iter().cloned())
        .map(|job| Box::new(move || job.run()) as Box<dyn FnOnce() -> SimReport + Send>)
        .collect();
    let instructions = plan.jobs.iter().map(|job| job.instructions).sum();
    let started = std::time::Instant::now();
    let reports = run_parallel(jobs, threads.max(1));
    let throughput = Throughput::new(instructions, started.elapsed().as_secs_f64());
    let mut out = plan.merge_cells(&reports)?;
    out.throughput = Some(throughput);
    Ok(out)
}

/// One independent simulation of a planned campaign — the unit a
/// cell-granular scheduler hands to a worker.
///
/// The job owns (cheap) clones of its grid coordinates; traces are opened
/// lazily inside [`CellJob::run`], so holding a plan never holds a
/// materialized trace.
#[derive(Debug, Clone)]
pub struct CellJob {
    /// Instructions this job simulates across all cores (warmup +
    /// measure), for throughput telemetry and progress accounting.
    pub instructions: u64,
    key: u64,
    unit: WorkUnit,
    kind: PrefetcherKind,
    config: ConfigPoint,
    seed: u64,
}

impl CellJob {
    /// Runs the simulation. Deterministic: the same job always produces a
    /// byte-identical report, on any thread, in any process.
    pub fn run(&self) -> SimReport {
        simulate(&self.unit, &self.kind, &self.config, self.seed)
    }

    /// FNV-1a digest of everything that determines this simulation —
    /// workload specs, prefetcher kind, system config, budgets and seed
    /// offset. No two jobs of one plan share a key; a job that a restart
    /// finds journaled under its key is this simulation, whatever flat
    /// index it sits at in this version's plan.
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// One output row of a planned campaign: its labels, and the flat job
/// indices its numbers come from.
#[derive(Debug)]
struct Row {
    sweep: String,
    unit: String,
    group: String,
    prefetcher: String,
    config: String,
    seed: u64,
    /// The job whose report this row summarizes.
    report: usize,
    /// The job whose report it is compared against; `report` itself for a
    /// baseline row and for a cell that repeats its baseline. Either job
    /// may have been planned under an earlier panel.
    baseline: usize,
}

/// A campaign expanded into an ordered set of independent [`CellJob`]s
/// plus the row table that turns their reports into a [`SweepResult`].
///
/// Each distinct simulation is planned once, at the first row that needs
/// it, walking the panels in order and each panel's baseline rows before
/// its cell rows. So job order follows row order: a panel's baseline jobs
/// precede the cell jobs it plans, and a row's report job, like its
/// baseline job, may come from an earlier panel. Executing the jobs in
/// *any* order and merging gives the bytes of the serial in-order run.
#[derive(Debug)]
pub struct CampaignPlan {
    name: String,
    jobs: Vec<CellJob>,
    /// The result's `baselines` array, in final order.
    baseline_rows: Vec<Row>,
    /// The result's `cells` array, in final order.
    cell_rows: Vec<Row>,
}

/// One unit × config × seed coordinate of a panel, with the rendered part
/// of the job key it fixes.
struct Coord<'a> {
    unit: &'a WorkUnit,
    config: &'a ConfigPoint,
    seed: u64,
    key: String,
}

/// Expands a campaign (panels of one figure) into a [`CampaignPlan`].
///
/// Rows: per panel in order, one baseline row per unit × config × seed
/// coordinate, then every measured cell in grid order (unit-major, then
/// config, then prefetcher, then seed). Jobs: the same walk, planning each
/// distinct simulation (see [`CellJob::key`]) once, at its first sighting;
/// a row whose simulation was planned before points at that job.
///
/// # Errors
///
/// Returns the first [`SweepSpec::validate`] error among the panels.
pub fn plan_campaign(name: &str, specs: &[SweepSpec]) -> Result<CampaignPlan, String> {
    let mut jobs: Vec<CellJob> = Vec::new();
    let mut planned: HashMap<String, usize> = HashMap::new();
    let mut plan = |at: &Coord, kind: &PrefetcherKind| -> usize {
        let key = format!("{}|{kind:?}", at.key);
        *planned.entry(key).or_insert_with_key(|key| {
            jobs.push(CellJob {
                instructions: (at.config.warmup + at.config.measure) * at.unit.cores() as u64,
                key: fnv1a_64(key.as_bytes()),
                unit: at.unit.clone(),
                kind: kind.clone(),
                config: at.config.clone(),
                seed: at.seed,
            });
            jobs.len() - 1
        })
    };
    let (mut baseline_rows, mut cell_rows) = (Vec::new(), Vec::new());
    for spec in specs {
        spec.validate()?;
        let row = |at: &Coord, p: &PrefetcherSpec, report, baseline| Row {
            sweep: spec.name.clone(),
            unit: at.unit.label.clone(),
            group: at.unit.group.clone(),
            prefetcher: p.label.clone(),
            config: at.config.label.clone(),
            seed: at.seed,
            report,
            baseline,
        };
        let mut coords = Vec::new();
        for unit in &spec.units {
            for config in &spec.configs {
                for &seed in &spec.seeds {
                    let key = format!(
                        "{:?}|{:?}|{}|{}|{seed}",
                        unit.workloads.iter().map(|w| &w.spec).collect::<Vec<_>>(),
                        config.system,
                        config.warmup,
                        config.measure
                    );
                    coords.push(Coord {
                        unit,
                        config,
                        seed,
                        key,
                    });
                }
            }
        }
        for at in &coords {
            let flat = plan(at, &spec.baseline.kind);
            baseline_rows.push(row(at, &spec.baseline, flat, flat));
        }
        // Grid order: the seeds of one unit × config are adjacent in
        // `coords`, and the prefetcher axis sits outside them.
        for unit_config in coords.chunks(spec.seeds.len()) {
            for p in &spec.prefetchers {
                for at in unit_config {
                    let report = plan(at, &p.kind);
                    cell_rows.push(row(at, p, report, plan(at, &spec.baseline.kind)));
                }
            }
        }
    }
    Ok(CampaignPlan {
        name: name.to_string(),
        jobs,
        baseline_rows,
        cell_rows,
    })
}

impl CampaignPlan {
    /// The planned jobs, in flat order: each distinct simulation once, at
    /// its first sighting (panel-major, each panel's baselines first).
    pub fn jobs(&self) -> &[CellJob] {
        &self.jobs
    }

    /// Number of planned jobs: the campaign's distinct simulations.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Reassembles a complete set of cell reports — `reports[i]` from
    /// `jobs()[i]`, executed in any order, by any worker — into the
    /// campaign's [`SweepResult`], without wall-clock telemetry.
    ///
    /// # Errors
    ///
    /// Returns an error when `reports.len() != job_count()`, and when a
    /// baseline report saw no LLC load miss: the Appendix A.6 metrics of
    /// that unit and config have no denominator (a budget too small for
    /// the workload to reach memory).
    pub fn merge_cells(&self, reports: &[SimReport]) -> Result<SweepResult, String> {
        self.assemble(reports.len(), |flat| Some(&reports[flat]))
    }

    /// Merges the completed prefix of a partially executed campaign:
    /// `slots[i]` holds `jobs()[i]`'s report once that job has finished.
    ///
    /// Rows are emitted in final order and stop at the first row whose
    /// report (or whose baseline's report) is still missing — per array,
    /// so every partial's `baselines` and `cells` are exact prefixes of
    /// the complete result's arrays, and a fully populated `slots`
    /// reproduces [`CampaignPlan::merge_cells`] byte-identically.
    ///
    /// # Errors
    ///
    /// As [`CampaignPlan::merge_cells`], for the rows it reaches.
    pub fn merge_prefix(&self, slots: &[Option<SimReport>]) -> Result<SweepResult, String> {
        self.assemble(slots.len(), |flat| slots[flat].as_ref())
    }

    /// Emits each row array while its rows' slots are filled.
    fn assemble<'a>(
        &self,
        given: usize,
        slot: impl Fn(usize) -> Option<&'a SimReport>,
    ) -> Result<SweepResult, String> {
        if given != self.jobs.len() {
            return Err(format!(
                "campaign {:?}: {given} report(s) for {} planned job(s)",
                self.name,
                self.jobs.len()
            ));
        }
        let emit = |rows: &[Row]| -> Result<Vec<CellResult>, String> {
            let mut out = Vec::new();
            for row in rows {
                let (Some(baseline), Some(report)) = (slot(row.baseline), slot(row.report)) else {
                    break;
                };
                let metrics = metrics::try_compare(baseline, report).map_err(|e| {
                    format!(
                        "campaign {:?}: unit {:?} at config {:?}: {e}",
                        self.name, row.unit, row.config
                    )
                })?;
                out.push(CellResult {
                    sweep: row.sweep.clone(),
                    unit: row.unit.clone(),
                    group: row.group.clone(),
                    prefetcher: row.prefetcher.clone(),
                    config: row.config.clone(),
                    seed: row.seed,
                    metrics,
                    raw: RawSummary::of(report),
                });
            }
            Ok(out)
        };
        Ok(SweepResult {
            name: self.name.clone(),
            baselines: emit(&self.baseline_rows)?,
            cells: emit(&self.cell_rows)?,
            throughput: None,
        })
    }
}
