//! The three simulator workloads: `sim1c_pythia_gen`, `sim1c_registry_replay`
//! and `sim4c_pythia_lowbw`.
//!
//! A repetition is a fixed list of [`Case`]s — one simulation each, the
//! operation a user waits for — run back to back on one thread. All start
//! with empty modelled caches and use the repository's warm-up/measure split.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pythia::runner::{self, RunSpec};
use pythia_sim::config::SystemConfig;
use pythia_sim::prefetch::Prefetcher;
use pythia_sim::stats::{CacheStats, SimReport};
use pythia_sim::system::System;
use pythia_sim::trace::{FileTraceSource, TraceSource, TraceWriter};
use pythia_stats::json::sim_report_wire_json;
use pythia_stats::metrics;
use pythia_workloads::{all_suites, suite, Suite, Workload};

use crate::harness::{end_to_end, iterations, Calibration, Pass, Setup, MIN_REPS};
use crate::metrics::{same_bytes, Checks, Layers, Outcome};
use crate::spans::{HotTotals, TimedPrefetcher, TimedSource, Tracer};
use crate::stats::{derive_seed, fnv1a, median};
use crate::{Args, TempDir};

/// Untimed repetitions that end set-up (caches of the host, allocator, page
/// cache of the trace files).
const WARMUP_REPS: usize = 8;

/// Where a core's trace comes from.
enum Input {
    /// Generated on the fly by `pythia-workloads`.
    Gen(Workload),
    /// Replayed from a file recorded during set-up.
    File(PathBuf),
}

/// One simulation of a repetition.
struct Case {
    label: String,
    prefetcher: &'static str,
    /// One derived prefetcher seed per core.
    pf_seeds: Vec<u64>,
    spec: RunSpec,
    /// One input per core.
    inputs: Vec<Input>,
    /// Index into the fixture's baseline reports of the `none` run of the
    /// same inputs; `None` for the `none` cases themselves.
    baseline: Option<usize>,
}

impl Case {
    fn open(&self) -> Vec<Box<dyn TraceSource>> {
        self.inputs
            .iter()
            .map(|input| match input {
                Input::Gen(w) => w.source(self.spec.trace_len()),
                Input::File(path) => Box::new(
                    FileTraceSource::open(path)
                        .unwrap_or_else(|e| panic!("recorded trace {}: {e}", path.display())),
                ) as Box<dyn TraceSource>,
            })
            .collect()
    }

    fn build_prefetcher(&self, core: usize) -> Box<dyn Prefetcher> {
        runner::build_prefetcher(self.prefetcher, self.pf_seeds[core])
            .unwrap_or_else(|| panic!("unknown prefetcher {:?}", self.prefetcher))
    }

    /// The operation as a user runs it: one call into the runner.
    fn run(&self) -> SimReport {
        runner::run_sources_with(self.open(), &self.spec, |core| self.build_prefetcher(core))
    }

    /// The same operation with a span around each call into a layer.
    fn run_traced(&self, t: &mut Tracer) -> SimReport {
        let from_files = matches!(self.inputs[0], Input::File(_));
        let is_agent = self.prefetcher.starts_with("pythia");
        let op = t.enter("op");
        let src_totals = Arc::new(HotTotals::default());
        let pf_totals = Arc::new(HotTotals::default());
        let open_span = if from_files {
            "sim.trace.open"
        } else {
            "workloads.open"
        };
        let sources = t
            .span(open_span, || self.open())
            .into_iter()
            .map(|s| Box::new(TimedSource::new(s, Arc::clone(&src_totals))) as Box<dyn TraceSource>)
            .collect();
        let mut system = t.span("sim.system.build", || {
            System::with_prefetchers(self.spec.system, sources, |core| {
                Box::new(TimedPrefetcher::new(
                    self.build_prefetcher(core),
                    Arc::clone(&pf_totals),
                ))
            })
        });
        let run = t.enter("sim.system.run");
        let report = system.run(self.spec.warmup, self.spec.measure);
        t.exit(run);
        // Dropping the system drops the wrappers, which flush their sums.
        drop(system);
        let source_span = if from_files {
            "sim.trace.decode"
        } else {
            "workloads.gen"
        };
        t.aggregate(source_span, run, &src_totals);
        t.aggregate(
            if is_agent {
                "core.agent"
            } else {
                "prefetchers"
            },
            run,
            &pf_totals,
        );
        t.exit(op);
        report
    }

    fn instructions(&self) -> u64 {
        (self.spec.warmup + self.spec.measure) * self.spec.system.cores as u64
    }
}

/// Every named workload: the tuning suites and the unseen set.
fn catalogue() -> Vec<Workload> {
    let mut all = all_suites();
    all.extend(suite(Suite::CvpUnseen));
    all
}

/// A workload by its paper-style name, with its trace seed derived from the
/// run's seed.
fn workload(all: &[Workload], name: &str, seed: u64, bench: &str) -> Workload {
    let mut w = all
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name:?} is not in the suites"))
        .clone();
    w.spec.seed = derive_seed(seed, bench, &format!("trace:{name}"));
    w
}

fn pf_seeds(seed: u64, bench: &str, label: &str, cores: usize) -> Vec<u64> {
    (0..cores)
        .map(|core| derive_seed(seed, bench, &format!("prefetcher:{label}:{core}")))
        .collect()
}

/// What set-up builds for one workload.
struct Fixture {
    cases: Vec<Case>,
    /// The cases that produce [`Case::baseline`] reports, run once in set-up.
    baselines: Vec<Case>,
    /// Seconds spent recording trace files, and their total size.
    record_s: f64,
    file_bytes: u64,
    /// Repetitions of the timed region: about 20 s on the reference host.
    reps: usize,
}

/// One workload of each of the nine pattern kinds, cache-resident to
/// DRAM-bound.
const GEN_WORKLOADS: [&str; 9] = [
    "401.gcc-13B",
    "429.mcf-184B",
    "436.cactusADM-97B",
    "470.lbm-164B",
    "450.soplex-66B",
    "459.GemsFDTD-765B",
    "482.sphinx3-417B",
    "Ligra-PageRank",
    "server-2",
];

fn sim1c_pythia_gen(seed: u64) -> Fixture {
    const NAME: &str = "sim1c_pythia_gen";
    let all = catalogue();
    let spec = RunSpec::single_core().with_budget(100_000, 500_000);
    let case = |name: &str, prefetcher: &'static str, baseline| Case {
        label: format!("{name}/{prefetcher}"),
        prefetcher,
        pf_seeds: pf_seeds(seed, NAME, name, 1),
        spec,
        inputs: vec![Input::Gen(workload(&all, name, seed, NAME))],
        baseline,
    };
    Fixture {
        cases: GEN_WORKLOADS
            .iter()
            .enumerate()
            .map(|(i, name)| case(name, "pythia", Some(i)))
            .collect(),
        baselines: GEN_WORKLOADS
            .iter()
            .map(|name| case(name, "none", None))
            .collect(),
        record_s: 0.0,
        file_bytes: 0,
        reps: 61,
    }
}

const REPLAY_WORKLOADS: [&str; 3] = ["470.lbm-164B", "482.sphinx3-417B", "401.gcc-13B"];
const REPLAY_PREFETCHERS: [&str; 4] = ["none", "spp", "bingo", "mlop"];
const REPLAY_RECORDS: usize = 500_000;

fn sim1c_registry_replay(seed: u64, dir: &Path, checks: &mut Checks) -> Fixture {
    const NAME: &str = "sim1c_registry_replay";
    let all = catalogue();
    let spec = RunSpec::single_core().with_budget(100_000, 400_000);
    assert_eq!(spec.trace_len(), REPLAY_RECORDS);
    let started = Instant::now();
    let mut file_bytes = 0;
    let mut cases = Vec::new();
    let mut streamed = Vec::new();
    for (wi, name) in REPLAY_WORKLOADS.iter().enumerate() {
        let w = workload(&all, name, seed, NAME);
        let path = dir.join(format!("{name}.trace"));
        let recorded = record(&w, &path);
        checks.op(recorded.map(|bytes| file_bytes += bytes));
        for prefetcher in REPLAY_PREFETCHERS {
            let case = |input| Case {
                label: format!("{name}/{prefetcher}"),
                prefetcher,
                pf_seeds: pf_seeds(seed, NAME, name, 1),
                spec,
                inputs: vec![input],
                // The streamed `none` twin, first in its group of four.
                baseline: (prefetcher != "none").then_some(wi * REPLAY_PREFETCHERS.len()),
            };
            cases.push(case(Input::File(path.clone())));
            streamed.push(case(Input::Gen(w.clone())));
        }
    }
    Fixture {
        cases,
        // Streamed twins of every case: the replay ≡ stream reference runs.
        // The `none` ones double as the speed-up baselines.
        baselines: streamed,
        record_s: started.elapsed().as_secs_f64(),
        file_bytes,
        reps: 50,
    }
}

/// Records `REPLAY_RECORDS` records of `w` to `path`; returns the file size.
fn record(w: &Workload, path: &Path) -> Result<u64, String> {
    let mut source = w.source(REPLAY_RECORDS);
    let mut writer = TraceWriter::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    while let Some(r) = source.next_record() {
        writer
            .write_record(&r)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let (_, count) = writer
        .finish()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if count != REPLAY_RECORDS as u64 {
        return Err(format!("{}: recorded {count} records", path.display()));
    }
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| e.to_string())
}

const MIX_WORKLOADS: [&str; 4] = [
    "470.lbm-164B",
    "429.mcf-184B",
    "482.sphinx3-417B",
    "Ligra-PageRank",
];

fn sim4c_pythia_lowbw(seed: u64) -> Fixture {
    const NAME: &str = "sim4c_pythia_lowbw";
    let all = catalogue();
    let mut system = SystemConfig::with_cores(4);
    system.dram.mtps = 600;
    let spec = RunSpec::multi_core(4)
        .with_system(system)
        .with_budget(40_000, 160_000);
    let case = |prefetcher: &'static str, baseline| Case {
        label: format!("mix4/{prefetcher}"),
        prefetcher,
        pf_seeds: pf_seeds(seed, NAME, "mix4", 4),
        spec,
        inputs: MIX_WORKLOADS
            .iter()
            .map(|name| Input::Gen(workload(&all, name, seed, NAME)))
            .collect(),
        baseline,
    };
    Fixture {
        cases: vec![case("pythia", Some(0))],
        baselines: vec![case("none", None)],
        record_s: 0.0,
        file_bytes: 0,
        reps: MIN_REPS,
    }
}

/// The lossless wire form of a report: what "byte-identical" compares.
pub fn report_bytes(report: &SimReport) -> Vec<u8> {
    sim_report_wire_json(report).render().into_bytes()
}

/// Conservation inside one report: per cache level hits + misses == accesses
/// for loads and stores, and every core retires exactly its measured budget.
pub fn conserved(label: &str, report: &SimReport, measure: u64) -> Result<(), String> {
    let level = |name: &str, c: &CacheStats| {
        if c.demand_load_hits + c.demand_load_misses != c.demand_loads
            || c.demand_store_hits + c.demand_store_misses != c.demand_stores
        {
            return Err(format!("{label}: {name} hits + misses != accesses"));
        }
        Ok(())
    };
    for c in &report.l1d {
        level("L1D", c)?;
    }
    for c in &report.l2 {
        level("L2", c)?;
    }
    level("LLC", &report.llc)?;
    match report.cores.iter().find(|c| c.instructions != measure) {
        Some(core) => Err(format!(
            "{label}: a core retired {} instructions, budget {measure}",
            core.instructions
        )),
        None => Ok(()),
    }
}

/// Sums the modelled-component counts and prefetch outcomes of one
/// repetition's reports into the `sim.*` and `prefetch.*` rows. `pairs` holds
/// each prefetched report behind its `none` run.
pub fn simulated_rows(
    reports: &[&SimReport],
    pairs: &[(&SimReport, &SimReport)],
    layers: &mut Layers,
) {
    let (mut instructions, mut cycles) = (0u64, 0u64);
    let (mut l1d, mut l2, mut llc) = ([0u64; 2], [0u64; 3], [0u64; 2]);
    let (mut reads, mut row_hits, mut row_misses, mut bus_busy) = (0u64, 0u64, 0u64, 0u64);
    let (mut windows, mut high_windows) = (0u64, 0u64);
    let (mut issued, mut redundant, mut useful, mut useless, mut late) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in reports {
        for core in &r.cores {
            instructions += core.instructions;
            cycles += core.cycles;
        }
        for c in &r.l1d {
            l1d[0] += c.demand_accesses();
            l1d[1] += c.demand_misses();
        }
        for c in &r.l2 {
            l2[0] += c.demand_accesses();
            l2[1] += c.demand_misses();
            l2[2] += c.mshr_stall_cycles;
        }
        llc[0] += r.llc.demand_accesses();
        llc[1] += r.llc.demand_misses();
        reads += r.dram.total_reads();
        row_hits += r.dram.row_hits;
        row_misses += r.dram.row_misses;
        bus_busy += r.dram.bus_busy_cycles;
        // `DramStats::high_bw_fraction`: windows at or above half of peak.
        windows += r.dram.bw_bucket_windows.iter().sum::<u64>();
        high_windows += r.dram.bw_bucket_windows[2] + r.dram.bw_bucket_windows[3];
        issued += r.prefetchers.iter().map(|p| p.issued).sum::<u64>();
        // Prefetches fill the L2 and the LLC; outcomes are counted at both.
        for c in r.l2.iter().chain([&r.llc]) {
            redundant += c.prefetch_redundant;
            useful += c.useful_prefetches;
            useless += c.useless_prefetches;
            late += c.late_prefetch_hits;
        }
    }
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    layers.set("sim.core.cycles", cycles as f64);
    layers.set("sim.core.ipc", ratio(instructions, cycles));
    layers.set("sim.l1d.accesses", l1d[0] as f64);
    layers.set("sim.l1d.misses", l1d[1] as f64);
    layers.set("sim.l2.accesses", l2[0] as f64);
    layers.set("sim.l2.misses", l2[1] as f64);
    layers.set("sim.l2.mshr_stall_cycles", l2[2] as f64);
    layers.set("sim.llc.accesses", llc[0] as f64);
    layers.set("sim.llc.misses", llc[1] as f64);
    layers.set("sim.llc.mpki", ratio(llc[1], instructions) * 1e3);
    layers.set("sim.dram.reads", reads as f64);
    layers.set(
        "sim.dram.row_hit_ratio",
        ratio(row_hits, row_hits + row_misses),
    );
    layers.set("sim.dram.bus_busy_cycles", bus_busy as f64);
    layers.set("sim.dram.high_bw_fraction", ratio(high_windows, windows));
    layers.set("prefetch.issued", issued as f64);
    layers.set("prefetch.redundant", redundant as f64);
    layers.set("prefetch.useful", useful as f64);
    layers.set("prefetch.useless", useless as f64);
    layers.set("prefetch.late", late as f64);
    layers.set("prefetch.accuracy", ratio(useful, useful + useless));
    // Appendix A.6 coverage and overprediction, over the summed counts.
    let summed = |f: fn(&SimReport) -> u64| {
        let base: u64 = pairs.iter().map(|(b, _)| f(b)).sum();
        let with: u64 = pairs.iter().map(|(_, w)| f(w)).sum();
        (base as f64, with as f64)
    };
    let (base_misses, with_misses) = summed(|r| r.llc.demand_load_misses);
    layers.set(
        "prefetch.coverage",
        (base_misses - with_misses) / base_misses,
    );
    let (base_reads, with_reads) = summed(|r| r.dram.total_reads());
    layers.set(
        "prefetch.overprediction",
        (with_reads - base_reads) / base_reads,
    );
}

/// Runs one simulator workload and reports it.
pub fn run(name: &'static str, args: &Args, main_started: Instant) -> Outcome {
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut notes = Vec::new();
    let tmp = TempDir::create(name);
    let mut calibration = Calibration::new();

    // Set-up, part 1: fixtures.
    let fixture = match name {
        "sim1c_pythia_gen" => sim1c_pythia_gen(args.seed),
        "sim1c_registry_replay" => sim1c_registry_replay(args.seed, tmp.path(), &mut checks),
        "sim4c_pythia_lowbw" => sim4c_pythia_lowbw(args.seed),
        other => unreachable!("{other} is not a simulator workload"),
    };
    let cases = &fixture.cases;
    let mut setup = Setup {
        fixtures_s: main_started.elapsed().as_secs_f64(),
        ..Setup::default()
    };
    let mut piece = setup.piece_done(main_started, &mut calibration);

    // Set-up, part 2: untimed `none` baselines and replay ≡ stream references.
    let baseline_reports: Vec<SimReport> = fixture.baselines.iter().map(Case::run).collect();
    setup.baseline_s = piece.elapsed().as_secs_f64();
    piece = setup.piece_done(piece, &mut calibration);

    // Set-up, part 3: untimed warm-up repetitions. The first one's reports
    // are the reference every later repetition must reproduce byte for byte.
    let started = piece;
    let first: Vec<SimReport> = cases.iter().map(Case::run).collect();
    let reference: Vec<Vec<u8>> = first.iter().map(report_bytes).collect();
    for (case, report) in cases.iter().zip(&first) {
        checks.op(conserved(&case.label, report, case.spec.measure));
    }
    if name == "sim1c_registry_replay" {
        for ((case, replayed), streamed) in cases.iter().zip(&reference).zip(&baseline_reports) {
            let what = format!("{}: replayed file vs streamed generator", case.label);
            checks.op(same_bytes(&what, &report_bytes(streamed), replayed));
        }
    }
    let mut verify = |label: &str, i: usize, report: &SimReport| {
        checks.op(same_bytes(label, &reference[i], &report_bytes(report)));
    };
    piece = setup.piece_done(piece, &mut calibration);
    for _ in 1..WARMUP_REPS {
        for (i, case) in cases.iter().enumerate() {
            verify(&case.label, i, &case.run());
        }
        piece = setup.piece_done(piece, &mut calibration);
    }
    setup.warmup_s = started.elapsed().as_secs_f64();
    setup.total_s = main_started.elapsed().as_secs_f64();

    // Timed repetitions, tracing off: the end-to-end metrics. With `--trace 1`
    // a traced repetition follows each one: the per-layer host-time rows.
    let inst_per_rep: u64 = cases.iter().map(Case::instructions).sum();
    assert!(fixture.reps >= MIN_REPS);
    let mut tracer = args.traced.then(Tracer::new);
    let mut traced_rep_s = Vec::new();
    let mut pass = Pass::start(&mut calibration);
    for rep in 0..iterations(fixture.reps, args.traced) {
        let rep_started = Instant::now();
        let mut reports = Vec::with_capacity(cases.len());
        for case in cases {
            let op_started = Instant::now();
            reports.push(case.run());
            pass.op_s.push((rep, op_started.elapsed().as_secs_f64()));
        }
        pass.rep_done(rep_started.elapsed().as_secs_f64(), &mut calibration);
        for (i, (case, report)) in cases.iter().zip(&reports).enumerate() {
            verify(&case.label, i, report);
        }
        if let Some(t) = &mut tracer {
            t.set_rep(rep as u32);
            let rep_started = Instant::now();
            let reports: Vec<SimReport> = cases.iter().map(|c| c.run_traced(t)).collect();
            traced_rep_s.push(rep_started.elapsed().as_secs_f64());
            for (i, (case, report)) in cases.iter().zip(&reports).enumerate() {
                verify(&format!("{} (traced)", case.label), i, report);
            }
        }
    }
    pass.stop(&mut calibration);

    if let Some(t) = &tracer {
        let cycles: u64 = first.iter().flat_map(|r| &r.cores).map(|c| c.cycles).sum();
        let file_records = cases
            .iter()
            .flat_map(|c| &c.inputs)
            .filter(|i| matches!(i, Input::File(_)))
            .count()
            * REPLAY_RECORDS;
        host_time_rows(
            t,
            inst_per_rep as f64,
            cycles as f64,
            file_records as f64,
            &mut layers,
        );
        layers.set(
            "trace.overhead_pct",
            (median(&traced_rep_s) / median(&pass.rep_s) - 1.0) * 100.0,
        );
        crate::write_out(&format!("trace-{name}.json"), &t.to_json(name));
    }
    layers.set("sim.trace.record_s", fixture.record_s);
    layers.set("sim.trace.file_bytes", fixture.file_bytes as f64);

    // Simulated statistics of one repetition: exact, from the first one.
    let pairs: Vec<(&SimReport, &SimReport)> = cases
        .iter()
        .zip(&first)
        .filter_map(|(case, report)| Some((&baseline_reports[case.baseline?], report)))
        .collect();
    let speedups: Vec<f64> = pairs
        .iter()
        .map(|(b, w)| metrics::compare(b, w).speedup)
        .collect();
    simulated_rows(&first.iter().collect::<Vec<_>>(), &pairs, &mut layers);
    let report_digest = fnv1a(&reference.concat());

    let end_to_end = end_to_end(
        &setup,
        &pass,
        inst_per_rep,
        metrics::geomean(&speedups),
        &mut layers,
        &mut notes,
    );
    Outcome {
        workload: name,
        seed: args.seed,
        traced: args.traced,
        checks,
        report_digest,
        end_to_end,
        layers,
        rep_s: pass.rep_s,
        slowdown: pass.slowdown,
        notes,
    }
}

/// Per-repetition medians of the traced spans, as the host-time layer rows.
/// `instructions`, `cycles` and `file_records` are those of one repetition.
fn host_time_rows(
    t: &Tracer,
    instructions: f64,
    cycles: f64,
    file_records: f64,
    layers: &mut Layers,
) {
    let busy = |name: &str| median_or_zero(&t.by_rep(name, |s| s.busy_ns as f64 / 1e9));
    let calls = |name: &str| median_or_zero(&t.by_rep(name, |s| s.calls as f64));
    let items = |name: &str| median_or_zero(&t.by_rep(name, |s| s.items as f64));
    let op_s = busy("op");
    let run_self_s = median_or_zero(&t.self_by_rep("sim.system.run"));
    let build_s = busy("sim.system.build");
    layers.set("sim.system.build_s", build_s);
    layers.set("sim.system.run_s", busy("sim.system.run"));
    layers.set("sim.system.run_self_s", run_self_s);
    layers.set("sim.system.self_share", (build_s + run_self_s) / op_s);
    layers.set("sim.system.host_ns_per_inst", op_s * 1e9 / instructions);
    layers.set("sim.system.host_ns_per_cycle", op_s * 1e9 / cycles);

    let (open_s, gen_s, generated) = (
        busy("workloads.open"),
        busy("workloads.gen"),
        items("workloads.gen"),
    );
    layers.set("workloads.open_s", open_s);
    layers.set("workloads.gen_records", generated);
    layers.set("workloads.gen_busy_s", gen_s);
    layers.set("workloads.gen_mrec_per_s", generated / gen_s / 1e6);
    layers.set("workloads.gen_share", (open_s + gen_s) / op_s);

    // `FileTraceSource::open` decodes the whole file to validate it, so the
    // decode rows cover it as well as the replay itself.
    let decode_s = busy("sim.trace.open") + busy("sim.trace.decode");
    let decoded = items("sim.trace.decode") + file_records;
    layers.set("sim.trace.decode_records", decoded);
    layers.set("sim.trace.decode_busy_s", decode_s);
    layers.set("sim.trace.decode_mrec_per_s", decoded / decode_s / 1e6);
    layers.set("sim.trace.decode_share", decode_s / op_s);

    let (agent_s, agent_calls) = (busy("core.agent"), calls("core.agent"));
    layers.set("core.agent.demand_calls", agent_calls);
    layers.set("core.agent.fill_calls", items("core.agent"));
    layers.set("core.agent.busy_s", agent_s);
    layers.set("core.agent.ns_per_call", agent_s * 1e9 / agent_calls);
    layers.set("core.agent.share", agent_s / op_s);
    let (pf_s, pf_calls) = (busy("prefetchers"), calls("prefetchers"));
    layers.set("prefetchers.demand_calls", pf_calls);
    layers.set("prefetchers.busy_s", pf_s);
    layers.set("prefetchers.ns_per_call", pf_s * 1e9 / pf_calls);
    layers.set("prefetchers.share", pf_s / op_s);
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}
