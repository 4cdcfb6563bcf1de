//! Subcommand implementations for `pythia-cli`.

use pythia::runner::{build_prefetcher, build_system, prefetcher_names, RunSpec};
use pythia_bench::figures::{dse_spec, hyper_config};
use pythia_core::hw_model;
use pythia_core::pipeline::SearchPipeline;
use pythia_core::tuning::{self, HyperPoint};
use pythia_core::{ControlFlow, DataFlow, Feature, PythiaConfig};
use pythia_obs::logger::Level;
use pythia_sim::config::SystemConfig;
use pythia_sim::stats::{SimReport, Throughput};
use pythia_sim::system::{run_windowed, WindowRow};
use pythia_sim::trace::{
    trace_file_info, FileTraceSource, TraceFileError, TraceSource, TraceWriter,
};
use pythia_stats::json::sim_report_wire_json;
use pythia_stats::metrics::try_compare;
use pythia_stats::report::Table;
use pythia_sweep::{Key, Value};
use pythia_workloads::profiles::{profile_stats, trace_stats, Profile, CAMPAIGN_SEED};
use pythia_workloads::suites::{all_suites, cvp_unseen};
use pythia_workloads::Workload;

use crate::args::ParsedArgs;

/// Help text shown by `pythia-cli` with no arguments.
pub const HELP: &str = "\
pythia-cli — Pythia reproduction driver

USAGE:
  pythia-cli list                               list workloads and prefetchers
  pythia-cli run <workload> <prefetcher>        simulate one configuration
      [--warmup N] [--measure N] [--mtps N] [--llc-kb N] [--report-json FILE]
      [--telemetry-json FILE]                   per-window telemetry JSONL
      [--telemetry-window N]                    (report stays byte-identical)
  pythia-cli sweep <figure>                     run a figure/table campaign in
      [--threads N] [--format md|json|csv]      parallel and emit its results
      [--out FILE] [--cache-dir DIR]            (`--list` shows figure ids;
                                                md ends with the figure in
                                                the paper's shape; the cache
                                                skips repeat runs)
  pythia-cli sweep --workloads a,b,c            ad-hoc sweep over named
      [--prefetchers x,y] [--baseline none]     workloads instead of a figure
      [--warmup N] [--measure N] [--mtps N]     (default prefetchers:
      [--llc-kb N]                              spp,bingo,mlop,pythia)
  pythia-cli dse [--threads N]                  the §4.3 design-space search
                                                behind Table 2, one campaign
                                                per search round
  pythia-cli bench                              run the hot-path microbenchmarks,
      [--filter SUBSTR] [--reps N] [--list]     the kernel-level microscope
                                                (PYTHIA_BENCH_SCALE scales work)
      [--sections]                              where a step's time goes instead,
                                                by ablation: the agent's phases
                                                (agent_step ladder), then the
                                                simulator's layers (sim_step),
                                                and host bytes per cache level
  pythia-cli trace record <workload> <file>     stream a workload to a binary
      [--instructions N]                        trace file (O(1) memory)
  pythia-cli trace replay <file> <prefetcher>   simulate straight from a trace
      [--warmup N] [--measure N] [--mtps N]     file; byte-identical to the
      [--llc-kb N] [--report-json FILE]         equivalent `run`
  pythia-cli trace info <file> [--json]         print trace header and stats
  pythia-cli trace gen <profile>                generate a robustness profile
      [--seed N] [--instructions N]             (expected|stress|adversarial):
      [--out DIR] [--stats-json [FILE]]         summary table, binary traces,
                                                or coverage/phase-map stats
                                                (sweep robust01..03 scores
                                                prefetchers across profiles)
  pythia-cli storage                            print storage/overhead tables
  pythia-cli serve                              run the campaign service: job
      [--addr 127.0.0.1:7071] [--workers N]     scheduling, in-flight dedup, a
      [--threads N] [--queue N]                 content-addressed result cache,
      [--cache-dir DIR] [--cache-max-bytes N]   a crash-safe job journal and
      [--max-conns N] [--journal FILE]          GET /metrics behind an HTTP API
      [--log-level error|warn|info|debug]       (/metrics?format=prom for
                                                Prometheus text exposition;
                                                logs are JSONL on stderr)
  pythia-cli submit <figure> --addr HOST:PORT   submit a campaign to a running
      [--format md|json|csv] [--out FILE]       service, poll to completion
      [--poll-ms N] [--timeout-s N]             (printing cell progress) and
      [--tenant KEY] [--priority N]             fetch the rendered result;
                                                tenants share the pool fairly,
                                                priority weights the quantum

An option a subcommand does not read is an error. The performance gate is
scripts/bench_ab.py <parent-ref> <seed>...: parent vs head, same host.
";

fn find_workload(name: &str) -> Result<Workload, String> {
    let mut pool = all_suites();
    pool.extend(cvp_unseen());
    pool.iter()
        .find(|w| w.name == name)
        .cloned()
        .ok_or_else(|| format!("unknown workload {name:?}; see `pythia-cli list`"))
}

/// The options [`spec_from`] reads.
const SPEC_OPTS: &[&str] = &["warmup", "measure", "mtps", "llc-kb"];
/// The options [`adhoc_sweep_spec`] reads beyond [`SPEC_OPTS`].
const ADHOC_OPTS: &[&str] = &["prefetchers", "baseline"];
/// The option [`threads_from`] reads.
const THREADS_OPT: &[&str] = &["threads"];

fn spec_from(args: &ParsedArgs) -> Result<RunSpec, String> {
    let warmup = args.opt_num("warmup", 100_000u64)?;
    let measure = args.opt_num("measure", 400_000u64)?;
    let mut system = SystemConfig::single_core();
    if let Some(mtps) = args.opt("mtps") {
        system.dram.mtps = mtps
            .parse()
            .map_err(|_| format!("--mtps: bad value {mtps:?}"))?;
    }
    if let Some(kb) = args.opt("llc-kb") {
        let kb: u64 = kb
            .parse()
            .map_err(|_| format!("--llc-kb: bad value {kb:?}"))?;
        system.llc.size_bytes = kb.saturating_mul(1024);
    }
    system.validate()?;
    if measure == 0 {
        return Err("--measure must be positive".into());
    }
    Ok(RunSpec::single_core()
        .with_system(system)
        .with_budget(warmup, measure))
}

/// `--threads N`, else every available CPU.
fn threads_from(args: &ParsedArgs) -> Result<usize, String> {
    match args.opt("threads") {
        None => Ok(std::thread::available_parallelism().map_or(4, usize::from)),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("--threads: bad value {v:?}")),
        },
    }
}

/// `pythia-cli list [--names]`
pub fn list(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown("list", &[&["names"]])?;
    let mut pool = all_suites();
    pool.extend(cvp_unseen());
    if args.flag("names") {
        for w in &pool {
            println!("{}", w.name);
        }
        return Ok(());
    }
    println!("# Workloads (Table 6 suites + unseen)\n");
    let mut t = Table::new(&["workload", "suite", "pattern"]);
    for w in &pool {
        t.row(&[
            w.name.clone(),
            w.suite.label().to_string(),
            w.spec.kind.tag().to_string(),
        ]);
    }
    println!("{}", t.to_markdown());
    println!("# Prefetchers\n");
    for n in prefetcher_names() {
        println!("  {n}");
    }
    Ok(())
}

/// Prints the shared `run` / `trace replay` result block: the Appendix
/// A.6 metrics of `report` vs `baseline`, plus the wall-clock throughput
/// of the pair of simulations.
fn print_run_summary(
    subject: &str,
    prefetcher: &str,
    baseline: &SimReport,
    report: &SimReport,
    throughput: Throughput,
) -> Result<(), String> {
    let m = try_compare(baseline, report).map_err(|e| format!("{subject}: {e}"))?;
    println!("workload        : {subject}");
    println!("prefetcher      : {prefetcher}");
    println!("baseline IPC    : {:.4}", baseline.geomean_ipc());
    println!("IPC             : {:.4}", report.geomean_ipc());
    println!("speedup         : {:.4}x", m.speedup);
    println!("coverage        : {:.1}%", m.coverage * 100.0);
    println!("overprediction  : {:.1}%", m.overprediction * 100.0);
    println!("accuracy        : {:.1}%", m.accuracy * 100.0);
    println!("baseline MPKI   : {:.1}", m.baseline_mpki);
    println!("prefetches      : {}", report.prefetches_issued());
    println!(
        "throughput      : {:.2} Minst/s ({:.2} s wall)",
        throughput.minst_per_sec(),
        throughput.wall_seconds
    );
    Ok(())
}

/// Writes an output artifact, creating missing parent directories first —
/// `--out results/fig09/BENCH.json` should not fail with a raw io error
/// just because `results/fig09/` does not exist yet.
fn write_artifact(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// Honours `--report-json FILE`: writes the measured run's deterministic
/// [`SimReport`] in its lossless wire form, every counter included (the
/// artifact the CI record→replay smoke compares byte-for-byte).
fn maybe_write_report_json(args: &ParsedArgs, report: &SimReport) -> Result<(), String> {
    if let Some(path) = args.opt("report-json") {
        write_artifact(path, &sim_report_wire_json(report).render_pretty())?;
        println!("wrote report JSON to {path}");
    }
    Ok(())
}

/// Renders per-window telemetry rows as JSONL: one object per closed
/// window per core, in core-major order.
fn telemetry_jsonl(windows: &[Vec<WindowRow>]) -> String {
    let mut out = String::new();
    for (core, rows) in windows.iter().enumerate() {
        for row in rows {
            let mut obj = pythia_stats::json::Json::obj()
                .set("core", core as u64)
                .set("window", row.index)
                .set("at", row.at);
            for (name, value) in &row.fields {
                obj = obj.set(name, *value);
            }
            out.push_str(&obj.render());
            out.push('\n');
        }
    }
    out
}

/// `pythia-cli run <workload> <prefetcher>`
pub fn run(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown(
        "run",
        &[
            SPEC_OPTS,
            &["report-json", "telemetry-json", "telemetry-window"],
        ],
    )?;
    let [workload, prefetcher] = args.positionals.as_slice() else {
        return Err("usage: pythia-cli run <workload> <prefetcher> [options]".into());
    };
    let w = find_workload(workload)?;
    run_pair(args, &w.name, prefetcher, |spec| {
        Ok(w.source(spec.trace_len()))
    })
}

/// The one simulation path of `run` and `trace replay`: the baseline and
/// `prefetcher`, each on its own pass of the stream `open` starts, timed
/// as a pair. Prints the run summary, then honours `--telemetry-json`
/// (only `run` accepts it; the report is byte-identical with it on or
/// off, test-pinned) and `--report-json`.
fn run_pair(
    args: &ParsedArgs,
    subject: &str,
    prefetcher: &str,
    open: impl Fn(&RunSpec) -> Result<Box<dyn TraceSource>, String>,
) -> Result<(), String> {
    if !prefetcher_names().any(|n| n == prefetcher) {
        return Err(format!(
            "unknown prefetcher {prefetcher:?}; see `pythia-cli list`"
        ));
    }
    let spec = spec_from(args)?;
    let window = args.opt_num("telemetry-window", 100_000u64)?;
    if window == 0 {
        return Err("--telemetry-window must be positive".into());
    }
    let started = std::time::Instant::now();
    let baseline = build_system(vec![open(&spec)?], "none", &spec).run(spec.warmup, spec.measure);
    let mut system = build_system(vec![open(&spec)?], prefetcher, &spec);
    let (report, windows) = if args.opt("telemetry-json").is_some() {
        let (report, windows) = run_windowed(&mut system, spec.warmup, spec.measure, window);
        (report, Some(windows))
    } else {
        (system.run(spec.warmup, spec.measure), None)
    };
    let throughput = Throughput::new(
        2 * (spec.warmup + spec.measure),
        started.elapsed().as_secs_f64(),
    );
    print_run_summary(subject, prefetcher, &baseline, &report, throughput)?;
    if let (Some(path), Some(windows)) = (args.opt("telemetry-json"), windows) {
        write_artifact(path, &telemetry_jsonl(&windows))?;
        let rows: usize = windows.iter().map(Vec::len).sum();
        println!("wrote {rows} telemetry window(s) to {path}");
    }
    maybe_write_report_json(args, &report)
}

/// Builds the ad-hoc sweep over the comma-separated `workloads`, as
/// described by `--prefetchers`/`--baseline`/the budget options.
fn adhoc_sweep_spec(args: &ParsedArgs, workloads: &str) -> Result<pythia_sweep::SweepSpec, String> {
    let mut spec = pythia_sweep::SweepSpec::new("adhoc");
    for name in workloads
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        spec.units
            .push(pythia_sweep::WorkUnit::single(find_workload(name)?));
    }
    let prefetchers = args
        .opt("prefetchers")
        .unwrap_or("spp,bingo,mlop,pythia")
        .to_string();
    for p in prefetchers
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        spec = spec.with_prefetchers(&[p]);
    }
    if let Some(baseline) = args.opt("baseline") {
        spec = spec.with_baseline(baseline);
    }
    let run = spec_from(args)?;
    spec = spec.with_config(pythia_sweep::ConfigPoint::from_run_spec("base", &run));
    Ok(spec)
}

/// `pythia-cli sweep <figure> | sweep --workloads a,b,c`
pub fn sweep(args: &ParsedArgs) -> Result<(), String> {
    // A registered figure fixes its own grid and budgets, so the ad-hoc
    // options are only read (and only accepted) without a figure id.
    let common: &[&str] = &["list", "format", "out", "cache-dir"];
    if args.positionals.is_empty() {
        let adhoc = &[common, THREADS_OPT, &["workloads"], ADHOC_OPTS, SPEC_OPTS];
        args.reject_unknown("sweep", adhoc)?;
    } else {
        args.reject_unknown("sweep <figure>", &[common, THREADS_OPT])?;
    }
    if args.flag("list") {
        println!("# Registered figure/table campaigns\n");
        let mut t = Table::new(&["figure", "title", "panels", "cells"]);
        for def in pythia_bench::figures::registry() {
            let specs = (def.build)();
            let cells: usize = specs.iter().map(|s| s.cell_count()).sum();
            t.row(&[
                def.id.to_string(),
                def.title.to_string(),
                specs.len().to_string(),
                cells.to_string(),
            ]);
        }
        println!("{}", t.to_markdown());
        return Ok(());
    }

    let threads = threads_from(args)?;
    let format = args.opt("format").unwrap_or("md");

    let figure = match args.positionals.as_slice() {
        [id] => Some(
            pythia_bench::figures::find(id)
                .ok_or_else(|| format!("unknown figure {id:?}; see `pythia-cli sweep --list`"))?,
        ),
        [] => None,
        _ => return Err("usage: pythia-cli sweep <figure> [options]".into()),
    };
    let campaign = match &figure {
        Some(def) => def.campaign(),
        None => {
            let workloads = args
                .opt("workloads")
                .ok_or("sweep needs a figure id or --workloads a,b,c")?;
            pythia_sweep::Campaign::single(adhoc_sweep_spec(args, workloads)?)
        }
    };

    // With a cache directory the campaign is content-addressed: a digest
    // hit loads the stored artifact instead of simulating, and the output
    // carries `cached`/`digest` provenance (md and JSON formats).
    let (result, provenance) = match args.opt("cache-dir") {
        None => (
            pythia_sweep::engine::run_all(&campaign.name, &campaign.panels, threads)?,
            None,
        ),
        Some(dir) => {
            let store = pythia_sweep::ResultStore::open(dir)?;
            let (result, cached) = pythia_sweep::run_campaign(&campaign, threads, &store)?;
            (result, Some((cached, campaign.digest())))
        }
    };

    let mut rendered = match &provenance {
        None => result.render(format)?,
        Some((cached, digest)) => match format {
            "json" => result
                .to_json()
                .set("cached", *cached)
                .set("digest", digest.as_str())
                .render_pretty(),
            "md" | "markdown" => format!(
                "{}\ncached: {cached}\ndigest: {digest}\n",
                result.to_markdown().trim_end()
            ),
            other => result.render(other)?,
        },
    };
    // A registered figure carries its paper-shaped view in the md rendering
    // only (JSON/CSV stay raw cell data, so golden digests pin the campaign).
    if let (Some(def), "md" | "markdown") = (&figure, format) {
        rendered.push('\n');
        rendered.push_str(&(def.view)(&result));
    }
    match args.opt("out") {
        None => print!("{rendered}"),
        Some(path) => {
            write_artifact(path, &rendered)?;
            println!(
                "wrote sweep {} ({} cells + {} baselines, {format}) to {path}",
                result.name,
                result.cells.len(),
                result.baselines.len()
            );
        }
    }
    if let Some((cached, digest)) = &provenance {
        if args.opt("out").is_some() {
            println!("cached: {cached} (digest {digest})");
        }
    }
    Ok(())
}

/// `pythia-cli dse [--threads N]` — the automated design-space
/// exploration of §4.3 behind Table 2 / Fig. 19, scaled down: feature
/// selection over a shortlist, action pruning, and the two-phase
/// hyperparameter grid search. Each search round is one campaign whose
/// candidates fan out over the worker pool together.
pub fn dse(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown("dse", &[THREADS_OPT])?;
    if let Some(stray) = args.positionals.first() {
        return Err(format!("unexpected argument {stray:?} for `dse`"));
    }
    let threads = threads_from(args)?;
    let tuned = PythiaConfig::tuned;

    println!("# §4.3.1 feature selection (shortlisted candidates)\n");
    let candidates = [
        Feature::PC_DELTA,
        Feature::LAST_4_DELTAS,
        Feature {
            control: ControlFlow::Pc,
            data: DataFlow::PageOffset,
        },
        Feature {
            control: ControlFlow::None,
            data: DataFlow::LastFourOffsets,
        },
        Feature {
            control: ControlFlow::Pc,
            data: DataFlow::CachelineAddress,
        },
        Feature {
            control: ControlFlow::PcPath,
            data: DataFlow::Delta,
        },
    ];
    let result = tuning::select_features(&candidates, |round| {
        dse_round(
            round.iter().map(|fs| tuned().with_features(fs.clone())),
            threads,
        )
    });
    let mut t = Table::new(&["state vector", "geomean speedup"]);
    let mut sorted = result.evaluated.clone();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (features, score) in sorted.iter().take(8) {
        let label: Vec<String> = features.iter().map(|f| f.label()).collect();
        t.row(&[label.join(" ; "), format!("{score:.3}")]);
    }
    println!("{}", t.to_markdown());
    let winner: Vec<String> = result.winner.iter().map(|f| f.label()).collect();
    println!("winner: {}\n", winner.join(" ; "));

    println!("# §4.3.2 action pruning (from a 33-offset list)\n");
    let full: Vec<i32> = (-8..=24).collect();
    let pruned = tuning::prune_actions(&full, 0.005, |round| {
        dse_round(
            round.iter().map(|a| tuned().with_actions(a.clone())),
            threads,
        )
    });
    println!(
        "pruned list ({} offsets): {:?}",
        pruned.winner.len(),
        pruned.winner
    );
    println!(
        "score {:.3} (full-list score {:.3})\n",
        pruned.score, pruned.evaluated[0].1
    );

    println!("# §4.3.3 hyperparameter grid search (4 levels, top-5 confirm)\n");
    let score = |round: &[HyperPoint]| dse_round(round.iter().map(hyper_config), threads);
    let result = tuning::grid_search(&tuning::exponential_grid(4), 5, score, score);
    println!(
        "winner: alpha={:.4} gamma={:.3} epsilon={:.4} (speedup {:.3})",
        result.winner.alpha, result.winner.gamma, result.winner.epsilon, result.score
    );
    println!("(paper's Table 2: alpha=0.0065 gamma=0.556 epsilon=0.002)");
    Ok(())
}

/// Scores one §4.3 search round: every candidate's geomean speedup over
/// the DSE cross-section, from one campaign ([`dse_spec`]) that simulates
/// the shared baselines once.
fn dse_round(cfgs: impl Iterator<Item = PythiaConfig>, threads: usize) -> Vec<f64> {
    let variants = cfgs.enumerate().map(|(i, cfg)| (format!("#{i}"), cfg));
    pythia_sweep::run(&dse_spec("dse", variants), threads)
        .expect("the DSE budgets reach memory on every cross-section workload")
        .aggregate(Key::Prefetcher, Value::Speedup)
        .into_iter()
        .map(|(_, score)| score)
        .collect()
}

/// `pythia-cli bench [--filter S] [--reps N] [--list] [--sections]` —
/// the kernel-level microscope: runs the `pythia-perf` microbenchmark
/// registry and prints the results table. It gates nothing; the
/// performance gate is `scripts/bench_ab.py` (parent vs head on one host).
pub fn bench(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown("bench", &[&["list", "sections", "filter", "reps"]])?;
    // A bare benchmark name would otherwise run the whole registry.
    if let Some(stray) = args.positionals.first() {
        return Err(format!(
            "unexpected argument {stray:?} for `bench`; select benchmarks with --filter SUBSTR"
        ));
    }
    if args.flag("list") {
        println!("# Registered microbenchmarks\n");
        for def in pythia_perf::registry() {
            println!("  {} ({})", def.name, def.unit);
        }
        return Ok(());
    }

    // `--sections` profiles where a step spends its time instead of
    // running the registry: the agent step's ablation ladder (features,
    // argmax, EQ, SARSA + rest), then the simulator step's (generator,
    // core model, L1 hit, miss path, agent), then what each cache level
    // holds on the host.
    if args.flag("sections") {
        let scale = pythia_bench::scale();
        let agent = pythia_perf::sections::profile_agent_step(scale);
        println!("# Agent step ladder (agent_step)\n");
        print!("{}", agent.to_markdown());
        println!(
            "\n{} demand steps per pass; pythia {:.2} ns/step",
            agent.steps, agent.agent_ns
        );
        println!("\n# Simulator step ladder (sim_step)\n");
        print!(
            "{}",
            pythia_perf::sections::profile_sim_step(scale).to_markdown()
        );
        println!("\n# Host bytes per cache level\n");
        print!("{}", pythia_perf::sections::hierarchy_host_bytes(&[1, 4]));
        return Ok(());
    }

    let reps = args.opt_num("reps", 7u32)?;
    if reps == 0 {
        return Err("--reps must be positive".into());
    }
    let measurements = pythia_perf::run_filtered(args.opt("filter"), reps);
    if measurements.is_empty() {
        return Err(format!(
            "no benchmark matches filter {:?}; see `pythia-cli bench --list`",
            args.opt("filter").unwrap_or_default()
        ));
    }
    print!("{}", pythia_perf::bench::to_markdown(&measurements));
    Ok(())
}

/// `pythia-cli trace <record|replay|info|gen> ...`
pub fn trace(args: &ParsedArgs) -> Result<(), String> {
    match args.positionals.first().map(String::as_str) {
        Some("record") => trace_record(args),
        Some("replay") => trace_replay(args),
        Some("info") => trace_info(args),
        Some("gen") => trace_gen(args),
        _ => Err(
            "usage: pythia-cli trace record <workload> <file> [--instructions N]\n\
             \x20      pythia-cli trace replay <file> <prefetcher> [options]\n\
             \x20      pythia-cli trace info <file>\n\
             \x20      pythia-cli trace gen <profile> [--seed N] [--out DIR] [--stats-json [FILE]]"
                .into(),
        ),
    }
}

/// `pythia-cli trace gen <profile>` — renders a robustness profile
/// (expected / stress / adversarial). Default output is a per-trace
/// summary table; `--out DIR` additionally records each trace as a binary
/// file; `--stats-json` emits the full stats bundle (access counts,
/// coverage ratio, phase map) — to a file when given a value, alone on
/// stdout as a bare flag (so it pipes into JSON tooling).
fn trace_gen(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown(
        "trace gen",
        &[&["seed", "instructions", "out", "stats-json"]],
    )?;
    let [_, profile_name] = args.positionals.as_slice() else {
        return Err("usage: pythia-cli trace gen <expected|stress|adversarial> \
             [--seed N] [--instructions N] [--out DIR] [--stats-json [FILE]]"
            .into());
    };
    let profile = Profile::parse(profile_name).ok_or_else(|| {
        format!("unknown profile {profile_name:?}; profiles: expected, stress, adversarial")
    })?;
    let seed = args.opt_num("seed", CAMPAIGN_SEED)?;
    let n = args.opt_num("instructions", 100_000usize)?;
    if n == 0 {
        return Err("--instructions must be positive".into());
    }
    let workloads = profile.workloads(seed);
    // A bare `--stats-json` owns stdout (pure JSON), so side notices from
    // `--out` go to stderr in that mode.
    let json_to_stdout = args.flag("stats-json") && args.opt("stats-json").is_none();
    if let Some(dir) = args.opt("out") {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for w in &workloads {
            record_trace(w.source(n), &format!("{dir}/{}.trace", w.name))?;
        }
        let notice = format!(
            "wrote {} {} traces ({n} instructions each) to {dir}",
            workloads.len(),
            profile.label()
        );
        if json_to_stdout {
            eprintln!("{notice}");
        } else {
            println!("{notice}");
        }
    }
    if args.flag("stats-json") {
        let json = profile_stats(profile, seed, n).render_pretty();
        match args.opt("stats-json") {
            Some(path) => {
                write_artifact(path, &json)?;
                println!("wrote {} profile stats to {path}", profile.label());
            }
            None => print!("{json}"),
        }
        return Ok(());
    }
    println!(
        "# Profile {} — {} (seed {seed})\n",
        profile.label(),
        profile.description()
    );
    let mut t = Table::new(&[
        "trace",
        "pattern",
        "seed",
        "mem accesses",
        "distinct lines",
        "coverage",
    ]);
    for w in &workloads {
        let s = trace_stats(w, n);
        let get = |k: &str| s.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        t.row(&[
            w.name.clone(),
            w.spec.kind.tag().to_string(),
            w.spec.seed.to_string(),
            get("mem_accesses").to_string(),
            get("distinct_lines").to_string(),
            format!(
                "{:.4}",
                s.get("coverage_ratio")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            ),
        ]);
    }
    println!("{}", t.to_markdown());
    Ok(())
}

/// `pythia-cli trace record <workload> <file>` — streams the workload's
/// generator straight into the incremental binary encoder; no point of
/// the pipeline holds the trace in memory.
fn trace_record(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown("trace record", &[&["instructions"]])?;
    let [_, workload, out_file] = args.positionals.as_slice() else {
        return Err("usage: pythia-cli trace record <workload> <file> [--instructions N]".into());
    };
    let w = find_workload(workload)?;
    let n = args.opt_num("instructions", 500_000usize)?;
    if n == 0 {
        return Err("--instructions must be positive".into());
    }
    let (file, count) = record_trace(w.source(n), out_file)?;
    let bytes = file
        .metadata()
        .map(|m| m.len())
        .map_err(|e| format!("{out_file}: {e}"))?;
    println!("recorded {count} instructions ({bytes} bytes) to {out_file}");
    Ok(())
}

/// Writes one pass of `source` to a new trace file at `path`, returning
/// the finished file and its record count.
fn record_trace(
    mut source: Box<dyn TraceSource>,
    path: &str,
) -> Result<(std::fs::File, u64), String> {
    let at_path = |e: TraceFileError| format!("{path}: {e}");
    let mut writer = TraceWriter::create(path).map_err(at_path)?;
    while let Some(r) = source.next_record() {
        writer.write_record(&r).map_err(at_path)?;
    }
    writer.finish().map_err(at_path)
}

/// `pythia-cli trace replay <file> <prefetcher>` — simulates straight
/// from a trace file. With the same budgets and a trace recorded at
/// `--instructions warmup+measure`, the report is byte-identical to the
/// equivalent `pythia-cli run` (pinned by the CI record→replay smoke).
fn trace_replay(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown("trace replay", &[SPEC_OPTS, &["report-json"]])?;
    let [_, file, prefetcher] = args.positionals.as_slice() else {
        return Err("usage: pythia-cli trace replay <file> <prefetcher> [options]".into());
    };
    run_pair(args, file, prefetcher, |_| {
        let source = FileTraceSource::open(file).map_err(|e| format!("{file}: {e}"))?;
        Ok(Box::new(source))
    })
}

/// `pythia-cli trace info <file> [--json]` — header and one-pass stream
/// statistics, human-readable by default, machine-readable with `--json`.
fn trace_info(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown("trace info", &[&["json"]])?;
    let [_, file] = args.positionals.as_slice() else {
        return Err("usage: pythia-cli trace info <file> [--json]".into());
    };
    let info = trace_file_info(file).map_err(|e| format!("{file}: {e}"))?;
    if args.flag("json") {
        let mut out = pythia_stats::json::Json::obj()
            .set("file", file.as_str())
            .set("version", u64::from(info.version))
            .set("file_bytes", info.file_bytes)
            .set("records", info.records)
            .set("loads", info.loads)
            .set("stores", info.stores)
            .set("branches", info.branches)
            .set("mispredicts", info.mispredicts)
            .set("dependent_loads", info.dependent_loads);
        out = match info.addr_range {
            None => out.set("addr_range", pythia_stats::json::Json::Null),
            Some((lo, hi)) => out.set(
                "addr_range",
                pythia_stats::json::Json::obj().set("lo", lo).set("hi", hi),
            ),
        };
        print!("{}", out.render_pretty());
        return Ok(());
    }
    let pct = |n: u64| n as f64 * 100.0 / info.records.max(1) as f64;
    println!("file            : {file}");
    println!("format version  : {}", info.version);
    println!("file size       : {} bytes", info.file_bytes);
    println!("records         : {}", info.records);
    println!("loads           : {} ({:.1}%)", info.loads, pct(info.loads));
    println!(
        "stores          : {} ({:.1}%)",
        info.stores,
        pct(info.stores)
    );
    println!(
        "branches        : {} ({:.1}%, {} mispredicted)",
        info.branches,
        pct(info.branches),
        info.mispredicts
    );
    println!("dependent loads : {}", info.dependent_loads);
    match info.addr_range {
        Some((lo, hi)) => println!("address range   : {lo:#x}..{hi:#x}"),
        None => println!("address range   : (no memory operations)"),
    }
    Ok(())
}

/// `pythia-cli serve [--addr A] [--workers N] [--threads N] [--queue N]
/// [--cache-dir DIR] [--cache-max-bytes N] [--max-conns N]
/// [--journal FILE] [--log-level LVL]` — runs the campaign service
/// until killed.
pub fn serve(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown(
        "serve",
        &[
            THREADS_OPT,
            &[
                "addr",
                "workers",
                "queue",
                "max-conns",
                "cache-dir",
                "cache-max-bytes",
                "journal",
                "log-level",
            ],
        ],
    )?;
    let addr = args.opt("addr").unwrap_or("127.0.0.1:7071");
    let workers = args.opt_num("workers", 1usize)?.max(1);
    let queue_cap = args.opt_num("queue", 64usize)?.max(1);
    let max_conns = args.opt_num("max-conns", 64usize)?.max(1);
    let cache_max_bytes = match args.opt("cache-max-bytes") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => Some(n),
            _ => return Err(format!("--cache-max-bytes: bad value {v:?}")),
        },
    };
    let sim_threads = threads_from(args)?;
    // The service defaults to lifecycle logging (`info`); the library
    // default stays `warn` for embedded use.
    let log_level = match args.opt("log-level") {
        None => Level::Info,
        Some(name) => Level::parse(name).ok_or_else(|| {
            format!("--log-level: unknown level {name:?} (error|warn|info|debug)")
        })?,
    };
    let config = pythia_serve::ServeConfig {
        workers,
        queue_cap,
        sim_threads,
        cache_dir: args.opt("cache-dir").map(std::path::PathBuf::from),
        cache_max_bytes,
        max_conns,
        journal: args.opt("journal").map(std::path::PathBuf::from),
        log_level,
        ..pythia_serve::ServeConfig::default()
    };
    let server = pythia_serve::Server::bind(addr, &config)?;
    // The `listening on` line is the startup handshake: scripts (and the
    // CI smoke) parse the resolved address from it when binding to :0.
    println!("listening on {}", server.local_addr()?);
    println!(
        "workers: {workers}  queue: {queue_cap}  sim-threads: {sim_threads}  max-conns: {max_conns}  cache: {}",
        match &config.cache_dir {
            Some(dir) => dir.display().to_string(),
            None => format!(
                "(memory, {} bytes)",
                cache_max_bytes.unwrap_or(pythia_serve::server::MEMORY_STORE_BYTES)
            ),
        }
    );
    server.serve_forever()
}

/// `pythia-cli submit <figure> --addr HOST:PORT` — submits a campaign
/// (optionally under a `--tenant` key with a fair-queueing `--priority`),
/// polls it to completion printing cell progress (with elapsed wall time
/// and the service's aggregate Minst/s from `/metrics`), and fetches the
/// rendered result.
pub fn submit(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown(
        "submit",
        &[&[
            "addr",
            "format",
            "out",
            "poll-ms",
            "timeout-s",
            "tenant",
            "priority",
        ]],
    )?;
    let [figure] = args.positionals.as_slice() else {
        return Err("usage: pythia-cli submit <figure> --addr HOST:PORT [options]".into());
    };
    let addr = args
        .opt("addr")
        .ok_or("submit needs --addr HOST:PORT (see `pythia-cli serve`)")?;
    let format = args.opt("format").unwrap_or("md");
    let poll = std::time::Duration::from_millis(args.opt_num("poll-ms", 200u64)?.max(10));
    let timeout = std::time::Duration::from_secs(args.opt_num("timeout-s", 600u64)?.max(1));
    let tenant = args.opt("tenant").unwrap_or("");
    let priority = args.opt_num("priority", 1u64)?;

    let submitted = pythia_serve::client::submit_figure_as(addr, figure, tenant, priority)?;
    eprintln!(
        "submitted {figure} as {} (status: {}, cached: {})",
        submitted.digest, submitted.status, submitted.cached
    );
    // Progress lines go to stderr (like the submission banner) so stdout
    // stays a clean artifact stream for `--out`-less pipelines. Each line
    // carries elapsed wall time plus the service's aggregate simulation
    // throughput pulled from `GET /metrics` (best-effort: a failed poll
    // just omits the rate).
    let started = std::time::Instant::now();
    let mut last_done = None;
    pythia_serve::client::wait_done_with(addr, &submitted.digest, poll, timeout, |done, total| {
        if last_done != Some(done) {
            last_done = Some(done);
            let rate = pythia_serve::client::metrics(addr)
                .ok()
                .and_then(|m| {
                    m.get("throughput")
                        .and_then(|t| t.get("minst_per_sec"))
                        .and_then(|v| v.as_f64())
                })
                .map(|minst| format!(", {minst:.2} Minst/s"))
                .unwrap_or_default();
            eprintln!(
                "progress: {done}/{total} cells ({:.1} s elapsed{rate})",
                started.elapsed().as_secs_f64()
            );
        }
    })?;
    let rendered = pythia_serve::client::result(addr, &submitted.digest, format)?;
    match args.opt("out") {
        None => print!("{rendered}"),
        Some(path) => {
            write_artifact(path, &rendered)?;
            println!("wrote campaign {} ({format}) to {path}", submitted.digest);
        }
    }
    println!("cached: {}", submitted.cached);
    Ok(())
}

/// `pythia-cli storage` — Tables 4, 7 and 8 (storage, evaluated-prefetcher
/// metadata, area/power overheads) and the §4.2.2 search latency.
pub fn storage(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unknown("storage", &[])?;
    let cfg = PythiaConfig::basic();
    let kb = |bits: u64| format!("{:.1} KB", bits as f64 / 8192.0);

    println!("# Table 4 — Pythia storage overhead\n");
    let s = hw_model::storage(&cfg);
    let mut t = Table::new(&["structure", "size"]);
    t.row(&["QVStore".into(), kb(s.qvstore_bits)]);
    t.row(&["EQ".into(), kb(s.eq_bits)]);
    t.row(&["Total".into(), format!("{:.1} KB", s.total_kb())]);
    println!("{}", t.to_markdown());

    println!("# Table 7 — evaluated prefetcher storage (our estimates)\n");
    let mut t = Table::new(&["prefetcher", "estimated size", "paper"]);
    // The last three are evaluated (Fig. 8(d), the ladder) but absent from
    // the paper's Table 7.
    for (name, paper) in [
        ("spp", "6.2 KB"),
        ("bingo", "46 KB"),
        ("mlop", "8 KB"),
        ("dspatch", "3.6 KB"),
        ("spp+ppf", "39.3 KB"),
        ("pythia", "25.5 KB"),
        ("stride", "-"),
        ("streamer", "-"),
        ("ipcp", "-"),
    ] {
        let p = build_prefetcher(name, 0).expect("known prefetcher");
        t.row(&[name.into(), kb(p.storage_bits()), paper.into()]);
    }
    println!("{}", t.to_markdown());

    println!("# Table 8 — area & power overhead (anchored to §6.7 synthesis)\n");
    let o = hw_model::estimate_overhead(&cfg);
    let mut t = Table::new(&["processor", "area overhead", "power overhead"]);
    // Die areas/power implied by the paper's percentages.
    for (name, cores, die_mm2, tdp_w) in [
        ("4-core Skylake D-2123IT (60W)", 4usize, 128.2, 60.0),
        ("18-core Skylake 6150 (165W)", 18, 485.0, 165.0),
        ("28-core Skylake 8180M (205W)", 28, 694.0, 205.0),
    ] {
        let area_pct = o.area_overhead_pct(cores, die_mm2);
        let power_pct = o.power_mw * cores as f64 / (tdp_w * 1000.0) * 100.0;
        t.row(&[
            name.into(),
            format!("{area_pct:.2}%"),
            format!("{power_pct:.2}%"),
        ]);
    }
    println!("{}", t.to_markdown());
    println!(
        "Pythia per core: {:.2} mm^2, {:.2} mW (anchors: {:.2} mm^2, {:.2} mW)",
        o.area_mm2,
        o.power_mw,
        hw_model::anchors::AREA_MM2,
        hw_model::anchors::POWER_MW
    );

    println!("\n# §4.2.2 pipelined QVStore search\n");
    println!(
        "search latency: {} cycles (16 actions, 5-stage pipeline)",
        SearchPipeline::new(&cfg).search_latency()
    );
    let full = PythiaConfig::basic().with_actions(PythiaConfig::full_actions());
    println!(
        "unpruned action list would take {} cycles",
        SearchPipeline::new(&full).search_latency()
    );
    Ok(())
}
