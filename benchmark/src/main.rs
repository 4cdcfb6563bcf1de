//! The repository's benchmark: four workloads over the simulator, the
//! campaign engine and the campaign service; five end-to-end metrics; a
//! traced pass that attributes host time to layers from the outside in.
//!
//! ```text
//! pythia-benchmark run [--workload NAME] [--seed S] [--trace 0|1]
//!                      [--out FILE] [--selfcheck]
//! ```
//!
//! `--seconds N` is accepted and changes nothing: the benchmark's driver
//! passes `run_seconds` of `BENCHMARK.json`, and a workload is a fixed amount
//! of work sized for that value.
//!
//! With `--workload` the workload runs in this process and the last line of
//! standard output is the result object; without it every workload runs in a
//! child process of its own (so `peak_rss_mb` is per workload). Any failed
//! output check makes the exit code non-zero. See `benchmark/README.md`.

mod harness;
mod metrics;
mod serve;
mod sim;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use pythia_stats::json::{parse, Json};

use metrics::{END_TO_END, SAME_CODE_BOUND};

pub const WORKLOADS: [&str; 4] = [
    "sim1c_pythia_gen",
    "sim1c_registry_replay",
    "sim4c_pythia_lowbw",
    "serve_small_cells_mix",
];

const DEFAULT_SEED: u64 = 0x5eed_2021;
/// `run_seconds` of `BENCHMARK.json`: about how long each workload's fixed
/// repetition count takes on the reference host.
const RUN_SECONDS: u64 = 20;

/// Command-line arguments of `run`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub traced: bool,
    pub out: Option<PathBuf>,
    pub selfcheck: bool,
}

fn usage() -> String {
    format!(
        "usage: pythia-benchmark run [--workload NAME] [--seed S] [--trace 0|1] \
         [--out FILE] [--selfcheck]\nworkloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    if argv.first().map(String::as_str) != Some("run") {
        return Err(usage());
    }
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        traced: false,
        out: None,
        selfcheck: false,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                args.workload =
                    Some(known.ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds != RUN_SECONDS {
                    eprintln!(
                        "note: --seconds {seconds} changes nothing; every workload is a fixed \
                         number of repetitions, about {RUN_SECONDS} s on the reference host"
                    );
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Where the benchmark writes: `benchmark/out/`, inside its own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `name` under [`out_dir`]; an unwritable artifact is reported, not
/// fatal (the measurements stand without it).
pub fn write_out(name: &str, contents: &str) {
    let path = out_dir().join(name);
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// A scratch directory under [`out_dir`], removed on drop — success, failed
/// check or panic alike.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(label: &str) -> Self {
        let path = out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create scratch directory {}: {e}", path.display()));
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in this process.
fn run_here(name: &'static str, args: &Args, main_started: Instant) -> ExitCode {
    let outcome = if name == serve::NAME {
        serve::run(args, main_started)
    } else {
        sim::run(name, args, main_started)
    };
    outcome.print_table();
    let record = outcome.to_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &record) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => write_out(&format!("result-{name}.json"), &record),
    }
    println!("{}", outcome.result_line());
    ExitCode::from(outcome.exit_code() as u8)
}

/// Runs every workload, each in a child process of its own, and returns their
/// full records in [`WORKLOADS`] order (`None` for a child that failed).
fn run_children(args: &Args, tag: &str) -> Vec<Option<Json>> {
    let exe = std::env::current_exe().expect("path of this executable");
    WORKLOADS
        .iter()
        .map(|name| {
            let out = out_dir().join(format!("result-{name}{tag}.json"));
            std::fs::create_dir_all(out_dir()).ok()?;
            let status = Command::new(&exe)
                .args(["run", "--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .status()
                .ok()?;
            let record = parse(&std::fs::read_to_string(&out).ok()?).ok()?;
            status.success().then_some(record)
        })
        .collect()
}

fn metric(record: &Json, group: &str, name: &str) -> Option<f64> {
    record.get(group)?.get(name)?.get("value")?.as_f64()
}

/// `run` without `--workload`: all four, then one combined record.
fn run_all(args: &Args) -> ExitCode {
    let records = run_children(args, "");
    let ok = records.iter().all(Option::is_some);
    if let Some(path) = &args.out {
        let body: Vec<String> = records.iter().flatten().map(Json::render_pretty).collect();
        if let Err(e) = std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n"))) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("\n== summary ==");
    for (name, record) in WORKLOADS.iter().zip(&records) {
        match record {
            None => println!("  {name}: FAILED"),
            Some(r) => {
                let values: Vec<String> = END_TO_END
                    .iter()
                    .map(|(m, unit, _, _)| {
                        format!(
                            "{m} {:.4} {unit}",
                            metric(r, "end_to_end", m).unwrap_or(0.0)
                        )
                    })
                    .collect();
                println!("  {name}: {}", values.join(", "));
            }
        }
    }
    exit_code(ok)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run --selfcheck`: the full benchmark twice back to back on the same code
/// and seed (A/A). Every end-to-end metric must agree within
/// [`SAME_CODE_BOUND`], and every simulated count and digest exactly.
fn selfcheck(args: &Args) -> ExitCode {
    let untraced = Args {
        traced: false,
        ..args.clone()
    };
    let a = run_children(&untraced, "-a");
    let b = run_children(&untraced, "-b");
    let mut ok = true;
    println!("\n== selfcheck: relative difference of run B against run A ==");
    for ((name, a), b) in WORKLOADS.iter().zip(&a).zip(&b) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("  {name}: a run FAILED");
            ok = false;
            continue;
        };
        let noise = |r: &Json| metric(r, "per_layer", "host.rep_iqr_over_median").unwrap_or(0.0);
        println!(
            "  {name}  (host.rep_iqr_over_median {:.4} / {:.4})",
            noise(a),
            noise(b)
        );
        for ((m, _, better, regress), limit) in END_TO_END.into_iter().zip(SAME_CODE_BOUND) {
            let (va, vb) = (
                metric(a, "end_to_end", m).unwrap_or(0.0),
                metric(b, "end_to_end", m).unwrap_or(0.0),
            );
            let worse = if better == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let within = worse.abs() <= limit;
            ok &= within;
            println!(
                "    {m:<18} A {va:>14.6}  B {vb:>14.6}  diff {worse:>+8.4}  limit {limit:.3}  \
                 (regress bound {regress:.3})  {}",
                if within { "ok" } else { "EXCEEDED" }
            );
        }
        // Simulated statistics are deterministic: any difference is a bug.
        let exact = |r: &Json| {
            let counts: Vec<(String, String)> = r
                .get("per_layer")
                .and_then(Json::as_obj)
                .map(|rows| {
                    rows.iter()
                        .filter(|(k, _)| {
                            k.starts_with("sim.core")
                                || k.starts_with("sim.l")
                                || k.starts_with("sim.dram")
                                || k.starts_with("prefetch.")
                                || k == "reps"
                        })
                        .map(|(k, v)| (k.clone(), v.render()))
                        .collect()
                })
                .unwrap_or_default();
            (
                r.get("report_digest").map(Json::render),
                metric(r, "end_to_end", "sim_speedup").map(f64::to_bits),
                counts,
            )
        };
        let same = exact(a) == exact(b);
        ok &= same;
        println!(
            "    simulated counts, reps, sim_speedup, report_digest: {}",
            if same { "identical" } else { "DIFFER" }
        );
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

fn main() -> ExitCode {
    let main_started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.selfcheck) {
        (_, true) => selfcheck(&args),
        (Some(name), false) => run_here(name, &args, main_started),
        (None, false) => run_all(&args),
    }
}
