//! End-to-end smoke tests for the `pythia-cli` binary: exit codes and
//! output shape for every subcommand, plus the hand-rolled arg parser's
//! error paths.

use std::process::{Command, Output};

/// A workload from `all_suites()` that simulates quickly.
const WORKLOAD: &str = "401.gcc-13B";

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pythia-cli"))
        .args(args)
        .output()
        .expect("spawn pythia-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Small budgets so each simulation finishes in well under a second.
const FAST: &[&str] = &["--warmup", "1000", "--measure", "4000"];

#[test]
fn no_args_prints_help_and_succeeds() {
    let out = cli(&[]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("USAGE"), "help must show usage: {text}");
    for sub in ["list", "run", "sweep", "dse", "trace", "storage"] {
        assert!(text.contains(sub), "help must mention {sub}");
    }
}

#[test]
fn list_prints_workloads_and_prefetchers() {
    let out = cli(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("# Workloads"));
    assert!(text.contains("# Prefetchers"));
    assert!(text.contains(WORKLOAD));
    for p in ["spp", "bingo", "pythia", "pythia_strict"] {
        assert!(text.contains(p), "list must advertise {p}");
    }
}

#[test]
fn list_names_is_machine_readable() {
    let out = cli(&["list", "--names"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let names: Vec<&str> = text.lines().collect();
    assert!(
        names.len() >= 50,
        "expected the full workload pool, got {}",
        names.len()
    );
    assert!(names.contains(&WORKLOAD));
    assert!(names.iter().all(|n| !n.trim().is_empty()));
}

#[test]
fn run_reports_metrics() {
    let out = cli(&[&["run", WORKLOAD, "pythia"], FAST].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for field in [
        "speedup",
        "coverage",
        "overprediction",
        "accuracy",
        "prefetches",
        "throughput",
        "Minst/s",
    ] {
        assert!(
            text.contains(field),
            "run output must report {field}: {text}"
        );
    }
}

#[test]
fn run_requires_both_positionals() {
    let out = cli(&["run", WORKLOAD]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: pythia-cli run"));
}

#[test]
fn run_rejects_unknown_workload_and_prefetcher() {
    let out = cli(&["run", "no-such-workload", "spp"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown workload"));

    let out = cli(&["run", WORKLOAD, "no-such-prefetcher"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown prefetcher"));
}

#[test]
fn run_rejects_malformed_numeric_options() {
    let out = cli(&["run", WORKLOAD, "spp", "--measure", "not-a-number"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--measure"));

    // A value that parses but cannot be simulated is an error naming the
    // field, not a panic (exit 101).
    for (option, value, field) in [
        ("--llc-kb", "0", "llc.size_bytes"),
        ("--mtps", "0", "dram.mtps"),
        ("--measure", "0", "--measure"),
    ] {
        let out = cli(&["run", WORKLOAD, "spp", option, value]);
        assert_eq!(out.status.code(), Some(1), "{option} {value}");
        assert!(stderr(&out).contains(field), "{option}: {}", stderr(&out));
    }
}

#[test]
fn sweep_adhoc_renders_one_row_per_prefetcher() {
    let out = cli(&[
        &[
            "sweep",
            "--workloads",
            WORKLOAD,
            "--prefetchers",
            "spp,stride",
        ],
        FAST,
    ]
    .concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let rows = |name: &str| {
        text.lines()
            .filter(|l| l.contains(&format!(" {name} ")))
            .count()
    };
    assert_eq!(rows("spp"), 1, "{text}");
    assert_eq!(rows("stride"), 1, "{text}");
}

#[test]
fn sweep_adhoc_rejects_unknown_prefetcher_in_list() {
    let out = cli(&[
        &[
            "sweep",
            "--workloads",
            WORKLOAD,
            "--prefetchers",
            "spp,bogus",
        ],
        FAST,
    ]
    .concat());
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown prefetcher"));
}

/// A budget too small to reach memory leaves the Appendix A.6 metrics
/// undefined: an error naming the workload, not a panic.
#[test]
fn budgets_without_llc_misses_are_errors_not_panics() {
    const STARVED: &[&str] = &["--warmup", "10", "--measure", "50"];
    let sweep: &[&str] = &[
        "sweep",
        "--workloads",
        "602.gcc_s-734B",
        "--prefetchers",
        "stride",
    ];
    let run: &[&str] = &["run", "602.gcc_s-734B", "stride"];
    for command in [sweep, run] {
        let out = cli(&[command, STARVED].concat());
        let err = stderr(&out);
        assert!(!out.status.success(), "{command:?}");
        assert!(err.contains("602.gcc_s-734B"), "{command:?}: {err}");
        assert!(err.contains("no LLC load misses"), "{command:?}: {err}");
        assert!(!err.contains("panicked"), "{command:?}: {err}");
    }
}

/// Records one pass of the trace file at `path` yields, decoded the way
/// `trace replay` decodes it.
fn replayed_records(path: &std::path::Path) -> usize {
    use pythia_sim::trace::{FileTraceSource, TraceSource};
    let mut src = FileTraceSource::open(path).expect("decodable trace");
    std::iter::from_fn(|| src.next_record()).count()
}

#[test]
fn trace_record_writes_a_decodable_file() {
    let dir = std::env::temp_dir().join("pythia_cli_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("out.pytr");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "trace",
        "record",
        WORKLOAD,
        path_str,
        "--instructions",
        "5000",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("recorded 5000 instructions"));
    assert_eq!(replayed_records(&path), 5000);
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_record_replay_roundtrip_matches_direct_run() {
    let dir = std::env::temp_dir().join("pythia_cli_roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("w.pytr");
    let trace_str = trace_path.to_str().expect("utf-8 temp path");
    let direct_json = dir.join("direct.json");
    let replay_json = dir.join("replay.json");

    // Record exactly warmup+measure instructions, then both paths must
    // produce byte-identical SimReport JSON.
    let out = cli(&[
        "trace",
        "record",
        WORKLOAD,
        trace_str,
        "--instructions",
        "5000",
    ]);
    assert!(out.status.success(), "record: {}", stderr(&out));
    let out = cli(&[
        &["run", WORKLOAD, "stride"],
        FAST,
        &["--report-json", direct_json.to_str().expect("utf-8")],
    ]
    .concat());
    assert!(out.status.success(), "run: {}", stderr(&out));
    let out = cli(&[
        &["trace", "replay", trace_str, "stride"],
        FAST,
        &["--report-json", replay_json.to_str().expect("utf-8")],
    ]
    .concat());
    assert!(out.status.success(), "replay: {}", stderr(&out));
    assert!(stdout(&out).contains("speedup"));

    let direct = std::fs::read(&direct_json).expect("direct report");
    let replay = std::fs::read(&replay_json).expect("replay report");
    assert!(!direct.is_empty());
    assert_eq!(
        direct, replay,
        "record → replay must reproduce the direct run byte-for-byte"
    );
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&direct_json).ok();
    std::fs::remove_file(&replay_json).ok();
}

#[test]
fn trace_info_reports_header_and_mix() {
    let dir = std::env::temp_dir().join("pythia_cli_info");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("info.pytr");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "trace",
        "record",
        WORKLOAD,
        path_str,
        "--instructions",
        "3000",
    ]);
    assert!(out.status.success(), "record: {}", stderr(&out));
    let out = cli(&["trace", "info", path_str]);
    assert!(out.status.success(), "info: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("records         : 3000"), "{text}");
    for field in [
        "format version",
        "loads",
        "stores",
        "branches",
        "address range",
    ] {
        assert!(text.contains(field), "info must report {field}: {text}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_gen_stats_json_is_pure_and_parses() {
    // A bare `--stats-json` must own stdout (pure JSON, pipeable).
    let out = cli(&[
        "trace",
        "gen",
        "adversarial",
        "--instructions",
        "2000",
        "--stats-json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let json = pythia_stats::json::parse(&text).expect("stdout must be pure JSON");
    assert_eq!(
        json.get("profile").and_then(|v| v.as_str()),
        Some("adversarial")
    );
    let traces = json.get("traces").and_then(|v| v.as_arr()).expect("traces");
    assert!(!traces.is_empty());
    for t in traces {
        let ratio = t
            .get("coverage_ratio")
            .and_then(|v| v.as_f64())
            .expect("coverage_ratio");
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio={ratio}");
        assert!(t.get("phase_map").and_then(|v| v.as_arr()).is_some());
    }
}

#[test]
fn trace_gen_writes_traces_and_summary() {
    let dir = std::env::temp_dir().join("pythia_cli_gen");
    std::fs::remove_dir_all(&dir).ok();
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "trace",
        "gen",
        "expected",
        "--instructions",
        "2000",
        "--out",
        dir_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("# Profile expected"), "{text}");
    assert!(text.contains("coverage"), "{text}");
    let files: Vec<_> = std::fs::read_dir(&dir).expect("out dir").collect();
    assert_eq!(files.len(), 6, "one trace file per expected-profile unit");
    // Spot-check one file decodes.
    assert_eq!(replayed_records(&dir.join("exp-stream.trace")), 2000);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_gen_rejects_unknown_profile() {
    let out = cli(&["trace", "gen", "bogus"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown profile"));
}

#[test]
fn sweep_robust_campaigns_are_listed() {
    let out = cli(&["sweep", "--list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for id in ["robust01", "robust02", "robust03"] {
        assert!(text.contains(id), "sweep --list must show {id}");
    }
}

#[test]
fn trace_rejects_bad_subcommand_and_bad_file() {
    let out = cli(&["trace", WORKLOAD, "out.pytr"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: pythia-cli trace record"));

    let out = cli(&["trace", "replay", "/no/such/file.pytr", "stride"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("/no/such/file.pytr"));

    let out = cli(&["trace", "info", "/no/such/file.pytr"]);
    assert!(!out.status.success());

    // A non-trace file is rejected with a decode error, not a panic.
    let dir = std::env::temp_dir().join("pythia_cli_badfile");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("not_a_trace.pytr");
    std::fs::write(&path, b"this is not a trace file, not even close").expect("write");
    let out = cli(&["trace", "replay", path.to_str().expect("utf-8"), "stride"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad magic"), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_list_shows_registered_figures() {
    let out = cli(&["sweep", "--list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for id in ["fig09", "fig10", "tab02", "ablation"] {
        assert!(text.contains(id), "sweep --list must mention {id}: {text}");
    }
}

#[test]
fn sweep_figure_markdown_appends_the_view_and_json_stays_raw() {
    let md = bench_cli(&["sweep", "fig09", "--format", "md"]);
    assert!(md.status.success(), "stderr: {}", stderr(&md));
    let text = stdout(&md);
    assert!(
        text.starts_with("# sweep fig09"),
        "cell table first: {text}"
    );
    let a = text.find("## Fig. 9(a)").expect("per-suite heading");
    let b = text.find("## Fig. 9(b)").expect("ladder heading");
    assert!(a < b);
    assert!(text[a..b].contains("| suite "), "{}", &text[a..b]);
    assert!(text[a..b].contains("| GEOMEAN "), "{}", &text[a..b]);
    assert!(
        text[b..].contains("| configuration | geomean speedup |"),
        "{}",
        &text[b..]
    );
    assert!(text[b..].contains("| st+s+b+d+m "), "{}", &text[b..]);

    let json = bench_cli(&["sweep", "fig09", "--format", "json"]);
    assert!(json.status.success(), "stderr: {}", stderr(&json));
    let text = stdout(&json);
    assert!(!text.contains("Fig. 9"), "view text leaked into JSON");
    let pythia_stats::json::Json::Obj(fields) =
        pythia_stats::json::parse(&text).expect("emitted JSON parses")
    else {
        panic!("sweep JSON is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["name", "baselines", "cells", "throughput"]);
}

#[test]
fn sweep_adhoc_markdown_has_baseline_and_cells() {
    let out = cli(&[
        &[
            "sweep",
            "--workloads",
            WORKLOAD,
            "--prefetchers",
            "stride",
            "--threads",
            "2",
        ],
        FAST,
    ]
    .concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("| sweep |"), "long-format table: {text}");
    assert!(text.contains("none"), "baseline row present");
    assert!(text.contains("stride"));
}

#[test]
fn sweep_adhoc_json_parses_and_out_writes_file() {
    let dir = std::env::temp_dir().join("pythia_cli_sweep_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sweep.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        &[
            "sweep",
            "--workloads",
            WORKLOAD,
            "--prefetchers",
            "stride,spp",
            "--format",
            "json",
            "--out",
            path_str,
        ],
        FAST,
    ]
    .concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("wrote sweep"));
    let text = std::fs::read_to_string(&path).expect("json written");
    let parsed = pythia_stats::json::parse(&text).expect("emitted JSON parses");
    let cells = parsed.get("cells").and_then(|c| c.as_arr()).expect("cells");
    assert_eq!(cells.len(), 2, "one cell per prefetcher");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_rejects_unknown_figure_and_format() {
    let out = cli(&["sweep", "no-such-figure"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown figure"));

    let out = cli(&[&["sweep", "--workloads", WORKLOAD, "--format", "xml"], FAST].concat());
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown format"));
}

/// `bench` variant of [`cli`] pinning a tiny `PYTHIA_BENCH_SCALE` so each
/// repetition stays in the millisecond range.
fn bench_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pythia-cli"))
        .args(args)
        .env("PYTHIA_BENCH_SCALE", "0.01")
        .output()
        .expect("spawn pythia-cli")
}

#[test]
fn bench_list_names_required_benchmarks() {
    let out = bench_cli(&["bench", "--list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "agent_step",
        "cache_probe",
        "llc_fill",
        "trace_decode",
        "e2e_single_core",
    ] {
        assert!(text.contains(name), "bench --list must mention {name}");
    }
}

#[test]
fn bench_filtered_run_writes_json_report() {
    let out = bench_cli(&["bench", "--filter", "trace_decode", "--reps", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // The header, the separator, then one row per benchmark run.
    let rows: Vec<Vec<&str>> = text
        .lines()
        .filter(|l| l.starts_with("| "))
        .skip(2)
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    assert_eq!(rows.len(), 1, "one row: {text}");
    assert_eq!(rows[0][0], "trace_decode", "{text}");
    assert_eq!(rows[0][1], "records", "{text}");
    assert!(rows[0][4].ends_with("Mrecords/s"), "throughput: {text}");
}

/// `bench` prints its table and saves nothing: comparing two commits is
/// `scripts/bench_ab.py`'s job, so `--out` is an unknown option that runs
/// nothing and writes nothing.
#[test]
fn bench_refuses_out_and_writes_no_file() {
    let dir = std::env::temp_dir().join("pythia_cli_bench_no_out");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.json");
    std::fs::remove_file(&path).ok();
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = bench_cli(&[
        "bench",
        "--filter",
        "trace_decode",
        "--reps",
        "2",
        "--out",
        path_str,
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert_eq!(
        stderr(&out).trim_end(),
        "error: unknown option --out for `bench`"
    );
    assert!(stdout(&out).is_empty(), "ran: {}", stdout(&out));
    assert!(!path.exists(), "wrote {path_str}");
}

#[test]
fn bench_rejects_unmatched_filter_and_bad_reps() {
    let out = bench_cli(&["bench", "--filter", "no-such-benchmark"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no benchmark matches"));
    let out = bench_cli(&["bench", "--reps", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--reps must be positive"));
}

#[test]
fn dse_runs_every_search_round_and_names_the_first_best_row() {
    let out = bench_cli(&["dse", "--threads", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for heading in ["# §4.3.1 ", "# §4.3.2 ", "# §4.3.3 "] {
        assert!(text.contains(heading), "missing {heading}: {text}");
    }
    // §4.3.1's table is sorted best-first, ties in evaluation order, and
    // the winner is the first of the equal best.
    let first_row = text
        .lines()
        .find(|l| l.starts_with("| ") && !l.starts_with("| state vector") && !l.starts_with("| -"))
        .expect("a table row");
    let first = first_row
        .trim_matches('|')
        .split('|')
        .next()
        .unwrap()
        .trim();
    let winner = text
        .lines()
        .find_map(|l| l.strip_prefix("winner: "))
        .expect("winner");
    assert_eq!(winner, first, "{text}");

    for bad in [&["dse", "--bogus"][..], &["dse", "--threads", "0"]] {
        let out = bench_cli(bad);
        assert_eq!(out.status.code(), Some(1), "{bad:?}");
        assert!(stdout(&out).is_empty(), "{bad:?} ran: {}", stdout(&out));
    }
}

#[test]
fn storage_prints_overhead_tables() {
    let out = cli(&["storage"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for needle in [
        "# Table 4",
        "| QVStore   | 24.0 KB |",
        "# Table 7",
        "| prefetcher | estimated size | paper",
        "# Table 8",
        "mm^2",
        "search latency: 20 cycles",
    ] {
        assert!(
            text.contains(needle),
            "storage must print {needle:?}: {text}"
        );
    }
}

#[test]
fn unknown_subcommand_fails() {
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown subcommand"));
}

/// An option the subcommand does not read is an error before any work
/// starts — a typo must not silently simulate the defaults, and a retired
/// option must not silently gate nothing.
#[test]
fn unknown_options_fail_naming_the_option_and_run_nothing() {
    let cases: [(&[&str], &str); 6] = [
        (
            &["run", WORKLOAD, "stride", "--mesure", "5"],
            "unknown option --mesure for `run`",
        ),
        (
            &["bench", "--baseline", "x.json"],
            "unknown option --baseline for `bench`",
        ),
        // A bare benchmark name is not a filter: it used to run the whole
        // registry and exit 0.
        (
            &["bench", "core_dispatch"],
            "unexpected argument \"core_dispatch\" for `bench`; \
             select benchmarks with --filter SUBSTR",
        ),
        (
            &["bench", "--compare", "old.json", "new.json"],
            "unknown option --compare for `bench`",
        ),
        (
            &["serve", "--worker", "2"],
            "unknown option --worker for `serve`",
        ),
        (
            &[
                "trace",
                "replay",
                "/no/such/file.pytr",
                "stride",
                "--warmpu",
                "1",
            ],
            "unknown option --warmpu for `trace replay`",
        ),
    ];
    for (args, message) in cases {
        let out = bench_cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
        assert_eq!(
            stderr(&out).trim_end(),
            format!("error: {message}"),
            "{args:?}"
        );
    }
    // A registered figure fixes its own budgets, so the ad-hoc options
    // are refused there and accepted without a figure id.
    let out = bench_cli(&["sweep", "fig09", "--measure", "100"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown option --measure for `sweep <figure>`"));
}

#[test]
fn parser_error_paths_reach_the_user() {
    // Duplicate option.
    let out = cli(&["run", WORKLOAD, "spp", "--measure", "1", "--measure", "2"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("more than once"));

    // Bare `--`.
    let out = cli(&["run", "--"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unexpected bare"));
}

#[test]
fn trace_info_json_is_machine_readable() {
    let dir = std::env::temp_dir().join("pythia_cli_info_json");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("info.pytr");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "trace",
        "record",
        WORKLOAD,
        path_str,
        "--instructions",
        "3000",
    ]);
    assert!(out.status.success(), "record: {}", stderr(&out));
    let out = cli(&["trace", "info", path_str, "--json"]);
    assert!(out.status.success(), "info --json: {}", stderr(&out));
    let parsed = pythia_stats::json::parse(&stdout(&out)).expect("info JSON parses");
    assert_eq!(
        parsed.get("records").and_then(|v| v.as_u64()),
        Some(3000),
        "record count"
    );
    assert_eq!(parsed.get("version").and_then(|v| v.as_u64()), Some(1));
    let size = parsed
        .get("file_bytes")
        .and_then(|v| v.as_u64())
        .expect("file size");
    assert_eq!(size, std::fs::metadata(&path).expect("metadata").len());
    for key in [
        "loads",
        "stores",
        "branches",
        "mispredicts",
        "dependent_loads",
    ] {
        assert!(
            parsed.get(key).and_then(|v| v.as_u64()).is_some(),
            "info JSON must carry {key}"
        );
    }
    assert!(
        parsed.get("addr_range").is_some(),
        "info JSON must carry addr_range"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_paths_create_missing_parent_directories() {
    let root = std::env::temp_dir().join(format!("pythia_cli_outdirs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // sweep --out into a directory that does not exist yet.
    let sweep_out = root.join("a/b/sweep.json");
    let out = cli(&[
        &[
            "sweep",
            "--workloads",
            WORKLOAD,
            "--prefetchers",
            "stride",
            "--format",
            "json",
            "--out",
            sweep_out.to_str().expect("utf-8"),
        ],
        FAST,
    ]
    .concat());
    assert!(out.status.success(), "sweep --out: {}", stderr(&out));
    assert!(sweep_out.is_file(), "sweep artifact written");

    // run --report-json likewise.
    let report_out = root.join("c/d/report.json");
    let out = cli(&[
        &["run", WORKLOAD, "stride"],
        FAST,
        &["--report-json", report_out.to_str().expect("utf-8")],
    ]
    .concat());
    assert!(out.status.success(), "run --report-json: {}", stderr(&out));
    assert!(report_out.is_file(), "report artifact written");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sweep_cache_dir_hits_skip_simulation_and_carry_provenance() {
    let root = std::env::temp_dir().join(format!("pythia_cli_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let args: &[&str] = &[
        &[
            "sweep",
            "--workloads",
            WORKLOAD,
            "--prefetchers",
            "stride",
            "--format",
            "json",
            "--cache-dir",
            root.to_str().expect("utf-8"),
        ],
        FAST,
    ]
    .concat();

    let miss = cli(args);
    assert!(miss.status.success(), "miss: {}", stderr(&miss));
    let miss_json = pythia_stats::json::parse(&stdout(&miss)).expect("miss JSON parses");
    assert_eq!(
        miss_json.get("cached").and_then(|v| v.as_bool()),
        Some(false),
        "first run is a miss"
    );
    let digest = miss_json
        .get("digest")
        .and_then(|v| v.as_str())
        .expect("digest provenance")
        .to_string();
    assert!(
        root.join(format!("{digest}.json")).is_file(),
        "artifact persisted"
    );

    let hit = cli(args);
    assert!(hit.status.success(), "hit: {}", stderr(&hit));
    let hit_json = pythia_stats::json::parse(&stdout(&hit)).expect("hit JSON parses");
    assert_eq!(
        hit_json.get("cached").and_then(|v| v.as_bool()),
        Some(true),
        "second run is a hit"
    );

    // Identical payload modulo the provenance flag.
    let strip = |j: &pythia_stats::json::Json| match j {
        pythia_stats::json::Json::Obj(fields) => pythia_stats::json::Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "cached")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    assert_eq!(
        strip(&hit_json).render(),
        strip(&miss_json).render(),
        "hit payload is byte-identical to the miss payload"
    );

    // The md format prints the same provenance lines.
    let md_args: Vec<&str> = args
        .iter()
        .map(|a| if *a == "json" { "md" } else { *a })
        .collect();
    let md = cli(&md_args);
    assert!(md.status.success(), "md hit: {}", stderr(&md));
    let text = stdout(&md);
    assert!(text.contains("cached: true"), "{text}");
    assert!(text.contains(&format!("digest: {digest}")), "{text}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn serve_and_submit_usage_errors() {
    // submit without --addr is a usage error, not a hang.
    let out = cli(&["submit", "fig01"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--addr"), "{}", stderr(&out));

    // submit against a dead port fails fast with a transport error.
    let out = cli(&[
        "submit",
        "fig01",
        "--addr",
        "127.0.0.1:9",
        "--timeout-s",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("connect"), "{}", stderr(&out));

    // serve on an unbindable address reports the bind failure.
    let out = cli(&["serve", "--addr", "256.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bind"), "{}", stderr(&out));

    // help advertises the new subcommands.
    let help = cli(&[]);
    let text = stdout(&help);
    assert!(text.contains("serve"), "{text}");
    assert!(text.contains("submit"), "{text}");
}

#[test]
fn serve_submit_round_trip_over_a_real_socket() {
    use std::io::BufRead;

    // Start the service on an ephemeral port and parse the handshake line.
    let mut server = Command::new(env!("CARGO_BIN_EXE_pythia-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut reader = std::io::BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("handshake line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected handshake {line:?}"))
        .to_string();

    let submit = |expect_cached: &str| {
        let out = cli(&[
            "submit",
            "fig01",
            "--addr",
            &addr,
            "--format",
            "csv",
            "--timeout-s",
            "300",
        ]);
        assert!(out.status.success(), "submit: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.starts_with("sweep,unit,group,"), "{text}");
        assert!(
            text.contains(&format!("cached: {expect_cached}")),
            "expected cached: {expect_cached}: {text}"
        );
        text
    };
    let strip_provenance = |text: String| {
        text.lines()
            .filter(|l| !l.starts_with("cached: "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first = strip_provenance(submit("false"));
    let second = strip_provenance(submit("true"));
    assert_eq!(
        first, second,
        "cache hit serves the byte-identical rendering"
    );

    server.kill().expect("stop serve");
    server.wait().expect("reap serve");
}

#[test]
fn run_telemetry_json_writes_windows_without_perturbing_the_report() {
    let dir = std::env::temp_dir().join("pythia_cli_telemetry_smoke");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let plain = dir.join("plain.json");
    let telemetered = dir.join("telemetered.json");
    let windows = dir.join("windows.jsonl");

    let mut args: Vec<&str> = vec!["run", WORKLOAD, "pythia"];
    args.extend_from_slice(FAST);
    let plain_path = plain.to_str().expect("utf-8 path");
    let telemetered_path = telemetered.to_str().expect("utf-8 path");
    let windows_path = windows.to_str().expect("utf-8 path");

    let mut plain_args = args.clone();
    plain_args.extend_from_slice(&["--report-json", plain_path]);
    let out = cli(&plain_args);
    assert!(out.status.success(), "plain run: {}", stderr(&out));

    let mut tele_args = args;
    tele_args.extend_from_slice(&[
        "--report-json",
        telemetered_path,
        "--telemetry-json",
        windows_path,
        "--telemetry-window",
        "1000",
    ]);
    let out = cli(&tele_args);
    assert!(out.status.success(), "telemetry run: {}", stderr(&out));
    assert!(stdout(&out).contains("telemetry window(s)"));

    // The telemetry sink is strictly read-only: the report artifact is
    // byte-identical with and without it.
    let a = std::fs::read(&plain).expect("plain report");
    let b = std::fs::read(&telemetered).expect("telemetered report");
    assert_eq!(a, b, "telemetry must not perturb the report");

    // Every JSONL row parses and carries the per-window schema.
    let text = std::fs::read_to_string(&windows).expect("windows artifact");
    let rows: Vec<_> = text.lines().collect();
    assert!(rows.len() >= 4, "expected >= 4 windows, got {}", rows.len());
    for line in rows {
        let row = pythia_stats::json::parse(line).expect("row parses");
        for key in ["core", "window", "at", "instructions", "ipc", "coverage"] {
            assert!(row.get(key).is_some(), "row missing {key}: {line}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_sections_prints_the_phase_breakdown() {
    let out = bench_cli(&["bench", "--sections"]);
    assert!(out.status.success(), "bench --sections: {}", stderr(&out));
    let text = stdout(&out);
    // The agent step's ladder: one row per rung.
    assert!(text.contains("| rung | ns/step | share |"), "{text}");
    for rung in pythia_perf::sections::AGENT_STEP_RUNGS {
        let row = format!("| {rung} |");
        assert!(text.contains(&row), "agent ladder missing {row}: {text}");
    }
    // The simulator step's ladder follows: every rung of every stream.
    assert!(text.contains("| stream | rung | ns/record | share |"));
    for stream in pythia_perf::fixtures::LADDER_WORKLOADS {
        for rung in pythia_perf::sections::SIM_STEP_RUNGS {
            let row = format!("| {stream} | {rung} |");
            assert!(text.contains(&row), "ladder missing {row}: {text}");
        }
    }
}

#[test]
fn serve_rejects_unknown_log_level() {
    let out = cli(&["serve", "--log-level", "loud", "--addr", "127.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--log-level"), "{}", stderr(&out));
}
