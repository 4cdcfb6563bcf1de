//! Integration tests pinning the sweep engine's contract: parallel
//! execution is byte-identical to serial, cell order is independent of the
//! thread count, and the JSON/CSV emitters round-trip the markdown numbers.

use pythia_core::{Feature, PythiaConfig};
use pythia_sim::config::SystemConfig;
use pythia_stats::json;
use pythia_sweep::{ConfigPoint, Key, PrefetcherKind, PrefetcherSpec, SweepSpec, Value, WorkUnit};
use pythia_workloads::{all_suites, PatternKind, Suite, Workload};

fn workload(name: &str) -> pythia_workloads::Workload {
    all_suites()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"))
}

/// A small but non-trivial grid: 2 workloads × 2 prefetchers × 2 configs.
fn small_spec() -> SweepSpec {
    SweepSpec::new("test-grid")
        .with_workloads([workload("429.mcf-184B"), workload("462.libquantum-714B")])
        .with_prefetchers(&["stride", "spp"])
        .with_config(ConfigPoint::single_core("short", 1_000, 4_000))
        .with_config(ConfigPoint::single_core("long", 2_000, 6_000))
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let spec = small_spec();
    let mut serial = pythia_sweep::run(&spec, 1).expect("serial run");
    let mut parallel = pythia_sweep::run(&spec, 4).expect("parallel run");
    assert_eq!(serial, parallel, "typed results must match exactly");
    // Wall-clock throughput is telemetry, not payload: it is excluded
    // from equality above, and stripped here so the rendered artifacts
    // can be compared byte-for-byte.
    serial.throughput = None;
    parallel.throughput = None;
    assert_eq!(
        serial.to_markdown(),
        parallel.to_markdown(),
        "rendered artifacts must be byte-identical"
    );
    assert_eq!(serial.to_json().render(), parallel.to_json().render());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn throughput_telemetry_is_populated_and_rendered() {
    let result = pythia_sweep::run(&small_spec(), 4).expect("run");
    let t = result.throughput.expect("engine records throughput");
    // 4 baselines + 8 cells, budgets 5 K and 8 K instructions per config.
    assert_eq!(t.instructions, 2 * (5_000 + 8_000) + 4 * (5_000 + 8_000));
    assert!(t.wall_seconds > 0.0);
    assert!(result.to_markdown().contains("throughput:"));
    let json = result.to_json().render_pretty();
    let parsed = json::parse(&json).expect("valid json");
    let tp = parsed.get("throughput").expect("throughput key");
    assert_eq!(
        tp.get("instructions").and_then(json::Json::as_f64),
        Some(t.instructions as f64)
    );
}

#[test]
fn cell_order_is_independent_of_thread_count() {
    let spec = small_spec();
    let two = pythia_sweep::run(&spec, 2).expect("2 threads");
    let three = pythia_sweep::run(&spec, 3).expect("3 threads");
    let seven = pythia_sweep::run(&spec, 7).expect("more threads than jobs");
    assert_eq!(two, three);
    assert_eq!(two, seven);
    // Grid order: unit-major, then config, then prefetcher.
    let coords: Vec<(String, String, String)> = two
        .cells
        .iter()
        .map(|c| (c.unit.clone(), c.config.clone(), c.prefetcher.clone()))
        .collect();
    assert_eq!(coords[0].0, "429.mcf-184B");
    assert_eq!(coords[0].1, "short");
    assert_eq!(coords[0].2, "stride");
    assert_eq!(coords[1].2, "spp");
    assert_eq!(coords[2].1, "long");
    assert_eq!(coords[4].0, "462.libquantum-714B");
    assert_eq!(two.cells.len(), 8);
    assert_eq!(two.baselines.len(), 4, "one baseline per unit × config");
}

#[test]
fn json_and_csv_round_trip_the_markdown_numbers() {
    let result = pythia_sweep::run(&small_spec(), 4).expect("run");

    // Markdown: pull every data row's speedup/ipc/coverage columns.
    let md = result.long_table().to_markdown();
    let md_rows: Vec<Vec<String>> = md
        .lines()
        .skip(2) // header + separator
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect();

    // CSV: same rows, same formatting.
    let csv_rows: Vec<Vec<String>> = result
        .to_csv()
        .lines()
        .skip(1)
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    assert_eq!(
        md_rows, csv_rows,
        "markdown and CSV must agree cell-for-cell"
    );

    // JSON: parse and re-format each metric with the table's precision; it
    // must reproduce the markdown string exactly.
    let parsed = json::parse(&result.to_json().render_pretty()).expect("emitted JSON parses");
    let mut json_cells: Vec<&json::Json> = Vec::new();
    for key in ["baselines", "cells"] {
        json_cells.extend(parsed.get(key).and_then(json::Json::as_arr).unwrap());
    }
    assert_eq!(json_cells.len(), md_rows.len());
    for (row, cell) in md_rows.iter().zip(&json_cells) {
        assert_eq!(
            cell.get("unit").and_then(json::Json::as_str),
            Some(row[1].as_str())
        );
        let metrics = cell.get("metrics").expect("metrics object");
        for (col, field) in [
            (6, "speedup"),
            (7, "ipc"),
            (8, "coverage"),
            (9, "overprediction"),
            (10, "accuracy"),
            (11, "baseline_mpki"),
        ] {
            let value = metrics.get(field).and_then(json::Json::as_f64).unwrap();
            assert_eq!(
                format!("{value:.6}"),
                row[col],
                "{field} must round-trip between JSON and markdown"
            );
        }
    }
}

#[test]
fn baselines_are_self_comparisons_and_shared() {
    let result = pythia_sweep::run(&small_spec(), 4).expect("run");
    for b in &result.baselines {
        assert_eq!(b.prefetcher, "none");
        assert!((b.metrics.speedup - 1.0).abs() < 1e-12);
        assert_eq!(b.metrics.coverage, 0.0);
    }
    // Cells compare against the matching baseline: identical prefetcher
    // and budget would give speedup 1; a real prefetcher yields a
    // different (finite, positive) ratio.
    for c in &result.cells {
        assert!(c.metrics.speedup.is_finite() && c.metrics.speedup > 0.0);
    }
}

#[test]
fn multi_core_mix_units_run_through_the_engine() {
    let w = workload("462.libquantum-714B");
    let spec = SweepSpec::new("mix-grid")
        .with_units([WorkUnit::homogeneous(&w, 2, 7919)])
        .with_prefetchers(&["stride"])
        .with_config(ConfigPoint::new(
            "2c",
            SystemConfig::with_cores(2),
            1_000,
            4_000,
        ));
    let serial = pythia_sweep::run(&spec, 1).expect("serial");
    let parallel = pythia_sweep::run(&spec, 4).expect("parallel");
    assert_eq!(serial, parallel);
    assert_eq!(serial.cells.len(), 1);
    assert!(serial.cells[0].unit.starts_with("homo-"));
}

#[test]
fn multi_core_grid_is_byte_identical_across_thread_counts() {
    // The full multi-core determinism pin: a grid of heterogeneous and
    // homogeneous 4-core mixes × 2 prefetchers × seeds, executed at
    // --threads 1/2/8, must render byte-identical artifacts. (The
    // single-config pin above leaves multi-core scheduling unexercised;
    // this closes that gap for the parallel runner.)
    let mix = WorkUnit::mix(
        "hetero-4c",
        "mix",
        vec![
            workload("429.mcf-184B"),
            workload("462.libquantum-714B"),
            workload("401.gcc-13B"),
            workload("470.lbm-164B"),
        ],
    );
    let spec = SweepSpec::new("mt-grid")
        .with_units([
            mix,
            WorkUnit::homogeneous(&workload("462.libquantum-714B"), 4, 7919),
        ])
        .with_prefetchers(&["stride", "pythia"])
        .with_seeds(&[0, 13])
        .with_config(ConfigPoint::new(
            "4c",
            SystemConfig::with_cores(4),
            1_000,
            4_000,
        ));
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let mut r = pythia_sweep::run(&spec, threads).expect("run");
            r.throughput = None; // wall-clock telemetry, not payload
            r
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads");
    assert_eq!(runs[0].to_json().render(), runs[2].to_json().render());
    assert_eq!(runs[0].to_csv(), runs[2].to_csv());
    assert_eq!(
        runs[0].cells.len(),
        2 * 2 * 2,
        "units x prefetchers x seeds"
    );
}

/// Thread-count invariance where cells read ahead: every trace is at least
/// `ReadAhead::MIN_RECORDS` records, so at one thread a generated trace is
/// produced on the idle CPU, while at two `SYSTEMS_ALIVE` keeps it inline.
/// `ReadAhead::wrap`'s choice must never change a report. (The grids above
/// run cells of 5 K–8 K instructions, which never read ahead.)
#[test]
fn read_ahead_scale_cells_are_byte_identical_across_thread_counts() {
    let (warmup, measure) = (16_000, 56_000);
    assert!(warmup + measure >= pythia_sim::trace::ReadAhead::MIN_RECORDS);
    let spec = SweepSpec::new("read-ahead-grid")
        .with_workloads([workload("470.lbm-164B"), workload("429.mcf-184B")])
        .with_prefetchers(&["pythia"])
        .with_seeds(&[7])
        .with_config(ConfigPoint::single_core("read-ahead", warmup, measure));
    let runs = [1usize, 2].map(|threads| {
        let mut r = pythia_sweep::run(&spec, threads).expect("run");
        r.throughput = None; // wall-clock telemetry, not payload
        r
    });
    // Each unit runs `pythia` and its `none` baseline.
    assert_eq!((runs[0].cells.len(), runs[0].baselines.len()), (2, 2));
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0].to_json().render(), runs[1].to_json().render());
    assert_eq!(runs[0].to_markdown(), runs[1].to_markdown());
}

#[test]
fn seed_axis_replicates_cells_deterministically() {
    let spec = SweepSpec::new("seeded")
        .with_workloads([workload("429.mcf-184B")])
        .with_prefetchers(&["stride"])
        .with_config(ConfigPoint::single_core("base", 1_000, 4_000))
        .with_seeds(&[0, 1]);
    let a = pythia_sweep::run(&spec, 2).expect("run a");
    let b = pythia_sweep::run(&spec, 3).expect("run b");
    assert_eq!(a, b, "replications are deterministic");
    assert_eq!(a.cells.len(), 2);
    assert_eq!(a.cells[0].seed, 0);
    assert_eq!(a.cells[1].seed, 1);
    assert_ne!(
        a.cells[0].raw, a.cells[1].raw,
        "different seed offsets perturb the trace"
    );
}

#[test]
fn one_round_campaign_scores_like_one_campaign_per_candidate() {
    // A §4.3 search round scores N Pythia variants as one campaign; each
    // score must be the bits a campaign of that variant alone gives.
    let tuned = PythiaConfig::tuned();
    let mut fast = PythiaConfig::tuned();
    fast.alpha = 0.1;
    let variants = [
        ("tuned", tuned.clone()),
        (
            "pc-delta",
            tuned.clone().with_features(vec![Feature::PC_DELTA]),
        ),
        ("few-actions", tuned.with_actions(vec![0, 1, 2, 23])),
        ("alpha-0.1", fast),
    ];
    let spec = |name: &str, variants: &[(&str, PythiaConfig)]| {
        let mut spec = SweepSpec::new(name)
            .with_workloads([workload("429.mcf-184B"), workload("462.libquantum-714B")])
            .with_config(ConfigPoint::single_core("tiny", 1_000, 4_000));
        for (label, cfg) in variants {
            spec = spec.with_pythia_variant(label, cfg.clone());
        }
        spec
    };
    let bits = |result: &pythia_sweep::SweepResult| -> Vec<u64> {
        (result.aggregate(Key::Prefetcher, Value::Speedup).iter())
            .map(|(_, score)| score.to_bits())
            .collect()
    };

    let round_spec = spec("round", &variants);
    let plan = pythia_sweep::plan_campaign("round", std::slice::from_ref(&round_spec))
        .expect("valid round");
    assert_eq!(
        plan.job_count(),
        2 + 2 * variants.len(),
        "baselines run once"
    );
    let round = pythia_sweep::run(&round_spec, 2).expect("round");
    let singles: Vec<u64> = variants
        .iter()
        .flat_map(|v| {
            bits(
                &pythia_sweep::run(&spec("candidate", std::slice::from_ref(v)), 2).expect("single"),
            )
        })
        .collect();
    assert_eq!(bits(&round), singles);
    assert!(
        singles.windows(2).any(|w| w[0] != w[1]),
        "the variants must score apart for the pin to bite"
    );
}

#[test]
fn run_all_shares_baselines_across_overlapping_panels() {
    let panel = |name: &str, pf: &str| {
        SweepSpec::new(name)
            .with_workloads([workload("429.mcf-184B")])
            .with_prefetchers(&[pf])
            .with_config(ConfigPoint::single_core("base", 1_000, 4_000))
    };
    let merged =
        pythia_sweep::engine::run_all("pair", &[panel("a", "stride"), panel("b", "spp")], 2)
            .expect("run_all");
    // Each panel still reports its own baseline row, and both rows come
    // from the same underlying simulation.
    assert_eq!(merged.baselines.len(), 2);
    assert_eq!(merged.baselines[0].raw, merged.baselines[1].raw);
    assert_eq!(merged.cells.len(), 2);
}

#[test]
fn a_cell_equal_to_its_baseline_plans_no_job_and_reads_parity() {
    // The baseline's own prefetcher under a label of its own (labels must
    // differ from the baseline's).
    let mut spec = SweepSpec::new("self")
        .with_workloads([workload("429.mcf-184B")])
        .with_config(ConfigPoint::single_core("base", 1_000, 4_000));
    spec.prefetchers.push(PrefetcherSpec {
        label: "off".into(),
        kind: PrefetcherKind::Named("none".into()),
    });
    spec = spec.with_prefetchers(&["stride"]);
    let plan = pythia_sweep::plan_campaign("self", std::slice::from_ref(&spec)).expect("plans");
    assert_eq!(plan.job_count(), 2, "the baseline and the stride cell");
    let result = pythia_sweep::run(&spec, 2).expect("run");
    let cell = &result.cells[0];
    assert_eq!(cell.prefetcher, "off");
    let m = &cell.metrics;
    assert_eq!((m.speedup, m.coverage, m.overprediction), (1.0, 0.0, 0.0));
    assert_eq!(cell.raw, result.baselines[0].raw);
}

#[test]
fn one_generator_spec_under_two_names_is_simulated_once() {
    // Built the way the suites, profiles and figures build a workload, so
    // only the name tells the two units apart.
    let named = |name: &str| {
        let kind = PatternKind::DeltaChain {
            deltas: vec![2, 5, 2, 5],
        };
        WorkUnit::single(Workload::new(Suite::Spec06, name, kind, 77))
    };
    let spec = SweepSpec::new("aliases")
        .with_units([named("first-name"), named("second-name")])
        .with_prefetchers(&["spp"])
        .with_config(ConfigPoint::single_core("base", 1_000, 4_000));
    let plan = pythia_sweep::plan_campaign("aliases", std::slice::from_ref(&spec)).expect("plans");
    assert_eq!(plan.job_count(), 2, "one baseline and one spp run");
    let result = pythia_sweep::run(&spec, 2).expect("run");
    let units: Vec<&str> = result.cells.iter().map(|c| c.unit.as_str()).collect();
    assert_eq!(
        units,
        ["first-name", "second-name"],
        "each name keeps its row"
    );
    assert_eq!(result.cells[0].raw, result.cells[1].raw);
    assert_eq!(result.baselines[0].raw, result.baselines[1].raw);
}

#[test]
fn aggregation_matches_manual_geomean() {
    let result = pythia_sweep::run(&small_spec(), 4).expect("run");
    let agg = result.aggregate(Key::Prefetcher, Value::Speedup);
    assert_eq!(agg.len(), 2);
    for (label, geo) in &agg {
        let speeds: Vec<f64> = result
            .cells
            .iter()
            .filter(|c| &c.prefetcher == label)
            .map(|c| c.metrics.speedup)
            .collect();
        let manual = pythia_stats::geomean(&speeds);
        assert!((geo - manual).abs() < 1e-12);
    }
}
