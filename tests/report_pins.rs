//! Whole-report pins for the path a line takes below the L1.
//!
//! `tests/golden_reports.rs` digests each figure's metrics at budgets so
//! small that no L2 or LLC ever evicts; the per-level counters, the DRAM
//! row hits and `prefetchers[]` of a run that does evict are pinned
//! nowhere else. Each cell here is the FNV-1a-64 digest of one run's
//! lossless wire report (`sim_report_wire_json(..).render()`) with the two
//! MSHR wait counters zeroed — they read 0 at every commit before PR 23
//! because nothing wrote them, and are checked by their own tests since.
//! Ten prefetchers run four scenarios chosen so that every route a victim
//! can take is walked (counted below, so the pins cannot pass vacuously):
//! a store stream, a pointer chase, one fresh line per load at 150 MTPS
//! (register files bind, the L2 and the LLC evict), and a four-core mix
//! at 600 MTPS on a shrunken shared LLC.
//!
//! The table was generated at PR 22's commit, before the miss path was
//! rewritten; a refactor of that path is checked against it unchanged.
//! When a model change moves it on purpose, regenerate with:
//!
//! ```text
//! PYTHIA_GOLDEN_PRINT=1 cargo test -q --test report_pins -- --nocapture
//! ```
//!
//! and paste the printed table over `PINS`.

use pythia::runner::{run_sources, RunSpec};
use pythia_sim::config::SystemConfig;
use pythia_sim::stats::{CacheStats, SimReport};
use pythia_stats::json::sim_report_wire_json;
use pythia_sweep::codec::fnv1a_64 as fnv1a;
use pythia_workloads::generators::{PatternKind, TraceSpec};

const PREFETCHERS: [&str; 10] = [
    "none",
    "stride",
    "spp",
    "bingo",
    "mlop",
    "spp+ppf",
    "cp_hw",
    "power7",
    "pythia",
    "stride+pythia",
];

/// `(scenario, one digest per entry of PREFETCHERS)`.
const PINS: &[(&str, [u64; 10])] = &[
    (
        "stream",
        [
            0xea55dd528125b1b6,
            0x965fee0ffdc50ccd,
            0xf1ab85d535153cda,
            0xea55dd528125b1b6,
            0x3c6564c69c632c57,
            0xf1ab85d535153cda,
            0xd5ecc8821f9f7039,
            0xb70ce4be728aefa9,
            0xcf5f36f1c3a4e4d3,
            0xba565db555f53d76,
        ],
    ),
    (
        "chase",
        [
            0x61c63f30c40d8466,
            0x7cdd122659889027,
            0x61c63f30c40d8466,
            0x61c63f30c40d8466,
            0x61c63f30c40d8466,
            0x61c63f30c40d8466,
            0x357988bddd02b5c2,
            0x61c63f30c40d8466,
            0xd3c2099323bfd4f3,
            0x0fd4302df74c4293,
        ],
    ),
    (
        "fresh-lines-150mtps",
        [
            0x0d3407991242acbc,
            0x7c2282777c68f7da,
            0x3c716d192a5472a9,
            0x7400f51604aaf6dc,
            0x47736c5a84bd9eea,
            0x3c716d192a5472a9,
            0xe01dc20ac8b99979,
            0xb6af57511fb69ce7,
            0x3a28854d44c0f847,
            0xd910616879a9eb1c,
        ],
    ),
    (
        "mix4-600mtps",
        [
            0xa5c2ea650dfa0c08,
            0xde13666e6c2bf102,
            0x1820e8841b45d54e,
            0x662540b00cb7f08e,
            0xa41761e68d476eda,
            0xeb5a54ec1e77f99b,
            0xbcba0e951b9567c1,
            0xea254e95573537ce,
            0x147f4e8871aacb20,
            0x2cdcb7d7fc1cdcb5,
        ],
    ),
];

struct Scenario {
    name: &'static str,
    spec: RunSpec,
    /// One trace per core.
    traces: Vec<TraceSpec>,
}

fn scenarios() -> Vec<Scenario> {
    use PatternKind::*;
    let single = |name, system, trace: TraceSpec, warmup, measure| Scenario {
        name,
        spec: RunSpec::single_core()
            .with_system(system)
            .with_budget(warmup, measure),
        traces: vec![trace],
    };
    // Fresh lines per core of the mix exceed its LLC share, so the shared
    // level evicts within a budget a debug build runs in seconds.
    let mut mix = SystemConfig::with_cores(4);
    mix.dram.mtps = 600;
    mix.llc.size_bytes = 4 * 64 * 1024;
    let mix_trace = |kind, per_line, seed| {
        TraceSpec::new(kind)
            .with_accesses_per_line(per_line)
            .with_seed(seed)
    };
    vec![
        single(
            "stream",
            SystemConfig::single_core(),
            TraceSpec::new(Stream { store_every: 3 }).with_seed(11),
            5_000,
            40_000,
        ),
        single(
            "chase",
            SystemConfig::single_core(),
            TraceSpec::new(PointerChase).with_seed(12),
            5_000,
            40_000,
        ),
        single(
            "fresh-lines-150mtps",
            SystemConfig::single_core_with_mtps(150),
            TraceSpec::new(Stream { store_every: 2 })
                .with_accesses_per_line(1)
                .with_seed(13),
            20_000,
            130_000,
        ),
        Scenario {
            name: "mix4-600mtps",
            spec: RunSpec::multi_core(4)
                .with_system(mix)
                .with_budget(3_000, 10_000),
            traces: vec![
                mix_trace(Stream { store_every: 2 }, 2, 14),
                mix_trace(PointerChase, 8, 15),
                mix_trace(
                    SpatialFootprint {
                        patterns: vec![vec![0, 2, 5, 11], vec![0, 7, 9]],
                        noise_pct: 20,
                    },
                    2,
                    16,
                ),
                mix_trace(
                    IrregularGraph {
                        vertices: 1_000_000,
                        avg_degree: 12,
                    },
                    2,
                    17,
                ),
            ],
        },
    ]
}

fn run(scenario: &Scenario, prefetcher: &str) -> SimReport {
    let len = scenario.spec.trace_len();
    let sources = scenario.traces.iter().map(|t| t.source(len)).collect();
    run_sources(sources, prefetcher, &scenario.spec)
}

/// The pinned bytes: the wire report with the MSHR wait counters zeroed.
fn digest(mut report: SimReport) -> u64 {
    let levels = report
        .l1d
        .iter_mut()
        .chain(report.l2.iter_mut())
        .chain(std::iter::once(&mut report.llc));
    for level in levels {
        level.mshr_stalls = 0;
        level.mshr_stall_cycles = 0;
    }
    fnv1a(sim_report_wire_json(&report).render().as_bytes())
}

#[test]
fn every_pinned_run_keeps_its_whole_report() {
    let print_mode = std::env::var("PYTHIA_GOLDEN_PRINT").is_ok();
    let mut computed = Vec::new();
    // What the 40 runs walked, summed: a pin of a path nobody took pins
    // nothing.
    let (mut l1d, mut l2, mut llc) = (
        CacheStats::default(),
        CacheStats::default(),
        CacheStats::default(),
    );
    let mut dram_writes = 0;
    let sum = |into: &mut CacheStats, c: &CacheStats| {
        into.dirty_evictions += c.dirty_evictions;
        into.useless_prefetches += c.useless_prefetches;
        into.useful_prefetches += c.useful_prefetches;
        into.late_prefetch_hits += c.late_prefetch_hits;
        into.prefetch_redundant += c.prefetch_redundant;
    };
    for scenario in scenarios() {
        let mut row = [0u64; 10];
        for (cell, prefetcher) in row.iter_mut().zip(PREFETCHERS) {
            let report = run(&scenario, prefetcher);
            report.l1d.iter().for_each(|c| sum(&mut l1d, c));
            report.l2.iter().for_each(|c| sum(&mut l2, c));
            sum(&mut llc, &report.llc);
            dram_writes += report.dram.writes;
            *cell = digest(report);
        }
        computed.push((scenario.name, row));
    }
    for (level, c) in [("L2", &l2), ("LLC", &llc)] {
        assert!(c.dirty_evictions > 0, "{level}: no dirty victim routed");
        assert!(c.useless_prefetches > 0, "{level}: no unused prefetch");
        assert!(c.useful_prefetches > 0, "{level}: no useful prefetch");
        assert!(c.late_prefetch_hits > 0, "{level}: no late prefetch");
        assert!(c.prefetch_redundant > 0, "{level}: no redundant prefetch");
    }
    assert!(l1d.dirty_evictions > 0, "L1D: no dirty victim routed");
    assert!(dram_writes > 0, "no LLC victim written to DRAM");

    if print_mode {
        println!("const PINS: &[(&str, [u64; 10])] = &[");
        for (name, row) in &computed {
            println!("    (\n        {name:?},\n        [");
            for digest in row {
                println!("            {digest:#018x},");
            }
            println!("        ],\n    ),");
        }
        println!("];");
        return;
    }
    assert_eq!(
        computed, PINS,
        "whole-report digests changed — if intentional, regenerate with \
         PYTHIA_GOLDEN_PRINT=1 cargo test --test report_pins -- --nocapture"
    );
}
