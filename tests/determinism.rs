//! Determinism guarantees of the whole simulation stack: the property every
//! future parallel / sharded runner must preserve.
//!
//! Same (workload, prefetcher, seed) ⇒ byte-identical [`SimReport`]s;
//! different workload seeds ⇒ observably different runs; and where
//! `System::advance` stops along the way is invisible.

use pythia::runner::{build_system, run_workload, RunSpec};
use pythia_sim::stats::SimReport;
use pythia_workloads::generators::PatternKind;
use pythia_workloads::profiles::{Profile, CAMPAIGN_SEED};
use pythia_workloads::{suites::Suite, Workload};

fn workload(seed: u64) -> Workload {
    let mut w = Workload::new(
        Suite::Spec06,
        "det",
        PatternKind::SpatialFootprint {
            patterns: vec![vec![0, 2, 5, 11], vec![0, 7, 9]],
            noise_pct: 20,
        },
        seed,
    );
    w.spec.mem_pct = 40;
    w.spec.footprint_pages = 2048;
    w
}

fn spec() -> RunSpec {
    RunSpec::single_core().with_budget(20_000, 60_000)
}

/// Byte-level fingerprint of a report: every counter, in a stable order.
fn fingerprint(report: &SimReport) -> Vec<u8> {
    format!("{report:?}").into_bytes()
}

#[test]
fn same_seed_same_report_across_prefetchers() {
    for prefetcher in ["pythia", "spp", "bingo"] {
        let w = workload(7);
        let a = run_workload(&w, prefetcher, &spec());
        let b = run_workload(&w, prefetcher, &spec());
        assert_eq!(a, b, "{prefetcher}: reruns with the same seed must agree");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{prefetcher}: reports must be byte-identical"
        );
    }
}

#[test]
fn different_seeds_differ() {
    for prefetcher in ["pythia", "spp", "bingo"] {
        let a = run_workload(&workload(7), prefetcher, &spec());
        let b = run_workload(&workload(8), prefetcher, &spec());
        assert_ne!(
            fingerprint(&a),
            fingerprint(&b),
            "{prefetcher}: different workload seeds must perturb the report"
        );
    }
}

#[test]
fn reports_survive_interleaved_runs() {
    // A run is not affected by other simulations happening "around" it
    // (no hidden global state) — the property a parallel runner relies on.
    let w = workload(7);
    let solo = run_workload(&w, "pythia", &spec());
    let _noise = run_workload(&workload(99), "spp", &spec());
    let again = run_workload(&w, "pythia", &spec());
    assert_eq!(
        solo, again,
        "interleaved unrelated runs must not perturb results"
    );
}

/// Stopping anywhere is invisible: a 4-core system driven through both
/// phases by `System::advance` to randomly drawn per-core stops, with a
/// snapshot at every stop, reports byte for byte what `run` reports.
#[test]
fn advancing_to_random_stops_matches_run() {
    let spec = RunSpec::multi_core(4).with_budget(4_000, 16_000);
    let workloads = Profile::Expected.workloads(CAMPAIGN_SEED);
    let system = || {
        let sources = workloads[..4]
            .iter()
            .map(|w| w.source(spec.trace_len()))
            .collect();
        build_system(sources, "pythia", &spec)
    };
    let expected = fingerprint(&system().run(spec.warmup, spec.measure));
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    // A draw from 1..=n.
    let mut draw = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        1 + rng % n
    };
    // From a stop every few instructions to a few per phase.
    for (round, step) in [16, 256, 4_096].into_iter().enumerate() {
        let mut sys = system();
        let mut cores = Vec::new();
        for budget in [spec.warmup, spec.measure] {
            // The phase boundary; before warmup it clears nothing.
            sys.reset_stats();
            let mut stops: Vec<u64> = (0..4).map(|_| draw(step).min(budget)).collect();
            let mut at_budget = vec![None; 4];
            while let Some(idx) = sys.advance(&stops) {
                let now = sys.snapshot().cores[idx];
                assert_eq!(now.instructions, stops[idx], "a stop is reached exactly");
                if stops[idx] == budget {
                    at_budget[idx] = Some(now);
                } else {
                    stops[idx] = (stops[idx] + draw(step)).min(budget);
                }
            }
            cores = at_budget.into_iter().map(Option::unwrap).collect();
        }
        let report = SimReport {
            cores,
            ..sys.snapshot()
        };
        assert_eq!(fingerprint(&report), expected, "round {round}");
    }
}
