//! Registry coverage: every advertised prefetcher name — the
//! [`pythia_prefetchers::registry`] table plus the `pythia*` variants of
//! [`pythia::runner`], as [`prefetcher_names`] lists them — must construct
//! and survive a short smoke simulation.

use pythia::runner::{build_prefetcher, prefetcher_names, run_workload, RunSpec};
use pythia_workloads::generators::PatternKind;
use pythia_workloads::{suites::Suite, Workload};

fn smoke_workload() -> Workload {
    let mut w = Workload::new(
        Suite::Spec06,
        "smoke",
        PatternKind::DeltaChain {
            deltas: vec![1, 2, -1, 4],
        },
        5,
    );
    w.spec.footprint_pages = 64;
    w
}

#[test]
fn every_registered_name_constructs() {
    for name in prefetcher_names() {
        let p = build_prefetcher(name, 42);
        assert!(p.is_some(), "{name:?} is advertised but fails to construct");
        assert!(!p.unwrap().name().is_empty(), "{name:?} must report a name");
    }
}

#[test]
fn every_registered_name_survives_smoke_simulation() {
    // 2k measured instructions end-to-end through the full system: enough
    // to hit the demand / fill / useful / useless paths of each prefetcher.
    let w = smoke_workload();
    let spec = RunSpec::single_core().with_budget(500, 2_000);
    for name in prefetcher_names() {
        let report = run_workload(&w, name, &spec);
        assert_eq!(
            report.cores[0].instructions, 2_000,
            "{name:?} must retire the measured instruction budget"
        );
        assert!(
            report.cores[0].ipc() > 0.0,
            "{name:?} produced a stuck simulation"
        );
    }
}

#[test]
fn prefetcher_names_have_no_duplicate() {
    // Each crate keeps one table, so the one drift left is a name in both:
    // a variant would shadow a registry baseline.
    let mut seen = std::collections::HashSet::new();
    for name in prefetcher_names() {
        assert!(seen.insert(name), "{name:?} is listed twice");
    }
}

#[test]
fn registry_rejects_unknown_names_end_to_end() {
    assert!(build_prefetcher("definitely-not-a-prefetcher", 0).is_none());
}
