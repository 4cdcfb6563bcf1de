//! Cross-crate integration tests: whole-system runs exercising the public
//! API the way the paper's experiments do.

use pythia::runner::{build_prefetcher, run_sources, run_workload, RunSpec};
use pythia_sim::config::SystemConfig;
use pythia_sim::trace::VecSource;
use pythia_stats::metrics::compare;
use pythia_workloads::generators::{PatternKind, TraceSpec};
use pythia_workloads::suites::{all_suites, Suite};
use pythia_workloads::Workload;

fn quick_spec() -> RunSpec {
    RunSpec::single_core().with_budget(40_000, 160_000)
}

fn workload(kind: PatternKind, seed: u64) -> Workload {
    Workload::new(Suite::Spec06, "test", kind, seed)
}

#[test]
fn pythia_beats_baseline_on_page_visit_pattern() {
    let w = workload(
        PatternKind::PageVisit {
            offsets: vec![0, 23],
        },
        11,
    );
    let spec = RunSpec::single_core().with_budget(100_000, 400_000);
    let baseline = run_workload(&w, "none", &spec);
    let pythia = run_workload(&w, "pythia", &spec);
    let m = compare(&baseline, &pythia);
    assert!(
        m.speedup > 1.3,
        "expected a clear win, got {:.3}",
        m.speedup
    );
    assert!(m.coverage > 0.3, "coverage {:.2}", m.coverage);
    assert!(
        m.overprediction < 0.3,
        "overprediction {:.2}",
        m.overprediction
    );
}

#[test]
fn pythia_does_not_flood_random_traffic() {
    let w = workload(PatternKind::CloudMix { hot_pct: 0 }, 12);
    let spec = RunSpec::single_core().with_budget(150_000, 600_000);
    let baseline = run_workload(&w, "none", &spec);
    let pythia = run_workload(&w, "pythia", &spec);
    let m = compare(&baseline, &pythia);
    // Random traffic: nothing to cover; the agent must learn restraint.
    assert!(
        m.overprediction < 0.4,
        "overprediction {:.2}",
        m.overprediction
    );
    assert!(m.speedup > 0.9, "speedup {:.3}", m.speedup);
}

#[test]
fn every_registered_prefetcher_completes_a_run() {
    let w = workload(PatternKind::DeltaChain { deltas: vec![2, 5] }, 13);
    let spec = quick_spec();
    for name in [
        "none",
        "next_line",
        "stride",
        "streamer",
        "spp",
        "spp+ppf",
        "bingo",
        "mlop",
        "dspatch",
        "ipcp",
        "cp_hw",
        "power7",
        "pythia",
        "pythia_strict",
        "pythia_bw_oblivious",
        "stride+pythia",
        "st+s+b+d+m",
    ] {
        let report = run_workload(&w, name, &spec);
        assert_eq!(report.cores[0].instructions, spec.measure, "{name}");
        assert!(report.cores[0].ipc() > 0.0, "{name}");
    }
}

#[test]
fn unknown_prefetcher_is_rejected() {
    assert!(build_prefetcher("no-such-prefetcher", 0).is_none());
}

#[test]
fn runs_are_deterministic() {
    let w = workload(
        PatternKind::IrregularGraph {
            vertices: 100_000,
            avg_degree: 8,
        },
        14,
    );
    let spec = quick_spec();
    let a = run_workload(&w, "pythia", &spec);
    let b = run_workload(&w, "pythia", &spec);
    assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    assert_eq!(a.llc, b.llc);
    assert_eq!(a.dram, b.dram);
}

#[test]
fn bandwidth_scaling_changes_outcomes() {
    // An overpredicting prefetcher must hurt more at 150 MTPS than at 9600.
    let w = workload(
        PatternKind::SpatialFootprint {
            patterns: vec![vec![0, 1, 2, 3, 4, 5, 6, 7]],
            noise_pct: 10,
        },
        15,
    );
    let run_at = |mtps: u64, p: &str| {
        let spec = RunSpec::single_core()
            .with_system(SystemConfig::single_core_with_mtps(mtps))
            .with_budget(40_000, 160_000);
        let baseline = run_workload(&w, "none", &spec);
        compare(&baseline, &run_workload(&w, p, &spec)).speedup
    };
    let slow = run_at(150, "mlop");
    let fast = run_at(9600, "mlop");
    assert!(
        fast > slow,
        "MLOP should do relatively better with ample bandwidth: {fast} vs {slow}"
    );
}

#[test]
fn multi_core_contention_lowers_per_core_ipc() {
    let mk = |seed| {
        TraceSpec::new(PatternKind::Stream { store_every: 0 })
            .with_seed(seed)
            .generate(400_000)
    };
    let solo = {
        let spec = RunSpec::single_core().with_budget(20_000, 80_000);
        run_sources(vec![VecSource::boxed(mk(21))], "none", &spec)
    };
    let crowd = {
        let mut cfg = SystemConfig::with_cores(4);
        // Force all four streams through a single channel to create
        // contention.
        cfg.dram.channels = 1;
        let spec = RunSpec::multi_core(4)
            .with_system(cfg)
            .with_budget(20_000, 80_000);
        run_sources(
            vec![mk(21), mk(22), mk(23), mk(24)]
                .into_iter()
                .map(VecSource::boxed)
                .collect(),
            "none",
            &spec,
        )
    };
    assert!(
        crowd.cores[0].ipc() < solo.cores[0].ipc(),
        "sharing one channel must cost IPC: {} vs {}",
        crowd.cores[0].ipc(),
        solo.cores[0].ipc()
    );
}

#[test]
fn suite_definitions_are_runnable() {
    // One workload from each suite end-to-end (cheap budgets).
    let spec = RunSpec::single_core().with_budget(5_000, 20_000);
    for s in [
        Suite::Spec06,
        Suite::Spec17,
        Suite::Parsec,
        Suite::Ligra,
        Suite::Cloudsuite,
    ] {
        let w = &pythia_workloads::suite(s)[0];
        let report = run_workload(w, "pythia", &spec);
        assert!(report.cores[0].ipc() > 0.0, "{}", w.name);
    }
    assert_eq!(all_suites().len(), 50);
}

#[test]
fn coverage_accounting_is_consistent() {
    let w = workload(PatternKind::Stream { store_every: 0 }, 16);
    let spec = quick_spec();
    let baseline = run_workload(&w, "none", &spec);
    let report = run_workload(&w, "spp", &spec);
    // Sanity of raw counters: prefetch fills happened, useful <= fills,
    // and DRAM reads account for demand misses plus prefetches.
    assert!(report.l2[0].prefetch_fills > 0);
    assert!(report.l2[0].useful_prefetches <= report.l2[0].prefetch_fills);
    assert!(report.dram.prefetch_reads > 0);
    let m = compare(&baseline, &report);
    assert!(m.coverage > 0.5 && m.coverage <= 1.0);
}
