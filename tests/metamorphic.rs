//! Metamorphic relations: the simulator checked against itself, so no
//! oracle is needed.

use pythia::runner::{run_sources_with, run_workload, RunSpec};
use pythia_core::{Pythia, PythiaConfig};
use pythia_sim::config::SystemConfig;
use pythia_stats::json::sim_report_wire_json;
use pythia_sweep::{ConfigPoint, PrefetcherKind, PrefetcherSpec, SweepSpec};
use pythia_workloads::all_suites;

/// DRAM transfer rates, rising.
const MTPS: [u64; 4] = [600, 1_200, 2_400, 9_600];

/// A wider bus never slows a core that does not prefetch: over every
/// fig09 unit (the Table 6 suites) in a release build, and every tenth
/// in a debug one, `none`'s IPC at 20 K + 80 K instructions does not fall
/// from one rate in [`MTPS`] to the next.
#[test]
fn raising_dram_mtps_never_lowers_the_ipc_of_no_prefetching() {
    let step = if cfg!(debug_assertions) { 10 } else { 1 };
    let mut spec = SweepSpec::new("mtps-ladder")
        .with_workloads(all_suites().into_iter().step_by(step))
        .with_configs(MTPS.map(|mtps| {
            let system = SystemConfig::single_core_with_mtps(mtps);
            ConfigPoint::new(&mtps.to_string(), system, 20_000, 80_000)
        }));
    // A cell equal to the baseline plans no job of its own.
    spec.prefetchers.push(PrefetcherSpec {
        label: "off".into(),
        kind: PrefetcherKind::Named("none".into()),
    });
    let result = pythia_sweep::run(&spec, 2).expect("runs");
    assert_eq!(result.baselines.len(), spec.units.len() * MTPS.len());
    for rows in result.baselines.chunks(MTPS.len()) {
        for pair in rows.windows(2) {
            let (slow, fast) = (&pair[0], &pair[1]);
            assert!(
                fast.raw.ipc >= slow.raw.ipc,
                "{}: IPC {} at {} MTPS < {} at {} MTPS",
                fast.unit,
                fast.raw.ipc,
                fast.config,
                slow.raw.ipc,
                slow.config
            );
        }
    }
}

/// Pythia whose only action is offset 0, the no-prefetch action, is no
/// prefetcher at all: over every fig09 unit in a release build, and every
/// tenth in a debug one, its report at 20 K + 80 K instructions has the
/// same wire bytes as `none`'s.
#[test]
fn pythia_with_only_the_no_prefetch_action_reports_as_none() {
    let step = if cfg!(debug_assertions) { 10 } else { 1 };
    let spec = RunSpec::single_core().with_budget(20_000, 80_000);
    let silent = PythiaConfig::tuned().with_actions(vec![0]);
    for workload in all_suites().into_iter().step_by(step) {
        let none = run_workload(&workload, "none", &spec);
        let source = workload.source(spec.trace_len());
        let pythia = run_sources_with(vec![source], &spec, |_| {
            Box::new(Pythia::new(silent.clone()))
        });
        assert_eq!(
            sim_report_wire_json(&pythia).render(),
            sim_report_wire_json(&none).render(),
            "{}",
            workload.name
        );
    }
}
