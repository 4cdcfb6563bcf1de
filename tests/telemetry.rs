//! The telemetry sink's read-only contract: enabling per-window
//! telemetry must not perturb the simulation by a single byte.
//!
//! [`run_telemetered`] runs the system [`run_workload`] runs — built by
//! [`build_system`] — with a window recorder attached; these tests pin
//! the [`SimReport`] byte-identical with telemetry on vs. off across
//! three prefetchers and two robustness profiles, and sanity-check the
//! window stream itself.

use pythia::runner::{build_system, run_workload, RunSpec};
use pythia_sim::stats::SimReport;
use pythia_sim::system::WindowRow;
use pythia_workloads::profiles::{Profile, CAMPAIGN_SEED};
use pythia_workloads::Workload;

fn spec() -> RunSpec {
    RunSpec::single_core().with_budget(20_000, 60_000)
}

/// `w` under `prefetcher` with 10 K-instruction telemetry windows, as
/// `pythia-cli run --telemetry-json` runs it: the report, and one row
/// vector per core.
fn run_telemetered(
    w: &Workload,
    prefetcher: &str,
    spec: &RunSpec,
) -> (SimReport, Vec<Vec<WindowRow>>) {
    let mut system = build_system(vec![w.source(spec.trace_len())], prefetcher, spec);
    system.enable_telemetry(10_000);
    let report = system.run(spec.warmup, spec.measure);
    (
        report,
        system.take_telemetry().expect("telemetry was enabled"),
    )
}

/// Byte-level fingerprint of a report: every counter, in a stable order.
fn fingerprint(report: &SimReport) -> Vec<u8> {
    format!("{report:?}").into_bytes()
}

#[test]
fn telemetry_is_byte_invisible_across_prefetchers_and_profiles() {
    let spec = spec();
    for profile in [Profile::Expected, Profile::Stress] {
        // The first workload of each profile keeps the matrix cheap while
        // still crossing two very different access-pattern families.
        let w = profile.workloads(CAMPAIGN_SEED).remove(0);
        for prefetcher in ["pythia", "spp", "bingo"] {
            let plain = run_workload(&w, prefetcher, &spec);
            let (telemetered, windows) = run_telemetered(&w, prefetcher, &spec);
            assert_eq!(
                fingerprint(&plain),
                fingerprint(&telemetered),
                "{}/{prefetcher}: telemetry must not perturb the report",
                profile.label()
            );
            // The window stream itself must be present and well-formed.
            assert_eq!(windows.len(), 1, "single-core run has one core");
            let rows = &windows[0];
            assert!(!rows.is_empty(), "measured phase must close windows");
            let instructions: f64 = rows
                .iter()
                .map(|r| {
                    r.fields
                        .iter()
                        .find(|(name, _)| *name == "instructions")
                        .map(|(_, v)| *v)
                        .expect("window carries instructions")
                })
                .sum();
            assert_eq!(
                instructions as u64,
                telemetered.cores[0].instructions,
                "{}/{prefetcher}: windows must cover the measured phase",
                profile.label()
            );
        }
    }
}

#[test]
fn telemetry_reruns_are_deterministic() {
    let w = Profile::Expected.workloads(CAMPAIGN_SEED).remove(0);
    let spec = spec();
    let (a, wa) = run_telemetered(&w, "pythia", &spec);
    let (b, wb) = run_telemetered(&w, "pythia", &spec);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(wa, wb, "window rows must be reproducible");
}
