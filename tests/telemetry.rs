//! The telemetry sink's read-only contract: enabling per-window
//! telemetry must not perturb the simulation by a single byte.
//!
//! [`run_telemetered`] runs the system [`run_workload`] runs — built by
//! [`build_system`] — through [`run_windowed`]; these tests pin
//! the [`SimReport`] byte-identical with telemetry on vs. off across
//! three prefetchers and two robustness profiles, and sanity-check the
//! window stream itself.

use pythia::runner::{build_system, run_workload, RunSpec};
use pythia_sim::stats::SimReport;
use pythia_sim::system::{run_windowed, WindowRow};
use pythia_sim::trace::TraceSource;
use pythia_sweep::codec::fnv1a_64 as fnv1a;
use pythia_workloads::profiles::{Profile, CAMPAIGN_SEED};

fn spec() -> RunSpec {
    RunSpec::single_core().with_budget(20_000, 60_000)
}

/// `sources` under `prefetcher` with 10 K-instruction telemetry windows,
/// as `pythia-cli run --telemetry-json` runs them: the report, and one row
/// vector per core.
fn run_telemetered(
    sources: Vec<Box<dyn TraceSource>>,
    prefetcher: &str,
    spec: &RunSpec,
) -> (SimReport, Vec<Vec<WindowRow>>) {
    let mut system = build_system(sources, prefetcher, spec);
    run_windowed(&mut system, spec.warmup, spec.measure, 10_000)
}

/// The one window field `name` of every row, summed.
fn field_sum(rows: &[WindowRow], name: &str) -> f64 {
    rows.iter()
        .map(|r| {
            r.fields
                .iter()
                .find(|(field, _)| *field == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("window carries {name}"))
        })
        .sum()
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
            let (telemetered, windows) =
                run_telemetered(vec![w.source(spec.trace_len())], prefetcher, &spec);
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
            for (field, total) in [
                ("instructions", telemetered.cores[0].instructions),
                ("cycles", telemetered.cores[0].cycles),
            ] {
                assert_eq!(
                    field_sum(rows, field) as u64,
                    total,
                    "{}/{prefetcher}: the windows' {field} must add up to the report's",
                    profile.label()
                );
            }
        }
    }
}

/// Every row of the matrix above and of one 2-core run, rendered and
/// digested: the rows themselves are pinned, not only their sums.
#[test]
fn window_rows_are_pinned() {
    let spec = spec();
    let mut rendered = String::new();
    for profile in [Profile::Expected, Profile::Stress] {
        let w = profile.workloads(CAMPAIGN_SEED).remove(0);
        for prefetcher in ["pythia", "spp", "bingo"] {
            let (_, windows) = run_telemetered(vec![w.source(spec.trace_len())], prefetcher, &spec);
            rendered += &format!("{windows:?}\n");
        }
    }
    let two = RunSpec::multi_core(2).with_budget(10_000, 30_000);
    let sources = Profile::Expected.workloads(CAMPAIGN_SEED)[..2]
        .iter()
        .map(|w| w.source(two.trace_len()))
        .collect();
    let (report, windows) = run_telemetered(sources, "pythia", &two);
    for (core, rows) in windows.iter().enumerate() {
        assert_eq!(field_sum(rows, "cycles") as u64, report.cores[core].cycles);
    }
    rendered += &format!("{windows:?}\n");
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        0xe0e3_1c04_5e0c_4e39,
        "window rows moved"
    );
}

#[test]
fn telemetry_reruns_are_deterministic() {
    let w = Profile::Expected.workloads(CAMPAIGN_SEED).remove(0);
    let spec = spec();
    let source = || vec![w.source(spec.trace_len())];
    let (a, wa) = run_telemetered(source(), "pythia", &spec);
    let (b, wb) = run_telemetered(source(), "pythia", &spec);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(wa, wb, "window rows must be reproducible");
}
