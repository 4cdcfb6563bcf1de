//! Quickstart: build a single-core system, run Pythia against the
//! no-prefetching baseline on a delta-pattern workload, and print the
//! paper's metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pythia::runner::{run_workload, RunSpec};
use pythia_stats::metrics::compare;
use pythia_workloads::generators::PatternKind;
use pythia_workloads::suites::Suite;
use pythia_workloads::Workload;

fn main() {
    // 1. Describe a workload: a GemsFDTD-like sweep that touches each 4 KB
    //    page at offsets 0 and +23 (the paper's §6.5 case study pattern).
    let workload = Workload::new(
        Suite::Spec06,
        "quickstart-gems",
        PatternKind::PageVisit {
            offsets: vec![0, 23],
        },
        7,
    );

    // 2. Pick the simulated system: Table 5's single-core configuration
    //    with a scaled-down warmup/measure budget.
    let spec = RunSpec::single_core().with_budget(100_000, 400_000);

    // 3. Run the no-prefetching baseline and Pythia.
    let baseline = run_workload(&workload, "none", &spec);
    let pythia = run_workload(&workload, "pythia", &spec);

    // 4. Compare using the paper's Appendix A.6 metrics.
    let m = compare(&baseline, &pythia);
    println!("workload             : {}", workload.name);
    println!("baseline IPC         : {:.3}", baseline.geomean_ipc());
    println!("pythia IPC           : {:.3}", pythia.geomean_ipc());
    println!("speedup              : {:.3}x", m.speedup);
    println!("prefetch coverage    : {:.1}%", m.coverage * 100.0);
    println!("overprediction       : {:.1}%", m.overprediction * 100.0);
    println!("baseline LLC MPKI    : {:.1}", m.baseline_mpki);

    assert!(m.speedup > 1.0, "Pythia should beat no-prefetching here");
}
