//! Implementing your own prefetcher against the public `Prefetcher` trait
//! and racing it against the built-ins.
//!
//! The example builds a tiny "pairwise-correlation" prefetcher (remembers
//! which line followed which) and evaluates it on a pointer-chase workload
//! next to SPP and Pythia. A prefetcher needs two methods, `name` and
//! `on_demand_into`; the simulator keeps its issued / useful / useless
//! books.
//!
//! ```text
//! cargo run --release --example custom_prefetcher
//! ```

use pythia::runner::{run_sources_with, run_workload, RunSpec};
use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};
use pythia_stats::metrics::compare;
use pythia_workloads::all_suites;

/// A minimal Markov-style correlation prefetcher: a direct-mapped table of
/// `line -> next line` pairs, trained on the demand stream.
struct PairwiseCorrelation {
    table: Vec<(u64, u64)>, // (line, next_line)
    last_line: u64,
}

impl PairwiseCorrelation {
    fn new(entries: usize) -> Self {
        Self {
            table: vec![(u64::MAX, 0); entries],
            last_line: u64::MAX,
        }
    }

    fn slot(&self, line: u64) -> usize {
        (line as usize).wrapping_mul(0x9e3779b9) % self.table.len()
    }
}

impl Prefetcher for PairwiseCorrelation {
    fn name(&self) -> &str {
        "pairwise"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        _fb: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        // Train: record that `last_line` was followed by this line.
        if self.last_line != u64::MAX {
            let idx = self.slot(self.last_line);
            self.table[idx] = (self.last_line, access.line);
        }
        self.last_line = access.line;
        // Predict: if we have a successor for this line, prefetch it.
        let (tag, next) = self.table[self.slot(access.line)];
        if tag == access.line && next != access.line {
            out.push(PrefetchRequest::to_l2(next));
        }
    }
}

fn main() {
    let pool = all_suites();
    // Pointer chasing repeats the same pseudo-random permutation when the
    // trace replays, which is exactly what temporal correlation captures
    // and spatial prefetchers cannot.
    let workload = pool.iter().find(|w| w.name == "429.mcf-184B").expect("mcf");
    let spec = RunSpec::single_core().with_budget(100_000, 400_000);
    let source = workload.source(500_000);

    let baseline = run_workload(workload, "none", &spec);
    println!("pointer-chase workload, single core\n");
    for name in ["spp", "pythia"] {
        let report = run_workload(workload, name, &spec);
        let m = compare(&baseline, &report);
        println!(
            "{name:10} speedup {:.3}  coverage {:5.1}%",
            m.speedup,
            m.coverage * 100.0
        );
    }
    let report = run_sources_with(vec![source], &spec, |_| {
        Box::new(PairwiseCorrelation::new(1 << 20))
    });
    let m = compare(&baseline, &report);
    println!(
        "{:10} speedup {:.3}  coverage {:5.1}%",
        "pairwise",
        m.speedup,
        m.coverage * 100.0
    );
    println!(
        "\nA big-table temporal prefetcher can cover recurring chains that\n\
         spatial/offset prefetchers (including Pythia) cannot -- at a metadata\n\
         cost of megabytes instead of Pythia's 25.5 KB (paper §7)."
    );
}
