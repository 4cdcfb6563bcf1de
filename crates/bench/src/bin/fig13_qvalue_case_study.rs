//! Fig. 13 — Q-value learning curves for the GemsFDTD case study (§6.5):
//! the `PC+Delta` feature value of the page-trigger access should learn to
//! favour offset +23 as its Q-value rises above the alternatives.

use pythia_core::{Feature, FeatureContext, Pythia, PythiaConfig};
use pythia_sim::prefetch::{DemandAccess, FillEvent, Prefetcher, SystemFeedback};
use pythia_stats::report::Table;
use pythia_workloads::generators::{PatternKind, TraceSpec};

fn main() {
    let mut pythia = Pythia::new(PythiaConfig::basic());
    let trace = TraceSpec::new(PatternKind::PageVisit {
        offsets: vec![0, 23],
    })
    .stream(3_000_000);

    // Mirror the agent's own feature extraction to find the probed feature
    // value: the trigger PC's first-touch (delta 0) PC+Delta value.
    let mut probe_ctx = FeatureContext::new();
    let mut probe_value: Option<u64> = None;

    let feedback = SystemFeedback::idle();
    let mut samples: Vec<(u64, Vec<f32>)> = Vec::new();
    let mut last_line = u64::MAX;
    let mut cycle = 0u64;
    let probe_actions = [1i32, 3, 22, 23];
    let cfg = PythiaConfig::basic();

    for r in trace {
        let Some(mem) = r.mem else { continue };
        let line = mem.addr >> 6;
        if line == last_line {
            continue; // model the L1 filtering element re-accesses
        }
        last_line = line;
        cycle += 40;
        let access = DemandAccess {
            pc: r.pc,
            addr: mem.addr,
            line,
            is_write: mem.is_write,
            cycle,
            missed: true,
        };
        probe_ctx.update(&access);
        if probe_value.is_none() && r.pc == 0x436a81 && probe_ctx.delta() == 0 {
            probe_value = Some(probe_ctx.value(&Feature::PC_DELTA));
        }
        let out = pythia.on_demand(&access, &feedback);
        for req in out {
            pythia.on_fill(&FillEvent {
                line: req.line,
                ready_at: cycle + 190,
                prefetched: true,
            });
        }
        if let Some(v) = probe_value {
            let updates = pythia.qvstore().updates();
            if updates > 0 && updates.is_multiple_of(1000) {
                let q = pythia.probe_feature_q(0, v);
                samples.push((updates, q));
            }
        }
    }

    println!("# Fig. 13 — Q-value curves of the PC+Delta trigger feature (GemsFDTD-like)\n");
    let mut headers = vec!["q-updates".to_string()];
    headers.extend(probe_actions.iter().map(|a| format!("Q(+{a})")));
    let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr);
    samples.dedup_by_key(|(u, _)| *u);
    for (u, q) in samples.iter().step_by(2) {
        let mut row = vec![u.to_string()];
        for a in probe_actions {
            let idx = cfg
                .actions
                .iter()
                .position(|&x| x == a)
                .expect("case-study offsets are Table 2 actions");
            row.push(format!("{:+.2}", q[idx]));
        }
        t.row(&row);
    }
    println!("{}", t.to_markdown());
    let hist = pythia.action_histogram();
    let total: u64 = hist.iter().sum();
    let plus23 = hist[cfg
        .actions
        .iter()
        .position(|&x| x == 23)
        .expect("+23 is a Table 2 action")];
    println!(
        "offset +23 selected {plus23}/{total} times ({:.1}% of selections)",
        plus23 as f64 * 100.0 / total as f64
    );
}
