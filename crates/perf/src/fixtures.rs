//! Deterministic, fixed-seed workload fixtures for the microbenchmarks.
//!
//! Every fixture is a pure function of `PYTHIA_BENCH_SCALE` — no clocks,
//! no ambient randomness — so two runs at the same scale measure exactly
//! the same work, and `BENCH_micro.json` numbers are comparable across
//! runs and machines.

use pythia_sim::prefetch::DemandAccess;
use pythia_sim::trace::TraceRecord;
use pythia_workloads::suites::all_suites;
use pythia_workloads::Workload;

/// The e2e benchmark's workload: the first SPEC06 entry of the Table 6
/// pool — the default single-core subject throughout the repo's examples
/// and smokes.
pub const E2E_WORKLOAD: &str = "401.gcc-13B";

/// Scales an iteration count, keeping a sane floor so statistics stay
/// meaningful at tiny CI scales.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1_000)
}

/// The e2e fixture workload from the Table 6 pool.
///
/// # Panics
///
/// Panics if the suite pool no longer contains [`E2E_WORKLOAD`].
pub fn e2e_workload() -> Workload {
    all_suites()
        .into_iter()
        .find(|w| w.name == E2E_WORKLOAD)
        .expect("Table 6 pool contains the e2e workload")
}

/// A deterministic mixed demand-access stream: bursty per-page locality
/// with page changes and occasional writes — the shape the agent and
/// feature extractor see from the L1 miss stream.
pub fn demand_stream(n: usize) -> impl Iterator<Item = DemandAccess> {
    (0..n as u64).map(|i| {
        let addr = 0x1000_0000 + (i % 97) * 64 + (i / 97) * 4096 % (1 << 24);
        DemandAccess {
            pc: 0x400000 + (i % 13) * 4,
            addr,
            line: addr >> 6,
            is_write: i % 11 == 0,
            cycle: i * 7,
            missed: true,
        }
    })
}

/// Cacheline indices with a hot/cold mix: ~70% land in a small resident
/// set, the rest sweep a large footprint (so probes exercise both the hit
/// and the miss/evict paths).
pub fn line_stream(n: usize) -> impl Iterator<Item = u64> {
    (0..n as u64).map(|i| {
        if i % 10 < 7 {
            (i * 17) % 512
        } else {
            4096 + (i * 131) % 100_000
        }
    })
}

/// One instruction of the core-model fixture, as the core model sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// A load completing `latency` cycles after dispatch.
    Load {
        /// Hierarchy latency: an L1 hit, or now and then a long miss.
        latency: u64,
    },
    /// A single-cycle branch.
    Branch {
        /// Whether it inserts the front-end bubble.
        mispredicted: bool,
    },
    /// A single-cycle instruction with no memory operation.
    Plain,
}

/// The suites' instruction mix (`TraceSpec::new`: 30 % loads, 10 %
/// branches of which ~3 % mispredict, 60 % plain) in a hashed order — the
/// generators roll an RNG per record, so a periodic class sequence would
/// flatter every branch on the class; one load in 97 takes a DRAM-scale
/// latency so the ROB fills and the stall path runs.
pub fn instruction_mix(n: usize) -> impl Iterator<Item = Inst> {
    (0..n as u64).map(|i| {
        let roll = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 100;
        match roll {
            0..=29 => Inst::Load {
                latency: if i % 97 == 0 { 200 } else { 5 },
            },
            30..=39 => Inst::Branch {
                mispredicted: i % 31 == 0,
            },
            _ => Inst::Plain,
        }
    })
}

/// A trace fixture for codec benchmarks: the record mix the generators
/// produce (nops, loads, stores, branches, dependent loads).
pub fn trace_records(n: usize) -> Vec<TraceRecord> {
    (0..n as u64)
        .map(|i| match i % 10 {
            0 => TraceRecord::store(0x400000 + i % 64, 0x2000_0000 + (i * 64) % (1 << 22)),
            1 | 2 => TraceRecord::nop(0x400000 + i % 64),
            3 => TraceRecord::branch(0x400000 + i % 64, i % 3 == 0, i % 7 == 0),
            4 => {
                TraceRecord::dependent_load(0x400000 + i % 64, 0x2000_0000 + (i * 192) % (1 << 22))
            }
            _ => TraceRecord::load(0x400000 + i % 64, 0x2000_0000 + (i * 64) % (1 << 22)),
        })
        .collect()
}

/// A rendered JSON array of lossless wire reports (the journal's `cell`
/// payload and the bulk of a stored artifact), at least `min_bytes`
/// long: one real 1 K + 4 K-instruction simulation of the e2e workload,
/// repeated — the reader has no cache a repeat could flatter.
pub fn wire_report_array(min_bytes: usize) -> String {
    let spec = pythia::runner::RunSpec {
        system: pythia_sim::config::SystemConfig::single_core(),
        warmup: 1_000,
        measure: 4_000,
    };
    let report = pythia::runner::run_workload(&e2e_workload(), "stride", &spec);
    let one = pythia_stats::json::sim_report_wire_json(&report);
    let count = min_bytes.div_ceil(one.render().len() + 1);
    pythia_stats::json::Json::Arr(vec![one; count]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a: Vec<_> = demand_stream(100).collect();
        let b: Vec<_> = demand_stream(100).collect();
        assert_eq!(a, b);
        assert_eq!(trace_records(100), trace_records(100));
        let l: Vec<_> = line_stream(100).collect();
        assert_eq!(l, line_stream(100).collect::<Vec<_>>());
        let m: Vec<_> = instruction_mix(100).collect();
        assert_eq!(m, instruction_mix(100).collect::<Vec<_>>());
    }

    #[test]
    fn instruction_mix_is_30_10_60() {
        let mix: Vec<_> = instruction_mix(10_000).collect();
        let loads = mix
            .iter()
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        let branches = mix
            .iter()
            .filter(|i| matches!(i, Inst::Branch { .. }))
            .count();
        assert!((2_900..=3_100).contains(&loads), "loads={loads}");
        assert!((900..=1_100).contains(&branches), "branches={branches}");
        assert!(mix.contains(&Inst::Branch { mispredicted: true }));
        assert!(mix.contains(&Inst::Load { latency: 200 }));
    }

    #[test]
    fn line_stream_mixes_hot_and_cold() {
        let lines: Vec<_> = line_stream(1000).collect();
        assert!(lines.iter().any(|&l| l < 512));
        assert!(lines.iter().any(|&l| l >= 4096));
    }

    #[test]
    fn wire_report_array_reaches_the_requested_size() {
        let doc = wire_report_array(8 << 10);
        assert!((8 << 10..12 << 10).contains(&doc.len()), "{}", doc.len());
        assert_eq!(doc, wire_report_array(8 << 10));
        assert!(pythia_stats::json::parse(&doc).is_ok());
    }

    #[test]
    fn scaled_applies_floor() {
        assert_eq!(scaled(500_000, 1.0), 500_000);
        assert_eq!(scaled(500_000, 0.001), 1_000);
    }

    #[test]
    fn e2e_workload_exists() {
        assert_eq!(e2e_workload().name, E2E_WORKLOAD);
    }
}
