//! Deterministic, fixed-seed workload fixtures for the microbenchmarks.
//!
//! Every fixture is a pure function of `PYTHIA_BENCH_SCALE` — no clocks,
//! no ambient randomness — so two runs at the same scale measure exactly
//! the same work, and two `bench --out` reports of one host are
//! comparable.

use pythia_sim::prefetch::DemandAccess;
use pythia_sim::trace::TraceRecord;
use pythia_workloads::suites::{all_suites, suite, Suite};
use pythia_workloads::{TraceStream, Workload};

/// The e2e benchmark's workload: the first SPEC06 entry of the Table 6
/// pool — the default single-core subject throughout the repo's examples
/// and smokes.
pub const E2E_WORKLOAD: &str = "401.gcc-13B";

/// Scales an iteration count, keeping a sane floor so statistics stay
/// meaningful at tiny CI scales.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1_000)
}

/// One suite workload per `PatternKind`, cache-resident to DRAM-bound:
/// the nine generators `gen_step` drains (the repo benchmark's
/// `sim1c_pythia_gen` simulates the same nine).
pub const GEN_WORKLOADS: [&str; 9] = [
    "401.gcc-13B",
    "429.mcf-184B",
    "436.cactusADM-97B",
    "470.lbm-164B",
    "450.soplex-66B",
    "459.GemsFDTD-765B",
    "482.sphinx3-417B",
    "Ligra-PageRank",
    "server-2",
];

/// The streams `core_dispatch`, `l1_hit_step` and the `sim_step` ladder
/// run on: a sweep with stores (the fastest of the nine to simulate), a
/// dependent pointer chase, and a graph traversal (the slowest).
pub const LADDER_WORKLOADS: [&str; 3] = ["470.lbm-164B", "429.mcf-184B", "Ligra-PageRank"];

/// A named workload: the Table 6 pool plus the unseen set.
///
/// # Panics
///
/// Panics if no suite contains `name`.
pub fn suite_workload(name: &str) -> Workload {
    all_suites()
        .into_iter()
        .chain(suite(Suite::CvpUnseen))
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no suite contains workload {name}"))
}

/// The e2e fixture workload from the Table 6 pool.
pub fn e2e_workload() -> Workload {
    suite_workload(E2E_WORKLOAD)
}

/// The first `n` records of `w`, generated on the calling thread: what
/// `gen_step` and the `sim_step` ladder drain. [`Workload::source`] reads
/// a trace this long ahead on another CPU, which would hide the generator
/// behind whatever consumes it.
pub fn inline_stream(w: &Workload, n: usize) -> TraceStream {
    w.spec.stream(n)
}

/// The floor under `gen_step`: what any generator of this shape must do
/// per record — advance a SplitMix64 state (the `rand` shim's `StdRng`)
/// and store one record.
#[inline]
pub fn floor_record(state: &mut u64) -> TraceRecord {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    TraceRecord::nop(z ^ (z >> 31))
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
        let (mut a, mut b) = (7u64, 7u64);
        assert_eq!(floor_record(&mut a), floor_record(&mut b));
    }

    #[test]
    fn named_streams_exist_and_cover_every_pattern_kind() {
        let kinds: std::collections::HashSet<_> = GEN_WORKLOADS
            .iter()
            .map(|name| std::mem::discriminant(&suite_workload(name).spec.kind))
            .collect();
        assert_eq!(kinds.len(), GEN_WORKLOADS.len(), "one workload per kind");
        for name in LADDER_WORKLOADS {
            assert!(GEN_WORKLOADS.contains(&name));
            let records = suite_workload(name).trace(2_000);
            assert_eq!(records.len(), 2_000);
            assert!(records.iter().any(|r| r.mem.is_some()));
        }
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
