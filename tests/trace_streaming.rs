//! The streaming trace pipeline's contract, pinned for every
//! [`PatternKind`]:
//!
//! 1. the streaming generator yields exactly the sequence `generate()`
//!    materializes (and replays it identically after a reset),
//! 2. the binary codec round-trips (write → replay → re-write is
//!    byte-identical, and a file written from the stream replays the
//!    materialized sequence),
//! 3. simulating from a stream, from a materialized `Vec`, and from a
//!    recorded trace file all produce byte-identical [`SimReport`]s,
//! 4. a stream read ahead on another thread ([`ReadAhead`]) is the inline
//!    stream, record for record and report for report.

use pythia::runner::{run_sources, RunSpec};
use pythia_sim::config::SystemConfig;
use pythia_sim::stats::SimReport;
use pythia_sim::trace::{
    FileTraceSource, ReadAhead, TraceRecord, TraceSource, TraceWriter, VecSource,
};
use pythia_workloads::{all_suites, PatternKind, TraceSpec};

/// A fresh trace-file path for `name` in `dir`.
fn trace_path(dir: &str, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}_{}.pytr", std::process::id()))
}

/// Writes one pass of `source` to a trace file at `path`.
fn record(source: &mut dyn TraceSource, path: &std::path::Path) {
    let mut writer = TraceWriter::create(path).expect("create");
    while let Some(r) = source.next_record() {
        writer.write_record(&r).expect("write record");
    }
    writer.finish().expect("finish");
}

/// Opens the trace file at `path` and replays one pass of it.
fn replay(path: &std::path::Path) -> Vec<TraceRecord> {
    let mut src = FileTraceSource::open(path).expect("open");
    std::iter::from_fn(|| src.next_record()).collect()
}

/// Records per pattern spec's trace.
const LEN: usize = 12_000;

/// One spec per pattern class, small enough to simulate quickly; each is
/// named by its pattern's tag.
fn all_pattern_specs() -> Vec<TraceSpec> {
    let kinds = vec![
        PatternKind::Stream { store_every: 3 },
        PatternKind::Stride { lines: 4 },
        PatternKind::PageVisit {
            offsets: vec![0, 23],
        },
        PatternKind::SpatialFootprint {
            patterns: vec![vec![0, 3, 7, 12], vec![1, 4]],
            noise_pct: 10,
        },
        PatternKind::DeltaChain {
            deltas: vec![2, 5, -1, 3],
        },
        PatternKind::IrregularGraph {
            vertices: 50_000,
            avg_degree: 6,
        },
        PatternKind::PointerChase,
        PatternKind::CloudMix { hot_pct: 30 },
        PatternKind::Phased {
            phases: vec![
                PatternKind::Stream { store_every: 0 },
                PatternKind::PointerChase,
            ],
            phase_len: 500,
        },
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            TraceSpec::new(kind)
                .with_seed(40 + i as u64)
                .with_footprint_pages(1024)
        })
        .collect()
}

#[test]
fn stream_yields_exactly_the_materialized_sequence() {
    for spec in all_pattern_specs() {
        let materialized = spec.generate(LEN);
        let streamed: Vec<_> = spec.stream(LEN).collect();
        assert_eq!(
            materialized,
            streamed,
            "{}: stream() must equal generate()",
            spec.kind.tag()
        );
    }
}

#[test]
fn stream_reset_replays_identically() {
    for spec in all_pattern_specs() {
        let mut stream = spec.stream(LEN);
        let first: Vec<_> = std::iter::from_fn(|| stream.next_record()).collect();
        assert_eq!(
            stream.next_record(),
            None,
            "{}: pass ended",
            spec.kind.tag()
        );
        stream.reset();
        let second: Vec<_> = std::iter::from_fn(|| stream.next_record()).collect();
        assert_eq!(first, second, "{}: reset must replay", spec.kind.tag());
        assert_eq!(first.len(), LEN);
    }
}

#[test]
fn codec_roundtrips_byte_identically_for_every_pattern() {
    for spec in all_pattern_specs() {
        let records = spec.generate(LEN);
        let (first, second) = (
            trace_path("pythia_trace_codec", spec.kind.tag()),
            trace_path("pythia_trace_codec", &format!("{}-again", spec.kind.tag())),
        );
        record(&mut VecSource::new(records.clone()), &first);
        let decoded = replay(&first);
        assert_eq!(
            records,
            decoded,
            "{}: replay(write(t)) == t",
            spec.kind.tag()
        );
        record(&mut VecSource::new(decoded), &second);
        assert_eq!(
            std::fs::read(&first).expect("read back"),
            std::fs::read(&second).expect("read back"),
            "{}: write → replay → re-write must be byte-identical",
            spec.kind.tag()
        );
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }
}

#[test]
fn streaming_writer_file_replays_the_materialized_sequence() {
    for spec in all_pattern_specs() {
        let path = trace_path("pythia_trace_streaming", spec.kind.tag());
        record(&mut spec.stream(LEN), &path);
        assert_eq!(
            replay(&path),
            spec.generate(LEN),
            "{}: a file written from the stream must replay generate()",
            spec.kind.tag()
        );
        std::fs::remove_file(&path).ok();
    }
}

fn simulate(source: Box<dyn TraceSource>, spec: &RunSpec) -> SimReport {
    run_sources(vec![source], "pythia", spec)
}

#[test]
fn streaming_materialized_and_file_replay_reports_are_byte_identical() {
    // Budgets force trace wrap-around (trace len 12 K < warmup+measure),
    // so the reset path is covered too.
    let run = RunSpec::single_core().with_budget(4_000, 16_000);
    for spec in all_pattern_specs() {
        let from_stream = simulate(spec.source(LEN), &run);
        let from_vec = simulate(VecSource::boxed(spec.generate(LEN)), &run);
        assert_eq!(
            from_stream,
            from_vec,
            "{}: streaming and materialized runs must agree",
            spec.kind.tag()
        );

        let path = trace_path("pythia_trace_streaming_sim", spec.kind.tag());
        record(&mut spec.stream(LEN), &path);
        let from_file = simulate(Box::new(FileTraceSource::open(&path).expect("open")), &run);
        assert_eq!(
            from_stream,
            from_file,
            "{}: file replay must reproduce the direct run",
            spec.kind.tag()
        );
        std::fs::remove_file(&path).ok();
    }
}

/// One pass of `source`, pulled the way `consume` says: 0 as `System`
/// does (`refill`, 64 records asked), 1 through `next_batch` of an odd
/// size, 2 record by record.
fn one_pass(source: &mut dyn TraceSource, consume: usize) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    match consume {
        0 => {
            let mut buf = Vec::with_capacity(64);
            while source.refill(&mut buf, 64) > 0 {
                out.extend_from_slice(&buf);
            }
        }
        1 => while source.next_batch(&mut out, 100) > 0 {},
        _ => out.extend(std::iter::from_fn(|| source.next_record())),
    }
    out
}

#[test]
fn read_ahead_is_the_inline_stream_for_every_pattern() {
    let b = ReadAhead::BATCH;
    for spec in all_pattern_specs() {
        // The specs' own length, a pass of one record, and passes that
        // end one record short of a batch boundary, on it, and one past it.
        for len in [LEN, 1, 3 * b - 1, 3 * b, 3 * b + 1] {
            let mut inline = spec.stream(len);
            let mut ahead = ReadAhead::new(Box::new(spec.stream(len)));
            assert_eq!(ahead.len_hint(), inline.len_hint());
            for pass in 0..4 {
                let expected = one_pass(&mut inline, 2);
                assert_eq!(expected.len(), len);
                let got = one_pass(&mut ahead, pass % 3);
                assert_eq!(
                    got,
                    expected,
                    "{} at {len} records, pass {pass}",
                    spec.kind.tag()
                );
                assert_eq!(
                    ahead.next_record(),
                    None,
                    "{}: the pass stays over",
                    spec.kind.tag()
                );
                inline.reset();
                ahead.reset();
            }
        }
    }
}

#[test]
fn a_mid_pass_reset_of_a_read_ahead_stream_is_the_inline_reset() {
    for spec in all_pattern_specs() {
        let mut inline = spec.stream(LEN);
        let mut ahead = ReadAhead::new(Box::new(spec.stream(LEN)));
        for cut in [0, 1, 700, 2_500, LEN - 1] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            inline.next_batch(&mut a, cut);
            ahead.next_batch(&mut b, cut);
            assert_eq!(a, b, "{}: the first {cut} records", spec.kind.tag());
            inline.reset();
            ahead.reset();
            assert_eq!(
                one_pass(&mut ahead, 0),
                one_pass(&mut inline, 2),
                "{}",
                spec.kind.tag()
            );
            inline.reset();
            ahead.reset();
        }
    }
}

/// The two runs `ReadAhead::wrap` changes most: `tests/report_pins.rs`'
/// `fresh-lines-150mtps` (one trace of 150 K records, every register file
/// binding) and a four-core mix of 200 K records per core — both
/// byte-identical read ahead and inline. The first also replays from a
/// recorded file, which `FileTraceSource::open` reads ahead where a CPU
/// is idle (at least `ReadAhead::MIN_RECORDS` records) and decodes
/// inline under `taskset -c 0`.
#[test]
fn read_ahead_reports_are_byte_identical_to_inline_ones() {
    let inline = |t: &TraceSpec, n| -> Box<dyn TraceSource> { Box::new(t.stream(n)) };
    let ahead =
        |t: &TraceSpec, n| -> Box<dyn TraceSource> { Box::new(ReadAhead::new(inline(t, n))) };
    let fresh = TraceSpec::new(PatternKind::Stream { store_every: 2 })
        .with_accesses_per_line(1)
        .with_seed(13);
    let fresh_run = RunSpec::single_core()
        .with_system(SystemConfig::single_core_with_mtps(150))
        .with_budget(20_000, 130_000);
    let mut mix_system = SystemConfig::with_cores(4);
    mix_system.dram.mtps = 600;
    let mix_run = RunSpec::multi_core(4)
        .with_system(mix_system)
        .with_budget(40_000, 160_000);
    let all = all_suites();
    let mix: Vec<TraceSpec> = [
        "470.lbm-164B",
        "429.mcf-184B",
        "482.sphinx3-417B",
        "Ligra-PageRank",
    ]
    .iter()
    .map(|name| {
        let w = all
            .iter()
            .find(|w| w.name == *name)
            .expect("suite workload");
        w.spec.clone()
    })
    .collect();
    let path = trace_path("pythia_trace_read_ahead", "pin-fresh");
    record(&mut fresh.stream(fresh_run.trace_len()), &path);
    assert!(fresh_run.trace_len() as u64 >= ReadAhead::MIN_RECORDS);
    let from_file = |_: &TraceSpec, _| -> Box<dyn TraceSource> {
        Box::new(FileTraceSource::open(&path).expect("open"))
    };
    for (label, traces, run, prefetcher, recorded) in [
        (
            "fresh-lines-150mtps",
            vec![fresh],
            fresh_run,
            "pythia",
            true,
        ),
        ("mix4-600mtps", mix, mix_run, "none", false),
    ] {
        let report = |open: &dyn Fn(&TraceSpec, usize) -> Box<dyn TraceSource>| {
            let sources = traces.iter().map(|t| open(t, run.trace_len())).collect();
            run_sources(sources, prefetcher, &run)
        };
        let expected = report(&inline);
        assert_eq!(report(&ahead), expected, "{label}");
        if recorded {
            assert_eq!(report(&from_file), expected, "{label} from a file");
        }
    }
    std::fs::remove_file(&path).ok();
}
