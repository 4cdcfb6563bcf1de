//! # pythia-perf
//!
//! The in-repo microbenchmark subsystem: a hand-rolled harness (no
//! external benchmarking dependency) that pins the simulator's hot paths
//! to numbers — per-access agent cost, cache probe and LLC fill cost, trace decode
//! throughput, what a record costs in each layer it crosses (`gen_step`,
//! `core_dispatch`, `l1_hit_step`), and the end-to-end
//! simulated-instructions-per-second of the default single-core workload.
//!
//! Each benchmark runs a warmup phase, then `measure_reps` timed
//! repetitions of a deterministic fixed-seed fixture
//! ([`fixtures`]), reduced to median + MAD
//! ([`pythia_stats::bench::BenchMeasurement`]). `pythia-cli bench` drives
//! the registry and `--out FILE` saves the report (same hand-rolled JSON
//! schema family as the sweep engine's `BENCH_*.json`); `bench
//! --sections` prints [`sections`]' two tables instead.
//!
//! This is the microscope, not the gate: the numbers are absolute
//! nanoseconds of the host they ran on, so `bench --compare` tables two
//! reports of one host and refuses anything else, and CI runs the
//! registry only as a smoke. What gates a change is
//! `scripts/bench_ab.py`: the repo benchmark (`benchmark/`) on parent and
//! head, alternating, on one host. A kernel row here explains a movement
//! there; it never stands in for it.
//!
//! ```no_run
//! let harness = pythia_perf::Harness::default();
//! let report = pythia_perf::run_filtered(Some("qvstore"), &harness);
//! println!("{}", report.to_markdown());
//! ```

pub mod fixtures;
pub mod sections;

use std::hint::black_box;

use pythia::runner::{run_workload, RunSpec};
use pythia_core::eq::{EqEntry, EvaluationQueue};
use pythia_core::{FeatureContext, Pythia, PythiaConfig, QvStore};
use pythia_sim::addr;
use pythia_sim::cache::{AccessKind, Cache, Lookup, MshrFile};
use pythia_sim::config::{CoreConfig, SystemConfig};
use pythia_sim::cpu::CoreModel;
use pythia_sim::prefetch::{Prefetcher, SystemFeedback};
use pythia_sim::trace::{FileTraceSource, MemOp, TraceRecord, TraceSource, TraceWriter};
use pythia_stats::bench::{BenchMeasurement, BenchReport};

use fixtures::scaled;

/// Harness knobs: untimed warmup repetitions, then timed repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Untimed repetitions before measurement (cache/branch warmup).
    pub warmup_reps: u32,
    /// Timed repetitions reduced to median/MAD.
    pub measure_reps: u32,
}

impl Default for Harness {
    fn default() -> Self {
        Self {
            warmup_reps: 2,
            measure_reps: 7,
        }
    }
}

/// One registered microbenchmark: `build(scale)` constructs its fixture
/// and returns the work units one repetition processes plus the
/// repetition closure.
pub struct BenchDef {
    /// Benchmark name (`--filter` substring-matches it).
    pub name: &'static str,
    /// Work-unit label (`"inst"`, `"ops"`, `"records"`).
    pub unit: &'static str,
    /// Fixture constructor.
    #[allow(clippy::type_complexity)]
    pub build: fn(f64) -> (u64, Box<dyn FnMut()>),
}

impl std::fmt::Debug for BenchDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchDef")
            .field("name", &self.name)
            .finish()
    }
}

/// Budgets of the end-to-end benchmark (scaled): the default single-core
/// methodology of `pythia-cli run` (100 K warmup + 400 K measured).
const E2E_WARMUP: u64 = 100_000;
const E2E_MEASURE: u64 = 400_000;

pub(crate) fn e2e_spec(scale: f64) -> RunSpec {
    RunSpec {
        system: SystemConfig::single_core(),
        warmup: scaled(E2E_WARMUP as usize, scale) as u64,
        measure: scaled(E2E_MEASURE as usize, scale) as u64,
    }
}

fn e2e_bench(scale: f64, prefetcher: &'static str) -> (u64, Box<dyn FnMut()>) {
    let spec = e2e_spec(scale);
    let workload = fixtures::e2e_workload();
    (
        spec.warmup + spec.measure,
        Box::new(move || {
            black_box(run_workload(&workload, prefetcher, &spec));
        }),
    )
}

/// Records per `next_batch` call, as `System` pulls them.
const RECORD_BATCH: usize = 64;

/// Load latencies of the kernels that stand in for the hierarchy: an L1
/// hit, and whatever lies below it.
const HIT_LATENCY: u64 = 5;
const MISS_LATENCY: u64 = 200;

/// The generator step: drains the current pass of `source` batch by batch,
/// the way `System` refills a core's record buffer.
pub(crate) fn drain_batches(source: &mut dyn TraceSource, mut each: impl FnMut(&[TraceRecord])) {
    let mut batch = Vec::with_capacity(RECORD_BATCH);
    while source.next_batch(&mut batch, RECORD_BATCH) > 0 {
        each(&batch);
        batch.clear();
    }
}

/// The core-model step: dispatches `record` as `System::step_core` does,
/// asking `latency(mem, cycle)` where that asks the hierarchy.
#[inline]
pub(crate) fn core_step(
    core: &mut CoreModel,
    record: &TraceRecord,
    latency: impl FnOnce(MemOp, u64) -> u64,
) {
    let mut mispredicted = false;
    if let Some(branch) = record.branch {
        mispredicted = branch.mispredicted;
        core.record_branch(mispredicted);
    }
    match record.mem {
        None => {
            core.dispatch_plain(mispredicted);
        }
        Some(mem) => {
            let exec_latency = if mem.is_write {
                1
            } else {
                latency(mem, core.now())
            };
            core.dispatch(
                exec_latency,
                !mem.is_write,
                mem.is_write,
                record.depends_on_prev_load,
                mispredicted,
            );
        }
    }
}

/// The hierarchy seen from a kernel without one: a load of the line the
/// previous memory record touched hits at [`HIT_LATENCY`], the first touch
/// of another line — one memory record in ten at the suites'
/// `accesses_per_line` — takes [`MISS_LATENCY`].
#[inline]
pub(crate) fn fixed_latency(last_line: &mut u64, mem: MemOp) -> u64 {
    let line = addr::line_of(mem.addr);
    let latency = if line == *last_line {
        HIT_LATENCY
    } else {
        MISS_LATENCY
    };
    *last_line = line;
    latency
}

/// The L1 step: one demand access, filled on a miss with whatever lies
/// below answering after [`MISS_LATENCY`]. Returns the load-to-use latency.
#[inline]
pub(crate) fn l1_step(l1: &mut Cache, mem: MemOp, cycle: u64) -> u64 {
    let line = addr::line_of(mem.addr);
    let kind = if mem.is_write {
        AccessKind::DemandStore
    } else {
        AccessKind::DemandLoad
    };
    match l1.access(line, kind, cycle) {
        Lookup::Hit { ready_at, .. } => ready_at.max(cycle + l1.latency()) - cycle,
        Lookup::Miss => {
            l1.fill(line, cycle + MISS_LATENCY, kind, 0);
            MISS_LATENCY
        }
    }
}

/// Records per stream of the kernels that replay [`fixtures::LADDER_WORKLOADS`].
const STREAM_RECORDS: usize = 300_000;

/// Bytes one `json_parse_*` repetition reads (scaled).
const JSON_PARSE_BYTES: usize = 4 << 20;

/// `pythia_stats::json::parse` over a rendered array of wire reports of
/// about `doc_bytes`. Both sizes read about the same number of bytes per
/// repetition, so a linear reader scores the same MB/s on both.
fn json_parse_bench(scale: f64, doc_bytes: usize) -> (u64, Box<dyn FnMut()>) {
    let doc = fixtures::wire_report_array(doc_bytes);
    let passes = (scaled(JSON_PARSE_BYTES, scale) / doc.len()).max(1);
    (
        (doc.len() * passes) as u64,
        Box::new(move || {
            for _ in 0..passes {
                black_box(pythia_stats::json::parse(black_box(&doc)).expect("valid fixture"));
            }
        }),
    )
}

/// A fixture trace file, opened once: the benchmark closure owns it, and
/// the file is removed when the closure is dropped after its last
/// repetition.
struct FixtureTrace {
    path: std::path::PathBuf,
    source: FileTraceSource,
}

impl FixtureTrace {
    /// Writes `fixtures::trace_records(n)` to a temporary file and opens it.
    fn open(tag: &str, n: usize) -> Self {
        let path =
            std::env::temp_dir().join(format!("pythia_perf_{tag}_{}_{n}.pytr", std::process::id()));
        let mut writer = TraceWriter::create(&path).expect("create fixture trace");
        for r in fixtures::trace_records(n) {
            writer.write_record(&r).expect("write fixture record");
        }
        writer.finish().expect("finish fixture trace");
        let source = FileTraceSource::open(&path).expect("open fixture trace");
        Self { path, source }
    }
}

impl Drop for FixtureTrace {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Every registered microbenchmark, in report order.
pub fn registry() -> Vec<BenchDef> {
    vec![
        BenchDef {
            name: "e2e_single_core",
            unit: "inst",
            build: |scale| e2e_bench(scale, "pythia"),
        },
        BenchDef {
            name: "e2e_baseline_sim",
            unit: "inst",
            build: |scale| e2e_bench(scale, "none"),
        },
        BenchDef {
            name: "agent_step",
            unit: "ops",
            build: |scale| {
                let n = scaled(300_000, scale);
                (
                    n as u64,
                    Box::new(move || {
                        let mut agent = Pythia::new(PythiaConfig::tuned());
                        let fb = SystemFeedback::idle();
                        let mut out = Vec::new();
                        for a in fixtures::demand_stream(n) {
                            out.clear();
                            agent.on_demand_into(&a, &fb, &mut out);
                            black_box(out.len());
                        }
                    }),
                )
            },
        },
        BenchDef {
            name: "feature_extract",
            unit: "ops",
            build: |scale| {
                let n = scaled(500_000, scale);
                let cfg = PythiaConfig::tuned();
                let store = QvStore::new(&cfg);
                (
                    n as u64,
                    Box::new(move || {
                        let mut ctx = FeatureContext::new();
                        let mut state = vec![0; store.cells()];
                        for a in fixtures::demand_stream(n) {
                            ctx.update(&a);
                            store.hash(cfg.features.iter().map(|f| ctx.value(f)), &mut state);
                            black_box(&state);
                        }
                    }),
                )
            },
        },
        BenchDef {
            name: "qvstore_argmax",
            unit: "ops",
            build: |scale| {
                let n = scaled(500_000, scale);
                let store = QvStore::new(&PythiaConfig::tuned());
                (
                    n as u64,
                    Box::new(move || {
                        let mut acc = 0usize;
                        let mut state = vec![0; store.cells()];
                        for i in 0..n as u64 {
                            store.hash([i % 4096, (i * 7) % 4096], &mut state);
                            acc = acc.wrapping_add(store.argmax(&state));
                        }
                        black_box(acc);
                    }),
                )
            },
        },
        BenchDef {
            // The 127-entry full action list of the paper's exploration
            // study: seven full groups of 16 lanes and one of 15.
            name: "qvstore_argmax_full",
            unit: "ops",
            build: |scale| {
                let n = scaled(200_000, scale);
                let cfg = PythiaConfig::tuned().with_actions(PythiaConfig::full_actions());
                let store = QvStore::new(&cfg);
                (
                    n as u64,
                    Box::new(move || {
                        let mut acc = 0usize;
                        let mut state = vec![0; store.cells()];
                        for i in 0..n as u64 {
                            store.hash([i % 4096, (i * 7) % 4096], &mut state);
                            acc = acc.wrapping_add(store.argmax(&state));
                        }
                        black_box(acc);
                    }),
                )
            },
        },
        BenchDef {
            name: "qvstore_sarsa",
            unit: "ops",
            build: |scale| {
                let n = scaled(400_000, scale);
                let cfg = PythiaConfig::tuned();
                (
                    n as u64,
                    Box::new(move || {
                        let mut store = QvStore::new(&cfg);
                        let (mut s1, mut s2) = (vec![0; store.cells()], vec![0; store.cells()]);
                        for i in 0..n as u64 {
                            store.hash([i % 4096, (i * 7) % 4096], &mut s1);
                            store.hash([(i + 1) % 4096, (i * 7 + 3) % 4096], &mut s2);
                            store.sarsa_update(
                                &s1,
                                (i % 16) as usize,
                                -3.0,
                                &s2,
                                ((i + 5) % 16) as usize,
                                0.05,
                                cfg.gamma,
                            );
                        }
                        black_box(store.updates());
                    }),
                )
            },
        },
        BenchDef {
            name: "eq_churn",
            unit: "ops",
            build: |scale| {
                let n = scaled(400_000, scale);
                (
                    n as u64,
                    Box::new(move || {
                        // Six bases an entry: the paper's 2 vaults x 3 planes.
                        let mut eq = EvaluationQueue::new(256, 6);
                        let mut state = [0u32; 6];
                        let mut evictions = 0u64;
                        for i in 0..n as u64 {
                            eq.reward_demand_hit(i % 4096, i, 20, 12, false);
                            let entry = EqEntry::new((i % 16) as usize, Some((i * 3) % 4096), i);
                            state[0] = i as u32;
                            if eq.insert(entry, &mut state).is_some() {
                                evictions += 1;
                            }
                            if i % 5 == 0 {
                                eq.mark_filled((i * 3) % 4096, i + 100);
                            }
                        }
                        black_box(evictions);
                    }),
                )
            },
        },
        BenchDef {
            // One workload per `PatternKind`, drained as `System` drains
            // it: what every generated record costs before the simulator
            // sees it.
            name: "gen_step",
            unit: "records",
            build: |scale| {
                let n = scaled(200_000, scale);
                let workloads = fixtures::GEN_WORKLOADS.map(fixtures::suite_workload);
                (
                    (n * workloads.len()) as u64,
                    Box::new(move || {
                        for w in &workloads {
                            drain_batches(&mut fixtures::inline_stream(w, n), |batch| {
                                black_box(batch);
                            });
                        }
                    }),
                )
            },
        },
        BenchDef {
            // One RNG roll and one record store per record, batched the
            // same way: the distance from here to `gen_step` is what the
            // generators' own logic costs.
            name: "gen_floor",
            unit: "records",
            build: |scale| {
                let batches = scaled(200_000, scale) * fixtures::GEN_WORKLOADS.len() / RECORD_BATCH;
                (
                    (batches * RECORD_BATCH) as u64,
                    Box::new(move || {
                        let mut state = 1u64;
                        let mut batch = Vec::with_capacity(RECORD_BATCH);
                        for _ in 0..batches {
                            batch.clear();
                            batch.extend(
                                (0..RECORD_BATCH).map(|_| fixtures::floor_record(&mut state)),
                            );
                            black_box(&batch);
                        }
                    }),
                )
            },
        },
        BenchDef {
            // The Table 5 core on recorded suite streams (so the generator
            // is not in the row), the hierarchy replaced by fixed
            // latencies: the layer every record crosses, on the class and
            // latency sequences the simulator feeds it.
            name: "core_dispatch",
            unit: "inst",
            build: |scale| {
                let n = scaled(STREAM_RECORDS, scale);
                let streams =
                    fixtures::LADDER_WORKLOADS.map(|w| fixtures::suite_workload(w).trace(n));
                (
                    (n * streams.len()) as u64,
                    Box::new(move || {
                        for records in &streams {
                            let mut core = CoreModel::new(CoreConfig::default());
                            let mut last_line = u64::MAX;
                            for record in records {
                                core_step(&mut core, record, |mem, _| {
                                    fixed_latency(&mut last_line, mem)
                                });
                            }
                            black_box(core.drain());
                        }
                    }),
                )
            },
        },
        BenchDef {
            // The memory records of the same streams through an L1D: nine
            // in ten hit the line the previous one touched, the tenth
            // fills.
            name: "l1_hit_step",
            unit: "ops",
            build: |scale| {
                let n = scaled(STREAM_RECORDS, scale);
                let streams = fixtures::LADDER_WORKLOADS.map(|w| {
                    let records = fixtures::suite_workload(w).trace(n);
                    records.iter().filter_map(|r| r.mem).collect::<Vec<_>>()
                });
                let cfg = SystemConfig::single_core();
                (
                    streams.iter().map(Vec::len).sum::<usize>() as u64,
                    Box::new(move || {
                        for accesses in &streams {
                            let mut l1 = Cache::new("bench-l1", &cfg.l1d);
                            let mut total = 0u64;
                            for (cycle, &mem) in accesses.iter().enumerate() {
                                total += l1_step(&mut l1, mem, cycle as u64);
                            }
                            black_box(total);
                        }
                    }),
                )
            },
        },
        BenchDef {
            name: "cache_probe",
            unit: "ops",
            build: |scale| {
                let n = scaled(500_000, scale);
                let cfg = SystemConfig::single_core();
                (
                    n as u64,
                    Box::new(move || {
                        let mut cache = Cache::new("bench-l1", &cfg.l1d);
                        let mut hits = 0u64;
                        for (i, line) in fixtures::line_stream(n).enumerate() {
                            match cache.access(line, AccessKind::DemandLoad, i as u64) {
                                Lookup::Hit { .. } => hits += 1,
                                Lookup::Miss => {
                                    cache.fill(line, i as u64 + 20, AccessKind::DemandLoad, 0);
                                }
                            }
                        }
                        black_box(hits);
                    }),
                )
            },
        },
        BenchDef {
            // The shared LLC's fill path: fresh lines into full 16-way SHiP
            // sets, so every fill runs a victim search. Before four fills in
            // seven the set's previous fill is demanded, so some signatures
            // train reused and others never, and the RRPVs stay mixed.
            name: "llc_fill",
            unit: "ops",
            build: |scale| {
                let n = scaled(500_000, scale);
                let cfg = SystemConfig::single_core().llc;
                let mut llc = Cache::new("bench-llc", &cfg);
                let mut next = llc.capacity_lines() as u64;
                for line in 0..next {
                    llc.fill(line, 0, AccessKind::DemandLoad, (line % 7) as u16);
                }
                let sets = next / cfg.ways as u64;
                (
                    n as u64,
                    Box::new(move || {
                        for _ in 0..n {
                            let (line, sig) = (next, (next % 7) as u16);
                            next += 1;
                            if sig < 4 {
                                llc.access(line - sets, AccessKind::DemandLoad, line);
                            }
                            black_box(llc.fill(line, line, AccessKind::DemandLoad, sig));
                        }
                    }),
                )
            },
        },
        BenchDef {
            name: "mshr_allocate",
            unit: "ops",
            build: |scale| {
                let n = scaled(500_000, scale);
                (
                    n as u64,
                    Box::new(move || {
                        let mut mshr = MshrFile::new(32);
                        let mut waited = 0u64;
                        for i in 0..n as u64 {
                            waited += mshr.allocate(i * 3, i * 3 + 200);
                        }
                        black_box(waited);
                    }),
                )
            },
        },
        BenchDef {
            name: "trace_decode",
            unit: "records",
            build: |scale| {
                let n = scaled(500_000, scale);
                let mut trace = FixtureTrace::open("decode", n);
                (
                    n as u64,
                    Box::new(move || {
                        trace.source.reset();
                        drain_batches(&mut trace.source, |batch| {
                            black_box(batch.len());
                        });
                    }),
                )
            },
        },
        BenchDef {
            name: "trace_file_replay",
            unit: "records",
            build: |scale| {
                let n = scaled(500_000, scale);
                let mut trace = FixtureTrace::open("replay", n);
                (
                    n as u64,
                    Box::new(move || {
                        trace.source.reset();
                        let mut count = 0u64;
                        while let Some(r) = trace.source.next_record() {
                            black_box(r.pc);
                            count += 1;
                        }
                        black_box(count);
                    }),
                )
            },
        },
        BenchDef {
            name: "json_parse_8k",
            unit: "B",
            build: |scale| json_parse_bench(scale, 8 << 10),
        },
        BenchDef {
            name: "json_parse_512k",
            unit: "B",
            build: |scale| json_parse_bench(scale, 512 << 10),
        },
    ]
}

/// Runs one benchmark under the harness at `scale`.
pub fn run_benchmark(def: &BenchDef, harness: &Harness, scale: f64) -> BenchMeasurement {
    let (units, mut rep) = (def.build)(scale);
    for _ in 0..harness.warmup_reps {
        rep();
    }
    let reps = harness.measure_reps.max(1);
    let mut times_ns = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let started = std::time::Instant::now();
        rep();
        times_ns.push(started.elapsed().as_nanos() as f64);
    }
    BenchMeasurement::from_times(def.name, def.unit, units, &times_ns)
}

/// Runs every benchmark whose name contains `filter` (all when `None`),
/// at the ambient `PYTHIA_BENCH_SCALE`, and returns the report.
pub fn run_filtered(filter: Option<&str>, harness: &Harness) -> BenchReport {
    let scale = pythia_bench::scale();
    let benchmarks = registry()
        .iter()
        .filter(|d| filter.is_none_or(|f| d.name.contains(f)))
        .map(|d| run_benchmark(d, harness, scale))
        .collect();
    let host = pythia_obs::host::host_info();
    BenchReport {
        name: "micro".into(),
        scale,
        host: Some(pythia_stats::bench::BenchHost {
            cpu_features: host.features_label(),
            hostname: host.hostname,
        }),
        benchmarks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        Harness {
            warmup_reps: 0,
            measure_reps: 2,
        }
    }

    #[test]
    fn registry_names_are_unique_and_cover_required_paths() {
        let defs = registry();
        assert!(defs.len() >= 6, "need at least six benchmarks");
        let names: Vec<_> = defs.iter().map(|d| d.name).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate benchmark names");
        for required in [
            "agent_step",
            "cache_probe",
            "llc_fill",
            "trace_decode",
            "e2e_single_core",
        ] {
            assert!(names.contains(&required), "missing benchmark {required}");
        }
    }

    #[test]
    fn micro_benchmarks_produce_positive_medians_at_tiny_scale() {
        // Every non-e2e benchmark runs in milliseconds at 0.01 scale; the
        // e2e pair is exercised by the CLI smoke instead (spawning full
        // simulations twice per unit-test run is too slow here).
        let harness = tiny();
        for def in registry().iter().filter(|d| !d.name.starts_with("e2e")) {
            let m = run_benchmark(def, &harness, 0.01);
            assert!(m.median_ns > 0.0, "{}: zero median", def.name);
            assert!(m.units_per_rep >= 1_000, "{}: fixture floor", def.name);
            assert_eq!(m.reps, 2);
            assert!(m.units_per_sec() > 0.0);
        }
    }

    #[test]
    fn filtered_run_selects_by_substring() {
        let report = run_filtered(Some("qvstore"), &tiny());
        assert_eq!(report.benchmarks.len(), 3);
        assert!(report
            .benchmarks
            .iter()
            .all(|b| b.name.starts_with("qvstore")));
    }

    #[test]
    fn measurements_are_reduced_with_median_and_mad() {
        let defs = registry();
        let def = defs
            .iter()
            .find(|d| d.name == "qvstore_argmax")
            .expect("registered");
        let m = run_benchmark(
            def,
            &Harness {
                warmup_reps: 1,
                measure_reps: 5,
            },
            0.01,
        );
        assert_eq!(m.reps, 5);
        assert!(m.mad_ns >= 0.0);
        assert!(m.mad_ns < m.median_ns, "MAD should be far below the median");
    }
}
