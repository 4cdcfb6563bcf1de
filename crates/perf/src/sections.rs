//! Where the time goes inside a step, by ablation: the agent's step and
//! the simulator's.
//!
//! The registry's `agent_step` benchmark answers "how fast is one
//! demand step?"; [`profile_agent_step`] answers "where inside it does the
//! time go?". A span timer cannot say: two clock reads cost about as much
//! as a phase of the step, so a table of timed sections sums to several
//! times what `agent_step` measures. Both ladders here therefore time
//! whole passes over a stream, each with one more layer switched on, and
//! read a layer's cost off the difference between neighbouring passes.
//!
//! The `agent_step` ladder steps `agent_step`'s demand stream through the
//! paper's phases (Algorithm 1): feature extraction, the QVStore argmax,
//! the EQ probe and insert, and then the whole agent, whose remainder is
//! the SARSA update, exploration and the software prefetches.
//! [`profile_sim_step`] does the same for the simulator step — generator,
//! core model, L1, the hierarchy below it, the agent — the `sim_step`
//! ladder. That ladder drains the stream inline: a read-ahead source would
//! overlap the generator with the core model, and the differences would
//! stop summing. What reading ahead saves is printed beside it, per
//! stream. `pythia-cli bench --sections` renders both tables, and under
//! them [`hierarchy_host_bytes`]: what each cache level holds on the host.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pythia::runner::{build_system, run_sources, run_workload};
use pythia_core::eq::{EqEntry, EvaluationQueue};
use pythia_core::{FeatureContext, Pythia, PythiaConfig, QvStore};
use pythia_sim::addr;
use pythia_sim::cache::Cache;
use pythia_sim::config::{CoreConfig, SystemConfig};
use pythia_sim::cpu::CoreModel;
use pythia_sim::prefetch::{Prefetcher, SystemFeedback};
use pythia_sim::trace::{ReadAhead, TraceSource};

use crate::fixtures::{self, scaled};
use crate::{core_step, drain_batches, e2e_spec, fixed_latency, l1_step};

/// The rungs of the `agent_step` ladder, bottom up: hashing the features
/// into row bases, the argmax over them, the EQ probe and insert, and
/// what the whole [`Pythia`] step adds on top.
pub const AGENT_STEP_RUNGS: [&str; 4] = ["features", "argmax", "EQ", "SARSA + rest"];

/// The `agent_step` ladder, in host nanoseconds per demand step.
#[derive(Debug, Clone)]
pub struct AgentLadder {
    /// Demand steps per pass (`agent_step`'s fixture).
    pub steps: u64,
    /// One entry per [`AGENT_STEP_RUNGS`] name, in that order; together they
    /// are `agent_ns`.
    pub rungs: Vec<(&'static str, f64)>,
    /// A pass of [`Pythia`]'s own step.
    pub agent_ns: f64,
}

impl AgentLadder {
    /// Renders one table row per rung: nanoseconds per step and share of
    /// the agent pass (the shares sum to 100 %).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| rung | ns/step | share |\n\
             |---|---:|---:|\n",
        );
        for (rung, ns) in &self.rungs {
            let share = 100.0 * ns / self.agent_ns;
            out.push_str(&format!("| {rung} | {ns:.2} | {share:.1}% |\n"));
        }
        out
    }
}

/// Builds the `agent_step` ladder at `scale` (same `PYTHIA_BENCH_SCALE`
/// semantics as the registry benchmarks): four nested passes over
/// `agent_step`'s demand stream, each the previous plus a phase — the
/// features hashed into row bases, as `feature_extract` does; the argmax
/// over them, as `qvstore_argmax` does; the EQ probed and an entry for the
/// chosen action inserted, as `eq_churn` does; and [`Pythia`]'s own step.
/// A rung is the difference between two neighbours, so the rungs sum to
/// the agent pass by construction.
pub fn profile_agent_step(scale: f64) -> AgentLadder {
    let n = scaled(300_000, scale);
    let cfg = PythiaConfig::tuned();
    let r = cfg.rewards;
    // A pass of the first `phases` phases of the step.
    let pass = |phases: u32| {
        let qv = QvStore::new(&cfg);
        let mut eq = EvaluationQueue::new(cfg.eq_size, qv.cells());
        let mut ctx = FeatureContext::new();
        let mut bases = vec![0; qv.cells()];
        let started = Instant::now();
        for a in fixtures::demand_stream(n) {
            ctx.update(&a);
            qv.hash(cfg.features.iter().map(|f| ctx.value(f)), &mut bases);
            if phases == 1 {
                black_box(&bases);
                continue;
            }
            let action = black_box(qv.argmax(&bases));
            if phases == 2 {
                continue;
            }
            let hit = eq.reward_demand_hit(
                a.line,
                a.cycle,
                r.accurate_timely,
                r.accurate_late,
                cfg.graded_timeliness,
            );
            let offset = cfg.actions[action];
            let target = (offset != 0 && addr::offset_stays_in_page(a.line, offset))
                .then(|| addr::apply_offset(a.line, offset));
            black_box((
                hit,
                eq.insert(EqEntry::new(action, target, a.cycle), &mut bases),
            ));
        }
        started.elapsed()
    };
    let agent = || {
        let mut agent = Pythia::new(cfg.clone());
        let fb = SystemFeedback::idle();
        let mut out = Vec::new();
        let started = Instant::now();
        for a in fixtures::demand_stream(n) {
            out.clear();
            agent.on_demand_into(&a, &fb, &mut out);
            black_box(out.len());
        }
        started.elapsed()
    };
    let [features, argmax, eq, agent_ns] =
        ns_per_record(n as u64, [&|| pass(1), &|| pass(2), &|| pass(3), &agent]);
    let values = [features, argmax - features, eq - argmax, agent_ns - eq];
    AgentLadder {
        steps: n as u64,
        rungs: AGENT_STEP_RUNGS.into_iter().zip(values).collect(),
        agent_ns,
    }
}

/// The rungs of the `sim_step` ladder, bottom up: what each layer adds to
/// a pass over the stream, then `remainder` — what the whole simulation
/// call spends outside `System::run`, building and dropping the system.
/// That is about zero at full scale, so a remainder of several
/// nanoseconds means the host changed speed between rounds: rerun.
pub const SIM_STEP_RUNGS: [&str; 6] = [
    "generator",
    "core model",
    "L1 hit",
    "miss path",
    "agent",
    "remainder",
];

/// Timed rounds; each configuration's fastest pass is kept.
const LADDER_PASSES: usize = 9;

/// The `sim_step` ladder of one stream, in host nanoseconds per record.
#[derive(Debug, Clone)]
pub struct StreamLadder {
    /// The suite workload whose stream was stepped.
    pub stream: &'static str,
    /// Records per pass (warm-up + measured budget of the e2e rows).
    pub records: u64,
    /// One entry per [`SIM_STEP_RUNGS`] name, in that order; together they
    /// are `e2e_pythia_ns`.
    pub rungs: Vec<(&'static str, f64)>,
    /// A whole simulation with no prefetcher, the stream inline.
    pub e2e_none_ns: f64,
    /// What of `e2e_none_ns` is outside `System::run`.
    pub remainder_none_ns: f64,
    /// A whole simulation with `pythia`, the stream inline.
    pub e2e_pythia_ns: f64,
    /// `run_workload` with `pythia` (`e2e_single_core`'s call), which reads
    /// a stream of at least [`ReadAhead::MIN_RECORDS`] records ahead on
    /// another CPU when it may use one.
    pub read_ahead_pythia_ns: f64,
}

/// The `sim_step` ladder over [`fixtures::LADDER_WORKLOADS`].
#[derive(Debug, Clone)]
pub struct SimStepLadder {
    /// One ladder per stream.
    pub streams: Vec<StreamLadder>,
}

impl SimStepLadder {
    /// Renders one table row per stream and rung — nanoseconds per record
    /// and share of the `pythia` simulation (the shares of a stream sum to
    /// 100 %) — followed by each stream's two end-to-end times, the share
    /// of each the remainder is, and `run_workload pythia` read ahead
    /// against inline.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| stream | rung | ns/record | share |\n\
             |---|---|---:|---:|\n",
        );
        for s in &self.streams {
            for (rung, ns) in &s.rungs {
                let share = 100.0 * ns / s.e2e_pythia_ns;
                out.push_str(&format!(
                    "| {} | {rung} | {ns:.2} | {share:.1}% |\n",
                    s.stream
                ));
            }
        }
        out.push('\n');
        for s in &self.streams {
            let remainder = s.rungs.last().expect("ladder has rungs").1;
            out.push_str(&format!(
                "{}: {} records; no prefetcher {:.2} ns/record (remainder {:.1}%), \
                 pythia {:.2} ns/record (remainder {:.1}%)\n",
                s.stream,
                s.records,
                s.e2e_none_ns,
                100.0 * s.remainder_none_ns / s.e2e_none_ns,
                s.e2e_pythia_ns,
                100.0 * remainder / s.e2e_pythia_ns,
            ));
        }
        for s in &self.streams {
            let inline = if s.records < ReadAhead::MIN_RECORDS {
                " (fewer records than ReadAhead::MIN_RECORDS: both inline)"
            } else {
                ""
            };
            out.push_str(&format!(
                "{}: `run_workload pythia` read ahead {:.2} ns/record against {:.2} inline \
                 ({:.2}x){inline}\n",
                s.stream,
                s.read_ahead_pythia_ns,
                s.e2e_pythia_ns,
                s.e2e_pythia_ns / s.read_ahead_pythia_ns,
            ));
        }
        out
    }
}

/// Fastest time of each configuration over [`LADDER_PASSES`] rounds, in
/// nanoseconds per record. A pass is deterministic single-threaded work,
/// so whatever the host adds (shared hosts slow down for seconds at a
/// time) only ever makes it longer: the minimum is the pass, and a
/// difference of minima is a layer. A round runs every configuration
/// once, so a spell falls on all of them alike. A configuration reads the
/// clock around its whole loop, never inside it, and returns what it read.
fn ns_per_record<const N: usize>(records: u64, configs: [&dyn Fn() -> Duration; N]) -> [f64; N] {
    let mut fastest = [f64::INFINITY; N];
    for _ in 0..LADDER_PASSES {
        for (config, fastest) in configs.iter().zip(&mut fastest) {
            *fastest = fastest.min(config().as_nanos() as f64 / records as f64);
        }
    }
    fastest
}

/// Builds the `sim_step` ladder at `scale`: per stream, five nested
/// configurations of one pass, each the previous plus a layer — the
/// generator drained as `System` drains it; the core model on top, the
/// hierarchy replaced by fixed latencies; an L1D on top, filled on a miss
/// after a fixed latency; the real `System` with no prefetcher; the real
/// `System` with `pythia`. A rung is the difference between two
/// neighbours, so `miss path` is everything below the L1 plus whatever
/// `System`'s own loop costs beyond the kernels' (the L1's one fill in
/// ten memory records is on the `L1 hit` rung), and the rungs sum to
/// `System::run` by construction. The last row is what the whole call
/// spends around it. Every configuration drains the stream inline; the
/// same `run_workload` call reading it ahead is timed beside them.
pub fn profile_sim_step(scale: f64) -> SimStepLadder {
    let spec = e2e_spec(scale);
    let n = spec.trace_len();
    let records = n as u64;
    let streams = fixtures::LADDER_WORKLOADS
        .iter()
        .map(|&stream| {
            let workload = fixtures::suite_workload(stream);
            // A pass of the first `layers` layers: generator, core, L1.
            let kernel = |layers: u32| {
                let mut source = fixtures::inline_stream(&workload, n);
                let mut core = CoreModel::new(CoreConfig::default());
                let mut l1 = Cache::new("ladder-l1", &spec.system.l1d);
                let mut last_line = u64::MAX;
                let started = Instant::now();
                drain_batches(&mut source, |batch| match layers {
                    1 => {
                        black_box(batch);
                    }
                    2 => {
                        for record in batch {
                            core_step(&mut core, record, |mem, _| {
                                fixed_latency(&mut last_line, mem)
                            });
                        }
                    }
                    _ => {
                        for record in batch {
                            core_step(&mut core, record, |mem, cycle| l1_step(&mut l1, mem, cycle));
                        }
                    }
                });
                black_box(core.drain());
                started.elapsed()
            };
            let inline = || -> Vec<Box<dyn TraceSource>> {
                vec![Box::new(fixtures::inline_stream(&workload, n))]
            };
            // `System::run` alone, and the whole call around it.
            let system_run = |prefetcher: &str| {
                let mut system = build_system(inline(), prefetcher, &spec);
                let started = Instant::now();
                black_box(system.run(spec.warmup, spec.measure));
                started.elapsed()
            };
            let whole_call = |prefetcher: &str| {
                let started = Instant::now();
                black_box(run_sources(inline(), prefetcher, &spec));
                started.elapsed()
            };
            let read_ahead_call = || {
                let started = Instant::now();
                black_box(run_workload(&workload, "pythia", &spec));
                started.elapsed()
            };

            let [generator, with_core, with_l1, none_run, pythia_run, e2e_none_ns, e2e_pythia_ns, read_ahead_pythia_ns] =
                ns_per_record(
                    records,
                    [
                        &|| kernel(1),
                        &|| kernel(2),
                        &|| kernel(3),
                        &|| system_run("none"),
                        &|| system_run("pythia"),
                        &|| whole_call("none"),
                        &|| whole_call("pythia"),
                        &read_ahead_call,
                    ],
                );

            let values = [
                generator,
                with_core - generator,
                with_l1 - with_core,
                none_run - with_l1,
                pythia_run - none_run,
                e2e_pythia_ns - pythia_run,
            ];
            StreamLadder {
                stream,
                records,
                rungs: SIM_STEP_RUNGS.into_iter().zip(values).collect(),
                e2e_none_ns,
                remainder_none_ns: e2e_none_ns - none_run,
                e2e_pythia_ns,
                read_ahead_pythia_ns,
            }
        })
        .collect();
    SimStepLadder { streams }
}

/// What the Table 5 hierarchy holds on the host at each core count in
/// `cores`, per level ([`Cache::host_bytes`]: tags, validity words, line
/// records, LRU stamps, SHiP table): the private levels once per core, then
/// the whole hierarchy. The bytes are allocated; a run makes resident the
/// pages its fills reach.
pub fn hierarchy_host_bytes(cores: &[usize]) -> String {
    let mut out = String::from(
        "| system | level | replacement | lines | KiB | B/line |\n\
         |---|---|---|---:|---:|---:|\n",
    );
    for &n in cores {
        let config = SystemConfig::with_cores(n);
        let mut total = 0;
        for (level, cfg, copies) in [
            ("L1D", config.l1d, n),
            ("L2", config.l2, n),
            ("LLC", config.llc, 1),
        ] {
            let cache = Cache::new(level, &cfg);
            let (bytes, lines) = (cache.host_bytes(), cache.capacity_lines());
            total += bytes * copies;
            out.push_str(&format!(
                "| {n}-core | {level} x{copies} | {:?} | {} | {:.1} | {:.2} |\n",
                cfg.replacement,
                lines * copies,
                (bytes * copies) as f64 / 1024.0,
                bytes as f64 / lines as f64,
            ));
        }
        out.push_str(&format!(
            "| {n}-core | hierarchy | | | {:.1} | |\n",
            total as f64 / 1024.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_bytes_table_names_every_level_at_each_core_count() {
        let table = hierarchy_host_bytes(&[1, 4]);
        for system in ["1-core", "4-core"] {
            for level in ["L1D", "L2", "LLC", "hierarchy"] {
                assert!(
                    table.contains(&format!("| {system} | {level}")),
                    "{system} {level}: {table}"
                );
            }
        }
        assert!(
            table.contains("| 4-core | L2 x4 | Lru | 16384 |"),
            "{table}"
        );
    }

    #[test]
    fn profile_covers_the_named_phases() {
        let ladder = profile_agent_step(0.01);
        let names: Vec<_> = ladder.rungs.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, AGENT_STEP_RUNGS);
        let total: f64 = ladder.rungs.iter().map(|(_, ns)| ns).sum();
        assert!((total - ladder.agent_ns).abs() < 1e-6 * ladder.agent_ns);
        assert!(ladder.rungs[0].1 > 0.0, "features: {:?}", ladder.rungs);
    }

    #[test]
    fn markdown_table_lists_every_section() {
        let table = profile_agent_step(0.01).to_markdown();
        assert!(table.starts_with("| rung | ns/step | share |"));
        for rung in AGENT_STEP_RUNGS {
            assert!(
                table.contains(&format!("| {rung} |")),
                "table missing {rung}"
            );
        }
    }

    #[test]
    fn sim_step_ladder_names_every_rung_and_sums_to_the_simulation() {
        let ladder = profile_sim_step(0.01);
        assert_eq!(ladder.streams.len(), fixtures::LADDER_WORKLOADS.len());
        let table = ladder.to_markdown();
        for s in &ladder.streams {
            let names: Vec<_> = s.rungs.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, SIM_STEP_RUNGS);
            let total: f64 = s.rungs.iter().map(|(_, ns)| ns).sum();
            assert!((total - s.e2e_pythia_ns).abs() < 1e-6 * s.e2e_pythia_ns);
            assert!(s.rungs[0].1 > 0.0 && s.e2e_none_ns > 0.0);
            for rung in SIM_STEP_RUNGS {
                assert!(table.contains(&format!("| {} | {rung} |", s.stream)));
            }
            assert!(s.read_ahead_pythia_ns > 0.0);
            assert!(table.contains(&format!("{}: `run_workload pythia` read ahead", s.stream)));
        }
    }
}
