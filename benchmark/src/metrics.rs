//! The names, units and directions of every metric the benchmark emits, and
//! the per-run [`Outcome`] that carries their values.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

use std::collections::BTreeMap;

use pythia_stats::json::Json;

use crate::stats::Summary;

/// `(name, unit, better, regress bound as a share of the parent's median)`.
/// The bounds are what `BENCHMARK.json` carries: three times the widest spread
/// seen over ten runs that each used *another seed* on this host, which is how
/// the benchmark's driver reads them (see the README, "Host noise").
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_minst_per_s", "Minst/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_speedup", "x", "higher", 0.15),
];

/// What two runs of the same code at the same seed must agree within, in
/// [`END_TO_END`] order (`run --selfcheck`): the figures of ISSUE 12, with
/// `sim_speedup` exact, because a simulation repeats exactly at one seed.
pub const SAME_CODE_BOUND: [f64; 5] = [0.10, 0.10, 0.10, 0.05, 0.0];

/// `(name, unit, better)`. A row a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 90] = [
    // pythia-workloads: on-the-fly trace generation.
    ("workloads.open_s", "s", "lower"),
    ("workloads.gen_records", "count", "lower"),
    ("workloads.gen_busy_s", "s", "lower"),
    ("workloads.gen_mrec_per_s", "Mrec/s", "higher"),
    ("workloads.gen_share", "share", "lower"),
    // pythia-sim::trace: file recording and decode.
    ("sim.trace.record_s", "s", "lower"),
    ("sim.trace.file_bytes", "B", "lower"),
    ("sim.trace.decode_records", "count", "lower"),
    ("sim.trace.decode_busy_s", "s", "lower"),
    ("sim.trace.decode_mrec_per_s", "Mrec/s", "higher"),
    ("sim.trace.decode_share", "share", "lower"),
    // pythia-sim::system: the simulator step itself (host time).
    ("sim.system.build_s", "s", "lower"),
    ("sim.system.run_s", "s", "lower"),
    ("sim.system.run_self_s", "s", "lower"),
    ("sim.system.self_share", "share", "lower"),
    ("sim.system.host_ns_per_inst", "ns", "lower"),
    ("sim.system.host_ns_per_cycle", "ns", "lower"),
    // Modelled components (simulated counts of one repetition; exact).
    ("sim.core.cycles", "count", "lower"),
    ("sim.core.ipc", "inst/cycle", "higher"),
    ("sim.l1d.accesses", "count", "lower"),
    ("sim.l1d.misses", "count", "lower"),
    ("sim.l2.accesses", "count", "lower"),
    ("sim.l2.misses", "count", "lower"),
    ("sim.l2.mshr_stall_cycles", "count", "lower"),
    ("sim.llc.accesses", "count", "lower"),
    ("sim.llc.misses", "count", "lower"),
    ("sim.llc.mpki", "1/kinst", "lower"),
    ("sim.dram.reads", "count", "lower"),
    ("sim.dram.row_hit_ratio", "ratio", "higher"),
    ("sim.dram.bus_busy_cycles", "count", "lower"),
    ("sim.dram.high_bw_fraction", "ratio", "lower"),
    // pythia-core: the RL agent behind the Prefetcher interface.
    ("core.agent.demand_calls", "count", "lower"),
    ("core.agent.fill_calls", "count", "lower"),
    ("core.agent.busy_s", "s", "lower"),
    ("core.agent.ns_per_call", "ns", "lower"),
    ("core.agent.share", "share", "lower"),
    // pythia-prefetchers: the registry baselines behind the same interface.
    ("prefetchers.demand_calls", "count", "lower"),
    ("prefetchers.busy_s", "s", "lower"),
    ("prefetchers.ns_per_call", "ns", "lower"),
    ("prefetchers.share", "share", "lower"),
    // Prefetch outcome: useful over attempts (simulated counts; exact).
    ("prefetch.issued", "count", "lower"),
    ("prefetch.redundant", "count", "lower"),
    ("prefetch.useful", "count", "higher"),
    ("prefetch.useless", "count", "lower"),
    ("prefetch.late", "count", "lower"),
    ("prefetch.accuracy", "ratio", "higher"),
    ("prefetch.coverage", "ratio", "higher"),
    ("prefetch.overprediction", "ratio", "lower"),
    // pythia-sweep: the campaign path, executed directly.
    ("sweep.codec.digest_us", "us", "lower"),
    ("sweep.engine.plan_us", "us", "lower"),
    ("sweep.engine.cell_run_us_p50", "us", "lower"),
    ("sweep.engine.merge_us", "us", "lower"),
    ("sweep.result.render_json_us", "us", "lower"),
    ("sweep.result.parse_json_us", "us", "lower"),
    ("sweep.store.store_us", "us", "lower"),
    ("sweep.store.load_us", "us", "lower"),
    ("sweep.direct_campaign_ms", "ms", "lower"),
    // pythia-stats::json.
    ("stats.json.render_mb_per_s", "MB/s", "higher"),
    ("stats.json.parse_mb_per_s", "MB/s", "higher"),
    // pythia-serve: client side (spans) and server side (GET /metrics).
    ("serve.cold_session_ms_p50", "ms", "lower"),
    ("serve.cold_session_ms_p95", "ms", "lower"),
    ("serve.hit_session_ms_p50", "ms", "lower"),
    ("serve.hit_session_ms_p99", "ms", "lower"),
    ("serve.etag304_ms_p50", "ms", "lower"),
    ("serve.client.submit_ms_p50", "ms", "lower"),
    ("serve.client.polls_per_cold", "count", "lower"),
    ("serve.client.result_ms_p50", "ms", "lower"),
    ("serve.http.requests", "count", "lower"),
    ("serve.http.conns_accepted", "count", "lower"),
    ("serve.http.route_submit_us_p50", "us", "lower"),
    ("serve.http.route_result_us_p50", "us", "lower"),
    ("serve.scheduler.cell_queue_wait_us_p50", "us", "lower"),
    ("serve.scheduler.cell_exec_us_p50", "us", "lower"),
    ("serve.scheduler.executed", "count", "lower"),
    ("serve.scheduler.cache_hits", "count", "higher"),
    ("serve.journal.fsync_count", "count", "lower"),
    ("serve.journal.fsync_us_p50", "us", "lower"),
    ("serve.store.stored", "count", "lower"),
    ("serve.store.hits", "count", "higher"),
    ("serve.overhead_share", "share", "lower"),
    // Host and harness: explains set-up time and run-to-run spread.
    ("host.slowdown", "x", "lower"),
    ("host.raw_rep_s", "s", "lower"),
    ("host.raw_setup_s", "s", "lower"),
    ("host.cpu_util", "share", "higher"),
    ("host.rep_iqr_over_median", "share", "lower"),
    ("setup.fixtures_s", "s", "lower"),
    ("setup.baseline_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("reps", "count", "higher"),
];

/// One reported value. `spread` is set for host-time medians.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

/// Per-layer values of one run, keyed by the names in [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not list: a typo must not become a
    /// silently missing metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let (known, _, _) = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unlisted per-layer metric {name:?}"));
        self.0
            .insert(known, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every listed metric in table order; unset ones read 0.
    pub fn rows(&self) -> Vec<Row> {
        self.rows_where(|_| true)
    }

    /// The metrics this run measured, in table order.
    pub fn set_rows(&self) -> Vec<Row> {
        self.rows_where(|name| self.0.contains_key(name))
    }

    fn rows_where(&self, keep: impl Fn(&str) -> bool) -> Vec<Row> {
        PER_LAYER
            .iter()
            .filter(|(name, _, _)| keep(name))
            .map(|&(name, unit, _)| Row {
                name,
                unit,
                value: self.get(name),
                spread: None,
            })
            .collect()
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation; `Err` carries why its output check failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Byte equality of an output against its reference, as an operation check.
pub fn same_bytes(what: &str, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{what}: differs from its reference at byte {at} ({} vs {} bytes)",
        expected.len(),
        got.len()
    ))
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub checks: Checks,
    /// FNV-1a digest of the first repetition's reports: reported, not pinned.
    pub report_digest: u64,
    pub end_to_end: Vec<Row>,
    pub layers: Layers,
    /// Wall seconds of every timed repetition, in run order: the raw sample
    /// behind the host-time medians, for anyone who doubts one.
    pub rep_s: Vec<f64>,
    /// Host slowdown around each of them (see `harness::Calibration`).
    pub slowdown: Vec<f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Process exit code: non-zero on any failed operation.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.checks.correct())
    }

    /// The contract's result line: end-to-end metrics of an untraced run,
    /// per-layer metrics of a traced one.
    pub fn result_line(&self) -> String {
        let rows = if self.traced {
            self.layers.rows()
        } else {
            self.end_to_end.clone()
        };
        let metrics: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.name,
                    json_num(r.value),
                    r.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// The full record (`--out FILE`): both metric groups with spreads, the
    /// digest, the raw samples and the notes.
    pub fn to_json(&self) -> String {
        let row = |r: &Row| {
            let j = Json::obj().set("value", r.value).set("unit", r.unit);
            match r.spread {
                Some(s) => j.set("q1", s.q1).set("q3", s.q3).set("n", s.n),
                None => j,
            }
        };
        let group = |rows: &[Row]| rows.iter().fold(Json::obj(), |j, r| j.set(r.name, row(r)));
        let numbers = |v: &[f64]| v.iter().map(|&x| Json::from(x)).collect::<Vec<_>>();
        let notes = self.notes.iter().chain(&self.checks.messages);
        Json::obj()
            .set("workload", self.workload)
            .set("seed", self.seed)
            .set("traced", self.traced)
            .set("correct", self.checks.correct())
            .set("attempted", self.checks.attempted)
            .set("failed", self.checks.failed)
            .set("report_digest", format!("{:016x}", self.report_digest))
            .set("end_to_end", group(&self.end_to_end))
            .set("per_layer", group(&self.layers.rows()))
            .set("rep_s", numbers(&self.rep_s))
            .set("slowdown", numbers(&self.slowdown))
            .set(
                "notes",
                notes.map(|n| Json::from(n.as_str())).collect::<Vec<_>>(),
            )
            .render_pretty()
    }

    /// The human-readable table: every metric by name, with its unit.
    pub fn print_table(&self) {
        println!("== {} (seed {}) ==", self.workload, self.seed);
        for r in &self.end_to_end {
            match r.spread {
                Some(s) => println!(
                    "  {:<42} {:>16.6} {:<10} q1 {:.6}  q3 {:.6}  n {}",
                    r.name, r.value, r.unit, s.q1, s.q3, s.n
                ),
                None => println!("  {:<42} {:>16.6} {}", r.name, r.value, r.unit),
            }
        }
        for r in self.layers.set_rows() {
            println!("  {:<42} {:>16.6} {}", r.name, r.value, r.unit);
        }
        println!("  {:<42} {:>16x}", "report_digest", self.report_digest);
        println!(
            "  operations: {} attempted, {} failed",
            self.checks.attempted, self.checks.failed
        );
        for note in self.notes.iter().chain(&self.checks.messages) {
            println!("  note: {note}");
        }
    }
}

#[cfg(test)]
impl Outcome {
    /// An outcome with every end-to-end value 1.5 and the given checks.
    pub fn for_test(traced: bool, checks: Checks) -> Self {
        let row = |&(name, unit, _, _): &(&'static str, &'static str, &str, f64)| Row {
            name,
            unit,
            value: 1.5,
            spread: None,
        };
        Self {
            workload: "sim1c_pythia_gen",
            seed: 1,
            traced,
            checks,
            report_digest: 0xabc,
            end_to_end: END_TO_END.iter().map(row).collect(),
            layers: Layers::default(),
            rep_s: vec![],
            slowdown: vec![],
            notes: vec![],
        }
    }
}

/// A finite number as JSON, with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_operation_fails_the_command() {
        let mut o = Outcome::for_test(false, Checks::default());
        o.checks.op(same_bytes("result", b"abc", b"abc"));
        assert_eq!(
            (o.checks.attempted, o.checks.failed, o.exit_code()),
            (1, 0, 0)
        );
        o.checks.op(same_bytes("result", b"abc", b"abd"));
        assert_eq!((o.checks.attempted, o.checks.failed), (2, 1));
        assert_ne!(o.exit_code(), 0);
        assert!(o
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(o.checks.messages[0].contains("at byte 2"));
    }

    #[test]
    fn result_line_carries_exactly_the_group_of_the_pass() {
        let line = Outcome::for_test(false, Checks::default()).result_line();
        for (name, _, _, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5")));
        }
        assert!(!line.contains("host.cpu_util"));
        let line = Outcome::for_test(true, Checks::default()).result_line();
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        assert!(!line.contains("\"setup_s\""));
    }

    #[test]
    #[should_panic(expected = "unlisted per-layer metric")]
    fn an_unlisted_layer_metric_is_refused() {
        Layers::default().set("sim.sytem.run_s", 1.0);
    }

    /// `BENCHMARK.json` and the tables above name the same metrics with the
    /// same units, directions and bounds.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = pythia_stats::json::parse(&text).expect("BENCHMARK.json parses");
        let field = |j: &pythia_stats::json::Json, key: &str| {
            j.get(key)
                .and_then(|v| v.as_str().map(str::to_string))
                .expect("string field")
        };
        let listed = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_arr().map(<[_]>::to_vec))
                .expect("array")
        };
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (name.into(), unit.into(), better.into())
            );
            assert_eq!(j.get("bound").and_then(|b| b.as_f64()), Some(bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (name.into(), unit.into(), better.into())
            );
        }
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(|s| s.as_f64()),
            Some(crate::RUN_SECONDS as f64)
        );
    }
}
