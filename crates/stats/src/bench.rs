//! Microbenchmark report artifacts: the typed result of a `pythia-perf`
//! run, its `BENCH_micro.json` emitter/parser (the same hand-rolled
//! [`Json`] schema family the sweep engine's `BENCH_*.json` artifacts
//! use), and the same-host A/B table behind `pythia-cli bench --compare`.
//!
//! This is the microscope, not the gate: a report holds absolute
//! nanoseconds of one host, so two reports compare only when they ran at
//! the same scale on the same host ([`BenchReport::compare_table`]
//! refuses anything else). The performance gate is
//! `scripts/bench_ab.py`, which runs the repo benchmark on parent and
//! head side by side.

use crate::json::Json;
use crate::report::Table;

/// Statistics of one named microbenchmark: repetition timings reduced to
/// median and MAD (median absolute deviation — robust to the stray slow
/// repetition a loaded machine produces).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeasurement {
    /// Benchmark name (e.g. `"agent_step"`).
    pub name: String,
    /// Work-unit label (`"inst"`, `"ops"`, `"records"`).
    pub unit: String,
    /// Work units processed per repetition.
    pub units_per_rep: u64,
    /// Measured repetitions.
    pub reps: u32,
    /// Median wall time of one repetition, in nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the repetition times, in nanoseconds.
    pub mad_ns: f64,
}

impl BenchMeasurement {
    /// Reduces raw repetition timings (nanoseconds) to a measurement.
    ///
    /// # Panics
    ///
    /// Panics if `times_ns` is empty.
    pub fn from_times(name: &str, unit: &str, units_per_rep: u64, times_ns: &[f64]) -> Self {
        assert!(!times_ns.is_empty(), "need at least one repetition");
        let med = median(times_ns);
        let deviations: Vec<f64> = times_ns.iter().map(|t| (t - med).abs()).collect();
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            units_per_rep,
            reps: times_ns.len() as u32,
            median_ns: med,
            mad_ns: median(&deviations),
        }
    }

    /// Work units per second at the median repetition time.
    pub fn units_per_sec(&self) -> f64 {
        if self.median_ns <= 0.0 {
            0.0
        } else {
            self.units_per_rep as f64 * 1e9 / self.median_ns
        }
    }

    /// Nanoseconds per work unit at the median repetition time.
    pub fn ns_per_unit(&self) -> f64 {
        if self.units_per_rep == 0 {
            0.0
        } else {
            self.median_ns / self.units_per_rep as f64
        }
    }

    fn json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("unit", self.unit.as_str())
            .set("units_per_rep", self.units_per_rep)
            .set("reps", u64::from(self.reps))
            .set("median_ns", self.median_ns)
            .set("mad_ns", self.mad_ns)
            .set("units_per_sec", self.units_per_sec())
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            name: v.str_field("name")?.to_string(),
            unit: v.str_field("unit")?.to_string(),
            units_per_rep: v.f64_field("units_per_rep")? as u64,
            reps: v.f64_field("reps")? as u32,
            median_ns: v.f64_field("median_ns")?,
            mad_ns: v.f64_field("mad_ns")?,
        })
    }
}

/// Host provenance stamped into a report: wall-clock numbers are
/// host-sensitive, so two reports stamped by different machines do not
/// compare. `None` on reports written before the field existed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchHost {
    /// Machine hostname.
    pub hostname: String,
    /// CPU feature label (e.g. `"sse4.2+avx+avx2+fma"`) — dispatch
    /// decisions like the AVX2 argmax depend on it.
    pub cpu_features: String,
}

/// A full microbenchmark report — what `BENCH_micro.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report name (`"micro"`).
    pub name: String,
    /// The `PYTHIA_BENCH_SCALE` the fixtures ran at (measurements taken at
    /// different scales are not comparable).
    pub scale: f64,
    /// Provenance of the machine that produced the numbers (`None` on
    /// pre-provenance reports).
    pub host: Option<BenchHost>,
    /// One entry per benchmark, in registry order.
    pub benchmarks: Vec<BenchMeasurement>,
}

impl BenchReport {
    /// Serializes the report (the `BENCH_micro.json` schema).
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj()
            .set("name", self.name.as_str())
            .set("scale", self.scale);
        if let Some(host) = &self.host {
            out = out.set(
                "host",
                Json::obj()
                    .set("hostname", host.hostname.as_str())
                    .set("cpu_features", host.cpu_features.as_str()),
            );
        }
        out.set(
            "benchmarks",
            Json::Arr(self.benchmarks.iter().map(BenchMeasurement::json).collect()),
        )
    }

    /// Parses a report emitted by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let name = v.str_field("name")?.to_string();
        let scale = v.f64_field("scale")?;
        // Optional: reports written before host provenance existed parse
        // to `host: None`.
        let host = v.get("host").map(|h| BenchHost {
            hostname: h
                .get("hostname")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            cpu_features: h
                .get("cpu_features")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        });
        let benchmarks = v
            .arr_field("benchmarks")?
            .iter()
            .map(BenchMeasurement::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            name,
            scale,
            host,
            benchmarks,
        })
    }

    /// Renders the human-readable results table.
    pub fn to_markdown(&self) -> String {
        let mut t = Table::new(&["benchmark", "unit", "median", "mad", "throughput"]);
        for b in &self.benchmarks {
            t.row(&[
                b.name.clone(),
                b.unit.clone(),
                format_ns(b.median_ns),
                format_ns(b.mad_ns),
                format!("{:.2} M{}/s", b.units_per_sec() / 1e6, b.unit),
            ]);
        }
        t.to_markdown()
    }

    /// Renders the per-benchmark delta table of `self` (the "new" report)
    /// against `baseline` (the "old" one) — median, MAD, and the
    /// throughput ratio new/old, where `> 1.00x` means faster. Benchmarks
    /// present on only one side are listed with `-` on the missing side so
    /// additions and retirements stay visible.
    ///
    /// # Errors
    ///
    /// Returns an error if the two reports ran at different
    /// `PYTHIA_BENCH_SCALE`s or were stamped by different hosts: their
    /// numbers are not comparable. A report without a host stamp
    /// compares with anything.
    pub fn compare_table(&self, baseline: &Self) -> Result<String, String> {
        self.check_comparable(baseline)?;
        let mut t = Table::new(&[
            "benchmark",
            "median old",
            "median new",
            "mad old",
            "mad new",
            "ratio",
        ]);
        let missing = || "-".to_string();
        for base in &baseline.benchmarks {
            let row = match self.benchmarks.iter().find(|x| x.name == base.name) {
                Some(cur) => {
                    let (old, new) = (base.units_per_sec(), cur.units_per_sec());
                    let ratio = if old > 0.0 {
                        format!("{:.2}x", new / old)
                    } else {
                        missing()
                    };
                    [
                        base.name.clone(),
                        format_ns(base.median_ns),
                        format_ns(cur.median_ns),
                        format_ns(base.mad_ns),
                        format_ns(cur.mad_ns),
                        ratio,
                    ]
                }
                None => [
                    base.name.clone(),
                    format_ns(base.median_ns),
                    missing(),
                    format_ns(base.mad_ns),
                    missing(),
                    missing(),
                ],
            };
            t.row(&row);
        }
        for cur in &self.benchmarks {
            if baseline.benchmarks.iter().any(|x| x.name == cur.name) {
                continue;
            }
            t.row(&[
                cur.name.clone(),
                missing(),
                format_ns(cur.median_ns),
                missing(),
                format_ns(cur.mad_ns),
                missing(),
            ]);
        }
        Ok(t.to_markdown())
    }

    fn check_comparable(&self, baseline: &Self) -> Result<(), String> {
        if (self.scale - baseline.scale).abs() > 1e-12 {
            return Err(format!(
                "scale mismatch: current report ran at {} but baseline at {}",
                self.scale, baseline.scale
            ));
        }
        match (&self.host, &baseline.host) {
            (Some(cur), Some(base)) if cur != base => Err(format!(
                "host mismatch: current report from {} [{}] but baseline from {} [{}]; \
                 wall-clock numbers are not comparable across hosts",
                cur.hostname, cur.cpu_features, base.hostname, base.cpu_features
            )),
            _ => Ok(()),
        }
    }
}

/// Median of a non-empty slice.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[sorted.len() / 2]
}

/// Human-scale duration formatting for the markdown table.
fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(name: &str, median_ns: f64) -> BenchMeasurement {
        BenchMeasurement::from_times(name, "ops", 1_000, &[median_ns, median_ns * 1.1])
    }

    #[test]
    fn from_times_reduces_to_median_and_mad() {
        let m = BenchMeasurement::from_times("x", "ops", 100, &[10.0, 30.0, 20.0]);
        assert_eq!(m.median_ns, 20.0);
        assert_eq!(m.mad_ns, 10.0);
        assert_eq!(m.reps, 3);
        assert!((m.units_per_sec() - 100.0 * 1e9 / 20.0).abs() < 1e-6);
        assert!((m.ns_per_unit() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let report = BenchReport {
            name: "micro".into(),
            host: None,
            scale: 0.5,
            benchmarks: vec![measurement("a", 500.0), measurement("b", 900.0)],
        };
        let text = report.to_json().render_pretty();
        let parsed =
            BenchReport::from_json(&crate::json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(parsed, report);
    }

    #[test]
    fn host_provenance_roundtrips_and_detects_mismatch() {
        let stamped = |hostname: &str| BenchReport {
            name: "micro".into(),
            scale: 1.0,
            host: Some(BenchHost {
                hostname: hostname.into(),
                cpu_features: "avx2+fma".into(),
            }),
            benchmarks: vec![measurement("a", 100.0)],
        };
        let report = stamped("ci-runner");
        let text = report.to_json().render_pretty();
        let parsed =
            BenchReport::from_json(&crate::json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(parsed, report);

        // Same host: compared. Different host: refused, naming both.
        assert!(report.compare_table(&stamped("ci-runner")).is_ok());
        let refusal = report
            .compare_table(&stamped("laptop"))
            .expect_err("hosts differ");
        assert!(refusal.contains("host mismatch"), "{refusal}");
        assert!(refusal.contains("ci-runner") && refusal.contains("laptop"));

        // A report without a stamp compares with anything.
        let legacy = BenchReport {
            host: None,
            ..stamped("ci-runner")
        };
        assert!(report.compare_table(&legacy).is_ok());
        assert!(legacy.compare_table(&report).is_ok());
    }

    #[test]
    fn compare_table_shows_deltas_and_one_sided_benchmarks() {
        let base = BenchReport {
            name: "micro".into(),
            host: None,
            scale: 1.0,
            benchmarks: vec![measurement("a", 200.0), measurement("retired", 50.0)],
        };
        let current = BenchReport {
            name: "micro".into(),
            host: None,
            scale: 1.0,
            benchmarks: vec![measurement("a", 100.0), measurement("added", 70.0)],
        };
        let table = current.compare_table(&base).expect("comparable");
        // `a` doubled in throughput (200 ns -> 100 ns median).
        assert!(table.contains("2.00x"), "ratio missing from:\n{table}");
        assert!(table.contains("retired"));
        assert!(table.contains("added"));
        assert!(table.contains('-'), "one-sided rows use - placeholders");

        let mismatched = BenchReport {
            scale: 0.5,
            ..current.clone()
        };
        assert!(mismatched.compare_table(&base).is_err());
    }

    #[test]
    fn compare_rejects_scale_mismatch() {
        let base = BenchReport {
            name: "micro".into(),
            host: None,
            scale: 1.0,
            benchmarks: vec![],
        };
        let current = BenchReport {
            name: "micro".into(),
            host: None,
            scale: 0.1,
            benchmarks: vec![],
        };
        let refusal = current.compare_table(&base).expect_err("scales differ");
        assert!(refusal.contains("scale mismatch"), "{refusal}");
    }

    #[test]
    fn markdown_lists_every_benchmark() {
        let report = BenchReport {
            name: "micro".into(),
            host: None,
            scale: 1.0,
            benchmarks: vec![BenchMeasurement::from_times(
                "agent_step",
                "ops",
                10,
                &[123.0],
            )],
        };
        let md = report.to_markdown();
        assert!(md.contains("agent_step"));
        assert!(md.contains("123 ns"));
    }
}
