//! What a microbenchmark run reduces to: repetition timings as median and
//! MAD, and the markdown table `pythia-cli bench` prints.
//!
//! The numbers are absolute nanoseconds of the host they ran on, so they
//! are read, not saved: comparing two commits is `scripts/bench_ab.py`'s
//! job, on one host with the runs interleaved.

use pythia_stats::Table;

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
}

/// Renders the results table, one row per measurement in the order given.
pub fn to_markdown(benchmarks: &[BenchMeasurement]) -> String {
    let mut t = Table::new(&["benchmark", "unit", "median", "mad", "throughput"]);
    for b in benchmarks {
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

    #[test]
    fn from_times_reduces_to_median_and_mad() {
        let m = BenchMeasurement::from_times("x", "ops", 100, &[10.0, 30.0, 20.0]);
        assert_eq!(m.median_ns, 20.0);
        assert_eq!(m.mad_ns, 10.0);
        assert_eq!(m.reps, 3);
        assert!((m.units_per_sec() - 100.0 * 1e9 / 20.0).abs() < 1e-6);
    }

    #[test]
    fn markdown_lists_every_benchmark() {
        let md = to_markdown(&[BenchMeasurement::from_times(
            "agent_step",
            "ops",
            10,
            &[123.0],
        )]);
        assert!(md.contains("agent_step"));
        assert!(md.contains("123 ns"));
    }
}
