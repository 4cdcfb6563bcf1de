//! Aggregation combinators: the shared geomean / pivot / weighted-coverage
//! logic the figure views in `pythia-bench` are built from.

use pythia_stats::metrics::geomean;
use pythia_stats::report::Table;

use crate::result::{CellResult, SweepResult};

/// A cell coordinate usable as an aggregation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// The owning sweep (panel) name.
    Sweep,
    /// The work-unit label (workload / mix name).
    Unit,
    /// The work-unit group (suite or category).
    Group,
    /// The prefetcher label.
    Prefetcher,
    /// The configuration-point label.
    Config,
    /// The seed offset.
    Seed,
}

impl Key {
    /// The value of this key for one cell.
    pub fn of<'a>(&self, cell: &'a CellResult) -> std::borrow::Cow<'a, str> {
        use std::borrow::Cow;
        match self {
            Key::Sweep => Cow::Borrowed(cell.sweep.as_str()),
            Key::Unit => Cow::Borrowed(cell.unit.as_str()),
            Key::Group => Cow::Borrowed(cell.group.as_str()),
            Key::Prefetcher => Cow::Borrowed(cell.prefetcher.as_str()),
            Key::Config => Cow::Borrowed(cell.config.as_str()),
            Key::Seed => Cow::Owned(cell.seed.to_string()),
        }
    }

    /// The column header used for this key in pivot tables.
    pub fn header(&self) -> &'static str {
        match self {
            Key::Sweep => "sweep",
            Key::Unit => "workload",
            Key::Group => "suite",
            Key::Prefetcher => "prefetcher",
            Key::Config => "config",
            Key::Seed => "seed",
        }
    }
}

/// A metric extractable from a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// IPC speedup over the baseline.
    Speedup,
    /// Prefetch coverage.
    Coverage,
    /// Overprediction.
    Overprediction,
    /// Prefetcher accuracy.
    Accuracy,
    /// Absolute geomean IPC of the cell's run.
    Ipc,
}

impl Value {
    /// Extracts this metric from one cell.
    pub fn of(&self, cell: &CellResult) -> f64 {
        match self {
            Value::Speedup => cell.metrics.speedup,
            Value::Coverage => cell.metrics.coverage,
            Value::Overprediction => cell.metrics.overprediction,
            Value::Accuracy => cell.metrics.accuracy,
            Value::Ipc => cell.metrics.ipc,
        }
    }
}

/// First-appearance-ordered distinct values of a key (keeps spec order,
/// unlike a sorted set).
fn distinct(cells: &[CellResult], key: Key) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for c in cells {
        let v = key.of(c);
        if !out.iter().any(|x| x.as_str() == v.as_ref()) {
            out.push(v.into_owned());
        }
    }
    out
}

impl SweepResult {
    /// First-appearance-ordered distinct values of a key over the measured
    /// cells (i.e. spec order — the row/column order of [`SweepResult::pivot`]).
    pub fn distinct(&self, key: Key) -> Vec<String> {
        distinct(&self.cells, key)
    }

    /// Restricts the result to cells (and baselines) matching a predicate.
    pub fn filter(&self, keep: impl Fn(&CellResult) -> bool) -> SweepResult {
        SweepResult {
            name: self.name.clone(),
            baselines: self.baselines.iter().filter(|c| keep(c)).cloned().collect(),
            cells: self.cells.iter().filter(|c| keep(c)).cloned().collect(),
            // The whole-run wall-clock telemetry does not describe the
            // restricted subset; carrying it over would overstate the
            // subset's throughput (and double-count under merge).
            throughput: None,
        }
    }

    /// Geometric mean of `value` for every distinct value of `key`, in
    /// first-appearance order — the Fig. 9(b)-style one-axis aggregation.
    pub fn aggregate(&self, key: Key, value: Value) -> Vec<(String, f64)> {
        distinct(&self.cells, key)
            .into_iter()
            .map(|k| {
                let vs: Vec<f64> = self
                    .cells
                    .iter()
                    .filter(|c| key.of(c) == k.as_str())
                    .map(|c| value.of(c))
                    .collect();
                (k, geomean(&vs))
            })
            .collect()
    }

    /// Pivot table: one row per distinct `row` key, one column per distinct
    /// `col` key, each cell the geomean of `value` over matching cells.
    /// Row/column order follows first appearance (i.e. spec order).
    pub fn pivot(&self, row: Key, col: Key, value: Value) -> Table {
        self.pivot_with_total(row, col, value, None)
    }

    /// [`SweepResult::pivot`] plus an optional final row aggregating every
    /// cell per column (the `GEOMEAN` row of Figs. 9/10/12).
    pub fn pivot_with_total(
        &self,
        row: Key,
        col: Key,
        value: Value,
        total_label: Option<&str>,
    ) -> Table {
        let rows = distinct(&self.cells, row);
        let cols = distinct(&self.cells, col);
        let mut headers = vec![row.header()];
        headers.extend(cols.iter().map(String::as_str));
        let mut t = Table::new(&headers);
        let geo_for = |rk: Option<&str>, ck: &str| -> f64 {
            let vs: Vec<f64> = self
                .cells
                .iter()
                .filter(|c| col.of(c) == ck && rk.is_none_or(|rk| row.of(c) == rk))
                .map(|c| value.of(c))
                .collect();
            geomean(&vs)
        };
        for rk in &rows {
            let mut cells_out = vec![rk.clone()];
            for ck in &cols {
                cells_out.push(format!("{:.3}", geo_for(Some(rk), ck)));
            }
            t.row(&cells_out);
        }
        if let Some(label) = total_label {
            let mut cells_out = vec![label.to_string()];
            for ck in &cols {
                cells_out.push(format!("{:.3}", geo_for(None, ck)));
            }
            t.row(&cells_out);
        }
        t
    }

    /// Robustness scoreboard: one row per prefetcher, scoring every
    /// non-reference group as the delta of its speedup / coverage /
    /// overprediction geomeans against the `reference` group (the
    /// `robust01`–`robust03` aggregation; reference is normally the
    /// `expected` profile). A robust prefetcher keeps speedup and coverage
    /// deltas near zero on hostile groups without an overprediction blowup;
    /// a fragile one shows large negative speedup/coverage deltas or a
    /// large positive overprediction delta.
    pub fn robustness(&self, reference: &str) -> Table {
        let groups: Vec<String> = distinct(&self.cells, Key::Group)
            .into_iter()
            .filter(|g| g != reference)
            .collect();
        let metrics = [
            ("speedup", Value::Speedup),
            ("coverage", Value::Coverage),
            ("overpred", Value::Overprediction),
        ];
        let mut headers: Vec<String> = vec!["prefetcher".into()];
        for (name, _) in &metrics {
            headers.push(format!("{name}@{reference}"));
            for g in &groups {
                headers.push(format!("Δ{name}@{g}"));
            }
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(&header_refs);
        let geo_for = |pf: &str, group: &str, value: Value| -> f64 {
            let vs: Vec<f64> = self
                .cells
                .iter()
                .filter(|c| c.prefetcher == pf && c.group == group)
                .map(|c| value.of(c))
                .collect();
            geomean(&vs)
        };
        for pf in distinct(&self.cells, Key::Prefetcher) {
            let mut row = vec![pf.clone()];
            for (_, value) in &metrics {
                let base = geo_for(&pf, reference, *value);
                row.push(format!("{base:.3}"));
                for g in &groups {
                    row.push(format!("{:+.3}", geo_for(&pf, g, *value) - base));
                }
            }
            t.row(&row);
        }
        t
    }

    /// Baseline-MPKI-weighted average coverage and overprediction of one
    /// prefetcher across the result's cells (the Fig. 7 aggregation:
    /// baseline MPKI proxies the baseline miss count each workload
    /// contributes).
    pub fn weighted_coverage(&self, prefetcher: &str) -> (f64, f64) {
        let mut cov_num = 0.0;
        let mut over_num = 0.0;
        let mut denom = 0.0;
        for c in self.cells.iter().filter(|c| c.prefetcher == prefetcher) {
            let w = c.metrics.baseline_mpki;
            cov_num += c.metrics.coverage * w;
            over_num += c.metrics.overprediction * w;
            denom += w;
        }
        if denom == 0.0 {
            (0.0, 0.0)
        } else {
            (cov_num / denom, over_num / denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::RawSummary;
    use pythia_stats::metrics::Metrics;

    fn cell(unit: &str, group: &str, pf: &str, speedup: f64, mpki: f64, cov: f64) -> CellResult {
        CellResult {
            sweep: "t".into(),
            unit: unit.into(),
            group: group.into(),
            prefetcher: pf.into(),
            config: "base".into(),
            seed: 0,
            metrics: Metrics {
                speedup,
                coverage: cov,
                overprediction: 0.1,
                ipc: 1.0,
                baseline_mpki: mpki,
                accuracy: 0.9,
            },
            raw: RawSummary {
                ipc: 1.0,
                llc_mpki: mpki,
                prefetches_issued: 0,
                bw_bucket_windows: [0; 4],
            },
        }
    }

    fn result() -> SweepResult {
        SweepResult {
            name: "t".into(),
            baselines: vec![],
            cells: vec![
                cell("w1", "A", "spp", 2.0, 10.0, 0.8),
                cell("w1", "A", "pythia", 4.0, 10.0, 0.9),
                cell("w2", "B", "spp", 8.0, 30.0, 0.4),
                cell("w2", "B", "pythia", 16.0, 30.0, 0.5),
            ],
            throughput: None,
        }
    }

    #[test]
    fn aggregate_takes_geomeans_in_spec_order() {
        let agg = result().aggregate(Key::Prefetcher, Value::Speedup);
        assert_eq!(agg[0].0, "spp");
        assert!((agg[0].1 - 4.0).abs() < 1e-12, "geomean(2, 8) = 4");
        assert!((agg[1].1 - 8.0).abs() < 1e-12, "geomean(4, 16) = 8");
    }

    #[test]
    fn pivot_groups_rows_and_columns() {
        let t = result().pivot(Key::Group, Key::Prefetcher, Value::Speedup);
        let md = t.to_markdown();
        assert!(md.starts_with("| suite"));
        assert!(md.contains("| A"));
        assert!(md.contains("2.000"));
        assert!(md.contains("16.000"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pivot_total_row_aggregates_everything() {
        let t = result().pivot_with_total(Key::Group, Key::Prefetcher, Value::Speedup, Some("GEO"));
        assert_eq!(t.len(), 3);
        let md = t.to_markdown();
        assert!(md.contains("GEO"));
        assert!(md.contains("4.000"), "geomean(2, 8) over all spp cells");
    }

    #[test]
    fn weighted_coverage_weights_by_baseline_mpki() {
        let (cov, over) = result().weighted_coverage("spp");
        // (0.8*10 + 0.4*30) / 40 = 0.5
        assert!((cov - 0.5).abs() < 1e-12);
        assert!((over - 0.1).abs() < 1e-12);
    }

    #[test]
    fn robustness_scores_deltas_vs_reference_group() {
        let t = result().robustness("A");
        let md = t.to_markdown();
        assert!(md.contains("speedup@A"));
        assert!(md.contains("Δspeedup@B"));
        // spp: speedup geomean 2.0 on A, 8.0 on B -> delta +6.0.
        assert!(md.contains("2.000"));
        assert!(md.contains("+6.000"));
        // pythia: 4.0 on A, 16.0 on B -> delta +12.0.
        assert!(md.contains("+12.000"));
        assert_eq!(t.len(), 2, "one row per prefetcher");
    }

    #[test]
    fn filter_restricts_cells() {
        let only_a = result().filter(|c| c.group == "A");
        assert_eq!(only_a.cells.len(), 2);
        let agg = only_a.aggregate(Key::Prefetcher, Value::Coverage);
        assert!((agg[0].1 - 0.8).abs() < 1e-12);
    }
}
