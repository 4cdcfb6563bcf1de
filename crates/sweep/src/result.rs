//! Typed sweep artifacts: [`CellResult`] / [`SweepResult`] and the
//! markdown / JSON / CSV emitters.

use pythia_sim::stats::{SimReport, Throughput};
use pythia_stats::json::{metrics_json, u64_json, u64_value, Json};
use pythia_stats::metrics::Metrics;
use pythia_stats::report::Table;

/// A small raw-counter summary kept per cell (and per baseline), for
/// figures that need more than the Appendix A.6 ratios — e.g. the Fig. 14
/// bandwidth-bucket residency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawSummary {
    /// Geometric-mean IPC across cores.
    pub ipc: f64,
    /// LLC demand-load MPKI.
    pub llc_mpki: f64,
    /// Prefetches issued across cores.
    pub prefetches_issued: u64,
    /// DRAM bandwidth-utilization bucket residency (Fig. 14 windows).
    pub bw_bucket_windows: [u64; 4],
}

impl RawSummary {
    /// Extracts the summary from a full report.
    pub fn of(report: &SimReport) -> Self {
        Self {
            ipc: report.geomean_ipc(),
            llc_mpki: report.llc_mpki(),
            prefetches_issued: report.prefetches_issued(),
            bw_bucket_windows: report.dram.bw_bucket_windows,
        }
    }
}

/// The result of one grid cell: its coordinates plus the derived metrics
/// against the sweep's baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Name of the sweep this cell belongs to (distinguishes the panels
    /// of a multi-panel campaign).
    pub sweep: String,
    /// Work-unit label (workload or mix name).
    pub unit: String,
    /// Work-unit group (suite label or category).
    pub group: String,
    /// Prefetcher label.
    pub prefetcher: String,
    /// Configuration-point label.
    pub config: String,
    /// Seed offset of the replication axis.
    pub seed: u64,
    /// Appendix A.6 metrics vs. the sweep baseline.
    pub metrics: Metrics,
    /// Raw-counter summary of this cell's own run.
    pub raw: RawSummary,
}

impl CellResult {
    fn json(&self) -> Json {
        Json::obj()
            .set("sweep", self.sweep.as_str())
            .set("unit", self.unit.as_str())
            .set("group", self.group.as_str())
            .set("prefetcher", self.prefetcher.as_str())
            .set("config", self.config.as_str())
            // Seeds share the canonical codec's lossless u64 encoding
            // (decimal string beyond 2^53), unchanged for ordinary seeds.
            .set("seed", u64_json(self.seed))
            .set("metrics", metrics_json(&self.metrics))
            .set(
                "raw",
                Json::obj()
                    .set("ipc", self.raw.ipc)
                    .set("llc_mpki", self.raw.llc_mpki)
                    .set("prefetches_issued", self.raw.prefetches_issued)
                    .set(
                        "bw_bucket_windows",
                        Json::Arr(
                            self.raw
                                .bw_bucket_windows
                                .iter()
                                .map(|w| (*w).into())
                                .collect(),
                        ),
                    ),
            )
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let str_of = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell: missing string {key:?}"))
        };
        let metrics = j.get("metrics").ok_or("cell: missing metrics")?;
        let mf = |key: &str| -> Result<f64, String> {
            metrics
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell metrics: missing {key:?}"))
        };
        let raw = j.get("raw").ok_or("cell: missing raw")?;
        let rf = |key: &str| -> Result<f64, String> {
            raw.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell raw: missing {key:?}"))
        };
        let buckets = raw
            .get("bw_bucket_windows")
            .and_then(Json::as_arr)
            .ok_or("cell raw: missing bw_bucket_windows")?;
        if buckets.len() != 4 {
            return Err("cell raw: bw_bucket_windows must have 4 entries".into());
        }
        let mut bw_bucket_windows = [0u64; 4];
        for (slot, b) in bw_bucket_windows.iter_mut().zip(buckets) {
            *slot = b.as_u64().ok_or("cell raw: bad bucket value")?;
        }
        Ok(Self {
            sweep: str_of("sweep")?,
            unit: str_of("unit")?,
            group: str_of("group")?,
            prefetcher: str_of("prefetcher")?,
            config: str_of("config")?,
            seed: u64_value(j.get("seed").ok_or("cell: missing seed")?)
                .map_err(|e| format!("cell seed: {e}"))?,
            metrics: Metrics {
                speedup: mf("speedup")?,
                coverage: mf("coverage")?,
                overprediction: mf("overprediction")?,
                ipc: mf("ipc")?,
                baseline_mpki: mf("baseline_mpki")?,
                accuracy: mf("accuracy")?,
            },
            raw: RawSummary {
                ipc: rf("ipc")?,
                llc_mpki: rf("llc_mpki")?,
                prefetches_issued: raw
                    .get("prefetches_issued")
                    .and_then(Json::as_u64)
                    .ok_or("cell raw: missing prefetches_issued")?,
                bw_bucket_windows,
            },
        })
    }

    fn table_row(&self) -> Vec<String> {
        vec![
            self.sweep.clone(),
            self.unit.clone(),
            self.group.clone(),
            self.prefetcher.clone(),
            self.config.clone(),
            self.seed.to_string(),
            format!("{:.6}", self.metrics.speedup),
            format!("{:.6}", self.metrics.ipc),
            format!("{:.6}", self.metrics.coverage),
            format!("{:.6}", self.metrics.overprediction),
            format!("{:.6}", self.metrics.accuracy),
            format!("{:.6}", self.metrics.baseline_mpki),
        ]
    }
}

/// Column headers of the long-format table emitted by
/// [`SweepResult::long_table`] (shared by the markdown and CSV formats).
pub const LONG_HEADERS: [&str; 12] = [
    "sweep",
    "unit",
    "group",
    "prefetcher",
    "config",
    "seed",
    "speedup",
    "ipc",
    "coverage",
    "overprediction",
    "accuracy",
    "baseline_mpki",
];

/// The full, typed result of one sweep (or of several merged panels):
/// baseline rows first, then every measured cell in deterministic grid
/// order — independent of how many worker threads executed the grid.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Sweep (campaign) name.
    pub name: String,
    /// Baseline runs, one per (unit × config × seed). Their metrics are
    /// self-comparisons (speedup 1.0); their [`RawSummary`] carries the raw
    /// counters figures like Fig. 14 read.
    pub baselines: Vec<CellResult>,
    /// Measured cells, in grid order (unit-major, then config, then
    /// prefetcher, then seed).
    pub cells: Vec<CellResult>,
    /// Wall-clock throughput of the simulations freshly executed for this
    /// result (None for hand-built results). Telemetry only: excluded
    /// from equality — wall time varies run to run while the cells are
    /// bit-deterministic.
    pub throughput: Option<Throughput>,
}

/// Equality covers the deterministic payload (name, baselines, cells);
/// the wall-clock [`SweepResult::throughput`] telemetry is excluded so
/// the engine's parallel == serial guarantee stays byte-exact.
impl PartialEq for SweepResult {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.baselines == other.baselines && self.cells == other.cells
    }
}

impl SweepResult {
    /// The long-format table (baseline rows first, then cells).
    pub fn long_table(&self) -> Table {
        let mut t = Table::new(&LONG_HEADERS);
        for c in self.baselines.iter().chain(&self.cells) {
            t.row(&c.table_row());
        }
        t
    }

    /// Renders the long-format table as markdown, with a throughput
    /// footer when telemetry is present.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "# sweep {}\n\n{}",
            self.name,
            self.long_table().to_markdown()
        );
        if let Some(t) = self.throughput {
            out.push_str(&format!(
                "\nthroughput: {:.2} Minst/s ({} simulated instructions in {:.2} s wall)\n",
                t.minst_per_sec(),
                t.instructions,
                t.wall_seconds
            ));
        }
        out
    }

    /// Renders the long-format table as CSV.
    pub fn to_csv(&self) -> String {
        self.long_table().to_csv()
    }

    /// Serializes the whole result as JSON — the `BENCH_*.json` data
    /// source. Numbers are emitted exactly (shortest round-trippable form).
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj()
            .set("name", self.name.as_str())
            .set(
                "baselines",
                Json::Arr(self.baselines.iter().map(CellResult::json).collect()),
            )
            .set(
                "cells",
                Json::Arr(self.cells.iter().map(CellResult::json).collect()),
            );
        if let Some(t) = self.throughput {
            out = out.set(
                "throughput",
                Json::obj()
                    .set("instructions", t.instructions)
                    .set("wall_seconds", t.wall_seconds)
                    .set("minst_per_sec", t.minst_per_sec()),
            );
        }
        out
    }

    /// Drops the wall-clock [`SweepResult::throughput`] telemetry, leaving
    /// only the deterministic payload — the form the content-addressed
    /// result store persists and the service serves.
    pub fn stripped(mut self) -> Self {
        self.throughput = None;
        self
    }

    /// Decodes a result from the JSON produced by [`SweepResult::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed key.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let cells_of = |key: &str| -> Result<Vec<CellResult>, String> {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array {key:?}"))?
                .iter()
                .map(CellResult::from_json)
                .collect()
        };
        let throughput = match j.get("throughput") {
            None => None,
            Some(t) => Some(Throughput::new(
                t.get("instructions")
                    .and_then(Json::as_u64)
                    .ok_or("throughput: missing instructions")?,
                t.get("wall_seconds")
                    .and_then(Json::as_f64)
                    .ok_or("throughput: missing wall_seconds")?,
            )),
        };
        Ok(Self {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("missing name")?
                .to_string(),
            baselines: cells_of("baselines")?,
            cells: cells_of("cells")?,
            throughput,
        })
    }

    /// Renders in the named format: `"md"`, `"json"` or `"csv"`.
    ///
    /// # Errors
    ///
    /// Returns an error naming the unknown format.
    pub fn render(&self, format: &str) -> Result<String, String> {
        match format {
            "md" | "markdown" => Ok(self.to_markdown()),
            "json" => Ok(self.to_json().render_pretty()),
            "csv" => Ok(self.to_csv()),
            other => Err(format!("unknown format {other:?} (want md, json or csv)")),
        }
    }

    /// The baseline row for a given (unit, config, seed) coordinate.
    pub fn baseline_of(&self, unit: &str, config: &str, seed: u64) -> Option<&CellResult> {
        self.baselines
            .iter()
            .find(|b| b.unit == unit && b.config == config && b.seed == seed)
    }

    /// The measured cell at a given (unit, prefetcher, config) coordinate
    /// (first seed wins).
    pub fn cell(&self, unit: &str, prefetcher: &str, config: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.unit == unit && c.prefetcher == prefetcher && c.config == config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(unit: &str, pf: &str, speedup: f64) -> CellResult {
        CellResult {
            sweep: "t".into(),
            unit: unit.into(),
            group: "g".into(),
            prefetcher: pf.into(),
            config: "base".into(),
            seed: 0,
            metrics: Metrics {
                speedup,
                coverage: 0.5,
                overprediction: 0.1,
                ipc: 1.0,
                baseline_mpki: 12.0,
                accuracy: 0.9,
            },
            raw: RawSummary {
                ipc: 1.0,
                llc_mpki: 3.0,
                prefetches_issued: 42,
                bw_bucket_windows: [1, 2, 3, 4],
            },
        }
    }

    fn result() -> SweepResult {
        SweepResult {
            name: "t".into(),
            baselines: vec![cell("w", "none", 1.0)],
            cells: vec![cell("w", "spp", 1.25), cell("w", "pythia", 1.5)],
            throughput: None,
        }
    }

    #[test]
    fn emitters_agree_on_rows() {
        let r = result();
        let md = r.to_markdown();
        let csv = r.to_csv();
        assert_eq!(md.lines().count(), 2 + 2 + 3, "title + header/sep + rows");
        assert_eq!(csv.lines().count(), 1 + 3);
        assert!(md.contains("1.250000"));
        assert!(csv.contains("1.250000"));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let r = result();
        let rendered = r.to_json().render_pretty();
        let parsed = pythia_stats::json::parse(&rendered).expect("valid json");
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("t"));
        let cells = parsed.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        let speedup = cells[1]
            .get("metrics")
            .and_then(|m| m.get("speedup"))
            .and_then(Json::as_f64);
        assert_eq!(speedup, Some(1.5));
    }

    #[test]
    fn decoded_result_reproduces_the_artifact_even_with_huge_seeds() {
        // Seeds beyond f64's exact range must survive the artifact
        // round-trip (the spec codec supports them, so results must too).
        let mut r = result();
        r.cells[0].seed = u64::MAX;
        r.baselines[0].seed = (1 << 53) + 1;
        let rendered = r.to_json().render_pretty();
        let parsed = pythia_stats::json::parse(&rendered).expect("valid json");
        let back = SweepResult::from_json(&parsed).expect("decodes");
        assert_eq!(back.cells[0].seed, u64::MAX);
        assert_eq!(back.baselines[0].seed, (1 << 53) + 1);
        assert_eq!(back.to_json().render_pretty(), rendered, "byte-stable");
    }

    #[test]
    fn lookup_helpers() {
        let r = result();
        assert!(r.baseline_of("w", "base", 0).is_some());
        assert!(r.baseline_of("w", "base", 1).is_none());
        assert_eq!(r.cell("w", "spp", "base").unwrap().metrics.speedup, 1.25);
    }

    #[test]
    fn render_rejects_unknown_format() {
        assert!(result().render("xml").is_err());
        assert!(result().render("md").is_ok());
        assert!(result().render("json").is_ok());
        assert!(result().render("csv").is_ok());
    }
}
