//! The paper's evaluation metrics (Appendix A.6):
//!
//! ```text
//! Perf_X          = IPC_X / IPC_nopref
//! Coverage_X      = (LLC_load_miss_nopref − LLC_load_miss_X) / LLC_load_miss_nopref
//! Overprediction_X = (LLC_read_miss_X − LLC_read_miss_nopref) / LLC_read_miss_nopref
//! ```
//!
//! where "LLC read misses" counts every read reaching DRAM — demand misses
//! *plus* prefetch fills, which is how overpredicting prefetchers show up.

use pythia_sim::stats::SimReport;

/// Derived metrics comparing a prefetched run against the no-prefetching
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Geometric-mean IPC speedup over the baseline.
    pub speedup: f64,
    /// Prefetch coverage in `[..1]` (can be negative if misses increased).
    pub coverage: f64,
    /// Overprediction: extra DRAM reads relative to baseline LLC misses.
    pub overprediction: f64,
    /// Geometric-mean IPC of the prefetched run.
    pub ipc: f64,
    /// Baseline LLC demand-load MPKI.
    pub baseline_mpki: f64,
    /// Prefetcher accuracy (useful / resolved) from cache-level accounting.
    pub accuracy: f64,
}

/// Computes the Appendix A.6 metrics.
///
/// # Panics
///
/// Panics where [`try_compare`] returns an error; callers that take
/// budgets or workloads from outside the program use that instead.
pub fn compare(baseline: &SimReport, with: &SimReport) -> Metrics {
    try_compare(baseline, with).unwrap_or_else(|e| panic!("{e}"))
}

/// [`compare`], returning the undefined case as an error.
///
/// # Errors
///
/// The baseline report saw no LLC load misses, so coverage has no
/// denominator (the paper keeps only workloads above 3 baseline MPKI, §5,
/// and never meets this).
pub fn try_compare(baseline: &SimReport, with: &SimReport) -> Result<Metrics, String> {
    let base_misses = baseline.llc.demand_load_misses;
    if base_misses == 0 {
        return Err("baseline saw no LLC load misses; not a memory-bound workload".to_string());
    }
    let coverage = (base_misses as f64 - with.llc.demand_load_misses as f64) / base_misses as f64;
    let base_reads = baseline.dram.total_reads();
    let with_reads = with.dram.total_reads();
    let overprediction = if base_reads == 0 {
        0.0
    } else {
        (with_reads as f64 - base_reads as f64) / base_reads as f64
    };
    let useful: u64 =
        with.l2.iter().map(|c| c.useful_prefetches).sum::<u64>() + with.llc.useful_prefetches;
    let useless: u64 =
        with.l2.iter().map(|c| c.useless_prefetches).sum::<u64>() + with.llc.useless_prefetches;
    let accuracy = if useful + useless == 0 {
        0.0
    } else {
        useful as f64 / (useful + useless) as f64
    };
    Ok(Metrics {
        speedup: speedup(baseline, with),
        coverage,
        overprediction,
        ipc: with.geomean_ipc(),
        baseline_mpki: baseline.llc_mpki(),
        accuracy,
    })
}

/// Geometric-mean IPC speedup of `with` over `baseline`.
pub fn speedup(baseline: &SimReport, with: &SimReport) -> f64 {
    let b = baseline.geomean_ipc();
    if b <= 0.0 {
        0.0
    } else {
        with.geomean_ipc() / b
    }
}

/// Geometric mean of a slice of positive values (zero-length → 1.0, the
/// neutral speedup).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::stats::{CacheStats, CoreStats, DramStats};

    fn report(ipc_num: u64, ipc_den: u64, llc_misses: u64, dram_reads: u64) -> SimReport {
        SimReport {
            cores: vec![CoreStats {
                instructions: ipc_num,
                cycles: ipc_den,
                ..Default::default()
            }],
            l1d: vec![CacheStats::default()],
            l2: vec![CacheStats::default()],
            llc: CacheStats {
                demand_load_misses: llc_misses,
                demand_loads: llc_misses,
                ..Default::default()
            },
            dram: DramStats {
                demand_reads: dram_reads,
                ..Default::default()
            },
            prefetchers: vec![],
        }
    }

    #[test]
    fn coverage_formula() {
        let base = report(1000, 1000, 1000, 1000);
        let with = report(1200, 1000, 300, 1100);
        let m = compare(&base, &with);
        assert!((m.coverage - 0.7).abs() < 1e-12);
        assert!((m.overprediction - 0.1).abs() < 1e-12);
        assert!((m.speedup - 1.2).abs() < 1e-12);
    }

    #[test]
    fn negative_coverage_when_misses_increase() {
        let base = report(1000, 1000, 1000, 1000);
        let with = report(900, 1000, 1500, 2000);
        let m = compare(&base, &with);
        assert!(m.coverage < 0.0);
        assert!((m.overprediction - 1.0).abs() < 1e-12);
        assert!(m.speedup < 1.0);
    }

    #[test]
    #[should_panic(expected = "no LLC load misses")]
    fn zero_baseline_misses_rejected() {
        let base = report(1000, 1000, 0, 0);
        let with = report(1000, 1000, 0, 0);
        assert!(try_compare(&base, &with).is_err());
        let _ = compare(&base, &with);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_from_cache_counters() {
        let base = report(1000, 1000, 100, 100);
        let mut with = report(1000, 1000, 50, 120);
        with.l2[0].useful_prefetches = 30;
        with.l2[0].useless_prefetches = 10;
        let m = compare(&base, &with);
        assert!((m.accuracy - 0.75).abs() < 1e-12);
    }
}
