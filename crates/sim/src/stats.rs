//! Simulation statistics: per-cache, per-core, DRAM, and the top-level
//! [`SimReport`] consumed by `pythia-stats` to compute the paper's metrics
//! (IPC speedup, prefetch coverage, overprediction — Appendix A.6).

/// Counters for one cache level.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand loads observed by this cache.
    pub demand_loads: u64,
    /// Demand load hits.
    pub demand_load_hits: u64,
    /// Demand load misses.
    pub demand_load_misses: u64,
    /// Demand stores (RFOs) observed.
    pub demand_stores: u64,
    /// Demand store hits.
    pub demand_store_hits: u64,
    /// Demand store misses.
    pub demand_store_misses: u64,
    /// Lines filled because of a prefetch request.
    pub prefetch_fills: u64,
    /// Prefetch requests that found the line already present (dropped).
    pub prefetch_redundant: u64,
    /// Prefetched lines that were later demanded (counted once per fill).
    pub useful_prefetches: u64,
    /// Prefetched lines evicted without ever being demanded.
    pub useless_prefetches: u64,
    /// Demand accesses that hit a prefetched line still in flight
    /// (accurate-but-late prefetches).
    pub late_prefetch_hits: u64,
    /// Extra cycles spent waiting for a free MSHR.
    pub mshr_stall_cycles: u64,
    /// Number of accesses that had to wait for an MSHR.
    pub mshr_stalls: u64,
    /// Evictions of dirty lines (generate writebacks).
    pub dirty_evictions: u64,
    /// Total evictions of valid lines.
    pub evictions: u64,
}

impl CacheStats {
    /// Total demand accesses (loads + stores).
    pub fn demand_accesses(&self) -> u64 {
        self.demand_loads + self.demand_stores
    }

    /// Total demand misses (loads + stores).
    pub fn demand_misses(&self) -> u64 {
        self.demand_load_misses + self.demand_store_misses
    }

    /// Demand load hit ratio in `[0, 1]`; zero when no loads were observed.
    pub fn load_hit_ratio(&self) -> f64 {
        if self.demand_loads == 0 {
            0.0
        } else {
            self.demand_load_hits as f64 / self.demand_loads as f64
        }
    }
}

/// Counters for the DRAM subsystem.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DramStats {
    /// Reads triggered by demand misses.
    pub demand_reads: u64,
    /// Reads triggered by prefetch requests.
    pub prefetch_reads: u64,
    /// Writebacks of dirty lines.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (precharge + activate needed).
    pub row_misses: u64,
    /// Cycles the data bus was busy transferring lines, summed over channels.
    pub bus_busy_cycles: u64,
    /// Histogram of time spent in bandwidth-utilization buckets
    /// `[<25%, 25–50%, 50–75%, >=75%]` of peak, in monitor windows (Fig. 14).
    pub bw_bucket_windows: [u64; 4],
}

impl DramStats {
    /// Total read requests reaching DRAM (the denominator/numerator of the
    /// overprediction metric is built from these).
    pub fn total_reads(&self) -> u64 {
        self.demand_reads + self.prefetch_reads
    }

    /// Fraction of monitor windows spent at or above 50% of peak bandwidth.
    pub fn high_bw_fraction(&self) -> f64 {
        let total: u64 = self.bw_bucket_windows.iter().sum();
        if total == 0 {
            0.0
        } else {
            (self.bw_bucket_windows[2] + self.bw_bucket_windows[3]) as f64 / total as f64
        }
    }
}

/// Counters for one core.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired during the measured phase.
    pub instructions: u64,
    /// Cycles elapsed during the measured phase.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,
}

impl CoreStats {
    /// Instructions per cycle; zero when no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC misses per kilo-instruction needs the LLC stats; kept in
    /// [`SimReport::llc_mpki`].
    pub fn mpki(&self, misses: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// One core's prefetcher books, kept by the simulator where it delivers
/// the events (`System`), not by the prefetcher.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Requests the prefetcher pushed, counted after each
    /// `Prefetcher::on_demand_into` call, redundant ones included.
    pub issued: u64,
    /// Meant for requests dropped because the line was already cached, but
    /// nothing writes it: always 0. The caches count those
    /// (`CacheStats::prefetch_redundant`).
    pub redundant: u64,
    /// Useful notices sent to the prefetcher: a demand's first touch of a
    /// prefetched line at the L2 or the LLC, whichever core prefetched it.
    pub useful: u64,
    /// Useless notices sent to the prefetcher: an unused prefetched line
    /// evicted from the L2 by this core's DRAM-served prefetch, or from the
    /// shared LLC by any core (every core is told of each LLC victim).
    pub useless: u64,
}

impl PrefetcherStats {
    /// Accuracy = useful / (useful + useless); zero when nothing resolved.
    pub fn accuracy(&self) -> f64 {
        let resolved = self.useful + self.useless;
        if resolved == 0 {
            0.0
        } else {
            self.useful as f64 / resolved as f64
        }
    }
}

/// Simulation throughput telemetry: simulated instructions per wall-clock
/// second, the perf-trajectory line tracked in `BENCH_*.json`.
///
/// Deliberately **not** part of [`SimReport`]: reports are
/// bit-deterministic (same inputs ⇒ byte-identical report) while wall
/// time varies run to run, so throughput travels alongside reports — e.g.
/// `pythia_sweep::SweepResult::throughput` — and is excluded from every
/// determinism-pinned comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Simulated instructions covered by this measurement (warmup +
    /// measured phases, summed over cores and runs).
    pub instructions: u64,
    /// Wall-clock seconds those instructions took to simulate.
    pub wall_seconds: f64,
}

impl Throughput {
    /// A measurement from raw parts.
    pub fn new(instructions: u64, wall_seconds: f64) -> Self {
        Self {
            instructions,
            wall_seconds,
        }
    }

    /// Million simulated instructions per wall-clock second (0 when no
    /// time elapsed).
    pub fn minst_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.wall_seconds / 1e6
        }
    }
}

/// The full result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Per-core retirement statistics.
    pub cores: Vec<CoreStats>,
    /// Per-core L1D statistics.
    pub l1d: Vec<CacheStats>,
    /// Per-core L2 statistics.
    pub l2: Vec<CacheStats>,
    /// Shared LLC statistics.
    pub llc: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Per-core prefetcher statistics.
    pub prefetchers: Vec<PrefetcherStats>,
}

impl SimReport {
    /// Geometric-mean IPC across cores.
    pub fn geomean_ipc(&self) -> f64 {
        let n = self.cores.len();
        if n == 0 {
            return 0.0;
        }
        let log_sum: f64 = self.cores.iter().map(|c| c.ipc().max(1e-12).ln()).sum();
        (log_sum / n as f64).exp()
    }

    /// LLC demand-load misses per kilo-instruction, aggregated over cores.
    pub fn llc_mpki(&self) -> f64 {
        let instrs: u64 = self.cores.iter().map(|c| c.instructions).sum();
        if instrs == 0 {
            0.0
        } else {
            self.llc.demand_load_misses as f64 * 1000.0 / instrs as f64
        }
    }

    /// Total prefetches issued across cores.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetchers.iter().map(|p| p.issued).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let c = CoreStats::default();
        assert_eq!(c.ipc(), 0.0);
        let c = CoreStats {
            instructions: 100,
            cycles: 50,
            ..Default::default()
        };
        assert!((c.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_bounds() {
        let s = CacheStats {
            demand_loads: 10,
            demand_load_hits: 7,
            ..Default::default()
        };
        assert!((s.load_hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(CacheStats::default().load_hit_ratio(), 0.0);
    }

    #[test]
    fn prefetcher_accuracy() {
        let p = PrefetcherStats {
            useful: 3,
            useless: 1,
            ..Default::default()
        };
        assert!((p.accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(PrefetcherStats::default().accuracy(), 0.0);
    }

    #[test]
    fn geomean_ipc_of_identical_cores() {
        let core = CoreStats {
            instructions: 1000,
            cycles: 2000,
            ..Default::default()
        };
        let report = SimReport {
            cores: vec![core; 4],
            l1d: vec![],
            l2: vec![],
            llc: CacheStats::default(),
            dram: DramStats::default(),
            prefetchers: vec![],
        };
        assert!((report.geomean_ipc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mpki_computation() {
        let c = CoreStats {
            instructions: 1_000_000,
            ..Default::default()
        };
        assert!((c.mpki(3000) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn high_bw_fraction() {
        let d = DramStats {
            bw_bucket_windows: [1, 1, 1, 1],
            ..Default::default()
        };
        assert!((d.high_bw_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(DramStats::default().high_bw_fraction(), 0.0);
    }
}
