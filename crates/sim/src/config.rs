//! System configuration, defaulting to Table 5 of the paper.
//!
//! | Component | Paper value |
//! |---|---|
//! | Core | 1–12 cores, 4-wide OoO, 256-entry ROB, 72/56-entry LQ/SQ |
//! | Branch | perceptron-based, 20-cycle misprediction penalty |
//! | L1/L2 | private, 32 KB / 256 KB, 8-way, LRU, 16/32 MSHRs, 4/14-cycle |
//! | LLC | 2 MB/core, 16-way, SHiP, 64 MSHRs/bank, 34-cycle |
//! | DRAM | DDR4-2400; 1C: 1 channel, 4C: 2 channels, 8C+: 4 channels; 8 banks/rank, 2 ranks/channel (4C+), 2 KB row buffer, tRCD=15 ns, tRP=15 ns, tCAS=12.5 ns, 64-bit bus |

use crate::cache::ReplacementKind;
use crate::LINE_SIZE;

/// CPU frequency used to convert DRAM nanosecond timings to core cycles.
pub const CPU_FREQ_MHZ: u64 = 4000;

/// Configuration of the out-of-order core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Fetch/retire width in instructions per cycle.
    pub width: u32,
    /// Reorder-buffer capacity in instructions.
    pub rob_entries: usize,
    /// Load-queue capacity.
    pub lq_entries: usize,
    /// Store-queue capacity.
    pub sq_entries: usize,
    /// Cycles of front-end bubble after a branch misprediction.
    pub mispredict_penalty: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            width: 4,
            rob_entries: 256,
            lq_entries: 72,
            sq_entries: 56,
            mispredict_penalty: 20,
        }
    }
}

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Round-trip hit latency in cycles.
    pub latency: u64,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Number of sets implied by size, line size and associativity.
    pub fn sets(&self) -> usize {
        (self.size_bytes / crate::LINE_SIZE) as usize / self.ways
    }

    /// L1 data cache per Table 5: 32 KB, 8-way, LRU, 16 MSHRs, 4 cycles.
    pub fn l1d() -> Self {
        Self {
            size_bytes: 32 * 1024,
            ways: 8,
            latency: 4,
            mshrs: 16,
            replacement: ReplacementKind::Lru,
        }
    }

    /// L2 cache per Table 5: 256 KB, 8-way, LRU, 32 MSHRs, 14 cycles.
    pub fn l2() -> Self {
        Self {
            size_bytes: 256 * 1024,
            ways: 8,
            latency: 14,
            mshrs: 32,
            replacement: ReplacementKind::Lru,
        }
    }

    /// Shared LLC per Table 5: 2 MB/core, 16-way, SHiP, 34 cycles.
    pub fn llc(cores: usize) -> Self {
        Self {
            size_bytes: 2 * 1024 * 1024 * cores as u64,
            ways: 16,
            latency: 34,
            mshrs: 64 * cores.max(1),
            replacement: ReplacementKind::Ship,
        }
    }
}

/// Configuration of the DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes.
    pub row_buffer_bytes: u64,
    /// Transfer rate in mega-transfers per second. Table 5 uses 2400; the
    /// bandwidth-scaling study of Fig. 8(b) sweeps 150–9600.
    pub mtps: u64,
    /// Bus width in bytes per transfer (64-bit bus = 8 B).
    pub bus_bytes: u64,
    /// Row-to-column delay in tenths of nanoseconds (tRCD = 15 ns → 150).
    pub t_rcd_tenth_ns: u64,
    /// Precharge delay in tenths of nanoseconds (tRP = 15 ns → 150).
    pub t_rp_tenth_ns: u64,
    /// Column access latency in tenths of nanoseconds (tCAS = 12.5 ns → 125).
    pub t_cas_tenth_ns: u64,
}

impl DramConfig {
    /// DDR4-2400 configuration with the per-core-count channel scaling used
    /// throughout §6.2.1: one channel for 1–2 cores, two for 4–6, four for 8+.
    pub fn for_cores(cores: usize) -> Self {
        let (channels, ranks) = match cores {
            0..=2 => (1, 1),
            3..=6 => (2, 2),
            _ => (4, 2),
        };
        Self {
            channels,
            ranks_per_channel: ranks,
            banks_per_rank: 8,
            row_buffer_bytes: 2048,
            mtps: 2400,
            bus_bytes: 8,
            t_rcd_tenth_ns: 150,
            t_rp_tenth_ns: 150,
            t_cas_tenth_ns: 125,
        }
    }

    /// Converts tenths of nanoseconds to CPU cycles at [`CPU_FREQ_MHZ`].
    pub fn tenth_ns_to_cycles(tenth_ns: u64) -> u64 {
        // cycles = ns * freq_ghz = (tenth_ns / 10) * (mhz / 1000)
        tenth_ns * CPU_FREQ_MHZ / 10_000
    }

    /// Cycles the data bus is occupied transferring one 64 B cacheline.
    pub fn line_transfer_cycles(&self) -> u64 {
        let transfers = crate::LINE_SIZE / self.bus_bytes;
        // time = transfers / (mtps * 1e6) seconds; cycles = time * freq.
        // cycles = transfers * freq_mhz / mtps, rounded up, at least 1.
        (transfers * CPU_FREQ_MHZ).div_ceil(self.mtps).max(1)
    }
}

/// Top-level system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (each runs its own trace).
    pub cores: usize,
    /// Core model parameters.
    pub core: CoreConfig,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2 cache.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// DRAM subsystem.
    pub dram: DramConfig,
    /// Window, in cycles, over which DRAM bandwidth usage is measured for
    /// the high/low feedback signal delivered to prefetchers.
    pub bandwidth_window_cycles: u64,
    /// Bus-utilization fraction (in percent) above which bandwidth usage is
    /// reported as "high" to prefetchers.
    pub bandwidth_high_pct: u8,
}

impl SystemConfig {
    /// Builds the Table 5 configuration for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or greater than 12 (the paper's range).
    pub fn with_cores(cores: usize) -> Self {
        assert!(
            (1..=12).contains(&cores),
            "paper evaluates 1-12 cores, got {cores}"
        );
        Self {
            cores,
            core: CoreConfig::default(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(cores),
            dram: DramConfig::for_cores(cores),
            bandwidth_window_cycles: 16_384,
            bandwidth_high_pct: 50,
        }
    }

    /// The baseline single-core configuration (1 channel, 2 MB LLC).
    pub fn single_core() -> Self {
        Self::with_cores(1)
    }

    /// Single-core configuration with scaled DRAM bandwidth, as in the
    /// Fig. 8(b) sweep (150–9600 MTPS on a single channel).
    pub fn single_core_with_mtps(mtps: u64) -> Self {
        let mut cfg = Self::single_core();
        cfg.dram.mtps = mtps;
        cfg
    }

    /// Single-core configuration with a scaled LLC, as in Fig. 8(c).
    pub fn single_core_with_llc_bytes(bytes: u64) -> Self {
        let mut cfg = Self::single_core();
        cfg.llc.size_bytes = bytes;
        cfg
    }

    /// Checks what building and running a [`System`](crate::system::System)
    /// on this configuration assumes: a configuration can arrive from
    /// outside the process (a CLI option, a campaign `POST`), and past this
    /// point it is divided by, indexed with and allocated from unchecked.
    ///
    /// # Errors
    ///
    /// Names the first field out of range: a core count outside the
    /// paper's 1–12; an empty ROB, LQ or SQ (dispatch would wait forever);
    /// a DRAM with no channel, rank or bank, a row smaller than a line, or
    /// a zero transfer rate or bus width; a zero bandwidth window (its
    /// roll-over loop would not advance); or a cache with ways outside the
    /// 64-bit valid mask, no full set, more than 1 GiB or no miss register.
    /// The upper bounds keep allocations sane.
    pub fn validate(&self) -> Result<(), String> {
        let (core, dram) = (&self.core, &self.dram);
        let fields = [
            ("cores", self.cores as u64, 1, 12),
            ("core.rob_entries", core.rob_entries as u64, 1, MAX_ENTRIES),
            ("core.lq_entries", core.lq_entries as u64, 1, MAX_ENTRIES),
            ("core.sq_entries", core.sq_entries as u64, 1, MAX_ENTRIES),
            ("dram.channels", dram.channels as u64, 1, 64),
            (
                "dram.ranks_per_channel",
                dram.ranks_per_channel as u64,
                1,
                64,
            ),
            ("dram.banks_per_rank", dram.banks_per_rank as u64, 1, 64),
            (
                "dram.row_buffer_bytes",
                dram.row_buffer_bytes,
                LINE_SIZE,
                u64::MAX,
            ),
            ("dram.mtps", dram.mtps, 1, u64::MAX),
            ("dram.bus_bytes", dram.bus_bytes, 1, u64::MAX),
            (
                "bandwidth_window_cycles",
                self.bandwidth_window_cycles,
                1,
                u64::MAX,
            ),
        ];
        for (field, value, lo, hi) in fields {
            within(field, value, lo, hi)?;
        }
        for (level, cache) in [("l1d", &self.l1d), ("l2", &self.l2), ("llc", &self.llc)] {
            let ways = cache.ways as u64;
            within(&format!("{level}.ways"), ways, 1, 64)?;
            let bytes = cache.size_bytes;
            within(
                &format!("{level}.size_bytes"),
                bytes,
                LINE_SIZE * ways,
                MAX_CACHE_BYTES,
            )?;
            within(
                &format!("{level}.mshrs"),
                cache.mshrs as u64,
                1,
                MAX_ENTRIES,
            )?;
        }
        Ok(())
    }
}

/// `Ok` if `value` lies in `lo..=hi`, else an error naming `field`.
fn within(field: &str, value: u64, lo: u64, hi: u64) -> Result<(), String> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else if hi == u64::MAX {
        Err(format!("{field}: {value} is below {lo}"))
    } else {
        Err(format!("{field}: {value} is outside {lo}..={hi}"))
    }
}

/// Largest cache [`SystemConfig::validate`] accepts, in bytes: 512× the
/// Table 5 LLC, and small enough to allocate its tag arrays.
pub(crate) const MAX_CACHE_BYTES: u64 = 1 << 30;

/// Most ROB, LQ, SQ or MSHR entries [`SystemConfig::validate`] accepts.
const MAX_ENTRIES: u64 = 1 << 16;

impl Default for SystemConfig {
    fn default() -> Self {
        Self::single_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_defaults() {
        let cfg = SystemConfig::single_core();
        assert_eq!(cfg.core.width, 4);
        assert_eq!(cfg.core.rob_entries, 256);
        assert_eq!(cfg.core.lq_entries, 72);
        assert_eq!(cfg.core.sq_entries, 56);
        assert_eq!(cfg.core.mispredict_penalty, 20);
        assert_eq!(cfg.l1d.size_bytes, 32 * 1024);
        assert_eq!(cfg.l2.size_bytes, 256 * 1024);
        assert_eq!(cfg.llc.size_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.llc.ways, 16);
        assert_eq!(cfg.dram.mtps, 2400);
        assert_eq!(cfg.dram.channels, 1);
    }

    #[test]
    fn channel_scaling_follows_section_6_2_1() {
        assert_eq!(SystemConfig::with_cores(1).dram.channels, 1);
        assert_eq!(SystemConfig::with_cores(2).dram.channels, 1);
        assert_eq!(SystemConfig::with_cores(4).dram.channels, 2);
        assert_eq!(SystemConfig::with_cores(6).dram.channels, 2);
        assert_eq!(SystemConfig::with_cores(8).dram.channels, 4);
        assert_eq!(SystemConfig::with_cores(12).dram.channels, 4);
    }

    #[test]
    fn llc_scales_with_cores() {
        assert_eq!(SystemConfig::with_cores(4).llc.size_bytes, 8 * 1024 * 1024);
        assert_eq!(
            SystemConfig::with_cores(12).llc.size_bytes,
            24 * 1024 * 1024
        );
    }

    #[test]
    #[should_panic(expected = "1-12 cores")]
    fn zero_cores_rejected() {
        let _ = SystemConfig::with_cores(0);
    }

    #[test]
    fn validation_names_the_first_field_a_system_cannot_run() {
        for cores in [1, 4, 12] {
            assert_eq!(SystemConfig::with_cores(cores).validate(), Ok(()));
        }
        type Bad = (&'static str, fn(&mut SystemConfig));
        let bad: [Bad; 7] = [
            ("llc.size_bytes", |c| c.llc.size_bytes = 0),
            ("llc.size_bytes", |c| c.llc.size_bytes = u64::MAX),
            ("l1d.ways", |c| c.l1d.ways = 65),
            ("l2.mshrs", |c| c.l2.mshrs = 0),
            ("dram.mtps", |c| c.dram.mtps = 0),
            ("core.lq_entries", |c| c.core.lq_entries = 0),
            ("bandwidth_window_cycles", |c| c.bandwidth_window_cycles = 0),
        ];
        for (field, set) in bad {
            let mut c = SystemConfig::single_core();
            set(&mut c);
            let err = c.validate().expect_err(field);
            assert!(err.starts_with(field), "{field}: {err}");
        }
    }

    #[test]
    fn cache_geometry() {
        let l1 = CacheConfig::l1d();
        assert_eq!(l1.sets(), 64); // 32KB / 64B / 8 ways
        let llc = CacheConfig::llc(1);
        assert_eq!(llc.sets(), 2048); // 2MB / 64B / 16 ways
    }

    #[test]
    fn dram_timing_conversion() {
        // 15 ns at 4 GHz = 60 cycles; 12.5 ns = 50 cycles.
        assert_eq!(DramConfig::tenth_ns_to_cycles(150), 60);
        assert_eq!(DramConfig::tenth_ns_to_cycles(125), 50);
    }

    #[test]
    fn transfer_cycles_scale_inversely_with_mtps() {
        let base = DramConfig::for_cores(1);
        let base_cycles = base.line_transfer_cycles();
        let mut slow = base;
        slow.mtps = 150;
        let mut fast = base;
        fast.mtps = 9600;
        assert!(slow.line_transfer_cycles() > base_cycles);
        assert!(fast.line_transfer_cycles() < base_cycles);
        // 2400 MTPS, 8 transfers, 4 GHz: ceil(8*4000/2400) = 14 cycles.
        assert_eq!(base_cycles, 14);
        // 150 MTPS: ceil(32000/150) = 214 cycles.
        assert_eq!(slow.line_transfer_cycles(), 214);
    }

    #[test]
    fn debug_representation_nonempty() {
        let cfg = SystemConfig::with_cores(4);
        assert!(format!("{cfg:?}").contains("cores"));
    }
}
