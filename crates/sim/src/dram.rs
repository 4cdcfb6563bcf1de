//! DDR4-style DRAM model: channels → ranks → banks with open-row policy,
//! tRCD/tRP/tCAS timing, and a bandwidth-capped data bus whose transfer rate
//! (MTPS) is the knob swept in Fig. 8(b) of the paper.
//!
//! The model is latency-tagged: each bank and each channel's data bus keep an
//! absolute `next_free` cycle. A request issued at cycle *C* computes its
//! completion from those reservations and pushes them forward, so queueing
//! delay emerges naturally when demand (plus prefetch) traffic exceeds the
//! configured bandwidth — the effect that separates system-aware Pythia from
//! bandwidth-oblivious prefetchers in the paper's evaluation.

use crate::config::DramConfig;
use crate::stats::DramStats;

/// Who generated a DRAM read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramRequestKind {
    /// Read triggered by a demand miss.
    DemandRead,
    /// Read triggered by a prefetch.
    PrefetchRead,
    /// Writeback of a dirty line.
    Write,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    next_free: u64,
    open_row: Option<u64>,
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_next_free: u64,
}

/// Sliding-window DRAM bandwidth monitor.
///
/// This is the system-level feedback source of the paper (§3): prefetchers
/// query [`BandwidthMonitor::is_high`] and Pythia folds it into its reward
/// scheme (R_IN^H vs R_IN^L, R_NP^H vs R_NP^L).
#[derive(Debug)]
pub struct BandwidthMonitor {
    window: u64,
    peak_cycles_per_window: u64,
    window_start: u64,
    busy_in_window: u64,
    last_utilization_pct: u8,
    high_threshold_pct: u8,
    bucket_windows: [u64; 4],
}

impl BandwidthMonitor {
    /// Creates a monitor over `window` cycles with `channels` data buses and
    /// the given high-usage threshold (percent of peak).
    pub fn new(window: u64, channels: usize, high_threshold_pct: u8) -> Self {
        Self {
            window,
            peak_cycles_per_window: window * channels as u64,
            window_start: 0,
            busy_in_window: 0,
            last_utilization_pct: 0,
            high_threshold_pct,
            bucket_windows: [0; 4],
        }
    }

    fn roll_to(&mut self, cycle: u64) {
        while cycle >= self.window_start + self.window {
            let pct =
                (self.busy_in_window * 100 / self.peak_cycles_per_window.max(1)).min(100) as u8;
            self.last_utilization_pct = pct;
            let bucket = match pct {
                0..=24 => 0,
                25..=49 => 1,
                50..=74 => 2,
                _ => 3,
            };
            self.bucket_windows[bucket] += 1;
            self.busy_in_window = 0;
            self.window_start += self.window;
        }
    }

    /// Records `busy` bus cycles for a transfer that started at `cycle`.
    pub fn record(&mut self, cycle: u64, busy: u64) {
        self.roll_to(cycle);
        self.busy_in_window += busy;
    }

    /// Advances the window to `cycle` without recording traffic (called on
    /// every demand so idle periods register as low usage).
    pub fn advance(&mut self, cycle: u64) {
        self.roll_to(cycle);
    }

    /// Utilization of the previous complete window, in percent of peak.
    pub fn utilization_pct(&self) -> u8 {
        self.last_utilization_pct
    }

    /// Whether bandwidth usage is currently considered high.
    pub fn is_high(&self) -> bool {
        self.last_utilization_pct >= self.high_threshold_pct
    }

    /// Histogram of complete windows per utilization bucket
    /// `[<25%, 25–50%, 50–75%, >=75%]` (Fig. 14).
    pub fn bucket_windows(&self) -> [u64; 4] {
        self.bucket_windows
    }

    /// Clears the bucket histogram (between warmup and measurement).
    pub fn reset_stats(&mut self) {
        self.bucket_windows = [0; 4];
    }
}

/// The DRAM subsystem.
#[derive(Debug)]
pub struct Dram {
    channels: Vec<Channel>,
    banks_per_channel: usize,
    row_lines: u64,
    t_rcd: u64,
    t_rp: u64,
    t_cas: u64,
    transfer_cycles: u64,
    stats: DramStats,
}

/// Completion information for one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Cycle at which the requested line's data is fully transferred.
    pub done_at: u64,
    /// Whether the access hit in an open row buffer.
    pub row_hit: bool,
}

impl Dram {
    /// Creates the DRAM model from its configuration.
    pub fn new(config: &DramConfig) -> Self {
        let banks_per_channel = config.ranks_per_channel * config.banks_per_rank;
        Self {
            channels: (0..config.channels)
                .map(|_| Channel {
                    banks: vec![Bank::default(); banks_per_channel],
                    bus_next_free: 0,
                })
                .collect(),
            banks_per_channel,
            row_lines: config.row_buffer_bytes / crate::LINE_SIZE,
            t_rcd: DramConfig::tenth_ns_to_cycles(config.t_rcd_tenth_ns),
            t_rp: DramConfig::tenth_ns_to_cycles(config.t_rp_tenth_ns),
            t_cas: DramConfig::tenth_ns_to_cycles(config.t_cas_tenth_ns),
            transfer_cycles: config.line_transfer_cycles(),
            stats: DramStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clears statistics (between warmup and measurement).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    #[inline]
    fn route(&self, line: u64) -> (usize, usize, u64) {
        let n_ch = self.channels.len() as u64;
        let channel = (line % n_ch) as usize;
        let per_channel_line = line / n_ch;
        let row = per_channel_line / self.row_lines;
        let bank = (row % self.banks_per_channel as u64) as usize;
        (channel, bank, row)
    }

    /// Issues an access for `line` at `cycle`, updating bank and bus
    /// reservations, and reports bus busy time to `monitor`.
    pub fn access(
        &mut self,
        line: u64,
        kind: DramRequestKind,
        cycle: u64,
        monitor: &mut BandwidthMonitor,
    ) -> DramAccess {
        let (ch_idx, bank_idx, row) = self.route(line);
        let t_cas = self.t_cas;
        let t_rp = self.t_rp;
        let t_rcd = self.t_rcd;
        let transfer = self.transfer_cycles;
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        let start = cycle.max(bank.next_free);
        let row_hit = bank.open_row == Some(row);
        let array_latency = if row_hit { t_cas } else { t_rp + t_rcd + t_cas };
        bank.open_row = Some(row);
        bank.next_free = start + array_latency;

        let bus_start = (start + array_latency).max(ch.bus_next_free);
        ch.bus_next_free = bus_start + transfer;
        let done_at = bus_start + transfer;

        monitor.record(cycle, transfer);
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.bus_busy_cycles += transfer;
        match kind {
            DramRequestKind::DemandRead => self.stats.demand_reads += 1,
            DramRequestKind::PrefetchRead => self.stats.prefetch_reads += 1,
            DramRequestKind::Write => self.stats.writes += 1,
        }
        DramAccess { done_at, row_hit }
    }

    /// Idle (unloaded) round-trip latency of a row-miss read, for tests.
    pub fn unloaded_row_miss_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cas + self.transfer_cycles
    }

    /// The line transfer time on the data bus, in cycles.
    pub fn transfer_cycles(&self) -> u64 {
        self.transfer_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(mtps: u64, channels: usize) -> (Dram, BandwidthMonitor) {
        let mut cfg = DramConfig::for_cores(1);
        cfg.mtps = mtps;
        cfg.channels = channels;
        (Dram::new(&cfg), BandwidthMonitor::new(1024, channels, 50))
    }

    #[test]
    fn first_access_is_row_miss() {
        let (mut d, mut m) = setup(2400, 1);
        let a = d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        assert!(!a.row_hit);
        assert_eq!(a.done_at, d.unloaded_row_miss_latency());
    }

    #[test]
    fn same_row_second_access_hits() {
        let (mut d, mut m) = setup(2400, 1);
        d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        let a = d.access(1, DramRequestKind::DemandRead, 10_000, &mut m);
        assert!(a.row_hit);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    /// ROADMAP defect (f), "The DRAM bank holds a row hit for one burst,
    /// not a whole tCAS". A row hit holds its bank for a whole tCAS
    /// (`bank.next_free = start + array_latency`), so two reads to one
    /// open row issued on the same cycle complete one tCAS apart (50
    /// cycles at 4 GHz), where the bus could carry the second line one
    /// transfer (14 cycles at 2 400 MTPS) after the first. Fails until a
    /// row hit holds its bank for one line transfer (a fix moves golden
    /// digests, so it is its own PR); run with `--ignored`.
    #[test]
    #[ignore = "documents a model defect (ROADMAP defect (f)); fails until a row hit holds its bank for one line transfer, not a whole tCAS"]
    fn two_reads_to_an_open_row_complete_one_transfer_apart() {
        let (mut d, mut m) = setup(2400, 1);
        // Open row 0, then let the bank and the bus go idle.
        d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        let at = 10_000;
        let a1 = d.access(1, DramRequestKind::DemandRead, at, &mut m);
        let a2 = d.access(2, DramRequestKind::DemandRead, at, &mut m);
        assert!(a1.row_hit && a2.row_hit);
        assert!(d.transfer_cycles() < d.t_cas, "the bus is not what binds");
        assert_eq!(
            a2.done_at - a1.done_at,
            d.transfer_cycles(),
            "two row hits issued at cycle {at} completed {} cycles apart; tCAS is {}",
            a2.done_at - a1.done_at,
            d.t_cas
        );
    }

    #[test]
    fn bus_serializes_back_to_back_requests() {
        let (mut d, mut m) = setup(150, 1); // very slow bus: 214 cycles/line
        let a1 = d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        let a2 = d.access(1, DramRequestKind::DemandRead, 0, &mut m);
        // Second transfer must wait for the first to release the bus.
        assert!(a2.done_at >= a1.done_at + d.transfer_cycles());
    }

    #[test]
    fn channels_interleave_by_line() {
        let (mut d, mut m) = setup(2400, 2);
        let a1 = d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        let a2 = d.access(1, DramRequestKind::DemandRead, 0, &mut m);
        // Different channels: both complete at the unloaded latency.
        assert_eq!(a1.done_at, a2.done_at);
    }

    #[test]
    fn request_kinds_counted_separately() {
        let (mut d, mut m) = setup(2400, 1);
        d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        d.access(64, DramRequestKind::PrefetchRead, 0, &mut m);
        d.access(128, DramRequestKind::Write, 0, &mut m);
        assert_eq!(d.stats().demand_reads, 1);
        assert_eq!(d.stats().prefetch_reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().total_reads(), 2);
    }

    #[test]
    fn monitor_reports_high_under_saturation() {
        let (mut d, mut m) = setup(150, 1);
        // Saturate: issue many lines within a few windows.
        for i in 0..64u64 {
            d.access(i, DramRequestKind::DemandRead, i * 10, &mut m);
        }
        m.advance(1_000_000);
        // With a 214-cycle transfer and requests every 10 cycles the early
        // windows are fully busy.
        assert!(m.bucket_windows()[3] > 0, "expected saturated windows");
    }

    #[test]
    fn monitor_reports_low_when_idle() {
        let (mut d, mut m) = setup(2400, 1);
        d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        m.advance(100 * 1024);
        assert!(!m.is_high());
        assert_eq!(m.utilization_pct(), 0);
    }

    #[test]
    fn monitor_threshold_behaviour() {
        let mut m = BandwidthMonitor::new(100, 1, 50);
        m.record(0, 60); // 60% busy in first window
        m.advance(100);
        assert_eq!(m.utilization_pct(), 60);
        assert!(m.is_high());
        m.advance(300); // two idle windows
        assert!(!m.is_high());
    }

    #[test]
    fn bank_level_parallelism_overlaps() {
        let (mut d, mut m) = setup(9600, 1);
        // Distinct rows map to distinct banks (row % banks): rows 0 and 1.
        let row_lines = 2048 / 64;
        let a1 = d.access(0, DramRequestKind::DemandRead, 0, &mut m);
        let a2 = d.access(row_lines, DramRequestKind::DemandRead, 0, &mut m);
        // Bank array times overlap; only the bus serializes, so the second
        // access finishes well before 2x the unloaded latency.
        assert!(a2.done_at < a1.done_at + d.unloaded_row_miss_latency());
    }
}
