//! System assembly and the simulation driver.
//!
//! A [`System`] holds 1–12 cores (each with a private L1D and L2, its own
//! trace, and its own prefetcher instance), a shared LLC, and the DRAM
//! subsystem. It is stepped by [`System::advance`], which runs the cores
//! until one of them retires up to its stop and returns that core; between
//! calls [`System::snapshot`] reads the statistics as of now and
//! [`System::reset_stats`] clears them. [`System::run`] is the paper's
//! methodology (§5) over those three: a warmup phase, a statistics reset,
//! then a measured phase, with each core's statistics taken when it retires
//! its measured-instruction budget; cores that exhaust their trace replay
//! it until every core has. [`run_windowed`] runs the same phases and
//! closes a telemetry [`WindowRow`] per core every so many instructions.
//!
//! # Data flow per retired memory instruction
//!
//! ```text
//! trace record → core model (ROB/LQ/SQ timing) → L1D → L2 ──→ LLC → DRAM
//!                                                      │
//!                                  prefetcher.on_demand_into(..) at the L2
//!                                  (L1-miss stream, §5.2); returned
//!                                  requests fill into L2 + LLC and
//!                                  are charged to the DRAM bus
//! ```
//!
//! Below the L1 a line — demanded or prefetched — moves by three verbs,
//! each written once: **reserve** ([`Cache::reserve`]: take a miss register
//! of Table 5's 16 / 32 / 64, book the wait in the level's own statistics),
//! **install** (fill a level and route its victim one level down: L1 → L2,
//! L2 → LLC, LLC → a DRAM write plus the unused-prefetch notification) and
//! **writeback** (a dirty victim hits and dirties the copy below, or is
//! installed there a hit latency later).
//!
//! Each core's prefetcher books ([`PrefetcherStats`]: requests issued,
//! useful and useless notices) are kept here, where those events are
//! delivered, as the caches keep theirs; a prefetcher never counts them.
//!
//! The DRAM [`BandwidthMonitor`] samples bus occupancy in fixed windows
//! and exposes the bucketed usage through [`SystemFeedback`] — the signal
//! Pythia's reward scheme consumes. Every structure is deterministic: the
//! same traces, configuration and prefetcher seeds produce a bit-identical
//! [`SimReport`] (pinned by `tests/determinism.rs` and relied upon by the
//! sweep engine's parallel==serial guarantee).
//!
//! Construction: [`System::new`] runs prefetcher-less; attach per-core
//! prefetchers with [`System::with_prefetchers`] (a factory keyed by core
//! index) or [`System::set_prefetcher`].

use crate::addr;
use crate::cache::{AccessKind, Cache, Eviction, Lookup};
use crate::config::SystemConfig;
use crate::cpu::CoreModel;
use crate::dram::{BandwidthMonitor, Dram, DramRequestKind};
use crate::prefetch::{
    DemandAccess, FillEvent, NoPrefetcher, PrefetchRequest, Prefetcher, SystemFeedback,
};
use crate::stats::{CacheStats, CoreStats, PrefetcherStats, SimReport};
use crate::trace::{TraceRecord, TraceSource};
use pythia_obs::window::WindowRecorder;
pub use pythia_obs::window::WindowRow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`s alive in this process. Each keeps a CPU busy while it runs,
/// so [`ReadAhead::wrap`](crate::trace::ReadAhead::wrap) starts a producer
/// only while a CPU is left over. A count, not a lock: `Relaxed`.
pub(crate) static SYSTEMS_ALIVE: AtomicUsize = AtomicUsize::new(0);

/// Records pulled from a core's [`TraceSource`] per refill: large enough
/// to amortize the virtual `refill` dispatch, small enough that the
/// buffer stays in L1.
const RECORD_BATCH: usize = 64;

struct CoreUnit {
    model: CoreModel,
    l1d: Cache,
    l2: Cache,
    prefetcher: Box<dyn Prefetcher>,
    /// The prefetcher's books: the requests it pushed and the useful /
    /// useless notices it was sent.
    pf_stats: PrefetcherStats,
    source: Box<dyn TraceSource>,
    /// Buffered trace records ([`RECORD_BATCH`] per refill, or a read-ahead
    /// source's whole batch) with a read cursor: the steady-state record
    /// fetch is an array read, not a virtual call.
    records: Vec<TraceRecord>,
    records_pos: usize,
    measure_start_cycle: u64,
}

impl CoreUnit {
    /// Refills the record buffer, wrapping the source at end of pass (the
    /// paper's replay methodology — cores wrap until their budget
    /// retires). The buffered stream is record-for-record identical to
    /// calling `source.next_record()` directly; a [`ReadAhead`] source
    /// swaps a whole batch of its own into the buffer.
    ///
    /// [`ReadAhead`]: crate::trace::ReadAhead
    #[cold]
    fn refill_records(&mut self) {
        self.records_pos = 0;
        if self.source.refill(&mut self.records, RECORD_BATCH) == 0 {
            // End of pass exactly at the buffer boundary: wrap.
            self.source.reset();
            let got = self.source.refill(&mut self.records, RECORD_BATCH);
            assert!(got > 0, "trace source must yield at least one record");
        }
    }

    /// Books a prefetched line evicted unused and tells the prefetcher.
    fn useless(&mut self, line: u64) {
        self.pf_stats.useless += 1;
        self.prefetcher.on_useless(line);
    }
}

/// A cache level as the miss path names it: the stepped core's private
/// L1D or L2, or the shared LLC.
#[derive(Clone, Copy)]
enum Level {
    L1,
    L2,
    Llc,
}

/// A complete simulated system.
pub struct System {
    config: SystemConfig,
    cores: Vec<CoreUnit>,
    llc: Cache,
    dram: Dram,
    monitor: BandwidthMonitor,
    /// The prefetch requests of one demand, reused across demands so the
    /// per-access path performs no heap allocation in steady state. One
    /// buffer per system is enough: a system steps one core at a time.
    requests: Vec<PrefetchRequest>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("llc", &self.llc.name())
            .finish_non_exhaustive()
    }
}

impl Drop for System {
    fn drop(&mut self) {
        SYSTEMS_ALIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

impl System {
    /// Builds a system running one trace source per core with no
    /// prefetching. Sources are pulled on demand — the system never holds
    /// a materialized trace, so peak memory is independent of trace
    /// length. Wrap an in-memory trace with
    /// [`VecSource`](crate::trace::VecSource) when needed.
    ///
    /// # Panics
    ///
    /// Panics if the number of sources does not match `config.cores`.
    /// A source that yields no records at all panics when first stepped.
    pub fn new(config: SystemConfig, sources: Vec<Box<dyn TraceSource>>) -> Self {
        assert_eq!(
            sources.len(),
            config.cores,
            "need exactly one trace per core ({} cores, {} sources)",
            config.cores,
            sources.len()
        );
        SYSTEMS_ALIVE.fetch_add(1, Ordering::Relaxed);
        let cores = sources
            .into_iter()
            .map(|source| CoreUnit {
                model: CoreModel::new(config.core),
                l1d: Cache::new("L1D", &config.l1d),
                l2: Cache::new("L2", &config.l2),
                prefetcher: Box::new(NoPrefetcher),
                pf_stats: PrefetcherStats::default(),
                source,
                records: Vec::with_capacity(RECORD_BATCH),
                records_pos: 0,
                measure_start_cycle: 0,
            })
            .collect();
        Self {
            cores,
            llc: Cache::new("LLC", &config.llc),
            dram: Dram::new(&config.dram),
            monitor: BandwidthMonitor::new(
                config.bandwidth_window_cycles,
                config.dram.channels,
                config.bandwidth_high_pct,
            ),
            requests: Vec::new(),
            config,
        }
    }

    /// Installs the same prefetcher (built per core by `factory`) on every
    /// core. Prefetchers sit at the L2, trained on the L1 miss stream.
    pub fn with_prefetchers(
        config: SystemConfig,
        sources: Vec<Box<dyn TraceSource>>,
        factory: impl Fn(usize) -> Box<dyn Prefetcher>,
    ) -> Self {
        let mut sys = Self::new(config, sources);
        for (i, core) in sys.cores.iter_mut().enumerate() {
            core.prefetcher = factory(i);
        }
        sys
    }

    /// Replaces the prefetcher on one core.
    pub fn set_prefetcher(&mut self, core: usize, prefetcher: Box<dyn Prefetcher>) {
        self.cores[core].prefetcher = prefetcher;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Every cache level — each core's L1D and L2, then the shared LLC —
    /// for the conservation audit (`tests/conservation.rs`).
    #[doc(hidden)]
    pub fn levels(&self) -> impl Iterator<Item = &Cache> {
        let private = self.cores.iter().flat_map(|c| [&c.l1d, &c.l2]);
        private.chain(std::iter::once(&self.llc))
    }

    fn feedback(&self) -> SystemFeedback {
        SystemFeedback {
            bandwidth_high: self.monitor.is_high(),
            bandwidth_utilization_pct: self.monitor.utilization_pct(),
        }
    }

    /// Executes one instruction on core `idx`.
    fn step_core(&mut self, idx: usize) {
        let core = &mut self.cores[idx];
        if core.records_pos == core.records.len() {
            core.refill_records();
        }
        // Read in place: a `TraceRecord` is 32 bytes and most of its
        // fields go unused on the plain path.
        let record = &core.records[core.records_pos];
        core.records_pos += 1;

        let mut mispredicted = false;
        if let Some(branch) = record.branch {
            mispredicted = branch.mispredicted;
            core.model.record_branch(mispredicted);
        }

        match record.mem {
            // Three instructions in four: no memory operation, so nothing
            // below the core model is involved.
            None => {
                core.model.dispatch_plain(mispredicted);
            }
            Some(mem) => {
                // The latency is computed at the core's current front-end
                // time and the instruction dispatched with it; structural
                // stalls only push the access later, which slightly
                // under-estimates queueing — consistently for all
                // prefetchers.
                let (pc, dependent) = (record.pc, record.depends_on_prev_load);
                let cycle = core.model.now();
                let latency = self.access_hierarchy(idx, pc, mem.addr, mem.is_write, cycle);
                let exec_latency = if mem.is_write { 1 } else { latency };
                self.cores[idx].model.dispatch(
                    exec_latency,
                    !mem.is_write,
                    mem.is_write,
                    dependent,
                    mispredicted,
                );
            }
        }
    }

    /// Performs a demand access through the hierarchy, returning its latency
    /// in cycles. Invokes the prefetcher on L1 misses and issues its
    /// requests.
    fn access_hierarchy(
        &mut self,
        idx: usize,
        pc: u64,
        byte_addr: u64,
        is_write: bool,
        cycle: u64,
    ) -> u64 {
        let line = addr::line_of(byte_addr);
        let kind = if is_write {
            AccessKind::DemandStore
        } else {
            AccessKind::DemandLoad
        };
        let pc_sig = ship_signature(pc);
        self.monitor.advance(cycle);

        let core = &mut self.cores[idx];
        if let Lookup::Hit { ready_at, .. } = core.l1d.access(line, kind, cycle) {
            return ready_at.max(cycle + core.l1d.latency()) - cycle;
        }

        // L1 miss: this is the prefetcher's training event (L2 demand).
        // `useful` is the first-touch bit of the level that hit.
        let l1_latency = core.l1d.latency();
        let l2_hit_at = cycle + l1_latency + core.l2.latency();
        let l2_lookup = core.l2.access(line, kind, cycle);
        let (data_ready, useful) = match l2_lookup {
            Lookup::Hit {
                ready_at,
                was_prefetched,
            } => (ready_at.max(l2_hit_at), was_prefetched),
            Lookup::Miss => match self.llc.access(line, kind, cycle) {
                Lookup::Hit {
                    ready_at,
                    was_prefetched,
                } => {
                    let data_ready = ready_at.max(l2_hit_at + self.llc.latency());
                    self.install(idx, Level::L2, line, data_ready, kind, pc_sig, cycle);
                    (data_ready, was_prefetched)
                }
                Lookup::Miss => {
                    let read = DramRequestKind::DemandRead;
                    let access = self.dram.access(line, read, cycle, &mut self.monitor);
                    let mut done = access.done_at + self.llc.latency();
                    done += self.llc.reserve(cycle, done);
                    done += self.cores[idx].l2.reserve(cycle, done);
                    self.install(idx, Level::Llc, line, done, kind, pc_sig, cycle);
                    self.install(idx, Level::L2, line, done, kind, pc_sig, cycle);
                    // Two asymmetries, kept as they are (ROADMAP item 5 (d)):
                    // the line reaches the LLC and the L2 at `done` and the
                    // core an L1 latency later, while a hit above installs
                    // at the core-arrival time; and this load never pays
                    // the L2's latency, which an LLC hit does.
                    (done + l1_latency, false)
                }
            },
        };

        // A third (ROADMAP item 5 (a)): a wait for an L1 register delays
        // the line, never the load that waited.
        let l1_wait = self.cores[idx].l1d.reserve(cycle, data_ready);
        self.install(
            idx,
            Level::L1,
            line,
            data_ready + l1_wait,
            kind,
            pc_sig,
            cycle,
        );

        // Train the prefetcher and issue its requests.
        let feedback = self.feedback();
        let access = DemandAccess {
            pc,
            addr: byte_addr,
            line,
            is_write,
            cycle,
            missed: l2_lookup == Lookup::Miss,
        };
        let mut requests = std::mem::take(&mut self.requests);
        requests.clear();
        let core = &mut self.cores[idx];
        if useful {
            core.pf_stats.useful += 1;
            core.prefetcher.on_useful_batch(&[line]);
        }
        core.prefetcher
            .on_demand_into(&access, &feedback, &mut requests);
        core.pf_stats.issued += requests.len() as u64;
        for req in requests.drain(..) {
            self.issue_prefetch(idx, req.line, req.fill_l2, pc_sig, cycle);
        }
        self.requests = requests;

        data_ready - cycle
    }

    /// Issues a single prefetch request into the hierarchy, asking each
    /// level once: a hit there is a redundant request, a miss only ticks
    /// the level's LRU clock.
    fn issue_prefetch(&mut self, idx: usize, line: u64, fill_l2: bool, pc_sig: u16, cycle: u64) {
        let kind = AccessKind::Prefetch;
        if fill_l2 && self.cores[idx].l2.access(line, kind, cycle) != Lookup::Miss {
            return;
        }
        let llc_latency = self.llc.latency();
        let ready_at = if self.llc.access(line, kind, cycle) != Lookup::Miss {
            if !fill_l2 {
                return;
            }
            let ready_at = cycle + llc_latency;
            self.install(idx, Level::L2, line, ready_at, kind, pc_sig, cycle);
            ready_at
        } else {
            let read = DramRequestKind::PrefetchRead;
            let access = self.dram.access(line, read, cycle, &mut self.monitor);
            let mut done = access.done_at + llc_latency;
            done += self.llc.reserve(cycle, done);
            self.install(idx, Level::Llc, line, done, kind, pc_sig, cycle);
            if fill_l2 {
                done += self.cores[idx].l2.reserve(cycle, done);
                // The one L2 fill whose unused victim the prefetcher hears
                // of (ROADMAP item 5 (c)).
                let victim = self.install(idx, Level::L2, line, done, kind, pc_sig, cycle);
                if let Some(ev) = victim.filter(|ev| ev.unused_prefetch) {
                    self.cores[idx].useless(ev.line);
                }
            }
            done
        };
        self.cores[idx].prefetcher.on_fill(&FillEvent {
            line,
            ready_at,
            prefetched: true,
        });
    }

    fn cache(&mut self, idx: usize, level: Level) -> &mut Cache {
        match level {
            Level::L1 => &mut self.cores[idx].l1d,
            Level::L2 => &mut self.cores[idx].l2,
            Level::Llc => &mut self.llc,
        }
    }

    /// Fills `line` into core `idx`'s `level` and routes the victim one
    /// level down: a dirty L1 victim is written back into the L2, a dirty
    /// L2 victim into the LLC (its PC stays behind), a dirty LLC victim is
    /// a DRAM write, and an LLC victim no demand ever touched is booked and
    /// reported as a useless prefetch — for every core's prefetcher, the
    /// LLC being shared. Returns the victim.
    #[allow(clippy::too_many_arguments)]
    fn install(
        &mut self,
        idx: usize,
        level: Level,
        line: u64,
        ready_at: u64,
        kind: AccessKind,
        pc_sig: u16,
        cycle: u64,
    ) -> Option<Eviction> {
        let ev = self.cache(idx, level).fill(line, ready_at, kind, pc_sig)?;
        match level {
            Level::L1 if ev.dirty => self.writeback(idx, Level::L2, ev.line, pc_sig, cycle),
            Level::L2 if ev.dirty => self.writeback(idx, Level::Llc, ev.line, 0, cycle),
            Level::Llc => {
                if ev.dirty {
                    let write = DramRequestKind::Write;
                    self.dram.access(ev.line, write, cycle, &mut self.monitor);
                }
                if ev.unused_prefetch {
                    for core in &mut self.cores {
                        core.useless(ev.line);
                    }
                }
            }
            _ => {}
        }
        Some(ev)
    }

    /// Writes a dirty victim back into `level`: a hit marks the resident
    /// copy dirty, a miss installs the line a hit latency from now.
    fn writeback(&mut self, idx: usize, level: Level, line: u64, pc_sig: u16, cycle: u64) {
        let kind = AccessKind::Writeback;
        let cache = self.cache(idx, level);
        if cache.access(line, kind, cycle) == Lookup::Miss {
            let ready_at = cycle + cache.latency();
            self.install(idx, level, line, ready_at, kind, pc_sig, cycle);
        }
    }

    /// Clears every statistic — the phase boundary between warmup and
    /// measurement. Timing state (clocks, cache contents, miss registers,
    /// the prefetchers' learned state) carries over, and each core's
    /// retired count and cycle count start again from zero.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.model.reset_stats();
            core.l1d.reset_stats();
            core.l2.reset_stats();
            core.pf_stats = PrefetcherStats::default();
            core.measure_start_cycle = core.model.now();
        }
        self.llc.reset_stats();
        self.dram.reset_stats();
        self.monitor.reset_stats();
    }

    /// Core `idx`'s statistics as of now, its cycles counted from the last
    /// [`System::reset_stats`]. A phase runs from the front-end clock at
    /// `reset_stats` to the front-end clock now, so the instructions still
    /// in the ROB at the two ends offset: the phase is charged the tail it
    /// inherited and not the one it leaves.
    fn core_stats(&self, idx: usize) -> CoreStats {
        let core = &self.cores[idx];
        let mut stats = *core.model.stats();
        stats.cycles = core.model.now() - core.measure_start_cycle;
        stats
    }

    /// Every statistic as of now, since the last [`System::reset_stats`]:
    /// a report of the run so far. Reads the system without changing it,
    /// so taking one between [`System::advance`] calls is invisible.
    pub fn snapshot(&self) -> SimReport {
        let mut dram = *self.dram.stats();
        dram.bw_bucket_windows = self.monitor.bucket_windows();
        SimReport {
            cores: (0..self.cores.len()).map(|i| self.core_stats(i)).collect(),
            l1d: self.cores.iter().map(|c| *c.l1d.stats()).collect(),
            l2: self.cores.iter().map(|c| *c.l2.stats()).collect(),
            llc: *self.llc.stats(),
            dram,
            prefetchers: self.cores.iter().map(|c| c.pf_stats).collect(),
        }
    }

    /// The next scheduling slice, [`pick`] over the cores' clocks.
    fn pick(&self) -> (usize, u64, u64) {
        pick(self.cores.iter().map(|c| c.model.now()))
    }

    /// Steps the cores until one whose retired count is below its entry in
    /// `stops` reaches it, and returns that core; returns `None`, without
    /// stepping, when no core is below its stop. A core at or past its stop
    /// still takes its turns, so the contention it exerts stays.
    ///
    /// Scheduling is slice-based but cycle-exact: instead of re-scanning
    /// every core clock per instruction, the chosen core keeps stepping
    /// while its clock provably keeps it the `min_by_key` winner (stepping
    /// a core only advances *its own* clock, so the rival minima are
    /// constants within a slice). The instruction interleaving is the
    /// per-instruction scan's, wherever the calls stop, while consecutive
    /// steps of one core amortize its agent dispatch, feature extraction
    /// and EQ probing across a hot slice.
    ///
    /// # Panics
    ///
    /// Panics unless there is one stop per core.
    pub fn advance(&mut self, stops: &[u64]) -> Option<usize> {
        assert_eq!(stops.len(), self.cores.len(), "need one stop per core");
        let below = |(core, &stop): (&CoreUnit, &u64)| core.model.retired() < stop;
        if !self.cores.iter().zip(stops).any(below) {
            return None;
        }
        loop {
            let (idx, lo, hi) = self.pick();
            let stop = stops[idx];
            loop {
                self.step_core(idx);
                // A step retires exactly one instruction, so a core reaches
                // its stop on the step that makes the two equal.
                let core = &self.cores[idx].model;
                if core.retired() == stop {
                    return Some(idx);
                }
                let now = core.now();
                if now >= lo || now > hi {
                    break;
                }
            }
        }
    }

    /// Runs `warmup` instructions per core, then clears the statistics:
    /// the phase both [`System::run`] and [`run_windowed`] start with. A
    /// core past its budget keeps stepping while others warm up (its extra
    /// instructions are warmup too).
    fn warm_up(&mut self, warmup: u64) {
        let stops = vec![warmup; self.cores.len()];
        while self.advance(&stops).is_some() {}
        self.reset_stats();
    }

    /// Runs `warmup` instructions per core, clears the statistics, then
    /// measures `measure` instructions per core, replaying traces as
    /// needed: [`System::advance`] to each phase's stops, with one
    /// [`System::reset_stats`] between the phases and each core's
    /// statistics taken as it returns at its budget. The rest of the
    /// report is the [`System::snapshot`] at the end, when the last core
    /// has retired its budget.
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero.
    pub fn run(&mut self, warmup: u64, measure: u64) -> SimReport {
        assert!(measure > 0, "measurement phase must be non-empty");
        self.warm_up(warmup);
        let stops = vec![measure; self.cores.len()];
        let mut cores = vec![CoreStats::default(); self.cores.len()];
        while let Some(idx) = self.advance(&stops) {
            cores[idx] = self.core_stats(idx);
        }
        SimReport {
            cores,
            ..self.snapshot()
        }
    }
}

/// Runs `system` as [`System::run`] does and returns the same report, with
/// windowed telemetry beside it: one [`WindowRow`] per core every `width`
/// measured instructions, plus a last partial one at the budget. A row
/// holds the window's instructions, cycles, IPC, L2 hit ratio and
/// prefetch coverage / accuracy / overprediction — the difference of two
/// [`System::snapshot`]s — and, for a learning prefetcher, the Q-value
/// spread and EQ occupancy of [`Prefetcher::telemetry_probe`]. The
/// windows only move where [`System::advance`] stops, so the report is
/// byte-identical to `run`'s.
///
/// # Panics
///
/// Panics if `measure` is zero.
pub fn run_windowed(
    system: &mut System,
    warmup: u64,
    measure: u64,
    width: u64,
) -> (SimReport, Vec<Vec<WindowRow>>) {
    assert!(measure > 0, "measurement phase must be non-empty");
    system.warm_up(warmup);
    let mut recorders: Vec<_> = system
        .cores
        .iter()
        .map(|_| WindowRecorder::new(width))
        .collect();
    let mut stops: Vec<u64> = recorders.iter().map(|r| r.end().min(measure)).collect();
    // The statistics at each core's last window boundary; each core's are
    // its budget's once it has returned there.
    let mut last = system.snapshot();
    let hits = |l2: &CacheStats| l2.demand_load_hits + l2.demand_store_hits;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    while let Some(idx) = system.advance(&stops) {
        let now = system.snapshot();
        let probe = system.cores[idx].prefetcher.telemetry_probe();
        let (core, l2, pf) = (now.cores[idx], now.l2[idx], now.prefetchers[idx]);
        let (was, was_l2, was_pf) = (last.cores[idx], last.l2[idx], last.prefetchers[idx]);
        let instructions = core.instructions - was.instructions;
        let cycles = core.cycles - was.cycles;
        let accesses = l2.demand_accesses() - was_l2.demand_accesses();
        let misses = l2.demand_misses() - was_l2.demand_misses();
        let (issued, useful) = (pf.issued - was_pf.issued, pf.useful - was_pf.useful);
        let useless = pf.useless - was_pf.useless;
        let (q_min, q_mean, q_max, eq_occupancy) = match probe {
            Some(p) => (
                p.q_min as f64,
                p.q_mean as f64,
                p.q_max as f64,
                ratio(p.eq_len as u64, p.eq_capacity as u64),
            ),
            None => (0.0, 0.0, 0.0, 0.0),
        };
        recorders[idx].close(
            core.instructions,
            vec![
                ("instructions", instructions as f64),
                ("cycles", cycles as f64),
                ("ipc", ratio(instructions, cycles)),
                ("l2_hit_ratio", ratio(hits(&l2) - hits(&was_l2), accesses)),
                ("coverage", ratio(useful, useful + misses)),
                ("accuracy", ratio(useful, issued)),
                ("overprediction", ratio(useless, issued)),
                ("q_min", q_min),
                ("q_mean", q_mean),
                ("q_max", q_max),
                ("eq_occupancy", eq_occupancy),
            ],
        );
        (last.cores[idx], last.l2[idx], last.prefetchers[idx]) = (core, l2, pf);
        stops[idx] = recorders[idx].end().min(measure);
    }
    let rows = recorders.into_iter().map(WindowRecorder::into_rows);
    let report = SimReport {
        cores: last.cores,
        ..system.snapshot()
    };
    (report, rows.collect())
}

/// One scheduling decision from the cores' clocks, in one pass: the core
/// to step — smallest clock, ties toward the lowest index — and the two
/// clocks it races against while it keeps the slot: the minimum over cores
/// *before* it, which it must stay strictly below, and the minimum over
/// cores *after* it, which it only has to stay at or below (`u64::MAX`
/// where there is no such core).
fn pick(clocks: impl Iterator<Item = u64>) -> (usize, u64, u64) {
    let (mut idx, mut best, mut lo, mut hi) = (0, u64::MAX, u64::MAX, u64::MAX);
    for (i, now) in clocks.enumerate() {
        if i == 0 || now < best {
            // Every earlier clock is at least the previous winner's, which
            // is therefore their minimum.
            (idx, lo, best, hi) = (i, best, now, u64::MAX);
        } else {
            hi = hi.min(now);
        }
    }
    (idx, lo, hi)
}

/// 14-bit SHiP signature from a PC.
fn ship_signature(pc: u64) -> u16 {
    let x = pc ^ (pc >> 14) ^ (pc >> 28);
    (x & 0x3fff) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::trace::{TraceRecord, VecSource};

    fn stream_trace(n: u64, base: u64) -> Box<dyn TraceSource> {
        VecSource::boxed(
            (0..n)
                .map(|i| TraceRecord::load(0x400000, base + i * 64))
                .collect(),
        )
    }

    /// `next_core` as it was before `pick` folded it in: the definition of
    /// who steps next.
    fn next_core_reference(clocks: &[u64]) -> usize {
        clocks
            .iter()
            .enumerate()
            .min_by_key(|&(_, &now)| now)
            .map(|(i, _)| i)
            .expect("at least one core")
    }

    /// `rival_clocks` as it was: the minima over the cores before and
    /// after `idx`.
    fn rival_clocks_reference(clocks: &[u64], idx: usize) -> (u64, u64) {
        let min_now = |clocks: &[u64]| clocks.iter().copied().min().unwrap_or(u64::MAX);
        (min_now(&clocks[..idx]), min_now(&clocks[idx + 1..]))
    }

    /// One pass against the three scans it replaced, over random clock
    /// vectors of 1–12 cores drawn from a range narrow enough that most
    /// vectors tie somewhere (counted).
    #[test]
    fn pick_matches_next_core_and_rival_clocks() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut tied_minimum = 0u32;
        for round in 0..20_000 {
            let cores = 1 + next(12) as usize;
            let spread = 1 + next(6);
            let base = next(1 << 40);
            let clocks: Vec<u64> = (0..cores).map(|_| base + next(spread)).collect();
            let idx = next_core_reference(&clocks);
            let (lo, hi) = rival_clocks_reference(&clocks, idx);
            assert_eq!(
                pick(clocks.iter().copied()),
                (idx, lo, hi),
                "round {round}: {clocks:?}"
            );
            // The tie rule the slice loop relies on: strictly below every
            // earlier core, at or below every later one.
            assert!(clocks[idx] < lo && clocks[idx] <= hi);
            tied_minimum += u32::from(clocks[idx] == hi);
        }
        assert!(tied_minimum > 2_000, "few tied minima: {tied_minimum}");
    }

    #[test]
    fn single_core_runs_and_reports() {
        let mut sys = System::new(
            SystemConfig::single_core(),
            vec![stream_trace(20_000, 0x1000_0000)],
        );
        let report = sys.run(2_000, 10_000);
        assert_eq!(report.cores.len(), 1);
        assert_eq!(report.cores[0].instructions, 10_000);
        assert!(report.cores[0].cycles > 0);
        assert!(report.cores[0].ipc() > 0.0);
        // A pure load stream misses the LLC constantly.
        assert!(report.llc.demand_load_misses > 0);
        assert!(report.dram.demand_reads > 0);
    }

    #[test]
    fn telemetry_windows_cover_the_measured_phase() {
        let mut sys = System::new(
            SystemConfig::single_core(),
            vec![stream_trace(20_000, 0x1000_0000)],
        );
        let (report, rows) = run_windowed(&mut sys, 2_000, 10_000, 2_500);
        assert_eq!(rows.len(), 1);
        let core_rows = &rows[0];
        // 10_000 instructions / 2_500 per window = 4 full windows.
        assert_eq!(core_rows.len(), 4);
        let total: f64 = core_rows
            .iter()
            .map(|r| {
                r.fields
                    .iter()
                    .find(|(k, _)| *k == "instructions")
                    .unwrap()
                    .1
            })
            .sum();
        assert_eq!(total as u64, report.cores[0].instructions);
        assert_eq!(core_rows.last().unwrap().at, 10_000);
    }

    #[test]
    fn telemetry_does_not_perturb_the_report() {
        let system = || {
            System::new(
                SystemConfig::single_core(),
                vec![stream_trace(20_000, 0x1000_0000)],
            )
        };
        let (windowed, _) = run_windowed(&mut system(), 2_000, 10_000, 1_000);
        let plain = system().run(2_000, 10_000);
        assert_eq!(format!("{plain:?}"), format!("{windowed:?}"));
    }

    /// ROADMAP item 5 (a). `access_hierarchy` adds the L1 MSHR
    /// wait to a `data_ready` it shadows inside the L1-fill block: the
    /// wait delays the line's `ready_at`, never the latency returned to
    /// the load that waited, so that load completes before a later hit on
    /// the line it fetched. Fails until the wait is charged (a fix moves
    /// golden digests, so it is its own PR); run with `--ignored`.
    #[test]
    #[ignore = "documents a suspected model bug; fails until access_hierarchy charges l1_wait"]
    fn l1_mshr_wait_is_charged_to_the_load_that_waited() {
        let cfg = SystemConfig::single_core();
        let registers = cfg.l1d.mshrs as u64;
        let mut sys = System::new(cfg, vec![stream_trace(1, 0)]);
        let addr = |i: u64| 0x1000_0000 + i * 64;
        // One DRAM miss per L1 MSHR, all issued at cycle 0.
        for i in 0..registers {
            sys.access_hierarchy(0, 0x400000, addr(i), false, 0);
        }
        assert_eq!(sys.cores[0].l1d.stats().mshr_stalls, 0);
        // The next miss has to wait for a register...
        let miss_latency = sys.access_hierarchy(0, 0x400000, addr(registers), false, 0);
        assert_eq!(sys.cores[0].l1d.stats().mshr_stalls, 1);
        // ...and a load of the same line in the same cycle hits it in flight.
        let hit_latency = sys.access_hierarchy(0, 0x400000, addr(registers) + 8, false, 0);
        assert!(
            miss_latency >= hit_latency,
            "the miss that fetched the line returned after {miss_latency} cycles, \
             a hit on that line after {hit_latency}"
        );
    }

    /// ROADMAP item 3. A miss that finds the L2's registers full books its
    /// DRAM request at the access cycle all the same, and the register
    /// wait is then added after the DRAM completion (`done += ...reserve`
    /// in `access_hierarchy`), so the wait stacks on the DRAM queueing
    /// instead of overlapping it. A demand that waits must see no more
    /// than that wait plus the latency of the same demand issued when a
    /// register frees. Fails until a miss takes its register before it
    /// goes to DRAM (a fix moves golden digests); run with `--ignored`.
    #[test]
    #[ignore = "documents a model defect (ROADMAP item 3); fails until a miss waits for its register before DRAM"]
    fn an_l2_register_wait_delays_the_request_not_its_completion() {
        let cfg = SystemConfig::single_core_with_mtps(150);
        let registers = cfg.l2.mshrs as u64;
        let l1_latency = cfg.l1d.latency;
        let addr = |i: u64| 0x1000_0000 + i * 64;
        // A burst of one DRAM miss per L2 register, all issued at cycle 0;
        // the first register frees when its line reaches the L2, an L1
        // latency before the load that took it completes.
        let burst = |sys: &mut System| {
            let latencies =
                (0..registers).map(|i| sys.access_hierarchy(0, 0x400000, addr(i), false, 0));
            latencies.min().expect("a burst") - l1_latency
        };
        let mut waited = System::new(cfg, vec![stream_trace(1, 0)]);
        let free = burst(&mut waited);
        let latency = waited.access_hierarchy(0, 0x400000, addr(registers), false, 0);
        assert_eq!(waited.cores[0].l2.stats().mshr_stalls, 1);
        assert_eq!(waited.cores[0].l2.stats().mshr_stall_cycles, free);
        // The same demand on the same burst, issued when a register frees.
        let mut at_free = System::new(cfg, vec![stream_trace(1, 0)]);
        assert_eq!(burst(&mut at_free), free);
        let unwaited = at_free.access_hierarchy(0, 0x400000, addr(registers), false, free);
        assert_eq!(at_free.cores[0].l2.stats().mshr_stalls, 0);
        assert!(
            latency <= free + unwaited,
            "the demand waited {free} cycles for a register and returned after \
             {latency}; issued when the register freed it takes {unwaited}"
        );
    }

    /// The waits a register file imposes are booked in the level's own
    /// statistics, so they reach the report and are cleared with everything
    /// else between the phases (until PR 23 `MshrFile` kept them to itself
    /// and every report said 0).
    #[test]
    fn mshr_stalls_reach_the_report_and_reset_with_the_phase() {
        let cfg = SystemConfig::single_core_with_mtps(150);
        let registers = cfg.l1d.mshrs as u64;
        let mut sys = System::new(cfg, vec![stream_trace(20_000, 0x1000_0000)]);
        // One DRAM miss per L1 MSHR and one more, all issued at cycle 0.
        for i in 0..=registers {
            sys.access_hierarchy(0, 0x400000, 0x2000_0000 + i * 64, false, 0);
        }
        let l1d = *sys.cores[0].l1d.stats();
        assert_eq!(l1d.mshr_stalls, 1);
        assert!(l1d.mshr_stall_cycles > 0);
        sys.reset_stats();
        assert_eq!(sys.cores[0].l1d.stats().mshr_stalls, 0);
        assert_eq!(sys.cores[0].l1d.stats().mshr_stall_cycles, 0);
        // A fresh line per load at 150 MTPS keeps every file full.
        let report = sys.run(2_000, 10_000);
        for (name, level) in [("L1D", &report.l1d[0]), ("L2", &report.l2[0])] {
            assert!(level.mshr_stalls > 0, "{name} never waited");
            assert!(level.mshr_stall_cycles >= level.mshr_stalls, "{name}");
        }
    }

    /// Issues (into the LLC only) a line far from anything demanded when
    /// `overshoots`.
    struct Overshoot {
        overshoots: bool,
    }

    impl Prefetcher for Overshoot {
        fn name(&self) -> &str {
            "overshoot"
        }
        fn on_demand_into(
            &mut self,
            access: &DemandAccess,
            _feedback: &SystemFeedback,
            out: &mut Vec<PrefetchRequest>,
        ) {
            if self.overshoots {
                out.push(PrefetchRequest::to_llc(access.line + (1 << 30)));
            }
        }
    }

    /// ROADMAP item 5 (c). An unused prefetch evicted from the shared
    /// LLC is reported to every core's prefetcher, not to the one that
    /// issued it: a core that never prefetches is told of useless
    /// prefetches, `cp_hw` and `power7` train on their neighbours'
    /// evictions, and every `prefetchers[i].useless` of a multi-core report
    /// counts all cores'. Fails until evictions are attributed (a fix moves
    /// every multi-core digest, so it is its own PR); run with `--ignored`.
    #[test]
    #[ignore = "documents a suspected model bug; fails until LLC evictions name their issuer"]
    fn an_unused_llc_prefetch_is_charged_to_the_core_that_issued_it() {
        let mut cfg = SystemConfig::with_cores(2);
        cfg.llc.size_bytes = 64 * 1024;
        let traces = (0..2)
            .map(|i| stream_trace(5_000, 0x4000_0000 + i * 0x100_0000))
            .collect();
        let mut sys = System::with_prefetchers(cfg, traces, |core| {
            Box::new(Overshoot {
                overshoots: core == 0,
            })
        });
        let report = sys.run(500, 4_000);
        assert!(report.llc.useless_prefetches > 0);
        assert_eq!(report.prefetchers[0].useless, report.llc.useless_prefetches);
        assert_eq!(
            report.prefetchers[1].useless, 0,
            "core 1 issued nothing and was told of {} useless prefetches",
            report.prefetchers[1].useless
        );
    }

    /// ROADMAP item 5 (3c). A core's statistics are taken when it retires
    /// its budget, as ChampSim takes them, but only its core counters are:
    /// its L1D, L2 and prefetcher books keep counting while it replays its
    /// trace for the cores still running, and the report carries the end
    /// of that tail. Fails until the report takes them at the budget too
    /// (a fix moves every multi-core digest); run with `--ignored`.
    #[test]
    #[ignore = "documents a model defect (ROADMAP item 5 (3c)); fails until a finished core's cache and prefetcher stats stop at its budget"]
    fn a_finished_cores_books_stop_at_its_budget() {
        let (warmup, measure) = (500, 4_000);
        let system = || {
            // Core 0 streams from DRAM; core 1 loops over a footprint that
            // misses the L1 and hits the L2, so it finishes first and keeps
            // training its prefetcher after.
            let lines = 2_048u64;
            let l2_resident = (0..20_000)
                .map(|i| TraceRecord::load(0x400000, 0x3000_0000 + (i % lines) * 64))
                .collect();
            let traces = vec![
                stream_trace(20_000, 0x4000_0000),
                VecSource::boxed(l2_resident),
            ];
            System::with_prefetchers(SystemConfig::with_cores(2), traces, |_| {
                Box::new(Overshoot { overshoots: true })
            })
        };
        let mut sys = system();
        while sys.advance(&[warmup; 2]).is_some() {}
        sys.reset_stats();
        let first = sys.advance(&[measure; 2]).expect("a core finishes");
        let at_budget = sys.snapshot();
        let report = system().run(warmup, measure);
        assert_eq!(report.cores[first], at_budget.cores[first]);
        assert_eq!(report.l1d[first], at_budget.l1d[first], "L1D");
        assert_eq!(report.l2[first], at_budget.l2[first], "L2");
        assert_eq!(report.prefetchers[first], at_budget.prefetchers[first]);
    }

    #[test]
    fn replay_wraps_short_traces() {
        let mut sys = System::new(
            SystemConfig::single_core(),
            vec![stream_trace(100, 0x2000_0000)],
        );
        let report = sys.run(0, 1_000);
        assert_eq!(report.cores[0].instructions, 1_000);
    }

    #[test]
    fn cache_hits_make_reuse_fast() {
        // Loop over a 16 KB footprint (fits in L1): second pass must be
        // nearly all hits.
        let lines = 256u64;
        let trace: Vec<TraceRecord> = (0..20_000)
            .map(|i| TraceRecord::load(0x400000, 0x3000_0000 + (i % lines) * 64))
            .collect();
        let mut sys = System::new(SystemConfig::single_core(), vec![VecSource::boxed(trace)]);
        let report = sys.run(2_000, 10_000);
        let l1 = &report.l1d[0];
        assert!(
            l1.demand_load_hits as f64 > 0.95 * l1.demand_loads as f64,
            "resident footprint should hit in L1: {:?}",
            l1
        );
        // And IPC should be far higher than a DRAM-bound stream.
        assert!(report.cores[0].ipc() > 1.0, "ipc={}", report.cores[0].ipc());
    }

    #[test]
    fn multi_core_shares_llc_and_dram() {
        let cfg = SystemConfig::with_cores(4);
        let traces = (0..4)
            .map(|i| stream_trace(5_000, 0x4000_0000 + i * 0x100_0000))
            .collect();
        let mut sys = System::new(cfg, traces);
        let report = sys.run(500, 2_000);
        assert_eq!(report.cores.len(), 4);
        for c in &report.cores {
            assert_eq!(c.instructions, 2_000);
            assert!(c.ipc() > 0.0);
        }
        assert!(report.dram.demand_reads > 0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = || {
            let mut sys = System::new(
                SystemConfig::single_core(),
                vec![stream_trace(10_000, 0x5000_0000)],
            );
            sys.run(1_000, 5_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        assert_eq!(a.llc, b.llc);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let _ = System::new(SystemConfig::with_cores(2), vec![stream_trace(10, 0)]);
    }

    #[test]
    fn lower_bandwidth_lowers_streaming_ipc() {
        let fast = {
            let mut sys = System::new(
                SystemConfig::single_core_with_mtps(9600),
                vec![stream_trace(30_000, 0x6000_0000)],
            );
            sys.run(2_000, 20_000).cores[0].ipc()
        };
        let slow = {
            let mut sys = System::new(
                SystemConfig::single_core_with_mtps(150),
                vec![stream_trace(30_000, 0x6000_0000)],
            );
            sys.run(2_000, 20_000).cores[0].ipc()
        };
        assert!(fast > slow * 1.5, "fast={fast} slow={slow}");
    }
}
