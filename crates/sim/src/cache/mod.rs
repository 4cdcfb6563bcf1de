//! Set-associative cache model with MSHRs and pluggable replacement.
//!
//! The hierarchy built from this model mirrors Table 5 of the paper:
//! private L1D and L2 with LRU replacement, and a shared LLC running
//! SHiP (signature-based hit prediction, Wu et al. MICRO'11).
//!
//! Timing is "latency-tagged" rather than event-driven: every line carries a
//! `ready_at` cycle so that demands hitting an in-flight (e.g. prefetched)
//! line pay the residual latency — this is how accurate-but-late prefetches
//! are detected.

mod mshr;
mod replacement;

pub use mshr::MshrFile;
pub use replacement::ReplacementKind;

use replacement::ShipState;

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// The kind of request presented to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load from the core.
    DemandLoad,
    /// A demand store (read-for-ownership).
    DemandStore,
    /// A prefetch request.
    Prefetch,
    /// A writeback of a dirty line evicted from an upper level.
    Writeback,
}

impl AccessKind {
    /// Whether the access is a demand (load or store).
    pub fn is_demand(self) -> bool {
        matches!(self, Self::DemandLoad | Self::DemandStore)
    }
}

/// Result of probing a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is present.
    Hit {
        /// Cycle at which data is available (may be in the future for
        /// in-flight prefetches).
        ready_at: u64,
        /// `true` on the first demand touch of a prefetched line.
        was_prefetched: bool,
    },
    /// The line is absent.
    Miss,
}

/// Per-line bookkeeping kept out of the tag array so the per-access tag
/// scan touches nothing but a dense `u64` vector: 12 bytes, `ready_at`'s
/// low and high halves, then one word of `flags | rrpv << 8 | ship_sig <<
/// 16` (see [`LineRecord`]). A bare array rather than a struct so that
/// `vec![[0; 3]; n]` allocates it zeroed — a struct's `vec!` writes every
/// element, and pages of a large cache no run reaches would be resident.
type LineMeta = [u32; 3];

/// `LineMeta` flag: the line must be written back when evicted.
const DIRTY: u32 = 1;
/// `LineMeta` flag: a prefetch filled the line.
const PREFETCHED: u32 = 1 << 1;
/// `LineMeta` flag: a demand has touched the line.
const DEMANDED: u32 = 1 << 2;
const RRPV_SHIFT: u32 = 8;
const SIG_SHIFT: u32 = 16;
/// SRRIP's distant re-reference prediction: the RRPV of a victim.
const RRPV_DISTANT: u8 = 3;

/// The fields of a [`LineMeta`] record.
trait LineRecord {
    fn new(ready_at: u64, flags: u32, rrpv: u8, ship_sig: u16) -> Self;
    fn ready_at(&self) -> u64;
    fn set_ready_at(&mut self, ready_at: u64);
    fn has(&self, flag: u32) -> bool;
    fn rrpv(&self) -> u8;
    fn ship_sig(&self) -> u16;
    /// A hit: sets `flags` and predicts near re-reference (RRPV 0).
    fn touch(&mut self, flags: u32);
}

impl LineRecord for LineMeta {
    #[inline]
    fn new(ready_at: u64, flags: u32, rrpv: u8, ship_sig: u16) -> Self {
        let word = flags | u32::from(rrpv) << RRPV_SHIFT | u32::from(ship_sig) << SIG_SHIFT;
        [ready_at as u32, (ready_at >> 32) as u32, word]
    }

    #[inline]
    fn ready_at(&self) -> u64 {
        u64::from(self[0]) | u64::from(self[1]) << 32
    }

    #[inline]
    fn set_ready_at(&mut self, ready_at: u64) {
        [self[0], self[1]] = [ready_at as u32, (ready_at >> 32) as u32];
    }

    #[inline]
    fn has(&self, flag: u32) -> bool {
        self[2] & flag != 0
    }

    #[inline]
    fn rrpv(&self) -> u8 {
        (self[2] >> RRPV_SHIFT) as u8
    }

    #[inline]
    fn ship_sig(&self) -> u16 {
        (self[2] >> SIG_SHIFT) as u16
    }

    #[inline]
    fn touch(&mut self, flags: u32) {
        self[2] = (self[2] | flags) & !(0xff << RRPV_SHIFT);
    }
}

/// The flags an access of `kind` sets on the line it touches: a demand
/// marks it demanded, a store or a writeback dirty.
#[inline]
fn access_flags(kind: AccessKind) -> u32 {
    match kind {
        AccessKind::DemandLoad => DEMANDED,
        AccessKind::DemandStore => DEMANDED | DIRTY,
        AccessKind::Writeback => DIRTY,
        AccessKind::Prefetch => 0,
    }
}

/// SRRIP's victim in a full set, in closed form: the first distant way if
/// there is one; otherwise every way ages by what the oldest lacks of
/// [`RRPV_DISTANT`], and the first oldest way is the victim — the victim
/// and the RRPVs the aging loop (raise every way by one until some way is
/// distant) leaves, without the loop. The early exit first: a set usually
/// holds a distant way, and a full scan for the maximum costs more than
/// the exit's mispredicts (`llc_fill`, +20 % when every fill scanned).
#[inline]
fn srrip_victim(set: &mut [LineMeta]) -> usize {
    if let Some(w) = set.iter().position(|m| m.rrpv() == RRPV_DISTANT) {
        return w;
    }
    let (mut victim, mut oldest) = (0, 0);
    for (w, m) in set.iter().enumerate() {
        if m.rrpv() > oldest {
            (victim, oldest) = (w, m.rrpv());
        }
    }
    // No way passes 3, so no carry reaches `ship_sig`.
    let age = u32::from(RRPV_DISTANT - oldest) << RRPV_SHIFT;
    for m in set.iter_mut() {
        m[2] += age;
    }
    victim
}

/// A line evicted by a fill; dirty evictions become DRAM writebacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line index of the victim.
    pub line: u64,
    /// Whether the victim was dirty.
    pub dirty: bool,
    /// Whether the victim was a prefetched line that was never demanded
    /// (an overprediction; reported to the prefetcher as useless).
    pub unused_prefetch: bool,
}

/// A set-associative cache level.
///
/// Lines are stored structure-of-arrays style in flat, whole-cache
/// allocations: a dense tag vector (`tags`), a per-set validity bitmask
/// (`valid`), and the per-line metadata (`meta`) off the lookup path. The
/// way scan for a set therefore reads `ways` consecutive `u64`s from one
/// open-addressed tag array instead of chasing a per-set `Vec<Line>`
/// allocation — the hottest loop in the whole simulator.
///
/// A level stores only the state its replacement policy reads: 28 bytes
/// per line at an LRU level (tag, 12-byte record, LRU stamp) and 20 at a
/// SHiP level, which picks victims by RRPV and keeps no stamps; an LRU
/// level keeps no SHiP table. Every per-line array is allocated zeroed, so
/// building a level touches no page of it.
#[derive(Debug)]
pub struct Cache {
    name: &'static str,
    /// `tags[set * ways + way]`, meaningful where the valid bit is set.
    tags: Vec<u64>,
    /// Bit `way` of `valid[set]` ⇔ that slot holds a live line.
    valid: Vec<u64>,
    /// `meta[set * ways + way]`, parallel to `tags`.
    meta: Vec<LineMeta>,
    /// LRU stamps, parallel to `tags` at LRU levels and empty at SHiP
    /// ones; a dense vector of their own so the per-fill victim scan reads
    /// contiguous `u64`s.
    lru: Vec<u64>,
    sets: usize,
    /// Fast-path mask when the set count is a power of two; otherwise the
    /// index falls back to a modulo (e.g. the 24 MB LLC of a 12-core
    /// system has 24576 sets).
    set_mask: Option<u64>,
    ways: usize,
    /// One-entry most-recently-used lookup: `mru_line` is resident at flat
    /// slot `mru_slot` (an index into `tags`/`meta`/`lru`), or the slot is
    /// [`NO_SLOT`]. [`access`](Cache::access) consults it before
    /// `set_index` + `find_way` — consecutive element accesses touch the
    /// line the previous one did — and `fill`, the only writer of
    /// `tags`/`valid`, keeps it true.
    mru_line: u64,
    mru_slot: usize,
    latency: u64,
    /// The last LRU stamp written (LRU levels only).
    clock: u64,
    replacement: ReplacementKind,
    ship: ShipState,
    mshr: MshrFile,
    stats: CacheStats,
}

/// `mru_slot` value meaning "no line remembered".
const NO_SLOT: usize = usize::MAX;

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets, zero ways, or more
    /// ways than the per-set validity bitmask holds (64).
    pub fn new(name: &'static str, config: &CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0, "{name}: cache must have at least one set");
        assert!(
            (1..=64).contains(&config.ways),
            "{name}: ways must be in 1..=64"
        );
        let lines = sets * config.ways;
        let stamped = config.replacement == ReplacementKind::Lru;
        Self {
            name,
            tags: vec![0; lines],
            valid: vec![0; sets],
            meta: vec![[0; 3]; lines],
            lru: vec![0; if stamped { lines } else { 0 }],
            sets,
            set_mask: if sets.is_power_of_two() {
                Some(sets as u64 - 1)
            } else {
                None
            },
            ways: config.ways,
            mru_line: 0,
            mru_slot: NO_SLOT,
            latency: config.latency,
            clock: 0,
            replacement: config.replacement,
            ship: ShipState::for_level(config.replacement),
            mshr: MshrFile::new(config.mshrs),
            stats: CacheStats::default(),
        }
    }

    /// Hit latency of this level in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The cache's name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Immutable view of the accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (between warmup and measurement) without touching
    /// cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Read-only view of the miss registers.
    pub fn mshr(&self) -> &MshrFile {
        &self.mshr
    }

    /// Takes a miss register at `cycle` for a miss that completes at
    /// `completion`, returning the cycles it had to wait for one — booked
    /// in this level's statistics, so every report and every phase reset
    /// sees them.
    pub fn reserve(&mut self, cycle: u64, completion: u64) -> u64 {
        let wait = self.mshr.allocate(cycle, completion);
        self.stats.mshr_stalls += u64::from(wait > 0);
        self.stats.mshr_stall_cycles += wait;
        wait
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets as u64) as usize,
        }
    }

    /// Bitmask with one bit set per way.
    #[inline]
    fn full_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    /// Way currently holding `line` in `set_idx`, scanning the flat tag
    /// array (first match in way order, like the per-set linear scan this
    /// replaced). The comparison loop is branchless — it builds a match
    /// bitmask over all ways and lets the compiler vectorize it — because
    /// this runs once per cache access, the hottest loop in the simulator.
    #[inline]
    fn find_way(&self, set_idx: usize, line: u64) -> Option<usize> {
        let base = set_idx * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let mut matches = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            matches |= u64::from(t == line) << w;
        }
        matches &= self.valid[set_idx];
        if matches != 0 {
            Some(matches.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Flat slot (`set * ways + way`) currently holding `line`: the general
    /// lookup every path but the MRU lane of [`access`](Cache::access)
    /// takes, and the definition that lane is checked against.
    #[inline]
    fn find_slot(&self, line: u64) -> Option<usize> {
        let set_idx = self.set_index(line);
        self.find_way(set_idx, line)
            .map(|w| set_idx * self.ways + w)
    }

    /// Probes for `line` without modifying any state (for tests and
    /// diagnostics; the simulator asks with [`access`](Cache::access)).
    pub fn probe(&self, line: u64) -> bool {
        self.find_slot(line).is_some()
    }

    /// Accesses the cache at `cycle`. Updates replacement/dirty state and
    /// statistics, and returns whether the line was present.
    #[inline]
    pub fn access(&mut self, line: u64, kind: AccessKind, cycle: u64) -> Lookup {
        // Nine L1 accesses in ten: a demand load of the line the previous
        // access touched, already demanded, at an LRU level. Of everything
        // `access_general` does on a hit, only the stamp and two counters
        // can change then — `demanded` is set, a load dirties nothing,
        // `rrpv` is 0 at LRU levels, no prefetch is credited, SHiP is not
        // trained — so the lane does exactly that. Anything else (another
        // line, a store, a writeback, a prefetch, a prefetched line's first
        // demand, a SHiP level) takes the general path.
        let slot = self.mru_slot;
        if self.mru_line == line
            && slot != NO_SLOT
            && kind == AccessKind::DemandLoad
            && self.replacement == ReplacementKind::Lru
        {
            let meta = self.meta[slot];
            if meta.has(DEMANDED) {
                debug_assert_eq!(Some(slot), self.find_slot(line));
                self.clock += 1;
                self.lru[slot] = self.clock;
                self.stats.demand_loads += 1;
                self.stats.demand_load_hits += 1;
                return Lookup::Hit {
                    ready_at: meta.ready_at(),
                    was_prefetched: false,
                };
            }
        }
        self.access_general(line, kind, cycle)
    }

    /// Stamps `slot` most recently used, at LRU levels (a SHiP level keeps
    /// no stamps). Stamps only ever compare with each other, so the clock
    /// advances only when one is written.
    #[inline]
    fn stamp(&mut self, slot: usize) {
        if self.replacement == ReplacementKind::Lru {
            self.clock += 1;
            self.lru[slot] = self.clock;
        }
    }

    /// [`access`](Cache::access) for every kind of request and line: the
    /// definition its demand-load lane is checked against.
    fn access_general(&mut self, line: u64, kind: AccessKind, cycle: u64) -> Lookup {
        let found = if self.mru_line == line && self.mru_slot != NO_SLOT {
            debug_assert_eq!(Some(self.mru_slot), self.find_slot(line));
            Some(self.mru_slot)
        } else {
            self.find_slot(line)
        };
        match found {
            Some(slot_idx) => {
                self.mru_line = line;
                self.mru_slot = slot_idx;
                self.stamp(slot_idx);
                let slot = &mut self.meta[slot_idx];
                let first_demand_touch =
                    kind.is_demand() && slot.has(PREFETCHED) && !slot.has(DEMANDED);
                slot.touch(access_flags(kind));
                let (sig, ready_at) = (slot.ship_sig(), slot.ready_at());
                let late = first_demand_touch && ready_at > cycle;
                if self.replacement == ReplacementKind::Ship && kind.is_demand() {
                    self.ship.on_reuse(sig);
                }
                self.record_access(kind, true, first_demand_touch, late);
                Lookup::Hit {
                    ready_at,
                    was_prefetched: first_demand_touch,
                }
            }
            None => {
                self.record_access(kind, false, false, false);
                Lookup::Miss
            }
        }
    }

    #[inline]
    fn record_access(&mut self, kind: AccessKind, hit: bool, useful_prefetch: bool, late: bool) {
        let (hits, misses) = (u64::from(hit), u64::from(!hit));
        match kind {
            AccessKind::DemandLoad => {
                self.stats.demand_loads += 1;
                self.stats.demand_load_hits += hits;
                self.stats.demand_load_misses += misses;
            }
            AccessKind::DemandStore => {
                self.stats.demand_stores += 1;
                self.stats.demand_store_hits += hits;
                self.stats.demand_store_misses += misses;
            }
            AccessKind::Prefetch => {
                self.stats.prefetch_redundant += hits;
            }
            AccessKind::Writeback => {}
        }
        self.stats.useful_prefetches += u64::from(useful_prefetch);
        self.stats.late_prefetch_hits += u64::from(useful_prefetch && late);
    }

    /// Fills `line` into the cache, returning the eviction it caused (if the
    /// victim way held a valid line).
    ///
    /// `ready_at` is the cycle the data actually arrives (DRAM completion);
    /// `prefetched` marks prefetch fills for usefulness accounting;
    /// `pc_sig` is the SHiP signature (hash of the triggering PC).
    pub fn fill(
        &mut self,
        line: u64,
        ready_at: u64,
        kind: AccessKind,
        pc_sig: u16,
    ) -> Option<Eviction> {
        let set_idx = self.set_index(line);
        let base = set_idx * self.ways;

        // Fill into an existing copy (e.g. prefetch raced with demand): just
        // refresh readiness.
        if let Some(w) = self.find_way(set_idx, line) {
            let slot = &mut self.meta[base + w];
            slot.set_ready_at(slot.ready_at().min(ready_at));
            return None;
        }

        let way = self.choose_victim(set_idx);
        let replacement = self.replacement;
        let victim_valid = self.valid[set_idx] & (1 << way) != 0;
        let evicted = if victim_valid {
            let victim = self.meta[base + way];
            let dirty = victim.has(DIRTY);
            self.stats.evictions += 1;
            if dirty {
                self.stats.dirty_evictions += 1;
            }
            let unused_prefetch = victim.has(PREFETCHED) && !victim.has(DEMANDED);
            if unused_prefetch {
                self.stats.useless_prefetches += 1;
            }
            if replacement == ReplacementKind::Ship && !victim.has(DEMANDED) {
                // Line evicted without reuse: train SHCT down.
                self.ship.on_eviction_unused(victim.ship_sig());
            }
            Some(Eviction {
                line: self.tags[base + way],
                dirty,
                unused_prefetch,
            })
        } else {
            None
        };

        let prefetched = kind == AccessKind::Prefetch;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        let insert_rrpv = if replacement == ReplacementKind::Ship {
            self.ship.insertion_rrpv(pc_sig, prefetched)
        } else {
            0
        };
        self.tags[base + way] = line;
        self.valid[set_idx] |= 1 << way;
        if self.mru_slot == base + way {
            self.mru_slot = NO_SLOT;
        }
        self.stamp(base + way);
        let flags = access_flags(kind) | if prefetched { PREFETCHED } else { 0 };
        self.meta[base + way] = LineMeta::new(ready_at, flags, insert_rrpv, pc_sig);
        evicted
    }

    fn choose_victim(&mut self, set_idx: usize) -> usize {
        // Prefer invalid ways (lowest way index first, like the linear
        // position scan this replaced).
        let invalid = !self.valid[set_idx] & self.full_mask();
        if invalid != 0 {
            return invalid.trailing_zeros() as usize;
        }
        let set = set_idx * self.ways..(set_idx + 1) * self.ways;
        match self.replacement {
            ReplacementKind::Lru => self.lru[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, &l)| l)
                .map(|(w, _)| w)
                .expect("non-empty set"),
            ReplacementKind::Ship => srrip_victim(&mut self.meta[set]),
        }
    }

    /// Number of valid lines currently resident (for tests/diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Resident lines a prefetch filled and no demand has touched yet: the
    /// third way a prefetch fill can end, beside useful and useless (for
    /// the conservation audit).
    #[doc(hidden)]
    pub fn resident_unused_prefetches(&self) -> usize {
        let unused = |&(slot, m): &(usize, &LineMeta)| {
            let live = self.valid[slot / self.ways] >> (slot % self.ways) & 1 == 1;
            live && m.has(PREFETCHED) && !m.has(DEMANDED)
        };
        self.meta.iter().enumerate().filter(unused).count()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Bytes this level holds on the host, sized by its geometry: tags,
    /// validity words, line records, LRU stamps and the SHiP table (the
    /// miss registers are a few hundred bytes). Allocated, not resident:
    /// pages no fill has reached are never touched.
    #[doc(hidden)]
    pub fn host_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.tags.as_slice())
            + size_of_val(self.valid.as_slice())
            + size_of_val(self.meta.as_slice())
            + size_of_val(self.lru.as_slice())
            + self.ship.host_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(replacement: ReplacementKind) -> Cache {
        let cfg = CacheConfig {
            size_bytes: 4 * 64 * 2, // 4 sets x 2 ways
            ways: 2,
            latency: 4,
            mshrs: 4,
            replacement,
        };
        Cache::new("test", &cfg)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        assert_eq!(c.access(100, AccessKind::DemandLoad, 0), Lookup::Miss);
        c.fill(100, 10, AccessKind::DemandLoad, 0);
        match c.access(100, AccessKind::DemandLoad, 20) {
            Lookup::Hit { ready_at, .. } => assert_eq!(ready_at, 10),
            Lookup::Miss => panic!("expected hit"),
        }
        assert_eq!(c.stats().demand_loads, 2);
        assert_eq!(c.stats().demand_load_hits, 1);
        assert_eq!(c.stats().demand_load_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.fill(0, 0, AccessKind::DemandLoad, 0);
        c.fill(4, 0, AccessKind::DemandLoad, 0);
        // Touch line 0 so 4 is LRU.
        c.access(0, AccessKind::DemandLoad, 1);
        let ev = c.fill(8, 0, AccessKind::DemandLoad, 0).expect("eviction");
        assert_eq!(ev.line, 4);
        assert!(c.probe(0));
        assert!(c.probe(8));
        assert!(!c.probe(4));
    }

    #[test]
    fn useful_and_useless_prefetch_accounting() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        c.fill(0, 0, AccessKind::Prefetch, 0);
        c.fill(4, 0, AccessKind::Prefetch, 0);
        // Demand 0 -> useful, counted once.
        c.access(0, AccessKind::DemandLoad, 1);
        c.access(0, AccessKind::DemandLoad, 2);
        assert_eq!(c.stats().useful_prefetches, 1);
        // Evict 4 unused -> useless. Fill two more lines in set 0.
        c.fill(8, 0, AccessKind::DemandLoad, 0);
        c.fill(12, 0, AccessKind::DemandLoad, 0);
        assert_eq!(c.stats().useless_prefetches, 1);
        assert_eq!(c.stats().prefetch_fills, 2);
    }

    #[test]
    fn late_prefetch_detected() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        c.fill(0, 1000, AccessKind::Prefetch, 0);
        match c.access(0, AccessKind::DemandLoad, 500) {
            Lookup::Hit {
                ready_at,
                was_prefetched,
            } => {
                assert_eq!(ready_at, 1000);
                assert!(was_prefetched);
            }
            Lookup::Miss => panic!("expected hit"),
        }
        assert_eq!(c.stats().late_prefetch_hits, 1);
    }

    #[test]
    fn store_marks_dirty_and_writeback_on_eviction() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        c.fill(0, 0, AccessKind::DemandStore, 0);
        c.fill(4, 0, AccessKind::DemandLoad, 0);
        // Evict line 0 (LRU).
        let ev = c.fill(8, 0, AccessKind::DemandLoad, 0).expect("eviction");
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn prefetch_probe_redundant() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        c.fill(0, 0, AccessKind::DemandLoad, 0);
        assert!(matches!(
            c.access(0, AccessKind::Prefetch, 1),
            Lookup::Hit { .. }
        ));
        assert_eq!(c.stats().prefetch_redundant, 1);
    }

    #[test]
    fn ship_cache_basic_operation() {
        let mut c = tiny_cache(ReplacementKind::Ship);
        for i in 0..16u64 {
            c.access(i, AccessKind::DemandLoad, i);
            c.fill(i, i, AccessKind::DemandLoad, (i % 4) as u16);
        }
        // All sets full; cache still functions and evicts.
        assert_eq!(c.resident_lines(), c.capacity_lines());
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn reserve_books_the_wait_in_the_level_stats() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        for _ in 0..4 {
            assert_eq!(c.reserve(0, 100), 0);
        }
        assert_eq!(c.stats().mshr_stalls, 0);
        // The fifth miss at cycle 10 waits for the first register: 90 cycles.
        assert_eq!(c.reserve(10, 110), 90);
        assert_eq!(c.stats().mshr_stalls, 1);
        assert_eq!(c.stats().mshr_stall_cycles, 90);
        c.reset_stats();
        assert_eq!(c.stats().mshr_stalls, 0);
        assert_eq!(c.stats().mshr_stall_cycles, 0);
        assert_eq!(c.mshr().occupancy(10), c.mshr().capacity());
    }

    #[test]
    fn duplicate_fill_keeps_earliest_ready() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        c.fill(0, 100, AccessKind::Prefetch, 0);
        c.fill(0, 50, AccessKind::DemandLoad, 0);
        match c.access(0, AccessKind::DemandLoad, 0) {
            Lookup::Hit { ready_at, .. } => assert_eq!(ready_at, 50),
            Lookup::Miss => panic!("expected hit"),
        }
    }

    /// The MRU lane of `access` against `find_slot`, its definition, over
    /// random `access`/`fill`/`probe` sequences on the 4-set
    /// x 2-way cache: whenever an entry is remembered it must name the
    /// slot the tag scan finds, and every lookup outcome must be the tag
    /// scan's. Twelve lines over four two-way sets keep every set
    /// evicting, so the remembered slot is evicted and refilled with
    /// another line again and again (counted, so the test cannot pass
    /// vacuously).
    #[test]
    fn mru_lookup_matches_tag_scan_on_random_sequences() {
        for replacement in [ReplacementKind::Lru, ReplacementKind::Ship] {
            let mut c = tiny_cache(replacement);
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = |n: u64| {
                // xorshift64: deterministic, dependency-free.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let (mut mru_hits, mut mru_overwritten) = (0u32, 0u32);
            for cycle in 0..20_000u64 {
                // A third of the time the previous line again (as element
                // accesses do), a third another line of its set (so fills
                // contend for the remembered slot), a third anything.
                let line = match next(3) {
                    0 => c.mru_line,
                    1 => (c.mru_line + 4 * (1 + next(2))) % 12,
                    _ => next(12),
                };
                let remembered = (c.mru_slot != NO_SLOT).then_some((c.mru_line, c.mru_slot));
                match next(7) {
                    0..=3 => {
                        let expected = c.find_slot(line);
                        if remembered.is_some_and(|(l, _)| l == line) {
                            mru_hits += 1;
                        }
                        let got = c.access(line, AccessKind::DemandLoad, cycle);
                        assert_eq!(matches!(got, Lookup::Hit { .. }), expected.is_some());
                        if let Some(slot) = expected {
                            assert_eq!((c.mru_line, c.mru_slot), (line, slot));
                            if replacement == ReplacementKind::Lru {
                                assert_eq!(c.lru[slot], c.clock, "hit stamps the slot it found");
                            }
                        }
                    }
                    4..=5 => {
                        let fresh = c.find_slot(line).is_none();
                        c.fill(line, cycle, AccessKind::DemandLoad, (line % 4) as u16);
                        if let Some((l, slot)) = remembered {
                            if fresh && c.tags[slot] != l {
                                mru_overwritten += 1;
                                assert_eq!(c.mru_slot, NO_SLOT, "fill into the MRU slot clears it");
                            }
                        }
                    }
                    _ => assert_eq!(c.probe(line), c.find_slot(line).is_some()),
                }
                if c.mru_slot != NO_SLOT {
                    assert_eq!(c.find_slot(c.mru_line), Some(c.mru_slot), "cycle {cycle}");
                }
            }
            assert!(mru_hits > 1_000, "MRU lane barely exercised: {mru_hits}");
            assert!(
                mru_overwritten > 50,
                "MRU slot rarely refilled: {mru_overwritten}"
            );
        }
    }

    /// The demand-load lane of `access` against `access_general`, its
    /// definition: two caches fed one random sequence of loads, stores,
    /// writebacks, prefetch probes and demand and prefetch fills — one
    /// through `access`, one through `access_general` — must return the
    /// same lookups and hold the same stamps, line metadata, MRU entry and
    /// statistics after every operation. A third of the accesses repeat
    /// the previous line, so the lane runs constantly at the LRU level,
    /// and every reason to decline it comes up (counted, so the test
    /// cannot pass vacuously): a store, a writeback or a prefetch probe of
    /// the MRU line, a prefetched line's first demand, and a SHiP level.
    #[test]
    fn mru_demand_load_lane_matches_general_access() {
        for replacement in [ReplacementKind::Lru, ReplacementKind::Ship] {
            let mut lane = tiny_cache(replacement);
            let mut general = tiny_cache(replacement);
            let mut rng = 0x2545_f491_4f6c_dd1du64;
            let mut next = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let (mut taken, mut first_demand, mut other_kind) = (0u32, 0u32, 0u32);
            for cycle in 0..30_000u64 {
                let line = match next(3) {
                    0 => lane.mru_line,
                    _ => next(12),
                };
                match next(10) {
                    op @ 0..=6 => {
                        let kind = match op {
                            0..=3 => AccessKind::DemandLoad,
                            4 => AccessKind::DemandStore,
                            5 => AccessKind::Writeback,
                            _ => AccessKind::Prefetch,
                        };
                        if lane.mru_slot != NO_SLOT && lane.mru_line == line {
                            let demanded = lane.meta[lane.mru_slot].has(DEMANDED);
                            match (kind, demanded, replacement) {
                                (AccessKind::DemandLoad, true, ReplacementKind::Lru) => taken += 1,
                                (AccessKind::DemandLoad, false, _) => first_demand += 1,
                                (AccessKind::DemandLoad, ..) => {}
                                _ => other_kind += 1,
                            }
                        }
                        assert_eq!(
                            lane.access(line, kind, cycle),
                            general.access_general(line, kind, cycle),
                            "{kind:?} of line {line} at cycle {cycle}"
                        );
                    }
                    op => {
                        let kind = if op == 7 {
                            AccessKind::DemandLoad
                        } else {
                            AccessKind::Prefetch
                        };
                        // Ready in the future, so first demands are late.
                        let sig = (line % 4) as u16;
                        assert_eq!(
                            lane.fill(line, cycle + 50, kind, sig),
                            general.fill(line, cycle + 50, kind, sig)
                        );
                    }
                }
                assert_eq!(lane.clock, general.clock, "cycle {cycle}");
                assert_eq!(lane.lru, general.lru, "cycle {cycle}");
                assert_eq!(
                    (lane.mru_line, lane.mru_slot),
                    (general.mru_line, general.mru_slot)
                );
                assert_eq!(lane.stats, general.stats, "cycle {cycle}");
                assert_eq!(lane.meta, general.meta, "cycle {cycle}");
            }
            if replacement == ReplacementKind::Lru {
                assert!(taken > 2_000, "lane barely exercised: {taken}");
            } else {
                assert_eq!(taken, 0);
            }
            assert!(first_demand > 100, "few first demands: {first_demand}");
            assert!(other_kind > 500, "few non-load MRU accesses: {other_kind}");
        }
    }

    /// The SRRIP victim search as an aging loop — raise every way's RRPV by
    /// one, saturating at 3, until some way is distant, then take the first
    /// — kept as the definition [`srrip_victim`] is checked against.
    fn srrip_victim_by_aging(set: &mut [LineMeta]) -> usize {
        loop {
            if let Some(w) = set.iter().position(|m| m.rrpv() >= RRPV_DISTANT) {
                return w;
            }
            for m in set.iter_mut() {
                let rrpv = (m.rrpv() + 1).min(RRPV_DISTANT);
                *m = LineMeta::new(m.ready_at(), m[2] & 0xff, rrpv, m.ship_sig());
            }
        }
    }

    /// [`srrip_victim`] against the aging loop over random sets of 1..=64
    /// ways: the same victim, and the same records afterwards (RRPVs aged
    /// alike, every other field untouched). A set draws its RRPVs from a
    /// random range, so sets that are all distant and sets with no distant
    /// way both come up (counted, so the test cannot pass vacuously).
    #[test]
    fn srrip_closed_form_matches_the_aging_loop() {
        let mut rng = 0x6a09_e667_f3bc_c908u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let (mut all_distant, mut none_distant) = (0u32, 0u32);
        for _ in 0..20_000 {
            let ways = 1 + next(64) as usize;
            let lo = next(4) as u8;
            let hi = lo + next(4 - u64::from(lo)) as u8;
            let set: Vec<LineMeta> = (0..ways)
                .map(|_| {
                    let rrpv = lo + next(u64::from(hi - lo) + 1) as u8;
                    let flags = next(8) as u32;
                    LineMeta::new(next(u64::MAX), flags, rrpv, next(1 << 16) as u16)
                })
                .collect();
            all_distant += u32::from(set.iter().all(|m| m.rrpv() == RRPV_DISTANT));
            none_distant += u32::from(set.iter().all(|m| m.rrpv() < RRPV_DISTANT));
            let (mut closed, mut aged) = (set.clone(), set);
            assert_eq!(srrip_victim(&mut closed), srrip_victim_by_aging(&mut aged));
            assert_eq!(closed, aged);
        }
        assert!(all_distant > 1_000, "few all-distant sets: {all_distant}");
        assert!(none_distant > 5_000, "few sets to age: {none_distant}");
    }

    #[test]
    fn line_record_round_trips_every_field_at_full_width() {
        let ready_at = 1_234_567_890_123u64; // past 2^32, as defect waits run
        let mut m = LineMeta::new(ready_at, PREFETCHED | DIRTY, 2, 0xbeef);
        assert_eq!(std::mem::size_of::<LineMeta>(), 12);
        assert_eq!(
            (m.ready_at(), m.rrpv(), m.ship_sig()),
            (ready_at, 2, 0xbeef)
        );
        assert!(m.has(PREFETCHED) && m.has(DIRTY) && !m.has(DEMANDED));
        m.touch(access_flags(AccessKind::DemandLoad));
        assert_eq!((m.rrpv(), m.ship_sig()), (0, 0xbeef));
        assert!(m.has(PREFETCHED) && m.has(DIRTY) && m.has(DEMANDED));
        m.set_ready_at(u64::MAX - 1);
        assert_eq!(m.ready_at(), u64::MAX - 1);
        assert_eq!(
            m[2] >> SIG_SHIFT,
            0xbeef,
            "ready_at leaves the flag word alone"
        );
    }

    /// Per-line host bytes, validity words and the SHiP table excluded: a
    /// tag, a record and a stamp at LRU levels, no stamp at SHiP ones. A
    /// SHiP table only where SHiP runs.
    #[test]
    fn line_state_fits_the_byte_budget() {
        for (cfg, budget) in [
            (CacheConfig::l1d(), 28),
            (CacheConfig::l2(), 28),
            (CacheConfig::llc(1), 20),
            (CacheConfig::llc(4), 20),
        ] {
            let c = Cache::new("budget", &cfg);
            let lru = cfg.replacement == ReplacementKind::Lru;
            assert_eq!(c.ship.host_bytes() == 0, lru);
            let not_per_line = std::mem::size_of_val(c.valid.as_slice()) + c.ship.host_bytes();
            let per_line = (c.host_bytes() - not_per_line) as f64 / c.capacity_lines() as f64;
            assert!(per_line <= budget as f64, "{cfg:?}: {per_line} B per line");
        }
    }

    /// A level at the largest size `SystemConfig::validate` accepts
    /// allocates its per-line arrays zeroed and touches none of their pages
    /// (a struct-valued `vec!` once wrote all 256 MiB of its records). The
    /// smallest growth of three tries is kept: the other tests of this
    /// binary grow the same process meanwhile.
    #[cfg(target_os = "linux")]
    #[test]
    fn building_the_largest_valid_cache_touches_no_line_state() {
        fn rss_kib() -> u64 {
            let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
                .expect("a VmRSS line")
        }
        for replacement in [ReplacementKind::Lru, ReplacementKind::Ship] {
            let cfg = CacheConfig {
                size_bytes: crate::config::MAX_CACHE_BYTES,
                replacement,
                ..CacheConfig::llc(1)
            };
            let growth_kib = (0..3)
                .map(|_| {
                    let before = rss_kib();
                    let cache = std::hint::black_box(Cache::new("largest", &cfg));
                    let grown = rss_kib().saturating_sub(before);
                    drop(cache);
                    grown
                })
                .min()
                .expect("three tries");
            assert!(
                growth_kib < 16 << 10,
                "{replacement:?}: VmRSS grew {growth_kib} KiB"
            );
        }
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = tiny_cache(ReplacementKind::Lru);
        c.fill(0, 0, AccessKind::DemandLoad, 0);
        c.access(0, AccessKind::DemandLoad, 1);
        c.reset_stats();
        assert_eq!(c.stats().demand_loads, 0);
        assert!(c.probe(0));
    }
}
