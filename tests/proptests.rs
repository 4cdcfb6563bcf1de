//! Property-based tests over the workspace's core data structures and
//! invariants (deliverable (c) of the reproduction): trace codecs, address
//! arithmetic, cache behaviour, the evaluation queue, the QVStore, and the
//! trace generators.

use proptest::prelude::*;

use pythia_core::eq::{EqEntry, EvaluationQueue};
use pythia_core::{PythiaConfig, QvStore, VaultCombine};
use pythia_sim::addr;
use pythia_sim::cache::{AccessKind, Cache, ReplacementKind};
use pythia_sim::config::CacheConfig;
use pythia_sim::trace::{
    Branch, FileTraceSource, MemOp, TraceFileError, TraceRecord, TraceSource, TraceWriter,
};
use pythia_workloads::generators::{PatternKind, TraceSpec};

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        any::<u64>(),
        proptest::option::of((any::<u64>(), any::<bool>())),
        proptest::option::of((any::<bool>(), any::<bool>())),
        any::<bool>(),
    )
        .prop_map(|(pc, mem, branch, dep)| TraceRecord {
            pc,
            mem: mem.map(|(addr, is_write)| MemOp { addr, is_write }),
            branch: branch.map(|(taken, mispredicted)| Branch {
                taken,
                mispredicted,
            }),
            depends_on_prev_load: dep,
        })
}

proptest! {
    #[test]
    fn trace_codec_roundtrips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let path = std::env::temp_dir().join(format!("pythia_prop_codec_{}.pytr", std::process::id()));
        let mut writer = TraceWriter::create(&path).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let decoded = FileTraceSource::open(&path)
            .map(|mut src| std::iter::from_fn(|| src.next_record()).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
        match decoded {
            Ok(decoded) => prop_assert_eq!(records, decoded),
            // A source is never empty: the one trace it refuses is the empty one.
            Err(e) => prop_assert!(records.is_empty() && matches!(e, TraceFileError::Empty), "{e}"),
        }
    }

    #[test]
    fn offset_page_invariant(line in 0u64..1u64 << 40, offset in -63i32..=63) {
        // offset_stays_in_page agrees with actually applying the offset.
        let stays = addr::offset_stays_in_page(line, offset);
        let target = addr::apply_offset(line, offset);
        if stays {
            prop_assert_eq!(addr::page_of_line(target), addr::page_of_line(line));
        }
        // Page offsets always land in [0, 64).
        prop_assert!(addr::page_offset_of_line(target) < 64);
    }

    #[test]
    fn cache_never_exceeds_capacity(
        lines in proptest::collection::vec(0u64..10_000, 1..400),
        ways in 1usize..8,
    ) {
        let cfg = CacheConfig {
            size_bytes: 64 * 64 * ways as u64, // 64 sets x ways
            ways,
            latency: 1,
            mshrs: 4,
            replacement: ReplacementKind::Lru,
        };
        let mut cache = Cache::new("prop", &cfg);
        for (i, &l) in lines.iter().enumerate() {
            cache.access(l, AccessKind::DemandLoad, i as u64);
            cache.fill(l, i as u64, AccessKind::DemandLoad, 0);
            prop_assert!(cache.resident_lines() <= cache.capacity_lines());
            prop_assert!(cache.probe(l), "line just filled must be resident");
        }
    }

    #[test]
    fn cache_stats_balance(
        lines in proptest::collection::vec(0u64..256, 1..300),
    ) {
        let cfg = CacheConfig {
            size_bytes: 16 * 64 * 2,
            ways: 2,
            latency: 1,
            mshrs: 4,
            replacement: ReplacementKind::Lru,
        };
        let mut cache = Cache::new("prop", &cfg);
        for (i, &l) in lines.iter().enumerate() {
            if matches!(cache.access(l, AccessKind::DemandLoad, i as u64), pythia_sim::cache::Lookup::Miss) {
                cache.fill(l, i as u64, AccessKind::DemandLoad, 0);
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.demand_loads, lines.len() as u64);
        prop_assert_eq!(s.demand_load_hits + s.demand_load_misses, s.demand_loads);
        prop_assert!(s.evictions <= s.demand_load_misses);
    }

    #[test]
    fn eq_capacity_and_fifo(
        capacity in 1usize..64,
        inserts in 1usize..200,
    ) {
        let mut eq = EvaluationQueue::new(capacity, 2);
        let mut evicted_order = Vec::new();
        for i in 0..inserts {
            let e = EqEntry::new(0, Some(i as u64), i as u64);
            let mut state = [i as u32, !(i as u32)];
            if let Some(ev) = eq.insert(e, &mut state) {
                // The evicted entry comes out with the state it went in
                // with, whichever slot the new entry took.
                let line = ev.prefetch_line.unwrap();
                prop_assert_eq!(state, [line as u32, !(line as u32)]);
                evicted_order.push(line);
            }
            prop_assert!(eq.len() <= capacity);
            let (head, head_state) = eq.head().unwrap();
            prop_assert_eq!(head_state[0] as u64, head.prefetch_line.unwrap());
        }
        // FIFO: evictions come out in insertion order.
        for (i, &l) in evicted_order.iter().enumerate() {
            prop_assert_eq!(l, i as u64);
        }
    }

    #[test]
    fn qvstore_argmax_in_range(
        updates in proptest::collection::vec(
            (0u64..1000, 0usize..16, -20i16..=20, 0u64..1000, 0usize..16),
            0..200,
        ),
        probe in 0u64..1000,
    ) {
        let cfg = PythiaConfig::basic();
        let mut store = QvStore::new(&cfg);
        for (v1, a1, r, v2, a2) in updates {
            let (s1, s2) = (hashed(&store, &[v1, v1 ^ 7]), hashed(&store, &[v2, v2 ^ 7]));
            store.sarsa_update(&s1, a1, r as f32, &s2, a2, 0.1, cfg.gamma);
        }
        let best = store.argmax(&hashed(&store, &[probe, probe ^ 7]));
        prop_assert!(best < cfg.actions.len());
    }

    #[test]
    fn qvstore_q_values_bounded(
        reward in -30i16..=30,
        n in 1u32..4000,
    ) {
        // Repeated identical updates converge within the theoretical bound
        // |Q| <= max(|init|, |r|/(1-gamma)) + slack.
        let cfg = PythiaConfig::basic();
        let mut store = QvStore::new(&cfg);
        let s = hashed(&store, &[42, 43]);
        for _ in 0..n {
            store.sarsa_update(&s, 3, reward as f32, &s, 3, 0.1, cfg.gamma);
        }
        let bound = (reward as f32 / (1.0 - cfg.gamma)).abs().max(cfg.q_init()) + 1.0;
        prop_assert!(store.q(&s, 3).abs() <= bound, "q={} bound={}", store.q(&s, 3), bound);
    }

    #[test]
    fn generated_traces_have_exact_length_and_bounds(
        seed in 0u64..1_000,
        pages in 1u64..256,
        n in 1usize..5_000,
        more in 1usize..3_000,
        pick in 0usize..7,
    ) {
        // The length is a budget, not part of the spec: a trace of `n`
        // records is the first `n` records of any longer one.
        let spec = TraceSpec::new(pattern_kinds().swap_remove(pick))
            .with_seed(seed)
            .with_footprint_pages(pages);
        let trace = spec.generate(n);
        prop_assert_eq!(trace.len(), n);
        prop_assert_eq!(&trace[..], &spec.generate(n + more)[..n]);
        let base = (seed % 1024 + 1) * 0x1_0000_0000;
        for r in &trace {
            if let Some(m) = r.mem {
                prop_assert!(m.addr >= base);
                prop_assert!(m.addr < base + pages * 4096 + 64);
            }
        }
    }

    #[test]
    fn all_pattern_kinds_generate(seed in 0u64..50) {
        for kind in pattern_kinds() {
            let t = TraceSpec::new(kind).with_seed(seed).generate(500);
            prop_assert_eq!(t.len(), 500);
            prop_assert!(t.iter().any(|r| r.mem.is_some()));
        }
    }
}

fn pattern_kinds() -> Vec<PatternKind> {
    vec![
        PatternKind::Stream { store_every: 3 },
        PatternKind::Stride { lines: 5 },
        PatternKind::PageVisit {
            offsets: vec![0, 11, 23],
        },
        PatternKind::DeltaChain {
            deltas: vec![1, 2, 3],
        },
        PatternKind::PointerChase,
        PatternKind::IrregularGraph {
            vertices: 10_000,
            avg_degree: 4,
        },
        PatternKind::CloudMix { hot_pct: 10 },
    ]
}

/// Reference model of one LRU set: lines kept in recency order (front =
/// least recently touched). Mirrors the cache's pinned semantics exactly:
/// a hit refreshes recency, a fill of a resident line does *not* (it only
/// refreshes readiness), and eviction picks the least recently touched
/// line once the set is full.
struct LruSetModel {
    ways: usize,
    lines: Vec<u64>,
}

impl LruSetModel {
    fn access(&mut self, line: u64) -> bool {
        match self.lines.iter().position(|&l| l == line) {
            Some(i) => {
                let l = self.lines.remove(i);
                self.lines.push(l);
                true
            }
            None => false,
        }
    }

    fn fill(&mut self, line: u64) -> Option<u64> {
        if self.lines.contains(&line) {
            return None; // duplicate fill: readiness refresh only
        }
        let victim = if self.lines.len() >= self.ways {
            Some(self.lines.remove(0))
        } else {
            None
        };
        self.lines.push(line);
        victim
    }
}

proptest! {
    #[test]
    fn lru_victim_matches_reference_model(
        ops in proptest::collection::vec((0u64..24, any::<bool>()), 1..400),
        ways in 2usize..8,
    ) {
        // Single-set cache so every line contends for the same ways.
        let cfg = CacheConfig {
            size_bytes: 64 * ways as u64,
            ways,
            latency: 1,
            mshrs: 4,
            replacement: ReplacementKind::Lru,
        };
        let mut cache = Cache::new("prop-lru", &cfg);
        let mut model = LruSetModel { ways, lines: Vec::new() };
        for (i, &(line, is_fill)) in ops.iter().enumerate() {
            if is_fill {
                let expected = model.fill(line);
                let got = cache.fill(line, i as u64, AccessKind::DemandLoad, 0);
                prop_assert_eq!(got.map(|e| e.line), expected,
                    "fill({}) victim mismatch at step {}", line, i);
            } else {
                let hit = model.access(line);
                let got = cache.access(line, AccessKind::DemandLoad, i as u64);
                prop_assert_eq!(
                    matches!(got, pythia_sim::cache::Lookup::Hit { .. }), hit,
                    "access({}) hit/miss mismatch at step {}", line, i);
            }
        }
    }

    #[test]
    fn srrip_eviction_invariants_hold(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..400),
        ways in 2usize..8,
    ) {
        // SHiP/SRRIP victim choice depends on internal SHCT state; pin the
        // structural invariants instead: capacity is never exceeded, a
        // filled line is immediately resident, the victim is never the
        // line being filled, and evictions only report lines that were
        // resident.
        let cfg = CacheConfig {
            size_bytes: 64 * ways as u64,
            ways,
            latency: 1,
            mshrs: 4,
            replacement: ReplacementKind::Ship,
        };
        let mut cache = Cache::new("prop-ship", &cfg);
        let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (i, &(line, is_fill)) in ops.iter().enumerate() {
            if is_fill {
                if let Some(ev) = cache.fill(line, i as u64, AccessKind::DemandLoad, (line % 7) as u16) {
                    prop_assert_ne!(ev.line, line, "victim is never the filled line");
                    prop_assert!(resident.remove(&ev.line), "evicted a non-resident line");
                }
                resident.insert(line);
                prop_assert!(cache.probe(line), "filled line must be resident");
            } else {
                let hit = matches!(
                    cache.access(line, AccessKind::DemandLoad, i as u64),
                    pythia_sim::cache::Lookup::Hit { .. }
                );
                prop_assert_eq!(hit, resident.contains(&line));
            }
            prop_assert!(cache.resident_lines() <= cache.capacity_lines());
        }
    }

    #[test]
    fn open_addressed_lookup_matches_linear_scan_model(
        lines in proptest::collection::vec(0u64..100_000, 1..500),
        probes in proptest::collection::vec(0u64..100_000, 1..100),
    ) {
        // The flat SoA tag path must agree, line for line, with a naive
        // resident-set model fed by the cache's own fill/eviction reports —
        // i.e. open-addressed lookup == linear scan over what is resident.
        let cfg = CacheConfig {
            size_bytes: 64 * 64 * 4, // 64 sets x 4 ways
            ways: 4,
            latency: 1,
            mshrs: 4,
            replacement: ReplacementKind::Lru,
        };
        let mut cache = Cache::new("prop-oa", &cfg);
        let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (i, &line) in lines.iter().enumerate() {
            if matches!(cache.access(line, AccessKind::DemandLoad, i as u64), pythia_sim::cache::Lookup::Miss) {
                if let Some(ev) = cache.fill(line, i as u64, AccessKind::DemandLoad, 0) {
                    prop_assert!(resident.remove(&ev.line));
                }
                resident.insert(line);
            }
        }
        for &p in &probes {
            prop_assert_eq!(cache.probe(p), resident.contains(&p),
                "probe({}) disagrees with the linear-scan model", p);
        }
        prop_assert_eq!(cache.resident_lines(), resident.len());
    }

    #[test]
    fn mshr_occupancy_and_wait_bounds(
        reqs in proptest::collection::vec((0u64..50, 1u64..400), 1..300),
        capacity in 1usize..64,
    ) {
        // Through `Cache::reserve`, which owns the file and books its waits.
        let mut cache = Cache::new("mshr", &CacheConfig { mshrs: capacity, ..CacheConfig::l2() });
        let mut cycle = 0u64;
        let mut last = (0u64, 0u64);
        for &(advance, latency) in &reqs {
            cycle += advance;
            let before = cache.mshr().occupancy(cycle);
            prop_assert!(before <= capacity, "occupancy bound violated");
            let wait = cache.reserve(cycle, cycle + latency);
            if before < capacity {
                prop_assert_eq!(wait, 0, "no wait while registers are free");
            }
            let now = (cache.stats().mshr_stalls, cache.stats().mshr_stall_cycles);
            prop_assert_eq!(now.0, last.0 + u64::from(wait > 0), "stall counted iff waited");
            prop_assert_eq!(now.1, last.1 + wait, "every waited cycle booked");
            last = now;
            prop_assert!(cache.mshr().occupancy(cycle) <= capacity);
        }
        // Far in the future, everything retires.
        prop_assert_eq!(cache.mshr().occupancy(u64::MAX), 0);
    }
}

// `dispatch_plain(m)` is the short path for three instructions in
// four; the general `dispatch` stays its definition. Two cores fed the
// same random plain/load/store/dependent/mispredict sequence — one
// routing plain instructions through the lane — must agree on every
// observable after every instruction, on small queues (which stall
// constantly) and on the Table 5 core alike.
proptest! {
    #[test]
    fn dispatch_plain_matches_general_dispatch(
        ops in proptest::collection::vec((0u32..10, 1u64..400, any::<bool>(), any::<bool>()), 1..600),
        small in any::<bool>(),
    ) {
        use pythia_sim::config::CoreConfig;
        use pythia_sim::cpu::CoreModel;
        let cfg = if small {
            CoreConfig { width: 2, rob_entries: 6, lq_entries: 2, sq_entries: 2, mispredict_penalty: 5 }
        } else {
            CoreConfig::default()
        };
        let mut lane = CoreModel::new(cfg);
        let mut general = CoreModel::new(cfg);
        for (i, &(class, latency, dependent, mispredicted)) in ops.iter().enumerate() {
            let (at_lane, at_general) = match class {
                // The suites' mix: 3 loads, 1 store, 6 plain (branches among them).
                0..=2 => (
                    lane.dispatch(latency, true, false, dependent, mispredicted),
                    general.dispatch(latency, true, false, dependent, mispredicted),
                ),
                3 => (
                    lane.dispatch(1, false, true, false, mispredicted),
                    general.dispatch(1, false, true, false, mispredicted),
                ),
                _ => (
                    lane.dispatch_plain(mispredicted),
                    general.dispatch(1, false, false, false, mispredicted),
                ),
            };
            prop_assert_eq!(at_lane, at_general, "dispatch cycle at step {}", i);
            prop_assert_eq!(lane.now(), general.now(), "now at step {}", i);
            prop_assert_eq!(lane.retired(), general.retired());
            prop_assert_eq!(lane.retire_timestamp(), general.retire_timestamp(), "retire at step {}", i);
            prop_assert_eq!(lane.stats(), general.stats());
        }
        prop_assert_eq!(lane.drain(), general.drain());
    }
}

/// The core model's clocks as they were written before they became
/// arithmetic: one branch per decision (retire-slot roll-over, the bump to
/// the head's completion, the stall catching the front-end up, the
/// front-end slot roll-over, the mispredict bubble). The definition
/// `CoreModel`'s selects are checked against.
struct BranchyCore {
    cfg: pythia_sim::config::CoreConfig,
    /// `(completion, is_load, is_store)` in program order.
    rob: std::collections::VecDeque<(u64, bool, bool)>,
    loads_in_flight: usize,
    stores_in_flight: usize,
    fetch_cycle: u64,
    fetch_slots_used: u32,
    retire_cycle: u64,
    retire_slots_used: u32,
    last_load_completion: u64,
    stats: pythia_sim::stats::CoreStats,
}

impl BranchyCore {
    fn new(cfg: pythia_sim::config::CoreConfig) -> Self {
        Self {
            cfg,
            rob: std::collections::VecDeque::new(),
            loads_in_flight: 0,
            stores_in_flight: 0,
            fetch_cycle: 0,
            fetch_slots_used: 0,
            retire_cycle: 0,
            retire_slots_used: 0,
            last_load_completion: 0,
            stats: Default::default(),
        }
    }

    fn retire_one(&mut self) {
        let (completion, is_load, is_store) = self.rob.pop_front().expect("retire from empty ROB");
        if self.retire_slots_used >= self.cfg.width {
            self.retire_cycle += 1;
            self.retire_slots_used = 0;
        }
        if completion > self.retire_cycle {
            self.retire_cycle = completion;
            self.retire_slots_used = 0;
        }
        self.retire_slots_used += 1;
        if is_load {
            self.loads_in_flight -= 1;
        }
        if is_store {
            self.stores_in_flight -= 1;
        }
    }

    fn dispatch(
        &mut self,
        exec_latency: u64,
        is_load: bool,
        is_store: bool,
        dependent_on_load: bool,
        mispredicted_branch: bool,
    ) -> u64 {
        while self.rob.len() >= self.cfg.rob_entries
            || (is_load && self.loads_in_flight >= self.cfg.lq_entries)
            || (is_store && self.stores_in_flight >= self.cfg.sq_entries)
        {
            self.retire_one();
            if self.fetch_cycle < self.retire_cycle {
                self.fetch_cycle = self.retire_cycle;
                self.fetch_slots_used = 0;
            }
        }
        if dependent_on_load && self.last_load_completion > self.fetch_cycle {
            self.fetch_cycle = self.last_load_completion;
            self.fetch_slots_used = 0;
        }
        let dispatch_at = self.fetch_cycle;
        let completion = dispatch_at + exec_latency;
        self.rob.push_back((completion, is_load, is_store));
        if is_load {
            self.loads_in_flight += 1;
            self.stats.loads += 1;
            self.last_load_completion = completion;
        }
        if is_store {
            self.stores_in_flight += 1;
            self.stats.stores += 1;
        }
        self.stats.instructions += 1;
        self.fetch_slots_used += 1;
        if self.fetch_slots_used >= self.cfg.width {
            self.fetch_cycle += 1;
            self.fetch_slots_used = 0;
        }
        if mispredicted_branch {
            self.fetch_cycle += self.cfg.mispredict_penalty;
            self.fetch_slots_used = 0;
        }
        dispatch_at
    }

    fn drain(&mut self) -> u64 {
        while !self.rob.is_empty() {
            self.retire_one();
        }
        self.retire_cycle.max(self.fetch_cycle)
    }
}

// `CoreModel` advances its clocks by select and arithmetic; the branchy
// reference above is what that must compute. Random latencies 1–400
// (so heads are often still executing at retirement), bursts of loads
// and of stores (LQ/SQ-full retire loops), dependent loads and
// mispredicts, on queues that stall constantly and on the Table 5 core:
// every observable equal after every instruction.
proptest! {
    #[test]
    fn arithmetic_retire_matches_branchy_reference(
        ops in proptest::collection::vec(
            (0u32..10, 1u64..400, any::<bool>(), 0u32..12, 1usize..12),
            1..400,
        ),
        small in any::<bool>(),
    ) {
        use pythia_sim::config::CoreConfig;
        use pythia_sim::cpu::CoreModel;
        let cfg = if small {
            CoreConfig { width: 2, rob_entries: 6, lq_entries: 2, sq_entries: 2, mispredict_penalty: 5 }
        } else {
            CoreConfig::default()
        };
        let mut core = CoreModel::new(cfg);
        let mut reference = BranchyCore::new(cfg);
        let mut step = 0usize;
        for &(class, latency, dependent, mispredict_roll, burst) in &ops {
            let mispredicted = mispredict_roll == 0;
            // One op in ten is a burst of one memory class, long enough
            // on the small core — and, for loads, at the suites' 72-entry
            // LQ share of a full ROB — to fill its queue.
            let repeat = if class == 9 { burst * 8 } else { 1 };
            for _ in 0..repeat {
                let (at, expected) = match class {
                    0..=2 | 9 => (
                        core.dispatch(latency, true, false, dependent, mispredicted),
                        reference.dispatch(latency, true, false, dependent, mispredicted),
                    ),
                    3 => (
                        core.dispatch(1, false, true, false, mispredicted),
                        reference.dispatch(1, false, true, false, mispredicted),
                    ),
                    _ => (
                        core.dispatch_plain(mispredicted),
                        reference.dispatch(1, false, false, false, mispredicted),
                    ),
                };
                prop_assert_eq!(at, expected, "dispatch cycle at step {}", step);
                prop_assert_eq!(core.now(), reference.fetch_cycle, "now at step {}", step);
                prop_assert_eq!(
                    core.retire_timestamp(),
                    reference.retire_cycle,
                    "retire timestamp at step {}",
                    step
                );
                prop_assert_eq!(core.stats(), &reference.stats, "stats at step {}", step);
                step += 1;
            }
        }
        prop_assert_eq!(core.drain(), reference.drain());
    }
}

/// A state vector (one feature value per vault) as `store` reads it.
fn hashed(store: &QvStore, state: &[u64]) -> Vec<u32> {
    let mut bases = vec![0; store.cells()];
    store.hash(state.iter().copied(), &mut bases);
    bases
}

/// Slow f64 reference model of the QVStore: the same plane hash
/// ([`pythia_core::qvstore::plane_slot`]) and layout, but double-precision
/// cells and no integer lanes — the oracle the Q8.7 fixed-point
/// implementation must track within quantization tolerance. Max vault combine (the
/// paper's default, which `PythiaConfig::basic()` selects).
struct QvModelF64 {
    planes: usize,
    index_bits: u32,
    /// Sparse cell overrides keyed by `(vault, plane, slot, action)`;
    /// untouched cells hold `init`.
    cells: std::collections::HashMap<(usize, usize, usize, usize), f64>,
    init: f64,
}

impl QvModelF64 {
    fn new(cfg: &PythiaConfig) -> Self {
        Self {
            planes: cfg.planes,
            index_bits: cfg.plane_index_bits,
            cells: std::collections::HashMap::new(),
            // The store quantizes its per-plane init; start from the same
            // value so the models agree exactly at t=0.
            init: f64::from(pythia_core::qvstore::quantize(
                cfg.q_init() / cfg.planes as f32,
            )),
        }
    }

    fn cell(&self, vault: usize, plane: usize, value: u64, action: usize) -> f64 {
        let slot = pythia_core::qvstore::plane_slot(value, plane, self.index_bits);
        *self
            .cells
            .get(&(vault, plane, slot, action))
            .unwrap_or(&self.init)
    }

    fn q(&self, state: &[u64], action: usize) -> f64 {
        state
            .iter()
            .enumerate()
            .map(|(v, &value)| {
                (0..self.planes)
                    .map(|p| self.cell(v, p, value, action))
                    .sum::<f64>()
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The SARSA update in f64, with α and γ pre-quantized to the same
    /// 1/2¹⁶ grid the fixed-point path uses (so the only divergence left
    /// is the store's per-plane Q8.7 write-back rounding).
    #[allow(clippy::too_many_arguments)]
    fn sarsa(
        &mut self,
        s1: &[u64],
        a1: usize,
        r: f64,
        s2: &[u64],
        a2: usize,
        alpha: f64,
        gamma: f64,
    ) {
        let gamma_q = (gamma * 65536.0).round() / 65536.0;
        let per_plane_rate = (alpha / self.planes as f64 * 65536.0).round() / 65536.0;
        let delta = r + gamma_q * self.q(s2, a2) - self.q(s1, a1);
        let step = per_plane_rate * delta;
        let (floor, cap) = (
            f64::from(i16::MIN) / f64::from(pythia_core::qvstore::Q_ONE),
            f64::from(i16::MAX) / f64::from(pythia_core::qvstore::Q_ONE),
        );
        for (v, &value) in s1.iter().enumerate() {
            for p in 0..self.planes {
                let slot = pythia_core::qvstore::plane_slot(value, p, self.index_bits);
                let cell = self.cells.entry((v, p, slot, a1)).or_insert(self.init);
                *cell = (*cell + step).clamp(floor, cap);
            }
        }
    }
}

proptest! {
    #[test]
    fn fixed_point_sarsa_tracks_f64_reference(
        updates in proptest::collection::vec(
            (0u64..40, 0usize..16, -20i16..=20, 0u64..40, 0usize..16),
            1..60,
        ),
        alpha_pct in 5u32..30,
    ) {
        let cfg = PythiaConfig::basic();
        let alpha = alpha_pct as f32 / 100.0;
        let mut store = QvStore::new(&cfg);
        let mut model = QvModelF64::new(&cfg);
        for &(v1, a1, r, v2, a2) in &updates {
            let (s1, s2) = ([v1, v1 ^ 7], [v2, v2 ^ 7]);
            let (b1, b2) = (hashed(&store, &s1), hashed(&store, &s2));
            store.sarsa_update(&b1, a1, r as f32, &b2, a2, alpha, cfg.gamma);
            model.sarsa(&s1, a1, r as f64, &s2, a2, alpha as f64, cfg.gamma as f64);
        }
        // Each update's per-plane write-back rounds to the Q8.7 grid
        // (≤ half an LSB per plane); allow that per update plus slack for
        // the TD-error feedback of the accumulated drift.
        let tol = (updates.len() as f64 + 1.0)
            * cfg.planes as f64
            * (f64::from(pythia_core::qvstore::Q_ONE).recip())
            + 0.2;
        for &(v1, _, _, v2, _) in &updates {
            for probe in [[v1, v1 ^ 7], [v2, v2 ^ 7]] {
                for a in 0..cfg.actions.len() {
                    let got = f64::from(store.q(&hashed(&store, &probe), a));
                    let want = model.q(&probe, a);
                    prop_assert!(
                        (got - want).abs() <= tol,
                        "q({probe:?}, {a}): fixed-point {got} vs f64 reference {want}, tol {tol}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_point_argmax_matches_float_row_scan(
        updates in proptest::collection::vec(
            (0u64..60, 0usize..127, -20i16..=20),
            0..120,
        ),
        probes in proptest::collection::vec(0u64..200, 1..30),
        full_list in any::<bool>(),
        mean in any::<bool>(),
    ) {
        // The basic 16-action list is one full group of 16 lanes; the full
        // 127-action list ends in a group of 15 live lanes and one pad.
        let mut cfg = if full_list {
            PythiaConfig::basic().with_actions(PythiaConfig::full_actions())
        } else {
            PythiaConfig::basic()
        };
        cfg.vault_combine = if mean { VaultCombine::Mean } else { VaultCombine::Max };
        let n_actions = cfg.actions.len();
        let mut store = QvStore::new(&cfg);
        for &(v, a, r) in &updates {
            let s = hashed(&store, &[v, v ^ 7]);
            store.sarsa_update(&s, a % n_actions, r as f32, &s, a % n_actions, 0.2, cfg.gamma);
        }
        for &p in &probes {
            let state = [p, p ^ 7];
            let probe = hashed(&store, &state);
            let best = store.argmax(&probe);
            // Exact agreement with a scalar scan of the float row,
            // including the lowest-index tie-break. The row combines the
            // per-vault feature Q-values; Mean as their sum, which orders
            // like the mean (`q` rounds the mean, so it can tie two sums).
            let row: Vec<f32> = (0..n_actions)
                .map(|a| {
                    let vaults = [0, 1].map(|v| store.feature_q(v, state[v], a));
                    if mean { vaults[0] + vaults[1] } else { vaults[0].max(vaults[1]) }
                })
                .collect();
            let mut scan = 0usize;
            for (a, &q) in row.iter().enumerate().skip(1) {
                if q > row[scan] {
                    scan = a;
                }
            }
            prop_assert_eq!(best, scan, "probe {:?}: row {:?}", probe, row);
            // `q` reads the same combined value, so the chosen action
            // tops its row too.
            let top = (0..n_actions).map(|a| store.q(&probe, a)).fold(f32::MIN, f32::max);
            prop_assert_eq!(store.q(&probe, best), top);
        }
    }

    #[test]
    fn fixed_point_saturation_never_wraps(
        updates in proptest::collection::vec(
            (0u64..10, 0usize..16, any::<bool>(), 10_000u32..1_000_000),
            1..200,
        ),
        alpha_pct in 10u32..=100,
    ) {
        // Enormous α·δ products must pin partials at the i16 rails, never
        // wrap past them: the combined Q stays inside the representable
        // window after every single update.
        let cfg = PythiaConfig::basic();
        let alpha = alpha_pct as f32 / 100.0;
        let cap = cfg.planes as f32 * f32::from(i16::MAX) / pythia_core::qvstore::Q_ONE as f32;
        let floor = cfg.planes as f32 * f32::from(i16::MIN) / pythia_core::qvstore::Q_ONE as f32;
        let mut store = QvStore::new(&cfg);
        for &(v, a, negative, magnitude) in &updates {
            let r = if negative { -(magnitude as f32) } else { magnitude as f32 };
            let s = [v, v ^ 7];
            let b = hashed(&store, &s);
            store.sarsa_update(&b, a, r, &b, a, alpha, cfg.gamma);
            let q = store.q(&b, a);
            prop_assert!(
                (floor..=cap).contains(&q),
                "q({s:?}, {a}) = {q} escaped [{floor}, {cap}] after reward {r}"
            );
            for (vault, &value) in s.iter().enumerate() {
                let f = store.feature_q(vault, value, a);
                prop_assert!((floor..=cap).contains(&f), "feature_q wrapped: {f}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prefetchers_never_panic_on_arbitrary_streams(
        accesses in proptest::collection::vec((0u64..1u64<<30, 0u64..64, any::<bool>()), 1..300),
        which in 0usize..12,
    ) {
        use pythia_sim::prefetch::{DemandAccess, SystemFeedback};
        let count = pythia_prefetchers::available().len();
        let name = pythia_prefetchers::available().nth(which % count).expect("in range");
        let mut p = pythia_prefetchers::build(name, 3).unwrap();
        let fb = SystemFeedback { bandwidth_high: false, bandwidth_utilization_pct: 10 };
        for (i, (page, off, w)) in accesses.iter().enumerate() {
            let addr = page * 4096 + off * 64;
            let a = DemandAccess {
                pc: 0x400000 + (i as u64 % 16) * 4,
                addr,
                line: addr >> 6,
                is_write: *w,
                cycle: i as u64 * 10,
                missed: true,
            };
            for req in p.on_demand(&a, &fb) {
                // Requests address sane lines (non-saturated arithmetic).
                prop_assert!(req.line < 1u64 << 58);
            }
            if i % 3 == 0 {
                p.on_useful(addr >> 6);
            } else if i % 7 == 0 {
                p.on_useless(addr >> 6);
            }
        }
    }
}
