//! The trace generators: a [`TraceSpec`] describes a workload;
//! [`TraceSpec::stream`] yields its records on demand as a [`TraceStream`]
//! (a [`TraceSource`] the simulator pulls from directly, in O(1) memory),
//! and [`TraceSpec::generate`] is the collecting convenience for code that
//! wants the whole trace in a `Vec`.

use pythia_sim::addr::{LINES_PER_PAGE, PAGE_SIZE};
use pythia_sim::trace::{Branch, MemOp, ReadAhead, TraceRecord, TraceSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The memory access pattern class a workload exhibits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternKind {
    /// Unit-stride sweep over the footprint, with a store every
    /// `store_every` loads (0 = no stores).
    Stream {
        /// Insert a store after this many loads (0 disables stores).
        store_every: u32,
    },
    /// Constant stride, in cachelines.
    Stride {
        /// Stride between consecutive accesses, in lines.
        lines: i32,
    },
    /// Visit pages in order; inside each page touch exactly these offsets.
    /// Models `GemsFDTD`-like "first touch plus fixed companions".
    PageVisit {
        /// Offsets (0..64) touched per page, in order.
        offsets: Vec<u8>,
    },
    /// Recurring spatial footprints: each trigger PC has a fixed region
    /// footprint replayed over randomly chosen regions.
    SpatialFootprint {
        /// Footprints (line offsets within a 2 KB region, 0..32), one per
        /// trigger PC.
        patterns: Vec<Vec<u8>>,
        /// Fraction (percent) of region visits that deviate: an extra noise
        /// line inserted at a seeded random position mid-visit — keeps
        /// Bingo's accuracy below 100% and perturbs region learning.
        noise_pct: u8,
    },
    /// Repeating delta sequence applied within pages, advancing to the next
    /// page when the offset overflows.
    DeltaChain {
        /// The repeating delta sequence, in lines.
        deltas: Vec<i8>,
    },
    /// CSR-style graph traversal: sequential reads of an index array mixed
    /// with random neighbour reads across a large footprint.
    IrregularGraph {
        /// Number of vertices (drives footprint).
        vertices: u64,
        /// Average out-degree: neighbour reads per index read.
        avg_degree: u32,
    },
    /// Dependent pointer chase over a random permutation.
    PointerChase,
    /// Server-style traffic: mostly-random lines with a small hot set.
    CloudMix {
        /// Percent of accesses that go to the hot set.
        hot_pct: u8,
    },
    /// Alternate between sub-patterns every `phase_len` memory accesses.
    Phased {
        /// The sub-patterns to cycle through.
        phases: Vec<PatternKind>,
        /// Memory accesses per phase. Every memory record counts —
        /// element-level re-accesses included — and a switch takes effect
        /// at the next fresh cacheline, so a phase boundary can overshoot
        /// by at most `accesses_per_line - 1` records.
        phase_len: u32,
    },
}

impl PatternKind {
    /// The pattern's one name: its `"t"` tag in the canonical spec and its
    /// label in `pythia-cli list`.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Stream { .. } => "stream",
            Self::Stride { .. } => "stride",
            Self::PageVisit { .. } => "page-visit",
            Self::SpatialFootprint { .. } => "spatial-footprint",
            Self::DeltaChain { .. } => "delta-chain",
            Self::IrregularGraph { .. } => "irregular-graph",
            Self::PointerChase => "pointer-chase",
            Self::CloudMix { .. } => "cloud-mix",
            Self::Phased { .. } => "phased",
        }
    }

    /// The pattern's share of [`TraceSpec::validate`], recursing into
    /// `Phased`.
    fn validate(&self) -> Result<(), String> {
        let refuse = |why: &str| Err(format!("{} pattern: {why}", self.tag()));
        match self {
            Self::Stream { store_every } if *store_every == u32::MAX => {
                refuse("store_every must be below u32::MAX")
            }
            Self::PageVisit { offsets } if offsets.is_empty() => refuse("offsets is empty"),
            Self::SpatialFootprint { patterns, .. } if patterns.is_empty() => {
                refuse("patterns is empty")
            }
            Self::SpatialFootprint { patterns, .. } if patterns.iter().any(Vec::is_empty) => {
                refuse("patterns holds an empty footprint")
            }
            Self::DeltaChain { deltas } if deltas.is_empty() => refuse("deltas is empty"),
            Self::IrregularGraph { vertices, .. } if *vertices > u64::MAX / 8 => {
                refuse("vertices must be at most u64::MAX / 8")
            }
            Self::IrregularGraph { avg_degree, .. } if *avg_degree > u32::MAX / 2 => {
                refuse("avg_degree must be at most u32::MAX / 2")
            }
            Self::Phased { phases, .. } if phases.is_empty() => refuse("phases is empty"),
            Self::Phased { phase_len: 0, .. } => refuse("phase_len must be positive"),
            Self::Phased { phases, .. } => phases.iter().try_for_each(Self::validate),
            _ => Ok(()),
        }
    }
}

/// The largest footprint a [`TraceSpec`] may declare. The generator's byte
/// offsets (`footprint_pages * PAGE_SIZE`, `2^52` here) plus a trace's
/// base address then stay far below `u64` overflow.
pub const MAX_FOOTPRINT_PAGES: u64 = 1 << 40;

/// What the generator reads: a trace's shape, without its length (a
/// caller's budget, passed to [`stream`](TraceSpec::stream)) or a name (a
/// [`Workload`](crate::Workload)'s). The first `n` records of a longer
/// trace are the trace of length `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Pattern class.
    pub kind: PatternKind,
    /// Percent of instructions that are memory operations (drives MPKI).
    pub mem_pct: u8,
    /// Footprint in 4 KB pages (patterns wrap within it).
    pub footprint_pages: u64,
    /// Percent of instructions that are branches.
    pub branch_pct: u8,
    /// Percent of branches that mispredict.
    pub mispredict_pct: u8,
    /// Consecutive element-sized (8 B) accesses per generated cacheline.
    /// Real programs touch several elements per line, so only a fraction of
    /// loads miss — this keeps the synthetic traces latency-bound (paper
    /// workloads sit at 3–100 LLC MPKI) instead of saturating the DRAM bus.
    pub accesses_per_line: u8,
    /// RNG seed; same spec + same seed = identical trace.
    pub seed: u64,
}

impl TraceSpec {
    /// A convenient default: memory-intensive (every third instruction is a
    /// load), 16 K-page (64 MB) footprint, light branching.
    pub fn new(kind: PatternKind) -> Self {
        Self {
            kind,
            mem_pct: 30,
            footprint_pages: 16 * 1024,
            branch_pct: 10,
            mispredict_pct: 3,
            accesses_per_line: 10,
            seed: 1,
        }
    }

    /// Sets the number of element accesses per line (1 = every load touches
    /// a fresh line; raises memory intensity).
    pub fn with_accesses_per_line(mut self, n: u8) -> Self {
        self.accesses_per_line = n.max(1);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the footprint.
    pub fn with_footprint_pages(mut self, pages: u64) -> Self {
        self.footprint_pages = pages;
        self
    }

    /// Checks the generator's preconditions, stated once here:
    ///
    /// * a footprint of 1 to [`MAX_FOOTPRINT_PAGES`] pages;
    /// * `mem_pct + branch_pct` at most 100 (one roll picks the class);
    /// * non-empty lists: `offsets`, `patterns` and each footprint in it,
    ///   `deltas` and `phases`;
    /// * a positive `phase_len`, a `store_every` below `u32::MAX`, and a
    ///   graph's `vertices * 8` and `avg_degree * 2` within their types;
    ///
    /// nested `Phased` patterns included. The instruction count is the
    /// caller's budget and is checked where the stream opens.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first field that breaks a rule.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_FOOTPRINT_PAGES).contains(&self.footprint_pages) {
            return Err(format!(
                "footprint_pages {} is outside 1..={MAX_FOOTPRINT_PAGES}",
                self.footprint_pages
            ));
        }
        if u16::from(self.mem_pct) + u16::from(self.branch_pct) > 100 {
            return Err(format!(
                "mem_pct {} + branch_pct {} exceeds 100",
                self.mem_pct, self.branch_pct
            ));
        }
        self.kind.validate()
    }

    /// Opens a streaming generator of `n` records over this spec: records
    /// are produced on demand, one [`TraceStream::next_record`] call at a
    /// time, in the exact sequence [`generate`](TraceSpec::generate) would
    /// collect.
    ///
    /// # Panics
    ///
    /// Panics on `n == 0` or a spec [`validate`](TraceSpec::validate)
    /// refuses.
    pub fn stream(&self, n: usize) -> TraceStream {
        TraceStream::new(self.clone(), n)
    }

    /// Opens a streaming generator of `n` records boxed as a
    /// [`TraceSource`] — the shape the simulator and runner consume. A
    /// trace of at least [`ReadAhead::MIN_RECORDS`] records is generated
    /// on another CPU, when the thread may use one ([`ReadAhead::wrap`]);
    /// the records are the same either way.
    ///
    /// # Panics
    ///
    /// As [`stream`](TraceSpec::stream).
    pub fn source(&self, n: usize) -> Box<dyn TraceSource> {
        ReadAhead::wrap(Box::new(self.stream(n)))
    }

    /// Renders `n` records of the spec into a materialized instruction
    /// trace (collects [`stream`](TraceSpec::stream); prefer the stream on
    /// memory-bound paths).
    ///
    /// # Panics
    ///
    /// As [`stream`](TraceSpec::stream).
    pub fn generate(&self, n: usize) -> Vec<TraceRecord> {
        self.stream(n).collect()
    }
}

/// Element cursor within the current cacheline: the remaining
/// element-sized re-accesses a generated line still owes (`left == 0`:
/// none, the next memory record starts a fresh line).
#[derive(Default)]
struct LineCursor {
    pc: u64,
    line_base: u64,
    is_write: bool,
    left: u64,
}

/// A streaming trace generator: the [`TraceSource`] implementation that
/// renders a [`TraceSpec`] record-by-record, in O(1) memory, so workload
/// length is bounded by simulation time instead of RAM.
///
/// Determinism: the stream yields exactly the sequence
/// [`TraceSpec::generate`] materializes, and [`reset`](TraceSource::reset)
/// re-seeds the generator so every pass replays identically (pinned by
/// `tests/trace_streaming.rs`).
pub struct TraceStream {
    spec: TraceSpec,
    /// Records per pass.
    n: usize,
    rng: StdRng,
    state: PatternState,
    /// Whether `state` keeps a phase budget ([`PatternKind::Phased`]) that
    /// element re-accesses are charged against: decided once here, so the
    /// nine re-accesses in ten that have none to charge skip the call.
    phased: bool,
    /// Distinct base address per trace (so multi-core mixes do not share
    /// data), derived from the seed.
    base: u64,
    pc_counter: u64,
    repeat: u64,
    cursor: LineCursor,
    /// The class roll of the next record, already drawn (see `step`).
    next_roll: u32,
    emitted: usize,
}

impl std::fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStream")
            .field("pattern", &self.spec.kind.tag())
            .field("emitted", &self.emitted)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl TraceStream {
    fn new(spec: TraceSpec, n: usize) -> Self {
        assert!(n > 0, "empty trace requested");
        if let Err(e) = spec.validate() {
            panic!("trace spec: {e}");
        }
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9);
        let state = PatternState::new(&spec.kind, spec.footprint_pages, &mut rng);
        let base = (spec.seed % 1024 + 1) * 0x1_0000_0000;
        let repeat = spec.accesses_per_line.max(1) as u64;
        let next_roll = rng.gen_range(0..100u32);
        Self {
            next_roll,
            rng,
            phased: matches!(state, PatternState::Phased { .. }),
            state,
            base,
            pc_counter: 0x400000,
            repeat,
            cursor: LineCursor::default(),
            emitted: 0,
            spec,
            n,
        }
    }

    /// Produces the next record of the current pass, ignoring the
    /// instruction budget (the budgeted entry points are
    /// [`next_record`](TraceSource::next_record) and
    /// [`next_batch`](TraceSource::next_batch)). Each arm ends in one
    /// struct literal, so once inlined the record is built where the
    /// caller wants it instead of in a temporary that is copied out.
    ///
    /// The class roll is drawn a record ahead. A record's roll is the
    /// first draw after the previous record's own, and nine records in ten
    /// (plain instructions, element re-accesses) draw nothing else — so
    /// the roll of the record after this one is computed from the current
    /// state *before* branching on this one's, where a mispredicted class
    /// branch cannot flush it, and the next class branch resolves from a
    /// value that is already there. The draw order, and so every value,
    /// is that of rolling at the top of each record.
    #[inline]
    fn step(&mut self) -> TraceRecord {
        let roll = self.next_roll;
        let mut ahead = self.rng.clone();
        let roll_ahead = ahead.gen_range(0..100u32);
        let drew;
        let record = if roll < self.spec.mem_pct as u32 {
            let (pc, addr, is_write, dependent) = if self.cursor.left > 0 {
                drew = false;
                // Element re-accesses are memory records too: charge
                // them against the pattern's phase budget (`Phased`
                // counts *memory accesses*, not fresh cachelines)
                // without advancing any pattern cursor.
                if self.phased {
                    self.state.note_extra_access();
                }
                let c = &mut self.cursor;
                let elem = (self.repeat - c.left) % 8; // 8 elements of 8 B per line
                c.left -= 1;
                // Element re-accesses hit in L1 and never depend.
                (c.pc, c.line_base + elem * 8, c.is_write, false)
            } else {
                drew = true;
                let (pc, offset_bytes, is_write, dependent) = self
                    .state
                    .next_access(self.spec.footprint_pages, &mut self.rng);
                let line_base = self.base + (offset_bytes & !63);
                self.cursor = LineCursor {
                    pc,
                    line_base,
                    is_write,
                    left: self.repeat - 1,
                };
                (pc, line_base, is_write, dependent)
            };
            TraceRecord {
                pc,
                mem: Some(MemOp { addr, is_write }),
                branch: None,
                // Stores never carry the dependence hint.
                depends_on_prev_load: dependent && !is_write,
            }
        } else {
            let pc = self.pc_counter;
            self.pc_counter = pc.wrapping_add(4);
            drew = roll < (self.spec.mem_pct + self.spec.branch_pct) as u32;
            let branch = if drew {
                let mispredicted = self.rng.gen_range(0..100u32) < self.spec.mispredict_pct as u32;
                Some(Branch {
                    taken: self.rng.gen_bool(0.6),
                    mispredicted,
                })
            } else {
                None
            };
            TraceRecord {
                pc,
                mem: None,
                branch,
                depends_on_prev_load: false,
            }
        };
        if drew {
            self.next_roll = self.rng.gen_range(0..100u32);
        } else {
            (self.rng, self.next_roll) = (ahead, roll_ahead);
        }
        record
    }
}

impl Iterator for TraceStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.next_record()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.emitted.min(self.n);
        (left, Some(left))
    }
}

impl TraceSource for TraceStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.emitted >= self.n {
            return None;
        }
        self.emitted += 1;
        Some(self.step())
    }

    fn reset(&mut self) {
        *self = Self::new(self.spec.clone(), self.n);
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.n as u64)
    }

    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        // One budget check per batch; `step` inlines into the loop, so each
        // record is written straight into `out`'s spare capacity.
        let n = max.min(self.n.saturating_sub(self.emitted));
        out.extend((0..n).map(|_| self.step()));
        self.emitted += n;
        n
    }
}

/// Mutable cursor over a pattern. Returns `(pc, byte_offset_in_footprint,
/// is_write, dependent_load)` per access.
enum PatternState {
    Stream {
        pos: u64,
        store_every: u32,
        count: u32,
    },
    Stride {
        pos: u64,
        lines: i32,
    },
    PageVisit {
        step: u64,
        offsets: Vec<u8>,
    },
    SpatialFootprint {
        patterns: Vec<Vec<u8>>,
        noise_pct: u8,
        visits: Vec<Vec<(u64, u64)>>,
        rr: usize,
    },
    DeltaChain {
        line: u64,
        idx: usize,
        deltas: Vec<i8>,
    },
    IrregularGraph {
        vertices: u64,
        avg_degree: u32,
        vertex: u64,
        remaining_neighbours: u32,
    },
    PointerChase {
        current: u64,
    },
    CloudMix {
        hot_pct: u8,
        hot_lines: u64,
    },
    Phased {
        states: Vec<PatternState>,
        idx: usize,
        remaining: u32,
        phase_len: u32,
    },
}

impl PatternState {
    fn new(kind: &PatternKind, footprint_pages: u64, rng: &mut StdRng) -> Self {
        match kind {
            PatternKind::Stream { store_every } => Self::Stream {
                pos: 0,
                store_every: *store_every,
                count: 0,
            },
            PatternKind::Stride { lines } => Self::Stride {
                pos: 0,
                lines: *lines,
            },
            PatternKind::PageVisit { offsets } => Self::PageVisit {
                step: 0,
                offsets: offsets.clone(),
            },
            PatternKind::SpatialFootprint {
                patterns,
                noise_pct,
            } => Self::SpatialFootprint {
                patterns: patterns.clone(),
                noise_pct: *noise_pct,
                visits: vec![Vec::new(); 8],
                rr: 0,
            },
            PatternKind::DeltaChain { deltas } => Self::DeltaChain {
                line: 0,
                idx: 0,
                deltas: deltas.clone(),
            },
            PatternKind::IrregularGraph {
                vertices,
                avg_degree,
            } => Self::IrregularGraph {
                vertices: (*vertices).max(64),
                avg_degree: (*avg_degree).max(1),
                vertex: 0,
                remaining_neighbours: 0,
            },
            PatternKind::PointerChase => Self::PointerChase {
                current: rng.gen_range(0..footprint_pages * LINES_PER_PAGE),
            },
            PatternKind::CloudMix { hot_pct } => Self::CloudMix {
                hot_pct: *hot_pct,
                hot_lines: (footprint_pages * LINES_PER_PAGE / 64).max(64),
            },
            PatternKind::Phased { phases, phase_len } => Self::Phased {
                states: phases
                    .iter()
                    .map(|p| PatternState::new(p, footprint_pages, rng))
                    .collect(),
                idx: 0,
                remaining: *phase_len,
                phase_len: *phase_len,
            },
        }
    }

    fn next_access(&mut self, footprint_pages: u64, rng: &mut StdRng) -> (u64, u64, bool, bool) {
        let total_lines = footprint_pages * LINES_PER_PAGE;
        match self {
            Self::Stream {
                pos,
                store_every,
                count,
            } => {
                let line = *pos % total_lines;
                *pos += 1;
                *count += 1;
                let is_write = *store_every > 0 && *count % (*store_every + 1) == 0;
                (0x401000, line * 64, is_write, false)
            }
            Self::Stride { pos, lines } => {
                let line = *pos % total_lines;
                let step = *lines;
                *pos = (*pos as i64 + step as i64).rem_euclid(total_lines as i64) as u64;
                (0x402000, line * 64, false, false)
            }
            Self::PageVisit { step, offsets } => {
                // Offsets behave like concurrent array sweeps: offset i lags
                // `i * PAGE_LAG` pages behind the first-touch sweep, so the
                // companion demands arrive hundreds of instructions after
                // the trigger (giving trigger-keyed prefetchers room to be
                // timely, as in the real GemsFDTD sweeps).
                const PAGE_LAG: u64 = 4;
                let n = offsets.len() as u64;
                loop {
                    let idx = (*step % n) as usize;
                    let round = *step / n;
                    *step += 1;
                    let lag = idx as u64 * PAGE_LAG;
                    if round < lag {
                        continue; // this sweep has not started yet
                    }
                    let p = (round - lag) % footprint_pages;
                    let off = offsets[idx] as u64 % LINES_PER_PAGE;
                    // Distinct PC per sweep (the paper's case study keys its
                    // features on the first-touch PC).
                    let pc = 0x436a81 + (idx as u64) * 0xd44;
                    return (pc, p * PAGE_SIZE + off * 64, false, false);
                }
            }
            Self::SpatialFootprint {
                patterns,
                noise_pct,
                visits,
                rr,
            } => {
                // Several region visits are in flight at once (real spatial
                // workloads process many regions concurrently); each step
                // advances one visit round-robin, so a region's companion
                // accesses trail its trigger by several pattern steps.
                *rr = (*rr + 1) % visits.len();
                let slot = *rr;
                if let Some((pc, byte)) = visits[slot].pop() {
                    return (pc, byte, false, false);
                }
                // Start a new region visit in this slot: pick a pattern
                // (trigger PC) and a random 2 KB region.
                let which = rng.gen_range(0..patterns.len());
                let region_bytes = 2048u64;
                let regions = footprint_pages * PAGE_SIZE / region_bytes;
                let region = rng.gen_range(0..regions);
                let pc = 0x500000 + which as u64 * 0x40;
                let pattern = &patterns[which];
                let mut lines: Vec<u8> = pattern.clone();
                if rng.gen_range(0..100u32) < *noise_pct as u32 {
                    // The deviating line lands at a seeded random point
                    // *inside* the visit (never before the trigger), so it
                    // genuinely perturbs region learning instead of always
                    // trailing the footprint.
                    let noise = rng.gen_range(0..32);
                    let pos = rng.gen_range(1..=lines.len());
                    lines.insert(pos, noise);
                }
                let trigger = lines[0] as u64 % 32;
                for &o in lines[1..].iter().rev() {
                    visits[slot].push((pc, region * region_bytes + (o as u64 % 32) * 64));
                }
                (pc, region * region_bytes + trigger * 64, false, false)
            }
            Self::DeltaChain { line, idx, deltas } => {
                let current = *line % total_lines;
                let d = deltas[*idx];
                *idx = (*idx + 1) % deltas.len();
                // Crossing the page boundary in either direction (negative
                // deltas underflow it) advances to the start of the next
                // page, keeping the chain phase: `idx` runs on so the delta
                // sequence resumes where it left off.
                let next = current as i64 + d as i64;
                let crossed = next < 0 || next as u64 / LINES_PER_PAGE != current / LINES_PER_PAGE;
                *line = if crossed {
                    (current / LINES_PER_PAGE + 1) * LINES_PER_PAGE
                } else {
                    next as u64
                };
                (0x403000 + *idx as u64 * 4, current * 64, false, false)
            }
            Self::IrregularGraph {
                vertices,
                avg_degree,
                vertex,
                remaining_neighbours,
            } => {
                if *remaining_neighbours > 0 {
                    *remaining_neighbours -= 1;
                    // Random neighbour read: vertex data is spread over the
                    // footprint (8 B per vertex -> 8 vertices per line).
                    let v = rng.gen_range(0..*vertices);
                    let byte = (v * 8) % (footprint_pages * PAGE_SIZE);
                    (0x404008, byte, false, false)
                } else {
                    // Sequential index-array read.
                    let v = *vertex % *vertices;
                    *vertex += 1;
                    *remaining_neighbours = rng.gen_range(0..=*avg_degree * 2);
                    let byte = (v * 8) % (footprint_pages * PAGE_SIZE / 2);
                    (0x404000, byte, false, false)
                }
            }
            Self::PointerChase { current } => {
                // Next pointer = hash of current (a fixed pseudo-random
                // permutation), serialized by the dependence flag.
                let line = *current % total_lines;
                *current = current
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407)
                    % total_lines;
                (0x405000, line * 64, false, true)
            }
            Self::CloudMix { hot_pct, hot_lines } => {
                let hot = rng.gen_range(0..100u32) < *hot_pct as u32;
                let line = if hot {
                    rng.gen_range(0..*hot_lines)
                } else {
                    rng.gen_range(0..total_lines)
                };
                let is_write = rng.gen_range(0..100) < 20;
                (0x406000 + u64::from(hot), line * 64, is_write, false)
            }
            Self::Phased {
                states,
                idx,
                remaining,
                phase_len,
            } => {
                if *remaining == 0 {
                    *idx = (*idx + 1) % states.len();
                    *remaining = *phase_len;
                }
                *remaining -= 1;
                states[*idx].next_access(footprint_pages, rng)
            }
        }
    }

    /// Charges one additional memory record (an element re-access) against
    /// the current phase budget, without advancing any pattern cursor.
    fn note_extra_access(&mut self) {
        if let Self::Phased {
            states,
            idx,
            remaining,
            ..
        } = self
        {
            *remaining = remaining.saturating_sub(1);
            states[*idx].note_extra_access();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::addr;

    /// Records per generated test trace.
    const N: usize = 20_000;

    fn spec(kind: PatternKind) -> TraceSpec {
        TraceSpec::new(kind)
    }

    #[test]
    fn determinism_same_seed() {
        let s = spec(PatternKind::CloudMix { hot_pct: 30 });
        assert_eq!(s.generate(N), s.generate(N));
    }

    #[test]
    fn different_seeds_differ() {
        let a = spec(PatternKind::CloudMix { hot_pct: 30 })
            .with_seed(1)
            .generate(N);
        let b = spec(PatternKind::CloudMix { hot_pct: 30 })
            .with_seed(2)
            .generate(N);
        assert_ne!(a, b);
    }

    /// Collapses element-level accesses back to the line sequence.
    fn line_sequence(t: &[pythia_sim::trace::TraceRecord]) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for r in t {
            if let Some(m) = r.mem {
                let l = addr::line_of(m.addr);
                if out.last() != Some(&l) {
                    out.push(l);
                }
            }
        }
        out
    }

    #[test]
    fn stream_is_sequential_lines() {
        let t = spec(PatternKind::Stream { store_every: 0 }).generate(N);
        let lines = line_sequence(&t);
        for w in lines.windows(2) {
            assert_eq!(w[1], w[0] + 1, "stream must be unit-stride");
        }
    }

    #[test]
    fn element_accesses_share_lines() {
        let t = spec(PatternKind::Stream { store_every: 0 }).generate(N);
        let mems = t.iter().filter(|r| r.mem.is_some()).count();
        let lines = line_sequence(&t).len();
        // Default 8 accesses per line.
        assert!(mems >= lines * 7, "mems={mems} lines={lines}");
    }

    #[test]
    fn stream_with_stores_interleaves_writes() {
        let t = spec(PatternKind::Stream { store_every: 3 }).generate(N);
        let writes = t.iter().filter(|r| r.is_store()).count();
        let loads = t.iter().filter(|r| r.is_load()).count();
        assert!(writes > 0);
        assert!(loads > writes * 2);
    }

    #[test]
    fn stride_pattern_has_constant_stride() {
        let t = spec(PatternKind::Stride { lines: 4 }).generate(N);
        let lines = line_sequence(&t);
        for w in lines.windows(2) {
            let d = w[1] as i64 - w[0] as i64;
            assert!(d == 4 || d < 0, "stride-4 expected, got {d}"); // wrap allowed
        }
    }

    #[test]
    fn page_visit_reproduces_gems_fdtd_case_study() {
        // Offsets {0, 23}: every visited page is touched at exactly offsets
        // 0 and 23 -- the §6.5 pattern -- with the +23 sweep lagging the
        // first-touch sweep so trigger-keyed prefetches can be timely.
        let t = spec(PatternKind::PageVisit {
            offsets: vec![0, 23],
        })
        .generate(N);
        let accesses: Vec<(u64, u64)> = line_sequence(&t)
            .iter()
            .map(|&l| (addr::page_of_line(l), addr::page_offset_of_line(l)))
            .collect();
        use std::collections::HashMap;
        let mut first_touch_step: HashMap<u64, usize> = HashMap::new();
        for (step, (page, off)) in accesses.iter().enumerate() {
            assert!(*off == 0 || *off == 23, "unexpected offset {off}");
            if *off == 0 {
                first_touch_step.entry(*page).or_insert(step);
            }
        }
        let mut lags = Vec::new();
        for (step, (page, off)) in accesses.iter().enumerate() {
            if *off == 23 {
                if let Some(&trigger) = first_touch_step.get(page) {
                    lags.push(step - trigger);
                }
            }
        }
        assert!(!lags.is_empty());
        let min_lag = *lags.iter().min().unwrap();
        assert!(
            min_lag >= 4,
            "companion sweep should lag the trigger: {min_lag}"
        );
    }

    #[test]
    fn pointer_chase_marks_dependent_loads() {
        let t = spec(PatternKind::PointerChase).generate(N);
        let deps = t.iter().filter(|r| r.depends_on_prev_load).count();
        let lines = line_sequence(&t).len();
        // Exactly the first access of each chased line is dependent.
        assert_eq!(deps, lines, "one dependent load per chased line");
        assert!(deps > 0);
    }

    /// One spec of every pattern kind.
    fn all_kinds() -> Vec<PatternKind> {
        vec![
            PatternKind::Stream { store_every: 3 },
            PatternKind::Stride { lines: 7 },
            PatternKind::PageVisit {
                offsets: vec![0, 23, 41],
            },
            PatternKind::SpatialFootprint {
                patterns: vec![vec![0, 3, 7, 12], vec![1, 2, 30]],
                noise_pct: 20,
            },
            PatternKind::DeltaChain {
                deltas: vec![2, -5, 3],
            },
            PatternKind::IrregularGraph {
                vertices: 100_000,
                avg_degree: 8,
            },
            PatternKind::PointerChase,
            PatternKind::CloudMix { hot_pct: 30 },
            PatternKind::Phased {
                phases: vec![
                    PatternKind::Stream { store_every: 0 },
                    PatternKind::PointerChase,
                ],
                phase_len: 100,
            },
        ]
    }

    #[test]
    fn footprint_respected() {
        // Every pattern kind must stay inside its declared footprint.
        for kind in all_kinds() {
            let s = spec(kind.clone()).with_footprint_pages(128);
            let t = s.generate(N);
            let base = (s.seed % 1024 + 1) * 0x1_0000_0000;
            for r in &t {
                if let Some(m) = r.mem {
                    let off = m.addr - base;
                    assert!(
                        off < 128 * PAGE_SIZE,
                        "{kind:?}: access outside footprint: {off:#x}"
                    );
                }
            }
        }
    }

    /// `next_batch` builds records in place; `next_record` stays the
    /// definition. For every pattern kind and batch sizes 1, 7 and 64 the
    /// batched stream must equal the record-by-record one — through the
    /// short batch that ends a pass (1 000 records divide by neither 7 nor
    /// 64), the empty batch after it, and a second pass after `reset`.
    #[test]
    fn next_batch_matches_next_record() {
        for kind in all_kinds() {
            let s = spec(kind.clone());
            let expected = s.generate(1_000);
            for batch in [1usize, 7, 64] {
                let mut stream = s.stream(1_000);
                for pass in 0..2 {
                    let mut got = Vec::new();
                    loop {
                        let before = got.len();
                        let n = stream.next_batch(&mut got, batch);
                        assert_eq!(got.len(), before + n, "count returned == records appended");
                        if n < batch {
                            break;
                        }
                    }
                    assert_eq!(got, expected, "{kind:?}: batch {batch}, pass {pass}");
                    assert_eq!(stream.next_batch(&mut got, batch), 0, "pass stays ended");
                    assert_eq!(stream.next_record(), None);
                    stream.reset();
                }
                // The two entry points share one budget and one state.
                let mut mixed = Vec::new();
                stream.next_batch(&mut mixed, batch);
                mixed.extend(stream.next_record());
                stream.next_batch(&mut mixed, 2_000);
                assert_eq!(mixed, expected, "{kind:?}: interleaved entry points");
            }
        }
    }

    /// Regression: `Phased` counts *every* memory record against the phase
    /// budget — element re-accesses included. Before the fix, only fresh
    /// cachelines were charged, stretching phases by ~`accesses_per_line`×.
    #[test]
    fn phased_phase_length_counts_every_memory_record() {
        let mut s = spec(PatternKind::Phased {
            phases: vec![
                PatternKind::Stream { store_every: 0 },
                PatternKind::PointerChase,
            ],
            phase_len: 100,
        })
        .with_accesses_per_line(4);
        s.mem_pct = 100;
        s.branch_pct = 0;
        let t = s.generate(N);
        // With mem_pct=100 every record is a memory access, and 4 accesses
        // per line divides phase_len=100, so boundaries land exactly on
        // record indices 100, 200, ... Dependent loads only occur in the
        // PointerChase phases (odd 100-record windows).
        let dep_indices: Vec<usize> = t
            .iter()
            .enumerate()
            .filter(|(_, r)| r.depends_on_prev_load)
            .map(|(i, _)| i)
            .collect();
        assert!(!dep_indices.is_empty(), "pointer-chase phase never ran");
        let first = dep_indices[0];
        assert!(
            (100..104).contains(&first),
            "first chase access at record {first}, expected the phase \
             boundary at 100 (pre-fix it lands near 400)"
        );
        for &i in &dep_indices {
            assert_eq!(
                (i / 100) % 2,
                1,
                "dependent load at record {i} outside a PointerChase phase"
            );
        }
    }

    /// Regression: `DeltaChain` keeps the chain phase across page crossings
    /// (the delta index is never reset), and a crossing in either direction
    /// advances to the start of the next page. Before the fix, every
    /// crossing reset the delta sequence to its first element.
    #[test]
    fn delta_chain_keeps_phase_across_page_crossings() {
        // [2, -5, 3] underflows page 0 immediately (the `next < 0` path);
        // [5, -2, 9] climbs through pages, crossing repeatedly in both
        // directions.
        for deltas in [vec![2i8, -5, 3], vec![5i8, -2, 9]] {
            let mut s = spec(PatternKind::DeltaChain {
                deltas: deltas.clone(),
            })
            .with_accesses_per_line(1)
            .with_footprint_pages(8);
            s.mem_pct = 100;
            s.branch_pct = 0;
            let t = s.generate(N);
            let base_line = (s.seed % 1024 + 1) * 0x1_0000_0000 / 64;
            let total_lines = 8 * LINES_PER_PAGE;
            let mems: Vec<(u64, u64)> = t
                .iter()
                .filter_map(|r| r.mem.map(|m| (r.pc, addr::line_of(m.addr) - base_line)))
                .collect();
            // The PC encodes the post-increment delta index: it must rotate
            // strictly through the cycle, page crossings notwithstanding.
            for (i, w) in mems.windows(2).enumerate() {
                let idx0 = ((w[0].0 - 0x403000) / 4) as usize;
                let idx1 = ((w[1].0 - 0x403000) / 4) as usize;
                assert_eq!(
                    idx1,
                    (idx0 + 1) % deltas.len(),
                    "delta index reset at access {i} (deltas {deltas:?})"
                );
                // The step either applied the scheduled delta in-page, or
                // advanced to the start of the next page. Record i's PC
                // holds the post-increment index, so the delta applied
                // between records i and i+1 is the one *before* it.
                let applied = deltas[(idx0 + deltas.len() - 1) % deltas.len()];
                let expected = w[0].1 as i64 + applied as i64;
                let line1 = w[1].1 as i64;
                let page0 = w[0].1 / LINES_PER_PAGE;
                // A page advance past the last page wraps to the start of
                // the footprint.
                let next_page_start = ((page0 + 1) * LINES_PER_PAGE % total_lines) as i64;
                assert!(
                    line1 == expected || line1 == next_page_start,
                    "access {i}: line {line1} is neither {expected} \
                     (in-page delta {applied}) nor page advance \
                     {next_page_start}"
                );
            }
            // The trace must actually exercise a page crossing and a
            // negative in-page delta, or this test proves nothing.
            let crossings = mems
                .windows(2)
                .filter(|w| w[1].1 % LINES_PER_PAGE == 0 && w[1].1 != w[0].1 + 1)
                .count();
            let negatives = mems.windows(2).filter(|w| w[1].1 < w[0].1).count();
            assert!(crossings > 0, "no page crossing with deltas {deltas:?}");
            assert!(negatives > 0, "no negative step with deltas {deltas:?}");
        }
    }

    /// Regression: `SpatialFootprint` noise lands at a seeded random point
    /// *inside* the visit. Before the fix it was appended after the
    /// pattern, so every deviating visit ended — never interrupted — with
    /// the noise line.
    #[test]
    fn spatial_footprint_noise_lands_mid_visit() {
        let pattern = vec![0u8, 3, 7, 12];
        let mut s = spec(PatternKind::SpatialFootprint {
            patterns: vec![pattern.clone()],
            noise_pct: 100,
        })
        .with_accesses_per_line(1);
        s.mem_pct = 100;
        s.branch_pct = 0;
        let t = s.generate(N);
        use std::collections::HashMap;
        let mut by_region: HashMap<u64, Vec<u64>> = HashMap::new();
        for r in &t {
            if let Some(m) = r.mem {
                by_region
                    .entry(m.addr / 2048)
                    .or_default()
                    .push(m.addr % 2048 / 64);
            }
        }
        // With noise_pct=100 every complete visit has 5 accesses (pattern
        // plus one noise line). Count visits whose first 4 offsets already
        // deviate from the pattern — i.e. the noise arrived mid-visit.
        let complete: Vec<&Vec<u64>> = by_region.values().filter(|v| v.len() == 5).collect();
        assert!(complete.len() > 20, "too few complete visits");
        let expected: Vec<u64> = pattern.iter().map(|&o| o as u64).collect();
        let mid_noise = complete.iter().filter(|v| v[..4] != expected[..]).count();
        assert!(
            mid_noise * 4 >= complete.len(),
            "noise never lands mid-visit: {mid_noise}/{}",
            complete.len()
        );
    }

    #[test]
    fn mem_pct_controls_intensity() {
        let mut s = spec(PatternKind::Stream { store_every: 0 });
        s.mem_pct = 50;
        let t = s.generate(N);
        let mems = t.iter().filter(|r| r.mem.is_some()).count();
        let ratio = mems as f64 / t.len() as f64;
        assert!((0.45..0.55).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn spatial_footprint_replays_patterns() {
        let t = spec(PatternKind::SpatialFootprint {
            patterns: vec![vec![0, 3, 7, 12]],
            noise_pct: 0,
        })
        .generate(N);
        // Group accesses by 2 KB region: each visited region shows the
        // footprint offsets.
        use std::collections::HashMap;
        let mut by_region: HashMap<u64, Vec<u64>> = HashMap::new();
        for r in &t {
            if let Some(m) = r.mem {
                by_region
                    .entry(m.addr / 2048)
                    .or_default()
                    .push(m.addr % 2048 / 64);
            }
        }
        let full_visits = by_region.values().filter(|v| v.len() >= 4).count();
        assert!(full_visits > 10, "expected replayed footprints");
    }

    #[test]
    fn phased_pattern_switches_behaviour() {
        let t = spec(PatternKind::Phased {
            phases: vec![
                PatternKind::Stream { store_every: 0 },
                PatternKind::PointerChase,
            ],
            phase_len: 100,
        })
        .generate(N);
        let deps = t.iter().filter(|r| r.depends_on_prev_load).count();
        let seq_loads = t
            .iter()
            .filter(|r| r.is_load() && !r.depends_on_prev_load)
            .count();
        assert!(deps > 0 && seq_loads > 0, "both phases must appear");
    }

    #[test]
    fn branches_and_mispredicts_present() {
        let mut s = spec(PatternKind::Stream { store_every: 0 });
        s.branch_pct = 20;
        s.mispredict_pct = 10;
        let t = s.generate(N);
        let branches = t.iter().filter(|r| r.branch.is_some()).count();
        let mispredicts = t
            .iter()
            .filter(|r| r.branch.is_some_and(|b| b.mispredicted))
            .count();
        assert!(branches > t.len() / 10);
        assert!(mispredicts > 0);
        assert!(mispredicts < branches / 5);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn zero_instructions_rejected() {
        spec(PatternKind::PointerChase).generate(0);
    }

    #[test]
    #[should_panic(expected = "footprint_pages 0")]
    fn zero_footprint_rejected() {
        spec(PatternKind::PointerChase)
            .with_footprint_pages(0)
            .generate(N);
    }

    /// One pattern of each kind with every numeric field at 1, and a
    /// `Phased` over all of them.
    fn minimal_kinds() -> Vec<PatternKind> {
        let mut kinds = vec![
            PatternKind::Stream { store_every: 1 },
            PatternKind::Stride { lines: 1 },
            PatternKind::PageVisit { offsets: vec![1] },
            PatternKind::SpatialFootprint {
                patterns: vec![vec![1]],
                noise_pct: 1,
            },
            PatternKind::DeltaChain { deltas: vec![1] },
            PatternKind::IrregularGraph {
                vertices: 1,
                avg_degree: 1,
            },
            PatternKind::PointerChase,
            PatternKind::CloudMix { hot_pct: 1 },
        ];
        kinds.push(PatternKind::Phased {
            phases: kinds.clone(),
            phase_len: 1,
        });
        kinds
    }

    #[test]
    fn validate_accepts_every_registered_workload_and_minimal_specs() {
        use crate::profiles::{derive_seed, Profile, CAMPAIGN_SEED};
        use crate::suites::{all_suites, cvp_unseen};
        let mut pool = all_suites();
        pool.extend(cvp_unseen());
        for seed in [CAMPAIGN_SEED, derive_seed(CAMPAIGN_SEED, "validate"), 1] {
            pool.extend(Profile::all().iter().flat_map(|p| p.workloads(seed)));
        }
        for w in &pool {
            assert_eq!(w.spec.validate(), Ok(()), "{}", w.name);
        }
        for kind in minimal_kinds() {
            let tag = kind.tag();
            let spec = TraceSpec {
                kind,
                mem_pct: 1,
                footprint_pages: 1,
                branch_pct: 1,
                mispredict_pct: 1,
                accesses_per_line: 1,
                seed: 1,
            };
            assert_eq!(spec.validate(), Ok(()), "{tag}");
            assert_eq!(spec.stream(10_000).count(), 10_000, "{tag}");
            let mut dense = spec.clone();
            dense.mem_pct = 100;
            dense.branch_pct = 0;
            assert_eq!(
                dense.stream(10_000).count(),
                10_000,
                "{tag}, every record a load"
            );
        }
    }

    #[test]
    fn validate_refuses_degenerate_specs_naming_the_field() {
        type Degenerate = (&'static str, fn(&mut TraceSpec));
        let cases: [Degenerate; 12] = [
            ("footprint_pages 0", |s| s.footprint_pages = 0),
            ("footprint_pages 1099511627777", |s| {
                s.footprint_pages = MAX_FOOTPRINT_PAGES + 1
            }),
            ("exceeds 100", |s| (s.mem_pct, s.branch_pct) = (60, 41)),
            ("store_every", |s| {
                s.kind = PatternKind::Stream {
                    store_every: u32::MAX,
                }
            }),
            ("offsets is empty", |s| {
                s.kind = PatternKind::PageVisit { offsets: vec![] }
            }),
            ("patterns is empty", |s| {
                s.kind = PatternKind::SpatialFootprint {
                    patterns: vec![],
                    noise_pct: 0,
                }
            }),
            ("empty footprint", |s| {
                s.kind = PatternKind::SpatialFootprint {
                    patterns: vec![vec![1], vec![]],
                    noise_pct: 0,
                }
            }),
            ("deltas is empty", |s| {
                s.kind = PatternKind::DeltaChain { deltas: vec![] }
            }),
            ("avg_degree", |s| {
                s.kind = PatternKind::IrregularGraph {
                    vertices: 64,
                    avg_degree: u32::MAX,
                }
            }),
            ("phases is empty", |s| {
                s.kind = PatternKind::Phased {
                    phases: vec![],
                    phase_len: 1,
                }
            }),
            ("phase_len", |s| {
                s.kind = PatternKind::Phased {
                    phases: vec![PatternKind::PointerChase],
                    phase_len: 0,
                }
            }),
            ("delta-chain pattern: deltas is empty", |s| {
                s.kind = PatternKind::Phased {
                    phases: vec![
                        PatternKind::PointerChase,
                        PatternKind::Phased {
                            phases: vec![PatternKind::DeltaChain { deltas: vec![] }],
                            phase_len: 1,
                        },
                    ],
                    phase_len: 1,
                }
            }),
        ];
        for (field, degrade) in cases {
            let mut s = spec(PatternKind::PointerChase);
            degrade(&mut s);
            let err = s.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn graph_pattern_mixes_sequential_and_random() {
        let t = spec(PatternKind::IrregularGraph {
            vertices: 100_000,
            avg_degree: 8,
        })
        .generate(N);
        let pcs: std::collections::HashSet<u64> =
            t.iter().filter(|r| r.mem.is_some()).map(|r| r.pc).collect();
        assert!(pcs.contains(&0x404000), "index-array PC present");
        assert!(pcs.contains(&0x404008), "neighbour PC present");
    }
}
