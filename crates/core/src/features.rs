//! Program features: the state space of the RL formulation (§3.1, Table 3).
//!
//! Each feature concatenates a **control-flow component** (load PC, PC-path,
//! PC⊕branch-PC, or none) with a **data-flow component** (cacheline address,
//! page number, page offset, delta, last-4 offsets, last-4 deltas,
//! offset⊕delta, or none) — 4 × 8 = 32 candidate features, from which the
//! automated design-space exploration (§4.3.1) picks the state vector. The
//! winning basic configuration uses `PC+Delta` and `Sequence of last-4
//! deltas` (Table 2).
//!
//! [`FeatureContext`] is the streaming extractor: feed it every demand
//! access and ask for any feature's current value (or the whole state
//! vector) at the triggering access.
//!
//! ```rust
//! use pythia_core::{Feature, FeatureContext};
//! use pythia_sim::prefetch::DemandAccess;
//!
//! let mut ctx = FeatureContext::new();
//! for i in 0..4u64 {
//!     let addr = 0x1000_0000 + i * 64;
//!     ctx.update(&DemandAccess {
//!         pc: 0x400100,
//!         addr,
//!         line: addr >> 6,
//!         is_write: false,
//!         cycle: i * 40,
//!         missed: true,
//!     });
//! }
//! assert_eq!(ctx.delta(), 1, "unit-stride stream");
//! let state = ctx.state(&[Feature::PC_DELTA, Feature::LAST_4_DELTAS]);
//! assert_eq!(state.len(), 2);
//! ```

use pythia_sim::prefetch::DemandAccess;

/// Control-flow component of a feature (Table 3, left column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlFlow {
    /// PC of the load request.
    Pc,
    /// XOR of the last three load PCs ("PC-path").
    PcPath,
    /// PC XOR-ed with the PC of the immediately preceding branch.
    ///
    /// The trace interface does not deliver branch PCs to the prefetcher, so
    /// this reproduction substitutes the previous demand's PC — documented
    /// in DESIGN.md; the component keeps its role of mixing in recent
    /// control-flow context.
    PcXorBranchPc,
    /// No control-flow component.
    None,
}

impl ControlFlow {
    /// Every control-flow component, in Table 3 order.
    pub const ALL: [ControlFlow; 4] = [
        ControlFlow::Pc,
        ControlFlow::PcPath,
        ControlFlow::PcXorBranchPc,
        ControlFlow::None,
    ];
}

/// Data-flow component of a feature (Table 3, right column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataFlow {
    /// Load cacheline address.
    CachelineAddress,
    /// Physical page number.
    PageNumber,
    /// Line offset within the page (0..64).
    PageOffset,
    /// Delta, in lines, from the previous access to the same page.
    Delta,
    /// Concatenated sequence of the last four page offsets.
    LastFourOffsets,
    /// Concatenated sequence of the last four deltas (the SPP-like feature).
    LastFourDeltas,
    /// Page offset XOR-ed with the delta.
    OffsetXorDelta,
    /// No data-flow component.
    None,
}

impl DataFlow {
    /// Every data-flow component, in Table 3 order.
    pub const ALL: [DataFlow; 8] = [
        DataFlow::CachelineAddress,
        DataFlow::PageNumber,
        DataFlow::PageOffset,
        DataFlow::Delta,
        DataFlow::LastFourOffsets,
        DataFlow::LastFourDeltas,
        DataFlow::OffsetXorDelta,
        DataFlow::None,
    ];
}

/// A program feature: one dimension of the state vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Feature {
    /// Control-flow component.
    pub control: ControlFlow,
    /// Data-flow component.
    pub data: DataFlow,
}

impl Feature {
    /// The `PC+Delta` feature of the basic configuration.
    pub const PC_DELTA: Feature = Feature {
        control: ControlFlow::Pc,
        data: DataFlow::Delta,
    };
    /// The `Sequence of last-4 deltas` feature of the basic configuration.
    pub const LAST_4_DELTAS: Feature = Feature {
        control: ControlFlow::None,
        data: DataFlow::LastFourDeltas,
    };

    /// All 32 candidate features of the §4.3.1 exploration space.
    pub fn all() -> Vec<Feature> {
        ControlFlow::ALL
            .into_iter()
            .flat_map(|control| DataFlow::ALL.map(|data| Feature { control, data }))
            .collect()
    }

    /// Short human-readable name, e.g. `"PC+Delta"`.
    pub fn label(&self) -> String {
        let c = match self.control {
            ControlFlow::Pc => "PC",
            ControlFlow::PcPath => "PCPath",
            ControlFlow::PcXorBranchPc => "PC^BrPC",
            ControlFlow::None => "",
        };
        let d = match self.data {
            DataFlow::CachelineAddress => "Address",
            DataFlow::PageNumber => "Page",
            DataFlow::PageOffset => "Offset",
            DataFlow::Delta => "Delta",
            DataFlow::LastFourOffsets => "Last4Offsets",
            DataFlow::LastFourDeltas => "Last4Deltas",
            DataFlow::OffsetXorDelta => "Offset^Delta",
            DataFlow::None => "",
        };
        match (c.is_empty(), d.is_empty()) {
            (false, false) => format!("{c}+{d}"),
            (false, true) => c.to_string(),
            (true, false) => d.to_string(),
            (true, true) => "Const".to_string(),
        }
    }
}

const PAGE_TABLE_ENTRIES: usize = 64;
// `valid_mask` packs one bit per slot into a u64.
const _: () = assert!(PAGE_TABLE_ENTRIES == u64::BITS as usize);

/// Per-page access history (everything but the tag, which lives in the
/// context's SoA tag array so the per-access page lookup scans a dense
/// 512-byte tag vector instead of a strided struct array).
#[derive(Debug, Clone, Copy, Default)]
struct PageHistory {
    last_offset: i32,
    /// Last four deltas, most recent in slot 0 (7-bit signed each).
    deltas: [i8; 4],
    /// Last four offsets, most recent in slot 0.
    offsets: [u8; 4],
    lru: u64,
}

/// Tracks the program context needed to evaluate features: recent PCs and
/// per-page access history (the hardware would hold this next to the
/// prefetcher's request queue).
#[derive(Debug, Clone)]
pub struct FeatureContext {
    pcs: [u64; 3],
    prev_pc: u64,
    /// Page tags, scanned contiguously on every access.
    page_tags: [u64; PAGE_TABLE_ENTRIES],
    /// Bit `i` set ⇔ `page_tags[i]`/`page_hist[i]` hold a live entry.
    valid_mask: u64,
    /// Slot of the most recently touched page — checked before the full
    /// tag scan (demand streams revisit the same page in bursts).
    mru_slot: usize,
    page_hist: [PageHistory; PAGE_TABLE_ENTRIES],
    clock: u64,
    /// Snapshot of the current access, filled by [`FeatureContext::update`].
    line: u64,
    page: u64,
    offset: u64,
    delta: i32,
    deltas: [i8; 4],
    offsets: [u8; 4],
}

impl FeatureContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self {
            pcs: [0; 3],
            prev_pc: 0,
            page_tags: [0; PAGE_TABLE_ENTRIES],
            valid_mask: 0,
            mru_slot: 0,
            page_hist: [PageHistory::default(); PAGE_TABLE_ENTRIES],
            clock: 0,
            line: 0,
            page: 0,
            offset: 0,
            delta: 0,
            deltas: [0; 4],
            offsets: [0; 4],
        }
    }

    /// First live slot holding `page`, scanning slots in index order (the
    /// same order the old `Vec::position` scan used). Branchless
    /// match-mask over the dense tag array so the compiler can vectorize.
    #[inline]
    fn find_page(&self, page: u64) -> Option<usize> {
        // MRU shortcut: page tags are unique, so finding the page in the
        // last-touched slot is the same answer the full scan would give.
        let mru = self.mru_slot;
        if self.valid_mask & (1 << mru) != 0 && self.page_tags[mru] == page {
            return Some(mru);
        }
        let mut matches = 0u64;
        for (i, &t) in self.page_tags.iter().enumerate() {
            matches |= u64::from(t == page) << i;
        }
        matches &= self.valid_mask;
        if matches != 0 {
            Some(matches.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Victim slot for a new page: the first invalid slot, else the first
    /// slot with the minimum LRU stamp — exactly the old
    /// `min_by_key(if valid { lru } else { 0 })` selection.
    #[inline]
    fn victim_slot(&self) -> usize {
        if self.valid_mask != u64::MAX {
            return (!self.valid_mask).trailing_zeros() as usize;
        }
        let mut victim = 0;
        let mut best = u64::MAX;
        for (i, h) in self.page_hist.iter().enumerate() {
            if h.lru < best {
                best = h.lru;
                victim = i;
            }
        }
        victim
    }

    /// Ingests a demand access, updating PC and per-page histories. After
    /// this call, [`FeatureContext::value`] evaluates features for this
    /// access.
    pub fn update(&mut self, access: &DemandAccess) {
        self.clock += 1;
        let page = access.page();
        let offset = access.page_offset();

        // Per-page history.
        let (delta, deltas, offsets) = match self.find_page(page) {
            Some(i) => {
                self.mru_slot = i;
                let e = &mut self.page_hist[i];
                e.lru = self.clock;
                let delta = offset as i32 - e.last_offset;
                if delta != 0 {
                    e.deltas = [delta as i8, e.deltas[0], e.deltas[1], e.deltas[2]];
                    e.offsets = [offset as u8, e.offsets[0], e.offsets[1], e.offsets[2]];
                    e.last_offset = offset as i32;
                }
                (delta, e.deltas, e.offsets)
            }
            None => {
                let victim = self.victim_slot();
                self.mru_slot = victim;
                self.page_tags[victim] = page;
                self.valid_mask |= 1 << victim;
                self.page_hist[victim] = PageHistory {
                    last_offset: offset as i32,
                    deltas: [0; 4],
                    offsets: [offset as u8, 0, 0, 0],
                    lru: self.clock,
                };
                (0, [0; 4], [offset as u8, 0, 0, 0])
            }
        };

        self.line = access.line;
        self.page = page;
        self.offset = offset;
        self.delta = delta;
        self.deltas = deltas;
        self.offsets = offsets;

        // PC history (after data-flow so "previous branch PC" predates this
        // access).
        self.prev_pc = self.pcs[0];
        self.pcs = [access.pc, self.pcs[0], self.pcs[1]];
    }

    /// Delta of the current access (lines, within its page).
    pub fn delta(&self) -> i32 {
        self.delta
    }

    /// Evaluates `feature` for the most recently ingested access, returning
    /// the raw feature value hashed down the road by the QVStore planes.
    pub fn value(&self, feature: &Feature) -> u64 {
        let control = match feature.control {
            ControlFlow::Pc => self.pcs[0],
            ControlFlow::PcPath => self.pcs[0] ^ (self.pcs[1] << 1) ^ (self.pcs[2] << 2),
            ControlFlow::PcXorBranchPc => self.pcs[0] ^ self.prev_pc,
            ControlFlow::None => 0,
        };
        let data = match feature.data {
            DataFlow::CachelineAddress => self.line,
            DataFlow::PageNumber => self.page,
            DataFlow::PageOffset => self.offset,
            DataFlow::Delta => encode_delta(self.delta),
            DataFlow::LastFourOffsets => self
                .offsets
                .iter()
                .fold(0u64, |acc, &o| (acc << 6) | o as u64),
            DataFlow::LastFourDeltas => self
                .deltas
                .iter()
                .fold(0u64, |acc, &d| (acc << 7) | encode_delta(d as i32)),
            DataFlow::OffsetXorDelta => self.offset ^ encode_delta(self.delta),
            DataFlow::None => 0,
        };
        // Concatenation ("+" in the paper): control in the high bits.
        (control << 28) ^ data
    }

    /// Evaluates a whole state vector. The agent never builds one — it
    /// hashes each [`value`](FeatureContext::value) straight into Q-table
    /// row bases — so this is for inspection and reference models.
    pub fn state(&self, features: &[Feature]) -> Vec<u64> {
        features.iter().map(|f| self.value(f)).collect()
    }
}

impl Default for FeatureContext {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes a signed in-page delta into 7 bits (sign + magnitude).
#[inline]
fn encode_delta(delta: i32) -> u64 {
    let sign = if delta < 0 { 1u64 << 6 } else { 0 };
    sign | (delta.unsigned_abs() as u64 & 0x3f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::addr;

    fn access(pc: u64, addr: u64) -> DemandAccess {
        DemandAccess {
            pc,
            addr,
            line: addr::line_of(addr),
            is_write: false,
            cycle: 0,
            missed: true,
        }
    }

    #[test]
    fn feature_space_has_32_candidates() {
        let all = Feature::all();
        assert_eq!(all.len(), 32);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 32);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(Feature::PC_DELTA.label(), "PC+Delta");
        assert_eq!(Feature::LAST_4_DELTAS.label(), "Last4Deltas");
    }

    #[test]
    fn delta_tracks_within_page() {
        let mut ctx = FeatureContext::new();
        ctx.update(&access(0x400000, 0x10000)); // offset 0, new page
        assert_eq!(ctx.delta(), 0);
        ctx.update(&access(0x400000, 0x10000 + 23 * 64)); // offset 23
        assert_eq!(ctx.delta(), 23);
        ctx.update(&access(0x400000, 0x10000 + 10 * 64)); // offset 10
        assert_eq!(ctx.delta(), -13);
    }

    #[test]
    fn delta_resets_across_pages() {
        let mut ctx = FeatureContext::new();
        ctx.update(&access(0x400000, 0x10000 + 40 * 64));
        ctx.update(&access(0x400000, 0x20000)); // new page
        assert_eq!(ctx.delta(), 0);
        // Back to the first page: history was kept.
        ctx.update(&access(0x400000, 0x10000 + 45 * 64));
        assert_eq!(ctx.delta(), 5);
    }

    #[test]
    fn last_four_deltas_shift_in_order() {
        let mut ctx = FeatureContext::new();
        let base = 0x30000u64;
        for off in [0u64, 1, 4, 8, 20] {
            ctx.update(&access(0x400000, base + off * 64));
        }
        // Deltas observed: 1, 3, 4, 12 (most recent first: 12,4,3,1).
        assert_eq!(ctx.deltas, [12, 4, 3, 1]);
        let v = ctx.value(&Feature::LAST_4_DELTAS);
        let expected = (encode_delta(12) << 21)
            | (encode_delta(4) << 14)
            | (encode_delta(3) << 7)
            | encode_delta(1);
        assert_eq!(v, expected);
    }

    #[test]
    fn pc_delta_differs_by_pc_and_delta() {
        let mut ctx = FeatureContext::new();
        ctx.update(&access(0x400000, 0x10000));
        ctx.update(&access(0x400000, 0x10000 + 64));
        let v1 = ctx.value(&Feature::PC_DELTA);
        let mut ctx2 = FeatureContext::new();
        ctx2.update(&access(0x400004, 0x10000));
        ctx2.update(&access(0x400004, 0x10000 + 64));
        let v2 = ctx2.value(&Feature::PC_DELTA);
        assert_ne!(v1, v2, "different PCs must give different PC+Delta values");
        let mut ctx3 = FeatureContext::new();
        ctx3.update(&access(0x400000, 0x10000));
        ctx3.update(&access(0x400000, 0x10000 + 2 * 64));
        assert_ne!(v1, ctx3.value(&Feature::PC_DELTA));
    }

    #[test]
    fn none_none_feature_is_constant() {
        let f = Feature {
            control: ControlFlow::None,
            data: DataFlow::None,
        };
        let mut ctx = FeatureContext::new();
        ctx.update(&access(0x1, 0x10000));
        let v1 = ctx.value(&f);
        ctx.update(&access(0x2, 0x9_0000));
        assert_eq!(v1, ctx.value(&f));
        assert_eq!(f.label(), "Const");
    }

    #[test]
    fn encode_delta_is_injective_in_range() {
        let mut seen = std::collections::HashSet::new();
        for d in -63..=63i32 {
            assert!(seen.insert(encode_delta(d)), "collision at {d}");
        }
    }

    #[test]
    fn repeated_same_line_does_not_shift_history() {
        let mut ctx = FeatureContext::new();
        ctx.update(&access(0x400000, 0x10000));
        ctx.update(&access(0x400000, 0x10000 + 64));
        let before = ctx.deltas;
        ctx.update(&access(0x400000, 0x10000 + 64)); // same line, delta 0
        assert_eq!(ctx.deltas, before, "zero delta must not pollute history");
    }
}
