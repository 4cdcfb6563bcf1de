//! Bingo spatial data prefetcher (Bakhshalipour et al., HPCA 2019),
//! configured per Table 7 of the Pythia paper: 2 KB regions, 64-entry filter
//! table, 128-entry accumulation table, 4K-entry pattern history table
//! (~46 KB).
//!
//! Bingo records the footprint (bit-vector of accessed lines) of each
//! spatial region, keyed by the *trigger* access that first touched it. At
//! lookup it tries the most specific event first — `PC+Address` — and falls
//! back to the more general `PC+Offset`, the mechanism the Pythia paper
//! describes as exploiting two program features in one design.

use crate::util::{hash_bits, lru_victim};
use pythia_sim::addr;
use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

/// Region size in bytes (Table 7).
pub const REGION_BYTES: u64 = 2048;
/// Lines per region.
pub const REGION_LINES: usize = (REGION_BYTES / addr::LINE_SIZE) as usize;

const FT_ENTRIES: usize = 64;
const AT_ENTRIES: usize = 128;
const PHT_SETS: usize = 256;
const PHT_WAYS: usize = 16;

#[inline]
fn region_of_line(line: u64) -> u64 {
    line / REGION_LINES as u64
}

#[inline]
fn region_offset(line: u64) -> usize {
    (line % REGION_LINES as u64) as usize
}

#[derive(Debug, Clone, Copy, Default)]
struct FtEntry {
    valid: bool,
    region: u64,
    trigger_pc: u64,
    trigger_offset: u8,
    lru: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct AtEntry {
    valid: bool,
    region: u64,
    trigger_pc: u64,
    trigger_offset: u8,
    footprint: u32,
    lru: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PhtEntry {
    valid: bool,
    /// Hash of PC+Offset (the short, general event) — used as the set index
    /// companion tag.
    short_tag: u16,
    /// Hash of PC+Address (the long, specific event).
    long_tag: u32,
    footprint: u32,
    /// Recurrence confidence: bumped when a newly committed footprint for
    /// the same short event overlaps the stored one, decayed otherwise.
    /// Short-event (fallback) predictions require `conf >= 2`, i.e. the
    /// footprint must have recurred at least once — this keeps random
    /// co-occurrences from being replayed on irregular workloads.
    conf: u8,
    lru: u64,
}

/// Fraction test: at least 3/4 of `stored`'s bits appear in `new`.
#[inline]
fn recurs(new: u32, stored: u32) -> bool {
    let stored_bits = stored.count_ones().max(1);
    (new & stored).count_ones() * 4 >= stored_bits * 3
}

/// The Bingo prefetcher.
#[derive(Debug)]
pub struct Bingo {
    ft: Vec<FtEntry>,
    at: Vec<AtEntry>,
    pht: Vec<[PhtEntry; PHT_WAYS]>,
    clock: u64,
}

impl Bingo {
    /// Creates a Bingo instance with the Table 7 configuration.
    pub fn new() -> Self {
        Self {
            ft: vec![FtEntry::default(); FT_ENTRIES],
            at: vec![AtEntry::default(); AT_ENTRIES],
            pht: vec![[PhtEntry::default(); PHT_WAYS]; PHT_SETS],
            clock: 0,
        }
    }

    fn short_event(pc: u64, offset: u8) -> (usize, u16) {
        let key = (pc << 6) ^ offset as u64;
        (hash_bits(key, 8), (key & 0xffff) as u16)
    }

    fn long_event(pc: u64, line: u64) -> u32 {
        let key = pc ^ (line << 20);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
    }

    /// Commits a finished region's footprint into the PHT.
    fn commit(&mut self, entry: AtEntry) {
        // Anchor the footprint on the trigger offset so it can be replayed
        // relative to the trigger of a future region.
        let (set, short_tag) = Self::short_event(entry.trigger_pc, entry.trigger_offset);
        let long_tag = Self::long_event(
            entry.trigger_pc,
            entry.region * REGION_LINES as u64 + entry.trigger_offset as u64,
        );
        self.clock += 1;
        let ways = &mut self.pht[set];
        // Update an existing long match if present.
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.long_tag == long_tag) {
            w.conf = if recurs(entry.footprint, w.footprint) {
                (w.conf + 1).min(3)
            } else {
                w.conf.saturating_sub(1)
            };
            w.footprint = entry.footprint;
            w.short_tag = short_tag;
            w.lru = self.clock;
            return;
        }
        // Inherit confidence from the most recent same-short-event entry:
        // a footprint that keeps recurring across regions earns trust.
        let inherited = ways
            .iter()
            .filter(|w| w.valid && w.short_tag == short_tag)
            .max_by_key(|w| w.lru)
            .map(|w| {
                if recurs(entry.footprint, w.footprint) {
                    (w.conf + 1).min(3)
                } else {
                    w.conf.saturating_sub(1)
                }
            })
            .unwrap_or(1);
        ways[lru_victim(ways, |w| w.valid.then_some(w.lru))] = PhtEntry {
            valid: true,
            short_tag,
            long_tag,
            footprint: entry.footprint,
            conf: inherited,
            lru: self.clock,
        };
    }

    /// Looks up a predicted footprint for a region triggered by
    /// `(pc, line)`. Tries PC+Address first, then falls back to voting over
    /// PC+Offset matches.
    fn lookup(&mut self, pc: u64, line: u64) -> Option<u32> {
        let offset = region_offset(line) as u8;
        let (set, short_tag) = Self::short_event(pc, offset);
        let long_tag = Self::long_event(pc, line);
        self.clock += 1;
        let clock = self.clock;
        let ways = &mut self.pht[set];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.long_tag == long_tag) {
            w.lru = clock;
            return Some(w.footprint);
        }
        // Fall back to the general event (PC+Offset): use the most recently
        // updated matching entry's footprint, provided it has recurred
        // (conf >= 2). One-off co-occurrences are never replayed.
        ways.iter()
            .filter(|w| w.valid && w.short_tag == short_tag && w.conf >= 2)
            .max_by_key(|w| w.lru)
            .map(|w| w.footprint)
    }

    fn at_record(&mut self, region: u64, offset: usize) -> bool {
        self.clock += 1;
        if let Some(e) = self.at.iter_mut().find(|e| e.valid && e.region == region) {
            e.footprint |= 1 << offset;
            e.lru = self.clock;
            return true;
        }
        false
    }

    fn at_insert(&mut self, entry: AtEntry) {
        let victim_idx = lru_victim(&self.at, |e| e.valid.then_some(e.lru));
        let victim = self.at[victim_idx];
        if victim.valid {
            self.commit(victim);
        }
        self.at[victim_idx] = entry;
    }
}

impl Default for Bingo {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Bingo {
    fn name(&self) -> &str {
        "bingo"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        _feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let region = region_of_line(access.line);
        let offset = region_offset(access.line);

        // Already accumulating: just record the footprint bit.
        if self.at_record(region, offset) {
            return;
        }

        // Second access to a filtered region promotes it to the AT.
        self.clock += 1;
        let clock = self.clock;
        if let Some(i) = self.ft.iter().position(|e| e.valid && e.region == region) {
            let ft = self.ft[i];
            if ft.trigger_offset as usize != offset {
                self.ft[i].valid = false;
                let footprint = (1u32 << ft.trigger_offset) | (1u32 << offset);
                self.at_insert(AtEntry {
                    valid: true,
                    region,
                    trigger_pc: ft.trigger_pc,
                    trigger_offset: ft.trigger_offset,
                    footprint,
                    lru: clock,
                });
            }
            return;
        }

        // First access to the region: trigger. Predict the footprint and
        // allocate a filter entry.
        if let Some(footprint) = self.lookup(access.pc, access.line) {
            let region_base = region * REGION_LINES as u64;
            for bit in 0..REGION_LINES {
                if footprint & (1 << bit) != 0 && bit != offset {
                    out.push(PrefetchRequest::to_l2(region_base + bit as u64));
                }
            }
        }
        let victim = lru_victim(&self.ft, |e| e.valid.then_some(e.lru));
        self.ft[victim] = FtEntry {
            valid: true,
            region,
            trigger_pc: access.pc,
            trigger_offset: offset as u8,
            lru: clock,
        };
    }

    fn storage_bits(&self) -> u64 {
        // FT: region tag(30) + pc(16 hashed) + offset(5) + valid(1) + lru(8)
        let ft = FT_ENTRIES as u64 * (30 + 16 + 5 + 1 + 8);
        // AT: region tag(30) + pc(16) + offset(5) + footprint(32) + v(1) + lru(8)
        let at = AT_ENTRIES as u64 * (30 + 16 + 5 + 32 + 1 + 8);
        // PHT: short tag(16) + long tag(32) + footprint(32) + conf(2) + v(1) + lru(8)
        let pht = (PHT_SETS * PHT_WAYS) as u64 * (16 + 32 + 32 + 2 + 1 + 8);
        ft + at + pht
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    /// Drives Bingo through `reps` repetitions of a fixed footprint pattern
    /// over distinct regions triggered by the same PC+offset.
    fn train_footprint(p: &mut Bingo, reps: u64, offsets: &[usize]) {
        for r in 0..reps {
            let region_base = (1000 + r) * REGION_BYTES;
            for &o in offsets {
                let a = region_base + o as u64 * 64;
                p.on_demand(&test_access(0x400abc, a), &SystemFeedback::idle());
            }
        }
    }

    #[test]
    fn replays_learned_footprint_on_trigger() {
        let mut p = Bingo::new();
        let offsets = [0usize, 3, 7, 12, 20];
        // Train enough regions that earlier ones are committed to the PHT
        // (AT eviction through capacity, 128 entries).
        train_footprint(&mut p, 200, &offsets);
        // A fresh region triggered by the same PC at offset 0 should fetch
        // the rest of the footprint.
        let out = p.on_demand(
            &test_access(0x400abc, 9_000 * REGION_BYTES),
            &SystemFeedback::idle(),
        );
        assert!(!out.is_empty(), "trained Bingo should replay the footprint");
        let base =
            region_of_line(pythia_sim::addr::line_of(9_000 * REGION_BYTES)) * REGION_LINES as u64;
        let lines: Vec<u64> = out.iter().map(|r| r.line).collect();
        for &o in &offsets[1..] {
            assert!(
                lines.contains(&(base + o as u64)),
                "missing footprint line {o}"
            );
        }
    }

    #[test]
    fn single_access_regions_do_not_pollute() {
        let mut p = Bingo::new();
        // Touch many regions exactly once: nothing should be learned or
        // prefetched.
        for r in 0..300u64 {
            let out = p.on_demand(
                &test_access(0x400abc, r * REGION_BYTES),
                &SystemFeedback::idle(),
            );
            assert!(out.is_empty());
        }
    }

    #[test]
    fn dense_region_prefetches_whole_region() {
        let mut p = Bingo::new();
        let all: Vec<usize> = (0..REGION_LINES).collect();
        train_footprint(&mut p, 200, &all);
        let out = p.on_demand(
            &test_access(0x400abc, 7_777 * REGION_BYTES),
            &SystemFeedback::idle(),
        );
        // Streaming workloads: Bingo fetches the full region at once (this
        // is why it wins on libquantum-style streams in the paper).
        assert!(out.len() >= REGION_LINES - 4, "got {}", out.len());
    }

    #[test]
    fn different_pc_uses_fallback_or_stays_quiet() {
        let mut p = Bingo::new();
        train_footprint(&mut p, 200, &[0, 5, 9]);
        // Different PC, same offset: long event misses; short event
        // (PC+Offset) also differs because PC is part of the short key.
        let out = p.on_demand(
            &test_access(0x999999, 8_888 * REGION_BYTES),
            &SystemFeedback::idle(),
        );
        assert!(out.is_empty(), "unrelated PC should not replay footprints");
    }

    #[test]
    fn storage_matches_table7_order() {
        let p = Bingo::new();
        let kb = p.storage_bits() as f64 / 8192.0;
        // Table 7 reports 46 KB.
        assert!(kb > 20.0 && kb < 80.0, "Bingo storage {kb} KB out of range");
    }
}
