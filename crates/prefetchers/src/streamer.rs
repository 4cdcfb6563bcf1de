//! Next-N-line streamer with direction detection (Chen & Baer-style), the
//! "streamer at L2" of commercial Intel processors referenced in §6.2.4.
//!
//! A small table tracks per-page access direction; once a stream is
//! confirmed, the prefetcher runs `degree` lines ahead of the demand in the
//! detected direction.

use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::util::{lru_victim, push_in_page};

const TABLE_ENTRIES: usize = 64;

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    page: u64,
    valid: bool,
    last_offset: i32,
    direction: i32,
    confidence: u8,
    lru: u64,
}

/// The streamer prefetcher.
#[derive(Debug)]
pub struct Streamer {
    table: Vec<StreamEntry>,
    degree: u32,
    clock: u64,
}

impl Streamer {
    /// Creates a streamer with the given prefetch degree (lines ahead).
    pub fn new(degree: u32) -> Self {
        Self {
            table: vec![StreamEntry::default(); TABLE_ENTRIES],
            degree,
            clock: 0,
        }
    }
}

impl Default for Streamer {
    fn default() -> Self {
        Self::new(4)
    }
}

impl Prefetcher for Streamer {
    fn name(&self) -> &str {
        "streamer"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        _feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.clock += 1;
        let page = access.page();
        let offset = access.page_offset() as i32;

        let pos = self.table.iter().position(|e| e.valid && e.page == page);
        match pos {
            Some(i) => {
                let e = &mut self.table[i];
                e.lru = self.clock;
                let dir = (offset - e.last_offset).signum();
                if dir != 0 {
                    if dir == e.direction {
                        e.confidence = (e.confidence + 1).min(3);
                    } else {
                        e.confidence = e.confidence.saturating_sub(1);
                        if e.confidence == 0 {
                            e.direction = dir;
                        }
                    }
                }
                e.last_offset = offset;
                if e.confidence >= 1 && e.direction != 0 {
                    let direction = e.direction;
                    for d in 1..=self.degree as i32 {
                        push_in_page(out, access.line, direction * d, true);
                    }
                }
            }
            None => {
                let victim = lru_victim(&self.table, |e| e.valid.then_some(e.lru));
                self.table[victim] = StreamEntry {
                    page,
                    valid: true,
                    last_offset: offset,
                    direction: 0,
                    confidence: 0,
                    lru: self.clock,
                };
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // page tag(36) + valid(1) + last_offset(6) + dir(2) + conf(2) + lru(8)
        TABLE_ENTRIES as u64 * (36 + 1 + 6 + 2 + 2 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    #[test]
    fn ascending_stream_detected() {
        let mut p = Streamer::new(4);
        let mut last = Vec::new();
        for i in 0..6u64 {
            last = p.on_demand(
                &test_access(0x400000, 0x40000 + i * 64),
                &SystemFeedback::idle(),
            );
        }
        assert_eq!(last.len(), 4);
        let base = pythia_sim::addr::line_of(0x40000 + 5 * 64);
        assert_eq!(last[0].line, base + 1);
        assert_eq!(last[3].line, base + 4);
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = Streamer::new(2);
        let mut last = Vec::new();
        for i in 0..6u64 {
            last = p.on_demand(
                &test_access(0x400000, 0x40fc0 - i * 64),
                &SystemFeedback::idle(),
            );
        }
        assert!(!last.is_empty());
        let base = pythia_sim::addr::line_of(0x40fc0 - 5 * 64);
        assert_eq!(last[0].line, base - 1);
    }

    #[test]
    fn first_touch_is_silent() {
        let mut p = Streamer::new(4);
        let out = p.on_demand(&test_access(0x400000, 0x50000), &SystemFeedback::idle());
        assert!(out.is_empty());
    }

    #[test]
    fn table_replacement_evicts_lru_page() {
        let mut p = Streamer::new(4);
        // Touch 65 distinct pages: the first page's entry must be evicted.
        for page in 0..65u64 {
            p.on_demand(&test_access(0x400000, page * 4096), &SystemFeedback::idle());
        }
        // Re-touching page 0 re-allocates (no panic, silent first touch).
        let out = p.on_demand(&test_access(0x400000, 0), &SystemFeedback::idle());
        assert!(out.is_empty());
    }
}
