//! PC-based stride prefetcher (Fu & Patel, MICRO'92; Jouppi-style table).
//!
//! Each entry tracks the last line touched by a PC and the stride between
//! its last two accesses; two consecutive confirmations arm the entry, after
//! which it prefetches `degree` strides ahead. The paper uses this as the
//! L1-level component of the multi-level configurations (§6.2.4) and as the
//! base rung of the prefetcher-combination ladders (Fig. 9(b)).

use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::util::push_in_page;

const TABLE_ENTRIES: usize = 256;
const CONF_MAX: u8 = 3;
const CONF_ARM: u8 = 2;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u16,
    valid: bool,
    last_line: u64,
    stride: i32,
    confidence: u8,
}

/// The stride prefetcher.
#[derive(Debug)]
pub struct StridePrefetcher {
    table: Vec<Entry>,
    degree: u32,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with the given prefetch degree.
    pub fn new(degree: u32) -> Self {
        Self {
            table: vec![Entry::default(); TABLE_ENTRIES],
            degree,
        }
    }

    fn slot(pc: u64) -> (usize, u16) {
        let idx = (pc >> 2) as usize % TABLE_ENTRIES;
        let tag = ((pc >> 10) & 0xffff) as u16;
        (idx, tag)
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new(2)
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &str {
        "stride"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        _feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let (idx, tag) = Self::slot(access.pc);
        let entry = &mut self.table[idx];

        if !entry.valid || entry.tag != tag {
            *entry = Entry {
                tag,
                valid: true,
                last_line: access.line,
                stride: 0,
                confidence: 0,
            };
            return;
        }

        let observed = access.line as i64 - entry.last_line as i64;
        let observed = observed.clamp(-63, 63) as i32;
        if observed == entry.stride && observed != 0 {
            entry.confidence = (entry.confidence + 1).min(CONF_MAX);
        } else {
            entry.confidence = entry.confidence.saturating_sub(1);
            if entry.confidence == 0 {
                entry.stride = observed;
            }
        }
        entry.last_line = access.line;

        if entry.confidence >= CONF_ARM && entry.stride != 0 {
            for d in 1..=self.degree as i32 {
                push_in_page(out, access.line, entry.stride * d, true);
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // tag(16) + valid(1) + last_line(32) + stride(7) + confidence(2)
        TABLE_ENTRIES as u64 * (16 + 1 + 32 + 7 + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;
    use pythia_sim::prefetch::SystemFeedback;

    fn feed(p: &mut StridePrefetcher, pc: u64, addrs: &[u64]) -> Vec<Vec<PrefetchRequest>> {
        addrs
            .iter()
            .map(|&a| p.on_demand(&test_access(pc, a), &SystemFeedback::idle()))
            .collect()
    }

    #[test]
    fn learns_constant_stride() {
        let mut p = StridePrefetcher::new(2);
        // Accesses striding by 2 lines within one page.
        let addrs: Vec<u64> = (0..8).map(|i| 0x10000 + i * 128).collect();
        let results = feed(&mut p, 0x400100, &addrs);
        // After warmup the prefetcher must emit stride-2 requests.
        let last = results.last().unwrap();
        assert!(!last.is_empty(), "armed entry should prefetch");
        let base = pythia_sim::addr::line_of(*addrs.last().unwrap());
        assert_eq!(last[0].line, base + 2);
        assert_eq!(last[1].line, base + 4);
    }

    #[test]
    fn negative_strides_supported() {
        let mut p = StridePrefetcher::new(1);
        let addrs: Vec<u64> = (0..8).map(|i| 0x1f000 - i * 64).collect();
        let results = feed(&mut p, 0x400200, &addrs);
        let last = results.last().unwrap();
        assert!(!last.is_empty());
        let base = pythia_sim::addr::line_of(*addrs.last().unwrap());
        assert_eq!(last[0].line, base - 1);
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut p = StridePrefetcher::new(2);
        let addrs = [0x10000, 0x10340, 0x10080, 0x10800, 0x10140, 0x10a00];
        let results = feed(&mut p, 0x400300, &addrs);
        let total: usize = results.iter().map(Vec::len).sum();
        assert_eq!(total, 0, "irregular pattern must not trigger prefetches");
    }

    #[test]
    fn pc_aliasing_resets_entry() {
        let mut p = StridePrefetcher::new(2);
        feed(&mut p, 0x400100, &[0x10000, 0x10040, 0x10080]);
        // Different PC mapping to a different slot must not inherit state.
        let out = feed(&mut p, 0x99999c, &[0x20000]);
        assert!(out[0].is_empty());
    }

    #[test]
    fn stats_track_issued() {
        // A unit stride is learnt on the second access, confirmed on the
        // third and armed on the fourth; from then on each demand issues
        // its `degree` requests, one and two lines ahead.
        let mut p = StridePrefetcher::new(2);
        let addrs: Vec<u64> = (0..10).map(|i| 0x10000 + i * 64).collect();
        for (i, (out, &a)) in feed(&mut p, 0x400100, &addrs)
            .iter()
            .zip(&addrs)
            .enumerate()
        {
            let line = pythia_sim::addr::line_of(a);
            let expected = match i {
                0..=2 => vec![],
                _ => vec![
                    PrefetchRequest::to_l2(line + 1),
                    PrefetchRequest::to_l2(line + 2),
                ],
            };
            assert_eq!(*out, expected, "access {i}");
        }
    }

    #[test]
    fn storage_is_kilobytes_scale() {
        let p = StridePrefetcher::default();
        let kb = p.storage_bits() as f64 / 8192.0;
        assert!(kb < 4.0, "stride prefetcher should be tiny: {kb} KB");
    }
}
