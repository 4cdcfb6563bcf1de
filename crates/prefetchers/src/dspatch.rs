//! DSPatch: Dual Spatial Pattern prefetcher (Bera et al., MICRO 2019).
//!
//! DSPatch learns, per trigger-PC, *two* bit-patterns over a spatial region:
//! a coverage-biased pattern (`CovP`, the OR of observed footprints) and an
//! accuracy-biased pattern (`AccP`, the AND). At prediction time it picks
//! between them using DRAM bandwidth utilization — the "system awareness as
//! an afterthought" design the Pythia paper contrasts with its inherent
//! reward-level feedback.

use pythia_sim::addr;
use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::util::{hash_bits, lru_victim};

/// Region = one 4 KB page (64 lines), as in the original proposal.
const REGION_LINES: usize = addr::LINES_PER_PAGE as usize;
const PB_ENTRIES: usize = 64;
const SPT_ENTRIES: usize = 256;
/// Patterns decay periodically so stale unions don't dominate.
const DECAY_PERIOD: u32 = 128;

#[derive(Debug, Clone, Copy, Default)]
struct PageBufferEntry {
    valid: bool,
    page: u64,
    trigger_pc: u64,
    trigger_offset: u8,
    footprint: u64,
    lru: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct SptEntry {
    valid: bool,
    tag: u16,
    /// Coverage-biased pattern: OR of anchored footprints.
    cov_p: u64,
    /// Accuracy-biased pattern: AND of anchored footprints.
    acc_p: u64,
    /// Number of footprints merged (for decay and confidence).
    merges: u32,
    /// Running sum of observed footprint popcounts (density estimate).
    bits_seen: u32,
}

/// Rotates a 64-bit footprint left so the trigger offset becomes bit 0
/// (anchoring patterns relative to the trigger).
#[inline]
fn anchor(footprint: u64, trigger_offset: u8) -> u64 {
    footprint.rotate_right(trigger_offset as u32)
}

/// Undoes [`anchor`]: places bit 0 of the pattern at `trigger_offset`.
#[inline]
fn unanchor(pattern: u64, trigger_offset: u8) -> u64 {
    pattern.rotate_left(trigger_offset as u32)
}

/// The DSPatch prefetcher.
#[derive(Debug)]
pub struct DsPatch {
    pb: Vec<PageBufferEntry>,
    spt: Vec<SptEntry>,
    clock: u64,
    decay_counter: u32,
}

impl DsPatch {
    /// Creates a DSPatch instance with the configuration of the original
    /// paper (64-entry page buffer, 256-entry signature pattern table).
    pub fn new() -> Self {
        Self {
            pb: vec![PageBufferEntry::default(); PB_ENTRIES],
            spt: vec![SptEntry::default(); SPT_ENTRIES],
            clock: 0,
            decay_counter: 0,
        }
    }

    fn spt_slot(pc: u64) -> (usize, u16) {
        (hash_bits(pc, 8), ((pc >> 8) & 0xffff) as u16)
    }

    fn commit(&mut self, entry: PageBufferEntry) {
        let (idx, tag) = Self::spt_slot(entry.trigger_pc);
        let anchored = anchor(entry.footprint, entry.trigger_offset);
        let e = &mut self.spt[idx];
        if !e.valid || e.tag != tag {
            *e = SptEntry {
                valid: true,
                tag,
                cov_p: anchored,
                acc_p: anchored,
                merges: 1,
                bits_seen: anchored.count_ones(),
            };
            return;
        }
        e.cov_p |= anchored;
        e.acc_p &= anchored;
        e.merges += 1;
        e.bits_seen += anchored.count_ones();
        self.decay_counter += 1;
        if self.decay_counter >= DECAY_PERIOD {
            self.decay_counter = 0;
            // Periodic decay: CovP resets toward AccP to shed stale bits.
            // Halve the density-estimate numerator and denominator together
            // so the guard's average stays calibrated.
            for s in &mut self.spt {
                if s.valid && s.merges > 4 {
                    s.cov_p = s.acc_p | (s.cov_p & anchorless_half(s.cov_p));
                    s.merges /= 2;
                    s.bits_seen /= 2;
                }
            }
        }
    }

    fn predict(&self, pc: u64, trigger_offset: u8, bandwidth_high: bool) -> Option<u64> {
        let (idx, tag) = Self::spt_slot(pc);
        let e = &self.spt[idx];
        if !e.valid || e.tag != tag || e.merges < 2 {
            return None;
        }
        // Density guard: if CovP has grown far denser than the typical
        // observed footprint (a union of unrelated visits, e.g. on random
        // traffic), prefetching it would flood -- fall back to AccP.
        let avg_bits = (e.bits_seen / e.merges).max(1);
        let pattern = if bandwidth_high || e.cov_p.count_ones() > 2 * avg_bits {
            e.acc_p
        } else {
            e.cov_p
        };
        if pattern == 0 {
            None
        } else {
            Some(unanchor(pattern, trigger_offset))
        }
    }
}

/// Keeps every other bit of a pattern (a cheap decay mask).
#[inline]
fn anchorless_half(p: u64) -> u64 {
    p & 0x5555_5555_5555_5555
}

impl Default for DsPatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for DsPatch {
    fn name(&self) -> &str {
        "dspatch"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.clock += 1;
        let page = access.page();
        let offset = access.page_offset() as usize;

        if let Some(e) = self.pb.iter_mut().find(|e| e.valid && e.page == page) {
            e.footprint |= 1u64 << offset;
            e.lru = self.clock;
            return;
        }

        // First access to this page: predict, then start tracking it.
        if let Some(pattern) = self.predict(access.pc, offset as u8, feedback.bandwidth_high) {
            let page_base_line = page * addr::LINES_PER_PAGE;
            for bit in 0..REGION_LINES {
                if pattern & (1u64 << bit) != 0 && bit != offset {
                    out.push(PrefetchRequest::to_l2(page_base_line + bit as u64));
                }
            }
        }

        let victim = lru_victim(&self.pb, |e| e.valid.then_some(e.lru));
        let evicted = self.pb[victim];
        if evicted.valid {
            self.commit(evicted);
        }
        self.pb[victim] = PageBufferEntry {
            valid: true,
            page,
            trigger_pc: access.pc,
            trigger_offset: offset as u8,
            footprint: 1u64 << offset,
            lru: self.clock,
        };
    }

    fn storage_bits(&self) -> u64 {
        // PB: page tag(36) + pc(16) + offset(6) + footprint(64) + v(1) + lru(8)
        let pb = PB_ENTRIES as u64 * (36 + 16 + 6 + 64 + 1 + 8);
        // SPT: tag(16) + CovP(64) + AccP(64) + merges(8) + v(1)
        let spt = SPT_ENTRIES as u64 * (16 + 64 + 64 + 8 + 1);
        pb + spt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    fn low_bw() -> SystemFeedback {
        SystemFeedback {
            bandwidth_high: false,
            bandwidth_utilization_pct: 10,
        }
    }

    fn high_bw() -> SystemFeedback {
        SystemFeedback {
            bandwidth_high: true,
            bandwidth_utilization_pct: 90,
        }
    }

    /// Train DSPatch with footprints over many pages; `varying` adds noise
    /// bits to alternate pages so CovP != AccP.
    fn train(p: &mut DsPatch, pages: u64, stable: &[usize], noisy: &[usize]) {
        for page in 0..pages {
            let base = (100 + page) * 4096;
            for &o in stable {
                p.on_demand(&test_access(0x400def, base + o as u64 * 64), &low_bw());
            }
            if page % 2 == 0 {
                for &o in noisy {
                    p.on_demand(&test_access(0x400def, base + o as u64 * 64), &low_bw());
                }
            }
        }
        // Flush page buffer by touching many fresh pages so footprints commit.
        for page in 0..PB_ENTRIES as u64 + 4 {
            p.on_demand(&test_access(0x999999, (90_000 + page) * 4096), &low_bw());
        }
    }

    #[test]
    fn coverage_pattern_used_at_low_bandwidth() {
        let mut p = DsPatch::new();
        train(&mut p, 150, &[0, 4, 8], &[20, 30]);
        let out = p.on_demand(&test_access(0x400def, 500_000 * 4096), &low_bw());
        let lines: Vec<u64> = out.iter().map(|r| r.line % 64).collect();
        // CovP includes the noisy bits.
        assert!(lines.contains(&4) && lines.contains(&8), "{lines:?}");
        assert!(
            lines.contains(&20) || lines.contains(&30),
            "CovP should include union bits: {lines:?}"
        );
    }

    #[test]
    fn accuracy_pattern_used_at_high_bandwidth() {
        let mut p = DsPatch::new();
        train(&mut p, 150, &[0, 4, 8], &[20, 30]);
        let out = p.on_demand(&test_access(0x400def, 600_000 * 4096), &high_bw());
        let lines: Vec<u64> = out.iter().map(|r| r.line % 64).collect();
        // AccP = intersection: stable bits only.
        assert!(lines.contains(&4) && lines.contains(&8), "{lines:?}");
        assert!(
            !lines.contains(&20) && !lines.contains(&30),
            "AccP must exclude noise bits: {lines:?}"
        );
    }

    #[test]
    fn high_bw_prediction_is_subset_of_low_bw() {
        let mut p = DsPatch::new();
        train(&mut p, 150, &[0, 2, 10, 40], &[5, 25]);
        let cov = p.on_demand(&test_access(0x400def, 700_000 * 4096), &low_bw());
        let mut q = DsPatch::new();
        train(&mut q, 150, &[0, 2, 10, 40], &[5, 25]);
        let acc = q.on_demand(&test_access(0x400def, 700_000 * 4096), &high_bw());
        let cov_set: std::collections::HashSet<u64> = cov.iter().map(|r| r.line % 64).collect();
        for r in &acc {
            assert!(cov_set.contains(&(r.line % 64)), "AccP ⊄ CovP");
        }
        assert!(acc.len() <= cov.len());
    }

    #[test]
    fn untrained_pc_stays_quiet() {
        let mut p = DsPatch::new();
        let out = p.on_demand(&test_access(0x1234, 0x8000_0000), &low_bw());
        assert!(out.is_empty());
    }

    #[test]
    fn anchoring_roundtrip() {
        let fp = 0b1011u64;
        for off in 0..64u8 {
            assert_eq!(unanchor(anchor(fp, off), off), fp);
        }
    }
}
