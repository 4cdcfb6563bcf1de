//! Multi-Lookahead Offset Prefetcher (Shakerinava et al., third data
//! prefetching championship), configured per Table 7 of the Pythia paper:
//! 128-entry access-map table, 500-update evaluation rounds, degree 16.
//!
//! MLOP generalizes best-offset prefetching: for every candidate offset it
//! scores, over an evaluation round, how often the offset would have
//! predicted an observed access — at multiple lookahead levels — and then
//! selects one best offset *per lookahead level* (up to the degree). The
//! result is an aggressive multi-offset prefetcher with high coverage and
//! high overprediction, which is exactly the behaviour the paper contrasts
//! Pythia against in bandwidth-constrained systems.

use pythia_sim::addr;
use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::util::{lru_victim, push_in_page};

const AMT_ENTRIES: usize = 128;
const ROUND_UPDATES: u32 = 500;
const MAX_DEGREE: usize = 16;
/// Candidate offsets: every non-zero offset in [-31, 31] (the DPC-3 MLOP
/// evaluates offsets within half a page around the demand).
const CANDIDATE_MIN: i32 = -31;
const CANDIDATE_MAX: i32 = 31;
const NUM_CANDIDATES: usize = (CANDIDATE_MAX - CANDIDATE_MIN + 1) as usize;

#[derive(Debug, Clone, Copy, Default)]
struct AmtEntry {
    valid: bool,
    page: u64,
    /// Lines demanded in this page (drives offset scoring).
    accessed: u64,
    /// Lines already prefetched (suppresses duplicate requests; never
    /// feeds the scores).
    prefetched: u64,
    lru: u64,
}

/// The MLOP prefetcher.
#[derive(Debug)]
pub struct Mlop {
    amt: Vec<AmtEntry>,
    scores: [u32; NUM_CANDIDATES],
    chosen: Vec<i32>,
    updates: u32,
    clock: u64,
}

impl Mlop {
    /// Creates an MLOP instance with the Table 7 configuration.
    pub fn new() -> Self {
        Self {
            amt: vec![AmtEntry::default(); AMT_ENTRIES],
            scores: [0; NUM_CANDIDATES],
            chosen: Vec::new(),
            updates: 0,
            clock: 0,
        }
    }

    #[inline]
    fn candidate_index(offset: i32) -> usize {
        (offset - CANDIDATE_MIN) as usize
    }

    #[inline]
    fn candidate_offset(index: usize) -> i32 {
        index as i32 + CANDIDATE_MIN
    }

    /// Finishes an evaluation round: pick the best offset per lookahead
    /// level, i.e. the top-`MAX_DEGREE` scoring offsets above a noise floor.
    fn select_offsets(&mut self) {
        let floor = ROUND_UPDATES / 4; // an offset must predict >=25% of accesses
        let mut indexed: Vec<(usize, u32)> = self
            .scores
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, s)| s >= floor && Self::candidate_offset(i) != 0)
            .collect();
        indexed.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
        self.chosen = indexed
            .into_iter()
            .take(MAX_DEGREE)
            .map(|(i, _)| Self::candidate_offset(i))
            .collect();
        self.scores = [0; NUM_CANDIDATES];
        self.updates = 0;
    }

    /// The offsets currently armed (for tests/diagnostics).
    pub fn chosen_offsets(&self) -> &[i32] {
        &self.chosen
    }
}

impl Default for Mlop {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Mlop {
    fn name(&self) -> &str {
        "mlop"
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

        // Locate or allocate the page's access map.
        let pos = self.amt.iter().position(|e| e.valid && e.page == page);
        let idx = match pos {
            Some(i) => i,
            None => {
                let victim = lru_victim(&self.amt, |e| e.valid.then_some(e.lru));
                self.amt[victim] = AmtEntry {
                    valid: true,
                    page,
                    accessed: 0,
                    prefetched: 0,
                    lru: self.clock,
                };
                victim
            }
        };
        self.amt[idx].lru = self.clock;
        let bitmap = self.amt[idx].accessed;

        // Score every candidate offset that would have predicted this access
        // from a previously-seen line in the same page.
        for cand in CANDIDATE_MIN..=CANDIDATE_MAX {
            if cand == 0 {
                continue;
            }
            let source = offset - cand;
            if (0..addr::LINES_PER_PAGE as i32).contains(&source) && bitmap & (1u64 << source) != 0
            {
                self.scores[Self::candidate_index(cand)] += 1;
            }
        }
        self.amt[idx].accessed |= 1u64 << offset;

        self.updates += 1;
        if self.updates >= ROUND_UPDATES {
            self.select_offsets();
        }

        // Prefetch with every armed offset, consulting the access map so
        // already-touched (or already-prefetched) lines are skipped — this
        // is MLOP's AMT check, without which it floods redundant requests.
        let chosen = self.chosen.clone();
        let e = &self.amt[idx];
        let mut covered = e.accessed | e.prefetched;
        for d in chosen {
            let target = offset + d;
            if (0..addr::LINES_PER_PAGE as i32).contains(&target) && covered & (1u64 << target) == 0
            {
                push_in_page(out, access.line, d, true);
                covered |= 1u64 << target;
            }
        }
        self.amt[idx].prefetched = covered & !self.amt[idx].accessed;
    }

    fn storage_bits(&self) -> u64 {
        // AMT: page tag(36) + accessed(64) + prefetched(64) + valid(1) + lru(8)
        let amt = AMT_ENTRIES as u64 * (36 + 64 + 64 + 1 + 8);
        // Scores: 63 x 16-bit counters; chosen: 16 x 6-bit offsets.
        let scorer = NUM_CANDIDATES as u64 * 16 + MAX_DEGREE as u64 * 6;
        amt + scorer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    #[test]
    fn unit_stride_selects_positive_offsets() {
        let mut p = Mlop::new();
        // Stream sequentially over many pages: after a round, +1 (and
        // friends) should dominate the scores.
        for i in 0..2_000u64 {
            p.on_demand(&test_access(0x400000, i * 64), &SystemFeedback::idle());
        }
        assert!(
            !p.chosen_offsets().is_empty(),
            "round should have armed offsets"
        );
        assert!(
            p.chosen_offsets().contains(&1),
            "unit stride must arm +1: {:?}",
            p.chosen_offsets()
        );
        // All armed offsets should be positive for an ascending stream.
        assert!(p.chosen_offsets().iter().all(|&d| d > 0));
    }

    #[test]
    fn stride_two_selects_even_offsets() {
        let mut p = Mlop::new();
        for i in 0..2_000u64 {
            p.on_demand(&test_access(0x400000, i * 128), &SystemFeedback::idle());
        }
        assert!(p.chosen_offsets().contains(&2), "{:?}", p.chosen_offsets());
        // Odd offsets never predict a stride-2 stream.
        assert!(p.chosen_offsets().iter().all(|&d| d % 2 == 0));
    }

    #[test]
    fn issues_up_to_degree_requests() {
        let mut p = Mlop::new();
        for i in 0..2_000u64 {
            p.on_demand(&test_access(0x400000, i * 64), &SystemFeedback::idle());
        }
        let out = p.on_demand(&test_access(0x400000, 0x100_0000), &SystemFeedback::idle());
        assert!(out.len() <= MAX_DEGREE);
        assert!(!out.is_empty());
    }

    #[test]
    fn random_pattern_arms_nothing() {
        let mut p = Mlop::new();
        let mut x = 12345u64;
        for _ in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = x % 512;
            let off = (x >> 32) % 64;
            p.on_demand(
                &test_access(0x400000, page * 4096 + off * 64),
                &SystemFeedback::idle(),
            );
        }
        assert!(
            p.chosen_offsets().len() <= 2,
            "random traffic should arm few offsets: {:?}",
            p.chosen_offsets()
        );
    }

    #[test]
    fn storage_matches_table7_order() {
        let p = Mlop::new();
        let kb = p.storage_bits() as f64 / 8192.0;
        // Table 7 reports 8 KB.
        assert!(kb > 1.0 && kb < 16.0, "MLOP storage {kb} KB out of range");
    }
}
