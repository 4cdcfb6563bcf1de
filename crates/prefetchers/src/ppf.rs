//! SPP + Perceptron Prefetch Filter (Bhatia et al., ISCA 2019).
//!
//! PPF lets an underlying SPP run more aggressively and gates each candidate
//! prefetch through a perceptron: a set of feature-indexed weight tables
//! whose sum must exceed a threshold for the prefetch to issue. The filter
//! trains online from prefetch outcomes (useful / useless) and from demands
//! that hit previously-rejected candidates (lost coverage).

use pythia_sim::prefetch::{DemandAccess, FillEvent, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::spp::Spp;
use crate::util::hash_bits;

const NUM_FEATURES: usize = 6;
const TABLE_BITS: u32 = 10;
const TABLE_ENTRIES: usize = 1 << TABLE_BITS;
const WEIGHT_MAX: i8 = 31;
const WEIGHT_MIN: i8 = -32;
/// Accept a prefetch when the perceptron sum is at least this.
const TAU_ACCEPT: i32 = -10;
/// Track recently issued/rejected candidates for training.
const RECALL_ENTRIES: usize = 1024;

#[derive(Debug, Clone, Copy, Default)]
struct RecallEntry {
    valid: bool,
    line: u64,
    features: [u16; NUM_FEATURES],
}

#[derive(Debug)]
struct RecallQueue {
    entries: Vec<RecallEntry>,
    next: usize,
}

impl RecallQueue {
    fn new() -> Self {
        Self {
            entries: vec![RecallEntry::default(); RECALL_ENTRIES],
            next: 0,
        }
    }

    fn push(&mut self, line: u64, features: [u16; NUM_FEATURES]) {
        self.entries[self.next] = RecallEntry {
            valid: true,
            line,
            features,
        };
        self.next = (self.next + 1) % RECALL_ENTRIES;
    }

    fn take(&mut self, line: u64) -> Option<[u16; NUM_FEATURES]> {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.valid && e.line == line)?;
        e.valid = false;
        Some(e.features)
    }
}

/// The SPP+PPF prefetcher.
#[derive(Debug)]
pub struct SppPpf {
    spp: Spp,
    weights: [[i8; TABLE_ENTRIES]; NUM_FEATURES],
    issued: RecallQueue,
    rejected: RecallQueue,
    /// Reusable buffer for the underlying SPP's candidate requests, so the
    /// filtering pass allocates nothing per demand.
    candidates: Vec<PrefetchRequest>,
}

impl SppPpf {
    /// Creates an SPP+PPF instance.
    pub fn new() -> Self {
        Self {
            spp: Spp::new(),
            weights: [[0; TABLE_ENTRIES]; NUM_FEATURES],
            candidates: Vec::new(),
            issued: RecallQueue::new(),
            rejected: RecallQueue::new(),
        }
    }

    fn features(access: &DemandAccess, target_line: u64) -> [u16; NUM_FEATURES] {
        let delta = target_line as i64 - access.line as i64;
        let page_off = access.page_offset();
        [
            hash_bits(access.pc, TABLE_BITS) as u16,
            hash_bits(access.pc ^ (delta as u64) << 20, TABLE_BITS) as u16,
            hash_bits(target_line, TABLE_BITS) as u16,
            hash_bits(page_off ^ (delta as u64) << 8, TABLE_BITS) as u16,
            hash_bits(access.page(), TABLE_BITS) as u16,
            hash_bits((access.pc >> 2) ^ page_off, TABLE_BITS) as u16,
        ]
    }

    fn sum(&self, features: &[u16; NUM_FEATURES]) -> i32 {
        features
            .iter()
            .enumerate()
            .map(|(t, &i)| self.weights[t][i as usize] as i32)
            .sum()
    }

    fn train(&mut self, features: &[u16; NUM_FEATURES], up: bool) {
        for (t, &i) in features.iter().enumerate() {
            let w = &mut self.weights[t][i as usize];
            *w = if up {
                (*w + 1).min(WEIGHT_MAX)
            } else {
                (*w - 1).max(WEIGHT_MIN)
            };
        }
    }
}

impl Default for SppPpf {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for SppPpf {
    fn name(&self) -> &str {
        "spp+ppf"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        // Recall: if this demand was previously rejected by the filter, that
        // was lost coverage -- train the perceptron up.
        if let Some(features) = self.rejected.take(access.line) {
            self.train(&features, true);
        }

        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        self.spp.on_demand_into(access, feedback, &mut candidates);
        for req in candidates.drain(..) {
            let features = Self::features(access, req.line);
            if self.sum(&features) >= TAU_ACCEPT {
                self.issued.push(req.line, features);
                out.push(req);
            } else {
                self.rejected.push(req.line, features);
            }
        }
        self.candidates = candidates;
    }

    fn on_fill(&mut self, event: &FillEvent) {
        self.spp.on_fill(event);
    }

    fn on_useful(&mut self, line: u64) {
        if let Some(features) = self.issued.take(line) {
            self.train(&features, true);
        }
    }

    fn on_useless(&mut self, line: u64) {
        if let Some(features) = self.issued.take(line) {
            self.train(&features, false);
        }
    }

    fn storage_bits(&self) -> u64 {
        // Weight tables (6 x 1024 x 6-bit) + two recall queues + inner SPP.
        let weights = (NUM_FEATURES * TABLE_ENTRIES) as u64 * 6;
        let recall = 2 * RECALL_ENTRIES as u64 * (1 + 32 + NUM_FEATURES as u64 * TABLE_BITS as u64);
        weights + recall + self.spp.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    #[test]
    fn passes_spp_candidates_when_untrained() {
        let mut p = SppPpf::new();
        let mut total = 0usize;
        for page in 0..4u64 {
            for i in 0..32u64 {
                let out = p.on_demand(
                    &test_access(0x400000, page * 4096 + i * 64),
                    &SystemFeedback::idle(),
                );
                total += out.len();
            }
        }
        assert!(
            total > 0,
            "untrained filter (weights 0 >= tau) must pass candidates"
        );
    }

    #[test]
    fn negative_training_suppresses_prefetches() {
        let mut p = SppPpf::new();
        // Train SPP on a stream, then hammer the filter with useless
        // feedback for everything it issues.
        let mut suppressed = false;
        for i in 0..3_000u64 {
            let out = p.on_demand(&test_access(0x400000, i * 64), &SystemFeedback::idle());
            for r in &out {
                p.on_useless(r.line);
            }
            if i > 1_000 && out.is_empty() {
                suppressed = true;
            }
        }
        assert!(
            suppressed,
            "constant negative feedback should close the filter"
        );
    }

    #[test]
    fn positive_training_reopens_filter() {
        let mut p = SppPpf::new();
        // Close the filter...
        for i in 0..2_000u64 {
            let out = p.on_demand(&test_access(0x400000, i * 64), &SystemFeedback::idle());
            for r in &out {
                p.on_useless(r.line);
            }
        }
        // ...then give positive feedback via rejected-candidate recall: the
        // demand stream keeps hitting lines the filter rejected.
        let mut reopened = false;
        for i in 2_000..8_000u64 {
            let out = p.on_demand(&test_access(0x400000, i * 64), &SystemFeedback::idle());
            for r in &out {
                p.on_useful(r.line);
            }
            if !out.is_empty() {
                reopened = true;
            }
        }
        assert!(reopened, "recall training should reopen the filter");
    }

    #[test]
    fn weights_saturate() {
        let mut p = SppPpf::new();
        let f = [0u16; NUM_FEATURES];
        for _ in 0..100 {
            p.train(&f, true);
        }
        assert_eq!(p.weights[0][0], WEIGHT_MAX);
        for _ in 0..200 {
            p.train(&f, false);
        }
        assert_eq!(p.weights[0][0], WEIGHT_MIN);
    }

    #[test]
    fn storage_larger_than_spp() {
        let p = SppPpf::new();
        let spp = Spp::new();
        assert!(p.storage_bits() > spp.storage_bits());
    }
}
