//! CP-HW: the context prefetcher of Peled et al. (ISCA 2015) restricted to
//! hardware contexts, as constructed for the comparison in Appendix B.4 of
//! the Pythia paper.
//!
//! CP-HW is a *contextual bandit*: like Pythia it maps a program context to
//! an offset-valued action and learns from rewards, but (1) its reward is
//! immediate-only (no SARSA bootstrapping, discount γ = 0), so it cannot
//! account for an action's long-term consequences, and (2) its reward is a
//! simple usefulness signal with no bandwidth awareness. The Pythia paper
//! attributes its advantage over CP to exactly these differences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pythia_sim::addr;
use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::util::hash_bits;

/// Offset action list (shared shape with Pythia's pruned list, Table 2).
pub const ACTIONS: [i32; 16] = [-6, -3, -1, 0, 1, 3, 4, 5, 10, 11, 12, 16, 22, 23, 30, 32];

const STATE_BITS: u32 = 12;
const STATES: usize = 1 << STATE_BITS;
const RECALL_ENTRIES: usize = 256;
const EPSILON_PER_MILLE: u32 = 10; // 1% exploration
const ALPHA_SHIFT: u32 = 4; // learning rate 1/16
const REWARD_USEFUL: i32 = 16;
const REWARD_USELESS: i32 = -16;

#[derive(Debug, Clone, Copy, Default)]
struct RecallEntry {
    valid: bool,
    line: u64,
    state: u16,
    action: u8,
}

/// The contextual-bandit context prefetcher.
#[derive(Debug)]
pub struct CpHw {
    q: Vec<[i16; ACTIONS.len()]>,
    recall: Vec<RecallEntry>,
    recall_next: usize,
    last_line: u64,
    rng: StdRng,
}

impl CpHw {
    /// Creates a CP-HW instance with a deterministic exploration seed.
    pub fn new(seed: u64) -> Self {
        Self {
            q: vec![[0; ACTIONS.len()]; STATES],
            recall: vec![RecallEntry::default(); RECALL_ENTRIES],
            recall_next: 0,
            last_line: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn state_of(&self, access: &DemandAccess) -> u16 {
        let delta = (access.line as i64 - self.last_line as i64).clamp(-64, 64) as u64;
        hash_bits(access.pc ^ (delta << 24), STATE_BITS) as u16
    }

    fn train(&mut self, line: u64, reward: i32) {
        if let Some(e) = self.recall.iter_mut().find(|e| e.valid && e.line == line) {
            e.valid = false;
            let q = &mut self.q[e.state as usize][e.action as usize];
            // Immediate-only update: Q += alpha * (R - Q).
            let delta = (reward - *q as i32) >> ALPHA_SHIFT;
            *q = (*q as i32 + delta).clamp(i16::MIN as i32, i16::MAX as i32) as i16;
        }
    }
}

impl Prefetcher for CpHw {
    fn name(&self) -> &str {
        "cp_hw"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        _feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let state = self.state_of(access);
        self.last_line = access.line;

        let action = if self.rng.gen_range(0..1000u32) < EPSILON_PER_MILLE {
            self.rng.gen_range(0..ACTIONS.len())
        } else {
            let row = &self.q[state as usize];
            (0..ACTIONS.len())
                .max_by_key(|&a| row[a])
                .expect("non-empty actions")
        };

        let offset = ACTIONS[action];
        if offset != 0 && addr::offset_stays_in_page(access.line, offset) {
            let target = addr::apply_offset(access.line, offset);
            out.push(PrefetchRequest::to_l2(target));
            self.recall[self.recall_next] = RecallEntry {
                valid: true,
                line: target,
                state,
                action: action as u8,
            };
            self.recall_next = (self.recall_next + 1) % RECALL_ENTRIES;
        }
    }

    fn on_useful(&mut self, line: u64) {
        self.train(line, REWARD_USEFUL);
    }

    fn on_useless(&mut self, line: u64) {
        self.train(line, REWARD_USELESS);
    }

    fn storage_bits(&self) -> u64 {
        let q = (STATES * ACTIONS.len()) as u64 * 16;
        let recall = RECALL_ENTRIES as u64 * (1 + 32 + STATE_BITS as u64 + 4);
        q + recall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    #[test]
    fn learns_profitable_offset_with_immediate_reward() {
        let mut p = CpHw::new(7);
        // Reward +1 prefetches: stream where line+1 is always demanded next.
        for i in 0..20_000u64 {
            let out = p.on_demand(&test_access(0x400000, i * 64), &SystemFeedback::idle());
            for r in &out {
                // The next access is line+1, so a +1 prefetch is useful and
                // anything else useless.
                if r.line == pythia_sim::addr::line_of(i * 64) + 1 {
                    p.on_useful(r.line);
                } else {
                    p.on_useless(r.line);
                }
            }
        }
        // After training, the greedy action on a fresh page with the same
        // context should be +1 most of the time.
        let mut plus_one = 0;
        let mut total = 0;
        for i in 0..500u64 {
            let a = test_access(0x400000, 0x5000_0000 + i * 64);
            let out = p.on_demand(&a, &SystemFeedback::idle());
            for r in out {
                total += 1;
                if r.line == a.line + 1 {
                    plus_one += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            plus_one * 10 >= total * 8,
            "greedy policy should prefer +1: {plus_one}/{total}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut p = CpHw::new(42);
            let mut lines = Vec::new();
            for i in 0..500u64 {
                for r in p.on_demand(&test_access(0x4000, i * 64), &SystemFeedback::idle()) {
                    lines.push(r.line);
                }
            }
            lines
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_offset_action_issues_nothing() {
        // Action list contains 0 (no prefetch); untrained Q ties resolve to
        // the max_by_key's last max -- ensure no panic and at most one
        // request per demand.
        let mut p = CpHw::new(1);
        let out = p.on_demand(&test_access(0, 0x1000), &SystemFeedback::idle());
        assert!(out.len() <= 1);
    }
}
