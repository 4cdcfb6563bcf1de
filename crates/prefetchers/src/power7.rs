//! IBM POWER7-style adaptive stream prefetcher (Jiménez et al., TOPC 2014),
//! the comparison point of Appendix B.5 in the Pythia paper.
//!
//! A conventional stream detector feeds a global aggressiveness controller:
//! every epoch the controller inspects prefetch usefulness and ramps the
//! stream depth up or down through a fixed set of levels — the
//! "tune-aggressiveness-by-monitoring" adaptivity the paper contrasts with
//! Pythia's per-decision learning.

use pythia_sim::prefetch::{DemandAccess, PrefetchRequest, Prefetcher, SystemFeedback};

use crate::util::{lru_victim, push_in_page};

const STREAM_ENTRIES: usize = 16;
/// Depth levels the controller ramps through (0 = off .. 16 = deepest).
const DEPTH_LEVELS: [u32; 6] = [0, 1, 2, 4, 8, 16];
const EPOCH_DEMANDS: u64 = 2048;
/// Accuracy (per mille) above which depth ramps up.
const RAMP_UP_THRESHOLD: u64 = 550;
/// Accuracy (per mille) below which depth ramps down.
const RAMP_DOWN_THRESHOLD: u64 = 250;

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    valid: bool,
    page: u64,
    last_offset: i32,
    direction: i32,
    confirmed: bool,
    lru: u64,
}

/// The POWER7-style adaptive prefetcher.
#[derive(Debug)]
pub struct Power7 {
    streams: [StreamEntry; STREAM_ENTRIES],
    depth_level: usize,
    clock: u64,
    epoch_demands: u64,
    epoch_useful: u64,
    epoch_useless: u64,
}

impl Power7 {
    /// Creates a POWER7-style prefetcher starting at a middle depth.
    pub fn new() -> Self {
        Self {
            streams: [StreamEntry::default(); STREAM_ENTRIES],
            depth_level: 3, // depth 4
            clock: 0,
            epoch_demands: 0,
            epoch_useful: 0,
            epoch_useless: 0,
        }
    }

    /// Current stream depth (for tests/diagnostics).
    pub fn depth(&self) -> u32 {
        DEPTH_LEVELS[self.depth_level]
    }

    fn end_epoch(&mut self) {
        let resolved = self.epoch_useful + self.epoch_useless;
        if resolved >= 32 {
            let accuracy = self.epoch_useful * 1000 / resolved;
            if accuracy >= RAMP_UP_THRESHOLD && self.depth_level + 1 < DEPTH_LEVELS.len() {
                self.depth_level += 1;
            } else if accuracy < RAMP_DOWN_THRESHOLD && self.depth_level > 0 {
                self.depth_level -= 1;
            }
        }
        self.epoch_demands = 0;
        self.epoch_useful = 0;
        self.epoch_useless = 0;
    }
}

impl Default for Power7 {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Power7 {
    fn name(&self) -> &str {
        "power7"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        _feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.clock += 1;
        self.epoch_demands += 1;
        if self.epoch_demands >= EPOCH_DEMANDS {
            self.end_epoch();
        }

        let page = access.page();
        let offset = access.page_offset() as i32;

        if let Some(e) = self.streams.iter_mut().find(|e| e.valid && e.page == page) {
            e.lru = self.clock;
            let dir = (offset - e.last_offset).signum();
            if dir != 0 {
                if dir == e.direction {
                    e.confirmed = true;
                } else {
                    e.confirmed = false;
                    e.direction = dir;
                }
            }
            e.last_offset = offset;
            if e.confirmed {
                let depth = DEPTH_LEVELS[self.depth_level];
                let direction = e.direction;
                for d in 1..=depth as i32 {
                    push_in_page(out, access.line, direction * d, true);
                }
            }
        } else {
            let victim = lru_victim(&self.streams, |e| e.valid.then_some(e.lru));
            self.streams[victim] = StreamEntry {
                valid: true,
                page,
                last_offset: offset,
                direction: 0,
                confirmed: false,
                lru: self.clock,
            };
        }
    }

    fn on_useful(&mut self, _line: u64) {
        self.epoch_useful += 1;
    }

    fn on_useless(&mut self, _line: u64) {
        self.epoch_useless += 1;
    }

    fn storage_bits(&self) -> u64 {
        // Streams: page(36)+off(7)+dir(2)+confirmed(1)+v(1)+lru(8)
        let st = STREAM_ENTRIES as u64 * (36 + 7 + 2 + 1 + 1 + 8);
        st + 3 * 16 // epoch counters + depth register
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_access;

    #[test]
    fn confirmed_stream_prefetches_at_current_depth() {
        let mut p = Power7::new();
        let mut last = Vec::new();
        for i in 0..5u64 {
            last = p.on_demand(&test_access(0x400000, i * 64), &SystemFeedback::idle());
        }
        assert_eq!(last.len(), p.depth() as usize);
    }

    #[test]
    fn depth_ramps_up_with_useful_feedback() {
        let mut p = Power7::new();
        let d0 = p.depth();
        for i in 0..3 * EPOCH_DEMANDS {
            let out = p.on_demand(
                &test_access(0x400000, (i % 60) * 64),
                &SystemFeedback::idle(),
            );
            for r in out {
                p.on_useful(r.line);
            }
        }
        assert!(
            p.depth() > d0,
            "depth should ramp up: {} -> {}",
            d0,
            p.depth()
        );
    }

    #[test]
    fn depth_ramps_down_with_useless_feedback() {
        let mut p = Power7::new();
        let d0 = p.depth();
        for i in 0..3 * EPOCH_DEMANDS {
            let out = p.on_demand(
                &test_access(0x400000, (i % 60) * 64),
                &SystemFeedback::idle(),
            );
            for r in out {
                p.on_useless(r.line);
            }
        }
        assert!(
            p.depth() < d0,
            "depth should ramp down: {} -> {}",
            d0,
            p.depth()
        );
    }

    #[test]
    fn depth_can_reach_zero_and_silence() {
        let mut p = Power7::new();
        for i in 0..10 * EPOCH_DEMANDS {
            let out = p.on_demand(
                &test_access(0x400000, (i % 60) * 64),
                &SystemFeedback::idle(),
            );
            for r in out {
                p.on_useless(r.line);
            }
        }
        assert_eq!(p.depth(), 0);
        let out = p.on_demand(&test_access(0x400000, 61 * 64), &SystemFeedback::idle());
        assert!(out.is_empty());
    }
}
