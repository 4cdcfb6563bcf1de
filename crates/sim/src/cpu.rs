//! Out-of-order core timing model.
//!
//! The model is occupancy-based rather than μop-scheduled: a 4-wide
//! front-end streams instructions into a 256-entry ROB; loads and stores
//! additionally occupy LQ/SQ slots; retirement is in order at the core
//! width. Memory latency (supplied by the cache hierarchy) delays the
//! completion of loads, and a full ROB/LQ/SQ back-pressures the front-end —
//! exactly the mechanism by which prefetching (hiding load latency) shows up
//! as IPC in a trace-driven simulator. A mispredicted branch inserts the
//! 20-cycle front-end bubble of Table 5.

use crate::config::CoreConfig;
use crate::stats::CoreStats;

/// ROB entries are packed into one word — completion cycle in the high
/// bits, load/store flags in the low two — and kept in a power-of-two
/// ring buffer. One ROB push and (usually) one retire pop run per
/// simulated instruction, so this layout is sized to the hottest loop of
/// the core model.
const ROB_IS_LOAD: u64 = 1;
const ROB_IS_STORE: u64 = 2;

#[derive(Debug)]
struct Rob {
    /// Power-of-two length, so `index & (len - 1)` wraps — and, computed
    /// from the length itself, is provably in bounds: the retire loop then
    /// holds no panic edge and keeps the core's clocks in registers.
    buf: Vec<u64>,
    head: usize,
    tail: usize,
}

impl Rob {
    fn new(capacity: usize) -> Self {
        // One slot of slack: occupancy can reach `capacity` after a push,
        // and a full ring (head == tail) would read as empty.
        let size = (capacity + 1).next_power_of_two().max(2);
        Self {
            buf: vec![0; size],
            head: 0,
            tail: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    #[inline]
    fn push(&mut self, packed: u64) {
        let mask = self.buf.len() - 1;
        self.buf[self.tail & mask] = packed;
        self.tail = self.tail.wrapping_add(1);
    }

    #[inline]
    fn pop(&mut self) -> u64 {
        debug_assert!(!self.is_empty(), "retire from empty ROB");
        let mask = self.buf.len() - 1;
        let v = self.buf[self.head & mask];
        self.head = self.head.wrapping_add(1);
        v
    }
}

/// The per-core timing model.
#[derive(Debug)]
pub struct CoreModel {
    config: CoreConfig,
    rob: Rob,
    loads_in_flight: usize,
    stores_in_flight: usize,
    /// Cycle at which the front-end can dispatch the next instruction.
    fetch_cycle: u64,
    /// Sub-cycle dispatch slots used at `fetch_cycle`.
    fetch_slots_used: u32,
    /// Cycle of the most recent in-order retirement.
    retire_cycle: u64,
    /// Retire slots already used at `retire_cycle`.
    retire_slots_used: u32,
    /// Completion time of the most recent load (for dependent loads).
    last_load_completion: u64,
    stats: CoreStats,
}

impl CoreModel {
    /// Creates a core model.
    pub fn new(config: CoreConfig) -> Self {
        Self {
            config,
            rob: Rob::new(config.rob_entries),
            loads_in_flight: 0,
            stores_in_flight: 0,
            fetch_cycle: 0,
            fetch_slots_used: 0,
            retire_cycle: 0,
            retire_slots_used: 0,
            last_load_completion: 0,
            stats: CoreStats::default(),
        }
    }

    /// Current cycle as seen by the front-end: the next instruction will
    /// dispatch no earlier than this.
    pub fn now(&self) -> u64 {
        self.fetch_cycle
    }

    /// Instructions retired so far (warmup + measurement).
    pub fn retired(&self) -> u64 {
        self.stats.instructions
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Resets statistics, keeping pipeline state (between warmup and
    /// measurement). The cycle counter baseline is captured by the caller.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Retires the ROB head. Slot roll-over and the bump to the head's
    /// completion cycle are selects, not branches: whether the head is
    /// still executing depends on the latency the hierarchy returned for it
    /// a ROB's length ago, which no branch predictor can learn.
    #[inline]
    fn retire_one(&mut self) {
        let head = self.rob.pop();
        let completion = head >> 2;
        let rolled = self.retire_slots_used >= self.config.width;
        let cycle = self.retire_cycle + u64::from(rolled);
        let fresh_cycle = rolled | (completion > cycle);
        self.retire_cycle = cycle.max(completion);
        self.retire_slots_used = u32::from(!fresh_cycle) * self.retire_slots_used + 1;
        // Arithmetic on the flag bits: the load/store mix is random, so a
        // branch per class would mispredict.
        self.loads_in_flight -= (head & ROB_IS_LOAD) as usize;
        self.stores_in_flight -= ((head & ROB_IS_STORE) >> 1) as usize;
    }

    /// Retires the ROB head to free a slot; the front-end cannot run
    /// earlier than the retirement that freed it.
    #[inline]
    fn stall_on_head(&mut self) {
        self.retire_one();
        let caught_up = self.fetch_cycle >= self.retire_cycle;
        self.fetch_cycle = self.fetch_cycle.max(self.retire_cycle);
        self.fetch_slots_used *= u32::from(caught_up);
    }

    /// Advances the front-end past one dispatched instruction: 1/width of
    /// a cycle, plus the bubble after a mispredicted branch.
    #[inline]
    fn advance_front_end(&mut self, mispredicted_branch: bool) {
        let slots = self.fetch_slots_used + 1;
        let rolled = slots >= self.config.width;
        self.fetch_cycle +=
            u64::from(rolled) + u64::from(mispredicted_branch) * self.config.mispredict_penalty;
        self.fetch_slots_used = u32::from(!(rolled | mispredicted_branch)) * slots;
    }

    /// Dispatches one instruction whose execution completes `exec_latency`
    /// cycles after dispatch. Returns the cycle at which the instruction was
    /// dispatched (which is when its memory access, if any, is considered
    /// issued).
    ///
    /// `is_load`/`is_store` reserve LQ/SQ slots; `dependent_on_load` delays
    /// dispatch until the previous load completes (pointer chasing);
    /// `mispredicted_branch` inserts the front-end bubble after this
    /// instruction.
    pub fn dispatch(
        &mut self,
        exec_latency: u64,
        is_load: bool,
        is_store: bool,
        dependent_on_load: bool,
        mispredicted_branch: bool,
    ) -> u64 {
        // Structural hazards: ROB, LQ, SQ.
        while self.rob.len() >= self.config.rob_entries
            || (is_load && self.loads_in_flight >= self.config.lq_entries)
            || (is_store && self.stores_in_flight >= self.config.sq_entries)
        {
            self.stall_on_head();
        }

        // Dependent loads stall dispatch on the previous load's completion.
        if dependent_on_load && self.last_load_completion > self.fetch_cycle {
            self.fetch_cycle = self.last_load_completion;
            self.fetch_slots_used = 0;
        }

        let dispatch_at = self.fetch_cycle;
        let completion = dispatch_at + exec_latency;
        let (load, store) = (u64::from(is_load), u64::from(is_store));
        self.rob
            .push((completion << 2) | (load * ROB_IS_LOAD) | (store * ROB_IS_STORE));
        self.loads_in_flight += load as usize;
        self.stores_in_flight += store as usize;
        self.stats.loads += load;
        self.stats.stores += store;
        if is_load {
            self.last_load_completion = completion;
        }
        self.stats.instructions += 1;
        self.advance_front_end(mispredicted_branch);
        dispatch_at
    }

    /// Dispatches one single-cycle instruction with no memory operation —
    /// three instructions in four. Identical in effect to
    /// `dispatch(1, false, false, false, mispredicted_branch)`, which stays
    /// the definition: with no LQ/SQ slot to reserve and no load to depend
    /// on, the only structural hazard is a full ROB, and retiring its head
    /// once always clears it (occupancy never exceeds `rob_entries`).
    #[inline]
    pub fn dispatch_plain(&mut self, mispredicted_branch: bool) -> u64 {
        if self.rob.len() >= self.config.rob_entries {
            self.stall_on_head();
        }
        let dispatch_at = self.fetch_cycle;
        self.rob.push((dispatch_at + 1) << 2);
        self.stats.instructions += 1;
        self.advance_front_end(mispredicted_branch);
        dispatch_at
    }

    /// Records a branch in the statistics.
    #[inline]
    pub fn record_branch(&mut self, mispredicted: bool) {
        self.stats.branches += 1;
        self.stats.branch_mispredicts += u64::from(mispredicted);
    }

    /// Drains the ROB and returns the cycle at which the last instruction
    /// retired — the end-of-run timestamp.
    pub fn drain(&mut self) -> u64 {
        while !self.rob.is_empty() {
            self.retire_one();
        }
        self.retire_cycle.max(self.fetch_cycle)
    }

    /// Returns the retirement timestamp without draining (a lower bound on
    /// the end-of-run cycle while instructions remain in flight).
    pub fn retire_timestamp(&self) -> u64 {
        self.retire_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreModel {
        CoreModel::new(CoreConfig::default())
    }

    #[test]
    fn ideal_ipc_equals_width() {
        let mut c = core();
        for _ in 0..4000 {
            c.dispatch(1, false, false, false, false);
        }
        let end = c.drain();
        // 4000 instructions at width 4 should take ~1000 cycles.
        assert!((950..=1100).contains(&end), "end={end}");
    }

    #[test]
    fn long_latency_load_blocks_retirement_when_rob_fills() {
        let mut c = core();
        // One 10_000-cycle load followed by enough cheap instructions to
        // fill the ROB: the front-end must stall on ROB occupancy.
        c.dispatch(10_000, true, false, false, false);
        for _ in 0..400 {
            c.dispatch(1, false, false, false, false);
        }
        let end = c.drain();
        assert!(end >= 10_000, "ROB should have back-pressured; end={end}");
    }

    #[test]
    fn independent_loads_overlap() {
        let mut c = core();
        // 8 independent 100-cycle loads fit in the ROB simultaneously.
        for _ in 0..8 {
            c.dispatch(100, true, false, false, false);
        }
        let end = c.drain();
        assert!(end < 8 * 100, "independent loads should overlap; end={end}");
    }

    #[test]
    fn dependent_loads_serialize() {
        let mut c = core();
        for _ in 0..8 {
            c.dispatch(100, true, false, true, false);
        }
        let end = c.drain();
        assert!(end >= 700, "dependent loads must serialize; end={end}");
    }

    #[test]
    fn mispredict_inserts_bubble() {
        let mut c1 = core();
        let mut c2 = core();
        for _ in 0..100 {
            c1.dispatch(1, false, false, false, false);
            c2.dispatch(1, false, false, false, true);
        }
        assert!(
            c2.drain() > c1.drain() + 100 * 19,
            "each mispredict costs ~20 cycles"
        );
    }

    #[test]
    fn lq_limit_restricts_outstanding_loads() {
        let cfg = CoreConfig {
            lq_entries: 2,
            ..CoreConfig::default()
        };
        let mut c = CoreModel::new(cfg);
        for _ in 0..4 {
            c.dispatch(100, true, false, false, false);
        }
        // With LQ=2 the 3rd load waits for the 1st: total > 200.
        let end = c.drain();
        assert!(end >= 200, "LQ should serialize loads; end={end}");
    }

    #[test]
    fn stats_count_instruction_classes() {
        let mut c = core();
        c.dispatch(1, true, false, false, false);
        c.dispatch(1, false, true, false, false);
        c.record_branch(true);
        c.record_branch(false);
        assert_eq!(c.stats().loads, 1);
        assert_eq!(c.stats().stores, 1);
        assert_eq!(c.stats().branches, 2);
        assert_eq!(c.stats().branch_mispredicts, 1);
        assert_eq!(c.retired(), 2);
    }

    #[test]
    fn reset_stats_keeps_timing_state() {
        let mut c = core();
        for _ in 0..100 {
            c.dispatch(1, false, false, false, false);
        }
        let t = c.now();
        c.reset_stats();
        assert_eq!(c.retired(), 0);
        assert_eq!(c.now(), t);
    }
}
