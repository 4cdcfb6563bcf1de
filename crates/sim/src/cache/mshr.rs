//! Miss-status holding registers.
//!
//! A cache can track only a bounded number of outstanding misses (Table 5:
//! 16 for L1, 32 for L2, 64 per LLC bank). When the file is full, the next
//! miss must wait for the earliest outstanding miss to complete; the wait is
//! charged to the access latency. This is the mechanism that bounds
//! memory-level parallelism in the latency-tagged timing model. The file
//! only keeps time: [`Cache::reserve`](super::Cache::reserve) takes the
//! register and books the wait in its level's statistics.

/// A bounded file of outstanding-miss completion times.
///
/// The file holds an (unordered) multiset of completion cycles in a flat
/// array sized at the register count — at MSHR sizes (16–64 registers)
/// the linear retire/min scans vectorize and beat a binary heap's pointer
/// swaps, and only the multiset matters: retirement drops every
/// completion `<= cycle` and a full file waits on the minimum, both
/// order-independent.
#[derive(Debug)]
pub struct MshrFile {
    capacity: usize,
    // Completion cycles of in-flight misses, unordered.
    inflight: Vec<u64>,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one register");
        Self {
            capacity,
            inflight: Vec::with_capacity(capacity + 1),
        }
    }

    /// Drops every completion at or before `cycle` (retired registers).
    #[inline]
    fn retire_through(&mut self, cycle: u64) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i] <= cycle {
                self.inflight.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Allocates a register for a miss issued at `cycle` that will complete
    /// at `completion`. Returns the extra cycles the miss had to wait for a
    /// free register (zero when one was available).
    pub fn allocate(&mut self, cycle: u64, completion: u64) -> u64 {
        // Retire registers whose misses have completed.
        self.retire_through(cycle);
        let wait = if self.inflight.len() >= self.capacity {
            let (min_idx, &earliest) = self
                .inflight
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .expect("non-empty at capacity");
            self.inflight.swap_remove(min_idx);
            earliest.saturating_sub(cycle)
        } else {
            0
        };
        self.inflight.push(completion + wait);
        debug_assert!(self.inflight.len() <= self.capacity);
        wait
    }

    /// Number of registers still in flight at `cycle`.
    pub fn occupancy(&self, cycle: u64) -> usize {
        self.inflight.iter().filter(|&&t| t > cycle).count()
    }

    /// Capacity of the file.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_wait_when_capacity_available() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(0, 100), 0);
        assert_eq!(m.allocate(0, 100), 0);
        assert_eq!(m.occupancy(0), 2);
    }

    #[test]
    fn waits_when_full() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.allocate(0, 100), 0);
        // Second miss at cycle 10 must wait until 100.
        assert_eq!(m.allocate(10, 110), 90);
    }

    #[test]
    fn completed_misses_free_registers() {
        let mut m = MshrFile::new(1);
        m.allocate(0, 50);
        // At cycle 60 the first miss has completed; no wait.
        assert_eq!(m.allocate(60, 160), 0);
    }

    #[test]
    fn waited_miss_completion_shifts() {
        let mut m = MshrFile::new(1);
        m.allocate(0, 100);
        // Waits 100 cycles; its own completion shifts to 200+100... i.e.
        // completion passed in (200) plus the wait (100).
        assert_eq!(m.allocate(0, 200), 100);
        // A third miss at cycle 0 waits until 300.
        assert_eq!(m.allocate(0, 400), 300);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn occupancy_drains_over_time() {
        let mut m = MshrFile::new(4);
        m.allocate(0, 10);
        m.allocate(0, 20);
        m.allocate(0, 30);
        assert_eq!(m.occupancy(15), 2);
        assert_eq!(m.occupancy(25), 1);
        assert_eq!(m.occupancy(35), 0);
    }
}
