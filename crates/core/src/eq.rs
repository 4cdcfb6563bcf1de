//! EQ: the evaluation queue (§4.2.3, Fig. 4).
//!
//! A FIFO of Pythia's recently taken actions. Rewards are assigned in three
//! ways:
//!
//! 1. **At insertion** — no-prefetch actions (R_NP^H/L) and out-of-page
//!    actions (R_CL) get their reward immediately.
//! 2. **During residency** — when a demand hits an entry's prefetch
//!    address, the entry earns R_AT (demand after fill) or R_AL (before
//!    fill). The "filled bit" of the paper is realized as the fill's ready
//!    timestamp, set by the prefetch-fill notification.
//! 3. **At eviction** — entries that never got a reward were inaccurate:
//!    R_IN^H/L depending on current bandwidth usage.
//!
//! The evicted entry, together with the (new) EQ head, feeds the SARSA
//! update (Algorithm 1, lines 23–29).
//!
//! # Who owns a queued state
//!
//! What the SARSA update needs of a state is its Q-table row bases
//! ([`QvStore::hash`](crate::QvStore::hash)), and the queue owns them: one
//! flat allocation made at construction, `cells` bases per ring slot,
//! addressed exactly like the entries. [`EvaluationQueue::insert`] copies
//! the new entry's bases in and, on eviction, hands the evicted entry's
//! back through the same caller buffer — an exchange, because an evicted
//! entry's bases must be read before its slot is reused: a power-of-two
//! capacity puts the new entry in the slot the evicted one leaves, and at
//! capacity 1 the head after the insert *is* the new entry.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the cacheline-keyed index. The default
/// SipHash costs more than the whole indexed lookup it guards; line
/// numbers need no DoS resistance, and the map's iteration order is never
/// observed, so a fast mixer is deterministic-safe here.
#[derive(Debug, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, i: u64) {
        let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// One queued action awaiting its reward. The state it was taken in lives
/// beside it in the queue, as row bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqEntry {
    /// Index of the taken action in the action list.
    pub action: usize,
    /// Prefetched line for real prefetch actions; `None` for no-prefetch or
    /// suppressed (out-of-page) actions.
    pub prefetch_line: Option<u64>,
    /// Assigned reward, if any.
    pub reward: Option<i16>,
    /// Cycle at which the prefetch fill delivers data (the "filled bit"
    /// with its timestamp).
    pub fill_ready: Option<u64>,
    /// Cycle the action was taken.
    pub issued_at: u64,
}

impl EqEntry {
    /// Creates an entry with no reward assigned yet.
    pub fn new(action: usize, prefetch_line: Option<u64>, issued_at: u64) -> Self {
        Self {
            action,
            prefetch_line,
            reward: None,
            fill_ready: None,
            issued_at,
        }
    }
}

/// Outcome of probing the EQ with a demand address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandMatch {
    /// The demand hit a prefetch issued earlier and the fill had completed:
    /// accurate and timely.
    AccurateTimely,
    /// The demand hit a prefetch whose fill had not completed: accurate but
    /// late.
    AccurateLate,
    /// No matching entry.
    Miss,
}

/// Sentinel for "no newer same-line entry" in the intrusive chain.
const NO_LINK: u64 = u64::MAX;

/// The evaluation queue.
///
/// Demand-hit and fill matching are O(per-line residency) instead of a
/// front-to-back scan of the whole queue: a side index maps each resident
/// prefetch line to an intrusive chain of its entries, in queue order.
/// Every match still verifies its predicate on the entry itself, so the
/// behaviour is identical to the linear scans the index replaced — just
/// without touching 256 entries per demand.
///
/// Storage is a power-of-two ring addressed by sequence number: the entry
/// with sequence `s` lives at slot `s & mask`, permanently, from insert to
/// eviction. Live sequences form one contiguous range of at most
/// `capacity ≤ slots.len()` values, so the masked mapping is collision
/// free — and unlike a deque, chain walks and evictions never pay a
/// wraparound branch or shift an index.
#[derive(Debug, Clone)]
pub struct EvaluationQueue {
    /// Ring of `capacity.next_power_of_two()` slots; non-live slots hold
    /// stale entries, never reachable through the line index.
    slots: Vec<EqEntry>,
    /// Row bases of every slot's state, `cells` per slot: slot `i` owns
    /// `bases[i * cells..][..cells]`.
    bases: Vec<u32>,
    /// Bases per entry (`QvStore::cells` of the store the agent runs).
    cells: usize,
    /// `slots.len() - 1`, for sequence-to-slot masking.
    mask: u64,
    capacity: usize,
    /// Number of live entries, in sequences `head_seq..head_seq + len`.
    len: usize,
    /// Sequence number of the front (oldest) entry.
    head_seq: u64,
    /// Parallel to `slots`: sequence number of the next newer entry with
    /// the same prefetch line ([`NO_LINK`] at chain end) — an intrusive
    /// per-line list, so indexing allocates nothing per entry.
    links: Vec<u64>,
    /// Oldest and newest resident sequence number per prefetch line.
    by_line: LineMap<(u64, u64)>,
}

impl EvaluationQueue {
    /// Creates an EQ with the given capacity (256 in the basic config)
    /// whose entries each carry `cells` row bases.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, cells: usize) -> Self {
        assert!(capacity > 0, "EQ capacity must be non-zero");
        let slots = capacity.next_power_of_two();
        Self {
            slots: vec![EqEntry::new(0, None, 0); slots],
            bases: vec![0; slots * cells],
            cells,
            mask: (slots - 1) as u64,
            capacity,
            len: 0,
            head_seq: 0,
            links: vec![NO_LINK; slots],
            by_line: LineMap::default(),
        }
    }

    /// Number of entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring slot of a live sequence number.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// First resident entry for `line` (queue order) passing `pred`.
    #[inline]
    fn find_for_line(
        &mut self,
        line: u64,
        pred: impl Fn(&EqEntry) -> bool,
    ) -> Option<&mut EqEntry> {
        let (mut seq, _) = *self.by_line.get(&line)?;
        loop {
            let i = (seq & self.mask) as usize;
            if pred(&self.slots[i]) {
                return Some(&mut self.slots[i]);
            }
            seq = self.links[i];
            if seq == NO_LINK {
                return None;
            }
        }
    }

    /// Searches for an un-rewarded entry whose prefetch address matches the
    /// demanded `line` (Algorithm 1, lines 6–11). On a match, assigns
    /// R_AT/R_AL (passed in by the caller from its reward levels) and
    /// reports which was applied.
    ///
    /// With `graded` (the paper's footnote-3 extension) a late prefetch's
    /// reward is interpolated between `r_al` and `r_at` by how far through
    /// its flight the demand arrived (`cycle` relative to issue..fill): a
    /// demand immediately after issue earns `r_al`, one just before the
    /// fill almost `r_at`.
    pub fn reward_demand_hit(
        &mut self,
        line: u64,
        cycle: u64,
        r_at: i16,
        r_al: i16,
        graded: bool,
    ) -> DemandMatch {
        let Some(e) = self.find_for_line(line, |e| e.reward.is_none()) else {
            return DemandMatch::Miss;
        };
        let (reward, outcome) = match e.fill_ready {
            Some(fill) if fill <= cycle => (r_at, DemandMatch::AccurateTimely),
            Some(fill) if graded => {
                let flight = fill.saturating_sub(e.issued_at).max(1);
                let progressed = cycle.saturating_sub(e.issued_at).min(flight);
                let frac = progressed as f64 / flight as f64;
                let late = r_al as f64 + (r_at - r_al) as f64 * frac;
                (late.round() as i16, DemandMatch::AccurateLate)
            }
            _ => (r_al, DemandMatch::AccurateLate),
        };
        e.reward = Some(reward);
        outcome
    }

    /// Records a prefetch fill (Algorithm 1, line 32): sets the fill
    /// timestamp of the matching entry.
    pub fn mark_filled(&mut self, line: u64, ready_at: u64) {
        if let Some(e) = self.find_for_line(line, |e| e.fill_ready.is_none()) {
            e.fill_ready = Some(ready_at);
        }
    }

    /// Inserts an entry taken in the state `bases` hashes; if the queue is
    /// at capacity, evicts and returns the oldest entry (Algorithm 1, line
    /// 23) and leaves **its** bases in `bases`.
    ///
    /// # Panics
    ///
    /// Panics if `bases` is not `cells` long.
    pub fn insert(&mut self, entry: EqEntry, bases: &mut [u32]) -> Option<EqEntry> {
        assert_eq!(bases.len(), self.cells, "bases geometry mismatch");
        let seq = self.head_seq + self.len as u64;
        if let Some(line) = entry.prefetch_line {
            match self.by_line.entry(line) {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    // Chain behind the current newest same-line entry.
                    let (_, tail) = *o.get();
                    self.links[(tail & self.mask) as usize] = seq;
                    o.get_mut().1 = seq;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((seq, seq));
                }
            }
        }
        let i = self.slot(seq);
        let cells = self.cells;
        let evicted = if self.len >= self.capacity {
            let old = self.slot(self.head_seq);
            let evicted = self.slots[old];
            let link = self.links[old];
            self.head_seq += 1;
            self.len -= 1;
            if let Some(line) = evicted.prefetch_line {
                // The evicted entry is the oldest resident, so it heads its
                // line's chain.
                if link == NO_LINK {
                    self.by_line.remove(&line);
                } else {
                    self.by_line.get_mut(&line).expect("indexed entry").0 = link;
                }
            }
            // The evicted entry's bases leave before the new entry's
            // arrive: `old` and `i` are the same slot whenever the capacity
            // is a power of two, so there the two simply trade places.
            if old == i {
                bases.swap_with_slice(&mut self.bases[i * cells..][..cells]);
            } else {
                self.bases[i * cells..][..cells].copy_from_slice(bases);
                bases.copy_from_slice(&self.bases[old * cells..][..cells]);
            }
            Some(evicted)
        } else {
            self.bases[i * cells..][..cells].copy_from_slice(bases);
            None
        };
        self.slots[i] = entry;
        self.links[i] = NO_LINK;
        self.len += 1;
        evicted
    }

    /// The `i`-th oldest entry and its state's bases. `oldest(0)` is the
    /// head; when the queue is full, `oldest(0)` and `oldest(1)` are the
    /// (S₁, A₁) and (S₂, A₂) operands of the *next* insert's SARSA update,
    /// so callers can warm their Q-cells a step ahead.
    pub fn oldest(&self, i: usize) -> Option<(&EqEntry, &[u32])> {
        (i < self.len).then(|| {
            let slot = self.slot(self.head_seq + i as u64);
            (
                &self.slots[slot],
                &self.bases[slot * self.cells..][..self.cells],
            )
        })
    }

    /// The current head (oldest entry) — the (S₂, A₂) of the SARSA update.
    pub fn head(&self) -> Option<(&EqEntry, &[u32])> {
        self.oldest(0)
    }

    /// Whether the next insert will evict.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: Option<u64>, t: u64) -> EqEntry {
        EqEntry::new(0, line, t)
    }

    #[test]
    fn fifo_eviction_order() {
        let mut eq = EvaluationQueue::new(2, 0);
        assert!(eq.insert(entry(Some(10), 0), &mut []).is_none());
        assert!(eq.insert(entry(Some(11), 1), &mut []).is_none());
        let ev = eq
            .insert(entry(Some(12), 2), &mut [])
            .expect("eviction at capacity");
        assert_eq!(ev.prefetch_line, Some(10));
        assert_eq!(eq.head().unwrap().0.prefetch_line, Some(11));
    }

    #[test]
    fn demand_after_fill_is_timely() {
        let mut eq = EvaluationQueue::new(4, 0);
        eq.insert(entry(Some(100), 0), &mut []);
        eq.mark_filled(100, 50);
        assert_eq!(
            eq.reward_demand_hit(100, 80, 20, 12, false),
            DemandMatch::AccurateTimely
        );
        assert_eq!(eq.head().unwrap().0.reward, Some(20));
    }

    #[test]
    fn demand_before_fill_is_late() {
        let mut eq = EvaluationQueue::new(4, 0);
        eq.insert(entry(Some(100), 0), &mut []);
        eq.mark_filled(100, 500);
        assert_eq!(
            eq.reward_demand_hit(100, 80, 20, 12, false),
            DemandMatch::AccurateLate
        );
        assert_eq!(eq.head().unwrap().0.reward, Some(12));
    }

    #[test]
    fn unfilled_entry_is_late() {
        let mut eq = EvaluationQueue::new(4, 0);
        eq.insert(entry(Some(100), 0), &mut []);
        assert_eq!(
            eq.reward_demand_hit(100, 80, 20, 12, false),
            DemandMatch::AccurateLate
        );
    }

    #[test]
    fn rewarded_entry_not_rewarded_twice() {
        let mut eq = EvaluationQueue::new(4, 0);
        eq.insert(entry(Some(100), 0), &mut []);
        eq.mark_filled(100, 10);
        assert_eq!(
            eq.reward_demand_hit(100, 20, 20, 12, false),
            DemandMatch::AccurateTimely
        );
        // Second demand to the same line: entry already rewarded.
        assert_eq!(
            eq.reward_demand_hit(100, 30, 20, 12, false),
            DemandMatch::Miss
        );
    }

    #[test]
    fn miss_on_unrelated_line() {
        let mut eq = EvaluationQueue::new(4, 0);
        eq.insert(entry(Some(100), 0), &mut []);
        assert_eq!(
            eq.reward_demand_hit(999, 10, 20, 12, false),
            DemandMatch::Miss
        );
    }

    #[test]
    fn no_prefetch_entries_never_match_demands() {
        let mut eq = EvaluationQueue::new(4, 0);
        eq.insert(entry(None, 0), &mut []);
        assert_eq!(
            eq.reward_demand_hit(0, 10, 20, 12, false),
            DemandMatch::Miss
        );
    }

    #[test]
    #[should_panic(expected = "EQ capacity")]
    fn zero_capacity_rejected() {
        let _ = EvaluationQueue::new(0, 0);
    }

    #[test]
    fn graded_reward_interpolates_lateness() {
        // Prefetch issued at 0, fills at 100.
        let mk = || {
            let mut eq = EvaluationQueue::new(4, 0);
            eq.insert(EqEntry::new(0, Some(7), 0), &mut []);
            eq.mark_filled(7, 100);
            eq
        };
        // Demand right after issue: fully late -> R_AL.
        let mut eq = mk();
        assert_eq!(
            eq.reward_demand_hit(7, 1, 20, 12, true),
            DemandMatch::AccurateLate
        );
        let early = eq.head().unwrap().0.reward.unwrap();
        assert!(
            early <= 13,
            "barely-started flight earns ~R_AL, got {early}"
        );
        // Demand just before the fill: almost timely -> near R_AT.
        let mut eq = mk();
        eq.reward_demand_hit(7, 99, 20, 12, true);
        let near = eq.head().unwrap().0.reward.unwrap();
        assert!(near >= 19, "nearly-filled flight earns ~R_AT, got {near}");
        // Demand after fill: full R_AT and classified timely.
        let mut eq = mk();
        assert_eq!(
            eq.reward_demand_hit(7, 150, 20, 12, true),
            DemandMatch::AccurateTimely
        );
        assert_eq!(eq.head().unwrap().0.reward, Some(20));
        // Unfilled entry: plain R_AL.
        let mut eq = EvaluationQueue::new(4, 0);
        eq.insert(EqEntry::new(0, Some(9), 0), &mut []);
        eq.reward_demand_hit(9, 50, 20, 12, true);
        assert_eq!(eq.head().unwrap().0.reward, Some(12));
    }

    #[test]
    fn graded_reward_monotone_in_demand_time() {
        let mut last = i16::MIN;
        for demand in [5u64, 25, 50, 75, 95] {
            let mut eq = EvaluationQueue::new(4, 0);
            eq.insert(EqEntry::new(0, Some(7), 0), &mut []);
            eq.mark_filled(7, 100);
            eq.reward_demand_hit(7, demand, 20, 12, true);
            let r = eq.head().unwrap().0.reward.unwrap();
            assert!(r >= last, "graded reward must be monotone: {r} < {last}");
            last = r;
        }
    }
}
