//! Replacement policies: LRU for the private levels and SHiP
//! (Signature-based Hit Predictor, Wu et al. MICRO'11) for the LLC, matching
//! Table 5 of the paper.

/// Which replacement policy a cache level runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Classic least-recently-used.
    Lru,
    /// SHiP: SRRIP victim selection with signature-predicted insertion.
    Ship,
}

/// Number of entries in the Signature History Counter Table.
const SHCT_ENTRIES: usize = 16 * 1024;
/// Saturating maximum of each SHCT counter (3-bit counters).
const SHCT_MAX: u8 = 7;

/// SHiP predictor state: one saturating counter per PC signature.
///
/// A counter of zero means "lines brought in by this signature are never
/// reused" — such lines are inserted with distant re-reference prediction
/// (RRPV = 3) so they are evicted first.
#[derive(Debug, Clone)]
pub(crate) struct ShipState {
    shct: Vec<u8>,
}

impl ShipState {
    pub(crate) fn new() -> Self {
        // Start weakly-reused so the predictor must learn non-reuse.
        Self {
            shct: vec![1; SHCT_ENTRIES],
        }
    }

    /// The predictor a level running `kind` keeps: the whole table under
    /// SHiP, and none under LRU, which never consults it.
    pub(crate) fn for_level(kind: ReplacementKind) -> Self {
        match kind {
            ReplacementKind::Ship => Self::new(),
            ReplacementKind::Lru => Self { shct: Vec::new() },
        }
    }

    /// Bytes the table holds on the host.
    pub(crate) fn host_bytes(&self) -> usize {
        self.shct.len()
    }

    #[inline]
    fn index(sig: u16) -> usize {
        sig as usize % SHCT_ENTRIES
    }

    /// Called when a line is re-referenced while resident.
    pub(crate) fn on_reuse(&mut self, sig: u16) {
        let c = &mut self.shct[Self::index(sig)];
        *c = (*c + 1).min(SHCT_MAX);
    }

    /// Called when a line is evicted without having been reused.
    pub(crate) fn on_eviction_unused(&mut self, sig: u16) {
        let c = &mut self.shct[Self::index(sig)];
        *c = c.saturating_sub(1);
    }

    /// Insertion RRPV for a new line with signature `sig`.
    ///
    /// Prefetch fills are inserted with distant prediction unless the
    /// signature has proven strongly reused, limiting LLC pollution from
    /// overpredicting prefetchers — the effect the paper leans on in its
    /// bandwidth-constrained studies.
    pub(crate) fn insertion_rrpv(&self, sig: u16, prefetched: bool) -> u8 {
        let counter = self.shct[Self::index(sig)];
        if counter == 0 {
            3
        } else if prefetched {
            if counter >= SHCT_MAX {
                2
            } else {
                3
            }
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate_both_ends() {
        let mut s = ShipState::new();
        for _ in 0..20 {
            s.on_reuse(42);
        }
        assert_eq!(s.shct[ShipState::index(42)], SHCT_MAX);
        for _ in 0..20 {
            s.on_eviction_unused(42);
        }
        assert_eq!(s.shct[ShipState::index(42)], 0);
    }

    #[test]
    fn never_reused_signature_gets_distant_insertion() {
        let mut s = ShipState::new();
        s.on_eviction_unused(7); // counter 1 -> 0
        assert_eq!(s.insertion_rrpv(7, false), 3);
        assert_eq!(s.insertion_rrpv(7, true), 3);
    }

    #[test]
    fn reused_signature_gets_near_insertion() {
        let mut s = ShipState::new();
        s.on_reuse(9);
        assert_eq!(s.insertion_rrpv(9, false), 2);
    }

    #[test]
    fn prefetch_insertion_more_conservative() {
        let s = ShipState::new();
        // Fresh signature (counter 1): demand inserted at 2, prefetch at 3.
        assert_eq!(s.insertion_rrpv(3, false), 2);
        assert_eq!(s.insertion_rrpv(3, true), 3);
        // Strongly reused signature: prefetch allowed near insertion.
        let mut s = ShipState::new();
        for _ in 0..10 {
            s.on_reuse(3);
        }
        assert_eq!(s.insertion_rrpv(3, true), 2);
    }

    #[test]
    fn distinct_signatures_independent() {
        let mut s = ShipState::new();
        s.on_eviction_unused(1);
        assert_eq!(s.insertion_rrpv(1, false), 3);
        assert_eq!(s.insertion_rrpv(2, false), 2);
    }
}
