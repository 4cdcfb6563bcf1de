//! The prefetcher interface.
//!
//! Per §5.2 of the paper, every evaluated prefetcher is trained on the
//! L1-cache miss stream (i.e. the L2's demand accesses) and fills prefetched
//! lines into the L2 and the LLC. The simulator calls
//! [`Prefetcher::on_demand_into`] for each such access — pushing requests
//! into a scratch buffer the simulator reuses across accesses, so the hot
//! path allocates nothing — and issues them into the hierarchy;
//! [`Prefetcher::on_fill`] notifies the prefetcher when one of its requests
//! is scheduled to land in the cache. The allocating
//! [`Prefetcher::on_demand`] convenience wrapper remains for tests and
//! examples.
//!
//! [`SystemFeedback`] carries the system-level information the paper argues
//! prefetchers should be *inherently* aware of — currently memory bandwidth
//! usage, exactly the signal Pythia folds into its reward scheme.
//!
//! Implementations must be deterministic (same access sequence ⇒ same
//! requests): the experiment harness's parallel sweep engine and the
//! repository's determinism tests both depend on it. Randomized policies
//! should derive their RNG from an explicit seed, as the registry's
//! builders do.
//!
//! # Implementing a prefetcher
//!
//! Two methods are required, [`Prefetcher::name`] and
//! [`Prefetcher::on_demand_into`]. The simulator keeps every prefetcher's
//! books (requests issued, useful and useless notices) itself, so the
//! notification hooks are for prefetchers that learn from them.
//!
//! ```rust
//! use pythia_sim::addr;
//! use pythia_sim::prefetch::{DemandAccess, Prefetcher, PrefetchRequest, SystemFeedback};
//!
//! /// Always fetches the next line, staying inside the 4 KB page.
//! struct NextLine;
//!
//! impl Prefetcher for NextLine {
//!     fn name(&self) -> &str {
//!         "next-line"
//!     }
//!     fn on_demand_into(
//!         &mut self,
//!         access: &DemandAccess,
//!         _feedback: &SystemFeedback,
//!         out: &mut Vec<PrefetchRequest>,
//!     ) {
//!         if addr::offset_stays_in_page(access.line, 1) {
//!             out.push(PrefetchRequest::to_l2(access.line + 1));
//!         }
//!     }
//! }
//! ```

use crate::addr;
use crate::stats::PrefetcherStats;

/// A demand access observed at the prefetcher's cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandAccess {
    /// Program counter of the triggering load/store.
    pub pc: u64,
    /// Byte address demanded.
    pub addr: u64,
    /// Cacheline index of the demand.
    pub line: u64,
    /// `true` for stores.
    pub is_write: bool,
    /// Core cycle at which the demand issued.
    pub cycle: u64,
    /// `true` if the access missed at this level (for prefetchers that only
    /// train on misses; the simulator invokes the prefetcher on every L2
    /// demand access, which is the L1 miss stream).
    pub missed: bool,
}

impl DemandAccess {
    /// Physical page number of the demand.
    pub fn page(&self) -> u64 {
        addr::page_of(self.addr)
    }

    /// Line offset within the page, in `0..64`.
    pub fn page_offset(&self) -> u64 {
        addr::page_offset(self.addr)
    }
}

/// One prefetch request emitted by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchRequest {
    /// Cacheline index to prefetch.
    pub line: u64,
    /// If `true`, fill into L2 (and LLC); otherwise LLC only.
    pub fill_l2: bool,
}

impl PrefetchRequest {
    /// A request filling both L2 and LLC (the common case in the paper).
    pub fn to_l2(line: u64) -> Self {
        Self {
            line,
            fill_l2: true,
        }
    }

    /// A request filling only the LLC (used by low-confidence paths, e.g.
    /// SPP's below-threshold lookahead prefetches).
    pub fn to_llc(line: u64) -> Self {
        Self {
            line,
            fill_l2: false,
        }
    }
}

/// System-level feedback made available to prefetchers on every decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemFeedback {
    /// Whether DRAM bandwidth usage over the last monitoring window exceeded
    /// the configured threshold.
    pub bandwidth_high: bool,
    /// Raw utilization percentage of the last window (0–100).
    pub bandwidth_utilization_pct: u8,
}

impl SystemFeedback {
    /// Feedback indicating an idle memory system.
    pub fn idle() -> Self {
        Self {
            bandwidth_high: false,
            bandwidth_utilization_pct: 0,
        }
    }
}

/// Notification that a prefetched line has been scheduled to fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillEvent {
    /// The filled cacheline index.
    pub line: u64,
    /// Cycle at which the data arrives in the cache.
    pub ready_at: u64,
    /// `true` if the fill originated from a prefetch request (vs. a demand
    /// miss fill).
    pub prefetched: bool,
}

/// A read-only snapshot of a learning prefetcher's internal state, for
/// windowed telemetry (Q-value drift, evaluation-queue pressure).
///
/// Produced by [`Prefetcher::telemetry_probe`]; prefetchers without
/// internal learning state return `None` from the default method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentProbe {
    /// Minimum stored Q entry (plane-partial units for Pythia).
    pub q_min: f32,
    /// Mean stored Q entry.
    pub q_mean: f32,
    /// Maximum stored Q entry.
    pub q_max: f32,
    /// Entries currently resident in the evaluation queue.
    pub eq_len: usize,
    /// Evaluation-queue capacity.
    pub eq_capacity: usize,
}

/// A hardware prefetcher.
///
/// Implementations live in `pythia-prefetchers` (the baselines of Table 7)
/// and `pythia-core` (Pythia itself). The trait is object-safe; the
/// simulator owns one boxed prefetcher per core.
pub trait Prefetcher {
    /// Short identifier used in reports (e.g. `"spp"`, `"bingo"`,
    /// `"pythia"`).
    fn name(&self) -> &str;

    /// Called on every demand access at the training level. Pushes the
    /// prefetch requests to issue into `out` — a scratch buffer the
    /// simulator clears and reuses across accesses, keeping the per-access
    /// hot path allocation-free. The simulator deduplicates against cache
    /// contents and clamps addresses; prefetchers are responsible for any
    /// page-boundary policy of their own.
    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    );

    /// Allocating convenience wrapper around
    /// [`on_demand_into`](Prefetcher::on_demand_into), for tests and
    /// example code off the hot path.
    fn on_demand(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        self.on_demand_into(access, feedback, &mut out);
        out
    }

    /// Called when a line fills into the L2 (demand or prefetch).
    fn on_fill(&mut self, _event: &FillEvent) {}

    /// Called when the simulator observes that one of this prefetcher's
    /// requests turned out useful (first demand hit on a prefetched line).
    /// The simulator books the notice itself (`PrefetcherStats::useful`);
    /// implement this only to learn from it.
    fn on_useful(&mut self, _line: u64) {}

    /// Slice form of [`on_useful`](Prefetcher::on_useful), the one the
    /// simulator calls: with the single line a demand proved useful. The
    /// default forwards line by line, in order — overriding either method
    /// is equivalent.
    fn on_useful_batch(&mut self, lines: &[u64]) {
        for &line in lines {
            self.on_useful(line);
        }
    }

    /// Called when a prefetched line was evicted unused. The simulator
    /// books the notice itself (`PrefetcherStats::useless`); implement this
    /// only to learn from it.
    fn on_useless(&mut self, _line: u64) {}

    /// Not called by the simulator, which keeps every prefetcher's books
    /// itself ([`SimReport::prefetchers`](crate::stats::SimReport::prefetchers)). Kept
    /// with a default body for wrappers that still forward it.
    #[doc(hidden)]
    fn stats(&self) -> PrefetcherStats {
        PrefetcherStats::default()
    }

    /// Not called by the simulator; see [`stats`](Prefetcher::stats).
    #[doc(hidden)]
    fn reset_stats(&mut self) {}

    /// Estimated metadata storage in bits (Table 7 reproduction).
    fn storage_bits(&self) -> u64 {
        0
    }

    /// A strictly read-only snapshot of internal learning state for the
    /// windowed telemetry layer. The default (`None`) suits stateless
    /// and table-free prefetchers; Pythia reports its Q-table spread and
    /// EQ occupancy. Implementations must not mutate any state here —
    /// the workspace pins reports byte-identical with telemetry on/off.
    fn telemetry_probe(&self) -> Option<AgentProbe> {
        None
    }
}

/// The no-op prefetcher: the paper's "no prefetching" baseline.
#[derive(Debug, Default, Clone)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn name(&self) -> &str {
        "none"
    }

    fn on_demand_into(
        &mut self,
        _access: &DemandAccess,
        _feedback: &SystemFeedback,
        _out: &mut Vec<PrefetchRequest>,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_access_helpers() {
        let a = DemandAccess {
            pc: 0x400000,
            addr: 0x1234 + 4096 * 7,
            line: addr::line_of(0x1234 + 4096 * 7),
            is_write: false,
            cycle: 0,
            missed: true,
        };
        assert_eq!(a.page(), 7 + 1); // 0x1234 > 4096, so one page up
        assert!(a.page_offset() < 64);
    }

    #[test]
    fn no_prefetcher_is_silent() {
        let mut p = NoPrefetcher;
        let a = DemandAccess {
            pc: 0,
            addr: 0,
            line: 0,
            is_write: false,
            cycle: 0,
            missed: true,
        };
        assert!(p.on_demand(&a, &SystemFeedback::idle()).is_empty());
        assert_eq!(p.name(), "none");
        assert_eq!(p.storage_bits(), 0);
    }

    #[test]
    fn request_constructors() {
        assert!(PrefetchRequest::to_l2(5).fill_l2);
        assert!(!PrefetchRequest::to_llc(5).fill_l2);
    }

    #[test]
    fn prefetcher_trait_is_object_safe() {
        let boxed: Box<dyn Prefetcher> = Box::new(NoPrefetcher);
        assert_eq!(boxed.name(), "none");
    }
}
