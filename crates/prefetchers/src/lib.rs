//! # pythia-prefetchers
//!
//! From-scratch Rust implementations of the baseline hardware prefetchers
//! the Pythia paper (Bera et al., MICRO 2021) evaluates against (Table 7 and
//! appendices B.4/B.5):
//!
//! * [`spp`] — Signature Path Prefetcher (Kim et al., MICRO'16)
//! * [`ppf`] — SPP with the Perceptron Prefetch Filter (Bhatia et al., ISCA'19)
//! * [`bingo`] — Bingo spatial prefetcher (Bakhshalipour et al., HPCA'19)
//! * [`mlop`] — Multi-Lookahead Offset Prefetcher (Shakerinava et al., DPC-3)
//! * [`dspatch`] — Dual Spatial Pattern prefetcher (Bera et al., MICRO'19)
//! * [`ipcp`] — Instruction Pointer Classifier prefetcher (Pakalapati &
//!   Panda, ISCA'20)
//! * [`stride`] — PC-based stride prefetcher (Fu/Patel-style)
//! * [`streamer`] — next-N-line streamer with direction detection
//! * [`next_line`] — degree-1 next-line prefetcher
//! * [`cp_hw`] — the context prefetcher restricted to hardware contexts,
//!   i.e. a contextual-bandit (no long-term credit) RL prefetcher (App. B.4)
//! * [`power7`] — IBM POWER7-style adaptive stream prefetcher (App. B.5)
//! * [`multi`] — composition of several prefetchers (the St+S+B+D+M ladders
//!   of Figs. 9(b)/10(b))
//!
//! All of them implement [`pythia_sim::prefetch::Prefetcher`] and report a
//! storage estimate for the Table 7 reproduction.

pub mod bingo;
pub mod cp_hw;
pub mod dspatch;
pub mod ipcp;
pub mod mlop;
pub mod multi;
pub mod next_line;
pub mod power7;
pub mod ppf;
pub mod registry;
pub mod spp;
pub mod streamer;
pub mod stride;

pub use pythia_sim::prefetch::{
    DemandAccess, FillEvent, NoPrefetcher, PrefetchRequest, Prefetcher, SystemFeedback,
};
pub use registry::{available, build};

pub(crate) mod util {
    //! Small helpers shared by the prefetcher implementations.

    use pythia_sim::addr;
    use pythia_sim::prefetch::PrefetchRequest;

    /// Emits a prefetch for `line + offset` into `out` if it stays within
    /// the 4 KB page of `line` (post-L1 prefetchers stay in-page, §3.1).
    pub fn push_in_page(out: &mut Vec<PrefetchRequest>, line: u64, offset: i32, fill_l2: bool) {
        if offset != 0 && addr::offset_stays_in_page(line, offset) {
            let target = addr::apply_offset(line, offset);
            out.push(PrefetchRequest {
                line: target,
                fill_l2,
            });
        }
    }

    /// A small multiplicative hash into `bits` bits.
    #[inline]
    pub fn hash_bits(x: u64, bits: u32) -> usize {
        let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - bits)) as usize
    }

    /// The slot to replace in a metadata table kept by LRU stamps: the
    /// first invalid entry (`stamp` is `None`), else the oldest stamp, the
    /// first index winning a tie.
    ///
    /// # Panics
    ///
    /// Panics if `table` is empty.
    pub fn lru_victim<T>(table: &[T], stamp: impl Fn(&T) -> Option<u64>) -> usize {
        (0..table.len())
            .min_by_key(|&i| stamp(&table[i]))
            .expect("non-empty table")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn lru_victim_takes_the_first_invalid_then_the_oldest() {
            let stamp = |e: &Option<u64>| *e;
            assert_eq!(lru_victim(&[Some(3), None, Some(1), None], stamp), 1);
            assert_eq!(lru_victim(&[Some(3), Some(1), Some(2), Some(1)], stamp), 1);
        }

        #[test]
        fn push_in_page_respects_boundaries() {
            let mut out = Vec::new();
            let line = 64; // first line of page 1
            push_in_page(&mut out, line, 5, true);
            push_in_page(&mut out, line, -1, true); // crosses down -> dropped
            push_in_page(&mut out, line, 64, true); // crosses up -> dropped
            push_in_page(&mut out, line, 0, true); // zero offset -> dropped
            assert_eq!(out, vec![PrefetchRequest::to_l2(69)]);
        }

        #[test]
        fn hash_bits_in_range() {
            for x in 0..1000u64 {
                assert!(hash_bits(x, 10) < 1024);
            }
        }
    }
}

/// Convenience: a [`DemandAccess`] for unit tests across this crate.
#[cfg(test)]
pub(crate) fn test_access(pc: u64, addr: u64) -> DemandAccess {
    DemandAccess {
        pc,
        addr,
        line: pythia_sim::addr::line_of(addr),
        is_write: false,
        cycle: 0,
        missed: true,
    }
}
