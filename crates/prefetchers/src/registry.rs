//! Build prefetchers by name — the equivalent of ChampSim's configuration
//! strings, used by the experiment harness and the examples.

use pythia_sim::prefetch::{NoPrefetcher, Prefetcher};

use crate::bingo::Bingo;
use crate::cp_hw::CpHw;
use crate::dspatch::DsPatch;
use crate::ipcp::Ipcp;
use crate::mlop::Mlop;
use crate::multi::Multi;
use crate::next_line::NextLine;
use crate::power7::Power7;
use crate::ppf::SppPpf;
use crate::spp::Spp;
use crate::streamer::Streamer;
use crate::stride::StridePrefetcher;

/// Builds one prefetcher; `seed` feeds stochastic prefetchers (CP-HW) so
/// multi-core instances diverge deterministically.
pub type Constructor = fn(u64) -> Box<dyn Prefetcher>;

/// Every name [`build`] accepts, with its constructor, in listing order.
/// `"st"` is the ladders' spelling of `"stride"`.
const TABLE: &[(&str, Constructor)] = &[
    ("none", |_| Box::new(NoPrefetcher)),
    ("next_line", |_| Box::new(NextLine::default())),
    ("stride", |_| Box::new(StridePrefetcher::default())),
    ("streamer", |_| Box::new(Streamer::default())),
    ("spp", |_| Box::new(Spp::new())),
    ("spp+ppf", |_| Box::new(SppPpf::new())),
    ("bingo", |_| Box::new(Bingo::new())),
    ("mlop", |_| Box::new(Mlop::new())),
    ("dspatch", |_| Box::new(DsPatch::new())),
    ("ipcp", |_| Box::new(Ipcp::new())),
    ("cp_hw", |seed| Box::new(CpHw::new(seed))),
    ("power7", |_| Box::new(Power7::new())),
    ("stride+streamer", |seed| {
        rung(&["stride", "streamer"], seed)
    }),
    ("st", |_| Box::new(StridePrefetcher::default())),
    ("st+s", |seed| rung(&["stride", "spp"], seed)),
    ("st+s+b", |seed| rung(&["stride", "spp", "bingo"], seed)),
    ("st+s+b+d", |seed| {
        rung(&["stride", "spp", "bingo", "dspatch"], seed)
    }),
    ("st+s+b+d+m", |seed| {
        rung(&["stride", "spp", "bingo", "dspatch", "mlop"], seed)
    }),
];

/// Names accepted by [`build`], in listing order.
pub fn available() -> impl ExactSizeIterator<Item = &'static str> {
    TABLE.iter().map(|&(name, _)| name)
}

/// Builds a prefetcher by name. `seed` feeds stochastic prefetchers (CP-HW)
/// so multi-core instances diverge deterministically.
///
/// Returns `None` for unknown names; see [`available`].
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Prefetcher>> {
    let (_, make) = TABLE.iter().find(|&&(n, _)| n == name)?;
    Some(make(seed))
}

/// Builds a [`Multi`] from component names (the Fig. 9(b)/10(b) ladders).
pub fn ladder(names: &[&str], seed: u64) -> Option<Box<dyn Prefetcher>> {
    let parts = names
        .iter()
        .map(|n| build(n, seed))
        .collect::<Option<Vec<_>>>()?;
    Some(Box::new(Multi::new(parts)))
}

/// A [`TABLE`] row composed of rows above it.
fn rung(names: &[&str], seed: u64) -> Box<dyn Prefetcher> {
    ladder(names, seed).expect("a composed row names registered rows")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_advertised_names_build() {
        for name in available() {
            assert!(build(name, 1).is_some(), "{name} failed to build");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(build("does-not-exist", 0).is_none());
    }

    #[test]
    fn ladder_composes() {
        let p = ladder(&["stride", "spp"], 0).unwrap();
        assert_eq!(p.name(), "stride+spp");
    }

    #[test]
    fn table7_storage_sizes_are_ordered_sensibly() {
        // Table 7: Bingo (46 KB) is the largest, SPP+PPF (39.3 KB) exceeds
        // plain SPP (6.2 KB), and every prefetcher fits in tens of KB.
        let bits = |n: &str| build(n, 0).unwrap().storage_bits();
        assert!(bits("bingo") > bits("spp"));
        assert!(bits("bingo") > bits("mlop"));
        assert!(bits("spp+ppf") > bits("spp"));
        for name in ["spp", "bingo", "mlop", "dspatch", "spp+ppf", "ipcp"] {
            let kb = bits(name) as f64 / 8192.0;
            assert!(
                kb > 0.5 && kb < 128.0,
                "{name}: {kb} KB out of plausible range"
            );
        }
    }
}
