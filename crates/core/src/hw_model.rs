//! Hardware cost model: reproduces the storage budget of Table 4 and the
//! area/power overheads of Table 8.
//!
//! The paper's absolute numbers come from Chisel RTL synthesized with a
//! GlobalFoundries 14 nm library — not reproducible without the PDK. What
//! *is* reproducible is the arithmetic behind them: bit-widths × entry
//! counts for storage, and proportional scaling of the published area/power
//! figures for non-basic configurations (documented substitution in
//! DESIGN.md).

use crate::config::PythiaConfig;
use crate::qvstore::QV_ENTRY_BITS;

/// Storage breakdown of a Pythia configuration (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// QVStore bits: vaults × planes × entries × actions ×
    /// [`QV_ENTRY_BITS`] — the Q8.7 fixed-point entries the store
    /// actually allocates, not an assumed width.
    pub qvstore_bits: u64,
    /// EQ bits: entries × (state + action idx + reward + filled + address).
    pub eq_bits: u64,
}

impl StorageBreakdown {
    /// Total metadata bits.
    pub fn total_bits(&self) -> u64 {
        self.qvstore_bits + self.eq_bits
    }

    /// Total metadata in kilobytes.
    pub fn total_kb(&self) -> f64 {
        self.total_bits() as f64 / 8192.0
    }

    /// QVStore share of the total.
    pub fn qvstore_fraction(&self) -> f64 {
        self.qvstore_bits as f64 / self.total_bits() as f64
    }
}

/// Computes the Table 4 storage breakdown for a configuration.
pub fn storage(config: &PythiaConfig) -> StorageBreakdown {
    let entries = 1u64 << config.plane_index_bits;
    let qvstore_bits = config.features.len() as u64
        * config.planes as u64
        * entries
        * config.actions.len() as u64
        * QV_ENTRY_BITS;
    // Table 4 EQ entry: state (21 b) + action index (5 b) + reward (5 b) +
    // filled bit (1 b) + address (16 b) = 48 b.
    let state_bits = 21u64;
    let action_bits = 5u64;
    let reward_bits = 5u64;
    let filled_bits = 1u64;
    let address_bits = 16u64;
    let eq_bits = config.eq_size as u64
        * (state_bits + action_bits + reward_bits + filled_bits + address_bits);
    StorageBreakdown {
        qvstore_bits,
        eq_bits,
    }
}

/// Published synthesis results for the basic configuration (§6.7): used as
/// the anchor for proportional estimates.
pub mod anchors {
    /// Pythia area in mm² (14 nm, basic config).
    pub const AREA_MM2: f64 = 0.33;
    /// Pythia power in mW (basic config).
    pub const POWER_MW: f64 = 55.11;
    /// QVStore's share of total area.
    pub const QVSTORE_AREA_SHARE: f64 = 0.904;
    /// QVStore's share of total power.
    pub const QVSTORE_POWER_SHARE: f64 = 0.956;
}

/// Area/power estimate for an arbitrary configuration, scaled from the
/// published basic-configuration synthesis by QVStore storage ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadEstimate {
    /// Estimated area in mm² per core.
    pub area_mm2: f64,
    /// Estimated power in mW per core.
    pub power_mw: f64,
}

impl OverheadEstimate {
    /// Overhead relative to a processor of `cores` cores with the given die
    /// area (mm²) — the Table 8 percentages.
    pub fn area_overhead_pct(&self, cores: usize, die_area_mm2: f64) -> f64 {
        self.area_mm2 * cores as f64 / die_area_mm2 * 100.0
    }
}

/// Estimates area/power by scaling the published anchors with the QVStore
/// storage ratio (QVStore dominates both, §6.7).
pub fn estimate_overhead(config: &PythiaConfig) -> OverheadEstimate {
    let basic = storage(&PythiaConfig::basic());
    let this = storage(config);
    let ratio = this.qvstore_bits as f64 / basic.qvstore_bits as f64;
    let area = anchors::AREA_MM2
        * (anchors::QVSTORE_AREA_SHARE * ratio + (1.0 - anchors::QVSTORE_AREA_SHARE));
    let power = anchors::POWER_MW
        * (anchors::QVSTORE_POWER_SHARE * ratio + (1.0 - anchors::QVSTORE_POWER_SHARE));
    OverheadEstimate {
        area_mm2: area,
        power_mw: power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_total_is_25_5_kb() {
        let s = storage(&PythiaConfig::basic());
        assert_eq!(s.qvstore_bits / 8 / 1024, 24, "QVStore must be 24 KB");
        assert_eq!(s.eq_bits, 256 * 48);
        assert_eq!(s.eq_bits / 8 / 1024, 1, "EQ must be 1.5 KB (rounds to 1)");
        assert!(
            (s.total_kb() - 25.5).abs() < 0.01,
            "total {} KB",
            s.total_kb()
        );
    }

    #[test]
    fn qvstore_reports_the_true_fixed_point_budget() {
        // The live store, the cost model and the paper's Table 4 hardware
        // budget must all agree on the bit count: 2 vaults × 3 planes ×
        // 128 entries × 16 actions × 16-bit Q8.7 entries = 196,608 bits.
        let cfg = PythiaConfig::basic();
        let live = crate::qvstore::QvStore::new(&cfg).storage_bits();
        assert_eq!(live, storage(&cfg).qvstore_bits);
        assert_eq!(live, 196_608);
        assert_eq!(live / 8 / 1024, 24, "Table 4 budgets the QVStore 24 KB");
        // The in-memory representation matches the accounted width exactly:
        // an i16 per entry, no hidden f32 shadow copies.
        assert_eq!(crate::qvstore::QV_ENTRY_BITS, 16);
        assert_eq!(
            std::mem::size_of::<i16>() as u64 * 8,
            crate::qvstore::QV_ENTRY_BITS
        );
    }

    #[test]
    fn qvstore_dominates_storage() {
        let s = storage(&PythiaConfig::basic());
        assert!(s.qvstore_fraction() > 0.9);
    }

    #[test]
    fn basic_overhead_matches_published_anchor() {
        let o = estimate_overhead(&PythiaConfig::basic());
        assert!((o.area_mm2 - anchors::AREA_MM2).abs() < 1e-9);
        assert!((o.power_mw - anchors::POWER_MW).abs() < 1e-9);
    }

    #[test]
    fn table8_percentages_reproduce() {
        // 4-core Skylake D-2123IT: Pythia in all 4 cores incurs 1.03% area.
        // Die area implied: 4 * 0.33 / 0.0103 = ~128 mm².
        let o = estimate_overhead(&PythiaConfig::basic());
        let pct = o.area_overhead_pct(4, 128.0);
        assert!((pct - 1.03).abs() < 0.05, "got {pct}%");
    }

    #[test]
    fn larger_state_vector_scales_overhead() {
        let mut cfg = PythiaConfig::basic();
        cfg.features.push(crate::features::Feature {
            control: crate::features::ControlFlow::PcPath,
            data: crate::features::DataFlow::PageOffset,
        });
        let bigger = estimate_overhead(&cfg);
        let base = estimate_overhead(&PythiaConfig::basic());
        assert!(bigger.area_mm2 > base.area_mm2);
        assert!(bigger.power_mw > base.power_mw);
        // Adding a vault scales QVStore by 1.5x.
        let s = storage(&cfg);
        assert_eq!(
            s.qvstore_bits,
            storage(&PythiaConfig::basic()).qvstore_bits * 3 / 2
        );
    }

    #[test]
    fn full_action_list_costs_8x_storage() {
        let pruned = storage(&PythiaConfig::basic());
        let full = storage(&PythiaConfig::basic().with_actions(PythiaConfig::full_actions()));
        // 127 actions vs 16: ~7.9x QVStore.
        assert!(full.qvstore_bits > pruned.qvstore_bits * 7);
        assert!(full.qvstore_bits < pruned.qvstore_bits * 9);
    }
}
