//! QVStore: the hierarchical, table-based Q-value store (§4.2.1, Fig. 5).
//!
//! One **vault** per program feature records Q-values for feature-action
//! pairs. Each vault is a set of tile-coded **planes**: a plane hashes the
//! (shifted) feature value into a small index and stores a *partial*
//! Q-value per (index, action). The feature-action Q-value is the **sum**
//! of its plane partials (Fig. 5(b)); the state-action Q-value is the
//! **max** over vaults (Eqn. 3):
//!
//! ```text
//! Q(S, A) = max_i  Σ_planes  q_plane(shift_p(φ_i), A)
//! ```
//!
//! Tile coding trades resolution for generalization: each plane shifts the
//! feature value by a different constant before hashing, so nearby feature
//! values share some (but not all) partial Q-values.
//!
//! The SARSA update distributes the TD error equally across the planes of
//! every vault (linear function approximation with constant feature
//! gradient), so each vault's Q-value moves by exactly `α·δ`.
//!
//! # Fixed-point storage (Q8.7)
//!
//! The hardware Pythia stores Q-values in narrow fixed-point, not floating
//! point — Table 4 budgets 16 bits per entry. Each plane partial is an
//! `i16` in **Q8.7**: 1 sign bit, 8 integer bits, 7 fraction bits
//! ([`Q_ONE`] = 128, so one LSB is 1/128 ≈ 0.0078). That range (±256)
//! comfortably covers the optimistic init `R_max/(1-γ)` divided across
//! planes, and the per-vault sum of up to 8 plane partials still fits an
//! `i32` exactly. The float API ([`QvStore::q`], [`QvStore::feature_q`])
//! converts on read — every stored value and every plane sum is exactly
//! representable in `f32`, so the float view is a lossless window onto the
//! integer state.
//!
//! Rounding and saturation semantics:
//! - f32 → fixed conversions round to nearest, half away from zero, then
//!   saturate to the `i16` range ([`quantize`]).
//! - The SARSA update computes the TD error in 64-bit fixed-point with 16
//!   extra fraction bits (α, γ and α·δ products use round-to-nearest
//!   shifts), then **saturates** the per-plane write-back: an update can
//!   pin a partial at ±`i16::MAX`, but it can never wrap.
//! - The argmax never materializes floats at all: it scores 16 actions per
//!   step, summing each vault's plane rows into `i32` lanes and combining
//!   vaults with a lane max — the same combined value [`QvStore::q`] and
//!   the TD error read, so it orders exactly like the float view, ties
//!   broken toward the lowest action index.
//!
//! # A state is its row bases
//!
//! The store reads a state one way: as the `vaults × planes` table rows
//! its feature values hash to. [`QvStore::hash`] computes those row bases
//! once, into a slice the caller owns, and every lookup —
//! [`argmax`](QvStore::argmax), [`q`](QvStore::q),
//! [`sarsa_update`](QvStore::sarsa_update) — takes the bases. Bases depend
//! only on the feature values and the table geometry, never on the table's
//! contents, so the agent hashes each demand's state once and the EQ keeps
//! the bases until the SARSA update that consumes them.
//!
//! ```rust
//! use pythia_core::{PythiaConfig, QvStore};
//!
//! let cfg = PythiaConfig::basic();
//! let store = QvStore::new(&cfg);
//! let mut state = vec![0; store.cells()];
//! store.hash([0x99, 0x07], &mut state); // one feature value per vault
//! let best = store.argmax(&state);
//! assert!(best < cfg.actions.len());
//! // Fresh stores are optimistically initialized (Algorithm 1, line 2),
//! // to the Q8.7-quantized optimistic value:
//! assert_eq!(store.q(&state, best), cfg.q_init_quantized());
//! ```

use crate::config::{PythiaConfig, VaultCombine};

/// Per-plane shift constants ("randomly selected at design time", §4.2.1).
/// Plane 0 keeps full resolution; higher planes quantize coarser.
const PLANE_SHIFTS: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Most planes a vault can have: one per shift constant.
pub(crate) const MAX_PLANES: usize = PLANE_SHIFTS.len();

/// Bits per stored Q entry: `i16` in Q8.7 (Table 4's 16-bit weights).
pub const QV_ENTRY_BITS: u64 = 16;

/// Fraction bits of the Q8.7 format.
pub const Q_FRAC_BITS: u32 = 7;

/// Fixed-point representation of 1.0 (`1 << Q_FRAC_BITS`).
pub const Q_ONE: i32 = 1 << Q_FRAC_BITS;

/// Rounds `x` to the nearest representable Q8.7 value (half away from
/// zero), saturating at the `i16` range — the conversion every write path
/// into the store goes through.
#[inline]
pub fn quantize(x: f32) -> f32 {
    fp_from_f32(x) as f32 / Q_ONE as f32
}

/// f32 → Q8.7 raw value: round to nearest (half away from zero), saturate.
#[inline]
fn fp_from_f32(x: f32) -> i16 {
    (x * Q_ONE as f32)
        .round()
        .clamp(i16::MIN as f32, i16::MAX as f32) as i16
}

/// The hash from a (shifted) feature value to a plane slot. Public so
/// reference models (the property tests' slow f64 oracle) can address the
/// same cells the store does.
#[inline]
pub fn plane_slot(value: u64, plane: usize, index_bits: u32) -> usize {
    let shifted = value >> PLANE_SHIFTS[plane % PLANE_SHIFTS.len()];
    // Mix the plane id in so planes disagree on aliasing.
    let x = shifted ^ (plane as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> (64 - index_bits)) as usize
}

/// Bits of a lane index within an argmax group.
const LANE_BITS: u32 = 4;

/// Actions the argmax scores per kernel call: one 256-bit row of `i16`
/// cells.
const GROUP: usize = 1 << LANE_BITS;

/// `n / d` with round-to-nearest, half away from zero (`d > 0`).
#[inline]
fn div_round(n: i64, d: i64) -> i64 {
    if n >= 0 {
        (n + d / 2) / d
    } else {
        (n - d / 2) / d
    }
}

/// `x >> s` with round-to-nearest (ties toward +∞) — the fixed-point
/// product normalization step.
#[inline]
fn round_shift(x: i64, s: u32) -> i64 {
    (x + (1i64 << (s - 1))) >> s
}

/// The Q-value store.
///
/// Storage is a single flat `[vault][plane][index][action]` array (SoA) of
/// Q8.7 `i16` entries: one allocation, one cache-friendly stride walk per
/// lookup. 15 pad cells follow the last row, so the argmax's last
/// 16-action group of any row reads in bounds. A state's plane hashes are
/// computed once ([`QvStore::hash`]) and shared by every action probed
/// against it, so the per-demand argmax costs `vaults × planes` hash
/// computations, not `actions` times that.
#[derive(Debug, Clone)]
pub struct QvStore {
    /// Flat partial-Q storage (Q8.7), indexed by
    /// `vault * vault_stride + plane * plane_stride + index * actions + action`,
    /// then the pad cells.
    table: Vec<i16>,
    vaults: usize,
    planes: usize,
    index_bits: u32,
    actions: usize,
    /// Elements per plane: `entries * actions`.
    plane_stride: usize,
    /// Elements per vault: `planes * plane_stride`.
    vault_stride: usize,
    combine: VaultCombine,
    updates: u64,
    /// Whether the CPU supports AVX2, so the argmax can run its AVX2
    /// compile — detected once at construction so the per-demand path
    /// branches on a plain bool.
    use_avx2: bool,
}

/// One-time runtime check for the argmax's AVX2 compile. Off x86-64 the
/// portable compile is the only one.
fn detect_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl QvStore {
    /// Creates a QVStore per the configuration, initializing every entry so
    /// the *summed* Q-value equals the optimistic `1/(1-γ)` (Algorithm 1,
    /// line 2), quantized to Q8.7 per plane.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PythiaConfig::validate`], whose
    /// geometry bounds are what keep the table allocatable, every row base
    /// inside a `u32`, and the argmax lane sums from overflowing.
    pub fn new(config: &PythiaConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid Pythia configuration: {e}");
        }
        let vaults = config.features.len();
        let planes = config.planes;
        let entries = 1usize << config.plane_index_bits;
        let actions = config.actions.len();
        let init = fp_from_f32(config.q_init() / planes as f32);
        let plane_stride = entries * actions;
        let vault_stride = planes * plane_stride;
        Self {
            table: vec![init; vaults * vault_stride + GROUP - 1],
            vaults,
            planes,
            index_bits: config.plane_index_bits,
            actions,
            plane_stride,
            vault_stride,
            combine: config.vault_combine,
            updates: 0,
            use_avx2: detect_avx2(),
        }
    }

    /// Number of vaults (= state-vector dimension).
    pub fn vaults(&self) -> usize {
        self.vaults
    }

    /// Number of `(vault, plane)` rows a state hashes to: the length of
    /// every bases slice.
    pub fn cells(&self) -> usize {
        self.vaults * self.planes
    }

    /// Number of Q-value (SARSA) updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The cells without the pad: what [`table_stats`](QvStore::table_stats)
    /// reads and tests compare byte for byte.
    pub(crate) fn table(&self) -> &[i16] {
        &self.table[..self.vaults * self.vault_stride]
    }

    /// A state vector (one feature value per vault) hashed into a fresh
    /// buffer, for tests.
    #[cfg(test)]
    pub(crate) fn hashed(&self, state: &[u64]) -> Vec<u32> {
        let mut bases = vec![0; self.cells()];
        self.hash(state.iter().copied(), &mut bases);
        bases
    }

    /// Flat-array offset of the `(vault, plane, value)` cell row (the
    /// element holding action 0).
    #[inline]
    fn base(&self, vault: usize, plane: usize, value: u64) -> usize {
        let idx = plane_slot(value, plane, self.index_bits);
        vault * self.vault_stride + plane * self.plane_stride + idx * self.actions
    }

    #[inline]
    fn cell(&self, vault: usize, plane: usize, value: u64, action: usize) -> i16 {
        self.table[self.base(vault, plane, value) + action]
    }

    /// Hashes a state — one feature value per vault, in vault order — into
    /// its `(vault, plane)` row bases: the form every lookup takes, and
    /// the store's entire per-state hashing work. Bases depend only on
    /// the values and the table geometry, so they stay valid for the
    /// store's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not yield exactly one value per vault, or
    /// `bases` is not [`cells`](QvStore::cells) long.
    #[inline]
    pub fn hash(&self, values: impl IntoIterator<Item = u64>, bases: &mut [u32]) {
        assert_eq!(bases.len(), self.cells(), "bases geometry mismatch");
        let mut values = values.into_iter();
        let mut vault = 0;
        for (row, value) in bases.chunks_exact_mut(self.planes).zip(values.by_ref()) {
            for (plane, base) in row.iter_mut().enumerate() {
                // Validated geometry keeps every table offset inside a u32.
                *base = self.base(vault, plane, value) as u32;
            }
            vault += 1;
        }
        assert!(
            vault == self.vaults && values.next().is_none(),
            "state dimension mismatch"
        );
    }

    /// Issues a software prefetch for every plane row of a hashed state,
    /// so the agent can overlap the table loads of the
    /// upcoming argmax with independent work (EQ probing). A handful of
    /// prefetch instructions, cheap enough to issue unconditionally —
    /// even the paper's 24 KiB table spills to L2 under a working set,
    /// and hiding that latency is worth more than the hint costs. No
    /// architectural effect; no-op off x86_64.
    #[inline]
    pub fn prefetch_rows(&self, bases: &[u32]) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            for &base in bases {
                let row = self.table.as_ptr().wrapping_add(base as usize);
                // SAFETY: prefetch has no architectural effect regardless
                // of the address, and `wrapping_add` forms it without
                // requiring it to be in bounds.
                unsafe { _mm_prefetch(row as *const i8, _MM_HINT_T0) }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = bases;
    }

    /// Prefetches the single Q-cell `base + action` of every plane row —
    /// the exact cells a SARSA update on these bases will read or write.
    /// The agent issues this one demand ahead of the eviction that
    /// consumes them, hiding the update's cache misses behind a full step
    /// of independent work.
    #[inline]
    pub fn prefetch_cells(&self, bases: &[u32], action: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            for &base in bases {
                let cell = self.table.as_ptr().wrapping_add(base as usize + action);
                // SAFETY: as in `prefetch_rows`.
                unsafe { _mm_prefetch(cell as *const i8, _MM_HINT_T0) }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (bases, action);
    }

    /// Combined scores of the `L` actions from `first` on: each vault's
    /// plane partials summed into `i32` lanes, vaults combined by lane max
    /// (or by add for Mean, which orders like the mean). The one
    /// definition of the combined Q-value: the argmax scores 16 actions
    /// per call, [`q`](QvStore::q) and the SARSA TD error one. Lanes
    /// cannot overflow: `PythiaConfig::validate` keeps `vaults * planes`
    /// below 2^12, so a lane sums fewer than 2^12 `i16` partials.
    #[inline(always)]
    fn scores<const L: usize>(&self, bases: &[u32], first: usize) -> [i32; L] {
        let mut comb = [match self.combine {
            VaultCombine::Max => i32::MIN,
            VaultCombine::Mean => 0,
        }; L];
        for vault in bases.chunks_exact(self.planes) {
            let mut sum = [0i32; L];
            for &base in vault {
                let at = base as usize + first;
                let row: &[i16; L] = self.table[at..at + L].try_into().expect("L cells");
                for (s, &cell) in sum.iter_mut().zip(row) {
                    *s += i32::from(cell);
                }
            }
            match self.combine {
                VaultCombine::Max => comb.iter_mut().zip(sum).for_each(|(c, s)| *c = (*c).max(s)),
                VaultCombine::Mean => comb.iter_mut().zip(sum).for_each(|(c, s)| *c += s),
            }
        }
        comb
    }

    /// Combined state-action Q-value of a hashed state, in
    /// 64-bit fixed-point with [`Q_FRAC_BITS`]` + extra_frac` fraction
    /// bits. Integer plane sums are exact; only the Mean combine rounds
    /// (to nearest, in the widened precision).
    #[inline]
    fn q_fp(&self, bases: &[u32], action: usize, extra_frac: u32) -> i64 {
        assert_eq!(bases.len(), self.cells(), "bases geometry mismatch");
        let [score] = self.scores::<1>(bases, action);
        let score = i64::from(score) << extra_frac;
        match self.combine {
            VaultCombine::Max => score,
            VaultCombine::Mean => div_round(score, self.vaults as i64),
        }
    }

    /// Feature-action Q-value: the sum of plane partials (Fig. 5(b)).
    /// Exact: every Q8.7 plane sum is representable in `f32`.
    pub fn feature_q(&self, vault: usize, value: u64, action: usize) -> f32 {
        let sum: i32 = (0..self.planes)
            .map(|p| self.cell(vault, p, value, action) as i32)
            .sum();
        sum as f32 / Q_ONE as f32
    }

    /// State-action Q-value of a hashed state: max over vaults (Eqn. 3),
    /// or the mean when the configuration selects the averaging ablation.
    /// A float window onto the fixed-point state (exact for Max; Mean
    /// rounds once).
    ///
    /// # Panics
    ///
    /// Panics if `bases` is not [`cells`](QvStore::cells) long.
    pub fn q(&self, bases: &[u32], action: usize) -> f32 {
        self.q_fp(bases, action, 0) as f32 / Q_ONE as f32
    }

    /// The action with the maximum Q-value for a hashed state, ties broken
    /// toward the lowest index (deterministic hardware behaviour) — the
    /// agent's per-demand fast path. Pure integer and allocation-free:
    /// actions are scored 16 at a time, and for Mean combine the vault-sum
    /// total is compared instead of the mean; both order identically. On
    /// x86-64 with AVX2 (checked once at construction) the same kernel
    /// runs compiled for AVX2.
    ///
    /// # Panics
    ///
    /// Panics if `bases` is not [`cells`](QvStore::cells) long, or holds a
    /// base past this store's table (bases hashed by a larger store).
    pub fn argmax(&self, bases: &[u32]) -> usize {
        assert_eq!(bases.len(), self.cells(), "bases geometry mismatch");
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            // SAFETY: `use_avx2` is set only when the CPU reports AVX2.
            return unsafe { self.argmax_avx2(bases) };
        }
        self.argmax_kernel(bases)
    }

    /// The argmax kernel compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn argmax_avx2(&self, bases: &[u32]) -> usize {
        self.argmax_kernel(bases)
    }

    /// The argmax kernel's portable compile, for tests that hold it
    /// against the one [`argmax`](QvStore::argmax) dispatches to.
    #[cfg(test)]
    pub(crate) fn argmax_portable(&self, bases: &[u32]) -> usize {
        self.argmax_kernel(bases)
    }

    /// The first action holding the maximum score. Each lane's key packs
    /// its score above its reversed lane index, so one max finds a
    /// group's best score and, among equal scores, its lowest lane (a
    /// score sums fewer than 2^12 `i16` partials, so it shifts into an
    /// `i32` key without overflow). Lanes past the last action read pad
    /// cells and are set to `i32::MIN`, below every real key, so no tail
    /// loop is needed.
    #[inline(always)]
    fn argmax_kernel(&self, bases: &[u32]) -> usize {
        let (mut best_a, mut best_v) = (0, i32::MIN);
        for first in (0..self.actions).step_by(GROUP) {
            let mut keys = self.scores::<GROUP>(bases, first);
            for (i, k) in keys.iter_mut().enumerate() {
                *k = *k << LANE_BITS | (GROUP - 1 - i) as i32;
            }
            let live = self.actions - first;
            if live < GROUP {
                keys[live..].fill(i32::MIN);
            }
            let key = keys.iter().fold(i32::MIN, |m, &k| m.max(k));
            // Strict `>`: an earlier group keeps its equal score.
            if key >> LANE_BITS > best_v {
                best_a = first + GROUP - 1 - (key & (GROUP as i32 - 1)) as usize;
                best_v = key >> LANE_BITS;
            }
        }
        best_a
    }

    /// Applies the SARSA update (Algorithm 1, line 29):
    ///
    /// `Q(S1,A1) += α · (R + γ·Q(S2,A2) − Q(S1,A1))`
    ///
    /// The TD error is computed from the combined Q-values and distributed
    /// across all planes of all vaults, divided by the plane count, so each
    /// vault's feature-action Q-value moves by exactly `α·δ`.
    ///
    /// All arithmetic is 64-bit fixed-point with 16 extra fraction bits: α
    /// and γ are quantized to 1/2⁶⁵⁵³⁶ steps, products normalize with
    /// round-to-nearest shifts, and the final per-plane increment
    /// **saturates** at the `i16` range instead of wrapping. An `α/planes`
    /// below the quantization step (< 2⁻¹⁶) rounds to zero and learns
    /// nothing.
    ///
    /// `b1` and `b2` are the hashed states S1 and S2: S1's bases serve both
    /// the Q(S1,A1) read and the write-back.
    ///
    /// # Panics
    ///
    /// Panics if either bases slice is not [`cells`](QvStore::cells) long.
    // The argument list mirrors Algorithm 1's (S1, A1, R, S2, A2, α, γ)
    // tuple; bundling them into a struct would obscure the paper mapping.
    #[allow(clippy::too_many_arguments)]
    pub fn sarsa_update(
        &mut self,
        b1: &[u32],
        a1: usize,
        reward: f32,
        b2: &[u32],
        a2: usize,
        alpha: f32,
        gamma: f32,
    ) {
        const EXTRA: u32 = 16;
        let gamma_q = (gamma as f64 * (1u64 << EXTRA) as f64).round() as i64;
        let alpha_q = (alpha as f64 / self.planes as f64 * (1u64 << EXTRA) as f64).round() as i64;
        let reward_x = ((reward as f64 * Q_ONE as f64).round() as i64) << EXTRA;
        let q2_x = self.q_fp(b2, a2, EXTRA);
        let q1_x = self.q_fp(b1, a1, EXTRA);
        let delta_x = reward_x + round_shift(q2_x * gamma_q, EXTRA) - q1_x;
        let per_plane = round_shift(round_shift(delta_x * alpha_q, EXTRA), EXTRA);
        for &base in b1 {
            let cell = &mut self.table[base as usize + a1];
            *cell = (*cell as i64 + per_plane).clamp(i16::MIN as i64, i16::MAX as i64) as i16;
        }
        self.updates += 1;
    }

    /// Min/mean/max over every stored plane-partial Q entry, in Q-value
    /// units (raw Q8.7 entries scaled by `1/Q_ONE`).
    ///
    /// These are *per-plane partials* — a full state Q-value sums one
    /// partial per plane — but their drift over a run is exactly the
    /// learning signal the telemetry layer wants to plot, and a flat
    /// read of the table is cheap and observation-only.
    pub fn table_stats(&self) -> (f32, f32, f32) {
        let mut min = i16::MAX;
        let mut max = i16::MIN;
        let mut sum: i64 = 0;
        let cells = self.table();
        for &cell in cells {
            min = min.min(cell);
            max = max.max(cell);
            sum += cell as i64;
        }
        if cells.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let scale = 1.0 / Q_ONE as f32;
        let mean = sum as f64 / cells.len() as f64;
        (
            min as f32 * scale,
            (mean / Q_ONE as f64) as f32,
            max as f32 * scale,
        )
    }

    /// Total Q-value storage in bits ([`QV_ENTRY_BITS`]-bit fixed-point
    /// entries per Table 4).
    pub fn storage_bits(&self) -> u64 {
        let entries = 1u64 << self.index_bits;
        self.vaults as u64 * self.planes as u64 * entries * self.actions as u64 * QV_ENTRY_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PythiaConfig;

    fn store() -> QvStore {
        QvStore::new(&PythiaConfig::basic())
    }

    /// Float Q-values of every action of a state, built from its
    /// per-vault feature Q-values and combined as the store combines them
    /// (Mean as the vault sum, which orders like the mean): an oracle
    /// that shares no code with the argmax's lanes. Exact in `f32`.
    fn q_row(s: &QvStore, state: &[u64]) -> Vec<f32> {
        (0..s.actions)
            .map(|a| {
                let vaults = state.iter().enumerate().map(|(v, &x)| s.feature_q(v, x, a));
                match s.combine {
                    VaultCombine::Max => vaults.fold(f32::MIN, f32::max),
                    VaultCombine::Mean => vaults.sum(),
                }
            })
            .collect()
    }

    #[test]
    fn initialized_to_optimistic_q() {
        let s = store();
        let cfg = PythiaConfig::basic();
        let q = s.q(&s.hashed(&[123, 456]), 0);
        // Exactly the quantized init, within one plane-LSB-sum of the ideal.
        assert_eq!(q, cfg.q_init_quantized());
        assert!(
            (q - cfg.q_init()).abs() < cfg.planes as f32 / Q_ONE as f32,
            "q={q}, expect ~{}",
            cfg.q_init()
        );
    }

    #[test]
    fn table4_storage_is_24_kb() {
        let s = store();
        // 2 vaults x 3 planes x 128 entries x 16 actions x 16 bits = 24 KB.
        assert_eq!(s.storage_bits(), 2 * 3 * 128 * 16 * QV_ENTRY_BITS);
        assert_eq!(s.storage_bits() / 8 / 1024, 24);
    }

    #[test]
    fn sarsa_update_moves_toward_target() {
        let mut s = store();
        let s1 = s.hashed(&[10, 20]);
        let s2 = s.hashed(&[11, 21]);
        let cfg = PythiaConfig::basic();
        let q_before = s.q(&s1, 2);
        // Strong negative reward repeatedly applied must lower Q(S1, 2).
        for _ in 0..1000 {
            s.sarsa_update(&s1, 2, -14.0, &s2, 2, 0.1, cfg.gamma);
        }
        let q_after = s.q(&s1, 2);
        assert!(q_after < q_before, "{q_after} !< {q_before}");
        assert_eq!(s.updates(), 1000);
    }

    #[test]
    fn update_converges_to_fixed_point() {
        // With S2 = S1 and A2 = A1, the fixed point is R/(1-γ).
        let mut s = store();
        let cfg = PythiaConfig::basic();
        let st = s.hashed(&[42, 77]);
        for _ in 0..20_000 {
            s.sarsa_update(&st, 5, 10.0, &st, 5, 0.05, cfg.gamma);
        }
        let expect = 10.0 / (1.0 - cfg.gamma);
        let got = s.q(&st, 5);
        // Fixed-point updates dead-zone once the per-plane increment
        // α·δ/planes rounds below half an LSB, which bounds the resting
        // point: |Q - R/(1-γ)| ≤ (LSB/2) / (α/planes) / (1-γ).
        let dead_zone = (0.5 / Q_ONE as f32) / (0.05 / 3.0) / (1.0 - cfg.gamma);
        assert!(
            (got - expect).abs() <= dead_zone + 0.01,
            "got {got}, expect {expect} ± {dead_zone}"
        );
    }

    #[test]
    fn argmax_prefers_reinforced_over_punished() {
        let mut s = store();
        let cfg = PythiaConfig::basic();
        let st = s.hashed(&[5, 6]);
        // Punish every action except 7, which keeps earning the maximum
        // reward (so it stays at the optimistic init's fixpoint).
        for _ in 0..500 {
            for a in 0..cfg.actions.len() {
                let r = if a == 7 { 20.0 } else { -14.0 };
                s.sarsa_update(&st, a, r, &st, a, 0.05, cfg.gamma);
            }
        }
        assert_eq!(s.argmax(&st), 7);
        assert!(s.q(&st, 7) > s.q(&st, 3) + 10.0);
    }

    #[test]
    fn tile_coding_generalizes_nearby_values() {
        // Values 100 and 101 share higher-plane tiles (after shifting),
        // so training value 100 must move value 101's Q a little -- but less
        // than value 100's own Q.
        let mut s = store();
        let cfg = PythiaConfig::basic();
        let v_trained = s.hashed(&[100, 0]);
        let v_near = [101u64, 0];
        let v_far = [9_999_999u64, 0];
        let q0_near = s.feature_q(0, v_near[0], 4);
        let q0_far = s.feature_q(0, v_far[0], 4);
        for _ in 0..2000 {
            s.sarsa_update(&v_trained, 4, -14.0, &v_trained, 4, 0.05, cfg.gamma);
        }
        let moved_near = (s.feature_q(0, v_near[0], 4) - q0_near).abs();
        let moved_far = (s.feature_q(0, v_far[0], 4) - q0_far).abs();
        assert!(
            moved_near > moved_far,
            "nearby values should share tiles: near {moved_near}, far {moved_far}"
        );
    }

    #[test]
    fn max_combination_over_vaults() {
        // Train only vault 0's feature value; vault 1 keeps the optimistic
        // init, so the max should remain at the optimistic value.
        let mut s = store();
        let cfg = PythiaConfig::basic();
        let st = [50u64, 60u64];
        let bases = s.hashed(&st);
        // Apply updates that lower both vaults' values... q() uses max, so
        // verify q >= each individual vault's value.
        for _ in 0..100 {
            s.sarsa_update(&bases, 1, -12.0, &bases, 1, 0.05, cfg.gamma);
        }
        let q = s.q(&bases, 1);
        let f0 = s.feature_q(0, st[0], 1);
        let f1 = s.feature_q(1, st[1], 1);
        assert_eq!(q, f0.max(f1));
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn dimension_mismatch_panics() {
        let s = store();
        let _ = s.hashed(&[1]);
    }

    /// A store of the first `n` actions of the 127-way full list, trained
    /// so its cells spread out and some pin at the i16 ceiling or floor,
    /// plus a state (returned as its bases) whose actions `low` and
    /// `n - 1` tie exactly at the top: the second sits in the last group's
    /// last live lane.
    fn trained_store(n: usize, combine: VaultCombine) -> (QvStore, Vec<u32>, usize) {
        let full_list: Vec<i32> = (-63..=63).collect();
        let mut cfg = PythiaConfig::basic();
        cfg.actions = full_list[..n].to_vec();
        cfg.vault_combine = combine;
        let mut s = QvStore::new(&cfg);
        for i in 0..6_000u64 {
            let st = [i % 97, i % 61];
            let a = (i * 7 % n as u64) as usize;
            // Every 50th update pins its cells at the i16 ceiling or
            // floor; the rest spread values out.
            let (r, alpha) = match i % 100 {
                0 => (1.0e6, 1.0),
                50 => (-1.0e6, 1.0),
                _ => ((i * 13 % 31) as f32 - 15.0, 0.2),
            };
            let (s1, s2) = (s.hashed(&st), s.hashed(&[st[0] + 1, st[1]]));
            s.sarsa_update(&s1, a, r, &s2, a, alpha, cfg.gamma);
        }
        let tied = s.hashed(&[500, 500]);
        let low = 3.min(n - 1);
        for a in [low, n - 1] {
            for _ in 0..4 {
                s.sarsa_update(&tied, a, 1.0e6, &tied, a, 1.0, 0.0);
            }
        }
        assert_eq!(s.q(&tied, low), s.q(&tied, n - 1));
        (s, tied, low)
    }

    /// Both compiles of the argmax kernel must pick the first action of
    /// the float row's maximum: with no full group of 16 actions, exactly
    /// one, a group and a tail, and the 127-way full list; under Max and
    /// Mean; with saturated cells and an exact tie at the top.
    #[test]
    fn argmax_matches_float_row_scan_on_odd_action_counts() {
        for n in [1, 7, 15, 16, 17, 127] {
            for combine in [VaultCombine::Max, VaultCombine::Mean] {
                let (s, tied, low) = trained_store(n, combine);
                let at = format!("{n} actions, {combine:?}");
                assert_eq!(s.argmax(&tied), low, "{at}: ties break low");
                assert_eq!(s.argmax_portable(&tied), low, "{at}: ties break low");
                for probe in 0..2_000u64 {
                    let st = [probe % 700, probe % 61];
                    let bases = s.hashed(&st);
                    let row = q_row(&s, &st);
                    let mut best = 0;
                    for (a, &q) in row.iter().enumerate().skip(1) {
                        if q > row[best] {
                            best = a;
                        }
                    }
                    assert_eq!(s.argmax(&bases), best, "{at}, state {st:?}: {row:?}");
                    assert_eq!(s.argmax_portable(&bases), best, "{at}, state {st:?}");
                }
            }
        }
    }

    /// On an AVX2 host [`QvStore::argmax`] runs the kernel's AVX2 compile,
    /// so nothing else runs the portable compile (the path that replaced
    /// the SWAR walk) on the paper's 16-action list or the 127-action
    /// list. Both compiles must pick the same action on every probed
    /// state, saturated cells and exact ties included.
    #[test]
    fn avx2_argmax_matches_swar_argmax() {
        if !detect_avx2() {
            return;
        }
        for n in [16, 127] {
            for combine in [VaultCombine::Max, VaultCombine::Mean] {
                let (s, tied, low) = trained_store(n, combine);
                for probe in 0..4_000u64 {
                    let st = [probe % 700, probe % 61];
                    let bases = s.hashed(&st);
                    assert_eq!(
                        s.argmax(&bases),
                        s.argmax_portable(&bases),
                        "{n} actions, {combine:?}, state {st:?}"
                    );
                }
                assert_eq!(s.argmax_portable(&tied), low, "ties break low");
                assert_eq!(s.argmax(&tied), low, "ties break low");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn argmax_panics_on_bases_from_a_larger_store() {
        let mut cfg = PythiaConfig::basic();
        cfg.plane_index_bits += 2;
        // The larger store's vault-1 rows start past the smaller table.
        let bases = QvStore::new(&cfg).hashed(&[1, 2]);
        let _ = store().argmax(&bases);
    }

    #[test]
    fn saturation_clamps_instead_of_wrapping() {
        let mut s = store();
        let st = s.hashed(&[1, 2]);
        // Hammer one action with an enormous α·δ: partials must pin at the
        // i16 ceiling, and the combined Q must stay at the clamped maximum
        // (wrapping would send it hugely negative).
        let cap = PythiaConfig::basic().planes as f32 * i16::MAX as f32 / Q_ONE as f32;
        for _ in 0..10_000 {
            s.sarsa_update(&st, 0, 1.0e6, &st, 0, 1.0, 0.0);
            let q = s.q(&st, 0);
            assert!(q > 0.0 && q <= cap, "q={q} escaped [0, {cap}]");
        }
        assert_eq!(s.q(&st, 0), cap);
        // And the mirror image for the floor.
        for _ in 0..10_000 {
            s.sarsa_update(&st, 0, -1.0e6, &st, 0, 1.0, 0.0);
        }
        let floor = PythiaConfig::basic().planes as f32 * i16::MIN as f32 / Q_ONE as f32;
        assert_eq!(s.q(&st, 0), floor);
    }

    #[test]
    fn quantize_rounds_to_nearest_and_saturates() {
        assert_eq!(quantize(0.0), 0.0);
        assert_eq!(quantize(1.0), 1.0);
        assert_eq!(quantize(0.004), 0.0078125); // rounds up to one LSB
        assert_eq!(quantize(0.003), 0.0); // rounds down to zero
        assert_eq!(quantize(-0.004), -0.0078125);
        assert_eq!(quantize(1.0e9), i16::MAX as f32 / Q_ONE as f32);
        assert_eq!(quantize(-1.0e9), i16::MIN as f32 / Q_ONE as f32);
    }
}
