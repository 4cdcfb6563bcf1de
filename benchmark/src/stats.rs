//! The arithmetic every reported number rests on: order statistics, the
//! percentile-reporting rule, seed derivation and span self-time.
//!
//! The benchmark owns these (instead of borrowing `pythia_workloads::derive_seed`
//! or `pythia_sweep::codec::fnv1a_64`) so its inputs and digests cannot move
//! when the program under test changes.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and sample count of a host-time sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty sample: every workload runs at least one repetition.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    /// Interquartile range as a share of the median: the run's own noise figure.
    pub fn iqr_over_median(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The tail percentiles a latency sample may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The value at percentile `p` of an ascending sample, or `None` when fewer
/// than ten samples lie beyond it (the tail is then too thin to report).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    // In whole per-mille, so that 100 samples have exactly ten beyond p90.
    let beyond = n * (1000.0 - p * 10.0).round() as usize / 1000;
    (beyond >= 10).then(|| sorted[n - 1 - beyond])
}

pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// The highest tail percentile with at least ten samples beyond it, and its
/// value; `None` when even p90 has fewer (n < 100).
pub fn highest_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_PERCENTILES
        .iter()
        .find_map(|&p| percentile_sorted(&sorted, p).map(|v| (p, v)))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64-bit digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Derives the seed of one input (`item`: a trace, a prefetcher, a request
/// body) of one workload from the run's `--seed`. The separator byte keeps
/// `("ab", "c")` and `("a", "bc")` apart.
pub fn derive_seed(seed: u64, workload: &str, item: &str) -> u64 {
    let h = fnv1a_from(
        FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME),
        workload.as_bytes(),
    );
    fnv1a_from(fnv1a_from(h, &[0xff]), item.as_bytes())
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover. Children may overlap each other and may stick out of
/// the parent; only the covered part of `[start, end)` is subtracted.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_interpolates_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert!((s.iqr_over_median() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: fewer than ten beyond p90.
        assert_eq!(highest_percentile(&ramp(99)), None);
        // 100 samples: exactly ten beyond p90 (91..=100), the value is 90.
        assert_eq!(highest_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(highest_percentile(&ramp(999)), Some((95.0, 950.0)));
        assert_eq!(highest_percentile(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(highest_percentile(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(1, "sim1c_pythia_gen", "trace:470.lbm-164B");
        assert_eq!(a, derive_seed(1, "sim1c_pythia_gen", "trace:470.lbm-164B"));
        assert_ne!(a, derive_seed(2, "sim1c_pythia_gen", "trace:470.lbm-164B"));
        assert_ne!(
            a,
            derive_seed(1, "sim4c_pythia_lowbw", "trace:470.lbm-164B")
        );
        assert_ne!(a, derive_seed(1, "sim1c_pythia_gen", "pf:470.lbm-164B"));
        assert_ne!(derive_seed(1, "ab", "c"), derive_seed(1, "a", "bc"));
    }

    #[test]
    fn self_time_subtracts_the_covered_part_once() {
        assert_eq!(self_time_ns(100, 200, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(100, 200, &[(110, 120), (150, 180)]), 60);
        // Overlapping children are counted once; order does not matter.
        assert_eq!(self_time_ns(100, 200, &[(150, 180), (110, 160)]), 30);
        // A child sticking out of the parent is clipped; one outside is ignored.
        assert_eq!(
            self_time_ns(100, 200, &[(50, 110), (190, 250), (300, 400)]),
            80
        );
        // A nested child adds nothing beyond its sibling.
        assert_eq!(self_time_ns(100, 200, &[(100, 200), (120, 130)]), 0);
    }
}
