//! Counters, gauges, log2-bucketed histograms, and the [`Registry`] that
//! groups them for exposition.
//!
//! All instruments are lock-free (`Relaxed` atomics — these are
//! monotonic statistics, not synchronization), cheap enough for hot
//! paths, and handed out as `Arc`s by the registry so call sites keep a
//! direct handle instead of doing name lookups per observation.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of finite histogram buckets: upper bounds `2^0 ..= 2^39`
/// (1 ns to ~18 min when recording nanoseconds), plus one overflow
/// bucket above them.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is below it: how a collect step
    /// mirrors a monotonic count that is owned elsewhere. Concurrent
    /// mirrors cannot move the counter backwards.
    pub fn advance_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram over `u64` samples with fixed boundaries.
///
/// Bucket `i` (for `i < HISTOGRAM_BUCKETS`) counts samples `v` with
/// `v <= 2^i`; one overflow bucket catches the rest. Fixed power-of-two
/// boundaries mean merging two histograms is exact (bucket-wise adds)
/// and a percentile estimate is always within one bucket — at most 2× —
/// of the true order statistic.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Estimated 50th percentile (upper bucket bound).
    pub p50: u64,
    /// Estimated 95th percentile (upper bucket bound).
    pub p95: u64,
    /// Estimated 99th percentile (upper bucket bound).
    pub p99: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index a sample lands in: the smallest `i` with
    /// `v <= 2^i`, clamped to the overflow bucket.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            return 0;
        }
        // ceil(log2(v)) for v >= 2.
        let idx = 64 - (v - 1).leading_zeros() as usize;
        idx.min(HISTOGRAM_BUCKETS)
    }

    /// The inclusive upper bound of finite bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples: the sum of the buckets. There is no
    /// separate count cell, so a count can never disagree with the
    /// bucket read it came from.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (not cumulative), overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Folds another histogram into this one (exact: boundaries are
    /// fixed and shared).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Estimated `p`-th percentile (`0.0 < p <= 1.0`): the upper bound
    /// of the first bucket whose cumulative count reaches `ceil(p * n)`,
    /// clamped to the observed maximum. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_of(&self.bucket_counts(), self.max(), p)
    }

    /// The p50/p95/p99 summary. Count and percentiles come from one
    /// bucket read, so they agree even while other threads record.
    pub fn summary(&self) -> HistogramSummary {
        let counts = self.bucket_counts();
        let max = self.max();
        HistogramSummary {
            count: counts.iter().sum(),
            sum: self.sum(),
            p50: percentile_of(&counts, max, 0.50),
            p95: percentile_of(&counts, max, 0.95),
            p99: percentile_of(&counts, max, 0.99),
            max,
        }
    }
}

/// [`Histogram::percentile`] over one read of the buckets and the maximum.
fn percentile_of(counts: &[u64], max: u64, p: f64) -> u64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            if i == HISTOGRAM_BUCKETS {
                return max;
            }
            return Histogram::bucket_bound(i).min(max);
        }
    }
    max
}

/// What kind of instrument a registered family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Log2 histogram.
    Histogram,
}

/// One registered instrument plus its label set.
#[derive(Debug, Clone)]
pub enum Instrument {
    /// A counter sample.
    Counter(Arc<Counter>),
    /// A gauge sample.
    Gauge(Arc<Gauge>),
    /// A histogram sample.
    Histogram(Arc<Histogram>),
}

/// A labeled sample inside a family.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label pairs, in registration order (may be empty).
    pub labels: Vec<(String, String)>,
    /// The live instrument.
    pub instrument: Instrument,
}

/// A metric family: one name/help/kind plus its labeled samples.
#[derive(Debug, Clone)]
pub struct Family {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// One-line help string.
    pub help: String,
    /// Instrument kind shared by every sample of the family.
    pub kind: Kind,
    /// The labeled samples.
    pub samples: Vec<Sample>,
}

/// An explicit, thread-safe collection of instruments.
///
/// There are no global registries: whoever owns one threads it (or the
/// `Arc` handles it returns) through call sites. Registering the same
/// `(name, labels)` twice returns the existing instrument, so handles
/// can be re-derived anywhere the registry is visible.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn labels_of(labels: &[(&str, &str)]) -> Vec<(String, String)> {
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn register<T, F, G>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: F,
        as_arc: G,
    ) -> Arc<T>
    where
        F: FnOnce() -> (Arc<T>, Instrument),
        G: Fn(&Instrument) -> Option<Arc<T>>,
    {
        let labels = Self::labels_of(labels);
        let mut families = self.families.lock().expect("registry poisoned");
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert!(
                family.kind == kind,
                "metric {name:?} registered with two kinds"
            );
            if let Some(sample) = family.samples.iter().find(|s| s.labels == labels) {
                return as_arc(&sample.instrument)
                    .expect("family kind matches, so the instrument must");
            }
            let (handle, instrument) = make();
            family.samples.push(Sample { labels, instrument });
            return handle;
        }
        let (handle, instrument) = make();
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: vec![Sample { labels, instrument }],
        });
        handle
    }

    /// Registers (or re-fetches) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or re-fetches) a labeled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            Kind::Counter,
            labels,
            || {
                let c = Arc::new(Counter::new());
                (c.clone(), Instrument::Counter(c))
            },
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or re-fetches) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or re-fetches) a labeled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            Kind::Gauge,
            labels,
            || {
                let g = Arc::new(Gauge::new());
                (g.clone(), Instrument::Gauge(g))
            },
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or re-fetches) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or re-fetches) a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            Kind::Histogram,
            labels,
            || {
                let h = Arc::new(Histogram::new());
                (h.clone(), Instrument::Histogram(h))
            },
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// A point-in-time clone of every family (for rendering).
    pub fn snapshot(&self) -> Vec<Family> {
        self.families.lock().expect("registry poisoned").clone()
    }

    /// A point-in-time clone of one family, by name.
    pub fn family(&self, name: &str) -> Option<Family> {
        let families = self.families.lock().expect("registry poisoned");
        families.iter().find(|f| f.name == name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference percentile a log2 histogram approximates: the
    /// `ceil(p*n)`-th smallest sample of the sorted vector.
    fn reference_percentile(sorted: &[u64], p: f64) -> u64 {
        assert!(!sorted.is_empty());
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // Each boundary value lands in its own bucket; one past it lands
        // in the next.
        for i in 0..HISTOGRAM_BUCKETS {
            let bound = Histogram::bucket_bound(i);
            assert_eq!(Histogram::bucket_index(bound), i, "value {bound}");
            assert_eq!(
                Histogram::bucket_index(bound + 1),
                i + 1,
                "value {}",
                bound + 1
            );
        }
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn percentiles_track_sorted_vec_reference_within_one_bucket() {
        // A deterministic LCG spread over several decades of magnitude.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut samples = Vec::new();
        let h = Histogram::new();
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 40) % (1 << (1 + (i % 24))) + 1;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for p in [0.50, 0.90, 0.95, 0.99, 1.0] {
            let truth = reference_percentile(&samples, p);
            let est = h.percentile(p);
            assert!(
                est >= truth && est <= truth.saturating_mul(2),
                "p{p}: estimate {est} not within one log2 bucket of true {truth}"
            );
        }
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.99), 0, "empty histogram");
        h.record(7);
        assert_eq!(h.percentile(0.5), 7, "single sample clamps to max");
        assert_eq!(h.summary().max, 7);
        assert_eq!(h.summary().count, 1);
        assert_eq!(h.summary().sum, 7);
    }

    #[test]
    fn merge_is_bucketwise_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [1u64, 3, 9, 100, 5000] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 70, 900, 1 << 20] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), all.bucket_counts());
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.max(), all.max());
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn registry_dedups_instruments_by_name_and_labels() {
        let r = Registry::new();
        let c1 = r.counter_with("hits", "hits", &[("route", "a")]);
        let c2 = r.counter_with("hits", "hits", &[("route", "a")]);
        let c3 = r.counter_with("hits", "hits", &[("route", "b")]);
        c1.inc();
        assert_eq!(c2.get(), 1, "same (name, labels) shares the instrument");
        assert_eq!(c3.get(), 0, "different labels are a different sample");
        let families = r.snapshot();
        assert_eq!(families.len(), 1);
        assert_eq!(families[0].samples.len(), 2);
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn registry_rejects_kind_conflicts() {
        let r = Registry::new();
        let _ = r.counter("x", "x");
        let _ = r.gauge("x", "x");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }
}
