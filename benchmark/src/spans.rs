//! In-memory span recording around calls into the layers, from the
//! benchmark's own code (no span lives inside the program under test).
//!
//! Coarse calls (open a source, build a system, `System::run`, one HTTP
//! request) get one [`Span`] each. The two interfaces the simulator calls
//! millions of times per repetition — [`TraceSource`] and [`Prefetcher`] —
//! are wrapped by [`TimedSource`] / [`TimedPrefetcher`], which add up busy
//! time and calls and are folded into one aggregate child span of the
//! `System::run` span per simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pythia_sim::prefetch::{
    AgentProbe, DemandAccess, FillEvent, PrefetchRequest, Prefetcher, SystemFeedback,
};
use pythia_sim::stats::PrefetcherStats;
use pythia_sim::trace::{TraceRecord, TraceSource};

use crate::stats::self_time_ns;

/// One recorded span. `busy_ns` equals `end_ns - start_ns` for a plain span;
/// an aggregate span (the hot wrappers) covers its parent's interval and
/// carries the summed duration of its `calls` calls in `busy_ns`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    /// Work items behind the calls of an aggregate span: records produced
    /// (sources) or fill notifications (prefetchers).
    pub items: u64,
    pub parent: Option<usize>,
    /// Repetition id: spans of one repetition share it.
    pub rep: u32,
    aggregate: bool,
}

/// Span recorder of one traced pass. Spans nest by call order: the parent of
/// a new span is the innermost span still open.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
            items: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
            aggregate: false,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Times one call as a span.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    /// Times one call as a span whose `items` is `count` of the call's output
    /// (bytes rendered or parsed).
    pub fn span_counting<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce() -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        self.spans[id].items = count(&out);
        out
    }

    /// Records what a hot wrapper summed up as one aggregate child of `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, totals: &HotTotals) {
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let (calls, items, busy_ns) = totals.read();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            busy_ns,
            calls,
            items,
            parent: Some(parent),
            rep: self.rep,
            aggregate: true,
        });
    }

    /// Self time of span `id`: its duration minus what its plain children
    /// cover of it, minus the busy time of its aggregate children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children = || self.spans.iter().filter(|s| s.parent == Some(id));
        let plain: Vec<(u64, u64)> = children()
            .filter(|s| !s.aggregate)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let hot: u64 = children().filter(|s| s.aggregate).map(|s| s.busy_ns).sum();
        let span = &self.spans[id];
        self_time_ns(span.start_ns, span.end_ns, &plain).saturating_sub(hot)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy seconds of every span called `name`, one entry per span.
    pub fn busy_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns as f64 / 1e9)
            .collect()
    }

    /// Items and busy seconds summed over every span called `name`.
    pub fn items_and_busy_s(&self, name: &str) -> (f64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(items, busy), s| {
                (items + s.items as f64, busy + s.busy_ns as f64 / 1e9)
            })
    }

    /// `value` of the spans called `name`, summed per repetition; one entry
    /// per repetition that has such a span.
    pub fn by_rep(&self, name: &str, value: impl Fn(&Span) -> f64) -> Vec<f64> {
        self.sum_by_rep(name, |i| value(&self.spans[i]))
    }

    /// Self seconds of the spans called `name`, summed per repetition.
    pub fn self_by_rep(&self, name: &str) -> Vec<f64> {
        self.sum_by_rep(name, |i| self.self_ns(i) as f64 / 1e9)
    }

    fn sum_by_rep(&self, name: &str, value: impl Fn(usize) -> f64) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            *sums.entry(s.rep).or_default() += value(i);
        }
        sums.into_values().collect()
    }

    /// The spans as a JSON document (`benchmark/out/trace-<workload>.json`).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"busy\":{},\"calls\":{},\"items\":{},\"parent\":{parent},\"rep\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                s.items,
                s.rep,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Busy time and work counts a hot wrapper adds up; shared between the
/// wrappers of one simulation (one per core) and the harness, which reads it
/// after the `System` — and with it the wrappers — is dropped.
#[derive(Debug, Default)]
pub struct HotTotals {
    pub calls: AtomicU64,
    /// Records produced (sources) or fill notifications (prefetchers).
    pub items: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl HotTotals {
    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.items.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

/// Local sums of one wrapper, flushed into the shared [`HotTotals`] on drop so
/// the hot path touches no shared memory.
#[derive(Default)]
struct Local {
    calls: u64,
    items: u64,
    busy_ns: u64,
}

impl Local {
    #[inline]
    fn timed<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.busy_ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn flush(&self, into: &HotTotals) {
        into.calls.fetch_add(self.calls, Ordering::Relaxed);
        into.items.fetch_add(self.items, Ordering::Relaxed);
        into.busy_ns.fetch_add(self.busy_ns, Ordering::Relaxed);
    }
}

/// A [`TraceSource`] that times every call into the wrapped source.
pub struct TimedSource<S: TraceSource + ?Sized> {
    totals: Arc<HotTotals>,
    local: Local,
    inner: Box<S>,
}

impl<S: TraceSource + ?Sized> TimedSource<S> {
    pub fn new(inner: Box<S>, totals: Arc<HotTotals>) -> Self {
        Self {
            totals,
            local: Local::default(),
            inner,
        }
    }
}

impl<S: TraceSource + ?Sized> TraceSource for TimedSource<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let inner = &mut self.inner;
        let record = self.local.timed(|| inner.next_record());
        self.local.calls += 1;
        self.local.items += u64::from(record.is_some());
        record
    }

    fn reset(&mut self) {
        let inner = &mut self.inner;
        self.local.timed(|| inner.reset());
        self.local.calls += 1;
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let inner = &mut self.inner;
        let n = self.local.timed(|| inner.next_batch(out, max));
        self.local.calls += 1;
        self.local.items += n as u64;
        n
    }
}

impl<S: TraceSource + ?Sized> Drop for TimedSource<S> {
    fn drop(&mut self) {
        self.local.flush(&self.totals);
    }
}

/// A [`Prefetcher`] that times every training and feedback call into the
/// wrapped prefetcher. `calls` counts demand calls, `items` fill calls; busy
/// time also covers the useful/useless feedback calls.
pub struct TimedPrefetcher<P: Prefetcher + ?Sized> {
    totals: Arc<HotTotals>,
    local: Local,
    inner: Box<P>,
}

impl<P: Prefetcher + ?Sized> TimedPrefetcher<P> {
    pub fn new(inner: Box<P>, totals: Arc<HotTotals>) -> Self {
        Self {
            totals,
            local: Local::default(),
            inner,
        }
    }
}

impl<P: Prefetcher + ?Sized> Prefetcher for TimedPrefetcher<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let inner = &mut self.inner;
        self.local
            .timed(|| inner.on_demand_into(access, feedback, out));
        self.local.calls += 1;
    }

    fn on_demand(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
    ) -> Vec<PrefetchRequest> {
        let inner = &mut self.inner;
        let out = self.local.timed(|| inner.on_demand(access, feedback));
        self.local.calls += 1;
        out
    }

    fn on_fill(&mut self, event: &FillEvent) {
        let inner = &mut self.inner;
        self.local.timed(|| inner.on_fill(event));
        self.local.items += 1;
    }

    fn on_useful(&mut self, line: u64) {
        let inner = &mut self.inner;
        self.local.timed(|| inner.on_useful(line));
    }

    fn on_useful_batch(&mut self, lines: &[u64]) {
        let inner = &mut self.inner;
        self.local.timed(|| inner.on_useful_batch(lines));
    }

    fn on_useless(&mut self, line: u64) {
        let inner = &mut self.inner;
        self.local.timed(|| inner.on_useless(line));
    }

    fn stats(&self) -> PrefetcherStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn telemetry_probe(&self) -> Option<AgentProbe> {
        self.inner.telemetry_probe()
    }
}

impl<P: Prefetcher + ?Sized> Drop for TimedPrefetcher<P> {
    fn drop(&mut self) {
        self.local.flush(&self.totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::trace::VecSource;

    #[test]
    fn self_time_is_the_span_minus_plain_and_aggregate_children() {
        let mut t = Tracer::new();
        let run = t.enter("run");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(run);
        let run_ns = t.spans()[run].busy_ns;
        let child_ns = t.spans()[1].busy_ns;
        assert_eq!(t.spans()[1].parent, Some(run));
        assert_eq!(t.self_ns(run), run_ns - child_ns);
        let hot = HotTotals::default();
        hot.calls.store(10, Ordering::Relaxed);
        hot.busy_ns.store(1000, Ordering::Relaxed);
        t.aggregate("hot", run, &hot);
        assert_eq!(t.self_ns(run), run_ns - child_ns - 1000);
        assert_eq!(t.by_rep("hot", |s| s.calls as f64), vec![10.0]);
        assert_eq!(
            t.self_by_rep("run"),
            vec![(run_ns - child_ns - 1000) as f64 / 1e9]
        );
    }

    #[test]
    fn timed_source_forwards_records_and_counts_them() {
        let records: Vec<TraceRecord> = (0..10).map(TraceRecord::nop).collect();
        let totals = Arc::new(HotTotals::default());
        let mut timed = TimedSource::new(VecSource::boxed(records.clone()), Arc::clone(&totals));
        assert_eq!(timed.len_hint(), Some(10));
        let mut got = Vec::new();
        assert_eq!(timed.next_batch(&mut got, 4), 4);
        while let Some(r) = timed.next_record() {
            got.push(r);
        }
        assert_eq!(got, records);
        timed.reset();
        assert_eq!(timed.next_record(), Some(records[0]));
        drop(timed);
        let (calls, items, _) = totals.read();
        // One batch, six records plus the end-of-pass `None`, a reset, one record.
        assert_eq!((calls, items), (1 + 7 + 1 + 1, 4 + 6 + 1));
    }
}
