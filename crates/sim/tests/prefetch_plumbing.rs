//! Integration tests of the simulator's prefetch plumbing: fill levels,
//! usefulness attribution, feedback delivery, and writeback traffic.

use pythia_sim::config::SystemConfig;
use pythia_sim::prefetch::{DemandAccess, FillEvent, PrefetchRequest, Prefetcher, SystemFeedback};
use pythia_sim::system::System;
use pythia_sim::trace::{TraceRecord, TraceSource, VecSource};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A scripted prefetcher: prefetches a fixed offset ahead of every demand,
/// and records what the simulator tells it where a test can read it.
struct Scripted {
    offset: i64,
    fill_l2: bool,
    /// Prefetched fills announced through `on_fill`.
    fills: Arc<AtomicU64>,
    /// Set once a demand arrives with the high-bandwidth flag up.
    feedback_high_seen: Arc<AtomicBool>,
}

impl Scripted {
    fn new(offset: i64, fill_l2: bool) -> Self {
        Self {
            offset,
            fill_l2,
            fills: Arc::default(),
            feedback_high_seen: Arc::default(),
        }
    }
}

impl Prefetcher for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if feedback.bandwidth_high {
            self.feedback_high_seen.store(true, Ordering::Relaxed);
        }
        let target = access.line as i64 + self.offset;
        if target < 0 {
            return;
        }
        out.push(PrefetchRequest {
            line: target as u64,
            fill_l2: self.fill_l2,
        });
    }

    fn on_fill(&mut self, event: &FillEvent) {
        if event.prefetched {
            self.fills.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn stream(n: u64) -> Box<dyn TraceSource> {
    VecSource::boxed(
        (0..n)
            .map(|i| TraceRecord::load(0x400000, 0x1000_0000 + i * 64))
            .collect(),
    )
}

#[test]
fn l2_fills_register_as_useful_on_stream() {
    // +8 prefetches on a unit stream: most get demanded -> useful.
    let mut sys =
        System::with_prefetchers(SystemConfig::single_core(), vec![stream(30_000)], |_| {
            Box::new(Scripted::new(8, true))
        });
    let report = sys.run(2_000, 20_000);
    let p = report.prefetchers[0];
    assert!(p.issued > 0);
    assert!(
        report.l2[0].useful_prefetches * 10 >= report.l2[0].prefetch_fills * 8,
        "most +8 prefetches on a stream are useful: {:?}",
        report.l2[0]
    );
    // And the demand-side misses mostly vanish at the LLC.
    assert!(report.llc.demand_load_misses < 25_000 / 8);
}

#[test]
fn llc_only_fills_still_cover_llc_misses() {
    let run = |fill_l2: bool| {
        let mut sys = System::with_prefetchers(
            SystemConfig::single_core(),
            vec![stream(30_000)],
            move |_| Box::new(Scripted::new(8, fill_l2)),
        );
        sys.run(2_000, 20_000)
    };
    let to_l2 = run(true);
    let to_llc = run(false);
    // LLC-only prefetches reduce LLC misses but leave L2 misses higher.
    assert!(to_llc.llc.demand_load_misses < 1_000);
    assert!(
        to_llc.l2[0].demand_load_misses > to_l2.l2[0].demand_load_misses,
        "LLC-only fills must not populate the L2: {} vs {}",
        to_llc.l2[0].demand_load_misses,
        to_l2.l2[0].demand_load_misses
    );
}

#[test]
fn backward_prefetches_on_forward_stream_are_useless() {
    // Prefetch far beyond the stream's end: never demanded, never cached,
    // so every request reaches DRAM and eventually evicts unused.
    let mut sys =
        System::with_prefetchers(SystemConfig::single_core(), vec![stream(40_000)], |_| {
            Box::new(Scripted::new(1_000_000, true))
        });
    let report = sys.run(2_000, 30_000);
    assert!(report.l2[0].useless_prefetches + report.llc.useless_prefetches > 0);
    assert!(report.dram.prefetch_reads > 0);
    assert_eq!(report.l2[0].useful_prefetches, 0);
}

#[test]
fn bandwidth_high_feedback_reaches_prefetcher_under_saturation() {
    let mut cfg = SystemConfig::single_core_with_mtps(150);
    cfg.bandwidth_window_cycles = 2_048;
    let fills = Arc::new(AtomicU64::new(0));
    let high = Arc::new(AtomicBool::new(false));
    let mut sys = System::with_prefetchers(cfg, vec![stream(40_000)], |_| {
        Box::new(Scripted {
            fills: fills.clone(),
            feedback_high_seen: high.clone(),
            ..Scripted::new(4, true)
        })
    });
    let report = sys.run(2_000, 30_000);
    let buckets = report.dram.bw_bucket_windows;
    assert!(
        buckets[2] + buckets[3] > 0,
        "150 MTPS stream should reach >=50% utilization windows: {buckets:?}"
    );
    assert!(
        high.load(Ordering::Relaxed),
        "the prefetcher never saw the high-bandwidth flag"
    );
    assert!(
        fills.load(Ordering::Relaxed) > 0,
        "no prefetched fill was announced"
    );
}

#[test]
fn stores_generate_writeback_traffic() {
    // A store stream larger than the LLC (2 MB = 32 K lines) must push
    // dirty evictions out to DRAM.
    let trace: Vec<TraceRecord> = (0..80_000u64)
        .map(|i| TraceRecord::store(0x400000, 0x2000_0000 + i * 64))
        .collect();
    let mut sys = System::new(SystemConfig::single_core(), vec![VecSource::boxed(trace)]);
    let report = sys.run(2_000, 70_000);
    assert!(
        report.dram.writes > 0,
        "dirty evictions must reach DRAM: {:?}",
        report.dram
    );
    assert!(report.llc.dirty_evictions > 0);
}

#[test]
fn redundant_prefetches_are_dropped_not_fetched() {
    // Offset 0... scripted with +1 on a stream that itself demands every
    // line: after warmup, prefetching the line right before its demand
    // makes most requests redundant-or-useful, never doubling DRAM reads.
    let mut sys =
        System::with_prefetchers(SystemConfig::single_core(), vec![stream(30_000)], |_| {
            Box::new(Scripted::new(1, true))
        });
    let report = sys.run(2_000, 20_000);
    let total_lines = report.llc.demand_load_misses + report.dram.prefetch_reads;
    // Every line is fetched at most once (plus small races): reads must not
    // exceed the distinct-line count materially.
    let distinct = 20_000 + 2; // one new line per instruction in the stream
    assert!(
        total_lines <= distinct + distinct / 10,
        "duplicate fetches detected: {total_lines} reads for {distinct} lines"
    );
}

#[test]
fn per_core_prefetchers_are_independent_instances() {
    let cfg = SystemConfig::with_cores(2);
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let mut sys = System::with_prefetchers(cfg, vec![stream(10_000), stream(10_000)], |_core| {
        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Box::new(Scripted::new(2, true))
    });
    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 2);
    let report = sys.run(1_000, 5_000);
    assert_eq!(report.prefetchers.len(), 2);
    assert!(report.prefetchers.iter().all(|p| p.issued > 0));
}

#[test]
fn twelve_core_system_with_non_power_of_two_llc_runs() {
    // 12 cores -> 24 MB LLC -> 24576 sets (not a power of two).
    let cfg = SystemConfig::with_cores(12);
    let sources = (0..12)
        .map(|i| {
            VecSource::boxed(
                (0..2_000u64)
                    .map(|j| TraceRecord::load(0x400000, (i as u64 + 1) * 0x1000_0000 + j * 64))
                    .collect(),
            )
        })
        .collect();
    let mut sys = System::new(cfg, sources);
    let report = sys.run(200, 1_000);
    assert_eq!(report.cores.len(), 12);
    assert!(report.cores.iter().all(|c| c.ipc() > 0.0));
}
