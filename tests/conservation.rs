//! The simulator's share of the conservation laws (ROADMAP "Simulator
//! audit"): what the cache levels, the prefetch outcomes and the DRAM
//! counters must add up to, whatever the prefetcher and the trace.
//!
//! Every registry prefetcher runs every workload of the three trace-gen
//! profiles at three derived seeds, from cold caches with no warm-up (the
//! counters then cover the whole life of every line), on a hierarchy
//! shrunk until each level evicts and each register file fills within a
//! few thousand instructions.
//!
//! The simulator keeps each prefetcher's books; a [`Tally`] around the
//! prefetcher counts the same events from the prefetcher's side.

use pythia::runner::RunSpec;
use pythia_prefetchers::registry;
use pythia_sim::config::SystemConfig;
use pythia_sim::prefetch::{DemandAccess, FillEvent, PrefetchRequest, Prefetcher, SystemFeedback};
use pythia_sim::stats::{CacheStats, PrefetcherStats};
use pythia_sim::system::System;
use pythia_sim::trace::TraceSource;
use pythia_workloads::profiles::{derive_seed, Profile};
use std::cell::Cell;
use std::rc::Rc;

const MEASURE: u64 = 6_000;

fn small_hierarchy(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::with_cores(cores);
    (cfg.l1d.size_bytes, cfg.l1d.mshrs) = (2 * 1024, 4);
    (cfg.l2.size_bytes, cfg.l2.mshrs) = (8 * 1024, 8);
    (cfg.llc.size_bytes, cfg.llc.mshrs) = (32 * 1024, 16);
    cfg
}

/// Wraps a registry prefetcher and tallies what it pushes and is told,
/// where the test can read it after the run.
struct Tally {
    inner: Box<dyn Prefetcher>,
    books: Rc<Cell<PrefetcherStats>>,
}

impl Tally {
    fn count(&self, book: impl FnOnce(&mut PrefetcherStats)) {
        let mut books = self.books.get();
        book(&mut books);
        self.books.set(books);
    }
}

impl Prefetcher for Tally {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let start = out.len();
        self.inner.on_demand_into(access, feedback, out);
        self.count(|b| b.issued += (out.len() - start) as u64);
    }
    fn on_fill(&mut self, event: &FillEvent) {
        self.inner.on_fill(event);
    }
    fn on_useful(&mut self, line: u64) {
        self.count(|b| b.useful += 1);
        self.inner.on_useful(line);
    }
    fn on_useless(&mut self, line: u64) {
        self.count(|b| b.useless += 1);
        self.inner.on_useless(line);
    }
}

/// A system of `sources.len()` cores, each running `prefetcher` inside a
/// [`Tally`], and the tallies.
fn tallied(
    cfg: SystemConfig,
    sources: Vec<Box<dyn TraceSource>>,
    prefetcher: &str,
) -> (System, Vec<Rc<Cell<PrefetcherStats>>>) {
    let books: Vec<_> = sources.iter().map(|_| Rc::default()).collect();
    let system = System::with_prefetchers(cfg, sources, |core| {
        Box::new(Tally {
            inner: registry::build(prefetcher, core as u64).expect("registry name"),
            books: Rc::clone(&books[core]),
        })
    });
    (system, books)
}

#[test]
fn levels_prefetch_outcomes_and_dram_traffic_are_conserved() {
    let spec = RunSpec::single_core()
        .with_system(small_hierarchy(1))
        .with_budget(0, MEASURE);
    // Summed over all runs, so no relation holds because nothing happened.
    let mut walked = [CacheStats::default(); 3];
    for label in ["conservation-a", "conservation-b", "conservation-c"] {
        let seed = derive_seed(0x5079_7468, label);
        for w in Profile::all().iter().flat_map(|p| p.workloads(seed)) {
            for prefetcher in registry::available() {
                let at = format!("{} under {prefetcher}, seed {label}", w.name);
                let source = w.source(spec.trace_len());
                let (mut system, books) = tallied(spec.system, vec![source], prefetcher);
                let report = system.run(spec.warmup, spec.measure);
                // No warm-up: the tally covers the measured run.
                assert_eq!(
                    report.prefetchers[0],
                    books[0].get(),
                    "{at}: the books are what the prefetcher pushed and was told"
                );
                let stats = [report.l1d[0], report.l2[0], report.llc];
                for ((name, c), cache) in
                    ["L1D", "L2", "LLC"].iter().zip(stats).zip(system.levels())
                {
                    assert_eq!(
                        c,
                        *cache.stats(),
                        "{at}: {name} report is the level's stats"
                    );
                    assert_eq!(
                        c.demand_load_hits + c.demand_load_misses,
                        c.demand_loads,
                        "{at}: {name} loads"
                    );
                    assert_eq!(
                        c.demand_store_hits + c.demand_store_misses,
                        c.demand_stores,
                        "{at}: {name} stores"
                    );
                    assert_eq!(
                        c.prefetch_fills,
                        c.useful_prefetches
                            + c.useless_prefetches
                            + cache.resident_unused_prefetches() as u64,
                        "{at}: {name} prefetch fills end useful, useless or resident"
                    );
                    assert!(c.late_prefetch_hits <= c.useful_prefetches, "{at}: {name}");
                    assert!(c.dirty_evictions <= c.evictions, "{at}: {name}");
                    assert!(c.mshr_stalls <= c.mshr_stall_cycles, "{at}: {name}");
                    assert!(
                        cache.mshr().occupancy(0) <= cache.mshr().capacity(),
                        "{at}: {name} holds more misses than registers"
                    );
                }
                let (llc, dram) = (&report.llc, &report.dram);
                assert_eq!(dram.demand_reads, llc.demand_misses(), "{at}: demand reads");
                assert_eq!(
                    dram.prefetch_reads, llc.prefetch_fills,
                    "{at}: prefetch reads"
                );
                assert_eq!(dram.writes, llc.dirty_evictions, "{at}: writes");
                assert_eq!(report.cores[0].instructions, MEASURE, "{at}: budget");
                for (sum, c) in walked.iter_mut().zip(stats) {
                    sum.evictions += c.evictions;
                    sum.dirty_evictions += c.dirty_evictions;
                    sum.mshr_stalls += c.mshr_stalls;
                    sum.useful_prefetches += c.useful_prefetches;
                    sum.useless_prefetches += c.useless_prefetches;
                }
            }
        }
    }
    for (name, c) in ["L1D", "L2", "LLC"].iter().zip(walked) {
        assert!(
            c.dirty_evictions > 0,
            "{name} never evicted a dirty line: {c:?}"
        );
        assert!(
            c.mshr_stalls > 0,
            "{name} never waited for a register: {c:?}"
        );
    }
    for (name, c) in ["L2", "LLC"].iter().zip(&walked[1..]) {
        assert!(c.useful_prefetches > 0, "{name}: no useful prefetch: {c:?}");
        assert!(
            c.useless_prefetches > 0,
            "{name}: no useless prefetch: {c:?}"
        );
    }
}

/// Every core is told of every unused prefetch the shared LLC evicts, its
/// own or not (the defect that
/// `an_unused_llc_prefetch_is_charged_to_the_core_that_issued_it`
/// documents), and the books count what it was told.
#[test]
fn four_core_books_count_every_cores_llc_victims() {
    let seed = derive_seed(0x5079_7468, "conservation-4c");
    let sources = Profile::all()
        .iter()
        .flat_map(|p| p.workloads(seed))
        .take(4)
        .map(|w| w.source(MEASURE as usize))
        .collect();
    // POWER7 throttles on the useless notices it hears.
    let (mut system, books) = tallied(small_hierarchy(4), sources, "power7");
    let report = system.run(0, MEASURE);
    let llc_useless = report.llc.useless_prefetches;
    assert!(llc_useless > 0, "the LLC evicted no unused prefetch");
    for (core, (pf, l2)) in report.prefetchers.iter().zip(&report.l2).enumerate() {
        assert_eq!(*pf, books[core].get(), "core {core}: books against tally");
        // Each LLC victim, plus this core's own L2 victims at most.
        assert!(
            (llc_useless..=llc_useless + l2.useless_prefetches).contains(&pf.useless),
            "core {core}: told of {} useless prefetches, the LLC evicted {llc_useless}",
            pf.useless
        );
    }
}
