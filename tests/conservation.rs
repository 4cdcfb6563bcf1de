//! ROADMAP item 2, the simulator's share of the conservation laws: what
//! the cache levels, the prefetch outcomes and the DRAM counters must add
//! up to, whatever the prefetcher and the trace.
//!
//! Every registry prefetcher runs every workload of the three trace-gen
//! profiles at three derived seeds, from cold caches with no warm-up (the
//! counters then cover the whole life of every line), on a hierarchy
//! shrunk until each level evicts and each register file fills within a
//! few thousand instructions.

use pythia::runner::{build_system, RunSpec};
use pythia_prefetchers::registry;
use pythia_sim::config::SystemConfig;
use pythia_sim::stats::CacheStats;
use pythia_workloads::profiles::{derive_seed, Profile};

const MEASURE: u64 = 6_000;

fn small_hierarchy() -> SystemConfig {
    let mut cfg = SystemConfig::single_core();
    (cfg.l1d.size_bytes, cfg.l1d.mshrs) = (2 * 1024, 4);
    (cfg.l2.size_bytes, cfg.l2.mshrs) = (8 * 1024, 8);
    (cfg.llc.size_bytes, cfg.llc.mshrs) = (32 * 1024, 16);
    cfg
}

#[test]
fn levels_prefetch_outcomes_and_dram_traffic_are_conserved() {
    let spec = RunSpec::single_core()
        .with_system(small_hierarchy())
        .with_budget(0, MEASURE);
    // Summed over all runs, so no relation holds because nothing happened.
    let mut walked = [CacheStats::default(); 3];
    for label in ["conservation-a", "conservation-b", "conservation-c"] {
        let seed = derive_seed(0x5079_7468, label);
        for w in Profile::all().iter().flat_map(|p| p.workloads(seed)) {
            for prefetcher in registry::available() {
                let at = format!("{} under {prefetcher}, seed {label}", w.name);
                let mut system = build_system(vec![w.source(spec.trace_len())], prefetcher, &spec);
                let report = system.run(spec.warmup, spec.measure);
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
