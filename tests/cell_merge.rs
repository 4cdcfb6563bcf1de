//! Cell-sharding invariants of the campaign planner: any campaign split
//! into independent grid cells, executed in a shuffled order, and merged
//! back is byte-identical to the serial in-order run — and every
//! intermediate fill level merges to a valid row-prefix of the final
//! artifact (the `?partial=1` contract at the engine layer).

use proptest::prelude::*;

use pythia_sim::stats::SimReport;
use pythia_sweep::{engine, plan_campaign, ConfigPoint, PrefetcherSpec, SweepSpec, WorkUnit};
use pythia_workloads::all_suites;

/// Deterministic Fisher–Yates driven by an LCG, so the execution order is
/// a pure function of the proptest-chosen seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// A small but structurally rich panel: several workloads, several cheap
/// prefetchers, swept configs, a seed axis. Budgets stay tiny so a
/// proptest case is milliseconds, not minutes.
fn small_spec(
    tag: &str,
    unit_picks: &[usize],
    prefetcher_picks: &[usize],
    configs: &[(u8, u8)],
    seeds: &[u64],
) -> SweepSpec {
    const NAMES: [&str; 3] = ["stride", "next_line", "streamer"];
    let pool = all_suites();
    let mut spec = SweepSpec::new(tag);
    let mut seen_units = Vec::new();
    for &pick in unit_picks {
        let key = pick % pool.len();
        if seen_units.contains(&key) {
            continue;
        }
        seen_units.push(key);
        spec.units.push(WorkUnit::single(pool[key].clone()));
    }
    let mut seen_prefetchers = Vec::new();
    for &pick in prefetcher_picks {
        let name = NAMES[pick % NAMES.len()];
        if seen_prefetchers.contains(&name) {
            continue;
        }
        seen_prefetchers.push(name);
        spec.prefetchers.push(PrefetcherSpec::named(name));
    }
    let mut seen_configs = Vec::new();
    for &(w, m) in configs {
        if seen_configs.contains(&(w, m)) {
            continue;
        }
        seen_configs.push((w, m));
        spec.configs.push(ConfigPoint::single_core(
            &format!("cfg-{w}-{m}"),
            200 + u64::from(w) * 8,
            1_000 + u64::from(m) * 16,
        ));
    }
    let mut seeds: Vec<u64> = seeds.to_vec();
    seeds.sort_unstable();
    seeds.dedup();
    spec.seeds = seeds;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The tentpole pin: shuffled cell-sharded execution == serial
    // in-order run, byte for byte, with every intermediate fill level
    // a valid prefix merge.
    #[test]
    fn shuffled_cell_execution_merges_byte_identical_to_the_serial_run(
        unit_picks in proptest::collection::vec(0usize..32, 1..3),
        prefetcher_picks in proptest::collection::vec(0usize..3, 1..3),
        configs in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..3),
        seeds in proptest::collection::vec(0u64..5, 1..3),
        two_panels in any::<bool>(),
        shuffle_seed in any::<u64>(),
    ) {
        let mut specs = vec![small_spec(
            "panel-a",
            &unit_picks,
            &prefetcher_picks,
            &configs,
            &seeds,
        )];
        if two_panels {
            // Same units/configs under a second panel name: the planner
            // shares baseline jobs across panels, and each panel still
            // gets its own baseline rows.
            specs.push(small_spec(
                "panel-b",
                &unit_picks,
                &prefetcher_picks,
                &configs,
                &seeds,
            ));
        }

        let serial = engine::run_all("cellprop", &specs, 1)
            .expect("generated campaign is valid")
            .stripped();

        let plan = plan_campaign("cellprop", &specs).expect("generated campaign plans");
        let mut order: Vec<usize> = (0..plan.job_count()).collect();
        shuffle(&mut order, shuffle_seed);

        let mut slots: Vec<Option<SimReport>> = vec![None; plan.job_count()];
        let mut last_rows = 0usize;
        for &flat in &order {
            slots[flat] = Some(plan.jobs()[flat].run());
            // Every fill level — i.e. every split granularity a scheduler
            // could pause at — merges to a monotonic row-prefix.
            let partial = plan.merge_prefix(&slots).expect("prefix merges");
            let rows = partial.baselines.len() + partial.cells.len();
            prop_assert!(rows >= last_rows, "rows regressed: {rows} < {last_rows}");
            last_rows = rows;
            prop_assert_eq!(
                &partial.baselines[..],
                &serial.baselines[..partial.baselines.len()],
                "baselines are a prefix of the serial run's row order"
            );
            prop_assert_eq!(
                &partial.cells[..],
                &serial.cells[..partial.cells.len()],
                "cells are a prefix of the serial run's row order"
            );
        }

        let reports: Vec<SimReport> = slots
            .into_iter()
            .map(|s| s.expect("every cell executed"))
            .collect();
        let merged = plan.merge_cells(&reports).expect("complete set merges");
        prop_assert_eq!(
            merged.to_json().render_pretty(),
            serial.to_json().render_pretty(),
            "shuffled cell execution merges byte-identical to the serial run"
        );
    }
}

/// Merging with too few or too many reports is a hard error, not a
/// silent truncation.
#[test]
fn merge_rejects_wrong_report_counts() {
    let spec = small_spec("panel-a", &[0], &[0], &[(0, 0)], &[0]);
    let plan = plan_campaign("counts", &[spec]).expect("valid");
    assert!(plan.job_count() >= 2, "baseline + at least one cell");
    let err = plan.merge_cells(&[]).expect_err("empty set rejected");
    assert!(err.contains("planned job"), "{err}");
    let short = vec![None; plan.job_count() - 1];
    let err = plan
        .merge_prefix(&short)
        .expect_err("short slot set rejected");
    assert!(err.contains("planned job"), "{err}");
}
