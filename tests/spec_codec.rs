//! Canonical-codec invariants: encode → parse → re-encode is a fixed
//! point (property-tested over generated specs and pinned over the whole
//! figure registry), campaign digests are collision-free across every
//! registered figure and panel, and a cell's key changes with what it
//! simulates and with nothing else.

use proptest::prelude::*;

use pythia_bench::figures;
use pythia_core::{Feature, PythiaConfig};
use pythia_stats::json::parse;
use pythia_sweep::codec::{self, Campaign};
use pythia_sweep::{
    plan_campaign, CellJob, ConfigPoint, PrefetcherKind, PrefetcherSpec, SweepSpec, WorkUnit,
};
use pythia_workloads::{all_suites, PatternKind};

/// A pseudo-random but *structurally rich* spec drawn from primitive
/// values: workload subsets, mixes, named prefetchers, an inline Pythia
/// variant (its features a run of `Feature::all()`, so every control and
/// data label is encoded and searched for), swept configs and a
/// replication seed axis all get exercised.
#[allow(clippy::type_complexity)]
fn build_spec(
    name_tag: u16,
    unit_picks: Vec<(usize, bool)>,
    prefetcher_picks: Vec<usize>,
    variant: Option<(u8, u8, bool, (usize, usize))>,
    configs: Vec<(u16, u16, u8)>,
    seeds: Vec<u64>,
) -> SweepSpec {
    const NAMES: [&str; 6] = ["stride", "spp", "bingo", "mlop", "next_line", "streamer"];
    let pool = all_suites();
    let mut spec = SweepSpec::new(&format!("gen-{name_tag}"));
    for (pick, homogeneous) in unit_picks {
        let w = &pool[pick % pool.len()];
        spec.units.push(if homogeneous {
            WorkUnit::homogeneous(w, 2, 7919)
        } else {
            WorkUnit::single(w.clone())
        });
    }
    for pick in prefetcher_picks {
        spec.prefetchers
            .push(PrefetcherSpec::named(NAMES[pick % NAMES.len()]));
    }
    if let Some((alpha_step, eq_pow, graded, (first, count))) = variant {
        let mut cfg = PythiaConfig::tuned();
        cfg.features = Feature::all()
            .into_iter()
            .cycle()
            .skip(first)
            .take(count)
            .collect();
        // Exact f32 values only (the codec requires exact f32↔f64 trips).
        cfg.alpha = f32::from(alpha_step) / 256.0;
        cfg.eq_size = 1usize << (eq_pow % 12);
        cfg.graded_timeliness = graded;
        spec = spec.with_pythia_variant("gen-variant", cfg);
    }
    for (warmup, measure, mtps_pow) in configs {
        let system =
            pythia_sim::config::SystemConfig::single_core_with_mtps(150u64 << (mtps_pow % 7));
        spec.configs.push(ConfigPoint::new(
            &format!("cfg-{warmup}-{measure}"),
            system,
            u64::from(warmup) + 1_000,
            u64::from(measure) + 4_000,
        ));
    }
    spec.seeds = if seeds.is_empty() { vec![0] } else { seeds };
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_encode_parse_reencode_is_a_fixed_point(
        name_tag in any::<u16>(),
        unit_picks in proptest::collection::vec((0usize..64, any::<bool>()), 1..5),
        prefetcher_picks in proptest::collection::vec(0usize..6, 1..4),
        variant in proptest::option::of((any::<u8>(), any::<u8>(), any::<bool>(), (0usize..32, 1usize..33))),
        configs in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..4),
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let spec = build_spec(name_tag, unit_picks, prefetcher_picks, variant, configs, seeds);
        let encoded = codec::spec_json(&spec).render();
        let decoded = codec::spec_from_json(&parse(&encoded).expect("canonical text parses"))
            .expect("canonical text decodes");
        prop_assert_eq!(&decoded, &spec, "decode reproduces the spec");
        prop_assert_eq!(
            codec::spec_json(&decoded).render(),
            encoded,
            "re-encode reproduces the bytes"
        );

        // The digest is a pure function of the canonical bytes.
        let c1 = Campaign::single(spec.clone());
        let c2 = Campaign::single(decoded);
        prop_assert_eq!(c1.digest(), c2.digest());
    }
}

/// The key of each job of a one-panel plan, in flat order.
fn cell_keys(spec: &SweepSpec) -> Vec<u64> {
    plan_campaign(&spec.name, std::slice::from_ref(spec))
        .expect("plans")
        .jobs()
        .iter()
        .map(CellJob::key)
        .collect()
}

/// One change to what the first job (the baseline at the first unit,
/// config and seed) simulates.
type Change = (&'static str, fn(&mut SweepSpec));
const CHANGES: [Change; 9] = [
    ("seed", |s| s.seeds[0] = s.seeds[0].wrapping_add(1)),
    ("warmup", |s| s.configs[0].warmup += 1),
    ("measure", |s| s.configs[0].measure += 1),
    ("system mtps", |s| s.configs[0].system.dram.mtps += 1),
    ("system mispredict_penalty", |s| {
        s.configs[0].system.core.mispredict_penalty += 1;
    }),
    ("trace seed", |s| s.units[0].workloads[0].spec.seed ^= 1),
    ("trace footprint", |s| {
        s.units[0].workloads[0].spec.footprint_pages += 1;
    }),
    ("trace pattern", |s| {
        let spec = &mut s.units[0].workloads[0].spec;
        spec.kind = match spec.kind {
            PatternKind::PointerChase => PatternKind::CloudMix { hot_pct: 1 },
            _ => PatternKind::PointerChase,
        };
    }),
    ("prefetcher kind", |s| {
        s.baseline.kind = PrefetcherKind::Named("next_line".into());
    }),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_cell_key_names_the_simulation_and_not_its_labels(
        unit_picks in proptest::collection::vec(0usize..64, 1..4),
        prefetcher_picks in proptest::collection::vec(0usize..6, 1..4),
        variant in proptest::option::of((any::<u8>(), any::<u8>(), any::<bool>(), (0usize..32, 1usize..33))),
        configs in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..3),
        seeds in proptest::collection::vec(any::<u64>(), 1..3),
        change in 0usize..CHANGES.len(),
    ) {
        let mut prefetcher_picks = prefetcher_picks;
        prefetcher_picks.sort_unstable();
        prefetcher_picks.dedup();
        let units = unit_picks.into_iter().map(|pick| (pick, false)).collect();
        let spec = build_spec(0, units, prefetcher_picks, variant, configs, seeds);
        let keys = cell_keys(&spec);

        let mut relabelled = spec.clone();
        relabelled.name.push('\'');
        for unit in &mut relabelled.units {
            unit.label.push('\'');
            unit.group.push('\'');
            for w in &mut unit.workloads {
                w.name.push('\'');
            }
        }
        for config in &mut relabelled.configs {
            config.label.push('\'');
        }
        for p in relabelled.prefetchers.iter_mut().chain([&mut relabelled.baseline]) {
            p.label.push('\'');
        }
        prop_assert_eq!(cell_keys(&relabelled), keys.clone(), "relabelled");

        let (what, apply) = CHANGES[change];
        let mut changed = spec.clone();
        apply(&mut changed);
        prop_assert_ne!(cell_keys(&changed)[0], keys[0], "{}", what);
    }
}

#[test]
fn every_registry_campaign_round_trips_exactly() {
    for def in figures::registry() {
        let campaign = figures::campaign(def.id).expect("registry entry builds");
        let text = campaign.canonical();
        let back = Campaign::parse(&text)
            .unwrap_or_else(|e| panic!("{}: canonical text fails to decode: {e}", def.id));
        assert_eq!(back, campaign, "{}: decode changed the campaign", def.id);
        assert_eq!(
            back.canonical(),
            text,
            "{}: re-encode changed the bytes",
            def.id
        );
    }
}

#[test]
fn registry_digests_are_collision_free_across_figures_and_panels() {
    let mut seen: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    for def in figures::registry() {
        let campaign = figures::campaign(def.id).expect("registry entry builds");
        let digest = campaign.digest();
        assert!(
            codec::is_digest(&digest),
            "{}: malformed digest {digest:?}",
            def.id
        );
        if let Some(previous) = seen.insert(digest.clone(), def.id.to_string()) {
            panic!(
                "digest collision between {previous} and {} ({digest})",
                def.id
            );
        }
        // Individual panels are campaigns too (the ad-hoc submission path)
        // and must not collide with each other or with any whole figure.
        // A one-panel figure IS its panel (same content, same digest by
        // design), so only multi-panel figures contribute extra entries.
        if campaign.panels.len() == 1 {
            continue;
        }
        for panel in campaign.panels {
            let digest = Campaign::single(panel.clone()).digest();
            if let Some(previous) =
                seen.insert(digest.clone(), format!("{}:{}", def.id, panel.name))
            {
                panic!(
                    "digest collision between {previous} and {}:{} ({digest})",
                    def.id, panel.name
                );
            }
        }
    }
    assert!(
        seen.len() > 30,
        "expected figures + panels, saw {}",
        seen.len()
    );
}
