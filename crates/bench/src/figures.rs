//! The figure registry: every paper figure/table as a declarative
//! [`SweepSpec`] campaign plus the view that renders its result in the
//! paper's shape.
//!
//! `pythia-cli sweep`, `pythia-serve` and the golden-report test all
//! resolve figures from here, so "what Fig. 9 runs" and "what Fig. 9
//! looks like" each exist exactly once. A figure maps to one or more specs
//! (panels); callers run them with [`pythia_sweep::engine::run_all`] and
//! hand the merged result to [`FigureDef::view`].

use pythia_core::tuning::{exponential_grid, HyperPoint};
use pythia_core::{ControlFlow, DataFlow, Feature, PythiaConfig};
use pythia_sim::config::SystemConfig;
use pythia_stats::metrics::geomean;
use pythia_stats::report::{frac_pct, pct, Table};
use pythia_sweep::{ConfigPoint, Key, RawSummary, SweepResult, SweepSpec, Value, WorkUnit};
use pythia_workloads::profiles::{derive_seed, Profile, CAMPAIGN_SEED};
use pythia_workloads::suites::cvp_unseen;
use pythia_workloads::{all_suites, mixes, suite, PatternKind, Suite, TraceSpec, Workload};

use crate::{budget, Budget};

/// The five tuning suites of Table 6 (excludes the unseen CVP set).
pub const FIVE_SUITES: [Suite; 5] = [
    Suite::Spec06,
    Suite::Spec17,
    Suite::Parsec,
    Suite::Ligra,
    Suite::Cloudsuite,
];

/// The headline prefetcher comparison set (Figs. 1/7/9/10/12/17).
pub const HEADLINE_PREFETCHERS: [&str; 4] = ["spp", "bingo", "mlop", "pythia"];

/// The prefetcher-combination ladder of Figs. 9(b)/10(b).
pub const LADDER: [&str; 6] = ["st", "st+s", "st+s+b", "st+s+b+d", "st+s+b+d+m", "pythia"];

/// Looks up named workloads in the Table 6 pool.
///
/// # Panics
///
/// Panics on an unknown name — figure definitions are static, so this is a
/// programming error.
pub fn named_units(names: &[&str]) -> Vec<WorkUnit> {
    let pool = all_suites();
    names
        .iter()
        .map(|n| {
            let w = pool
                .iter()
                .find(|w| w.name == *n)
                .unwrap_or_else(|| panic!("unknown workload {n:?}"));
            WorkUnit::single(w.clone())
        })
        .collect()
}

/// A single-core config point with the given budget class.
fn point(label: &str, kind: Budget) -> ConfigPoint {
    let (w, m) = budget(kind);
    ConfigPoint::single_core(label, w, m)
}

/// A single-core config point at a DRAM bandwidth level (Fig. 8(b)/(d)/11).
fn mtps_point(mtps: u64, kind: Budget) -> ConfigPoint {
    let (w, m) = budget(kind);
    ConfigPoint::new(
        &mtps.to_string(),
        SystemConfig::single_core_with_mtps(mtps),
        w,
        m,
    )
}

/// The display label of a hyperparameter grid point in the `tab02`
/// screening grid.
fn hyper_label(p: &HyperPoint) -> String {
    format!("a={:e} g={:e} e={:e}", p.alpha, p.gamma, p.epsilon)
}

/// The tuned Pythia configuration at one hyperparameter grid point.
pub fn hyper_config(p: &HyperPoint) -> PythiaConfig {
    let mut cfg = PythiaConfig::tuned();
    cfg.alpha = p.alpha;
    cfg.gamma = p.gamma;
    cfg.epsilon = p.epsilon;
    cfg
}

/// The Fig. 16 / §6.6.2 candidate feature vectors (a shortlist from the
/// Table 3 space; the full exploration is `pythia-cli dse`).
pub fn feature_candidates() -> Vec<Vec<Feature>> {
    vec![
        vec![Feature::PC_DELTA, Feature::LAST_4_DELTAS],
        vec![Feature::PC_DELTA],
        vec![Feature::LAST_4_DELTAS],
        vec![
            Feature {
                control: ControlFlow::Pc,
                data: DataFlow::PageOffset,
            },
            Feature::LAST_4_DELTAS,
        ],
        vec![
            Feature::PC_DELTA,
            Feature {
                control: ControlFlow::None,
                data: DataFlow::LastFourOffsets,
            },
        ],
    ]
}

/// Joins a feature vector into a display label.
pub fn feature_label(features: &[Feature]) -> String {
    let parts: Vec<String> = features.iter().map(|f| f.label()).collect();
    parts.join(";")
}

fn fig01() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig01")
        .with_units(named_units(&[
            "482.sphinx3-417B",
            "PARSEC-Canneal",
            "PARSEC-Facesim",
            "459.GemsFDTD-765B",
            "Ligra-CC",
            "Ligra-PageRankDelta",
        ]))
        .with_prefetchers(&["spp", "bingo", "pythia"])
        .with_config(point("base", Budget::Headline))]
}

fn fig07() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig07")
        .with_suites(&FIVE_SUITES)
        .with_prefetchers(&HEADLINE_PREFETCHERS)
        .with_config(point("base", Budget::Headline))]
}

fn fig08a() -> Vec<SweepSpec> {
    let (w, m) = budget(Budget::MultiCore);
    [1usize, 2, 4, 8, 12]
        .iter()
        .map(|&cores| {
            SweepSpec::new(&format!("fig08a-{cores}c"))
                .with_units(
                    mixes(cores, 4, 42)
                        .into_iter()
                        .map(|(label, ws)| WorkUnit::mix(&label, "mix", ws)),
                )
                .with_prefetchers(&["spp", "bingo", "mlop", "spp+ppf", "pythia"])
                .with_config(ConfigPoint::new(
                    &cores.to_string(),
                    SystemConfig::with_cores(cores),
                    w,
                    m,
                ))
        })
        .collect()
}

fn fig08b() -> Vec<SweepSpec> {
    // A representative cross-section (full suites at every MTPS would be
    // slow; the shape comes from the mix of streaming/spatial/irregular).
    vec![SweepSpec::new("fig08b")
        .with_units(named_units(&[
            "462.libquantum-714B",
            "459.GemsFDTD-765B",
            "482.sphinx3-417B",
            "PARSEC-Facesim",
            "429.mcf-184B",
            "Ligra-CC",
            "Ligra-PageRank",
            "436.cactusADM-97B",
            "cassandra",
            "470.lbm-164B",
        ]))
        .with_prefetchers(&["spp", "bingo", "mlop", "spp+ppf", "pythia"])
        .with_configs(
            [150u64, 300, 600, 1200, 2400, 4800, 9600]
                .iter()
                .map(|&mtps| mtps_point(mtps, Budget::Sweep)),
        )]
}

fn fig08c() -> Vec<SweepSpec> {
    let (w, m) = budget(Budget::Sweep);
    vec![SweepSpec::new("fig08c")
        .with_units(named_units(&[
            "462.libquantum-714B",
            "459.GemsFDTD-765B",
            "482.sphinx3-417B",
            "PARSEC-Facesim",
            "429.mcf-184B",
            "Ligra-CC",
            "483.xalancbmk-736B",
            "cassandra",
        ]))
        .with_prefetchers(&["spp", "bingo", "mlop", "spp+ppf", "pythia"])
        .with_configs([256u64, 512, 1024, 2048, 4096].iter().map(|&kb| {
            ConfigPoint::new(
                &format!("{kb}KB"),
                SystemConfig::single_core_with_llc_bytes(kb * 1024),
                w,
                m,
            )
        }))]
}

fn fig08d() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig08d")
        .with_units(named_units(&[
            "462.libquantum-714B",
            "459.GemsFDTD-765B",
            "482.sphinx3-417B",
            "PARSEC-Facesim",
            "Ligra-CC",
            "429.mcf-184B",
            "436.cactusADM-97B",
            "cassandra",
        ]))
        .with_prefetchers(&["stride+streamer", "ipcp", "stride+pythia"])
        .with_configs(
            [150u64, 600, 2400, 9600]
                .iter()
                .map(|&mtps| mtps_point(mtps, Budget::Sweep)),
        )]
}

fn fig09() -> Vec<SweepSpec> {
    vec![
        SweepSpec::new("fig09a")
            .with_suites(&FIVE_SUITES)
            .with_prefetchers(&HEADLINE_PREFETCHERS)
            .with_config(point("base", Budget::Headline)),
        SweepSpec::new("fig09b")
            .with_workloads(all_suites())
            .with_prefetchers(&LADDER)
            .with_config(point("base", Budget::Headline)),
    ]
}

fn fig10() -> Vec<SweepSpec> {
    let (w, m) = budget(Budget::MultiCore);
    let four_core = ConfigPoint::new("4", SystemConfig::with_cores(4), w, m);
    // Homogeneous 4-copy mixes of a subset of each suite (cost control).
    let homo_units = FIVE_SUITES.iter().flat_map(|&s| {
        suite(s)
            .into_iter()
            .step_by(3)
            .map(|w| WorkUnit::homogeneous(&w, 4, 7919))
            .collect::<Vec<_>>()
    });
    vec![
        SweepSpec::new("fig10a")
            .with_units(homo_units)
            .with_prefetchers(&HEADLINE_PREFETCHERS)
            .with_config(four_core.clone()),
        SweepSpec::new("fig10b")
            .with_units(
                mixes(4, 5, 77)
                    .into_iter()
                    .map(|(label, ws)| WorkUnit::mix(&label, "mix", ws)),
            )
            .with_prefetchers(&LADDER)
            .with_config(four_core),
    ]
}

fn fig11() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig11")
        .with_units(named_units(&[
            "Ligra-CC",
            "Ligra-PageRank",
            "429.mcf-184B",
            "482.sphinx3-417B",
            "PARSEC-Canneal",
            "cassandra",
            "462.libquantum-714B",
            "459.GemsFDTD-765B",
        ]))
        .with_baseline("pythia")
        .with_prefetchers(&["pythia_bw_oblivious"])
        .with_configs(
            [150u64, 300, 600, 1200, 2400, 4800, 9600]
                .iter()
                .map(|&mtps| mtps_point(mtps, Budget::Sweep)),
        )]
}

/// Category of an unseen CVP-2-like trace (`"crypto-1"` → `"crypto"`).
fn category(name: &str) -> String {
    name.split('-').next().unwrap_or(name).to_string()
}

fn fig12() -> Vec<SweepSpec> {
    let unseen = cvp_unseen();
    let single_units = unseen.iter().map(|w| {
        let mut u = WorkUnit::single(w.clone());
        u.group = category(&w.name);
        u
    });
    // One homogeneous 4-copy mix per category.
    let mut seen = std::collections::BTreeSet::new();
    let mix_units: Vec<WorkUnit> = unseen
        .iter()
        .filter(|w| seen.insert(category(&w.name)))
        .map(|w| {
            let mut u = WorkUnit::homogeneous(w, 4, 131);
            u.group = category(&w.name);
            u
        })
        .collect();
    let (w4, m4) = budget(Budget::MultiCore);
    vec![
        SweepSpec::new("fig12a")
            .with_units(single_units)
            .with_prefetchers(&HEADLINE_PREFETCHERS)
            .with_config(point("base", Budget::Sweep)),
        SweepSpec::new("fig12b")
            .with_units(mix_units)
            .with_prefetchers(&HEADLINE_PREFETCHERS)
            .with_config(ConfigPoint::new("4", SystemConfig::with_cores(4), w4, m4)),
    ]
}

fn fig14() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig14")
        .with_units(named_units(&["Ligra-CC"]))
        .with_prefetchers(&["spp", "bingo", "mlop", "pythia", "pythia_strict"])
        .with_config(point("base", Budget::Sweep))]
}

fn fig15() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig15")
        .with_workloads(suite(Suite::Ligra))
        .with_prefetchers(&["pythia", "pythia_strict"])
        .with_config(point("base", Budget::Sweep))]
}

fn fig16() -> Vec<SweepSpec> {
    let mut spec = SweepSpec::new("fig16")
        .with_workloads(suite(Suite::Spec06))
        .with_prefetchers(&["pythia"])
        .with_config(point("base", Budget::Sweep));
    for features in feature_candidates() {
        let label = format!("feat:{}", feature_label(&features));
        spec = spec.with_pythia_variant(&label, PythiaConfig::tuned().with_features(features));
    }
    vec![spec]
}

fn fig17() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig17")
        .with_workloads(all_suites())
        .with_prefetchers(&HEADLINE_PREFETCHERS)
        .with_config(point("base", Budget::Sweep))]
}

/// The five-workload cross-section used by the sensitivity studies
/// (Figs. 20/23).
fn sensitivity_units() -> Vec<WorkUnit> {
    named_units(&[
        "459.GemsFDTD-765B",
        "462.libquantum-714B",
        "482.sphinx3-417B",
        "Ligra-CC",
        "429.mcf-184B",
    ])
}

fn fig20() -> Vec<SweepSpec> {
    let mut a = SweepSpec::new("fig20a")
        .with_units(sensitivity_units())
        .with_config(point("base", Budget::Sweep));
    for eps in [1e-5f32, 1e-4, 1e-3, 2e-3, 1e-2, 1e-1, 0.5, 1.0] {
        let mut cfg = PythiaConfig::basic();
        cfg.epsilon = eps;
        a = a.with_pythia_variant(&format!("{eps:e}"), cfg);
    }
    let mut b = SweepSpec::new("fig20b")
        .with_units(sensitivity_units())
        .with_config(point("base", Budget::Sweep));
    for alpha in [1e-5f32, 1e-4, 1e-3, 0.0065, 1e-2, 1e-1, 1.0] {
        let mut cfg = PythiaConfig::basic();
        cfg.alpha = alpha;
        b = b.with_pythia_variant(&format!("{alpha:e}"), cfg);
    }
    vec![a, b]
}

fn fig21() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig21")
        .with_suites(&FIVE_SUITES)
        .with_prefetchers(&["cp_hw", "pythia"])
        .with_config(point("base", Budget::Sweep))]
}

fn fig22() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig22")
        .with_suites(&FIVE_SUITES)
        .with_prefetchers(&["power7", "pythia"])
        .with_config(point("base", Budget::Sweep))]
}

fn fig23() -> Vec<SweepSpec> {
    vec![SweepSpec::new("fig23")
        .with_units(sensitivity_units())
        .with_prefetchers(&HEADLINE_PREFETCHERS)
        .with_configs(
            [0u64, 25_000, 50_000, 100_000, 200_000]
                .iter()
                .map(|&warmup| ConfigPoint::single_core(&warmup.to_string(), warmup, 400_000)),
        )]
}

/// One round of the §4.3 search as a campaign: every candidate an inline
/// Pythia variant over the four-workload DSE cross-section, at the
/// multi-core budget. Every round shares the same baselines, which the
/// planner simulates once per round.
pub fn dse_spec(
    name: &str,
    variants: impl IntoIterator<Item = (String, PythiaConfig)>,
) -> SweepSpec {
    let mut spec = SweepSpec::new(name)
        .with_units(named_units(&[
            "459.GemsFDTD-765B",
            "462.libquantum-714B",
            "482.sphinx3-417B",
            "429.mcf-184B",
        ]))
        .with_config(point("base", Budget::MultiCore));
    for (label, cfg) in variants {
        spec = spec.with_pythia_variant(&label, cfg);
    }
    spec
}

fn tab02() -> Vec<SweepSpec> {
    // The §4.3.3 screening grid: one hyperparameter point per variant.
    let grid = exponential_grid(4);
    vec![dse_spec(
        "tab02",
        grid.iter().map(|p| (hyper_label(p), hyper_config(p))),
    )]
}

fn ablation() -> Vec<SweepSpec> {
    let mut spec = SweepSpec::new("ablation")
        .with_units(named_units(&[
            "459.GemsFDTD-765B",
            "462.libquantum-714B",
            "482.sphinx3-417B",
            "436.cactusADM-97B",
            "429.mcf-184B",
            "Ligra-CC",
        ]))
        .with_config(point("base", Budget::Sweep));

    spec = spec.with_pythia_variant(
        "tuned (max, 3 planes, 16 actions, EQ 256)",
        PythiaConfig::tuned(),
    );
    spec = spec.with_pythia_variant("paper-literal alpha = 0.0065", PythiaConfig::basic());

    let mut c = PythiaConfig::tuned();
    c.q_init_override = Some(1.0 / (1.0 - c.gamma));
    spec = spec.with_pythia_variant("paper-literal Q-init 1/(1-gamma)", c);

    let mut c = PythiaConfig::tuned();
    c.graded_timeliness = true;
    spec = spec.with_pythia_variant("graded timeliness (footnote 3)", c);

    let mut c = PythiaConfig::tuned();
    c.vault_combine = pythia_core::VaultCombine::Mean;
    spec = spec.with_pythia_variant("mean vault combination", c);

    let mut c = PythiaConfig::tuned();
    c.planes = 1;
    spec = spec.with_pythia_variant("1 plane per vault", c);

    spec = spec.with_pythia_variant(
        "full [-63,63] action list",
        PythiaConfig::tuned().with_actions(PythiaConfig::full_actions()),
    );

    let mut c = PythiaConfig::tuned();
    c.eq_size = 64;
    spec = spec.with_pythia_variant("EQ of 64 entries", c);

    let mut c = PythiaConfig::tuned();
    c.eq_size = 1024;
    spec = spec.with_pythia_variant("EQ of 1024 entries", c);

    vec![spec]
}

/// One [`WorkUnit`] per workload of a robustness profile, grouped under
/// the profile's label so [`pythia_sweep::SweepResult::robustness`] can
/// score hostile groups against the `expected` reference.
fn profile_units(p: Profile) -> Vec<WorkUnit> {
    p.workloads(CAMPAIGN_SEED)
        .into_iter()
        .map(|w| {
            let mut u = WorkUnit::single(w);
            u.group = p.label().to_string();
            u
        })
        .collect()
}

/// `robust01`: every registry prefetcher (plus Pythia) over the three
/// robustness profiles. Scored as speedup/coverage/overprediction deltas
/// against the `expected` group.
fn robust01() -> Vec<SweepSpec> {
    let mut prefetchers: Vec<&str> = pythia::prefetchers::registry::available()
        .iter()
        .filter(|&&p| p != "none")
        .copied()
        .collect();
    prefetchers.push("pythia");
    let units = Profile::all().into_iter().flat_map(profile_units);
    vec![SweepSpec::new("robust01")
        .with_units(units)
        .with_prefetchers(&prefetchers)
        .with_config(point("base", Budget::Sweep))]
}

/// `robust02`: phase agility. A three-pattern mix is served steady (each
/// constituent its own workload, the `steady` reference group) and phased
/// at increasingly rapid switch periods; fragile prefetchers decay as the
/// period shrinks.
fn robust02() -> Vec<SweepSpec> {
    use PatternKind::*;
    let constituents: [(&str, PatternKind); 3] = [
        ("stream", Stream { store_every: 0 }),
        (
            "delta",
            DeltaChain {
                deltas: vec![1, 1, 3],
            },
        ),
        ("cloud", CloudMix { hot_pct: 10 }),
    ];
    let unit = |name: String, kind: PatternKind, group: &str| -> WorkUnit {
        let spec = TraceSpec::new(name.clone(), kind).with_seed(derive_seed(CAMPAIGN_SEED, &name));
        let mut u = WorkUnit::single(Workload {
            name,
            suite: Suite::CvpUnseen,
            spec,
        });
        u.group = group.to_string();
        u
    };
    let mut units: Vec<WorkUnit> = constituents
        .iter()
        .map(|(n, k)| unit(format!("steady-{n}"), k.clone(), "steady"))
        .collect();
    for plen in [8_000u32, 2_000, 500, 64] {
        let group = format!("plen-{plen}");
        units.push(unit(
            group.clone(),
            Phased {
                phases: constituents.iter().map(|(_, k)| k.clone()).collect(),
                phase_len: plen,
            },
            &group,
        ));
    }
    vec![SweepSpec::new("robust02")
        .with_units(units)
        .with_prefetchers(&HEADLINE_PREFETCHERS)
        .with_config(point("base", Budget::Sweep))]
}

/// `robust03`: adversarial robustness under bandwidth pressure — the
/// expected and adversarial profiles swept across DRAM MTPS levels.
fn robust03() -> Vec<SweepSpec> {
    let units = [Profile::Expected, Profile::Adversarial]
        .into_iter()
        .flat_map(profile_units);
    vec![SweepSpec::new("robust03")
        .with_units(units)
        .with_prefetchers(&HEADLINE_PREFETCHERS)
        .with_configs(
            [150u64, 600, 2400, 9600]
                .iter()
                .map(|&mtps| mtps_point(mtps, Budget::MultiCore)),
        )]
}

/// One markdown section of a figure view: a heading and its table.
fn section(heading: &str, table: &Table) -> String {
    format!("## {heading}\n\n{}\n", table.to_markdown())
}

/// The cells of one panel of a merged multi-panel result.
fn panel(r: &SweepResult, sweep: &str) -> SweepResult {
    r.filter(|c| c.sweep == sweep)
}

/// Geomean speedup per (`row` × prefetcher) — the Fig. 8 / 23 shape.
fn speedup_pivot(r: &SweepResult, heading: &str, row: Key) -> String {
    section(heading, &r.pivot(row, Key::Prefetcher, Value::Speedup))
}

/// Geomean speedup per (suite × prefetcher) with a `GEOMEAN` row — the
/// Fig. 9(a) / 10(a) / 12(a) / 21 / 22 shape.
fn per_suite(r: &SweepResult, heading: &str) -> String {
    let t = r.pivot_with_total(Key::Group, Key::Prefetcher, Value::Speedup, Some("GEOMEAN"));
    section(heading, &t)
}

/// Two-column table of the geomean speedup per prefetcher (or inline
/// Pythia variant), the first column titled `key_header` — the Fig. 9(b)
/// ladder / Fig. 20 / ablation shape.
fn geomean_column(r: &SweepResult, heading: &str, key_header: &str) -> String {
    let mut t = Table::new(&[key_header, "geomean speedup"]);
    for (label, geo) in r.aggregate(Key::Prefetcher, Value::Speedup) {
        t.row(&[label, format!("{geo:.3}")]);
    }
    section(heading, &t)
}

/// Robustness scoreboard against the leading group (`expected` /
/// `steady`, which the `robust*` specs put first).
fn robustness(r: &SweepResult) -> String {
    let groups = r.distinct(Key::Group);
    let reference = groups.first().map_or("", String::as_str);
    section(
        &format!("Robustness vs `{reference}` (Δ of per-group geomeans)"),
        &r.robustness(reference),
    )
}

/// Per-workload speedup of basic Pythia beside a customized one (`other`
/// picks the second column's speedup for a workload) — the Fig. 15 / 16
/// shape.
fn paired_with_basic(
    r: &SweepResult,
    heading: &str,
    headers: &[&str; 4],
    other: impl Fn(&str) -> f64,
) -> String {
    let row = |label: String, basic: f64, other: f64| {
        [
            label,
            format!("{basic:.3}"),
            format!("{other:.3}"),
            format!("{:+.1}%", (other / basic - 1.0) * 100.0),
        ]
    };
    let mut t = Table::new(headers);
    let mut basics = Vec::new();
    let mut others = Vec::new();
    for b in &r.baselines {
        let basic = r
            .cell(&b.unit, "pythia", "base")
            .expect("cell")
            .metrics
            .speedup;
        let other = other(&b.unit);
        t.row(&row(b.unit.clone(), basic, other));
        basics.push(basic);
        others.push(other);
    }
    t.row(&row("GEOMEAN".into(), geomean(&basics), geomean(&others)));
    section(heading, &t)
}

fn fig01_view(r: &SweepResult) -> String {
    let mut t = Table::new(&[
        "workload",
        "prefetcher",
        "coverage",
        "overprediction",
        "IPC improvement",
    ]);
    // Cells arrive in grid order (workload-major), which is the table order.
    for c in &r.cells {
        t.row(&[
            c.unit.clone(),
            c.prefetcher.clone(),
            frac_pct(c.metrics.coverage),
            frac_pct(c.metrics.overprediction),
            pct(c.metrics.speedup),
        ]);
    }
    section(
        "Fig. 1 — motivational coverage/overprediction/performance",
        &t,
    )
}

/// Baseline-MPKI-weighted coverage and overprediction per suite, measured
/// at the LLC–main-memory boundary, plus the unweighted `AVG` over suites.
fn fig07_view(r: &SweepResult) -> String {
    let mut t = Table::new(&["suite", "prefetcher", "coverage", "overprediction"]);
    let prefetchers = r.distinct(Key::Prefetcher);
    let mut sums = vec![(0.0, 0.0); prefetchers.len()];
    let suites = r.distinct(Key::Group);
    for s in &suites {
        let per_suite = r.filter(|c| &c.group == s);
        for (p, sum) in prefetchers.iter().zip(&mut sums) {
            let (cov, over) = per_suite.weighted_coverage(p);
            t.row(&[s.clone(), p.clone(), frac_pct(cov), frac_pct(over)]);
            sum.0 += cov;
            sum.1 += over;
        }
    }
    for (p, (cov, over)) in prefetchers.iter().zip(sums) {
        t.row(&[
            "AVG".into(),
            p.clone(),
            frac_pct(cov / suites.len() as f64),
            frac_pct(over / suites.len() as f64),
        ]);
    }
    section(
        "Fig. 7 — coverage and overprediction per suite (single-core)",
        &t,
    )
}

fn fig09_view(r: &SweepResult) -> String {
    per_suite(
        &panel(r, "fig09a"),
        "Fig. 9(a) — single-core per-suite geomean speedup",
    ) + &geomean_column(
        &panel(r, "fig09b"),
        "Fig. 9(b) — prefetcher-combination ladder (single-core)",
        "configuration",
    )
}

fn fig10_view(r: &SweepResult) -> String {
    per_suite(
        &panel(r, "fig10a"),
        "Fig. 10(a) — four-core per-suite geomean speedup (homogeneous mixes)",
    ) + &geomean_column(
        &panel(r, "fig10b"),
        "Fig. 10(b) — combination ladder (four-core heterogeneous mixes)",
        "configuration",
    )
}

/// The sweep baseline *is* basic Pythia, so every config's geomean
/// speedup is the normalized ratio directly.
fn fig11_view(r: &SweepResult) -> String {
    let mut t = Table::new(&["MTPS", "oblivious vs basic (%)"]);
    for (mtps, geo) in r.aggregate(Key::Config, Value::Speedup) {
        t.row(&[mtps, format!("{:+.2}%", (geo - 1.0) * 100.0)]);
    }
    section(
        "Fig. 11 — bandwidth-oblivious Pythia normalized to basic Pythia",
        &t,
    )
}

fn fig12_view(r: &SweepResult) -> String {
    per_suite(
        &panel(r, "fig12a"),
        "Fig. 12(a) — unseen traces, single-core",
    ) + &speedup_pivot(
        &panel(r, "fig12b"),
        "Fig. 12(b) — unseen traces, four-core (homogeneous mixes)",
        Key::Group,
    )
}

/// Fraction of runtime in each DRAM-bandwidth bucket and IPC improvement,
/// baseline first.
fn fig14_view(r: &SweepResult) -> String {
    let bucket_row = |label: &str, raw: &RawSummary, speedup: f64| -> Vec<String> {
        let b = raw.bw_bucket_windows;
        let total = b.iter().sum::<u64>().max(1);
        let mut row = vec![label.to_string()];
        row.extend(
            b.iter()
                .map(|x| format!("{:.0}%", *x as f64 * 100.0 / total as f64)),
        );
        row.push(pct(speedup));
        row
    };
    let mut t = Table::new(&[
        "config",
        "<25%",
        "25-50%",
        "50-75%",
        ">=75%",
        "IPC improvement",
    ]);
    t.row(&bucket_row("baseline", &r.baselines[0].raw, 1.0));
    for c in &r.cells {
        t.row(&bucket_row(&c.prefetcher, &c.raw, c.metrics.speedup));
    }
    section(
        "Fig. 14 — Ligra-CC bandwidth-bucket residency and performance",
        &t,
    )
}

fn fig15_view(r: &SweepResult) -> String {
    paired_with_basic(
        r,
        "Fig. 15 — basic vs strict Pythia on the Ligra suite",
        &[
            "workload",
            "basic pythia",
            "strict pythia",
            "strict vs basic",
        ],
        |unit| {
            r.cell(unit, "pythia_strict", "base")
                .expect("cell")
                .metrics
                .speedup
        },
    )
}

/// Per-workload best of the candidate feature vectors (§6.6.2).
fn fig16_view(r: &SweepResult) -> String {
    paired_with_basic(
        r,
        "Fig. 16 — basic vs feature-optimized Pythia on SPEC06",
        &["workload", "basic", "feature-optimized", "gain"],
        |unit| {
            r.cells
                .iter()
                .filter(|c| c.unit == unit && c.prefetcher.starts_with("feat:"))
                .map(|c| c.metrics.speedup)
                .fold(f64::MIN, f64::max)
        },
    )
}

/// Per-workload speedups of every prefetcher, sorted by Pythia's.
fn fig17_view(r: &SweepResult) -> String {
    let prefetchers = r.distinct(Key::Prefetcher);
    let mut rows: Vec<(&str, Vec<f64>)> = r
        .baselines
        .iter()
        .map(|b| {
            let speeds = prefetchers
                .iter()
                .map(|p| r.cell(&b.unit, p, "base").expect("cell").metrics.speedup)
                .collect();
            (b.unit.as_str(), speeds)
        })
        .collect();
    let pythia = prefetchers
        .iter()
        .position(|p| p == "pythia")
        .expect("fig17 sweeps pythia");
    rows.sort_by(|a, b| a.1[pythia].total_cmp(&b.1[pythia]));

    let mut headers = vec!["workload"];
    headers.extend(prefetchers.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    for (name, speeds) in &rows {
        let mut row = vec![name.to_string()];
        row.extend(speeds.iter().map(|s| format!("{s:.3}")));
        t.row(&row);
    }
    let above = rows.iter().filter(|(_, s)| s[pythia] > 1.0).count();
    section(
        "Fig. 17 — single-core s-curve (sorted by Pythia speedup)",
        &t,
    ) + &format!("Pythia speeds up {above}/{} workloads\n", rows.len())
}

fn fig20_view(r: &SweepResult) -> String {
    geomean_column(
        &panel(r, "fig20a"),
        "Fig. 20(a) — sensitivity to exploration rate ε",
        "epsilon",
    ) + &geomean_column(
        &panel(r, "fig20b"),
        "Fig. 20(b) — sensitivity to learning rate α",
        "alpha",
    )
}

/// A registered figure: an id, a title, the campaign(s) behind it, and
/// the view that renders their result.
pub struct FigureDef {
    /// Registry id (`"fig09"`, `"tab02"`, ...).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Builds the figure's sweep specs (panels).
    pub build: fn() -> Vec<SweepSpec>,
    /// Renders the merged [`pythia_sweep::engine::run_all`] result of
    /// [`FigureDef::build`]'s panels as the paper-shaped markdown of this
    /// figure (a multi-panel view picks its panel by `CellResult::sweep`).
    pub view: fn(&SweepResult) -> String,
}

impl FigureDef {
    /// Builds the figure as a content-addressable
    /// [`pythia_sweep::Campaign`] — the submission unit of `pythia-serve`
    /// and the cache key of `pythia-cli sweep --cache-dir`. The digest
    /// covers the fully expanded grid (budgets included), so the same
    /// figure id at a different `PYTHIA_BENCH_SCALE` addresses a different
    /// artifact.
    pub fn campaign(&self) -> pythia_sweep::Campaign {
        pythia_sweep::Campaign::new(self.id, (self.build)())
    }
}

/// Every registered figure/table campaign.
pub fn registry() -> Vec<FigureDef> {
    vec![
        FigureDef {
            id: "fig01",
            title: "Motivational coverage/overprediction/performance",
            build: fig01,
            view: fig01_view,
        },
        FigureDef {
            id: "fig07",
            title: "Coverage and overprediction per suite (single-core)",
            build: fig07,
            view: fig07_view,
        },
        FigureDef {
            id: "fig08a",
            title: "Speedup vs core count",
            build: fig08a,
            view: |r| speedup_pivot(r, "Fig. 8(a) — speedup vs core count", Key::Config),
        },
        FigureDef {
            id: "fig08b",
            title: "Speedup vs DRAM MTPS (single core)",
            build: fig08b,
            view: |r| {
                speedup_pivot(
                    r,
                    "Fig. 8(b) — speedup vs DRAM MTPS (single core, 1 channel)",
                    Key::Config,
                )
            },
        },
        FigureDef {
            id: "fig08c",
            title: "Speedup vs LLC size (single core)",
            build: fig08c,
            view: |r| {
                speedup_pivot(
                    r,
                    "Fig. 8(c) — speedup vs LLC size (single core)",
                    Key::Config,
                )
            },
        },
        FigureDef {
            id: "fig08d",
            title: "Multi-level prefetching vs DRAM MTPS",
            build: fig08d,
            view: |r| {
                speedup_pivot(
                    r,
                    "Fig. 8(d) — multi-level prefetching vs DRAM MTPS",
                    Key::Config,
                )
            },
        },
        FigureDef {
            id: "fig09",
            title: "Single-core performance (per-suite + combination ladder)",
            build: fig09,
            view: fig09_view,
        },
        FigureDef {
            id: "fig10",
            title: "Four-core performance (per-suite + combination ladder)",
            build: fig10,
            view: fig10_view,
        },
        FigureDef {
            id: "fig11",
            title: "Bandwidth-oblivious Pythia vs basic Pythia",
            build: fig11,
            view: fig11_view,
        },
        FigureDef {
            id: "fig12",
            title: "Performance on unseen traces (single- and four-core)",
            build: fig12,
            view: fig12_view,
        },
        FigureDef {
            id: "fig14",
            title: "Ligra-CC bandwidth-bucket residency and performance",
            build: fig14,
            view: fig14_view,
        },
        FigureDef {
            id: "fig15",
            title: "Basic vs strict Pythia on the Ligra suite",
            build: fig15,
            view: fig15_view,
        },
        FigureDef {
            id: "fig16",
            title: "Basic vs feature-optimized Pythia on SPEC06",
            build: fig16,
            view: fig16_view,
        },
        FigureDef {
            id: "fig17",
            title: "Single-core s-curves",
            build: fig17,
            view: fig17_view,
        },
        FigureDef {
            id: "fig20",
            title: "Sensitivity to exploration and learning rates",
            build: fig20,
            view: fig20_view,
        },
        FigureDef {
            id: "fig21",
            title: "Pythia vs CP-HW (single-core)",
            build: fig21,
            view: |r| per_suite(r, "Fig. 21 — Pythia vs CP-HW (single-core)"),
        },
        FigureDef {
            id: "fig22",
            title: "Pythia vs POWER7-adaptive (single-core)",
            build: fig22,
            view: |r| per_suite(r, "Fig. 22 — Pythia vs POWER7-adaptive (single-core)"),
        },
        FigureDef {
            id: "fig23",
            title: "Sensitivity to warmup instructions",
            build: fig23,
            view: |r| {
                speedup_pivot(
                    r,
                    "Fig. 23 — sensitivity to warmup instructions",
                    Key::Config,
                )
            },
        },
        FigureDef {
            id: "tab02",
            title: "Hyperparameter screening grid (§4.3.3)",
            build: tab02,
            view: |r| {
                geomean_column(
                    r,
                    "Table 2 — hyperparameter screening grid (§4.3.3)",
                    "hyperparameters",
                )
            },
        },
        FigureDef {
            id: "ablation",
            title: "Ablations of Pythia design choices",
            build: ablation,
            view: |r| geomean_column(r, "Ablations of Pythia design choices", "variant"),
        },
        FigureDef {
            id: "robust01",
            title: "Robustness of every registry prefetcher across trace profiles",
            build: robust01,
            view: robustness,
        },
        FigureDef {
            id: "robust02",
            title: "Phase agility: steady vs phased pattern mixes",
            build: robust02,
            view: robustness,
        },
        FigureDef {
            id: "robust03",
            title: "Adversarial robustness under bandwidth pressure",
            build: robust03,
            view: robustness,
        },
    ]
}

/// Looks up one registered figure.
pub fn find(id: &str) -> Option<FigureDef> {
    registry().into_iter().find(|f| f.id == id)
}

/// Builds the sweep specs of one registered figure.
pub fn specs(id: &str) -> Option<Vec<SweepSpec>> {
    find(id).map(|f| (f.build)())
}

/// Builds one registered figure as a campaign (see [`FigureDef::campaign`]).
pub fn campaign(id: &str) -> Option<pythia_sweep::Campaign> {
    find(id).map(|f| f.campaign())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_figure_validates() {
        for def in registry() {
            for spec in (def.build)() {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", def.id));
                assert!(spec.cell_count() > 0, "{}: empty grid", def.id);
            }
        }
    }

    #[test]
    fn ids_are_unique_and_resolvable() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len(), "duplicate figure id");
        assert!(specs("fig09").is_some());
        assert!(specs("no-such-figure").is_none());
    }

    #[test]
    fn fig09_panels_cover_suites_and_ladder() {
        let panels = specs("fig09").unwrap();
        assert_eq!(panels.len(), 2);
        assert_eq!(panels[0].units.len(), 50, "five suites");
        assert_eq!(panels[1].prefetchers.len(), LADDER.len());
    }

    #[test]
    fn fig11_baseline_is_basic_pythia() {
        let panels = specs("fig11").unwrap();
        assert_eq!(panels[0].baseline.label, "pythia");
        assert_eq!(panels[0].configs.len(), 7);
    }

    #[test]
    fn every_figure_plans_each_distinct_simulation_once() {
        // fig09's panels share 50 Pythia cells, fig10's one and fig20's
        // five; every other figure repeats no simulation.
        let expected = [
            ("fig01", 24),
            ("fig07", 250),
            ("fig08a", 240),
            ("fig08b", 420),
            ("fig08c", 240),
            ("fig08d", 128),
            ("fig09", 500),
            ("fig10", 156),
            ("fig11", 112),
            ("fig12", 60),
            ("fig14", 6),
            ("fig15", 39),
            ("fig16", 112),
            ("fig17", 250),
            ("fig20", 75),
            ("fig21", 150),
            ("fig22", 150),
            ("fig23", 125),
            ("tab02", 260),
            ("ablation", 60),
            ("robust01", 342),
            ("robust02", 35),
            ("robust03", 240),
        ];
        let reg = registry();
        assert_eq!(reg.len(), expected.len());
        let mut total = 0;
        for (def, (id, jobs)) in reg.iter().zip(expected) {
            assert_eq!(def.id, id);
            let plan = pythia_sweep::plan_campaign(def.id, &(def.build)()).expect("plans");
            let keys: std::collections::HashSet<u64> =
                plan.jobs().iter().map(|job| job.key()).collect();
            assert_eq!(keys.len(), plan.job_count(), "{id}: two jobs share a key");
            assert_eq!(plan.job_count(), jobs, "{id}");
            total += jobs;
        }
        assert_eq!(total, 3_974);
    }

    #[test]
    fn tab02_grid_has_one_variant_per_hyper_point() {
        let panels = specs("tab02").unwrap();
        assert_eq!(panels[0].prefetchers.len(), exponential_grid(4).len());
    }

    #[test]
    fn robust_campaigns_cover_profiles() {
        let panels = specs("robust01").unwrap();
        assert_eq!(panels.len(), 1);
        let groups: std::collections::BTreeSet<&str> =
            panels[0].units.iter().map(|u| u.group.as_str()).collect();
        for g in ["expected", "stress", "adversarial"] {
            assert!(groups.contains(g), "missing group {g}");
        }
        assert!(
            panels[0].prefetchers.iter().any(|p| p.label == "pythia"),
            "registry sweep must include pythia"
        );
        // The reference group leads in spec order so the robustness table
        // scores against it.
        assert_eq!(panels[0].units[0].group, "expected");
        assert_eq!(specs("robust02").unwrap()[0].units[0].group, "steady");
        assert_eq!(specs("robust03").unwrap()[0].configs.len(), 4);
    }

    #[test]
    fn fig12_groups_by_category() {
        let panels = specs("fig12").unwrap();
        assert!(panels[0].units.iter().any(|u| u.group == "crypto"));
        assert_eq!(panels[1].units.len(), 4, "one mix per category");
        assert!(panels[1].units.iter().all(|u| u.cores() == 4));
    }
}
