//! Robustness trace profiles: parameterized synthetic access-stream
//! bundles that deliberately stress the prefetchers beyond the paper's
//! pattern mix.
//!
//! Three profiles, in rising order of hostility:
//!
//! * [`Profile::Expected`] — paper-like single-pattern workloads, one per
//!   major pattern class. The reference point robustness deltas are
//!   measured against.
//! * [`Profile::Stress`] — phase changes mid-trace, fine-grain
//!   multi-program-style interference, and reward-starving sparse reuse.
//! * [`Profile::Adversarial`] — prefetch-hostile pointer-chase
//!   interleaves, footprint thrash, spatial-noise poisoning, and
//!   mispredict storms.
//!
//! Every trace seed is derived from a base seed and a textual label via
//! [`derive_seed`], so `derive_seed(seed, "adversarial")` names the same
//! stream forever while distinct profiles draw uncorrelated streams.
//! [`trace_stats`] summarizes any workload (access counts, distinct-line
//! coverage ratio, a windowed phase map) through the `pythia-stats` JSON
//! layer, and [`profile_stats`] bundles a whole profile.

use std::collections::HashSet;

use pythia_sim::addr::LINES_PER_PAGE;
use pythia_stats::json::Json;

use crate::generators::PatternKind;
use crate::suites::{Suite, Workload};

/// Base seed the `robust01`–`robust03` campaigns derive their per-profile
/// seeds from. Fixed so campaign results are reproducible byte-for-byte.
pub const CAMPAIGN_SEED: u64 = 0xb0b;

/// Number of windows in a [`trace_stats`] phase map.
pub const PHASE_MAP_WINDOWS: usize = 16;

/// A robustness profile: a named bundle of trace specs with a shared
/// hostility level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Paper-like single-pattern workloads (the reference point).
    Expected,
    /// Phase changes, interference, reward-starving sparse reuse.
    Stress,
    /// Prefetch-hostile chases, footprint thrash, mispredict storms.
    Adversarial,
}

impl Profile {
    /// All profiles, in reference-first order (campaigns score the other
    /// two against `Expected`).
    pub fn all() -> [Profile; 3] {
        [Profile::Expected, Profile::Stress, Profile::Adversarial]
    }

    /// The profile's canonical name (also its seed-derivation label and
    /// sweep group).
    pub fn label(&self) -> &'static str {
        match self {
            Profile::Expected => "expected",
            Profile::Stress => "stress",
            Profile::Adversarial => "adversarial",
        }
    }

    /// Parses a profile name as typed on the CLI.
    pub fn parse(name: &str) -> Option<Profile> {
        Profile::all().into_iter().find(|p| p.label() == name)
    }

    /// One-line description for help text and reports.
    pub fn description(&self) -> &'static str {
        match self {
            Profile::Expected => "paper-like single-pattern mixes (reference point)",
            Profile::Stress => "phase changes, interference, sparse reuse",
            Profile::Adversarial => "pointer-chase interleaves, thrash, mispredict storms",
        }
    }

    /// The profile's workloads, with per-trace seeds derived from
    /// `derive_seed(derive_seed(seed, label), trace_name)` so each trace
    /// draws its own stable stream.
    pub fn workloads(&self, seed: u64) -> Vec<Workload> {
        let profile_seed = derive_seed(seed, self.label());
        let unit = |name: &str, kind: PatternKind| -> Workload {
            let full = format!("{}-{}", &self.label()[..3], name);
            Workload::new(
                Suite::CvpUnseen,
                &full,
                kind,
                derive_seed(profile_seed, name),
            )
        };
        use PatternKind::*;
        match self {
            Profile::Expected => vec![
                unit("stream", Stream { store_every: 3 }),
                unit("stride", Stride { lines: 4 }),
                unit(
                    "spatial",
                    SpatialFootprint {
                        patterns: vec![vec![0, 1, 2, 5, 9], vec![3, 4, 8, 15]],
                        noise_pct: 10,
                    },
                ),
                unit(
                    "delta",
                    DeltaChain {
                        deltas: vec![2, 5, 2, 5],
                    },
                ),
                {
                    let mut w = unit(
                        "graph",
                        IrregularGraph {
                            vertices: 1_000_000,
                            avg_degree: 12,
                        },
                    );
                    w.spec.mem_pct = 45;
                    w.spec.footprint_pages = 64 * 1024;
                    w
                },
                unit("server", CloudMix { hot_pct: 30 }),
            ],
            Profile::Stress => vec![
                // Coarse phase changes: the prefetcher must unlearn a whole
                // pattern class mid-trace.
                unit(
                    "phase-flip",
                    Phased {
                        phases: vec![
                            Stream { store_every: 0 },
                            PointerChase,
                            Stride { lines: -3 },
                        ],
                        phase_len: 2_000,
                    },
                ),
                // Rapid churn between a learnable chain and server noise.
                unit(
                    "phase-churn",
                    Phased {
                        phases: vec![
                            DeltaChain {
                                deltas: vec![1, 1, 3],
                            },
                            CloudMix { hot_pct: 10 },
                        ],
                        phase_len: 500,
                    },
                ),
                // Fine-grain interleave emulating multi-program
                // interference on one core: three unrelated streams
                // alternate every 64 accesses.
                unit(
                    "interference",
                    Phased {
                        phases: vec![
                            Stream { store_every: 2 },
                            CloudMix { hot_pct: 20 },
                            Stride { lines: 7 },
                        ],
                        phase_len: 64,
                    },
                ),
                // Reward-starving sparse reuse: a huge footprint with no
                // hot set, so prefetch rewards almost never arrive.
                {
                    let mut w = unit("sparse-reuse", CloudMix { hot_pct: 0 });
                    w.spec.footprint_pages = 128 * 1024;
                    w.spec.accesses_per_line = 1;
                    w
                },
                // A long-period delta drift that overflows pages often.
                unit(
                    "drift",
                    DeltaChain {
                        deltas: vec![1, 1, 1, 29],
                    },
                ),
                // Many lagging companion sweeps per page: stresses
                // prefetch timeliness.
                unit(
                    "companion-storm",
                    PageVisit {
                        offsets: vec![0, 9, 17, 25, 33, 41, 49, 57],
                    },
                ),
            ],
            Profile::Adversarial => vec![
                // Pure dependent chains: nothing is predictable from the
                // address stream.
                {
                    let mut w = unit("chase", PointerChase);
                    w.spec.accesses_per_line = 1;
                    w.spec.mem_pct = 40;
                    w
                },
                // Prefetch-hostile chase interleave: the streamable phase
                // baits aggressive degrees right before the chase punishes
                // them.
                unit(
                    "chase-interleave",
                    Phased {
                        phases: vec![PointerChase, Stream { store_every: 0 }],
                        phase_len: 128,
                    },
                ),
                // Footprint thrash: uniform traffic over 1 GB, every line
                // touched once.
                {
                    let mut w = unit("thrash", CloudMix { hot_pct: 0 });
                    w.spec.footprint_pages = 256 * 1024;
                    w.spec.accesses_per_line = 1;
                    w.spec.mem_pct = 60;
                    w
                },
                // Mispredict storm: branch-heavy server traffic with 40%
                // mispredicts.
                {
                    let mut w = unit("mispredict-storm", CloudMix { hot_pct: 15 });
                    w.spec.branch_pct = 30;
                    w.spec.mispredict_pct = 40;
                    w
                },
                // Spatial poisoning: 90% of region visits deviate, so
                // footprint learners never converge.
                unit(
                    "spatial-poison",
                    SpatialFootprint {
                        patterns: vec![vec![0, 3, 7, 12], vec![2, 9, 21]],
                        noise_pct: 90,
                    },
                ),
                // Conflicting delta dialects swapped every 200 accesses:
                // delta predictors keep relearning the wrong table.
                unit(
                    "delta-flip",
                    Phased {
                        phases: vec![
                            DeltaChain { deltas: vec![2, 5] },
                            DeltaChain {
                                deltas: vec![-3, 7],
                            },
                            DeltaChain {
                                deltas: vec![1, -6, 11],
                            },
                        ],
                        phase_len: 200,
                    },
                ),
            ],
        }
    }
}

/// Derives a child seed from a base seed and a textual label (FNV-1a over
/// the label, folded into the base): same `(seed, label)` names the same
/// stream forever, distinct labels draw uncorrelated streams.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x0100_0000_01b3);
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Summarizes one workload's trace: access counts, distinct-line coverage
/// ratio against the declared footprint, and a [`PHASE_MAP_WINDOWS`]-window
/// phase map (per-window access counts, distinct lines, and lines never
/// seen before the window — phase changes show up as `new_lines` spikes).
pub fn trace_stats(w: &Workload, instructions: usize) -> Json {
    let instructions = instructions.max(1);
    let window_len = (instructions / PHASE_MAP_WINDOWS).max(1);
    let mut seen: HashSet<u64> = HashSet::new();
    let (mut mem, mut loads, mut stores, mut branches, mut mispredicts, mut dependents) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut windows: Vec<Json> = Vec::new();
    let (mut w_start, mut w_mem, mut w_new) = (0usize, 0u64, 0u64);
    let mut w_lines: HashSet<u64> = HashSet::new();
    let flush = |start: usize, mem: u64, new: u64, lines: &mut HashSet<u64>| -> Json {
        let j = Json::obj()
            .set("start_record", start)
            .set("accesses", mem)
            .set("distinct_lines", lines.len())
            .set("new_lines", new);
        lines.clear();
        j
    };
    for (i, r) in w.spec.stream(instructions).enumerate() {
        if i > w_start && i % window_len == 0 && windows.len() < PHASE_MAP_WINDOWS {
            windows.push(flush(w_start, w_mem, w_new, &mut w_lines));
            (w_start, w_mem, w_new) = (i, 0, 0);
        }
        if let Some(m) = r.mem {
            mem += 1;
            w_mem += 1;
            let line = m.addr / 64;
            if seen.insert(line) {
                w_new += 1;
            }
            w_lines.insert(line);
            if r.is_store() {
                stores += 1;
            } else {
                loads += 1;
            }
            if r.depends_on_prev_load {
                dependents += 1;
            }
        }
        if let Some(b) = r.branch {
            branches += 1;
            if b.mispredicted {
                mispredicts += 1;
            }
        }
    }
    windows.push(flush(w_start, w_mem, w_new, &mut w_lines));
    let footprint_lines = w.spec.footprint_pages * LINES_PER_PAGE;
    Json::obj()
        .set("name", w.name.as_str())
        .set("suite", w.suite.label())
        .set("seed", w.spec.seed)
        .set("instructions", instructions)
        .set("mem_accesses", mem)
        .set("loads", loads)
        .set("stores", stores)
        .set("branches", branches)
        .set("mispredicts", mispredicts)
        .set("dependent_loads", dependents)
        .set("distinct_lines", seen.len())
        .set("footprint_lines", footprint_lines)
        .set("coverage_ratio", seen.len() as f64 / footprint_lines as f64)
        .set("phase_map", Json::Arr(windows))
}

/// Summarizes a whole profile: the profile envelope plus [`trace_stats`]
/// for each of its workloads.
pub fn profile_stats(p: Profile, seed: u64, instructions: usize) -> Json {
    let traces: Vec<Json> = p
        .workloads(seed)
        .iter()
        .map(|w| trace_stats(w, instructions))
        .collect();
    Json::obj()
        .set("profile", p.label())
        .set("description", p.description())
        .set("base_seed", seed)
        .set("derived_seed", derive_seed(seed, p.label()))
        .set("traces", Json::Arr(traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::addr::PAGE_SIZE;

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        assert_eq!(derive_seed(1, "adversarial"), derive_seed(1, "adversarial"));
        assert_ne!(derive_seed(1, "adversarial"), derive_seed(1, "expected"));
        assert_ne!(derive_seed(1, "adversarial"), derive_seed(2, "adversarial"));
    }

    #[test]
    fn profiles_deterministic_by_seed() {
        for p in Profile::all() {
            assert_eq!(p.workloads(7), p.workloads(7), "{}", p.label());
            assert_ne!(p.workloads(7), p.workloads(8), "{}", p.label());
        }
    }

    #[test]
    fn profile_names_and_seeds_unique() {
        let all: Vec<Workload> = Profile::all()
            .iter()
            .flat_map(|p| p.workloads(CAMPAIGN_SEED))
            .collect();
        let names: HashSet<_> = all.iter().map(|w| &w.name).collect();
        let seeds: HashSet<_> = all.iter().map(|w| w.spec.seed).collect();
        assert_eq!(names.len(), all.len());
        assert_eq!(seeds.len(), all.len());
    }

    #[test]
    fn profiles_respect_declared_footprints() {
        for p in Profile::all() {
            for w in p.workloads(CAMPAIGN_SEED) {
                let base = (w.spec.seed % 1024 + 1) * 0x1_0000_0000;
                let bound = w.spec.footprint_pages * PAGE_SIZE;
                for r in w.trace(20_000) {
                    if let Some(m) = r.mem {
                        let off = m.addr - base;
                        assert!(off < bound, "{}: access outside footprint", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn parse_round_trips_labels() {
        for p in Profile::all() {
            assert_eq!(Profile::parse(p.label()), Some(p));
        }
        assert_eq!(Profile::parse("bogus"), None);
    }

    #[test]
    fn trace_stats_summarizes_coverage_and_phases() {
        let w = &Profile::Stress.workloads(CAMPAIGN_SEED)[0];
        let j = trace_stats(w, 20_000);
        let ratio = j.get("coverage_ratio").and_then(Json::as_f64).unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio={ratio}");
        let phases = j.get("phase_map").and_then(Json::as_arr).unwrap();
        assert_eq!(phases.len(), PHASE_MAP_WINDOWS);
        let total: u64 = phases
            .iter()
            .map(|p| p.get("accesses").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(
            total,
            j.get("mem_accesses").and_then(Json::as_u64).unwrap(),
            "phase map must partition the access stream"
        );
        // The emitted JSON must survive the in-repo parser (CI pipes it
        // through a JSON tool).
        let parsed = pythia_stats::json::parse(&j.render_pretty()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn profile_stats_bundles_all_traces() {
        let j = profile_stats(Profile::Adversarial, CAMPAIGN_SEED, 5_000);
        let traces = j.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(
            traces.len(),
            Profile::Adversarial.workloads(CAMPAIGN_SEED).len()
        );
        assert_eq!(j.get("profile").and_then(Json::as_str), Some("adversarial"));
    }
}
