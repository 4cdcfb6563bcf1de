//! Named workloads grouped into the paper's suites (Table 6) plus the
//! unseen CVP-2-like categories of §6.4, and multi-programmed mix
//! construction (§5.1).

use crate::generators::{PatternKind, TraceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A workload suite (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 (16 workloads in the paper).
    Spec06,
    /// SPEC CPU2017 (12 workloads).
    Spec17,
    /// PARSEC 2.1 (5 workloads).
    Parsec,
    /// Ligra graph processing (13 workloads).
    Ligra,
    /// Cloudsuite (4 workloads).
    Cloudsuite,
    /// The unseen CVP-2-like traces of §6.4 (not used for tuning).
    CvpUnseen,
}

impl Suite {
    /// Every suite, in Table 6 order and then the unseen traces.
    pub const ALL: [Suite; 6] = [
        Suite::Spec06,
        Suite::Spec17,
        Suite::Parsec,
        Suite::Ligra,
        Suite::Cloudsuite,
        Suite::CvpUnseen,
    ];

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Suite::Spec06 => "SPEC06",
            Suite::Spec17 => "SPEC17",
            Suite::Parsec => "PARSEC",
            Suite::Ligra => "Ligra",
            Suite::Cloudsuite => "Cloudsuite",
            Suite::CvpUnseen => "CVP-unseen",
        }
    }
}

/// A named workload: a suite plus the spec that generates its trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (paper-style, e.g. `"459.GemsFDTD-1320B"`).
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Generator spec.
    pub spec: TraceSpec,
}

impl Workload {
    /// A workload of `kind` from `seed`, with the [`TraceSpec::new`] defaults.
    pub fn new(suite: Suite, name: &str, kind: PatternKind, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            suite,
            spec: TraceSpec::new(kind).with_seed(seed),
        }
    }

    /// Generates the trace with `instructions` instructions, materialized
    /// as a `Vec` (prefer [`source`](Workload::source) on memory-bound
    /// paths).
    pub fn trace(&self, instructions: usize) -> Vec<pythia_sim::trace::TraceRecord> {
        self.spec.generate(instructions)
    }

    /// Opens a streaming [`TraceSource`](pythia_sim::trace::TraceSource)
    /// generating `instructions` instructions on demand — the same record
    /// sequence as [`trace`](Workload::trace) without materializing it.
    pub fn source(&self, instructions: usize) -> Box<dyn pythia_sim::trace::TraceSource> {
        self.spec.source(instructions)
    }
}

/// Graph workload helper: Ligra kernels differ in frontier density and
/// degree; heavier kernels consume more bandwidth.
fn graph(vertices: u64, degree: u32) -> PatternKind {
    PatternKind::IrregularGraph {
        vertices,
        avg_degree: degree,
    }
}

/// The SPEC CPU2006-like suite (16 workloads).
pub fn spec06() -> Vec<Workload> {
    use PatternKind::*;
    let s = Suite::Spec06;
    vec![
        Workload::new(s, "401.gcc-13B", CloudMix { hot_pct: 60 }, 101),
        Workload::new(s, "429.mcf-184B", PointerChase, 102),
        Workload::new(
            s,
            "436.cactusADM-97B",
            DeltaChain {
                deltas: vec![2, 5, 2, 5],
            },
            103,
        ),
        Workload::new(s, "470.lbm-164B", Stream { store_every: 2 }, 104),
        Workload::new(s, "450.soplex-66B", Stride { lines: 3 }, 105),
        Workload::new(
            s,
            "459.GemsFDTD-765B",
            PageVisit {
                offsets: vec![0, 23],
            },
            106,
        ),
        Workload::new(
            s,
            "459.GemsFDTD-1320B",
            PageVisit {
                offsets: vec![0, 23, 34, 45],
            },
            107,
        ),
        Workload::new(s, "462.libquantum-714B", Stream { store_every: 0 }, 108),
        Workload::new(
            s,
            "482.sphinx3-417B",
            SpatialFootprint {
                patterns: vec![vec![0, 1, 2, 5, 9], vec![3, 4, 8, 15]],
                noise_pct: 10,
            },
            109,
        ),
        Workload::new(s, "433.milc-337B", Stride { lines: 8 }, 110),
        Workload::new(
            s,
            "437.leslie3d-134B",
            DeltaChain {
                deltas: vec![1, 1, 3],
            },
            111,
        ),
        Workload::new(s, "410.bwaves-1963B", Stream { store_every: 4 }, 112),
        Workload::new(s, "471.omnetpp-188B", PointerChase, 113),
        Workload::new(s, "473.astar-153B", PointerChase, 114),
        Workload::new(s, "483.xalancbmk-736B", CloudMix { hot_pct: 40 }, 115),
        Workload::new(
            s,
            "481.wrf-1212B",
            DeltaChain {
                deltas: vec![4, 4, 4, 1],
            },
            116,
        ),
    ]
}

/// The SPEC CPU2017-like suite (12 workloads).
pub fn spec17() -> Vec<Workload> {
    use PatternKind::*;
    let s = Suite::Spec17;
    vec![
        Workload::new(s, "602.gcc_s-734B", CloudMix { hot_pct: 55 }, 201),
        Workload::new(s, "605.mcf_s-665B", PointerChase, 202),
        Workload::new(
            s,
            "628.pop2_s-17B",
            DeltaChain {
                deltas: vec![2, 2, 7],
            },
            203,
        ),
        Workload::new(s, "649.fotonik3d_s-1176B", Stream { store_every: 3 }, 204),
        Workload::new(s, "654.roms_s-842B", Stride { lines: 2 }, 205),
        Workload::new(
            s,
            "627.cam4_s-573B",
            DeltaChain {
                deltas: vec![1, 5, 1, 5],
            },
            206,
        ),
        Workload::new(s, "619.lbm_s-4268B", Stream { store_every: 2 }, 207),
        Workload::new(s, "620.omnetpp_s-874B", PointerChase, 208),
        Workload::new(s, "623.xalancbmk_s-592B", CloudMix { hot_pct: 35 }, 209),
        Workload::new(s, "625.x264_s-39B", Stride { lines: 5 }, 210),
        Workload::new(
            s,
            "607.cactuBSSN_s-2421B",
            DeltaChain {
                deltas: vec![3, 3, 10],
            },
            211,
        ),
        Workload::new(
            s,
            "621.wrf_s-575B",
            DeltaChain {
                deltas: vec![6, 1, 1],
            },
            212,
        ),
    ]
}

/// The PARSEC-2.1-like suite (5 workloads).
pub fn parsec() -> Vec<Workload> {
    use PatternKind::*;
    let s = Suite::Parsec;
    vec![
        Workload::new(
            s,
            "PARSEC-Canneal",
            SpatialFootprint {
                patterns: vec![vec![0, 2, 11], vec![1, 7, 19, 25]],
                noise_pct: 25,
            },
            301,
        ),
        Workload::new(
            s,
            "PARSEC-Facesim",
            SpatialFootprint {
                patterns: vec![
                    (0..14).collect(),
                    vec![16, 17, 18, 19, 20, 21, 22, 23, 24, 25],
                ],
                noise_pct: 5,
            },
            302,
        ),
        Workload::new(s, "PARSEC-Raytrace", PointerChase, 303),
        Workload::new(s, "PARSEC-Streamcluster", Stream { store_every: 5 }, 304),
        Workload::new(
            s,
            "PARSEC-Fluidanimate",
            DeltaChain {
                deltas: vec![1, 2, 1, 2, 8],
            },
            305,
        ),
    ]
}

/// The Ligra-like graph suite (13 workloads). Graph kernels are
/// bandwidth-hungry: large footprints and high neighbour fan-out.
pub fn ligra() -> Vec<Workload> {
    let s = Suite::Ligra;
    let names: [(&str, u64, u32); 13] = [
        ("Ligra-PageRank", 2_000_000, 16),
        ("Ligra-CF", 1_500_000, 12),
        ("Ligra-PageRankDelta", 2_000_000, 14),
        ("Ligra-CC", 2_500_000, 16),
        ("Ligra-BellmanFord", 1_200_000, 10),
        ("Ligra-Triangle", 800_000, 24),
        ("Ligra-Radii", 1_000_000, 12),
        ("Ligra-MIS", 900_000, 10),
        ("Ligra-BFS-Bitvector", 1_600_000, 8),
        ("Ligra-BFSCC", 1_800_000, 10),
        ("Ligra-BFS", 1_600_000, 6),
        ("Ligra-BC", 1_400_000, 12),
        ("Ligra-KCore", 1_100_000, 18),
    ];
    names
        .iter()
        .enumerate()
        .map(|(i, (name, v, d))| {
            let mut w = Workload::new(s, name, graph(*v, *d), 400 + i as u64);
            // Graph kernels are memory-bound: raise intensity and footprint.
            w.spec.mem_pct = 45;
            w.spec.footprint_pages = 64 * 1024;
            w
        })
        .collect()
}

/// The Cloudsuite-like suite (4 workloads).
pub fn cloudsuite() -> Vec<Workload> {
    use PatternKind::*;
    let s = Suite::Cloudsuite;
    vec![
        Workload::new(s, "cassandra", CloudMix { hot_pct: 30 }, 501),
        Workload::new(s, "cloud9", CloudMix { hot_pct: 20 }, 502),
        Workload::new(s, "nutch", CloudMix { hot_pct: 45 }, 503),
        Workload::new(s, "classification", CloudMix { hot_pct: 15 }, 504),
    ]
}

/// The unseen CVP-2-like categories of §6.4. Seeds and parameter points are
/// disjoint from the tuning suites.
pub fn cvp_unseen() -> Vec<Workload> {
    use PatternKind::*;
    let s = Suite::CvpUnseen;
    vec![
        Workload::new(s, "crypto-1", Stride { lines: 7 }, 601),
        Workload::new(s, "crypto-2", DeltaChain { deltas: vec![9, 2] }, 602),
        Workload::new(s, "int-1", CloudMix { hot_pct: 50 }, 603),
        Workload::new(s, "int-2", PointerChase, 604),
        Workload::new(s, "fp-1", Stream { store_every: 3 }, 605),
        Workload::new(
            s,
            "fp-2",
            DeltaChain {
                deltas: vec![2, 2, 2, 13],
            },
            606,
        ),
        Workload::new(s, "server-1", CloudMix { hot_pct: 25 }, 607),
        Workload::new(
            s,
            "server-2",
            Phased {
                phases: vec![CloudMix { hot_pct: 30 }, Stream { store_every: 4 }],
                phase_len: 5_000,
            },
            608,
        ),
    ]
}

/// Returns the workloads of one suite.
pub fn suite(which: Suite) -> Vec<Workload> {
    match which {
        Suite::Spec06 => spec06(),
        Suite::Spec17 => spec17(),
        Suite::Parsec => parsec(),
        Suite::Ligra => ligra(),
        Suite::Cloudsuite => cloudsuite(),
        Suite::CvpUnseen => cvp_unseen(),
    }
}

/// Every tuning suite (the 50 workloads of Table 6; excludes the unseen
/// set).
pub fn all_suites() -> Vec<Workload> {
    let mut v = spec06();
    v.extend(spec17());
    v.extend(parsec());
    v.extend(ligra());
    v.extend(cloudsuite());
    v
}

/// Builds `n`-core multi-programmed mixes per §5.1: `homogeneous` runs `n`
/// copies of each workload; heterogeneous mixes draw `n` random distinct
/// workloads. `count` is the number of heterogeneous mixes.
pub fn mixes(n: usize, count: usize, seed: u64) -> Vec<(String, Vec<Workload>)> {
    let pool = all_suites();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    // Representative homogeneous mixes: one per suite archetype.
    for name in [
        "462.libquantum-714B",
        "429.mcf-184B",
        "Ligra-PageRank",
        "PARSEC-Facesim",
    ] {
        if let Some(w) = pool.iter().find(|w| w.name == name) {
            let copies: Vec<Workload> = (0..n)
                .map(|i| {
                    let mut c = w.clone();
                    c.spec.seed += i as u64 * 7919;
                    c
                })
                .collect();
            out.push((format!("homo-{name}"), copies));
        }
    }
    // Heterogeneous mixes.
    for m in 0..count {
        let mut chosen = Vec::new();
        while chosen.len() < n {
            let w = &pool[rng.gen_range(0..pool.len())];
            chosen.push(w.clone());
        }
        out.push((format!("mix-{m}"), chosen));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_workload_counts() {
        assert_eq!(spec06().len(), 16);
        assert_eq!(spec17().len(), 12);
        assert_eq!(parsec().len(), 5);
        assert_eq!(ligra().len(), 13);
        assert_eq!(cloudsuite().len(), 4);
        assert_eq!(all_suites().len(), 50, "Table 6 lists 50 workloads");
    }

    #[test]
    fn workload_names_unique() {
        let all = all_suites();
        let names: std::collections::HashSet<_> = all.iter().map(|w| &w.name).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn seeds_unique_across_workloads() {
        let all = all_suites();
        let seeds: std::collections::HashSet<_> = all.iter().map(|w| w.spec.seed).collect();
        assert_eq!(seeds.len(), all.len());
    }

    #[test]
    fn traces_generate_and_are_memory_intensive() {
        for w in [&spec06()[1], &ligra()[0], &cloudsuite()[0]] {
            let t = w.trace(10_000);
            assert_eq!(t.len(), 10_000);
            let mems = t.iter().filter(|r| r.mem.is_some()).count();
            assert!(mems * 5 > t.len(), "{}: too few memory ops", w.name);
        }
    }

    #[test]
    fn mixes_have_n_traces_each() {
        let ms = mixes(4, 3, 42);
        assert!(!ms.is_empty());
        for (name, ws) in &ms {
            assert_eq!(ws.len(), 4, "{name}");
        }
        // Heterogeneous mixes requested: 3, plus 4 homogeneous.
        assert_eq!(ms.len(), 7);
    }

    #[test]
    fn mixes_deterministic_by_seed() {
        let a: Vec<String> = mixes(2, 5, 7).into_iter().map(|(n, _)| n).collect();
        let b: Vec<String> = mixes(2, 5, 7).into_iter().map(|(n, _)| n).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn unseen_suite_disjoint_from_tuning_suites() {
        let tuning: std::collections::HashSet<_> =
            all_suites().iter().map(|w| w.spec.seed).collect();
        for w in cvp_unseen() {
            assert!(
                !tuning.contains(&w.spec.seed),
                "{} reuses a tuning seed",
                w.name
            );
        }
    }

    #[test]
    fn suite_labels() {
        assert_eq!(Suite::Spec06.label(), "SPEC06");
        assert_eq!(Suite::CvpUnseen.label(), "CVP-unseen");
    }
}
