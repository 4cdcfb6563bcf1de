//! Canonical spec codec + content digest.
//!
//! A [`SweepSpec`] (and a multi-panel [`Campaign`] of them) has exactly one
//! canonical serialized form: a [`Json`] tree with fixed key order, rendered
//! compactly. Identical campaigns therefore hash identically, which makes
//! campaign results content-addressable — the foundation of the
//! `pythia-serve` result cache and the one-shot `--cache-dir` path.
//!
//! Invariants the tests pin:
//!
//! * **Fixed point** — `encode → parse → encode` reproduces the same bytes,
//!   and the decoded spec equals the original (`PartialEq`).
//! * **Injectivity in practice** — every figure-registry campaign digests
//!   to a distinct value.
//!
//! Numbers ride the [`Json::Num`] `f64` carrier, which is exact for
//! integers up to 2^53; the few `u64` fields that can exceed that (seeds)
//! are encoded as decimal strings beyond 2^53, and the
//! decoder accepts both forms.

use pythia_core::{ControlFlow, DataFlow, Feature, PythiaConfig, RewardLevels, VaultCombine};
use pythia_sim::cache::ReplacementKind;
use pythia_sim::config::{CacheConfig, CoreConfig, DramConfig, SystemConfig};
use pythia_stats::json::{parse, u64_json, u64_value, Json};
use pythia_workloads::{PatternKind, Suite, TraceSpec, Workload};

use crate::spec::{ConfigPoint, PrefetcherKind, PrefetcherSpec, SweepSpec, WorkUnit};

/// FNV-1a 64-bit hash (the repo's standard content digest, shared with the
/// golden-report pins).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// PatternKind / TraceSpec / Workload / WorkUnit
// ---------------------------------------------------------------------------

fn pattern_json(kind: &PatternKind) -> Json {
    let byte_arr = |v: &[u8]| Json::Arr(v.iter().map(|&b| u64::from(b).into()).collect());
    match kind {
        PatternKind::Stream { store_every } => Json::obj()
            .set("t", "stream")
            .set("store_every", u64::from(*store_every)),
        PatternKind::Stride { lines } => Json::obj()
            .set("t", "stride")
            .set("lines", Json::Num(f64::from(*lines))),
        PatternKind::PageVisit { offsets } => Json::obj()
            .set("t", "page-visit")
            .set("offsets", byte_arr(offsets)),
        PatternKind::SpatialFootprint {
            patterns,
            noise_pct,
        } => Json::obj()
            .set("t", "spatial-footprint")
            .set(
                "patterns",
                Json::Arr(patterns.iter().map(|p| byte_arr(p)).collect()),
            )
            .set("noise_pct", u64::from(*noise_pct)),
        PatternKind::DeltaChain { deltas } => Json::obj().set("t", "delta-chain").set(
            "deltas",
            Json::Arr(deltas.iter().map(|&d| Json::Num(f64::from(d))).collect()),
        ),
        PatternKind::IrregularGraph {
            vertices,
            avg_degree,
        } => Json::obj()
            .set("t", "irregular-graph")
            .set("vertices", u64_json(*vertices))
            .set("avg_degree", u64::from(*avg_degree)),
        PatternKind::PointerChase => Json::obj().set("t", "pointer-chase"),
        PatternKind::CloudMix { hot_pct } => Json::obj()
            .set("t", "cloud-mix")
            .set("hot_pct", u64::from(*hot_pct)),
        PatternKind::Phased { phases, phase_len } => Json::obj()
            .set("t", "phased")
            .set(
                "phases",
                Json::Arr(phases.iter().map(pattern_json).collect()),
            )
            .set("phase_len", u64::from(*phase_len)),
    }
}

fn bytes_from(j: &Json, key: &str) -> Result<Vec<u8>, String> {
    bytes_values(j.arr_field(key)?).map_err(|e| format!("key {key:?}: {e}"))
}

fn bytes_values(items: &[Json]) -> Result<Vec<u8>, String> {
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= 255.0)
                .map(|n| n as u8)
                .ok_or_else(|| "expected byte values".to_string())
        })
        .collect()
}

fn pattern_from(j: &Json) -> Result<PatternKind, String> {
    Ok(match j.str_field("t")? {
        "stream" => PatternKind::Stream {
            store_every: j.uint_field("store_every")?,
        },
        "stride" => PatternKind::Stride {
            lines: j.int_field("lines")?,
        },
        "page-visit" => PatternKind::PageVisit {
            offsets: bytes_from(j, "offsets")?,
        },
        "spatial-footprint" => PatternKind::SpatialFootprint {
            patterns: j
                .arr_field("patterns")?
                .iter()
                .map(|p| {
                    p.as_arr()
                        .ok_or_else(|| "patterns: expected arrays".to_string())
                        .and_then(bytes_values)
                })
                .collect::<Result<_, _>>()?,
            noise_pct: j.uint_field("noise_pct")?,
        },
        "delta-chain" => PatternKind::DeltaChain {
            deltas: j
                .arr_field("deltas")?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|n| n.fract() == 0.0 && (-128.0..=127.0).contains(n))
                        .map(|n| n as i8)
                        .ok_or_else(|| "deltas: expected i8 values".to_string())
                })
                .collect::<Result<_, _>>()?,
        },
        "irregular-graph" => PatternKind::IrregularGraph {
            vertices: j.uint_field("vertices")?,
            avg_degree: j.uint_field("avg_degree")?,
        },
        "pointer-chase" => PatternKind::PointerChase,
        "cloud-mix" => PatternKind::CloudMix {
            hot_pct: j.uint_field("hot_pct")?,
        },
        "phased" => PatternKind::Phased {
            phases: j
                .arr_field("phases")?
                .iter()
                .map(pattern_from)
                .collect::<Result<_, _>>()?,
            phase_len: j.uint_field("phase_len")?,
        },
        other => return Err(format!("unknown pattern kind {other:?}")),
    })
}

fn trace_spec_json(s: &TraceSpec) -> Json {
    Json::obj()
        .set("name", s.name.as_str())
        .set("kind", pattern_json(&s.kind))
        .set("instructions", s.instructions)
        .set("mem_pct", u64::from(s.mem_pct))
        .set("footprint_pages", u64_json(s.footprint_pages))
        .set("branch_pct", u64::from(s.branch_pct))
        .set("mispredict_pct", u64::from(s.mispredict_pct))
        .set("accesses_per_line", u64::from(s.accesses_per_line))
        .set("seed", u64_json(s.seed))
}

fn trace_spec_from(j: &Json) -> Result<TraceSpec, String> {
    Ok(TraceSpec {
        name: j.str_field("name")?.to_string(),
        kind: pattern_from(j.field("kind")?)?,
        instructions: j.uint_field("instructions")?,
        mem_pct: j.uint_field("mem_pct")?,
        footprint_pages: j.uint_field("footprint_pages")?,
        branch_pct: j.uint_field("branch_pct")?,
        mispredict_pct: j.uint_field("mispredict_pct")?,
        accesses_per_line: j.uint_field("accesses_per_line")?,
        seed: j.uint_field("seed")?,
    })
}

fn suite_label(s: Suite) -> &'static str {
    s.label()
}

fn suite_from(label: &str) -> Result<Suite, String> {
    Ok(match label {
        "SPEC06" => Suite::Spec06,
        "SPEC17" => Suite::Spec17,
        "PARSEC" => Suite::Parsec,
        "Ligra" => Suite::Ligra,
        "Cloudsuite" => Suite::Cloudsuite,
        "CVP-unseen" => Suite::CvpUnseen,
        other => return Err(format!("unknown suite {other:?}")),
    })
}

fn workload_json(w: &Workload) -> Json {
    Json::obj()
        .set("name", w.name.as_str())
        .set("suite", suite_label(w.suite))
        .set("spec", trace_spec_json(&w.spec))
}

fn workload_from(j: &Json) -> Result<Workload, String> {
    Ok(Workload {
        name: j.str_field("name")?.to_string(),
        suite: suite_from(j.str_field("suite")?)?,
        spec: trace_spec_from(j.field("spec")?)?,
    })
}

fn unit_json(u: &WorkUnit) -> Json {
    Json::obj()
        .set("label", u.label.as_str())
        .set("group", u.group.as_str())
        .set(
            "workloads",
            Json::Arr(u.workloads.iter().map(workload_json).collect()),
        )
}

fn unit_from(j: &Json) -> Result<WorkUnit, String> {
    Ok(WorkUnit {
        label: j.str_field("label")?.to_string(),
        group: j.str_field("group")?.to_string(),
        workloads: j
            .arr_field("workloads")?
            .iter()
            .map(workload_from)
            .collect::<Result<_, _>>()?,
    })
}

// ---------------------------------------------------------------------------
// PythiaConfig / PrefetcherSpec
// ---------------------------------------------------------------------------

fn control_label(c: ControlFlow) -> &'static str {
    match c {
        ControlFlow::Pc => "pc",
        ControlFlow::PcPath => "pc-path",
        ControlFlow::PcXorBranchPc => "pc-xor-branch-pc",
        ControlFlow::None => "none",
    }
}

fn control_from(s: &str) -> Result<ControlFlow, String> {
    Ok(match s {
        "pc" => ControlFlow::Pc,
        "pc-path" => ControlFlow::PcPath,
        "pc-xor-branch-pc" => ControlFlow::PcXorBranchPc,
        "none" => ControlFlow::None,
        other => return Err(format!("unknown control flow {other:?}")),
    })
}

fn data_label(d: DataFlow) -> &'static str {
    match d {
        DataFlow::CachelineAddress => "cacheline-address",
        DataFlow::PageNumber => "page-number",
        DataFlow::PageOffset => "page-offset",
        DataFlow::Delta => "delta",
        DataFlow::LastFourOffsets => "last-four-offsets",
        DataFlow::LastFourDeltas => "last-four-deltas",
        DataFlow::OffsetXorDelta => "offset-xor-delta",
        DataFlow::None => "none",
    }
}

fn data_from(s: &str) -> Result<DataFlow, String> {
    Ok(match s {
        "cacheline-address" => DataFlow::CachelineAddress,
        "page-number" => DataFlow::PageNumber,
        "page-offset" => DataFlow::PageOffset,
        "delta" => DataFlow::Delta,
        "last-four-offsets" => DataFlow::LastFourOffsets,
        "last-four-deltas" => DataFlow::LastFourDeltas,
        "offset-xor-delta" => DataFlow::OffsetXorDelta,
        "none" => DataFlow::None,
        other => return Err(format!("unknown data flow {other:?}")),
    })
}

fn pythia_config_json(c: &PythiaConfig) -> Json {
    Json::obj()
        .set(
            "features",
            Json::Arr(
                c.features
                    .iter()
                    .map(|f| {
                        Json::obj()
                            .set("control", control_label(f.control))
                            .set("data", data_label(f.data))
                    })
                    .collect(),
            ),
        )
        .set(
            "actions",
            Json::Arr(c.actions.iter().map(|&a| Json::Num(f64::from(a))).collect()),
        )
        .set(
            "rewards",
            Json::obj()
                .set("accurate_timely", f64::from(c.rewards.accurate_timely))
                .set("accurate_late", f64::from(c.rewards.accurate_late))
                .set("coverage_loss", f64::from(c.rewards.coverage_loss))
                .set(
                    "inaccurate_high_bw",
                    f64::from(c.rewards.inaccurate_high_bw),
                )
                .set("inaccurate_low_bw", f64::from(c.rewards.inaccurate_low_bw))
                .set(
                    "no_prefetch_high_bw",
                    f64::from(c.rewards.no_prefetch_high_bw),
                )
                .set(
                    "no_prefetch_low_bw",
                    f64::from(c.rewards.no_prefetch_low_bw),
                ),
        )
        .set("alpha", f64::from(c.alpha))
        .set("gamma", f64::from(c.gamma))
        .set("epsilon", f64::from(c.epsilon))
        .set("eq_size", c.eq_size)
        .set("planes", c.planes)
        .set("plane_index_bits", u64::from(c.plane_index_bits))
        .set(
            "vault_combine",
            match c.vault_combine {
                VaultCombine::Max => "max",
                VaultCombine::Mean => "mean",
            },
        )
        .set(
            "q_init_override",
            match c.q_init_override {
                Some(q) => Json::Num(f64::from(q)),
                None => Json::Null,
            },
        )
        .set("graded_timeliness", c.graded_timeliness)
        .set("seed", u64_json(c.seed))
}

fn pythia_config_from(j: &Json) -> Result<PythiaConfig, String> {
    let rewards = j.field("rewards")?;
    Ok(PythiaConfig {
        features: j
            .arr_field("features")?
            .iter()
            .map(|f| {
                Ok(Feature {
                    control: control_from(f.str_field("control")?)?,
                    data: data_from(f.str_field("data")?)?,
                })
            })
            .collect::<Result<_, String>>()?,
        actions: j
            .arr_field("actions")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .filter(|n| n.fract() == 0.0 && n.abs() <= f64::from(i32::MAX))
                    .map(|n| n as i32)
                    .ok_or_else(|| "actions: expected i32 values".to_string())
            })
            .collect::<Result<_, _>>()?,
        rewards: RewardLevels {
            accurate_timely: rewards.int_field("accurate_timely")?,
            accurate_late: rewards.int_field("accurate_late")?,
            coverage_loss: rewards.int_field("coverage_loss")?,
            inaccurate_high_bw: rewards.int_field("inaccurate_high_bw")?,
            inaccurate_low_bw: rewards.int_field("inaccurate_low_bw")?,
            no_prefetch_high_bw: rewards.int_field("no_prefetch_high_bw")?,
            no_prefetch_low_bw: rewards.int_field("no_prefetch_low_bw")?,
        },
        alpha: j.f32_field("alpha")?,
        gamma: j.f32_field("gamma")?,
        epsilon: j.f32_field("epsilon")?,
        eq_size: j.uint_field("eq_size")?,
        planes: j.uint_field("planes")?,
        plane_index_bits: j.uint_field("plane_index_bits")?,
        vault_combine: match j.str_field("vault_combine")? {
            "max" => VaultCombine::Max,
            "mean" => VaultCombine::Mean,
            other => return Err(format!("unknown vault_combine {other:?}")),
        },
        q_init_override: match j.field("q_init_override")? {
            Json::Null => None,
            _ => Some(j.f32_field("q_init_override")?),
        },
        graded_timeliness: j.bool_field("graded_timeliness")?,
        seed: j.uint_field("seed")?,
    })
}

fn prefetcher_json(p: &PrefetcherSpec) -> Json {
    let out = Json::obj().set("label", p.label.as_str());
    match &p.kind {
        PrefetcherKind::Named(name) => out.set("named", name.as_str()),
        PrefetcherKind::Pythia(cfg) => out.set("pythia", pythia_config_json(cfg)),
    }
}

fn prefetcher_from(j: &Json) -> Result<PrefetcherSpec, String> {
    let label = j.str_field("label")?.to_string();
    let kind = match (j.get("named"), j.get("pythia")) {
        (Some(_), None) => PrefetcherKind::Named(j.str_field("named")?.to_string()),
        (None, Some(cfg)) => PrefetcherKind::Pythia(pythia_config_from(cfg)?),
        _ => {
            return Err(format!(
                "prefetcher {label:?}: exactly one of \"named\"/\"pythia\" required"
            ))
        }
    };
    Ok(PrefetcherSpec { label, kind })
}

// ---------------------------------------------------------------------------
// SystemConfig / ConfigPoint
// ---------------------------------------------------------------------------

fn cache_json(c: &CacheConfig) -> Json {
    Json::obj()
        .set("size_bytes", u64_json(c.size_bytes))
        .set("ways", c.ways)
        .set("latency", u64_json(c.latency))
        .set("mshrs", c.mshrs)
        .set(
            "replacement",
            match c.replacement {
                ReplacementKind::Lru => "lru",
                ReplacementKind::Ship => "ship",
            },
        )
}

fn cache_from(j: &Json) -> Result<CacheConfig, String> {
    Ok(CacheConfig {
        size_bytes: j.uint_field("size_bytes")?,
        ways: j.uint_field("ways")?,
        latency: j.uint_field("latency")?,
        mshrs: j.uint_field("mshrs")?,
        replacement: match j.str_field("replacement")? {
            "lru" => ReplacementKind::Lru,
            "ship" => ReplacementKind::Ship,
            other => return Err(format!("unknown replacement {other:?}")),
        },
    })
}

fn system_json(s: &SystemConfig) -> Json {
    Json::obj()
        .set("cores", s.cores)
        .set(
            "core",
            Json::obj()
                .set("width", u64::from(s.core.width))
                .set("rob_entries", s.core.rob_entries)
                .set("lq_entries", s.core.lq_entries)
                .set("sq_entries", s.core.sq_entries)
                .set("mispredict_penalty", u64_json(s.core.mispredict_penalty)),
        )
        .set("l1d", cache_json(&s.l1d))
        .set("l2", cache_json(&s.l2))
        .set("llc", cache_json(&s.llc))
        .set(
            "dram",
            Json::obj()
                .set("channels", s.dram.channels)
                .set("ranks_per_channel", s.dram.ranks_per_channel)
                .set("banks_per_rank", s.dram.banks_per_rank)
                .set("row_buffer_bytes", u64_json(s.dram.row_buffer_bytes))
                .set("mtps", u64_json(s.dram.mtps))
                .set("bus_bytes", u64_json(s.dram.bus_bytes))
                .set("t_rcd_tenth_ns", u64_json(s.dram.t_rcd_tenth_ns))
                .set("t_rp_tenth_ns", u64_json(s.dram.t_rp_tenth_ns))
                .set("t_cas_tenth_ns", u64_json(s.dram.t_cas_tenth_ns)),
        )
        .set(
            "bandwidth_window_cycles",
            u64_json(s.bandwidth_window_cycles),
        )
        .set("bandwidth_high_pct", u64::from(s.bandwidth_high_pct))
}

fn system_from(j: &Json) -> Result<SystemConfig, String> {
    let core = j.field("core")?;
    let dram = j.field("dram")?;
    Ok(SystemConfig {
        cores: j.uint_field("cores")?,
        core: CoreConfig {
            width: core.uint_field("width")?,
            rob_entries: core.uint_field("rob_entries")?,
            lq_entries: core.uint_field("lq_entries")?,
            sq_entries: core.uint_field("sq_entries")?,
            mispredict_penalty: core.uint_field("mispredict_penalty")?,
        },
        l1d: cache_from(j.field("l1d")?)?,
        l2: cache_from(j.field("l2")?)?,
        llc: cache_from(j.field("llc")?)?,
        dram: DramConfig {
            channels: dram.uint_field("channels")?,
            ranks_per_channel: dram.uint_field("ranks_per_channel")?,
            banks_per_rank: dram.uint_field("banks_per_rank")?,
            row_buffer_bytes: dram.uint_field("row_buffer_bytes")?,
            mtps: dram.uint_field("mtps")?,
            bus_bytes: dram.uint_field("bus_bytes")?,
            t_rcd_tenth_ns: dram.uint_field("t_rcd_tenth_ns")?,
            t_rp_tenth_ns: dram.uint_field("t_rp_tenth_ns")?,
            t_cas_tenth_ns: dram.uint_field("t_cas_tenth_ns")?,
        },
        bandwidth_window_cycles: j.uint_field("bandwidth_window_cycles")?,
        bandwidth_high_pct: j.uint_field("bandwidth_high_pct")?,
    })
}

fn config_point_json(c: &ConfigPoint) -> Json {
    Json::obj()
        .set("label", c.label.as_str())
        .set("system", system_json(&c.system))
        .set("warmup", u64_json(c.warmup))
        .set("measure", u64_json(c.measure))
}

fn config_point_from(j: &Json) -> Result<ConfigPoint, String> {
    Ok(ConfigPoint {
        label: j.str_field("label")?.to_string(),
        system: system_from(j.field("system")?)?,
        warmup: j.uint_field("warmup")?,
        measure: j.uint_field("measure")?,
    })
}

// ---------------------------------------------------------------------------
// SweepSpec / Campaign
// ---------------------------------------------------------------------------

/// Canonical JSON encoding of a [`SweepSpec`].
pub fn spec_json(s: &SweepSpec) -> Json {
    Json::obj()
        .set("name", s.name.as_str())
        .set("units", Json::Arr(s.units.iter().map(unit_json).collect()))
        .set(
            "prefetchers",
            Json::Arr(s.prefetchers.iter().map(prefetcher_json).collect()),
        )
        .set(
            "configs",
            Json::Arr(s.configs.iter().map(config_point_json).collect()),
        )
        .set("baseline", prefetcher_json(&s.baseline))
        .set(
            "seeds",
            Json::Arr(s.seeds.iter().map(|&s| u64_json(s)).collect()),
        )
}

/// Decodes a [`SweepSpec`] from its canonical JSON form.
///
/// # Errors
///
/// Returns a message naming the first missing or ill-typed key.
pub fn spec_from_json(j: &Json) -> Result<SweepSpec, String> {
    Ok(SweepSpec {
        name: j.str_field("name")?.to_string(),
        units: j
            .arr_field("units")?
            .iter()
            .map(unit_from)
            .collect::<Result<_, _>>()?,
        prefetchers: j
            .arr_field("prefetchers")?
            .iter()
            .map(prefetcher_from)
            .collect::<Result<_, _>>()?,
        configs: j
            .arr_field("configs")?
            .iter()
            .map(config_point_from)
            .collect::<Result<_, _>>()?,
        baseline: prefetcher_from(j.field("baseline")?)?,
        seeds: {
            let arr = j.arr_field("seeds")?;
            let mut out = Vec::with_capacity(arr.len());
            for (i, v) in arr.iter().enumerate() {
                out.push(u64_value(v).map_err(|e| format!("seeds[{i}]: {e}"))?);
            }
            out
        },
    })
}

/// A named, content-addressable campaign: one or more [`SweepSpec`] panels
/// executed together and merged under `name` (exactly what
/// [`crate::engine::run_all`] runs for a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Merge name of the combined result (figure id, or the panel name).
    pub name: String,
    /// The panels, in execution order.
    pub panels: Vec<SweepSpec>,
}

impl Campaign {
    /// A one-panel campaign named after its spec.
    pub fn single(spec: SweepSpec) -> Self {
        Self {
            name: spec.name.clone(),
            panels: vec![spec],
        }
    }

    /// A multi-panel campaign (a registry figure).
    pub fn new(name: &str, panels: Vec<SweepSpec>) -> Self {
        Self {
            name: name.to_string(),
            panels,
        }
    }

    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::obj().set("name", self.name.as_str()).set(
            "panels",
            Json::Arr(self.panels.iter().map(spec_json).collect()),
        )
    }

    /// Decodes a campaign from its canonical JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed key.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(Self {
            name: j.str_field("name")?.to_string(),
            panels: j
                .arr_field("panels")?
                .iter()
                .map(spec_from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The canonical serialized form: the compact rendering of
    /// [`Campaign::to_json`]. Equal campaigns produce equal bytes.
    pub fn canonical(&self) -> String {
        self.to_json().render()
    }

    /// Content digest: FNV-1a-64 of [`Campaign::canonical`], as 16 lowercase
    /// hex digits. This is the cache key and service job id.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a_64(self.canonical().as_bytes()))
    }

    /// Parses a campaign from serialized canonical text.
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first decode error.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&parse(text)?)
    }

    /// Validates every panel.
    ///
    /// # Errors
    ///
    /// Returns the first [`SweepSpec::validate`] error.
    pub fn validate(&self) -> Result<(), String> {
        if self.panels.is_empty() {
            return Err(format!("campaign {:?}: no panels", self.name));
        }
        for p in &self.panels {
            p.validate()?;
        }
        Ok(())
    }

    /// Total measured grid cells across panels.
    pub fn cell_count(&self) -> usize {
        self.panels.iter().map(SweepSpec::cell_count).sum()
    }
}

/// Is `s` a well-formed campaign digest (16 lowercase hex digits)?
pub fn is_digest(s: &str) -> bool {
    s.len() == 16
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_workloads::all_suites;

    fn sample_spec() -> SweepSpec {
        let w = all_suites()
            .into_iter()
            .find(|w| w.name == "429.mcf-184B")
            .expect("known workload");
        SweepSpec::new("codec-sample")
            .with_workloads([w])
            .with_prefetchers(&["stride", "spp"])
            .with_pythia_variant("variant", PythiaConfig::tuned())
            .with_config(ConfigPoint::single_core("base", 1_000, 4_000))
            .with_seeds(&[0, 7, u64::MAX])
    }

    #[test]
    fn encode_parse_encode_is_a_fixed_point() {
        let spec = sample_spec();
        let first = spec_json(&spec).render();
        let parsed = spec_from_json(&parse(&first).expect("valid json")).expect("decodes");
        assert_eq!(parsed, spec, "decode reproduces the value");
        assert_eq!(
            spec_json(&parsed).render(),
            first,
            "re-encode is byte-stable"
        );
    }

    /// An inline variant is outside input. Geometry that would abort the
    /// process on allocation (2^40 cells, a 2^40-entry EQ), index out of
    /// bounds in a worker (`1 << 64`) or overflow the argmax lanes
    /// (40 000 planes) decodes faithfully and is refused by validation,
    /// which names the field.
    #[test]
    fn hostile_variant_geometry_decodes_and_fails_validation() {
        type Hostile = (&'static str, fn(&mut PythiaConfig));
        let hostile: [Hostile; 4] = [
            ("plane_index_bits", |c| c.plane_index_bits = 40),
            ("plane_index_bits", |c| c.plane_index_bits = 64),
            ("eq_size", |c| c.eq_size = 1 << 40),
            ("planes", |c| c.planes = 40_000),
        ];
        for (field, set) in hostile {
            let mut cfg = PythiaConfig::tuned();
            set(&mut cfg);
            let spec = sample_spec().with_pythia_variant("hostile", cfg);
            let body = Campaign::single(spec.clone()).canonical();
            let campaign = Campaign::parse(&body).expect("decodes");
            assert_eq!(campaign.panels, [spec], "{field}: decoded as sent");
            let err = campaign.validate().expect_err(field);
            assert!(
                err.contains("variant \"hostile\"") && err.contains(field),
                "{field}: {err}"
            );
        }
    }

    #[test]
    fn campaign_digest_is_stable_and_sensitive() {
        let c = Campaign::single(sample_spec());
        let d1 = c.digest();
        assert_eq!(d1, Campaign::single(sample_spec()).digest());
        assert!(is_digest(&d1), "{d1:?}");

        let mut other = sample_spec();
        other.seeds = vec![1];
        assert_ne!(d1, Campaign::single(other).digest());

        let mut renamed = sample_spec();
        renamed.name = "codec-sample-2".into();
        assert_ne!(d1, Campaign::single(renamed).digest());
    }

    #[test]
    fn campaign_round_trips_through_text() {
        let c = Campaign::new("pair", vec![sample_spec(), sample_spec()]);
        let text = c.canonical();
        let back = Campaign::parse(&text).expect("parses");
        assert_eq!(back, c);
        assert_eq!(back.canonical(), text);
        assert_eq!(back.cell_count(), 2 * c.panels[0].cell_count());
    }

    #[test]
    fn seeds_beyond_f64_precision_survive() {
        let mut spec = sample_spec();
        spec.seeds = vec![u64::MAX, (1 << 53) + 1, 12];
        let text = spec_json(&spec).render();
        let back = spec_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.seeds, spec.seeds);
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(spec_from_json(&Json::obj()).is_err());
        let no_kind = Json::obj().set("label", "x").set("group", "g");
        assert!(unit_from(&no_kind).is_err());
        let both = Json::obj()
            .set("label", "x")
            .set("named", "spp")
            .set("pythia", pythia_config_json(&PythiaConfig::basic()));
        assert!(prefetcher_from(&both).is_err());
        assert!(pattern_from(&Json::obj().set("t", "nope")).is_err());
    }

    #[test]
    fn digest_format_guard() {
        assert!(is_digest("0123456789abcdef"));
        assert!(!is_digest("0123456789ABCDEF"));
        assert!(!is_digest("0123"));
        assert!(!is_digest("0123456789abcdeg"));
    }
}
