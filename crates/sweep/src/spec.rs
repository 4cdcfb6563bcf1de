//! The declarative side of the engine: [`SweepSpec`] and its axes.

use pythia::runner::{build_prefetcher, RunSpec};
use pythia_core::PythiaConfig;
use pythia_sim::config::SystemConfig;
use pythia_workloads::{suite, Suite, Workload};

/// One unit of work: a single workload (single-core cell) or an `n`-core
/// multi-programmed mix (one workload per core).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Display label (the workload name, or a mix label like `"homo-mcf"`).
    pub label: String,
    /// Grouping key used by aggregations: the suite label for single
    /// workloads, or a category like `"crypto"` for the unseen traces.
    pub group: String,
    /// The workloads, one per core.
    pub workloads: Vec<Workload>,
}

impl WorkUnit {
    /// A single-core unit for one workload (group = its suite label).
    pub fn single(w: Workload) -> Self {
        Self {
            label: w.name.clone(),
            group: w.suite.label().to_string(),
            workloads: vec![w],
        }
    }

    /// An explicit mix with a label and group.
    pub fn mix(label: &str, group: &str, workloads: Vec<Workload>) -> Self {
        Self {
            label: label.to_string(),
            group: group.to_string(),
            workloads,
        }
    }

    /// A homogeneous `n`-copy mix of one workload, de-correlating the
    /// copies by stepping each copy's trace seed by `seed_stride` (the §5.1
    /// homogeneous-mix construction).
    pub fn homogeneous(w: &Workload, n: usize, seed_stride: u64) -> Self {
        let copies: Vec<Workload> = (0..n)
            .map(|i| {
                let mut c = w.clone();
                c.spec.seed = c.spec.seed.wrapping_add(i as u64 * seed_stride);
                c
            })
            .collect();
        Self {
            label: format!("homo-{}", w.name),
            group: w.suite.label().to_string(),
            workloads: copies,
        }
    }

    /// Number of cores this unit needs.
    pub fn cores(&self) -> usize {
        self.workloads.len()
    }
}

/// How a cell's prefetcher is built.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefetcherKind {
    /// A name resolvable by [`pythia::runner::build_prefetcher`] (registry
    /// baselines plus the `pythia*` runner variants).
    Named(String),
    /// An inline Pythia configuration — the ablation / DSE / customization
    /// axis (§4.3, §6.6), one agent instance per core.
    Pythia(PythiaConfig),
}

/// A labelled prefetcher axis entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetcherSpec {
    /// Display label (the name, or an ablation label like `"1 plane"`).
    pub label: String,
    /// Build recipe.
    pub kind: PrefetcherKind,
}

impl PrefetcherSpec {
    /// A registry prefetcher, labelled by its name.
    pub fn named(name: &str) -> Self {
        Self {
            label: name.to_string(),
            kind: PrefetcherKind::Named(name.to_string()),
        }
    }

    /// An inline Pythia variant.
    pub fn pythia(label: &str, config: PythiaConfig) -> Self {
        Self {
            label: label.to_string(),
            kind: PrefetcherKind::Pythia(config),
        }
    }
}

/// A labelled system configuration plus instruction budgets — one point on
/// the swept system axis (core count, DRAM MTPS, LLC size, warmup length).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigPoint {
    /// Display label (e.g. `"600 MTPS"`, `"4 cores"`, `"base"`).
    pub label: String,
    /// The simulated system.
    pub system: SystemConfig,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
}

impl ConfigPoint {
    /// A labelled point from explicit parts.
    pub fn new(label: &str, system: SystemConfig, warmup: u64, measure: u64) -> Self {
        Self {
            label: label.to_string(),
            system,
            warmup,
            measure,
        }
    }

    /// A single-core point with the default system.
    pub fn single_core(label: &str, warmup: u64, measure: u64) -> Self {
        Self::new(label, SystemConfig::single_core(), warmup, measure)
    }

    /// A labelled point from a [`RunSpec`].
    pub fn from_run_spec(label: &str, spec: &RunSpec) -> Self {
        Self::new(label, spec.system, spec.warmup, spec.measure)
    }

    /// The equivalent [`RunSpec`].
    pub fn run_spec(&self) -> RunSpec {
        RunSpec {
            system: self.system,
            warmup: self.warmup,
            measure: self.measure,
        }
    }
}

/// A declarative experiment campaign: the full grid of
/// *(units × configs × prefetchers × seeds)* cells, plus the baseline every
/// cell's metrics are computed against.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name (becomes the `sweep` column of every cell).
    pub name: String,
    /// Work units (workloads or mixes).
    pub units: Vec<WorkUnit>,
    /// Prefetcher axis.
    pub prefetchers: Vec<PrefetcherSpec>,
    /// System-configuration axis.
    pub configs: Vec<ConfigPoint>,
    /// The baseline prefetcher (usually `"none"`; Fig. 11 uses `"pythia"`).
    pub baseline: PrefetcherSpec,
    /// Seed offsets added to every workload's trace seed — a replication
    /// axis for variance studies. `[0]` (the default) runs each cell once
    /// with the workload's canonical seed.
    pub seeds: Vec<u64>,
}

impl SweepSpec {
    /// An empty spec with baseline `"none"` and the single canonical seed.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            units: Vec::new(),
            prefetchers: Vec::new(),
            configs: Vec::new(),
            baseline: PrefetcherSpec::named("none"),
            seeds: vec![0],
        }
    }

    /// Adds every workload of the given suites as single-core units.
    pub fn with_suites(mut self, suites: &[Suite]) -> Self {
        for s in suites {
            self.units
                .extend(suite(*s).into_iter().map(WorkUnit::single));
        }
        self
    }

    /// Adds single-core units from an iterator of workloads.
    pub fn with_workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.units
            .extend(workloads.into_iter().map(WorkUnit::single));
        self
    }

    /// Adds pre-built units (mixes or singles).
    pub fn with_units(mut self, units: impl IntoIterator<Item = WorkUnit>) -> Self {
        self.units.extend(units);
        self
    }

    /// Adds named prefetchers.
    pub fn with_prefetchers(mut self, names: &[&str]) -> Self {
        self.prefetchers
            .extend(names.iter().map(|n| PrefetcherSpec::named(n)));
        self
    }

    /// Adds one inline Pythia variant.
    pub fn with_pythia_variant(mut self, label: &str, config: PythiaConfig) -> Self {
        self.prefetchers.push(PrefetcherSpec::pythia(label, config));
        self
    }

    /// Adds one configuration point.
    pub fn with_config(mut self, config: ConfigPoint) -> Self {
        self.configs.push(config);
        self
    }

    /// Adds several configuration points.
    pub fn with_configs(mut self, configs: impl IntoIterator<Item = ConfigPoint>) -> Self {
        self.configs.extend(configs);
        self
    }

    /// Overrides the baseline prefetcher (by name).
    pub fn with_baseline(mut self, name: &str) -> Self {
        self.baseline = PrefetcherSpec::named(name);
        self
    }

    /// Overrides the seed-offset axis.
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Number of measured grid cells.
    pub fn cell_count(&self) -> usize {
        self.units.len() * self.prefetchers.len() * self.configs.len() * self.seeds.len()
    }

    /// Validates the grid before execution.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: an empty axis, a system
    /// configuration that fails [`SystemConfig::validate`], an empty
    /// measured phase, a core count mismatch between a unit and a config,
    /// an unresolvable prefetcher name, or a duplicated prefetcher label.
    pub fn validate(&self) -> Result<(), String> {
        if self.units.is_empty() {
            return Err(format!("sweep {:?}: no work units", self.name));
        }
        if self.prefetchers.is_empty() {
            return Err(format!("sweep {:?}: no prefetchers", self.name));
        }
        if self.configs.is_empty() {
            return Err(format!("sweep {:?}: no config points", self.name));
        }
        if self.seeds.is_empty() {
            return Err(format!("sweep {:?}: no seeds", self.name));
        }
        for cp in &self.configs {
            let at = |e: String| format!("sweep {:?}: config {:?}: {e}", self.name, cp.label);
            cp.system.validate().map_err(at)?;
            if cp.measure == 0 {
                return Err(at(
                    "measure: a measured phase needs at least one instruction".into(),
                ));
            }
            for u in &self.units {
                if u.cores() != cp.system.cores {
                    return Err(format!(
                        "sweep {:?}: unit {:?} has {} workload(s) but config {:?} simulates {} core(s)",
                        self.name,
                        u.label,
                        u.cores(),
                        cp.label,
                        cp.system.cores
                    ));
                }
            }
        }
        let mut labels = std::collections::BTreeSet::new();
        for p in self
            .prefetchers
            .iter()
            .chain(std::iter::once(&self.baseline))
        {
            if !labels.insert(p.label.as_str()) {
                return Err(format!(
                    "sweep {:?}: duplicate prefetcher label {:?}",
                    self.name, p.label
                ));
            }
            if let PrefetcherKind::Named(name) = &p.kind {
                if build_prefetcher(name, 0).is_none() {
                    return Err(format!(
                        "sweep {:?}: unknown prefetcher {name:?}",
                        self.name
                    ));
                }
            }
            if let PrefetcherKind::Pythia(cfg) = &p.kind {
                cfg.validate()
                    .map_err(|e| format!("sweep {:?}: variant {:?}: {e}", self.name, p.label))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_workloads::all_suites;

    fn one_workload() -> Workload {
        all_suites()
            .into_iter()
            .find(|w| w.name == "429.mcf-184B")
            .expect("known workload")
    }

    #[test]
    fn builder_produces_a_valid_grid() {
        let spec = SweepSpec::new("t")
            .with_workloads([one_workload()])
            .with_prefetchers(&["stride", "spp"])
            .with_config(ConfigPoint::single_core("base", 1_000, 4_000));
        assert!(spec.validate().is_ok());
        assert_eq!(spec.cell_count(), 2);
        let plan = crate::engine::plan_campaign("t", std::slice::from_ref(&spec)).expect("plans");
        assert_eq!(plan.job_count(), 3, "one shared baseline run");
    }

    #[test]
    fn validation_rejects_empty_axes_and_bad_names() {
        let empty = SweepSpec::new("t");
        assert!(empty.validate().unwrap_err().contains("no work units"));

        let spec = SweepSpec::new("t")
            .with_workloads([one_workload()])
            .with_prefetchers(&["no-such-prefetcher"])
            .with_config(ConfigPoint::single_core("base", 1_000, 4_000));
        assert!(spec.validate().unwrap_err().contains("unknown prefetcher"));
    }

    #[test]
    fn validation_rejects_core_count_mismatch() {
        let w = one_workload();
        let spec = SweepSpec::new("t")
            .with_units([WorkUnit::homogeneous(&w, 4, 7919)])
            .with_prefetchers(&["stride"])
            .with_config(ConfigPoint::single_core("base", 1_000, 4_000));
        let err = spec.validate().unwrap_err();
        assert!(err.contains("4 workload(s)"), "{err}");
    }

    #[test]
    fn validation_rejects_duplicate_labels() {
        let spec = SweepSpec::new("t")
            .with_workloads([one_workload()])
            .with_prefetchers(&["stride", "stride"])
            .with_config(ConfigPoint::single_core("base", 1_000, 4_000));
        assert!(spec.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn homogeneous_mixes_decorrelate_seeds() {
        let w = one_workload();
        let unit = WorkUnit::homogeneous(&w, 4, 7919);
        assert_eq!(unit.cores(), 4);
        let seeds: Vec<u64> = unit.workloads.iter().map(|w| w.spec.seed).collect();
        assert_eq!(seeds[1] - seeds[0], 7919);
        assert!(unit.label.starts_with("homo-"));
    }
}
