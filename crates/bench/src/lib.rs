//! # pythia-bench
//!
//! The experiment harness: the [`figures`] registry holds, for every
//! table/figure of the paper, the campaign it runs (as
//! [`pythia_sweep::SweepSpec`]s) and the view that renders the result as
//! the rows/series the paper reports, computed on the synthetic workload
//! suites. `pythia-cli sweep <figure>` is the one renderer, and
//! `pythia-cli dse` runs the §4.3 search one campaign per round. One
//! binary remains in `src/bin/` because it is a procedure, not a campaign:
//! `fig13_qvalue_case_study` probes an agent directly.
//!
//! Instruction budgets are scaled-down from the paper's 100 M + 500 M
//! (synthetic patterns reach steady state much sooner); set
//! `PYTHIA_BENCH_SCALE` (a positive float, default 1.0) to scale every
//! budget, e.g. `PYTHIA_BENCH_SCALE=0.2` for a quick pass or `4` for a
//! long one. Invalid values are reported on stderr and ignored.
//! Machine-readable output comes from `pythia-cli sweep <figure> --format
//! {md,json,csv}`.

pub mod figures;

/// Budget classes used by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Headline single-core figures (7, 9, 17): longer training.
    Headline,
    /// Parameter sweeps (8, 11, 14–16, 20–23).
    Sweep,
    /// Multi-core runs (per-core budget).
    MultiCore,
}

/// Parses `PYTHIA_BENCH_SCALE` (a positive float scaling every
/// instruction budget and benchmark fixture, default 1.0), warning (once)
/// on garbage instead of silently falling back. Shared by the figure
/// harnesses and the `pythia-perf` microbenchmark fixtures so one knob
/// scales both.
pub fn scale() -> f64 {
    static WARNED: std::sync::Once = std::sync::Once::new();
    match std::env::var("PYTHIA_BENCH_SCALE") {
        Err(_) => 1.0,
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => v,
            _ => {
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: PYTHIA_BENCH_SCALE={raw:?} is not a positive number; \
                         using the default scale 1.0"
                    );
                });
                1.0
            }
        },
    }
}

/// Returns `(warmup, measure)` instructions for a budget class, scaled by
/// the `PYTHIA_BENCH_SCALE` environment variable.
pub fn budget(kind: Budget) -> (u64, u64) {
    let scale = scale();
    let (w, m) = match kind {
        Budget::Headline => (200_000u64, 800_000u64),
        // The RL agent needs ~200 K instructions of burn-in before its
        // policy settles (Fig. 23); sweeps warm up at least that long.
        Budget::Sweep => (200_000, 600_000),
        // Per-core budget. The warmup must cover the RL agent's burn-in
        // (~200 K instructions, Fig. 23): multi-core mixes run closer to
        // bus saturation, where leftover exploration traffic is punishing.
        Budget::MultiCore => (200_000, 400_000),
    };
    (
        ((w as f64 * scale) as u64).max(1_000),
        ((m as f64 * scale) as u64).max(4_000),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests touching `PYTHIA_BENCH_SCALE` serialize on this lock; the
    /// variable is process-global and tests run concurrently.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn budgets_scale_with_env() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("PYTHIA_BENCH_SCALE", "0.5");
        let (w, m) = budget(Budget::Sweep);
        assert_eq!(w, 100_000);
        assert_eq!(m, 300_000);

        // Garbage values warn (once) and fall back to 1.0 — not silently
        // to a half-applied scale.
        std::env::set_var("PYTHIA_BENCH_SCALE", "fast-please");
        let (w, m) = budget(Budget::Sweep);
        assert_eq!((w, m), (200_000, 600_000));
        std::env::set_var("PYTHIA_BENCH_SCALE", "-2");
        let (w, m) = budget(Budget::Sweep);
        assert_eq!((w, m), (200_000, 600_000));

        std::env::remove_var("PYTHIA_BENCH_SCALE");
        let (w2, m2) = budget(Budget::Sweep);
        assert_eq!((w2, m2), (200_000, 600_000));
    }

    #[test]
    fn headline_budget_largest() {
        let _guard = ENV_LOCK.lock().unwrap();
        let (_, mh) = budget(Budget::Headline);
        let (_, ms) = budget(Budget::Sweep);
        let (_, mc) = budget(Budget::MultiCore);
        assert!(mh > ms && ms >= mc);
    }
}
