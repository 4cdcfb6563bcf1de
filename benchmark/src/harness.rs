//! What every workload shares: the repetition count rule, the host-speed
//! calibration, host probes, and the assembly of the five end-to-end metrics.

use std::time::Instant;

use crate::metrics::{Layers, Row, END_TO_END};
use crate::stats::{highest_percentile, median, Summary};

/// Fewest repetitions a workload may have. Each workload's count is a
/// constant beside its definition, the same on every commit: a workload is a
/// fixed amount of work, never a fixed duration.
pub const MIN_REPS: usize = 40;

/// Iterations of the timed loop of a workload of `reps` repetitions. With
/// `--trace 1` every iteration runs an untraced and then a traced repetition,
/// so host drift hits both alike, and the one amount of work is split between
/// them.
pub fn iterations(reps: usize, traced: bool) -> usize {
    if traced {
        reps / 2
    } else {
        reps
    }
}

/// The host-speed probe: a fixed kernel of the benchmark's own — a dependent
/// random walk with branchy integer mixing over a table far larger than the
/// private caches — timed between repetitions, at most once per
/// [`SAMPLE_EVERY_S`] of measured work.
///
/// This shared host switches, for seconds to minutes at a time, into a mode
/// in which memory-bound code runs up to 40 % slower (neighbours contending
/// for the last-level cache and DRAM). The simulator and this kernel slow
/// down together: over ten runs their medians correlate at 0.92–0.99 with a
/// log-log slope near 1 (see the README). Dividing a repetition's wall time
/// by the slowdown measured around it removes most of that, which no
/// statistic over the repetitions alone can do once a whole run sits in the
/// slow mode.
pub struct Calibration {
    table: Vec<u32>,
    state: u64,
    /// The latest sample.
    last: f64,
}

impl Calibration {
    const ENTRIES: usize = 1 << 23;
    const STEPS: usize = 300_000;
    /// The table's resident size; [`peak_rss_mb`] leaves it out.
    const TABLE_BYTES: usize = Self::ENTRIES * std::mem::size_of::<u32>();
    /// Wall seconds of one run of the kernel on the reference host in its
    /// fast mode: the speed every host-time metric is normalised to.
    const REFERENCE_S: f64 = 0.0068;

    pub fn new() -> Self {
        let mut calibration = Self {
            table: (0..Self::ENTRIES as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            state: 0x9e37_79b9_7f4a_7c15,
            last: 1.0,
        };
        calibration.run();
        calibration
    }

    /// Runs the kernel once and returns the host's slowdown: the kernel's
    /// wall time as a multiple of [`REFERENCE_S`](Self::REFERENCE_S).
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize % Self::ENTRIES];
            if *slot & 1 == 0 {
                acc = acc.wrapping_add(u64::from(*slot));
                *slot = slot.wrapping_add(3);
            } else {
                acc ^= u64::from(*slot) << 7;
                *slot = slot.rotate_left(5) | 1;
                if acc & 0x30 == 0 {
                    *slot ^= 1;
                }
            }
        }
        self.state = std::hint::black_box(x ^ acc);
        self.last = started.elapsed().as_secs_f64() / Self::REFERENCE_S;
        self.last
    }

    /// The slowdown around whatever ran since the latest sample: the mean of
    /// that sample and a new one.
    pub fn around(&mut self) -> f64 {
        let before = self.last;
        (before + self.run()) / 2.0
    }
}

/// Set-up time and its parts, in wall seconds.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    pub fixtures_s: f64,
    pub baseline_s: f64,
    pub warmup_s: f64,
    /// From `main` of the workload's process to the first timed repetition.
    pub total_s: f64,
    /// The same time piece by piece, each piece divided by the host slowdown
    /// around it: `setup_s`.
    pub normalised_s: f64,
}

impl Setup {
    /// Closes the piece of set-up that began at `since`: samples the host's
    /// speed and adds the piece's wall time divided by the slowdown around
    /// it. Returns the start of the next piece.
    pub fn piece_done(&mut self, since: Instant, calibration: &mut Calibration) -> Instant {
        let wall_s = since.elapsed().as_secs_f64();
        self.normalised_s += wall_s / calibration.around();
        Instant::now()
    }
}

/// Measured seconds between two samples of the host's speed. A simulator
/// repetition is longer, so it has a sample on either side; the service's
/// 30–45 ms repetitions share one among six to nine, so that the kernel's
/// 7 ms and the cache lines it evicts stay under 3 % of what is measured.
const SAMPLE_EVERY_S: f64 = 0.25;

/// Host-time samples of the timed repetitions (the untraced ones).
#[derive(Debug)]
pub struct Pass {
    /// Wall seconds of each repetition.
    pub rep_s: Vec<f64>,
    /// Host slowdown around each repetition: the mean of the calibration
    /// runs before and after the block of repetitions it belongs to.
    pub slowdown: Vec<f64>,
    /// Repetition and wall seconds of each operation.
    pub op_s: Vec<(usize, f64)>,
    /// Process CPU seconds and wall seconds over the loop.
    pub cpu_s: f64,
    pub wall_s: f64,
    started: Instant,
    /// Seconds of repetitions since the latest calibration run.
    unsampled_s: f64,
}

impl Pass {
    /// Starts the clocks of the timed loop, with a first sample of the
    /// host's speed.
    pub fn start(calibration: &mut Calibration) -> Self {
        calibration.run();
        Self {
            rep_s: Vec::new(),
            slowdown: Vec::new(),
            op_s: Vec::new(),
            cpu_s: process_cpu_s(),
            wall_s: 0.0,
            started: Instant::now(),
            unsampled_s: 0.0,
        }
    }

    /// Records one timed repetition and samples the host's speed when due.
    pub fn rep_done(&mut self, rep_s: f64, calibration: &mut Calibration) {
        self.rep_s.push(rep_s);
        self.unsampled_s += rep_s;
        if self.unsampled_s >= SAMPLE_EVERY_S {
            self.sample(calibration);
        }
    }

    fn sample(&mut self, calibration: &mut Calibration) {
        let slowdown = calibration.around();
        self.slowdown.resize(self.rep_s.len(), slowdown);
        self.unsampled_s = 0.0;
    }

    /// Stops the clocks; every repetition then has its slowdown.
    pub fn stop(&mut self, calibration: &mut Calibration) {
        if self.slowdown.len() < self.rep_s.len() {
            self.sample(calibration);
        }
        self.wall_s = self.started.elapsed().as_secs_f64();
        self.cpu_s = process_cpu_s() - self.cpu_s;
    }
}

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}")).unwrap_or_default()
}

/// User + system CPU seconds of this process (`/proc/self/stat`, 100 Hz ticks).
fn process_cpu_s() -> f64 {
    let stat = proc_self("stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`), without the
/// calibration table: it is the benchmark's, not the program's, and it is
/// resident from before the first simulation to the end.
pub fn peak_rss_mb() -> f64 {
    let hwm_kb = proc_self("status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    (hwm_kb - (Calibration::TABLE_BYTES / 1024) as f64) / 1024.0
}

fn host_threads() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// The five end-to-end rows, in [`END_TO_END`] order, plus the harness rows
/// that explain them. Host times are divided by the host slowdown measured
/// around them; the `host.raw_*` rows keep the wall-clock values.
/// `inst_per_rep` is the simulated instructions (warm-up + measured, all
/// cores, all cells) of one repetition.
pub fn end_to_end(
    setup: &Setup,
    pass: &Pass,
    inst_per_rep: u64,
    sim_speedup: f64,
    layers: &mut Layers,
    notes: &mut Vec<String>,
) -> Vec<Row> {
    let minst: Vec<f64> = pass
        .rep_s
        .iter()
        .zip(&pass.slowdown)
        .map(|(s, slow)| inst_per_rep as f64 / (s / slow) / 1e6)
        .collect();
    let minst = Summary::of(&minst);
    let op_ms: Vec<f64> = pass
        .op_s
        .iter()
        .map(|&(rep, s)| s / pass.slowdown[rep] * 1e3)
        .collect();
    let op = Summary::of(&op_ms);
    if let Some((p, v)) = highest_percentile(&op_ms) {
        notes.push(format!(
            "op latency p{p} = {v:.4} ms over {} operations",
            op.n
        ));
    }
    let rep = Summary::of(&pass.rep_s);
    let slowdown = median(&pass.slowdown);
    layers.set("host.slowdown", slowdown);
    layers.set("host.raw_rep_s", rep.median);
    layers.set("host.raw_setup_s", setup.total_s);
    layers.set("host.rep_iqr_over_median", rep.iqr_over_median());
    layers.set("host.cpu_util", pass.cpu_s / pass.wall_s / host_threads());
    layers.set("setup.fixtures_s", setup.fixtures_s);
    layers.set("setup.baseline_s", setup.baseline_s);
    layers.set("setup.warmup_s", setup.warmup_s);
    layers.set("reps", pass.rep_s.len() as f64);
    notes.push(format!(
        "timed region {:.2} s, {} repetitions of median {:.4} s wall at host slowdown {slowdown:.3}",
        pass.wall_s, rep.n, rep.median
    ));
    let values = [
        (setup.normalised_s, None),
        (minst.median, Some(minst)),
        (op.median, Some(op)),
        (peak_rss_mb(), None),
        (sim_speedup, None),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), (value, spread))| Row {
            name,
            unit,
            value,
            spread,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn a_traced_run_splits_the_same_work_between_the_two_kinds() {
        assert_eq!(iterations(61, false), 61);
        assert_eq!(iterations(61, true), 30);
    }

    #[test]
    fn the_host_is_sampled_once_per_block_of_short_repetitions() {
        let mut c = Calibration::new();
        let mut pass = Pass::start(&mut c);
        // Long repetitions get a sample each.
        pass.rep_done(SAMPLE_EVERY_S, &mut c);
        assert_eq!(pass.slowdown.len(), 1);
        // Short ones wait for a full block, and share its sample.
        pass.rep_done(SAMPLE_EVERY_S * 0.4, &mut c);
        pass.rep_done(SAMPLE_EVERY_S * 0.4, &mut c);
        assert_eq!(pass.slowdown.len(), 1);
        pass.rep_done(SAMPLE_EVERY_S * 0.4, &mut c);
        assert_eq!(pass.slowdown.len(), 4);
        assert_eq!(pass.slowdown[1], pass.slowdown[3]);
        // The last, partial block is sampled when the loop stops.
        pass.rep_done(SAMPLE_EVERY_S * 0.4, &mut c);
        pass.stop(&mut c);
        assert_eq!((pass.rep_s.len(), pass.slowdown.len()), (5, 5));
        assert!(pass.wall_s > 0.0);
    }

    #[test]
    fn set_up_adds_up_its_pieces_each_over_its_own_slowdown() {
        let mut c = Calibration::new();
        let mut setup = Setup::default();
        let half_a_second_ago = Instant::now() - Duration::from_millis(500);
        let next = setup.piece_done(half_a_second_ago, &mut c);
        let first = setup.normalised_s;
        // 0.5 s of wall time over a slowdown that is near one.
        assert!(first > 0.5 / 50.0 && first < 0.6 / 0.05, "{first}");
        // The kernel's own time belongs to no piece.
        assert!(next.duration_since(half_a_second_ago) > Duration::from_millis(500));
        setup.piece_done(next, &mut c);
        assert!(setup.normalised_s > first && setup.normalised_s < first + 0.1);
    }

    #[test]
    fn host_time_is_divided_by_the_slowdown_around_it() {
        let setup = Setup {
            total_s: 6.0,
            normalised_s: 4.0,
            ..Setup::default()
        };
        // The second repetition ran on a host twice as slow: same speed.
        let pass = Pass {
            rep_s: vec![0.5, 1.0, 0.5],
            slowdown: vec![1.0, 2.0, 1.0],
            op_s: vec![(0, 0.1), (1, 0.2), (2, 0.1)],
            cpu_s: 2.0,
            wall_s: 2.0,
            started: Instant::now(),
            unsampled_s: 0.0,
        };
        let rows = end_to_end(
            &setup,
            &pass,
            1_000_000,
            1.1,
            &mut Layers::default(),
            &mut vec![],
        );
        let value = |name: &str| rows.iter().find(|r| r.name == name).expect("row").value;
        assert_eq!(value("setup_s"), 4.0);
        assert_eq!(value("sim_minst_per_s"), 2.0);
        assert!((value("op_p50_ms") - 100.0).abs() < 1e-9);
        let spread = rows[1].spread.expect("host-time rows carry quartiles");
        assert_eq!((spread.q1, spread.q3, spread.n), (2.0, 2.0, 3));
    }

    #[test]
    fn calibration_reports_a_slowdown_near_one() {
        let mut c = Calibration::new();
        let slowdowns: Vec<f64> = (0..5).map(|_| c.run()).collect();
        assert!(
            slowdowns.iter().all(|&s| s > 0.05 && s < 50.0),
            "{slowdowns:?}"
        );
    }

    #[test]
    fn host_probes_read_this_process() {
        // The table is resident once the kernel has run over it.
        Calibration::new().run();
        let rss = peak_rss_mb();
        assert!(rss > 0.5, "{rss}");
        let before = process_cpu_s();
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() - before >= 0.03);
    }
}
