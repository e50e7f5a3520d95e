//! The measurement loop, the correctness ledger and the end-to-end
//! metrics every workload reports.

use crate::stats::{median, ratio, tail};
use std::time::Instant;

/// How much work each workload does per timed iteration, and how
/// thoroughly a run samples it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated horizon of each duty-cycled scenario, µs.
    pub duty_horizon_us: u64,
    /// Horizon of the naive-reference prefix, µs.
    pub duty_prefix_us: u64,
    /// SoC cycles per busy-linking iteration.
    pub busy_cycles: u64,
    /// Cycles of the busy-linking naive-reference prefix.
    pub busy_prefix_cycles: u64,
    /// Fuzzed descriptions added to the sweep grid.
    pub fuzz_jobs: usize,
    /// Sweep batches per `design_sweep` iteration.
    pub sweep_batches: usize,
    /// Fewest timed iterations per run, whatever `--seconds` says.
    pub min_iters: usize,
    /// Fewest set-up repetitions, whose median is `setup_s`.
    pub setup_reps: usize,
    /// Host seconds of set-up repetitions a run makes at least.
    pub setup_seconds: f64,
}

impl Size {
    /// The size the benchmark command runs.
    pub const FULL: Size = Size {
        duty_horizon_us: 50_000,
        duty_prefix_us: 1_000,
        busy_cycles: 16_000_000,
        busy_prefix_cycles: 200_000,
        fuzz_jobs: 24,
        sweep_batches: 8,
        min_iters: 21,
        setup_reps: 41,
        setup_seconds: 0.25,
    };

    /// A seconds-long size for the benchmark's own tests.
    pub const TINY: Size = Size {
        duty_horizon_us: 500,
        duty_prefix_us: 200,
        busy_cycles: 50_000,
        busy_prefix_cycles: 20_000,
        fuzz_jobs: 4,
        sweep_batches: 2,
        min_iters: 2,
        setup_reps: 3,
        setup_seconds: 0.0,
    };
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds of timed iterations.
    pub seconds: f64,
    /// Whether to run the traced decomposition and report per-layer
    /// metrics.
    pub trace: bool,
    /// Work per iteration.
    pub size: Size,
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Counts operations and the ones that failed or mismatched, with a
/// note on each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a mismatching result.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `ops` operations; if `ok` is false all of them count as
    /// failed and `why` is noted.
    pub fn record(&mut self, ops: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops.max(1);
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }
}

/// Deterministic work one timed iteration does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Simulated SoC cycles, active and idle windows, skips included.
    pub cycles: u64,
    /// Linking events completed.
    pub events: u64,
    /// Operations: scenario runs, sweep jobs or fixed-length SoC runs.
    pub ops: u64,
}

/// Metric values by name.
pub type Named = Vec<(&'static str, f64)>;

/// Everything a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness ledger.
    pub checks: Checks,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// End-to-end metrics (untraced).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Named,
}

/// Runs `f` and returns its host seconds with its result.
pub fn clock<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Most set-up repetitions per run.
const MAX_SETUP_REPS: usize = 10_000;

/// Runs `setup` at least `size.setup_reps` times and until
/// `size.setup_seconds` have passed (at most [`MAX_SETUP_REPS`] times),
/// returning each repetition's host seconds and the last result.
pub fn repeat_setup<T>(size: &Size, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let (dt, r) = clock(&mut setup);
        times.push(dt);
        let enough =
            times.len() >= size.setup_reps && start.elapsed().as_secs_f64() >= size.setup_seconds;
        if enough || times.len() >= MAX_SETUP_REPS {
            return (times, r);
        }
    }
}

/// Timed iterations: host seconds with each iteration's output.
pub type Samples<T> = Vec<(f64, T)>;

/// The closed measurement loop: one iteration at a time, each started
/// when the previous one ends, until `cfg.seconds` have passed and at
/// least `cfg.size.min_iters` iterations ran. With tracing on, every
/// untraced iteration is followed by a traced one, so both see the same
/// host conditions. Each closure does its own untimed preparation and
/// returns its timed seconds with its output. Also returns the peak RSS
/// in MiB after the first `cfg.size.min_iters` untraced iterations, so
/// the reading does not depend on how many iterations fit into
/// `cfg.seconds`.
pub fn measure<A, B>(
    cfg: &Config,
    mut untraced: impl FnMut() -> (f64, A),
    mut traced: impl FnMut() -> (f64, B),
) -> (Samples<A>, Samples<B>, f64) {
    let start = Instant::now();
    let (mut plain, mut deep, mut rss) = (Vec::new(), Vec::new(), 0.0);
    loop {
        plain.push(untraced());
        if plain.len() == cfg.size.min_iters {
            rss = peak_rss_mb();
        }
        if cfg.trace {
            deep.push(traced());
        }
        if plain.len() >= cfg.size.min_iters && start.elapsed().as_secs_f64() >= cfg.seconds {
            return (plain, deep, rss);
        }
    }
}

/// The end-to-end metrics from set-up and iteration times, the work one
/// iteration does and the peak RSS [`measure`] read, and a note naming
/// the tail percentile.
pub fn end_to_end(
    setup: &[f64],
    walls: &[f64],
    work: Work,
    peak_rss_mb: f64,
) -> (Vec<Metric>, String) {
    let wall = median(walls);
    let (pct, tail_s) = tail(walls);
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", median(setup), "s"),
        m("wall_s", wall, "s"),
        m(
            "sim_mcycles_per_s",
            ratio(work.cycles as f64 / 1e6, wall),
            "Mcycles/s",
        ),
        m("events_per_s", ratio(work.events as f64, wall), "1/s"),
        m("jobs_per_s", ratio(work.ops as f64, wall), "1/s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let note = format!(
        "wall_s is the median of {} timed iterations, their p{pct} (wall_tail_s) is {tail_s} s; \
         setup_s is the median of {} set-ups; one iteration = {} ops, {} linking events, \
         {} simulated cycles",
        walls.len(),
        setup.len(),
        work.ops,
        work.events,
        work.cycles
    );
    (metrics, note)
}

/// The process's peak resident set size (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `median(traced) / median(untraced) − 1`.
pub fn trace_overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    ratio(median(traced), median(untraced)) - 1.0
}

/// The layer-share table of a traced run, largest share first, as
/// lines for the `#` header.
pub fn share_table(workload: &str, shares: &[(&str, f64)]) -> Vec<String> {
    let mut rows: Vec<(&str, f64)> = shares.to_vec();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = vec![format!("{workload}: share of traced host time by layer")];
    for (name, share) in &rows {
        out.push(format!("  {name:<28} {:>6.1}%", share * 100.0));
    }
    if let Some((name, share)) = rows.first() {
        out.push(format!(
            "{workload}: largest layer is {name} ({:.1}% of host time)",
            share * 100.0
        ));
    }
    out
}
