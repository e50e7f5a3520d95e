//! Fleet results: per-job outcomes, input-order-stable reports, and the
//! digest that proves scheduling never leaks into the data.

use pels_obs::json::Value;
use pels_obs::json_object;
use pels_soc::{Mediator, Scenario, ScenarioError, ScenarioReport};
use std::fmt;
use std::time::Duration;

/// Why one job of a fleet produced no outcome. Failures are *per job*:
/// one bad sweep point never poisons its siblings.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The scenario ran but produced no measurement (or could not be
    /// configured).
    Scenario(ScenarioError),
    /// The job panicked; the engine caught it at the worker boundary.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Scenario(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Scenario(e) => Some(e),
            JobError::Panicked(_) => None,
        }
    }
}

impl From<ScenarioError> for JobError {
    fn from(e: ScenarioError) -> Self {
        JobError::Scenario(e)
    }
}

/// The measured outcome of one scenario job, with its power summary
/// derived *inside the job* (on the worker) so the report is complete
/// without re-running any model on the reducer side.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The full measurement (latencies, activity, trace).
    pub report: ScenarioReport,
    /// Total SoC power over the active window (µW).
    pub active_uw: f64,
    /// Total SoC power over the matching idle window (µW).
    pub idle_uw: f64,
    /// Memory-system share of the active window (µW).
    pub active_memory_uw: f64,
    /// Memory-system share of the idle window (µW).
    pub idle_memory_uw: f64,
}

impl JobOutcome {
    /// Runs `scenario` and derives the power summary — the standard job
    /// body for scenario fleets.
    pub fn measure(scenario: &Scenario) -> Result<JobOutcome, ScenarioError> {
        let report = scenario.try_run()?;
        let model = report.power_model();
        let active = report.active_power(&model);
        let idle = report.idle_power(&model);
        Ok(JobOutcome {
            scenario: scenario.clone(),
            active_uw: active.total().as_uw(),
            idle_uw: idle.total().as_uw(),
            active_memory_uw: active.memory_system().as_uw(),
            idle_memory_uw: idle.memory_system().as_uw(),
            report,
        })
    }
}

/// One slot of a [`FleetReport`]: the job's label, how long it ran on its
/// worker, and what came out.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Caller-supplied label (stable across runs; used in rendering and
    /// the digest).
    pub label: String,
    /// Wall-clock time the job spent on its worker.
    pub elapsed: Duration,
    /// Index of the worker thread that executed the job.
    pub worker: usize,
    /// `true` when the job was stolen from a sibling worker's deque.
    pub stolen: bool,
    /// The outcome, or this job's own failure.
    pub result: Result<JobOutcome, JobError>,
}

/// Aggregated execution statistics for one worker of a fleet batch,
/// derived from the jobs' worker attribution
/// ([`FleetReport::worker_stats`]). Host-timing observability only —
/// none of these fields enter [`FleetReport::digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Jobs this worker executed.
    pub jobs: u64,
    /// How many of those jobs it stole from a sibling's deque.
    pub steals: u64,
    /// Total wall-clock time this worker spent executing jobs.
    pub busy: Duration,
}

/// The reduction of one fleet run: jobs **in input order** (never in
/// completion order), plus batch-level timing.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Per-job results, input-order-stable.
    pub jobs: Vec<FleetJob>,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
}

impl FleetReport {
    /// Jobs that produced an outcome.
    pub fn succeeded(&self) -> impl Iterator<Item = (&str, &JobOutcome)> {
        self.jobs
            .iter()
            .filter_map(|j| j.result.as_ref().ok().map(|o| (j.label.as_str(), o)))
    }

    /// Jobs that failed, with their errors.
    pub fn failed(&self) -> impl Iterator<Item = (&str, &JobError)> {
        self.jobs
            .iter()
            .filter_map(|j| j.result.as_ref().err().map(|e| (j.label.as_str(), e)))
    }

    /// The outcome for `label`, if that job succeeded.
    pub fn outcome(&self, label: &str) -> Option<&JobOutcome> {
        self.succeeded().find(|(l, _)| *l == label).map(|(_, o)| o)
    }

    /// Sum of per-job worker time — the serial cost of the batch. The
    /// ratio against [`FleetReport::wall`] is the realized parallel
    /// speedup.
    pub fn busy(&self) -> Duration {
        self.jobs.iter().map(|j| j.elapsed).sum()
    }

    /// Per-worker execution statistics (jobs, steals, busy time),
    /// aggregated from the job slots. Every configured worker gets an
    /// entry, including workers that executed nothing.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        let mut stats: Vec<WorkerStats> = (0..self.workers)
            .map(|worker| WorkerStats {
                worker,
                jobs: 0,
                steals: 0,
                busy: Duration::ZERO,
            })
            .collect();
        for job in &self.jobs {
            if let Some(w) = stats.get_mut(job.worker) {
                w.jobs += 1;
                w.steals += u64::from(job.stolen);
                w.busy += job.elapsed;
            }
        }
        stats
    }

    /// Publishes batch-level and per-worker counters into `reg`
    /// (`fleet.jobs`, `fleet.steals`, `fleet.worker<N>.jobs`, …). Pure
    /// observation of an already-reduced report — cannot perturb results.
    pub fn publish_metrics(&self, reg: &mut pels_obs::MetricsRegistry) {
        reg.set_named("fleet.jobs", self.jobs.len() as u64);
        reg.set_named("fleet.failed", self.failed().count() as u64);
        reg.set_named("fleet.workers", self.workers as u64);
        reg.set_named("fleet.wall_us", self.wall.as_micros() as u64);
        reg.set_named("fleet.busy_us", self.busy().as_micros() as u64);
        let mut steals = 0;
        for w in self.worker_stats() {
            steals += w.steals;
            reg.set_named(&format!("fleet.worker{}.jobs", w.worker), w.jobs);
            reg.set_named(&format!("fleet.worker{}.steals", w.worker), w.steals);
            reg.set_named(
                &format!("fleet.worker{}.busy_us", w.worker),
                w.busy.as_micros() as u64,
            );
        }
        reg.set_named("fleet.steals", steals);
    }

    /// Merges every succeeded job's latency histogram into one
    /// distribution for the whole batch.
    ///
    /// Deterministic whatever the worker count or completion order:
    /// jobs are folded in input order, and
    /// [`pels_obs::Histogram::merge`] is itself order-invariant (bucket
    /// counts add), so either property alone would already pin the
    /// result. Host-side reduction only — the digest does not cover the
    /// merged histogram (it already covers every raw latency the
    /// histogram is built from).
    pub fn merged_latency_histogram(&self) -> pels_obs::Histogram {
        let mut merged = pels_obs::Histogram::new();
        for (_, o) in self.succeeded() {
            merged.merge(&o.report.latency_hist);
        }
        merged
    }

    /// Merges every succeeded job's per-stage flow attribution into one
    /// blame table for the whole batch — empty when no job ran with
    /// [`crate::SweepSpec::flows`].
    ///
    /// Deterministic whatever the worker count or completion order, like
    /// [`FleetReport::merged_latency_histogram`]: jobs fold in input
    /// order and [`pels_obs::FlowReport::merge`] is order-invariant
    /// (`tests/flow_properties.rs`). Host-side reduction only — the
    /// digest does not cover flows (they are pure observation).
    pub fn flow_report(&self) -> pels_obs::FlowReport {
        let mut merged = pels_obs::FlowReport::default();
        for (_, o) in self.succeeded() {
            if let Some(r) = o.report.flow_report() {
                merged.merge(&r);
            }
        }
        merged
    }

    /// Folds every succeeded job's energy ledger into one batch ledger —
    /// empty when no job ran with [`crate::SweepSpec::lifetime`].
    ///
    /// Deterministic whatever the worker count or completion order, like
    /// [`FleetReport::merged_latency_histogram`]: jobs fold in input
    /// order, so the `f64` sums see the same addends in the same
    /// sequence on any schedule (`tests/lifetime_invariance.rs` pins
    /// this across 1/2/8 workers). Host-side reduction only — the digest
    /// does not cover ledgers (they are pure post-processing).
    pub fn merged_energy_ledger(&self) -> pels_power::EnergyLedger {
        let mut merged = pels_power::EnergyLedger::new();
        for (_, o) in self.succeeded() {
            if let Some(ledger) = &o.report.energy {
                merged.merge(ledger);
            }
        }
        merged
    }

    /// Realized speedup: total worker-busy time over batch wall time.
    /// ~1.0 on a single worker (or a single-core host); approaches the
    /// worker count when the longest-first schedule packs well.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            return 1.0;
        }
        self.busy().as_secs_f64() / wall
    }

    /// FNV-1a digest over every *simulation-derived* field of every job,
    /// in input order: labels, scenario axes, latencies, event counts and
    /// power totals (as exact `f64` bit patterns). Timing fields are
    /// excluded — they are host noise. Two runs of the same job list are
    /// bit-identical exactly when their digests match, whatever the
    /// worker count.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::new();
        d.bytes(&(self.jobs.len() as u64).to_le_bytes());
        for job in &self.jobs {
            d.bytes(job.label.as_bytes());
            match &job.result {
                Ok(o) => {
                    d.u64(1);
                    d.u64(mediator_tag(o.scenario.mediator));
                    d.u64(o.scenario.freq().period_ps());
                    d.u64(u64::from(o.scenario.events));
                    d.u64(u64::from(o.report.events_completed));
                    d.u64(o.report.latencies.len() as u64);
                    for &l in &o.report.latencies {
                        d.u64(l);
                    }
                    d.u64(o.report.stats.min);
                    d.u64(o.report.stats.max);
                    d.u64(o.report.stats.mean);
                    d.u64(o.report.active_window.as_ps());
                    d.u64(o.report.idle_window.as_ps());
                    d.u64(o.active_uw.to_bits());
                    d.u64(o.idle_uw.to_bits());
                    d.u64(o.active_memory_uw.to_bits());
                    d.u64(o.idle_memory_uw.to_bits());
                }
                Err(e) => {
                    d.u64(0);
                    d.bytes(e.to_string().as_bytes());
                }
            }
        }
        d.finish()
    }

    /// Renders the batch as a text table (label, status, latency, power,
    /// per-job time).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} jobs on {} worker(s), wall {:.1} ms, busy {:.1} ms, speedup {:.2}x",
            self.jobs.len(),
            self.workers,
            self.wall.as_secs_f64() * 1e3,
            self.busy().as_secs_f64() * 1e3,
            self.speedup(),
        );
        let _ = writeln!(
            out,
            "  {:<38} {:>9} {:>11} {:>11} {:>9} {:>5}",
            "job", "lat [cyc]", "active [uW]", "idle [uW]", "t [ms]", "on"
        );
        for job in &self.jobs {
            let on = format!("w{}{}", job.worker, if job.stolen { "*" } else { "" });
            match &job.result {
                Ok(o) => {
                    let _ = writeln!(
                        out,
                        "  {:<38} {:>9} {:>11.1} {:>11.1} {:>9.2} {:>5}",
                        job.label,
                        o.report.stats.mean,
                        o.active_uw,
                        o.idle_uw,
                        job.elapsed.as_secs_f64() * 1e3,
                        on,
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "  {:<38} FAILED: {e}", job.label);
                }
            }
        }
        for w in self.worker_stats() {
            let _ = writeln!(
                out,
                "  worker {}: {} job(s), {} stolen, busy {:.1} ms",
                w.worker,
                w.jobs,
                w.steals,
                w.busy.as_secs_f64() * 1e3,
            );
        }
        out
    }
}

/// Stable tag for the digest (enum discriminants are not guaranteed
/// stable across refactors; this mapping is part of the digest contract).
fn mediator_tag(m: Mediator) -> u64 {
    match m {
        Mediator::PelsSequenced => 1,
        Mediator::PelsInstant => 2,
        Mediator::IbexIrq => 3,
    }
}

/// Minimal FNV-1a 64-bit accumulator (no external hashing deps in the
/// offline graph).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Serializes the batch as the `BENCH_fleet_throughput.json` artifact.
pub fn to_json(report: &FleetReport, host_parallelism: usize) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let workers = report.worker_stats().into_iter().map(|w| {
        json_object! {
            "worker" => w.worker, "jobs" => w.jobs, "steals" => w.steals, "busy_ms" => ms(w.busy),
        }
    });
    pels_obs::json::to_string(&json_object! {
        "jobs" => report.jobs.len(),
        "failed" => report.failed().count(),
        "workers" => report.workers,
        "host_parallelism" => host_parallelism,
        "wall_ms" => ms(report.wall),
        "busy_ms" => ms(report.busy()),
        "speedup" => report.speedup(),
        "jobs_per_sec" => report.jobs.len() as f64 / report.wall.as_secs_f64().max(1e-9),
        "worker_stats" => Value::Arr(workers.collect()),
        "digest" => format!("{:016x}", report.digest()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_soc::Scenario;

    fn tiny_report() -> FleetReport {
        let s = Scenario::builder().events(2).build().unwrap();
        let outcome = JobOutcome::measure(&s).unwrap();
        FleetReport {
            workers: 1,
            jobs: vec![
                FleetJob {
                    label: "ok".into(),
                    elapsed: Duration::from_millis(3),
                    worker: 0,
                    stolen: false,
                    result: Ok(outcome),
                },
                FleetJob {
                    label: "bad".into(),
                    elapsed: Duration::from_millis(1),
                    worker: 0,
                    stolen: true,
                    result: Err(JobError::Scenario(ScenarioError::ZeroEvents)),
                },
            ],
            wall: Duration::from_millis(4),
        }
    }

    #[test]
    fn digest_ignores_timing_but_not_data() {
        let a = tiny_report();
        let mut b = a.clone();
        b.wall = Duration::from_secs(7);
        b.jobs[0].elapsed = Duration::from_secs(1);
        b.jobs[0].worker = 5;
        b.jobs[0].stolen = true;
        b.workers = 16;
        assert_eq!(
            a.digest(),
            b.digest(),
            "timing and worker attribution are noise"
        );

        let mut c = a.clone();
        if let Ok(o) = &mut c.jobs[0].result {
            o.active_uw += 1e-9;
        }
        assert_ne!(a.digest(), c.digest(), "any data change must show");
    }

    #[test]
    fn accessors_partition_jobs() {
        let r = tiny_report();
        assert_eq!(r.succeeded().count(), 1);
        assert_eq!(r.failed().count(), 1);
        assert!(r.outcome("ok").is_some());
        assert!(r.outcome("bad").is_none());
        assert_eq!(r.busy(), Duration::from_millis(4));
    }

    #[test]
    fn json_is_well_formed() {
        let r = tiny_report();
        let j = pels_obs::json::parse(&to_json(&r, 4)).expect("fleet JSON parses");
        let num = |key: &str| j.get(key).and_then(Value::as_u64);
        assert_eq!(num("jobs"), Some(2));
        assert_eq!(num("failed"), Some(1));
        assert_eq!(num("host_parallelism"), Some(4));
        let workers = j.get("worker_stats").and_then(Value::as_array).unwrap();
        assert_eq!(workers.len(), r.workers);
        assert_eq!(workers[0].get("steals").and_then(Value::as_u64), Some(1));
        let digest = format!("{:016x}", r.digest());
        assert_eq!(j.get("digest").and_then(Value::as_str), Some(digest.as_str()));
    }

    #[test]
    fn worker_stats_aggregate_attribution_and_publish() {
        let r = tiny_report();
        let stats = r.worker_stats();
        assert_eq!(stats.len(), 1, "one entry per configured worker");
        assert_eq!(stats[0].jobs, 2);
        assert_eq!(stats[0].steals, 1, "the 'bad' job was marked stolen");
        assert_eq!(stats[0].busy, Duration::from_millis(4));

        let mut reg = pels_obs::MetricsRegistry::new();
        r.publish_metrics(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.get("fleet.jobs"), Some(2));
        assert_eq!(snap.get("fleet.failed"), Some(1));
        assert_eq!(snap.get("fleet.worker0.jobs"), Some(2));
        assert_eq!(snap.get("fleet.worker0.steals"), Some(1));
        assert_eq!(snap.get("fleet.steals"), Some(1));
    }

    #[test]
    fn merged_latency_histogram_spans_all_succeeded_jobs() {
        let r = tiny_report();
        let h = r.merged_latency_histogram();
        let expected: u64 = r
            .succeeded()
            .map(|(_, o)| o.report.latencies.len() as u64)
            .sum();
        assert!(expected > 0);
        assert_eq!(h.count(), expected);
        // Merging per-job histograms matches recording every job's raw
        // latencies into one — no samples lost or double-counted.
        let mut direct = pels_obs::Histogram::new();
        for (_, o) in r.succeeded() {
            for &l in &o.report.latencies {
                direct.record(l);
            }
        }
        assert_eq!(h, direct);
        assert_eq!(h.p50(), Some(r.outcome("ok").unwrap().report.stats.p50));
    }

    #[test]
    fn merged_energy_ledger_folds_succeeded_jobs() {
        // No lifetime switch → empty ledger.
        assert_eq!(tiny_report().merged_energy_ledger().windows(), 0);

        let s = Scenario::builder().events(2).lifetime(true).build().unwrap();
        let outcome = JobOutcome::measure(&s).unwrap();
        let ledger = outcome.report.energy.clone().expect("lifetime ledger");
        let r = FleetReport {
            workers: 1,
            jobs: vec![
                FleetJob {
                    label: "a".into(),
                    elapsed: Duration::ZERO,
                    worker: 0,
                    stolen: false,
                    result: Ok(outcome.clone()),
                },
                FleetJob {
                    label: "b".into(),
                    elapsed: Duration::ZERO,
                    worker: 0,
                    stolen: false,
                    result: Ok(outcome),
                },
            ],
            wall: Duration::ZERO,
        };
        let merged = r.merged_energy_ledger();
        assert_eq!(merged.windows(), 2 * ledger.windows());
        assert!((merged.total_uj() - 2.0 * ledger.total_uj()).abs() <= 1e-12);
        // Identical fold on every evaluation: input order pins the sum.
        assert_eq!(merged, r.merged_energy_ledger());
    }

    #[test]
    fn render_reports_failures_inline() {
        let r = tiny_report();
        let text = r.render();
        assert!(text.contains("FAILED"));
        assert!(text.contains("ok"));
    }
}
