//! `design_sweep`: a two-worker fleet over the 72-point design grid
//! (mediator × frequency × links × topology × arbiter) plus seeded
//! fuzzed descriptions. Each batch is many short-lived SoCs, so
//! construction, the power report and fleet scheduling dominate.

use crate::harness::{self, clock, repeat_setup, Checks, Config, Outcome, Work};
use crate::inputs;
use crate::layers::{self, LayerTimes, SimCounters};
use crate::stats::{median, ratio, tail};
use pels_desc::{DescFuzzer, FuzzCase};
use pels_fleet::{FleetEngine, FleetJob, FleetReport, JobError, SweepSpec};
use pels_interconnect::{ArbiterKind, Topology};
use pels_soc::{ExecMode, Mediator, Scenario, ScenarioDesc, ScenarioError};

/// Fleet workers: one per CPU of the two-CPU reference host.
const WORKERS: usize = 2;

/// The batch: the seeded grid, then `fuzz_jobs` valid fuzzed
/// descriptions, all on execution tier `exec`.
pub fn batch_jobs(
    seed: u64,
    fuzz_jobs: usize,
    exec: ExecMode,
) -> Result<Vec<(String, Scenario)>, ScenarioError> {
    let mut base = ScenarioDesc::default();
    base.system.sensor = inputs::sensor(seed);
    let mut jobs = SweepSpec::new()
        .add_desc("seeded", base)
        .mediators(&[
            Mediator::PelsSequenced,
            Mediator::PelsInstant,
            Mediator::IbexIrq,
        ])
        .freqs_mhz(&[27.0, 55.0])
        .links(&[1, 4, 8])
        .topologies(&[Topology::Shared, Topology::PerSlaveCrossbar])
        .arbiters(&[ArbiterKind::RoundRobin, ArbiterKind::FixedPriority])
        .exec_mode(exec)
        .jobs()?;
    let mut fuzzer = DescFuzzer::new(inputs::stream(seed, 2).next_u64());
    let mut added = 0;
    while added < fuzz_jobs {
        if let FuzzCase::Valid(mut desc) = fuzzer.next_case() {
            desc.exec = exec;
            let label = format!("fuzz{added} {}", desc.mediator);
            jobs.push((label, Scenario::from_desc(desc)?));
            added += 1;
        }
    }
    Ok(jobs)
}

/// What a batch leaves behind once its reports are dropped.
#[derive(Debug, Clone)]
struct Batch {
    digest: u64,
    failed: usize,
    wall: f64,
    busy: f64,
    steals: u64,
    job_max_over_median: f64,
}

impl Batch {
    fn of(report: &FleetReport) -> Batch {
        let elapsed: Vec<f64> = report
            .jobs
            .iter()
            .map(|j| j.elapsed.as_secs_f64())
            .collect();
        Batch {
            digest: report.digest(),
            failed: report.failed().count(),
            wall: report.wall.as_secs_f64(),
            busy: report.busy().as_secs_f64(),
            steals: report.jobs.iter().filter(|j| j.stolen).count() as u64,
            job_max_over_median: ratio(
                elapsed.iter().copied().fold(0.0, f64::max),
                median(&elapsed),
            ),
        }
    }
}

/// Estimated simulated cycles of one job: the fleet's longest-first
/// scheduling key.
fn weight(s: &Scenario) -> u64 {
    let per_event =
        u64::from(s.timer_period_cycles()) + u64::from(s.spi_words * s.spi_clkdiv()) + 64;
    2 * (u64::from(s.events) * per_event + 2_000)
}

/// One batch through `FleetEngine::map` with every job decomposed into
/// its layer calls; the reassembled report must have the real batch's
/// digest.
fn traced(engine: &FleetEngine, jobs: &[(String, Scenario)]) -> (Batch, LayerTimes, SimCounters) {
    let start = std::time::Instant::now();
    let results = engine.map(
        jobs,
        |(_, s)| weight(s),
        |(_, s)| {
            let mut t = LayerTimes::default();
            let mut c = SimCounters::default();
            layers::measure(s, &mut t, &mut c)
                .map(|o| (o, t, c))
                .map_err(JobError::from)
        },
    );
    let wall = start.elapsed();
    let mut times = LayerTimes::default();
    let mut counters = SimCounters::default();
    let report = FleetReport {
        workers: engine.workers(),
        jobs: jobs
            .iter()
            .zip(results)
            .map(|((label, _), r)| FleetJob {
                label: label.clone(),
                elapsed: r.elapsed,
                worker: r.worker,
                stolen: r.stolen,
                result: r.result.map(|(o, t, c)| {
                    times.add(&t);
                    counters.add(&c);
                    o
                }),
            })
            .collect(),
        wall,
    };
    (Batch::of(&report), times, counters)
}

fn work(report: &FleetReport) -> Work {
    let mut w = Work {
        cycles: 0,
        events: 0,
        ops: report.jobs.len() as u64,
    };
    for (_, o) in report.succeeded() {
        let r = &o.report;
        w.cycles += r.freq.cycles_in(r.active_window) + r.freq.cycles_in(r.idle_window);
        w.events += u64::from(r.events_completed);
    }
    w
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let size = cfg.size;
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let engine = FleetEngine::new(WORKERS);

    // Set-up is sweep expansion and description validation: pels-desc
    // and the scenario builder only.
    let (setup, jobs) = repeat_setup(&size, || {
        batch_jobs(cfg.seed, size.fuzz_jobs, ExecMode::Fast)
    });
    let jobs = match jobs {
        Ok(j) => j,
        Err(e) => {
            checks.record(1, false, || format!("sweep set-up failed: {e}"));
            return Outcome {
                checks,
                notes,
                end_to_end: Vec::new(),
                per_layer: Vec::new(),
            };
        }
    };
    let n = jobs.len() as u64;

    let reference = engine.run_scenarios(&jobs);
    let expected = reference.digest();
    checks.record(n, reference.failed().count() == 0, || {
        let (label, e) = reference.failed().next().expect("a failed job");
        format!("sweep job `{label}` failed: {e}")
    });
    let work = work(&reference);
    drop(reference);

    // Reference: the whole batch on the naive tier has the same digest.
    let naive = batch_jobs(cfg.seed, size.fuzz_jobs, ExecMode::Naive)
        .map(|j| engine.run_scenarios(&j).digest());
    checks.record(n, naive.as_ref().is_ok_and(|&d| d == expected), || {
        format!("naive batch digest {naive:?} differs from {expected:016x}")
    });

    // One iteration is `sweep_batches` batches back to back, each timed
    // around `run_scenarios` alone.
    let (plain, deep, rss) = harness::measure(
        cfg,
        || {
            let mut wall = 0.0;
            let mut batches = Vec::new();
            for _ in 0..size.sweep_batches {
                let (w, report) = clock(|| engine.run_scenarios(&jobs));
                wall += w;
                batches.push(Batch::of(&report));
            }
            (wall, batches)
        },
        || {
            let mut wall = 0.0;
            let mut batches = Vec::new();
            let mut times = LayerTimes::default();
            let mut counters = SimCounters::default();
            for _ in 0..size.sweep_batches {
                let (b, t, c) = traced(&engine, &jobs);
                wall += b.wall;
                times.add(&t);
                counters.add(&c);
                batches.push(b);
            }
            (wall, (batches, times, counters))
        },
    );
    for b in plain.iter().flat_map(|(_, bs)| bs) {
        checks.record(n, b.failed == 0 && b.digest == expected, || {
            format!(
                "batch digest {:016x} differs from {expected:016x}",
                b.digest
            )
        });
    }
    let walls: Vec<f64> = plain.iter().map(|(w, _)| *w).collect();
    let k = size.sweep_batches as u64;
    let work = Work {
        cycles: work.cycles * k,
        events: work.events * k,
        ops: work.ops * k,
    };
    let (end_to_end, note) = harness::end_to_end(&setup, &walls, work, rss);
    notes.push(note);
    notes.push(format!(
        "{n} jobs per batch, {k} batches per iteration, on {WORKERS} fleet workers; \
         batch digest {expected:016x}"
    ));

    let mut per_layer = Vec::new();
    if let Some((_, (_, _, first))) = deep.first() {
        for (_, (batches, _, c)) in &deep {
            for b in batches {
                checks.record(n, b.failed == 0 && b.digest == expected, || {
                    format!(
                        "traced batch digest {:016x} differs from {expected:016x}",
                        b.digest
                    )
                });
            }
            checks.record(0, c == first, || {
                "simulated counters differ across traced repeats".into()
            });
        }
        // Shares are of job time: the layer calls inside the jobs. Fleet
        // scheduling and idle workers show as `fleet.parallel_eff`.
        let samples: Vec<(f64, LayerTimes)> = deep
            .iter()
            .map(|(_, (bs, t, _))| (bs.iter().map(|b| b.busy).sum(), t.clone()))
            .collect();
        let (time_metrics, shares) = layers::time_metrics(&samples);
        notes.extend(harness::share_table("design_sweep", &shares));
        let med = |f: &dyn Fn(&Batch) -> f64| {
            median(
                &plain
                    .iter()
                    .flat_map(|(_, bs)| bs)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        let traced_walls: Vec<f64> = deep.iter().map(|(w, _)| *w).collect();
        per_layer = vec![
            ("desc.build_s", median(&setup)),
            ("fleet.batch_s", med(&|b| b.wall)),
            ("fleet.job_busy_s", med(&|b| b.busy)),
            (
                "fleet.parallel_eff",
                med(&|b| ratio(b.busy, WORKERS as f64 * b.wall)),
            ),
            ("fleet.steals", med(&|b| b.steals as f64)),
            ("fleet.job_max_over_median", med(&|b| b.job_max_over_median)),
            ("wall_tail_s", tail(&walls).1),
            (
                "bench.trace_overhead_frac",
                harness::trace_overhead(&walls, &traced_walls),
            ),
        ];
        per_layer.extend(time_metrics);
        per_layer.extend(first.metrics());
    }
    Outcome {
        checks,
        notes,
        end_to_end,
        per_layer,
    }
}
