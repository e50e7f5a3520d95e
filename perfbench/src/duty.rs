//! `duty_lifetime`: the paper's duty-cycled node. PELS-sequenced and
//! interrupt-mediated `Scenario::duty_cycled` runs at a 10 µs sample
//! period with lifetime projection on, one after the other on one
//! thread.

use crate::harness::{self, clock, repeat_setup, Checks, Config, Outcome, Work};
use crate::inputs;
use crate::layers::{self, Layer, LayerTimes, SimCounters};
use crate::stats::{median, ratio, tail};
use pels_sim::SimTime;
use pels_soc::{ExecMode, LinkingStats, Mediator, Scenario, ScenarioError, ScenarioReport};

const MEDIATORS: [Mediator; 2] = [Mediator::PelsSequenced, Mediator::IbexIrq];

/// The scenarios of one iteration, built and validated from the seed.
pub fn build_scenarios(seed: u64, horizon_us: u64, exec: ExecMode) -> Vec<Scenario> {
    MEDIATORS
        .iter()
        .map(|&m| {
            Scenario::duty_cycled(m, SimTime::from_us(10), SimTime::from_us(horizon_us))
                .to_builder()
                .sensor(inputs::sensor(seed))
                .exec_mode(exec)
                .build()
                .expect("the seeded duty-cycled scenario is valid")
        })
        .collect()
}

/// The simulated results compared across repeats, tiers and the traced
/// decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Per mediator: events completed, latency statistics, the raw
    /// latencies, and the ledger total and lifetime days as exact bits.
    pub per_mediator: Vec<(u32, LinkingStats, Vec<u64>, u64, u64)>,
    /// PELS-vs-IRQ lifetime ratio, exact bits.
    pub ratio_bits: u64,
}

fn summarize(reports: &[ScenarioReport]) -> Summary {
    let days = |r: &ScenarioReport| r.lifetime.as_ref().map_or(0.0, |l| l.days());
    Summary {
        per_mediator: reports
            .iter()
            .map(|r| {
                (
                    r.events_completed,
                    r.stats.clone(),
                    r.latencies.clone(),
                    r.energy.as_ref().map_or(0, |e| e.total_uj().to_bits()),
                    days(r).to_bits(),
                )
            })
            .collect(),
        ratio_bits: (days(&reports[0]) / days(&reports[1])).to_bits(),
    }
}

/// The paper's direction, checked on every summary: PELS outlives the
/// interrupt baseline and links faster, and every scheduled event
/// completed.
fn plausible(s: &Summary, scenarios: &[Scenario]) -> Result<(), String> {
    for ((events, ..), sc) in s.per_mediator.iter().zip(scenarios) {
        if *events != sc.events {
            return Err(format!(
                "{}: {events} of {} events completed",
                sc.mediator, sc.events
            ));
        }
    }
    let (pels, irq) = (&s.per_mediator[0], &s.per_mediator[1]);
    if f64::from_bits(s.ratio_bits) <= 1.0 {
        return Err(format!(
            "PELS-vs-IRQ lifetime ratio {} is not above 1",
            f64::from_bits(s.ratio_bits)
        ));
    }
    if pels.1.mean >= irq.1.mean {
        return Err(format!(
            "PELS mean latency {} cycles is not below IRQ's {}",
            pels.1.mean, irq.1.mean
        ));
    }
    Ok(())
}

/// What every execution tier must reproduce exactly: completions,
/// latencies, window lengths and the drained activity both power
/// windows integrate. The sampled timeline is not among them: a skip
/// crossing a window boundary stretches that window on the fast path
/// only, and per-window clock accounting does not add up across
/// different window splits, so the windowed ledger is compared across
/// repeats of one tier instead.
fn tier_invariant(r: &ScenarioReport) -> impl PartialEq + '_ {
    (
        r.events_completed,
        &r.stats,
        &r.latencies,
        r.active_window,
        r.idle_window,
        &r.active_activity,
        &r.idle_activity,
    )
}

fn ledger_total(reports: &[ScenarioReport]) -> f64 {
    reports
        .iter()
        .filter_map(|r| r.energy.as_ref().map(|e| e.total_uj()))
        .sum()
}

fn run_all(scenarios: &[Scenario]) -> Result<Vec<ScenarioReport>, ScenarioError> {
    scenarios.iter().map(Scenario::try_run).collect()
}

fn work(reports: &[ScenarioReport]) -> Work {
    Work {
        cycles: reports
            .iter()
            .map(|r| r.freq.cycles_in(r.active_window) + r.freq.cycles_in(r.idle_window))
            .sum(),
        events: reports.iter().map(|r| u64::from(r.events_completed)).sum(),
        ops: reports.len() as u64,
    }
}

/// One traced iteration: the results, per-layer host time of the whole
/// pair, and each mediator's counters.
type Traced<R> = Result<(R, LayerTimes, Vec<SimCounters>), ScenarioError>;

fn traced(scenarios: &[Scenario]) -> Traced<Vec<ScenarioReport>> {
    let mut t = LayerTimes::default();
    let mut per = Vec::new();
    let mut reports = Vec::new();
    for s in scenarios {
        let mut c = SimCounters::default();
        reports.push(layers::try_run(s, &mut t, &mut c)?);
        per.push(c);
    }
    Ok((reports, t, per))
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let size = cfg.size;
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    // Set-up is scenario construction and validation only — all of it
    // in pels-desc and the scenario builder.
    let (setup, scenarios) = repeat_setup(&size, || {
        build_scenarios(cfg.seed, size.duty_horizon_us, ExecMode::Fast)
    });

    // Reference: the naive tier on a shortened prefix must agree with the
    // fast path bit for bit.
    let fast = run_all(&build_scenarios(
        cfg.seed,
        size.duty_prefix_us,
        ExecMode::Fast,
    ));
    let naive = run_all(&build_scenarios(
        cfg.seed,
        size.duty_prefix_us,
        ExecMode::Naive,
    ));
    let prefix_ok = match (&fast, &naive) {
        (Ok(f), Ok(n)) => {
            let drift = ratio(ledger_total(n), ledger_total(f)) - 1.0;
            notes.push(format!(
                "windowed energy ledger, naive vs fast on the prefix: {:+.4}% (fast-path skips \
                 stretch timeline windows by design, so only tier-invariant results are compared)",
                drift * 100.0
            ));
            f.iter()
                .zip(n)
                .all(|(a, b)| tier_invariant(a) == tier_invariant(b))
        }
        _ => false,
    };
    checks.record(4, prefix_ok, || {
        format!(
            "naive reference differs on the {} µs prefix",
            size.duty_prefix_us
        )
    });

    // The first full iteration is the reference every repeat must match.
    let reference = match run_all(&scenarios) {
        Ok(r) => r,
        Err(e) => {
            checks.record(2, false, || format!("reference run failed: {e}"));
            return Outcome {
                checks,
                notes,
                end_to_end: Vec::new(),
                per_layer: Vec::new(),
            };
        }
    };
    let expected = summarize(&reference);
    checks.record(2, true, String::new);
    if let Err(e) = plausible(&expected, &scenarios) {
        checks.record(0, false, || e);
    }
    let work = work(&reference);
    drop(reference);

    let (plain, deep, rss) = harness::measure(
        cfg,
        || {
            let (wall, reports) = clock(|| run_all(&scenarios));
            (wall, reports.map(|r| summarize(&r)))
        },
        || {
            let (wall, out) = clock(|| traced(&scenarios));
            (
                wall,
                out.map(|(reports, t, per)| (summarize(&reports), t, per)),
            )
        },
    );
    for (_, out) in &plain {
        let ok = out.as_ref().is_ok_and(|s| *s == expected);
        checks.record(2, ok, || {
            format!("repeat differs from the reference: {out:?}")
        });
    }
    let walls: Vec<f64> = plain.iter().map(|(w, _)| *w).collect();
    let (end_to_end, note) = harness::end_to_end(&setup, &walls, work, rss);
    notes.push(note);
    let per_layer = if cfg.trace {
        per_layer(&deep, &walls, &setup, &expected, &mut checks, &mut notes)
    } else {
        Vec::new()
    };
    Outcome {
        checks,
        notes,
        end_to_end,
        per_layer,
    }
}

fn per_layer(
    deep: &[(f64, Traced<Summary>)],
    walls: &[f64],
    setup: &[f64],
    expected: &Summary,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let mut counters = None;
    let mut times: Vec<(f64, LayerTimes)> = Vec::new();
    for (wall, out) in deep {
        match out {
            Ok((summary, t, per)) => {
                let ok = summary == expected;
                checks.record(2, ok, || {
                    "traced decomposition differs from Scenario::try_run".to_string()
                });
                let mut total = SimCounters::default();
                per.iter().for_each(|c| total.add(c));
                let same = counters.as_ref().is_none_or(|(c, _)| *c == total);
                checks.record(0, same, || {
                    "simulated counters differ across traced repeats".into()
                });
                counters.get_or_insert((total, per.clone()));
                times.push((*wall, t.clone()));
            }
            Err(e) => checks.record(2, false, || format!("traced run failed: {e}")),
        }
    }
    let Some((total, per)) = counters else {
        return Vec::new();
    };
    for (m, c) in MEDIATORS.iter().zip(&per) {
        notes.push(format!(
            "{m}: {:.1} stepped cycles, {:.2} skip spans, {:.2} sprint spans per event",
            ratio(c.stepped as f64, c.events as f64),
            ratio(c.skip_spans as f64, c.events as f64),
            ratio(c.sprint_spans as f64, c.events as f64),
        ));
    }
    let traced_walls: Vec<f64> = times.iter().map(|(w, _)| *w).collect();
    let (time_metrics, shares) = layers::time_metrics(&times);
    notes.extend(harness::share_table("duty_lifetime", &shares));
    let timeline_s = median(
        &times
            .iter()
            .map(|(_, t)| t.get(Layer::Timeline))
            .collect::<Vec<_>>(),
    );
    let mut out = vec![
        ("desc.build_s", median(setup)),
        (
            "power.timeline_us_per_window",
            ratio(timeline_s * 1e6, total.timeline_windows as f64),
        ),
        ("wall_tail_s", tail(walls).1),
        (
            "bench.trace_overhead_frac",
            harness::trace_overhead(walls, &traced_walls),
        ),
    ];
    out.extend(time_metrics);
    out.extend(total.metrics());
    out
}
