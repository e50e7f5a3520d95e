//! The traced decomposition: `Scenario::try_run` and the fleet's job body
//! re-driven through the layers' public entry points one call at a
//! time, with a host-time span around each call and the SoC's public
//! counters read at the layer boundaries.
//!
//! The decomposition must reproduce the real path bit for bit; the
//! workloads compare its results with `Scenario::try_run` and
//! `FleetReport::digest` on every traced run, so the per-layer split
//! cannot drift from what the untraced run measures.

use crate::harness::Named;
use crate::stats::{median, ratio};
use pels_fleet::JobOutcome;
use pels_interconnect::ApbSlave as _;
use pels_periph::Timer;
use pels_power::{Battery, EnergyLedger, PowerSample, PowerTimeline};
use pels_sim::{ActivityKind, ActivitySet, SimTime};
use pels_soc::{power_setup, LinkingStats, Mediator, Scenario, ScenarioError, ScenarioReport, Soc};
use std::time::Instant;

/// A timed layer call.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `Scenario::build_soc` (pels-soc construction).
    SocBuild,
    /// `Soc::run_for_trace_count` over the active window, or `Soc::run`
    /// for a bare SoC.
    ActiveRun,
    /// `Soc::run` over the matching idle window.
    IdleRun,
    /// Counter readout, `Soc::take_timeline` and `Soc::drain_activity`.
    Drain,
    /// Trace scans for latencies and completions, and the trace copy the
    /// report keeps (pels-sim).
    Trace,
    /// `PowerTimeline::from_activity`, model construction included.
    Timeline,
    /// `EnergyLedger::from_timeline`.
    Ledger,
    /// `Battery::project`.
    Battery,
    /// `PowerModel::report`, model construction included.
    Report,
}

/// Each [`Layer`]'s metric name stem, in declaration order.
const LAYER_NAMES: [&str; 9] = [
    "soc.build",
    "soc.active_run",
    "soc.idle_run",
    "soc.drain",
    "sim.trace",
    "power.timeline",
    "power.ledger",
    "power.battery",
    "power.report",
];

/// Host seconds spent inside each layer's public calls.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    seconds: [f64; LAYER_NAMES.len()],
    /// Number of `build_soc` calls.
    pub soc_builds: u64,
}

impl LayerTimes {
    /// Runs `f` as a call into `layer`, adding its host time.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.seconds[layer as usize] += start.elapsed().as_secs_f64();
        r
    }

    /// Host seconds spent in `layer`.
    pub fn get(&self, layer: Layer) -> f64 {
        self.seconds[layer as usize]
    }

    /// Host seconds covered by a timed layer call.
    pub fn covered(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerTimes) {
        for (a, b) in self.seconds.iter_mut().zip(other.seconds) {
            *a += b;
        }
        self.soc_builds += other.soc_builds;
    }
}

/// The host-time per-layer metrics over traced iterations, each given as
/// the host seconds it spans and its layer times: the median seconds per
/// iteration of every layer (`soc.build_s` per `build_soc` call), the
/// build share, and the share of the span no layer call covers. Also
/// returns each layer's median share of the span, for the share table.
pub fn time_metrics(samples: &[(f64, LayerTimes)]) -> (Named, Named) {
    let med = |f: &dyn Fn(f64, &LayerTimes) -> f64| {
        median(&samples.iter().map(|(s, t)| f(*s, t)).collect::<Vec<_>>())
    };
    let mut metrics = vec![
        (
            "soc.build_s",
            med(&|_, t| ratio(t.get(Layer::SocBuild), t.soc_builds as f64)),
        ),
        (
            "soc.build_share",
            med(&|s, t| ratio(t.get(Layer::SocBuild), s)),
        ),
        (
            "bench.unattributed_frac",
            med(&|s, t| 1.0 - ratio(t.covered(), s)),
        ),
    ];
    let per_layer = [
        ("soc.active_run_s", Layer::ActiveRun),
        ("soc.idle_run_s", Layer::IdleRun),
        ("soc.drain_s", Layer::Drain),
        ("sim.trace_s", Layer::Trace),
        ("power.timeline_s", Layer::Timeline),
        ("power.ledger_s", Layer::Ledger),
        ("power.battery_s", Layer::Battery),
        ("power.report_s", Layer::Report),
    ];
    metrics.extend(per_layer.map(|(name, layer)| (name, med(&|_, t| t.get(layer)))));
    let shares = LAYER_NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, med(&|s, t| ratio(t.seconds[i], s))))
        .collect();
    (metrics, shares)
}

/// Simulated work and the SoCs' public counters, summed over every SoC
/// a run built. All of it is deterministic for a given seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// SoC cycles, skipped spans included.
    pub cycles: u64,
    /// Linking events completed.
    pub events: u64,
    /// Cycles stepped (fast + stirred + naive).
    pub stepped: u64,
    /// Cycles covered by skip spans.
    pub skipped: u64,
    /// Skip spans taken.
    pub skip_spans: u64,
    /// Scheduler aggregate rebuilds.
    pub rebuilds: u64,
    /// CPU sprint spans.
    pub sprint_spans: u64,
    /// Full sprint precondition proofs.
    pub sprint_proofs: u64,
    /// Sprint entries served by a cached proof token.
    pub sprint_token_hits: u64,
    /// CPU clock cycles.
    pub cpu_cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// CPU cycles asleep.
    pub sleep_cycles: u64,
    /// Decoded-instruction cache hits.
    pub decode_hits: u64,
    /// Decoded-instruction cache misses.
    pub decode_misses: u64,
    /// Instructions retired inside superblocks.
    pub block_instrs: u64,
    /// Fused ops executed.
    pub fused_ops: u64,
    /// Fused ops covering an instruction pair.
    pub fused_pairs: u64,
    /// Superblock re-verification failures.
    pub verify_aborts: u64,
    /// Completed fabric transfers.
    pub fabric_transfers: u64,
    /// Master-cycles a fabric request waited for a grant, over all
    /// master ports.
    pub fabric_stall: u64,
    /// Cycles with a fabric transfer in flight.
    pub fabric_busy: u64,
    /// Trace entries recorded.
    pub trace_entries: u64,
    /// Activity-timeline windows sampled.
    pub timeline_windows: u64,
}

impl SimCounters {
    /// Adds one SoC's cumulative counters: cycles, scheduler, sprint,
    /// superblock, decode-cache and CPU sleep accounting, and the trace
    /// length.
    pub fn absorb(&mut self, soc: &Soc) {
        let sched = soc.sched_stats();
        let sprint = soc.sprint_stats();
        let sb = soc.superblock_stats();
        let (hits, misses) = soc.decode_cache_stats();
        self.cycles += soc.cycle();
        self.stepped += sched.stepped_cycles();
        self.skipped += sched.skipped_cycles;
        self.skip_spans += sched.skip_spans;
        self.rebuilds += sched.rebuilds;
        self.sprint_spans += sprint.spans;
        self.sprint_proofs += sprint.proofs;
        self.sprint_token_hits += sprint.token_hits;
        self.cpu_cycles += soc.cpu().cycles();
        self.sleep_cycles += soc.cpu().sleep_cycles();
        self.decode_hits += hits;
        self.decode_misses += misses;
        self.block_instrs += sb.block_instrs;
        self.fused_ops += sb.fused_ops;
        self.fused_pairs += sb.fused_pairs;
        self.verify_aborts += sb.verify_aborts;
        self.trace_entries += soc.trace().len() as u64;
    }

    /// Adds the windowed counters from one drained activity image. The
    /// `cpu.retired` and `fabric.*` counters `Soc::publish_metrics`
    /// reports restart whenever a timeline window closes, so they are
    /// taken from the drain, which covers the whole run.
    pub fn absorb_activity(&mut self, activity: &ActivitySet) {
        self.retired += activity.count("ibex", ActivityKind::InstrRetired);
        self.fabric_transfers += activity.count("fabric", ActivityKind::BusTransfer);
        self.fabric_stall += activity.kind_total(ActivityKind::BusStall);
        self.fabric_busy += activity.count("fabric", ActivityKind::ActiveCycle);
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SimCounters) {
        self.cycles += other.cycles;
        self.events += other.events;
        self.stepped += other.stepped;
        self.skipped += other.skipped;
        self.skip_spans += other.skip_spans;
        self.rebuilds += other.rebuilds;
        self.sprint_spans += other.sprint_spans;
        self.sprint_proofs += other.sprint_proofs;
        self.sprint_token_hits += other.sprint_token_hits;
        self.cpu_cycles += other.cpu_cycles;
        self.retired += other.retired;
        self.sleep_cycles += other.sleep_cycles;
        self.decode_hits += other.decode_hits;
        self.decode_misses += other.decode_misses;
        self.block_instrs += other.block_instrs;
        self.fused_ops += other.fused_ops;
        self.fused_pairs += other.fused_pairs;
        self.verify_aborts += other.verify_aborts;
        self.fabric_transfers += other.fabric_transfers;
        self.fabric_stall += other.fabric_stall;
        self.fabric_busy += other.fabric_busy;
        self.trace_entries += other.trace_entries;
        self.timeline_windows += other.timeline_windows;
    }

    /// 1 − (stepped + skipped) ÷ cycles: SoC cycles no scheduler
    /// counter accounts for.
    pub fn sched_unattributed_frac(&self) -> f64 {
        ratio(
            self.cycles as f64 - (self.stepped + self.skipped) as f64,
            self.cycles as f64,
        )
    }

    /// The simulated per-layer statistics derived from the counters.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let events = self.events as f64;
        let kcycles = self.cpu_cycles as f64 / 1000.0;
        vec![
            (
                "soc.sched.stepped_frac",
                ratio(self.stepped as f64, self.cycles as f64),
            ),
            (
                "soc.sched.stepped_per_event",
                ratio(self.stepped as f64, events),
            ),
            (
                "soc.sched.skip_spans_per_event",
                ratio(self.skip_spans as f64, events),
            ),
            (
                "soc.sched.rebuilds_per_event",
                ratio(self.rebuilds as f64, events),
            ),
            (
                "soc.sched.unattributed_frac",
                self.sched_unattributed_frac(),
            ),
            (
                "soc.sprint.token_hit_ratio",
                ratio(
                    self.sprint_token_hits as f64,
                    (self.sprint_token_hits + self.sprint_proofs) as f64,
                ),
            ),
            (
                "soc.sprint.spans_per_event",
                ratio(self.sprint_spans as f64, events),
            ),
            (
                "cpu.block_instr_frac",
                ratio(self.block_instrs as f64, self.retired as f64),
            ),
            (
                "cpu.fused.ops_per_kcycle",
                ratio(self.fused_ops as f64, kcycles),
            ),
            (
                "cpu.fused.pair_frac",
                ratio(self.fused_pairs as f64, self.fused_ops as f64),
            ),
            (
                "cpu.decode_cache.hit_ratio",
                ratio(
                    self.decode_hits as f64,
                    (self.decode_hits + self.decode_misses) as f64,
                ),
            ),
            ("cpu.superblock.verify_aborts", self.verify_aborts as f64),
            (
                "cpu.retired_per_kcycle",
                ratio(self.retired as f64, kcycles),
            ),
            (
                "cpu.sleep_frac",
                ratio(self.sleep_cycles as f64, self.cpu_cycles as f64),
            ),
            (
                "fabric.transfers_per_event",
                ratio(self.fabric_transfers as f64, events),
            ),
            (
                "fabric.stall_frac",
                ratio(self.fabric_stall as f64, self.fabric_busy as f64),
            ),
            (
                "sim.trace_entries_per_event",
                ratio(self.trace_entries as f64, events),
            ),
            ("sim.timeline_windows", self.timeline_windows as f64),
        ]
    }
}

/// The trace point that marks a completed linking action (the same
/// marker `Scenario::try_run` counts).
fn completion_marker(mediator: Mediator) -> (&'static str, &'static str) {
    match mediator {
        Mediator::PelsInstant => ("pels.link0", "action"),
        _ => ("gpio", "padout"),
    }
}

fn build_soc(s: &Scenario, t: &mut LayerTimes) -> Soc {
    t.soc_builds += 1;
    t.time(Layer::SocBuild, || s.build_soc())
}

/// `Scenario::try_run`, one public layer call at a time.
///
/// # Errors
///
/// [`ScenarioError::NoEvents`] exactly when `try_run` reports it.
pub fn try_run(
    s: &Scenario,
    t: &mut LayerTimes,
    c: &mut SimCounters,
) -> Result<ScenarioReport, ScenarioError> {
    let mut soc = build_soc(s, t);
    if s.timeline_window > 0 {
        soc.start_timeline(s.timeline_window);
    }
    let timer = soc.timer_mut();
    timer
        .write(Timer::CMP, s.timer_period_cycles())
        .expect("the timer compare register is writable");
    timer
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .expect("the timer control register is writable");
    let per_event =
        u64::from(s.timer_period_cycles()) + u64::from(s.spi_words * s.spi_clkdiv()) + 64;
    let budget = u64::from(s.events) * per_event + 2_000;
    let marker = completion_marker(s.mediator);
    t.time(Layer::ActiveRun, || {
        soc.run_for_trace_count(budget, marker.0, marker.1, s.events as usize)
    });

    let window = soc.window_time();
    let cycles = soc.window_cycles();
    let (sched_stats, (decode_cache_hits, decode_cache_misses), metrics, timeline, activity) = t
        .time(Layer::Drain, || {
            c.absorb(&soc);
            let metrics = s.obs.then(|| {
                let mut reg = pels_obs::MetricsRegistry::new();
                soc.publish_metrics(&mut reg);
                reg.snapshot()
            });
            let timeline = soc.take_timeline();
            let activity = soc.drain_activity();
            c.absorb_activity(&activity);
            (
                soc.sched_stats(),
                soc.decode_cache_stats(),
                metrics,
                timeline,
                activity,
            )
        });
    c.timeline_windows += timeline.as_ref().map_or(0, |tl| tl.len() as u64);

    let period_ps = s.freq().period_ps();
    let (latencies, events_completed) = t.time(Layer::Trace, || {
        let latencies: Vec<u64> = soc
            .trace()
            .latencies_all(("spi", "eot"), marker)
            .into_iter()
            .map(|l| l.as_ps() / period_ps)
            .collect();
        let completed = soc.trace().all(marker.0, marker.1).len() as u32;
        (latencies, completed)
    });
    c.events += u64::from(events_completed);
    let stats = LinkingStats::from_cycles(&latencies).ok_or(ScenarioError::NoEvents {
        mediator: s.mediator,
        budget,
    })?;
    let mut latency_hist = pels_obs::Histogram::new();
    for &l in &latencies {
        latency_hist.record(l);
    }
    let flows = soc.trace_mut().take_flow_trace();

    let mut idle_soc = build_soc(s, t);
    t.time(Layer::IdleRun, || idle_soc.run(cycles));
    let idle_window = idle_soc.window_time();
    let idle_activity = t.time(Layer::Drain, || {
        c.absorb(&idle_soc);
        let activity = idle_soc.drain_activity();
        c.absorb_activity(&activity);
        activity
    });

    let (energy, lifetime) = if s.lifetime {
        let timeline_power = match &timeline {
            Some(tl) => t.time(Layer::Timeline, || {
                let model = power_setup::power_model_for(s.pels());
                PowerTimeline::from_activity(&model, tl, s.freq())
            }),
            None => t.time(Layer::Report, || {
                let model = power_setup::power_model_for(s.pels());
                let report = model.report(&activity, window);
                PowerTimeline {
                    samples: vec![PowerSample {
                        start: SimTime::ZERO,
                        end: window,
                        total_uw: report.total().as_uw(),
                        components: report
                            .components()
                            .iter()
                            .map(|c| (c.name.clone(), c.total().as_uw()))
                            .collect(),
                    }],
                }
            }),
        };
        let ledger = t.time(Layer::Ledger, || {
            EnergyLedger::from_timeline(&timeline_power)
        });
        let projection = t.time(Layer::Battery, || Battery::coin_cell().project(&ledger));
        (Some(ledger), Some(projection))
    } else {
        (None, None)
    };
    let trace = t.time(Layer::Trace, || soc.trace().clone());

    Ok(ScenarioReport {
        mediator: s.mediator,
        freq: s.freq(),
        latencies,
        stats,
        latency_hist,
        timeline,
        events_completed,
        active_activity: activity,
        active_window: window,
        idle_activity,
        idle_window,
        pels: s.pels(),
        trace,
        sched_stats,
        decode_cache_hits,
        decode_cache_misses,
        metrics,
        flows,
        energy,
        lifetime,
    })
}

/// `JobOutcome::measure` (the fleet's job body), one public layer call
/// at a time.
///
/// # Errors
///
/// As [`try_run`].
pub fn measure(
    s: &Scenario,
    t: &mut LayerTimes,
    c: &mut SimCounters,
) -> Result<JobOutcome, ScenarioError> {
    let report = try_run(s, t, c)?;
    let (active, idle) = t.time(Layer::Report, || {
        let model = report.power_model();
        (report.active_power(&model), report.idle_power(&model))
    });
    Ok(JobOutcome {
        scenario: s.clone(),
        active_uw: active.total().as_uw(),
        idle_uw: idle.total().as_uw(),
        active_memory_uw: active.memory_system().as_uw(),
        idle_memory_uw: idle.memory_system().as_uw(),
        report,
    })
}
