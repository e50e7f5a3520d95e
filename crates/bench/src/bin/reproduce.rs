//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p pels-bench --bin reproduce --release            # everything
//! cargo run -p pels-bench --bin reproduce -- table1 fig5      # a subset
//! ```
//!
//! Artifacts: `table1`, `fig3`, `fig5`, `latency`, `fig6a`, `fig6b`,
//! `ablations`, `extensions`, `sim_throughput` (which additionally
//! writes `BENCH_sim_throughput.json` so the simulator's own speed is
//! tracked across PRs), `fleet` (which runs a reference sweep on 1
//! worker and on all available workers, checks the two reports are
//! bit-identical, and writes `BENCH_fleet_throughput.json`), `desc`
//! (which regenerates the canonical system/scenario description corpus
//! under `examples/descs/`, gated by the `desc_check` binary), and
//! `lifetime` (which duty-cycles a sensor node over hours of simulated
//! time, projects coin-cell battery lifetime for PELS vs the interrupt
//! baseline, sweeps duty cycle × sensor payload × mediator across a
//! fleet, and writes `BENCH_lifetime.json` — schema-gated by
//! `obs_check`). The `--quick` flag shrinks the `lifetime` horizon for
//! smoke runs.
//!
//! The `--obs` flag (combinable with any artifact subset) enables the
//! host-time span profiler for the whole run and appends an
//! observability pass: a busy-CPU scenario (with windowed activity
//! sampling) plus a small fleet, exported as `OBS_metrics.json` (flat
//! counter snapshot), `OBS_trace.json` (Chrome trace-event JSON with
//! instant events, host spans and per-component power counter tracks,
//! loadable in Perfetto / `chrome://tracing`) and `OBS_timeline.json`
//! (the per-window per-component power timeline). The pass also prints
//! the power-over-time sparkline and the latency histogram, so the
//! terminal alone shows the shape of the run. `obs_check` gates all
//! three files' schemas in `scripts/bench_smoke.sh`.

use pels_bench::{ablations, experiments, sota, throughput};
use pels_desc::{DescFuzzer, FuzzCase};
use pels_fleet::{report as fleet_report, FleetEngine, SweepSpec};
use pels_interconnect::{ArbiterKind, Topology};
use pels_obs::json::{self, Value};
use pels_obs::json_object;
use pels_power::{Battery, EnergyLedger};
use pels_sim::SimTime;
use pels_soc::{Mediator, Scenario, ScenarioDesc, SensorKind, SystemDesc};
use std::process::ExitCode;

const ALL: &[&str] = &[
    "table1",
    "fig3",
    "latency",
    "fig5",
    "fig6a",
    "fig6b",
    "ablations",
    "extensions",
    "sim_throughput",
    "fleet",
    "desc",
    "lifetime",
];

/// The reference 8-job sweep for the fleet artifact: 2 mediators × 2
/// frequencies × 2 link counts.
fn fleet_reference_spec() -> SweepSpec {
    SweepSpec::new()
        .mediators(&[Mediator::PelsSequenced, Mediator::PelsInstant])
        .freqs_mhz(&[27.0, 55.0])
        .links(&[1, 4])
}

fn run_fleet_artifact() -> Result<String, String> {
    let spec = fleet_reference_spec();
    let serial = FleetEngine::new(1)
        .run_sweep(&spec)
        .map_err(|e| format!("fleet sweep invalid: {e}"))?;
    let parallel = FleetEngine::auto()
        .run_sweep(&spec)
        .map_err(|e| format!("fleet sweep invalid: {e}"))?;
    if serial.digest() != parallel.digest() {
        return Err(format!(
            "fleet determinism violated: 1-worker digest {:016x} != {}-worker digest {:016x}",
            serial.digest(),
            parallel.workers,
            parallel.digest()
        ));
    }
    let host = pels_fleet::engine::host_parallelism();
    let json = fleet_report::to_json(&parallel, host);
    std::fs::write("BENCH_fleet_throughput.json", &json)
        .map_err(|e| format!("writing BENCH_fleet_throughput.json: {e}"))?;
    Ok(format!(
        "Fleet - parallel scenario sweep (8-job reference batch)\n{}\n\
         digest {:016x} identical on 1 and {} worker(s) (host parallelism: {host})\n\
         serial wall {:.1} ms -> parallel wall {:.1} ms\n\
         (wrote BENCH_fleet_throughput.json)\n",
        parallel.render(),
        parallel.digest(),
        parallel.workers,
        serial.wall.as_secs_f64() * 1e3,
        parallel.wall.as_secs_f64() * 1e3,
    ))
}

/// Serializes the lifetime artifact as `BENCH_lifetime.json`: the
/// battery parameters, the headline duty-cycled PELS-vs-IRQ projection
/// and the per-job sweep rows. `obs_check` schema-gates this file.
fn lifetime_to_json(
    quick: bool,
    battery: &Battery,
    period: SimTime,
    horizon: SimTime,
    pels: &pels_power::LifetimeReport,
    irq: &pels_power::LifetimeReport,
    fleet: &pels_fleet::FleetReport,
) -> String {
    let sweep = fleet.succeeded().map(|(label, o)| {
        let ledger = o.report.energy.as_ref().expect("lifetime(true) ledger");
        let projection = o.report.lifetime.as_ref().expect("lifetime(true) projection");
        let desc = o.scenario.desc();
        json_object! {
            "label" => label,
            "mediator" => desc.mediator.to_string(),
            "sample_period_us" => desc.sample_period.as_us_f64(),
            "spi_words" => desc.spi_words,
            "mean_uw" => ledger.mean_power().as_uw(),
            "days" => projection.days(),
        }
    });
    json::to_string(&json_object! {
        "schema_version" => 1u64,
        "quick" => quick,
        "battery" => json_object! {
            "capacity_mah" => battery.capacity_mah,
            "nominal_v" => battery.nominal_v,
            "rate_exponent" => battery.rate_exponent,
            "sleep_floor_uw" => battery.sleep_floor_uw,
            "cutoff_fraction" => battery.cutoff_fraction,
        },
        "headline" => json_object! {
            "sample_period_us" => period.as_us_f64(),
            "horizon_ms" => horizon.as_us_f64() / 1e3,
            "pels_days" => pels.days(),
            "irq_days" => irq.days(),
            "lifetime_ratio" => pels.seconds / irq.seconds,
            "pels_mean_uw" => pels.mean_draw_uw,
            "irq_mean_uw" => irq.mean_draw_uw,
        },
        "sweep" => Value::Arr(sweep.collect()),
        "digest" => format!("{:016x}", fleet.digest()),
    })
}

/// The `lifetime` artifact: how long does the node last on a coin cell?
///
/// Runs the duty-cycled preset (sleep → sense → burst every sample
/// period) for PELS-sequenced mediation and the interrupt baseline over
/// a long simulated horizon, projects both onto [`Battery::coin_cell`],
/// then sweeps duty cycle (sample period) × sensor payload (SPI words)
/// × mediator across a fleet with the energy ledger switched on.
/// Quiescence skipping makes the sleep stretches nearly free, so hours
/// of device time integrate in seconds of host time. `--quick` shrinks
/// the horizon for smoke runs.
fn run_lifetime_artifact(quick: bool) -> Result<String, String> {
    // 100 kHz sampling is where mediation energy is visible over the
    // static leakage floor: the interrupt baseline wakes the core every
    // 10 µs, PELS keeps it asleep, and the gap is worth ~2 days of
    // coin cell. Longer periods amortize toward the leakage-only floor
    // (the sweep below covers that regime).
    let period = SimTime::from_us(10);
    let horizon = if quick {
        SimTime::from_ms(50)
    } else {
        SimTime::from_ms(1_000)
    };
    let project = |m: Mediator| -> Result<pels_power::LifetimeReport, String> {
        let report = Scenario::duty_cycled(m, period, horizon)
            .try_run()
            .map_err(|e| format!("lifetime scenario ({m:?}) failed: {e}"))?;
        report
            .lifetime
            .ok_or_else(|| format!("lifetime scenario ({m:?}) produced no projection"))
    };
    let pels = project(Mediator::PelsSequenced)?;
    let irq = project(Mediator::IbexIrq)?;

    // Duty cycle × sensor payload × mediator, ledger on for every job.
    let periods_us: &[u64] = if quick { &[100, 500] } else { &[10, 100, 1_000] };
    let spec = SweepSpec::new()
        .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
        .sample_periods_us(periods_us)
        .spi_word_counts(&[1, 4])
        .lifetime(true);
    let fleet = FleetEngine::auto()
        .run_sweep(&spec)
        .map_err(|e| format!("lifetime sweep invalid: {e}"))?;
    if let Some((label, e)) = fleet.failed().next() {
        return Err(format!("lifetime sweep job `{label}` failed: {e}"));
    }

    let battery = Battery::coin_cell();
    std::fs::write(
        "BENCH_lifetime.json",
        lifetime_to_json(quick, &battery, period, horizon, &pels, &irq, &fleet),
    )
    .map_err(|e| format!("writing BENCH_lifetime.json: {e}"))?;

    let mut sweep_table = String::new();
    for (label, o) in fleet.succeeded() {
        let projection = o.report.lifetime.as_ref().expect("lifetime(true) projection");
        sweep_table.push_str(&format!(
            "  {label:<44}  {:>9.1} days\n",
            projection.days()
        ));
    }
    Ok(format!(
        "Lifetime - days-of-battery projection ({} duty periods over {:.1} s)\n\
         PELS-sequenced node:\n{}\
         Ibex interrupt baseline:\n{}\
         PELS outlasts the baseline {:.2}x on the same cell\n\
         duty cycle x payload x mediator sweep ({} jobs):\n{}\
         (wrote BENCH_lifetime.json)\n",
        (horizon.as_ps() / period.as_ps()),
        horizon.as_secs_f64(),
        pels.render(),
        irq.render(),
        pels.seconds / irq.seconds,
        fleet.jobs.len(),
        sweep_table,
    ))
}

/// Nominal sampling window (cycles) for the `--obs` pass's activity
/// timeline: ~20 windows over the reference run — coarse enough to stay
/// readable in a terminal sparkline, fine enough to resolve the
/// per-readout power bursts.
const OBS_TIMELINE_WINDOW: u64 = 64;

/// Serializes the power timeline as the `OBS_timeline.json` artifact:
/// per window, the cycle/ns span, the total power and the
/// per-component breakdown. `obs_check` schema-gates this file.
fn timeline_to_json(
    report: &pels_soc::ScenarioReport,
    power: &pels_power::PowerTimeline,
) -> String {
    let timeline = report.timeline.as_ref().expect("timeline sampled");
    let windows = timeline.windows.iter().zip(&power.samples).map(|(w, p)| {
        let components = p
            .components
            .iter()
            .map(|(name, uw)| (name.as_str(), Value::from(*uw)));
        json_object! {
            "start_cycle" => w.start_cycle, "end_cycle" => w.end_cycle,
            "start_ns" => p.start.as_ns(), "end_ns" => p.end.as_ns(),
            "total_uw" => p.total_uw, "components" => Value::object(components),
        }
    });
    json::to_string(&json_object! {
        "schema_version" => 1u64,
        "freq_mhz" => report.freq.as_mhz(),
        "window_cycles" => timeline.window_cycles,
        "mean_total_uw" => power.mean_total_uw(),
        "windows" => Value::Arr(windows.collect()),
    })
}

/// Serializes the three per-mediator flow decompositions as
/// `OBS_flows.json`: per section the [`pels_obs::FlowReport`] object
/// plus the exemplar hop chain of its first complete flow (timestamps,
/// sources, typed stages). `obs_check` gates non-emptiness, hop-time
/// monotonicity and the stage allowlist against this file.
fn flows_to_json(sections: &[(&str, &pels_soc::ScenarioReport)]) -> String {
    let sections = sections.iter().map(|&(name, report)| {
        let fr = report.flow_report().expect("flows recorded");
        let flows = report.flows.as_ref().expect("flows recorded");
        let exemplar = flows
            .flow_ids()
            .into_iter()
            .find(|&id| flows.hops_of(id).any(|h| h.stage == fr.terminal()));
        let hops = exemplar.into_iter().flat_map(|id| flows.hops_of(id)).map(|h| {
            json_object! {
                "t_ps" => h.time.as_ps(), "source" => h.source_name(), "stage" => h.stage,
            }
        });
        let section = json_object! {
            "freq_mhz" => report.freq.as_mhz(),
            "report" => fr.to_value(),
            "exemplar_hops" => Value::Arr(hops.collect()),
        };
        (name, section)
    });
    let schema = std::iter::once(("schema_version", Value::from(1u64)));
    json::to_string(&Value::object(schema.chain(sections)))
}

/// The `--obs` pass: runs a busy-CPU scenario (activity timeline
/// sampled every [`OBS_TIMELINE_WINDOW`] cycles), a fused-superblock
/// spin workload and a small fleet with full metrics collection, plus
/// the three flow-traced latency probes. Exports the merged counter
/// snapshot, the Chrome trace (simulated-time events + flow arrows +
/// host-time spans + power counter tracks), the power timeline and the
/// per-stage flow decomposition, and renders the latency histogram,
/// power sparkline and PELS-vs-IRQ blame tables inline.
fn run_obs_artifact() -> Result<String, String> {
    // The profiler was enabled in `main` before any artifact ran; start
    // the event buffer from a clean slate so the exported trace covers
    // exactly this pass.
    pels_obs::profile::reset();
    let mut reg = pels_obs::MetricsRegistry::new();

    // Busy-CPU workload: the interrupt path keeps the core fetching, so
    // the decode cache, the scheduler and the fabric all engage.
    let scenario = Scenario::iso_frequency(Mediator::IbexIrq)
        .to_builder()
        .obs(true)
        .timeline_window(OBS_TIMELINE_WINDOW)
        .build()
        .map_err(|e| format!("obs scenario invalid: {e}"))?;
    let report = scenario
        .try_run()
        .map_err(|e| format!("obs scenario failed: {e}"))?;
    reg.absorb(report.metrics.as_ref().expect("obs(true) snapshot"));

    // Busy-linking fused workload: the interrupt handler alone retires
    // too few straight-line ALU ops for the superblock and fusion tiers
    // to engage, so those counters would vanish from the snapshot (zero
    // values are filtered). A spinning fusible loop — `lui+addi` and an
    // ALU-immediate chain through one live destination — drives
    // `cpu.superblock.*`, `cpu.fused.*` and `soc.sprint.*` to honest
    // nonzero values.
    {
        use pels_cpu::asm;
        let mut soc = pels_soc::SocBuilder::new().build();
        soc.load_program(
            pels_soc::mem_map::RESET_PC,
            &[
                asm::lui(1, 0x1234_5000),
                asm::addi(1, 1, 0x678),
                asm::addi(2, 2, 1),
                asm::addi(2, 2, 1),
                asm::jal(0, -16),
            ],
        );
        let _span = pels_obs::profile::span("obs.fused_spin");
        soc.run(4096);
        // Publish into a private registry and absorb the (zero-filtered)
        // snapshot: `publish_metrics` has set semantics, so publishing
        // straight into `reg` would overwrite the scenario's counters
        // with this workload's (including zeros for layers it never
        // touches, e.g. the scheduler's sleep counter).
        let mut spin_reg = pels_obs::MetricsRegistry::new();
        soc.publish_metrics(&mut spin_reg);
        reg.absorb(&spin_reg.snapshot());
    }

    // A small fleet on one worker — single-worker attribution is
    // deterministic, so `fleet.worker0.jobs` is reliably nonzero for the
    // obs_check schema gate.
    let fleet = FleetEngine::new(1)
        .run_sweep(&SweepSpec::new().mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq]))
        .map_err(|e| format!("obs fleet sweep invalid: {e}"))?;
    fleet.publish_metrics(&mut reg);

    // Flow-traced latency probes: one per mediation path. Each records
    // the causal hop chain of every measured event, so the end-to-end
    // latencies the paper reports (7 / 2 / 16 cycles) decompose into a
    // per-stage blame table that sums exactly — see
    // `tests/flow_properties.rs` for the telescoping proof.
    let probe = |m: Mediator| -> Result<pels_soc::ScenarioReport, String> {
        Scenario::latency_probe(m)
            .to_builder()
            .flows(true)
            .build()
            .map_err(|e| format!("flow probe invalid: {e}"))?
            .try_run()
            .map_err(|e| format!("flow probe failed: {e}"))
    };
    let seq = probe(Mediator::PelsSequenced)?;
    let inst = probe(Mediator::PelsInstant)?;
    let irq = probe(Mediator::IbexIrq)?;
    std::fs::write(
        "OBS_flows.json",
        flows_to_json(&[
            ("pels_sequenced", &seq),
            ("pels_instant", &inst),
            ("ibex_irq", &irq),
        ]),
    )
    .map_err(|e| format!("writing OBS_flows.json: {e}"))?;

    // Power over simulated time: the model evaluated once per window.
    let model = report.power_model();
    let power = report
        .power_timeline(&model)
        .expect("timeline_window(>0) samples a timeline");
    if power.is_empty() {
        return Err("obs timeline captured no windows".into());
    }
    std::fs::write("OBS_timeline.json", timeline_to_json(&report, &power))
        .map_err(|e| format!("writing OBS_timeline.json: {e}"))?;

    // Integrate the timeline into the energy ledger and project it onto
    // the reference coin cell, then publish both as `power.energy.*` /
    // `battery.*` counters so the snapshot carries the energy story too.
    let ledger = EnergyLedger::from_timeline(&power);
    let projection = Battery::coin_cell().project(&ledger);
    for (key, value) in ledger
        .metric_pairs()
        .into_iter()
        .chain(projection.metric_pairs())
    {
        reg.set_named(key, value);
    }

    let snap = reg.snapshot();
    std::fs::write("OBS_metrics.json", json::to_string(&snap.to_value()))
        .map_err(|e| format!("writing OBS_metrics.json: {e}"))?;

    let mut chrome = pels_obs::ChromeTrace::new();
    chrome.add_sim_trace(&report.trace);
    for s in &power.samples {
        let series: Vec<(&str, f64)> = s
            .components
            .iter()
            .map(|(name, uw)| (name.as_str(), *uw))
            .collect();
        chrome.add_counter("power_uw", s.start.as_us_f64(), &series);
        chrome.add_counter("power_total_uw", s.start.as_us_f64(), &[("total", s.total_uw)]);
    }
    // Projected state of charge as its own counter track. The curve
    // spans days while the trace spans microseconds, so the track keeps
    // its own time base — one tick per projected day, named in the
    // track title so the axis is explicit.
    for p in &projection.soc {
        chrome.add_counter("battery_soc (t in days)", p.t_days, &[("fraction", p.fraction)]);
    }
    // Causal flow arrows: the PELS and IRQ probe chains rendered as
    // Perfetto s/t/f flows between per-component anchor slices.
    for probe_report in [&seq, &irq] {
        chrome.add_flow_events(probe_report.flows.as_ref().expect("flows(true) records"));
    }
    chrome.add_host_spans(&pels_obs::profile::take_events());
    let doc = chrome.finish();
    pels_obs::chrome::validate(&doc).map_err(|e| format!("chrome trace invalid: {e}"))?;
    std::fs::write("OBS_trace.json", &doc)
        .map_err(|e| format!("writing OBS_trace.json: {e}"))?;

    Ok(format!(
        "Observability - metrics snapshot, trace export and timeline\n{snap}\n{}\n\
         latency distribution ({} events, p50 {} / p99 {} cycles):\n{}\
         power over simulated time ({} windows of ~{} cycles, mean {:.1} uW):\n  {}\n\
         where the energy goes - per-component blame:\n{}\
         {}\
         where the cycles go - PELS sequenced RMW:\n{}\
         where the cycles go - Ibex interrupt path:\n{}\
         (wrote OBS_metrics.json, OBS_trace.json, OBS_timeline.json, OBS_flows.json)\n",
        pels_obs::profile::report().render(),
        report.latency_hist.count(),
        report.stats.p50,
        report.stats.p99,
        report.latency_hist.render("cycles"),
        power.len(),
        OBS_TIMELINE_WINDOW,
        power.mean_total_uw(),
        pels_obs::hist::sparkline(&power.total_series()),
        ledger.render(),
        projection.render(),
        seq.flow_report().expect("flows recorded").render(),
        irq.flow_report().expect("flows recorded").render(),
    ))
}

/// Fixed seed for the fuzzed slice of the description corpus — the
/// corpus is a committed artifact, so regeneration must be bit-stable.
const DESC_FUZZ_SEED: u64 = 0xDE5C;

/// The `desc` artifact: emits the canonical description corpus under
/// `examples/descs/` — the paper presets, the named example systems and
/// a fixed-seed fuzzed slice. Every emitted document is round-tripped
/// through its own parser before it is written; `desc_check` re-gates
/// the files (parse → validate → smoke run) in `scripts/bench_smoke.sh`.
fn run_desc_artifact() -> Result<String, String> {
    let dir = std::path::Path::new("examples/descs");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let mut docs: Vec<(String, String)> = Vec::new();
    let scenario = |name: &str, d: &ScenarioDesc| -> Result<(String, String), String> {
        let json = d.to_json();
        let back = ScenarioDesc::from_json(&json)
            .map_err(|e| format!("{name}: emitted JSON fails to re-parse: {e}"))?;
        if &back != d {
            return Err(format!("{name}: round-trip is not the identity"));
        }
        Ok((format!("{name}.json"), json))
    };
    let system = |name: &str, d: &SystemDesc| -> Result<(String, String), String> {
        let json = d.to_json();
        let back = SystemDesc::from_json(&json)
            .map_err(|e| format!("{name}: emitted JSON fails to re-parse: {e}"))?;
        if &back != d {
            return Err(format!("{name}: round-trip is not the identity"));
        }
        Ok((format!("{name}.json"), json))
    };

    // The paper presets.
    docs.push(scenario("default_scenario", &ScenarioDesc::default())?);
    docs.push(scenario(
        "iso_frequency_irq",
        Scenario::iso_frequency(Mediator::IbexIrq).desc(),
    )?);
    docs.push(scenario(
        "latency_probe_instant",
        Scenario::latency_probe(Mediator::PelsInstant).desc(),
    )?);
    let mut crossbar = ScenarioDesc::default();
    crossbar.system.topology = Topology::PerSlaveCrossbar;
    crossbar.system.arbiter = ArbiterKind::FixedPriority;
    docs.push(scenario("crossbar_fixed_priority", &crossbar)?);

    // The named example systems (system-only documents).
    let mut quickstart = SystemDesc::default();
    quickstart.pels.links = 1;
    quickstart.pels.scm_lines = 4;
    docs.push(system("quickstart_system", &quickstart)?);
    let fusion = SystemDesc {
        sensor: SensorKind::Constant(2.0),
        ..SystemDesc::default()
    };
    docs.push(system("sensor_fusion_system", &fusion)?);

    // A fixed-seed fuzzed slice: the first 6 generated-valid cases.
    let mut fuzzer = DescFuzzer::new(DESC_FUZZ_SEED);
    let mut taken = 0usize;
    while taken < 6 {
        if let FuzzCase::Valid(desc) = fuzzer.next_case() {
            desc.validate()
                .map_err(|e| format!("fuzzed desc {taken} invalid: {e}"))?;
            docs.push(scenario(&format!("fuzz_{taken:02}"), &desc)?);
            taken += 1;
        }
    }

    let mut listing = String::new();
    for (name, json) in &docs {
        let path = dir.join(name);
        std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        listing.push_str(&format!("  {} ({} bytes)\n", path.display(), json.len()));
    }
    Ok(format!(
        "Descriptions - canonical corpus ({} documents, fuzz seed {DESC_FUZZ_SEED:#x})\n{listing}\
         (round-trip checked on emit; `desc_check` gates parse/validate/smoke)\n",
        docs.len(),
    ))
}

fn run_one(artifact: &str, quick: bool) -> Result<(), String> {
    let text = match artifact {
        "table1" => {
            let mut s = String::from(
                "Table I - autonomous peripheral-event handling systems\n",
            );
            s.push_str(&sota::render_table1());
            s
        }
        "fig3" => experiments::render_fig3(),
        "latency" => experiments::render_latency(),
        "fig5" => experiments::render_fig5(),
        "fig6a" => experiments::render_fig6a(),
        "fig6b" => experiments::render_fig6b(),
        "ablations" => ablations::render_all(),
        "extensions" => experiments::render_extension_link_power(),
        "sim_throughput" => {
            let samples = 10;
            let rows = throughput::measure(samples);
            // Merge into the existing artifact so keys written by other
            // runs/tools survive a regeneration.
            let existing = std::fs::read_to_string("BENCH_sim_throughput.json").ok();
            let json = throughput::merge_json(&rows, samples, existing.as_deref());
            std::fs::write("BENCH_sim_throughput.json", &json)
                .map_err(|e| format!("writing BENCH_sim_throughput.json: {e}"))?;
            format!("{}(wrote BENCH_sim_throughput.json)\n", throughput::render(&rows))
        }
        "fleet" => run_fleet_artifact()?,
        "desc" => run_desc_artifact()?,
        "lifetime" => run_lifetime_artifact(quick)?,
        other => return Err(format!("unknown artifact `{other}` (expected one of {ALL:?})")),
    };
    println!("================================================================");
    println!("{text}");
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let before = args.len();
    args.retain(|a| a != "--obs");
    let obs = args.len() != before;
    let before = args.len();
    args.retain(|a| a != "--quick");
    let quick = args.len() != before;
    if obs {
        pels_obs::profile::set_enabled(true);
    }
    let selected: Vec<&str> = if args.is_empty() {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for artifact in selected {
        if let Err(e) = run_one(artifact, quick) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if obs {
        match run_obs_artifact() {
            Ok(text) => {
                println!("================================================================");
                println!("{text}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
