//! Layered host-time benchmark of the PELS reproduction.
//!
//! ```text
//! perfbench --workload <duty_lifetime|busy_linking|design_sweep|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, checks every simulated result, and
//! prints as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `all` runs the three workloads one
//! after the other, each in its own child process, one result line
//! each. See `README.md` next to this crate.

mod busy;
mod duty;
mod harness;
mod inputs;
mod layers;
mod stats;
mod sweep;

use harness::{Config, Outcome, Size};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["duty_lifetime", "busy_linking", "design_sweep"];

/// Every per-layer metric a traced run reports, with its unit, in
/// output order. A layer a workload does not use reports 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("desc.build_s", "s"),
    ("soc.build_s", "s"),
    ("soc.build_share", "frac"),
    ("soc.active_run_s", "s"),
    ("soc.idle_run_s", "s"),
    ("soc.drain_s", "s"),
    ("soc.sched.stepped_frac", "frac"),
    ("soc.sched.stepped_per_event", "cycles/event"),
    ("soc.sched.skip_spans_per_event", "spans/event"),
    ("soc.sched.rebuilds_per_event", "1/event"),
    ("soc.sched.unattributed_frac", "frac"),
    ("soc.sprint.token_hit_ratio", "frac"),
    ("soc.sprint.spans_per_event", "spans/event"),
    ("cpu.block_instr_frac", "frac"),
    ("cpu.fused.ops_per_kcycle", "ops/kcycle"),
    ("cpu.fused.pair_frac", "frac"),
    ("cpu.decode_cache.hit_ratio", "frac"),
    ("cpu.superblock.verify_aborts", "count"),
    ("cpu.retired_per_kcycle", "instr/kcycle"),
    ("cpu.sleep_frac", "frac"),
    ("fabric.transfers_per_event", "1/event"),
    ("fabric.stall_frac", "frac"),
    ("sim.trace_s", "s"),
    ("sim.trace_entries_per_event", "1/event"),
    ("sim.timeline_windows", "count"),
    ("power.timeline_s", "s"),
    ("power.timeline_us_per_window", "us/window"),
    ("power.ledger_s", "s"),
    ("power.battery_s", "s"),
    ("power.report_s", "s"),
    ("fleet.batch_s", "s"),
    ("fleet.job_busy_s", "s"),
    ("fleet.parallel_eff", "frac"),
    ("fleet.steals", "count"),
    ("fleet.job_max_over_median", "ratio"),
    ("wall_tail_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
    ("bench.failed_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, cfg: &Config) -> Outcome {
    match name {
        "duty_lifetime" => duty::run(cfg),
        "busy_linking" => busy::run(cfg),
        "design_sweep" => sweep::run(cfg),
        other => unreachable!("workload `{other}` was validated by the argument parser"),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(out: &Outcome, trace: bool) -> String {
    let failed_frac = stats::ratio(out.checks.failed as f64, out.checks.attempted as f64);
    let metrics: Vec<(&str, f64, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "bench.failed_frac" {
                    failed_frac
                } else {
                    out.per_layer
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v)
                };
                (name, value, unit)
            })
            .collect()
    } else {
        out.end_to_end
            .iter()
            .map(|m| (m.name, m.value, m.unit))
            .collect()
    };
    let measured = if trace {
        !out.per_layer.is_empty()
    } else {
        !out.end_to_end.is_empty()
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.checks.failed == 0 && measured && finite;
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.checks.attempted.max(1),
        out.checks.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::FULL,
    };
    let name = args.workload.as_str();
    println!(
        "# simulated results are checked for repeatability, against the naive tier and \
         against the paper's published latency and lifetime ordering; the model is \
         validated only against the paper's published latencies and ratios, not against silicon"
    );
    println!(
        "# workload {name}, seed {}, trace {}",
        cfg.seed,
        u8::from(cfg.trace)
    );
    let out = run_workload(name, &cfg);
    for line in out.notes.iter().chain(&out.checks.failures) {
        println!("# {line}");
    }
    println!("{}", result_json(&out, cfg.trace));
    ExitCode::SUCCESS
}

/// `--workload all`: each workload in a fresh child process, one after
/// the other, so each peak-RSS reading covers that workload alone (an
/// allocator keeps freed memory resident, so an earlier workload's
/// footprint would otherwise carry over).
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: workload {name} exited with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start workload {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::SimCounters;

    fn tiny(seed: u64, trace: bool) -> Config {
        Config {
            seed,
            seconds: 0.0,
            trace,
            size: Size::TINY,
        }
    }

    fn per_layer(out: &Outcome, name: &str) -> f64 {
        out.per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn every_workload_runs_correctly_at_a_tiny_length() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(name, &tiny(7, trace));
                assert_eq!(out.checks.failed, 0, "{name}: {:?}", out.checks.failures);
                let line = result_json(&out, trace);
                assert!(line.starts_with("{\"correct\": true"), "{name}: {line}");
            }
        }
    }

    #[test]
    fn scheduler_counters_attribute_every_cycle() {
        for name in WORKLOADS {
            let out = run_workload(name, &tiny(3, true));
            assert_eq!(
                per_layer(&out, "soc.sched.unattributed_frac"),
                0.0,
                "{name}"
            );
        }
    }

    #[test]
    fn deterministic_counters_repeat_exactly_for_a_seed() {
        let counters = |seed| {
            let mut t = layers::LayerTimes::default();
            let mut c = SimCounters::default();
            for s in
                duty::build_scenarios(seed, Size::TINY.duty_horizon_us, pels_soc::ExecMode::Fast)
            {
                layers::try_run(&s, &mut t, &mut c).expect("duty-cycled run completes");
            }
            for (_, s) in sweep::batch_jobs(seed, 4, pels_soc::ExecMode::Fast).expect("valid batch")
            {
                layers::measure(&s, &mut t, &mut c).expect("sweep job completes");
            }
            let mut soc = busy::build(seed);
            soc.run(Size::TINY.busy_cycles);
            c.absorb(&soc);
            c
        };
        let a = counters(11);
        assert!(a.events > 0 && a.cycles > 0);
        assert_eq!(a, counters(11));
        let simulated_names: Vec<&str> = SimCounters::default()
            .metrics()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        let simulated = |o: &Outcome| {
            o.per_layer
                .iter()
                .filter(|(n, _)| simulated_names.contains(n))
                .map(|&(n, v)| (n, v.to_bits()))
                .collect::<Vec<_>>()
        };
        for name in WORKLOADS {
            let first = run_workload(name, &tiny(5, true));
            let second = run_workload(name, &tiny(5, true));
            assert_eq!(simulated(&first), simulated(&second), "{name}");
        }
    }

    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let json = pels_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let table: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("per_layer"), table);
        let out = run_workload("busy_linking", &tiny(1, false));
        let e2e: Vec<String> = out.end_to_end.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let workloads = names("workloads");
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }
}
