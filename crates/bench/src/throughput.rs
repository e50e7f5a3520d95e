//! Raw simulation-throughput measurement (simulated SoC cycles per
//! wall-clock second) — the meta-benchmark for the behavioural substrate
//! itself, tracked across PRs via `BENCH_sim_throughput.json`.
//!
//! Three workloads bound the space:
//!
//! * **idle SoC** — CPU parked in `wfi`, all peripherals quiescent: the
//!   dominant state of the paper's duty-cycled ULP workloads and the one
//!   the quiescence-aware scheduler accelerates. Measured on both the
//!   fast path and the naive every-cycle path so the speedup itself is a
//!   tracked number.
//! * **linking workload** — the iso-frequency PELS-mediated sensing
//!   scenario (events actually flow through trigger/exec every period).
//! * **IRQ baseline** — the same scenario mediated by Ibex interrupts
//!   (CPU wake/sleep traffic every event).
//! * **busy linking workload** — a PELS link fires while the CPU crunches
//!   a straight-line kernel that never sleeps: the workload superblock
//!   execution accelerates. Measured on both CPU tiers — fused
//!   superblocks (the default fast path) and the CPU forced to
//!   single-step — so the fused-tier speedup (`linking_fused_speedup`)
//!   is a tracked number.

use crate::harness::{fmt_rate, Bench};
use pels_obs::json::{self, Value};
use pels_sim::Frequency;
use pels_soc::{ExecMode, Mediator, Scenario, SocBuilder};
use pels_cpu::asm;
use pels_interconnect::ApbSlave as _;
use pels_periph::Timer;
use pels_soc::event_map::{AL_GPIO_TOGGLE, EV_TIMER_CMP};
use pels_soc::mem_map::RESET_PC;

/// Simulated cycles per idle-SoC measurement iteration.
pub const IDLE_CYCLES: u64 = 200_000;

/// Simulated cycles per busy-linking measurement iteration.
pub const SUPERBLOCK_CYCLES: u64 = 200_000;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Workload key (stable across PRs; used as the JSON field name).
    pub name: &'static str,
    /// Simulated SoC cycles per iteration.
    pub cycles: u64,
    /// Simulated cycles per wall-clock second (median-of-samples).
    pub cycles_per_sec: f64,
}

fn idle_soc(naive: bool) -> pels_soc::Soc {
    let mut soc = SocBuilder::new().build();
    soc.set_naive_scheduling(naive);
    soc.trace_mut().set_enabled(false);
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc
}

/// Execution tier a busy-linking measurement runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyTier {
    /// The default fast path: superblocks executed from the fused
    /// op program.
    Fused,
    /// One instruction per scheduler visit.
    SingleStep,
}

/// A PELS link toggles a GPIO on every timer compare while the CPU
/// crunches a straight-line ALU kernel — peripheral events keep flowing,
/// but the CPU never sleeps, so host throughput is bound by instruction
/// execution rather than by whole-SoC skips.
pub fn busy_linking_soc(tier: BusyTier) -> pels_soc::Soc {
    let mut soc = SocBuilder::new().build();
    soc.trace_mut().set_enabled(false);
    soc.pels_mut()
        .link_mut(0)
        .set_mask(pels_sim::EventVector::mask_of(&[EV_TIMER_CMP]));
    soc.pels_mut()
        .link_mut(0)
        .load_program(
            &pels_core::Program::new(vec![
                pels_core::Command::Action {
                    mode: pels_core::ActionMode::Toggle,
                    group: 0,
                    mask: 1 << (AL_GPIO_TOGGLE - 16),
                },
                pels_core::Command::Halt,
            ])
            .expect("valid"),
        )
        .expect("fits");
    // A 14-deep chain of register-only ALU ops closed by a compare-and-
    // branch: one sealed superblock covering the whole loop body, with a
    // pair-dense instruction mix (lui+addi, same-rd immediate chains and
    // a compare feeding its branch) so the fused tier exercises every
    // fusion class, plus register-register singles.
    soc.load_program(
        RESET_PC,
        &[
            asm::lui(5, 0x1000),
            asm::addi(5, 5, 0x21),
            asm::addi(1, 1, 1),
            asm::addi(1, 1, 2),
            asm::addi(2, 2, 3),
            asm::addi(2, 2, 5),
            asm::xori(3, 3, 0x11),
            asm::addi(3, 3, 1),
            asm::addi(4, 4, 1),
            asm::addi(4, 4, 1),
            asm::add(6, 6, 1),
            asm::xor(7, 7, 2),
            asm::slt(12, 0, 5),
            asm::bne(12, 0, -52),
        ],
    );
    soc.timer_mut().write(Timer::CMP, 512).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .unwrap();
    if tier == BusyTier::SingleStep {
        soc.cpu_mut().set_superblocks_enabled(false);
    }
    soc
}

fn scenario_cycles(mediator: Mediator, naive: bool) -> (Scenario, u64) {
    let exec = if naive { ExecMode::Naive } else { ExecMode::Fast };
    let s = Scenario::iso_frequency(mediator)
        .to_builder()
        .exec_mode(exec)
        .build()
        .expect("preset variant stays valid");
    let r = s.run();
    let window = r.active_window.checked_add(r.idle_window).expect("window fits");
    let cycles = Frequency::from_mhz(r.freq.as_mhz()).cycles_in(window);
    (s, cycles)
}

/// Runs all workloads with `samples` timing samples each.
pub fn measure(samples: usize) -> Vec<ThroughputRow> {
    let bench = Bench::new("sim_throughput", samples);
    let mut rows = Vec::new();

    for (name, naive) in [("idle_soc", false), ("idle_soc_naive", true)] {
        let rate = bench.run_throughput(name, IDLE_CYCLES, || {
            let mut soc = idle_soc(naive);
            soc.run(IDLE_CYCLES);
            soc.cycle()
        });
        rows.push(ThroughputRow {
            name,
            cycles: IDLE_CYCLES,
            cycles_per_sec: rate,
        });
    }

    // Each active workload is measured on the fast path and on the
    // forced-naive reference path, so the active-path speedup itself is
    // a tracked number (both runs simulate bit-identical SoCs).
    for (name, mediator, naive) in [
        ("linking_workload", Mediator::PelsSequenced, false),
        ("linking_workload_naive", Mediator::PelsSequenced, true),
        ("irq_baseline", Mediator::IbexIrq, false),
        ("irq_baseline_naive", Mediator::IbexIrq, true),
    ] {
        let (s, cycles) = scenario_cycles(mediator, naive);
        let rate = bench.run_throughput(name, cycles, || s.run().events_completed);
        rows.push(ThroughputRow {
            name,
            cycles,
            cycles_per_sec: rate,
        });
    }

    // The busy-CPU linking workload on both CPU tiers (everything but
    // the tier identical, and both simulate bit-identical SoCs).
    for (name, tier) in [
        ("linking_fused", BusyTier::Fused),
        ("linking_superblock_single_step", BusyTier::SingleStep),
    ] {
        let rate = bench.run_throughput(name, SUPERBLOCK_CYCLES, || {
            let mut soc = busy_linking_soc(tier);
            soc.run(SUPERBLOCK_CYCLES);
            soc.cycle()
        });
        rows.push(ThroughputRow {
            name,
            cycles: SUPERBLOCK_CYCLES,
            cycles_per_sec: rate,
        });
    }
    rows
}

/// The speedup of row `fast` over row `reference`.
pub fn speedup_vs(rows: &[ThroughputRow], fast: &str, reference: &str) -> Option<f64> {
    let fast = rows.iter().find(|r| r.name == fast)?;
    let reference = rows.iter().find(|r| r.name == reference)?;
    Some(fast.cycles_per_sec / reference.cycles_per_sec)
}

/// The fast-over-naive speedup for workload `name` (its reference row is
/// `<name>_naive`).
pub fn speedup_of(rows: &[ThroughputRow], name: &str) -> Option<f64> {
    speedup_vs(rows, name, &format!("{name}_naive"))
}

/// The fused-tier speedup on the busy linking workload: fused
/// superblocks over the CPU forced to single-step (one instruction per
/// scheduler visit).
pub fn fused_speedup(rows: &[ThroughputRow]) -> Option<f64> {
    speedup_vs(rows, "linking_fused", "linking_superblock_single_step")
}

/// The idle-path speedup (fast over naive) from a measured row set.
pub fn idle_speedup(rows: &[ThroughputRow]) -> Option<f64> {
    speedup_of(rows, "idle_soc")
}

/// Renders the human-readable summary.
pub fn render(rows: &[ThroughputRow]) -> String {
    let mut s = String::from("sim_throughput - simulated SoC cycles per host second\n");
    for r in rows {
        s.push_str(&format!(
            "  {:<24} {:>10}cycles/s   ({} simulated cycles/iter)\n",
            r.name,
            fmt_rate(r.cycles_per_sec),
            r.cycles,
        ));
    }
    if let Some(x) = idle_speedup(rows) {
        s.push_str(&format!(
            "  idle-path speedup (quiescence scheduler vs naive): {x:.1}x\n"
        ));
    }
    if let Some(x) = speedup_of(rows, "linking_workload") {
        s.push_str(&format!("  active-path speedup (linking workload): {x:.1}x\n"));
    }
    if let Some(x) = speedup_of(rows, "irq_baseline") {
        s.push_str(&format!("  active-path speedup (irq baseline): {x:.1}x\n"));
    }
    if let Some(x) = fused_speedup(rows) {
        s.push_str(&format!(
            "  fused superblock speedup (busy linking, over single-step): {x:.1}x\n"
        ));
    }
    s
}

/// Version of the `BENCH_sim_throughput.json` schema, recorded in the
/// artifact itself. Bump when a key is renamed, removed or its meaning
/// changes (adding keys is non-breaking: the writer merges files of the
/// same version and starts fresh on any other).
pub const SCHEMA_VERSION: u64 = 3;

/// Serializes the rows (plus host metadata for a `samples`-sample run)
/// into the `BENCH_sim_throughput.json` artifact, merging into
/// `existing` (the file's previous contents, if any): keys this run
/// doesn't produce are kept in place, keys it does are updated, new
/// keys append. A run of a subset of workloads therefore never drops
/// another run's fields; contents written under another
/// [`SCHEMA_VERSION`], or that are not a JSON object, are discarded
/// instead.
pub fn merge_json(rows: &[ThroughputRow], samples: usize, existing: Option<&str>) -> String {
    let mut updates: Vec<(String, Value)> = rows
        .iter()
        .map(|r| (format!("{}_cycles_per_sec", r.name), r.cycles_per_sec.into()))
        .collect();
    for (key, speedup) in [
        ("idle_speedup", idle_speedup(rows)),
        ("linking_speedup", speedup_of(rows, "linking_workload")),
        ("irq_speedup", speedup_of(rows, "irq_baseline")),
        ("linking_fused_speedup", fused_speedup(rows)),
    ] {
        updates.extend(speedup.map(|x| (key.to_owned(), x.into())));
    }
    updates.push(("idle_cycles_per_iter".into(), IDLE_CYCLES.into()));
    // Host metadata: numbers in this artifact are only comparable on a
    // similar host, so record the parallelism the run had available and
    // how many timing samples backed each median.
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    updates.push(("host_parallelism".into(), parallelism.into()));
    updates.push(("bench_samples".into(), samples.into()));
    updates.push(("schema_version".into(), SCHEMA_VERSION.into()));

    // A file written under another schema may carry keys whose meaning
    // changed or that no row produces any more: start fresh.
    let schema = Value::from(SCHEMA_VERSION);
    let same_schema = |pairs: &[(String, Value)]| {
        pairs.iter().all(|(k, v)| k != "schema_version" || *v == schema)
    };
    let mut merged = match existing.map(json::parse) {
        Some(Ok(Value::Obj(pairs))) if same_schema(&pairs) => pairs,
        _ => Vec::new(),
    };
    for (key, value) in updates {
        match merged.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => merged.push((key, value)),
        }
    }
    json::to_string(&Value::Obj(merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(j: &Value, key: &str) -> Option<f64> {
        j.get(key).and_then(Value::as_f64)
    }

    #[test]
    fn json_is_well_formed() {
        let rows = vec![
            ThroughputRow {
                name: "idle_soc",
                cycles: 10,
                cycles_per_sec: 2e6,
            },
            ThroughputRow {
                name: "idle_soc_naive",
                cycles: 10,
                cycles_per_sec: 5e5,
            },
        ];
        let text = merge_json(&rows, 10, None);
        let j = json::parse(&text).expect("well-formed JSON");
        assert_eq!(num(&j, "bench_samples"), Some(10.0));
        assert!(num(&j, "host_parallelism").is_some_and(|n| n >= 1.0));
        assert_eq!(num(&j, "idle_soc_cycles_per_sec"), Some(2e6));
        assert_eq!(num(&j, "idle_speedup"), Some(4.0));
        // One key per line: the smoke script extracts values with sed.
        assert!(text.contains("\n  \"idle_soc_cycles_per_sec\": 2000000,\n"));
    }

    #[test]
    fn speedup_needs_both_rows() {
        assert!(idle_speedup(&[]).is_none());
        assert!(speedup_of(&[], "linking_workload").is_none());
    }

    #[test]
    fn merge_preserves_foreign_keys_and_updates_own() {
        let existing = "{\n  \"someone_elses_metric\": 123.4,\n  \"idle_soc_cycles_per_sec\": 1.0,\n  \"a_string\": \"with, comma\"\n}\n";
        let rows = vec![ThroughputRow {
            name: "idle_soc",
            cycles: 10,
            cycles_per_sec: 2e6,
        }];
        let j = json::parse(&merge_json(&rows, 10, Some(existing))).unwrap();
        // Foreign keys survive, own keys are updated in place.
        let keys: Vec<&str> = j.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys[..3],
            ["someone_elses_metric", "idle_soc_cycles_per_sec", "a_string"]
        );
        assert_eq!(num(&j, "someone_elses_metric"), Some(123.4));
        assert_eq!(j.get("a_string").and_then(Value::as_str), Some("with, comma"));
        assert_eq!(num(&j, "idle_soc_cycles_per_sec"), Some(2e6));
        assert_eq!(num(&j, "schema_version"), Some(SCHEMA_VERSION as f64));
    }

    #[test]
    fn merge_starts_fresh_on_unparseable_existing() {
        let rows = vec![ThroughputRow {
            name: "idle_soc",
            cycles: 10,
            cycles_per_sec: 2e6,
        }];
        for garbage in ["not json", "{ broken", "{\"k\": }", "[1, 2]"] {
            let j = json::parse(&merge_json(&rows, 10, Some(garbage))).unwrap();
            assert_eq!(num(&j, "idle_soc_cycles_per_sec"), Some(2e6));
        }
    }

    #[test]
    fn merge_drops_keys_written_under_another_schema() {
        let existing = "{\n  \"linking_superblock_speedup\": 5.07,\n  \"schema_version\": 2\n}\n";
        let rows = vec![ThroughputRow {
            name: "idle_soc",
            cycles: 10,
            cycles_per_sec: 2e6,
        }];
        let j = json::parse(&merge_json(&rows, 10, Some(existing))).unwrap();
        assert!(j.get("linking_superblock_speedup").is_none());
        assert_eq!(num(&j, "schema_version"), Some(SCHEMA_VERSION as f64));
    }

    #[test]
    fn fused_tier_serializes_its_speedup_over_single_step() {
        let rows = vec![
            ThroughputRow {
                name: "linking_fused",
                cycles: 10,
                cycles_per_sec: 1.8e8,
            },
            ThroughputRow {
                name: "linking_superblock_single_step",
                cycles: 10,
                cycles_per_sec: 3e7,
            },
        ];
        assert_eq!(fused_speedup(&rows), Some(6.0));
        let j = json::parse(&merge_json(&rows, 10, None)).unwrap();
        assert_eq!(num(&j, "linking_fused_speedup"), Some(6.0));
        // The fused row pairs with single-step, never with a `_naive` row.
        assert!(speedup_of(&rows, "linking_fused").is_none());
    }

    #[test]
    fn busy_linking_workloads_simulate_identically() {
        // The measurement must time identical simulations: same final
        // cycle, retirement and GPIO traffic on both CPU tiers — and each
        // tier must actually run on its own path.
        let mut fused = busy_linking_soc(BusyTier::Fused);
        let mut single = busy_linking_soc(BusyTier::SingleStep);
        fused.run(2_000);
        single.run(2_000);
        assert_eq!(fused.cycle(), single.cycle());
        assert_eq!(fused.cpu().cycles(), single.cpu().cycles());
        assert_eq!(fused.cpu().retired(), single.cpu().retired());
        assert_eq!(fused.drain_activity(), single.drain_activity());
        assert!(fused.superblock_stats().fused_ops > 0);
        assert_eq!(single.superblock_stats().block_runs, 0);
    }

    #[test]
    fn idle_soc_workloads_simulate_identically() {
        // The measurement must time identical simulations: same final
        // cycle on both scheduler paths.
        let mut fast = idle_soc(false);
        let mut naive = idle_soc(true);
        fast.run(500);
        naive.run(500);
        assert_eq!(fast.cycle(), naive.cycle());
        assert_eq!(fast.cpu().cycles(), naive.cpu().cycles());
    }
}
