//! `busy_linking`: a PELS link toggles a GPIO on every timer compare
//! while the CPU runs a pair-dense ALU loop that never sleeps
//! (`throughput::busy_linking_soc(BusyTier::Fused)`). The SoC is built
//! outside the timed region; each iteration runs a fresh one for a
//! fixed cycle count.

use crate::harness::{self, clock, repeat_setup, Checks, Config, Outcome, Work};
use crate::inputs;
use crate::layers::{self, Layer, LayerTimes, SimCounters};
use crate::stats::{median, tail};
use pels_bench::throughput::{busy_linking_soc, BusyTier};
use pels_sim::{ActivityKind, ActivitySet};
use pels_soc::{Soc, SocBuilder};

/// The kernel's accumulator registers, whose initial values the seed
/// sets (the loop's control flow does not depend on them).
const SEEDED_REGS: [u8; 6] = [1, 2, 3, 4, 6, 7];

/// Commands in the link's program (toggle action + halt): each linking
/// event retires exactly this many PELS instructions.
const LINK_PROGRAM_LEN: u64 = 2;

/// The seeded SoC. `busy_linking_soc` fixes a constant sensor, so the
/// seed drives the kernel's initial register image instead.
pub fn build(seed: u64) -> Soc {
    let mut soc = busy_linking_soc(BusyTier::Fused);
    let mut rng = inputs::stream(seed, 1);
    for r in SEEDED_REGS {
        soc.cpu_mut().set_reg(r, rng.next_u32());
    }
    soc
}

/// The architectural result of a run: cycle, pc, register file,
/// instructions retired and the drained activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    cycle: u64,
    pc: u32,
    regs: Vec<u32>,
    retired: u64,
    activity: ActivitySet,
}

fn summarize(soc: &mut Soc) -> Summary {
    let retired = soc.cpu().retired();
    Summary {
        cycle: soc.cycle(),
        pc: soc.cpu().pc(),
        regs: (0..32).map(|r| soc.cpu().reg(r)).collect(),
        retired,
        activity: soc.drain_activity(),
    }
}

fn run_for(mut soc: Soc, cycles: u64) -> Summary {
    soc.run(cycles);
    summarize(&mut soc)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let size = cfg.size;
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    // Set-up is the SoC build (description validation, assembly,
    // program and register loading).
    let (setup, _) = repeat_setup(&size, || build(cfg.seed));
    let (desc_times, _) = repeat_setup(&size, || SocBuilder::new().desc().validate().is_ok());

    // Reference: the naive tier with every CPU accelerator off must match
    // the fused tier on a prefix.
    let fast = run_for(build(cfg.seed), size.busy_prefix_cycles);
    let mut naive = build(cfg.seed);
    naive.set_naive_scheduling(true);
    naive.cpu_mut().set_superblocks_enabled(false);
    naive.cpu_mut().set_decode_cache_enabled(false);
    let naive = run_for(naive, size.busy_prefix_cycles);
    checks.record(2, fast == naive, || {
        format!(
            "naive reference differs on the {}-cycle prefix",
            size.busy_prefix_cycles
        )
    });

    let expected = run_for(build(cfg.seed), size.busy_cycles);
    checks.record(1, true, String::new);
    let events = expected
        .activity
        .count("pels.link0", ActivityKind::InstrRetired)
        / LINK_PROGRAM_LEN;
    checks.record(0, events > 0, || "no linking event completed".into());
    let work = Work {
        cycles: size.busy_cycles,
        events,
        ops: 1,
    };

    let (plain, deep, rss) = harness::measure(
        cfg,
        || {
            let soc = build(cfg.seed);
            clock(|| run_for(soc, size.busy_cycles))
        },
        || {
            let mut t = LayerTimes::default();
            let mut c = SimCounters::default();
            let mut soc = t.time(Layer::SocBuild, || build(cfg.seed));
            t.soc_builds = 1;
            let (wall, out) = clock(|| {
                t.time(Layer::ActiveRun, || soc.run(size.busy_cycles));
                t.time(Layer::Drain, || {
                    c.absorb(&soc);
                    let out = summarize(&mut soc);
                    c.absorb_activity(&out.activity);
                    out
                })
            });
            (wall, (out, t, c))
        },
    );
    for (_, out) in &plain {
        checks.record(1, *out == expected, || {
            "repeat differs from the reference".into()
        });
    }
    let walls: Vec<f64> = plain.iter().map(|(w, _)| *w).collect();
    let (end_to_end, note) = harness::end_to_end(&setup, &walls, work, rss);
    notes.push(note);

    let mut per_layer = Vec::new();
    if let Some((_, (_, _, first))) = deep.first() {
        let mut counters = first.clone();
        counters.events = events;
        for (_, (out, _, c)) in &deep {
            checks.record(1, *out == expected, || {
                "traced run differs from the reference".into()
            });
            checks.record(0, c == first, || {
                "simulated counters differ across traced repeats".into()
            });
        }
        let traced_walls: Vec<f64> = deep.iter().map(|(w, _)| *w).collect();
        // An iteration's build happens before its timer starts; the
        // layer split spans both.
        let samples: Vec<(f64, LayerTimes)> = deep
            .iter()
            .map(|(w, (_, t, _))| (w + t.get(Layer::SocBuild), t.clone()))
            .collect();
        let (time_metrics, shares) = layers::time_metrics(&samples);
        notes.extend(harness::share_table("busy_linking", &shares));
        per_layer = vec![
            ("desc.build_s", median(&desc_times)),
            ("wall_tail_s", tail(&walls).1),
            (
                "bench.trace_overhead_frac",
                harness::trace_overhead(&walls, &traced_walls),
            ),
        ];
        per_layer.extend(time_metrics);
        per_layer.extend(counters.metrics());
    }
    Outcome {
        checks,
        notes,
        end_to_end,
        per_layer,
    }
}
