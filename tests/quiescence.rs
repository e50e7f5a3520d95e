//! Observational identity of the quiescence-aware peripheral scheduler.
//!
//! The fast scheduler in `pels_soc::Soc` skips ticking peripherals that
//! report themselves idle, replaying the skipped cycles in closed form
//! when a wake condition arrives. These tests prove the optimisation is
//! invisible: for randomized workloads the fast path and the naive
//! tick-everything path (`set_naive_scheduling(true)`) produce the same
//! traces, the same activity image (hence bit-identical power numbers),
//! and the same architectural state. Each wake condition — timer
//! deadline, event wire, APB access, injected external event — also gets
//! a dedicated test.

use std::collections::BTreeMap;

use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::{Spi, Timer};
use pels_repro::sim::{ActivityKind, ActivitySet, Rng};
use pels_repro::soc::event_map::{EV_GPIO_RISE, EV_TIMER_CMP};
use pels_repro::soc::mem_map::{apb_reg, GPIO_OFFSET, RESET_PC};
use pels_repro::soc::{Soc, SocBuilder};
use pels_repro::{core as pels_core, cpu::asm, periph::Gpio};

/// One externally applied stimulus step, generated once and replayed
/// identically on both SoCs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance `n` cycles.
    Run(u64),
    /// Inject an external event pulse on `line`.
    Inject(u32),
    /// Direct-poke the timer compare register (bus-bypassing test path —
    /// exercises the `periph_mut` wake hole).
    PokeTimerCmp(u32),
    /// Flip the GPIO pad input (edge detector feeds `EV_GPIO_RISE`).
    GpioInput(u32),
    /// Drain and compare the activity window.
    Drain,
}

/// Normalizes an [`ActivitySet`] for comparison (drops zero counts — the
/// dense representation may materialize rows the sparse path never
/// touched).
fn activity_image(a: &ActivitySet) -> BTreeMap<(&'static str, ActivityKind), u64> {
    a.iter()
        .filter(|&(_, _, n)| n != 0)
        .map(|(c, k, n)| ((c, k), n))
        .collect()
}

/// Builds the reference workload SoC: PELS link 0 toggles a GPIO pad on
/// every timer compare match, the CPU parks in `wfi` after boot.
fn workload_soc() -> Soc {
    use pels_repro::soc::event_map::AL_GPIO_TOGGLE;
    let mut soc = SocBuilder::new().pels_links(2).build();
    soc.pels_mut()
        .link_mut(0)
        .set_mask(pels_repro::sim::EventVector::mask_of(&[EV_TIMER_CMP]));
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
    soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
    soc.timer_mut().write(Timer::CMP, 16).unwrap();
    soc.timer_mut()
        .write(Timer::CTRL, Timer::CTRL_ENABLE)
        .unwrap();
    soc.spi_mut().write(Spi::CMD, 1).unwrap();
    soc
}

fn apply(soc: &mut Soc, op: Op) {
    match op {
        Op::Run(n) => soc.run(n),
        Op::Inject(line) => soc.inject_event(line),
        Op::PokeTimerCmp(v) => {
            soc.timer_mut().write(Timer::CMP, v).unwrap();
        }
        Op::GpioInput(v) => soc.gpio_mut().set_input(v),
        Op::Drain => {} // handled by the caller so both sides drain together
    }
}

/// Asserts every observable of the two SoCs matches.
fn assert_identical(fast: &Soc, naive: &Soc, ctx: &str) {
    assert_eq!(fast.cycle(), naive.cycle(), "{ctx}: cycle");
    assert_eq!(
        fast.trace().entries(),
        naive.trace().entries(),
        "{ctx}: trace streams diverge"
    );
    assert_eq!(fast.timer().value(), naive.timer().value(), "{ctx}: timer value");
    assert_eq!(fast.timer().fires(), naive.timer().fires(), "{ctx}: timer fires");
    assert_eq!(fast.gpio().out(), naive.gpio().out(), "{ctx}: gpio out");
    assert_eq!(
        fast.gpio().pad_toggles(),
        naive.gpio().pad_toggles(),
        "{ctx}: pad toggles"
    );
    assert_eq!(fast.spi().is_busy(), naive.spi().is_busy(), "{ctx}: spi busy");
    assert_eq!(fast.cpu().cycles(), naive.cpu().cycles(), "{ctx}: cpu cycles");
    assert_eq!(fast.cpu().pc(), naive.cpu().pc(), "{ctx}: cpu pc");
}

/// The differential property: random stimulus schedules observe no
/// difference between the fast and naive schedulers — traces, activity
/// (power input) and architectural state are all identical.
#[test]
fn fast_scheduler_is_observationally_identical_to_naive() {
    let mut rng = Rng::seed_from_u64(0x5C4E_D001);
    for case in 0..24 {
        let ops: Vec<Op> = (0..rng.range_u64(4, 20))
            .map(|_| match rng.index(8) {
                0..=2 => Op::Run(rng.range_u64(1, 120)),
                3 => Op::Run(rng.range_u64(200, 2_000)),
                4 => Op::Inject([EV_TIMER_CMP, EV_GPIO_RISE, 9][rng.index(3)]),
                5 => Op::PokeTimerCmp(rng.range_u64(1, 64) as u32),
                6 => Op::GpioInput(rng.next_u32() & 0xF),
                _ => Op::Drain,
            })
            .collect();
        let mut fast = workload_soc();
        let mut naive = workload_soc();
        naive.set_naive_scheduling(true);
        for (i, &op) in ops.iter().enumerate() {
            if let Op::Drain = op {
                let af = activity_image(&fast.drain_activity());
                let an = activity_image(&naive.drain_activity());
                assert_eq!(af, an, "case {case} op {i}: activity windows diverge");
            } else {
                apply(&mut fast, op);
                apply(&mut naive, op);
            }
            assert_identical(&fast, &naive, &format!("case {case} op {i} ({op:?})"));
        }
        let af = activity_image(&fast.drain_activity());
        let an = activity_image(&naive.drain_activity());
        assert_eq!(af, an, "case {case}: final activity (power input) diverges");
    }
}

/// A sequenced PELS write lands on a sleeping slave while the CPU sleeps
/// in `wfi`: the pending request wakes the GPIO, the write commits, and
/// the GPIO goes straight back to sleep — so the next cycle starts with a
/// sleeper in the fabric's touched mask. Skips around that moment must be
/// invisible: random `run` segment lengths observe exactly what the naive
/// scheduler does.
#[test]
fn pels_write_to_a_sleeping_slave_is_identical_to_naive() {
    use pels_repro::core::Command;
    use pels_repro::soc::mem_map::{pels_word_offset, APB_BASE};
    fn soc() -> Soc {
        let mut soc = SocBuilder::new().timer_starts_spi(false).build();
        let link = soc.pels_mut().link_mut(0);
        link.set_mask(pels_repro::sim::EventVector::mask_of(&[EV_TIMER_CMP]))
            .set_base(APB_BASE);
        link.load_program(
            &pels_core::Program::new(vec![
                Command::Write {
                    offset: pels_word_offset(GPIO_OFFSET, Gpio::PADOUTSET),
                    value: 0x5,
                },
                Command::Wait { cycles: 3 },
                Command::Toggle {
                    offset: pels_word_offset(GPIO_OFFSET, Gpio::PADOUT),
                    mask: 0x2,
                },
                Command::Halt,
            ])
            .expect("valid"),
        )
        .expect("fits");
        soc.load_program(RESET_PC, &[asm::wfi(), asm::jal(0, -4)]);
        soc.timer_mut().write(Timer::CMP, 40).unwrap();
        soc.timer_mut()
            .write(Timer::CTRL, Timer::CTRL_ENABLE)
            .unwrap();
        soc
    }
    let mut rng = Rng::seed_from_u64(0x7E1D_5EE9);
    for case in 0..16 {
        let mut fast = soc();
        let mut naive = soc();
        naive.set_naive_scheduling(true);
        let n = rng.range_u64(8, 24);
        for i in 0..=n {
            let op = match rng.index(6) {
                // The last segment is long enough for several transfers.
                _ if i == n => Op::Run(1_000),
                0..=3 => Op::Run(rng.range_u64(1, 50)),
                4 => Op::Run(rng.range_u64(100, 1_500)),
                _ => Op::PokeTimerCmp(rng.range_u64(8, 64) as u32),
            };
            apply(&mut fast, op);
            apply(&mut naive, op);
            assert_identical(&fast, &naive, &format!("case {case} op {i} ({op:?})"));
        }
        assert!(fast.gpio().pad_toggles() > 0, "case {case}: PELS wrote the GPIO");
        assert!(fast.sched_stats().skip_spans > 0, "case {case}: the fast run skipped");
        let af = activity_image(&fast.drain_activity());
        let an = activity_image(&naive.drain_activity());
        assert_eq!(af, an, "case {case}: activity (power input) diverges");
    }
}

/// Wake condition 1 — deadline: a sleeping timer still fires its compare
/// match at exactly the right cycle, with no CPU or bus traffic to wake
/// it early.
#[test]
fn timer_deadline_wakes_sleeping_timer() {
    let mut fast = SocBuilder::new().timer_starts_spi(false).build();
    let mut naive = SocBuilder::new().timer_starts_spi(false).build();
    naive.set_naive_scheduling(true);
    for soc in [&mut fast, &mut naive] {
        soc.timer_mut().write(Timer::CMP, 40).unwrap();
        soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        soc.run(200);
    }
    assert!(fast.timer().fires() >= 4, "timer kept firing while asleep");
    assert_eq!(fast.timer().fires(), naive.timer().fires());
    assert_eq!(fast.timer().value(), naive.timer().value());
    assert_eq!(fast.trace().entries(), naive.trace().entries());
}

/// Wake condition 2 — event wire: the timer's compare pulse lands in the
/// sleeping SPI's wake mask (its start-action line) and starts a
/// transfer on schedule.
#[test]
fn event_wire_wakes_sleeping_spi() {
    let mut fast = SocBuilder::new().build(); // timer_starts_spi default: wired
    let mut naive = SocBuilder::new().build();
    naive.set_naive_scheduling(true);
    for soc in [&mut fast, &mut naive] {
        soc.spi_mut().write(Spi::CMD, 1).unwrap(); // arm last_len
        soc.run(30); // long idle stretch puts the SPI to sleep
        soc.timer_mut().write(Timer::CMP, 10).unwrap();
        soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
        soc.run(40);
    }
    assert!(
        fast.trace().first("spi", "eot").is_some(),
        "wire-woken SPI completed a transfer"
    );
    assert_eq!(fast.trace().entries(), naive.trace().entries());
}

/// Wake condition 3 — APB access: a CPU store to a sleeping peripheral's
/// register wakes it (and replays its skipped cycles) before the write
/// lands.
#[test]
fn apb_access_wakes_sleeping_peripheral() {
    let mut fast = SocBuilder::new().build();
    let mut naive = SocBuilder::new().build();
    naive.set_naive_scheduling(true);
    for soc in [&mut fast, &mut naive] {
        let mut p = vec![];
        // Delay loop (~120 cycles) so the GPIO is long asleep, then store.
        p.extend(asm::li32(5, 40));
        p.push(asm::addi(5, 5, -1));
        p.push(asm::bne(5, 0, -4));
        p.extend(asm::li32(1, apb_reg(GPIO_OFFSET, Gpio::PADOUTSET)));
        p.extend(asm::li32(2, 0x3C));
        p.push(asm::sw(1, 2, 0));
        p.push(asm::wfi());
        soc.load_program(RESET_PC, &p);
        soc.run(400);
    }
    assert_eq!(fast.gpio().out(), 0x3C, "store reached the sleeping GPIO");
    assert_eq!(fast.gpio().out(), naive.gpio().out());
    assert_eq!(fast.trace().entries(), naive.trace().entries());
}

/// Wake condition 4 — injected external event: a pad-level pulse on a
/// line in a sleeping peripheral's wake mask starts it.
#[test]
fn injected_event_wakes_sleeping_peripheral() {
    let mut fast = SocBuilder::new().build();
    let mut naive = SocBuilder::new().build();
    naive.set_naive_scheduling(true);
    for soc in [&mut fast, &mut naive] {
        soc.spi_mut().write(Spi::CMD, 1).unwrap();
        soc.run(50); // everything asleep
        soc.inject_event(EV_TIMER_CMP); // SPI's start line, from outside
        soc.run(30);
    }
    assert!(
        fast.trace().first("spi", "eot").is_some(),
        "injected pulse started the sleeping SPI"
    );
    assert_eq!(fast.trace().entries(), naive.trace().entries());
    let af = activity_image(&fast.drain_activity());
    let an = activity_image(&naive.drain_activity());
    assert_eq!(af, an, "activity (power input) identical");
}

/// Mid-sleep observation: `&self` accessors must always see current
/// architectural state, even while the peripheral is being skipped.
#[test]
fn sleeping_timer_is_observable_between_runs() {
    let mut soc = SocBuilder::new().timer_starts_spi(false).build();
    soc.timer_mut().write(Timer::CMP, 1_000_000).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let mut last = 0;
    for _ in 0..10 {
        soc.run(37);
        let v = soc.timer().value();
        assert_eq!(
            u64::from(v),
            u64::from(last) + 37,
            "timer counts every skipped cycle"
        );
        last = v;
    }
}

/// `run_until` predicates observe synced state: waiting on a timer value
/// works even though the timer sleeps between predicate calls.
#[test]
fn run_until_sees_synced_peripheral_state() {
    let mut soc = SocBuilder::new().timer_starts_spi(false).build();
    soc.timer_mut().write(Timer::CMP, 1_000_000).unwrap();
    soc.timer_mut().write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let reached = soc.run_until(10_000, |s| s.timer().value() >= 123);
    assert!(reached);
    assert_eq!(soc.timer().value(), 123);
}
