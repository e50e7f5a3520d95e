//! Allocation gate for duty-cycled stepping.
//!
//! A duty-cycled node spends its host time in thousands of short duty
//! periods, so a heap allocation per period is a cost paid thousands of
//! times. This binary installs a counting global allocator and pins the
//! count over 500 warm periods of `Scenario::duty_cycled`: none with the
//! activity timeline off, and almost none with it on (only the timeline
//! arena growing). The trace is the run's output log, so its room is
//! reserved up front; everything else a period touches must reuse
//! storage. Allocation counts are deterministic, so unlike host time
//! this gate cannot flake.
//!
//! Everything runs in one `#[test]`, and only allocations made on the
//! measuring thread while a count is open are counted, so neither other
//! tests nor the test harness can disturb the figure.

use pels_repro::interconnect::ApbSlave;
use pels_repro::periph::Timer;
use pels_repro::sim::SimTime;
use pels_repro::soc::{Mediator, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to the system allocator; the
// wrapper only bumps a counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (fresh or resized) `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

const WARMUP_PERIODS: usize = 50;
const MEASURED_PERIODS: usize = 500;

/// Allocations `run_for_trace_count` makes over `MEASURED_PERIODS` duty
/// periods after `WARMUP_PERIODS` warm-up periods, driven exactly as
/// `Scenario::try_run` drives the active window.
fn allocations_per_run(mediator: Mediator, timeline: bool) -> u64 {
    let period = SimTime::from_us(10);
    let periods = (WARMUP_PERIODS + MEASURED_PERIODS + 10) as u64;
    let horizon = SimTime::from_ps(period.as_ps() * periods);
    let s = Scenario::duty_cycled(mediator, period, horizon);
    let mut soc = s.build_soc();
    if timeline {
        soc.start_timeline(s.timeline_window);
    }
    let timer = soc.timer_mut();
    timer.write(Timer::CMP, s.timer_period_cycles()).unwrap();
    timer.write(Timer::CTRL, Timer::CTRL_ENABLE).unwrap();
    let per_event =
        u64::from(s.timer_period_cycles()) + u64::from(s.spi_words * s.spi_clkdiv()) + 64;
    let budget = u64::from(s.events) * per_event;
    assert!(soc.run_for_trace_count(budget, "gpio", "padout", WARMUP_PERIODS));
    // Twice the warm-up's entries per period: the trace's amortized
    // growth is output, not per-period work.
    let per_period = soc.trace().len().div_ceil(WARMUP_PERIODS);
    soc.trace_mut().reserve(2 * per_period * MEASURED_PERIODS);
    let (allocations, done) = allocations_in(|| {
        soc.run_for_trace_count(budget, "gpio", "padout", WARMUP_PERIODS + MEASURED_PERIODS)
    });
    assert!(done, "{mediator:?}: {MEASURED_PERIODS} periods complete");
    allocations
}

#[test]
fn duty_periods_step_without_heap_allocation() {
    for mediator in [Mediator::PelsSequenced, Mediator::IbexIrq] {
        let off = allocations_per_run(mediator, false);
        let on = allocations_per_run(mediator, true);
        println!("{mediator:?}: {off} allocations timeline off, {on} timeline on");
        assert_eq!(off, 0, "{mediator:?}: timeline off allocates");
        assert!(on <= 20, "{mediator:?}: timeline on makes {on} allocations");
    }
}
