//! Differential proof that the energy-and-lifetime layer is pure
//! observation.
//!
//! The `lifetime` switch integrates the run's power into an
//! [`pels_power::EnergyLedger`] and projects battery lifetime — all of
//! it post-processing over activity the run records anyway. The
//! contract mirrors `tests/obs_invariance.rs`: traces, activity images,
//! latencies and scheduler stats must be bit-identical with the ledger
//! on and off, fleet digests must not move under the switch or the
//! worker count, and the ledger itself must partition the power
//! timeline exactly (blame rows telescope to mean-power × span).

use pels_fleet::{FleetEngine, SweepSpec};
use pels_power::{Battery, EnergyLedger};
use pels_repro::soc::{Mediator, Scenario, ScenarioReport};
use pels_sim::SimTime;

/// Every simulation-derived field of two reports must match exactly;
/// the ledger and projection are the only allowed differences.
fn assert_reports_identical(plain: &ScenarioReport, measured: &ScenarioReport) {
    assert_eq!(plain.latencies, measured.latencies);
    assert_eq!(plain.events_completed, measured.events_completed);
    assert_eq!(plain.trace.entries(), measured.trace.entries());
    assert_eq!(plain.active_activity, measured.active_activity);
    assert_eq!(plain.idle_activity, measured.idle_activity);
    assert_eq!(plain.active_window, measured.active_window);
    assert_eq!(plain.idle_window, measured.idle_window);
    assert_eq!(plain.sched_stats, measured.sched_stats);
    assert_eq!(plain.decode_cache_hits, measured.decode_cache_hits);
    assert_eq!(plain.decode_cache_misses, measured.decode_cache_misses);
}

#[test]
fn energy_ledger_never_perturbs_any_mediator() {
    for mediator in [
        Mediator::PelsSequenced,
        Mediator::PelsInstant,
        Mediator::IbexIrq,
    ] {
        let base = Scenario::iso_frequency(mediator);
        let plain = base.run();
        let measured = base.to_builder().lifetime(true).build().unwrap().run();
        assert!(plain.energy.is_none(), "the ledger is opt-in");
        assert!(measured.energy.is_some() && measured.lifetime.is_some());
        assert_reports_identical(&plain, &measured);

        // With a sampled timeline on top, still bit-identical.
        let timed = base
            .to_builder()
            .lifetime(true)
            .timeline_window(128)
            .build()
            .unwrap()
            .run();
        assert_reports_identical(&plain, &timed);
        assert!(timed.energy.as_ref().unwrap().windows() > 1);
    }
}

#[test]
fn ledger_partitions_the_power_timeline_exactly() {
    let report = Scenario::iso_frequency(Mediator::PelsSequenced)
        .to_builder()
        .lifetime(true)
        .timeline_window(256)
        .build()
        .unwrap()
        .run();
    let ledger = report.energy.as_ref().expect("ledger");
    let timeline = report
        .power_timeline(&report.power_model())
        .expect("sampled timeline");

    // Rebuilding the ledger from the report's own power timeline gives
    // the identical ledger: same integration, same result, bit-for-bit.
    assert_eq!(&EnergyLedger::from_timeline(&timeline), ledger);

    // Blame rows partition the total: the floor row is the residual by
    // construction, so components + floor telescope back to the total.
    let rows = ledger.blame();
    let row_sum_uj: f64 = rows.iter().map(|r| r.uj).sum();
    assert!(
        (row_sum_uj - ledger.total_uj()).abs() <= 1e-12 * ledger.total_uj(),
        "blame rows {row_sum_uj} vs total {}",
        ledger.total_uj()
    );
    let share_sum: f64 = rows.iter().map(|r| r.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-12);

    // The total telescopes to mean-power × span, and the ledger's mean
    // is exactly the timeline's duration-weighted mean.
    let span_s = ledger.span().as_secs_f64();
    let reconstructed_uj = ledger.mean_power().as_uw() * span_s;
    assert!(
        (reconstructed_uj - ledger.total_uj()).abs() <= 1e-9 * ledger.total_uj(),
        "mean × span {reconstructed_uj} vs total {}",
        ledger.total_uj()
    );
    assert!((ledger.mean_power().as_uw() - timeline.mean_total_uw()).abs() <= 1e-9);

    // And the projection's blame telescopes to the projected days.
    let projection = report.lifetime.as_ref().expect("projection");
    let day_sum: f64 = projection.blame.iter().map(|r| r.days_cost).sum();
    assert!((day_sum - projection.days()).abs() <= 1e-9 * projection.days());
}

#[test]
fn duty_cycled_horizon_integrates_sleep_cheaply() {
    // 100 ms duty periods over 10 s of simulated time: the node sleeps
    // >99.9% of the span, which quiescence skipping makes nearly free.
    let s = Scenario::duty_cycled(
        Mediator::PelsSequenced,
        SimTime::from_ms(100),
        SimTime::from_ms(10_000),
    );
    assert_eq!(s.events, 100);
    let report = s.run();
    let ledger = report.energy.as_ref().expect("ledger");
    // The span covers (at least) the horizon and the mean collapses
    // toward the idle floor — far below the busy-window power.
    assert!(ledger.span() >= SimTime::from_ms(10_000));
    let idle_uw = report
        .idle_power(&report.power_model())
        .total()
        .as_uw();
    assert!(
        ledger.mean_power().as_uw() < idle_uw * 1.05,
        "duty-cycled mean {} vs idle floor {idle_uw}",
        ledger.mean_power().as_uw()
    );
    // A plausible coin-cell lifetime: months, not hours and not ∞.
    let projection = report.lifetime.as_ref().expect("projection");
    assert!(projection.days() > 30.0 && projection.days() < 10_000.0);
}

#[test]
fn pels_outlives_the_irq_baseline_when_duty_cycled() {
    let days = |mediator| {
        Scenario::duty_cycled(mediator, SimTime::from_ms(10), SimTime::from_ms(500))
            .run()
            .lifetime
            .expect("projection")
            .days()
    };
    let pels = days(Mediator::PelsSequenced);
    let irq = days(Mediator::IbexIrq);
    assert!(
        pels > irq,
        "PELS mediation must outlast the IRQ baseline: {pels} vs {irq} days"
    );
}

#[test]
fn fleet_digest_is_invariant_under_lifetime_and_worker_count() {
    let mediators = [Mediator::PelsSequenced, Mediator::IbexIrq];
    let plain = FleetEngine::new(1)
        .run_sweep(&SweepSpec::new().mediators(&mediators))
        .unwrap();
    let measured = FleetEngine::new(2)
        .run_sweep(
            &SweepSpec::new()
                .mediators(&mediators)
                .lifetime(true)
                .timeline_window(128),
        )
        .unwrap();
    // The ledger is pure post-processing: the digest hashes every
    // simulation-derived field of every job and must not move.
    assert_eq!(plain.digest(), measured.digest());
}

#[test]
fn merged_ledger_is_identical_across_worker_counts() {
    let spec = SweepSpec::new()
        .mediators(&[Mediator::PelsSequenced, Mediator::IbexIrq])
        .sample_periods_us(&[100, 500])
        .lifetime(true);
    let mut digests = Vec::new();
    let mut ledgers = Vec::new();
    for workers in [1, 2, 8] {
        let report = FleetEngine::new(workers).run_sweep(&spec).unwrap();
        assert_eq!(report.failed().count(), 0);
        digests.push(report.digest());
        ledgers.push(report.merged_energy_ledger());
    }
    // Same jobs, any schedule: digests and the input-order ledger fold
    // are bit-identical (PartialEq over every f64 accumulator).
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    assert!(ledgers.windows(2).all(|w| w[0] == w[1]));
    let merged = &ledgers[0];
    // 2 mediators × 2 sample periods, one integrated window per job.
    assert_eq!(merged.windows(), 4, "every job contributes");
    assert!(merged.total_uj() > 0.0);
    // Projecting the merged ledger works like any other ledger.
    let projection = Battery::coin_cell().project(merged);
    assert!(projection.days() > 0.0);
}

/// Pinned bits of the duty-cycled ledger (10 µs periods over 2 ms):
/// `(total µJ, projected days, blame rows as (name, µJ))`. Any change to
/// the power model's floating-point evaluation order moves these.
type Golden = (u64, u64, &'static [(&'static str, u64)]);

const GOLDEN_PELS_SEQUENCED: Golden = (
    0x3ff7_6803_f2e2_4787,
    0x4041_61cf_748e_5a37,
    &[
        ("fabric", 0x3fe1_a91f_d182_e0a7),
        ("soc_ctrl", 0x3fc7_0b42_6685_2f89),
        ("sram", 0x3fb1_9ee7_f237_2882),
        ("timer", 0x3fb0_5213_37cc_a96f),
        ("pels.link0", 0x3fac_82d7_6c07_3080),
        ("spi", 0x3fa4_0c7d_6303_c276),
        ("pels", 0x3f94_7bc9_3eaf_46b2),
        ("periph_misc", 0x3f94_17c6_b372_5cb5),
        ("adc", 0x3f90_be7a_eadf_4d42),
        ("i2c", 0x3f8a_ca5e_4498_7b9d),
        ("uart", 0x3f8a_ca5e_4498_7b9d),
        ("gpio", 0x3f87_49b8_e387_81bd),
        ("wdt", 0x3f76_534e_8e7f_11ad),
        ("ibex", 0x3f72_75f4_94c0_e253),
        ("(analog floor)", 0x3fd9_9acc_2b1b_9f8e),
    ],
);

const GOLDEN_IBEX_IRQ: Golden = (
    0x3ff8_b408_85fe_1d6e,
    0x4040_66a2_c49d_acb4,
    &[
        ("fabric", 0x3fe1_ae31_f49b_6b9b),
        ("soc_ctrl", 0x3fc7_0b87_08d7_bfc6),
        ("sram", 0x3fbc_f265_bd0e_07e9),
        ("timer", 0x3fb0_523d_c566_5f44),
        ("pels.link0", 0x3fa9_9b07_d0ef_b8a2),
        ("ibex", 0x3fa7_a131_4d43_7e0b),
        ("spi", 0x3fa4_3b54_5e3e_c005),
        ("pels", 0x3f94_7c06_40bf_c6e8),
        ("periph_misc", 0x3f94_17cc_3116_2130),
        ("adc", 0x3f90_be7f_7e3d_1ba8),
        ("i2c", 0x3f8a_ca65_96c8_2c40),
        ("uart", 0x3f8a_ca65_96c8_2c40),
        ("gpio", 0x3f86_f5dc_2736_5ca2),
        ("wdt", 0x3f76_5354_a851_7a35),
        ("(analog floor)", 0x3fd9_9b18_6de1_ba2d),
    ],
);

#[test]
fn duty_cycled_energy_matches_golden_bits() {
    for (mediator, (total, days, blame)) in [
        (Mediator::PelsSequenced, GOLDEN_PELS_SEQUENCED),
        (Mediator::IbexIrq, GOLDEN_IBEX_IRQ),
    ] {
        let report =
            Scenario::duty_cycled(mediator, SimTime::from_us(10), SimTime::from_ms(2)).run();
        let ledger = report.energy.as_ref().expect("ledger");
        let projection = report.lifetime.as_ref().expect("projection");
        assert_eq!(ledger.total_uj().to_bits(), total, "{mediator:?} total µJ");
        assert_eq!(projection.days().to_bits(), days, "{mediator:?} days");
        let rows = ledger.blame();
        let bits: Vec<(&str, u64)> = rows
            .iter()
            .map(|row| (row.name.as_str(), row.uj.to_bits()))
            .collect();
        assert_eq!(bits, blame, "{mediator:?} blame rows {rows:?}");
    }
}
