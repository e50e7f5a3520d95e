//! Power over simulated time.
//!
//! Evaluates a [`PowerModel`] once per [`ActivityTimeline`] window,
//! turning the whole-run averaged [`PowerReport`](crate::PowerReport)
//! into a per-component power *curve* — the time-resolved view behind
//! the paper's Figure 5 comparison. Each sample carries the window's
//! span in simulated time, the total SoC power, and the per-component
//! breakdown, ready for counter-track export or a terminal sparkline.

use crate::model::{Kernel, PowerModel};
use pels_sim::{ActivitySet, ActivityTimeline, Frequency, SimTime};

/// Power over one timeline window.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSample {
    /// Window start in simulated time.
    pub start: SimTime,
    /// Window end in simulated time (exclusive); always after `start`.
    pub end: SimTime,
    /// Total SoC power over the window (components + analog floor), µW.
    pub total_uw: f64,
    /// Per-component total power (dynamic + leakage), µW, sorted
    /// descending — the order [`PowerModel::report`] produces. Names are
    /// the interned component names, so a sample allocates only this
    /// vector.
    pub components: Vec<(&'static str, f64)>,
}

impl PowerSample {
    /// Window duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// A component's power over this window, µW (0 if absent).
    pub fn component_uw(&self, name: &str) -> f64 {
        self.components
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

/// A per-window power series derived from an activity timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTimeline {
    /// Samples in time order; spans are contiguous and non-overlapping.
    pub samples: Vec<PowerSample>,
}

impl PowerTimeline {
    /// Evaluates `model` over every window of `timeline`, converting
    /// window cycle spans to simulated time at `clock`'s period.
    ///
    /// Windows are evaluated independently, so a quiescence-stretched
    /// window (long span, little activity) correctly averages down to a
    /// low power, while a busy nominal-width window shows the peak.
    /// Every sample has the bits of [`PowerModel::report`] over its
    /// window; one evaluation kernel serves the whole timeline, so the
    /// slot layout is resolved once and scratch buffers are reused, and
    /// each window is loaded into one reused activity set.
    pub fn from_activity(
        model: &PowerModel,
        timeline: &ActivityTimeline,
        clock: Frequency,
    ) -> Self {
        let mut kernel = Kernel::new(model);
        let mut activity = ActivitySet::new();
        let samples = timeline
            .windows()
            .filter(|w| w.end_cycle > w.start_cycle)
            .map(|w| {
                let start = clock.cycles(w.start_cycle);
                let end = clock.cycles(w.end_cycle);
                let duration = SimTime::from_ps(end.as_ps() - start.as_ps());
                w.load_into(&mut activity);
                kernel.evaluate(&activity, duration);
                let components = kernel
                    .components()
                    .iter()
                    .map(|c| (c.name, c.total().as_uw()))
                    .collect();
                PowerSample {
                    start,
                    end,
                    total_uw: kernel.total().as_uw(),
                    components,
                }
            })
            .collect();
        PowerTimeline { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the timeline holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The total-power series, µW — ready for a sparkline.
    pub fn total_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.total_uw).collect()
    }

    /// Sorted union of every component name appearing in any sample.
    pub fn component_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .samples
            .iter()
            .flat_map(|s| s.components.iter().map(|&(n, _)| n))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Time-weighted average total power over the whole timeline, µW.
    pub fn mean_total_uw(&self) -> f64 {
        let mut energy = 0.0; // µW·ps
        let mut span = 0.0;
        for s in &self.samples {
            let d = (s.end.as_ps() - s.start.as_ps()) as f64;
            energy += s.total_uw * d;
            span += d;
        }
        if span > 0.0 {
            energy / span
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Calibration;
    use pels_sim::{ActivityKind, ComponentId};

    fn model() -> PowerModel {
        let mut m = PowerModel::new(Calibration::default());
        m.add_component("ibex", 27.0).add_component("sram", 200.0);
        m
    }

    fn busy_activity(cycles: u64, reads: u64) -> ActivitySet {
        let mut activity = ActivitySet::new();
        activity.record(
            ComponentId::intern("ibex"),
            ActivityKind::ClockCycle,
            cycles,
        );
        activity.record(ComponentId::intern("sram"), ActivityKind::SramRead, reads);
        activity
    }

    /// A timeline whose first window `[0, busy)` is busy and, when
    /// `idle_end > busy`, whose second window `[busy, idle_end)` is idle.
    fn busy_then_idle(busy: u64, reads: u64, idle_end: u64) -> ActivityTimeline {
        let mut t = ActivityTimeline::new(100);
        t.push(0, busy, &busy_activity(busy, reads));
        if idle_end > busy {
            t.push(busy, idle_end, &ActivitySet::new());
        }
        t
    }

    #[test]
    fn busy_windows_draw_more_than_idle_ones() {
        let t = busy_then_idle(100, 500, 200);
        let clock = Frequency::from_mhz(100.0);
        let pt = PowerTimeline::from_activity(&model(), &t, clock);
        assert_eq!(pt.len(), 2);
        assert!(pt.samples[0].total_uw > pt.samples[1].total_uw);
        // The idle window still pays leakage + the analog floor.
        assert!(pt.samples[1].total_uw > 0.0);
        // Window spans convert to simulated time at the clock period.
        assert_eq!(pt.samples[0].start, SimTime::ZERO);
        assert_eq!(pt.samples[0].end, clock.cycles(100));
        assert_eq!(pt.samples[1].end, clock.cycles(200));
        assert!(pt.samples[0].component_uw("sram") > 0.0);
        assert_eq!(pt.samples[0].component_uw("nonexistent"), 0.0);
    }

    #[test]
    fn quiescence_stretched_window_averages_down() {
        // Same activity over 10x the span => ~10x less dynamic power.
        let short = busy_then_idle(100, 200, 0);
        let mut long = ActivityTimeline::new(100);
        long.push(0, 1000, &busy_activity(100, 200));
        let clock = Frequency::from_mhz(100.0);
        let m = model();
        let ps = PowerTimeline::from_activity(&m, &short, clock);
        let pl = PowerTimeline::from_activity(&m, &long, clock);
        assert!(ps.samples[0].total_uw > pl.samples[0].total_uw);
    }

    #[test]
    fn mean_is_time_weighted() {
        let t = busy_then_idle(100, 1000, 1100); // 10x longer idle stretch
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(100.0));
        let mean = pt.mean_total_uw();
        let naive = pt.total_series().iter().sum::<f64>() / 2.0;
        // The long idle window dominates the weighted mean.
        assert!(mean < naive);
        assert!(mean > 0.0);
        // Degenerate case: no samples.
        assert_eq!(PowerTimeline::default().mean_total_uw(), 0.0);
        assert!(PowerTimeline::default().is_empty());
    }

    #[test]
    fn mean_weights_quiescence_stretched_windows_by_duration() {
        // One nominal-width busy window next to a 99x-stretched idle
        // window: the weighted mean must equal the hand-computed
        // Σ(p·d)/Σd, which sits very close to the idle power.
        // Quiescence-stretched: the idle window spans 99 windows.
        let t = busy_then_idle(100, 1000, 10_000);
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(100.0));
        let (busy, idle) = (pt.samples[0].total_uw, pt.samples[1].total_uw);
        let expected = (busy * 100.0 + idle * 9_900.0) / 10_000.0;
        assert!((pt.mean_total_uw() - expected).abs() <= 1e-12 * expected);
        // The stretch dominates: only 1% of the busy/idle gap survives
        // into the mean, which stays strictly between the two powers.
        assert!(pt.mean_total_uw() - idle <= (busy - idle) * 0.0101);
        assert!(pt.mean_total_uw() > idle && pt.mean_total_uw() < busy);
    }

    #[test]
    fn timeline_samples_equal_per_window_reports() {
        // Windows of varied activity, including a stray (unregistered)
        // component that first appears mid-timeline and then vanishes.
        let m = model();
        let mut t = ActivityTimeline::new(100);
        let mut windows = Vec::new();
        for (i, reads) in [0, 500, 3, 0, 77].into_iter().enumerate() {
            let cycles = 100 + 37 * i as u64;
            let mut activity = busy_activity(cycles, reads);
            if i == 2 {
                activity.record_named("timeline.stray", ActivityKind::BusTransfer, 9);
            }
            if i == 3 {
                activity = ActivitySet::new();
            }
            let start = i as u64 * 100;
            t.push(start, start + cycles, &activity);
            windows.push(activity);
        }
        let clock = Frequency::from_mhz(55.0);
        let pt = PowerTimeline::from_activity(&m, &t, clock);
        assert_eq!(pt.len(), t.len());
        for (sample, activity) in pt.samples.iter().zip(&windows) {
            let report = m.report(activity, sample.duration());
            assert_eq!(sample.total_uw.to_bits(), report.total().as_uw().to_bits());
            let want: Vec<(&str, u64)> = report
                .components()
                .iter()
                .map(|c| (c.name, c.total().as_uw().to_bits()))
                .collect();
            let got: Vec<(&str, u64)> =
                sample.components.iter().map(|&(n, uw)| (n, uw.to_bits())).collect();
            assert_eq!(got, want);
        }
        assert!(pt.samples[2].component_uw("timeline.stray") > 0.0);
        assert!(pt.samples[3].components.iter().all(|&(n, _)| n != "timeline.stray"));
    }

    #[test]
    fn component_names_are_sorted_union() {
        let t = busy_then_idle(10, 1, 0);
        let pt = PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(50.0));
        let names = pt.component_names();
        assert!(names.contains(&"ibex"));
        assert!(names.contains(&"sram"));
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
