//! Integrated energy over simulated time.
//!
//! A [`PowerTimeline`] answers "how much power, when"; the
//! [`EnergyLedger`] integrates it into "how much energy, where". Every
//! sample contributes `power × duration` per component, so
//! quiescence-stretched windows (long span, little activity) are
//! weighted exactly by the time they cover — the property that makes
//! months of duty-cycled device time integrable from a simulation that
//! O(1)-skips the sleep.
//!
//! The ledger's blame table partitions the integrated total *bit-for-
//! bit*: the analog floor row is defined as the residual
//! `total − Σ components`, so the rows always telescope back to the
//! total, which is itself `mean power × span` by construction of the
//! mean (see [`EnergyLedger::mean_power`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::timeline::PowerTimeline;
use crate::units::{Energy, Power};
use pels_sim::SimTime;

/// Internal accumulation unit: µW·ps (= 1e-6 pJ = 1e-12 µJ).
///
/// This matches [`PowerTimeline::mean_total_uw`]'s accumulator exactly,
/// so the ledger total and the timeline mean are two views of the same
/// sum.
const UWPS_PER_UJ: f64 = 1e12;

/// Per-component integrated energy over a simulated span.
///
/// Built from a [`PowerTimeline`] (one sample per activity window) and
/// mergeable across runs: a fleet fold of ledgers in job input order is
/// deterministic regardless of worker count or completion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    /// Total covered span, ps.
    span_ps: u64,
    /// Number of integrated windows.
    windows: usize,
    /// Σ total power × duration, µW·ps (components + analog floor).
    total_uwps: f64,
    /// Per-component Σ power × duration, µW·ps, keyed by component name
    /// (BTreeMap ⇒ iteration in sorted-name order, deterministic).
    components: BTreeMap<String, f64>,
}

/// One row of the blame table: a component (or the analog floor) and
/// its integrated energy.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameRow {
    /// Component name; the residual row is named `"(analog floor)"`.
    pub name: String,
    /// Integrated energy in microjoules.
    pub uj: f64,
    /// Fraction of the ledger total (0..=1; 0 if the total is zero).
    pub share: f64,
}

impl EnergyLedger {
    /// An empty ledger (zero span, zero energy) — the fold identity.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Integrates a power timeline: every sample contributes
    /// `power × duration` to its components and to the total.
    pub fn from_timeline(timeline: &PowerTimeline) -> Self {
        let mut ledger = EnergyLedger::new();
        for s in &timeline.samples {
            let d = (s.end.as_ps() - s.start.as_ps()) as f64;
            ledger.span_ps += s.end.as_ps() - s.start.as_ps();
            ledger.windows += 1;
            ledger.total_uwps += s.total_uw * d;
            for (name, uw) in &s.components {
                *ledger.components.entry(name.clone()).or_insert(0.0) += uw * d;
            }
        }
        ledger
    }

    /// Folds another ledger into this one (per-component sums, spans
    /// and window counts add). Folding a job list in input order gives
    /// the same ledger on any worker count.
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.span_ps = self.span_ps.saturating_add(other.span_ps);
        self.windows += other.windows;
        self.total_uwps += other.total_uwps;
        for (name, uwps) in &other.components {
            *self.components.entry(name.clone()).or_insert(0.0) += uwps;
        }
    }

    /// The covered span of simulated time.
    pub fn span(&self) -> SimTime {
        SimTime::from_ps(self.span_ps)
    }

    /// Number of integrated windows.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Total integrated energy (components + analog floor), µJ.
    pub fn total_uj(&self) -> f64 {
        self.total_uwps / UWPS_PER_UJ
    }

    /// Total integrated energy as an [`Energy`].
    pub fn total_energy(&self) -> Energy {
        // µW·ps = 1e-6 pJ.
        Energy::from_pj(self.total_uwps * 1e-6)
    }

    /// A component's integrated energy, µJ (0 if absent).
    pub fn component_uj(&self, name: &str) -> f64 {
        self.components.get(name).copied().unwrap_or(0.0) / UWPS_PER_UJ
    }

    /// Component names in sorted order.
    pub fn component_names(&self) -> Vec<&str> {
        self.components.keys().map(String::as_str).collect()
    }

    /// The residual energy not attributed to any component — the
    /// model's constant analog floor, µJ. Defined as
    /// `total − Σ components` so the blame rows partition the total
    /// exactly (bit-for-bit), absorbing any floating-point rounding.
    pub fn floor_uj(&self) -> f64 {
        (self.total_uwps - self.components_uwps()) / UWPS_PER_UJ
    }

    fn components_uwps(&self) -> f64 {
        self.components.values().sum()
    }

    /// Time-weighted mean power over the span. The total telescopes by
    /// construction: `mean_power × span = total` (they are the same sum
    /// divided and re-multiplied by the span).
    pub fn mean_power(&self) -> Power {
        if self.span_ps == 0 {
            return Power::ZERO;
        }
        Power::from_uw(self.total_uwps / self.span_ps as f64)
    }

    /// The blame table: components sorted by descending energy, then
    /// the analog-floor residual row. Shares are fractions of the
    /// total; the `uj` column sums exactly to [`EnergyLedger::total_uj`].
    pub fn blame(&self) -> Vec<BlameRow> {
        let total_uwps = self.total_uwps;
        let share = |uwps: f64| {
            if total_uwps > 0.0 {
                uwps / total_uwps
            } else {
                0.0
            }
        };
        let mut rows: Vec<BlameRow> = self
            .components
            .iter()
            .map(|(name, &uwps)| BlameRow {
                name: name.clone(),
                uj: uwps / UWPS_PER_UJ,
                share: share(uwps),
            })
            .collect();
        // Sort by descending energy, name-ascending tiebreak: the
        // BTreeMap source plus total-order comparison keeps this
        // deterministic.
        rows.sort_by(|a, b| b.uj.total_cmp(&a.uj).then(a.name.cmp(&b.name)));
        let floor = self.total_uwps - self.components_uwps();
        rows.push(BlameRow {
            name: "(analog floor)".to_string(),
            uj: floor / UWPS_PER_UJ,
            share: share(floor),
        });
        rows
    }

    /// ASCII blame table: one bar-chart row per component plus the
    /// analog-floor residual, captioned with the auto-scaled total,
    /// span and mean power.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "energy {} over {:.3} s  (mean {})",
            self.total_energy(),
            self.span().as_secs_f64(),
            self.mean_power(),
        );
        let rows = self.blame();
        let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for row in rows {
            let bar = "#".repeat((row.share * 40.0).round() as usize);
            let _ = writeln!(
                out,
                "  {:<width$}  {:>12}  {:>6.2}%  {}",
                row.name,
                Energy::from_uj(row.uj.max(0.0)).to_string(),
                row.share * 100.0,
                bar,
            );
        }
        out
    }

    /// Fixed-key integer metrics for a registry
    /// (`power.energy.*`; energies rounded to nanojoules, span to µs).
    pub fn metric_pairs(&self) -> Vec<(&'static str, u64)> {
        let nj = |uj: f64| (uj.max(0.0) * 1e3).round() as u64;
        vec![
            ("power.energy.total_nj", nj(self.total_uj())),
            ("power.energy.floor_nj", nj(self.floor_uj())),
            ("power.energy.span_us", self.span_ps / 1_000_000),
            ("power.energy.windows", self.windows as u64),
            ("power.energy.components", self.components.len() as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PowerModel;
    use crate::Calibration;
    use pels_sim::{
        ActivityKind, ActivitySet, ActivityTimeline, ActivityWindow, ComponentId, Frequency,
    };

    fn model() -> PowerModel {
        let mut m = PowerModel::new(Calibration::default());
        m.add_component("ibex", 27.0).add_component("sram", 200.0);
        m
    }

    fn timeline(stretch: u64) -> PowerTimeline {
        let mut t = ActivityTimeline::new(100);
        let mut activity = ActivitySet::new();
        activity.record(ComponentId::intern("ibex"), ActivityKind::ClockCycle, 100);
        activity.record(ComponentId::intern("sram"), ActivityKind::SramRead, 300);
        t.windows.push(ActivityWindow {
            start_cycle: 0,
            end_cycle: 100,
            activity,
        });
        t.windows.push(ActivityWindow {
            start_cycle: 100,
            end_cycle: 100 + stretch,
            activity: ActivitySet::new(),
        });
        PowerTimeline::from_activity(&model(), &t, Frequency::from_mhz(100.0))
    }

    #[test]
    fn blame_rows_partition_the_total_bit_exactly() {
        let ledger = EnergyLedger::from_timeline(&timeline(10_000));
        let rows = ledger.blame();
        // Exact f64 equality: the floor row is the residual by
        // construction, so the partition telescopes bit-for-bit.
        let back: f64 = ledger.components.values().sum::<f64>()
            + (ledger.total_uwps - ledger.components_uwps());
        assert_eq!(back, ledger.total_uwps);
        let row_sum: f64 = rows.iter().map(|r| r.uj).sum();
        assert!((row_sum - ledger.total_uj()).abs() <= 1e-12 * ledger.total_uj().max(1.0));
        let share_sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_telescopes_to_mean_power_times_span() {
        let pt = timeline(50_000);
        let ledger = EnergyLedger::from_timeline(&pt);
        // Same accumulation as PowerTimeline::mean_total_uw: mean × span
        // reconstructs the total within one rounding of the division.
        let span_ps = ledger.span().as_ps() as f64;
        let reconstructed = ledger.mean_power().as_uw() * span_ps;
        assert!((reconstructed - ledger.total_uwps).abs() <= 4.0 * f64::EPSILON * ledger.total_uwps);
        // And the ledger mean equals the timeline's duration-weighted mean.
        assert!((ledger.mean_power().as_uw() - pt.mean_total_uw()).abs() <= 1e-12);
    }

    #[test]
    fn quiescence_stretch_weights_energy_by_duration() {
        let short = EnergyLedger::from_timeline(&timeline(100));
        let long = EnergyLedger::from_timeline(&timeline(1_000_000));
        // The stretched ledger covers more time, so it accrues more
        // leakage/floor energy...
        assert!(long.total_uj() > short.total_uj());
        // ...but its mean power collapses toward the idle floor.
        assert!(long.mean_power().as_uw() < short.mean_power().as_uw());
        // The stretched span accrues proportionally more floor energy
        // (leakage and the analog floor pay per unit time).
        assert!(long.floor_uj() > short.floor_uj());
        assert!(long.component_uj("sram") > short.component_uj("sram"));
    }

    #[test]
    fn merge_is_input_order_deterministic() {
        let a = EnergyLedger::from_timeline(&timeline(100));
        let b = EnergyLedger::from_timeline(&timeline(5_000));
        let mut ab = EnergyLedger::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ab2 = EnergyLedger::new();
        ab2.merge(&a);
        ab2.merge(&b);
        assert_eq!(ab, ab2);
        assert_eq!(ab.windows(), a.windows() + b.windows());
        assert_eq!(ab.span(), SimTime::from_ps(a.span().as_ps() + b.span().as_ps()));
        assert!((ab.total_uj() - (a.total_uj() + b.total_uj())).abs() <= 1e-12);
        // Merging an empty ledger is the identity.
        let mut id = a.clone();
        id.merge(&EnergyLedger::new());
        assert_eq!(id, a);
    }

    #[test]
    fn empty_ledger_is_all_zeroes() {
        let e = EnergyLedger::new();
        assert_eq!(e.total_uj(), 0.0);
        assert_eq!(e.mean_power(), Power::ZERO);
        assert_eq!(e.span(), SimTime::ZERO);
        assert_eq!(e.windows(), 0);
        let rows = e.blame();
        assert_eq!(rows.len(), 1); // just the floor row
        assert_eq!(rows[0].share, 0.0);
    }

    #[test]
    fn render_and_metrics_mention_components() {
        let ledger = EnergyLedger::from_timeline(&timeline(1_000));
        let text = ledger.render();
        assert!(text.contains("sram"), "{text}");
        assert!(text.contains("(analog floor)"), "{text}");
        let keys: Vec<&str> = ledger.metric_pairs().iter().map(|(k, _)| *k).collect();
        assert!(keys.contains(&"power.energy.total_nj"));
        assert!(ledger.metric_pairs()[0].1 > 0);
    }
}
