//! The activity → power model.
//!
//! [`PowerModel`] compiles its component inventory into a name-sorted
//! slot table (interned id, `&'static str` name, area, leakage), and one
//! private kernel turns an [`ActivitySet`] into per-component power by
//! walking that table — no string keys, maps or intern-registry lookups
//! per evaluation. [`PowerModel::report`] runs the kernel once;
//! [`crate::PowerTimeline::from_activity`] keeps one kernel (and its
//! scratch buffers) alive across every window of a timeline.

use crate::calibration::Calibration;
use crate::units::{Energy, Power};
use pels_sim::{ActivityKind, ActivitySet, ComponentId, SimTime};
use std::fmt;

type Row = [u64; ActivityKind::COUNT];

const ZERO_ROW: Row = [0; ActivityKind::COUNT];

/// Power attributed to one component over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPower {
    /// Component name (the interned activity-set name).
    pub name: &'static str,
    /// Activity-driven (dynamic) power, including clock tree.
    pub dynamic: Power,
    /// Leakage share.
    pub leakage: Power,
}

impl ComponentPower {
    /// Dynamic + leakage.
    pub fn total(&self) -> Power {
        self.dynamic + self.leakage
    }
}

/// Total SoC power: the components summed in their (sorted) order, then
/// the analog floor.
pub(crate) fn total_power(components: &[ComponentPower], constant: Power) -> Power {
    components.iter().map(ComponentPower::total).sum::<Power>() + constant
}

/// The result of evaluating a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    window: SimTime,
    components: Vec<ComponentPower>,
    constant: Power,
    kind_energy: [Energy; ActivityKind::COUNT],
}

impl PowerReport {
    /// The measurement window.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Per-component shares, sorted descending by total power.
    pub fn components(&self) -> &[ComponentPower] {
        &self.components
    }

    /// The frequency-independent analog floor (FLLs, bias).
    pub fn constant(&self) -> Power {
        self.constant
    }

    /// A component's share, if present.
    pub fn component(&self, name: &str) -> Option<&ComponentPower> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Total SoC power: components + analog floor.
    pub fn total(&self) -> Power {
        total_power(&self.components, self.constant)
    }

    /// Power attributable to the memory system: SRAM and SCM access
    /// energy plus the SRAM component's clock/leakage share — the
    /// quantity behind the paper's 3.7×/4.3× comparison.
    pub fn memory_system(&self) -> Power {
        let access: Energy = [
            ActivityKind::SramRead,
            ActivityKind::SramWrite,
            ActivityKind::ScmRead,
            ActivityKind::ScmWrite,
        ]
        .into_iter()
        .map(|k| self.kind_energy(k))
        .sum();
        let sram_static = self
            .component("sram")
            .map(|c| c.leakage + self.clockless_dynamic_of("sram"))
            .unwrap_or(Power::ZERO);
        access.over(self.window) + sram_static
    }

    /// The clock-tree part of a component's dynamic power.
    fn clockless_dynamic_of(&self, name: &str) -> Power {
        // For the SRAM, dynamic = access energy + clock; access energy is
        // already reported via kind_energy, so return dynamic minus the
        // access part to avoid double counting.
        let Some(c) = self.component(name) else {
            return Power::ZERO;
        };
        let access: Energy = [ActivityKind::SramRead, ActivityKind::SramWrite]
            .into_iter()
            .map(|k| self.kind_energy(k))
            .sum();
        let access_p = access.over(self.window);
        if c.dynamic.as_uw() > access_p.as_uw() {
            Power::from_uw(c.dynamic.as_uw() - access_p.as_uw())
        } else {
            Power::ZERO
        }
    }

    /// Energy charged to an activity kind over the window.
    pub fn kind_energy(&self, kind: ActivityKind) -> Energy {
        self.kind_energy[kind.index()]
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "power over {} (total {}):", self.window, self.total())?;
        for c in &self.components {
            writeln!(
                f,
                "  {:<18} dyn {:>12}  leak {:>12}",
                c.name,
                c.dynamic.to_string(),
                c.leakage.to_string()
            )?;
        }
        writeln!(f, "  {:<18} {:>12}", "analog floor", self.constant.to_string())
    }
}

/// One component as the kernel sees it: everything an evaluation needs,
/// resolved once so no evaluation touches the intern registry.
#[derive(Debug, Clone)]
struct Slot {
    id: ComponentId,
    name: &'static str,
    area_kge: f64,
    leakage: Power,
    /// Registered components report (and leak) in every window; a stray
    /// (active but unregistered) component reports only when active.
    registered: bool,
}

/// The model: a calibration plus the SoC's component inventory (areas in
/// kGE drive clock-tree energy and leakage shares).
#[derive(Debug, Clone)]
pub struct PowerModel {
    calibration: Calibration,
    /// Registered components, sorted by name.
    slots: Vec<Slot>,
}

impl PowerModel {
    /// Creates a model with the given calibration and no components.
    pub fn new(calibration: Calibration) -> Self {
        PowerModel {
            calibration,
            slots: Vec::new(),
        }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Registers a component and its logic area (re-registering a name
    /// replaces its area). Components appearing in the activity set
    /// without registration contribute event energy but no clock/leakage
    /// share.
    pub fn add_component(&mut self, name: impl AsRef<str>, area_kge: f64) -> &mut Self {
        let slot = self.slot(ComponentId::intern(name.as_ref()), area_kge, true);
        match self.slots.binary_search_by(|s| s.name.cmp(slot.name)) {
            Ok(i) => self.slots[i] = slot,
            Err(i) => self.slots.insert(i, slot),
        }
        self
    }

    /// The slot for `id` with `area_kge` of logic: its leakage is the
    /// logic share, plus the macro leakage if it is the SRAM.
    fn slot(&self, id: ComponentId, area_kge: f64, registered: bool) -> Slot {
        let name = id.name();
        let mut leakage = self.calibration.logic_leakage(area_kge);
        if name == "sram" {
            leakage += Power::from_uw(self.calibration.sram_leak_uw);
        }
        Slot {
            id,
            name,
            area_kge,
            leakage,
            registered,
        }
    }

    fn constant(&self) -> Power {
        Power::from_uw(self.calibration.p_const_uw)
    }

    /// Evaluates a measurement window.
    ///
    /// `activity` must contain a [`ActivityKind::ClockCycle`] entry per
    /// clocked component (the SoC harness records one per cycle the
    /// component's clock was running — WFI-gated components record
    /// none).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn report(&self, activity: &ActivitySet, window: SimTime) -> PowerReport {
        let mut kernel = Kernel::new(self);
        let kind_energy = kernel.evaluate(activity, window);
        PowerReport {
            window,
            components: kernel.components,
            constant: self.constant(),
            kind_energy,
        }
    }
}

/// The one evaluation kernel: a model's slot table extended with any
/// stray components met so far, an id → slot index, and scratch buffers
/// reused from one evaluation to the next.
pub(crate) struct Kernel<'m> {
    model: &'m PowerModel,
    /// Registered and stray slots, sorted by name.
    slots: Vec<Slot>,
    /// `slot_of[id.index()]`: the id's position in `slots`.
    slot_of: Vec<Option<usize>>,
    /// Scratch: the evaluated set's counter row per slot.
    rows: Vec<Row>,
    /// The last evaluation's components, sorted descending by total.
    components: Vec<ComponentPower>,
}

impl<'m> Kernel<'m> {
    pub(crate) fn new(model: &'m PowerModel) -> Self {
        let mut kernel = Kernel {
            model,
            slots: model.slots.clone(),
            slot_of: Vec::new(),
            rows: Vec::new(),
            components: Vec::new(),
        };
        kernel.reindex();
        kernel
    }

    fn reindex(&mut self) {
        self.slot_of.clear();
        for (i, slot) in self.slots.iter().enumerate() {
            let idx = slot.id.index();
            if idx >= self.slot_of.len() {
                self.slot_of.resize(idx + 1, None);
            }
            self.slot_of[idx] = Some(i);
        }
    }

    /// Copies `activity`'s rows into the per-slot scratch, first giving
    /// any component this kernel has not met a stray slot in name order.
    fn load(&mut self, activity: &ActivitySet) {
        self.rows.clear();
        self.rows.resize(self.slots.len(), ZERO_ROW);
        for (id, row) in activity.rows() {
            let Some(i) = self.slot_of.get(id.index()).copied().flatten() else {
                let stray = self.model.slot(id, 0.0, false);
                let at = self.slots.partition_point(|s| s.name < stray.name);
                self.slots.insert(at, stray);
                self.reindex();
                return self.load(activity);
            };
            self.rows[i] = *row;
        }
    }

    /// Evaluates one window into [`Kernel::components`] and returns the
    /// energy per activity kind.
    ///
    /// Floating-point order is part of the contract: each component sums
    /// its kinds in declaration order, each kind accumulates across
    /// components in name order, and the stable sort by total keeps name
    /// order among ties.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn evaluate(
        &mut self,
        activity: &ActivitySet,
        window: SimTime,
    ) -> [Energy; ActivityKind::COUNT] {
        assert!(window.as_ps() > 0, "window must be non-zero");
        self.load(activity);
        let calibration = &self.model.calibration;
        let mut kind_energy = [Energy::ZERO; ActivityKind::COUNT];
        self.components.clear();
        for (slot, row) in self.slots.iter().zip(&self.rows) {
            if !slot.registered && *row == ZERO_ROW {
                continue;
            }
            let mut energy = Energy::ZERO;
            for (kind, &n) in ActivityKind::ALL.into_iter().zip(row) {
                if n == 0 {
                    continue;
                }
                let e = if kind == ActivityKind::ClockCycle {
                    calibration.clock_energy(slot.area_kge, n)
                } else {
                    calibration.event_energy(kind, n)
                };
                energy += e;
                kind_energy[kind.index()] += e;
            }
            self.components.push(ComponentPower {
                name: slot.name,
                dynamic: energy.over(window),
                leakage: slot.leakage,
            });
        }
        self.components.sort_by(|a, b| {
            b.total()
                .as_uw()
                .partial_cmp(&a.total().as_uw())
                .expect("power values are finite")
        });
        kind_energy
    }

    /// The last evaluation's components, sorted descending by total.
    pub(crate) fn components(&self) -> &[ComponentPower] {
        &self.components
    }

    /// The last evaluation's total SoC power.
    pub(crate) fn total(&self) -> Power {
        total_power(&self.components, self.model.constant())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_sim::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    /// `(name, dynamic, leakage)` rows in report order, plus the
    /// per-kind energies.
    type Reference = (Vec<(String, Power, Power)>, BTreeMap<ActivityKind, Energy>);

    /// The string-keyed evaluation the kernel replaced, kept as the
    /// oracle.
    fn reference_report(
        calibration: &Calibration,
        areas: &BTreeMap<String, f64>,
        activity: &ActivitySet,
        window: SimTime,
    ) -> Reference {
        let mut per_component: BTreeMap<String, Energy> = BTreeMap::new();
        let mut kind_energy: BTreeMap<ActivityKind, Energy> = BTreeMap::new();
        for (component, kind, n) in activity.iter() {
            let e = if kind == ActivityKind::ClockCycle {
                let area = areas.get(component).copied().unwrap_or(0.0);
                calibration.clock_energy(area, n)
            } else {
                calibration.event_energy(kind, n)
            };
            *per_component
                .entry(component.to_owned())
                .or_insert(Energy::ZERO) += e;
            *kind_energy.entry(kind).or_insert(Energy::ZERO) += e;
        }
        let mut named: BTreeSet<String> = per_component.keys().cloned().collect();
        named.extend(areas.keys().cloned());
        let mut components: Vec<(String, Power, Power)> = named
            .into_iter()
            .map(|name| {
                let dynamic = per_component
                    .get(&name)
                    .copied()
                    .unwrap_or(Energy::ZERO)
                    .over(window);
                let mut leakage =
                    calibration.logic_leakage(areas.get(&name).copied().unwrap_or(0.0));
                if name == "sram" {
                    leakage += Power::from_uw(calibration.sram_leak_uw);
                }
                (name, dynamic, leakage)
            })
            .collect();
        components.sort_by(|a, b| {
            (b.1 + b.2)
                .as_uw()
                .partial_cmp(&(a.1 + a.2).as_uw())
                .expect("power values are finite")
        });
        (components, kind_energy)
    }

    #[test]
    fn kernel_matches_the_string_keyed_oracle_bit_for_bit() {
        // Registered or not per case; strays sort before, between and
        // after the registered names, and "sram" may be either.
        const POOL: [&str; 28] = [
            "aaa.oracle",
            "adc",
            "b.oracle",
            "fabric",
            "gpio",
            "i2c",
            "ibex",
            "m.oracle",
            "n.oracle",
            "pels",
            "pels.link0",
            "pels.link1",
            "pels.link2",
            "pels.link3",
            "periph_misc",
            "q.oracle",
            "soc_ctrl",
            "spi",
            "sram",
            "t.oracle",
            "timer",
            "u.oracle",
            "uart",
            "udma",
            "w.oracle",
            "wdt",
            "y.oracle",
            "zzz.oracle",
        ];
        // Few distinct areas and counts, so equal-power ties are common.
        const AREAS: [f64; 4] = [0.0, 5.0, 27.0, 200.0];
        const COUNTS: [u64; 4] = [1, 7, 550, 1_000_000];
        let calibration = Calibration::tsmc65();
        let mut rng = Rng::seed_from_u64(0x5eed_0e1e);
        let mut ties = 0;
        for case in 0..2_000 {
            let mut model = PowerModel::new(calibration);
            let mut areas = BTreeMap::new();
            for name in POOL {
                if rng.ratio(2, 3) {
                    let area = AREAS[rng.index(AREAS.len())];
                    model.add_component(name, area);
                    areas.insert(name.to_string(), area);
                }
            }
            let mut activity = ActivitySet::new();
            let mut shared_row: Option<Vec<(ActivityKind, u64)>> = None;
            for name in POOL {
                if rng.ratio(1, 3) {
                    continue;
                }
                let row = match &shared_row {
                    Some(shared) if rng.ratio(1, 4) => shared.clone(),
                    _ => ActivityKind::ALL
                        .into_iter()
                        .filter_map(|k| {
                            let n = match rng.index(6) {
                                0 | 1 => COUNTS[rng.index(COUNTS.len())],
                                2 => rng.range_u64(1, 1 << 40),
                                _ => return None,
                            };
                            Some((k, n))
                        })
                        .collect(),
                };
                for &(kind, n) in &row {
                    activity.record_named(name, kind, n);
                }
                shared_row = Some(row);
            }
            let window = SimTime::from_ps(rng.range_u64(1, 1 << 42));

            let got = model.report(&activity, window);
            let (want, want_kinds) = reference_report(&calibration, &areas, &activity, window);
            let names: Vec<&str> = got.components().iter().map(|c| c.name).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _, _)| n.as_str()).collect();
            assert_eq!(names, want_names, "case {case}: component order");
            for (c, (_, dynamic, leakage)) in got.components().iter().zip(&want) {
                assert_eq!(c.dynamic.as_uw().to_bits(), dynamic.as_uw().to_bits(), "case {case}");
                assert_eq!(c.leakage.as_uw().to_bits(), leakage.as_uw().to_bits(), "case {case}");
            }
            let want_total = want.iter().map(|(_, d, l)| *d + *l).sum::<Power>()
                + Power::from_uw(calibration.p_const_uw);
            assert_eq!(got.total().as_uw().to_bits(), want_total.as_uw().to_bits(), "case {case}");
            for kind in ActivityKind::ALL {
                let want_e = want_kinds.get(&kind).copied().unwrap_or(Energy::ZERO);
                assert_eq!(
                    got.kind_energy(kind).as_pj().to_bits(),
                    want_e.as_pj().to_bits(),
                    "case {case}: {kind}"
                );
            }
            ties += got
                .components()
                .windows(2)
                .filter(|w| w[0].total() == w[1].total())
                .count();
        }
        assert!(ties > 100, "the cases exercise equal-power ties ({ties})");
    }

    fn model() -> PowerModel {
        let mut m = PowerModel::new(Calibration::default());
        m.add_component("ibex", 27.0)
            .add_component("sram", 200.0)
            .add_component("pels.link0", 5.0);
        m
    }

    fn window() -> SimTime {
        SimTime::from_us(10)
    }

    #[test]
    fn empty_activity_still_leaks() {
        let m = model();
        let r = m.report(&ActivitySet::new(), window());
        let total = r.total().as_uw();
        let floor = m.calibration().p_const_uw
            + m.calibration().sram_leak_uw
            + m.calibration().leak_uw_per_kge * (27.0 + 200.0 + 5.0);
        assert!((total - floor).abs() < 1e-9);
    }

    #[test]
    fn clock_cycles_scale_with_area() {
        let m = model();
        let mut small = ActivitySet::new();
        small.record_named("pels.link0", ActivityKind::ClockCycle, 1000);
        let mut big = ActivitySet::new();
        big.record_named("ibex", ActivityKind::ClockCycle, 1000);
        let rs = m.report(&small, window());
        let rb = m.report(&big, window());
        let ds = rs.component("pels.link0").unwrap().dynamic.as_uw();
        let db = rb.component("ibex").unwrap().dynamic.as_uw();
        assert!((db / ds - 27.0 / 5.0).abs() < 1e-6);
    }

    #[test]
    fn unregistered_component_contributes_event_energy_only() {
        let m = model();
        let mut a = ActivitySet::new();
        a.record_named("mystery", ActivityKind::BusTransfer, 100);
        a.record_named("mystery", ActivityKind::ClockCycle, 1000);
        let r = m.report(&a, window());
        let c = r.component("mystery").unwrap();
        assert!(c.dynamic.as_uw() > 0.0, "event energy counted");
        assert_eq!(c.leakage.as_uw(), 0.0, "no area, no leakage");
        // ClockCycle with area 0 contributes nothing.
        let expected = m
            .calibration()
            .event_energy(ActivityKind::BusTransfer, 100)
            .over(window());
        assert!((c.dynamic.as_uw() - expected.as_uw()).abs() < 1e-9);
    }

    #[test]
    fn memory_system_power_tracks_sram_accesses() {
        let m = model();
        let mut quiet = ActivitySet::new();
        quiet.record_named("ibex", ActivityKind::InstrRetired, 100);
        let mut busy = quiet.clone();
        busy.record_named("sram", ActivityKind::SramRead, 10_000);
        let rq = m.report(&quiet, window());
        let rb = m.report(&busy, window());
        assert!(rb.memory_system().as_uw() > rq.memory_system().as_uw());
        // The non-memory parts are unchanged.
        assert!(
            (rb.component("ibex").unwrap().total().as_uw()
                - rq.component("ibex").unwrap().total().as_uw())
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn report_is_displayable_and_sorted() {
        let m = model();
        let mut a = ActivitySet::new();
        a.record_named("ibex", ActivityKind::SramRead, 1); // attributed to ibex name
        let r = m.report(&a, window());
        let s = r.to_string();
        assert!(s.contains("analog floor"));
        let totals: Vec<f64> = r.components().iter().map(|c| c.total().as_uw()).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn kind_energy_accessible() {
        let m = model();
        let mut a = ActivitySet::new();
        a.record_named("sram", ActivityKind::SramRead, 5);
        let r = m.report(&a, window());
        assert!(
            (r.kind_energy(ActivityKind::SramRead).as_pj()
                - 5.0 * m.calibration().e_sram_read_pj)
                .abs()
                < 1e-9
        );
        assert_eq!(r.kind_energy(ActivityKind::ScmRead).as_pj(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let m = model();
        let _ = m.report(&ActivitySet::new(), SimTime::ZERO);
    }
}
