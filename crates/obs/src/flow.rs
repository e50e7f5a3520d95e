//! Per-stage latency attribution over causal event flows.
//!
//! A [`pels_sim::FlowTrace`] answers *which* completion each stimulus
//! caused; this module answers *where the cycles went*. A [`FlowReport`]
//! walks every recorded flow from its first `origin` hop (the paper's
//! measurement start, the SPI `eot`) to its first `terminal` hop (the
//! actuation: `padout`, or the instant-action `action`) and attributes
//! each consecutive hop delta to the *later* hop's `source.stage` label.
//! Because consecutive deltas telescope, the per-stage cycle totals sum
//! to **exactly** the end-to-end latencies `LinkingStats` measures from
//! the architectural trace — `tests/flow_properties.rs` proves it per
//! event.
//!
//! Reports merge like [`Histogram`]s: stage rows add elementwise keyed
//! by label, so fleet-side aggregation is order-invariant.

use crate::hist::Histogram;
use crate::json::Value;
use crate::json_object;
use pels_sim::{FlowHop, FlowTrace};
use std::collections::BTreeMap;

/// Accumulated attribution for one `source.stage` label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageRow {
    /// Hops attributed to this stage across all flows.
    pub count: u64,
    /// Total cycles attributed to this stage (sum of hop deltas).
    pub total_cycles: u64,
    /// Distribution of the per-hop deltas.
    pub hist: Histogram,
}

/// Per-stage latency decomposition of the flows recorded during a run —
/// the "where do the cycles go?" blame table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowReport {
    /// Attribution rows keyed by `source.stage`, in label order (the
    /// `BTreeMap` keeps merging order-invariant).
    stages: BTreeMap<String, StageRow>,
    /// End-to-end origin→terminal latency distribution (cycles).
    end_to_end: Histogram,
    /// Flows with a complete origin→terminal segment.
    flows: u64,
    /// The origin stage the decomposition starts at.
    origin: String,
    /// The terminal stage the decomposition ends at.
    terminal: String,
}

impl FlowReport {
    /// Decomposes every flow in `flows` over its first
    /// `origin`-stage hop to its first subsequent `terminal`-stage hop.
    /// Flows without a complete segment (e.g. a trailing readout whose
    /// actuation fell outside the measurement window) are skipped; hop
    /// deltas are converted to cycles of the `period_ps` clock with the
    /// same integer arithmetic the latency statistics use.
    pub fn from_flows(
        flows: &FlowTrace,
        period_ps: u64,
        origin: &str,
        terminal: &str,
    ) -> FlowReport {
        let mut report = FlowReport {
            origin: origin.to_string(),
            terminal: terminal.to_string(),
            ..FlowReport::default()
        };
        for id in flows.flow_ids() {
            let hops: Vec<&FlowHop> = flows.hops_of(id).collect();
            let Some(start) = hops.iter().position(|h| h.stage == origin) else {
                continue;
            };
            let Some(end) = hops[start..]
                .iter()
                .position(|h| h.stage == terminal)
                .map(|i| start + i)
            else {
                continue;
            };
            let segment = &hops[start..=end];
            for pair in segment.windows(2) {
                let delta =
                    (pair[1].time.as_ps() - pair[0].time.as_ps()) / period_ps;
                let label = format!("{}.{}", pair[1].source_name(), pair[1].stage);
                let row = report.stages.entry(label).or_default();
                row.count += 1;
                row.total_cycles += delta;
                row.hist.record(delta);
            }
            let e2e = (segment[segment.len() - 1].time.as_ps()
                - segment[0].time.as_ps())
                / period_ps;
            report.end_to_end.record(e2e);
            report.flows += 1;
        }
        report
    }

    /// Order-invariant union of two `|`-separated stage-label sets, so
    /// merging reports with different terminals (e.g. `padout` jobs with
    /// instant-`action` jobs) stays commutative.
    fn join_labels(a: &str, b: &str) -> String {
        let mut parts: Vec<&str> = a
            .split('|')
            .chain(b.split('|'))
            .filter(|s| !s.is_empty())
            .collect();
        parts.sort_unstable();
        parts.dedup();
        parts.join("|")
    }

    /// Adds every flow of `other` into `self`. Stage rows add
    /// elementwise by label, histograms merge commutatively, and the
    /// origin/terminal labels union, so any grouping of per-job reports
    /// produces the same aggregate (`tests/flow_properties.rs`).
    pub fn merge(&mut self, other: &FlowReport) {
        self.origin = Self::join_labels(&self.origin, &other.origin);
        self.terminal = Self::join_labels(&self.terminal, &other.terminal);
        for (label, row) in &other.stages {
            let dst = self.stages.entry(label.clone()).or_default();
            dst.count += row.count;
            dst.total_cycles += row.total_cycles;
            dst.hist.merge(&row.hist);
        }
        self.end_to_end.merge(&other.end_to_end);
        self.flows += other.flows;
    }

    /// Flows with a complete origin→terminal segment.
    pub fn flows(&self) -> u64 {
        self.flows
    }

    /// The origin stage of the decomposition.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// The terminal stage of the decomposition.
    pub fn terminal(&self) -> &str {
        &self.terminal
    }

    /// End-to-end latency distribution (cycles).
    pub fn end_to_end(&self) -> &Histogram {
        &self.end_to_end
    }

    /// Attribution rows as `(label, row)` pairs in label order.
    pub fn stages(&self) -> impl Iterator<Item = (&str, &StageRow)> {
        self.stages.iter().map(|(l, r)| (l.as_str(), r))
    }

    /// Total cycles attributed across all stages. Telescoping makes this
    /// equal [`Histogram::sum`] of [`FlowReport::end_to_end`] exactly.
    pub fn attributed_cycles(&self) -> u64 {
        self.stages.values().map(|r| r.total_cycles).sum()
    }

    /// Renders the blame table: one row per stage sorted by attributed
    /// cycles (largest first, label as tiebreak), with the share of the
    /// total end-to-end time, plus the end-to-end summary row.
    pub fn render(&self) -> String {
        if self.flows == 0 {
            return String::from("(no complete flows)\n");
        }
        let mut out = format!(
            "flow blame ({} -> {}), {} flows\n  {:<28} {:>6} {:>7} {:>5} {:>5} {:>7}\n",
            self.origin, self.terminal, self.flows, "stage", "count", "mean", "p50", "p99", "share"
        );
        let total = self.end_to_end.sum().max(1);
        let mut rows: Vec<(&String, &StageRow)> = self.stages.iter().collect();
        rows.sort_by(|a, b| b.1.total_cycles.cmp(&a.1.total_cycles).then(a.0.cmp(b.0)));
        for (label, row) in rows {
            out.push_str(&format!(
                "  {:<28} {:>6} {:>7.2} {:>5} {:>5} {:>6.1}%\n",
                label,
                row.count,
                row.hist.mean().unwrap_or(0.0),
                row.hist.p50().unwrap_or(0),
                row.hist.p99().unwrap_or(0),
                100.0 * row.total_cycles as f64 / total as f64,
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>6} {:>7.2} {:>5} {:>5} {:>6.1}%\n",
            "end-to-end",
            self.end_to_end.count(),
            self.end_to_end.mean().unwrap_or(0.0),
            self.end_to_end.p50().unwrap_or(0),
            self.end_to_end.p99().unwrap_or(0),
            100.0,
        ));
        out
    }

    /// The report as one JSON object (the per-mediator sections of
    /// `OBS_flows.json`).
    pub fn to_value(&self) -> Value {
        let summary = |h: &Histogram| {
            (h.mean().unwrap_or(0.0), h.p50().unwrap_or(0), h.p99().unwrap_or(0))
        };
        let stages = self.stages.iter().map(|(label, row)| {
            let (mean, p50, p99) = summary(&row.hist);
            let v = json_object! {
                "count" => row.count, "total_cycles" => row.total_cycles,
                "mean" => mean, "p50" => p50, "p99" => p99,
            };
            (label.as_str(), v)
        });
        let e2e = &self.end_to_end;
        let (mean, p50, p99) = summary(e2e);
        json_object! {
            "flows" => self.flows,
            "origin" => self.origin.as_str(),
            "terminal" => self.terminal.as_str(),
            "end_to_end" => json_object! {
                "count" => e2e.count(), "sum" => e2e.sum(),
                "mean" => mean, "p50" => p50, "p99" => p99,
            },
            "stages" => Value::object(stages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_sim::{ComponentId, SimTime};

    /// A hand-built two-flow trace: eot at t0, trigger +2cy, padout +5cy.
    fn sample_flows(period_ps: u64) -> FlowTrace {
        let spi = ComponentId::intern("flowrep-test-spi");
        let link = ComponentId::intern("flowrep-test-link");
        let gpio = ComponentId::intern("flowrep-test-gpio");
        let mut f = FlowTrace::default();
        for base in [100u64, 300] {
            let t = |cy: u64| SimTime::from_ps((base + cy) * period_ps);
            f.raise(t(0), spi, 1, "eot");
            f.cycle_end();
            let flow = f.flow_on_lines(1 << 1);
            assert_ne!(flow, 0);
            f.begin(t(2), link, flow, "trigger");
            f.stage_reg_write(gpio, flow);
            assert!(f.take_reg_write(t(7), gpio, "padout"));
            f.begin(t(7), spi, 0, "eot"); // re-originate next readout
            f.begin(t(7), link, 0, "trigger");
            f.begin(t(7), gpio, 0, "padout");
            f.cycle_end();
            f.cycle_end();
        }
        f
    }

    #[test]
    fn attribution_telescopes_to_end_to_end() {
        let period = 10_000;
        let flows = sample_flows(period);
        let r = FlowReport::from_flows(&flows, period, "eot", "padout");
        assert_eq!(r.flows(), 2);
        assert_eq!(r.end_to_end().count(), 2);
        assert_eq!(r.end_to_end().p50(), Some(7));
        // trigger: 2 cycles, padout: 5 cycles, per flow.
        assert_eq!(r.attributed_cycles(), r.end_to_end().sum());
        let rows: Vec<_> = r.stages().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "flowrep-test-gpio.padout");
        assert_eq!(rows[0].1.total_cycles, 10);
        assert_eq!(rows[1].0, "flowrep-test-link.trigger");
        assert_eq!(rows[1].1.total_cycles, 4);
    }

    #[test]
    fn incomplete_flows_are_skipped() {
        let period = 10_000;
        let spi = ComponentId::intern("flowrep-test-spi2");
        let mut f = FlowTrace::default();
        f.raise(SimTime::from_ps(100), spi, 1, "eot");
        let r = FlowReport::from_flows(&f, period, "eot", "padout");
        assert_eq!(r.flows(), 0);
        assert_eq!(r.render(), "(no complete flows)\n");
    }

    #[test]
    fn merge_is_order_invariant() {
        let period = 10_000;
        let a = FlowReport::from_flows(&sample_flows(period), period, "eot", "padout");
        let mut b = FlowReport::from_flows(&sample_flows(period), period, "eot", "padout");
        b.merge(&FlowReport::default()); // merging empty is a no-op
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.flows(), 4);
        assert_eq!(ab.attributed_cycles(), ab.end_to_end().sum());
    }

    #[test]
    fn render_and_json_carry_the_blame_rows() {
        let period = 10_000;
        let r = FlowReport::from_flows(&sample_flows(period), period, "eot", "padout");
        let table = r.render();
        assert!(table.contains("flow blame (eot -> padout), 2 flows"));
        assert!(table.contains("flowrep-test-gpio.padout"));
        assert!(table.contains("end-to-end"));
        let v = r.to_value();
        assert_eq!(v.get("flows").and_then(Value::as_u64), Some(2));
        let stages = v.get("stages").unwrap();
        assert!(stages.get("flowrep-test-link.trigger").is_some());
    }
}
