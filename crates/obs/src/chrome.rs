//! Chrome trace-event export.
//!
//! Serializes two time domains into one document loadable in Perfetto or
//! `chrome://tracing`:
//!
//! * the **simulated-time** [`Trace`] — every entry becomes an instant
//!   event on a per-component track under the `sim` process, with the
//!   picosecond timestamp mapped onto the format's microsecond axis;
//! * the **host-time** profiler intervals ([`SpanEvent`]) — complete
//!   (`"X"`) events on per-thread tracks under the `host` process.
//!
//! Only the JSON-array-of-events subset of the trace-event format is
//! emitted (`{"traceEvents": [...]}`), which both viewers accept.

use crate::json::{self, Value};
use crate::json_object;
use crate::profile::SpanEvent;
use pels_sim::{ComponentId, FlowHop, FlowTrace, Trace};
use std::collections::HashMap;

/// Process id used for simulated-time events.
pub const SIM_PID: u64 = 1;
/// Process id used for host-time profiler spans.
pub const HOST_PID: u64 = 2;

/// Builder for a Chrome trace-event document.
///
/// ```
/// use pels_obs::ChromeTrace;
/// use pels_sim::{SimTime, Trace};
/// let mut t = Trace::new();
/// t.record_named(SimTime::from_ns(10), "spi", "eot", 1);
/// let mut ct = ChromeTrace::new();
/// ct.add_sim_trace(&t);
/// let doc = ct.finish();
/// assert!(doc.contains("\"traceEvents\""));
/// assert!(pels_obs::chrome::validate(&doc).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Value>,
    sim_tids: HashMap<ComponentId, u64>,
    named_threads: Vec<(u64, u64)>,
    flow_id_base: u64,
}

impl ChromeTrace {
    /// Creates an empty document builder.
    pub fn new() -> Self {
        let mut ct = ChromeTrace::default();
        ct.name_process(SIM_PID, "sim (simulated time)");
        ct.name_process(HOST_PID, "host (wall time)");
        ct
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        self.events.push(json_object! {
            "ph" => "M", "name" => kind, "pid" => pid, "tid" => tid,
            "args" => json_object! { "name" => name },
        });
    }

    fn name_process(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        if self.named_threads.contains(&(pid, tid)) {
            return;
        }
        self.named_threads.push((pid, tid));
        self.metadata("thread_name", pid, tid, name);
    }

    /// Adds every entry of a simulated-time trace as instant events, one
    /// track per source component. 1 simulated µs maps to 1 trace µs.
    pub fn add_sim_trace(&mut self, trace: &Trace) {
        for e in trace.entries() {
            let next = self.sim_tids.len() as u64 + 1;
            let tid = *self.sim_tids.entry(e.source).or_insert(next);
            self.name_thread(SIM_PID, tid, e.source.name());
            self.events.push(json_object! {
                "ph" => "i", "name" => format!("{}.{}", e.source.name(), e.label),
                "cat" => "sim", "s" => "t", "ts" => e.time.as_ps() as f64 / 1e6,
                "pid" => SIM_PID, "tid" => tid, "args" => json_object! { "value" => e.value },
            });
        }
    }

    /// Adds one counter-track sample (`"ph": "C"`) under the `sim`
    /// process: a named set of numeric series at a simulated-time
    /// timestamp (µs on the trace axis). Perfetto renders each series of
    /// a given counter name as one track, so a sequence of calls with
    /// the same `name` and timestamps in order draws a curve — power or
    /// activity over simulated time next to the instant-event tracks.
    ///
    /// Series values must be finite (NaN/infinity have no JSON
    /// representation and would serialize as `null`); entries are
    /// emitted in the order given.
    pub fn add_counter(&mut self, name: &str, ts_us: f64, series: &[(&str, f64)]) {
        debug_assert!(
            series.iter().all(|(_, v)| v.is_finite()),
            "counter series must be finite"
        );
        let args = Value::object(series.iter().map(|&(key, value)| (key, value.into())));
        self.events.push(json_object! {
            "ph" => "C", "name" => name, "cat" => "sim", "ts" => ts_us,
            "pid" => SIM_PID, "tid" => 0u64, "args" => args,
        });
    }

    /// Adds every causal flow as a Perfetto flow-arrow chain: each hop
    /// becomes a short anchor slice (`"X"`) on its component's track
    /// under the `sim` process, bound to a `"s"`/`"t"`/`"f"` flow event
    /// carrying the [`pels_sim::FlowId`] as the binding id. Viewers draw
    /// arrows from slice to slice along each flow — the rendered causal
    /// thread from trigger edge to task retirement. Flows with fewer
    /// than two hops draw no arrow and are skipped.
    ///
    /// Binding ids from distinct calls are offset into disjoint ranges,
    /// so flow traces from independent runs (each minting ids from 1)
    /// can share one document without their arrows merging.
    pub fn add_flow_events(&mut self, flows: &FlowTrace) {
        let base = self.flow_id_base;
        for id in flows.flow_ids() {
            self.flow_id_base = self.flow_id_base.max(base + id.0);
            let hops: Vec<&FlowHop> = flows.hops_of(id).collect();
            if hops.len() < 2 {
                continue;
            }
            for (i, h) in hops.iter().enumerate() {
                let next = self.sim_tids.len() as u64 + 1;
                let tid = *self.sim_tids.entry(h.source).or_insert(next);
                self.name_thread(SIM_PID, tid, h.source.name());
                let ts = h.time.as_ps() as f64 / 1e6;
                // Anchor slice the flow event binds to (flow arrows
                // attach to slices, not instants).
                self.events.push(json_object! {
                    "ph" => "X", "name" => format!("{}.{}", h.source.name(), h.stage),
                    "cat" => "flow", "ts" => ts, "dur" => 0.001, "pid" => SIM_PID, "tid" => tid,
                });
                let ph = if i == 0 {
                    "s"
                } else if i + 1 == hops.len() {
                    "f"
                } else {
                    "t"
                };
                let mut event = vec![
                    ("ph", ph.into()), ("name", "flow".into()), ("cat", "flow".into()),
                    ("id", (base + id.0).into()), ("ts", ts.into()), ("pid", SIM_PID.into()),
                    ("tid", tid.into()),
                ];
                if ph == "f" {
                    event.push(("bp", "e".into()));
                }
                self.events.push(Value::object(event));
            }
        }
    }

    /// Adds host-time profiler intervals as complete (`"X"`) events, one
    /// track per profiled thread.
    pub fn add_host_spans(&mut self, spans: &[SpanEvent]) {
        for s in spans {
            self.name_thread(HOST_PID, s.thread, &format!("host thread {}", s.thread));
            self.events.push(json_object! {
                "ph" => "X", "name" => s.path.as_str(), "cat" => "host", "ts" => s.start_us,
                "dur" => s.dur_us, "pid" => HOST_PID, "tid" => s.thread,
            });
        }
    }

    /// Renders the `{"traceEvents": [...]}` document.
    pub fn finish(self) -> String {
        json::to_string(&json_object! { "traceEvents" => self.events })
    }
}

/// Schema-checks a rendered trace document: well-formed JSON, a
/// `traceEvents` array, per-event field requirements (`ph`/`name`
/// strings, numeric `ts`/`pid`/`tid`, `dur` on complete events), and
/// flow-event well-formedness — every `"s"` start has a matching `"f"`
/// end with the same binding id, no step/end appears for a flow that was
/// never started, and every flow event binds to an enclosing `"X"` slice
/// on the same track.
///
/// This is the gate `bench_smoke.sh` runs (through the `obs_check`
/// binary) against `reproduce --obs` output.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate(doc: &str) -> Result<(), String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let events = v
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    // (pid, tid, ts, dur) of every complete slice — the binding targets
    // flow events are checked against.
    let mut slices: Vec<(u64, u64, f64, f64)> = Vec::new();
    // (index, ph, id, pid, tid, ts) of every flow event.
    let mut flow_events: Vec<(usize, char, u64, u64, u64, f64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string ph"))?;
        e.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string name"))?;
        let mut ids = [0u64; 2];
        for (slot, field) in ids.iter_mut().zip(["pid", "tid"]) {
            *slot = e
                .get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| ctx(&format!("missing integer {field}")))?;
        }
        let [pid, tid] = ids;
        match ph {
            "M" => {}
            "i" | "I" | "X" | "B" | "E" => {
                let ts = e
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("missing numeric ts"))?;
                if ph == "X" {
                    let dur = e
                        .get("dur")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| ctx("missing numeric dur on X event"))?;
                    slices.push((pid, tid, ts, dur));
                }
            }
            "s" | "t" | "f" => {
                let ts = e
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("missing numeric ts"))?;
                let id = e
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ctx("missing integer id on flow event"))?;
                flow_events.push((i, ph.chars().next().unwrap(), id, pid, tid, ts));
            }
            "C" => {
                e.get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("missing numeric ts"))?;
                let args = e
                    .get("args")
                    .and_then(Value::as_object)
                    .ok_or_else(|| ctx("missing args object on C event"))?;
                if args.is_empty() {
                    return Err(ctx("C event has no counter series"));
                }
                for (key, value) in args {
                    value.as_f64().ok_or_else(|| {
                        ctx(&format!("counter series `{key}` is not numeric"))
                    })?;
                }
            }
            other => return Err(ctx(&format!("unsupported phase {other:?}"))),
        }
    }
    // Flow well-formedness: matched start/end ids, slice-bound events.
    let starts: Vec<u64> = flow_events
        .iter()
        .filter(|f| f.1 == 's')
        .map(|f| f.2)
        .collect();
    for &(i, ph, id, pid, tid, ts) in &flow_events {
        match ph {
            's' => {
                if !flow_events.iter().any(|f| f.1 == 'f' && f.2 == id) {
                    return Err(format!("event {i}: flow {id} starts but never finishes"));
                }
            }
            _ => {
                if !starts.contains(&id) {
                    return Err(format!(
                        "event {i}: flow {id} has a {ph:?} event but no start"
                    ));
                }
            }
        }
        let bound = slices
            .iter()
            .any(|&(p, t, s_ts, dur)| p == pid && t == tid && s_ts <= ts && ts <= s_ts + dur);
        if !bound {
            return Err(format!(
                "event {i}: flow {id} {ph:?} event binds to no slice on pid {pid} tid {tid}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_sim::SimTime;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.record_named(SimTime::from_ns(10), "chrome-test-spi", "eot", 0);
        t.record_named(SimTime::from_ns(80), "chrome-test-gpio", "set", 1);
        t.record_named(SimTime::from_ns(120), "chrome-test-spi", "eot", 1);
        t
    }

    #[test]
    fn sim_trace_renders_instant_events_per_source_track() {
        let mut ct = ChromeTrace::new();
        ct.add_sim_trace(&sample_trace());
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let instants: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 3);
        assert_eq!(
            instants[0].get("name").and_then(Value::as_str),
            Some("chrome-test-spi.eot")
        );
        // 10 ns = 0.01 µs on the trace axis.
        assert_eq!(instants[0].get("ts").and_then(Value::as_f64), Some(0.01));
        // Same source, same track.
        assert_eq!(
            instants[0].get("tid").and_then(Value::as_u64),
            instants[2].get("tid").and_then(Value::as_u64)
        );
        assert_ne!(
            instants[0].get("tid").and_then(Value::as_u64),
            instants[1].get("tid").and_then(Value::as_u64)
        );
    }

    #[test]
    fn host_spans_render_complete_events() {
        let mut ct = ChromeTrace::new();
        ct.add_host_spans(&[SpanEvent {
            path: "outer/inner".into(),
            start_us: 5.0,
            dur_us: 2.5,
            thread: 3,
        }]);
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        let v = json::parse(&doc).unwrap();
        let span = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("complete event");
        assert_eq!(span.get("name").and_then(Value::as_str), Some("outer/inner"));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(2.5));
        assert_eq!(span.get("pid").and_then(Value::as_u64), Some(HOST_PID));
    }

    #[test]
    fn thread_metadata_emitted_once_per_track() {
        let mut ct = ChromeTrace::new();
        ct.add_sim_trace(&sample_trace());
        ct.add_sim_trace(&sample_trace());
        let doc = ct.finish();
        assert_eq!(doc.matches("\"chrome-test-spi\"").count(), 1);
    }

    #[test]
    fn counter_events_render_and_validate() {
        let mut ct = ChromeTrace::new();
        ct.add_counter("power_uw", 0.5, &[("ibex", 120.25), ("sram", 80.0)]);
        ct.add_counter("power_uw", 1.5, &[("ibex", 60.5), ("sram", 80.0)]);
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        let v = json::parse(&doc).unwrap();
        let counters: Vec<&Value> = v
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        let args = counters[0].get("args").unwrap();
        assert_eq!(args.get("ibex").and_then(Value::as_f64), Some(120.25));
        assert_eq!(args.get("sram").and_then(Value::as_f64), Some(80.0));
        assert_eq!(counters[1].get("ts").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    fn validate_gates_counter_events() {
        // No args object.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0}]}"
        )
        .is_err());
        // Empty args.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"args\": {}}]}"
        )
        .is_err());
        // Non-numeric series.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"args\": {\"a\": \"x\"}}]}"
        )
        .is_err());
        // Well-formed.
        assert!(validate(
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"p\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"args\": {\"a\": 2.5}}]}"
        )
        .is_ok());
    }

    #[test]
    fn flow_events_render_bound_arrow_chains() {
        use pels_sim::ComponentId;
        let spi = ComponentId::intern("chrome-test-flow-spi");
        let link = ComponentId::intern("chrome-test-flow-link");
        let mut flows = FlowTrace::default();
        flows.raise(SimTime::from_ns(10), spi, 1, "eot");
        flows.cycle_end();
        assert!(flows.adopt_wire(SimTime::from_ns(20), link, 1, "trigger"));
        let mut ct = ChromeTrace::new();
        ct.add_flow_events(&flows);
        let doc = ct.finish();
        validate(&doc).expect("valid document");
        // One "s" and one "f" with the same binding id, each with an
        // anchor slice.
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let of_ph = |ph: &str| -> Vec<&Value> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .collect()
        };
        let (starts, ends, slices) = (of_ph("s"), of_ph("f"), of_ph("X"));
        assert_eq!(starts.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(slices.len(), 2);
        assert_eq!(
            starts[0].get("id").and_then(Value::as_u64),
            ends[0].get("id").and_then(Value::as_u64)
        );
        assert!(doc.contains("chrome-test-flow-spi.eot"));
        assert!(doc.contains("chrome-test-flow-link.trigger"));
        // Single-hop flows draw no arrow.
        let mut lone = FlowTrace::default();
        lone.raise(SimTime::ZERO, spi, 2, "compare");
        let mut ct = ChromeTrace::new();
        ct.add_flow_events(&lone);
        assert!(!ct.finish().contains("\"ph\": \"s\""));
    }

    #[test]
    fn validate_gates_flow_events() {
        // Two slices on one track, then the flow events under test.
        let doc = |flow_events: &[Value]| {
            let slice = |name: &str, ts: u64| {
                json_object! {
                    "ph" => "X", "name" => name, "ts" => ts,
                    "dur" => 1u64, "pid" => 1u64, "tid" => 1u64,
                }
            };
            let mut events = vec![slice("a", 1), slice("b", 2)];
            events.extend_from_slice(flow_events);
            json::to_string(&json_object! { "traceEvents" => events })
        };
        let flow = |ph: &str, id: Option<u64>, ts: u64, tid: u64| {
            let mut e = vec![("ph", ph.into()), ("name", "flow".into())];
            if let Some(id) = id {
                e.push(("id", id.into()));
            }
            e.extend([("ts", ts.into()), ("pid", 1u64.into()), ("tid", tid.into())]);
            Value::object(e)
        };
        // A started flow must finish.
        assert!(validate(&doc(&[flow("s", Some(7), 1, 1)])).is_err());
        // A step without a start is rejected.
        assert!(validate(&doc(&[flow("t", Some(7), 1, 1)])).is_err());
        // A flow event off any slice is rejected.
        assert!(validate(&doc(&[flow("s", Some(7), 1, 9), flow("f", Some(7), 2, 9)])).is_err());
        // Matched, slice-bound start/end validates.
        assert!(validate(&doc(&[flow("s", Some(7), 1, 1), flow("f", Some(7), 2, 1)])).is_ok());
        // A flow event without an id is rejected.
        assert!(validate(&doc(&[flow("s", None, 1, 1)])).is_err());
    }

    #[test]
    fn validate_rejects_bad_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"traceEvents\": 3}").is_err());
        assert!(validate("{\"traceEvents\": []}").is_err());
        assert!(
            validate("{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}")
                .is_err(),
            "X event without dur rejected"
        );
        assert!(
            validate("{\"traceEvents\": [{\"ph\": \"i\", \"name\": \"a\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}")
                .is_ok()
        );
    }
}
