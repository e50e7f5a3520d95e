//! # pels-obs — unified metrics, profiling, and trace export
//!
//! After three rounds of fast-path work (interned recording, quiescence
//! skipping, the decoded-instruction cache, active-slave scheduling) the
//! simulator had no way to show whether those machines actually engage on
//! a given workload. This crate is the observability layer the rest of
//! the workspace publishes into:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of named counters and gauges.
//!   Keys are interned once ([`MetricKey`]), storage is a dense `Vec<u64>`
//!   indexed by key, and a disabled registry turns every record into a
//!   single branch. Layers *publish* into a registry at observation
//!   points (`Soc::publish_metrics`, `FleetReport::publish_metrics`, …);
//!   the hot simulation loops keep their existing plain-`u64` internal
//!   counters, so instrumentation can never perturb architectural
//!   results — the differential test in `tests/obs_invariance.rs` proves
//!   obs-on and obs-off runs are bit-identical.
//! * [`profile`] — a host-time span profiler: [`profile::span`] guards
//!   around run loops, fleet jobs and bench phases aggregate per-span
//!   call counts and total/self time into a rendered hierarchical
//!   report, and keep the raw intervals for Chrome trace export. Globally
//!   disabled by default; a disabled `span()` is one relaxed atomic load.
//! * [`chrome`] — serializes the simulated-time [`pels_sim::Trace`] and
//!   the host-time span intervals to Chrome trace-event JSON, loadable
//!   in Perfetto / `chrome://tracing`.
//! * [`flow`] — per-stage latency attribution over the causal
//!   [`pels_sim::FlowTrace`]: a mergeable [`FlowReport`] whose per-stage
//!   cycle sums telescope to exactly the end-to-end latencies — the
//!   "where do the cycles go?" blame table behind `OBS_flows.json`.
//! * [`hist`] — a mergeable log-bucketed [`Histogram`] (exact buckets
//!   below 64, 16 sub-buckets per octave above, so quantiles carry a
//!   ≤ 1/16 relative-error bound) plus the [`hist::sparkline`] render —
//!   the distribution layer behind per-scenario latency histograms and
//!   the fleet's deterministic cross-job merge.
//! * [`json`] — the workspace's one JSON writer and parser: every
//!   artifact, report and description is a [`json::Value`] tree
//!   serialized by [`json::to_string`] under one layout rule, and the
//!   `obs_check` schema gate reads it back with [`json::parse`] (no
//!   serde in the offline dependency graph).
//!
//! ## Example
//!
//! ```
//! use pels_obs::{MetricKey, MetricsRegistry};
//! let hits = MetricKey::intern("cpu.decode_cache.hits");
//! let mut reg = MetricsRegistry::new();
//! reg.add(hits, 41);
//! reg.add(hits, 1);
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("cpu.decode_cache.hits"), Some(42));
//! let doc = pels_obs::json::to_string(&snap.to_value());
//! assert!(doc.contains("\"cpu.decode_cache.hits\": 42"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flow;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;

pub use chrome::ChromeTrace;
pub use flow::{FlowReport, StageRow};
pub use hist::Histogram;
pub use metrics::{MetricKey, MetricsRegistry, MetricsSnapshot};
pub use profile::{ProfileReport, SpanEvent, SpanGuard, SpanStats};
