//! # pels-sim — deterministic synchronous simulation kernel
//!
//! This crate is the foundation of the PELS reproduction (DATE 2024,
//! Ottaviano et al.). The paper evaluates PELS with cycle-accurate RTL
//! simulation; since no HDL simulator substrate exists in Rust, this kernel
//! provides the equivalent abstraction: a **picosecond time base**, multiple
//! **clock domains**, a deterministic **edge scheduler**, and the building
//! blocks synchronous hardware models need (hardware [`Fifo`]s, event
//! [`trace::Trace`]s, switching [`activity::ActivitySet`] counters, and a
//! [`vcd::VcdWriter`] for waveform inspection).
//!
//! ## Design
//!
//! Models built on this kernel follow a *two-phase* discipline borrowed from
//! synchronous RTL semantics:
//!
//! 1. **comb** — combinational evaluation: read current state and inputs,
//!    compute next state and outputs. Nothing observable changes.
//! 2. **commit** — the clock edge: next state becomes current state.
//!
//! The property-based tests in the workspace assert that simulation results
//! are independent of the order components are evaluated in, which is the
//! correctness criterion for this discipline.
//!
//! ## Example
//!
//! ```
//! use pels_sim::{Clock, Frequency, Scheduler};
//!
//! // PELS at 27 MHz and the Ibex domain at 55 MHz (the paper's iso-latency
//! // operating points, Section IV-B).
//! let mut sched = Scheduler::new();
//! let pels = sched.add_clock(Clock::new("pels", Frequency::from_mhz(27.0)));
//! let ibex = sched.add_clock(Clock::new("ibex", Frequency::from_mhz(55.0)));
//!
//! let mut pels_edges = 0u64;
//! let mut ibex_edges = 0u64;
//! while sched.time().as_ps() < 1_000_000 {
//!     // 1 us
//!     let edge = sched.advance().expect("clocks are registered");
//!     if edge.clock == pels {
//!         pels_edges += 1;
//!     } else if edge.clock == ibex {
//!         ibex_edges += 1;
//!     }
//! }
//! assert!(pels_edges >= 26 && pels_edges <= 28);
//! assert!(ibex_edges >= 54 && ibex_edges <= 56);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod clock;
pub mod component;
pub mod error;
pub mod events;
pub mod fifo;
pub mod flow;
pub mod intern;
pub mod rng;
pub mod scheduler;
pub mod time;
pub mod timeline;
pub mod trace;
pub mod vcd;

pub use activity::{ActivityKind, ActivitySet};
pub use clock::{Clock, ClockId};
pub use component::{Component, TickPhase};
pub use error::SimError;
pub use events::EventVector;
pub use fifo::Fifo;
pub use flow::{FlowHop, FlowId, FlowTrace, FLOW_STAGES};
pub use intern::ComponentId;
pub use rng::Rng;
pub use scheduler::{Edge, Scheduler};
pub use time::{Frequency, SimTime};
pub use timeline::{ActivityTimeline, TimelineWindow};
pub use trace::{Trace, TraceEntry};
