//! Multi-clock edge scheduler.
//!
//! The scheduler merges the rising edges of every registered [`Clock`] into
//! one deterministic stream. Ties (edges at the same picosecond) are broken
//! by registration order, so a simulation is reproducible bit-for-bit.

use crate::clock::{Clock, ClockId};
use crate::error::SimError;
use crate::time::SimTime;

/// One rising edge delivered by [`Scheduler::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Which clock produced this edge.
    pub clock: ClockId,
    /// Absolute time of the edge.
    pub time: SimTime,
    /// 0-based index of this edge on its clock.
    pub cycle: u64,
}

/// Deterministic multi-clock scheduler.
///
/// ```
/// use pels_sim::{Clock, Frequency, Scheduler};
/// let mut s = Scheduler::new();
/// let fast = s.add_clock(Clock::new("fast", Frequency::from_mhz(100.0)));
/// let slow = s.add_clock(Clock::new("slow", Frequency::from_mhz(50.0)));
/// let e0 = s.advance().unwrap(); // both edge at t=0; fast registered first
/// let e1 = s.advance().unwrap();
/// assert_eq!((e0.clock, e1.clock), (fast, slow));
/// assert_eq!(e0.time, e1.time);
/// ```
#[derive(Debug, Default)]
pub struct Scheduler {
    clocks: Vec<Clock>,
    /// Next edge index per clock.
    next_edge: Vec<u64>,
    now: SimTime,
}

impl Scheduler {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a clock and returns its id.
    pub fn add_clock(&mut self, clock: Clock) -> ClockId {
        self.clocks.push(clock);
        self.next_edge.push(0);
        ClockId(self.clocks.len() - 1)
    }

    /// The clock registered under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this scheduler.
    pub fn clock(&self, id: ClockId) -> &Clock {
        &self.clocks[id.0]
    }

    /// Current simulation time: the time of the most recently delivered
    /// edge, or zero before the first call to [`Scheduler::advance`].
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Number of edges already delivered for `id`.
    pub fn cycles(&self, id: ClockId) -> u64 {
        self.next_edge[id.0]
    }

    /// Time of the next pending edge without consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoClocks`] if no clock is registered.
    pub fn peek(&self) -> Result<Edge, SimError> {
        let mut best: Option<Edge> = None;
        for (i, clock) in self.clocks.iter().enumerate() {
            let n = self.next_edge[i];
            let t = clock.edge_time(n);
            let cand = Edge {
                clock: ClockId(i),
                time: t,
                cycle: n,
            };
            // Strict `<` keeps registration order on ties.
            if best.is_none_or(|b| cand.time < b.time) {
                best = Some(cand);
            }
        }
        best.ok_or(SimError::NoClocks)
    }

    /// Delivers the next rising edge, advancing simulation time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoClocks`] if no clock is registered.
    pub fn advance(&mut self) -> Result<Edge, SimError> {
        let edge = self.peek()?;
        self.next_edge[edge.clock.0] += 1;
        self.now = edge.time;
        Ok(edge)
    }

    /// Runs `f` on every edge until (and excluding) `until`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoClocks`] if no clock is registered.
    pub fn run_until(
        &mut self,
        until: SimTime,
        mut f: impl FnMut(Edge),
    ) -> Result<(), SimError> {
        loop {
            let next = self.peek()?;
            if next.time >= until {
                self.now = until;
                return Ok(());
            }
            let edge = self.advance()?;
            f(edge);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Frequency;

    fn sched_2_clocks() -> (Scheduler, ClockId, ClockId) {
        let mut s = Scheduler::new();
        let a = s.add_clock(Clock::new("a", Frequency::from_mhz(100.0))); // 10 ns
        let b = s.add_clock(Clock::new("b", Frequency::from_mhz(40.0))); // 25 ns
        (s, a, b)
    }

    #[test]
    fn edges_are_time_ordered() {
        let (mut s, _, _) = sched_2_clocks();
        let mut last = SimTime::ZERO;
        for _ in 0..50 {
            let e = s.advance().unwrap();
            assert!(e.time >= last);
            last = e.time;
        }
    }

    #[test]
    fn tie_break_is_registration_order() {
        let (mut s, a, b) = sched_2_clocks();
        // t=0: both clocks edge; a first.
        assert_eq!(s.advance().unwrap().clock, a);
        assert_eq!(s.advance().unwrap().clock, b);
    }

    #[test]
    fn cycle_counts_match_frequency_ratio() {
        let (mut s, a, b) = sched_2_clocks();
        s.run_until(SimTime::from_us(1), |_| {}).unwrap();
        assert_eq!(s.cycles(a), 100);
        assert_eq!(s.cycles(b), 40);
        assert_eq!(s.time(), SimTime::from_us(1));
    }

    #[test]
    fn empty_scheduler_errors() {
        let mut s = Scheduler::new();
        assert!(matches!(s.advance(), Err(SimError::NoClocks)));
        assert!(matches!(s.peek(), Err(SimError::NoClocks)));
    }

    #[test]
    fn run_until_excludes_boundary_edge() {
        let (mut s, a, _) = sched_2_clocks();
        let mut edges = 0;
        s.run_until(SimTime::from_ns(10), |_| edges += 1).unwrap();
        // Only the two t=0 edges; the t=10ns edge of `a` is not delivered.
        assert_eq!(edges, 2);
        assert_eq!(s.cycles(a), 1);
    }

    #[test]
    fn peek_does_not_advance() {
        let (mut s, _, _) = sched_2_clocks();
        let p = s.peek().unwrap();
        let e = s.advance().unwrap();
        assert_eq!(p, e);
    }
}
