//! Windowed activity timelines.
//!
//! A whole-run [`ActivitySet`](crate::ActivitySet) collapses time: it can
//! say *how much* switching happened but not *when*. A timeline slices the
//! run into consecutive cycle windows, each carrying the activity delta
//! that accrued inside it, so the power model can be evaluated per window
//! and the paper's Figure 5 bars become curves.
//!
//! Windows record their **actual** `[start_cycle, end_cycle)` span rather
//! than assuming a fixed width: the SoC's quiescence fast path skips whole
//! spans in O(1), and a sampler that forced a window boundary inside a
//! skip would perturb the very scheduler statistics it is observing. A
//! long skip therefore shows up as one long, low-activity window — which
//! is exactly what a power timeline should say about a sleeping system.
//!
//! The timeline is one arena: a window keeps only its non-zero counters,
//! as a packed `(component, kind)` key and a count (12 bytes each), in
//! vectors shared by every window. A duty-cycled run touches a few dozen
//! counters per window, so storage follows the activity, not the width of
//! a dense [`ActivitySet`], and pushing a window allocates only when the
//! arena grows.

use crate::activity::{ActivityKind, ActivitySet};
use crate::intern::ComponentId;

/// Low key bits holding the [`ActivityKind`] index; the component index
/// sits above them.
const KIND_BITS: u32 = 4;
const _: () = assert!(ActivityKind::COUNT <= 1 << KIND_BITS);

/// One window's span and where its counters end in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start_cycle: u64,
    end_cycle: u64,
    /// Arena offset one past the window's last counter.
    end: usize,
}

/// A run's worth of consecutive activity windows, stored as one arena.
///
/// ```
/// use pels_sim::{ActivityKind, ActivitySet, ActivityTimeline, ComponentId};
/// let mut window = ActivitySet::new();
/// window.record(ComponentId::intern("spi"), ActivityKind::EventPulse, 2);
/// let mut t = ActivityTimeline::new(100);
/// t.push(0, 100, &window);
/// t.push(100, 450, &ActivitySet::new()); // a skip stretched this one
/// let spans: Vec<_> = t.windows().map(|w| (w.start_cycle, w.cycles())).collect();
/// assert_eq!(spans, [(0, 100), (100, 350)]);
/// assert_eq!(t.kind_series(ActivityKind::EventPulse), [2, 0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTimeline {
    /// Nominal window width the sampler was configured with; actual
    /// windows may be longer when a quiescence skip crossed a boundary.
    pub window_cycles: u64,
    /// Windows in cycle order; spans are contiguous and non-overlapping.
    spans: Vec<Span>,
    /// `component index << KIND_BITS | kind index` per stored counter.
    keys: Vec<u32>,
    /// Non-zero count per stored counter, parallel to `keys`.
    counts: Vec<u64>,
}

impl ActivityTimeline {
    /// Creates an empty timeline with the given nominal window width.
    pub fn new(window_cycles: u64) -> Self {
        ActivityTimeline {
            window_cycles,
            ..Self::default()
        }
    }

    /// Appends the window `[start_cycle, end_cycle)` with the activity
    /// recorded inside it; only non-zero counters are stored.
    pub fn push(&mut self, start_cycle: u64, end_cycle: u64, activity: &ActivitySet) {
        for (id, row) in activity.rows() {
            let component = u32::try_from(id.index() << KIND_BITS)
                .expect("component index fits a timeline key");
            for (kind, &n) in row.iter().enumerate().filter(|&(_, &n)| n != 0) {
                self.keys.push(component | kind as u32);
                self.counts.push(n);
            }
        }
        self.spans.push(Span {
            start_cycle,
            end_cycle,
            end: self.keys.len(),
        });
    }

    /// The windows in cycle order.
    pub fn windows(&self) -> impl ExactSizeIterator<Item = TimelineWindow<'_>> + '_ {
        let mut begin = 0;
        self.spans.iter().map(move |s| {
            let window = TimelineWindow {
                start_cycle: s.start_cycle,
                end_cycle: s.end_cycle,
                keys: &self.keys[begin..s.end],
                counts: &self.counts[begin..s.end],
            };
            begin = s.end;
            window
        })
    }

    /// Number of windows captured.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no windows were captured.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per-window totals of one activity kind summed across all
    /// components — a ready-to-plot series.
    pub fn kind_series(&self, kind: ActivityKind) -> Vec<u64> {
        self.windows()
            .map(|w| {
                w.counters()
                    .filter(|&(_, k, _)| k == kind)
                    .map(|(_, _, n)| n)
                    .sum()
            })
            .collect()
    }

    /// Sum of every window's activity — the whole-timeline image.
    pub fn total_activity(&self) -> ActivitySet {
        let mut total = ActivitySet::new();
        for (&key, &n) in self.keys.iter().zip(&self.counts) {
            let (id, kind) = unpack(key);
            total.record(id, kind, n);
        }
        total
    }

    /// Releases the arena's spare capacity — for a finished timeline a
    /// report keeps.
    pub fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.keys.shrink_to_fit();
        self.counts.shrink_to_fit();
    }
}

fn unpack(key: u32) -> (ComponentId, ActivityKind) {
    (
        ComponentId::from_index((key >> KIND_BITS) as usize),
        ActivityKind::ALL[(key & ((1 << KIND_BITS) - 1)) as usize],
    )
}

/// One window of an [`ActivityTimeline`]: the half-open cycle span
/// `[start_cycle, end_cycle)` and a view of the counters recorded inside
/// it.
#[derive(Debug, Clone, Copy)]
pub struct TimelineWindow<'a> {
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// First cycle after the window (exclusive).
    pub end_cycle: u64,
    keys: &'a [u32],
    counts: &'a [u64],
}

impl TimelineWindow<'_> {
    /// Window width in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Replaces the contents of `set` with this window's activity,
    /// reusing its storage.
    pub fn load_into(&self, set: &mut ActivitySet) {
        set.clear();
        for (id, kind, n) in self.counters() {
            set.record(id, kind, n);
        }
    }

    /// The window's non-zero counters, components in id order.
    fn counters(&self) -> impl Iterator<Item = (ComponentId, ActivityKind, u64)> + '_ {
        self.keys.iter().zip(self.counts).map(|(&key, &n)| {
            let (id, kind) = unpack(key);
            (id, kind, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulses(n: u64) -> ActivitySet {
        let mut activity = ActivitySet::new();
        activity.record(
            ComponentId::intern("timeline-test-periph"),
            ActivityKind::EventPulse,
            n,
        );
        activity
    }

    #[test]
    fn series_and_totals() {
        let mut t = ActivityTimeline::new(100);
        t.push(0, 100, &pulses(3));
        t.push(100, 450, &pulses(1)); // a skip stretched this one
        t.push(450, 550, &pulses(0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.kind_series(ActivityKind::EventPulse), vec![3, 1, 0]);
        assert_eq!(t.windows().nth(1).unwrap().cycles(), 350);
        assert_eq!(t.total_activity().kind_total(ActivityKind::EventPulse), 4);
    }

    #[test]
    fn windows_load_back_exactly() {
        let bus = ComponentId::intern("timeline-test-bus");
        let mut busy = pulses(5);
        busy.record(bus, ActivityKind::BusTransfer, 7);
        busy.record(bus, ActivityKind::IrqOverhead, 1);
        let sets = [busy, ActivitySet::new(), pulses(2)];
        let mut t = ActivityTimeline::new(10);
        for (i, set) in sets.iter().enumerate() {
            t.push(10 * i as u64, 10 * i as u64 + 10, set);
        }
        // The scratch set starts wider than every window and is reused.
        let mut scratch = pulses(99);
        scratch.record_named("timeline-test-stale", ActivityKind::RegRead, 1);
        for (w, set) in t.windows().zip(&sets) {
            w.load_into(&mut scratch);
            assert_eq!(&scratch, set);
        }
        let mut shrunk = t.clone();
        shrunk.shrink_to_fit();
        assert_eq!(shrunk, t);
    }

    #[test]
    fn empty_timeline() {
        let t = ActivityTimeline::new(64);
        assert!(t.is_empty());
        assert_eq!(t.windows().len(), 0);
        assert_eq!(t.kind_series(ActivityKind::ClockCycle), Vec::<u64>::new());
        assert!(t.total_activity().is_empty());
    }
}
