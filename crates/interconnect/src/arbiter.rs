//! Bus arbiters.
//!
//! PULPissimo's interconnect uses round-robin arbitration to guarantee fair
//! bandwidth distribution among masters (paper Section IV-A); a
//! fixed-priority alternative is provided for the arbitration ablation,
//! which shows the worst-case link-latency divergence the paper warns about
//! in Section III-1.

use std::fmt;

/// Chooses one requester among a set each cycle.
///
/// Requests arrive as a bit-per-master mask (bit *i* set when master *i*
/// requests), so a fabric arbitrates up to 64 masters without building a
/// request vector per cycle.
///
/// `Send` is a supertrait so fabrics (which box their arbiters) can move
/// across worker threads in batch sweeps.
pub trait Arbiter: fmt::Debug + Send {
    /// Grants one of the requesting indices (bit *i* of `requests` set),
    /// or `None` if nobody requests.
    fn grant(&mut self, requests: u64) -> Option<usize>;

    /// Stable policy name for reports.
    fn policy(&self) -> &'static str;

    /// Resets internal state (e.g. the round-robin pointer).
    fn reset(&mut self);
}

/// Selects an arbiter implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterKind {
    /// Fair rotating-priority arbitration (the paper's configuration).
    #[default]
    RoundRobin,
    /// Lowest index always wins — starves high indices under contention.
    FixedPriority,
}

impl ArbiterKind {
    /// Instantiates the arbiter.
    pub fn build(self) -> Box<dyn Arbiter> {
        match self {
            ArbiterKind::RoundRobin => Box::new(RoundRobin::new()),
            ArbiterKind::FixedPriority => Box::new(FixedPriority),
        }
    }
}

impl fmt::Display for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbiterKind::RoundRobin => f.write_str("round-robin"),
            ArbiterKind::FixedPriority => f.write_str("fixed-priority"),
        }
    }
}

/// Rotating-priority (round-robin) arbiter.
///
/// After granting index *i*, the highest priority for the next arbitration
/// is *i + 1*, so every requester is served within `N` grants under full
/// contention. The mask is rotated rather than scanned: the lowest request
/// at or above the pointer wins, else the lowest request overall.
///
/// ```
/// use pels_interconnect::{Arbiter, RoundRobin};
/// let mut rr = RoundRobin::new();
/// let all = 0b111;
/// assert_eq!(rr.grant(all), Some(0));
/// assert_eq!(rr.grant(all), Some(1));
/// assert_eq!(rr.grant(all), Some(2));
/// assert_eq!(rr.grant(all), Some(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    /// Highest-priority index; may equal the master count after the top
    /// master wins, which wraps to the lowest request like index 0 would.
    next: u32,
}

impl RoundRobin {
    /// Creates an arbiter whose initial highest priority is index 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Arbiter for RoundRobin {
    fn grant(&mut self, requests: u64) -> Option<usize> {
        if requests == 0 {
            return None;
        }
        let upper = requests & u64::MAX.checked_shl(self.next).unwrap_or(0);
        let i = if upper != 0 { upper } else { requests }.trailing_zeros();
        self.next = i + 1;
        Some(i as usize)
    }

    fn policy(&self) -> &'static str {
        "round-robin"
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

/// Fixed-priority arbiter: lowest requesting index always wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedPriority;

impl Arbiter for FixedPriority {
    fn grant(&mut self, requests: u64) -> Option<usize> {
        (requests != 0).then(|| requests.trailing_zeros() as usize)
    }

    fn policy(&self) -> &'static str {
        "fixed-priority"
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_sim::Rng;

    /// The slice-scanning round-robin the mask arbiter replaced, kept as
    /// the oracle for `mask_arbiters_match_slice_oracles`.
    #[derive(Default)]
    struct SliceRoundRobin {
        next: usize,
    }

    impl SliceRoundRobin {
        fn grant(&mut self, requests: &[bool]) -> Option<usize> {
            let n = requests.len();
            if n == 0 {
                return None;
            }
            for k in 0..n {
                let i = (self.next + k) % n;
                if requests[i] {
                    self.next = (i + 1) % n;
                    return Some(i);
                }
            }
            None
        }
    }

    /// The slice-scanning fixed-priority oracle.
    fn slice_fixed_priority(requests: &[bool]) -> Option<usize> {
        requests.iter().position(|&r| r)
    }

    #[test]
    fn mask_arbiters_match_slice_oracles() {
        let mut rng = Rng::seed_from_u64(0xA2B1_7E25);
        let mut patterns = 0;
        while patterns < 10_000 {
            let n = 1 + rng.index(9);
            let (mut rr, mut oracle, mut fp) =
                (RoundRobin::new(), SliceRoundRobin::default(), FixedPriority);
            for _ in 0..rng.range_u64(1, 64) {
                if rng.index(16) == 0 {
                    rr.reset();
                    oracle.next = 0;
                }
                let mask = rng.next_u64() & ((1 << n) - 1);
                let requests: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                assert_eq!(
                    rr.grant(mask),
                    oracle.grant(&requests),
                    "n={n} mask={mask:#b}"
                );
                assert_eq!(
                    fp.grant(mask),
                    slice_fixed_priority(&requests),
                    "n={n} mask={mask:#b}"
                );
                patterns += 1;
            }
        }
    }

    #[test]
    fn round_robin_is_fair_under_full_contention() {
        let mut rr = RoundRobin::new();
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            grants[rr.grant(0b1111).unwrap()] += 1;
        }
        assert_eq!(grants, [100; 4]);
    }

    #[test]
    fn round_robin_skips_idle_masters() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.grant(0b010), Some(1));
        assert_eq!(rr.grant(0b101), Some(2));
        assert_eq!(rr.grant(0b101), Some(0));
    }

    #[test]
    fn round_robin_none_when_idle() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.grant(0), None);
    }

    #[test]
    fn round_robin_wraps_past_the_top_master() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.grant(1 << 63), Some(63));
        assert_eq!(rr.grant(1 << 63 | 1), Some(0));
    }

    #[test]
    fn round_robin_reset_restores_priority() {
        let mut rr = RoundRobin::new();
        let _ = rr.grant(0b11);
        rr.reset();
        assert_eq!(rr.grant(0b11), Some(0));
    }

    #[test]
    fn fixed_priority_starves_high_indices() {
        let mut fp = FixedPriority;
        for _ in 0..10 {
            assert_eq!(fp.grant(0b111), Some(0));
        }
        assert_eq!(fp.grant(0b100), Some(2));
        assert_eq!(fp.grant(0), None);
    }

    #[test]
    fn kind_builds_matching_policy() {
        assert_eq!(ArbiterKind::RoundRobin.build().policy(), "round-robin");
        assert_eq!(
            ArbiterKind::FixedPriority.build().policy(),
            "fixed-priority"
        );
        assert_eq!(ArbiterKind::default(), ArbiterKind::RoundRobin);
    }
}
