//! Mergeable log-bucketed latency histograms.
//!
//! The paper's latency table (Section IV-B) is really a jitter argument:
//! PELS is interesting because its event-to-action latency is a *tight
//! distribution*, not just a good mean. This module turns raw per-event
//! cycle counts into a distribution that
//!
//! * is **exact for small values** — every value below
//!   [`Histogram::EXACT_LIMIT`] gets its own bucket, so the paper's
//!   2/7/16-cycle latencies are represented with zero error;
//! * has **bounded relative error above that** — 16 linear sub-buckets
//!   per power-of-two octave, so any reported quantile is within
//!   [`Histogram::RELATIVE_ERROR`] (1/16 ≈ 6.25 %) of the exact sample
//!   statistic;
//! * **merges deterministically** — bucket counts add elementwise, so
//!   `merge(a, b) == merge(b, a)` and fleet worker count cannot change
//!   an aggregated histogram (proven in `tests/obs_invariance.rs` and
//!   the unit tests below).
//!
//! ```
//! use pels_obs::Histogram;
//! let mut h = Histogram::new();
//! for v in [7, 7, 7, 8, 7, 9, 7] {
//!     h.record(v);
//! }
//! assert_eq!(h.p50(), Some(7));
//! assert_eq!(h.max(), Some(9));
//! assert_eq!(h.count(), 7);
//! ```

/// A mergeable histogram over `u64` samples with log-spaced buckets.
///
/// Values below [`Histogram::EXACT_LIMIT`] are counted exactly (one
/// bucket per value); larger values fall into one of 16 linear
/// sub-buckets per power-of-two octave, bounding the relative error of
/// any quantile by [`Histogram::RELATIVE_ERROR`]. `count`, `sum`, `min`
/// and `max` are always tracked exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts, indexed by [`bucket_index`]. Trailing
    /// buckets are allocated lazily; the vector length is a function of
    /// the largest recorded value only, so equal sample multisets always
    /// produce structurally equal histograms.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for a sample value (exact below
/// [`Histogram::EXACT_LIMIT`], 16 sub-buckets per octave above).
fn bucket_index(v: u64) -> usize {
    if v < Histogram::EXACT_LIMIT {
        return v as usize;
    }
    // e = floor(log2 v) >= 6; the top 4 bits after the leading one pick
    // the sub-bucket, so each bucket spans 2^(e-4) out of a 2^e floor:
    // relative error <= 1/16.
    let e = 63 - v.leading_zeros() as u64;
    let sub = (v >> (e - 4)) & 0xF;
    (Histogram::EXACT_LIMIT + (e - 6) * 16 + sub) as usize
}

/// Inclusive lower bound of a bucket — the value [`Histogram::quantile`]
/// reports for samples that landed in it.
fn bucket_lower_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < Histogram::EXACT_LIMIT {
        return index;
    }
    let e = (index - Histogram::EXACT_LIMIT) / 16 + 6;
    let sub = (index - Histogram::EXACT_LIMIT) % 16;
    (1u64 << e) + (sub << (e - 4))
}

impl Histogram {
    /// Values strictly below this limit are counted exactly.
    pub const EXACT_LIMIT: u64 = 64;

    /// Worst-case relative error of a quantile for values at or above
    /// [`Histogram::EXACT_LIMIT`] (buckets span 1/16 of their octave
    /// floor). Below the limit quantiles are exact.
    pub const RELATIVE_ERROR: f64 = 1.0 / 16.0;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(v);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
    }

    /// Adds every sample of `other` into `self`. Bucket counts add
    /// elementwise, so merging is commutative and associative: any
    /// grouping of per-job histograms produces the same aggregate.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact, saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (exact), or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact), or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the lower bound of the
    /// bucket holding the rank-`ceil(q * count)` sample — exact for
    /// values below [`Histogram::EXACT_LIMIT`], within
    /// [`Histogram::RELATIVE_ERROR`] otherwise. Returns `None` if the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp into the exact envelope so q=1.0 reports the
                // true max and tiny samples never report below min.
                return Some(bucket_lower_bound(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`Histogram::quantile`] for error bounds).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Iterates the non-empty buckets as `(lower_bound, count)` pairs in
    /// ascending value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
    }

    /// Renders a terminal-width ASCII histogram: one row per non-empty
    /// bucket with a `#` bar scaled to the modal bucket, plus a summary
    /// line with count / p50 / p99 / max.
    pub fn render(&self, unit: &str) -> String {
        if self.count == 0 {
            return String::from("(empty histogram)\n");
        }
        const BAR: usize = 40;
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (lo, c) in self.nonzero_buckets() {
            let width = ((c as f64 / peak as f64) * BAR as f64).ceil() as usize;
            out.push_str(&format!(
                "  {lo:>8} {unit} | {:<BAR$} {c}\n",
                "#".repeat(width.max(1))
            ));
        }
        out.push_str(&format!(
            "  n={} p50={} p99={} max={} {unit}\n",
            self.count,
            self.p50().unwrap_or(0),
            self.p99().unwrap_or(0),
            self.max().unwrap_or(0),
        ));
        out
    }
}

/// Renders a series as a one-line Unicode sparkline (`▁▂▃▄▅▆▇█`),
/// scaling linearly from 0 to the series maximum. Empty input renders
/// an empty string; an all-zero series renders all-minimum ticks.
///
/// ```
/// use pels_obs::hist::sparkline;
/// assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if peak <= 0.0 || v <= 0.0 {
                TICKS[0]
            } else {
                let level = (v / peak * (TICKS.len() - 1) as f64).round() as usize;
                TICKS[level.min(TICKS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_sim::Rng;

    /// Exact quantile of a sorted sample at rank `ceil(q * n)`.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        let sample = [2u64, 7, 7, 16, 7, 2, 16, 7, 63, 0];
        for &v in &sample {
            h.record(v);
        }
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(exact_quantile(&sorted, q)), "q={q}");
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        assert_eq!(h.sum(), sample.iter().sum::<u64>());
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Bucket indices are monotone in the value over a dense range...
        let mut prev = 0usize;
        for v in 0..1u64 << 16 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "monotone at v={v}");
            prev = idx;
        }
        // ...and every bucket's lower bound maps back to its own bucket,
        // never exceeding the values it covers, out to u64::MAX.
        for v in (0..1u64 << 16).chain([1 << 20, 1 << 33, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            let lo = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lo), idx, "v={v} lo={lo}");
            assert!(lo <= v);
        }
    }

    #[test]
    fn quantiles_within_relative_error_randomized() {
        let mut rng = Rng::seed_from_u64(0x5e1f_ca57);
        for trial in 0..50 {
            let n = 1 + rng.next_below(2000) as usize;
            let mut sample = Vec::with_capacity(n);
            let mut h = Histogram::new();
            for _ in 0..n {
                // Mix of tiny exact values and large log-bucketed ones.
                let v = if rng.next_below(2) == 0 {
                    rng.next_below(64)
                } else {
                    let octave = rng.next_below(30);
                    rng.next_below(1 << (6 + octave))
                };
                sample.push(v);
                h.record(v);
            }
            sample.sort_unstable();
            for q in [0.25, 0.50, 0.90, 0.99, 1.0] {
                let exact = exact_quantile(&sample, q);
                let got = h.quantile(q).unwrap() as f64;
                let bound = Histogram::RELATIVE_ERROR * exact as f64;
                assert!(
                    (got - exact as f64).abs() <= bound.max(0.0) + f64::EPSILON,
                    "trial {trial}: q={q} exact={exact} got={got} n={n}"
                );
            }
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.min(), sample.first().copied());
            assert_eq!(h.max(), sample.last().copied());
        }
    }

    #[test]
    fn merge_is_order_invariant_randomized() {
        let mut rng = Rng::seed_from_u64(0xfee1_600d);
        for _ in 0..50 {
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for _ in 0..rng.next_below(500) {
                a.record(rng.next_below(1 << 40));
            }
            for _ in 0..rng.next_below(500) {
                b.record(rng.next_below(1 << 12));
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative");
            assert_eq!(ab.count(), a.count() + b.count());
            assert_eq!(ab.sum(), a.sum() + b.sum());
        }
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut rng = Rng::seed_from_u64(7);
        let values: Vec<u64> = (0..300).map(|_| rng.next_below(1 << 24)).collect();
        let mut whole = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            parts[i % 3].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn empty_histogram_queries() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.render("cy"), "(empty histogram)\n");
        // Merging an empty histogram is a no-op in both directions.
        let mut a = Histogram::new();
        a.record(5);
        let before = a.clone();
        a.merge(&h);
        assert_eq!(a, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        // A lifetime sweep cell can hold exactly one latency sample;
        // every quantile must collapse to it, exact and non-None.
        for v in [0, 1, 63, 64, 12_345, u64::MAX >> 8] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.min(), Some(v));
            assert_eq!(h.max(), Some(v));
            for q in [0.0, 0.001, 0.5, 0.9, 0.99, 1.0] {
                let got = h.quantile(q).expect("single sample has every quantile");
                if v < 64 {
                    assert_eq!(got, v, "exact bucket, q={q}");
                } else {
                    // Log-bucketed: within the bucket's relative error.
                    let rel = (got as f64 - v as f64).abs() / v as f64;
                    assert!(rel <= 0.04, "v={v} q={q} got={got}");
                }
            }
            assert_eq!(h.p50(), h.quantile(0.5));
            assert_eq!(h.p99(), h.quantile(0.99));
        }
    }

    #[test]
    fn merge_empty_into_single_sample_preserves_quantiles() {
        let mut h = Histogram::new();
        h.record(42);
        h.merge(&Histogram::new());
        assert_eq!(h.quantile(0.5), Some(42));
        assert_eq!(h.mean(), Some(42.0));
        // And the other direction: empty absorbing one sample adopts it.
        let mut e = Histogram::new();
        e.merge(&h);
        assert_eq!(e.quantile(1.0), Some(42));
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn render_shows_every_nonzero_bucket() {
        let mut h = Histogram::new();
        for v in [7, 7, 7, 2, 16] {
            h.record(v);
        }
        let r = h.render("cycles");
        assert!(r.contains("7 cycles"));
        assert!(r.contains("2 cycles"));
        assert!(r.contains("16 cycles"));
        assert!(r.contains("n=5 p50=7 p99=16 max=16"));
    }

    #[test]
    fn sparkline_scales_to_peak() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.ends_with('█'));
    }
}
