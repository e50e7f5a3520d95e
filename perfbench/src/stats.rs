//! Order statistics over host-time samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest whole percentile that leaves at least ten samples above
/// its nearest-rank value, with that value. A sample of ten or fewer
/// has no such percentile; the maximum is reported as percentile 100.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n <= 10 {
        return (100, s.last().copied().unwrap_or(0.0));
    }
    let p = (100 * (n - 10) / n) as u32;
    // Nearest rank ceil(p·n/100) ≤ n − 10, so ten samples lie beyond it.
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, s[rank - 1])
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// does not use).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 80);
        assert_eq!(v, 40.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[1.0, 5.0]), (100, 5.0));
    }
}
