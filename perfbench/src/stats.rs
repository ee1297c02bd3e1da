//! Percentiles that say how far the sample supports them.
//!
//! A "p99" of 40 samples is the maximum, not a p99. [`tail`] therefore
//! reports the median together with the *highest* percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it, and the sample count,
//! so every tail figure names the percentile it really is.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The median and the best-supported tail percentile of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Number of samples.
    pub count: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// Which percentile `value` is (e.g. `99.0`).
    pub pct: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `pct`% of the sample at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of `pct` in a sample of `n` (the tolerance
/// keeps `99.9% of 10_000` at 9_990 despite rounding in the product).
fn rank(n: usize, pct: f64) -> usize {
    let r = ((pct / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// Median plus the highest ladder percentile with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median lacks
/// that support (fewer than about 20 samples).
pub fn tail(samples: &mut [f64]) -> Option<Tail> {
    tail_at_most(samples, 100.0)
}

/// Like [`tail`], but never above the `cap` percentile: a metric named
/// `p99` reports p99 when the sample supports it and says which lower
/// percentile it fell back to when it does not.
pub fn tail_at_most(samples: &mut [f64], cap: f64) -> Option<Tail> {
    let n = samples.len();
    let pct = LADDER
        .into_iter()
        .find(|&p| p <= cap && n > 0 && beyond(n, p) >= MIN_BEYOND)?;
    samples.sort_by(f64::total_cmp);
    Some(Tail {
        count: n,
        p50: percentile(samples, 50.0),
        pct,
        value: percentile(samples, pct),
    })
}

/// The median of a sample (`None` when empty).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(percentile(samples, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn forty_samples_do_not_claim_a_p99() {
        // 40 ingests used to report their maximum as "p99".
        let mut s = ramp(40);
        let t = tail(&mut s).expect("40 samples support a median");
        assert_eq!(t.count, 40);
        assert_eq!(t.pct, 75.0);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.p50, 20.0);
    }

    #[test]
    fn a_thousand_samples_support_p99() {
        let mut s = ramp(1000);
        let t = tail(&mut s).expect("supported");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        // exactly MIN_BEYOND samples lie beyond it
        assert_eq!(s.iter().filter(|&&v| v > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn ten_thousand_samples_support_p99_9() {
        let mut s = ramp(10_000);
        assert_eq!(tail(&mut s).expect("supported").pct, 99.9);
        let capped = tail_at_most(&mut s, 99.0).expect("supported");
        assert_eq!((capped.pct, capped.value), (99.0, 9_900.0));
    }

    #[test]
    fn tiny_samples_report_nothing() {
        assert_eq!(tail(&mut ramp(19)), None);
        assert_eq!(tail(&mut []), None);
        assert!(tail(&mut ramp(20)).is_some());
    }

    #[test]
    fn order_does_not_matter() {
        let mut a: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let mut b: Vec<f64> = (0..500).map(|i| i as f64).collect();
        assert_eq!(tail(&mut a), tail(&mut b));
        assert_eq!(median(&mut a), Some(249.0));
        assert_eq!(median(&mut []), None);
    }
}
