//! Sample arithmetic: percentiles with their sample counts.

/// A set of timing samples, sorted once, queried by percentile.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a caller bug and panic).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
        Samples { sorted: values }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-th percentile (0..=100) by linear interpolation between the
    /// closest ranks (rank `p/100 * (n-1)`), so the 50th percentile of an
    /// even-sized set is the mean of its two middle values. Zero when empty.
    pub fn pct(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// How many samples lie strictly above the `p`-th percentile — a tail
    /// percentile is only reported where at least ten do.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.pct(p);
        self.sorted.len() - self.sorted.partition_point(|&v| v <= cut)
    }
}

/// Median of a short list (set-up repetitions, interleaved trials).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_closest_ranks() {
        let s = Samples::new((1..=10).map(f64::from).collect());
        assert_eq!(s.count(), 10);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(s.pct(100.0), 10.0);
        assert!((s.median() - 5.5).abs() < 1e-12);
        // rank 0.9 * 9 = 8.1 → 9 + 0.1 * (10 - 9)
        assert!((s.pct(90.0) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn input_order_does_not_matter() {
        let a = Samples::new(vec![3.0, 1.0, 2.0]);
        let b = Samples::new(vec![2.0, 3.0, 1.0]);
        assert_eq!(a.median(), 2.0);
        assert_eq!(a.median(), b.median());
    }

    #[test]
    fn empty_and_single_sample_sets() {
        let empty = Samples::default();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.pct(99.0), 0.0);
        assert_eq!(empty.beyond(50.0), 0);
        let one = Samples::new(vec![7.0]);
        assert_eq!(one.pct(1.0), 7.0);
        assert_eq!(one.pct(99.0), 7.0);
    }

    #[test]
    fn beyond_counts_the_tail_above_a_percentile() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        // p99 = 990.01: samples 991..=1000 lie above it.
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.beyond(90.0), 100);
        // Ties at the cut are not beyond it.
        let ties = Samples::new(vec![1.0, 2.0, 2.0, 2.0, 3.0]);
        assert_eq!(ties.beyond(50.0), 1);
    }

    #[test]
    fn median_of_short_lists() {
        assert_eq!(median(&[0.3, 0.1, 0.2]), 0.2);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
