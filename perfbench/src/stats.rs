//! Order statistics over measured samples.
//!
//! Every percentile here is a *nearest-rank* percentile: the smallest
//! sample with at least `q · n` samples at or below it. It always returns a
//! sample that was actually measured, so a report never shows a value no
//! request had.

/// A sorted copy of `samples`, ready for repeated percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration or ratio).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// The samples, in ascending order.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`), or `None` without
    /// samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.rank(q).map(|r| self.sorted[r - 1])
    }

    /// The 1-based nearest rank of quantile `q`.
    fn rank(&self, q: f64) -> Option<usize> {
        let n = self.sorted.len();
        (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
    }

    /// The median (nearest-rank p50).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Samples strictly beyond the nearest-rank `q`-quantile: the margin a
    /// reported percentile rests on.
    pub fn beyond(&self, q: f64) -> usize {
        self.rank(q).map_or(0, |r| self.sorted.len() - r)
    }

    /// Arithmetic mean, or `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.len() as f64)
    }

    /// The largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// A quantile level as a percentile label: `0.99` → `"p99"`, `0.875` →
/// `"p87.5"`.
pub fn level_label(q: f64) -> String {
    let pct = (q * 1000.0).round() / 10.0;
    if pct.fract() == 0.0 {
        format!("p{pct:.0}")
    } else {
        format!("p{pct:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        Samples::new(v.to_vec())
    }

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let s = samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.2), Some(1.0));
        assert_eq!(s.quantile(0.21), Some(2.0));
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
    }

    #[test]
    fn median_of_even_count_is_the_lower_middle() {
        assert_eq!(samples(&[4.0, 1.0, 3.0, 2.0]).median(), Some(2.0));
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.quantile(0.9), Some(900.0));
        assert_eq!(s.beyond(0.9), 100);
    }

    #[test]
    fn short_runs_leave_few_samples_beyond_a_high_percentile() {
        let s = Samples::new((1..=80).map(f64::from).collect());
        assert_eq!(s.quantile(0.99), Some(80.0));
        assert_eq!(s.beyond(0.99), 0);
        assert_eq!(s.beyond(0.9), 8);
        assert_eq!(samples(&[]).beyond(0.5), 0);
    }

    #[test]
    fn empty_samples_have_no_statistics() {
        let s = samples(&[]);
        assert_eq!(s.median(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn labels_read_as_percentiles() {
        assert_eq!(level_label(0.99), "p99");
        assert_eq!(level_label(0.5), "p50");
        assert_eq!(level_label(0.875), "p87.5");
    }
}
