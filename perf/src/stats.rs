//! Exact order statistics over raw samples.
//!
//! Percentiles are nearest-rank over the sorted samples, never read off a
//! bucketed histogram, and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie strictly above it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Take ownership of raw samples and sort them.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank `q`-th percentile (`0 < q < 100`): the smallest sample
    /// with at least `q`% of the samples at or below it. `None` when fewer
    /// than [`MIN_BEYOND`] samples lie above that rank.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q < 100.0, "percentile {q} outside (0, 100)");
        let n = self.sorted.len();
        // `q * n` first: integral products then divide exactly by 100.
        let rank = (q * n as f64 / 100.0).ceil() as usize;
        if rank == 0 || n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        // 1..=100 shuffled: the q-th percentile is exactly q.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        v.swap(3, 71);
        let s = Samples::new(v);
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(80.0), Some(80.0));
        assert_eq!(s.percentile(0.5), Some(1.0));
        assert_eq!(s.mean(), Some(50.5));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        // p90 leaves exactly 10 samples above it; p91 leaves 9.
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(91.0), None);
        assert_eq!(s.percentile(99.0), None);

        let small = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(small.percentile(50.0), None);
        assert_eq!(Samples::new(Vec::new()).percentile(50.0), None);
        assert_eq!(Samples::new(Vec::new()).mean(), None);
    }

    #[test]
    fn p99_is_reported_from_a_thousand_samples() {
        let s = Samples::new((0..1000).map(|i| (i * 7 % 1000) as f64).collect());
        assert_eq!(s.percentile(99.0), Some(989.0));
        assert_eq!(s.percentile(50.0), Some(499.0));
    }
}
