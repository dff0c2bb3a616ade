//! Order statistics over measured samples.

/// Samples of one quantity, in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (`q = 0.5` is the median). Panics on an empty sample set: every
    /// caller measures at least once before asking.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of no samples");
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        assert!(!self.0.is_empty(), "mean of no samples");
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::Samples;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!((s.quantile(0.9) - 3.7).abs() < 1e-12);
        assert_eq!(s.mean(), 2.5);
    }
}
