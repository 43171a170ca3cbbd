//! Statistical helpers implementing the paper's measurement methodology.

/// Sample mean.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample set");
    // zen2-lint: allow(float-order) — left-to-right pass in the caller's slice order, which is fixed
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (n−1 denominator).
pub fn std_dev(samples: &[f64]) -> f64 {
    assert!(samples.len() >= 2, "standard deviation needs at least two samples");
    let m = mean(samples);
    // zen2-lint: allow(float-order) — left-to-right pass in the caller's slice order, which is fixed
    let var = samples.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt()
}

/// A histogram with fixed-width bins, as in Fig. 3 (25 µs bins).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    /// Samples below the range.
    pub underflow: u64,
    /// Samples above the range.
    pub overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram range");
        Self {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
            return;
        }
        let bin = ((v - self.lo) / self.width) as usize;
        if bin >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[bin] += 1;
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Coefficient of variation of the in-range bin counts over a sub-range
    /// of bins — a uniformity check for the Fig. 3 plateau.
    pub fn plateau_cv(&self, from_bin: usize, to_bin: usize) -> f64 {
        let slice: Vec<f64> = self.counts[from_bin..to_bin].iter().map(|&c| c as f64).collect();
        std_dev(&slice) / mean(&slice)
    }
}

/// Quantile of a sample set (linear interpolation).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty() && (0.0..=1.0).contains(&q), "invalid quantile request");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&s), 2.5);
        assert!((std_dev(&s) - 1.2909944).abs() < 1e-6);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 100.0, 4);
        for v in [5.0, 30.0, 55.0, 80.0, 99.9] {
            h.add(v);
        }
        assert_eq!(h.counts(), &[1, 1, 1, 2]);
        h.add(-1.0);
        h.add(100.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn uniform_plateau_has_low_cv() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10_000 {
            h.add((i % 1000) as f64 / 100.0);
        }
        assert!(h.plateau_cv(0, 10) < 0.01);
    }

    #[test]
    fn quantiles() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 0.5), 30.0);
        assert_eq!(quantile(&s, 1.0), 50.0);
        assert_eq!(quantile(&s, 0.25), 20.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_mean_panics() {
        let _ = mean(&[]);
    }
}
