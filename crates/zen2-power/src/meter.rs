//! The external AC reference: a ZES LMG670 with L60-CH-A1 channels.
//!
//! "In our configuration, the power measurement has an accuracy of
//! ±(0.015 % + 0.0625 W). During the experiments, a separate system
//! collects the active power values at 20 Sa/s. The out-of-band data
//! collection avoids any perturbation." (Section IV)
//!
//! The meter integrates true active power over each 50 ms sample window
//! and adds instrument error within the accuracy band.

use rand::Rng;

/// One 50 ms active-power sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterSample {
    /// Sample timestamp (window end) in seconds since measurement start.
    pub t_s: f64,
    /// Measured active power in watts.
    pub watts: f64,
}

/// ZES LMG670 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMeter {
    /// Relative accuracy term (0.00015 = 0.015 %).
    pub rel_accuracy: f64,
    /// Absolute accuracy term in watts.
    pub abs_accuracy_w: f64,
    /// Sample rate in samples per second.
    pub samples_per_s: f64,
}

impl Default for PowerMeter {
    fn default() -> Self {
        Self::lmg670()
    }
}

impl PowerMeter {
    /// The paper's instrument configuration.
    pub fn lmg670() -> Self {
        Self { rel_accuracy: 0.00015, abs_accuracy_w: 0.0625, samples_per_s: 20.0 }
    }

    /// The sample period in seconds.
    pub fn period_s(&self) -> f64 {
        1.0 / self.samples_per_s
    }

    /// The specified accuracy bound at a power level.
    pub fn accuracy_bound_w(&self, watts: f64) -> f64 {
        self.rel_accuracy * watts.abs() + self.abs_accuracy_w
    }

    /// Produces one reading of a window whose true average power is
    /// `true_watts`. Instrument error is Gaussian with the accuracy bound
    /// as a 2-sigma envelope.
    pub fn read<R: Rng + ?Sized>(&self, rng: &mut R, true_watts: f64) -> f64 {
        let sigma = self.accuracy_bound_w(true_watts) / 2.0;
        // Box-Muller keeps the dependency surface at `rand` core.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        true_watts + sigma * z
    }

    /// Averages samples over the inner window of a measurement interval,
    /// implementing the paper's methodology: "we use average power values
    /// within the inner 8 s of a 10 s interval ... This approach avoids
    /// inaccuracies due to misaligned timestamps."
    pub fn inner_window_mean(samples: &[MeterSample], start_s: f64, end_s: f64) -> f64 {
        assert!(end_s > start_s, "window must have positive length");
        let len = end_s - start_s;
        let trim = len * 0.1;
        let (lo, hi) = (start_s + trim, end_s - trim);
        let inner: Vec<f64> =
            samples.iter().filter(|s| s.t_s >= lo && s.t_s <= hi).map(|s| s.watts).collect();
        assert!(!inner.is_empty(), "no samples in the inner window [{lo}, {hi}]");
        inner.iter().sum::<f64>() / inner.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn accuracy_bound_matches_spec() {
        let m = PowerMeter::lmg670();
        // At 500 W: 0.015 % = 75 mW plus 62.5 mW.
        assert!((m.accuracy_bound_w(500.0) - 0.1375).abs() < 1e-9);
        assert!((m.accuracy_bound_w(0.0) - 0.0625).abs() < 1e-12);
        assert!((m.period_s() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn readings_stay_within_a_few_bounds() {
        let m = PowerMeter::lmg670();
        let mut r = rng();
        let bound = m.accuracy_bound_w(300.0);
        for _ in 0..2000 {
            let v = m.read(&mut r, 300.0);
            assert!((v - 300.0).abs() < 3.0 * bound, "reading {v}");
        }
    }

    #[test]
    fn readings_are_unbiased() {
        let m = PowerMeter::lmg670();
        let mut r = rng();
        let mean: f64 = (0..4000).map(|_| m.read(&mut r, 250.0)).sum::<f64>() / 4000.0;
        assert!((mean - 250.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn inner_window_drops_the_edges() {
        // 10 s of samples; the first and last second carry garbage.
        let mut samples = Vec::new();
        for i in 0..200 {
            let t = i as f64 * 0.05;
            let w = if !(1.0..=9.0).contains(&t) { 1000.0 } else { 100.0 };
            samples.push(MeterSample { t_s: t, watts: w });
        }
        let mean = PowerMeter::inner_window_mean(&samples, 0.0, 10.0);
        assert!((mean - 100.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_window_rejected() {
        let _ = PowerMeter::inner_window_mean(&[], 5.0, 5.0);
    }
}
