//! Voltage/frequency operating points.

/// Piecewise-linear V/f curve.
///
/// Dynamic power scales with `f·V²`; the curve turns a requested core
/// frequency into the supply voltage the SMU asks of the external
/// regulator. Points are `(GHz, V)` sorted by frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct VfCurve {
    points: Vec<(f64, f64)>,
}

impl Default for VfCurve {
    fn default() -> Self {
        Self::epyc_7502()
    }
}

impl VfCurve {
    /// Builds a curve from `(GHz, V)` points.
    ///
    /// # Panics
    /// Panics if fewer than two points are given, points are not strictly
    /// increasing in frequency, or voltages are non-increasing (a V/f
    /// curve is monotone).
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "a V/f curve needs at least two points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "frequencies must be strictly increasing");
            assert!(w[0].1 <= w[1].1, "voltage must be non-decreasing with frequency");
        }
        for &(f, v) in &points {
            assert!(f > 0.0 && v > 0.0, "points must be positive");
        }
        Self { points }
    }

    /// The paper system's three P-state operating points. Voltages are the
    /// calibration quantity behind the measured active-power ratios at
    /// 1.5 / 2.2 / 2.5 GHz.
    pub fn epyc_7502() -> Self {
        Self::new(vec![(1.5, 0.85), (2.2, 0.95), (2.5, 1.00)])
    }

    /// A 64-core EPYC 7742's curve: top-bin dies run noticeably lower
    /// voltage at matched frequency (how AMD fits twice the cores into a
    /// 225 W envelope). Used by the future-work many-core prediction.
    pub fn epyc_7742() -> Self {
        Self::new(vec![(1.5, 0.78), (1.8, 0.83), (2.25, 0.90)])
    }

    /// Supply voltage at `freq_ghz`, interpolating between points and
    /// clamping at the curve ends (the regulator has a floor and a fused
    /// maximum).
    pub fn voltage(&self, freq_ghz: f64) -> f64 {
        assert!(freq_ghz > 0.0, "frequency must be positive");
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty by construction");
        if freq_ghz <= first.0 {
            return first.1;
        }
        if freq_ghz >= last.0 {
            return last.1;
        }
        for w in self.points.windows(2) {
            let (f0, v0) = w[0];
            let (f1, v1) = w[1];
            if freq_ghz <= f1 {
                let t = (freq_ghz - f0) / (f1 - f0);
                return v0 + t * (v1 - v0);
            }
        }
        unreachable!("freq within range is covered by a segment")
    }

    /// The `f·V²` dynamic-power scale factor at `freq_ghz` (GHz·V²).
    pub fn fv2(&self, freq_ghz: f64) -> f64 {
        let v = self.voltage(freq_ghz);
        freq_ghz * v * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_points_are_exact() {
        let c = VfCurve::epyc_7502();
        assert!((c.voltage(1.5) - 0.85).abs() < 1e-12);
        assert!((c.voltage(2.2) - 0.95).abs() < 1e-12);
        assert!((c.voltage(2.5) - 1.00).abs() < 1e-12);
    }

    #[test]
    fn interpolation_is_linear_between_anchors() {
        let c = VfCurve::epyc_7502();
        // Midpoint of the 1.5-2.2 segment.
        assert!((c.voltage(1.85) - 0.90).abs() < 1e-12);
        // 2.1 GHz: used by the Fig. 6 equilibrium arithmetic.
        assert!((c.voltage(2.1) - 0.935_714).abs() < 1e-5);
    }

    #[test]
    fn clamping_outside_range() {
        let c = VfCurve::epyc_7502();
        assert_eq!(c.voltage(0.4), 0.85);
        assert_eq!(c.voltage(3.5), 1.00);
    }

    #[test]
    fn fv2_is_monotone() {
        let c = VfCurve::epyc_7502();
        let mut prev = 0.0;
        for i in 1..=35 {
            let f = i as f64 * 0.1;
            let s = c.fv2(f);
            assert!(s > prev);
            prev = s;
        }
    }

    #[test]
    fn fv2_values_used_in_calibration() {
        let c = VfCurve::epyc_7502();
        assert!((c.fv2(2.5) - 2.5).abs() < 1e-12);
        assert!((c.fv2(2.1) - 1.8387).abs() < 1e-3);
        assert!((c.fv2(1.5) - 1.0838).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_rejected() {
        let _ = VfCurve::new(vec![(2.0, 0.9), (1.5, 0.85)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotone_voltage_rejected() {
        let _ = VfCurve::new(vec![(1.5, 0.95), (2.0, 0.85)]);
    }
}
