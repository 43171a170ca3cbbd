//! Package thermal model and leakage feedback.
//!
//! The paper pre-heats the system ("we execute FIRESTARTER for 15 min in
//! order to create a stable temperature") because leakage power rises with
//! die temperature. The same mechanism is the *only* path by which operand
//! data reaches AMD's RAPL model: higher true power → warmer die → more
//! leakage reported through the thermal-diode term — "the results indicate
//! that this is due to indirect effects, e.g., an increased temperature
//! based on the number of set bits" (Section VII-B).

/// First-order (RC) package thermal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Thermal resistance junction-to-ambient, °C per watt of package
    /// power.
    pub r_th_c_per_w: f64,
    /// Thermal time constant in seconds.
    pub tau_s: f64,
    /// Ambient (inlet) temperature in °C.
    pub ambient_c: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::two_socket_air()
    }
}

impl ThermalModel {
    /// Air-cooled 2U server calibration: 180 W package settles at ~70 °C.
    pub fn two_socket_air() -> Self {
        Self { r_th_c_per_w: 0.25, tau_s: 60.0, ambient_c: 25.0 }
    }

    /// Steady-state die temperature at a package power.
    #[inline]
    pub fn steady_state_c(&self, package_w: f64) -> f64 {
        assert!(package_w >= 0.0);
        self.ambient_c + self.r_th_c_per_w * package_w
    }

    /// The share of the way to the steady state that the die temperature
    /// covers in `dt_s` seconds: `1 − e^(−dt/τ)`. It depends only on the
    /// segment length, so a run of equal segments computes it once.
    #[inline]
    pub fn alpha(&self, dt_s: f64) -> f64 {
        assert!(dt_s >= 0.0, "time cannot run backwards");
        1.0 - (-dt_s / self.tau_s).exp()
    }

    /// Advances the die temperature toward the steady state for
    /// `package_w` by the share `alpha` ([`alpha`](Self::alpha) of the
    /// segment length).
    #[inline]
    pub fn step_by(&self, current_c: f64, package_w: f64, alpha: f64) -> f64 {
        let target = self.steady_state_c(package_w);
        current_c + (target - current_c) * alpha
    }

    /// The die temperature at which [`step_by`](Self::step_by) stands
    /// still when the package draws `base_w` times `leakage`'s multiplier
    /// at that temperature: the `d` with `d = ambient + R·base·m(d)`. With
    /// `m(d) = 1 + k·(d − ref)`, that is
    /// `(ambient + R·base·(1 − k·ref)) / (1 − R·base·k)`. A step moves the
    /// die by `(1 − R·base·k)·α` of its distance to this point, so while
    /// `R·base·k < 1` the die relaxes toward it without crossing it;
    /// `None` when the leakage feedback is that strong or stronger.
    pub fn coupled_steady_state_c(&self, leakage: &LeakageModel, base_w: f64) -> Option<f64> {
        let k = leakage.leakage_fraction * leakage.per_c;
        let gain = self.r_th_c_per_w * base_w * k;
        (gain < 1.0).then(|| {
            (self.ambient_c + self.r_th_c_per_w * base_w * (1.0 - k * leakage.reference_c))
                / (1.0 - gain)
        })
    }
}

/// Leakage-vs-temperature multiplier on package power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Share of package power that is leakage at the reference temperature.
    pub leakage_fraction: f64,
    /// Relative leakage increase per °C.
    pub per_c: f64,
    /// Reference temperature at which the calibrated powers hold, °C.
    pub reference_c: f64,
}

impl Default for LeakageModel {
    fn default() -> Self {
        Self::zen2()
    }
}

impl LeakageModel {
    /// 7 nm-class leakage behavior: ~12 % of power is leakage, growing
    /// ~0.4 %/°C of itself.
    pub fn zen2() -> Self {
        Self { leakage_fraction: 0.12, per_c: 0.004, reference_c: 68.0 }
    }

    /// The multiplier on package power at a die temperature.
    #[inline]
    pub fn multiplier(&self, die_c: f64) -> f64 {
        1.0 + self.leakage_fraction * self.per_c * (die_c - self.reference_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_at_tdp() {
        let t = ThermalModel::two_socket_air();
        assert!((t.steady_state_c(180.0) - 70.0).abs() < 1e-9);
        assert_eq!(t.steady_state_c(0.0), 25.0);
    }

    #[test]
    fn step_converges_exponentially() {
        let t = ThermalModel::two_socket_air();
        let mut temp = t.ambient_c;
        // One time constant: ~63 % of the way there.
        temp = t.step_by(temp, 180.0, t.alpha(60.0));
        assert!((temp - (25.0 + 45.0 * 0.632)).abs() < 0.2);
        // Fifteen minutes (the paper's pre-heat): fully settled.
        let settled = t.step_by(t.ambient_c, 180.0, t.alpha(900.0));
        assert!((settled - 70.0).abs() < 0.01);
    }

    #[test]
    fn step_is_monotone_toward_target() {
        let t = ThermalModel::two_socket_air();
        let warm = t.step_by(80.0, 100.0, t.alpha(30.0));
        assert!(warm < 80.0, "cooling toward a lower steady state");
        let cold = t.step_by(30.0, 100.0, t.alpha(30.0));
        assert!(cold > 30.0, "heating toward a higher steady state");
    }

    #[test]
    fn coupled_steady_state_is_the_leaky_step_fixed_point() {
        let t = ThermalModel::two_socket_air();
        let l = LeakageModel::zen2();
        for base_w in [0.0, 12.0, 180.0, 420.0] {
            let d = t.coupled_steady_state_c(&l, base_w).expect("weak feedback");
            let step = t.step_by(d, base_w * l.multiplier(d), t.alpha(0.1));
            assert!((step - d).abs() < 1e-9, "{base_w} W: {d} -> {step}");
            // From either side, the die relaxes toward it without crossing.
            for start in [d - 20.0, d + 20.0] {
                let next = t.step_by(start, base_w * l.multiplier(start), t.alpha(30.0));
                assert!((next - d).abs() < (start - d).abs() && (next - d) * (start - d) > 0.0);
            }
        }
        // Feedback gain R·base·k = 0.25 · 9000 · 0.00048 > 1: no fixed point.
        assert_eq!(t.coupled_steady_state_c(&l, 9000.0), None);
    }

    #[test]
    fn leakage_multiplier_is_small_but_positive() {
        let l = LeakageModel::zen2();
        assert!((l.multiplier(l.reference_c) - 1.0).abs() < 1e-12);
        let hot = l.multiplier(78.0);
        assert!(hot > 1.0 && hot < 1.01, "ten degrees adds ~0.5 %: {hot}");
        assert!(l.multiplier(58.0) < 1.0);
    }

    #[test]
    fn fig10_indirect_path_magnitude() {
        // The 21 W vxorps swing warms each package by ~2.4 C, which moves
        // leakage by well under one percent - the reason RAPL's averages
        // stay within 0.08 % while the wall sees 7.6 %.
        let t = ThermalModel::two_socket_air();
        let l = LeakageModel::zen2();
        let dt = t.steady_state_c(140.0 + 9.7) - t.steady_state_c(140.0);
        let dm = l.multiplier(70.0 + dt) - l.multiplier(70.0);
        assert!(dm < 0.002, "indirect leakage shift {dm}");
        assert!(dm > 0.0);
    }
}
