//! The event-based power estimate.

use zen2_isa::{ActivityVector, Kernel, SmtMode};

/// AMD's internal power model: per-unit event rates times calibrated
/// weights, plus a thermal-diode leakage term. Deliberately blind to
/// operand data and DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct RaplModel {
    /// Base estimate per active core, W per (GHz·V²).
    pub k_base: f64,
    /// Scale on weighted event activity, W per (GHz·V²).
    pub k_units: f64,
    /// Per-unit event weights (the ">1300 critical path monitors ... 48
    /// on-die power supply monitors" distilled into unit coefficients).
    pub unit_weights: ActivityVector,
    /// Leakage term from the thermal diodes, W per °C per core.
    pub temp_coeff_w_per_c: f64,
    /// Reference die temperature for the leakage term, °C.
    pub temp_ref_c: f64,
    /// Uncore estimate per awake package, watts.
    pub uncore_awake_w: f64,
    /// Uncore estimate per sleeping (PC6) package, watts.
    pub uncore_pc6_w: f64,
    /// Estimate jitter (1σ, watts) per core sample: sensor quantization
    /// and model update noise, the spread visible in Fig. 10b.
    pub noise_sigma_w: f64,
}

impl Default for RaplModel {
    fn default() -> Self {
        Self::zen2()
    }
}

impl RaplModel {
    /// The calibrated Rome model. `k_base`/`k_units` are chosen so the
    /// SMU's PPT loop (target 170 W estimated) lands on the paper's
    /// Fig. 6 equilibria: 2.05 GHz with SMT, 2.10 GHz without.
    pub fn zen2() -> Self {
        Self {
            k_base: 0.04,
            k_units: 0.5317,
            unit_weights: ActivityVector {
                frontend: 0.8,
                int_alu: 0.7,
                fp128: 1.0,
                fp256_upper: 1.0,
                load_store: 0.6,
                l2: 0.3,
                l3: 0.4,
            },
            temp_coeff_w_per_c: 0.000_67,
            temp_ref_c: 68.0,
            uncore_awake_w: 42.0,
            uncore_pc6_w: 8.0,
            noise_sigma_w: 0.002,
        }
    }

    /// Estimated power of one active core. Note what is *not* here: no
    /// operand-toggle factor, no DRAM traffic, no per-thread residency
    /// overhead — the blind spots the paper measures.
    pub fn core_estimate_w(
        &self,
        kernel: &Kernel,
        smt: SmtMode,
        freq_ghz: f64,
        voltage_v: f64,
        die_c: f64,
    ) -> f64 {
        self.core_activity_estimate_w(kernel, smt, freq_ghz, voltage_v)
            + self.temperature_term_w(die_c)
    }

    /// The event-activity part of [`core_estimate_w`](Self::core_estimate_w):
    /// everything but the die-temperature term, so it depends only on the
    /// kernel and the operating point.
    pub fn core_activity_estimate_w(
        &self,
        kernel: &Kernel,
        smt: SmtMode,
        freq_ghz: f64,
        voltage_v: f64,
    ) -> f64 {
        assert!(freq_ghz > 0.0 && voltage_v > 0.0, "operating point must be positive");
        let fv2 = freq_ghz * voltage_v * voltage_v;
        let activity = kernel.core_activity(smt).weighted_sum(&self.unit_weights);
        fv2 * (self.k_base + self.k_units * activity)
    }

    /// The thermal-diode leakage term of one core's estimate at die
    /// temperature `die_c` (negative below the reference temperature).
    #[inline]
    pub fn temperature_term_w(&self, die_c: f64) -> f64 {
        self.temp_coeff_w_per_c * (die_c - self.temp_ref_c)
    }

    /// Estimated power of an idle (C1/C2) core: the event view sees no
    /// activity at all, only the leakage term.
    #[inline]
    pub fn idle_core_estimate_w(&self, die_c: f64) -> f64 {
        self.temperature_term_w(die_c).max(0.0)
    }

    /// Package estimate: sum of core estimates plus the uncore constant.
    #[inline]
    pub fn package_estimate_w(&self, core_estimates_sum_w: f64, awake: bool) -> f64 {
        core_estimates_sum_w + if awake { self.uncore_awake_w } else { self.uncore_pc6_w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen2_isa::{KernelClass, OperandWeight, WorkloadSet};
    use zen2_power::CorePowerModel;

    fn set() -> WorkloadSet {
        WorkloadSet::paper()
    }

    #[test]
    fn firestarter_estimate_hits_ppt_at_fig6_equilibria() {
        // At 2.10 GHz single-thread the estimate must read ~170 W per
        // package: 42 W uncore + 32 cores x 4.0 W.
        let m = RaplModel::zen2();
        let fs = set().kernel(KernelClass::Firestarter).clone();
        let single = m.core_estimate_w(&fs, SmtMode::Single, 2.1, 0.935_714, 68.0);
        let pkg = m.package_estimate_w(32.0 * single, true);
        assert!((pkg - 170.0).abs() < 2.0, "single-thread estimate {pkg:.1} W");
        // With SMT the same 170 W is reached at ~2.05 GHz.
        let smt = m.core_estimate_w(&fs, SmtMode::Both, 2.05, 0.928_571, 68.0);
        let pkg = m.package_estimate_w(32.0 * smt, true);
        assert!((pkg - 170.0).abs() < 2.0, "SMT estimate {pkg:.1} W");
    }

    #[test]
    fn estimate_is_blind_to_operand_weight() {
        // True power swings 0.30 W/core between weights; the estimate is
        // bit-identical (the temperature term enters only through die_c).
        let m = RaplModel::zen2();
        let vx = set().kernel(KernelClass::VXorps).clone();
        let a = m.core_estimate_w(&vx, SmtMode::Both, 2.5, 1.0, 70.0);
        let b = m.core_estimate_w(&vx, SmtMode::Both, 2.5, 1.0, 70.0);
        assert_eq!(a, b);
        let truth = CorePowerModel::zen2();
        let t0 = truth.active_power_w(&vx, SmtMode::Both, 2.5, 1.0, OperandWeight::ZERO);
        let t1 = truth.active_power_w(&vx, SmtMode::Both, 2.5, 1.0, OperandWeight::FULL);
        assert!(t1 - t0 > 0.2, "truth must swing while the estimate cannot");
    }

    #[test]
    fn temperature_is_the_only_data_path() {
        let m = RaplModel::zen2();
        let vx = set().kernel(KernelClass::VXorps).clone();
        let cool = m.core_estimate_w(&vx, SmtMode::Both, 2.5, 1.0, 70.0);
        let warm = m.core_estimate_w(&vx, SmtMode::Both, 2.5, 1.0, 72.4);
        let shift = warm - cool;
        // Fig. 10b: average shift within 0.08 % of ~2 W.
        assert!(shift > 0.0 && shift < 0.005, "indirect shift {shift} W");
    }

    #[test]
    fn no_dram_term_exists() {
        // memory_read at identical core settings estimates the same power
        // regardless of how much DRAM traffic it generates — there is no
        // traffic input to the model at all.
        let m = RaplModel::zen2();
        let mr = set().kernel(KernelClass::MemoryRead).clone();
        let est = m.core_estimate_w(&mr, SmtMode::Single, 2.5, 1.0, 68.0);
        // The estimate only carries the (small) core-side activity.
        assert!(est < 2.0, "memory core estimate {est:.2} W is core-side only");
    }

    #[test]
    fn smt_estimate_ratio_is_smaller_than_truth() {
        let m = RaplModel::zen2();
        let truth = CorePowerModel::zen2();
        let fs = set().kernel(KernelClass::Firestarter).clone();
        let est_ratio = m.core_estimate_w(&fs, SmtMode::Both, 2.1, 0.9357, 68.0)
            / m.core_estimate_w(&fs, SmtMode::Single, 2.1, 0.9357, 68.0);
        let true_ratio = truth.active_power_w(&fs, SmtMode::Both, 2.1, 0.9357, OperandWeight::HALF)
            / truth.active_power_w(&fs, SmtMode::Single, 2.1, 0.9357, OperandWeight::HALF);
        assert!(est_ratio < true_ratio, "est {est_ratio:.3} vs true {true_ratio:.3}");
        assert!(est_ratio > 1.0 && est_ratio < 1.08);
    }

    #[test]
    fn idle_core_estimate_is_tiny() {
        let m = RaplModel::zen2();
        assert_eq!(m.idle_core_estimate_w(68.0), 0.0);
        assert!(m.idle_core_estimate_w(80.0) < 0.01);
    }

    #[test]
    fn package_estimate_adds_uncore() {
        let m = RaplModel::zen2();
        assert_eq!(m.package_estimate_w(100.0, true), 142.0);
        assert_eq!(m.package_estimate_w(0.0, false), 8.0);
    }
}
