//! Per-execution-unit activity factors.
//!
//! Zen 2 clock-gates idle portions of its wide back-end at fine granularity
//! ("Zen 2 gated the FP clock mesh 128-bit regions with no additional
//! clocking overhead", Singh et al.). Dynamic core power therefore depends
//! on *which* units a workload keeps busy, not just on instruction count.
//! An [`ActivityVector`] captures per-unit utilization in `[0, 1]`; the
//! power model multiplies each entry by that unit's switched capacitance.

/// Utilization of each gateable core region, normalized to `[0, 1]`
/// (1 = the unit switches every cycle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityVector {
    /// Front-end: fetch windows consumed, decode slots, op-cache misses.
    pub frontend: f64,
    /// Integer ALUs and AGUs.
    pub int_alu: f64,
    /// Lower 128-bit lanes of the FP/SIMD units.
    pub fp128: f64,
    /// Upper 128-bit lanes — only powered for 256-bit SIMD work; their
    /// gating "saved 15 % clock mesh power ... where FP was inactive".
    pub fp256_upper: f64,
    /// Load/store pipes and L1D traffic.
    pub load_store: f64,
    /// L2 traffic intensity.
    pub l2: f64,
    /// L3 (CCX) traffic intensity.
    pub l3: f64,
}

impl ActivityVector {
    /// A fully idle core region set (clock-gated everything).
    pub const IDLE: ActivityVector = ActivityVector {
        frontend: 0.0,
        int_alu: 0.0,
        fp128: 0.0,
        fp256_upper: 0.0,
        load_store: 0.0,
        l2: 0.0,
        l3: 0.0,
    };

    /// Validates that every factor is a finite value in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in self.entries() {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(format!("activity factor {name} = {v} outside [0, 1]"));
            }
        }
        Ok(())
    }

    /// Named entries, for validation and diagnostics.
    pub fn entries(&self) -> [(&'static str, f64); 7] {
        [
            ("frontend", self.frontend),
            ("int_alu", self.int_alu),
            ("fp128", self.fp128),
            ("fp256_upper", self.fp256_upper),
            ("load_store", self.load_store),
            ("l2", self.l2),
            ("l3", self.l3),
        ]
    }

    /// Weighted sum against per-unit switched-capacitance weights; the
    /// power model's inner product.
    pub fn weighted_sum(&self, weights: &ActivityVector) -> f64 {
        self.frontend * weights.frontend
            + self.int_alu * weights.int_alu
            + self.fp128 * weights.fp128
            + self.fp256_upper * weights.fp256_upper
            + self.load_store * weights.load_store
            + self.l2 * weights.l2
            + self.l3 * weights.l3
    }

    /// Scales every factor (e.g. for partial-duty workloads), clamping to 1.
    pub fn scaled(&self, factor: f64) -> ActivityVector {
        assert!(factor >= 0.0 && factor.is_finite(), "scale factor must be non-negative");
        ActivityVector {
            frontend: (self.frontend * factor).min(1.0),
            int_alu: (self.int_alu * factor).min(1.0),
            fp128: (self.fp128 * factor).min(1.0),
            fp256_upper: (self.fp256_upper * factor).min(1.0),
            load_store: (self.load_store * factor).min(1.0),
            l2: (self.l2 * factor).min(1.0),
            l3: (self.l3 * factor).min(1.0),
        }
    }

    /// Combines the activity of two SMT threads sharing one core. Units
    /// saturate: two threads cannot switch one ALU twice per cycle.
    pub fn saturating_add(&self, other: &ActivityVector) -> ActivityVector {
        ActivityVector {
            frontend: (self.frontend + other.frontend).min(1.0),
            int_alu: (self.int_alu + other.int_alu).min(1.0),
            fp128: (self.fp128 + other.fp128).min(1.0),
            fp256_upper: (self.fp256_upper + other.fp256_upper).min(1.0),
            load_store: (self.load_store + other.load_store).min(1.0),
            l2: (self.l2 + other.l2).min(1.0),
            l3: (self.l3 + other.l3).min(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ActivityVector {
        ActivityVector {
            frontend: 0.5,
            int_alu: 0.25,
            fp128: 1.0,
            fp256_upper: 1.0,
            load_store: 0.5,
            l2: 0.1,
            l3: 0.05,
        }
    }

    #[test]
    fn idle_is_valid_and_zero() {
        ActivityVector::IDLE.validate().unwrap();
        assert_eq!(ActivityVector::IDLE.weighted_sum(&sample()), 0.0);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut v = sample();
        v.fp256_upper = 1.5;
        assert!(v.validate().unwrap_err().contains("fp256_upper"));
        v.fp256_upper = f64::NAN;
        assert!(v.validate().is_err());
        v.fp256_upper = -0.1;
        assert!(v.validate().is_err());
    }

    #[test]
    fn weighted_sum_is_inner_product() {
        let v = sample();
        let mut w = ActivityVector::IDLE;
        w.fp128 = 2.0;
        w.fp256_upper = 3.0;
        assert!((v.weighted_sum(&w) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_clamps_at_one() {
        let v = sample().scaled(4.0);
        assert_eq!(v.fp128, 1.0);
        assert_eq!(v.int_alu, 1.0);
        v.validate().unwrap();
        let half = sample().scaled(0.5);
        assert!((half.frontend - 0.25).abs() < 1e-12);
    }

    #[test]
    fn saturating_add_models_shared_units() {
        let v = sample().saturating_add(&sample());
        assert_eq!(v.fp128, 1.0);
        assert!((v.int_alu - 0.5).abs() < 1e-12);
        v.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scaled_rejects_negative() {
        let _ = sample().scaled(-1.0);
    }
}
