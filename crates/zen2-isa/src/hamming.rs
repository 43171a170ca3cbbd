//! Operand-data power dependence (Section VII-B).
//!
//! "The power consumption for executing a workload does not only depend on
//! the used instructions, but also on the processed data." The paper drives
//! `vxorps`/`shr` loops whose operands have a controlled *relative Hamming
//! weight* (fraction of set bits: 0, 0.5 or 1) and shows a 21 W / 7.6 %
//! full-system AC difference for `vxorps` that AMD's RAPL does not reflect.
//!
//! [`ToggleModel`] converts an operand weight into a dynamic-power *toggle
//! factor* — the multiplier on the data-sensitive share of a kernel's
//! switched capacitance. [`sample_with_weight`] generates operand values of
//! a given weight for tests and for the (deliberately blind) RAPL model's
//! counterexamples.

use rand::Rng;

/// Relative Hamming weight of operand data: fraction of set bits in `[0,1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct OperandWeight(pub f64);

impl OperandWeight {
    /// All-zero operands.
    pub const ZERO: OperandWeight = OperandWeight(0.0);
    /// Half the bits set — the typical-case reference.
    pub const HALF: OperandWeight = OperandWeight(0.5);
    /// All-ones operands.
    pub const FULL: OperandWeight = OperandWeight(1.0);

    /// The three weights the paper sweeps.
    pub const PAPER_SWEEP: [OperandWeight; 3] =
        [OperandWeight::ZERO, OperandWeight::HALF, OperandWeight::FULL];

    /// Validates the weight is a fraction.
    pub fn validate(self) -> Result<Self, String> {
        if self.0.is_finite() && (0.0..=1.0).contains(&self.0) {
            Ok(self)
        } else {
            Err(format!("operand weight {} outside [0, 1]", self.0))
        }
    }
}

/// Linear toggle-factor model: data-sensitive switched capacitance scales
/// with the number of toggling result bits.
///
/// For an xor whose destination toggles proportionally to the operand
/// weight, the factor at weight `w` is `base + span * w`. The factor is
/// normalized so weight 0.5 gives 1.0 (typical data), which keeps
/// calibration of the absolute power model independent of the data sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToggleModel {
    /// Factor at weight 0.
    pub base: f64,
    /// Increase from weight 0 to weight 1.
    pub span: f64,
}

impl ToggleModel {
    /// A data-insensitive model (factor 1 regardless of weight).
    pub const FLAT: ToggleModel = ToggleModel { base: 1.0, span: 0.0 };

    /// Builds a model from the relative power swing between weight 0 and
    /// weight 1 (e.g. `0.152` for the 15.2 % swing that produces the
    /// paper's 21 W at a 276 W operating point when applied to the
    /// data-sensitive share). Normalized to 1.0 at weight 0.5.
    pub fn with_relative_swing(swing: f64) -> Self {
        assert!((0.0..2.0).contains(&swing), "implausible toggle swing {swing}");
        // factor(w) = base + span*w with factor(0.5) = 1 and
        // (factor(1) - factor(0)) / factor(0.5) = swing.
        ToggleModel { base: 1.0 - swing / 2.0, span: swing }
    }

    /// The toggle factor for operands of weight `w`.
    pub fn factor(&self, w: OperandWeight) -> f64 {
        let w = w.validate().expect("operand weight validated");
        self.base + self.span * w.0
    }
}

/// Generates a 64-bit operand whose expected relative Hamming weight is `w`
/// (each bit set independently with probability `w`).
pub fn sample_with_weight<R: Rng + ?Sized>(rng: &mut R, w: OperandWeight) -> u64 {
    let w = w.validate().expect("operand weight validated");
    if w.0 <= 0.0 {
        return 0;
    }
    if w.0 >= 1.0 {
        return u64::MAX;
    }
    let mut value = 0u64;
    for bit in 0..64 {
        if rng.gen_bool(w.0) {
            value |= 1 << bit;
        }
    }
    value
}

/// The relative Hamming weight of a value.
pub fn relative_weight(value: u64) -> f64 {
    value.count_ones() as f64 / 64.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn toggle_model_normalized_at_half_weight() {
        let m = ToggleModel::with_relative_swing(0.152);
        assert!((m.factor(OperandWeight::HALF) - 1.0).abs() < 1e-12);
        let swing = m.factor(OperandWeight::FULL) - m.factor(OperandWeight::ZERO);
        assert!((swing - 0.152).abs() < 1e-12);
        assert!(m.factor(OperandWeight::ZERO) < m.factor(OperandWeight::FULL));
    }

    #[test]
    fn flat_model_ignores_weight() {
        for w in OperandWeight::PAPER_SWEEP {
            assert_eq!(ToggleModel::FLAT.factor(w), 1.0);
        }
    }

    #[test]
    fn extreme_weights_are_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(sample_with_weight(&mut rng, OperandWeight::ZERO), 0);
        assert_eq!(sample_with_weight(&mut rng, OperandWeight::FULL), u64::MAX);
        assert_eq!(relative_weight(0), 0.0);
        assert_eq!(relative_weight(u64::MAX), 1.0);
    }

    #[test]
    fn sampled_weight_concentrates_near_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mean: f64 = (0..2000)
            .map(|_| relative_weight(sample_with_weight(&mut rng, OperandWeight::HALF)))
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean weight {mean}");
    }

    #[test]
    fn invalid_weight_is_rejected() {
        assert!(OperandWeight(1.5).validate().is_err());
        assert!(OperandWeight(f64::NAN).validate().is_err());
        assert!(OperandWeight(-0.1).validate().is_err());
    }
}
