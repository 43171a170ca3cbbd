//! RAPL unit register encoding and counter arithmetic.
//!
//! AMD replaced APM with RAPL on Zen (Section III-C of the paper). The
//! `RAPL_PWR_UNIT` register carries three unit fields; energy counters are
//! 32-bit and wrap. The default AMD energy status unit is 2⁻¹⁶ J ≈ 15.26 µJ.

/// Decoded `RAPL_PWR_UNIT` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaplUnits {
    /// Power unit exponent: power LSB = 2^-pu W (bits 3:0).
    pub power_unit: u8,
    /// Energy status unit exponent: energy LSB = 2^-esu J (bits 12:8).
    pub energy_unit: u8,
    /// Time unit exponent: time LSB = 2^-tu s (bits 19:16).
    pub time_unit: u8,
}

impl Default for RaplUnits {
    fn default() -> Self {
        Self::amd_default()
    }
}

impl RaplUnits {
    /// AMD Family 17h reset values: PU = 3 (125 mW), ESU = 16 (15.26 µJ),
    /// TU = 10 (977 µs).
    pub fn amd_default() -> Self {
        Self { power_unit: 3, energy_unit: 16, time_unit: 10 }
    }

    /// Joules represented by one energy-counter LSB: 2^-ESU, built from
    /// its exponent bits. Every power of two down to 2^-255 is a normal
    /// `f64`, so this is exactly `0.5f64.powi(ESU)` without a call to the
    /// integer-power routine on each counter conversion.
    #[inline]
    pub fn joules_per_count(&self) -> f64 {
        f64::from_bits((1023 - self.energy_unit as u64) << 52)
    }

    /// Converts joules into counter counts (truncating, as hardware does).
    #[inline]
    pub fn joules_to_counts(&self, joules: f64) -> u64 {
        (joules / self.joules_per_count()) as u64
    }

    /// Converts a counter value into joules.
    #[inline]
    pub fn counts_to_joules(&self, counts: u64) -> f64 {
        counts as f64 * self.joules_per_count()
    }

    /// Encodes into the register format.
    pub fn encode(&self) -> u64 {
        (self.power_unit as u64 & 0xF)
            | ((self.energy_unit as u64 & 0x1F) << 8)
            | ((self.time_unit as u64 & 0xF) << 16)
    }

    /// Decodes from the register format.
    pub fn decode(raw: u64) -> Self {
        Self {
            power_unit: (raw & 0xF) as u8,
            energy_unit: ((raw >> 8) & 0x1F) as u8,
            time_unit: ((raw >> 16) & 0xF) as u8,
        }
    }
}

/// Computes the energy consumed between two reads of a wrapping 32-bit
/// energy counter, in counter LSBs.
///
/// Tools must handle wraparound: at ~15.26 µJ per count a 32-bit counter
/// wraps after ~65.5 kJ — under six minutes at a 180 W package TDP.
#[inline]
pub fn counter_delta(before: u32, after: u32) -> u64 {
    after.wrapping_sub(before) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amd_default_units() {
        let u = RaplUnits::amd_default();
        assert!((u.joules_per_count() - 15.258789e-6).abs() < 1e-11);
        assert_eq!(u.power_unit, 3);
        assert_eq!(u.time_unit, 10);
    }

    #[test]
    fn joules_per_count_is_the_exact_power_of_two() {
        for energy_unit in 0..=u8::MAX {
            let u = RaplUnits { energy_unit, ..RaplUnits::amd_default() };
            assert_eq!(u.joules_per_count().to_bits(), 0.5f64.powi(energy_unit as i32).to_bits());
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let u = RaplUnits { power_unit: 5, energy_unit: 14, time_unit: 9 };
        assert_eq!(RaplUnits::decode(u.encode()), u);
        assert_eq!(RaplUnits::decode(RaplUnits::amd_default().encode()), RaplUnits::amd_default());
    }

    #[test]
    fn joule_count_round_trip() {
        let u = RaplUnits::amd_default();
        let counts = u.joules_to_counts(1.0);
        let joules = u.counts_to_joules(counts);
        assert!((joules - 1.0).abs() < 2.0 * u.joules_per_count());
    }

    #[test]
    fn counter_delta_handles_wrap() {
        assert_eq!(counter_delta(10, 20), 10);
        assert_eq!(counter_delta(u32::MAX, 4), 5);
        assert_eq!(counter_delta(0, 0), 0);
    }
}
