//! AC/DC conversion.
//!
//! The external reference measures *wall* power; all component models in
//! this crate produce DC. A linear loss model (fixed conversion overhead
//! plus a proportional term) matches server PSUs well over the load range
//! the paper exercises (99 W idle to 509 W FIRESTARTER) and keeps the
//! calibration chain invertible.

/// Linear PSU loss model: `AC = idle_loss + marginal · DC`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsuModel {
    /// Fixed conversion overhead in watts (fans in the PSU, standby rail).
    pub idle_loss_w: f64,
    /// Marginal AC watts per DC watt.
    pub marginal_ac_per_dc: f64,
}

impl Default for PsuModel {
    fn default() -> Self {
        Self::server_psu()
    }
}

impl PsuModel {
    /// Calibration for the paper's system: ~81 % efficient at the 99 W
    /// idle point, ~90 % at the 509 W FIRESTARTER point.
    pub fn server_psu() -> Self {
        Self { idle_loss_w: 12.0, marginal_ac_per_dc: 1.08 }
    }

    /// Wall power for a DC load.
    #[inline]
    pub fn ac_from_dc(&self, dc_w: f64) -> f64 {
        assert!(dc_w >= 0.0, "DC load cannot be negative");
        self.idle_loss_w + self.marginal_ac_per_dc * dc_w
    }

    /// Conversion efficiency at a DC load.
    pub fn efficiency(&self, dc_w: f64) -> f64 {
        assert!(dc_w > 0.0, "efficiency undefined at zero load");
        dc_w / self.ac_from_dc(dc_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_improves_with_load() {
        let psu = PsuModel::server_psu();
        assert!(psu.efficiency(80.0) < psu.efficiency(460.0));
        assert!((psu.efficiency(80.0) - 0.808).abs() < 0.01);
        assert!((psu.efficiency(460.0) - 0.901).abs() < 0.01);
    }

    #[test]
    fn idle_and_firestarter_anchor_points() {
        let psu = PsuModel::server_psu();
        assert!((psu.ac_from_dc(80.65) - 99.1).abs() < 0.1);
        assert!((psu.ac_from_dc(460.4) - 509.2).abs() < 0.5);
    }

    #[test]
    fn marginal_watt_is_the_fig7_conversion() {
        // Component deltas calibrated in DC convert to the paper's AC
        // deltas through the marginal term: 0.306 W DC -> 0.33 W AC.
        let psu = PsuModel::server_psu();
        let delta = psu.ac_from_dc(100.306) - psu.ac_from_dc(100.0);
        assert!((delta - 0.33).abs() < 0.003);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_load_rejected() {
        let _ = PsuModel::server_psu().ac_from_dc(-1.0);
    }
}
