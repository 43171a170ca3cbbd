//! DIMM power model.
//!
//! DRAM power is the part of the system the paper shows AMD's RAPL to be
//! blind to: "No DRAM domain is available and the RAPL package domain
//! reports significantly lower power compared to the external measurement"
//! — so this component feeds *only* the true-power path, never the RAPL
//! estimate.

/// Whole-system DIMM power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramPowerModel {
    /// Number of DIMMs installed (16 on the paper's dual-socket board).
    pub dimms: u32,
    /// Per-DIMM power in self-refresh (packages in PC6), watts.
    pub self_refresh_w_per_dimm: f64,
    /// Per-DIMM standby power with the memory controller active, watts.
    pub standby_w_per_dimm: f64,
    /// Energy cost of traffic, W per GB/s of read+write DRAM traffic.
    pub w_per_gbs: f64,
}

impl Default for DramPowerModel {
    fn default() -> Self {
        Self::sixteen_dimms()
    }
}

impl DramPowerModel {
    /// One DIMM per channel on both sockets (the paper's configuration).
    pub fn sixteen_dimms() -> Self {
        Self { dimms: 16, self_refresh_w_per_dimm: 0.75, standby_w_per_dimm: 1.25, w_per_gbs: 0.23 }
    }

    /// Total DIMM power with all packages in PC6.
    pub fn self_refresh_w(&self) -> f64 {
        self.dimms as f64 * self.self_refresh_w_per_dimm
    }

    /// Total DIMM standby power with memory controllers awake.
    pub fn standby_w(&self) -> f64 {
        self.dimms as f64 * self.standby_w_per_dimm
    }

    /// Total DIMM power given traffic in GB/s (read + write), with awake
    /// controllers.
    pub fn power_w(&self, traffic_gbs: f64) -> f64 {
        assert!(traffic_gbs >= 0.0, "traffic cannot be negative");
        self.standby_w() + self.w_per_gbs * traffic_gbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_are_ordered() {
        let d = DramPowerModel::sixteen_dimms();
        assert!(d.self_refresh_w() < d.standby_w());
        assert!((d.self_refresh_w() - 12.0).abs() < 1e-9);
        assert!((d.standby_w() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_power_is_linear() {
        let d = DramPowerModel::sixteen_dimms();
        let idle = d.power_w(0.0);
        let loaded = d.power_w(100.0);
        assert!((loaded - idle - 23.0).abs() < 1e-9);
    }

    #[test]
    fn firestarter_traffic_level() {
        // ~185 GB/s of FIRESTARTER traffic adds ~43 W — part of the gap
        // between RAPL (2x170 W) and the wall (509 W).
        let d = DramPowerModel::sixteen_dimms();
        let add = d.power_w(185.0) - d.standby_w();
        assert!((add - 42.55).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_traffic_rejected() {
        let _ = DramPowerModel::sixteen_dimms().power_w(-1.0);
    }
}
